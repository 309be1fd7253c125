"""_gauss._dot at the edges of its exactness argument, on worst-case operands.

Every coefficient of both operands is p - 1, so every dot product is as large
as the field allows; the reference is the same product in Python ints
(FieldElement arithmetic over GF(p^2)). Each constant product entry is
n e^2 for the operands' entry e and inner dimension n.

Where (p - 1)^2 n >= 2^63, _dot runs float64 products of limbs: the right
operand's kb limbs stack along the inner dimension, which then runs in
chunks of c stacked indices, c the largest with c times the largest limb
product below 2^53. For 2^31 - 1, c = 64 and kb = 2 (16-bit limbs against
whole residues); for the primes from 2^31, c = 2048 and kb = 3 (21-bit
limbs on both sides). A chunk ends at n = c / kb and at n = c alike, so the
inner dimensions sit on both sides of each.
"""

import numpy as np
import pytest

from sdmm import _gauss
from sdmm.fields import make_field

P31, P61 = (1 << 31) - 1, (1 << 61) - 1
FIELDS = {  # field -> (c, kb) of its prime
    "GF(2^31-1)": (make_field(P31), (64, 2)),
    "GF(2147483659)": (make_field(2147483659), (2048, 3)),  # the first prime above 2^31
    "GF(2^61-1)": (make_field(P61), (2048, 3)),
    "GF((2^31-1)^2)": (make_field(P31, 2), (64, 2)),
    "GF((2^61-1)^2)": (make_field(P61, 2), (2048, 3)),
}


def inner_dimensions(c, kb):
    ends = (c // kb, c)
    return sorted({0, 1} | {n for end in ends for n in (end - 1, end, end + 1, 2 * end + 1)})


CASES = [pytest.param(name, n, id=f"{name}-n{n}")
         for name, (_, chunk) in FIELDS.items() for n in inner_dimensions(*chunk)]


def worst(shape, ctx):
    return np.full(shape + (ctx.r,), ctx.p - 1, dtype=np.int64)


def reference(n, ctx):
    """The coefficients of n e^2 for e = (p - 1, ..., p - 1), in Python ints."""
    e = ctx.element([ctx.p - 1] * ctx.r)
    return (e * e * ctx.element(n % ctx.p)).coeffs


@pytest.mark.parametrize("name, n", CASES)
def test_worst_case_products_are_exact_at_every_chunk_end(name, n):
    ctx, _ = FIELDS[name]
    got = _gauss.matmul(worst((2, n), ctx), worst((n, 3), ctx), ctx)
    assert got.shape == (2, 3, ctx.r) and got.dtype == np.int64
    assert all(tuple(int(v) for v in entry) == reference(n, ctx)
               for entry in got.reshape(-1, ctx.r))


@pytest.mark.parametrize("name", FIELDS)
def test_a_leading_batch_axis_reduces_each_product_as_alone(name):
    # decode's apply multiplies one operator against a stack of right-hand
    # sides: a past the first chunk end, broadcast against a batch of b
    ctx, (c, kb) = FIELDS[name]
    n = c // kb + 1
    a = worst((2, n), ctx)
    b = np.stack([worst((n, 3), ctx), np.zeros((n, 3, ctx.r), dtype=np.int64)])
    got = _gauss.matmul(a, b, ctx)
    assert got.shape == (2, 2, 3, ctx.r)
    assert np.array_equal(got[0], _gauss.matmul(a, b[0], ctx)) and not got[1].any()
    assert all(tuple(int(v) for v in entry) == reference(n, ctx)
               for entry in got[0].reshape(-1, ctx.r))


@pytest.mark.parametrize("side", ["direct", "limbs"])
def test_both_sides_of_the_int64_bound_are_exact(side):
    # a prime near 2^24 reaches (p - 1)^2 n = 2^63 at n = 32769; below it
    # _dot takes one int64 product, from it on limbs in chunks of 8192
    # stacked inner indices
    ctx = make_field(16777213)
    bound = -(-(1 << 63) // (ctx.p - 1) ** 2)
    assert (ctx.p - 1) ** 2 * (bound - 1) < 1 << 63 <= (ctx.p - 1) ** 2 * bound
    n = bound - 1 if side == "direct" else bound
    got = _gauss.matmul(worst((1, n), ctx), worst((n, 2), ctx), ctx)
    assert got[..., 0].tolist() == [[n * (ctx.p - 1) ** 2 % ctx.p] * 2]
