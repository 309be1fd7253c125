"""_gauss._product and the entry arithmetic built on it, against Python ints.

From 2^31 _product splits its right factor at 2^31 and reduces each of its
three products with a truncated float64 quotient. The primes sit on both
sides of 2^32 and just below 2^61, and GF((2^61-1)^2) forms and folds its
plane products through it. The operands are the field's edges (0, 1, p - 1,
p - 2, the two halves of p and 2^60 mod p) and the factors about the split
(2^31 - 1, 2^31 and 2^31 + 1), every one crossed with every other; mul,
_step and _inverses are compared with FieldElement arithmetic on them.
"""

import numpy as np
import pytest

from sdmm import _gauss
from sdmm.fields import make_field

P61 = (1 << 61) - 1
PRIMES = (2147483659, 4294967311, 2305843009213693921, P61)  # 2147483659: the first above 2^31
FIELDS = [make_field(p) for p in PRIMES] + [make_field(P61, 2)]


def edges(p):
    split = ((1 << 31) - 1, 1 << 31, (1 << 31) + 1)
    return sorted({0, 1, p - 1, p - 2, p // 2, p // 2 + 1, (1 << 60) % p, *split})


def elements(ctx):
    """Every edge coefficient in every place: the edges over GF(p), pairs of them over GF(p^2)."""
    e = edges(ctx.p)
    rows = [(x,) for x in e] if ctx.r == 1 else [(x, y) for x in e for y in e]
    return np.array(rows, dtype=np.int64)


def crossed(ctx):
    """(a, b), every element against every other, as two (n^2, r) arrays."""
    x = elements(ctx)
    return np.repeat(x, len(x), axis=0), np.tile(x, (len(x), 1))


def field(array, ctx):
    return [ctx.element(c) for c in array.tolist()]


@pytest.mark.parametrize("p", PRIMES)
def test_product_is_congruent_and_below_2_62(p):
    e = edges(p)
    rng = np.random.default_rng(p % 1000)
    a = np.concatenate([np.repeat(e, len(e)), rng.integers(0, p, 1 << 14)])
    b = np.concatenate([np.tile(e, len(e)), rng.integers(0, p, 1 << 14)])
    got = _gauss._product(a, b, p)
    assert got.dtype == np.int64
    assert all(0 <= v < 1 << 62 and v % p == x * y % p
               for v, x, y in zip(got.tolist(), a.tolist(), b.tolist()))


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_mul_matches_field_elements_on_every_edge_pair(ctx):
    a, b = crossed(ctx)
    got = _gauss.mul(a, b, ctx)
    assert got.dtype == np.int64
    assert field(got, ctx) == [x * y for x, y in zip(field(a, ctx), field(b, ctx))]


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_column_step_matches_field_elements_on_every_edge_pair(ctx):
    # pivot * rows - lead * pivot_row, with lead and pivot_row the pairs reversed
    a, b = crossed(ctx)
    got = _gauss._step(a, b, b[::-1], a[::-1], ctx)
    x, y = field(a, ctx), field(b, ctx)
    assert got.dtype == np.int64
    assert field(got, ctx) == [s * t - u * v for s, t, u, v in zip(x, y, y[::-1], x[::-1])]


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_inverses_match_field_elements_on_every_edge(ctx):
    pivots = elements(ctx)
    got = _gauss._inverses(pivots, ctx)
    assert got.dtype == np.int64
    assert field(got, ctx) == [x if x.is_zero() else x.inv() for x in field(pivots, ctx)]


@pytest.mark.parametrize("t", range(1, 12))
def test_laplace_sums_past_2_63_are_reduced_as_they_are_added(t):
    # the terms row[S_i] * 1 are p - 1 at even i and 1 at odd i, so every
    # signed term is p - 1: from t = 5 terms t p passes 2^63 and expand
    # reduces as it adds; from t = 9 the even terms alone sum past 2^63
    ctx = make_field(P61)
    row = np.array([[P61 - 1 if i % 2 == 0 else 1] for i in range(t)], dtype=np.int64)
    cols = np.arange(t)[:, None]
    got = _gauss.expand(row, cols, np.ones((1, 1), dtype=np.int64), np.zeros_like(cols), ctx)
    assert got.dtype == np.int64 and got.tolist() == [[-t % P61]]

