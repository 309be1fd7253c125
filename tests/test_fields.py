import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from sdmm.errors import (
    BadSpec,
    DivisionByZero,
    NoSuchRoot,
    NoSuchSubgroup,
    NotIrreducible,
    NotPrime,
)
from sdmm.fields import (
    FieldCtx,
    _poly_is_irreducible,
    MultCounter,
    is_prime,
    largest_coprime_subgroup_order,
    make_field,
    parse_field_spec,
    prime_factors,
    primitive_root_of_unity,
    subgroup_elements,
)


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2**31 - 1)


def test_prime_factors():
    assert prime_factors(60) == [2, 3, 5]
    assert prime_factors(13) == [13]
    assert prime_factors(1024) == [2]


def test_make_field_rejects_composites():
    with pytest.raises(NotPrime):
        make_field(10)
    with pytest.raises(NotPrime):
        make_field(1)


def test_make_field_rejects_reducible_modulus():
    # x^2 - 1 = (x-1)(x+1) over GF(7)
    with pytest.raises(NotIrreducible):
        make_field(7, 2, modulus=[6, 0, 1])


@pytest.mark.parametrize("modulus", [[1, 2, 3], [5, 2], [1], [0, 0, 1]])
def test_prime_field_modulus_must_be_monic_linear(modulus):
    with pytest.raises(NotIrreducible):
        make_field(31, 1, modulus=modulus)


def test_monic_linear_modulus_names_the_prime_field():
    ctx = parse_field_spec("31/5,1")
    assert ctx == make_field(31)
    assert ctx.spec_string() == "31"


def _mobius(n):
    factors = prime_factors(n)
    if any(n % (q * q) == 0 for q in factors):
        return 0
    return (-1) ** len(factors)


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3),
                                 (3, 4), (5, 2), (5, 3), (7, 2), (13, 2)])
def test_irreducible_count_matches_gauss_formula(p, r):
    # monic irreducibles of degree r over GF(p): (1/r) sum_{d | r} mu(d) p^(r/d)
    want = sum(_mobius(d) * p ** (r // d) for d in range(1, r + 1) if r % d == 0) // r
    got = sum(_poly_is_irreducible(low + (1,), p)
              for low in itertools.product(range(p), repeat=r))
    assert got == want


def test_seeded_moduli_are_frozen():
    # every GF(p^r) plan, simulation and benchmark input is built on these
    want = {(13, 2): (9, 2, 1), (31, 2): (29, 13, 1), (2, 5): (1, 0, 1, 0, 0, 1),
            (3, 4): (2, 0, 2, 0, 1), (61, 3): (41, 31, 25, 1)}
    for (p, r), modulus in want.items():
        assert make_field(p, r).modulus_poly == modulus


def test_field_spec_round_trip():
    for spec in ("13", "31", "13^2", "2^8", "13^2/2,1,1"):
        ctx = parse_field_spec(spec)
        again = parse_field_spec(ctx.spec_string())
        assert again == ctx
    with pytest.raises(BadSpec):
        parse_field_spec("13^")
    with pytest.raises(BadSpec):
        parse_field_spec("abc")


def test_extension_field_size():
    ctx = make_field(13, 2)
    assert ctx.order == 169
    seen = {e.index() for e in ctx.elements()}
    assert len(seen) == 169


def test_index_round_trip():
    ctx = make_field(13, 2)
    for idx in (0, 1, 12, 13, 168):
        assert ctx.from_index(idx).index() == idx


def test_element_coercion():
    ctx = make_field(7)
    assert ctx.element(10) == ctx.element(3)
    assert ctx.element(-1) == ctx.element(6)
    ext = make_field(7, 2)
    assert ext.element([3, 0]) == ext.element(3)


def test_division_by_zero():
    ctx = make_field(7)
    with pytest.raises(DivisionByZero):
        ctx.element(3) / ctx.element(0)
    with pytest.raises(DivisionByZero):
        ctx.zero().inv()


_FIELDS = [make_field(2), make_field(13), make_field(31), make_field(61),
           make_field(13, 2), make_field(2, 4), make_field(3, 3)]


@st.composite
def field_and_elems(draw, n):
    ctx = draw(st.sampled_from(_FIELDS))
    idxs = draw(st.lists(st.integers(0, ctx.order - 1), min_size=n, max_size=n))
    return ctx, [ctx.from_index(i) for i in idxs]


@given(field_and_elems(3))
def test_ring_axioms(fe):
    ctx, (a, b, c) = fe
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + ctx.zero() == a
    assert a * ctx.one() == a
    assert a - a == ctx.zero()


@given(field_and_elems(1))
def test_multiplicative_inverse(fe):
    ctx, (a,) = fe
    if a.is_zero():
        return
    assert a * a.inv() == ctx.one()
    # inversion is exponentiation by order - 2, which the power chain must match
    assert a.inv() == a.pow_(ctx.order - 2)


@given(field_and_elems(1), st.integers(0, 300))
def test_pow_matches_repeated_multiplication(fe, e):
    ctx, (a,) = fe
    acc = ctx.one()
    for _ in range(e % 20):
        acc = acc * a
    assert a.pow_(e % 20) == acc


@given(field_and_elems(1))
def test_multiplicative_order_divides_group_order(fe):
    ctx, (a,) = fe
    if a.is_zero():
        return
    order = a.multiplicative_order()
    assert (ctx.order - 1) % order == 0
    assert a.pow_(order) == ctx.one()


def test_primitive_root_of_unity_basics():
    ctx = make_field(7)
    z = primitive_root_of_unity(ctx, 3)
    assert z.index() == 2  # smallest of the two cube roots
    assert z.pow_(3) == ctx.one()
    assert z != ctx.one()
    assert primitive_root_of_unity(ctx, 1) == ctx.one()
    with pytest.raises(NoSuchRoot):
        primitive_root_of_unity(ctx, 4)  # 4 does not divide 6


def test_primitive_root_order_is_exact():
    ctx = make_field(61)
    for m in (2, 3, 4, 5, 6, 10, 12, 20):
        z = primitive_root_of_unity(ctx, m)
        assert z.multiplicative_order() == m


def test_subgroup_elements():
    ctx = make_field(31)
    sub = subgroup_elements(ctx, 10)
    assert len(sub) == 10
    idxs = {e.index() for e in sub}
    assert idxs == {pow(15, k, 31) for k in range(10)}
    for e in sub:
        assert e.pow_(10) == ctx.one()
    with pytest.raises(NoSuchSubgroup):
        subgroup_elements(ctx, 7)  # 7 does not divide 30


def test_largest_coprime_subgroup_order():
    # largest divisor of 30 coprime to 3 is 10
    assert largest_coprime_subgroup_order(make_field(31), 3) == 10
    # largest divisor of 60 coprime to 2 is 15
    assert largest_coprime_subgroup_order(make_field(61), 2) == 15


def test_mult_counter_counts_multiplications():
    ctx = make_field(13)
    a = ctx.element(5)
    c = MultCounter()
    a.pow_(1, c)
    assert c.count == 0
    c = MultCounter()
    a.pow_(2, c)
    assert c.count == 1
    c = MultCounter()
    a.pow_(2**10, c)  # ten squarings
    assert c.count == 10


@given(field_and_elems(2))
def test_frobenius_is_additive(fe):
    ctx, (a, b) = fe
    p = ctx.p
    assert (a + b).pow_(p) == a.pow_(p) + b.pow_(p)


def test_extension_arithmetic_reference():
    # GF(13^2) as polynomials in x with x^2 = -modulus tail; spot values
    # frozen from an independent sympy GF(169) computation.
    ctx = make_field(13, 2, modulus=[2, 1, 1])  # 2 + x + x^2
    x = ctx.element([0, 1])
    assert (x * x).coeffs == (11, 12)  # x^2 = -(2 + x) = 11 + 12x
    assert x.inv() * x == ctx.one()
    assert x.pow_(168) == ctx.one()


def test_random_element_respects_nonzero():
    ctx = make_field(13)
    rng = random.Random(0)
    for _ in range(50):
        assert not ctx.random_element(rng, nonzero=True).is_zero()
