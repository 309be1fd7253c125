import contextlib
import functools
import itertools
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sdmm import fields
from sdmm.errors import (
    BadSpec,
    DivisionByZero,
    NoSuchRoot,
    NoSuchSubgroup,
    NotIrreducible,
    NotPrime,
    ShapeMismatch,
)
from sdmm.fields import (
    FieldCtx,
    FieldElement,
    _element_of_order,
    _poly_is_irreducible,
    is_primitive_root_of_unity,
    MultCounter,
    is_prime,
    largest_coprime_subgroup_order,
    make_field,
    parse_field_spec,
    prime_factors,
    primitive_root_of_unity,
    subgroup_elements,
)
from sdmm.matpoly import _ladder


@contextlib.contextmanager
def products():
    """A MultCounter of the FieldElement products taken inside the block.

    pow_ multiplies through _mul, and c * v through __mul__ and __rmul__,
    which wrap the _mul the class was made with; all three count.
    """
    taken, real = MultCounter(), FieldElement._mul

    def mul(self, other):
        taken.add()
        return real(self, other)
    operator = fields._operand(mul)
    with mock.patch.object(FieldElement, "_mul", mul), \
            mock.patch.object(FieldElement, "__mul__", operator), \
            mock.patch.object(FieldElement, "__rmul__", operator):
        yield taken


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2**31 - 1)


def multiplicative_order(a):
    """Order of a nonzero element in the multiplicative group."""
    order = a.ctx.order - 1
    for q in prime_factors(order):
        while order % q == 0 and a.pow_(order // q) == a.ctx.one():
            order //= q
    return order


def _trial_division(n):
    factors, d = [], 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return factors + [n] if n > 1 else factors


def test_prime_factors():
    assert prime_factors(60) == [2, 3, 5]
    assert prime_factors(13) == [13]
    assert prime_factors(1024) == [2]
    # every n below 2^14, then n that leave a composite cofactor above 2^20
    # after trial division, which Pollard's rho has to split
    for n in range(-2, 1 << 14):
        assert prime_factors(n) == _trial_division(n)
    for n in (1031 * 1033, 1031 ** 2, 2 * 1031 ** 3 * 1033, 999983 * 1000003,
              2 ** 59 - 1):
        assert prime_factors(n) == _trial_division(n)


def test_prime_factors_of_a_61_bit_safe_prime_group_is_fast():
    # 2305843009213691579 = 2 * 1152921504606845789 + 1; trial division up
    # to the square root of the cofactor took minutes
    start = time.perf_counter()
    assert prime_factors(1152921504606845789) == [1152921504606845789]
    assert prime_factors(2305843009213691578) == [2, 1152921504606845789]
    assert time.perf_counter() - start < 1.0


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
    # the bound make_field's capped modulus search rests on
    assert 2 * r * got >= p ** r


def test_modulus_search_stops_after_64_r_draws(monkeypatch):
    tried = []
    monkeypatch.setattr(fields, "_poly_is_irreducible", lambda f, p: tried.append(f) and False)
    with pytest.raises(NotIrreducible, match=r"GF\(7\^3\) in 192 seeded draws"):
        make_field(7, 3)
    assert len(tried) == 64 * 3


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
    seen = {ctx.from_index(i).index() for i in range(ctx.order)}
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


def test_foreign_elements_and_coefficient_counts_are_a_shape_mismatch():
    f13, f31 = make_field(13), make_field(31)
    with pytest.raises(ShapeMismatch):
        f31.element(f13.element(1))
    with pytest.raises(ShapeMismatch):
        f31.element(1) + f13.element(1)
    with pytest.raises(ShapeMismatch):
        make_field(13, 2).element((1, 2, 3))


def test_division_by_zero():
    ctx = make_field(7)
    with pytest.raises(DivisionByZero):
        ctx.element(3) / ctx.element(0)
    with pytest.raises(DivisionByZero):
        ctx.zero().inv()


def test_reflected_unary_and_negative_power_operators():
    ctx = make_field(7)
    x = ctx.element(3)
    assert 3 - x == ctx.zero()
    assert -x == ctx.element(4)
    assert 2 / x == ctx.element(3)
    assert x ** -1 == ctx.element(5)
    assert x.pow_(-2) == ctx.element(4)
    assert x == 10
    assert not is_primitive_root_of_unity(x, 2)


@pytest.mark.parametrize("op", [
    lambda x: x + "x", lambda x: "x" * x, lambda x: x / None, lambda x: 1.5 - x,
], ids=["add-str", "str-mul", "div-none", "float-sub"])
def test_operands_other_than_ints_and_elements_are_a_type_error(op):
    with pytest.raises(TypeError):
        op(make_field(13).element(5))


def test_int_operands_work_in_either_order():
    ctx = make_field(13)
    x = ctx.element(5)
    assert x + 9 == 9 + x == ctx.element(1)
    assert (x - 9, 9 - x) == (ctx.element(9), ctx.element(4))
    assert x * 3 == 3 * x == ctx.element(2)
    assert (x / 2, 2 / x) == (ctx.element(9), ctx.element(3))
    ext = make_field(7, 2)
    y = ext.element((3, 1))
    assert 2 * y == y * 2 == y + y
    assert 1 - y == -(y - 1)
    assert (1 / y) * y == 1


def test_zero_is_no_root_of_unity_and_counters_print_their_count():
    assert not is_primitive_root_of_unity(make_field(13).zero(), 3)
    c = MultCounter()
    assert repr(c) == "MultCounter(0)"
    c.add(3)
    assert repr(c) == "MultCounter(3)"


def test_extension_elements_print_as_polynomials_in_x():
    ctx = make_field(7, 3)
    got = [repr(ctx.element(c)) for c in ((1, 2, 0), (0, 0, 1), (0, 0, 0), (3, 1, 5))]
    assert got == ["1+2*x", "x^2", "0", "3+x+5*x^2"]


# built when first drawn, so a fault in make_field fails the tests that draw
# a field instead of this module's collection
_FIELDS = [(2, 1), (13, 1), (31, 1), (61, 1), (13, 2), (2, 4), (3, 3)]
_field = functools.cache(make_field)


@st.composite
def field_and_elems(draw, n):
    ctx = _field(*draw(st.sampled_from(_FIELDS)))
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
    order = multiplicative_order(a)
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
        assert multiplicative_order(z) == m


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



# Frozen order questions over prime, extension and 31- and 61-bit fields:
# (field spec, m) -> (primitive_root_of_unity, _element_of_order,
# subgroup_elements) as canonical indices, for every m <= 12 dividing q - 1.
_ORDER_TABLE = {
    ("7", 1): (1, 1, (1,)),
    ("7", 2): (6, 6, (1, 6)),
    ("7", 3): (2, 4, (1, 4, 2)),
    ("7", 6): (3, 3, (1, 3, 2, 6, 4, 5)),
    ("13", 1): (1, 1, (1,)),
    ("13", 2): (12, 12, (1, 12)),
    ("13", 3): (3, 3, (1, 3, 9)),
    ("13", 4): (5, 8, (1, 8, 12, 5)),
    ("13", 6): (4, 4, (1, 4, 3, 12, 9, 10)),
    ("13", 12): (2, 2, (1, 2, 4, 8, 3, 6, 12, 11, 9, 5, 10, 7)),
    ("31", 1): (1, 1, (1,)),
    ("31", 2): (30, 30, (1, 30)),
    ("31", 3): (5, 25, (1, 25, 5)),
    ("31", 5): (2, 2, (1, 2, 4, 8, 16)),
    ("31", 6): (6, 26, (1, 26, 25, 30, 5, 6)),
    ("31", 10): (15, 27, (1, 27, 16, 29, 8, 30, 4, 15, 2, 23)),
    ("61", 1): (1, 1, (1,)),
    ("61", 2): (60, 60, (1, 60)),
    ("61", 3): (13, 47, (1, 47, 13)),
    ("61", 4): (11, 11, (1, 11, 60, 50)),
    ("61", 5): (9, 9, (1, 9, 20, 58, 34)),
    ("61", 6): (14, 48, (1, 48, 47, 60, 13, 14)),
    ("61", 10): (3, 3, (1, 3, 9, 27, 20, 60, 58, 52, 34, 41)),
    ("61", 12): (21, 32, (1, 32, 48, 11, 47, 40, 60, 29, 13, 50, 14, 21)),
    ("13^2", 1): (1, 1, (1,)),
    ("13^2", 2): (12, 12, (1, 12)),
    ("13^2", 3): (3, 9, (1, 9, 3)),
    ("13^2", 4): (5, 5, (1, 5, 12, 8)),
    ("13^2", 6): (4, 4, (1, 4, 3, 12, 9, 10)),
    ("13^2", 7): (60, 109, (1, 109, 60, 103, 89, 117, 67)),
    ("13^2", 8): (14, 168, (1, 168, 5, 112, 12, 14, 8, 70)),
    ("13^2", 12): (2, 11, (1, 11, 4, 5, 3, 7, 12, 2, 9, 8, 10, 6)),
    ("31^2", 1): (1, 1, (1,)),
    ("31^2", 2): (30, 30, (1, 30)),
    ("31^2", 3): (5, 5, (1, 5, 25)),
    ("31^2", 4): (366, 626, (1, 626, 30, 366)),
    ("31^2", 5): (2, 4, (1, 4, 16, 2, 8)),
    ("31^2", 6): (6, 26, (1, 26, 25, 30, 5, 6)),
    ("31^2", 8): (406, 586, (1, 586, 626, 578, 30, 406, 366, 414)),
    ("31^2", 10): (15, 23, (1, 23, 2, 15, 4, 30, 8, 29, 16, 27)),
    ("31^2", 12): (150, 150, (1, 150, 26, 366, 25, 247, 30, 842, 5, 626, 6, 745)),
    ("7^3", 1): (1, 1, (1,)),
    ("7^3", 2): (6, 6, (1, 6)),
    ("7^3", 3): (2, 4, (1, 4, 2)),
    ("7^3", 6): (3, 5, (1, 5, 4, 6, 2, 3)),
    ("7^3", 9): (150, 280, (1, 280, 250, 4, 336, 300, 2, 168, 150)),
    ("2147483647", 1): (1, 1, (1,)),
    ("2147483647", 2): (2147483646, 2147483646, (1, 2147483646)),
    ("2147483647", 3): (634005911, 1513477735, (1, 1513477735, 634005911)),
    ("2147483647", 6): (634005912, 1513477736, (1, 1513477736, 1513477735, 2147483646,
        634005911, 634005912)),
    ("2147483647", 7): (894255406, 1752599774, (1, 1752599774, 1600955193, 1537170743,
        894255406, 1599590586, 1205362885)),
    ("2147483647", 9): (309107220, 765383222, (1, 765383222, 864490562, 1513477735,
        1072993205, 809695498, 634005911, 309107220, 473297587)),
    ("2147483647", 11): (100973744, 298192073, (1, 298192073, 2080850853, 280409897,
        353622995, 100973744, 327571245, 219454379, 2139961118, 1969212174, 819686109)),
    ("2305843009213693951", 1): (1, 1, (1,)),
    ("2305843009213693951", 2): (2305843009213693950, 2305843009213693950, (1,
        2305843009213693950)),
    ("2305843009213693951", 3): (636260618972345635, 1669582390241348315, (1,
        1669582390241348315, 636260618972345635)),
    ("2305843009213693951", 5): (194643636704778390, 1781303817082419751, (1,
        1781303817082419751, 725554454131936870, 1910184110508252890, 194643636704778390)),
    ("2305843009213693951", 6): (636260618972345636, 636260618972345636, (1,
        636260618972345636, 636260618972345635, 2305843009213693950, 1669582390241348315,
        1669582390241348316)),
    ("2305843009213693951", 7): (69203453413471971, 69203453413471971, (1,
        69203453413471971, 1165310750493918737, 141315603963882618, 1100189617750211561,
        402695036048525987, 1732971556757377027)),
    ("2305843009213693951", 9): (569931187132395942, 1102844585000305877, (1,
        1102844585000305877, 594418010121383343, 1669582390241348315, 569931187132395942,
        1764280891523348030, 636260618972345635, 633067237080992132, 2252987116782656529)),
    ("2305843009213693951", 10): (395658898705441061, 395658898705441061, (1,
        395658898705441061, 1781303817082419751, 2111199372508915561, 725554454131936870,
        2305843009213693950, 1910184110508252890, 524539192131274200, 194643636704778390,
        1580288555081757081)),
    ("2305843009213693951", 11): (25693150190086359, 54008984094220448, (1,
        54008984094220448, 145163580560702442, 485879364249547495, 142745710241799902,
        1798031321018017002, 1277361870895917617, 103702435012065296, 25693150190086359,
        618244203389745147, 2266698407988980144)),
}
# field spec -> largest_coprime_subgroup_order for M = 1..6
_COPRIME_TABLE = {
    "7": (6, 3, 2, 3, 6, 1),
    "13": (12, 3, 4, 3, 12, 1),
    "31": (30, 15, 10, 15, 6, 5),
    "61": (60, 15, 20, 15, 12, 5),
    "13^2": (168, 21, 56, 21, 168, 7),
    "31^2": (960, 15, 320, 15, 192, 5),
    "7^3": (342, 171, 38, 171, 342, 19),
    "2147483647": (2147483646, 1073741823, 238609294, 1073741823, 2147483646, 119304647),
    "2305843009213693951": (2305843009213693950, 1152921504606846975, 256204778801521550,
        1152921504606846975, 92233720368547758, 128102389400760775),
}


def test_roots_generators_and_subgroups_are_frozen():
    for (spec, m), (root, gen, sub) in _ORDER_TABLE.items():
        ctx = parse_field_spec(spec)
        assert primitive_root_of_unity(ctx, m).index() == root, (spec, m)
        assert _element_of_order(ctx, m).index() == gen, (spec, m)
        assert tuple(z.index() for z in subgroup_elements(ctx, m)) == sub, (spec, m)
    for spec, orders in _COPRIME_TABLE.items():
        ctx = parse_field_spec(spec)
        assert tuple(largest_coprime_subgroup_order(ctx, M) for M in range(1, 7)) == orders


def _element_of_order_by_full_walk(ctx, m):
    """_element_of_order as it walked before skipping the prime subfield.

    Indices below p are the subfield elements w, so w^((q-1)/m) is read
    off with an integer power mod p; every index from p on is walked with
    field elements.
    """
    e = (ctx.order - 1) // m
    for w in range(1, ctx.p):
        z = pow(w, e, ctx.p)
        if pow(z, m, ctx.p) == 1 and all(pow(z, m // f, ctx.p) != 1
                                         for f in prime_factors(m)):
            return ctx.from_index(z)
    for idx in range(ctx.p, ctx.order):
        z = ctx.from_index(idx).pow_(e)
        if is_primitive_root_of_unity(z, m):
            return z


@pytest.mark.parametrize("spec, orders", [
    ("13^2", (2, 3, 4, 6, 7, 8, 12, 14, 24, 168)),
    ("31^2", (2, 3, 4, 5, 8, 16, 32, 60, 64, 960)),
    ("10007^2", (2, 3, 4, 8, 9, 139, 10008)),
])
def test_element_of_order_skips_the_prime_subfield_without_changing_it(spec, orders):
    ctx = parse_field_spec(spec)
    for m in orders:
        assert (ctx.order - 1) % m == 0
        assert _element_of_order(ctx, m) == _element_of_order_by_full_walk(ctx, m), m


def test_square_root_of_unity_over_a_31_bit_extension_is_fast():
    ctx = parse_field_spec("2147483647^2")
    start = time.perf_counter()
    assert primitive_root_of_unity(ctx, 2) == ctx.element(-1)
    assert time.perf_counter() - start < 1.0


def test_zeroth_power_is_one_and_counts_nothing():
    for ctx in (make_field(13), make_field(7, 3)):
        with products() as taken:
            assert ctx.from_index(5).pow_(0) == ctx.one()
        assert taken.count == 0


@pytest.mark.parametrize("spec", ["13", "7^3", "2305843009213693951"])
def test_pow_takes_exactly_its_ladder_of_products(spec):
    # the cost model's _ladder is what pow_ spends: a squaring per bit after
    # the leading one, and a multiply by the base per later set bit
    ctx = parse_field_spec(spec)
    a = ctx.from_index(5)
    for e, ladder in [(1, 0), (2, 1), (3, 2), (2**10, 10), (2**10 - 1, 18)]:
        with products() as taken:
            a.pow_(e)
        assert taken.count == _ladder(e) == ladder, e
    for e in [5, 6, 7, 100, 12345, ctx.order - 2, (1 << 61) + 1]:
        with products() as taken:
            a.pow_(e)
        assert taken.count == _ladder(e), e


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
