import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdmm.errors import BadSpec, ShapeMismatch, SingularSystem
from sdmm.fields import make_field, primitive_root_of_unity
from sdmm.matpoly import (
    BlockMatrix,
    MatPoly,
    _ladder,
    evaluate,
    horner_cost,
    interpolate,
    interpolate_cost,
    mod_m_transform,
    mod_m_transform_by_summation,
    stack_blocks,
)
from test_fields import products

F13 = make_field(13)
F31 = make_field(31)
F169 = make_field(13, 2)


def rand_matrix(rows, cols, ctx, rng):
    return BlockMatrix([[ctx.random_element(rng) for _ in range(cols)]
                        for _ in range(rows)], ctx)


def rand_poly(shape, ctx, rng, max_exp=30, n_terms=5):
    exps = rng.sample(range(max_exp + 1), n_terms)
    return MatPoly({e: rand_matrix(*shape, ctx, rng) for e in exps}, shape, ctx)


# -- BlockMatrix ----------------------------------------------------------------


def test_matrix_shape_validation():
    with pytest.raises(ShapeMismatch):
        BlockMatrix([[1, 2], [3]], F13)


@pytest.mark.parametrize("data, ctx", [
    ([[F13.element(1)]], F31),  # an entry from another field
    ([[(1, 2, 3)]], F169),  # three coefficients for a degree-2 field
    (np.zeros((2, 2, 1), np.int64), F169),  # one residue plane for two
    (np.zeros((2, 2), np.int64), F31),  # no residue axis
])
def test_matrix_rejects_entries_and_arrays_of_another_shape(data, ctx):
    with pytest.raises(ShapeMismatch):
        BlockMatrix(data, ctx)


@pytest.mark.parametrize("ctx", [F31, make_field((1 << 31) - 1), make_field((1 << 61) - 1), F169],
                         ids=repr)
def test_matrix_rejects_residue_arrays_outside_zero_to_p(ctx):
    # p, -1 and 2p would be read as other residues (and overflow int64
    # products), a float would be truncated; integers in [0, p) of any
    # integer dtype are adopted
    shape = (1, 2, ctx.r)
    for bad in (np.full(shape, ctx.p), np.full(shape, -1), np.full(shape, 2 * ctx.p),
                np.full(shape, 1.0), np.full(shape, 1.5, dtype=object)):
        with pytest.raises(ShapeMismatch, match="integers in"):
            BlockMatrix(bad, ctx)
    top = np.full(shape, ctx.p - 1)
    want = BlockMatrix([[(ctx.p - 1,) * ctx.r] * 2], ctx)
    for good in (top, top.astype(np.uint64), top.astype(object)):
        assert BlockMatrix(good, ctx) == want
    assert BlockMatrix(np.zeros((0, 2, ctx.r), np.int64), ctx).shape == (0, 2)


def test_reduced_residues_multiply_where_unreduced_ones_would_overflow():
    ctx = make_field((1 << 31) - 1)
    with pytest.raises(ShapeMismatch):
        BlockMatrix(np.full((1, 4, 1), 1 << 40), ctx)
    a = BlockMatrix(np.full((1, 4, 1), (1 << 40) % ctx.p), ctx)
    b = BlockMatrix(np.full((4, 1, 1), (1 << 40) % ctx.p), ctx)
    assert a @ b == a.matmul(b) == BlockMatrix([[1048576]], ctx)


def test_matrix_arithmetic_reference():
    a = BlockMatrix([[1, 2], [3, 4]], F13)
    b = BlockMatrix([[5, 6], [7, 8]], F13)
    assert (a + b) == BlockMatrix([[6, 8], [10, 12]], F13)
    assert (a - b) == BlockMatrix([[-4, -4], [-4, -4]], F13)
    assert a.matmul(b) == BlockMatrix([[19 % 13, 22 % 13], [43 % 13, 50 % 13]], F13)
    assert a.scale(F13.element(2)) == BlockMatrix([[2, 4], [6, 8]], F13)


def test_matmul_shape_mismatch():
    a = BlockMatrix([[1, 2]], F13)
    with pytest.raises(ShapeMismatch):
        a.matmul(a)


def test_submatrix_assemble_round_trip():
    rng = random.Random(2)
    m = rand_matrix(4, 6, F13, rng)
    blocks = [[m.submatrix(2 * i, 3 * j, 2, 3) for j in range(2)] for i in range(2)]
    assert BlockMatrix.assemble(blocks, F13) == m


def test_matrix_text_layout():
    # a "rows cols fieldspec" header, then one line per row; an entry is its
    # comma-joined coefficients, a plain int over a prime field
    assert BlockMatrix([[1, 2, 3], [4, 5, 12]], F13).to_text() == "2 3 13\n1 2 3\n4 5 12\n"
    m = BlockMatrix([[F169.element([3, 0]), F169.element([0, 1])],
                     [F169.element([12, 5]), F169.zero()]], F169)
    assert m.to_text() == "2 2 13^2/9,2,1\n3,0 0,1\n12,5 0,0\n"
    # a 61-bit prime stores int64 residues like any other, printed in full
    f61 = make_field((1 << 61) - 1)
    big = BlockMatrix([[(1 << 61) - 2, 0], [7, 1 << 40]], f61)
    assert big.array.dtype == np.int64
    assert big.to_text() == (f"2 2 {(1 << 61) - 1}\n{(1 << 61) - 2} 0\n"
                             f"7 {1 << 40}\n")


@pytest.mark.parametrize("p, r", [
    (31, 1), ((1 << 31) - 1, 1), (13, 2),       # one 32-bit word per draw
    (17, 1), (257, 1), (65537, 1), (2, 5),      # 2^k + 1 and 2^k: about half the words rejected
    ((1 << 61) - 1, 1), (4294967311, 1),        # two words; 2^32 + 15 rejects about half
    (31, 13), ((1 << 61) - 1, 2),               # above 2^63: one randrange per entry
], ids=repr)
def test_random_blocks_draw_randrange_value_for_value(p, r):
    # the entries of BlockMatrix.random are the base-p digits of one
    # rng.randrange(order) per entry, in row-major order, and the generator
    # is left where the randrange loop leaves it
    ctx = make_field(p, r)
    for seed, (rows, cols) in enumerate([(0, 3), (1, 1), (2, 5), (17, 19)]):
        drawn, looped = random.Random(seed), random.Random(seed)
        got = BlockMatrix.random(rows, cols, ctx, drawn)
        want = [ctx.from_index(looped.randrange(ctx.order)).coeffs for _ in range(rows * cols)]
        assert got.shape == (rows, cols)
        assert got.array.reshape(-1, r).tolist() == [list(c) for c in want]
        assert drawn.random() == looped.random()


# -- MatPoly basics ---------------------------------------------------------------


def test_poly_drops_zero_coefficients():
    z = BlockMatrix.zero(1, 1, F13)
    p = MatPoly({0: BlockMatrix([[5]], F13), 3: z}, (1, 1), F13)
    assert p.support() == (0,)
    assert p.coeff(3) == z
    assert p.degree() == 0
    assert MatPoly({}, (1, 1), F13).degree() == -1


def test_poly_rejects_negative_exponents():
    with pytest.raises(BadSpec):
        MatPoly({-1: BlockMatrix([[5]], F13)}, (1, 1), F13)


def test_poly_mul_reference():
    # (1 + 2x) * (3 + x^2) = 3 + 6x + x^2 + 2x^3 over GF(13)
    one = lambda v: BlockMatrix([[v]], F13)
    p = MatPoly({0: one(1), 1: one(2)}, (1, 1), F13)
    q = MatPoly({0: one(3), 2: one(1)}, (1, 1), F13)
    r = p.mul(q)
    assert r.support() == (0, 1, 2, 3)
    assert [r.coeff(e)[0, 0].index() for e in range(4)] == [3, 6, 1, 2]


@given(st.integers(0, 2**32))
def test_poly_mul_matches_eval(seed):
    rng = random.Random(seed)
    p = rand_poly((2, 3), F31, rng, max_exp=12, n_terms=3)
    q = rand_poly((3, 2), F31, rng, max_exp=12, n_terms=3)
    x = F31.random_element(rng, nonzero=True)
    assert p.mul(q).evaluate_naive(x) == p.evaluate_naive(x).matmul(q.evaluate_naive(x))


@given(st.integers(0, 2**32))
@settings(max_examples=60)
def test_sparse_horner_matches_naive(seed):
    rng = random.Random(seed)
    ctx = rng.choice([F13, F31, F169])
    p = rand_poly((2, 2), ctx, rng, max_exp=rng.randint(4, 60),
                  n_terms=rng.randint(1, 5))
    x = ctx.random_element(rng)
    assert p.eval_sparse_horner(x) == p.evaluate_naive(x)


def test_eval_zero_polynomial():
    p = MatPoly({}, (2, 2), F13)
    assert p.eval_sparse_horner(F13.element(5)) == BlockMatrix.zero(2, 2, F13)
    assert repr(MatPoly({}, (1, 1), F13)) == "MatPoly(0 terms, blocks 1x1, degree -1)"


def test_sparse_horner_count_beats_naive_on_clusters():
    # 20 consecutive terms at a high offset: the chained form pays the
    # offset once, term-by-term evaluation pays it per term
    one = BlockMatrix([[1]], F13)
    p = MatPoly({e: one for e in range(100, 120)}, (1, 1), F13)
    x = F13.element(2)
    with products() as taken:
        naive = p.evaluate_naive(x)
    assert p.eval_sparse_horner(x) == naive
    # evaluate_naive takes a pow_ ladder per term; its scalings run on the arrays
    assert taken.count == sum(map(_ladder, p.support()))
    assert horner_cost(p.support(), 1) < sum(_ladder(e) + 1 for e in p.support())
    # single high term costs one square-and-multiply chain either way
    q = MatPoly({1000: one}, (1, 1), F13)
    assert horner_cost(q.support(), 1) <= 2 * math.ceil(math.log2(1001))


def test_poly_equality_compares_fields_and_shapes():
    assert MatPoly({}, (1, 1), F13) == MatPoly({}, (1, 1), F13)
    assert MatPoly({}, (1, 1), F13) != MatPoly({}, (1, 1), F31)
    assert MatPoly({}, (1, 1), F13) != MatPoly({}, (1, 2), F13)


# -- mod-M transform ---------------------------------------------------------------


def test_transform_keeps_one_class():
    rng = random.Random(5)
    zeta = primitive_root_of_unity(F13, 3)
    p = MatPoly({e: rand_matrix(1, 1, F13, rng) for e in range(12)}, (1, 1), F13)
    hat = mod_m_transform(p, zeta, 3)
    assert hat.support() == (2, 5, 8, 11)
    for e in hat.support():
        assert hat.coeff(e) == p.coeff(e)


@given(st.integers(0, 2**32), st.sampled_from([2, 3, 4, 6]))
@settings(max_examples=40)
def test_transform_equals_subgroup_average(seed, M):
    rng = random.Random(seed)
    ctx = F13 if (13 - 1) % M == 0 else F31
    if (ctx.order - 1) % M:
        ctx = make_field(61)
    zeta = primitive_root_of_unity(ctx, M)
    p = rand_poly((2, 1), ctx, rng, max_exp=25, n_terms=6)
    assert mod_m_transform(p, zeta, M) == mod_m_transform_by_summation(p, zeta, M)


def test_transform_average_at_a_point():
    # averaging actual evaluations over the subgroup equals evaluating the
    # filtered polynomial: (1/M) sum_m zeta^m p(zeta^m x) = p_hat(x)
    rng = random.Random(6)
    M = 3
    zeta = primitive_root_of_unity(F31, M)
    p = rand_poly((2, 2), F31, rng, max_exp=20, n_terms=7)
    hat = mod_m_transform(p, zeta, M)
    x = F31.element(9)
    inv_m = F31.element(M).inv()
    acc = BlockMatrix.zero(2, 2, F31)
    for m in range(M):
        acc = acc + p.evaluate_naive(zeta.pow_(m) * x).scale(zeta.pow_(m))
    assert acc.scale(inv_m) == hat.evaluate_naive(x)


# -- interpolation ----------------------------------------------------------------


@given(st.integers(0, 2**32))
@settings(max_examples=40)
def test_interpolate_recovers_from_consecutive_support(seed):
    # consecutive exponents on distinct nonzero points are always solvable
    # (diagonal factor times a classic Vandermonde matrix); scattered
    # exponent sets can be singular, which test_linalg covers
    rng = random.Random(seed)
    ctx = rng.choice([F31, F169])
    lo, n = rng.randint(0, 10), rng.randint(1, 5)
    p = MatPoly({lo + i: rand_matrix(2, 2, ctx, rng) for i in range(n)},
                (2, 2), ctx)
    pts = rng.sample([ctx.from_index(i) for i in range(1, ctx.order)], n)
    vals = [p.evaluate_naive(x) for x in pts]
    got = interpolate(pts, vals, range(lo, lo + n), ctx)
    # random coefficient blocks may be zero and drop from the support
    assert got == p


def test_interpolate_exact_point_count_required():
    p = MatPoly({0: BlockMatrix([[3]], F13), 2: BlockMatrix([[5]], F13)}, (1, 1), F13)
    pts = [F13.element(1)]
    with pytest.raises(SingularSystem):
        interpolate(pts, [p.evaluate_naive(pts[0])], [0, 2], F13)


def test_interpolate_singular_points():
    # 1 and -1 share a square, so exponents {0, 2} are not determined
    pts = [F13.element(1), F13.element(12)]
    vals = [BlockMatrix([[1]], F13), BlockMatrix([[1]], F13)]
    with pytest.raises(SingularSystem):
        interpolate(pts, vals, [0, 2], F13)


def test_interpolate_rejects_values_over_another_field():
    p = MatPoly({0: BlockMatrix([[3]], F31), 2: BlockMatrix([[5]], F31)}, (1, 1), F31)
    pts = [F31.element(i) for i in (1, 2, 3)]
    vals = [p.evaluate_naive(x) for x in pts]
    vals[1] = BlockMatrix([[7]], F13)
    with pytest.raises(ShapeMismatch):
        interpolate(pts, vals, [0, 2], F31)


def test_points_over_another_field_are_a_shape_mismatch():
    p = MatPoly({0: BlockMatrix([[3]], F31), 2: BlockMatrix([[5]], F31)}, (1, 1), F31)
    pts = [F31.element(i) for i in (1, 2, 3)]
    vals = [p.evaluate_naive(x) for x in pts]
    pts[1] = F13.element(2)
    with pytest.raises(ShapeMismatch):
        interpolate(pts, vals, [0, 2], F31)
    with pytest.raises(ShapeMismatch):
        evaluate(p, pts)


def test_stack_blocks_names_the_first_check_a_block_fails():
    blocks = [BlockMatrix([[1, 2]], F13), BlockMatrix([[3, 4]], make_field(13))]
    # a field equal to F13 but not the same object is still F13
    assert stack_blocks(blocks, F13).tolist() == [[[[1], [2]]], [[[3], [4]]]]
    cases = [
        ([blocks[0], blocks[0].array], "evaluations must be BlockMatrix values"),
        ([blocks[0], BlockMatrix([[1]], F13)], "evaluation blocks differ in shape"),
        ([blocks[0], BlockMatrix([[1, 2]], F31)], "evaluation blocks not over 13"),
        ([BlockMatrix([[1]], F13), "x", BlockMatrix([[1, 2]], F31)],
         "evaluations must be BlockMatrix values"),
    ]
    for bad, message in cases:
        with pytest.raises(ShapeMismatch) as exc:
            stack_blocks(bad, F13)
        assert str(exc.value) == message


def test_interpolate_uses_a_supplied_power_table_of_the_right_shape():
    p = MatPoly({0: BlockMatrix([[3]], F31), 2: BlockMatrix([[5]], F31)}, (1, 1), F31)
    pts = [F31.element(i) for i in (1, 2, 3)]
    vals = [p.evaluate_naive(x) for x in pts]
    table = np.array([[[x.pow_(e).coeffs[0]] for e in (0, 2)] for x in pts])
    assert interpolate(table, vals, [2, 0, 2], F31) == p
    assert interpolate(pts, vals, [0, 2], F31) == p
    for bad in (table[:2], table[:, :1], np.zeros((3, 2, 2), dtype=np.int64)):
        with pytest.raises(ShapeMismatch):
            interpolate(bad, vals, [0, 2], F31)


@pytest.mark.parametrize("ctx", [F31, F169], ids=repr)
def test_a_power_table_one_column_short_is_a_shape_mismatch(ctx):
    # evaluate and interpolate check a table through one helper; without it
    # evaluate raises numpy's ValueError and interpolate calls honest values
    # inconsistent
    rng = random.Random(9)
    p = rand_poly((2, 2), ctx, rng, max_exp=6, n_terms=3)
    pts = [ctx.from_index(i) for i in range(1, 5)]
    table = np.array([[x.pow_(e).coeffs for e in p.support()] for x in pts])
    assert np.array_equal(evaluate(p, table), evaluate(p, pts))
    assert interpolate(table, evaluate(p, pts), p.support(), ctx) == p
    with pytest.raises(ShapeMismatch):
        evaluate(p, table[:, :-1])
    with pytest.raises(ShapeMismatch):
        interpolate(table[:, :-1], evaluate(p, pts), p.support(), ctx)


def test_interpolate_takes_the_residue_stack_of_the_values():
    rng = random.Random(6)
    p = rand_poly((2, 3), F31, rng, max_exp=6, n_terms=3)
    pts = [F31.element(i) for i in range(1, 5)]
    vals = [p.evaluate_naive(x) for x in pts]
    stack = np.stack([v.array for v in vals])
    assert interpolate(pts, stack, p.support(), F31) == p
    assert interpolate(pts, vals, p.support(), F31) == p
    with pytest.raises(ShapeMismatch):
        interpolate(pts, stack[:3], p.support(), F31)
    for bad in (stack[..., 0], np.concatenate([stack, stack], axis=-1)):
        with pytest.raises(ShapeMismatch):
            interpolate(pts, bad, p.support(), F31)


def test_interpolate_overdetermined_consistent():
    rng = random.Random(7)
    p = rand_poly((1, 2), F31, rng, max_exp=8, n_terms=3)
    pts = [F31.element(i) for i in range(1, 9)]  # 8 points, 3 unknowns
    vals = [p.evaluate_naive(x) for x in pts]
    assert interpolate(pts, vals, p.support(), F31) == p


def test_interpolate_cost_counts_work():
    # interpolate counts nothing; interpolate_cost prices each point
    rng = random.Random(8)
    p = rand_poly((1, 1), F31, rng, max_exp=6, n_terms=3)
    pts = [F31.element(i) for i in (1, 2, 3)]
    vals = [p.evaluate_naive(x) for x in pts]
    assert interpolate(pts, vals, p.support(), F31) == p
    assert interpolate_cost(p.support(), 1) > 0
