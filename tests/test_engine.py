"""The array engine against an entry-wise FieldElement reference.

Every BlockMatrix operation, sparse Horner evaluation, interpolation and the
Gauss-Jordan solve is compared with a plain implementation over FieldElement
rows written here: values, and multiplication counts through the cost model
in matpoly, checked against the FieldElement products the references take
(products). The power table is compared with FieldElement.pow_, the rank
with an entry-wise row reduction, and the batched full-rank flags with the
same reduction. The fields cover primes on either side of 2^31 and up to
61 bits, all stored as int64, and extension fields: GF(p^2) on both sides
of 2^31, GF((2^31-1)^2) folding its plane products through 16-bit
limbs, and degrees 3 and 5. FieldElement reduces a product by polynomial
division, the engine by the field's fold table, so the two share no
reduction.
"""

import hashlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sdmm import _gauss
from sdmm.errors import InconsistentResponses, ShapeMismatch, SingularSystem
from sdmm.examples import gf31_plan, gf61_plan
from sdmm.fields import MultCounter, make_field
from sdmm.linalg import find_evaluation_vector, ggasp_plan
from sdmm.matpoly import (
    BlockMatrix,
    MatPoly,
    evaluate,
    gauss_jordan_cost,
    horner_cost,
    interpolate,
    interpolate_cost,
)
from sdmm.protocol import _set_operators, decode, encode, run_protocol, worker_products
from sdmm.schemes import SchemeParams, build_f, build_g, partition
from test_fields import products

FIELDS = (
    make_field(13),
    make_field((1 << 31) - 1),
    make_field(2147483659),  # the first prime above 2^31
    make_field((1 << 61) - 1),
    make_field(13, 2),
    make_field(2, 5),
    make_field((1 << 31) - 1, 2),  # (p - 1)^2 * 4 >= 2^63: the fold takes limbs
    make_field((1 << 61) - 1, 2),
    make_field(7, 3),  # the fold reaches the rows for x^3 and x^4
)
field_ids = st.sampled_from(range(len(FIELDS)))


# -- entry-wise reference ---------------------------------------------------------


def rand_rows(rows, cols, ctx, rng):
    return [[ctx.random_element(rng) for _ in range(cols)] for _ in range(rows)]


def ref_matmul(a, b, ctx):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), ctx.zero())
             for j in range(len(b[0]))] for i in range(len(a))]


def ref_horner(terms, x):
    """Sparse Horner over {exponent: rows}: per gap, x^gap by pow_ and a scale of every entry."""
    exps = sorted(terms)
    acc = terms[exps[-1]]

    def scale(rows, e):
        c = x.pow_(e)
        return [[c * v for v in row] for row in rows]

    for n in range(len(exps) - 2, -1, -1):
        acc = scale(acc, exps[n + 1] - exps[n])
        acc = [[u + v for u, v in zip(ra, rb)] for ra, rb in zip(acc, terms[exps[n]])]
    return scale(acc, exps[0]) if exps[0] else acc


def ref_solve(rows, rhs, counter):
    """Entry-wise dense Gauss-Jordan: each column scales its pivot row, the
    first nonzero one, and clears every other row, zero leads included."""
    n, m = len(rows), len(rows[0])
    M = [list(rows[i]) + list(rhs[i]) for i in range(n)]
    width = len(M[0])
    for col in range(m):
        piv = next((i for i in range(col, n) if not M[i][col].is_zero()), None)
        if piv is None:
            raise SingularSystem("rank deficient")
        M[col], M[piv] = M[piv], M[col]
        inv = M[col][col].inv()
        M[col] = [inv * v for v in M[col]]
        counter.add(width)
        for i in range(n):
            if i != col:
                f = M[i][col]
                M[i] = [vi - f * vc for vi, vc in zip(M[i], M[col])]
                counter.add(width)
    if any(not v.is_zero() for row in M[m:] for v in row):
        raise InconsistentResponses("spare equations disagree")
    return [row[m:] for row in M[:m]]


def ref_rank(rows):
    """Entry-wise forward elimination; a column without a pivot is skipped."""
    M = [list(row) for row in rows]
    rank = 0
    for col in range(len(M[0])):
        piv = next((i for i in range(rank, len(M)) if not M[i][col].is_zero()), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = M[rank][col].inv()
        M[rank] = [inv * v for v in M[rank]]
        for i in range(rank + 1, len(M)):
            if not M[i][col].is_zero():
                f = M[i][col]
                M[i] = [vi - f * vr for vi, vr in zip(M[i], M[rank])]
        rank += 1
    return rank


def rows_of(arr, ctx):
    return BlockMatrix(arr, ctx).data


def maxed(rows, cols, ctx):
    """Every coefficient p - 1: the largest products an int64 column step meets."""
    return [[ctx.element((ctx.p - 1,) * ctx.r)] * cols for _ in range(rows)]


# -- BlockMatrix arithmetic -------------------------------------------------------


@given(st.integers(0, 2**32), field_ids)
@settings(max_examples=60, deadline=None)
def test_blockwise_arithmetic_matches_reference(seed, fid):
    ctx = FIELDS[fid]
    rng = random.Random(seed)
    n, s, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
    a, b = rand_rows(n, s, ctx, rng), rand_rows(n, s, ctx, rng)
    c = rand_rows(s, m, ctx, rng)
    x = ctx.random_element(rng)
    A, B, C = BlockMatrix(a, ctx), BlockMatrix(b, ctx), BlockMatrix(c, ctx)
    assert (A + B).data == tuple(tuple(u + v for u, v in zip(ra, rb)) for ra, rb in zip(a, b))
    assert (A - B).data == tuple(tuple(u - v for u, v in zip(ra, rb)) for ra, rb in zip(a, b))
    assert A.scale(x).data == tuple(tuple(x * v for v in row) for row in a)
    assert A.matmul(C).data == tuple(map(tuple, ref_matmul(a, c, ctx)))
    assert (A == B) == (a == b)
    assert A.is_zero() == all(v.is_zero() for row in a for v in row)


@pytest.mark.parametrize("ctx", [make_field(2, 4), make_field(3, 3), make_field(5, 2)],
                         ids=repr)
def test_entry_products_match_field_elements_on_every_pair(ctx):
    elements = [ctx.from_index(i) for i in range(ctx.order)]
    column = BlockMatrix([[x] for x in elements], ctx).array
    got = _gauss.mul(column, column.transpose(1, 0, 2), ctx)
    assert rows_of(got, ctx) == tuple(tuple(x * y for y in elements) for x in elements)


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_worst_case_entries_multiply_exactly(ctx):
    # every entry -1: each product entry is the inner dimension, exactly
    top = ctx.element(-1)
    inner = 37
    A = BlockMatrix([[top] * inner] * 3, ctx)
    B = BlockMatrix([[top] * 2] * inner, ctx)
    assert A.matmul(B) == BlockMatrix([[ctx.element(inner)] * 2] * 3, ctx)


def test_int64_matmul_is_exact_past_the_chunk_length():
    ctx = make_field((1 << 31) - 1)
    p = ctx.p
    rng = random.Random(3)
    inner = (1 << 16) + 5
    a = [p - 1 - rng.randrange(3) for _ in range(inner)]
    b = [[p - 1 - rng.randrange(3), rng.randrange(p)] for _ in range(inner)]
    got = BlockMatrix([a], ctx).matmul(BlockMatrix(b, ctx))
    want = [[sum(x * row[j] for x, row in zip(a, b)) % p for j in range(2)]]
    assert got == BlockMatrix(want, ctx)


@pytest.mark.parametrize("ctx", [make_field(31), FIELDS[1], FIELDS[2], FIELDS[3], FIELDS[7]],
                         ids=repr)
def test_fold_and_every_residue_array_are_int64_at_every_prime(ctx):
    # the fold holds residues below p < 2^62 in any field, and so does every
    # residue array: _gauss._product keeps each product of two in int64
    assert ctx._fold.dtype == np.int64
    rng = random.Random(ctx.p)
    a, b = (BlockMatrix.random(3, 3, ctx, rng) for _ in range(2))
    plan = find_evaluation_vector(SchemeParams.mp(2, 2, 1, 1), ctx, n_hypernodes=5, seed=0)
    G, K, _ = _gauss.decompose(plan.worker_table[None], ctx)
    arrays = [_gauss.as_array([[ctx.one()]], ctx), _gauss.as_array(a.array.astype(object), ctx),
              a.array, _gauss.matmul(a.array, b.array, ctx), G, K,
              _gauss.powers(a.array[0], [0, 1, 5], ctx), plan.power_table]
    assert [x.dtype for x in arrays] == [np.int64] * len(arrays)


def test_constructor_coerces_every_entry_form():
    ctx = FIELDS[4]
    e = ctx.element([3, 5])
    m = BlockMatrix([[e, 7], [(1, 2), [0, 14]]], ctx)
    assert m.data == ((e, ctx.element(7)), (ctx.element([1, 2]), ctx.element([0, 1])))
    assert m[1, 1] == ctx.element([0, 1])
    with pytest.raises(ShapeMismatch):
        BlockMatrix([[1, 2], [3]], ctx)
    with pytest.raises(ValueError):
        m.array[0, 0, 0] = 1
    assert not m.submatrix(0, 0, 1, 2).array.flags.writeable
    # the library's own results, which skip the residue check, are read-only too
    for out in (m + m, m - m, m.scale(e), m @ m, BlockMatrix.zero(1, 1, ctx),
                BlockMatrix.random(1, 1, ctx, random.Random(0)), BlockMatrix.assemble([[m]], ctx)):
        assert not out.array.flags.writeable


# -- encoding, interpolation and the Gauss-Jordan cost ----------------------------


@given(st.integers(0, 2**32), field_ids)
@settings(max_examples=40, deadline=None)
def test_sparse_horner_matches_reference_values_and_counts(seed, fid):
    ctx = FIELDS[fid]
    rng = random.Random(seed)
    shape = (rng.randint(1, 3), rng.randint(1, 3))
    terms = {e: rand_rows(*shape, ctx, rng)
             for e in rng.sample(range(40), rng.randint(1, 5))}
    terms = {e: rows for e, rows in terms.items()
             if any(not v.is_zero() for row in rows for v in row)}
    if not terms:
        return
    poly = MatPoly({e: BlockMatrix(rows, ctx) for e, rows in terms.items()}, shape, ctx)
    x = ctx.random_element(rng)
    with products() as taken:
        want = ref_horner(terms, x)
    assert poly.eval_sparse_horner(x).data == tuple(map(tuple, want))
    assert horner_cost(poly.support(), poly.rows * poly.cols) == taken.count


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_evaluate_matches_naive_values_and_horner_counts(ctx):
    rng = random.Random(f"evaluate-{ctx!r}")
    x = ctx.random_element(rng, nonzero=True)
    points = [ctx.zero(), x, ctx.one(), x, ctx.random_element(rng)]
    shape = (2, 3)
    for exps in ([0], [1], [0, 1, 2], [5, 6, 40], [3, 17, 18, 63]):
        terms = {e: rand_rows(*shape, ctx, rng) for e in exps}
        poly = MatPoly({e: BlockMatrix(rows, ctx) for e, rows in terms.items()}, shape, ctx)
        terms = {e: terms[e] for e in poly.support()}  # a zero block drops out
        assert [BlockMatrix(v, ctx) for v in evaluate(poly, points)] == \
            [poly.evaluate_naive(x) for x in points]
        with products() as taken:
            ref_horner(terms, x)
        assert horner_cost(poly.support(), poly.rows * poly.cols) == taken.count
        assert evaluate(poly, []).shape == (0, *shape, ctx.r)


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_evaluate_empty_polynomial_is_zero_everywhere(ctx):
    poly = MatPoly({}, (2, 3), ctx)
    points = [ctx.zero(), ctx.one(), ctx.one()]
    got = [BlockMatrix(v, ctx) for v in evaluate(poly, points)]
    assert got == [BlockMatrix.zero(2, 3, ctx)] * 3 == [poly.evaluate_naive(x) for x in points]
    assert evaluate(poly, []).shape == (0, 2, 3, ctx.r)
    assert horner_cost(poly.support(), poly.rows * poly.cols) == 0


# the first six fields: rng.sample below takes no range longer than sys.maxsize
@given(st.integers(0, 2**32), st.sampled_from(range(6)), st.sampled_from(["mp", "ggasp"]),
       st.integers(0, 2), st.booleans())
@settings(max_examples=40, deadline=None)
@example(0, 0, "mp", 0, True)
@example(0, 3, "ggasp", 0, True)
@example(0, 4, "mp", 2, True)
@example(8274998, 0, "mp", 0, False)  # rand_rows draws A's block (0, 0) as zero
def test_shares_and_worker_products_match_the_scalar_paths(seed, fid, variant, T, zero_block):
    # encode's share stacks are f and g at every worker point, and the one
    # batched worker step gives each worker the product of its own shares
    ctx = FIELDS[fid]
    rng = random.Random(seed)
    K, M, L = rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 2)
    params = (SchemeParams.mp(K, M, L, T) if variant == "mp"
              else SchemeParams.ggasp(K, M, L, T, r=min(T, 1)))
    n = rng.randint(1, 6)
    plan = ggasp_plan(params, ctx, [ctx.from_index(i) for i in rng.sample(range(1, ctx.order), n)])
    a, s, b = (rng.randint(1, 3) for _ in range(3))
    rows = rand_rows(K * a, M * s, ctx, rng)
    if zero_block:  # A's block (0, 0) is zero, so f drops exponent 0
        rows = [[ctx.zero() if i < a and j < s else v for j, v in enumerate(row)]
                for i, row in enumerate(rows)]
    elif all(rows[i][j].is_zero() for i in range(a) for j in range(s)):
        rows[0][0] = ctx.one()  # otherwise block (0, 0) keeps f's exponent 0
    A, B = BlockMatrix(rows, ctx), BlockMatrix(rand_rows(M * s, L * b, ctx, rng), ctx)
    F, G = encode(A, B, plan, random.Random(f"noise-{seed}"))
    assert F.shape == (n, a, s, ctx.r) and G.shape == (n, s, b, ctx.r)
    noise = random.Random(f"noise-{seed}")  # encode draws f's noise, then g's
    a_blocks, b_blocks = partition(A, B, K, M, L)
    f, g = build_f(params, a_blocks, noise, ctx), build_g(params, b_blocks, noise, ctx)
    assert (0 in f.support()) != zero_block
    for x, fx, gx in zip(plan.worker_points, F, G):
        assert BlockMatrix(fx, ctx) == f.evaluate_naive(x)
        assert BlockMatrix(gx, ctx) == g.evaluate_naive(x)
    workers = sorted(rng.sample(range(n), rng.randint(0, n)))
    got = worker_products((F, G), workers, plan)
    assert list(got) == workers
    for w, product in got.items():
        assert product == BlockMatrix(F[w], ctx).matmul(BlockMatrix(G[w], ctx))
        assert not product.array.flags.writeable


@given(st.integers(0, 2**32), field_ids, st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_interpolate_matches_reference_values_and_counts(seed, fid, spare):
    ctx = FIELDS[fid]
    rng = random.Random(seed)
    lo, n = rng.randint(0, 5), rng.randint(1, 4)
    exps = list(range(lo, lo + n))
    shape = (rng.randint(1, 2), rng.randint(1, 3))
    poly = MatPoly({e: BlockMatrix(rand_rows(*shape, ctx, rng), ctx) for e in exps},
                   shape, ctx)
    pts, seen = [], set()
    while len(pts) < n + spare:
        x = ctx.random_element(rng, nonzero=True)
        if x.index() not in seen:
            seen.add(x.index())
            pts.append(x)
    vals = [poly.evaluate_naive(x) for x in pts]
    assert interpolate(pts, vals, exps, ctx) == poly
    with products() as taken:
        vmat = [[x.pow_(e) for e in exps] for x in pts]
    rhs = [[v for row in val.data for v in row] for val in vals]
    ref_solve(vmat, rhs, taken)
    assert len(pts) * interpolate_cost(exps, shape[0] * shape[1]) == taken.count


@given(st.integers(0, 2**32), field_ids, st.integers(0, 2),
       st.sampled_from(["random", "singular", "maxed"]))
@settings(max_examples=60, deadline=None)
@example(0, 0, 1, "maxed")
@example(0, 1, 1, "maxed")
@example(0, 2, 1, "maxed")
@example(0, 3, 1, "maxed")
@example(0, 4, 1, "maxed")
@example(0, 5, 1, "maxed")
@example(0, 6, 1, "maxed")
@example(0, 7, 1, "maxed")
@example(0, 8, 1, "maxed")
def test_counted_solve_matches_reference(seed, fid, spare, kind):
    ctx = FIELDS[fid]
    rng = random.Random(seed)
    m, k = rng.randint(1, 4), rng.randint(1, 3)
    X = rand_rows(m, k, ctx, rng)
    rows = rand_rows(m + spare, m, ctx, rng) if kind != "maxed" else maxed(m + spare, m, ctx)
    if kind == "singular":
        # a zero column, or one repeating another, leaves the rank short
        j = rng.randrange(m)
        src = rng.randrange(m)
        for row in rows:
            row[j] = row[src] if src != j else ctx.zero()
    rhs = ref_matmul(rows, X, ctx)
    want_count = MultCounter()
    try:
        want = ref_solve(rows, rhs, want_count)
    except SingularSystem:
        with pytest.raises(SingularSystem):
            _gauss.solve(rows, rhs, ctx)
        assert _gauss.rank(rows, ctx) < m
        # a singular system is charged as the full-rank [I; 0] of its shape
        eye = [[ctx.element(int(i == j)) for j in range(m)] for i in range(m + spare)]
        want_count = MultCounter()
        ref_solve(eye, ref_matmul(eye, X, ctx), want_count)
    else:
        assert rows_of(_gauss.solve(rows, rhs, ctx), ctx) == tuple(map(tuple, want))
        assert _gauss.rank(BlockMatrix(rows, ctx).array, ctx) == m
    assert gauss_jordan_cost(m + spare, m, m + k) == want_count.count


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
@pytest.mark.parametrize("n, m, w", [(4, 4, 1), (7, 4, 1), (4, 4, 9), (7, 4, 9)],
                         ids=["square-1", "tall-1", "square-wide", "tall-wide"])
@pytest.mark.parametrize("kind", ["honest", "singular", "inconsistent"])
def test_solve_applies_the_g_k_of_a_as_the_reference_does(ctx, n, m, w, kind):
    # solve eliminates [A | I] once, inverts its pivots in one batch, and
    # applies [G; K] to B: the solution, or the error, of the entry-wise
    # Gauss-Jordan reference
    rng = random.Random(f"{n}-{m}-{w}-{kind}")
    rows = rand_rows(n, m, ctx, rng)
    if kind == "singular":
        for row in rows:
            row[2] = row[0] + row[1]
    rhs = ref_matmul(rows, rand_rows(m, w, ctx, rng), ctx)
    if kind == "inconsistent":
        rhs[-1][-1] = rhs[-1][-1] + ctx.one()

    def outcome(solver):
        try:
            return tuple(map(tuple, solver()))
        except (SingularSystem, InconsistentResponses) as exc:
            return type(exc)

    want = outcome(lambda: ref_solve(rows, rhs, MultCounter()))
    with mock.patch.object(_gauss, "_eliminate", wraps=_gauss._eliminate) as spy, \
            mock.patch.object(_gauss, "_inverses", wraps=_gauss._inverses) as inverses:
        assert outcome(lambda: rows_of(_gauss.solve(rows, rhs, ctx), ctx)) == want
    (stack, pivots, _), _ = spy.call_args
    assert spy.call_count == 1 and stack.shape == (1, n, m + n, ctx.r) and pivots == m
    assert inverses.call_count == 1
    assert want == {"honest": want, "singular": SingularSystem,
                    "inconsistent": InconsistentResponses if n > m else want}[kind]
    assert isinstance(want, tuple) == (kind == "honest" or kind == "inconsistent" and n == m)


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_solve_rejects_inconsistent_spare_equations(ctx):
    rng = random.Random(5)
    rows = [[ctx.from_index(i + 1).pow_(e) for e in range(3)] for i in range(5)]
    rhs = ref_matmul(rows, rand_rows(3, 2, ctx, rng), ctx)
    rhs[4][1] = rhs[4][1] + ctx.one()
    with pytest.raises(InconsistentResponses):
        _gauss.solve(rows, rhs, ctx)
    with pytest.raises(InconsistentResponses):
        ref_solve(rows, rhs, MultCounter())


@pytest.mark.parametrize("corrupt", [False, True], ids=["honest", "corrupted"])
def test_one_spare_equation_is_checked_alike_by_solve_and_decode(corrupt):
    # N' + 1 responses of a flat plan leave one spare equation on the full
    # route; one corrupted value fails it in solve and in decode with the
    # same text, and honest values give the reference's coefficients
    ctx = make_field(101)
    plan = find_evaluation_vector(SchemeParams.ggasp(2, 3, 2, 1), ctx, n_workers=23, seed=1)
    m = len(plan.full_support)
    assert plan.n_workers == m + 1
    rng = random.Random("one-spare")
    A, B = BlockMatrix.random(2, 3, ctx, rng), BlockMatrix.random(3, 2, ctx, rng)
    responses = dict(worker_products(encode(A, B, plan, rng), range(m + 1), plan))
    if corrupt:
        responses[5] = responses[5] + BlockMatrix([[1]], ctx)
    values = np.stack([responses[n].array for n in range(m + 1)]).reshape(m + 1, -1, ctx.r)
    try:
        want = ref_solve(rows_of(plan.worker_table, ctx), rows_of(values, ctx), MultCounter())
    except InconsistentResponses:
        want = None
    assert (want is None) == corrupt
    if corrupt:
        text = f"1 spare equations disagree with the {m} unknowns"
        with pytest.raises(InconsistentResponses) as engine:
            _gauss.solve(plan.worker_table, values, ctx)
        with pytest.raises(InconsistentResponses) as decoder:
            decode(responses, plan)
        assert str(engine.value) == str(decoder.value) == text
        return
    assert rows_of(_gauss.solve(plan.worker_table, values, ctx), ctx) == tuple(map(tuple, want))
    blocks = decode(responses, plan)
    for kl, e in plan.block_positions.items():
        assert blocks[kl].data == (tuple(want[plan.full_support.index(e)]),)


@given(st.integers(0, 2**32), field_ids, st.sampled_from(["wide", "tall", "deficient"]))
@settings(max_examples=60, deadline=None)
def test_rank_matches_reference(seed, fid, shape):
    ctx = FIELDS[fid]
    rng = random.Random(seed)
    short, extra = rng.randint(1, 3), rng.randint(1, 3)
    n, m = {"wide": (short, short + extra), "tall": (short + extra, short),
            "deficient": (short + extra, short + rng.randint(0, 3))}[shape]
    if shape == "deficient":
        # a product through an inner dimension below min(n, m)
        k = rng.randrange(min(n, m))
        rows = (ref_matmul(rand_rows(n, k, ctx, rng), rand_rows(k, m, ctx, rng), ctx)
                if k else [[ctx.zero()] * m for _ in range(n)])
    else:
        rows = rand_rows(n, m, ctx, rng)
    if rng.random() < 0.5:
        # column j repeats column src, or is zero: a pivotless column that
        # later columns may follow with pivots of their own
        j, src = rng.randrange(m), rng.randrange(m)
        for row in rows:
            row[j] = row[src] if src != j else ctx.zero()
    want = ref_rank(rows)
    assert _gauss.rank(rows, ctx) == want
    assert _gauss.rank(BlockMatrix(rows, ctx).array, ctx) == want
    if shape == "deficient":
        assert want < min(n, m)


# -- the power table and the batched elimination ---------------------------------


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_power_table_matches_pow(ctx):
    rng = random.Random(11)
    pts = [ctx.zero(), ctx.one()] + [ctx.random_element(rng) for _ in range(6)]
    exps = [0, 1, ctx.order - 2, 2, 7, 40]
    table = _gauss.powers(BlockMatrix([pts], ctx).array[0], exps, ctx)
    assert table.shape == (len(pts), len(exps), ctx.r)
    assert rows_of(table, ctx) == tuple(tuple(x.pow_(e) for e in exps) for x in pts)


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_batch_invertibility_matches_rank(ctx):
    rng = random.Random(12)
    for n in (1, 2, 3, 5, 12, 20):
        mats = []
        for k in range(24 if n < 12 else 6):  # the reference rank costs n^3
            m = rand_rows(n, n, ctx, rng)
            j, src = rng.randrange(n), rng.randrange(n)
            if k % 3 == 1:  # column j repeats column src, or is zero
                for row in m:
                    row[j] = row[src] if src != j else ctx.zero()
            elif k % 3 == 2:  # a zero column
                for row in m:
                    row[j] = ctx.zero()
            mats.append(m)
        mats.append(maxed(n, n, ctx))
        got = _gauss.batch_is_invertible(
            np.stack([BlockMatrix(m, ctx).array for m in mats]), ctx)
        assert list(got) == [ref_rank(m) == n for m in mats]
        # every matrix of this batch dies at column 0
        dead = [[[ctx.zero()] + row[1:] for row in m] for m in mats]
        got = _gauss.batch_is_invertible(
            np.stack([BlockMatrix(m, ctx).array for m in dead]), ctx)
        assert not got.any()


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_rank_and_full_rank_flags_are_exact_in_a_mixed_batch(ctx):
    # batch_is_invertible's flags and rank's counts, each exact, where the
    # matrices of one batch pivot on different rows or miss a pivot
    rng = random.Random(13)
    for n, m in ((3, 3), (5, 3), (4, 2), (2, 3)):
        mats = [rand_rows(n, m, ctx, rng) for _ in range(6)]
        # misses the pivot of column 0 while the others pivot there
        for row in mats[1]:
            row[0] = ctx.zero()
        # a product through an inner dimension below m: rank deficient
        mats[2] = ref_matmul(rand_rows(n, m - 1, ctx, rng),
                             rand_rows(m - 1, m, ctx, rng), ctx)
        # column 1 repeats column 0
        for row in mats[3]:
            row[1] = row[0]
        # only the last row reaches column 0, so its pivot needs a swap
        for row in mats[4][:-1]:
            row[0] = ctx.zero()
        mats[4][-1][0] = ctx.one()
        want = [ref_rank(a) for a in mats]
        got = _gauss.batch_is_invertible(np.stack([BlockMatrix(a, ctx).array for a in mats]), ctx)
        assert list(got) == [r == m for r in want]
        assert [_gauss.rank(a, ctx) for a in mats] == want


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_batched_elimination_reduces_each_matrix_as_alone(ctx):
    # matrices of one batch pivot on different rows, some miss a pivot, and
    # each full-rank one decomposes exactly as it does alone
    rng = random.Random(21)
    mats = []
    for i in range(12):
        rows = rand_rows(5, 6, ctx, rng)
        if i % 3 == 0:  # a zero first entry forces a row swap
            rows[0][0] = ctx.zero()
        if i % 4 == 1:  # a repeated column leaves the rank short
            for row in rows:
                row[2] = row[1]
        mats.append(BlockMatrix(rows, ctx).array)
    mats.append(BlockMatrix(maxed(5, 6, ctx), ctx).array)
    stack = np.array(mats)
    G, K, ok = _gauss.decompose(stack[:, :, :4], ctx)
    for g, k, good, mat in zip(G, K, ok, mats):
        assert good == (_gauss.rank(mat[:, :4], ctx) == 4)
        (g1,), (k1,), (good1,) = _gauss.decompose(mat[None, :, :4], ctx)
        assert good1 == good
        if good:
            assert np.array_equal(g, g1) and np.array_equal(k, k1)
        else:
            with pytest.raises(SingularSystem):
                _gauss.solve(mat[:, :4], mat[:, 4:], ctx)
    assert not ok.all() and ok.any()


@given(st.integers(0, 2**32), field_ids)
@settings(max_examples=30, deadline=None)
def test_decompose_treats_each_matrix_of_a_mixed_stack_as_alone(seed, fid):
    # one batch per shape n x m, n < m, n = m or n > m, mixing random tables
    # (of full rank but for bad luck), repeated columns and all p - 1
    ctx = FIELDS[fid]
    rng = random.Random(seed)
    m = rng.randint(2, 4)
    eye = [[ctx.one() if i == j else ctx.zero() for j in range(m)] for i in range(m)]
    for n in (m - 1, m, m + 1, m + 3):
        mats = [rand_rows(n, m, ctx, rng) for _ in range(6)]
        for rows in mats[::3]:
            for row in rows:
                row[1] = row[0]
        mats.append(maxed(n, m, ctx))
        G, K, ok = _gauss.decompose(np.stack([BlockMatrix(a, ctx).array for a in mats]), ctx)
        for rows, g, k, good in zip(mats, G, K, ok):
            assert good == (ref_rank(rows) == m)
            (g1,), (k1,), (good1,) = _gauss.decompose(BlockMatrix(rows, ctx).array[None], ctx)
            assert good1 == good
            if not good:
                continue
            assert np.array_equal(g, g1) and np.array_equal(k, k1)
            assert ref_matmul(rows_of(g, ctx), rows, ctx) == eye
            if n > m:
                assert all(v.is_zero() for row in ref_matmul(rows_of(k, ctx), rows, ctx)
                           for v in row)


@pytest.mark.parametrize("ctx", [FIELDS[i] for i in (0, 1, 3, 4, 6, 7, 8)], ids=repr)
def test_batched_matmul_equals_each_product(ctx):
    # int64 dot products (13), 16-bit limbs (2^31 - 1 at inner dimension 5),
    # Python ints (2^61 - 1) and folded plane products over GF(p^r)
    rng = random.Random(25)
    a = [rand_rows(3, 5, ctx, rng) for _ in range(3)] + [maxed(3, 5, ctx)]
    b = [rand_rows(5, 2, ctx, rng) for _ in range(3)] + [maxed(5, 2, ctx)]
    arrays = [[BlockMatrix(x, ctx).array for x in side] for side in (a, b)]
    got = _gauss.matmul(np.stack(arrays[0]), np.stack(arrays[1]), ctx)
    for g, x, y, ax, by in zip(got, a, b, *arrays):
        assert np.array_equal(g, _gauss.matmul(ax, by, ctx))
        assert rows_of(g, ctx) == tuple(map(tuple, ref_matmul(x, y, ctx)))
    if ctx.p == (1 << 31) - 1:
        assert (ctx.p - 1) ** 2 * 5 >= 1 << 63


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_only_normalisation_inverts(ctx):
    # rank questions read zero patterns and invert nothing; each decompose
    # inverts its pivots in one batch, however many columns and matrices it
    # clears
    rng = random.Random(23)
    rows = rand_rows(6, 4, ctx, rng)
    table = BlockMatrix(rows, ctx).array
    rhs = ref_matmul(rows, rand_rows(4, 2, ctx, rng), ctx)
    plan = gf31_plan(1, 8)
    assert plan.worker_split is not None
    missing = np.array([[0, 1], [2, 3], [4, 9]])
    with mock.patch.object(_gauss, "_inverses", wraps=_gauss._inverses) as spy:
        _gauss.rank(rows, ctx)
        _gauss.batch_is_invertible(table[None, :4], ctx)
        assert spy.call_count == 0
        _gauss.solve(rows, rhs, ctx)
        assert spy.call_count == 1
        _gauss.decompose(np.stack([table, table]), ctx)
        assert spy.call_count == 2
        _set_operators(plan, "worker", missing)
        assert spy.call_count == 3


def test_a_set_losing_more_rows_than_spare_equations_has_no_operator():
    # the GF(61) deployment's 30 x 25 worker table has 5 spare equations and its 10 x 8 base
    # table 2: a set losing more rows leaves fewer rows than columns, so it gets None like any
    # set without full column rank, and one losing exactly as many gets its operator or None
    plan = gf61_plan()
    assert _set_operators(plan, "worker", np.array([[9, 10, 11, 24, 25, 26]])) == [None]
    assert _set_operators(plan, "base", np.array([[0, 1, 2], [3, 5, 9]])) == [None, None]
    lost = np.array([[9, 10, 11, 24, 25], [0, 1, 2, 3, 4]])
    got = _set_operators(plan, "worker", lost)
    full = [_gauss.rank(np.delete(plan.worker_table, row, axis=0), plan.ctx) == 25
            for row in lost]
    assert [t is not None for t in got] == full and any(full)
    assert all(t is None or t.shape == (4, 25, 1) for t in got)


@pytest.mark.parametrize("ctx", [make_field(31), make_field((1 << 31) - 1),
                                 make_field((1 << 61) - 1), make_field(31, 2), make_field(13, 3),
                                 make_field(31, 4), make_field((1 << 61) - 1, 2)], ids=repr)
@pytest.mark.parametrize("count", [0, 1, 2, 7])
def test_inverses_by_the_norm_match_field_element_inverses(ctx, count):
    # a^-1 = N(a)^-1 a^p ... a^(p^(r-1)), each conjugate one product with FieldCtx._frob,
    # and over GF(p) the norm is a itself; a zero pivot, at places 1 and 4, maps to zero
    rng = random.Random(count)
    pivots = [ctx.zero() if i % 3 == 1 else ctx.random_element(rng, nonzero=True)
              for i in range(count)]
    array = np.array([x.coeffs for x in pivots], dtype=np.int64).reshape(count, ctx.r)
    got = _gauss._inverses(array, ctx)
    assert got.shape == array.shape and got.dtype == array.dtype
    assert [tuple(c) for c in got.tolist()] == [
        x.coeffs if x.is_zero() else x.inv().coeffs for x in pivots]


def test_solve_needs_as_many_equations_as_unknowns():
    ctx = FIELDS[0]
    with pytest.raises(SingularSystem, match="fewer equations"):
        _gauss.solve([[ctx.one(), ctx.one()]], [[ctx.one()]], ctx)


@pytest.mark.parametrize("ctx", [FIELDS[i] for i in (0, 1, 3, 4, 6, 7, 8)], ids=repr)
def test_left_kernel_annihilates_the_table(ctx):
    def decompose(rows):
        _, (kernel,), (ok,) = _gauss.decompose(BlockMatrix(rows, ctx).array[None], ctx)
        return kernel, ok

    rng = random.Random(15)
    for n, m in ((5, 3), (6, 1), (7, 5), (4, 4)):
        rows = rand_rows(n, m, ctx, rng)
        kernel, ok = decompose(rows)
        assert ok and kernel.shape == (n - m, n, ctx.r)
        if n > m:
            k = rows_of(kernel, ctx)
            assert all(v.is_zero() for row in ref_matmul(k, rows, ctx) for v in row)
            assert ref_rank(k) == n - m
        # a repeated or zero column leaves V without full column rank
        j, src = rng.randrange(m), rng.randrange(m)
        for row in rows:
            row[j] = row[src] if src != j else ctx.zero()
        assert not decompose(rows)[1]
    assert not decompose(rand_rows(2, 3, ctx, rng))[1]


# -- a whole protocol run above 2^31 ------------------------------------------------


def test_protocol_over_a_61_bit_prime_matches_integer_product():
    ctx = FIELDS[3]
    p = ctx.p
    params = SchemeParams.mp(2, 2, 1, 1)
    plan = find_evaluation_vector(params, ctx, n_hypernodes=5, seed=0)
    rng = random.Random("p61")
    a = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
    b = [[rng.randrange(p) for _ in range(2)] for _ in range(4)]
    report = run_protocol(BlockMatrix(a, ctx), BlockMatrix(b, ctx), plan,
                          stragglers=[1], seed=3)
    want = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
    text = f"4 2 {p}\n" + "\n".join(" ".join(map(str, row)) for row in want) + "\n"
    assert report.decode_success
    assert report.decoded_product_hash == hashlib.sha256(text.encode("ascii")).hexdigest()
