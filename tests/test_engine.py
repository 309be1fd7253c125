"""The array engine against an entry-wise FieldElement reference.

Every BlockMatrix operation, sparse Horner evaluation, interpolation and the
counted Gauss-Jordan solve is compared, values and multiplication counts,
with a plain implementation over FieldElement rows written here. The
fields cover both storage dtypes (int64 below 2^31, Python ints above),
primes on either side of 2^31 and extension fields.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from sdmm import _gauss
from sdmm.errors import InconsistentResponses, ShapeMismatch, SingularSystem
from sdmm.fields import MultCounter, make_field
from sdmm.linalg import find_evaluation_vector
from sdmm.matpoly import BlockMatrix, MatPoly, interpolate
from sdmm.protocol import run_protocol
from sdmm.schemes import SchemeParams

FIELDS = (
    make_field(13),
    make_field((1 << 31) - 1),
    make_field(2147483659),  # the first prime above 2^31
    make_field((1 << 61) - 1),
    make_field(13, 2),
    make_field(2, 5),
)
field_ids = st.sampled_from(range(len(FIELDS)))


# -- entry-wise reference ---------------------------------------------------------


def rand_rows(rows, cols, ctx, rng):
    return [[ctx.random_element(rng) for _ in range(cols)] for _ in range(rows)]


def ref_matmul(a, b, ctx):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), ctx.zero())
             for j in range(len(b[0]))] for i in range(len(a))]


def ref_horner(terms, x, counter):
    """Sparse Horner over {exponent: rows}, counting as the library does."""
    exps = sorted(terms)
    acc = terms[exps[-1]]
    size = len(acc) * len(acc[0])

    def scale(rows, e):
        c = x.pow_(e, counter)
        counter.add(size)
        return [[c * v for v in row] for row in rows]

    for n in range(len(exps) - 2, -1, -1):
        acc = scale(acc, exps[n + 1] - exps[n])
        acc = [[u + v for u, v in zip(ra, rb)] for ra, rb in zip(acc, terms[exps[n]])]
    return scale(acc, exps[0]) if exps[0] else acc


def ref_solve(rows, rhs, counter):
    """Entry-wise Gauss-Jordan over all rows; pivot is the first nonzero row."""
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
            if i != col and not M[i][col].is_zero():
                f = M[i][col]
                M[i] = [vi - f * vc for vi, vc in zip(M[i], M[col])]
                counter.add(width)
    if any(not v.is_zero() for row in M[m:] for v in row):
        raise InconsistentResponses("spare equations disagree")
    return [row[m:] for row in M[:m]]


def rows_of(arr, ctx):
    return BlockMatrix(arr, ctx).data


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
    counter = MultCounter()
    assert A.matmul(C, counter).data == tuple(map(tuple, ref_matmul(a, c, ctx)))
    assert counter.count == n * s * m
    assert (A == B) == (a == b)
    assert A.is_zero() == all(v.is_zero() for row in a for v in row)


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


# -- encoding, interpolation and the counted solve --------------------------------


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
    got_count, want_count = MultCounter(), MultCounter()
    got = poly.eval_sparse_horner(x, got_count)
    assert got.data == tuple(map(tuple, ref_horner(terms, x, want_count)))
    assert got_count.count == want_count.count


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
    got_count, want_count = MultCounter(), MultCounter()
    assert interpolate(pts, vals, exps, ctx, got_count) == poly
    vmat = [[x.pow_(e, want_count) for e in exps] for x in pts]
    rhs = [[v for row in val.data for v in row] for val in vals]
    ref_solve(vmat, rhs, want_count)
    assert got_count.count == want_count.count


@given(st.integers(0, 2**32), field_ids, st.integers(0, 2), st.booleans())
@settings(max_examples=60, deadline=None)
def test_counted_solve_matches_reference(seed, fid, spare, singular):
    ctx = FIELDS[fid]
    rng = random.Random(seed)
    m, k = rng.randint(1, 4), rng.randint(1, 3)
    X = rand_rows(m, k, ctx, rng)
    rows = rand_rows(m + spare, m, ctx, rng)
    if singular:
        # a zero column, or one repeating another, leaves the rank short
        j = rng.randrange(m)
        src = rng.randrange(m)
        for row in rows:
            row[j] = row[src] if src != j else ctx.zero()
    rhs = ref_matmul(rows, X, ctx)
    got_count, want_count = MultCounter(), MultCounter()
    try:
        want = ref_solve(rows, rhs, want_count)
    except SingularSystem:
        with pytest.raises(SingularSystem):
            _gauss.solve(rows, rhs, ctx, got_count)
        assert _gauss.rank(rows, ctx) < m
    else:
        assert rows_of(_gauss.solve(rows, rhs, ctx, got_count), ctx) == tuple(map(tuple, want))
        assert rows_of(_gauss.solve(rows, rhs, ctx), ctx) == tuple(map(tuple, want))
        assert _gauss.rank(BlockMatrix(rows, ctx).array, ctx) == m
    assert got_count.count == want_count.count


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
