import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdmm import _gauss, linalg
from sdmm.errors import (
    BadSpec,
    BudgetExceeded,
    BudgetExhausted,
    PlanInvalid,
    ShapeMismatch,
    ZeroEvaluationPoint,
)
from sdmm.examples import gf31_plan, gf61_plan
from sdmm.fields import (
    FieldCtx,
    largest_coprime_subgroup_order,
    make_field,
    primitive_root_of_unity,
)
from sdmm.linalg import (
    _subsets,
    decodability_check,
    find_evaluation_vector,
    ggasp_plan,
    is_mds,
    mp_plan,
    security_check,
    security_matrices,
    singular_minors,
)
from sdmm.matpoly import BlockMatrix
from sdmm.protocol import mp_recovery_threshold_with_security
from sdmm.schemes import SchemeParams
from sdmm.thresholds import product_class_support, symbolic_support
from test_engine import FIELDS, rand_rows, ref_rank

F13 = make_field(13)
F31 = make_field(31)


def powers(points, exponents, ctx):
    """Point-major table points[i]^exponents[j], shape (n, k, r)."""
    return _gauss.powers(_gauss.as_array([points], ctx)[0], exponents, ctx)


def test_negative_exponents_are_rejected():
    # a power ladder over the bits of -1 would give 3^3 = 6 for 3^-1 = 5 in
    # GF(7), and call the invertible system below singular
    F7 = make_field(7)
    with pytest.raises(BadSpec):
        powers([F7.element(3)], [-1, 2], F7)
    with pytest.raises(BadSpec):
        decodability_check([3, 5], [-1, 1], F7)


# -- plans ------------------------------------------------------------------------


def test_mp_plan_layout():
    params = SchemeParams.mp(2, 3, 2, 1)
    base = [F31.element(pow(15, p, 31)) for p in range(7)]
    plan = mp_plan(params, F31, base)
    zeta = primitive_root_of_unity(F31, 3)
    assert plan.n_workers == 21
    assert plan.n_hypernodes == 7
    for p in range(7):
        assert list(plan.hypernode_workers(p)) == [3 * p, 3 * p + 1, 3 * p + 2]
        for m in range(3):
            assert plan.worker_points[3 * p + m] == zeta.pow_(m) * base[p]
    assert len(set(x.index() for x in plan.worker_points)) == 21


def test_mp_plan_rejects_zero_point():
    params = SchemeParams.mp(1, 2, 1, 0)
    with pytest.raises(ZeroEvaluationPoint):
        mp_plan(params, F13, [F13.element(0), F13.element(2)])


def test_mp_plan_rejects_shared_power_class():
    # 5 and -5 share a square, so their hypernodes would overlap
    params = SchemeParams.mp(1, 2, 1, 0)
    with pytest.raises(PlanInvalid):
        mp_plan(params, F13, [F13.element(5), F13.element(8)])


def test_mp_plan_rejects_bad_zeta():
    params = SchemeParams.mp(1, 3, 1, 0)
    with pytest.raises(PlanInvalid):
        mp_plan(params, F13, [F13.element(1)], zeta=F13.element(2))


def test_ggasp_plan_rejects_duplicates():
    params = SchemeParams.ggasp(1, 2, 1, 0)
    with pytest.raises(PlanInvalid):
        ggasp_plan(params, F13, [F13.element(3), F13.element(3)])
    with pytest.raises(ZeroEvaluationPoint):
        ggasp_plan(params, F13, [F13.element(0), F13.element(3)])


def test_ggasp_plan_rejects_points_from_another_field():
    # a plan that reports field 31 must not hold GF(13) points
    with pytest.raises(ShapeMismatch):
        ggasp_plan(SchemeParams.ggasp(1, 2, 1, 0), F31,
                   [F13.element(v) for v in (1, 2, 3, 4)])


def test_mp_plan_rejects_points_or_zeta_from_another_field():
    params = SchemeParams.mp(1, 2, 1, 0)
    with pytest.raises(ShapeMismatch):
        mp_plan(params, F31, [F13.element(v) for v in (1, 2)])
    with pytest.raises(ShapeMismatch):
        mp_plan(params, F31, [F31.element(v) for v in (1, 2)], zeta=F13.element(12))


def test_decodability_rejects_a_point_from_another_field():
    with pytest.raises(ShapeMismatch):
        decodability_check([F31.element(2), F13.element(3)], [0, 1], F31)


def test_plan_summary_fields():
    plan = gf31_plan(1, 7)
    s = plan.summary()
    assert s["n_workers"] == 21
    assert len(s["worker_points"]) == 21
    assert len(s["base_points"]) == 7
    assert s["scheme"] == "mp:K=2,M=3,L=2,T=1,D=1"


# -- decodability -------------------------------------------------------------------


def test_decodability_known_pairs():
    f7 = make_field(7)
    assert decodability_check([1, 3], [2, 5], f7)
    # x^8 = x^2 for every x in GF(7), so {2, 8} collapses
    assert not decodability_check([1, 2], [2, 8], f7)
    assert not decodability_check([1], [2, 5], f7)  # too few points


def test_decodability_accepts_plan():
    plan = gf31_plan(1, 8)
    params = plan.params
    assert decodability_check(plan, product_class_support(params))
    assert decodability_check(plan.worker_points, symbolic_support(params), F31)


def test_decodability_raw_points_need_field():
    with pytest.raises(BadSpec):
        decodability_check([1, 3], [2, 5])


# -- MDS scans ---------------------------------------------------------------------


def test_is_mds_consecutive_exponents():
    pts = [F13.element(v) for v in (1, 2, 3, 4, 5)]
    res = is_mds(powers(pts, [0, 1, 2], F13), F13)
    assert res.ok and res.checked == res.total == 10


def test_is_mds_finds_shared_square_witness():
    # 1 and 12 share a square: rows equal at exponents {0, 2}
    pts = [F13.element(v) for v in (1, 12, 2)]
    res = is_mds(powers(pts, [0, 2], F13), F13)
    assert not res.ok
    assert res.witness == (0, 1)


@pytest.mark.parametrize("q, r", [(13, 1), (2**61 - 1, 1), (13, 2)])
def test_singular_minors_lists_every_singular_column_set(q, r):
    # rows 1 = 2 * row 0 and 3 = 3 * row 2; no other pair is
    # dependent. All 6 sets fall in one batch, so both report checked = 6
    ctx = make_field(q, r)
    table = BlockMatrix([[1, 1], [2, 2], [1, 2], [3, 6]], ctx).array
    got = list(singular_minors(table, itertools.combinations(range(4), 2), ctx))
    assert got == [(6, (0, 1)), (6, (2, 3))]


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
def test_tall_row_sets_need_full_column_rank(ctx):
    # 4-row sets of a 3-column table: rows 3 and 4 are multiples of row 0,
    # row 5 is row 1 + row 3 and row 6 is zero, so some sets lack a pivot
    rng = random.Random(14)
    rows = rand_rows(3, 3, ctx, rng)
    c, d = ctx.random_element(rng, nonzero=True), ctx.random_element(rng, nonzero=True)
    rows += [[c * v for v in rows[0]], [d * v for v in rows[0]],
             [u + c * v for u, v in zip(rows[1], rows[0])], [ctx.zero()] * 3]
    table = BlockMatrix(rows, ctx).array
    sets = list(itertools.combinations(range(7), 4))
    full = [ref_rank([rows[i] for i in s]) == 3 for s in sets]
    assert any(full) and not all(full)
    got = _gauss.batch_is_invertible(table[np.array(sets)], ctx)
    assert list(got) == full
    assert list(singular_minors(table, sets, ctx)) == [
        (len(sets), s) for s, ok in zip(sets, full) if not ok]


KERNEL_FIELDS = (make_field(13), make_field(2**31 - 1), make_field(2**61 - 1),
                 make_field(13, 2))


@given(st.integers(0, 2**32), st.sampled_from(range(len(KERNEL_FIELDS))),
       st.integers(1, 4), st.integers(0, 4), st.integers(0, 4),
       st.sampled_from(["random", "planted", "deficient"]), st.integers(1, 9))
@settings(max_examples=80, deadline=None)
def test_kernel_side_matches_the_direct_scan(seed, fid, m, extra, short, kind, batch):
    # s-row sets of an n x m table, with s from m (square) up to n; sets
    # with n - s < m on a full-column-rank table go to the left kernel
    ctx = KERNEL_FIELDS[fid]
    rng = random.Random(seed)
    n = m + extra
    s = max(m, n - short)
    # "planted": the rows outside `free` lie in a hyperplane, so exactly
    # the sets missing every row of `free` fail; "deficient": all rows do
    free = set(rng.sample(range(n), rng.randint(1, max(1, n - s))))
    if kind == "deficient":
        free = set()
    basis = rand_rows(m - 1, m, ctx, rng)
    rows = rand_rows(n, m, ctx, rng)
    if kind != "random":
        for i in set(range(n)) - free:
            coef = [ctx.random_element(rng) for _ in basis]
            rows[i] = [sum((c * b[j] for c, b in zip(coef, basis)), ctx.zero())
                       for j in range(m)]
    table = BlockMatrix(rows, ctx).array
    sets = list(itertools.combinations(range(n), s))
    direct = _gauss.batch_is_invertible(table[np.array(sets)], ctx)
    want = [(min(len(sets), (i // batch + 1) * batch), sets[i])
            for i in np.flatnonzero(~direct)]
    # the lex walk is unranked (its complements on the kernel side); a plain
    # iterator is read as tuples and complemented by a scatter
    with mock.patch.object(linalg, "_BATCH", batch), \
            mock.patch.object(_gauss, "decompose", wraps=_gauss.decompose) as spy, \
            mock.patch.object(linalg, "_sub_minors", wraps=linalg._sub_minors) as table_spy:
        assert list(singular_minors(table, _subsets(n, s)[0], ctx)) == want
        assert list(singular_minors(table, iter(sets), ctx)) == want
    assert spy.call_count == 2 * (n - s < m)
    grown = _under_table_bound(table, ctx, batch) if s == m else []
    assert [call.args[1] for call in table_spy.call_args_list] == 2 * grown
    if kind == "planted" and len(free) <= n - s:
        assert not direct.all()
    if kind == "deficient":
        assert not direct.any()


def _under_table_bound(table, ctx, batch):
    """The column counts a square lex scan of table grows its sub-minor table to, one per
    _sub_minors call, empty when it takes no Laplace path. The side the scan reads gives k,
    and the k-minors expand over the sum_{t<k} C(c, t) sub-minors of c columns when k >= 2
    and that sum is at most k batches: c = n, built at the first batch, when it fits; else
    on the kernel side, whose complements come in colex order, batch b reads the first c_b
    columns, the least c with C(c, k) >= its end, and the table grows to each c_b that fits."""
    n, m = table.shape[:2]
    kernel = n - m < m and _gauss.rank(table, ctx) == m
    k = n - m if kernel else m

    def fits(c):
        return k > 1 and sum(math.comb(c, t) for t in range(k)) <= k * batch

    if fits(n) or not kernel:
        return [n] * fits(n)
    grown, total = [], math.comb(n, k)
    for end in range(batch, total + batch, batch):
        c = next(c for c in range(n + 1) if math.comb(c, k) >= min(end, total))
        if not fits(c):
            break
        grown += [c] * (not grown or c > grown[-1])
    return grown


LAPLACE_FIELDS = (make_field(13), make_field(2**31 - 1), make_field(2**61 - 1),
                  make_field(31, 2))


@pytest.mark.parametrize("ctx", LAPLACE_FIELDS, ids=repr)
@pytest.mark.parametrize("kind", ["random", "planted", "deficient"])
@pytest.mark.parametrize("batch", [1, 7, 4096])
def test_laplace_scan_matches_elimination(batch, kind, ctx):
    # square scans of n x m tables: k = 0 (n = m) and k = 1 on the kernel side (n - m < m),
    # k = 1 on the direct side, then k = 2 to 4 on both sides; a table without full column
    # rank is scanned directly, at k = m. The (checked, rows) stream equals the one read off
    # batch_is_invertible on either side of the table bound: at batch 1 every scan exceeds
    # it, at 7 only the smallest tables or the first kernel-side batches meet it, at 4096
    # every scan with k >= 2 does
    rng = random.Random(f"{batch}-{kind}-{ctx!r}")
    used = []
    for n, m in ((3, 3), (4, 3), (5, 1), (6, 2), (5, 3), (8, 3), (7, 4), (10, 4), (9, 5)):
        # "planted": m + 1 rows lie in a hyperplane, so the m-sets inside them are
        # singular; "deficient": all rows do
        flat = {"random": [], "planted": rng.sample(range(n), min(n, m + 1)),
                "deficient": range(n)}[kind]
        basis = rand_rows(m - 1, m, ctx, rng)
        rows = rand_rows(n, m, ctx, rng)
        for i in flat:
            coef = [ctx.random_element(rng) for _ in basis]
            rows[i] = [sum((c * b[j] for c, b in zip(coef, basis)), ctx.zero())
                       for j in range(m)]
        table = BlockMatrix(rows, ctx).array
        sets = list(itertools.combinations(range(n), m))
        direct = _gauss.batch_is_invertible(table[np.array(sets)], ctx)
        want = [(min(len(sets), (i // batch + 1) * batch), sets[i])
                for i in np.flatnonzero(~direct)]
        assert not direct.all() or kind == "random"
        assert not direct.any() or kind != "deficient"
        with mock.patch.object(linalg, "_BATCH", batch), \
                mock.patch.object(linalg, "_sub_minors", wraps=linalg._sub_minors) as spy:
            assert list(singular_minors(table, _subsets(n, m)[0], ctx)) == want
            assert list(singular_minors(table, iter(sets), ctx)) == want
        used.append(_under_table_bound(table, ctx, batch))
        assert [call.args[1] for call in spy.call_args_list] == 2 * used[-1]
    assert any(used) == (batch > 1) and all(used[3:]) == (batch == 4096)


def test_scans_past_the_table_bound_never_build_it():
    # the recovery report of the GF(61) deployment scans its 30 x 25 table at k = 5, whose
    # 31,931 sub-minors exceed 5 batches; its 25-survivor witness, a singular square table
    # scanned directly at k = 25, would need 2^25 - 1; and a sampled 25 x 11 scan at k = 11
    # would need C(25, 10) = 3,268,760 at its last level alone. Only the base table's scan,
    # 8 of 10 rows at k = 2, expands
    plan = gf61_plan()
    with mock.patch.object(linalg, "_sub_minors", wraps=linalg._sub_minors) as spy:
        rep = mp_recovery_threshold_with_security(None, plan, mode="random", samples=4000,
                                                  seed=0)
        assert not is_mds(plan.worker_table[list(rep.witness.witness)], plan.ctx).ok
        assert is_mds(plan.worker_table[:25, :11], plan.ctx, mode="random", samples=50).ok
    assert (rep.threshold, rep.witness.ok) == (28, False)
    assert [call.args[0].shape for call in spy.call_args_list] == [(2, 10, 1)]


def test_is_mds_budget_and_random_mode():
    pts = [F31.element(v) for v in range(1, 25)]
    table = powers(pts, list(range(12)), F31)
    with pytest.raises(BudgetExceeded):
        is_mds(table, F31, budget=1000)
    res = is_mds(table, F31, mode="random", samples=200, rng=random.Random(5))
    assert res.ok and res.checked == 200
    # a table with no columns has one empty minor, but a bad mode still raises
    for t, ctx in ((table, F31), (np.zeros((3, 0, 1), np.int64), F13)):
        with pytest.raises(BadSpec):
            is_mds(t, ctx, mode="bogus")
    with pytest.raises(ShapeMismatch):
        is_mds(table[:11], F31)


def test_is_mds_scans_exactly_its_budget_and_refuses_one_minor_more():
    pts = [F31.element(v) for v in range(1, 9)]
    table = powers(pts, list(range(3)), F31)
    minors = math.comb(8, 3)
    res = is_mds(table, F31, budget=minors)
    assert res.ok and res.checked == res.total == minors
    with pytest.raises(BudgetExceeded):
        is_mds(table, F31, budget=minors - 1)


def test_random_mode_total_counts_every_minor_not_the_samples():
    pts = [F31.element(v) for v in range(1, 9)]
    res = is_mds(powers(pts, list(range(3)), F31), F31, mode="random", samples=20,
                 rng=random.Random(2))
    assert (res.ok, res.checked, res.total) == (True, 20, math.comb(8, 3))


def test_a_zero_column_table_is_scanned_like_any_other():
    # one empty minor per point set: an exhaustive scan checks all 1 of them,
    # a sampled one its samples, and neither finds a singular one
    F7 = make_field(7)
    table = np.zeros((4, 0, 1), dtype=np.int64)
    assert is_mds(table, F7) == linalg.MdsResult(True, "exhaustive", 1, 1)
    assert is_mds(table, F7, mode="random", samples=5) == linalg.MdsResult(True, "random", 5, 1)


def test_subsets_walk_all_k_subsets_or_draw_sorted_samples():
    # the one source of worker sets: a walk reports exactly as many sets as
    # it visits, every k-subset of range(n) once in lexicographic order; a
    # draw is the seeded stream of sorted rng.sample draws, one per sample
    for n, k in ((0, 0), (5, 0), (5, 2), (6, 6), (7, 3)):
        sets, count = _subsets(n, k)
        sets = list(sets)
        assert count == len(sets) == math.comb(n, k)
        assert sets == sorted(set(sets))
        assert all(list(s) == sorted(set(s) & set(range(n))) and len(s) == k for s in sets)
    drawn, looped = random.Random(4), random.Random(4)
    sets, count = _subsets(9, 4, 50, drawn)
    assert count == 50
    assert list(sets) == [tuple(sorted(looped.sample(range(9), 4))) for _ in range(50)]
    assert drawn.random() == looped.random()
    for samples in (0, -1):
        with pytest.raises(BadSpec, match="sampl"):
            _subsets(5, 2, samples, random.Random(0))


@pytest.mark.parametrize("batch", [1, 7, 4096])
def test_batches_of_a_walk_are_the_tuple_walk(batch):
    # a lex walk comes out unranked, as full batches but the last, in the
    # order of itertools.combinations, and so do its complements, in reversed
    # labels n - 1 - x; a walk of 2^63 sets or more is read as tuples, in the same order
    def read(batches, limit):
        got = list(itertools.islice(batches, limit))
        assert all(len(b) == batch for b in got[:-1]) and 0 < len(got[-1]) <= batch
        return [tuple(row) for b in got for row in b.tolist()]

    with mock.patch.object(linalg, "_BATCH", batch):
        for n, k in ((0, 0), (5, 0), (6, 6), (7, 3), (30, 25)):
            limit = 3000  # batches read: the whole walk, or a prefix of (30, 25) at small batches
            want = list(itertools.islice(itertools.combinations(range(n), k), limit * batch))
            walk = _subsets(n, k)[0]
            assert read(linalg._batches(walk), limit) == want
            assert read(linalg._batches(walk, n), limit) == [
                tuple(sorted(n - 1 - x for x in set(range(n)) - set(s))) for s in want]
        assert math.comb(70, 35) >= 1 << 63
        want = list(itertools.islice(itertools.combinations(range(70), 35), 2 * batch))
        assert read(linalg._batches(_subsets(70, 35)[0]), 2) == want


@pytest.mark.parametrize("batch", [1, 5, 4096])
def test_kernel_side_complements_come_in_colex_order(batch):
    # the complements of the s-sets of a lex walk, a _Lex or a plain iterator of the same
    # sets, read in reversed labels n - 1 - x as singular_minors reads the kernel, are the
    # (n - s)-subsets of range(n) in colex order: largest element first, then the next
    def read(batches):
        return [tuple(row) for b in batches for row in b.tolist()]

    with mock.patch.object(linalg, "_BATCH", batch):
        for n, s in ((0, 0), (1, 0), (5, 5), (5, 4), (6, 3), (8, 5), (9, 2), (12, 8)):
            colex = sorted(itertools.combinations(range(n), n - s), key=lambda c: c[::-1])
            assert read(linalg._batches(_subsets(n, s)[0], n)) == colex
            assert read(linalg._batches(itertools.combinations(range(n), s), n)) == colex


@pytest.mark.parametrize("ctx", (make_field(7), make_field(13), make_field(2**31 - 1),
                                 make_field(2**61 - 1), make_field(31, 2)), ids=repr)
def test_a_kernel_side_table_grows_is_reused_then_falls_back(ctx):
    # a 14 x 10 table of full column rank is scanned on its kernel side at k = 4 in batches
    # of 64; batch b reads the first c_b reversed columns, the least c with C(c, 4) >= 64 b,
    # so the table grows to 8, 10 and 11 columns at batches 1, 2 and 4 and is reused at 3
    # and 5. Batch 6 would need sum_{t<4} C(12, t) = 299 > 256 sub-minors, so from there on
    # the scan eliminates. The table ends with the sum_{t<4} C(11, t) = 232 sub-minors of
    # 11 columns, each computed once: 231 expanded, and the empty minor
    rng = random.Random(f"grow-{ctx!r}")
    table = BlockMatrix(rand_rows(14, 10, ctx, rng), ctx).array
    assert _gauss.rank(table, ctx) == 10
    sets = list(itertools.combinations(range(14), 10))
    direct = _gauss.batch_is_invertible(table[np.array(sets)], ctx)
    want = [(min(len(sets), (i // 64 + 1) * 64), sets[i]) for i in np.flatnonzero(~direct)]
    real_table, real_expand = linalg._sub_minors, _gauss.expand
    for walk in (_subsets(14, 10)[0], iter(sets)):
        grown, levels, expanded = [], [], []

        def growing(wide, c, ctx, old=None):
            grown.append(c)
            out = real_table(wide, c, ctx, old)
            levels[:] = out[1]
            return out

        def expanding(row, cols, minors, drops, ctx):
            expanded.append(cols.shape)
            return real_expand(row, cols, minors, drops, ctx)

        with mock.patch.object(linalg, "_BATCH", 64), \
                mock.patch.object(linalg, "_sub_minors", growing), \
                mock.patch.object(_gauss, "expand", expanding), \
                mock.patch.object(_gauss, "batch_is_invertible",
                                  wraps=_gauss.batch_is_invertible) as eliminated:
            assert list(singular_minors(table, walk, ctx)) == want
        assert grown == [8, 10, 11]
        assert [len(minors) for _, minors in levels] == [1, 11, 55, 165]
        assert sum(count for t, count in expanded if t < 4) == 231
        assert [count for t, count in expanded if t == 4] == [64] * 5
        assert sum(len(call.args[0]) for call in eliminated.call_args_list) == 1001 - 5 * 64


def test_the_gf61_recovery_scan_expands_over_a_16_column_table():
    # the exhaustive recovery scan of the GF(61) deployment decides its 30 x 25 worker table
    # on the kernel side at k = 5; the whole table of sum_{t<5} C(30, t) = 31,931 sub-minors
    # misses the bound of 5 batches, but the first batch, where the witness lies, reads the
    # first 16 reversed columns only (C(16, 5) = 4,368 >= 4,096), whose 2,517 sub-minors fit.
    # So no batch_is_invertible call sees any of its 4,096 5 x 5 minors
    plan = gf61_plan()
    real_table, built = linalg._sub_minors, []

    def growing(wide, c, ctx, old=None):
        out = real_table(wide, c, ctx, old)
        built.append((wide.shape, c, sum(len(minors) for _, minors in out[1])))
        return out

    with mock.patch.object(linalg, "_sub_minors", growing), \
            mock.patch.object(_gauss, "batch_is_invertible",
                              wraps=_gauss.batch_is_invertible) as eliminated:
        rep = mp_recovery_threshold_with_security(None, plan)
    assert (rep.threshold, rep.witness.checked, rep.witness.total) == (28, 4096, 142506)
    assert built == [((5, 30, 1), 16, 2517), ((2, 10, 1), 10, 11)]
    assert all(call.args[0].shape[1:3] != (5, 5) for call in eliminated.call_args_list)


@pytest.mark.parametrize("m, flat, want", [
    # kernel side: only the 8-sets inside the nine flat rows fail
    (8, set(range(12)) - {0, 5, 9},
     [(16, (1, 2, 3, 4, 6, 7, 10, 11)), (352, (1, 2, 3, 4, 6, 7, 8, 10))]),
    # direct side: only the 4-sets inside the five flat rows fail
    (4, {1, 4, 6, 7, 10}, [(144, (1, 6, 7, 10)), (240, (1, 4, 6, 7))]),
], ids=["kernel", "direct"])
def test_is_mds_witnesses_are_pinned_on_both_sides(m, flat, want):
    # the rows in `flat` lie in a hyperplane of GF(2^31 - 1)^m; checked and
    # the witness of a random and an exhaustive scan, in batches of 16, are
    # those the scans gave when every batch was read as tuples
    F = make_field(2**31 - 1)
    rng = random.Random(21)
    basis = rand_rows(m - 1, m, F, rng)
    rows = rand_rows(12, m, F, rng)
    for i in flat:
        coef = [F.random_element(rng) for _ in basis]
        rows[i] = [sum((c * b[j] for c, b in zip(coef, basis)), F.zero()) for j in range(m)]
    table = BlockMatrix(rows, F).array
    with mock.patch.object(linalg, "_BATCH", 16):
        got = [is_mds(table, F, mode="random", samples=300, rng=random.Random(7)),
               is_mds(table, F)]
    assert [(r.ok, r.total) for r in got] == [(False, 495)] * 2
    assert [(r.checked, r.witness) for r in got] == want


def test_a_kernel_side_witness_is_rebuilt_without_numpy_ma():
    # the witness of a kernel-side scan is the complement of the complement
    # it tested, taken by a keep mask; np.setdiff1d reaches np.unique, whose
    # first call in a process imports numpy.ma. The base table's scan, 8 of 10
    # rows, takes the Laplace path, which calls neither
    code = ("import json, sys; from sdmm.examples import gf61_plan; "
            "from sdmm.linalg import is_mds; plan = gf61_plan(); "
            "r = is_mds(plan.worker_table, plan.ctx); b = is_mds(plan.base_table, plan.ctx); "
            "print(json.dumps([r.checked, r.witness, b.checked, b.witness, "
            "'numpy.ma' in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=str(Path(linalg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout) == [4096, list(range(22)) + [25, 26, 28],
                                       45, [0, 1, 2, 4, 5, 6, 7, 9], False]


@pytest.mark.parametrize("samples", [0, -4])
def test_random_mode_needs_a_positive_sample_count(samples):
    # a singular table must not pass as MDS on zero samples
    for table, ctx in ((BlockMatrix([[1, 1], [2, 2]], F31).array, F31),
                       (np.zeros((3, 0, 1), np.int64), F13)):
        with pytest.raises(BadSpec):
            is_mds(table, ctx, mode="random", samples=samples)


def test_is_mds_generic_path_matches_numpy_path():
    # same scan through the vectorized prime-field path and the generic
    # elimination path (forced via an extension field holding equal values)
    rng = random.Random(9)
    f169 = make_field(13, 2)
    pts13 = [F13.element(v) for v in (1, 2, 3, 4, 6, 12)]
    pts169 = [f169.element(v) for v in (1, 2, 3, 4, 6, 12)]
    exps = [0, 2, 4]
    got13 = is_mds(powers(pts13, exps, F13), F13)
    got169 = is_mds(powers(pts169, exps, f169), f169)
    assert got13.ok == got169.ok
    assert got13.witness == got169.witness


@given(st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_batch_invertibility_matches_generic(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    mats = [[[rng.randrange(31) for _ in range(n)] for _ in range(n)]
            for _ in range(8)]
    want = [ref_rank([[F31.element(v) for v in row] for row in m]) == n for m in mats]
    got = _gauss.batch_is_invertible(np.array(mats, dtype=np.int64)[..., None], F31)
    assert list(got) == want


# -- security -----------------------------------------------------------------------


def test_security_matrices_shape_and_entries():
    plan = gf31_plan(2, 8)
    sa, sb = security_matrices(plan)
    assert sa.shape == sb.shape == (24, 2, 1)
    x = plan.worker_points[5]
    assert list(sa[5, 1]) == list(x.pow_(12 + 1).coeffs)  # second noise offset is D = 1
    assert list(sb[5, 0]) == list(x.pow_(12 + 0).coeffs)


def test_security_shared_square_always_fails():
    # offsets (0, 2) with M = 2: inside a hypernode x and -x have equal
    # squares, so two rows of the mixing table coincide for any points
    params = SchemeParams.explicit(1, 2, 1, 2, alpha=(0, 2), beta=(0, 1))
    rng = random.Random(3)
    squares_seen = set()
    for _ in range(10):
        while True:
            a = F13.random_element(rng, nonzero=True)
            if a.pow_(2).index() not in squares_seen:
                break
        res = security_check(mp_plan(params, F13, [a]))
        assert not res.ok
        assert not res.sigma_a.ok and res.sigma_a.witness is not None


@pytest.mark.parametrize("params, field, scans", [
    (SchemeParams.mp(2, 3, 2, 2), F31, 1),  # alpha = beta: sigma_b is sigma_a
    (SchemeParams.ggasp(2, 3, 2, 2, r=1), make_field(7681), 2),
])
def test_security_check_scans_each_distinct_matrix_once(params, field, scans):
    plan = find_evaluation_vector(params, field, seed=0)
    with mock.patch.object(linalg, "is_mds", wraps=linalg.is_mds) as spy:
        res = security_check(plan)
    assert spy.call_count == scans
    assert (res.sigma_b is res.sigma_a) == (scans == 1)
    sig_a, sig_b = security_matrices(plan)
    assert res.sigma_a == is_mds(sig_a, plan.ctx) and res.sigma_b == is_mds(sig_b, plan.ctx)


def test_security_single_noise_term_passes():
    assert security_check(gf31_plan(1, 8)).ok


def test_security_refuses_noise_free_plans():
    # with no noise terms there is nothing to mix; the check refuses
    # rather than reporting a vacuous pass
    with pytest.raises(BadSpec):
        security_check(gf31_plan(0, 4))


# -- evaluation-vector search --------------------------------------------------------


def test_find_is_deterministic():
    params = SchemeParams.mp(2, 3, 2, 1)
    a = find_evaluation_vector(params, F31, seed=11)
    b = find_evaluation_vector(params, F31, seed=11)
    assert [x.index() for x in a.worker_points] == [x.index() for x in b.worker_points]
    c = find_evaluation_vector(params, F31, seed=12)
    assert [x.index() for x in a.worker_points] != [x.index() for x in c.worker_points]


def test_find_respects_deployment_size():
    params = SchemeParams.mp(2, 3, 2, 1)
    plan = find_evaluation_vector(params, F31, n_hypernodes=8, seed=0)
    assert plan.n_hypernodes == 8 and plan.n_workers == 24
    # any-22-of-deployment decodability is a strong ask over a small field,
    # so give the flat layout one spare worker over a roomier field
    gparams = SchemeParams.ggasp(2, 3, 2, 1)
    gplan = find_evaluation_vector(gparams, make_field(101), n_workers=23, seed=0)
    assert gplan.n_workers == 23
    assert gplan.base_points is None


@pytest.mark.parametrize("params,counts", [
    (SchemeParams.mp(2, 3, 2, 1), {"n_workers": 21}),
    (SchemeParams.mp(2, 3, 2, 1), {"n_hypernodes": 0}),
    (SchemeParams.ggasp(2, 3, 2, 1), {"n_hypernodes": 8}),
    (SchemeParams.ggasp(2, 3, 2, 1), {"n_workers": -1}),
])
def test_find_rejects_a_count_the_layout_does_not_take(params, counts):
    with pytest.raises(BadSpec):
        find_evaluation_vector(params, make_field(101), seed=0, **counts)


@pytest.mark.parametrize("params,counts", [
    (SchemeParams.mp(2, 3, 2, 0), {"n_hypernodes": 3}),
    (SchemeParams.ggasp(2, 2, 2, 1), {"n_workers": 4}),
])
def test_find_rejects_a_deployment_too_small_to_decode(monkeypatch, params, counts):
    # no field can make fewer points than coefficients decode, so the
    # search refuses before it builds any extension field
    built = []
    monkeypatch.setattr("sdmm.linalg.make_field", lambda *args: built.append(args))
    with pytest.raises(BadSpec, match="cannot determine"):
        find_evaluation_vector(params, F31, seed=0, max_escalations=2, **counts)
    assert built == []


@pytest.mark.parametrize("options", [
    {"attempts": 0}, {"attempts": -2}, {"max_escalations": -1},
    {"minor_budget": 0}, {"minor_budget": -5}])
def test_find_rejects_malformed_search_options(options):
    # a search that may not try anything has not run out of candidates
    with pytest.raises(BadSpec):
        find_evaluation_vector(SchemeParams.mp(2, 3, 2, 1), F31, seed=0, **options)


def test_find_size_gate_diagnostics():
    params = SchemeParams.mp(2, 3, 2, 3)  # needs 24 points, GF(13) has 12
    with pytest.raises(BudgetExhausted) as info:
        find_evaluation_vector(params, F13, seed=0)
    fields = info.value.diagnostics["fields"]
    assert fields and "cannot host" in fields[0]["gate"]


def test_find_subgroup_mode():
    params = SchemeParams.mp(2, 3, 2, 0)
    plan = find_evaluation_vector(params, F31, n_hypernodes=6, subgroup="auto",
                                  seed=0)
    # points drawn from the order-10 subgroup of GF(31)
    for a in plan.base_points:
        assert a.pow_(10) == F31.one()


def test_find_explicit_subgroup_order():
    params = SchemeParams.mp(2, 3, 2, 0)
    plan = find_evaluation_vector(params, F31, n_hypernodes=6, subgroup="10",
                                  seed=0)
    assert [a.index() for a in plan.base_points] == [4, 23, 1, 16, 8, 29]
    assert all(a.pow_(10) == F31.one() for a in plan.base_points)


def test_find_subgroup_mode_over_a_61_bit_square(monkeypatch):
    # The auto subgroup of GF((2^61-1)^2) has a 119-bit order m that does
    # not divide p - 1, so no element of the prime subfield (indices 1 ..
    # p - 1) generates it: the generator search must not walk them, and the
    # points are drawn from an exponent range longer than sys.maxsize.
    ctx = make_field((1 << 61) - 1, 2)
    m = largest_coprime_subgroup_order(ctx, 3)
    assert (ctx.p - 1) % m and m > sys.maxsize
    from_index, calls = FieldCtx.from_index, []

    def counted(self, idx):
        calls.append(idx)
        assert len(calls) <= 1000, "the generator search walks the prime subfield"
        return from_index(self, idx)

    monkeypatch.setattr(FieldCtx, "from_index", counted)
    params = SchemeParams.mp(1, 3, 1, 1)
    plan = find_evaluation_vector(params, ctx, subgroup="auto", seed=0)
    assert len(set(plan.worker_points)) == plan.n_workers == 6
    assert all(a.pow_(m) == ctx.one() for a in plan.base_points)
    assert decodability_check(plan, product_class_support(params))
    assert security_check(plan).ok


def test_find_unusable_subgroup_order_gate():
    # 7 does not divide the 30 units of GF(31)
    params = SchemeParams.mp(2, 3, 2, 0)
    with pytest.raises(BudgetExhausted) as info:
        find_evaluation_vector(params, F31, n_hypernodes=6, subgroup="7", seed=0)
    assert info.value.diagnostics["fields"][0]["gate"] == "subgroup order 7 unusable"


@pytest.mark.parametrize("subgroup", ["0", "-3", "abc", 0])
def test_find_rejects_a_malformed_subgroup(subgroup):
    with pytest.raises(BadSpec):
        find_evaluation_vector(SchemeParams.mp(2, 3, 2, 0), F31, n_hypernodes=6,
                               subgroup=subgroup, seed=0)


def test_found_plans_decode_and_mix():
    for params, ctx in ((SchemeParams.mp(2, 2, 1, 2), F31),
                        (SchemeParams.ggasp(2, 2, 2, 2, 2), F31)):
        plan = find_evaluation_vector(params, ctx, seed=0)
        if plan.base_points is not None:
            assert decodability_check(plan, product_class_support(params))
        else:
            assert decodability_check(plan.worker_points,
                                      symbolic_support(params), ctx)
        assert security_check(plan).ok


def test_find_exhaustion_diagnostics_are_frozen():
    # GF(13) rejects every candidate for this explicit layout: the rejection
    # counts per reason pin the search's checks and their order
    params = SchemeParams.explicit(1, 2, 1, 2, alpha=(0, 2), beta=(0, 1))
    with pytest.raises(BudgetExhausted) as info:
        find_evaluation_vector(params, F13, attempts=15, seed=0)
    diag = info.value.diagnostics
    assert diag["fields"] == [{"field": "13", "attempts": 15, "decode_failures": 9,
                               "security_failures": 6, "gate": None}]
    assert diag["attempts"] == 15
