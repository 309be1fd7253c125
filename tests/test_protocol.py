"""End-to-end protocol runs, decoding routes, and straggler-robustness estimates."""

import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sdmm.protocol
from sdmm import _gauss
from sdmm.errors import (
    BadSpec,
    DecodeFailed,
    InconsistentResponses,
    InsufficientResponses,
    OutOfRange,
    PlanInvalid,
    ShapeMismatch,
    SingularSystem,
)
from sdmm.examples import gf31_plan, gf61_plan
from sdmm.fields import MultCounter, make_field
from sdmm.linalg import (
    EvaluationPlan,
    _batches,
    _subsets,
    find_evaluation_vector,
    ggasp_plan,
    is_mds,
    mp_plan,
    security_check,
    security_matrices,
)
from sdmm.matpoly import BlockMatrix, interpolate
from sdmm.protocol import (
    _hypernode_bound_holds,
    _routes,
    assemble_product,
    decode,
    encode,
    mp_recovery_threshold_with_security,
    p_of_s_empirical,
    p_of_s_lower_bound,
    resolve_stragglers,
    run_protocol,
    worker_products,
)
from sdmm.schemes import (
    GGASP,
    SchemeParams,
    build_f,
    parse_scheme_spec,
    partition,
    product_block_positions,
)
from sdmm.thresholds import product_class_support, symbolic_support
from test_fields import products

F13 = make_field(13)
F31 = make_field(31)
F61 = make_field(61)


def _inputs(plan, seed=7, scale=1):
    params = plan.params
    rng = random.Random(f"test-io-{seed}")
    A = BlockMatrix.random(params.K * scale, params.M * scale, plan.ctx, rng)
    B = BlockMatrix.random(params.M * scale, params.L * scale, plan.ctx, rng)
    return A, B


def _responses(plan, A, B, rng):
    """Every worker's product of its two shares, with noise drawn from rng, as a plain dict.

    worker_products returns a read-only mapping; tests that delete or
    replace a response edit this copy.
    """
    return dict(worker_products(encode(A, B, plan, rng), range(plan.n_workers), plan))


# -- straggler specs -------------------------------------------------------------------


def test_resolve_stragglers_accepts_many_forms():
    rng = random.Random(0)
    assert resolve_stragglers(None, 10, rng) == ()
    assert resolve_stragglers("", 10, rng) == ()
    assert resolve_stragglers("none", 10, rng) == ()
    assert resolve_stragglers("NONE", 10, rng) == ()
    assert resolve_stragglers([3, 1, 3], 10, rng) == (1, 3)
    assert resolve_stragglers("4,2", 10, rng) == (2, 4)
    assert resolve_stragglers([np.int64(3), np.int32(1)], 10, rng) == (1, 3)
    assert resolve_stragglers("prob:0", 10, rng) == ()
    assert resolve_stragglers("prob:1", 10, rng) == tuple(range(10))

    picked = resolve_stragglers("random:3", 10, rng)
    assert len(picked) == 3
    assert picked == tuple(sorted(set(picked)))
    assert all(0 <= n < 10 for n in picked)


@pytest.mark.parametrize("spec", [
    "random:11", "random:x", "prob:1.5", "prob:x", "wat", [12], [-1], ["x"],
    [1.5], [np.float64(2.0)],  # int() would truncate 1.5 to worker 1
])
def test_resolve_stragglers_rejects_bad_specs(spec):
    with pytest.raises(BadSpec):
        resolve_stragglers(spec, 10, random.Random(0))


def test_resolve_stragglers_random_is_driven_by_rng():
    a = resolve_stragglers("random:4", 12, random.Random(5))
    b = resolve_stragglers("random:4", 12, random.Random(5))
    assert a == b


# -- protocol runs and decoding routes -------------------------------------------------


def test_run_protocol_full_response_set():
    plan = gf31_plan(1, 8)
    A, B = _inputs(plan, scale=2)
    rep = run_protocol(A, B, plan, seed=0)
    assert rep.decode_success
    assert rep.straggler_set == ()
    assert rep.responses_used == 24
    want = hashlib.sha256(A.matmul(B).to_text().encode("ascii")).hexdigest()
    assert rep.decoded_product_hash == want
    assert rep.scheme == plan.params.spec_string()
    assert rep.field == "31"
    assert set(rep.mult_counts) == {"encode", "worker", "decode"}
    assert all(v > 0 for v in rep.mult_counts.values())


def test_complete_hypernodes_decode_below_full_support_count():
    # generic interpolation needs 22 responses here; losing one whole
    # hypernode leaves 21 responses but 7 complete hypernodes, and the
    # averaged route still decodes
    plan = gf31_plan(1, 8)
    A, B = _inputs(plan)
    rep = run_protocol(A, B, plan, stragglers=[0, 1, 2], seed=1)
    assert rep.responses_used == 21
    assert rep.decode_success


def test_decode_falls_back_to_full_interpolation():
    # one worker lost in each of two hypernodes: only 6 complete hypernodes
    # of the 7 the averaged route needs, but all 22 responses interpolate
    # the unfiltered polynomial
    plan = gf31_plan(1, 8)
    A, B = _inputs(plan)
    rep = run_protocol(A, B, plan, stragglers=[0, 3], seed=2)
    assert rep.responses_used == 22
    assert rep.decode_success


def test_decode_failure_is_reported_not_raised():
    # three broken hypernodes and 21 responses starve both routes
    plan = gf31_plan(1, 8)
    A, B = _inputs(plan)
    rep = run_protocol(A, B, plan, stragglers=[0, 3, 6], seed=3)
    assert not rep.decode_success
    assert rep.decoded_product_hash is None
    assert rep.responses_used == 21


@pytest.mark.parametrize("down, success, counts", [
    ((9, 24), True, {"encode": 1080, "worker": 112, "decode": 24232}),
    ((9, 10, 11, 24, 25, 26), False, {"encode": 1080, "worker": 96, "decode": 1160}),
], ids=["singular-then-full", "singular-then-fail"])
def test_a_singular_hypernode_system_is_charged_in_full(down, success, counts):
    # hypernodes 0-2 and 4-7 and 9 stay complete, but their filtered system
    # has rank 7: decode charges its whole dense elimination, then
    # interpolates all responses, or with 24 of them fails
    plan = gf61_plan()
    rng = random.Random("pin")
    A = BlockMatrix.random(4, 3, F61, rng)
    B = BlockMatrix.random(3, 4, F61, rng)
    rep = run_protocol(A, B, plan, stragglers=down, seed=1)
    assert rep.decode_success == success
    assert rep.mult_counts == counts


@pytest.mark.parametrize("make_plan, down, attempts, price, error", [
    # every hypernode complete: the average solves with one spare equation,
    # then the 24 raw responses are checked against two more
    (lambda: gf31_plan(1, 8), (), [("base", 8, False, 1), ("check", 24, False, 2)], 960, None),
    # 6 complete hypernodes of 7: all 22 responses interpolate, none spare
    (lambda: gf31_plan(1, 8), (0, 3), [("worker", 22, False, 0)], 14366, None),
    (gf61_plan, (9, 24), [("base", 8, True, 0), ("worker", 28, False, 3)], 24232, None),
    (gf61_plan, (9, 10, 11, 24, 25, 26), [("base", 8, True, 0)], 1160, InsufficientResponses),
    (gf61_plan, (0, 3, 6, 9, 12, 15), [], 0, InsufficientResponses),
], ids=["p31-hypernode", "p31-full", "f61-singular-then-full", "f61-singular-then-short",
        "f61-no-route"])
def test_attempts_are_read_before_any_solve_and_priced_by_costs(
        monkeypatch, make_plan, down, attempts, price, error):
    # route, table height (the rows mask's count), singular (no operator)
    # and spare equations (operator rows past K*L): _prepare lists them for
    # a batch of one with interpolate unreachable; decode charges costs'
    # decode entry of them and run_protocol reports it, with 2 x 2 blocks
    plan = make_plan()
    gone = np.zeros(plan.n_workers, dtype=bool)
    gone[list(down)] = True
    with monkeypatch.context() as patch:
        patch.setattr(sdmm.protocol, "interpolate", None)
        (got,) = sdmm.protocol._prepare(plan, gone[None])
    KL = plan.params.K * plan.params.L
    assert [(route, np.count_nonzero(rows), T is None, 0 if T is None else len(T) - KL)
            for route, rows, T in got] == attempts
    whole = ~sdmm.protocol._spoiled(plan, gone[None])[0]
    assert all(np.array_equal(rows, whole if route == "base" else ~gone) for route, rows, _ in got)
    shapes = (plan.n_workers - len(down), 2, 2, 2)
    assert sdmm.protocol.costs(plan, shapes, got)["decode"] == price
    A, B = _inputs(plan, scale=2)
    counter = MultCounter()
    responses = {n: v for n, v in _responses(plan, A, B, random.Random("attempts")).items()
                 if n not in down}
    with pytest.raises(error) if error else contextlib.nullcontext():
        decode(responses, plan, counter)
    assert counter.count == price
    assert run_protocol(A, B, plan, stragglers=down).mult_counts == sdmm.protocol.costs(
        plan, shapes, got)


def _same_attempts(got, want):
    """Whether two attempt lists hold the same routes and row masks, with equal operators or
    None in the same places."""
    return len(got) == len(want) and all(
        r == q and np.array_equal(rows, mask) and (T is None) == (U is None)
        and (T is None or np.array_equal(T, U)) for (r, rows, T), (q, mask, U) in zip(got, want))


@pytest.mark.parametrize("make_plan", [lambda: gf31_plan(0, 6), lambda: gf31_plan(1, 8), gf61_plan],
                         ids=["p31-t0", "p31-t1", "f61"])
def test_batched_attempts_equal_each_pattern_prepared_alone(make_plan):
    # a pattern's attempts in a random batch are those _prepare lists for it
    # alone. Each batch mixes straggler counts: the pattern that spoils no
    # hypernode, one with no route, one with the full route only, every
    # singular base set (only the GF(61) plan has one; the GF(31) base points
    # are MDS), pairs of patterns that spoil one hypernode set (and share its
    # one base operator), and random ones
    plan = make_plan()
    N, M, P = plan.n_workers, plan.params.M, plan.n_hypernodes
    needed, ctx = len(plan.class_support), plan.ctx
    rng = random.Random(f"batched-{N}-{plan.params.T}")
    spoilable = [group for k in range(P - needed + 1)
                 for group in itertools.combinations(range(P), k)]
    singular = [group for group in spoilable if _gauss.rank(
        plan.base_table[[p for p in range(P) if p not in group]], ctx) < needed]
    assert singular == ([(3, 8)] if make_plan is gf61_plan else [])
    no_route = [p * M for p in range(max(P - needed + 1, N - len(plan.full_support) + 1))]
    full_only = [p * M for p in range(P - needed + 1)]

    def spoiling(group):
        return [n for p in group for n in rng.sample(plan.hypernode_workers(p), rng.randint(1, M))]

    for _ in range(3):
        singular_downs = [spoiling(group) for group in singular]
        patterns = [[], no_route, full_only] + singular_downs
        pairs = [(spoiling(group), spoiling(group)) for group in rng.sample(spoilable[1:], 4)]
        patterns += [down for pair in pairs for down in pair]
        patterns += [rng.sample(range(N), rng.randint(0, N)) for _ in range(6)]
        rng.shuffle(patterns)
        gone = np.array([np.isin(np.arange(N), down) for down in patterns])
        batched = sdmm.protocol._prepare(plan, gone)
        assert len(batched) == len(patterns) and batched[patterns.index(no_route)] == []
        assert [route for route, _, _ in batched[patterns.index(full_only)]] == ["worker"]
        assert [route for route, _, _ in batched[patterns.index([])]] == ["base", "check"]
        for down, got, lost in zip(patterns, batched, gone):
            assert _same_attempts(got, sdmm.protocol._prepare(plan, lost[None])[0]), down
        for down in singular_downs:
            route, _, T = batched[patterns.index(down)][0]
            assert route == "base" and T is None, down
        for one, other in pairs:
            assert batched[patterns.index(one)][0][2] is batched[patterns.index(other)][0][2]


def _f961_plan():
    # the mp:K=2,M=3,L=2,T=1 deployment of gf31_plan(1, 8), over GF(31^2)
    return find_evaluation_vector(SchemeParams.mp(2, 3, 2, 1), make_field(31, 2),
                                  n_hypernodes=8, seed=0)


def _ladders(ctx, exponents):
    """The products pow_ takes on x^e, summed over the exponents."""
    with products() as taken:
        for e in exponents:
            ctx.one().pow_(e)
    return taken.count


@pytest.mark.parametrize("make_plan, down, routes, solved, success", [
    (lambda: gf31_plan(1, 8), (), ["hypernode"], ["hypernode"], True),
    (lambda: gf31_plan(1, 8), (0, 3), ["full"], ["full"], True),
    (_f961_plan, (), ["hypernode"], ["hypernode"], True),
    (_f961_plan, (0, 3), ["full"], ["full"], True),
    (gf61_plan, (9, 24), ["hypernode", "full"], ["full"], True),
    (gf61_plan, (9, 10, 11, 24, 25, 26), ["hypernode"], [], False),
], ids=["p31-hypernode", "p31-full", "f961-hypernode", "f961-full",
        "f61-singular-then-full", "f61-singular-then-short"])
def test_decode_count_is_the_closed_form_of_its_routes(monkeypatch, make_plan, down, routes,
                                                       solved, success):
    # per route, with rc = rows * cols of a product block: the hypernode
    # route averages |C| complete hypernodes (M + 1 scales of rc entries
    # each), then solves |C| x P' by dense Gauss-Jordan; the full route
    # solves N_r x N'. Each point pays a pow_ ladder per exponent, and a
    # system of n rows and m unknowns n * m * (m + rc). A singular hypernode
    # system is charged in full before the full route is tried, though
    # interpolate never sees it: the routes priced are not all solved.
    plan = make_plan()
    taken = []
    real = sdmm.protocol.interpolate

    def spy(points, values, exponents, *args, **kwargs):
        taken.append("hypernode" if exponents is plan.class_support else "full")
        return real(points, values, exponents, *args, **kwargs)

    monkeypatch.setattr(sdmm.protocol, "interpolate", spy)
    A, B = _inputs(plan, scale=2)
    rep = run_protocol(A, B, plan, stragglers=down, seed=1)
    assert taken == solved and rep.decode_success == success
    K, M, L = plan.params.K, plan.params.M, plan.params.L
    rc = A.rows // K * (B.cols // L)
    complete = plan.n_hypernodes - len({n // M for n in down})
    responding = plan.n_workers - len(down)
    P, N = len(plan.class_support), len(plan.full_support)
    want = {
        "hypernode": complete * (M + 1) * rc + complete * _ladders(plan.ctx, plan.class_support)
        + complete * P * (P + rc),
        "full": responding * _ladders(plan.ctx, plan.full_support) + responding * N * (N + rc),
    }
    assert rep.mult_counts["decode"] == sum(want[route] for route in routes)


@pytest.mark.parametrize("make_plan", [lambda: gf31_plan(1, 8), _f961_plan, gf61_plan],
                         ids=["p31", "f961", "f61"])
def test_encode_is_priced_on_the_layout_zero_blocks_included(make_plan):
    # every worker's two shares cost sparse Horner over the scheme's exponent
    # layout: per gap between consecutive exponents, and from the lowest down
    # to 0, a pow_ ladder and one scale of an a x s (or s x b) block. A zero
    # block of A drops out of f, but the price is the layout's, so zeroing
    # A_{0,1} changes nothing
    plan = make_plan()
    params, ctx = plan.params, plan.ctx
    A, B = _inputs(plan, scale=2)
    a, s, b = A.rows // params.K, A.cols // params.M, B.cols // params.L
    holed = A.array.copy()
    holed[:a, s:2 * s] = 0
    reports = [run_protocol(X, B, plan, seed=1) for X in (A, BlockMatrix(holed, ctx))]
    assert all(rep.decode_success for rep in reports)

    def horner(exponents, size):
        exps = sorted(exponents)
        gaps = [hi - lo for lo, hi in zip([0] + exps, exps) if hi > lo]
        return _ladders(ctx, gaps) + len(gaps) * size

    f, g = params.exponents()
    want = plan.n_workers * (horner(f, a * s) + horner(g, s * b))
    assert [rep.mult_counts["encode"] for rep in reports] == [want, want]


def test_decode_raises_when_called_directly_with_too_few_responses():
    plan = gf31_plan(1, 8)
    A, B = _inputs(plan)
    responses = _responses(plan, A, B, random.Random("enc"))
    for n in (0, 3, 6):
        del responses[n]
    with pytest.raises(InsufficientResponses) as exc:
        decode(responses, plan)
    assert str(exc.value) == ("have 5 complete hypernodes of 7 needed "
                              "and 21 responses of 22 needed")


def test_decode_raises_when_the_hypernode_route_is_singular_and_responses_are_short():
    # hypernodes 3 and 8 gone leave the 8 complete ones the average needs,
    # but their base-table rows are singular, and the 24 responses fall
    # short of full interpolation's 25: no route yields the product
    plan = gf61_plan()
    A, B = _inputs(plan)
    down = (9, 10, 11, 24, 25, 26)
    view = worker_products(encode(A, B, plan, random.Random("short")),
                           [n for n in range(plan.n_workers) if n not in down], plan)
    for responses in (view, dict(view)):
        with pytest.raises(InsufficientResponses) as exc:
            decode(responses, plan)
        assert str(exc.value) == ("have 8 complete hypernodes of 8 needed "
                                  "and 24 responses of 25 needed")


@pytest.mark.parametrize("key", [24, -2, "a", 0.5])
def test_decode_rejects_keys_that_name_no_worker(key):
    # 21 responses plus one filed under a key outside the 24 workers, with
    # only 6 complete hypernodes, so decode takes the full-interpolation route
    plan = gf31_plan(1, 8)
    A, B = _inputs(plan)
    responses = _responses(plan, A, B, random.Random("keys"))
    survivors = {n: responses[n] for n in range(1, 22)}
    survivors[key] = responses[22]
    with pytest.raises(BadSpec):
        decode(survivors, plan)


def test_decode_takes_numpy_keys_and_rejects_values_that_are_not_blocks():
    plan = gf31_plan(1, 8)
    A, B = _inputs(plan)
    responses = _responses(plan, A, B, random.Random("malformed"))
    product = assemble_product(decode({np.int64(n): v for n, v in responses.items()}, plan),
                               plan.params, plan.ctx)
    assert product == A.matmul(B)
    # worker 5 sits in a complete hypernode; with workers 0 and 3 down the
    # full route reads it
    for down in ((), (0, 3)):
        for bad in (responses[5].array, None):
            survivors = {n: v for n, v in responses.items() if n not in down}
            survivors[5] = bad
            with pytest.raises(ShapeMismatch):
                decode(survivors, plan)
    with pytest.raises(ShapeMismatch):
        interpolate([F31.element(2), F31.element(3)], [responses[0], "x"], [0, 1], F31)


def test_flat_decode_reports_only_the_response_count():
    params = SchemeParams.ggasp(2, 3, 2, 1)
    plan = find_evaluation_vector(params, make_field(101), n_workers=22, seed=1)
    A, B = _inputs(plan)
    responses = _responses(plan, A, B, random.Random("flat"))
    assert assemble_product(decode(responses, plan), params, plan.ctx) == A.matmul(B)
    del responses[4]
    with pytest.raises(InsufficientResponses) as exc:
        decode(responses, plan)
    assert str(exc.value) == "have 21 responses of 22 needed"


def test_decode_counter_path_agrees_with_uncounted_path():
    plan = gf31_plan(1, 8)
    A, B = _inputs(plan, seed=11)
    responses = _responses(plan, A, B, random.Random("enc2"))
    counter = MultCounter()
    counted = decode(responses, plan, counter)
    plain = decode(responses, plan)
    assert counted == plain
    assert counter.count > 0
    assert assemble_product(plain, plan.params, F31) == A.matmul(B)


def test_decode_raises_on_a_corrupted_response():
    # all 24 responses complete 8 hypernodes where 7 determine the product,
    # so the spare equation exposes one corrupted entry
    plan = gf31_plan(1, 8)
    rng = random.Random("corrupt")
    A = BlockMatrix.random(4, 3, F31, rng)
    B = BlockMatrix.random(3, 4, F31, rng)
    responses = _responses(plan, A, B, rng)
    assert assemble_product(decode(responses, plan), plan.params, F31) == A.matmul(B)
    responses[4] = responses[4] + BlockMatrix([[1, 0], [0, 0]], F31)
    with pytest.raises(InconsistentResponses):
        decode(responses, plan)


def test_hypernode_route_checks_the_raw_spare_equations():
    # worker 0 down leaves exactly the 7 complete hypernodes the average
    # needs, a square system, but 23 responses for 22 unknowns: the one raw
    # spare equation exposes a corrupted response the average would use
    plan = gf31_plan(1, 8)
    rng = random.Random("raw-spare")
    for _ in range(5):
        A = BlockMatrix.random(4, 3, F31, rng)
        B = BlockMatrix.random(3, 4, F31, rng)
        responses = _responses(plan, A, B, rng)
        survivors = {n: v for n, v in responses.items() if n != 0}
        checked, bare = MultCounter(), MultCounter()
        got = assemble_product(decode(survivors, plan, checked), plan.params, F31)
        assert got == A.matmul(B)
        # with hypernode 0 gone whole, 21 responses leave no raw spare
        # equation; the same average and interpolation count the same
        decode({n: v for n, v in survivors.items() if n > 2}, plan, bare)
        assert checked.count == bare.count > 0
        survivors[3] = survivors[3] + BlockMatrix.random(2, 2, F31, rng)
        with pytest.raises(InconsistentResponses):
            decode(survivors, plan)


@pytest.mark.parametrize("down, bad", [((0, 3), 5), ((), 5), ((1,), 0)],
                         ids=["full", "hypernode", "spoiled"])
def test_decode_rejects_a_response_over_another_field(down, bad):
    # with workers 0 and 3 down only 6 of the 7 needed hypernodes are
    # complete, so decode interpolates all 22 responses; with nobody down
    # it averages the 8 complete hypernodes; with worker 1 down it averages
    # hypernodes 1 to 7, and the bad response sits in spoiled hypernode 0
    plan = gf31_plan(1, 8)
    A, B = _inputs(plan)
    responses = _responses(plan, A, B, random.Random("field"))
    survivors = {n: v for n, v in responses.items() if n not in down}
    survivors[bad] = BlockMatrix(survivors[bad].array % 13, F13)
    with pytest.raises(ShapeMismatch):
        decode(survivors, plan)


def test_hypernode_route_rejects_a_response_of_another_shape():
    plan = gf31_plan(1, 8)
    A, B = _inputs(plan)
    responses = _responses(plan, A, B, random.Random("shape"))
    # worker 5 sits in a complete hypernode, worker 2 in one spoiled by worker 1
    for bad, down in ((5, ()), (2, (1,))):
        survivors = {n: v for n, v in responses.items() if n not in down}
        survivors[bad] = BlockMatrix.zero(3, 3, F31)
        with pytest.raises(ShapeMismatch):
            decode(survivors, plan)


def _points_of(plan, table, exponents):
    """The FieldElements whose powers on exponents are the rows of a table decode passes.

    Those rows come from plan.power_table, and worker p*M evaluates at base
    point p, so the worker points hold the points of either route.
    """
    at = {row.tobytes(): x for row, x in zip(plan.power_table[:, list(exponents)],
                                             plan.worker_points)}
    return [at[row.tobytes()] for row in table]


@pytest.mark.parametrize("make_plan", [lambda: gf31_plan(1, 8), _f961_plan],
                         ids=["p31", "f961"])
@pytest.mark.parametrize("down,route", [((), "hypernode"), ((0, 3), "full")])
def test_decode_on_the_plan_tables_matches_interpolation_from_points(
        monkeypatch, make_plan, down, route):
    # with nobody down all 8 hypernodes average; with workers 0 and 3 down
    # only 6 of the 7 needed are complete, so all 22 responses interpolate
    plan = make_plan()
    A, B = _inputs(plan)
    responses = _responses(plan, A, B, random.Random("tables"))
    survivors = {n: v for n, v in responses.items() if n not in down}
    decode(survivors, plan)  # computes the plan's tables and their splits
    powers = _gauss.powers
    calls = []
    monkeypatch.setattr(_gauss, "powers", lambda *a: calls.append(1) or powers(*a))
    cached = MultCounter()
    blocks = decode(survivors, plan, cached)
    assert not calls  # decode never recomputes powers

    interpolate = sdmm.protocol.interpolate
    tables = []

    def from_points(points, values, exponents, ctx, *, solver):
        tables.append(points)
        return interpolate(_points_of(plan, points, exponents), values, exponents, ctx,
                           solver=solver)

    monkeypatch.setattr(sdmm.protocol, "interpolate", from_points)
    recomputed = MultCounter()
    assert decode(survivors, plan, recomputed) == blocks
    assert recomputed.count == cached.count
    assert assemble_product(blocks, plan.params, plan.ctx) == A.matmul(B)
    want = (plan.base_table if route == "hypernode"
            else plan.worker_table[[n for n in range(plan.n_workers) if n not in down]])
    assert len(tables) == 1 and np.array_equal(tables[0], want)
    assert calls  # and here interpolate did, from the points


_SCALAR_PLANS = {
    "31": lambda: gf31_plan(1, 8),
    # with the frozen singular 25-survivor witness, a deficient 26-set, and
    # 28 survivors whose 8 complete hypernodes have a singular base system
    "61": lambda: (gf61_plan(), [(6, 12, 19, 24, 25), (0, 3, 22, 24), (9, 24)]),
    "2^31-1": lambda: find_evaluation_vector(SchemeParams.mp(2, 2, 1, 1),
                                             make_field((1 << 31) - 1), n_hypernodes=5, seed=0),
    "2^61-1": lambda: find_evaluation_vector(SchemeParams.mp(2, 2, 1, 1),
                                             make_field((1 << 61) - 1), n_hypernodes=5, seed=0),
    "13^2": lambda: find_evaluation_vector(SchemeParams.mp(2, 3, 2, 1), make_field(13, 2),
                                           n_hypernodes=8, seed=0),
    "flat-101": lambda: find_evaluation_vector(SchemeParams.ggasp(2, 3, 2, 1), make_field(101),
                                               n_workers=24, seed=1),
}


@pytest.mark.parametrize("name", list(_SCALAR_PLANS))
def test_decode_matches_interpolation_from_points_on_random_survivor_sets(monkeypatch, name):
    # decode on the plan operators against decode on the plain _gauss.solve
    # path: the same blocks, exception class and count on honest and on
    # corrupted responses; and, whenever the survivors' worker rows have full
    # column rank, InconsistentResponses exactly when their raw system is
    # inconsistent, else the true product. decode solves no system that
    # _prepare marked singular (a None operator), so each mark is checked
    # against the rank of its table's surviving rows
    plan = _SCALAR_PLANS[name]()
    plan, fixed = plan if isinstance(plan, tuple) else (plan, [])
    params, ctx = plan.params, plan.ctx
    rng = random.Random(f"scalar-{name}")
    A, B = _inputs(plan)
    responses = _responses(plan, A, B, rng)
    shape = responses[0].shape
    positions = product_block_positions(params.K, params.M, params.L).values()
    interpolate = sdmm.protocol.interpolate

    def from_points(points, values, exponents, ctx, *, solver):
        poly = interpolate(_points_of(plan, points, exponents), values, exponents, ctx)
        return np.array([poly.coeff(e).array for e in positions])

    def outcome(survivors, scalar):
        counter = MultCounter()
        with monkeypatch.context() as patch:
            if scalar:
                patch.setattr(sdmm.protocol, "interpolate", from_points)
            try:
                result = decode(survivors, plan, counter)
            except (InsufficientResponses, SingularSystem, InconsistentResponses) as exc:
                result = type(exc)
        return result, counter.count

    N, m = plan.n_workers, len(plan.full_support)
    downs = fixed + [rng.sample(range(N), rng.randint(0, min(N, N - m + 2)))
                     for _ in range(30)]
    seen, marks = set(), set()
    for trial, down in enumerate(downs):
        gone = np.isin(np.arange(N), down)
        for route, kept, T in sdmm.protocol._prepare(plan, gone[None])[0]:
            route = "base" if route == "base" else "worker"  # a check reads the worker table
            table = getattr(plan, f"{route}_table")
            singular = _gauss.rank(table[kept], ctx) < table.shape[1]
            assert (T is None) == singular, (route, down)
            marks.add((route, singular))
        for corrupt in (False, True):
            survivors = {n: v for n, v in responses.items() if n not in down}
            if corrupt:
                bad = rng.choice(sorted(survivors))
                spot = (rng.randrange(shape[0]), rng.randrange(shape[1]))
                bump = [[int((i, j) == spot) for j in range(shape[1])] for i in range(shape[0])]
                survivors[bad] = survivors[bad] + BlockMatrix(bump, ctx)
            got, count = outcome(survivors, scalar=False)
            assert (got, count) == outcome(survivors, scalar=True), (down, corrupt)
            kind = got if isinstance(got, type) else dict
            seen.add((corrupt, kind))
            order = sorted(survivors)
            V = plan.worker_table[order]
            if _gauss.rank(V, ctx) == m:
                stack = np.array([survivors[n].array for n in order]).reshape(len(order), -1, ctx.r)
                with pytest.raises(InconsistentResponses) if got is InconsistentResponses \
                        else contextlib.nullcontext():
                    _gauss.solve(V, stack, ctx)
            if kind is dict and not corrupt:
                assert assemble_product(got, params, ctx) == A.matmul(B), down
            if kind is dict and corrupt:
                # a wrong product only when the corrupted response was undetectable
                rest = [n for n in order if n != bad]
                assert _gauss.rank(plan.worker_table[rest], ctx) < m, down
    assert (False, dict) in seen and (True, InconsistentResponses) in seen
    assert (False, InconsistentResponses) not in seen
    assert not fixed or (False, SingularSystem) in seen
    assert not fixed or {("base", True), ("worker", True)} <= marks


@pytest.mark.parametrize("name", ["31", "61", "2^61-1", "31^2", "flat-101"])
def test_stack_backed_responses_decode_as_their_dict(name):
    # decode reads a worker_products mapping by row index and a plain dict
    # through its key and block checks: the same blocks, count and error on
    # random survivor sets, short and singular ones included, from honest
    # products and with one worker's share corrupted
    plan = _f961_plan() if name == "31^2" else _SCALAR_PLANS[name]()
    plan, fixed = plan if isinstance(plan, tuple) else (plan, [])
    ctx, N = plan.ctx, plan.n_workers
    rng = random.Random(f"stack-{name}")
    A, B = _inputs(plan)
    F, G = encode(A, B, plan, rng)
    bad = rng.randrange(N)
    F2 = F.copy()
    F2[bad, 0, 0, 0] = (F2[bad, 0, 0, 0] + 1) % ctx.p
    honest = worker_products((F, G), range(N), plan)

    def outcome(responses):
        counter = MultCounter()
        try:
            return decode(responses, plan, counter), counter.count
        except (InsufficientResponses, SingularSystem, InconsistentResponses) as exc:
            return type(exc), counter.count

    downs = fixed + [[]] + [rng.sample(range(N), rng.randint(0, N - len(plan.full_support) + 3))
                            for _ in range(25)]
    seen = set()
    for down in downs:
        for f in (F, F2):
            view = worker_products((f, G), [n for n in range(N) if n not in down], plan)
            assert list(view) == [n for n in range(N) if n not in down]
            got = outcome(view)
            assert got == outcome(dict(view)), down
            seen.add(got[0] if isinstance(got[0], type) else dict)
    assert {dict, InsufficientResponses, InconsistentResponses} <= seen
    assert not fixed or SingularSystem in seen

    # read-only: no item assignment, and no writeable array behind a view
    view = worker_products((F, G), [n for n in range(N) if n != bad], plan)
    n = next(iter(view))
    assert view == dict(view) and bad not in view and len(view) == N - 1
    with pytest.raises(TypeError):
        view[bad] = honest[bad]
    assert not (view.stack.flags.writeable or view.workers.flags.writeable
                or view[n].array.flags.writeable)
    with pytest.raises(BadSpec):
        worker_products((F, G), [N], plan)
    # a plain dict, or a view of another deployment, still has every check
    other = make_field(13, ctx.r)
    for key, value, error in [(n, BlockMatrix(view[n].array % 13, other), ShapeMismatch),
                              (n, BlockMatrix.zero(3, 3, ctx), ShapeMismatch),
                              (n, view[n].array, ShapeMismatch), ("a", view[n], BadSpec),
                              (0.5, view[n], BadSpec)]:
        survivors = dict(view)
        survivors[key] = value
        with pytest.raises(error):
            decode(survivors, plan)
    with pytest.raises(BadSpec):
        decode(honest, dataclasses.replace(plan, worker_points=plan.worker_points[:-1]))


def test_worker_products_refuses_share_stacks_of_another_height():
    # stacks one worker short or one over, on either side, are not shares of
    # this plan's deployment: worker_products refuses them before any product
    plan = gf31_plan(1, 8)
    A, B = _inputs(plan)
    F, G = encode(A, B, plan, random.Random("height"))
    assert len(worker_products((F, G), [0], plan)) == 1
    for shares in ((F[:-1], G), (F, G[:-1]), (F[:-1], G[:-1]), (np.concatenate([F, F[:1]]), G)):
        with pytest.raises(ShapeMismatch):
            worker_products(shares, [0], plan)


def test_responses_are_trusted_only_on_the_plan_object_they_name(monkeypatch):
    # a Responses made for an equal but distinct plan object decodes through
    # the checked path (stack_blocks) to the same blocks as one made for this
    # plan, and one of this plan that carries _prepare's attempts decodes
    # without reading the routes again
    plan = gf31_plan(1, 8)
    twin = dataclasses.replace(plan)
    assert twin == plan and twin is not plan
    A, B = _inputs(plan)
    shares = encode(A, B, plan, random.Random("twin"))
    kept = [n for n in range(plan.n_workers) if n not in (0, 5)]
    gone = ~np.isin(np.arange(plan.n_workers), kept)
    mine, theirs = worker_products(shares, kept, plan), worker_products(shares, kept, twin)
    protocol = sdmm.protocol
    real_stack, real_prepare = protocol.stack_blocks, protocol._prepare
    stacked, prepared = [], []

    def counting_stack(blocks, ctx):
        stacked.append(len(blocks))
        return real_stack(blocks, ctx)

    def counting_prepare(plan, gone):
        prepared.append(len(gone))
        return real_prepare(plan, gone)

    monkeypatch.setattr(protocol, "stack_blocks", counting_stack)
    monkeypatch.setattr(protocol, "_prepare", counting_prepare)
    want = decode(mine, plan)
    assert assemble_product(want, plan.params, F31) == A.matmul(B)
    assert (stacked, prepared) == ([], [1])
    assert decode(theirs, plan) == want
    assert (stacked, prepared) == ([len(kept)], [1, 1])
    assert decode(theirs, twin) == want and stacked == [len(kept)]
    routed = protocol.Responses(plan, mine.workers, mine.stack, real_prepare(plan, gone[None])[0])
    stacked.clear()
    prepared.clear()
    assert decode(routed, plan) == want
    assert (stacked, prepared) == ([], [])

@pytest.mark.parametrize("ctx", [F31, make_field((1 << 61) - 1), make_field(31, 2)],
                         ids=["GF(31)", "GF(2^61-1)", "GF(31^2)"])
def test_decode_blocks_are_read_only_views_of_their_arrays(ctx):
    # by the hypernode route (no straggler) and the full route (hypernodes 0
    # and 1 spoiled), from a Responses carrying _prepare's attempts and from
    # a plain mapping: every block is a BlockMatrix whose rows, cols and ctx
    # are its array's, and that array is read-only and refuses a write
    plan = find_evaluation_vector(SchemeParams.mp(2, 3, 2, 1), ctx, n_hypernodes=8, seed=0)
    A, B = _inputs(plan)
    shares = encode(A, B, plan, random.Random("read-only"))
    for down, route in (((), "base"), ((0, 3), "worker")):
        gone = np.isin(np.arange(plan.n_workers), down)
        attempts = sdmm.protocol._prepare(plan, gone[None])[0]
        assert attempts[0][0] == route
        view = worker_products(shares, np.flatnonzero(~gone), plan)
        for responses in (sdmm.protocol.Responses(plan, view.workers, view.stack, attempts),
                          dict(view)):
            blocks = decode(responses, plan)
            assert list(blocks) == list(plan.block_positions)
            assert assemble_product(blocks, plan.params, ctx) == A.matmul(B)
            for block in blocks.values():
                assert isinstance(block, BlockMatrix) and block.ctx is ctx
                assert block.array.shape == (block.rows, block.cols, ctx.r)
                assert not block.array.flags.writeable
                with pytest.raises(ValueError):
                    block.array[0, 0, 0] = 1


def test_plan_tables_are_read_only_powers_outside_equality():
    plan = gf31_plan(1, 8)
    fresh = dataclasses.replace(plan)
    cached = {"power_table", "worker_table", "base_table", "block_positions"}
    assert fresh.__dict__.keys().isdisjoint(cached)
    # one ladder spans every exponent of h = f*g: 0 .. 2*KML + 0 + 0 = 24 at T = 1
    power = plan.power_table
    assert plan.full_support[-1] == 24
    assert np.array_equal(power, [[x.pow_(e).coeffs for e in range(25)]
                                  for x in plan.worker_points])
    # every other table is a slice of it; worker p*M evaluates at base point a_p
    KML, M = plan.params.KML, plan.params.M
    sig_a, sig_b = security_matrices(plan)
    slices = [(plan.worker_table, power[:, plan.full_support]),
              (plan.base_table, power[::M, plan.class_support]),
              (sig_a, power[:, [KML + a for a in plan.params.alpha()]]),
              (sig_b, power[:, [KML + b for b in plan.params.beta()]])]
    for table, want in [(power, power)] + slices:
        assert np.array_equal(table, want)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1
    assert np.array_equal(plan.base_table, [[a.pow_(e).coeffs for e in plan.class_support]
                                            for a in plan.base_points])
    for name in cached:
        assert getattr(plan, name) is getattr(plan, name)  # computed once
    assert plan.block_positions == product_block_positions(2, 3, 2)
    with pytest.raises(TypeError):
        plan.block_positions[0, 0] = 0
    # the table decompositions are caches, not fields
    assert plan.worker_split is not None and plan.base_split is not None
    assert plan.full_support == symbolic_support(plan.params)
    assert plan.class_support == product_class_support(plan.params)
    assert plan == fresh and hash(plan) == hash(fresh)
    assert plan.summary() == fresh.summary()
    flat = find_evaluation_vector(SchemeParams.ggasp(2, 3, 2, 1), make_field(101),
                                  n_workers=22, seed=1)
    assert flat.power_table.shape == (22, flat.full_support[-1] + 1, 1)
    assert np.array_equal(flat.worker_table, flat.power_table[:, flat.full_support])
    with pytest.raises(PlanInvalid):
        flat.base_table



def test_every_cached_plan_property_is_immutable():
    # a plan is a frozen value: after a walk and a recovery report every
    # property it caches is a read-only array, a tuple, a mapping proxy or
    # None, and nothing else has been stored on it
    plan = gf31_plan(1, 8)
    A, B = _inputs(plan)
    p_of_s_empirical(A, B, plan, 2)
    mp_recovery_threshold_with_security(None, plan)
    cached = [name for name, attr in vars(EvaluationPlan).items()
              if isinstance(attr, functools.cached_property)]
    assert {"power_table", "block_positions", "worker_split", "hypernode_weights"} <= set(cached)
    for name in cached:
        value = getattr(plan, name)
        assert (value is None or isinstance(value, (tuple, types.MappingProxyType))
                or isinstance(value, np.ndarray) and not value.flags.writeable), name
    assert set(vars(plan)) <= set(cached) | {f.name for f in dataclasses.fields(plan)}

def _flat_7681_plan():
    # the ggasp deployment that the frozen flat simulate run searches for
    return find_evaluation_vector(SchemeParams.ggasp(2, 2, 2, 2, 2), make_field(7681),
                                  n_workers=20, seed=1)


@pytest.mark.parametrize("make_plan", [lambda: gf31_plan(1, 8), _f961_plan, _flat_7681_plan],
                         ids=["p31", "f961", "flat-7681"])
def test_a_second_run_on_a_plan_runs_no_power_ladder(monkeypatch, make_plan):
    # the plan's power_table is its one ladder: building it (a search builds
    # a plan per candidate), a first run on either decode route, the
    # security check and the recovery report run powers once per plan
    # built, and a second run on the plan none at all
    init, powers = EvaluationPlan.__init__, _gauss.powers
    built, calls = [], []
    monkeypatch.setattr(EvaluationPlan, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    monkeypatch.setattr(_gauss, "powers", lambda *a: calls.append(1) or powers(*a))
    plan = make_plan()
    A, B = _inputs(plan, scale=2)
    # with nobody down an mp plan averages all 8 hypernodes; with workers 0
    # and 3 down it keeps 6 of the 7 needed and interpolates all 22 responses
    first = run_protocol(A, B, plan, seed=1)
    full = run_protocol(A, B, plan, stragglers=[0, 3], seed=1)
    assert first.decode_success and full.decode_success
    assert security_check(plan).ok
    if plan.base_points is not None:
        assert mp_recovery_threshold_with_security(None, plan).certified
    assert built and len(calls) == len(built)
    calls.clear()
    again = run_protocol(A, B, plan, stragglers=[0, 3], seed=1)
    assert again.to_dict() == full.to_dict()
    assert calls == []


_NOISE_PLANS = {
    "61": gf61_plan,
    "31": lambda: gf31_plan(1, 8),
    "flat-7681": _flat_7681_plan,
    "31^2": _f961_plan,
    "2^61-1": lambda: find_evaluation_vector(SchemeParams.mp(2, 2, 1, 1),
                                             make_field((1 << 61) - 1), n_hypernodes=5, seed=0),
}


@pytest.mark.parametrize("name", list(_NOISE_PLANS))
def test_encoded_noise_reaches_workers_through_the_security_tables(name):
    # each share less its data part, taken on the scalar path, is the
    # security_matrices row times the noise blocks redrawn in order from the
    # run's seeded stream: security_check certifies what encode hands out
    plan = _NOISE_PLANS[name]()
    params, ctx, seed = plan.params, plan.ctx, 5
    K, M, L = params.K, params.M, params.L
    A, B = _inputs(plan, scale=2)
    F, G = encode(A, B, plan, random.Random(f"sdmm-noise-{seed}"))
    a_blocks, b_blocks = partition(A, B, K, M, L)
    rng = random.Random(f"sdmm-noise-{seed}")
    R = [BlockMatrix.random(*a_blocks[0][0].shape, ctx, rng) for _ in params.alpha()]
    S = [BlockMatrix.random(*b_blocks[0][0].shape, ctx, rng) for _ in params.beta()]
    data_f = {m + k * M: a_blocks[k][m] for k in range(K) for m in range(M)}
    data_g = {M - 1 - m + l * K * M: b_blocks[m][l] for m in range(M) for l in range(L)}
    sig_a, sig_b = security_matrices(plan)
    for shares, data, sigma, noise in ((F, data_f, sig_a, R), (G, data_g, sig_b, S)):
        for n, x in enumerate(plan.worker_points):
            rest = BlockMatrix(shares[n], ctx)
            for e, block in data.items():
                rest = rest - block.scale(x.pow_(e))
            masked = BlockMatrix.zero(*rest.shape, ctx)
            for c, block in zip(sigma[n].tolist(), noise):
                masked = masked + block.scale(ctx.element(c))
            assert rest == masked, (n, shares is F)


def test_an_insecure_sigma_b_leaks_b_through_the_shares():
    # g's noise sits at x^2 and x^4, which agree at x = 1 and x = -1, so
    # workers 0 and 1 see the same noise in g: G[0] - G[1] is fixed by B
    # whatever the noise, and differs between two B's. f's noise, at x^2 and
    # x^3, still masks F[0] - F[1]. The certificate must say so: sigma_b
    # fails on exactly that pair, sigma_a passes
    params = SchemeParams.explicit(1, 2, 1, 2, alpha=(0, 1), beta=(0, 2))
    plan = mp_plan(params, F13, [F13.element(1), F13.element(2)])
    assert [x.index() for x in plan.worker_points] == [1, 12, 2, 11]
    res = security_check(plan)
    assert not res.ok
    assert res.sigma_a.ok
    assert not res.sigma_b.ok and res.sigma_b.witness == (0, 1)

    rng = random.Random(1)
    A = BlockMatrix.random(1, 2, F13, rng)
    seen_g, seen_f = [], set()
    for B in (BlockMatrix.random(2, 1, F13, rng), BlockMatrix.random(2, 1, F13, rng)):
        diffs = set()
        for seed in range(6):
            F, G = encode(A, B, plan, random.Random(seed))
            diffs.add(BlockMatrix(G[0], F13) - BlockMatrix(G[1], F13))
            seen_f.add(BlockMatrix(F[0], F13) - BlockMatrix(F[1], F13))
        assert len(diffs) == 1
        seen_g += diffs
    assert seen_g[0] != seen_g[1]
    assert len(seen_f) > 1


class _ScriptedNoise:
    """Hands BlockMatrix.random the prescribed residues, one 1x1 block per 32-bit word.

    A 1x1 draw over a field of order q reads getrandbits(32) and keeps its
    top k = q.bit_length() bits, so the word x << (32 - k) draws residue x.
    """

    def __init__(self, residues, order):
        self.residues, self.shift = iter(residues), 32 - order.bit_length()

    def getrandbits(self, bits):
        assert bits == 32
        return next(self.residues) << self.shift


def _leaking_sets(plan, side):
    # side 0 watches f's shares over every A, side 1 g's over every B. For
    # each input, every noise vector of that polynomial goes through the
    # real encode; a T-set leaks when the sets of share tuples it can see
    # differ between inputs
    ctx, params = plan.ctx, plan.params
    K, M, L, T, q = params.K, params.M, params.L, params.T, ctx.order
    shape, fixed = ((K, M), (M, L)) if side == 0 else ((M, L), (K, M))
    views = []
    for data in itertools.product(range(q), repeat=shape[0] * shape[1]):
        X = BlockMatrix(np.array(data).reshape(*shape, 1), ctx)
        A, B = ((X, BlockMatrix.zero(*fixed, ctx)) if side == 0
                else (BlockMatrix.zero(*fixed, ctx), X))
        draws = ([*z, *[0] * T] if side == 0 else [*[0] * T, *z]
                 for z in itertools.product(range(q), repeat=T))
        views.append(np.array([encode(A, B, plan, _ScriptedNoise(d, q))[side][:, 0, 0, 0]
                               for d in draws]))
    return [S for S in itertools.combinations(range(plan.n_workers), T)
            if len({frozenset(map(tuple, v[:, S].tolist())) for v in views}) > 1]


F5 = make_field(5)


@pytest.mark.parametrize("spec, points, secure", [
    ("mp:K=1,M=2,L=1,T=1", [1, 2], (True, True)),
    ("mp:K=2,M=1,L=1,T=2", [1, 2, 3], (True, True)),
    ("ggasp:K=1,M=2,L=1,T=2,r=2", [1, 4, 2], (True, True)),
    ("explicit:K=1,M=2,L=1,T=2,alpha=0+2,beta=0+1", [1, 2], (False, True)),
    ("explicit:K=1,M=2,L=1,T=2,alpha=0+1,beta=0+2", [1, 2], (True, False)),
    ("ggasp:K=1,M=2,L=1,T=2,r=1", [1, 4, 2], (False, True)),
], ids=["mp-t1", "mp-t2", "ggasp-r2", "explicit-leaks-a", "explicit-leaks-b", "ggasp-r1"])
def test_share_distributions_leak_exactly_where_security_check_fails(spec, points, secure):
    # the leakage oracle reads the definition: over GF(5) with 1x1 blocks, a
    # T-set learns nothing when its shares are distributed alike for every
    # input. On these plans the certificate's verdict, and its witness,
    # are what the oracle observes
    params = parse_scheme_spec(spec)
    make = ggasp_plan if params.variant == GGASP else mp_plan
    plan = make(params, F5, [F5.element(v) for v in points])
    res = security_check(plan)
    for side, scan in enumerate((res.sigma_a, res.sigma_b)):
        leaks = _leaking_sets(plan, side)
        assert scan.ok == secure[side]
        assert leaks[:1] == ([] if scan.ok else [scan.witness])


def test_hypernode_weights_are_cached_subgroup_averages():
    plan = gf31_plan(1, 8)
    weights = plan.hypernode_weights
    assert plan.hypernode_weights is weights and not weights.flags.writeable
    M = plan.params.M
    want = [plan.zeta.pow_(m) / M for m in range(M)]
    assert np.array_equal(weights, _gauss.as_array([want], plan.ctx)[0])
    flat = dataclasses.replace(plan, zeta=None, base_points=None)
    with pytest.raises(PlanInvalid):
        flat.hypernode_weights


@pytest.mark.parametrize("T, hypernodes, S, routed, want", [
    (0, 6, 5, 90, Fraction(90, 8568)),  # only the 90 patterns keeping 4 hypernodes
    (1, 8, 2, 276, Fraction(1)),        # every pattern leaves the 22 responses needed
])
def test_p_of_s_decodes_each_routed_pattern_with_its_batch_operators(monkeypatch, T, hypernodes,
                                                                     S, routed, want):
    # patterns that decode's count rule rejects never reach decode; the
    # others do, one call each, with the plan and the attempts _prepare
    # listed for the batch, whose operators it built. Each batch reads its
    # hypernode masks once (one _spoiled call, none per pattern) and makes
    # one _set_operators call per route and count of rows lost
    plan = gf31_plan(T, hypernodes)
    A, B = _inputs(plan)
    protocol = sdmm.protocol
    real, real_prepare = protocol.decode, protocol._prepare
    real_spoiled, real_operators = protocol._spoiled, protocol._set_operators
    batches, decoded = [], []

    def counting_prepare(plan, gone):
        batches.append((gone, [], []))
        return real_prepare(plan, gone)

    def counting_spoiled(plan, gone):
        batches[-1][1].append(len(gone))
        return real_spoiled(plan, gone)

    def counting_operators(plan, route, missing):
        batches[-1][2].append(real_operators(plan, route, missing))
        return batches[-1][2][-1]

    def counting_decode(responses, plan, counter=None):
        attempts = responses.attempts
        assert responses.plan is plan and attempts
        built = [U for operators in batches[-1][2] for U in operators]
        assert all(any(T is U for U in built) for _, _, T in attempts)
        decoded.append(responses)
        return real(responses, plan, counter)

    monkeypatch.setattr(sdmm.linalg, "_BATCH", 40)
    for name, spy in [("_prepare", counting_prepare), ("_spoiled", counting_spoiled),
                      ("_set_operators", counting_operators), ("decode", counting_decode)]:
        monkeypatch.setattr(protocol, name, spy)
    assert p_of_s_empirical(A, B, plan, S) == want
    assert len(decoded) == routed
    assert len(batches) == -(-routed // 40)  # the walk holds only routed patterns
    M, P = plan.params.M, plan.n_hypernodes
    for gone, spoiled_calls, built in batches:
        counts = gone.reshape(len(gone), P, M).any(axis=2).sum(axis=1)
        hyper, short = _routes(plan, S, counts)
        assert spoiled_calls == [len(gone)]
        assert len(built) == (not short) + len(set(counts[hyper].tolist()))
    assert 0 < max(sum(map(len, built)) for _, _, built in batches) <= 2 * 40
    # decode on a plain dict prepares the operators of its one pattern
    responses = _responses(plan, A, B, random.Random(1))
    survivors = {n: v for n, v in responses.items() if n >= S}
    assert assemble_product(real(survivors, plan), plan.params, F31) == A.matmul(B)



def test_a_walk_run_inside_a_walk_leaves_the_outer_operators_alone(monkeypatch):
    # the operators of a batch travel with its responses: a p(3) walk run
    # from inside a p(2) walk on the same plan takes none of them away, so
    # the outer walk builds no operator one set at a time afterwards
    plan = gf31_plan(0, 6)
    A, B = _inputs(plan)
    want2, want3 = p_of_s_empirical(A, B, plan, 2), p_of_s_empirical(A, B, plan, 3)
    real_decode, real_operators = sdmm.protocol.decode, sdmm.protocol._set_operators
    started, inner, single = [], [], []

    def nesting_decode(responses, plan, counter=None):
        if not started:
            started.append(True)
            inner.append(p_of_s_empirical(A, B, plan, 3))
        return real_decode(responses, plan, counter)

    def counting_operators(plan, route, missing):
        if inner and len(missing) == 1:
            single.append(route)
        return real_operators(plan, route, missing)

    monkeypatch.setattr(sdmm.protocol, "decode", nesting_decode)
    monkeypatch.setattr(sdmm.protocol, "_set_operators", counting_operators)
    assert p_of_s_empirical(A, B, plan, 2) == want2
    assert inner == [want3] and single == []


def test_walk_operators_serve_only_the_plan_they_were_built_on(monkeypatch):
    # responses the walk built on one plan, decoded with another plan of
    # the same field and N (the hypernodes in reverse order), decode as the
    # plain dict of their blocks does: with the other plan's own operators
    plan = gf31_plan(0, 6)
    other = mp_plan(plan.params, plan.ctx, plan.base_points[::-1], plan.zeta)
    A, B = _inputs(plan)
    real, walked = sdmm.protocol.decode, []

    def recording_decode(responses, plan, counter=None):
        walked.append(responses)
        return real(responses, plan, counter)

    monkeypatch.setattr(sdmm.protocol, "decode", recording_decode)
    p_of_s_empirical(A, B, plan, 3)
    assert len(walked) == 816 and all(r.plan is plan for r in walked)

    def outcome(responses):
        try:
            return real(responses, other)
        except (InsufficientResponses, SingularSystem, InconsistentResponses) as exc:
            return type(exc)

    kinds = set()
    for responses in walked[::8]:
        got = outcome(responses)
        assert got == outcome(dict(responses)), list(responses)
        kinds.add(got if isinstance(got, type) else dict)
    assert kinds == {dict, InconsistentResponses}

def test_p_of_s_audits_every_decode(monkeypatch):
    # a decoder that returns one wrong block, a block of the wrong shape or a
    # dict without a block must not pass as a pattern that merely failed to
    # decode, wherever the pattern falls in a walk of several batches
    # (linalg._BATCH) and chunks (protocol._CHUNK), nor in run_protocol's
    # chunk of one
    plan = gf31_plan(1, 8)
    A, B = _inputs(plan)
    assert p_of_s_empirical(A, B, plan, 0) == 1
    real, audited = sdmm.protocol.decode, sdmm.protocol._audited
    chunks = []

    def counting_audited(chunk, plan, expected):
        chunk = list(chunk)
        chunks.append(len(chunk))
        return audited(chunk, plan, expected)

    monkeypatch.setattr(sdmm.linalg, "_BATCH", 40)
    monkeypatch.setattr(sdmm.protocol, "_CHUNK", 150)  # 6 patterns of 22 1x1 products
    monkeypatch.setattr(sdmm.protocol, "_audited", counting_audited)
    assert p_of_s_empirical(A, B, plan, 2) == 1
    assert chunks == ([6] * 6 + [4]) * 6 + [6] * 6  # 276 patterns, 7 batches, 48 chunks

    def faulty(at, edit):
        calls = []

        def decode(responses, plan, counter=None):
            blocks = real(responses, plan, counter)
            calls.append(1)
            return edit(dict(blocks)) if len(calls) == at + 1 else blocks
        return decode

    def wrong(blocks):
        return {**blocks, (0, 0): blocks[(0, 0)] + BlockMatrix([[1]], F31)}

    def wider(blocks):
        return {**blocks, (0, 0): BlockMatrix([[blocks[(0, 0)][0, 0], 0]], F31)}

    def lacking(blocks):
        return {kl: block for kl, block in blocks.items() if kl != (0, 0)}

    for at, edit in [(0, wrong), (137, wrong), (275, wrong), (137, wider), (275, lacking)]:
        monkeypatch.setattr(sdmm.protocol, "decode", faulty(at, edit))
        with pytest.raises(DecodeFailed):
            p_of_s_empirical(A, B, plan, 2)
    for edit in (wrong, wider, lacking):
        monkeypatch.setattr(sdmm.protocol, "decode", faulty(0, edit))
        with pytest.raises(DecodeFailed):
            run_protocol(A, B, plan, stragglers="1")


def test_p_of_s_peak_memory_does_not_grow_with_the_batch(monkeypatch):
    # survivor stacks are gathered and decoded protocol._CHUNK residues at a
    # time, so a batch of 4,096 patterns holds no more than one of 40: with
    # 48 x 48 product blocks the 276 patterns of S = 2 would gather 112 MB
    plan = gf31_plan(1, 8)
    A, B = _inputs(plan, scale=48)
    peaks = []
    for batch in (40, 4096):
        monkeypatch.setattr(sdmm.linalg, "_BATCH", batch)
        tracemalloc.start()
        try:
            assert p_of_s_empirical(A, B, plan, 2) == 1
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]


def test_assemble_product_block_layout():
    params = SchemeParams.mp(2, 3, 2, 0)
    blocks = {(k, l): BlockMatrix([[10 * k + l]], F31)
              for k in range(2) for l in range(2)}
    got = assemble_product(blocks, params, F31)
    assert got == BlockMatrix([[0, 1], [10, 11]], F31)


def test_string_straggler_spec_reaches_the_run():
    plan = gf31_plan(1, 8)
    A, B = _inputs(plan)
    rep = run_protocol(A, B, plan, stragglers="3,5", seed=4)
    assert rep.straggler_set == (3, 5)
    assert rep.responses_used == 22
    assert rep.decode_success


def test_random_stragglers_are_seed_deterministic():
    plan = gf31_plan(1, 8)
    A, B = _inputs(plan)
    rep1 = run_protocol(A, B, plan, stragglers="random:3", seed=9)
    rep2 = run_protocol(A, B, plan, stragglers="random:3", seed=9)
    assert rep1.straggler_set == rep2.straggler_set
    assert len(rep1.straggler_set) == 3
    assert rep1.to_json() == rep2.to_json()


def test_report_serialization_hides_timing_unless_asked():
    plan = gf31_plan(0, 6)
    A, B = _inputs(plan)
    rep = run_protocol(A, B, plan, seed=5)
    assert set(rep.mult_counts) == {"encode", "worker", "decode"}
    assert isinstance(rep.wall_time, float) and rep.wall_time >= 0.0
    bare = json.loads(rep.to_json())
    assert "wall_time" not in bare
    timed = json.loads(rep.to_json(include_timing=True))
    assert isinstance(timed["wall_time"], float)
    assert bare == {k: v for k, v in timed.items() if k != "wall_time"}
    # to_dict holds lists, not tuples, and puts wall_time last when asked
    for timing in (False, True):
        d = rep.to_dict(include_timing=timing)
        assert d == json.loads(json.dumps(d))
    assert list(rep.to_dict(include_timing=True))[-1] == "wall_time"


def test_flat_layout_protocol_round_trip():
    params = SchemeParams.ggasp(2, 3, 2, 1)
    plan = find_evaluation_vector(params, make_field(101), n_workers=22, seed=1)
    A, B = _inputs(plan)
    ok = run_protocol(A, B, plan, seed=6)
    assert ok.decode_success and ok.responses_used == 22
    short = run_protocol(A, B, plan, stragglers=[4], seed=6)
    assert not short.decode_success and short.responses_used == 21


# -- a property oracle over random plans -----------------------------------------------


ORACLE_FIELDS = (make_field(13), make_field((1 << 31) - 1), make_field((1 << 61) - 1),
                 make_field(7, 2))


def _oracle_plan(rng, ctx):
    """A small random mp, ggasp or explicit scheme, T = 0 included, on a hypernode or flat plan."""
    K, M, L, T = rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 2), rng.randint(0, 2)
    variant = rng.choice(["mp", "ggasp", "explicit"])
    if variant == "mp":
        params = SchemeParams.mp(K, M, L, T, D=rng.choice([d for d in range(1, M + 1)
                                                            if math.gcd(d, M) == 1]))
    elif variant == "ggasp":
        params = SchemeParams.ggasp(K, M, L, T, r=rng.randint(1, min(K * M, T)) if T else 0)
    else:
        params = SchemeParams.explicit(K, M, L, T, *(sorted(rng.sample(range(6), T))
                                                      for _ in "ab"))
    points = [ctx.from_index(i) for i in rng.sample(range(1, ctx.order), min(ctx.order - 1, 40))]
    # about as many workers, or hypernodes, as each route needs
    if rng.random() < 0.5:
        n = len(symbolic_support(params))
        return ggasp_plan(params, ctx, points[:rng.randint(max(1, n - 2), n + 3)])
    n = len(product_class_support(params))
    base, powers, P = [], set(), rng.randint(max(1, n - 1), n + 3)
    for x in points:  # base points with pairwise distinct M-th powers
        if len(base) < P and x.pow_(M).index() not in powers:
            base.append(x)
            powers.add(x.pow_(M).index())
    return mp_plan(params, ctx, base)


def _predicted(plan, kept):
    """decode's outcome on the survivors kept, from the count rule and the ranks of table rows."""
    P, ctx = plan.n_hypernodes, plan.ctx
    complete = [p for p in range(P) if set(plan.hypernode_workers(p)) <= set(kept)]
    hyper, short = _routes(plan, plan.n_workers - len(kept), P - len(complete))
    if hyper and _gauss.rank(plan.base_table[complete], ctx) == len(plan.class_support):
        return "decoded", ["hypernode"]
    if short:
        return InsufficientResponses, []
    if _gauss.rank(plan.worker_table[kept], ctx) < len(plan.full_support):
        return SingularSystem, []
    return "decoded", ["full"]


@given(st.integers(0, 2**32), st.sampled_from(range(len(ORACLE_FIELDS))))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_decode_is_exact_routed_by_rank_and_monotone_on_random_plans(seed, fid):
    # on honest responses decode returns exactly A @ B or raises
    # InsufficientResponses or SingularSystem; the route it solves is the one
    # _routes and the ranks of its table's surviving rows give; and every
    # survivor superset of a set that decodes decodes too
    ctx = ORACLE_FIELDS[fid]
    rng = random.Random(seed)
    plan = _oracle_plan(rng, ctx)
    params, N = plan.params, plan.n_workers
    a, s, b = (rng.randint(1, 2) for _ in range(3))
    A = BlockMatrix.random(params.K * a, params.M * s, ctx, rng)
    B = BlockMatrix.random(params.M * s, params.L * b, ctx, rng)
    shares = encode(A, B, plan, rng)
    taken = []
    real = sdmm.protocol.interpolate

    def spy(points, values, exponents, *args, **kwargs):
        taken.append("hypernode" if exponents is plan.class_support else "full")
        return real(points, values, exponents, *args, **kwargs)

    def outcome(kept):
        taken.clear()
        responses = worker_products(shares, kept, plan)
        try:
            blocks = decode(responses if rng.random() < 0.5 else dict(responses), plan)
        except (InsufficientResponses, SingularSystem) as exc:
            return type(exc), taken[:]
        assert assemble_product(blocks, params, ctx) == A.matmul(B), kept
        return "decoded", taken[:]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdmm.protocol, "interpolate", spy)
        for _ in range(4):  # mostly near the full route's N'
            least = 0 if rng.random() < 0.3 else max(0, min(N, len(plan.full_support)) - 3)
            kept = sorted(rng.sample(range(N), rng.randint(least, N)))
            got = outcome(kept)
            assert got == _predicted(plan, kept), kept
            if got[0] == "decoded":
                more = sorted(set(kept) | set(rng.sample(range(N), rng.randint(0, N))))
                assert outcome(more)[0] == "decoded", (kept, more)


@given(st.integers(0, 2**32), st.sampled_from(range(len(ORACLE_FIELDS))))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_one_corrupted_response_raises_iff_an_applied_spare_row_reads_it(seed, fid):
    # a nonzero bump of one entry of one survivor's response makes decode
    # raise InconsistentResponses exactly when a spare row of an attempt it
    # applies (one with an operator) is nonzero at that response: for a base
    # attempt at the column of the worker's hypernode, when it is complete
    # (the average scales the bump by a nonzero weight); for a worker or
    # check attempt at the worker's own column among the survivors
    ctx = ORACLE_FIELDS[fid]
    rng = random.Random(seed)
    plan = _oracle_plan(rng, ctx)
    params, N, M = plan.params, plan.n_workers, plan.params.M
    KL = params.K * params.L
    a, s, b = (rng.randint(1, 2) for _ in range(3))
    A = BlockMatrix.random(params.K * a, params.M * s, ctx, rng)
    B = BlockMatrix.random(params.M * s, params.L * b, ctx, rng)
    shares = encode(A, B, plan, rng)
    for _ in range(4):  # mostly near the full route's N'
        least = 1 if rng.random() < 0.3 else max(1, min(N, len(plan.full_support)) - 3)
        kept = sorted(rng.sample(range(N), rng.randint(least, N)))
        gone = ~np.isin(np.arange(N), kept)
        i = rng.randrange(len(kept))
        bad = kept[i]
        read = False
        for route, rows, T in sdmm.protocol._prepare(plan, gone[None])[0]:
            if T is not None and route == "base" and rows[bad // M]:
                read |= T[KL:, np.count_nonzero(rows[:bad // M])].any()
            elif T is not None and route != "base":
                read |= T[KL:, i].any()
        stack = worker_products(shares, kept, plan).stack.copy()
        spot = (i, rng.randrange(stack.shape[1]), rng.randrange(stack.shape[2]))
        bump = [rng.randrange(ctx.p) for _ in range(ctx.r)]
        bump[rng.randrange(ctx.r)] = rng.randrange(1, ctx.p)
        stack[spot] = (stack[spot] + bump) % ctx.p
        responses = sdmm.protocol.Responses(plan, np.array(kept, dtype=np.intp), stack)
        try:
            decode(responses, plan)
        except InconsistentResponses:
            raised = True
        except (InsufficientResponses, SingularSystem):
            raised = False
        else:
            raised = False
        assert raised == read, (kept, bad)


def test_unprotected_survivors_of_the_gf61_full_route_are_pinned():
    # every S-straggler pattern of the GF(61) deployment whose worker or
    # check attempt has an operator: the patterns whose spare rows T[K*L:]
    # are zero in some survivor's column (a corruption there goes unseen),
    # and those (pattern, survivor) pairs, of the patterns counted
    plan = gf61_plan()
    N, KL = plan.n_workers, plan.params.K * plan.params.L
    want = {1: (0, 0, 30), 2: (0, 0, 435), 3: (56, 96, 4060), 4: (9501, 11526, 27381)}
    got = {}
    for S in want:
        patterns = pairs = full = 0
        for down in _batches(_subsets(N, S)[0]):
            gone = np.zeros((len(down), N), dtype=bool)
            np.put_along_axis(gone, down, True, axis=1)
            for attempts in sdmm.protocol._prepare(plan, gone):
                for route, rows, T in attempts:
                    if route != "base" and T is not None:
                        zero = np.count_nonzero(~T[KL:].any(axis=(0, 2)))
                        full, patterns, pairs = full + 1, patterns + (zero > 0), pairs + zero
        got[S] = (patterns, pairs, full)
    assert got == want


# -- share randomization smoke test ----------------------------------------------------


def test_single_share_distribution_is_uniform():
    # T=1 with unit blocks: the share is one masked field element, and over
    # many trials its value should be indistinguishable from uniform.
    # Chi-square with 12 degrees of freedom at significance 1e-3.
    params = SchemeParams.mp(1, 1, 1, 1)
    point = F13.element(6)
    rng = random.Random("share-smoke")
    trials = 2600
    counts = [0] * 13
    for _ in range(trials):
        A = BlockMatrix.random(1, 1, F13, rng)
        B = BlockMatrix.random(1, 1, F13, rng)
        f = build_f(params, partition(A, B, 1, 1, 1)[0], rng, F13)
        share = f.eval_sparse_horner(point)
        counts[share[0, 0].index()] += 1
    expected = trials / 13
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 32.909


# -- straggler-robustness estimates ----------------------------------------------------


def test_straggler_bound_reference_values():
    for s in range(5):
        assert p_of_s_lower_bound(2, 3, 2, 6, s) == 1
    p5 = p_of_s_lower_bound(2, 3, 2, 6, 5)
    p6 = p_of_s_lower_bound(2, 3, 2, 6, 6)
    assert p5 == Fraction(90, 8568) == Fraction(5, 476)
    assert p6 == Fraction(15, 18564)
    with pytest.raises(OutOfRange):
        p_of_s_lower_bound(2, 3, 2, 6, 7)
    with pytest.raises(BadSpec):
        p_of_s_lower_bound(2, 3, 2, 3, 1)  # 3 hypernodes < K*L
    with pytest.raises(BadSpec):
        p_of_s_lower_bound(2, 3, 2, 6, -1)


def _tiny_hyper_plan(K, M, L, T, n_hypernodes, base_values):
    params = SchemeParams.mp(K, M, L, T)
    base = [F13.element(v) for v in base_values]
    return mp_plan(params, F13, base)


@pytest.mark.parametrize("K,M,L,P,base,S", [
    (1, 2, 1, 2, (1, 2), 2),
    (1, 2, 1, 3, (1, 2, 3), 4),
    (2, 2, 1, 3, (1, 2, 3), 2),
])
def test_noise_free_bound_is_exact_in_the_tail_window(K, M, L, P, base, S):
    # without noise the averaged route is the only constraint, so the
    # counting bound matches the exhaustive decode fraction exactly
    plan = _tiny_hyper_plan(K, M, L, 0, P, base)
    A, B = _inputs(plan, seed=S)
    want = p_of_s_lower_bound(K, M, L, P, S)
    got = p_of_s_empirical(A, B, plan, S, mode="exhaustive")
    assert got == want
    assert 0 < want < 1


def test_monte_carlo_decode_fraction_is_seeded():
    plan = gf31_plan(0, 6)
    A, B = _inputs(plan)
    a = p_of_s_empirical(A, B, plan, 5, mode="mc", samples=300, seed=3)
    b = p_of_s_empirical(A, B, plan, 5, mode="mc", samples=300, seed=3)
    # 8 of the 300 seeded draws keep 4 complete hypernodes
    assert a == b == Fraction(2, 75)


def test_decode_fraction_is_zero_past_the_information_limit():
    plan = _tiny_hyper_plan(1, 2, 1, 0, 2, (1, 2))
    A, B = _inputs(plan)
    assert p_of_s_empirical(A, B, plan, 3, mode="exhaustive") == 0


def test_empirical_mode_validation():
    plan = _tiny_hyper_plan(1, 2, 1, 0, 2, (1, 2))
    A, B = _inputs(plan)
    with pytest.raises(BadSpec):
        p_of_s_empirical(A, B, plan, 1, mode="sideways")
    with pytest.raises(BadSpec):
        p_of_s_empirical(A, B, plan, 5, mode="exhaustive")  # S > n_workers


def test_decode_fraction_is_exhaustive_by_default():
    # a sampled estimate is returned only when asked for by name
    plan = _tiny_hyper_plan(1, 2, 1, 0, 2, (1, 2))
    A, B = _inputs(plan)
    assert p_of_s_empirical(A, B, plan, 2) == p_of_s_empirical(A, B, plan, 2, mode="exhaustive")
    with pytest.raises(BadSpec):
        p_of_s_empirical(A, B, plan, 2, mode="auto")


def _routed_masks(plan):
    """Every straggler pattern with a route, by brute force: the N-bit masks _routes accepts.

    The pattern counts and spoiled hypernodes of all 2^N masks are built one
    hypernode (M bits) at a time, so mask j << (q * M) | i extends mask i.
    """
    M = plan.params.M
    sub = np.arange(1 << M)
    sub_size = np.array([bin(j).count("1") for j in sub], dtype=np.int8)
    size = spoiled = np.zeros(1, dtype=np.int8)
    for _ in range(plan.n_hypernodes):
        size = np.add.outer(sub_size, size).ravel()
        spoiled = np.add.outer((sub > 0).astype(np.int8), spoiled).ravel()
    hyper, short = _routes(plan, size, spoiled)
    return np.flatnonzero(hyper | ~short).tolist()


@pytest.mark.parametrize("T, hypernodes", [(0, 6), (1, 8)])
def test_exhaustive_walk_yields_exactly_the_patterns_with_a_route(monkeypatch, T, hypernodes):
    # at every S the patterns p_of_s_empirical hands to _prepare are, as a
    # multiset, those of all C(N, S) that decode's count rule accepts; so
    # none of them is refused and decode never sees a pattern without a route
    plan = gf31_plan(T, hypernodes)
    A, B = _inputs(plan)
    real, walked = sdmm.protocol._prepare, []

    def recording_prepare(plan, gone):
        attempts = real(plan, gone)
        assert all(attempts)
        walked.extend((gone @ (1 << np.arange(plan.n_workers))).tolist())
        return attempts

    monkeypatch.setattr(sdmm.protocol, "_prepare", recording_prepare)
    for S in range(plan.n_workers + 1):
        p_of_s_empirical(A, B, plan, S)
    assert sorted(walked) == _routed_masks(plan)


def _random_mp_plan(params, hypernodes, seed):
    """mp_plan on random base points of GF(13) with distinct M-th powers (not searched)."""
    rng = random.Random(f"random-plan-{seed}")
    classes = {}
    for v in rng.sample(range(1, 13), 12):
        classes.setdefault(pow(v, params.M, 13), v)
    return mp_plan(params, F13, [F13.element(v) for v in list(classes.values())[:hypernodes]])


@pytest.mark.parametrize("make_plan", [
    lambda: _random_mp_plan(SchemeParams.mp(2, 3, 1, 0), 4, 1),
    lambda: _random_mp_plan(SchemeParams.mp(1, 3, 1, 2, 2), 4, 0),
    lambda: ggasp_plan(SchemeParams.ggasp(1, 2, 1, 1), F13,
                       [F13.element(v) for v in (1, 3, 4, 6, 7, 9, 10, 12)]),
], ids=["mp-t0", "mp-t2", "flat"])
def test_exhaustive_fraction_equals_decoding_every_pattern(make_plan):
    # the oracle calls decode on all C(N, S) patterns, routed or not, and
    # audits each product; p_of_s_empirical must count the same successes.
    # (p(5) = 1/22 and p(6) = 1/154 on the T = 0 plan, by the hypernode
    # route alone; on the T = 2 plan 6 of the 66 two-straggler patterns are
    # singular, and p(3) = 1/55)
    plan = make_plan()
    N = plan.n_workers
    A, B = _inputs(plan)
    shares = encode(A, B, plan, random.Random("oracle"))
    for S in range(N + 1):
        decoded = 0
        for down in itertools.combinations(range(N), S):
            try:
                blocks = decode(worker_products(shares, set(range(N)) - set(down), plan), plan)
            except (InsufficientResponses, SingularSystem):
                continue
            assert assemble_product(blocks, plan.params, plan.ctx) == A.matmul(B)
            decoded += 1
        assert p_of_s_empirical(A, B, plan, S) == Fraction(decoded, math.comb(N, S)), S


def test_gf61_deployment_decodes_44_of_593775_six_straggler_patterns(monkeypatch):
    # only the 45 patterns spoiling two whole hypernodes keep the P' = 8
    # complete hypernodes that 24 responses need; one of them is singular
    plan = gf61_plan()
    A, B = _inputs(plan)
    real, calls = sdmm.protocol.decode, []

    def counting_decode(responses, plan, counter=None):
        calls.append(len(responses))
        return real(responses, plan, counter)

    monkeypatch.setattr(sdmm.protocol, "decode", counting_decode)
    assert p_of_s_empirical(A, B, plan, 6) == Fraction(44, 593775)
    assert calls == [24] * 45


# -- recovery threshold of deployed plans ----------------------------------------------


def test_recovery_report_certifies_gapless_support_in_closed_form():
    params = SchemeParams.mp(1, 2, 1, 2)
    plan = mp_plan(params, F13, [F13.element(v) for v in (1, 2, 3, 4)])
    rep = mp_recovery_threshold_with_security(None, plan)
    assert rep.gapless
    assert rep.mode == "closed-form"
    assert rep.n_prime == 7
    assert rep.p_prime == 3
    assert rep.upper_bound == 7  # 8 workers - (4 - 3) spare hypernodes
    assert rep.threshold == 7
    assert rep.certified
    assert rep.witness is None
    assert "minor_scan" not in rep.to_dict()


def test_recovery_report_certifies_gapped_support_by_exhaustive_scan():
    plan = gf31_plan(1, 8)
    rep = mp_recovery_threshold_with_security(None, plan, mode="exhaustive")
    assert not rep.gapless
    assert rep.mode == "exhaustive"
    assert rep.n_prime == 22
    assert rep.upper_bound == 23
    assert rep.threshold == 22
    assert rep.certified
    assert rep.witness.ok
    assert rep.witness.checked == rep.witness.total == math.comb(24, 22)


def test_recovery_report_falls_back_when_a_singular_minor_appears():
    # a deployment whose full evaluation code is not MDS: the scan finds a
    # singular survivor set and the certified answer drops to the per-worker
    # hypernode bound
    plan = gf61_plan()
    rep = mp_recovery_threshold_with_security(None, plan, mode="random",
                                              samples=4000, seed=0)
    assert not rep.gapless
    assert rep.n_prime == 25
    assert rep.upper_bound == 28  # 30 workers - (10 - 8) spare hypernodes
    assert not rep.witness.ok
    assert rep.threshold == 28
    assert rep.certified

    rows = rep.witness.witness
    assert len(rows) == 25
    assert not is_mds(plan.worker_table[list(rows)], F61).ok


def test_recovery_report_checks_the_hypernode_premise():
    # mp_plan does not certify its base points, and these are not MDS on
    # the filtered support: hypernodes {0,1,2,4,5,6,7,9} give a filtered
    # system of rank 7. The nine 28-survivor sets that spoil hypernodes 3
    # and 8 keep exactly those complete, so they can decode only by full
    # interpolation. All nine do, so the hypernode bound of 28 holds.
    plan = gf61_plan()
    params = plan.params
    ranks = {rows: _gauss.rank(plan.base_table[list(rows)], F61)
             for rows in itertools.combinations(range(10), 8)}
    assert {rows: r for rows, r in ranks.items() if r < 8} == {
        (0, 1, 2, 4, 5, 6, 7, 9): 7}

    A, B = _inputs(plan)
    responses = _responses(plan, A, B, random.Random("premise"))
    downs = list(itertools.product(plan.hypernode_workers(3),
                                   plan.hypernode_workers(8)))
    assert len(downs) == 9
    for down in downs:
        keep = [n for n in range(30) if n not in down]
        assert _gauss.rank(plan.worker_table[keep], F61) == 25
        blocks = decode({n: responses[n] for n in keep}, plan)
        assert assemble_product(blocks, params, F61) == A.matmul(B)

    rep = mp_recovery_threshold_with_security(None, plan)
    assert rep.threshold == rep.upper_bound == 28
    assert rep.certified


def test_recovery_report_refuses_a_hypernode_bound_that_fails():
    # deploying only the rank-deficient hypernodes: all 24 responses keep 8
    # complete hypernodes whose filtered system is singular, and 24 are too
    # few to interpolate the 25-term product, so nothing decodes
    plan = gf61_plan((0, 1, 2, 4, 7, 8, 9, 13))
    rep = mp_recovery_threshold_with_security(None, plan)
    assert rep.mode == "hypernode"
    assert rep.witness is None
    assert rep.threshold == rep.upper_bound == 24
    assert not rep.certified
    A, B = _inputs(plan)
    assert p_of_s_empirical(A, B, plan, 0) == 0


@pytest.mark.parametrize("make_plan, digest", [
    (gf61_plan, "d4a8f48cd989c4ca65ad72f116f0caea9e2db7b15ccbf831281eb8194949d6f6"),
    (lambda: gf61_plan((0, 1, 2, 4, 7, 8, 9, 13)),
     "643671e106ca9e63f9f43e8bda9d70c817a482b97f64b4d83ec434216e8a0e0a"),
], ids=["gf61-minor-scan", "gf61-deficient-hypernode"])
def test_recovery_report_dict_is_frozen(make_plan, digest):
    # the deployment's report carries its minor scan as minor_scan; the
    # deficient one (mode hypernode) scans nothing and has no such key.
    # to_dict holds lists, not tuples, so it equals its own JSON round trip
    d = mp_recovery_threshold_with_security(None, make_plan()).to_dict()
    text = json.dumps(d, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert d == json.loads(text)


def test_recovery_report_certifies_a_minimal_searched_deployment():
    # P' hypernodes from the search, so fewer workers than the 25-term
    # product support: only the hypernode route exists, and the search's
    # MDS certificate makes its bound hold
    plan = find_evaluation_vector(SchemeParams.mp(2, 3, 2, 2), F61, seed=0)
    assert plan.n_hypernodes == 8
    rep = mp_recovery_threshold_with_security(None, plan)
    assert rep.mode == "hypernode"
    assert rep.threshold == rep.upper_bound == 24
    assert rep.certified
    A, B = _inputs(plan)
    assert p_of_s_empirical(A, B, plan, 0) == 1
    # the check needs one base-point minor; with no budget the bound stands
    # unchecked
    assert not mp_recovery_threshold_with_security(None, plan, budget=0).certified


@pytest.mark.parametrize("plan", [
    gf61_plan(), gf61_plan((0, 1, 2, 4, 7, 8, 9, 13)), gf31_plan(0, 6), gf31_plan(1, 8)],
    ids=["gf61", "gf61-deficient", "gf31-t0", "gf31-t1"])
def test_hypernode_bound_check_agrees_with_exhaustive_decoding(plan):
    # the bound's survivor sets are those missing P_deployed - P' workers
    spare = plan.n_hypernodes - len(plan.class_support)
    A, B = _inputs(plan)
    want = p_of_s_empirical(A, B, plan, spare, mode="exhaustive") == 1
    assert _hypernode_bound_holds(plan, 10**7) == want


def test_class_columns_of_worker_table_are_zeta_scaled_base_rows():
    # worker p*M + m evaluates at zeta^m * a_p, so at an exponent e = M - 1
    # mod M its entry is zeta^(m e) a_p^e = zeta^-m a_p^e: worker_table's
    # class-support columns are base_table's rows, scaled. A kernel vector of
    # all of base_table is then one of worker_table, so every survivor set
    # fails the hypernode bound's first level, and the report is uncertified.
    # The last spec's class support (1, 5, 9, 13) is deficient on every base
    # of GF(13), where a_p^12 = 1 makes its first and last columns equal
    rng = random.Random("class-columns")
    specs = ("mp:K=1,M=2,L=1,T=1", "mp:K=2,M=3,L=2,T=2",
             "explicit:K=1,M=2,L=1,T=1,alpha=3,beta=5",
             "explicit:K=1,M=2,L=1,T=1,alpha=7,beta=2")
    deficient = 0
    for spec, ctx in itertools.product(specs, (F13, F31, make_field(31, 2))):
        params = parse_scheme_spec(spec)
        M, P = params.M, len(product_class_support(params))
        pool = {}  # one base point per M-th power, as mp_plan requires
        for idx in range(1, ctx.order):
            pool.setdefault(ctx.from_index(idx).pow_(M), ctx.from_index(idx))
        for _ in range(8):
            size = min(P + rng.randrange(2), len(pool))
            if size < P:
                continue
            plan = mp_plan(params, ctx, rng.sample(list(pool.values()), size))
            cols = [e for e in plan.full_support if e % M == M - 1]
            assert plan.class_support == tuple(cols)
            scale = _gauss.as_array([[plan.zeta.pow_(-m) for m in range(M)]], ctx)[0]
            want = _gauss.mul(scale[:, None], plan.base_table[:, None], ctx)
            got = plan.worker_table[:, [plan.full_support.index(e) for e in cols]]
            assert np.array_equal(got, want.reshape(got.shape))
            if _gauss.rank(plan.base_table, ctx) < P:
                deficient += 1
                assert _gauss.rank(plan.worker_table, ctx) < len(plan.full_support)
                rep = mp_recovery_threshold_with_security(None, plan)
                assert rep.threshold == rep.upper_bound and not rep.certified
    assert deficient  # the seeded draws reach the deficient case


def test_recovery_report_validates_its_inputs():
    params = SchemeParams.ggasp(2, 3, 2, 1)
    flat = find_evaluation_vector(params, make_field(101), n_workers=22, seed=1)
    with pytest.raises(PlanInvalid):
        mp_recovery_threshold_with_security(None, flat)

    hyper = gf31_plan(1, 8)
    with pytest.raises(BadSpec):
        mp_recovery_threshold_with_security(SchemeParams.mp(2, 3, 2, 2), hyper)
    with pytest.raises(BadSpec):
        mp_recovery_threshold_with_security(None, hyper, mode="sideways")

    starved = gf61_plan((0, 1, 2, 3, 4, 7, 8))
    with pytest.raises(PlanInvalid):
        mp_recovery_threshold_with_security(None, starved)
