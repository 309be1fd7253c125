"""End-to-end protocol runs, decoding routes, and straggler-robustness estimates."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from sdmm.errors import (
    BadSpec,
    InconsistentResponses,
    InsufficientResponses,
    OutOfRange,
    PlanInvalid,
)
from sdmm.fields import MultCounter, make_field
from sdmm.linalg import find_evaluation_vector, gv_matrix, is_mds, mp_plan
from sdmm.matpoly import BlockMatrix
from sdmm.protocol import (
    assemble_product,
    decode,
    mp_recovery_threshold_with_security,
    p_of_s_empirical,
    p_of_s_lower_bound,
    resolve_stragglers,
    run_protocol,
)
from sdmm.schemes import SchemeParams, build_f, build_g, partition

F13 = make_field(13)
F31 = make_field(31)
F61 = make_field(61)


def _hyper_plan(T: int, n_hypernodes: int):
    # powers of 15 have pairwise distinct cubes over GF(31); 5 generates
    # the cube roots of unity
    params = SchemeParams.mp(2, 3, 2, T)
    base = [F31.element(pow(15, p, 31)) for p in range(n_hypernodes)]
    return mp_plan(params, F31, base, zeta=F31.element(5))


def _inputs(plan, seed=7, scale=1):
    params = plan.params
    rng = random.Random(f"test-io-{seed}")
    A = BlockMatrix.random(params.K * scale, params.M * scale, plan.ctx, rng)
    B = BlockMatrix.random(params.M * scale, params.L * scale, plan.ctx, rng)
    return A, B


# -- straggler specs -------------------------------------------------------------------


def test_resolve_stragglers_accepts_many_forms():
    rng = random.Random(0)
    assert resolve_stragglers(None, 10, rng) == ()
    assert resolve_stragglers("", 10, rng) == ()
    assert resolve_stragglers("none", 10, rng) == ()
    assert resolve_stragglers("NONE", 10, rng) == ()
    assert resolve_stragglers([3, 1, 3], 10, rng) == (1, 3)
    assert resolve_stragglers("4,2", 10, rng) == (2, 4)
    assert resolve_stragglers("prob:0", 10, rng) == ()
    assert resolve_stragglers("prob:1", 10, rng) == tuple(range(10))

    picked = resolve_stragglers("random:3", 10, rng)
    assert len(picked) == 3
    assert picked == tuple(sorted(set(picked)))
    assert all(0 <= n < 10 for n in picked)


@pytest.mark.parametrize("spec", [
    "random:11", "random:x", "prob:1.5", "prob:x", "wat", [12], [-1], ["x"],
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
    plan = _hyper_plan(T=1, n_hypernodes=8)
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
    plan = _hyper_plan(T=1, n_hypernodes=8)
    A, B = _inputs(plan)
    rep = run_protocol(A, B, plan, stragglers=[0, 1, 2], seed=1)
    assert rep.responses_used == 21
    assert rep.decode_success


def test_decode_falls_back_to_full_interpolation():
    # one worker lost in each of two hypernodes: only 6 complete hypernodes
    # of the 7 the averaged route needs, but all 22 responses interpolate
    # the unfiltered polynomial
    plan = _hyper_plan(T=1, n_hypernodes=8)
    A, B = _inputs(plan)
    rep = run_protocol(A, B, plan, stragglers=[0, 3], seed=2)
    assert rep.responses_used == 22
    assert rep.decode_success


def test_decode_failure_is_reported_not_raised():
    # three broken hypernodes and 21 responses starve both routes
    plan = _hyper_plan(T=1, n_hypernodes=8)
    A, B = _inputs(plan)
    rep = run_protocol(A, B, plan, stragglers=[0, 3, 6], seed=3)
    assert not rep.decode_success
    assert rep.decoded_product_hash is None
    assert rep.responses_used == 21


def test_decode_raises_when_called_directly_with_too_few_responses():
    plan = _hyper_plan(T=1, n_hypernodes=8)
    A, B = _inputs(plan)
    rng = random.Random("enc")
    parts = partition(A, B, 2, 3, 2)
    f = build_f(plan.params, parts, rng, F31)
    g = build_g(plan.params, parts, rng, F31)
    responses = {
        n: f.eval_sparse_horner(x).matmul(g.eval_sparse_horner(x))
        for n, x in enumerate(plan.worker_points)
        if n not in {0, 3, 6}
    }
    with pytest.raises(InsufficientResponses):
        decode(responses, plan)


def test_decode_counter_path_agrees_with_uncounted_path():
    plan = _hyper_plan(T=1, n_hypernodes=8)
    A, B = _inputs(plan, seed=11)
    rng = random.Random("enc2")
    parts = partition(A, B, 2, 3, 2)
    f = build_f(plan.params, parts, rng, F31)
    g = build_g(plan.params, parts, rng, F31)
    responses = {
        n: f.eval_sparse_horner(x).matmul(g.eval_sparse_horner(x))
        for n, x in enumerate(plan.worker_points)
    }
    counter = MultCounter()
    counted = decode(responses, plan, counter)
    plain = decode(responses, plan)
    assert counted == plain
    assert counter.count > 0
    assert assemble_product(plain, plan.params, F31) == A.matmul(B)


def test_decode_raises_on_a_corrupted_response():
    # all 24 responses complete 8 hypernodes where 7 determine the product,
    # so the spare equation exposes one corrupted entry
    plan = _hyper_plan(T=1, n_hypernodes=8)
    rng = random.Random("corrupt")
    A = BlockMatrix.random(4, 3, F31, rng)
    B = BlockMatrix.random(3, 4, F31, rng)
    parts = partition(A, B, 2, 3, 2)
    f = build_f(plan.params, parts, rng, F31)
    g = build_g(plan.params, parts, rng, F31)
    responses = {
        n: f.eval_sparse_horner(x).matmul(g.eval_sparse_horner(x))
        for n, x in enumerate(plan.worker_points)
    }
    assert assemble_product(decode(responses, plan), plan.params, F31) == A.matmul(B)
    responses[4] = responses[4] + BlockMatrix([[1, 0], [0, 0]], F31)
    with pytest.raises(InconsistentResponses):
        decode(responses, plan)


def test_assemble_product_block_layout():
    params = SchemeParams.mp(2, 3, 2, 0)
    blocks = {(k, l): BlockMatrix([[10 * k + l]], F31)
              for k in range(2) for l in range(2)}
    got = assemble_product(blocks, params, F31)
    assert got == BlockMatrix([[0, 1], [10, 11]], F31)


def test_string_straggler_spec_reaches_the_run():
    plan = _hyper_plan(T=1, n_hypernodes=8)
    A, B = _inputs(plan)
    rep = run_protocol(A, B, plan, stragglers="3,5", seed=4)
    assert rep.straggler_set == (3, 5)
    assert rep.responses_used == 22
    assert rep.decode_success


def test_random_stragglers_are_seed_deterministic():
    plan = _hyper_plan(T=1, n_hypernodes=8)
    A, B = _inputs(plan)
    rep1 = run_protocol(A, B, plan, stragglers="random:3", seed=9)
    rep2 = run_protocol(A, B, plan, stragglers="random:3", seed=9)
    assert rep1.straggler_set == rep2.straggler_set
    assert len(rep1.straggler_set) == 3
    assert rep1.to_json() == rep2.to_json()


def test_report_serialization_hides_timing_unless_asked():
    plan = _hyper_plan(T=0, n_hypernodes=6)
    A, B = _inputs(plan)
    rep = run_protocol(A, B, plan, seed=5, compute_counts=False)
    assert rep.mult_counts is None
    assert isinstance(rep.wall_time, float) and rep.wall_time >= 0.0
    bare = json.loads(rep.to_json())
    assert "wall_time" not in bare
    timed = json.loads(rep.to_json(include_timing=True))
    assert isinstance(timed["wall_time"], float)
    assert bare == {k: v for k, v in timed.items() if k != "wall_time"}


def test_flat_layout_protocol_round_trip():
    params = SchemeParams.ggasp(2, 3, 2, 1)
    plan = find_evaluation_vector(params, make_field(101), n_workers=22, seed=1)
    A, B = _inputs(plan)
    ok = run_protocol(A, B, plan, seed=6)
    assert ok.decode_success and ok.responses_used == 22
    short = run_protocol(A, B, plan, stragglers=[4], seed=6)
    assert not short.decode_success and short.responses_used == 21


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
        parts = partition(A, B, 1, 1, 1)
        f = build_f(params, parts, rng, F13)
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
    assert round(float(p5), 4) == 0.0105
    assert round(float(p6), 4) == 0.0008
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


def test_exhaustive_decode_fraction_matches_bound_on_six_hypernodes():
    plan = _hyper_plan(T=0, n_hypernodes=6)
    A, B = _inputs(plan)
    assert p_of_s_empirical(A, B, plan, 4, mode="exhaustive") == 1
    assert p_of_s_empirical(A, B, plan, 5, mode="exhaustive") == Fraction(5, 476)


def test_monte_carlo_decode_fraction_is_seeded():
    plan = _hyper_plan(T=0, n_hypernodes=6)
    A, B = _inputs(plan)
    a = p_of_s_empirical(A, B, plan, 5, mode="mc", samples=300, seed=3)
    b = p_of_s_empirical(A, B, plan, 5, mode="mc", samples=300, seed=3)
    assert a == b
    assert 0 <= a <= 1


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
    plan = _hyper_plan(T=1, n_hypernodes=8)
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
    # singular column set and the certified answer drops to the per-worker
    # hypernode bound
    params = SchemeParams.mp(2, 3, 2, 2)
    base = [F61.element(pow(8, e, 61)) for e in (0, 1, 2, 3, 4, 7, 8, 9, 12, 13)]
    plan = mp_plan(params, F61, base, zeta=F61.element(47))
    rep = mp_recovery_threshold_with_security(None, plan, mode="random",
                                              samples=4000, seed=0)
    assert not rep.gapless
    assert rep.n_prime == 25
    assert rep.upper_bound == 28  # 30 workers - (10 - 8) spare hypernodes
    assert not rep.witness.ok
    assert rep.threshold == 28
    assert rep.certified

    cols = rep.witness.witness
    assert len(cols) == 25
    from sdmm.thresholds import symbolic_support
    supp = symbolic_support(params)
    minor = gv_matrix([plan.worker_points[n] for n in cols], supp, F61)
    assert not is_mds(minor, mode="exhaustive").ok


def test_recovery_report_validates_its_inputs():
    params = SchemeParams.ggasp(2, 3, 2, 1)
    flat = find_evaluation_vector(params, make_field(101), n_workers=22, seed=1)
    with pytest.raises(PlanInvalid):
        mp_recovery_threshold_with_security(None, flat)

    hyper = _hyper_plan(T=1, n_hypernodes=8)
    with pytest.raises(BadSpec):
        mp_recovery_threshold_with_security(SchemeParams.mp(2, 3, 2, 2), hyper)
    with pytest.raises(BadSpec):
        mp_recovery_threshold_with_security(None, hyper, mode="sideways")

    params_t2 = SchemeParams.mp(2, 3, 2, 2)
    base7 = [F61.element(pow(8, e, 61)) for e in (0, 1, 2, 3, 4, 7, 8)]
    starved = mp_plan(params_t2, F61, base7, zeta=F61.element(47))
    with pytest.raises(PlanInvalid):
        mp_recovery_threshold_with_security(None, starved)
