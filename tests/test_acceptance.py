"""Acceptance gate: one test per shipped guarantee, at stated tolerances.

Each test here pins an end-to-end promise of the library: closed-form
thresholds against the enumeration oracle, frozen reference instances,
straggler-robustness numbers, security pass/fail boundaries, evaluation
cost bounds, and byte-level determinism of the command-line tools.
"""

import hashlib
import itertools
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

import sdmm.protocol
from sdmm import _gauss, examples
from sdmm.cli import main as cli_main
from sdmm.errors import (
    BudgetExhausted,
    InconsistentResponses,
    InsufficientResponses,
    SingularSystem,
)
from sdmm.fields import make_field
from sdmm.linalg import (
    find_evaluation_vector,
    is_mds,
    mp_plan,
    security_check,
    singular_minors,
)
from sdmm.matpoly import BlockMatrix, MatPoly, horner_cost
from sdmm.protocol import (
    assemble_product,
    decode,
    encode,
    p_of_s_empirical,
    run_protocol,
    worker_products,
)
from sdmm.schemes import SchemeParams
from sdmm.thresholds import (
    product_class_support,
    symbolic_support,
    threshold,
)
from test_engine import ref_horner
from test_fields import products

F13 = make_field(13)
F31 = make_field(31)
F61 = make_field(61)


def admissible_ds(M):
    """Step sizes coprime to M, the valid choices for the modular layout."""
    return tuple(d for d in range(1, M + 1) if math.gcd(d, M) == 1)


def _encode_all(plan, A, B, seed):
    """Worker responses for every worker, with fresh noise draws."""
    shares = encode(A, B, plan, random.Random(f"sdmm-acceptance-enc-{seed}"))
    return worker_products(shares, range(plan.n_workers), plan)


def test_criterion_01_closed_forms_match_support_oracle():
    # grid partitions up to 4x4x4 with up to 8 noise terms, every
    # admissible step size and run length: the closed-form worker and
    # hypernode counts must equal the counts read off the symbolic exponent
    # supports
    checked = 0
    for K, M, L in itertools.product(range(1, 5), repeat=3):
        for T in range(9):
            for D in (admissible_ds(M) if T else (1,)):
                params = SchemeParams.mp(K, M, L, T, D)
                rep = threshold(params)
                assert rep.N == M * len(product_class_support(params))
                assert rep.P_prime == len(product_class_support(params))
                checked += 1
            for r in (range(1, min(K * M, T) + 1) if T else (1,)):
                params = SchemeParams.ggasp(K, M, L, T, r)
                assert threshold(params).N == len(symbolic_support(params))
                checked += 1
    assert checked >= 2000


def test_criterion_02_grid_2x3x2_t3_reference_instance():
    # 8 hypernodes, 24 workers, filtered support {2,5,8,11,14,17,20,26}
    assert examples.check_grid_2322_thresholds() is None

    # 24 worker points exist over the 169-element extension field
    params = SchemeParams.mp(2, 3, 2, 3, 1)
    plan = find_evaluation_vector(params, make_field(13, 2), seed=2)
    assert plan.n_workers == 24

    # but no vector can exist over the base field: 13 elements cannot
    # host 24 distinct nonzero points
    with pytest.raises(BudgetExhausted) as exc:
        find_evaluation_vector(params, F13, seed=2, max_escalations=0)
    gates = [f.get("gate") for f in exc.value.diagnostics["fields"]]
    assert any(g and "cannot host" in g for g in gates)


def test_criterion_03_grid_5x2x5_t4_best_run_length():
    # run length r=2 is optimal with N=82 and product degree 114; the
    # hypernode layout with D=1 also needs 82 workers
    assert examples.check_ggasp_543() is None
    assert examples.check_mp_matches_at_543() is None


def test_criterion_04_noise_free_thresholds():
    rng = random.Random("sdmm-acceptance-4")
    for _ in range(50):
        K, M, L = (rng.randint(1, 6) for _ in range(3))
        assert threshold(SchemeParams.mp(K, M, L, 0)).N == K * M * L
        assert threshold(SchemeParams.ggasp(K, M, L, 0)).N == K * M * L + M - 1


def test_criterion_05_six_hypernode_straggler_probabilities():
    # on the six-hypernode GF(31) deployment, exhaustively: p(4) = 1,
    # p(5) = 90/8568 and p(6) = 15/18564 exactly, no lower than the counting
    # bound, whose decimals are 0.0105 and 0.0008
    assert examples.check_robustness_t0_numbers() is None


def test_criterion_06_t1_deployment_robustness():
    # N' = 22 and P' = 7, and every survivor set of size 22 decodes (all 276
    # straggler pairs). The filtered support has 7 members, so the averaged
    # route needs 7 complete hypernodes; the refutation loop at the bottom
    # shows 6 bare hypernodes (18 responses) never suffice
    assert examples.check_robustness_t1_erasures() is None

    plan = examples.gf31_plan(1, 8)
    params = plan.params
    assert plan.n_workers == 24
    rng = random.Random("sdmm-acceptance-6")
    A = BlockMatrix.random(2, 3, F31, rng)
    B = BlockMatrix.random(3, 2, F31, rng)

    # 10^3 sampled survivor sets containing >= 7 complete hypernodes decode
    responses = _encode_all(plan, A, B, seed=6)
    expected = A.matmul(B)
    for _ in range(1000):
        hypers = rng.sample(range(8), rng.choice((7, 8)))
        keep = {n for p in hypers for n in plan.hypernode_workers(p)}
        spare = [n for n in range(24) if n not in keep]
        keep.update(rng.sample(spare, rng.randint(0, len(spare))))
        blocks = decode({n: responses[n] for n in keep}, plan)
        assert assemble_product(blocks, params, F31) == expected

    # exactly 6 complete hypernodes and nothing else never decode
    for hypers in itertools.combinations(range(8), 6):
        keep = [n for p in hypers for n in plan.hypernode_workers(p)]
        with pytest.raises(InsufficientResponses):
            decode({n: responses[n] for n in keep}, plan)


def test_hypernode_rule_check_rejects_a_decode_that_fails_for_another_reason(monkeypatch):
    # the 28 bare 6-hypernode sets must fail for too few responses; any other
    # decode error on them is a fault the check has to report
    real_decode = examples.decode

    def inconsistent_on_bare_sets(responses, plan, *args, **kwargs):
        if len(responses) == 18:
            raise InconsistentResponses("injected")
        return real_decode(responses, plan, *args, **kwargs)

    monkeypatch.setattr(examples, "decode", inconsistent_on_bare_sets)
    assert "InconsistentResponses" in examples.check_robustness_hypernode_rule()


# the straggler sets of the GF(61) deployment's 24 rank-deficient 26-survivor sets
GF61_DEFICIENT_26 = (
    (11, 24, 25, 26), (10, 24, 25, 26), (10, 11, 25, 26), (10, 11, 24, 26),
    (10, 11, 24, 25), (9, 24, 25, 26), (9, 11, 25, 26), (9, 11, 24, 26),
    (9, 11, 24, 25), (9, 10, 25, 26), (9, 10, 24, 26), (9, 10, 24, 25),
    (9, 10, 11, 26), (9, 10, 11, 25), (9, 10, 11, 24), (5, 8, 11, 22),
    (4, 7, 10, 21), (3, 6, 9, 23), (2, 10, 23, 28), (2, 5, 21, 26),
    (1, 9, 22, 27), (1, 4, 23, 25), (0, 11, 21, 29), (0, 3, 22, 24),
)


def test_criterion_07_deficient_26_survivor_sets():
    """24 of the deployment's 27,405 26-survivor sets are rank deficient.

    Any 4 stragglers among workers 9-11 and 24-26 (hypernodes 3 and 8)
    make 15 of them; 9 more spread over other hypernodes. Each is confirmed
    by a direct rank of its 26 x 25 system.
    """
    plan = examples.gf61_plan()
    bad = list(singular_minors(plan.worker_table,
                               itertools.combinations(range(30), 26), F61))
    assert bad[-1][0] == math.comb(30, 26) == 27405
    stragglers = [tuple(sorted(set(range(30)) - set(s))) for _, s in bad]
    assert tuple(stragglers) == GF61_DEFICIENT_26
    for _, s in bad:
        assert _gauss.rank(plan.worker_table[list(s)], F61) == 24


def test_criterion_07_t2_deployment_mds_claim():
    """The 30-worker GF(61) deployment is secure but not MDS on its support.

    The minor scan and an independent exact rank both find a singular
    25-survivor set, so 25 responses do not always decode and the certified
    recovery threshold is the hypernode bound of 28. Decoding below that
    bound still succeeds for other failure patterns. By default the scan
    samples minors and every pair of stragglers is decoded. With
    SDMM_FULL_MINORS=1 the scan walks the 142506 minors in order up to the
    first singular one, all 2430 singular minors are listed and pinned,
    every one of the 4060 three-straggler patterns is decoded too, and
    p(4) = 9127/9135 is pinned from all 27405 four-straggler patterns,
    whose 24 failures are the rank-deficient 26-survivor sets.
    """
    full = os.environ.get("SDMM_FULL_MINORS") == "1"
    assert examples.check_security_t2_61() is None
    plan = examples.gf61_plan()
    params = plan.params

    supp = symbolic_support(params)
    assert len(supp) == 25
    if full:
        scan = is_mds(plan.worker_table, F61, mode="exhaustive", budget=200_000)
        # every singular 25-survivor set, each confirmed by a direct rank
        bad = list(singular_minors(plan.worker_table,
                                   itertools.combinations(range(30), 25), F61))
        assert len(bad) == 2430 and bad[-1][0] == math.comb(30, 25) == 142506
        assert bad[0] == (scan.checked, scan.witness)
        rows = np.array([s for _, s in bad])
        assert not _gauss.batch_is_invertible(plan.worker_table[rows], F61).any()
        digest = hashlib.sha256(repr([s for _, s in bad]).encode()).hexdigest()
        assert digest == "38db76f41c35ac0cda04602a53191c02804cc047ade1582ced3d8d8e1ada2f8c"
    else:
        scan = is_mds(plan.worker_table, F61, mode="random", samples=10_000,
                      rng=random.Random("sdmm-acceptance-7"))
        assert set(range(30)) - set(scan.witness) == {6, 12, 19, 24, 25}
    assert not scan.ok
    witness = scan.witness
    assert len(witness) == 25
    assert _gauss.rank(plan.worker_table[list(witness)], F61) == 24

    rng = random.Random("sdmm-acceptance-7-inputs")
    A = BlockMatrix.random(2, 3, F61, rng)
    B = BlockMatrix.random(3, 2, F61, rng)
    responses = _encode_all(plan, A, B, seed=7)

    def complete(survivors):
        return [p for p in range(10)
                if set(plan.hypernode_workers(p)) <= set(survivors)]

    # the witness keeps fewer than the 8 complete hypernodes the averaged
    # route needs, and its full interpolation system is singular
    assert len(complete(witness)) < 8
    with pytest.raises(SingularSystem):
        decode({n: responses[n] for n in witness}, plan)

    # 25 survivors with only 5 complete hypernodes decode by full
    # interpolation when their minor is invertible
    keep = [n for n in range(30) if n not in (0, 3, 6, 9, 12)]
    assert len(complete(keep)) == 5
    blocks = decode({n: responses[n] for n in keep}, plan)
    assert assemble_product(blocks, params, F61) == A.matmul(B)

    # every 28-survivor set decodes; under SDMM_FULL_MINORS=1 every
    # 27-survivor set is shown to decode too
    assert p_of_s_empirical(A, B, plan, 2, mode="exhaustive") == 1
    if full:
        assert p_of_s_empirical(A, B, plan, 3, mode="exhaustive") == 1
        # exactly the 24 rank-deficient 26-survivor sets fail to decode
        failed = []

        def recording_decode(responses, plan, counter=None):
            try:
                return decode(responses, plan, counter)
            except SingularSystem:
                failed.append(tuple(sorted(set(range(30)) - set(responses))))
                raise

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sdmm.protocol, "decode", recording_decode)
            assert p_of_s_empirical(A, B, plan, 4) == Fraction(9127, 9135)
        assert sorted(failed) == sorted(GF61_DEFICIENT_26)

    # the exhaustive scan's recovery report: certified 28, not MDS
    assert examples.check_robustness_t2_witness() is None


def test_criterion_08_five_hundred_protocol_runs():
    plans = [
        examples.gf31_plan(0, 6),
        examples.gf31_plan(1, 8),
        examples.gf61_plan(),
        mp_plan(SchemeParams.mp(1, 2, 1, 2), F13,
                [F13.element(v) for v in (1, 2, 3, 4)]),
        find_evaluation_vector(SchemeParams.ggasp(2, 3, 2, 1), make_field(101),
                               n_workers=22, seed=2),
        find_evaluation_vector(SchemeParams.mp(2, 3, 2, 3), make_field(13, 2),
                               seed=2),
    ]
    rng = random.Random("sdmm-acceptance-8")
    failures = 0
    for run in range(500):
        plan = plans[run % len(plans)]
        params = plan.params
        A = BlockMatrix.random(params.K, params.M, plan.ctx, rng)
        B = BlockMatrix.random(params.M, params.L, plan.ctx, rng)
        # run_protocol itself raises if a decoded product ever disagrees
        # with the direct blockwise multiplication
        rep = run_protocol(A, B, plan, seed=run)
        assert set(rep.mult_counts) == {"encode", "worker", "decode"}
        if not rep.decode_success:
            failures += 1
    assert failures == 0


def test_criterion_09_step_size_security():
    fields = {2: 29, 3: 61, 4: 101, 6: 103}
    for M, q in fields.items():
        ctx = make_field(q)
        for D in range(1, M + 1):
            if math.gcd(D, M) > 1:
                # a shared power class between two noise exponents breaks
                # security for every choice of evaluation vector
                params = SchemeParams.explicit(2, M, 2, 2,
                                               alpha=(0, D), beta=(0, D))
                rng = random.Random(f"sdmm-acceptance-9-{M}-{D}")
                for _ in range(10):
                    while True:
                        cand = rng.sample(range(1, q), 4)
                        if len({pow(b, M, q) for b in cand}) == 4:
                            break
                    plan = mp_plan(params, ctx, [ctx.element(b) for b in cand])
                    assert not security_check(plan).ok
            else:
                params = SchemeParams.mp(2, M, 2, 2, D)
                plan = find_evaluation_vector(params, ctx, seed=9)
                assert security_check(plan).ok


def test_criterion_10_sparse_evaluation_cost():
    rng = random.Random("sdmm-acceptance-10")
    fields = [F13, F31, F61, make_field(13, 2)]
    for case in range(1000):
        ctx = fields[case % len(fields)]
        n = rng.randint(1, 8)
        exps = sorted(rng.sample(range(201), n))
        terms = {e: BlockMatrix([[ctx.random_element(rng, nonzero=True)]], ctx)
                 for e in exps}
        f = MatPoly(terms, (1, 1), ctx)
        x = ctx.random_element(rng, nonzero=True)
        assert f.eval_sparse_horner(x) == f.evaluate_naive(x)
        with products() as taken:
            ref_horner({e: c.data for e, c in terms.items()}, x)
        # one multiply per term to chain, plus a square-and-multiply
        # ladder bounded by the widest exponent step
        steps = [exps[0]] + [b - a for a, b in zip(exps, exps[1:])]
        delta = max(steps)
        bound = (n - 1) + 2 * math.ceil(math.log2(delta + 1)) * n
        assert taken.count == horner_cost(exps, 1) <= bound


def test_criterion_11_byte_deterministic_outputs(tmp_path):
    jobs = {
        "simulate": ["simulate", "--scheme", "mp:K=2,M=3,L=2,T=1",
                     "--field", "31", "--json", "--seed", "11",
                     "--stragglers", "random:2"],
        "sweep": ["sweep", "--K", "3", "--M", "2", "--L", "3", "--t-max", "6"],
    }
    for name, argv in jobs.items():
        a = tmp_path / f"{name}-a.out"
        b = tmp_path / f"{name}-b.out"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"{name} output drifted"
