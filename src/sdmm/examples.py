"""The frozen deployments and the worked examples replayed by verify-examples.

Two deployments carry most of the paper's worked numbers, and each has one
builder here, shared by the checks below and by the test suite:

- gf31_plan: mp:K=2,M=3,L=2 over GF(31) with base points 15^k and zeta 5
  (T=0 on 6 hypernodes, T=1 on 8);
- gf61_plan: the 30-worker mp:K=2,M=3,L=2,T=2 deployment over GF(61) with
  base points 8^e for e in GF61_EXPONENTS and zeta 47.

EXAMPLES lists every check as (category, name, check). A check returns None
on success or a string describing the mismatch. Names say what is checked,
in terms of the parameters involved.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import _gauss
from .errors import BudgetExhausted, InsufficientResponses, SdmmError
from .fields import make_field, primitive_root_of_unity, subgroup_elements
from .linalg import (
    EvaluationPlan,
    decodability_check,
    find_evaluation_vector,
    is_mds,
    mp_plan,
    security_check,
)
from .matpoly import (
    BlockMatrix,
    MatPoly,
    interpolate,
    mod_m_transform,
    mod_m_transform_by_summation,
)
from .protocol import (
    assemble_product,
    decode,
    encode,
    mp_recovery_threshold_with_security,
    p_of_s_empirical,
    p_of_s_lower_bound,
    worker_products,
)
from .schemes import (
    SchemeParams,
    build_f,
    build_g,
    partition,
    product_block_positions,
)
from .thresholds import optimal_r, product_class_support, symbolic_support, threshold

# -- frozen deployments ---------------------------------------------------------------

GF61_EXPONENTS = (0, 1, 2, 3, 4, 7, 8, 9, 12, 13)


def gf31_plan(T: int, n_hypernodes: int) -> EvaluationPlan:
    """mp:K=2,M=3,L=2 with T noise terms over GF(31), one hypernode per 15^k.

    The powers of 15 have pairwise distinct cubes over GF(31), and 5
    generates the cube roots of unity.
    """
    ctx = make_field(31)
    w = ctx.element(15)
    return mp_plan(SchemeParams.mp(2, 3, 2, T), ctx,
                   [w.pow_(k) for k in range(n_hypernodes)], zeta=ctx.element(5))


def gf61_plan(exponents=GF61_EXPONENTS) -> EvaluationPlan:
    """mp:K=2,M=3,L=2,T=2 over GF(61), one hypernode per 8^e; 47 is zeta."""
    ctx = make_field(61)
    w = ctx.element(8)
    return mp_plan(SchemeParams.mp(2, 3, 2, 2), ctx,
                   [w.pow_(e) for e in exponents], zeta=ctx.element(47))


def _small_product(K, M, L, T, ctx, seed, variant="mp", **kw):
    """Random partitioned inputs and the encoded product polynomial."""
    params = (SchemeParams.mp(K, M, L, T, kw.get("D", 1)) if variant == "mp"
              else SchemeParams.ggasp(K, M, L, T, kw.get("r", 1)))
    rng = random.Random(f"sdmm-example-{seed}")
    A = BlockMatrix.random(2 * K, M, ctx, rng)
    B = BlockMatrix.random(M, 2 * L, ctx, rng)
    a_blocks, b_blocks = partition(A, B, K, M, L)
    f, g = build_f(params, a_blocks, rng, ctx), build_g(params, b_blocks, rng, ctx)
    return params, A, B, f, g


# -- checks -----------------------------------------------------------------------------


def check_cube_root_gf7():
    ctx = make_field(7)
    z = primitive_root_of_unity(ctx, 3)
    if z.index() != 2:
        return f"expected primitive cube root 2, got {z.index()}"
    return None


def check_subgroups():
    got31 = sorted(e.index() for e in subgroup_elements(make_field(31), 10))
    want31 = sorted(pow(15, k, 31) for k in range(10))
    if got31 != want31:
        return f"order-10 subgroup of GF(31): {got31} != powers of 15"
    got61 = sorted(e.index() for e in subgroup_elements(make_field(61), 20))
    want61 = sorted(pow(8, k, 61) for k in range(20))
    if got61 != want61:
        return f"order-20 subgroup of GF(61): {got61} != powers of 8"
    return None


def check_mod_m_filter_gf7():
    ctx = make_field(7)
    coeffs = {e: BlockMatrix([[ctx.element(e + 1)]], ctx) for e in range(7)}
    poly = MatPoly(coeffs, (1, 1), ctx)
    hat = mod_m_transform(poly, ctx.element(2), 3)
    if hat.support() != (2, 5):
        return f"filtered support {hat.support()} != (2, 5)"
    if hat.coeff(2) != coeffs[2] or hat.coeff(5) != coeffs[5]:
        return "filtered coefficients differ from the originals"
    via_sum = mod_m_transform_by_summation(poly, ctx.element(2), 3)
    if via_sum != hat:
        return "summation form disagrees with support filtering"
    return None


def check_interp_two_points_gf7():
    ctx = make_field(7)
    v2, v5 = BlockMatrix([[3]], ctx), BlockMatrix([[6]], ctx)
    hat = MatPoly({2: v2, 5: v5}, (1, 1), ctx)
    pts = [ctx.element(1), ctx.element(3)]
    got = interpolate(pts, [hat.evaluate_naive(x) for x in pts], [2, 5], ctx)
    if got != hat:
        return "two-point recovery of exponents {2,5} failed"
    if not decodability_check([1, 3], [2, 5], ctx):
        return "points (1,3) reported undecodable for exponents {2,5}"
    if decodability_check([1, 2], [2, 8], ctx):
        return "points (1,2) reported decodable for exponents {2,8}"
    return None


def check_horner_matches_naive():
    ctx = make_field(7)
    coeffs = {e: BlockMatrix([[ctx.element(e + 1)]], ctx) for e in range(7)}
    poly = MatPoly(coeffs, (1, 1), ctx)
    x = ctx.element(3)
    if poly.eval_sparse_horner(x) != poly.evaluate_naive(x):
        return "gap-form evaluation differs from naive at x=3"
    return None


def check_data_poly_support():
    ctx = make_field(13)
    params, A, B, f, g = _small_product(2, 3, 2, 0, ctx, seed=1)
    if f.support() != (0, 1, 2, 3, 4, 5):
        return f"data polynomial support {f.support()} != (0,...,5)"
    h = f.mul(g)
    prod = A.matmul(B)
    for (k, l), e in product_block_positions(2, 3, 2).items():
        want = prod.submatrix(2 * k, 2 * l, 2, 2)
        if h.coeff(e) != want:
            return f"product block ({k},{l}) at exponent {e} mismatches"
    return None


def check_supports_t1_t2():
    for T, want in ((1, tuple(range(21)) + (24,)),
                    (2, tuple(range(22)) + (24, 25, 26))):
        params = SchemeParams.mp(2, 3, 2, T)
        if symbolic_support(params) != want:
            return f"T={T} generic support mismatch"
        ctx = make_field(31)
        _, _, _, f, g = _small_product(2, 3, 2, T, ctx, seed=T)
        if f.mul(g).support() != want:
            return f"T={T} random product support mismatch"
    hat1 = product_class_support(SchemeParams.mp(2, 3, 2, 1))
    if hat1 != (2, 5, 8, 11, 14, 17, 20):
        return f"T=1 filtered support {hat1}"
    return None


def check_grid_2322_thresholds():
    rep = threshold(SchemeParams.mp(2, 3, 2, 3))
    if (rep.P, rep.N) != (8, 24):
        return f"T=3 layout: P={rep.P}, N={rep.N} != (8, 24)"
    hat = product_class_support(SchemeParams.mp(2, 3, 2, 3))
    if hat != (2, 5, 8, 11, 14, 17, 20, 26):
        return f"T=3 filtered support {hat}"
    rep0 = threshold(SchemeParams.mp(2, 3, 2, 0))
    if (rep0.N, rep0.N_prime) != (12, 14):
        return f"T=0 thresholds N={rep0.N}, N'={rep0.N_prime} != (12, 14)"
    return None


def check_transform_t3():
    ctx = make_field(13)
    params, A, B, f, g = _small_product(2, 3, 2, 3, ctx, seed=3)
    h = f.mul(g)
    zeta = primitive_root_of_unity(ctx, 3)
    hat = mod_m_transform(h, zeta, 3)
    if hat.support() != (2, 5, 8, 11, 14, 17, 20, 26):
        return f"filtered support {hat.support()}"
    if mod_m_transform_by_summation(h, zeta, 3) != hat:
        return "summation form disagrees with support filtering"
    prod = A.matmul(B)
    for (k, l), e in product_block_positions(2, 3, 2).items():
        if hat.coeff(e) != prod.submatrix(2 * k, 2 * l, 2, 2):
            return f"product block ({k},{l}) not at exponent {e} of the transform"
    return None


def check_closed_forms_spot_grid():
    for K in (1, 2, 3):
        for M in (1, 2, 3, 4):
            for L in (1, 2, 3):
                for T in range(5):
                    rep = threshold(SchemeParams.mp(K, M, L, T))
                    oracle = symbolic_support(SchemeParams.mp(K, M, L, T))
                    if rep.N_prime != len(oracle):
                        return f"MP N' mismatch at K={K},M={M},L={L},T={T}"
                    per_class = sum(1 for e in oracle if (e + 1) % M == 0)
                    if rep.N != M * per_class:
                        return f"MP N mismatch at K={K},M={M},L={L},T={T}"
                    for r in range(1, min(K * M, T) + 1):
                        g = SchemeParams.ggasp(K, M, L, T, r)
                        if threshold(g).N != len(symbolic_support(g)):
                            return f"flat N mismatch at K={K},M={M},L={L},T={T},r={r}"
    return None


def check_ggasp_543():
    reps = {r: threshold(SchemeParams.ggasp(5, 2, 5, 4, r)) for r in (1, 2, 3, 4)}
    ns = tuple(reps[r].N for r in (1, 2, 3, 4))
    if ns != (85, 82, 86, 87):
        return f"N(r=1..4) = {ns} != (85, 82, 86, 87)"
    best = optimal_r(5, 2, 5, 4)
    if (best.params.r, best.N) != (2, 82):
        return f"optimum r={best.params.r}, N={best.N} != (2, 82)"
    if symbolic_support(SchemeParams.ggasp(5, 2, 5, 4, 2))[-1] != 114:
        return "product degree at r=2 is not 114"
    ctx = make_field(10007)
    _, _, _, f, g = _small_product(5, 2, 5, 4, ctx, seed=4, variant="ggasp", r=2)
    if f.mul(g).degree() != 114:
        return "random product degree at r=2 is not 114"
    return None


def check_mp_matches_at_543():
    rep = threshold(SchemeParams.mp(5, 2, 5, 4, 1))
    if rep.N != 82:
        return f"hypernode layout N={rep.N} != 82 at K=5,M=2,L=5,T=4,D=1"
    return None


def check_noise_free_flat():
    for K, M, L in ((2, 3, 2), (1, 4, 2), (3, 2, 1)):
        rep = threshold(SchemeParams.ggasp(K, M, L, 0))
        if rep.N != K * M * L + M - 1:
            return f"flat T=0 threshold at K={K},M={M},L={L}: {rep.N}"
    return None


def check_security_gcd_failure():
    ctx = make_field(13)
    params = SchemeParams.explicit(1, 2, 1, 2, alpha=(0, 2), beta=(0, 1))
    plan = mp_plan(params, ctx, [ctx.element(1), ctx.element(2)])
    res = security_check(plan)
    if res.ok:
        return "mixing with offsets (0,2) on M=2 unexpectedly passed"
    if res.sigma_a.ok or res.sigma_a.witness is None:
        return "no singular witness reported for the first mixing matrix"
    return None


def check_security_t1_nonzero():
    plan = gf31_plan(1, 8)
    res = security_check(plan)
    if not res.ok:
        return "one-noise-term mixing failed on nonzero points"
    return None


def check_security_t2_61():
    plan = gf61_plan()
    res = security_check(plan)
    if not res.ok:
        return "two-noise-term mixing failed on the 30-point deployment"
    return None


def check_find_noise_free_31():
    plan = gf31_plan(0, 6)
    if not decodability_check(plan, plan.class_support):
        return "base points (powers of 15) cannot solve the filtered support"
    if not is_mds(plan.base_table, plan.ctx).ok:
        return "base-point evaluation matrix is not MDS on the filtered support"
    found = find_evaluation_vector(plan.params, plan.ctx, n_hypernodes=6, seed=0)
    if found.n_workers != 18:
        return f"search returned {found.n_workers} workers, wanted 18"
    return None


def check_find_size_gate():
    params = SchemeParams.mp(2, 3, 2, 3)
    try:
        find_evaluation_vector(params, make_field(13), seed=0)
        return "search over a 13-element field should have been refused"
    except BudgetExhausted as exc:
        diags = exc.diagnostics or {}
        fields = diags.get("fields", [])
        if not fields or "gate" not in fields[0] or not fields[0]["gate"]:
            return f"no size-gate diagnostic in {diags}"
    plan = find_evaluation_vector(params, make_field(13, 2), seed=0)
    if plan.n_workers != 24:
        return f"search over the 169-element field returned {plan.n_workers} workers"
    return None


def check_find_coprime_steps():
    for K, M, L, T, D, q in ((1, 2, 1, 2, 1, 13), (1, 3, 1, 2, 2, 31)):
        params = SchemeParams.mp(K, M, L, T, D)
        plan = find_evaluation_vector(params, make_field(q), seed=0)
        if not security_check(plan).ok:
            return f"found vector fails mixing at M={M},D={D}"
    return None


def check_robustness_t0_numbers():
    plan = gf31_plan(0, 6)
    ctx = plan.ctx
    rng = random.Random("sdmm-example-robust")
    A = BlockMatrix.random(4, 3, ctx, rng)
    B = BlockMatrix.random(3, 4, ctx, rng)
    if p_of_s_empirical(A, B, plan, 4) != 1:
        return "some 4-straggler pattern failed to decode"
    e5 = p_of_s_empirical(A, B, plan, 5)
    e6 = p_of_s_empirical(A, B, plan, 6)
    b5 = p_of_s_lower_bound(2, 3, 2, 6, 5)
    b6 = p_of_s_lower_bound(2, 3, 2, 6, 6)
    if e5 != Fraction(90, 8568) or e6 != Fraction(15, 18564):
        return f"exhaustive decode rates p(5)={e5}, p(6)={e6}"
    if e5 < b5 or e6 < b6:
        return "exhaustive rate fell below the counting bound"
    if (round(float(b5), 4), round(float(b6), 4)) != (0.0105, 0.0008):
        return f"bound decimals {float(b5):.4f}, {float(b6):.4f}"
    return None


def check_robustness_t1_erasures():
    plan = gf31_plan(1, 8)
    ctx = plan.ctx
    rng = random.Random("sdmm-example-erasure")
    A = BlockMatrix.random(4, 3, ctx, rng)
    B = BlockMatrix.random(3, 4, ctx, rng)
    rep = threshold(plan.params)
    if (rep.N_prime, rep.P_prime) != (22, 7):
        return f"thresholds N'={rep.N_prime}, P'={rep.P_prime} != (22, 7)"
    if p_of_s_empirical(A, B, plan, 2, mode="exhaustive") != 1:
        return "some straggler pair failed with 22 survivors"
    return None


def check_robustness_hypernode_rule():
    plan = gf31_plan(1, 8)
    ctx = plan.ctx
    rng = random.Random("sdmm-example-hyper")
    A = BlockMatrix.random(4, 3, ctx, rng)
    B = BlockMatrix.random(3, 4, ctx, rng)
    shares = worker_products(encode(A, B, plan, random.Random("sdmm-example-noise")),
                             range(plan.n_workers), plan)
    expected = A.matmul(B)
    for keep in itertools.combinations(range(8), 7):
        resp = {n: shares[n] for p in keep for n in plan.hypernode_workers(p)}
        try:
            blocks = decode(resp, plan)
        except SdmmError:
            return f"7 complete hypernodes {keep} failed to decode"
        if assemble_product(blocks, plan.params, ctx) != expected:
            return f"7 complete hypernodes {keep} decoded the wrong product"
    failures = 0
    for keep in itertools.combinations(range(8), 6):
        resp = {n: shares[n] for p in keep for n in plan.hypernode_workers(p)}
        try:
            decode(resp, plan)
        except InsufficientResponses:
            failures += 1
        except SdmmError as exc:
            return f"6 complete hypernodes {keep}: {type(exc).__name__}, not InsufficientResponses"
    if failures != 28:
        return f"only {failures}/28 bare 6-hypernode sets failed; 18 responses must not suffice"
    return None


def check_robustness_t2_witness():
    plan = gf61_plan()
    witness_points = {1, 2, 6, 7, 8, 9, 10, 13, 17, 19, 22, 24, 25, 26, 30,
                      31, 33, 38, 39, 42, 43, 47, 54, 56, 57}
    rows = [n for n, x in enumerate(plan.worker_points) if x.index() in witness_points]
    if len(rows) != len(witness_points):
        return "frozen witness points are not a subset of the deployment"
    rank = _gauss.rank(plan.worker_table[rows], plan.ctx)
    if rank != 24:
        return f"frozen 25-point witness has rank {rank}, expected 24 (singular)"
    rec = mp_recovery_threshold_with_security(None, plan)
    if not (rec.upper_bound == 28 and rec.threshold == 28 and rec.certified):
        return (f"recovery report upper={rec.upper_bound}, threshold={rec.threshold}, "
                f"certified={rec.certified}; wanted certified 28 via the hypernode rule")
    if rec.witness is None or rec.witness.ok:
        return "exhaustive scan failed to surface a singular survivor set"
    return None


def check_robustness_gapless():
    params = SchemeParams.mp(1, 2, 1, 2)
    supp = symbolic_support(params)
    if supp != (0, 1, 2, 3, 4, 5, 6):
        return f"support {supp} != (0,...,6)"
    plan = find_evaluation_vector(params, make_field(13), n_hypernodes=4, seed=0)
    rec = mp_recovery_threshold_with_security(None, plan)
    if not (rec.gapless and rec.certified and rec.threshold == 7):
        return f"threshold {rec.threshold} (certified={rec.certified}) != 7"
    return None


EXAMPLES = (
    ("field", "primitive cube root of GF(7) is 2", check_cube_root_gf7),
    ("field", "subgroups: order 10 in GF(31) from 15, order 20 in GF(61) from 8",
     check_subgroups),
    ("field", "degree-6 filter over GF(7), M=3: keeps exponents 2 and 5",
     check_mod_m_filter_gf7),
    ("field", "coefficient recovery at points (1,3) for exponents {2,5} over GF(7)",
     check_interp_two_points_gf7),
    ("field", "gap-form evaluation matches naive evaluation over GF(7)",
     check_horner_matches_naive),
    ("mp", "data polynomial support is {0..5} for K=2, M=3; product blocks line up",
     check_data_poly_support),
    ("mp", "generic supports at K=2,M=3,L=2: T=1 -> {0..20,24}, T=2 -> {0..21,24,25,26}",
     check_supports_t1_t2),
    ("mp", "K=2,M=3,L=2,T=3 layout: 8 hypernodes, 24 workers; T=0: N=12, any-14 erasure",
     check_grid_2322_thresholds),
    ("mp", "filtered product at K=2,M=3,L=2,T=3 has support {2,5,8,11,14,17,20,26}",
     check_transform_t3),
    ("mp", "closed forms equal the support-counting oracle on a spot grid",
     check_closed_forms_spot_grid),
    ("ggasp", "flat layout at K=5,M=2,L=5,T=4: N(r=1..4)=(85,82,86,87), best r=2, deg 114",
     check_ggasp_543),
    ("ggasp", "hypernode layout with D=1 also reaches N=82 at K=5,M=2,L=5,T=4",
     check_mp_matches_at_543),
    ("ggasp", "flat noise-free threshold is KML+M-1", check_noise_free_flat),
    ("security", "mixing fails for offsets (0,2) with M=2 (shared square) on any points",
     check_security_gcd_failure),
    ("security", "one noise term: mixing holds whenever points are nonzero",
     check_security_t1_nonzero),
    ("security", "30-point deployment over GF(61) passes the two-noise-term mixing check",
     check_security_t2_61),
    ("find", "noise-free search over GF(31) validates the powers-of-15 deployment",
     check_find_noise_free_31),
    ("find", "24-worker search refuses GF(13) (size gate) and succeeds over GF(169)",
     check_find_size_gate),
    ("find", "search succeeds for coprime step sizes (M=2,D=1) and (M=3,D=2)",
     check_find_coprime_steps),
    ("robustness", "noise-free decode rates: p(4)=1, p(5)=90/8568, p(6)=15/18564 exact",
     check_robustness_t0_numbers),
    ("robustness", "T=1 deployment decodes all 276 two-straggler patterns",
     check_robustness_t1_erasures),
    ("robustness", "hypernode-average decode needs 7 complete hypernodes; 6 never suffice",
     check_robustness_hypernode_rule),
    ("robustness", "30-point deployment: a singular 25-survivor set exists; certified 28",
     check_robustness_t2_witness),
    ("robustness", "gapless support on the 1x2x1 grid with T=2: threshold certified at 7",
     check_robustness_gapless),
)

CATEGORIES = tuple(sorted({cat for cat, _, _ in EXAMPLES}))
