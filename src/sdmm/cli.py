"""Command-line front end: thresholds, sweeps, vector search, simulation.

Subcommands delegate to the library modules; this file owns argument
parsing, the key=value config file, output formatting (CSV with a comment
header carrying version, seed, and a config hash; JSON elsewhere), exit
codes, and the verify-examples battery of frozen numeric checks.

Exit codes: 0 success, 1 verification mismatch, 2 bad configuration or
inputs, 3 search or scan budget exhausted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction

from . import __version__
from .errors import (
    BudgetExceeded,
    BudgetExhausted,
    DecodeFailed,
    SdmmError,
)
from .fields import make_field, parse_field_spec, primitive_root_of_unity
from .linalg import (
    decodability_check,
    find_evaluation_vector,
    gv_matrix,
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
    decode,
    mp_recovery_threshold_with_security,
    p_of_s_empirical,
    p_of_s_lower_bound,
    run_protocol,
)
from .schemes import (
    SchemeParams,
    build_f,
    build_g,
    parse_scheme_spec,
    partition,
    product_block_positions,
)
from .thresholds import (
    product_class_support,
    rate_sweep,
    rate_sweep_fixed_n,
    symbolic_support,
    threshold,
)

_SWEEP_COLUMNS = ("scheme", "K", "M", "L", "T", "D_or_r", "N", "P", "rate")


# -- config file ---------------------------------------------------------------------


def _read_config_tokens(path: str) -> list[str]:
    """key=value lines become flag tokens, so argparse types and validates them."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise SdmmError(f"cannot read config file {path}: {exc}")
    tokens: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SdmmError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise SdmmError(f"{path}:{lineno}: empty key")
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                tokens.append(flag)
        else:
            tokens.extend([flag, value])
    return tokens


def _inject_config(argv: list[str]) -> list[str]:
    """Splice config-file tokens in ahead of explicit flags, which then win."""
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        return argv  # argparse will report the missing value
    tokens = _read_config_tokens(argv[at + 1])
    for j, tok in enumerate(argv):
        if j != at + 1 and not tok.startswith("-"):
            return argv[:j + 1] + tokens + argv[j + 1:]
    return argv + tokens


def _config_hash(args: argparse.Namespace) -> str:
    skip = {"func", "out", "config"}
    items = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    canon = "\n".join(f"{k}={items[k]}" for k in sorted(items))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


# -- output helpers ------------------------------------------------------------------


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise SdmmError(f"cannot write {out_path}: {exc}")
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _sweep_csv(rows, seed: int, cfg_hash: str) -> str:
    lines = [f"# sdmm {__version__}", f"# seed={seed}", f"# config=sha256:{cfg_hash}",
             ",".join(_SWEEP_COLUMNS)]
    for row in rows:
        cells = []
        for col in _SWEEP_COLUMNS:
            val = row[col]
            if col == "rate":
                val = repr(float(Fraction(val)))
            cells.append(str(val))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _element_coeffs(el) -> list[int]:
    return [int(c) for c in el.coeffs]


# -- worked-example registry ----------------------------------------------------------
#
# Each entry: (category, name, check). A check returns None on success or a
# string describing the mismatch. Names say what is checked, in terms of the
# parameters involved.


def _f31():
    return make_field(31)


def _f61():
    return make_field(61)


def _plan_t0_31():
    ctx = _f31()
    w = ctx.element(15)
    return mp_plan(SchemeParams.mp(2, 3, 2, 0), ctx,
                   [w.pow_(p) for p in range(6)], zeta=ctx.element(5))


def _plan_t1_31():
    ctx = _f31()
    w = ctx.element(15)
    return mp_plan(SchemeParams.mp(2, 3, 2, 1), ctx,
                   [w.pow_(p) for p in range(8)], zeta=ctx.element(5))


def _plan_t2_61():
    ctx = _f61()
    w = ctx.element(8)
    return mp_plan(SchemeParams.mp(2, 3, 2, 2), ctx,
                   [w.pow_(p) for p in (0, 1, 2, 3, 4, 7, 8, 9, 12, 13)],
                   zeta=ctx.element(47))


def _small_product(K, M, L, T, ctx, seed, variant="mp", **kw):
    """Random partitioned inputs and the encoded product polynomial."""
    params = (SchemeParams.mp(K, M, L, T, kw.get("D", 1)) if variant == "mp"
              else SchemeParams.ggasp(K, M, L, T, kw.get("r", 1)))
    rng = random.Random(f"sdmm-example-{seed}")
    A = BlockMatrix.random(2 * K, M, ctx, rng)
    B = BlockMatrix.random(M, 2 * L, ctx, rng)
    parts = partition(A, B, K, M, L)
    f = build_f(params, parts, rng, ctx)
    g = build_g(params, parts, rng, ctx)
    return params, A, B, f, g


def _check_cube_root_gf7():
    ctx = make_field(7)
    z = primitive_root_of_unity(ctx, 3)
    if z.index() != 2:
        return f"expected primitive cube root 2, got {z.index()}"
    return None


def _check_subgroups():
    from .fields import subgroup_elements
    got31 = sorted(e.index() for e in subgroup_elements(_f31(), 10))
    want31 = sorted(pow(15, k, 31) for k in range(10))
    if got31 != want31:
        return f"order-10 subgroup of GF(31): {got31} != powers of 15"
    got61 = sorted(e.index() for e in subgroup_elements(_f61(), 20))
    want61 = sorted(pow(8, k, 61) for k in range(20))
    if got61 != want61:
        return f"order-20 subgroup of GF(61): {got61} != powers of 8"
    return None


def _check_mod_m_filter_gf7():
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


def _check_interp_two_points_gf7():
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


def _check_horner_matches_naive():
    ctx = make_field(7)
    coeffs = {e: BlockMatrix([[ctx.element(e + 1)]], ctx) for e in range(7)}
    poly = MatPoly(coeffs, (1, 1), ctx)
    x = ctx.element(3)
    if poly.eval_sparse_horner(x) != poly.evaluate_naive(x):
        return "gap-form evaluation differs from naive at x=3"
    return None


def _check_data_poly_support():
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


def _check_supports_t1_t2():
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


def _check_grid_2322_thresholds():
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


def _check_transform_t3():
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


def _check_closed_forms_spot_grid():
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


def _check_ggasp_543():
    reps = {r: threshold(SchemeParams.ggasp(5, 2, 5, 4, r)) for r in (1, 2, 3, 4)}
    ns = tuple(reps[r].N for r in (1, 2, 3, 4))
    if ns != (85, 82, 86, 87):
        return f"N(r=1..4) = {ns} != (85, 82, 86, 87)"
    from .thresholds import optimal_r
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


def _check_mp_matches_at_543():
    rep = threshold(SchemeParams.mp(5, 2, 5, 4, 1))
    if rep.N != 82:
        return f"hypernode layout N={rep.N} != 82 at K=5,M=2,L=5,T=4,D=1"
    return None


def _check_noise_free_flat():
    for K, M, L in ((2, 3, 2), (1, 4, 2), (3, 2, 1)):
        rep = threshold(SchemeParams.ggasp(K, M, L, 0))
        if rep.N != K * M * L + M - 1:
            return f"flat T=0 threshold at K={K},M={M},L={L}: {rep.N}"
    return None


def _check_security_gcd_failure():
    ctx = make_field(13)
    params = SchemeParams.explicit(1, 2, 1, 2, alpha=(0, 2), beta=(0, 1))
    plan = mp_plan(params, ctx, [ctx.element(1), ctx.element(2)])
    res = security_check(plan)
    if res.ok:
        return "mixing with offsets (0,2) on M=2 unexpectedly passed"
    if res.sigma_a.ok or res.sigma_a.witness is None:
        return "no singular witness reported for the first mixing matrix"
    return None


def _check_security_t1_nonzero():
    plan = _plan_t1_31()
    res = security_check(plan)
    if not res.ok:
        return "one-noise-term mixing failed on nonzero points"
    return None


def _check_security_t2_61():
    plan = _plan_t2_61()
    res = security_check(plan)
    if not res.ok:
        return "two-noise-term mixing failed on the 30-point deployment"
    return None


def _check_find_noise_free_31():
    plan = _plan_t0_31()
    supp_hat = product_class_support(plan.params)
    if not decodability_check(plan, supp_hat):
        return "base points (powers of 15) cannot solve the filtered support"
    mat = gv_matrix(plan.base_points, supp_hat, plan.ctx)
    if not is_mds(mat).ok:
        return "base-point evaluation matrix is not MDS on the filtered support"
    found = find_evaluation_vector(plan.params, plan.ctx, n_hypernodes=6, seed=0)
    if found.n_workers != 18:
        return f"search returned {found.n_workers} workers, wanted 18"
    return None


def _check_find_size_gate():
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


def _check_find_coprime_steps():
    for K, M, L, T, D, q in ((1, 2, 1, 2, 1, 13), (1, 3, 1, 2, 2, 31)):
        params = SchemeParams.mp(K, M, L, T, D)
        plan = find_evaluation_vector(params, make_field(q), seed=0)
        if not security_check(plan).ok:
            return f"found vector fails mixing at M={M},D={D}"
    return None


def _check_robustness_t0_numbers():
    plan = _plan_t0_31()
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


def _check_robustness_t1_erasures():
    import itertools
    plan = _plan_t1_31()
    ctx = plan.ctx
    rng = random.Random("sdmm-example-erasure")
    A = BlockMatrix.random(4, 3, ctx, rng)
    B = BlockMatrix.random(3, 4, ctx, rng)
    rep = threshold(plan.params)
    if (rep.N_prime, rep.P_prime) != (22, 7):
        return f"thresholds N'={rep.N_prime}, P'={rep.P_prime} != (22, 7)"
    for down in itertools.combinations(range(24), 2):
        sim = run_protocol(A, B, plan, stragglers=list(down), seed=0,
                           compute_counts=False)
        if not sim.decode_success:
            return f"straggler pair {down} failed with 22 survivors"
    return None


def _check_robustness_hypernode_rule():
    import itertools
    plan = _plan_t1_31()
    ctx = plan.ctx
    rng = random.Random("sdmm-example-hyper")
    A = BlockMatrix.random(4, 3, ctx, rng)
    B = BlockMatrix.random(3, 4, ctx, rng)
    parts = partition(A, B, 2, 3, 2)
    noise = random.Random("sdmm-example-noise")
    f = build_f(plan.params, parts, noise, ctx)
    g = build_g(plan.params, parts, noise, ctx)
    shares = {n: f.eval_sparse_horner(x).matmul(g.eval_sparse_horner(x))
              for n, x in enumerate(plan.worker_points)}
    expected = A.matmul(B)
    for keep in itertools.combinations(range(8), 7):
        resp = {n: shares[n] for p in keep for n in plan.hypernode_workers(p)}
        try:
            blocks = decode(resp, plan)
        except SdmmError:
            return f"7 complete hypernodes {keep} failed to decode"
        got = BlockMatrix.assemble(
            [[blocks[(k, l)] for l in range(2)] for k in range(2)], ctx)
        if got != expected:
            return f"7 complete hypernodes {keep} decoded the wrong product"
    failures = 0
    for keep in itertools.combinations(range(8), 6):
        resp = {n: shares[n] for p in keep for n in plan.hypernode_workers(p)}
        try:
            decode(resp, plan)
        except SdmmError:
            failures += 1
    if failures != 28:
        return f"only {failures}/28 bare 6-hypernode sets failed; 18 responses must not suffice"
    return None


def _check_robustness_t2_witness():
    plan = _plan_t2_61()
    supp = symbolic_support(plan.params)
    witness_points = [1, 2, 6, 7, 8, 9, 10, 13, 17, 19, 22, 24, 25, 26, 30,
                      31, 33, 38, 39, 42, 43, 47, 54, 56, 57]
    have = {x.index() for x in plan.worker_points}
    if not set(witness_points) <= have:
        return "frozen witness points are not a subset of the deployment"
    from . import _gauss
    mat = gv_matrix([plan.ctx.element(v) for v in witness_points], supp, plan.ctx)
    rank = _gauss.rank(mat.array, plan.ctx)
    if rank != 24:
        return f"frozen 25-point witness has rank {rank}, expected 24 (singular)"
    rec = mp_recovery_threshold_with_security(None, plan)
    if not (rec.upper_bound == 28 and rec.threshold == 28 and rec.certified):
        return (f"recovery report upper={rec.upper_bound}, threshold={rec.threshold}, "
                f"certified={rec.certified}; wanted certified 28 via the hypernode rule")
    if rec.witness is None or rec.witness.ok:
        return "exhaustive scan failed to surface a singular survivor set"
    return None


def _check_robustness_gapless():
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
    ("field", "primitive cube root of GF(7) is 2", _check_cube_root_gf7),
    ("field", "subgroups: order 10 in GF(31) from 15, order 20 in GF(61) from 8",
     _check_subgroups),
    ("field", "degree-6 filter over GF(7), M=3: keeps exponents 2 and 5",
     _check_mod_m_filter_gf7),
    ("field", "coefficient recovery at points (1,3) for exponents {2,5} over GF(7)",
     _check_interp_two_points_gf7),
    ("field", "gap-form evaluation matches naive evaluation over GF(7)",
     _check_horner_matches_naive),
    ("mp", "data polynomial support is {0..5} for K=2, M=3; product blocks line up",
     _check_data_poly_support),
    ("mp", "generic supports at K=2,M=3,L=2: T=1 -> {0..20,24}, T=2 -> {0..21,24,25,26}",
     _check_supports_t1_t2),
    ("mp", "K=2,M=3,L=2,T=3 layout: 8 hypernodes, 24 workers; T=0: N=12, any-14 erasure",
     _check_grid_2322_thresholds),
    ("mp", "filtered product at K=2,M=3,L=2,T=3 has support {2,5,8,11,14,17,20,26}",
     _check_transform_t3),
    ("mp", "closed forms equal the support-counting oracle on a spot grid",
     _check_closed_forms_spot_grid),
    ("ggasp", "flat layout at K=5,M=2,L=5,T=4: N(r=1..4)=(85,82,86,87), best r=2, deg 114",
     _check_ggasp_543),
    ("ggasp", "hypernode layout with D=1 also reaches N=82 at K=5,M=2,L=5,T=4",
     _check_mp_matches_at_543),
    ("ggasp", "flat noise-free threshold is KML+M-1", _check_noise_free_flat),
    ("security", "mixing fails for offsets (0,2) with M=2 (shared square) on any points",
     _check_security_gcd_failure),
    ("security", "one noise term: mixing holds whenever points are nonzero",
     _check_security_t1_nonzero),
    ("security", "30-point deployment over GF(61) passes the two-noise-term mixing check",
     _check_security_t2_61),
    ("find", "noise-free search over GF(31) validates the powers-of-15 deployment",
     _check_find_noise_free_31),
    ("find", "24-worker search refuses GF(13) (size gate) and succeeds over GF(169)",
     _check_find_size_gate),
    ("find", "search succeeds for coprime step sizes (M=2,D=1) and (M=3,D=2)",
     _check_find_coprime_steps),
    ("robustness", "noise-free decode rates: p(4)=1, p(5)=90/8568, p(6)=15/18564 exact",
     _check_robustness_t0_numbers),
    ("robustness", "T=1 deployment decodes all 276 two-straggler patterns",
     _check_robustness_t1_erasures),
    ("robustness", "hypernode-average decode needs 7 complete hypernodes; 6 never suffice",
     _check_robustness_hypernode_rule),
    ("robustness", "30-point deployment: a singular 25-survivor set exists; certified 28",
     _check_robustness_t2_witness),
    ("robustness", "gapless support on the 1x2x1 grid with T=2: threshold certified at 7",
     _check_robustness_gapless),
)

CATEGORIES = tuple(sorted({cat for cat, _, _ in EXAMPLES}))


# -- subcommands ---------------------------------------------------------------------


def cmd_verify_examples(args) -> int:
    if args.only and args.only not in CATEGORIES:
        raise SdmmError(f"unknown category {args.only!r}; choose from {CATEGORIES}")
    failures = 0
    ran = 0
    for cat, name, check in EXAMPLES:
        if args.only and cat != args.only:
            continue
        ran += 1
        detail = check()
        if detail is None:
            print(f"PASS [{cat}] {name}")
        else:
            failures += 1
            print(f"FAIL [{cat}] {name}: {detail}")
    print(f"{ran - failures}/{ran} checks passed")
    return 1 if failures else 0


def cmd_threshold(args) -> int:
    params = parse_scheme_spec(args.scheme)
    rep = threshold(params)
    if args.json:
        _emit(_json_text(rep.to_dict()), args.out)
    else:
        lines = [f"{k}: {v}" for k, v in rep.to_dict().items()]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    rows = rate_sweep(args.K, args.M, args.L, args.t_max, schemes)
    if args.json:
        payload = [dict(r, rate=str(r["rate"])) for r in rows]
        _emit(_json_text(payload), args.out)
    else:
        _emit(_sweep_csv(rows, args.seed, _config_hash(args)), args.out)
    return 0


def cmd_fixed_n_search(args) -> int:
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    rows = rate_sweep_fixed_n(args.workers, args.t_max, K_min=args.k_min,
                              L_min=args.l_min, M_min=args.m_min, schemes=schemes)
    if args.json:
        payload = [dict(r, rate=str(r["rate"])) for r in rows]
        _emit(_json_text(payload), args.out)
    else:
        _emit(_sweep_csv(rows, args.seed, _config_hash(args)), args.out)
    return 0


def cmd_find_eval(args) -> int:
    params = parse_scheme_spec(args.scheme)
    ctx = parse_field_spec(args.field)
    plan = find_evaluation_vector(
        params, ctx, n_hypernodes=args.hypernodes, n_workers=args.workers,
        subgroup=args.subgroup, attempts=args.attempts,
        minor_budget=args.budget, seed=args.seed,
        max_escalations=args.max_escalations)
    checks = ["field-size-gate", "nonzero-points", "decodability", "minor-scan"]
    if plan.base_points is not None:
        checks.insert(2, "distinct-power-classes")
    if params.T >= 1:
        checks.append("noise-mixing")
    out = {
        "field": plan.ctx.spec_string(),
        "scheme": params.spec_string(),
        "seed": args.seed,
        "zeta": _element_coeffs(plan.zeta) if plan.zeta is not None else None,
        "a": ([_element_coeffs(a) for a in plan.base_points]
              if plan.base_points is not None else None),
        "worker_points": [_element_coeffs(x) for x in plan.worker_points],
        "n_workers": plan.n_workers,
        "checks_passed": checks,
    }
    _emit(_json_text(out), args.out)
    return 0


def _build_instance(args, params, ctx):
    """Deterministic inputs and plan for simulate / p-of-s."""
    a0 = args.rows // params.K if args.rows else 2
    s0 = args.inner // params.M if args.inner else 2
    b0 = args.cols // params.L if args.cols else 2
    if args.rows and args.rows % params.K:
        raise SdmmError(f"--rows must be divisible by K={params.K}")
    if args.inner and args.inner % params.M:
        raise SdmmError(f"--inner must be divisible by M={params.M}")
    if args.cols and args.cols % params.L:
        raise SdmmError(f"--cols must be divisible by L={params.L}")
    if min(a0, s0, b0) < 1:
        raise SdmmError("matrix dimensions too small for the block grid")
    rng = random.Random(f"sdmm-input-{args.seed}")
    A = BlockMatrix.random(params.K * a0, params.M * s0, ctx, rng)
    B = BlockMatrix.random(params.M * s0, params.L * b0, ctx, rng)
    plan = find_evaluation_vector(
        params, ctx, n_hypernodes=args.hypernodes, n_workers=args.workers,
        seed=args.seed)
    return A, B, plan


def cmd_simulate(args) -> int:
    params = parse_scheme_spec(args.scheme)
    ctx = parse_field_spec(args.field)
    A, B, plan = _build_instance(args, params, ctx)
    rep = run_protocol(A, B, plan, stragglers=args.stragglers, seed=args.seed,
                       compute_counts=not args.no_counts)
    if args.json:
        _emit(rep.to_json(include_timing=args.timing) + "\n", args.out)
    else:
        d = rep.to_dict(include_timing=args.timing)
        d.pop("plan")
        lines = [f"{k}: {v}" for k, v in d.items()]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_p_of_s(args) -> int:
    params = parse_scheme_spec(args.scheme)
    out = {"scheme": params.spec_string(), "S": args.S, "mode": args.mode}
    if args.mode == "bound":
        P = args.hypernodes or threshold(params).P_prime
        frac = p_of_s_lower_bound(params.K, params.M, params.L, P, args.S)
        out["hypernodes"] = P
    else:
        if not args.field:
            raise SdmmError("--field is required for decode-attempt modes")
        ctx = parse_field_spec(args.field)
        A, B, plan = _build_instance(args, params, ctx)
        frac = p_of_s_empirical(A, B, plan, args.S, mode=args.mode,
                                seed=args.seed, samples=args.samples)
        out["field"] = ctx.spec_string()
        out["n_workers"] = plan.n_workers
        out["seed"] = args.seed
        if args.mode == "mc":
            out["samples"] = args.samples
    out["p_of_s"] = str(frac)
    out["decimal"] = float(frac)
    _emit(_json_text(out), args.out)
    return 0


# -- parser --------------------------------------------------------------------------


def _add_common(sp, *, seed=True):
    sp.add_argument("--config", help="key=value config file; flags override")
    sp.add_argument("--out", help="write output to this file instead of stdout")
    if seed:
        sp.add_argument("--seed", type=int, default=0, help="deterministic seed")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sdmm",
        description="Coded matrix multiplication: thresholds, plans, simulation.")
    ap.add_argument("--version", action="version", version=f"sdmm {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify-examples", help="replay the frozen numeric checks")
    sp.add_argument("--only", help=f"run one category: {', '.join(CATEGORIES)}")
    _add_common(sp, seed=False)
    sp.set_defaults(func=cmd_verify_examples)

    sp = sub.add_parser("threshold", help="recovery thresholds for one scheme")
    sp.add_argument("--scheme", required=True,
                    help='e.g. "mp:K=2,M=3,L=2,T=3,D=1" or "ggasp:K=5,M=2,L=5,T=4,r=2"')
    sp.add_argument("--json", action="store_true", help="JSON instead of key: value")
    _add_common(sp, seed=False)
    sp.set_defaults(func=cmd_threshold)

    sp = sub.add_parser("sweep", help="threshold table over T for fixed K, M, L")
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--t-max", type=int, default=8)
    sp.add_argument("--schemes", default="mp,ggasp")
    sp.add_argument("--json", action="store_true", help="JSON rows instead of CSV")
    _add_common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("fixed-n-search",
                        help="best rates under a worker budget, per T")
    sp.add_argument("--workers", type=int, default=200, help="worker budget N")
    sp.add_argument("--t-max", type=int, default=8)
    sp.add_argument("--k-min", type=int, default=2)
    sp.add_argument("--l-min", type=int, default=2)
    sp.add_argument("--m-min", type=int, default=4)
    sp.add_argument("--schemes", default="mp,ggasp")
    sp.add_argument("--json", action="store_true", help="JSON rows instead of CSV")
    _add_common(sp)
    sp.set_defaults(func=cmd_fixed_n_search)

    sp = sub.add_parser("find-eval", help="search for a valid evaluation vector")
    sp.add_argument("--scheme", required=True)
    sp.add_argument("--field", required=True, help='e.g. "31" or "13^2"')
    sp.add_argument("--hypernodes", type=int, help="deploy this many hypernodes")
    sp.add_argument("--workers", type=int, help="deploy this many workers (flat layout)")
    sp.add_argument("--subgroup", default="off",
                    help='"off", "auto", or an explicit subgroup order')
    sp.add_argument("--attempts", type=int, default=200)
    sp.add_argument("--budget", type=int, default=200_000,
                    help="minor-scan budget per candidate")
    sp.add_argument("--max-escalations", type=int, default=0,
                    help="extension-degree escalations allowed")
    _add_common(sp)
    sp.set_defaults(func=cmd_find_eval)

    sp = sub.add_parser("simulate", help="one end-to-end run with stragglers")
    sp.add_argument("--scheme", required=True)
    sp.add_argument("--field", required=True)
    sp.add_argument("--stragglers", default="none",
                    help='"none", comma-separated indices, "random:S", or "prob:f"')
    sp.add_argument("--rows", type=int, help="rows of A (divisible by K)")
    sp.add_argument("--inner", type=int, help="inner dimension (divisible by M)")
    sp.add_argument("--cols", type=int, help="columns of B (divisible by L)")
    sp.add_argument("--hypernodes", type=int)
    sp.add_argument("--workers", type=int)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--timing", action="store_true",
                    help="include wall_time (breaks byte determinism)")
    sp.add_argument("--no-counts", action="store_true",
                    help="skip multiplication counting")
    _add_common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("p-of-s", help="decode probability under S stragglers")
    sp.add_argument("--scheme", required=True)
    sp.add_argument("--field", help="required for exhaustive/mc modes")
    sp.add_argument("-S", "--S", dest="S", type=int, required=True)
    sp.add_argument("--mode", choices=("exhaustive", "mc", "bound"), default="bound")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--hypernodes", type=int)
    sp.add_argument("--workers", type=int)
    sp.add_argument("--rows", type=int)
    sp.add_argument("--inner", type=int)
    sp.add_argument("--cols", type=int)
    _add_common(sp)
    sp.set_defaults(func=cmd_p_of_s)

    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _inject_config(argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (BudgetExceeded, BudgetExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for field_diag in getattr(exc, "diagnostics", {}).get("fields", []):
            if field_diag.get("gate"):
                print(f"  {field_diag['gate']}", file=sys.stderr)
        return 3
    except DecodeFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SdmmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
