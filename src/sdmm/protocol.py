"""End-to-end runs: encode, farm out to workers, straggle, decode, audit.

The master splits A and B, builds the two masked encoding polynomials, and
hands worker n the pair (f(x_n), g(x_n)). Honest-but-curious workers return
the product of their shares; stragglers return nothing. The decoder
recovers every block of A @ B from the responses alone, and the report
records exactly what was used: which workers answered, whether decoding
succeeded, a digest of the assembled product, and the field-multiplication
counts of each phase.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import (
    BadSpec,
    DecodeFailed,
    InsufficientResponses,
    OutOfRange,
    PlanInvalid,
    SingularSystem,
)
from .fields import FieldCtx, MultCounter
from .linalg import EvaluationPlan, MdsResult, gv_matrix, is_mds
from .matpoly import BlockMatrix, MatPoly, interpolate
from .schemes import (
    SchemeParams,
    build_f,
    build_g,
    partition,
    product_block_positions,
)
from .thresholds import product_class_support, symbolic_support, threshold


# -- straggler selection -------------------------------------------------------------


def resolve_stragglers(spec, n_workers: int, rng: random.Random) -> tuple[int, ...]:
    """Worker indices that never respond, as a sorted tuple.

    Accepts None, "" or "none" (nobody straggles), an iterable of worker
    indices, a comma-separated index list, "random:S" (S distinct workers
    chosen uniformly), or "prob:f" (each worker independently straggles
    with probability f). Out-of-range indices are rejected.
    """
    if spec is None:
        return ()
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text in ("", "none"):
            return ()
        if text.startswith("random:"):
            try:
                count = int(text.split(":", 1)[1])
            except ValueError:
                raise BadSpec(f"bad straggler count in {spec!r}")
            if not 0 <= count <= n_workers:
                raise BadSpec(f"straggler count {count} outside [0, {n_workers}]")
            return tuple(sorted(rng.sample(range(n_workers), count)))
        if text.startswith("prob:"):
            try:
                prob = float(text.split(":", 1)[1])
            except ValueError:
                raise BadSpec(f"bad straggler probability in {spec!r}")
            if not 0.0 <= prob <= 1.0:
                raise BadSpec(f"straggler probability {prob} outside [0, 1]")
            return tuple(n for n in range(n_workers) if rng.random() < prob)
        try:
            spec = [int(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise BadSpec(f"unrecognized straggler spec {spec!r}")
    try:
        idx = sorted(set(int(n) for n in spec))
    except (TypeError, ValueError):
        raise BadSpec(f"unrecognized straggler spec {spec!r}")
    if idx and not (0 <= idx[0] and idx[-1] < n_workers):
        raise BadSpec(f"straggler index outside [0, {n_workers})")
    return tuple(idx)


# -- decoding ------------------------------------------------------------------------


def _read_blocks(poly: MatPoly, params: SchemeParams) -> dict:
    positions = product_block_positions(params.K, params.M, params.L)
    return {kl: poly.coeff(e) for kl, e in positions.items()}


def decode_mp(responses: Mapping[int, BlockMatrix], plan: EvaluationPlan,
              counter: Optional[MultCounter] = None) -> dict:
    """All product blocks from worker responses under the hypernode layout.

    Preferred route: every hypernode whose M workers all responded is
    collapsed, by averaging against the root-of-unity powers, into a single
    evaluation of the filtered polynomial, which is then interpolated on
    its small support. When too few hypernodes are complete (or that system
    is singular), falls back to interpolating the full polynomial on its
    generic support, which any |supp(h)| responses permit. Raises
    InsufficientResponses when neither route has enough data.
    """
    params = plan.params
    M = params.M
    ctx = plan.ctx
    class_supp = product_class_support(params)
    full_supp = symbolic_support(params)

    complete = []
    if plan.base_points is not None:
        complete = [p for p in range(plan.n_hypernodes)
                    if all(n in responses for n in plan.hypernode_workers(p))]
    if len(complete) >= len(class_supp):
        inv_m = ctx.element(M).inv()
        zpow = [plan.zeta.pow_(m) for m in range(M)]
        pts, vals = [], []
        for p in complete:
            acc = None
            for m, n in enumerate(plan.hypernode_workers(p)):
                term = responses[n].scale(zpow[m], counter)
                acc = term if acc is None else acc + term
            pts.append(plan.base_points[p])
            vals.append(acc.scale(inv_m, counter))
        try:
            hhat = interpolate(pts, vals, class_supp, ctx, counter)
            return _read_blocks(hhat, params)
        except SingularSystem:
            pass  # fall through to the generic route
    if len(responses) >= len(full_supp):
        order = sorted(responses)
        pts = [plan.worker_points[n] for n in order]
        vals = [responses[n] for n in order]
        h = interpolate(pts, vals, full_supp, ctx, counter)
        return _read_blocks(h, params)
    raise InsufficientResponses(
        f"have {len(complete)} complete hypernodes of {len(class_supp)} needed "
        f"and {len(responses)} responses of {len(full_supp)} needed")


def decode_ggasp(responses: Mapping[int, BlockMatrix], plan: EvaluationPlan,
                 counter: Optional[MultCounter] = None) -> dict:
    """All product blocks by interpolating h on its generic support.

    Needs at least |supp(h)| responses; fewer make the block coefficients
    information-theoretically undetermined.
    """
    params = plan.params
    full_supp = symbolic_support(params)
    if len(responses) < len(full_supp):
        raise InsufficientResponses(
            f"have {len(responses)} responses of {len(full_supp)} needed")
    order = sorted(responses)
    pts = [plan.worker_points[n] for n in order]
    vals = [responses[n] for n in order]
    h = interpolate(pts, vals, full_supp, plan.ctx, counter)
    return _read_blocks(h, params)


def decode(responses: Mapping[int, BlockMatrix], plan: EvaluationPlan,
           counter: Optional[MultCounter] = None) -> dict:
    """Route to the hypernode or flat decoder based on the plan's layout."""
    if plan.base_points is not None:
        return decode_mp(responses, plan, counter)
    return decode_ggasp(responses, plan, counter)


def assemble_product(blocks: Mapping[tuple, BlockMatrix],
                     params: SchemeParams, ctx: FieldCtx) -> BlockMatrix:
    """Stitch the K x L grid of decoded blocks back into one matrix."""
    grid = [[blocks[(k, l)] for l in range(params.L)] for k in range(params.K)]
    return BlockMatrix.assemble(grid, ctx)


# -- simulation ----------------------------------------------------------------------


@dataclass(frozen=True)
class SimReport:
    """Everything observable about one protocol run.

    wall_time is measured but kept out of serialized output unless asked
    for, so that identical seeds give byte-identical reports.
    """

    seed: int
    scheme: str
    field: str
    n_workers: int
    straggler_set: tuple[int, ...]
    responses_used: int
    decode_success: bool
    decoded_product_hash: Optional[str]
    mult_counts: Optional[dict]
    plan_summary: dict
    wall_time: Optional[float] = None

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "seed": self.seed,
            "scheme": self.scheme,
            "field": self.field,
            "n_workers": self.n_workers,
            "straggler_set": list(self.straggler_set),
            "responses_used": self.responses_used,
            "decode_success": self.decode_success,
            "decoded_product_hash": self.decoded_product_hash,
            "mult_counts": self.mult_counts,
            "plan": self.plan_summary,
        }
        if include_timing:
            out["wall_time"] = self.wall_time
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)


def _shares(plan: EvaluationPlan, f: MatPoly, g: MatPoly,
            counter: Optional[MultCounter]) -> list:
    return [(f.eval_sparse_horner(x, counter), g.eval_sparse_horner(x, counter))
            for x in plan.worker_points]


def run_protocol(A: BlockMatrix, B: BlockMatrix, plan: EvaluationPlan,
                 stragglers=None, seed: int = 0,
                 compute_counts: bool = True) -> SimReport:
    """One full protocol run, audited against the direct product.

    The master encodes shares for every worker before knowing who will
    straggle, so the encode count covers all of them; only respondents
    contribute worker multiplications. A decode that produces any result
    is checked block-for-block against A @ B computed directly; a mismatch
    raises DecodeFailed since it can only mean a defect, never bad luck.
    Too many stragglers is not an error: the report simply records the
    failure to decode.
    """
    params = plan.params
    ctx = plan.ctx
    start = time.perf_counter()

    enc_counter = MultCounter() if compute_counts else None
    work_counter = MultCounter() if compute_counts else None
    dec_counter = MultCounter() if compute_counts else None

    noise_rng = random.Random(f"sdmm-noise-{seed}")
    parts = partition(A, B, params.K, params.M, params.L)
    f = build_f(params, parts, noise_rng, ctx)
    g = build_g(params, parts, noise_rng, ctx)
    shares = _shares(plan, f, g, enc_counter)

    straggler_rng = random.Random(f"sdmm-straggler-{seed}")
    down = set(resolve_stragglers(stragglers, plan.n_workers, straggler_rng))
    responses = {n: fa.matmul(gb, work_counter)
                 for n, (fa, gb) in enumerate(shares) if n not in down}

    success = True
    product_hash = None
    try:
        blocks = decode(responses, plan, dec_counter)
    except (InsufficientResponses, SingularSystem):
        success = False
    if success:
        product = assemble_product(blocks, params, ctx)
        if product != A.matmul(B):
            raise DecodeFailed("decoded product disagrees with the direct product")
        product_hash = hashlib.sha256(product.to_text().encode("ascii")).hexdigest()

    counts = None
    if compute_counts:
        counts = {"encode": enc_counter.count, "worker": work_counter.count,
                  "decode": dec_counter.count}
    return SimReport(
        seed=seed,
        scheme=params.spec_string(),
        field=ctx.spec_string(),
        n_workers=plan.n_workers,
        straggler_set=tuple(sorted(down)),
        responses_used=len(responses),
        decode_success=success,
        decoded_product_hash=product_hash,
        mult_counts=counts,
        plan_summary=plan.summary(),
        wall_time=time.perf_counter() - start,
    )


# -- straggler-robustness estimates --------------------------------------------------


def p_of_s_lower_bound(K: int, M: int, L: int, P: int, S: int) -> Fraction:
    """Chance that S uniform stragglers still leave a decodable response set.

    For the noiseless hypernode layout with P deployed hypernodes (N = M*P
    workers). Up to N - (K*M*L + M - 1) stragglers always decode, because
    enough responses remain to interpolate the whole product polynomial.
    Past that, counts the patterns that keep at least K*L hypernodes
    complete. Beyond N - K*M*L stragglers the survivors carry fewer values
    than there are blocks, so no estimate applies and OutOfRange is raised.
    """
    if min(K, M, L, P) < 1 or S < 0:
        raise BadSpec("need K, M, L, P >= 1 and S >= 0")
    if P < K * L:
        raise BadSpec(f"deployment of {P} hypernodes cannot reach the {K * L} needed")
    N = M * P
    KML = K * M * L
    if S > N - KML:
        raise OutOfRange(
            f"{S} stragglers leave fewer than {KML} responses; no bound applies")
    if S <= N - (KML + M - 1):
        return Fraction(1)
    return Fraction(math.comb(P, K * L) * math.comb(N - KML, S), math.comb(N, S))


def p_of_s_empirical(A: BlockMatrix, B: BlockMatrix, plan: EvaluationPlan,
                     S: int, mode: str = "auto", seed: int = 0,
                     max_exhaustive: int = 1_000_000,
                     samples: int = 1000) -> Fraction:
    """Fraction of size-S straggler patterns that actually decode.

    Encodes once, then for each pattern runs the real decoder on the
    surviving responses and checks the assembled product against A @ B.
    Exhausts all C(N, S) patterns when that count is at most
    max_exhaustive (mode "auto") or always (mode "exhaustive"); otherwise
    draws `samples` patterns uniformly (mode "mc").
    """
    if mode not in ("auto", "exhaustive", "mc"):
        raise BadSpec(f"unknown mode {mode!r}")
    params = plan.params
    ctx = plan.ctx
    N = plan.n_workers
    if not 0 <= S <= N:
        raise BadSpec(f"straggler count {S} outside [0, {N}]")

    noise_rng = random.Random(f"sdmm-noise-{seed}")
    parts = partition(A, B, params.K, params.M, params.L)
    f = build_f(params, parts, noise_rng, ctx)
    g = build_g(params, parts, noise_rng, ctx)
    all_responses = {n: fa.matmul(gb)
                     for n, (fa, gb) in enumerate(_shares(plan, f, g, None))}
    expected = A.matmul(B)

    total = math.comb(N, S)
    if mode == "exhaustive" or (mode == "auto" and total <= max_exhaustive):
        patterns = itertools.combinations(range(N), S)
        attempts = total
    else:
        rng = random.Random(f"sdmm-pofs-{seed}")
        patterns = (tuple(sorted(rng.sample(range(N), S))) for _ in range(samples))
        attempts = samples

    successes = 0
    for down in patterns:
        down = set(down)
        survivors = {n: v for n, v in all_responses.items() if n not in down}
        try:
            blocks = decode(survivors, plan)
        except (InsufficientResponses, SingularSystem):
            continue
        if assemble_product(blocks, params, ctx) == expected:
            successes += 1
    return Fraction(successes, attempts)


# -- recovery threshold of a secure deployment ---------------------------------------


@dataclass(frozen=True)
class RecoveryReport:
    """How many responses guarantee decoding for a deployed hypernode plan.

    upper_bound always holds: losing that many workers kills at most
    enough hypernodes to leave the threshold number complete. threshold
    is the best response count established; certified says whether it is
    proven (gapless support, or an exhaustive minor scan) rather than
    sampled evidence. witness carries the minor scan outcome when one ran.
    """

    n_workers: int
    n_hypernodes: int
    p_prime: int
    n_prime: int
    upper_bound: int
    gapless: bool
    threshold: int
    certified: bool
    mode: str
    witness: Optional[MdsResult] = None

    def to_dict(self) -> dict:
        out = {
            "n_workers": self.n_workers,
            "n_hypernodes": self.n_hypernodes,
            "p_prime": self.p_prime,
            "n_prime": self.n_prime,
            "upper_bound": self.upper_bound,
            "gapless": self.gapless,
            "threshold": self.threshold,
            "certified": self.certified,
            "mode": self.mode,
        }
        if self.witness is not None:
            out["minor_scan"] = {
                "ok": self.witness.ok,
                "mode": self.witness.mode,
                "checked": self.witness.checked,
                "total": self.witness.total,
                "witness": list(self.witness.witness) if self.witness.witness else None,
            }
        return out


def mp_recovery_threshold_with_security(params: Optional[SchemeParams],
                                        plan: EvaluationPlan,
                                        mode: str = "auto",
                                        budget: int = 10_000_000,
                                        samples: int = 10_000,
                                        seed: int = 0) -> RecoveryReport:
    """Response count guaranteeing decode for a deployed hypernode plan.

    The fallback bound N - (P_deployed - P') always certifies: each missing
    worker spoils at most one hypernode. When the generic support of h is
    an unbroken initial run, any |supp(h)| responses interpolate it, which
    certifies that count directly. Otherwise the full-interpolation count
    holds only if every |supp(h)|-column minor of the worker evaluation
    matrix is invertible; that is scanned exhaustively when the count of
    minors fits the budget (certifying either |supp(h)| or, given a
    singular witness, the fallback bound), and sampled otherwise (evidence,
    not certification).
    """
    if params is None:
        params = plan.params
    elif params != plan.params:
        raise BadSpec("params disagree with the plan's parameters")
    if plan.base_points is None:
        raise PlanInvalid("recovery analysis needs a hypernode plan")
    if mode not in ("auto", "exhaustive", "random"):
        raise BadSpec(f"unknown mode {mode!r}")

    thr = threshold(params)
    supp = symbolic_support(params)
    n_prime = len(supp)
    p_deployed = plan.n_hypernodes
    if p_deployed < thr.P_prime:
        raise PlanInvalid(
            f"{p_deployed} hypernodes deployed but {thr.P_prime} are needed")
    upper = plan.n_workers - (p_deployed - thr.P_prime)
    gapless = supp[-1] == n_prime - 1

    if gapless:
        return RecoveryReport(
            n_workers=plan.n_workers, n_hypernodes=p_deployed,
            p_prime=thr.P_prime, n_prime=n_prime, upper_bound=upper,
            gapless=True, threshold=min(n_prime, upper), certified=True,
            mode="closed-form")

    total = math.comb(plan.n_workers, n_prime)
    use_mode = mode
    if mode == "auto":
        use_mode = "exhaustive" if total <= budget else "random"
    mat = gv_matrix(plan.worker_points, supp, plan.ctx)
    rng = random.Random(f"sdmm-recovery-{seed}")
    scan = is_mds(mat, mode=use_mode, budget=budget, samples=samples, rng=rng)
    if scan.ok:
        thresh, certified = min(n_prime, upper), use_mode == "exhaustive"
    else:
        thresh, certified = upper, True
    return RecoveryReport(
        n_workers=plan.n_workers, n_hypernodes=p_deployed,
        p_prime=thr.P_prime, n_prime=n_prime, upper_bound=upper,
        gapless=False, threshold=thresh, certified=certified,
        mode=use_mode, witness=scan)
