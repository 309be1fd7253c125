"""Evaluation plans and the linear-algebra certificates behind them.

An EvaluationPlan fixes the field, the evaluation points handed to the
workers, and (for the modular layout) the root of unity and the grouping of
workers into hypernodes of M points sharing a base point. The checks in
this module certify a plan: decodability of an exponent set from a point
set, invertibility of every square minor (the MDS property, exhaustively or
by sampling), and the security condition that any T workers' noise
observations mix through an invertible matrix.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _gauss
from .errors import (
    BadSpec,
    BudgetExceeded,
    BudgetExhausted,
    NoSuchRoot,
    PlanInvalid,
    ShapeMismatch,
    ZeroEvaluationPoint,
)
from .fields import (
    FieldCtx,
    FieldElement,
    _element_of_order,
    is_primitive_root_of_unity,
    largest_coprime_subgroup_order,
    make_field,
    primitive_root_of_unity,
)
from .matpoly import BlockMatrix
from .schemes import GGASP, SchemeParams
from .thresholds import threshold, product_class_support, symbolic_support


def gv_matrix(points: Sequence[FieldElement], exponents: Sequence[int],
              ctx: FieldCtx) -> BlockMatrix:
    """Generalized Vandermonde matrix: entry (i, j) = points[j]^exponents[i]."""
    return BlockMatrix([[x.pow_(e) for x in points] for e in exponents], ctx)


@dataclass(frozen=True)
class EvaluationPlan:
    """Where each worker evaluates, and how workers group into hypernodes."""

    params: SchemeParams
    ctx: FieldCtx
    worker_points: tuple[FieldElement, ...]
    zeta: Optional[FieldElement] = None
    base_points: Optional[tuple[FieldElement, ...]] = None
    hypernode_of: Optional[tuple[int, ...]] = None

    @property
    def n_workers(self) -> int:
        return len(self.worker_points)

    @property
    def n_hypernodes(self) -> int:
        return len(self.base_points) if self.base_points else 0

    def hypernode_workers(self, p: int) -> tuple[int, ...]:
        """Worker indices of hypernode p, in subgroup power order."""
        M = self.params.M
        return tuple(range(p * M, (p + 1) * M))

    def summary(self) -> dict:
        out = {
            "field": self.ctx.spec_string(),
            "scheme": self.params.spec_string(),
            "n_workers": self.n_workers,
            "worker_points": [x.index() for x in self.worker_points],
        }
        if self.zeta is not None:
            out["zeta"] = self.zeta.index()
            out["base_points"] = [a.index() for a in self.base_points]
        return out


def mp_plan(params: SchemeParams, ctx: FieldCtx,
            base_points: Sequence[FieldElement],
            zeta: Optional[FieldElement] = None) -> EvaluationPlan:
    """Hypernode plan: worker p*M + m evaluates at zeta^m * a_p.

    Base points must be nonzero with pairwise distinct M-th powers, which
    makes all M * P worker points distinct.
    """
    M = params.M
    base_points = tuple(base_points)
    if zeta is None:
        zeta = primitive_root_of_unity(ctx, M)
    if not is_primitive_root_of_unity(zeta, M):
        raise PlanInvalid(f"zeta={zeta!r} is not a primitive {M}-th root of unity")
    for a in base_points:
        if a.is_zero():
            raise ZeroEvaluationPoint("base points must be nonzero")
    mth = [a.pow_(M) for a in base_points]
    if len(set(x.index() for x in mth)) != len(mth):
        raise PlanInvalid("base points must have pairwise distinct M-th powers")
    points = []
    hyper = []
    for p, a in enumerate(base_points):
        cur = a
        for m in range(M):
            points.append(cur if m == 0 else zeta.pow_(m) * a)
            hyper.append(p)
    return EvaluationPlan(params=params, ctx=ctx, worker_points=tuple(points),
                          zeta=zeta, base_points=base_points,
                          hypernode_of=tuple(hyper))


def ggasp_plan(params: SchemeParams, ctx: FieldCtx,
               worker_points: Sequence[FieldElement]) -> EvaluationPlan:
    """Flat plan: each worker has its own distinct nonzero evaluation point."""
    worker_points = tuple(worker_points)
    for x in worker_points:
        if x.is_zero():
            raise ZeroEvaluationPoint("worker points must be nonzero")
    if len(set(x.index() for x in worker_points)) != len(worker_points):
        raise PlanInvalid("worker points must be pairwise distinct")
    return EvaluationPlan(params=params, ctx=ctx, worker_points=worker_points)


@dataclass(frozen=True)
class MdsResult:
    """Outcome of a minor-invertibility scan.

    In "random" mode ok=True only means no singular minor was sampled; the
    mode field keeps that caveat attached to the result.
    """

    ok: bool
    mode: str
    checked: int
    total: int
    witness: Optional[tuple[int, ...]] = None


def is_mds(mat: BlockMatrix, mode: str = "exhaustive", budget: int = 10_000_000,
           samples: int = 1000, rng: Optional[random.Random] = None,
           chunk: int = 4096) -> MdsResult:
    """Check that every square minor of full height is invertible.

    mat is P x N with P <= N; the P x P minors are the column subsets. In
    exhaustive mode all comb(N, P) minors are visited unless that exceeds
    the budget, in which case BudgetExceeded suggests random mode. Random
    mode samples `samples` subsets with the supplied (or a fresh seeded)
    generator.
    """
    P, N = mat.rows, mat.cols
    if P > N:
        raise ShapeMismatch(f"matrix is {P}x{N}; needs at least as many columns as rows")
    if P == 0:
        return MdsResult(True, mode, 0, 1)
    total = math.comb(N, P)
    if mode == "exhaustive":
        if total > budget:
            raise BudgetExceeded(
                f"{total} minors exceed budget {budget}; use mode='random'")
        subsets = itertools.combinations(range(N), P)
        planned = total
    elif mode == "random":
        if rng is None:
            rng = random.Random(0)
        subsets = (tuple(sorted(rng.sample(range(N), P))) for _ in range(samples))
        planned = samples
    else:
        raise BadSpec(f"unknown mode {mode!r}")

    ctx = mat.ctx
    checked = 0
    if ctx.r == 1 and ctx.p < (1 << 31):
        base = mat.array[..., 0]
        buf = []
        for cols in subsets:
            buf.append(cols)
            if len(buf) == chunk:
                bad = _np_minor_scan(base, buf, ctx.p)
                checked += len(buf)
                if bad is not None:
                    return MdsResult(False, mode, checked, total, witness=bad)
                buf = []
        if buf:
            bad = _np_minor_scan(base, buf, ctx.p)
            checked += len(buf)
            if bad is not None:
                return MdsResult(False, mode, checked, total, witness=bad)
    else:
        for cols in subsets:
            sub = mat.array[:, list(cols)]
            checked += 1
            if not _gauss.is_invertible(sub, ctx):
                return MdsResult(False, mode, checked, total, witness=tuple(cols))
    assert checked == planned
    return MdsResult(True, mode, checked, total)


def _np_minor_scan(base: np.ndarray, col_sets, p: int) -> Optional[tuple[int, ...]]:
    idx = np.array(col_sets, dtype=np.intp)
    stack = np.transpose(base[:, idx], (1, 0, 2))
    ok = _gauss.batch_is_invertible(stack, p)
    if ok.all():
        return None
    return tuple(col_sets[int(np.flatnonzero(~ok)[0])])


def decodability_check(plan_or_points, exponents: Sequence[int],
                       ctx: Optional[FieldCtx] = None) -> bool:
    """Can coefficients on these exponents be solved from these evaluations?

    The first argument is either an EvaluationPlan (its hypernode base
    points when it has them, its worker points otherwise) or a raw sequence
    of evaluation points plus an explicit field context. True iff the
    generalized Vandermonde system has full column rank; with exactly as
    many points as exponents this is a determinant test, and a repeated
    point always fails it.
    """
    if isinstance(plan_or_points, EvaluationPlan):
        plan = plan_or_points
        ctx = plan.ctx
        points = plan.base_points if plan.base_points else plan.worker_points
    else:
        if ctx is None:
            raise BadSpec("raw evaluation points need a field context")
        points = [x if isinstance(x, FieldElement) else ctx.element(x)
                  for x in plan_or_points]
    exps = list(exponents)
    if len(points) < len(exps):
        return False
    return _gauss.rank(gv_matrix(points, exps, ctx).array, ctx) == len(exps)


@dataclass(frozen=True)
class SecurityResult:
    ok: bool
    sigma_a: MdsResult
    sigma_b: MdsResult


def security_matrices(plan: EvaluationPlan) -> tuple[BlockMatrix, BlockMatrix]:
    """Noise observation maps: T x N matrices for the f and g noise blocks.

    Row t, column n holds x_n^(K*M*L + alpha_t) (resp. beta_t): the factor
    by which noise block t reaches worker n.
    """
    params = plan.params
    if params.T < 1:
        raise BadSpec("no noise terms at T=0; nothing to check")
    for x in plan.worker_points:
        if x.is_zero():
            raise ZeroEvaluationPoint("zero evaluation point leaks its data share")
    base = params.KML
    sig_a = gv_matrix(plan.worker_points, [base + a for a in params.alpha()], plan.ctx)
    sig_b = gv_matrix(plan.worker_points, [base + b for b in params.beta()], plan.ctx)
    return sig_a, sig_b


def security_check(plan: EvaluationPlan, mode: str = "exhaustive",
                   budget: int = 10_000_000, samples: int = 1000,
                   rng: Optional[random.Random] = None) -> SecurityResult:
    """Certify that any T workers observe their noise through invertible maps.

    Checks every T x T minor of both noise observation matrices; when each
    minor is invertible, the T colluding shares are one-time padded by the
    uniform noise blocks.
    """
    sig_a, sig_b = security_matrices(plan)
    res_a = is_mds(sig_a, mode=mode, budget=budget, samples=samples, rng=rng)
    res_b = is_mds(sig_b, mode=mode, budget=budget, samples=samples, rng=rng)
    return SecurityResult(res_a.ok and res_b.ok, res_a, res_b)


def _sample_distinct(ctx: FieldCtx, count: int, rng: random.Random,
                     generator: Optional[FieldElement], order: int):
    """Distinct nonzero points, either free or inside a cyclic subgroup."""
    if generator is None:
        seen = set()
        out = []
        while len(out) < count:
            x = ctx.random_element(rng, nonzero=True)
            if x.index() not in seen:
                seen.add(x.index())
                out.append(x)
        return out
    ks = rng.sample(range(order), count)
    return [generator.pow_(k) for k in ks]


def find_evaluation_vector(params: SchemeParams, ctx: FieldCtx,
                           n_hypernodes: Optional[int] = None,
                           n_workers: Optional[int] = None,
                           subgroup: str = "off",
                           attempts: int = 200,
                           minor_budget: int = 200_000,
                           seed: int = 0,
                           max_escalations: int = 0) -> EvaluationPlan:
    """Search for evaluation points making the scheme decodable and secure.

    The modular layout draws base points (optionally inside the largest
    subgroup whose order is coprime to M, subgroup="auto") and requires the
    hypernode interpolation matrix to be MDS plus the security check; the
    grouped layout draws flat worker points and requires full-support
    decodability plus security. A field too small to host the points fails
    immediately. When the attempt budget runs out, the search can escalate
    to GF(p^(r+1)) with doubled attempts, up to max_escalations times;
    exhaustion raises BudgetExhausted carrying per-field diagnostics.
    """
    modular = params.variant != GGASP
    rep = threshold(params)
    diagnostics = {"fields": [], "attempts": 0, "failures": {}}
    rng = random.Random(seed)

    for escalation in range(max_escalations + 1):
        field_diag = {"field": ctx.spec_string(), "attempts": 0,
                      "decode_failures": 0, "security_failures": 0, "gate": None}
        diagnostics["fields"].append(field_diag)
        try:
            plan_or_none = _search_one_field(
                params, ctx, rep, modular, n_hypernodes, n_workers, subgroup,
                attempts, minor_budget, rng, field_diag)
        except NoSuchRoot as exc:
            field_diag["gate"] = str(exc)
            plan_or_none = None
        diagnostics["attempts"] += field_diag["attempts"]
        if plan_or_none is not None:
            return plan_or_none
        if escalation < max_escalations:
            ctx = make_field(ctx.p, ctx.r + 1)
            attempts *= 2
    raise BudgetExhausted(
        f"no evaluation vector found after {diagnostics['attempts']} attempts",
        diagnostics=diagnostics)


def _search_one_field(params, ctx, rep, modular, n_hypernodes, n_workers,
                      subgroup, attempts, minor_budget, rng, diag):
    M = params.M
    if modular:
        count = n_hypernodes if n_hypernodes is not None else rep.P_prime
        needed_points = M * count
        target_exps = product_class_support(params)
        if len(target_exps) > count:
            diag["gate"] = (f"{count} hypernodes cannot determine "
                            f"{len(target_exps)} coefficients")
            return None
    else:
        count = n_workers if n_workers is not None else rep.N
        needed_points = count
        target_exps = symbolic_support(params)
        if len(target_exps) > count:
            diag["gate"] = (f"{count} workers cannot determine "
                            f"{len(target_exps)} coefficients")
            return None
    if ctx.order < needed_points + 1:
        diag["gate"] = (f"field of size {ctx.order} cannot host "
                        f"{needed_points} distinct nonzero points")
        return None

    zeta = primitive_root_of_unity(ctx, M) if modular else None  # may raise NoSuchRoot

    generator = None
    order = ctx.order - 1
    if subgroup == "auto":
        order = largest_coprime_subgroup_order(ctx, M)
        if order < count:
            diag["gate"] = (f"largest subgroup of order coprime to {M} has "
                            f"{order} elements, fewer than {count}")
            return None
        generator = _element_of_order(ctx, order)
    elif subgroup != "off":
        order = int(subgroup)
        if (ctx.order - 1) % order or order < count:
            diag["gate"] = f"subgroup order {order} unusable"
            return None
        generator = _element_of_order(ctx, order)

    for _ in range(attempts):
        diag["attempts"] += 1
        pts = _sample_distinct(ctx, count, rng, generator, order)
        try:
            if modular:
                if len(set(a.pow_(M).index() for a in pts)) != count:
                    diag["decode_failures"] += 1
                    continue
                plan = mp_plan(params, ctx, pts, zeta=zeta)
                dec = is_mds(gv_matrix(plan.base_points, target_exps, ctx),
                             budget=minor_budget)
            else:
                plan = ggasp_plan(params, ctx, pts)
                dec = is_mds(gv_matrix(plan.worker_points, target_exps, ctx),
                             budget=minor_budget)
            if not dec.ok:
                diag["decode_failures"] += 1
                continue
            if params.T >= 1:
                sec = security_check(plan, budget=minor_budget)
                if not sec.ok:
                    diag["security_failures"] += 1
                    continue
            return plan
        except BudgetExceeded:
            raise
        except PlanInvalid:
            diag["decode_failures"] += 1
            continue
    return None
