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
import sys
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

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
from .schemes import GGASP, SchemeParams, product_block_positions
from .thresholds import product_class_support, symbolic_support


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class EvaluationPlan:
    """Where each worker evaluates, and how workers group into hypernodes.

    Derived from the plan on first use and kept on it, so that every
    encode, decode and certificate slices arrays instead of recomputing them:
    - full_support and class_support, the supports of the product
      polynomial, and block_positions, the exponent of each product block;
    - power_table, the worker points' powers: the plan's one power ladder;
    - worker_table and base_table, the slices of it the decoder solves on
      (security_matrices reads two more);
    - worker_split and base_split, the decompositions of those tables that
      give each survivor set its decode coefficients;
    - hypernode_weights, the hypernode averaging weights.
    None of them is a field: equality, hash and summary() see only the
    points and params.
    """

    params: SchemeParams
    ctx: FieldCtx
    worker_points: tuple[FieldElement, ...]
    zeta: Optional[FieldElement] = None
    base_points: Optional[tuple[FieldElement, ...]] = None

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

    @cached_property
    def full_support(self) -> tuple[int, ...]:
        """Generic support of the product polynomial h (symbolic_support)."""
        return symbolic_support(self.params)

    @cached_property
    def class_support(self) -> tuple[int, ...]:
        """Support of h that survives the hypernode average."""
        return product_class_support(self.params)

    @cached_property
    def block_positions(self) -> Mapping[tuple[int, int], int]:
        """Read-only product_block_positions of the plan's grid: (k, l) -> exponent of h."""
        return MappingProxyType(product_block_positions(self.params.K, self.params.M,
                                                        self.params.L))

    @cached_property
    def power_table(self) -> np.ndarray:
        """Read-only worker_points[n]^e for e = 0 .. max(full_support), shape (N, E, r).

        Every exponent of f, g and h = f*g has its column, so encode reads
        f and g on the columns at their supports, and the decode and
        security tables are slices of this one ladder.
        """
        pts = _gauss.as_array([self.worker_points], self.ctx)[0]
        return _read_only(_gauss.powers(pts, range(self.full_support[-1] + 1), self.ctx))

    @cached_property
    def worker_table(self) -> np.ndarray:
        """Read-only worker_points[n]^full_support[j], shape (N, |full|, r): power_table columns."""
        return _read_only(self.power_table[:, self.full_support])

    @cached_property
    def base_table(self) -> np.ndarray:
        """Read-only base_points[p]^class_support[j], shape (P, |class|, r).

        Worker p*M + m evaluates at zeta^m * a_p (mp_plan), so worker p*M
        evaluates at a_p: the table is rows 0, M, 2M, ... of power_table at
        the class support. A flat plan has no base points and raises
        PlanInvalid.
        """
        if self.base_points is None:
            raise PlanInvalid("a flat plan has no base points")
        rows = self.power_table[::self.params.M][:self.n_hypernodes]
        return _read_only(rows[:, self.class_support])

    @cached_property
    def worker_split(self) -> Optional[np.ndarray]:
        """[G_t; K] of worker_table, for full interpolation (see _split)."""
        return _split(self, self.worker_table, self.full_support)

    @cached_property
    def base_split(self) -> Optional[np.ndarray]:
        """[G_t; K] of base_table, for the hypernode route (see _split)."""
        return _split(self, self.base_table, self.class_support)

    @cached_property
    def hypernode_weights(self) -> np.ndarray:
        """Read-only zeta^m / M for m < M, shape (M, r): the hypernode average.

        A flat plan has no subgroup and raises PlanInvalid.
        """
        if self.zeta is None:
            raise PlanInvalid("a flat plan has no hypernodes")
        M = self.params.M
        return _read_only(_gauss.as_array([[self.zeta.pow_(m) / M for m in range(M)]],
                                          self.ctx)[0])

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


def _split(plan: EvaluationPlan, table: np.ndarray,
           support: Sequence[int]) -> Optional[np.ndarray]:
    """Read-only [G_t; K] of an (n, m, r) power table V; None without full column rank.

    G_t holds the rows of V's left inverse G (_gauss.decompose, whose flag
    is the rank test) at the product block exponents, in
    plan.block_positions order, and K V's n - m left kernel rows. A set
    missing the rows D has full column rank iff K[:, D] has rank |D|, and
    its decode coefficients follow from K[:, D] (protocol._set_operators).
    """
    targets = [support.index(e) for e in plan.block_positions.values()]
    (left,), (kernel,), (ok,) = _gauss.decompose(table[None], plan.ctx)
    return _read_only(np.concatenate([left[targets], kernel])) if ok else None


def mp_plan(params: SchemeParams, ctx: FieldCtx,
            base_points: Sequence[FieldElement],
            zeta: Optional[FieldElement] = None) -> EvaluationPlan:
    """Hypernode plan: worker p*M + m evaluates at zeta^m * a_p.

    Base points must be nonzero with pairwise distinct M-th powers, which
    makes all M * P worker points distinct. Points or a zeta from another
    field raise ShapeMismatch.
    """
    M = params.M
    base_points = tuple(base_points)
    if zeta is None:
        zeta = primitive_root_of_unity(ctx, M)
    _gauss.as_array([base_points + (zeta,)], ctx)  # a foreign point raises ShapeMismatch
    if not is_primitive_root_of_unity(zeta, M):
        raise PlanInvalid(f"zeta={zeta!r} is not a primitive {M}-th root of unity")
    for a in base_points:
        if a.is_zero():
            raise ZeroEvaluationPoint("base points must be nonzero")
    mth = [a.pow_(M) for a in base_points]
    if len(set(x.index() for x in mth)) != len(mth):
        raise PlanInvalid("base points must have pairwise distinct M-th powers")
    points = tuple(zeta.pow_(m) * a for a in base_points for m in range(M))
    return EvaluationPlan(params=params, ctx=ctx, worker_points=points,
                          zeta=zeta, base_points=base_points)


def ggasp_plan(params: SchemeParams, ctx: FieldCtx,
               worker_points: Sequence[FieldElement]) -> EvaluationPlan:
    """Flat plan: each worker has its own distinct nonzero evaluation point.

    Points from another field raise ShapeMismatch.
    """
    worker_points = tuple(worker_points)
    _gauss.as_array([worker_points], ctx)  # a foreign point raises ShapeMismatch
    for x in worker_points:
        if x.is_zero():
            raise ZeroEvaluationPoint("worker points must be nonzero")
    if len(set(x.index() for x in worker_points)) != len(worker_points):
        raise PlanInvalid("worker points must be pairwise distinct")
    return EvaluationPlan(params=params, ctx=ctx, worker_points=worker_points)


_BATCH = 4096  # row sets or straggler patterns decided in one batched elimination


@dataclass(frozen=True)
class _Lex:
    """Every k-subset of range(n), iterated as sorted tuples in lexicographic order."""

    n: int
    k: int

    def __iter__(self):
        return itertools.combinations(range(self.n), self.k)


def _subsets(n: int, k: int, samples: Optional[int] = None, rng: Optional[random.Random] = None):
    """(sets, count) of k-subsets of range(n) as sorted tuples: a _Lex walk of all of them,
    or `samples` >= 1 sorted rng.sample draws. Minor scans and straggler walks read it."""
    if samples is None:
        return _Lex(n, k), math.comb(n, k)
    if samples < 1:
        raise BadSpec(f"sampling needs at least one sample, got {samples}")
    return (tuple(sorted(rng.sample(range(n), k))) for _ in range(samples)), samples


def _sized(sets):
    """(s, sets): the size the sets share (None when there are none), and the same sets."""
    if isinstance(sets, _Lex):
        return sets.k, sets
    first = next(sets := iter(sets), None)
    return (None, sets) if first is None else (len(first), itertools.chain([first], sets))


def _batches(sets, n: Optional[int] = None):
    """The sets, sorted sequences of one size s, as (count, s) intp arrays of at most _BATCH
    rows, or given n their complements in range(n) in reversed labels n - 1 - x, sorted, as
    (count, n - s) arrays.

    A _Lex walk of C < 2^63 k-subsets a of range(N) is unranked (Knuth, TAOCP 7.2.1.3) from
    rank(a) = C - 1 - sum_i C(N - 1 - a_i, k - i), binomials clipped at C; the r-th set's
    complement is the (C - 1 - r)-th, whose reversed labels b = N - 1 - a have colex rank
    sum_i C(b_i, k - i) = r. So the complements of a lex walk, a _Lex or any iterator of its
    sets, come out in colex order. Other sets are read as tuples, complemented by a scatter.
    """
    if isinstance(sets, _Lex) and math.comb(sets.n, sets.k) < 1 << 63:
        N, C, k = sets.n, math.comb(sets.n, sets.k), sets.k if n is None else sets.n - sets.k
        columns = [np.array([min(math.comb(b, k - i), C) for b in range(N)]) for i in range(k)]
        for lo in range(0, C, _BATCH):
            r = np.arange(lo, min(lo + _BATCH, C))
            left, out = C - 1 - (r if n is None else C - 1 - r), np.empty((len(r), k), np.intp)
            for i, column in enumerate(columns):
                b = column.searchsorted(left, side="right") - 1
                at, label = (i, N - 1 - b) if n is None else (k - 1 - i, b)
                left, out[:, at] = left - column[b], label
            yield out
        return
    sets = iter(sets)
    while chunk := list(itertools.islice(sets, _BATCH)):
        batch = np.fromiter(itertools.chain.from_iterable(chunk), np.intp,
                            len(chunk) * len(chunk[0])).reshape(len(chunk), -1)
        if n is not None:
            keep = np.ones((len(batch), n), bool)
            keep[np.arange(len(batch))[:, None], batch] = False
            batch = keep[:, ::-1].nonzero()[1].reshape(len(batch), -1)
        yield batch


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


def is_mds(table: np.ndarray, ctx: FieldCtx, mode: str = "exhaustive", budget: int = 10_000_000,
           samples: int = 1000, rng: Optional[random.Random] = None) -> MdsResult:
    """Check that every set of P points determines the P columns of table.

    table is point-major, (N, P, r) with P <= N, like EvaluationPlan.worker_table.
    Exhaustive mode walks all comb(N, P) point sets unless that exceeds the
    minor budget, in which case it raises BudgetExceeded; random mode draws
    `samples` sets with the supplied (or a fresh seeded) generator, both
    through _subsets. The witness is the first singular set, as point indices.
    singular_minors decides each set, square ones by Laplace expansion when small enough.
    """
    N, P = table.shape[:2]
    if P > N:
        raise ShapeMismatch(f"table has {N} points for {P} columns; needs at least as many")
    if mode not in ("exhaustive", "random"):
        raise BadSpec(f"unknown mode {mode!r}")
    subsets, planned = (_subsets(N, P) if mode == "exhaustive" else
                        _subsets(N, P, samples, random.Random(0) if rng is None else rng))
    if mode == "exhaustive" and planned > budget:
        raise BudgetExceeded(f"{planned} minors exceed the minor budget of {budget}")
    total = planned if mode == "exhaustive" else math.comb(N, P)
    for checked, rows in singular_minors(table, subsets, ctx):
        return MdsResult(False, mode, checked, total, witness=rows)
    return MdsResult(True, mode, planned, total)


def _colex_drops(cols: np.ndarray, choose: np.ndarray) -> np.ndarray:
    """Colex ranks, (t, count), of S minus S_i for each i and each sorted set S, a column of
    cols; choose[j, x] = C(x, j). S ranks sum_j C(S_j, j + 1), and S minus S_i moves each
    later S_j to place j - 1: sum_{j<i} C(S_j, j + 1) + sum_{j>i} C(S_j, j)."""
    out, before, after = np.empty_like(cols), 0, 0
    for i, c in enumerate(cols):
        out[i], before = before, before + choose[i + 1, c]
    for i in reversed(range(len(cols))):
        out[i], after = out[i] + after, after + choose[i, cols[i]]
    return out


def _sub_minors(wide: np.ndarray, c: int, ctx: FieldCtx, levels: Optional[list] = None):
    """(choose, levels) of the first c columns of a (k, n, r) array A: choose[j, x] = C(x, j)
    for j <= k, x < c, and for each t < k levels[t] = [sets, minors], the t-sets S of those
    columns in colex order as a (t, C(c, t)) array and det A[:t, S] up to sign at each rank,
    level 0 holding the empty minor 1. Colex ranks do not change as columns are added, so the
    levels of fewer columns grow in place: for each new top x, the first C(x, t - 1)
    (t - 1)-sets followed by x, expanded along row t - 1 of A. No sub-minor is computed twice."""
    k = len(wide)
    choose = np.array([[math.comb(x, j) for x in range(c)] for j in range(k + 1)], np.intp)
    if levels is None:
        levels = [[np.zeros((t, 0), np.intp), np.zeros((0, ctx.r), np.int64)] for t in range(k)]
        levels[0] = [np.zeros((0, 1), np.intp), np.eye(1, ctx.r, dtype=np.int64)]
    old = len(levels[1][1])
    for t in range(1, k):
        (sets, minors), counts = levels[t - 1], choose[t - 1, old:]
        first = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        cols = np.concatenate([sets[:, first], np.repeat(np.arange(old, c), counts)[None]])
        minors = _gauss.expand(wide[t - 1], cols, minors, _colex_drops(cols, choose), ctx)
        sets_t, minors_t = levels[t]
        levels[t] = [np.concatenate([sets_t, cols], 1), np.concatenate([minors_t, minors])]
    return choose, levels


def singular_minors(table: np.ndarray, subsets, ctx: FieldCtx):
    """Yield (checked, rows) for each row set of table without full column rank.

    table is point-major, (points, columns, r), like EvaluationPlan.worker_table;
    the sets in subsets are sorted, share one size, at least the column count,
    and a square set fails when its minor is singular. Sets are tested in the
    order given, in batches of _BATCH (_batches), so checked, the count of sets
    tested so far, runs to the end of the batch holding rows.

    A set S of s > n - m rows of an n x m table V of full column rank is
    decided by its complement T: both fail exactly when col(V) = ker(K)
    holds a nonzero vector inside T, for a K whose rows span V's left
    kernel, so S has full column rank iff the n - s columns T of K do. K
    is _gauss.decompose's, taken before the first batch; that side reads
    only complements, in K's columns right to left (_batches), unless K's
    flag says V lacks full column rank and every set is tested directly.

    On either side a square set (s = m) picks k columns S of the k x n
    matrix A the scan reads, V^T or K reversed, and is decided by
    det A[:, S] != 0, a Laplace expansion along A's last row over the
    sub-minors of its first k - 1 rows (_sub_minors, one table per scan) when
    k >= 2 and the sum_{t<k} C(c, t) sub-minors of the c columns the batch
    reads are at most k batches: the table then costs about one batch's
    memory and elimination. The whole table (c = n) is built at the first
    batch when it fits; else on the kernel side it grows to the columns
    each batch reads while they fit, growing prefixes for a lex walk's
    sets, whose complements come in colex order. Every other set goes to
    _gauss.batch_is_invertible.
    """
    n, m = table.shape[:2]
    (size, subsets), checked, kernel = _sized(subsets), 0, None
    if size is not None and n - size < m:
        _, (K,), (ok,) = _gauss.decompose(table[None], ctx)
        kernel = K if ok else None
    wide = table.swapaxes(0, 1) if kernel is None else kernel[:, ::-1]  # k columns: a square set
    k, levels = len(wide), None
    laplace = size == m and 1 < k

    def fits(c):  # the sub-minors of c columns are at most k batches
        return sum(math.comb(c, t) for t in range(k)) <= k * _BATCH

    grow = laplace and kernel is not None and not fits(n)
    for sets in _batches(subsets, None if kernel is None else n):
        checked += len(sets)
        c = sets[:, -1].max() + 1 if grow else n  # the columns the batch reads
        if laplace and fits(c):
            if levels is None or len(levels[1][1]) < c:
                choose, levels = _sub_minors(wide, c, ctx, levels)
            cols = sets.T.copy()
            ok = _gauss.expand(wide[k - 1], cols, levels[k - 1][1], _colex_drops(cols, choose),
                               ctx).any(-1)
        else:
            ok = _gauss.batch_is_invertible(table[sets] if kernel is None
                                            else wide[:, sets].swapaxes(0, 1), ctx)
        for i in np.flatnonzero(~ok):
            rows = (sets[i] if kernel is None  # else the complement of the complement tested
                    else np.flatnonzero(np.bincount(sets[i], minlength=n)[::-1] == 0))
            yield checked, tuple(rows.tolist())


def decodability_check(plan_or_points, exponents: Sequence[int],
                       ctx: Optional[FieldCtx] = None) -> bool:
    """Can coefficients on these exponents be solved from these evaluations?

    The first argument is either an EvaluationPlan (its hypernode base
    points when it has them, its worker points otherwise) or a raw sequence
    of evaluation points plus an explicit field context. True iff the
    generalized Vandermonde system has full column rank; with exactly as
    many points as exponents this is a determinant test, and a repeated
    point always fails it. Points from another field raise ShapeMismatch.
    """
    if isinstance(plan_or_points, EvaluationPlan):
        plan = plan_or_points
        ctx = plan.ctx
        points = plan.base_points if plan.base_points else plan.worker_points
    elif ctx is None:
        raise BadSpec("raw evaluation points need a field context")
    else:
        points = list(plan_or_points)
    exps = list(exponents)
    table = _gauss.powers(_gauss.as_array([points], ctx)[0], exps, ctx)
    return _gauss.rank(table, ctx) == len(exps)


@dataclass(frozen=True)
class SecurityResult:
    ok: bool
    sigma_a: MdsResult
    sigma_b: MdsResult


def security_matrices(plan: EvaluationPlan) -> tuple[np.ndarray, np.ndarray]:
    """Noise observation tables: point-major (N, T, r) for the f and g noise blocks.

    Row n, column t holds x_n^(K*M*L + alpha_t) (resp. beta_t): the factor
    by which noise block t reaches worker n, read from the columns of
    plan.power_table that encode multiplies that block by. Both are read-only.
    """
    params = plan.params
    if params.T < 1:
        raise BadSpec("no noise terms at T=0; nothing to check")
    for x in plan.worker_points:
        if x.is_zero():
            raise ZeroEvaluationPoint("zero evaluation point leaks its data share")
    return tuple(_read_only(plan.power_table[:, list(exps[-params.T:])])
                 for exps in params.exponents())


def security_check(plan: EvaluationPlan, budget: int = 10_000_000) -> SecurityResult:
    """Certify that any T workers observe their noise through invertible maps.

    Checks every T-worker minor of both noise observation tables, raising
    BudgetExceeded when either has more than budget minors; when each
    minor is invertible, the T colluding shares are one-time padded by the
    uniform noise blocks. Equal tables (every mp plan) share one scan.
    """
    sig_a, sig_b = security_matrices(plan)
    res_a = is_mds(sig_a, plan.ctx, budget=budget)
    res_b = res_a if np.array_equal(sig_b, sig_a) else is_mds(sig_b, plan.ctx, budget=budget)
    return SecurityResult(res_a.ok and res_b.ok, res_a, res_b)


def _sample_distinct(ctx: FieldCtx, count: int, rng: random.Random,
                     generator: Optional[FieldElement], order: int):
    """Distinct nonzero points, either free or inside a cyclic subgroup."""
    if generator is None:
        out = {}  # index -> point, in order of first draw
        while len(out) < count:
            x = ctx.random_element(rng, nonzero=True)
            out.setdefault(x.index(), x)
        return list(out.values())
    if order <= sys.maxsize:
        return [generator.pow_(k) for k in rng.sample(range(order), count)]
    ks = {}  # distinct exponents: sample takes no range longer than sys.maxsize
    while len(ks) < count:
        ks[rng.randrange(order)] = None
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

    The modular layout draws base points and requires the hypernode
    interpolation matrix to be MDS plus the security check; the grouped
    layout draws flat worker points and requires full-support decodability
    plus security. subgroup is "off" (any nonzero points), "auto" (the
    largest subgroup whose order is coprime to M) or a positive subgroup
    order such as "10". A field too small to host the points, or
    without the root of unity or the subgroup, fails immediately. When the
    attempt budget runs out, the search can escalate to GF(p^(r+1)) with
    doubled attempts, up to max_escalations times; exhaustion raises
    BudgetExhausted carrying per-field diagnostics. Each layout takes only
    its own count, n_hypernodes for the modular one and n_workers for the
    grouped one, which defaults to the number of coefficients to determine;
    the other count, a count below that number (no field can help it),
    another subgroup value, attempts or minor_budget below 1, or
    max_escalations below 0 raises BadSpec.
    """
    if attempts < 1 or minor_budget < 1 or max_escalations < 0:
        raise BadSpec(f"need attempts >= 1, minor_budget >= 1 and max_escalations >= 0, "
                      f"got {attempts}, {minor_budget} and {max_escalations}")
    modular = params.variant != GGASP
    name, other = ("n_hypernodes", "n_workers") if modular else ("n_workers", "n_hypernodes")
    given = {"n_hypernodes": n_hypernodes, "n_workers": n_workers}
    if given[other] is not None:
        raise BadSpec(f"{other} does not apply to the "
                      f"{'hypernode' if modular else 'grouped'} layout; set {name}")
    M = params.M
    n_coeffs = len(product_class_support(params) if modular else symbolic_support(params))
    count = given[name] if given[name] is not None else n_coeffs
    if count < n_coeffs:
        raise BadSpec(f"{count} {'hypernodes' if modular else 'workers'} cannot "
                      f"determine {n_coeffs} coefficients")
    if subgroup not in ("off", "auto") and not (str(subgroup).isdecimal()
                                                 and int(subgroup) >= 1):
        raise BadSpec(f'subgroup must be "off", "auto" or a positive order, got {subgroup!r}')
    needed_points = M * count if modular else count
    diagnostics = {"fields": [], "attempts": 0}
    rng = random.Random(seed)

    for escalation in range(max_escalations + 1):
        if escalation:
            ctx = make_field(ctx.p, ctx.r + 1)
            attempts *= 2
        diag = {"field": ctx.spec_string(), "attempts": 0,
                "decode_failures": 0, "security_failures": 0, "gate": None}
        diagnostics["fields"].append(diag)
        if ctx.order < needed_points + 1:
            diag["gate"] = (f"field of size {ctx.order} cannot host "
                            f"{needed_points} distinct nonzero points")
            continue
        try:
            zeta = primitive_root_of_unity(ctx, M) if modular else None
        except NoSuchRoot as exc:
            diag["gate"] = str(exc)
            continue
        order = ctx.order - 1
        if subgroup == "auto":
            order = largest_coprime_subgroup_order(ctx, M)
            if order < count:
                diag["gate"] = (f"largest subgroup of order coprime to {M} has "
                                f"{order} elements, fewer than {count}")
                continue
        elif subgroup != "off":
            order = int(subgroup)
            if (ctx.order - 1) % order or order < count:
                diag["gate"] = f"subgroup order {order} unusable"
                continue
        generator = _element_of_order(ctx, order) if subgroup != "off" else None

        for _ in range(attempts):
            diag["attempts"] += 1
            diagnostics["attempts"] += 1
            pts = _sample_distinct(ctx, count, rng, generator, order)
            try:
                plan = (mp_plan(params, ctx, pts, zeta=zeta) if modular
                        else ggasp_plan(params, ctx, pts))
            except PlanInvalid:
                diag["decode_failures"] += 1
                continue
            # scan the plan's cached (points, support) table, which its decodes reuse
            table = plan.base_table if modular else plan.worker_table
            if not is_mds(table, ctx, budget=minor_budget).ok:
                diag["decode_failures"] += 1
                continue
            if params.T >= 1 and not security_check(plan, budget=minor_budget).ok:
                diag["security_failures"] += 1
                continue
            return plan
    raise BudgetExhausted(
        f"no evaluation vector found after {diagnostics['attempts']} attempts",
        diagnostics=diagnostics)
