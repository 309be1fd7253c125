"""End-to-end runs: encode, farm out to workers, straggle, decode, audit.

The master splits A and B, builds the two masked encoding polynomials, and
hands worker n the pair (f(x_n), g(x_n)). Honest-but-curious workers return
the product of their shares; stragglers return nothing. The decoder
recovers every block of A @ B from the responses alone in two steps:
_prepare, the one reader of decode routes, lists the attempts of a batch of
straggler patterns, and _decode solves a pattern's. _audited checks every
decoded product against A @ B, a chunk of decodes in one comparison, and a
wrong one raises DecodeFailed. The report records exactly what was used:
which workers answered, whether decoding succeeded, a digest of the
assembled product, and the field-multiplication counts of each phase,
which costs prices from the plan, the share shapes and those attempts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

import numpy as np

from . import _gauss
from .errors import (
    BadSpec,
    DecodeFailed,
    InsufficientResponses,
    OutOfRange,
    PlanInvalid,
    ShapeMismatch,
    SingularSystem,
)
from .fields import FieldCtx, MultCounter
from .linalg import EvaluationPlan, MdsResult, _batches, _subsets, is_mds, singular_minors
from .matpoly import (BlockMatrix, evaluate, horner_cost, interpolate, interpolate_cost,
                      stack_blocks)
from .schemes import SchemeParams, build_f, build_g, partition
from .thresholds import _report_dict


# -- straggler selection -------------------------------------------------------------


def resolve_stragglers(spec, n_workers: int, rng: random.Random) -> tuple[int, ...]:
    """Worker indices that never respond, as a sorted tuple.

    Accepts None, "" or "none" (nobody straggles), an iterable of worker
    indices, a comma-separated index list, "random:S" (S distinct workers
    chosen uniformly), or "prob:f" (each worker independently straggles
    with probability f). An index that is not an integer (numpy integers
    are) or lies out of range is rejected with BadSpec.
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
            return next(_subsets(n_workers, count, 1, rng)[0])
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
    return tuple(_worker_indices(spec, n_workers, "straggler index"))


def _worker_indices(keys, n_workers: int, what: str) -> list[int]:
    """Sorted distinct worker indices; BadSpec for one not integral or outside [0, n_workers)."""
    try:
        idx = sorted(set(map(operator.index, keys)))
    except TypeError:
        raise BadSpec(f"unrecognized {what} in {keys!r}") from None
    if idx and not (0 <= idx[0] and idx[-1] < n_workers):
        raise BadSpec(f"{what} outside [0, {n_workers})")
    return idx


# -- encoding and decoding -----------------------------------------------------------


def encode(A: BlockMatrix, B: BlockMatrix, plan: EvaluationPlan,
           rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
    """The shares of every worker: the stacks of f(x_n) and of g(x_n), in worker order.

    Cuts A and B into the plan's two block grids (partition), builds f on
    A's and g on B's with noise blocks drawn from rng (those of f first),
    and evaluates both at every worker point on the columns of
    plan.power_table at their supports: residue stacks (N, a, s, r) and
    (N, s, b, r) for a x s blocks of A and s x b blocks of B. It counts
    nothing: costs prices encoding from the scheme's exponent layout.
    """
    params = plan.params
    a_blocks, b_blocks = partition(A, B, params.K, params.M, params.L)
    f, g = build_f(params, a_blocks, rng, plan.ctx), build_g(params, b_blocks, rng, plan.ctx)
    table = plan.power_table
    return evaluate(f, table[:, list(f.support())]), evaluate(g, table[:, list(g.support())])


class Responses(Mapping):
    """One plan's responses: read-only BlockMatrix views of a product stack's rows, by worker.

    workers: the sorted responding workers of plan's deployment; stack: their residues, row
    for row; attempts: None, or _prepare's list for the pattern. decode trusts the stack and
    the attempts on this plan object only (_stacked).
    """

    __slots__ = ("plan", "workers", "stack", "attempts")

    def __init__(self, plan: EvaluationPlan, workers: np.ndarray, stack: np.ndarray,
                 attempts: Optional[list] = None):
        workers.setflags(write=False)
        stack.setflags(write=False)
        self.plan, self.workers, self.stack, self.attempts = plan, workers, stack, attempts

    def __getitem__(self, n) -> BlockMatrix:
        i = self.workers.searchsorted(n) if isinstance(n, (int, np.integer)) else len(self)
        if i == len(self) or self.workers[i] != n:
            raise KeyError(n)
        return BlockMatrix._view(self.stack[i], self.plan.ctx)

    def __iter__(self):
        return iter(self.workers.tolist())

    def __len__(self) -> int:
        return len(self.workers)


def worker_products(shares: tuple[np.ndarray, np.ndarray], workers,
                    plan: EvaluationPlan) -> Responses:
    """The plan's Responses f(x_n) g(x_n) of the listed workers: one batched product of shares.

    ShapeMismatch unless encode's two stacks are plan.n_workers high.
    """
    F, G = shares
    if {len(F), len(G)} != {plan.n_workers}:
        raise ShapeMismatch(f"share stacks of {len(F)} and {len(G)} workers, not {plan.n_workers}")
    idx = np.array(_worker_indices(workers, plan.n_workers, "worker index"), dtype=np.intp)
    return Responses(plan, idx, _gauss.matmul(F[idx], G[idx], plan.ctx))


def _routes(plan: EvaluationPlan, s: int, spoiled) -> tuple:
    """Decode's count rule for patterns of s missing workers.

    s and spoiled, the number of hypernodes those workers spoil, are ints
    or arrays over patterns. Returns (hyper, short): whether the complete
    hypernodes left reach the P' that the averaged route needs (a flat
    plan has 0), in spoiled's shape, and whether the N - s responses fall
    short of the N' that full interpolation needs. _prepare gives a
    pattern that is short and not hyper no attempt.
    """
    short = plan.n_workers - s < len(plan.full_support)
    return plan.n_hypernodes - spoiled >= len(plan.class_support), short


def _set_operators(plan: EvaluationPlan, route: str, missing: np.ndarray) -> list:
    """Decode operators T of row sets of a route's table; None without full column rank.

    route is "worker" (plan.worker_table, full interpolation) or "base"
    (plan.base_table, the hypernode route), and missing is a (sets, d)
    array of the rows each set lacks. Let [G_t; K] be the plan's split of
    the n x m table and R the survivors' values with zero rows at the
    missing rows D. The survivors have full column rank iff K[:, D] has
    rank d, never when d > n - m, K's row count; then with K[:, D]'s G_D
    and K_D from one batched decompose the target coefficients are
    G_t R + C (K R), C = -G_t[:, D] G_D (one batched matmul), and the spare
    equations K_D (K R) = 0: erasure decoding by syndromes.
    T = [I, C; 0, K_D] [G_t; K] on the survivors' columns applies both:
    shape (K*L + n - m - d, n - d, r).
    """
    split = getattr(plan, f"{route}_split")
    n_targets = plan.params.K * plan.params.L
    sets, d = missing.shape
    if split is None or d > len(split) - n_targets:
        return [None] * sets
    ctx, n = plan.ctx, split.shape[1]
    left, kernel = split[:n_targets], split[n_targets:]
    G, K, ok = _gauss.decompose(kernel[:, missing].swapaxes(0, 1), ctx)
    C = _gauss.matmul(left[:, missing].swapaxes(0, 1), G, ctx)
    W = np.concatenate([-C % ctx.p, K], axis=1)
    rows = (~np.eye(n, dtype=bool)[missing].any(axis=1)).nonzero()[1].reshape(sets, n - d)
    T = []
    for lo in range(0, sets, 32):  # bounds the temporaries of n - d columns
        kept = split[:, rows[lo:lo + 32]].swapaxes(0, 1)
        chunk = _gauss.matmul(W[lo:lo + 32], kept[:, n_targets:], ctx)
        chunk[:, :n_targets] += kept[:, :n_targets]
        T.extend(chunk % ctx.p)
    return [t if good else None for t, good in zip(T, ok)]


def costs(plan: EvaluationPlan, shapes: tuple, attempts: list[tuple]) -> dict:
    """mult_counts: each phase's field multiplications in the scalar protocol (docs/formats.md).

    shapes are (n, a, s, b): n responses, each an a x s share of A times an
    s x b share of B; attempts are the pattern's routes, as _prepare alone reads them.
    """
    n, a, s, b = shapes
    f, g = plan.params.exponents()
    return {"encode": plan.n_workers * (horner_cost(f, a * s) + horner_cost(g, s * b)),
            "worker": n * a * s * b, "decode": _decode_price(plan, a * b, attempts)}


def _decode_price(plan: EvaluationPlan, rc: int, attempts: list[tuple]) -> int:
    """costs' decode entry for rc-element product blocks: every route attempted, singular or not."""
    price = {"base": (plan.params.M + 1) * rc + interpolate_cost(plan.class_support, rc),
             "worker": interpolate_cost(plan.full_support, rc), "check": 0}
    return sum(int(np.count_nonzero(rows)) * price[route] for route, rows, T in attempts)


def decode(responses: Mapping[int, BlockMatrix], plan: EvaluationPlan,
           counter: Optional[MultCounter] = None) -> dict:
    """All product blocks from worker responses: a Responses (worker_products) or any mapping.

    The hypernode route averages every hypernode whose M workers all responded against the
    root-of-unity powers and interpolates the filtered polynomial on its small support. When
    too few hypernodes are complete, or their system is singular, and on a flat plan, any
    |supp(h)| responses interpolate the full polynomial. The routes are the attempts of a
    Responses of this plan object, else _prepare, their one reader, lists them for the one
    pattern; counter, if given, is charged their _decode_price before _decode solves them.
    With no worker route InsufficientResponses is raised, else SingularSystem. BadSpec means
    a response key that is not an integer worker index, ShapeMismatch a response that is not
    a BlockMatrix or differs in shape or field. run_protocol and p_of_s_empirical audit
    every decode (_audited): a wrong product raises DecodeFailed.
    """
    order, stack, attempts = _stacked(responses, plan)
    if attempts is None:
        attempts = _prepare(plan, (np.bincount(order, minlength=plan.n_workers) == 0)[None])[0]
    if counter is not None and attempts:
        counter.add(_decode_price(plan, stack[0, ..., 0].size, attempts))
    coeffs = _decode(plan, order, stack, attempts)
    if coeffs is None:
        raise (SingularSystem("coefficient matrix is rank deficient")
               if any(route == "worker" for route, _, _ in attempts) else _shortfall(plan, order))
    return BlockMatrix._views(plan.block_positions, coeffs, plan.ctx)


def _decode(plan: EvaluationPlan, order: np.ndarray, stack: np.ndarray,
            attempts: list[tuple]) -> Optional[np.ndarray]:
    """The K*L coefficient stack of the attempts' first regular route; None if there is none.

    A route hands interpolate its rows of plan.worker_table or plan.base_table
    and a solver, _gauss.apply with its operator, which checks every spare
    equation: responses not of one polynomial raise InconsistentResponses.
    """
    ctx, M, KL = plan.ctx, plan.params.M, plan.params.K * plan.params.L
    coeffs = None
    for route, rows, T in attempts:
        if T is not None and route == "check":
            _gauss.apply(T, stack.reshape(len(order), -1, ctx.r), KL, ctx)
        elif T is not None:
            table, support, vals = plan.worker_table, plan.full_support, stack
            if route == "base":  # one weighted sum per complete hypernode
                members = stack.compress(rows.repeat(M)[order], axis=0)
                vals = _gauss.matmul(plan.hypernode_weights[None], members.reshape(
                    len(members) // M, M, -1, ctx.r), ctx).reshape((-1,) + stack.shape[1:])
                table, support = plan.base_table, plan.class_support
            coeffs = interpolate(table.take(rows.nonzero()[0], axis=0), vals, support, ctx,
                                 solver=lambda rhs, T=T: _gauss.apply(T, rhs, KL, ctx))
    return coeffs


def _stacked(responses: Mapping[int, BlockMatrix], plan: EvaluationPlan) -> tuple:
    """decode's one way in: sorted workers, stack (None if none), and attempts or None.

    A Responses of this plan object gives its stack and attempts as they
    stand. Any other mapping, a Responses of another plan included, has its
    keys and blocks checked (_worker_indices, stack_blocks) and no attempts.
    """
    if isinstance(responses, Responses) and responses.plan is plan:
        return responses.workers, responses.stack, responses.attempts
    order = _worker_indices(responses, plan.n_workers, "response key")
    stack = stack_blocks([responses[n] for n in order], plan.ctx) if order else None
    return np.array(order, dtype=np.intp), stack, None


def _shortfall(plan: EvaluationPlan, order: np.ndarray) -> InsufficientResponses:
    """decode's error when no route has enough data, naming what each route needs."""
    text = f"{len(order)} responses of {len(plan.full_support)} needed"
    if plan.base_points is not None:
        gone = (np.bincount(order, minlength=plan.n_workers) == 0)[None]
        text = (f"{(~_spoiled(plan, gone)).sum()} complete hypernodes of "
                f"{len(plan.class_support)} needed and {text}")
    return InsufficientResponses(f"have {text}")


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
    mult_counts: dict
    plan_summary: dict
    wall_time: Optional[float] = None

    def to_dict(self, include_timing: bool = False) -> dict:
        out = _report_dict(self, plan_summary="plan")
        if not include_timing:
            del out["wall_time"]
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)


def _product_blocks(product: BlockMatrix, plan: EvaluationPlan) -> np.ndarray:
    """The K x L blocks of a product as one residue stack, in plan.block_positions order."""
    a, b = product.rows // plan.params.K, product.cols // plan.params.L
    return np.array([product.array[k * a:(k + 1) * a, l * b:(l + 1) * b]
                     for k, l in plan.block_positions])


def _audited(chunk: Iterable[Mapping], plan: EvaluationPlan,
             expected: np.ndarray) -> list[Optional[dict]]:
    """decode's blocks for each mapping of responses in chunk, or None for too few responses
    or a singular system, an outcome and not an error. One comparison checks them all against
    expected (_product_blocks): a wrong product, a missing block or one of the wrong shape
    raises DecodeFailed, since that can only mean a defect.
    """
    decoded = []
    for responses in chunk:
        try:
            decoded.append(decode(responses, plan))
        except (InsufficientResponses, SingularSystem):
            decoded.append(None)
    done = [blocks for blocks in decoded if blocks is not None]
    got = [getattr(blocks.get(kl), "array", None) for blocks in done
           for kl in plan.block_positions]  # a missing block reads None and fails the comparison
    if done and not np.array_equal(got, np.tile(expected, (len(done), 1, 1, 1))):
        raise DecodeFailed("decoded product disagrees with the direct product")
    return decoded


def run_protocol(A: BlockMatrix, B: BlockMatrix, plan: EvaluationPlan,
                 stragglers=None, seed: int = 0) -> SimReport:
    """One full protocol run, audited against the direct product.

    The master encodes shares for every worker before knowing who will
    straggle. _prepare, the one reader of routes, lists the pattern's once:
    costs prices every phase from them, and the responses carry them to decode.
    The decoded product is checked block-for-block against A @ B computed
    directly (see _audited).
    Too many stragglers is not an error: the report simply records the
    failure to decode.
    """
    start = time.perf_counter()
    shares = encode(A, B, plan, random.Random(f"sdmm-noise-{seed}"))

    down = resolve_stragglers(stragglers, plan.n_workers, random.Random(f"sdmm-straggler-{seed}"))
    gone = np.zeros(plan.n_workers, dtype=bool)
    gone[list(down)] = True
    attempts = _prepare(plan, gone[None])[0]
    products = worker_products(shares, np.flatnonzero(~gone), plan)
    responses = Responses(plan, products.workers, products.stack, attempts)
    mult_counts = costs(plan, (len(responses), *shares[0].shape[1:3], shares[1].shape[2]), attempts)

    (blocks,) = _audited([responses], plan, _product_blocks(A.matmul(B), plan))
    product_hash = None
    if blocks is not None:
        product = assemble_product(blocks, plan.params, plan.ctx)
        product_hash = hashlib.sha256(product.to_text().encode("ascii")).hexdigest()
    return SimReport(
        seed=seed,
        scheme=plan.params.spec_string(),
        field=plan.ctx.spec_string(),
        n_workers=plan.n_workers,
        straggler_set=down,
        responses_used=len(responses),
        decode_success=blocks is not None,
        decoded_product_hash=product_hash,
        mult_counts=mult_counts,
        plan_summary=plan.summary(),
        wall_time=time.perf_counter() - start,
    )


# -- straggler-robustness estimates --------------------------------------------------

_CHUNK = 1 << 14  # survivor residues p_of_s_empirical gathers, decodes and audits at once


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
                     S: int, mode: str = "exhaustive", seed: int = 0,
                     samples: int = 1000) -> Fraction:
    """Fraction of size-S straggler patterns that actually decode.

    Encodes once, then runs the real decoder on the surviving responses of
    each pattern and audits the product as run_protocol does: a wrong
    product raises DecodeFailed rather than counting as a failure to
    decode. Mode "exhaustive" (the default) returns the exact fraction of
    all C(N, S) patterns and walks those with a route (one _routes call):
    all (linalg._subsets) when N - S responses reach N', else those that
    spoil a hyper count of hypernodes (_spoiling). Mode "mc" draws `samples`
    patterns through _subsets with a seeded generator and returns a sampled
    estimate, which the caller labels as one. Any other mode raises BadSpec.

    Patterns come in batches (linalg._batches), each one mask of missing workers
    whose attempts _prepare, the one reader of routes, lists: a drawn pattern
    without a route fails without a decode call. The rest are gathered from the
    shared response stack in chunks of _CHUNK residues, which bounds memory
    whatever the blocks or the batch, and decode as Responses carrying their
    attempts; _audited checks a chunk's decodes in one comparison.
    """
    if mode not in ("exhaustive", "mc"):
        raise BadSpec(f"unknown mode {mode!r}")
    N = plan.n_workers
    if not 0 <= S <= N:
        raise BadSpec(f"straggler count {S} outside [0, {N}]")

    shares = encode(A, B, plan, random.Random(f"sdmm-noise-{seed}"))
    stack = worker_products(shares, range(N), plan).stack
    expected = _product_blocks(A.matmul(B), plan)

    patterns, total = (_subsets(N, S) if mode == "exhaustive" else
                       _subsets(N, S, samples, random.Random(f"sdmm-pofs-{seed}")))
    hyper, short = _routes(plan, S, np.arange(plan.n_hypernodes + 1))
    if mode == "exhaustive" and short:
        patterns = _spoiling(plan, S, (group for k in np.flatnonzero(hyper).tolist()
                                       for group in _subsets(plan.n_hypernodes, k)[0]))

    successes, step = 0, max(1, _CHUNK // (stack[S:].size + 1))
    for down in _batches(patterns):
        gone = np.zeros((len(down), N), dtype=bool)
        np.put_along_axis(gone, down, True, axis=1)
        kept, prepared = (~gone).nonzero()[1].reshape(len(down), N - S), _prepare(plan, gone)
        for lo in range(0, len(down), step):
            rows = kept[lo:lo + step]
            chunk = (Responses(plan, workers, values, attempts) for workers, values, attempts
                     in zip(rows, stack[rows], prepared[lo:lo + step]) if attempts)
            successes += sum(blocks is not None for blocks in _audited(chunk, plan, expected))
    return Fraction(successes, total)


def _spoiling(plan: EvaluationPlan, s: int, groups):
    """The sorted s-subsets of workers that spoil exactly each group, a sorted hypernode tuple."""
    M = plan.params.M
    for group in groups:
        pool = [n for p in group for n in plan.hypernode_workers(p)]
        for down in itertools.combinations(pool, s):
            if len({n // M for n in down}) == len(group):
                yield down


def _spoiled(plan: EvaluationPlan, gone: np.ndarray) -> np.ndarray:
    """(patterns, P): the hypernodes (worker n is in n // M) that a (patterns, N) mask spoils."""
    P, M = plan.n_hypernodes, plan.params.M  # a boolean matmul ORs the M: any() is slower here
    return gone[:, :P * M].reshape(len(gone), P, M) @ np.ones(M, dtype=bool)


def _prepare(plan: EvaluationPlan, gone: np.ndarray) -> list[list[tuple]]:
    """decode's attempts for each row of a (patterns, N) mask of missing workers: the one reader.

    A pattern's list holds (route, rows, T) in decode order: "base" (the
    hypernode average) when the count rule (_routes) makes it hyper, then
    "worker" (full interpolation) when its responses reach N', or "check"
    (the worker table's spare equations on the raw responses) after a
    regular base. rows masks the table rows read: the complete hypernodes
    (_spoiled) or the responses. T, None when singular, is the operator of
    the rows lost (_set_operators: one call per route and count, one T per
    distinct set); its rows past the K*L targets are the spare equations.
    """
    spoiled = _spoiled(plan, gone)
    counts, sizes = spoiled.sum(axis=1), gone.sum(axis=1)
    hyper, short = _routes(plan, sizes, counts)
    attempts = [[] for _ in range(len(gone))]
    for route, lost, taken, lost_count in (("base", spoiled, hyper, counts),
                                           ("worker", gone, ~short, sizes)):
        set_keys = lost.view(f"V{lost.shape[1]}").ravel()  # each pattern's lost rows as bytes
        for k in set(lost_count[taken].tolist()):  # one _set_operators call per count lost
            at = (taken & (lost_count == k)).nonzero()[0]
            keys = set_keys[at].tolist()
            last = dict(zip(keys, at.tolist()))  # one pattern stands for each set of rows lost
            sets = lost.take(list(last.values()), axis=0)
            operators = _set_operators(plan, route, sets.nonzero()[1].reshape(len(sets), k))
            found = dict(zip(last, zip(~sets, operators)))
            for i, key in zip(at.tolist(), keys):
                checks = route == "worker" and attempts[i] and attempts[i][0][2] is not None
                attempts[i].append(("check" if checks else route, *found[key]))
    return attempts


# -- recovery threshold of a secure deployment ---------------------------------------


@dataclass(frozen=True)
class RecoveryReport:
    """How many responses guarantee decoding for a deployed hypernode plan.

    upper_bound is the hypernode bound N - (P_deployed - P'): a survivor
    set that large keeps at least P' hypernodes complete. It is a recovery
    threshold when each such set decodes, by averaging its complete
    hypernodes or else by full interpolation; that is checked whenever the
    bound is reported as the threshold (see
    mp_recovery_threshold_with_security). threshold is the best response
    count established. certified says whether it is proven: by a gapless
    support, an exhaustive minor scan, or the checked hypernode bound.
    It is False when the threshold rests on a sampled scan, or when it is
    the hypernode bound and the check found a survivor set of that size
    that decodes by neither route (then upper_bound is no threshold of the
    plan) or would have exceeded its budget. mode is "closed-form" for a
    gapless support, "hypernode" when there are fewer workers than
    |supp(h)| (only the hypernode route exists), and otherwise the mode of
    the minor scan, whose outcome witness carries.
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
        out = _report_dict(self, witness="minor_scan")
        if self.witness is None:
            del out["minor_scan"]
        return out


def mp_recovery_threshold_with_security(params: Optional[SchemeParams],
                                        plan: EvaluationPlan,
                                        mode: str = "auto",
                                        budget: int = 10_000_000,
                                        samples: int = 10_000,
                                        seed: int = 0) -> RecoveryReport:
    """Response count guaranteeing decode for a deployed hypernode plan.

    When the generic support of h is an unbroken initial run, any
    |supp(h)| responses interpolate it, which certifies that count
    directly. Otherwise the full-interpolation count holds only if every
    |supp(h)|-column minor of the worker evaluation matrix is invertible;
    that is scanned exhaustively when the count of minors fits the budget
    (certification) and sampled otherwise (evidence, not certification).

    When that count is unavailable (a singular minor, or more than the
    hypernode bound) the threshold is the bound N - (P_deployed - P'):
    each missing worker spoils at most one hypernode, so P' stay complete.
    The bound is certified only when every survivor set of its size
    decodes. The check groups the sets by the k hypernodes they spoil and
    scans k down from P_deployed - P': a group whose complete hypernodes
    give a rank-deficient filtered system must give a full-rank
    full-interpolation system, and the scan stops at the first k with no
    such group. The first k is the P'-minors of the base points, so base
    points that are MDS on the filtered support, as find_evaluation_vector
    certifies and mp_plan does not, need that one scan. budget caps the
    number of groups scanned; if a set fails, or the scan would pass the
    budget, the bound is reported uncertified.
    """
    if params is None:
        params = plan.params
    elif params != plan.params:
        raise BadSpec("params disagree with the plan's parameters")
    if plan.base_points is None:
        raise PlanInvalid("recovery analysis needs a hypernode plan")
    if mode not in ("auto", "exhaustive", "random"):
        raise BadSpec(f"unknown mode {mode!r}")

    p_prime = len(plan.class_support)
    supp = plan.full_support
    n_prime = len(supp)
    p_deployed = plan.n_hypernodes
    if p_deployed < p_prime:
        raise PlanInvalid(
            f"{p_deployed} hypernodes deployed but {p_prime} are needed")
    upper = plan.n_workers - (p_deployed - p_prime)
    gapless = supp[-1] == n_prime - 1

    scan = None
    use_mode = "closed-form" if gapless else "hypernode"
    if not gapless and n_prime <= plan.n_workers:
        total = math.comb(plan.n_workers, n_prime)
        use_mode = mode
        if mode == "auto":
            use_mode = "exhaustive" if total <= budget else "random"
        rng = random.Random(f"sdmm-recovery-{seed}")
        scan = is_mds(plan.worker_table, plan.ctx, mode=use_mode, budget=budget,
                      samples=samples, rng=rng)
    if n_prime <= upper and (gapless or scan.ok):
        thresh, certified = n_prime, use_mode != "random"
    else:
        thresh = upper
        certified = _hypernode_bound_holds(plan, budget)
    return RecoveryReport(
        n_workers=plan.n_workers, n_hypernodes=p_deployed,
        p_prime=p_prime, n_prime=n_prime, upper_bound=upper,
        gapless=gapless, threshold=thresh, certified=certified,
        mode=use_mode, witness=scan)


def _hypernode_bound_holds(plan: EvaluationPlan, budget: int) -> bool:
    """Whether every survivor set of the hypernode bound's size decodes.

    The spare = P_deployed - P' stragglers of such a set spoil k <= spare
    hypernodes. Levels k run down as mp_recovery_threshold_with_security
    describes: a group whose remaining rows of plan.base_table lack full
    column rank needs full column rank on the plan.worker_table rows of
    each survivor set that spoils exactly it (_spoiling). A lower k adds
    rows to every remainder, so a level without such a group ends the scan.
    No scan runs out of levels: were all of base_table deficient, so would
    every worker set be (worker p*M + m's class-support entries are zeta^-m
    times base_table's row p), and the first level would have failed.
    """
    P = plan.n_hypernodes
    spare = P - len(plan.class_support)
    scanned = 0
    for k in range(spare, -1, -1):
        rests, count = _subsets(P, P - k)
        scanned += count
        if scanned > budget:
            return False
        deficient = [rest for _, rest in singular_minors(plan.base_table, rests, plan.ctx)]
        if not deficient:
            break
        # a set spoiling fewer than k hypernodes falls in a later level
        groups = (tuple(p for p in range(P) if p not in rest) for rest in deficient)
        keeps = ([n for n in range(plan.n_workers) if n not in down]
                 for down in _spoiling(plan, spare, groups))
        for _ in singular_minors(plan.worker_table, keeps, plan.ctx):
            return False
    return True
