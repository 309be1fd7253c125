"""Recovery thresholds for the polynomial code schemes.

Two independent routes to every count live here. symbolic_support builds
the generic support of h = f*g directly from the exponent layout as a set
union; it is the oracle. The closed-form calculators never enumerate
exponents: each lists the handful of runs [lo, hi] that the layout produces,
in ascending order of lo, and _run_union merges them in one pass and counts
the union and its residues with floor arithmetic, so they run in O(L + T)
integer operations. Tests hold the two routes equal across the whole
parameter grid.

The modular layout decodes through the order-M subgroup: a hypernode of M
workers shares one base point and averages its responses, which strips all
exponents not congruent to M-1 mod M. Its threshold is therefore counted
in hypernodes (P) and the worker threshold is N = M*P. The grouped layout
interpolates the full support, so its threshold N equals the support size.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import BadSpec
from .schemes import GGASP, MP, SchemeParams


def symbolic_support(params: SchemeParams) -> tuple[int, ...]:
    """Generic support of h = f*g, enumerated from the exponent layout.

    Every coefficient of h is a sum of products of distinct input or noise
    blocks, so no cancellation can occur identically; the union below is
    exact for generic inputs.
    """
    K, M, L = params.K, params.M, params.L
    KM, KML = K * M, params.KML
    alpha, beta = params.alpha(), params.beta()
    s = set(range(0, KML + M - 1))
    for b in beta:
        s.update(range(KML + b, KML + KM + b))
    for a in alpha:
        for l in range(L):
            s.update(range(KML + l * KM + a, KML + l * KM + M + a))
    for a in alpha:
        for b in beta:
            s.add(2 * KML + a + b)
    return tuple(sorted(s))


def product_class_support(params: SchemeParams) -> tuple[int, ...]:
    """Members of the generic support congruent to M-1 mod M.

    These are the exponents that survive averaging over the order-M
    subgroup; the product blocks all live in this class.
    """
    M = params.M
    return tuple(e for e in symbolic_support(params) if (e + 1) % M == 0)


@dataclass(frozen=True)
class ThresholdReport:
    """Recovery thresholds and the scalars behind them.

    N is the worker threshold for the scheme's own decoding route; N_prime
    is the size of the generic support of h, i.e. the worker threshold for
    decoding by full interpolation. P (modular layout only) counts
    hypernodes, and P_prime counts the support members congruent to
    M-1 mod M in either layout. rate is K*M*L / N, exact.

    The remaining fields expose the intermediate quantities of the counting
    argument for the relevant layout; fields of the other layout are None.
    """

    params: SchemeParams
    N: int
    N_prime: int
    P_prime: int
    rate: Fraction
    P: Optional[int] = None
    delta: Optional[int] = None
    l0: Optional[int] = None
    t0: Optional[int] = None
    k0: Optional[int] = None
    U: Optional[int] = None
    r0: Optional[int] = None
    S_ell: Optional[tuple[int, ...]] = None
    V: Optional[int] = None

    def to_dict(self) -> dict:
        out = _report_dict(self, params="scheme")
        out["scheme"] = self.params.spec_string()
        out["rate"] = str(self.rate)
        out["S_ell"] = out.pop("S_ell")  # after V
        return {key: val for key, val in out.items() if val is not None}


def _report_dict(report, **keys) -> dict:
    """A report's dataclass fields as a dict, in field order, renamed by keys (field=key).

    Nested dataclasses become such dicts too, and tuples become lists.
    """
    out = asdict(report, dict_factory=lambda items: {
        key: list(val) if isinstance(val, tuple) else val for key, val in items})
    return {keys.get(name, name): val for name, val in out.items()}


def _run_union(runs, M: int) -> tuple[int, int]:
    """Size of the union of runs [lo, hi] and its members congruent to M-1 mod M.

    The runs must come in ascending order of lo, so one pass merges them;
    an empty run (hi < lo) adds nothing.
    """
    size = members = 0
    run_lo, run_hi = 0, -1
    for lo, hi in runs:
        if lo > run_hi + 1:
            size += run_hi + 1 - run_lo
            members += (run_hi + 1) // M - run_lo // M
            run_lo = lo
        if hi > run_hi:
            run_hi = hi
    return size + run_hi + 1 - run_lo, members + (run_hi + 1) // M - run_lo // M


def mp_threshold_closed_form(K: int, M: int, L: int, T: int, D: int = 1) -> ThresholdReport:
    """Thresholds for the modular layout alpha_t = beta_t = t*D.

    Counts the support classes over its runs: one long prefix from the
    data-by-data and data-by-g-noise products, one window per l from the
    f-noise-by-data products, and 2T-1 unit runs from the noise-by-noise
    products. The unit runs start at 2*K*M*L, past every window's start.
    """
    params = SchemeParams.mp(K, M, L, T, D)
    KM, KML = K * M, K * M * L
    if T == 0:
        return ThresholdReport(
            params=params, N=KML, N_prime=KML + M - 1, P_prime=K * L,
            rate=Fraction(KML, KML), P=K * L, delta=0, l0=0, t0=0, k0=0)

    span = (T - 1) * D
    runs = [(0, KML + KM - 1 + span)]
    runs += [(KML + l * KM, KML + l * KM + M - 1 + span) for l in range(L)]
    runs += [(2 * KML + t * D,) * 2 for t in range(2 * T - 1)]
    n_prime, p = _run_union(runs, M)

    # scalars of the counting argument
    l0 = min(1 + ((T - 1) * D - 1) // KM, L - 1)
    t0 = max(0, -((KM - M) // D) + T - 1)
    k0 = min(M + (T - 1) * D, KM)
    direct = sum(1 for t in range(t0, 2 * T - 1) if (2 * KML + t * D + 1) % M == 0)
    delta = direct - ((2 * T - 2 - t0) * D + 1) // (D * M)

    return ThresholdReport(
        params=params, N=M * p, N_prime=n_prime, P_prime=p,
        rate=Fraction(KML, M * p), P=p, delta=delta, l0=l0, t0=t0, k0=k0)


def _ggasp_support(K: int, M: int, L: int, T: int, r: int) -> tuple[list[int], int, int]:
    """Window widths S_l, support size and product-class count, grouped layout, T >= 1.

    The f-noise runs of length r at multiples of K*M, multiplied against
    the data windows of g and against the consecutive g-noise block, tile
    the region above the prefix into one window of width S_l starting at
    K*M*L + l*K*M per index l in [0, L+U].
    """
    U, r0 = divmod(T, r)
    S = [M + r - 1] * L + [max(M, T) + r - 1] * (U - 1)
    S.append((T + r - 1) if r0 == 0 else max(M + r0, T + r) - 1)
    S.append(0 if r0 == 0 else T + r0 - 1)
    KM, KML = K * M, K * M * L
    runs = [(0, KML + KM + T - 2)]
    runs += [(KML + l * KM, KML + l * KM + w - 1) for l, w in enumerate(S)]
    return (S, *_run_union(runs, M))


def _ggasp_threshold_bound(K, M, L, T):
    """An integer lb <= optimal_r(K, M, L, T).N for T >= 1 that follows the run length.

    At each r, _ggasp_support puts window l at a_l = KML + l*KM above the
    prefix [0, E], E = KML + KM + T - 2. The part of each window above E and
    below a_{l+1}, and all of the last nonempty window above E, are disjoint
    from each other and from the prefix, so E + 1 plus their sizes is at
    most the support size at r. A window of width w wholly above E gives
    min(w, KM) (w if it is the last), window s, which holds E + 1, gives
    that less its `gap` members at or below E, and the windows below s give
    nothing. The widths are S_l's four groups: L windows, U - 1, then the
    two tail windows, so each group sums in O(1). lb is the least sum over r;
    it equals N on every grid the tests try.

    K, M, L and T broadcast as integer arrays, and every r runs at once on a
    trailing axis, masked above min(KM, T); the result has their broadcast shape.
    """
    M, L, T, KM = (np.asarray(x)[..., None] for x in (M, L, T, np.multiply(K, M)))
    s = -((1 - T) // KM)  # ceil((T - 1) / KM)
    gap = T - 1 - (s - 1) * KM
    R = np.minimum(KM, T)
    r = np.arange(1, R.max() + 1)
    U, r0 = np.divmod(T, r)
    widths = (np.minimum(M + r - 1, KM), np.minimum(np.maximum(M, T) + r - 1, KM),
              np.where(r0, np.minimum(np.maximum(M + r0, T + r) - 1, KM), T + r - 1),
              np.where(r0, T + r0 - 1, 0))  # at r0 = 0, window L+U-1 is the last nonempty one
    ends = (L, L + U - 1, L + U, L + U + 1)  # one past each group's last window
    n, below, at_s = 0, s + 1, 0
    for c, end in zip(widths, ends):  # the windows above s
        end = np.maximum(end, s + 1)
        n, below = n + c * (end - below), end
    for c, end in zip(widths[::-1], ends[::-1]):  # window s's width
        at_s = np.where(s < end, c, at_s)
    least = np.where(r <= R, n + np.maximum(at_s - gap, 0), np.iinfo(np.int64).max).min(axis=-1)
    return (KM * L + KM + T - 1)[..., 0] + least


def ggasp_threshold_closed_form(K: int, M: int, L: int, T: int, r: int = 1) -> ThresholdReport:
    """Thresholds for the grouped layout with run length r.

    The support is one prefix run plus windows of width S_l at the
    multiples of K*M; the threshold is the size of their union, since this
    layout decodes by interpolating the full support.
    """
    params = SchemeParams.ggasp(K, M, L, T, r)
    if T == 0:
        n = params.KML + M - 1
        return ThresholdReport(
            params=params, N=n, N_prime=n, P_prime=K * L,
            rate=Fraction(params.KML, n), U=0, r0=0, S_ell=(), V=0, l0=0)
    return _ggasp_report(params, *_ggasp_support(K, M, L, T, r))


def _ggasp_report(params: SchemeParams, S: list[int], n: int, p_prime: int) -> ThresholdReport:
    """Report of the grouped layout from what _ggasp_support found for params.r."""
    K, M, L, T = params.K, params.M, params.L, params.T
    U, r0 = divmod(T, params.r)
    l0 = min(1 + (T - 2) // (K * M), L)
    V = (S[-2] if r0 == 0 else min(S[-2], K * M)) + S[-1]
    return ThresholdReport(
        params=params, N=n, N_prime=n, P_prime=p_prime,
        rate=Fraction(params.KML, n), U=U, r0=r0, S_ell=tuple(S), V=V, l0=l0)


def threshold_from_support(params: SchemeParams) -> ThresholdReport:
    """Thresholds for an arbitrary exponent layout, via the support oracle.

    Only full-support interpolation is assumed, so N = N_prime; no
    layout-specific counting is attached.
    """
    supp = symbolic_support(params)
    n = len(supp)
    p_prime = sum(1 for e in supp if (e + 1) % params.M == 0)
    return ThresholdReport(params=params, N=n, N_prime=n, P_prime=p_prime,
                           rate=Fraction(params.KML, n))


def threshold(params: SchemeParams) -> ThresholdReport:
    """Dispatch to the closed form matching the layout."""
    if params.variant == MP:
        return mp_threshold_closed_form(params.K, params.M, params.L, params.T, params.D)
    if params.variant == GGASP:
        return ggasp_threshold_closed_form(params.K, params.M, params.L, params.T, params.r)
    return threshold_from_support(params)


def optimal_r(K: int, M: int, L: int, T: int) -> ThresholdReport:
    """Best run length for the grouped layout: minimal N, ties to smaller r."""
    SchemeParams.ggasp(K, M, L, T)  # reject a bad grid before the range of r is empty
    if T == 0:
        return ggasp_threshold_closed_form(K, M, L, 0)
    supports = {r: _ggasp_support(K, M, L, T, r) for r in range(1, min(K * M, T) + 1)}
    r = min(supports, key=lambda r: supports[r][1])  # min keeps the first, smaller r
    return _ggasp_report(SchemeParams.ggasp(K, M, L, T, r), *supports[r])


def rate_sweep(K: int, M: int, L: int, T_max: int = 8,
               schemes: tuple[str, ...] = (MP, GGASP)) -> list[dict]:
    """Rate of each scheme for T = 0..T_max at a fixed partition grid.

    The modular layout is swept at D = 1 and the grouped layout at its best
    run length. Returns one row dict per (T, scheme) with the CSV fields
    scheme, K, M, L, T, D_or_r, N, P, rate. A negative T_max, an empty
    scheme list, or an unknown or repeated scheme raises BadSpec.
    """
    if T_max < 0:
        raise BadSpec(f"T_max must be nonnegative, got {T_max}")
    _check_schemes(schemes)
    return [_sweep_row(_sweep_report(scheme, K, M, L, T))
            for T in range(T_max + 1) for scheme in schemes]


def rate_sweep_fixed_n(N_budget: int, T_max: int = 8,
                       K_min: int = 2, L_min: int = 2, M_min: int = 4,
                       schemes: tuple[str, ...] = (MP, GGASP)) -> list[dict]:
    """Best achievable rate per T under a worker budget.

    For each T and scheme, finds among all partition grids with K >= K_min,
    L >= L_min, M >= M_min and K*M*L <= N_budget whose threshold fits the
    budget the grid with the highest rate (ties to the first in (K, M, L)
    lexicographic order). The search is exact: it evaluates only grids whose
    rate ceilings can still reach the best rate, from two lower bounds on N.
    The grids are listed once as int64 arrays, one threshold_lower_bound call
    per scheme bounds them at every T to rank each row, and the grouped
    layout's _ggasp_threshold_bound, which follows the run length, rules out
    most of the grids a walk reaches (see _best_grids). A budget or minimum
    below 1, a negative T_max, an empty scheme list, or an unknown or
    repeated scheme raises BadSpec; a budget below the smallest grid gives
    no rows.
    """
    if min(N_budget, K_min, L_min, M_min) < 1 or T_max < 0:
        raise BadSpec(f"need N_budget, K_min, L_min, M_min >= 1 and T_max >= 0, "
                      f"got {N_budget, K_min, L_min, M_min} and {T_max}")
    _check_schemes(schemes)
    pairs = [(K, M) for K in range(K_min, N_budget // (M_min * L_min) + 1)
             for M in range(M_min, N_budget // (K * L_min) + 1)]
    K, M = np.array(pairs, np.int64).reshape(-1, 2).T
    count = N_budget // (K * M) - L_min + 1  # how many L each (K, M) takes
    L = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - L_min, count)
    grids = np.stack([np.repeat(K, count), np.repeat(M, count), L])
    T = np.arange(T_max + 1)[:, None]
    bests = [_best_grids(scheme, N_budget, grids, threshold_lower_bound(scheme, *grids, T))
             for scheme in schemes]
    return [_sweep_row(best) for row in zip(*bests) for best in row if best is not None]


def threshold_lower_bound(scheme: str, K, M, L, T):
    """An integer lb <= N for the swept scheme, from runs its support holds.

    At T = 0 it is N itself. Otherwise both swept layouts (modular at D = 1,
    grouped at any run length) have alpha_0 = 0 and beta = (0, ..., T-1), so
    with KML = K*M*L their support holds the prefix [0, E], E = KML + K*M +
    T - 2 (data times data and g-noise), the M-wide window at a_l = KML +
    l*K*M for each l in 1..L-1 (f-noise at alpha_0 times g's data window l),
    and the noise-by-noise run [2*KML, 2*KML + J]: alpha_t + beta_u covers
    0..2T-2 (modular, J = 2T - 2) and alpha_0 + beta_u covers 0..T-1
    (grouped, J = T - 1). The grouped N, the support size, is at least the
    size of the union of these runs; the modular N, M times the support's
    members congruent to M-1 mod M, is at least M times the union's. Windows
    l >= l1 = 1 + ceil((T-1)/(K*M)) start beyond E, window l1 - 1 may reach
    `past` beyond it, and the rest end inside it. A window's one member
    congruent to M-1 is its last, as a_l is a multiple of M, and every window
    ends below 2*KML, so the noise run adds [max(E + 1, 2*KML), 2*KML + J].

    K, M, L and T broadcast as integer arrays, so one call bounds a table
    of grids and T; the result is an array of their broadcast shape.
    """
    KM = np.multiply(K, M)
    KML = KM * L
    E = KML + KM + T - 2
    l1 = 1 - (1 - T) // KM
    beyond = np.maximum(L - l1, 0)
    past = np.where((2 <= l1) & (l1 <= L), np.maximum((l1 - 2) * KM + M + 1 - T, 0), 0)
    lo = np.maximum(E + 1, 2 * KML)
    if scheme == MP:
        noise = np.maximum((2 * KML + 2 * T - 1) // M - lo // M, 0)
        return np.where(T == 0, KML, M * ((E + 1) // M + beyond + (past > 0) + noise))
    noise = np.maximum(2 * KML + T - lo, 0)
    return np.where(T == 0, KML + M - 1, E + 1 + M * beyond + past + noise)


def _best_grids(scheme: str, N_budget: int, grids: np.ndarray,
                lb: np.ndarray) -> list[Optional[ThresholdReport]]:
    """Best-first branch and bound over the grids of each (T, scheme) row, T = 0..len(lb) - 1.

    grids holds (K, M, L) as int64 rows in lexicographic order and lb[T]
    their threshold_lower_bound at T. One stable argsort ranks each row by
    the rate ceilings K*M*L / lb, highest first, ties in grid order and the
    grids lb does not let fit last. A row is walked down until a ceiling
    falls strictly below the best rate found; a grid that could still tie
    it is evaluated when it precedes the best. Distinct rates with terms at
    most N_budget differ by at least 1 / N_budget**2, so the keys
    floor(rate * N_budget**2) order them exactly.

    The grouped layout's optimal_r runs on a grid with T >= 1 only if the
    tighter _ggasp_threshold_bound lb2 <= N fits the budget and its key
    floor(K*M*L * N_budget**2 / lb2) is not below the best key: else the
    grid can neither beat nor tie the best, and the best key only grows.
    The rows still walking take their next 32 ranks together, so one lb2
    call serves them all.
    """
    keys = np.where(lb <= N_budget, _rate_keys(grids.prod(axis=0), lb, N_budget), -1)
    order = np.argsort(-keys, axis=1, kind="stable")
    keys = np.take_along_axis(keys, order, axis=1)
    scale = N_budget * N_budget
    bests = [None] * len(lb)
    walks = {T: (0, -1) for T in range(len(lb))}  # each walking row's best key and grid index
    for start in range(0, grids.shape[1], 32):
        Ts = np.array(list(walks))
        index, ceilings = order[Ts, start:start + 32], keys[Ts, start:start + 32]
        K, M, L = grids[:, index]
        tight = ceilings
        if scheme == GGASP:
            lb2 = _ggasp_threshold_bound(K, M, L, np.maximum(Ts, 1)[:, None])
            tight = np.where(Ts[:, None] == 0, ceilings, np.where(
                lb2 > N_budget, -1, _rate_keys(K * M * L, lb2, N_budget)))
        for T, *row in zip(Ts.tolist(), index.tolist(), ceilings.tolist(), tight.tolist(),
                           K.tolist(), M.tolist(), L.tolist()):
            best_key, best_i = walks.pop(T)
            for i, ceiling, key2, *grid in zip(*row):
                if ceiling < best_key:
                    break
                if ceiling == best_key and i > best_i:
                    continue  # at best a tie, which the earlier grid keeps
                if key2 < best_key:
                    continue  # its tighter ceiling falls below the best rate
                rep = _sweep_report(scheme, *grid, T)
                if rep.N > N_budget:
                    continue
                key = rep.params.KML * scale // rep.N
                if (key, best_i) > (best_key, i):
                    bests[T], best_key, best_i = rep, key, i
            else:
                walks[T] = best_key, best_i
        if not walks:
            break
    return bests


def _rate_keys(kml: np.ndarray, lb: np.ndarray, N_budget: int) -> np.ndarray:
    """floor(kml * N_budget**2 / lb) in int64: as q*N_budget + (r*N_budget) // lb, q, r =
    divmod(kml*N_budget, lb), no term passes N_budget**2 where kml <= lb <= N_budget."""
    q, r = np.divmod(kml * N_budget, lb)
    return q * N_budget + r * N_budget // lb


def _check_schemes(schemes: tuple[str, ...]) -> None:
    if not schemes:
        raise BadSpec("no scheme to sweep")
    for scheme in schemes:
        if scheme not in (MP, GGASP):
            raise BadSpec(f"unknown scheme {scheme!r} in sweep")
    if len(set(schemes)) < len(schemes):
        raise BadSpec(f"repeated scheme in sweep {schemes!r}")


def _sweep_report(scheme: str, K: int, M: int, L: int, T: int) -> ThresholdReport:
    """Report of one swept scheme, the one dispatch both sweeps share."""
    if scheme == MP:
        return mp_threshold_closed_form(K, M, L, T, 1)
    return optimal_r(K, M, L, T)


def _sweep_row(rep: ThresholdReport) -> dict:
    p = rep.params
    return {
        "scheme": p.variant, "K": p.K, "M": p.M, "L": p.L, "T": p.T,
        "D_or_r": p.D if p.variant == MP else p.r, "N": rep.N,
        "P": rep.P if rep.P is not None else "",
        "rate": str(rep.rate),
    }
