"""Recovery thresholds for the polynomial code schemes.

Two independent routes to every count live here. symbolic_support builds
the generic support of h = f*g directly from the exponent layout as a set
union; it is the oracle. The closed-form calculators never enumerate
exponents: they merge the handful of intervals and isolated points that the
layout produces and count residues with floor arithmetic, so they run in
O(L + T) integer operations. Tests hold the two routes equal across the
whole parameter grid.

The modular layout decodes through the order-M subgroup: a hypernode of M
workers shares one base point and averages its responses, which strips all
exponents not congruent to M-1 mod M. Its threshold is therefore counted
in hypernodes (P) and the worker threshold is N = M*P. The grouped layout
interpolates the full support, so its threshold N equals the support size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import BadSpec
from .schemes import EXPLICIT, GGASP, MP, SchemeParams


def admissible_ds(M: int) -> tuple[int, ...]:
    """Step sizes coprime to M, the valid choices for the modular layout."""
    return tuple(d for d in range(1, M + 1) if math.gcd(d, M) == 1)


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
        out = {
            "scheme": self.params.spec_string(),
            "N": self.N,
            "N_prime": self.N_prime,
            "P_prime": self.P_prime,
            "rate": str(self.rate),
        }
        for key in ("P", "delta", "l0", "t0", "k0", "U", "r0", "V"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.S_ell is not None:
            out["S_ell"] = list(self.S_ell)
        return out


def _merge(intervals):
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + 1:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def _size(intervals) -> int:
    return sum(hi - lo + 1 for lo, hi in intervals)


def _count_product_class(lo: int, hi: int, M: int) -> int:
    # integers in [lo, hi] congruent to M-1 mod M
    return (hi + 1) // M - lo // M


def mp_threshold_closed_form(K: int, M: int, L: int, T: int, D: int = 1) -> ThresholdReport:
    """Thresholds for the modular layout alpha_t = beta_t = t*D.

    Counts the support classes over the exact interval decomposition: one
    long prefix from the data-by-data and data-by-g-noise products, one
    window per l from the f-noise-by-data products, and up to 2T-1 isolated
    points from the noise-by-noise products.
    """
    params = SchemeParams.mp(K, M, L, T, D)
    KM, KML = K * M, K * M * L
    if T == 0:
        return ThresholdReport(
            params=params, N=KML, N_prime=KML + M - 1, P_prime=K * L,
            rate=Fraction(KML, KML), P=K * L, delta=0, l0=0, t0=0, k0=0)

    span = (T - 1) * D
    intervals = [(0, KML + KM - 1 + span)]
    intervals += [(KML + l * KM, KML + l * KM + M - 1 + span) for l in range(L)]
    merged = _merge(intervals)
    dots = sorted({2 * KML + t * D for t in range(2 * T - 1)})
    outside = [d for d in dots if not any(lo <= d <= hi for lo, hi in merged)]

    n_prime = _size(merged) + len(outside)
    p = sum(_count_product_class(lo, hi, M) for lo, hi in merged)
    p += sum(1 for d in outside if (d + 1) % M == 0)

    # scalars of the counting argument
    l0 = min(1 + ((T - 1) * D - 1) // KM, L - 1)
    t0 = max(0, -((KM - M) // D) + T - 1)
    k0 = min(M + (T - 1) * D, KM)
    tail = range(t0, 2 * T - 1)
    if len(tail) == 0:
        delta = 0
    else:
        direct = sum(1 for t in tail if (2 * KML + t * D + 1) % M == 0)
        delta = direct - ((2 * T - 2 - t0) * D + 1) // (D * M)

    return ThresholdReport(
        params=params, N=M * p, N_prime=n_prime, P_prime=p,
        rate=Fraction(KML, M * p), P=p, delta=delta, l0=l0, t0=t0, k0=k0)


def _ggasp_support(K: int, M: int, L: int, T: int, r: int) -> tuple[dict[int, int], list]:
    """Window widths S_l and the merged support intervals, grouped layout, T >= 1.

    The f-noise runs of length r at multiples of K*M, multiplied against
    the data windows of g and against the consecutive g-noise block, tile
    the region above the prefix into one window of width S_l starting at
    K*M*L + l*K*M per index l in [0, L+U].
    """
    U, r0 = divmod(T, r)
    S = {}
    for l in range(L):
        S[l] = M + r - 1
    for l in range(L, L + U - 1):
        S[l] = max(M, T) + r - 1
    S[L + U - 1] = (T + r - 1) if r0 == 0 else max(M + r0, T + r) - 1
    S[L + U] = 0 if r0 == 0 else T + r0 - 1
    KM, KML = K * M, K * M * L
    intervals = [(0, KML + KM + T - 2)]
    intervals += [(KML + l * KM, KML + l * KM + w - 1) for l, w in S.items() if w > 0]
    return S, _merge(intervals)


def ggasp_threshold_closed_form(K: int, M: int, L: int, T: int, r: int = 1) -> ThresholdReport:
    """Thresholds for the grouped layout with run length r.

    The support is one prefix interval plus windows of width S_l at the
    multiples of K*M; the threshold is the merged total size, since this
    layout decodes by interpolating the full support.
    """
    params = SchemeParams.ggasp(K, M, L, T, r)
    KM, KML = K * M, K * M * L
    if T == 0:
        n = KML + M - 1
        return ThresholdReport(
            params=params, N=n, N_prime=n, P_prime=K * L,
            rate=Fraction(KML, n), U=0, r0=0, S_ell=(), V=0, l0=0)

    U, r0 = divmod(T, r)
    S, merged = _ggasp_support(K, M, L, T, r)
    n = _size(merged)
    p_prime = sum(_count_product_class(lo, hi, M) for lo, hi in merged)

    l0 = min(1 + (T - 2) // KM, L)
    if r0 == 0:
        V = S[L + U - 1] + S[L + U]
    else:
        V = min(S[L + U - 1], KM) + S[L + U]

    return ThresholdReport(
        params=params, N=n, N_prime=n, P_prime=p_prime,
        rate=Fraction(KML, n), U=U, r0=r0,
        S_ell=tuple(S[l] for l in range(L + U + 1)), V=V, l0=l0)


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
    if params.variant == EXPLICIT:
        return threshold_from_support(params)
    raise BadSpec(f"unknown variant {params.variant!r}")


def optimal_r(K: int, M: int, L: int, T: int) -> ThresholdReport:
    """Best run length for the grouped layout: minimal N, ties to smaller r."""
    if T == 0:
        return ggasp_threshold_closed_form(K, M, L, 0)
    runs = range(1, min(K * M, T) + 1)
    return ggasp_threshold_closed_form(
        K, M, L, T, min(runs, key=lambda r: _size(_ggasp_support(K, M, L, T, r)[1])))


def rate_sweep(K: int, M: int, L: int, T_max: int = 8,
               schemes: tuple[str, ...] = (MP, GGASP)) -> list[dict]:
    """Rate of each scheme for T = 0..T_max at a fixed partition grid.

    The modular layout is swept at D = 1 and the grouped layout at its best
    run length. Returns one row dict per (T, scheme) with the CSV fields
    scheme, K, M, L, T, D_or_r, N, P, rate. A negative T_max, or an empty
    or unknown scheme, raises BadSpec.
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
    lexicographic order). The search is exact: threshold_lower_bound prunes
    it, so only grids whose rate ceiling can still reach the best rate are
    evaluated. A budget or minimum below 1, a negative T_max, or an empty or
    unknown scheme raises BadSpec; a budget below the smallest grid gives no
    rows.
    """
    if min(N_budget, K_min, L_min, M_min) < 1 or T_max < 0:
        raise BadSpec(f"need N_budget, K_min, L_min, M_min >= 1 and T_max >= 0, "
                      f"got {N_budget, K_min, L_min, M_min} and {T_max}")
    _check_schemes(schemes)
    rows = []
    for T in range(T_max + 1):
        for scheme in schemes:
            best = _best_grid(scheme, T, N_budget, K_min, M_min, L_min)
            if best is not None:
                rows.append(_sweep_row(best))
    return rows


def threshold_lower_bound(scheme: str, K: int, M: int, L: int, T: int) -> int:
    """An integer lb <= N for the swept scheme, from intervals its support holds.

    At T = 0 it is N itself. Otherwise both layouts hold the prefix [0, E],
    E = K*M*L + K*M + T - 2, and the M-wide window at K*M*L + l*K*M for each
    l in 1..L-1. Windows l >= l1 = 1 + ceil((T-1)/(K*M)) lie wholly beyond
    E, window l1 - 1 may reach past it, and the rest end inside it. The
    grouped N (any run length) counts the prefix and each window's part
    beyond E. The modular N is M times its members congruent to M-1 mod M:
    (E + 1) // M in the prefix and one in each window wholly beyond E.
    """
    KM, KML = K * M, K * M * L
    if T == 0:
        return KML if scheme == MP else KML + M - 1
    E = KML + KM + T - 2
    l1 = 1 - (1 - T) // KM
    beyond = max(0, L - l1)
    if scheme == MP:
        return M * ((E + 1) // M + beyond)
    partial = max(0, (l1 - 2) * KM + M + 1 - T) if 2 <= l1 <= L else 0
    return E + 1 + M * beyond + partial


def _best_grid(scheme: str, T: int, N_budget: int, K_min: int, M_min: int,
               L_min: int) -> Optional[ThresholdReport]:
    """Best-first branch and bound over the grids of one (T, scheme) row.

    Grids are evaluated from the highest rate ceiling K*M*L / lb down until
    a ceiling falls strictly below the best rate found; a grid that could
    still tie it is evaluated when it precedes the best in (K, M, L) order.
    Distinct rates with terms at most N_budget differ by at least
    1 / N_budget**2, so floor(rate * N_budget**2) orders them exactly.
    """
    scale = N_budget * N_budget
    queue = []
    for K in range(K_min, N_budget // (M_min * L_min) + 1):
        for M in range(M_min, N_budget // (K * L_min) + 1):
            for L in range(L_min, N_budget // (K * M) + 1):
                lb = threshold_lower_bound(scheme, K, M, L, T)
                if lb > N_budget:
                    break  # the bound grows with L
                queue.append((K * M * L * scale // lb, (K, M, L)))
    queue.sort(key=lambda item: item[0], reverse=True)
    best, best_key, best_grid = None, -1, None
    for ceiling, grid in queue:
        if ceiling < best_key:
            break
        if ceiling == best_key and grid > best_grid:
            continue  # at best a tie, which the earlier grid keeps
        rep = _sweep_report(scheme, *grid, T)
        if rep.N > N_budget:
            continue
        key = rep.params.KML * scale // rep.N
        if (key, best_grid) > (best_key, grid):
            best, best_key, best_grid = rep, key, grid
    return best


def _check_schemes(schemes: tuple[str, ...]) -> None:
    if not schemes:
        raise BadSpec("no scheme to sweep")
    for scheme in schemes:
        if scheme not in (MP, GGASP):
            raise BadSpec(f"unknown scheme {scheme!r} in sweep")


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
