import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdmm.errors import BadSpec
from sdmm.schemes import SchemeParams
from sdmm.thresholds import (
    ggasp_threshold_closed_form,
    mp_threshold_closed_form,
    optimal_r,
    product_class_support,
    rate_sweep,
    rate_sweep_fixed_n,
    symbolic_support,
    threshold,
    threshold_lower_bound,
)
from sdmm import thresholds


def admissible_ds(M):
    """Step sizes coprime to M, the valid choices for the modular layout."""
    return tuple(d for d in range(1, M + 1) if math.gcd(d, M) == 1)


def test_admissible_ds():
    assert admissible_ds(1) == (1,)
    assert admissible_ds(4) == (1, 3)
    assert admissible_ds(6) == (1, 5)
    assert admissible_ds(7) == (1, 2, 3, 4, 5, 6)


def test_symbolic_support_small_reference():
    # K=L=1, M=2, T=1: f has exps {0,1,2}, g has {1,0,2}; sums cover 0..4
    p = SchemeParams.mp(1, 2, 1, 1)
    assert symbolic_support(p) == (0, 1, 2, 3, 4)


def test_class_support_is_filter_of_support():
    p = SchemeParams.mp(2, 3, 2, 2)
    supp = symbolic_support(p)
    assert product_class_support(p) == tuple(e for e in supp if (e + 1) % 3 == 0)


def test_modular_layout_anchor_2322():
    rep = threshold(SchemeParams.mp(2, 3, 2, 3))
    assert (rep.P, rep.N, rep.N_prime, rep.P_prime) == (8, 24, 28, 8)
    rep1 = threshold(SchemeParams.mp(2, 3, 2, 1))
    assert (rep1.N, rep1.N_prime, rep1.P_prime) == (21, 22, 7)
    rep2 = threshold(SchemeParams.mp(2, 3, 2, 2))
    assert (rep2.N, rep2.N_prime) == (24, 25)
    assert product_class_support(SchemeParams.mp(2, 3, 2, 3)) == \
        (2, 5, 8, 11, 14, 17, 20, 26)


def test_grouped_layout_anchor_5254():
    ns = [ggasp_threshold_closed_form(5, 2, 5, 4, r).N for r in (1, 2, 3, 4)]
    assert ns == [85, 82, 86, 87]
    best = optimal_r(5, 2, 5, 4)
    assert (best.params.r, best.N) == (2, 82)
    assert symbolic_support(SchemeParams.ggasp(5, 2, 5, 4, 2))[-1] == 114
    assert mp_threshold_closed_form(5, 2, 5, 4, 1).N == 82


def test_noise_free_thresholds():
    for K, M, L in ((1, 1, 1), (2, 3, 2), (4, 4, 4), (1, 4, 2)):
        assert threshold(SchemeParams.mp(K, M, L, 0)).N == K * M * L
        assert threshold(SchemeParams.ggasp(K, M, L, 0)).N == K * M * L + M - 1


def test_rate_is_exact_fraction():
    rep = threshold(SchemeParams.ggasp(5, 2, 5, 4, 2))
    assert rep.rate == Fraction(50, 82)
    assert isinstance(rep.rate, Fraction)


@pytest.mark.parametrize("params, keys", [
    (SchemeParams.ggasp(5, 2, 5, 4, 2),
     ["scheme", "N", "N_prime", "P_prime", "rate", "l0", "U", "r0", "V", "S_ell"]),
    (SchemeParams.mp(2, 3, 2, 3),
     ["scheme", "N", "N_prime", "P_prime", "rate", "P", "delta", "l0", "t0", "k0"]),
    (SchemeParams.explicit(1, 2, 1, 2, alpha=(0, 1), beta=(0, 2)),
     ["scheme", "N", "N_prime", "P_prime", "rate"]),
], ids=["ggasp", "mp", "explicit"])
def test_threshold_report_dict_follows_the_fields(params, keys):
    # the spec string first as scheme, then the fields in order less the
    # None ones, S_ell after V; lists, not tuples, so it equals its own JSON
    # round trip
    d = threshold(params).to_dict()
    assert list(d) == keys
    assert d["scheme"] == params.spec_string() and d["rate"] == str(threshold(params).rate)
    assert d == json.loads(json.dumps(d))


@st.composite
def any_layout(draw):
    K = draw(st.integers(1, 4))
    M = draw(st.integers(1, 4))
    L = draw(st.integers(1, 4))
    T = draw(st.integers(0, 8))
    if draw(st.booleans()):
        D = draw(st.sampled_from(admissible_ds(M)))
        return SchemeParams.mp(K, M, L, T, D=D)
    r = draw(st.integers(1, max(1, min(K * M, T)))) if T else 1
    return SchemeParams.ggasp(K, M, L, T, r=r)


@given(any_layout())
@settings(max_examples=150, deadline=None)
def test_closed_form_equals_enumeration(params):
    # the closed forms are interval-arithmetic sweeps; the oracle counts the
    # explicit exponent sumset element by element
    supp = symbolic_support(params)
    rep = threshold(params)
    assert rep.N_prime == len(supp)
    assert rep.P_prime == sum(1 for e in supp if (e + 1) % params.M == 0)
    if params.variant == "mp":
        assert rep.N == params.M * rep.P_prime
        assert rep.P == rep.P_prime
    else:
        assert rep.N == len(supp)


@given(any_layout())
@settings(max_examples=60, deadline=None)
def test_threshold_monotone_in_t(params):
    if params.T == 0:
        return
    lower = (SchemeParams.mp(params.K, params.M, params.L, params.T - 1, params.D)
             if params.variant == "mp" and params.T > 1
             else SchemeParams.mp(params.K, params.M, params.L, params.T - 1)
             if params.variant == "mp"
             else SchemeParams.ggasp(params.K, params.M, params.L, params.T - 1,
                                     min(params.r, max(1, params.T - 1))))
    assert threshold(lower).N <= threshold(params).N


def test_optimal_r_is_brute_force_minimum():
    for K, M, L, T in ((2, 3, 2, 4), (3, 2, 2, 5), (1, 4, 1, 6)):
        best = optimal_r(K, M, L, T)
        ns = {r: ggasp_threshold_closed_form(K, M, L, T, r).N
              for r in range(1, min(K * M, T) + 1)}
        assert best.N == min(ns.values())


def test_rate_sweep_rows():
    rows = rate_sweep(2, 3, 2, 3)
    assert len(rows) == 8  # two schemes, T = 0..3
    assert [r["T"] for r in rows] == [0, 0, 1, 1, 2, 2, 3, 3]
    for row in rows:
        assert set(row) == {"scheme", "K", "M", "L", "T", "D_or_r", "N", "P", "rate"}
        if row["T"] == 0:
            assert row["D_or_r"] == 0
        if row["scheme"] == "ggasp":
            assert row["P"] == ""
    with pytest.raises(BadSpec):
        rate_sweep(0, 3, 2, 3)


def test_rate_sweep_empty_range():
    # a negative T_max is a malformed range, not an empty table
    with pytest.raises(BadSpec):
        rate_sweep(2, 3, 2, -1)
    # so is a grid that leaves no run length to try
    for args in ((0, 3, 2, 1), (2, 3, 2, -1)):
        with pytest.raises(BadSpec):
            optimal_r(*args)


def test_sweeps_reject_unknown_schemes():
    with pytest.raises(BadSpec):
        rate_sweep(2, 3, 2, 1, schemes=("mp", "ggsap"))
    with pytest.raises(BadSpec):
        rate_sweep_fixed_n(100, T_max=1, schemes=("mp", "ggsap"))


@pytest.mark.parametrize("schemes", [(), ("mp", "ggsap"), ("ggasp", "mp", "ggasp")])
def test_sweeps_reject_an_empty_or_unknown_scheme_list_at_any_budget(schemes):
    # no scheme is a malformed request, not a table in which nothing fits,
    # and a repeated one would print each of its rows twice; 15 workers fit
    # no default grid, so no row is ever evaluated
    with pytest.raises(BadSpec):
        rate_sweep(2, 3, 2, 1, schemes=schemes)
    for budget in (100, 15):
        with pytest.raises(BadSpec):
            rate_sweep_fixed_n(budget, T_max=1, schemes=schemes)


@pytest.mark.parametrize("minimum", ["K_min", "L_min", "M_min"])
def test_fixed_budget_search_rejects_a_minimum_below_one(minimum):
    with pytest.raises(BadSpec):
        rate_sweep_fixed_n(30, T_max=1, **{minimum: 0})


@pytest.mark.parametrize("args", [
    {"N_budget": 0}, {"N_budget": -5}, {"N_budget": 100, "T_max": -1}])
def test_fixed_budget_search_rejects_a_malformed_range(args):
    with pytest.raises(BadSpec):
        rate_sweep_fixed_n(**args)


def test_fixed_budget_search_below_the_smallest_grid_is_empty():
    # K_min * M_min * L_min = 16 workers already exceed the budget
    assert rate_sweep_fixed_n(15, T_max=2) == []


def test_fixed_budget_search_respects_budget():
    rows = rate_sweep_fixed_n(100, T_max=3, K_min=2, L_min=2, M_min=2)
    assert rows
    for row in rows:
        assert row["N"] <= 100
        assert row["K"] >= 2 and row["L"] >= 2 and row["M"] >= 2
    # per (T, scheme) the reported grid is the best-rate grid; re-derive one
    t2 = [r for r in rows if r["T"] == 2 and r["scheme"] == "mp"][0]
    best = Fraction(0)
    for K in range(2, 26):
        for M in range(2, 26):
            for L in range(2, 26):
                if K * M * L > 100:
                    continue
                rep = mp_threshold_closed_form(K, M, L, 2, 1)
                if rep.N <= 100:
                    best = max(best, rep.rate)
    assert Fraction(t2["rate"]) == best


def test_mp_at_d1_beats_ggasp_at_its_best_r_on_most_small_grids():
    # the paper's comparison claim on the grid partition, at the worker threshold
    # N; on no grid does an admissible D > 1 beat D = 1
    mp_against_ggasp = {"below": 0, "tie": 0, "above": 0}
    for K, L, M, T in itertools.product(range(1, 5), range(1, 5), range(2, 7), range(1, 9)):
        ns = [mp_threshold_closed_form(K, M, L, T, d).N for d in admissible_ds(M)]
        assert min(ns) == ns[0], (K, M, L, T, ns)
        n_ggasp = optimal_r(K, M, L, T).N
        mp_against_ggasp["below" if ns[0] < n_ggasp else "tie" if ns[0] == n_ggasp else "above"] += 1
    assert mp_against_ggasp == {"below": 560, "tie": 56, "above": 24}


def test_step_size_probe_reports_d1_optimal():
    # N is not always monotone in D, but D=1 is never strictly beaten
    grids = itertools.product(range(1, 4), range(1, 7), range(1, 4), range(1, 7))
    for K, M, L, T in grids:
        ns = [mp_threshold_closed_form(K, M, L, T, d).N for d in admissible_ds(M)]
        assert min(ns) == ns[0], (K, M, L, T, ns)


# -- the pruned fixed-budget search ---------------------------------------------------

_report = lru_cache(maxsize=None)(thresholds._sweep_report)


_GRID_BUDGET = 120  # the largest budget the tests below ask for


@lru_cache(maxsize=None)
def _grids(scheme, T, K_min, L_min, M_min):
    """The reports of the grids with K*M*L <= _GRID_BUDGET that a budget can pick, best first.

    Every grid's report, sorted by rate, keeps grids of equal rate in
    (K, M, L) order, so a budget picks the first it fits; a grid that needs
    no fewer workers than one before it is never that first, and is dropped.
    """
    reports = sorted((_report(scheme, K, M, L, T)
                      for K in range(K_min, _GRID_BUDGET // (M_min * L_min) + 1)
                      for M in range(M_min, _GRID_BUDGET // (K * L_min) + 1)
                      for L in range(L_min, _GRID_BUDGET // (K * M) + 1)),
                     key=lambda rep: rep.rate, reverse=True)
    picks = []
    for rep in reports:
        if not picks or _need(rep) < _need(picks[-1]):
            picks.append(rep)
    return picks


def _need(rep):
    """The smallest budget a grid fits: its K*M*L blocks and its N workers."""
    return max(rep.params.KML, rep.N)


def _exhaustive_fixed_n(N_budget, T_max, K_min, L_min, M_min, schemes=("mp", "ggasp")):
    """The search before pruning: of every grid under the budget, the first of highest rate."""
    assert N_budget <= _GRID_BUDGET
    rows = []
    for T in range(T_max + 1):
        for scheme in schemes:
            best = next((rep for rep in _grids(scheme, T, K_min, L_min, M_min)
                         if _need(rep) <= N_budget), None)
            if best is not None:
                rows.append(thresholds._sweep_row(best))
    return rows


def _bound_runs(scheme, K, M, L, T):
    """threshold_lower_bound recounted as the union of its runs.

    These are the swept closed form's runs cut down: the prefix, the
    windows l >= 1 trimmed to M wide, and one noise-by-noise run at
    2*K*M*L (all 2T - 1 points for mp at D = 1, alpha_0 + beta for ggasp).
    """
    KM, KML = K * M, K * M * L
    if T == 0:
        return KML if scheme == "mp" else KML + M - 1
    runs = [(0, KML + KM + T - 2)]
    runs += [(KML + l * KM, KML + l * KM + M - 1) for l in range(1, L)]
    runs.append((2 * KML, 2 * KML + (2 * T - 2 if scheme == "mp" else T - 1)))
    size, members = thresholds._run_union(runs, M)
    return M * members if scheme == "mp" else size


def _window_sum_bound(scheme, K, M, L, T):
    """The bound before it counted the noise-by-noise run, as a floor."""
    KM, KML = K * M, K * M * L
    if T == 0:
        return KML if scheme == "mp" else KML + M - 1
    E = KML + KM + T - 2
    starts = [KML + l * KM for l in range(1, L)]
    if scheme == "mp":
        return M * ((E + 1) // M + sum(1 for a in starts if a > E))
    return E + 1 + sum(min(M, a + M - 1 - E) for a in starts if a + M - 1 > E)


# every grid with K*M*L <= 200, in (K, M, L) order, as rows K, M, L
_SMALL_GRIDS = np.array([(K, M, L) for K in range(1, 201) for M in range(1, 200 // K + 1)
                         for L in range(1, 200 // (K * M) + 1)]).T


def test_threshold_lower_bound_never_exceeds_the_threshold():
    Ts = np.arange(9)[:, None]
    lbs = {scheme: threshold_lower_bound(scheme, *_SMALL_GRIDS, Ts).tolist()
           for scheme in ("mp", "ggasp")}
    lb2s = thresholds._ggasp_threshold_bound(*_SMALL_GRIDS, Ts[1:]).tolist()
    for g, (K, M, L) in enumerate(_SMALL_GRIDS.T.tolist()):
        for T in range(9):
            for scheme in ("mp", "ggasp"):
                lb = lbs[scheme][T][g]
                assert lb == _bound_runs(scheme, K, M, L, T)
                assert lb >= _window_sum_bound(scheme, K, M, L, T)
                N = _report(scheme, K, M, L, T).N
                assert lb <= N and (T > 0 or lb == N), (scheme, K, M, L, T)
            if T:
                # the run-length bound is tight here, so weakening it fails
                # this test rather than quietly slowing the search
                assert lb2s[T - 1][g] == _report("ggasp", K, M, L, T).N, (K, M, L, T)


def _scalar_lower_bound(scheme, K, M, L, T):
    """threshold_lower_bound as it was written for one grid, with conditionals."""
    KM, KML = K * M, K * M * L
    if T == 0:
        return KML if scheme == "mp" else KML + M - 1
    E = KML + KM + T - 2
    l1 = 1 - (1 - T) // KM
    beyond = L - l1 if L > l1 else 0
    past = (l1 - 2) * KM + M + 1 - T if 2 <= l1 <= L else 0
    if past < 0:
        past = 0
    lo = E + 1 if E >= 2 * KML else 2 * KML
    if scheme == "mp":
        hi = 2 * KML + 2 * T - 2
        noise = (hi + 1) // M - lo // M if hi >= lo else 0
        return M * ((E + 1) // M + beyond + (past > 0) + noise)
    hi = 2 * KML + T - 1
    return E + 1 + M * beyond + past + (hi + 1 - lo if hi >= lo else 0)


def _scalar_run_length_bound(K, M, L, T):
    """_ggasp_threshold_bound as it was written for one grid, one r at a time."""
    KM = K * M
    s = -((1 - T) // KM)
    gap = T - 1 - (s - 1) * KM
    least = None
    for r in range(1, min(KM, T) + 1):
        U, r0 = divmod(T, r)
        c1 = min(M + r - 1, KM)
        c2 = min(max(M, T) + r - 1, KM)
        if r0 == 0:
            c3, c4 = T + r - 1, 0
        else:
            c3, c4 = min(max(M + r0, T + r) - 1, KM), T + r0 - 1
        n = end = 0
        for count, c in ((L, c1), (U - 1, c2), (1, c3), (1, c4)):
            end += count
            if end > s:
                n += count * c if end - count > s else (end - s) * c - min(c, gap)
        least = n if least is None else min(least, n)
    return K * M * L + KM + T - 1 + least


def test_array_bounds_equal_the_per_grid_bounds():
    # one array call over every grid with K*M*L <= 200 and T <= 20 gives, entry by
    # entry, the bounds of the one-grid loops it replaced
    T = np.arange(21)[:, None]
    grids = _SMALL_GRIDS.T.tolist()
    tables = {scheme: threshold_lower_bound(scheme, *_SMALL_GRIDS, T)
              for scheme in ("mp", "ggasp")}
    run_length = thresholds._ggasp_threshold_bound(*_SMALL_GRIDS, T[1:])
    for scheme, table in tables.items():
        assert table.tolist() == [[_scalar_lower_bound(scheme, *g, t) for g in grids]
                                  for t in range(21)], scheme
    assert run_length.tolist() == [[_scalar_run_length_bound(*g, t) for g in grids]
                                   for t in range(1, 21)]


def test_run_length_bound_is_the_best_r_threshold_up_to_large_t():
    # T up to 20 takes r past the T <= 8 of the loop above, and on these
    # small K*M the window that straddles the prefix falls in every group
    for K, M, L, T in itertools.product(range(1, 4), range(1, 7), range(1, 5), range(1, 21)):
        assert int(thresholds._ggasp_threshold_bound(K, M, L, T)) == \
            optimal_r(K, M, L, T).N, (K, M, L, T)


@pytest.mark.parametrize("K_min, L_min, M_min", [(1, 1, 1), (2, 2, 2), (1, 2, 4), (3, 1, 2)])
def test_pruned_search_equals_the_exhaustive_scan(monkeypatch, K_min, L_min, M_min):
    # both sides read the same cached reports, so the test checks which grids
    # the search picks, not the closed forms again
    monkeypatch.setattr(thresholds, "_sweep_report", _report)
    for budget in range(1, 121):
        assert rate_sweep_fixed_n(budget, 8, K_min, L_min, M_min) == \
            _exhaustive_fixed_n(budget, 8, K_min, L_min, M_min), budget


def test_rate_keys_are_exact_up_to_budgets_of_three_billion():
    # floor(KML * N**2 / lb) in int64 against Python ints, for KML <= lb <= N, with N
    # up to 3e9, where KML * N**2 itself would wrap
    rng = np.random.default_rng(45)
    for N in [1, 2, 3, 1000, 2**31, 3 * 10**9] + rng.integers(2, 3 * 10**9, 60).tolist():
        lb = rng.integers(1, N, 200, endpoint=True)
        kml = rng.integers(0, lb)  # below lb, as at T >= 1
        lb, kml = np.append(lb, [N, N, N]), np.append(kml, [1, N - 1, N])  # kml = lb at T = 0
        keys = thresholds._rate_keys(kml, lb, N)
        assert keys.tolist() == [k * N * N // b for k, b in zip(kml.tolist(), lb.tolist())], N


# `_sweep_report` calls per scheme of rate_sweep_fixed_n at its default T_max and minima,
# counted on the grid-by-grid search the array ranking replaced
_SEARCH_CALLS = {100: {"mp": 27, "ggasp": 19}, 150: {"mp": 53, "ggasp": 18},
                 200: {"mp": 67, "ggasp": 17}, 1000: {"mp": 406, "ggasp": 16}}


@pytest.mark.parametrize("budget", sorted(_SEARCH_CALLS))
def test_ranked_search_evaluates_the_same_grids(monkeypatch, budget):
    calls = {"mp": 0, "ggasp": 0}
    report = thresholds._sweep_report

    def counted(scheme, *grid):
        calls[scheme] += 1
        return report(scheme, *grid)

    monkeypatch.setattr(thresholds, "_sweep_report", counted)
    rate_sweep_fixed_n(budget)
    assert calls == _SEARCH_CALLS[budget]


@pytest.mark.parametrize("scheme, T, budget, first, later", [
    ("mp", 2, 20, (1, 4, 1), (5, 1, 2)),
    ("ggasp", 2, 11, (1, 1, 4), (2, 1, 2)),
])
def test_pruned_search_keeps_the_first_of_tied_grids(scheme, T, budget, first, later):
    # the later grid has the higher rate ceiling, so best-first meets it first
    ceiling = {g: Fraction(math.prod(g), int(threshold_lower_bound(scheme, *g, T)))
               for g in (first, later)}
    assert ceiling[later] > ceiling[first]
    assert _report(scheme, *later, T).rate == _report(scheme, *first, T).rate
    rows = rate_sweep_fixed_n(budget, T, K_min=1, L_min=1, M_min=1, schemes=(scheme,))
    assert (rows[-1]["K"], rows[-1]["M"], rows[-1]["L"]) == first
    assert rows[-1] == _exhaustive_fixed_n(budget, T, 1, 1, 1, (scheme,))[-1]
