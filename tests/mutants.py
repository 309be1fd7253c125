"""Mutation gate: each guarantee the library states has a tier-1 test that fails without it.

Each mutant names a file under src/sdmm, an exact old text that must occur
there exactly once, the new text that breaks one guarantee, that guarantee,
and the tier-1 tests expected to fail. The runner copies src/ and tests/ to
a temporary directory and runs every named test on the unmutated copy,
where they must pass. It then applies each mutant alone and runs its tests
with -x. A run still going after HANG_S seconds is stopped and the mutant
counted killed as hung, so a mutant that sends some loop on forever still
ends the gate. It exits 1
when a mutant survives, when an old text is missing or repeated (a refactor
must update this list), or when the unmutated tests fail. pytest does not
collect this file. Run it as python tests/mutants.py.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
NOISE_TABLES = ("tests/test_protocol.py::"
                "test_encoded_noise_reaches_workers_through_the_security_tables[61]")
ORACLE = "tests/test_protocol.py::test_share_distributions_leak_exactly_where_security_check_fails"
CORRUPTION = ("tests/test_protocol.py::"
              "test_one_corrupted_response_raises_iff_an_applied_spare_row_reads_it")
HANG_S = 30  # every mutant's tests finish in a few seconds unless it hangs them


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/sdmm
    old: str
    new: str
    guarantee: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant("hypernode-weight", "linalg.py",
           "self.zeta.pow_(m) / M for m in range(M)",
           "self.zeta.pow_(m + 1) / M for m in range(M)",
           "the hypernode average recovers the base polynomial's value at the base point",
           ("tests/test_acceptance.py::test_criterion_05_six_hypernode_straggler_probabilities",)),
    Mutant("routes-strict", "protocol.py",
           "plan.n_hypernodes - spoiled >= len(plan.class_support), short",
           "plan.n_hypernodes - spoiled > len(plan.class_support), short",
           "exactly P' complete hypernodes suffice for the hypernode route",
           ("tests/test_acceptance.py::test_criterion_05_six_hypernode_straggler_probabilities",)),
    Mutant("zero-pivot-counted", "_gauss.py",
           "count += has",
           "count += 1",
           "a matrix without a pivot where another of its batch has one is not counted full rank",
           ("tests/test_engine.py::"
            "test_rank_and_full_rank_flags_are_exact_in_a_mixed_batch[GF(13)]",)),
    Mutant("residue-bound-inclusive", "_gauss.py",
           "data.max() < ctx.p",
           "data.max() <= ctx.p",
           "a residue array is adopted only with every entry in [0, p)",
           ("tests/test_matpoly.py::"
            "test_matrix_rejects_residue_arrays_outside_zero_to_p[GF(31)]",)),
    Mutant("chunk-past-int64", "_gauss.py",
           "acc = part if acc is None else (acc + part) % p",
           "acc = part if acc is None else acc + part",
           "int64 limb products stay exact however long the inner dimension",
           ("tests/test_engine.py::test_int64_matmul_is_exact_past_the_chunk_length",)),
    Mutant("no-limb-bound", "_gauss.py",
           "(p - 1) ** 2 * a.shape[-1] < 1 << 63:",
           "(p - 1) ** 2 * a.shape[-1] < 1 << 64:",
           "a product without limbs is taken only where int64 cannot overflow",
           ("tests/test_engine.py::test_evaluate_matches_naive_values_and_horner_counts"
            "[GF(2147483647)]",
            "tests/test_dot.py::test_both_sides_of_the_int64_bound_are_exact[limbs]")),
    Mutant("chunk-past-2-53", "_gauss.py",
           "chunk = ((1 << 53) - 1) //",
           "chunk = ((1 << 54) - 1) //",
           "every partial sum of a float64 limb product is an exact integer below 2^53",
           ("tests/test_dot.py::test_worst_case_products_are_exact_at_every_chunk_end"
            "[GF(2^31-1)-n129]",
            "tests/test_dot.py::test_worst_case_products_are_exact_at_every_chunk_end"
            "[GF(2^61-1)-n4097]")),
    Mutant("product-unsplit", "_gauss.py",
           "return part(a, b & (1 << 31) - 1) + part(part(a, b >> 31), 1 << 31)",
           "return part(a, b)",
           "a wide product's float64 quotient is taken only by factors below 2^32, where it is"
           " within 2^-19 of the true one",
           ("tests/test_product.py::"
            "test_product_is_congruent_and_below_2_62[2305843009213693951]",
            "tests/test_product.py::"
            "test_mul_matches_field_elements_on_every_edge_pair[GF(2305843009213693951)]")),
    Mutant("laplace-sum-unreduced", "_gauss.py",
           "if len(terms) * ctx.p < 1 << 63:",
           "if True:",
           "a Laplace sum whose t terms can pass 2^63 is reduced as each term is added",
           ("tests/test_product.py::test_laplace_sums_past_2_63_are_reduced_as_they_are_added[9]",
            "tests/test_product.py::"
            "test_laplace_sums_past_2_63_are_reduced_as_they_are_added[11]")),
    Mutant("gauss-jordan-cost", "matpoly.py",
           "return rows * unknowns * width",
           "return unknowns * unknowns * width",
           "decode's count is dense Gauss-Jordan's on every row, the spare equations included",
           ("tests/test_engine.py::test_counted_solve_matches_reference",)),
    Mutant("random-below-order", "matpoly.py",
           "n, k = ctx.order, ctx.order.bit_length()",
           "n, k = ctx.order - 1, ctx.order.bit_length()",
           "noise blocks are uniform: randrange(order), value for value",
           ("tests/test_matpoly.py::test_random_blocks_draw_randrange_value_for_value[31-1]",)),
    Mutant("kernel-side-by-the-set", "linalg.py",
           "keep[np.arange(len(batch))[:, None], batch] = False",
           "keep[np.arange(len(batch))[:, None], batch] = True",
           "a large row set is decided on the left kernel by its complement",
           ("tests/test_linalg.py::test_is_mds_witnesses_are_pinned_on_both_sides[kernel]",)),
    Mutant("laplace-odd-terms-added", "_gauss.py",
           "terms[::2].sum(axis=0) - terms[1::2].sum(axis=0)",
           "terms[::2].sum(axis=0) + terms[1::2].sum(axis=0)",
           "a Laplace expansion alternates its signs: a square set with a nonzero permanent"
           " but a zero determinant is singular",
           ("tests/test_linalg.py::test_laplace_scan_matches_elimination[4096-planted-GF(13)]",)),
    Mutant("colex-drop-off-by-one", "linalg.py",
           "before, before + choose[i + 1, c]",
           "before, before + choose[i, c]",
           "the sub-minor without S_i is read at the colex rank of S minus S_i",
           ("tests/test_linalg.py::test_laplace_scan_matches_elimination[4096-planted-GF(13)]",)),
    Mutant("table-prefix-one-short", "linalg.py",
           "sets[:, -1].max() + 1 if grow else n",
           "sets[:, -1].max() if grow else n",
           "a kernel-side table grows to every column its batch reads",
           ("tests/test_linalg.py::"
            "test_a_kernel_side_table_grows_is_reused_then_falls_back[GF(13)]",)),
    Mutant("complement-rank", "linalg.py",
           "(r if n is None else C - 1 - r)",
           "(r if n is None else r)",
           "the complement of a lex walk's r-th set is unranked at rank C - 1 - r",
           ("tests/test_linalg.py::test_batches_of_a_walk_are_the_tuple_walk[7]",)),
    Mutant("element-of-any-order", "fields.py",
           "if is_primitive_root_of_unity(z, m):",
           "if z.pow_(m) == ctx.one():",
           "subgroup points come from an element of order exactly m",
           ("tests/test_acceptance.py::test_criterion_02_grid_2x3x2_t3_reference_instance",)),
    Mutant("coerce-foreign-field", "fields.py",
           "elif other.ctx is not self.ctx and other.ctx != self.ctx:",
           "elif False:",
           "an operator refuses an element of another field",
           ("tests/test_fields.py::"
            "test_foreign_elements_and_coefficient_counts_are_a_shape_mismatch",)),
    Mutant("pow-ladder-leading-bit", "fields.py",
           'for bit in bin(e)[3:]:',
           'for bit in bin(e)[2:]:',
           "pow_'s ladder starts at the base for the leading bit and squares once per later bit",
           ("tests/test_fields.py::test_pow_matches_repeated_multiplication",)),
    Mutant("pow-extra-product", "fields.py",
           "        result = self",
           "        result = self._mul(self.ctx.one())",
           "_ladder(e) is the number of products pow_ takes",
           ("tests/test_fields.py::test_pow_takes_exactly_its_ladder_of_products[13]",)),
    Mutant("baseline-leak", "schemes.py",
           "    return MatPoly(dict(zip(params.exponents()[0], blocks, strict=True)),"
           " blocks[0].shape, ctx)\n",
           "    if params.T:  # the stream is drawn as usual, then A leaks\n"
           "        blocks[-params.T] = blocks[0]\n"
           "    return MatPoly(dict(zip(params.exponents()[0], blocks, strict=True)),"
           " blocks[0].shape, ctx)\n",
           "f's shares are padded by uniform noise: no T workers learn anything about A",
           (NOISE_TABLES, f"{ORACLE}[mp-t1]")),
    Mutant("noise-exponent-shift", "schemes.py",
           "dict(zip(params.exponents()[0], blocks, strict=True))",
           "dict(zip([e + (e >= params.KML) for e in params.exponents()[0]], blocks, strict=True))",
           "f carries its noise at the exponents whose table security_check certifies",
           (NOISE_TABLES,)),
    Mutant("g-window-order", "schemes.py",
           "g = tuple(M - 1 - m + l * K * M for m in range(M) for l in range(L))",
           "g = tuple(m + l * K * M for m in range(M) for l in range(L))",
           "g's m index runs reversed in each window, so A_{k,m} meets B_{m,l} at block (k, l)",
           ("tests/test_schemes.py::test_exponents_align_each_product_block[2-3-2-2]",)),
    Mutant("sigma-b-unscanned", "linalg.py",
           "res_b = res_a if np.array_equal(sig_b, sig_a) else "
           "is_mds(sig_b, plan.ctx, budget=budget)",
           "res_b = res_a",
           "security_check certifies g's noise table as well as f's",
           ("tests/test_protocol.py::test_an_insecure_sigma_b_leaks_b_through_the_shares",
            f"{ORACLE}[explicit-leaks-b]")),
    Mutant("raw-spare-check-skipped", "protocol.py",
           "_gauss.apply(T, stack.reshape(len(order), -1, ctx.r), KL, ctx)",
           "pass",
           "the hypernode route raises on responses that are not one polynomial's values",
           ("tests/test_protocol.py::test_hypernode_route_checks_the_raw_spare_equations",
            CORRUPTION)),
    Mutant("first-spare-row-unchecked", "_gauss.py",
           "if np.count_nonzero(out[targets:]):",
           "if np.count_nonzero(out[targets + 1:]):",
           "solve and decode check every spare equation, the first one included",
           ("tests/test_engine.py::"
            "test_one_spare_equation_is_checked_alike_by_solve_and_decode[corrupted]",
            CORRUPTION)),
    Mutant("subset-count", "linalg.py",
           "return _Lex(n, k), math.comb(n, k)",
           "return _Lex(n, k), math.comb(n, k) + 1",
           "an exhaustive walk counts exactly the sets it visits, so p(S) is exact",
           ("tests/test_linalg.py::test_subsets_walk_all_k_subsets_or_draw_sorted_samples",
            "tests/test_cli.py::test_p_of_s_exhaustive_mode")),
    Mutant("budget-inclusive", "linalg.py",
           'if mode == "exhaustive" and planned > budget:',
           'if mode == "exhaustive" and planned >= budget:',
           "an exhaustive scan of exactly budget minors runs",
           ("tests/test_linalg.py::"
            "test_is_mds_scans_exactly_its_budget_and_refuses_one_minor_more",)),
    Mutant("random-total-sampled", "linalg.py",
           'total = planned if mode == "exhaustive" else math.comb(N, P)',
           "total = planned",
           "a sampled scan reports C(N, P) minors in total, not its sample count",
           ("tests/test_linalg.py::test_random_mode_total_counts_every_minor_not_the_samples",)),
    Mutant("explicit-repeat", "schemes.py",
           "if any(b <= a for a, b in zip(exps, exps[1:])):",
           "if any(b < a for a, b in zip(exps, exps[1:])):",
           "an explicit exponent list never repeats an exponent",
           ("tests/test_schemes.py::test_explicit_rejects_a_repeated_exponent",)),
    Mutant("routed-walk-short", "protocol.py",
           "group for k in np.flatnonzero(hyper).tolist()",
           "group for k in np.flatnonzero(hyper)[:-1].tolist()",
           "the exhaustive walk visits every pattern that keeps P' complete hypernodes",
           ("tests/test_protocol.py::"
            "test_exhaustive_walk_yields_exactly_the_patterns_with_a_route[0-6]",)),
    Mutant("operators-of-any-plan", "protocol.py",
           "isinstance(responses, Responses) and responses.plan is plan:",
           "isinstance(responses, Responses):",
           "decode trusts a Responses' stack and routes only on the plan object it names",
           ("tests/test_protocol.py::"
            "test_walk_operators_serve_only_the_plan_they_were_built_on",)),
    Mutant("base-key-by-workers", "protocol.py",
           "zip(~sets, operators)",
           'zip(sets if route == "base" else ~sets, operators)',
           "a hypernode-route attempt reads the complete hypernodes its operator was built on",
           ("tests/test_protocol.py::test_p_of_s_decodes_each_routed_pattern_with_its_batch_"
            "operators[0-6-5-90-want0]",)),
    Mutant("base-operator-of-another-set", "protocol.py",
           "found = dict(zip(last, zip(~sets, operators)))",
           'found = dict(zip(last, zip(~sets, operators[1:] + operators[:1] if route == "base"'
           " else operators)))",
           "a hyper pattern gets the base operator of the hypernodes it spoils, in any batch",
           ("tests/test_protocol.py::"
            "test_batched_attempts_equal_each_pattern_prepared_alone[p31-t0]",)),
    Mutant("no-route-raises", "protocol.py",
           'any(route == "worker" for route, _, _ in attempts)',
           "True",
           "decode raises InsufficientResponses when neither route has an operator",
           ("tests/test_protocol.py::test_decode_raises_when_called_directly_with_too_few_responses",
            "tests/test_protocol.py::"
            "test_decode_raises_when_the_hypernode_route_is_singular_and_responses_are_short")),
    Mutant("audit-first-of-chunk", "protocol.py",
           "done = [blocks for blocks in decoded if blocks is not None]",
           "done = [blocks for blocks in decoded if blocks is not None][:1]",
           "exact p(S) audits every decode of a chunk against A @ B, not only the first",
           ("tests/test_protocol.py::test_p_of_s_audits_every_decode",)),
    Mutant("full-route-priced-on-any-singular-base", "protocol.py",
           "found[key]))\n    return attempts\n",
           "found[key]))\n    return [a + [(\"worker\", ~gone[i], None)] if short[i] and a"
           " and a[0][2] is None"
           " else a for i, a in enumerate(attempts)]\n",
           "a singular hypernode system with too few responses for the full route is charged"
           " only itself",
           ("tests/test_protocol.py::"
            "test_a_singular_hypernode_system_is_charged_in_full[singular-then-fail]",)),
    Mutant("singular-hypernode-priced-free", "protocol.py",
           "price[route] for route, rows, T in attempts)",
           'price[route] for route, rows, T in attempts if not (T is None and route == "base"))',
           "a singular hypernode system is charged in full before the full route is tried",
           ("tests/test_protocol.py::"
            "test_a_singular_hypernode_system_is_charged_in_full[singular-then-full]",)),
    Mutant("table-last-axis-only", "matpoly.py",
           "if points.ndim != 3 or points.shape[1:] != (len(exponents), ctx.r):",
           "if points.shape[-1] != ctx.r:",
           "evaluate and interpolate refuse a power table that does not fit the exponents",
           ("tests/test_matpoly.py::"
            "test_a_power_table_one_column_short_is_a_shape_mismatch[GF(31)]",)),
    Mutant("views-writeable", "matpoly.py",
           "        stack.setflags(write=False)\n        _, rows, cols, _ = stack.shape",
           "        _, rows, cols, _ = stack.shape",
           "the library's own BlockMatrix results, decode's blocks among them, are read-only",
           ("tests/test_engine.py::test_constructor_coerces_every_entry_form",
            "tests/test_protocol.py::"
            "test_decode_blocks_are_read_only_views_of_their_arrays[GF(31)]")),
    Mutant("block-views-out-of-order", "matpoly.py",
           "for key, array in zip(keys, stack):",
           "for key, array in zip(keys, stack[::-1]):",
           "decode keys each coefficient block by its own block position",
           ("tests/test_protocol.py::"
            "test_decode_blocks_are_read_only_views_of_their_arrays[GF(31)]",)),
    Mutant("hypernode-gather-one-short", "protocol.py",
           "members = stack.compress(rows.repeat(M)[order], axis=0)",
           "members = stack.compress(rows.repeat(M)[order], axis=0)[:-1]",
           "the hypernode average reads every member of each complete hypernode",
           ("tests/test_protocol.py::test_hypernode_route_checks_the_raw_spare_equations",)),
    Mutant("fields-not-integers", "schemes.py",
           "return tuple(map(operator.index, values))",
           "return tuple(values)",
           "a scheme's grid, layout fields and exponents are integers, however it is built",
           ("tests/test_schemes.py::test_a_scheme_refuses_fields_that_are_not_integers[K-float]",)),
    Mutant("run-length-bound-over", "thresholds.py",
           "return (KM * L + KM + T - 1)[..., 0] + least",
           "return (KM * L + KM + T)[..., 0] + least",
           "the grouped layout's run-length bound never exceeds its best-r threshold",
           ("tests/test_thresholds.py::test_threshold_lower_bound_never_exceeds_the_threshold",)),
    Mutant("run-length-skip-ties", "thresholds.py",
           "if key2 < best_key:",
           "if key2 <= best_key:",
           "the fixed-budget search skips only grids that can neither beat nor tie the best rate",
           ("tests/test_thresholds.py::test_pruned_search_equals_the_exhaustive_scan[1-1-1]",)),
    Mutant("rate-key-drops-remainder", "thresholds.py",
           "return q * N_budget + r * N_budget // lb",
           "return q * N_budget",
           "the fixed-budget search ranks grids by their exact rate ceilings",
           ("tests/test_thresholds.py::test_pruned_search_equals_the_exhaustive_scan[1-1-1]",)),
]


def _pytest(tmp: Path, tests, *flags: str, timeout: Optional[float] = None) -> Optional[int]:
    """pytest's exit code, or None for a run stopped after timeout seconds."""
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "-W", "error::RuntimeWarning", *flags, *tests]
    try:
        return subprocess.run(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory(prefix="sdmm-mutants-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for m in MUTANTS:
            hits = (tmp / "src" / "sdmm" / m.file).read_text().count(m.old)
            if hits != 1:
                failed.append(m.name)
                print(f"STALE    {m.name}: old text occurs {hits} times in {m.file}")
        if failed:
            return 1
        tests = sorted({t for m in MUTANTS for t in m.tests})
        if _pytest(tmp, tests) != 0:
            print("the named tests fail on the unmutated copy")
            return 1
        for m in MUTANTS:
            path = tmp / "src" / "sdmm" / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            start = time.perf_counter()
            code = _pytest(tmp, m.tests, "-x", timeout=HANG_S)
            path.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed", None: "hung"}.get(code, f"ERROR {code}")
            print(f"{verdict:8} {m.name} ({time.perf_counter() - start:.1f} s): {m.guarantee}")
            if code not in (1, None):
                failed.append(m.name)
    print(f"{len(MUTANTS) - len(failed)} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
