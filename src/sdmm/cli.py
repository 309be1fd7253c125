"""Command-line front end: thresholds, sweeps, vector search, simulation.

Subcommands delegate to the library modules; this file owns argument
parsing, the key=value config file, output formatting (CSV with a comment
header carrying version, seed, and a config hash; JSON elsewhere), exit
codes, and the report of verify-examples, whose frozen numeric checks live
in sdmm.examples.

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
from .examples import CATEGORIES, EXAMPLES
from .fields import parse_field_spec
from .linalg import find_evaluation_vector
from .matpoly import BlockMatrix
from .protocol import p_of_s_empirical, p_of_s_lower_bound, run_protocol
from .schemes import MP, parse_scheme_spec
from .thresholds import rate_sweep, rate_sweep_fixed_n, threshold

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


def _inject_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Splice config-file tokens in after the subcommand, which must come first, ahead of flags."""
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        return argv  # argparse will report the missing value
    command = next((j for j, tok in enumerate(argv[:at]) if not tok.startswith("-")), None)
    if command is None:
        parser.error("a subcommand must come before --config")
    return argv[:command + 1] + _read_config_tokens(argv[at + 1]) + argv[command + 1:]


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


def _sweep_schemes(args) -> tuple[str, ...]:
    return tuple(s.strip() for s in args.schemes.split(",") if s.strip())


def _emit_sweep_rows(rows, args) -> int:
    if args.json:
        _emit(_json_text(rows), args.out)
    else:
        _emit(_sweep_csv(rows, args.seed, _config_hash(args)), args.out)
    return 0


def _emit_report(report: dict, args, hide=()) -> int:
    """A report's dict as JSON under --json, else as key: value lines in dict order, less hide."""
    if args.json:
        _emit(_json_text(report), args.out)
    else:
        _emit("".join(f"{k}: {v}\n" for k, v in report.items() if k not in hide), args.out)
    return 0


def _element_coeffs(el) -> list[int]:
    return [int(c) for c in el.coeffs]


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
    return _emit_report(threshold(params).to_dict(), args)


def cmd_sweep(args) -> int:
    rows = rate_sweep(args.K, args.M, args.L, args.t_max, _sweep_schemes(args))
    return _emit_sweep_rows(rows, args)


def cmd_fixed_n_search(args) -> int:
    rows = rate_sweep_fixed_n(args.workers, args.t_max, K_min=args.k_min, L_min=args.l_min,
                              M_min=args.m_min, schemes=_sweep_schemes(args))
    return _emit_sweep_rows(rows, args)


def _find_plan(args, params, ctx, **options):
    """find_evaluation_vector on args' counts, budget and seed; a search flag below its least
    value is refused by its own name."""
    for flag, least in (("attempts", 1), ("budget", 1), ("max_escalations", 0)):
        value = getattr(args, flag, least)
        if value < least:
            raise SdmmError(f"--{flag.replace('_', '-')} must be at least {least}, got {value}")
    return find_evaluation_vector(
        params, ctx, n_hypernodes=args.hypernodes, n_workers=args.workers,
        minor_budget=args.budget, seed=args.seed, **options)


def cmd_find_eval(args) -> int:
    params = parse_scheme_spec(args.scheme)
    ctx = parse_field_spec(args.field)
    plan = _find_plan(args, params, ctx, subgroup=args.subgroup, attempts=args.attempts,
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
    a0 = args.rows // params.K if args.rows is not None else 2
    s0 = args.inner // params.M if args.inner is not None else 2
    b0 = args.cols // params.L if args.cols is not None else 2
    if args.rows is not None and args.rows % params.K:
        raise SdmmError(f"--rows must be divisible by K={params.K}")
    if args.inner is not None and args.inner % params.M:
        raise SdmmError(f"--inner must be divisible by M={params.M}")
    if args.cols is not None and args.cols % params.L:
        raise SdmmError(f"--cols must be divisible by L={params.L}")
    if min(a0, s0, b0) < 1:
        raise SdmmError("matrix dimensions too small for the block grid")
    rng = random.Random(f"sdmm-input-{args.seed}")
    A = BlockMatrix.random(params.K * a0, params.M * s0, ctx, rng)
    B = BlockMatrix.random(params.M * s0, params.L * b0, ctx, rng)
    return A, B, _find_plan(args, params, ctx)


def cmd_simulate(args) -> int:
    params = parse_scheme_spec(args.scheme)
    ctx = parse_field_spec(args.field)
    A, B, plan = _build_instance(args, params, ctx)
    rep = run_protocol(A, B, plan, stragglers=args.stragglers, seed=args.seed)
    return _emit_report(rep.to_dict(include_timing=args.timing), args, hide=("plan",))


def cmd_p_of_s(args) -> int:
    params = parse_scheme_spec(args.scheme)
    out = {"scheme": params.spec_string(), "S": args.S, "mode": args.mode}
    if args.mode == "bound":
        if params.variant != MP or params.T:
            raise SdmmError("bound mode covers only noise-free mp: schemes; "
                            "use --mode exhaustive or mc")
        P = args.hypernodes if args.hypernodes is not None else threshold(params).P_prime
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


def _add_budget(sp):
    sp.add_argument("--budget", type=int, default=200_000,
                    help="minor-scan budget per candidate")


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
    _add_budget(sp)
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
    _add_budget(sp)
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
    _add_budget(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_p_of_s)

    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        args = parser.parse_args(_inject_config(argv, parser))
        return args.func(args)
    except (BudgetExceeded, BudgetExhausted) as exc:
        hint = "; raise it with --budget" if isinstance(exc, BudgetExceeded) else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        for field_diag in getattr(exc, "diagnostics", {}).get("fields", []):
            reason = field_diag.get("gate") or (
                f"field {field_diag['field']}: {field_diag['attempts']} attempts, "
                f"{field_diag['decode_failures']} decode failures, "
                f"{field_diag['security_failures']} security failures")
            print(f"  {reason}", file=sys.stderr)
        return 3
    except DecodeFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SdmmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
