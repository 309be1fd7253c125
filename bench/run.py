"""Benchmark of the sdmm library: seeded workloads, checked outputs, metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload product --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One client runs a closed loop in one process with no threads, pinned to
one CPU: each op starts when the previous one has returned. A run executes
a fixed list of whole op cycles (see workloads.CYCLE_SECONDS), checks every
output against an independent reference after the loop, and prints its
metrics by name with units. Times are scaled to a reference host speed
measured in the same run (see CAL_REF_S). The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 1 when any
output check failed.

With --trace 1 the run first repeats the untraced loop, then runs the same
op list with every layer boundary wrapped (see tracing.py). It reports the
per-layer metrics, checks that the traced and untraced determinism digests
are equal, and writes the spans to bench/out/trace-<workload>.npz.

Every run appends a record (versions, nproc, commit, seed, op count, each
metric and each op latency) to bench/out/runs.jsonl.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
NAMES = ("product", "sweep", "design", "extfield")

# setup_s is the median of this many set-ups: this process plus fresh ones
SETUP_SAMPLES = 5

# Host-speed calibration. On a shared 2-vCPU sandbox the same op took up to
# 1.7x longer from one few-second window to the next, far more than any
# bound. After every op the loop times a fixed pure-Python kernel that never
# calls the library (a CAL_SIDE x CAL_SIDE product mod 2^31 - 1). Every
# reported time is scaled by CAL_REF_S / (median kernel time over the op's
# cycle): the time the op would take on a host where the kernel takes
# CAL_REF_S seconds. Raw wall-clock values go into the run record too.
CAL_SIDE = 24
CAL_REF_S = 0.003
P31 = (1 << 31) - 1

# (metric name, unit, better) of the untraced run, in report order
END_TO_END = (
    ("ops_per_s", "op/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("op_p90_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


def require_sources():
    if not (SRC / "sdmm" / "__init__.py").is_file():
        sys.exit(f"error: no sdmm sources under {SRC}; run from a full checkout")


def import_library():
    """Import sdmm from this checkout's src/, and nothing else."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import sdmm
    if Path(sdmm.__file__).resolve().parent != (SRC / "sdmm").resolve():
        sys.exit(f"error: imported sdmm from {sdmm.__file__}, not from {SRC}")
    return sdmm


def _calibration_matrix():
    rng = random.Random(0)
    return [[rng.randrange(P31) for _ in range(CAL_SIDE)] for _ in range(CAL_SIDE)]


CAL_MATRIX = _calibration_matrix()


def calibrate():
    """Seconds one run of the calibration kernel takes now."""
    t0 = time.perf_counter()
    cols = list(zip(*CAL_MATRIX))
    [[sum(x * y for x, y in zip(row, col)) % P31 for col in cols] for row in CAL_MATRIX]
    return time.perf_counter() - t0


def run_ops(workload, tracer=None):
    """Run every op in order, timing the calibration kernel after each.

    Returns outputs, per-op latencies, kernel times and the loop's wall
    seconds. An op that raises is recorded as its exception and the loop
    goes on.
    """
    outputs, latencies, cal = [], [], []
    pc = time.perf_counter
    loop_start = pc()
    for op in workload.ops:
        if tracer is not None:
            tracer.op = op["index"]
        t0 = pc()
        try:
            out = workload.run(op)
        except Exception as exc:  # a failed op is counted, not fatal
            out = exc
        latencies.append(pc() - t0)
        outputs.append(out)
        cal.append(calibrate())
    return outputs, latencies, cal, pc() - loop_start


def op_times(latencies, cal, cycle_len):
    """Every op's latency as its slot's median over the cycles, at reference speed.

    A slot is an op's position in the cycle: the same kind of op on the same
    sizes, so its repeats differ only by host noise. Each cycle is scaled by
    its own median calibration time.
    """
    scaled = []
    for start in range(0, len(latencies), cycle_len):
        factor = CAL_REF_S / statistics.median(cal[start:start + cycle_len])
        scaled.extend(t * factor for t in latencies[start:start + cycle_len])
    slots = [statistics.median(scaled[k::cycle_len]) for k in range(cycle_len)]
    return slots * (len(latencies) // cycle_len)


def timing_metrics(times):
    p90, beyond = nearest_rank(times, 0.9)
    return {"ops_per_s": len(times) / sum(times), "op_p50_s": statistics.median(times),
            "op_p90_s": p90}, beyond


def check_outputs(workload, outputs):
    """Records of every op, failure reasons, and the determinism digest."""
    records, failures = [], []
    for op, out in zip(workload.ops, outputs):
        record, err = workload.check(op, out)
        records.append(record)
        if err is not None:
            failures.append(f"op {op['index']}: {err}")
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return records, failures, hashlib.sha256(blob.encode()).hexdigest()


def nearest_rank(values, q):
    """The q-quantile by nearest rank, and how many samples lie beyond it."""
    ordered = sorted(values)
    k = max(1, math.ceil(q * len(ordered)))
    return ordered[k - 1], len(ordered) - k


def setup_samples(args, own):
    """(raw, scaled) set-up seconds of this process and SETUP_SAMPLES - 1 fresh ones."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return [(s["setup_s"], s["setup_s"] * CAL_REF_S / s["cal_s"]) for s in samples]


def commit_id():
    """HEAD of this checkout, or None outside a git checkout of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def write_record(record):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def emit(correct, attempted, failed, metrics, table):
    units = {name: unit for name, unit, _ in table}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def run_workload(args):
    sdmm = import_library()
    import numpy as np
    import workloads

    workload = workloads.make(args.workload, args.seed, args.seconds)
    workload.run(workload.warm_op)
    own_setup = time.perf_counter() - _T_START
    own = {"setup_s": own_setup, "cal_s": statistics.median(calibrate() for _ in range(9))}
    if args.setup_only:
        print(json.dumps(own))
        return 0

    outputs, latencies, cal, loop_s = run_ops(workload)
    records, failures, digest = check_outputs(workload, outputs)
    n = len(latencies)
    e2e, beyond = timing_metrics(op_times(latencies, cal, workload.cycle_len))
    ops_per_s = e2e["ops_per_s"]
    raw = {"ops_per_s": n / loop_s, "op_p50_s": statistics.median(latencies),
           "op_p90_s": nearest_rank(latencies, 0.9)[0],
           "host_speed": CAL_REF_S / statistics.median(cal)}
    attempted, failed = n, len(failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "sdmm": sdmm.__version__, "nproc": os.cpu_count(),
        "commit": commit_id(), "ops": n, "digest": digest, "latencies_s": latencies,
        "calibration_s": cal, "failures": failures[:20],
    }

    print(f"workload {args.workload}  seed {args.seed}  ops {n}  trace {args.trace}")
    if args.trace:
        import tracing
        with tracing.Tracer() as tracer:
            t_outputs, t_latencies, t_cal, _ = run_ops(workload, tracer)
        t_ops_per_s = timing_metrics(
            op_times(t_latencies, t_cal, workload.cycle_len))[0]["ops_per_s"]
        t_records, t_failures, t_digest = check_outputs(workload, t_outputs)
        attempted += n
        failed += len(t_failures)
        failures += t_failures
        if t_digest != digest:
            failures.append("traced digest differs from the untraced digest")
        mults = {}
        for rec in t_records:
            for phase, count in (rec.get("mult_counts") or {}).items():
                mults[phase] = mults.get(phase, 0) + count
        metrics = tracing.layer_metrics(tracer.spans(), tracer.names, mults,
                                        t_ops_per_s / ops_per_s)
        tracer.write(OUT_DIR / f"trace-{args.workload}.npz")
        table = tracing.PER_LAYER
        record.update(traced_digest=t_digest, untraced_ops_per_s=ops_per_s,
                      traced_ops_per_s=t_ops_per_s, spans=len(tracer.name))
        print(f"  untraced ops_per_s {ops_per_s:.4f} op/s, traced {t_ops_per_s:.4f} op/s"
              f", {len(tracer.name)} spans")
        for name, unit, _ in table:
            if metrics[name]:
                print(f"  {name:<52} {metrics[name]:>14.6g} {unit}")
    else:
        e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples = setup_samples(args, own)
        e2e["setup_s"] = statistics.median(s for _, s in samples)
        raw["setup_s"] = statistics.median(r for r, _ in samples)
        record.update(setup_samples_s=samples, raw=raw)
        metrics = {name: e2e[name] for name, _, _ in END_TO_END}
        table = END_TO_END
        for name, unit, _ in table:
            note = ""
            if name == "op_p90_s":
                note = f"  ({beyond} of {n} samples beyond)"
            elif name == "setup_s":
                note = f"  (median of {len(samples)})"
            if name in raw:
                note = f"  raw {raw[name]:.6g}{note}"
            print(f"  {name:<12} {metrics[name]:>12.6g} {unit}{note}")
        print(f"  {'error_rate':<12} {failed / attempted:>12.6g} fraction  ({failed} of {attempted})")
        print(f"  {'host_speed':<12} {raw['host_speed']:>12.6g} (reference kernel time / measured)")

    correct = not failures
    print(f"  digest {digest}")
    for reason in failures[:20]:
        print(f"  FAILED {reason}")
    record.update(attempted=attempted, failed=failed, correct=correct, metrics=metrics)
    write_record(record)
    emit(correct, attempted, failed, metrics, table)
    return 0 if correct else 1


def run_all(args):
    """Each workload in a fresh process (peak RSS is per process), then a summary."""
    require_sources()
    import tracing
    table = tracing.PER_LAYER if args.trace else END_TO_END
    units = {name: unit for name, unit, _ in table}
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        result = json.loads(lines[-1]) if lines else {}
        correct &= done.returncode == 0 and result.get("correct", False)
        attempted += result.get("attempted", 0)
        failed += result.get("failed", 0)
        for metric, value in result.get("metrics", {}).items():
            metrics[f"{name}.{metric}"] = value["value"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m.split(".", 1)[1]]}
                    for m, v in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20,
                        help="nominal length of the timed loop; fixes the cycle count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the whole run: the scheduler moving the process between
        # CPUs that a shared host runs at different speeds adds noise
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
