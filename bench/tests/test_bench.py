"""Self-tests of the benchmark: smoke runs, span arithmetic, fault injection.

Run from the root of a checkout with ``python3 -m pytest bench/tests``.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import sdmm.protocol  # noqa: E402
from sdmm import BlockMatrix  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Cheap ops of each workload, one cycle long, that still cover every op kind
# the checks distinguish (decoded, undecodable, non-trivial fractions).
SMOKE_OPS = {
    "product": lambda op: op["side"] <= 24,
    "sweep": lambda op: (op["plan"], op["S"]) in {("T0", 2), ("T0", 5), ("T1", 1), ("T1", 3)},
    "design": lambda op: op["budget"] in (None, 100),
    "extfield": lambda op: op["side"] <= 12,
}


def smoke(name, seed=3):
    wl = workloads.WORKLOADS[name](seed, 1)
    wl.ops = [op for op in wl.ops if SMOKE_OPS[name](op)]
    return wl


@pytest.mark.parametrize("name", sorted(SMOKE_OPS))
def test_smoke_run_has_no_failures(name):
    wl = smoke(name)
    outputs, latencies, _, _ = run.run_ops(wl)
    _, failures, digest = run.check_outputs(wl, outputs)
    assert failures == []
    assert len(latencies) == len(wl.ops) > 0
    # same seed, same outputs
    again = run.run_ops(wl)[0]
    assert run.check_outputs(wl, again)[2] == digest


def test_traced_run_keeps_the_digest_and_restores_the_library():
    wl = smoke("extfield")
    original = sdmm.protocol.decode
    _, _, digest = run.check_outputs(wl, run.run_ops(wl)[0])
    with tracing.Tracer() as tracer:
        outputs = run.run_ops(wl, tracer)[0]
    assert sdmm.protocol.decode is original
    assert run.check_outputs(wl, outputs)[2] == digest
    metrics = tracing.layer_metrics(tracer.spans(), tracer.names, {}, 1.0)
    assert metrics["protocol.run_protocol.calls"] == len(wl.ops)
    assert metrics["protocol.decode.route_hypernode"] > 0
    assert metrics["protocol.decode.route_full"] > 0
    assert metrics["protocol.decode.undecodable"] > 0


def test_self_time_of_a_synthetic_span_tree():
    # a [0,10] -> b [1,4] -> b [2,3] (recursion); a -> c [5,9] -> b [6,8]
    name = np.array([0, 1, 1, 2, 1])
    parent = np.array([-1, 0, 1, 0, 3])
    start = np.array([0.0, 1.0, 2.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 8.0])
    got = tracing.layer_times(name, parent, start, end, 3)
    assert got[0] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0}
    assert got[1] == {"calls": 3, "busy_s": 5.0, "self_s": 5.0}
    assert got[2] == {"calls": 1, "busy_s": 4.0, "self_s": 2.0}
    assert sum(v["self_s"] for v in got.values()) == 10.0


def test_op_times_scale_each_cycle_and_take_slot_medians():
    ref = run.CAL_REF_S
    # the second cycle ran on a host twice as slow, and slot 0 hit noise once
    latencies = [1.0, 2.0, 3.0, 2.0, 4.0, 6.0, 9.0, 2.0, 3.0]
    cal = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, ref, ref, ref]
    times = run.op_times(latencies, cal, 3)
    assert times == [1.0, 2.0, 3.0] * 3
    metrics, beyond = run.timing_metrics(times)
    assert metrics == {"ops_per_s": 0.5, "op_p50_s": 2.0, "op_p90_s": 3.0}
    assert beyond == 0


def test_decode_routes_of_a_synthetic_span_tree():
    code = {n: i for i, n in enumerate(n for n, _, _ in tracing.TARGETS)}
    dec, itp, pofs = (code["protocol.decode"], code["matpoly.interpolate"],
                      code["protocol.p_of_s_empirical"])
    # p_of_s -> three decodes of a plan whose class support has 7 exponents:
    # hypernode route; singular hypernode system then full route; undecodable
    rows = [(pofs, -1, 0, 0), (dec, 0, 7, 0), (itp, 1, 7, 0),
            (dec, 0, 7, 0), (itp, 3, 7, 1), (itp, 3, 22, 0), (dec, 0, 7, 1)]
    spans = {
        "name": np.array([r[0] for r in rows]),
        "parent": np.array([r[1] for r in rows]),
        "val": np.array([r[2] for r in rows], dtype=float),
        "err": np.array([r[3] for r in rows]),
        "start": np.arange(len(rows), dtype=float),
        "end": np.arange(len(rows), dtype=float) + 0.5,
        "op": np.zeros(len(rows), dtype=int),
    }
    got = tracing.layer_metrics(spans, [n for n, _, _ in tracing.TARGETS], {}, 1.0)
    assert got["protocol.decode.route_hypernode"] == 1
    assert got["protocol.decode.route_full"] == 1
    assert got["protocol.decode.undecodable"] == 1
    assert got["protocol.decode.hypernode_ratio"] == 0.5
    assert got["protocol.p_of_s_empirical.patterns"] == 3


def _corrupting_decode(monkeypatch, corrupt_call):
    """Make the corrupt_call-th successful decode return one wrong block."""
    real = sdmm.protocol.decode
    calls = []

    def decode(responses, plan, counter=None):
        blocks = real(responses, plan, counter)
        calls.append(1)
        if len(calls) == corrupt_call:
            blk = blocks[(0, 0)]
            bump = [[int(i == j == 0) for j in range(blk.cols)] for i in range(blk.rows)]
            blocks = {**blocks, (0, 0): blk + BlockMatrix(bump, blk.ctx)}
        return blocks

    monkeypatch.setattr(sdmm.protocol, "decode", decode)


@pytest.mark.parametrize("name", ["product", "sweep"])
def test_a_corrupted_block_counts_as_a_failure(monkeypatch, name):
    wl = smoke(name)
    _corrupting_decode(monkeypatch, corrupt_call=2)
    outputs = run.run_ops(wl)[0]
    _, failures, _ = run.check_outputs(wl, outputs)
    assert len(failures) == 1


def test_a_wrong_product_hash_counts_as_a_failure():
    wl = smoke("product")
    op = next(op for op in wl.ops if op["stragglers"] == "0:hypernode")
    report = wl.run(op)
    assert wl.check(op, report)[1] is None
    forged = dataclasses.replace(report, decoded_product_hash="0" * 64)
    assert "reference" in wl.check(op, forged)[1]


def test_reference_product_over_an_extension_field():
    ctx = sdmm.make_field(31, 2)
    a = [[(1, 2), (3, 4)], [(5, 6), (7, 8)]]
    b = [[(9, 10), (11, 12)], [(13, 14), (15, 16)]]
    want = BlockMatrix(a, ctx).matmul(BlockMatrix(b, ctx))
    got = workloads.reference_product(a, b, 31, ctx.modulus_poly)
    assert [[e.coeffs for e in row] for row in want.data] == got


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == list(tracing.PER_LAYER))
