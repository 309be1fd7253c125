"""The four benchmark workloads: seeded inputs, one op, and output checks.

Every workload is built from a seed and a cycle count. It generates its
inputs with its own random generator, so the library receives only the
generated matrices, plans and seeds. ``ops`` is a fixed list of whole op
cycles of ``cycle_len`` ops each. ``run(op)`` performs one op through the
library's public API, and ``check(op, output)`` returns the op's
deterministic record (the input to the determinism digest) and a failure
reason or None.

The checks do not trust the timed path. Products are compared by sha256
with a reference ``A @ B`` computed here on plain integers (or plain
polynomials, for GF(p^r)). Straggler-robustness fractions are compared with
frozen exact values. Design outputs are re-certified by separate library
checks and cross-checked against the support-counting oracle.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from sdmm import (
    BlockMatrix,
    SchemeParams,
    decodability_check,
    find_evaluation_vector,
    make_field,
    mp_plan,
    mp_recovery_threshold_with_security,
    p_of_s_empirical,
    rate_sweep_fixed_n,
    run_protocol,
    security_check,
)
from sdmm.thresholds import product_class_support, threshold_from_support

P31 = (1 << 31) - 1


# -- independent references ---------------------------------------------------------


def field_spec(p: int, modulus: tuple) -> str:
    """Field spec in the documented text format; modulus is () for GF(p)."""
    if not modulus:
        return str(p)
    return f"{p}^{len(modulus) - 1}/" + ",".join(str(c) for c in modulus)


def reference_product(a: list, b: list, p: int, modulus: tuple) -> list:
    """A @ B on plain integers: entries are ints for GF(p), else coefficient tuples.

    For GF(p^r) each entry is a polynomial of degree < r; products are summed
    unreduced and folded once by the monic modulus (low degree first).
    """
    b_cols = list(zip(*b))
    if not modulus:
        return [[sum(x * y for x, y in zip(row, col)) % p for col in b_cols]
                for row in a]
    r = len(modulus) - 1
    out = []
    for row in a:
        out_row = []
        for col in b_cols:
            acc = [0] * (2 * r - 1)
            for x, y in zip(row, col):
                for i, xi in enumerate(x):
                    if xi:
                        for j, yj in enumerate(y):
                            acc[i + j] += xi * yj
            for d in range(2 * r - 2, r - 1, -1):
                c = acc[d] % p
                if c:
                    for j in range(r):
                        acc[d - r + j] -= c * modulus[j]
            out_row.append(tuple(v % p for v in acc[:r]))
        out.append(out_row)
    return out


def matrix_hash(m: list, spec: str) -> str:
    """sha256 of a matrix in the documented matrix text format."""
    lines = [f"{len(m)} {len(m[0])} {spec}"]
    for row in m:
        lines.append(" ".join(
            str(v) if isinstance(v, int) else ",".join(str(c) for c in v) for v in row))
    return hashlib.sha256(("\n".join(lines) + "\n").encode("ascii")).hexdigest()


def _random_matrix(rows: int, cols: int, p: int, r: int, rng: random.Random) -> list:
    if r == 1:
        return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    return [[tuple(rng.randrange(p) for _ in range(r)) for _ in range(cols)]
            for _ in range(rows)]


def _op_seeds(name: str, seed: int, count: int) -> list:
    rng = random.Random(f"bench-ops-{name}-{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]


def _failed(op, exc) -> tuple:
    return {"op": op["index"], "error": type(exc).__name__}, f"raised {exc!r}"


# -- product and extfield: audited protocol runs --------------------------------------


class ProtocolWorkload:
    """Audited ``run_protocol`` ops cycling through sides and straggler slots.

    The cycle is every (side, straggler slot) pair. A slot is a straggler
    count and the decode outcome it must lead to: ``hypernode`` (at least
    ``p_prime`` hypernodes complete), ``full`` (fewer, but at least
    ``n_full`` responses, so the decoder falls back to full interpolation)
    or ``undecodable``. Each op draws its own straggler set from the seed
    among the sets with the slot's outcome, so every cycle has the same
    route mix and the same work.

    A decode that fails although at least ``p_prime`` hypernodes were
    complete is a failure: ``find_evaluation_vector`` certified any
    ``p_prime`` base points.
    """

    def __init__(self, name, seed, cycles, ctx, params, hypernodes, sides,
                 slots, p_prime, n_full):
        self.ctx = ctx
        self.params = params
        self.p_prime = p_prime
        self.n_full = n_full
        self.modulus = ctx.modulus_poly if ctx.r > 1 else ()
        self.spec = field_spec(ctx.p, self.modulus)
        self.plan = find_evaluation_vector(params, ctx, n_hypernodes=hypernodes,
                                           seed=seed)
        rng = random.Random(f"bench-inputs-{name}-{seed}")
        cycle = [(side, slot) for side in sides for slot in slots]
        self.inputs = []
        for side, _ in cycle:
            a = _random_matrix(side, side, ctx.p, ctx.r, rng)
            b = _random_matrix(side, side, ctx.p, ctx.r, rng)
            self.inputs.append((a, b, BlockMatrix(a, ctx), BlockMatrix(b, ctx)))
        self.cycle_len = len(cycle)
        seeds = _op_seeds(name, seed, cycles * len(cycle))
        down_rng = random.Random(f"bench-stragglers-{name}-{seed}")
        self.ops = []
        for i, s in enumerate(seeds):
            side, (count, outcome) = cycle[i % len(cycle)]
            self.ops.append({"index": i, "slot": i % len(cycle), "side": side,
                             "stragglers": f"{count}:{outcome}", "seed": s,
                             "down": self._draw(down_rng, count, outcome)})
        self.warm_op = {"index": -1, "slot": 0, "side": sides[0],
                        "stragglers": "0:hypernode", "seed": 0, "down": []}

    def _complete(self, down) -> int:
        M = self.params.M
        return sum(1 for h in range(self.plan.n_hypernodes)
                   if not down & set(range(h * M, (h + 1) * M)))

    def _outcome(self, down) -> str:
        if self._complete(down) >= self.p_prime:
            return "hypernode"
        return "full" if self.plan.n_workers - len(down) >= self.n_full else "undecodable"

    def _draw(self, rng, count, outcome) -> list:
        while True:
            down = set(rng.sample(range(self.plan.n_workers), count))
            if self._outcome(down) == outcome:
                return sorted(down)

    def run(self, op):
        _, _, A, B = self.inputs[op["slot"]]
        return run_protocol(A, B, self.plan, stragglers=op["down"], seed=op["seed"])

    def check(self, op, report):
        if isinstance(report, Exception):
            return _failed(op, report)
        down = set(report.straggler_set)
        record = {"op": op["index"], "side": op["side"], "stragglers": op["stragglers"],
                  "seed": op["seed"], "straggler_set": sorted(down),
                  "decoded": report.decode_success,
                  "hash": report.decoded_product_hash,
                  "mult_counts": report.mult_counts}
        if report.decode_success:
            a, b, _, _ = self.inputs[op["slot"]]
            want = matrix_hash(reference_product(a, b, self.ctx.p, self.modulus), self.spec)
            if report.decoded_product_hash != want:
                return record, "decoded product differs from the reference A @ B"
            return record, None
        complete = self._complete(down)
        if complete >= self.p_prime:
            return record, f"undecodable with {complete} complete hypernodes"
        return record, None


def product(seed: int, cycles: int) -> ProtocolWorkload:
    """mp:K=2,M=3,L=2,T=2,D=1 on 10 hypernodes (30 workers) over GF(2^31 - 1).

    P' = 8 hypernodes, N' = 25 responses.
    """
    return ProtocolWorkload("product", seed, cycles, make_field(P31),
                            SchemeParams.mp(2, 3, 2, 2, 1), hypernodes=10,
                            sides=(12, 24, 48),
                            slots=((0, "hypernode"), (1, "hypernode"), (3, "full"),
                                   (6, "undecodable")),
                            p_prime=8, n_full=25)


def extfield(seed: int, cycles: int) -> ProtocolWorkload:
    """mp:K=2,M=3,L=2,T=1,D=1 on 8 hypernodes (24 workers) over GF(31^2).

    P' = 7 hypernodes, N' = 22 responses.
    """
    return ProtocolWorkload("extfield", seed, cycles, make_field(31, 2),
                            SchemeParams.mp(2, 3, 2, 1, 1), hypernodes=8,
                            sides=(6, 12, 18),
                            slots=((0, "hypernode"), (1, "hypernode"), (2, "full"),
                                   (3, "undecodable")),
                            p_prime=7, n_full=22)


# -- sweep: exact straggler-robustness fractions ------------------------------------


def frozen_gf31_plan(T: int, hypernodes: int):
    """The verify-examples GF(31) deployments: base points 15^0..15^(P-1), zeta 5."""
    ctx = make_field(31)
    w = ctx.element(15)
    return mp_plan(SchemeParams.mp(2, 3, 2, T), ctx,
                   [w.pow_(k) for k in range(hypernodes)], zeta=ctx.element(5))


# Exact decode fractions of the frozen plans. They depend only on the plan
# and S (which survivor sets leave a solvable system), never on the inputs.
SWEEP_FRACTIONS = {
    ("T0", 2): Fraction(1), ("T0", 3): Fraction(1),
    ("T0", 5): Fraction(90, 8568), ("T0", 6): Fraction(15, 18564),
    ("T1", 1): Fraction(1), ("T1", 2): Fraction(1), ("T1", 3): Fraction(1, 253),
}


class SweepWorkload:
    """Exhaustive ``p_of_s_empirical`` ops on the two frozen GF(31) plans."""

    def __init__(self, seed, cycles):
        self.plans = {"T0": frozen_gf31_plan(0, 6), "T1": frozen_gf31_plan(1, 8)}
        ctx = self.plans["T0"].ctx
        rng = random.Random(f"bench-inputs-sweep-{seed}")
        cycle = list(SWEEP_FRACTIONS)
        self.inputs = [(BlockMatrix(_random_matrix(4, 3, 31, 1, rng), ctx),
                        BlockMatrix(_random_matrix(3, 4, 31, 1, rng), ctx))
                       for _ in cycle]
        self.cycle_len = len(cycle)
        seeds = _op_seeds("sweep", seed, cycles * len(cycle))
        self.ops = [{"index": i, "slot": i % len(cycle), "plan": cycle[i % len(cycle)][0],
                     "S": cycle[i % len(cycle)][1], "seed": s}
                    for i, s in enumerate(seeds)]
        self.warm_op = {"index": -1, "slot": 4, "plan": "T1", "S": 1, "seed": 0}

    def run(self, op):
        A, B = self.inputs[op["slot"]]
        return p_of_s_empirical(A, B, self.plans[op["plan"]], op["S"],
                                mode="exhaustive", seed=op["seed"])

    def check(self, op, fraction):
        if isinstance(fraction, Exception):
            return _failed(op, fraction)
        record = {"op": op["index"], "plan": op["plan"], "S": op["S"],
                  "seed": op["seed"], "fraction": str(fraction)}
        want = SWEEP_FRACTIONS[(op["plan"], op["S"])]
        if fraction != want:
            return record, f"p({op['S']}) = {fraction} on {op['plan']}, frozen {want}"
        return record, None


# -- design: sizing and certifying deployments --------------------------------------


def frozen_gf61_plan():
    """The verify-examples 30-worker GF(61) deployment of mp:K=2,M=3,L=2,T=2."""
    ctx = make_field(61)
    w = ctx.element(8)
    return mp_plan(SchemeParams.mp(2, 3, 2, 2), ctx,
                   [w.pow_(k) for k in (0, 1, 2, 3, 4, 7, 8, 9, 12, 13)],
                   zeta=ctx.element(47))


class DesignWorkload:
    """Rate searches, plan searches and recovery-threshold certification.

    One cycle: ``rate_sweep_fixed_n`` at 100, 150 and 200 workers; a plan
    search plus an exhaustive recovery scan (15,504 minors) for
    mp:K=2,M=2,L=2,T=1 on 10 hypernodes over GF(2^31 - 1); the recovery
    scan of the frozen GF(61) deployment, which stops at a singular
    witness; and a plan search that escalates from GF(13) to GF(13^2).
    """

    CYCLE = (("rate", 100), ("rate", 150), ("rate", 200),
             ("certify", None), ("frozen", None), ("escalate", None))

    def __init__(self, seed, cycles):
        self.p31 = make_field(P31)
        self.f13 = make_field(13)
        self.certify_params = SchemeParams.mp(2, 2, 2, 1)
        self.escalate_params = SchemeParams.mp(2, 3, 2, 1)
        self.frozen = frozen_gf61_plan()
        self.cycle_len = len(self.CYCLE)
        seeds = _op_seeds("design", seed, cycles * len(self.CYCLE))
        self.ops = [{"index": i, "kind": self.CYCLE[i % len(self.CYCLE)][0],
                     "budget": self.CYCLE[i % len(self.CYCLE)][1], "seed": s}
                    for i, s in enumerate(seeds)]
        self.warm_op = {"index": -1, "kind": "escalate", "budget": None, "seed": 0}

    def run(self, op):
        kind = op["kind"]
        if kind == "rate":
            return rate_sweep_fixed_n(op["budget"])
        if kind == "certify":
            plan = find_evaluation_vector(self.certify_params, self.p31,
                                          n_hypernodes=10, seed=op["seed"])
            return plan, mp_recovery_threshold_with_security(None, plan, mode="exhaustive")
        if kind == "frozen":
            return mp_recovery_threshold_with_security(None, self.frozen, mode="exhaustive")
        return find_evaluation_vector(self.escalate_params, self.f13, n_hypernodes=8,
                                      seed=op["seed"], max_escalations=1)

    def check(self, op, out):
        if isinstance(out, Exception):
            return _failed(op, out)
        kind = op["kind"]
        record = {"op": op["index"], "kind": kind, "seed": op["seed"]}
        if kind == "rate":
            record["rows"] = out
            return record, _check_rate_rows(out, op["budget"])
        if kind == "certify":
            plan, report = out
            record["base_points"] = [a.index() for a in plan.base_points]
            record["report"] = report.to_dict()
            return record, (_check_plan(plan) or _check_recovery(report)
                            or (None if report.certified else "threshold not certified"))
        if kind == "frozen":
            record["report"] = out.to_dict()
            err = _check_recovery(out)
            if err is None and not (out.threshold == 28 and out.certified):
                err = f"GF(61) deployment reports {out.threshold}, wanted a certified 28"
            if err is None and (out.witness is None or out.witness.ok):
                err = "GF(61) scan found no singular survivor set"
            return record, err
        record["field"] = out.ctx.spec_string()
        record["base_points"] = [a.index() for a in out.base_points]
        err = _check_plan(out)
        if err is None and (out.ctx.p, out.ctx.r) != (13, 2):
            err = f"search ended in GF({out.ctx.p}^{out.ctx.r}), wanted GF(13^2)"
        return record, err


def _check_plan(plan):
    if not decodability_check(plan, product_class_support(plan.params)):
        return "returned plan fails the decodability check"
    if plan.params.T and not security_check(plan).ok:
        return "returned plan fails the security check"
    return None


def _check_recovery(report):
    if not report.n_prime <= report.threshold <= report.upper_bound:
        return (f"threshold {report.threshold} outside "
                f"[{report.n_prime}, {report.upper_bound}]")
    return None


def _check_rate_rows(rows, budget):
    """Each row's winning grid, recounted by the support-enumeration oracle."""
    if not rows:
        return "rate search returned no rows"
    for row in rows:
        K, M, L, T = row["K"], row["M"], row["L"], row["T"]
        if row["scheme"] == "mp":
            oracle = threshold_from_support(SchemeParams.mp(K, M, L, T, row["D_or_r"] or 1))
            n = M * oracle.P_prime
        else:
            oracle = threshold_from_support(SchemeParams.ggasp(K, M, L, T, row["D_or_r"] or 1))
            n = oracle.N
        if row["N"] != n or n > budget or Fraction(row["rate"]) != Fraction(K * M * L, n):
            return f"rate row {row} disagrees with the support oracle (N = {n})"
    return None


WORKLOADS = {
    "product": product,
    "sweep": SweepWorkload,
    "design": DesignWorkload,
    "extfield": extfield,
}

# Seconds one op cycle takes at the seed commit on a 2-vCPU x86-64 sandbox
# (Python 3.11, numpy 2.4), pinned to one CPU as run.py does. A run executes
# round(seconds / this) whole cycles, so its op list is fixed by the seed
# and --seconds alone.
CYCLE_SECONDS = {"product": 7.7, "sweep": 3.3, "design": 2.85, "extfield": 2.2}


def make(name: str, seed: int, seconds: float):
    cycles = max(1, round(seconds / CYCLE_SECONDS[name]))
    return WORKLOADS[name](seed, cycles)

