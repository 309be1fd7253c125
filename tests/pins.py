"""Output pins: the seeded command-line sha256s, the benchmark digests and the traced counts.

Each group runs its commands from the repository root and compares what
they print with the values below: cli (the sha256 of each command's
standard output, after `--version` runs), digests (bench/run.py's
determinism digest of each workload) and trace-<workload> (counts from a
traced bench/run.py run). The script stops at the first pin that does not
hold, names it and exits 1; it exits 0 when every pin of the groups asked
for holds. A deliberate change to an output changes its pin here. pytest
does not collect this file. Run it as

    python tests/pins.py [group ...]

with no group meaning all of them, in the order listed in GROUPS.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLI = [  # (sha256 of the standard output, the arguments of python -m sdmm.cli)
    ("042331c9bef0420b24b5bd26a278f7dab83613822268d39d91180abb9b870733", ["verify-examples"]),
    ("a3287239471df4198fa6015a1f7739cb51570d3cdad340f725f9f2afcf5c8764",
     ["fixed-n-search", "--workers", "1000"]),
    ("97bd7551fa5876405bbe38bffadc85c8a1d7c2dd117dd02d17d2bdca1187ebd3",
     ["fixed-n-search", "--workers", "400", "--t-max", "30"]),
    ("7412760ded80b61c3760f399bab5e75d7b63a07c782d8d2523ca989dd862be80",
     ["simulate", "--scheme", "mp:K=2,M=3,L=2,T=2", "--field", "2305843009213693951",
      "--hypernodes", "10", "--stragglers", "random:3", "--seed", "1", "--json"]),
    ("b1686e910cb1a993d026ce87f00a19f958c76ad844c863779ffd6db7e8303931",  # the paper's grid
     ["simulate", "--scheme", "mp:K=5,M=2,L=5,T=4", "--hypernodes", "43", "--rows", "100",
      "--inner", "100", "--cols", "100", "--stragglers", "random:2", "--seed", "1",
      "--budget", "3000000", "--field", "2305843009213693951", "--json"]),
    ("e3cff36adfa8325e43ce6efa75b5cd03b0ec82eeba3f1ff71287795bfcf9bfa9",
     ["simulate", "--scheme", "mp:K=2,M=3,L=2,T=1", "--field", "31^2", "--hypernodes", "8",
      "--stragglers", "random:2", "--seed", "1", "--json"]),
    ("43118620108a8f69244428a88bc2b16c17255d4cef9514c321eafc0de85a587c",
     ["simulate", "--scheme", "mp:K=2,M=3,L=2,T=1", "--field", "31^2", "--hypernodes", "8",
      "--stragglers", "random:2", "--seed", "1"]),
    ("eb3cfc9b47589913bb5f92d2977e836eea343e94988ea90532d200f3234b6827",
     ["simulate", "--scheme", "mp:K=2,M=3,L=2,T=1", "--field", "7^3", "--hypernodes", "8",
      "--stragglers", "random:2", "--seed", "1", "--json"]),
    ("f09319bd99975edf248fbd4cd0f5afad023ac85f6c9127b18f3bdc6a327bab02",
     ["simulate", "--scheme", "ggasp:K=2,M=2,L=2,T=2,r=2", "--field", "7681", "--workers", "20",
      "--stragglers", "random:2", "--seed", "1", "--json"]),
    ("4d9f943bf66a7d2d2be56077bdbcb741c2d3ba1b8fb2a22647a5daba7cba5e8a",
     ["p-of-s", "--mode", "exhaustive", "--scheme", "mp:K=2,M=3,L=2,T=1,D=1", "--field", "31",
      "--hypernodes", "8", "-S", "3"]),
    ("134579dd6e25cceafc62d9b2b093204daadcfccc7ea491481ff6e9bf78934609",
     ["p-of-s", "--mode", "exhaustive", "--scheme", "mp:K=2,M=3,L=2,T=2", "--field",
      "2147483647", "--hypernodes", "10", "-S", "7"]),
    ("e90658534df0d597f2e17470ead621c8c978eb90a9efb26a29e8620fa9f3a632",
     ["p-of-s", "--mode", "mc", "--scheme", "mp:K=2,M=3,L=2,T=1", "--field", "31",
      "--hypernodes", "8", "-S", "3", "--samples", "300", "--seed", "3"]),
]

DIGESTS = {
    "product": "d7a350c98ba629e1d632386bbc20922f396a8dcc66d634ced8f5093f0c48f393",
    "sweep": "92c184df1b50db9171b57a54953f435a66d9a187b8f120c70206cefa09e1101d",
    "design": "05fa3a312848c1ff5817bbc0f0cdf77fa3cd6ed24bb8fe10ac9b4e40f8e26a54",
    "extfield": "2cb04aa931f618e62ad9be088d7febf01b3f8de109277485a7dfa56eee300790",
}


def _decode_counts(calls, hypernode, full, undecodable, interpolations, unknowns):
    """The traced decode pins of a protocol workload: routes, interpolations, no solve."""
    return {"protocol.decode.calls": calls, "protocol.decode.route_hypernode": hypernode,
            "protocol.decode.route_full": full, "protocol.decode.undecodable": undecodable,
            "matpoly.interpolate.calls": interpolations,
            "matpoly.interpolate.unknowns": unknowns, "gauss.solve.calls": 0}


TRACED = {
    "sweep": _decode_counts(2764, 1180, 1584, 0, 2764, 31264),
    "product": _decode_counts(12, 6, 3, 3, 9, 123),
    "extfield": _decode_counts(24, 12, 6, 6, 18, 216),
    # the minor counts of design's exhaustive and kernel-side scans
    "design": {"linalg.is_mds.minors_checked": 39544, "gauss.batch_is_invertible.minors": 142},
}


class PinFailed(Exception):
    pass


def _run(args: list[str], env: dict | None = None) -> str:
    """The standard output of a command run from the repository root; PinFailed if it fails."""
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True)
    if done.returncode != 0:
        sys.stdout.write(done.stdout + done.stderr)
        raise PinFailed(f"{' '.join(args)} exited {done.returncode}")
    return done.stdout


def _bench(workload: str, *flags: str) -> str:
    return _run(["bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "5", *flags])


def check_cli() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    print(_run(["-m", "sdmm.cli", "--version"], env).strip())
    for want, args in CLI:
        got = hashlib.sha256(_run(["-m", "sdmm.cli", *args], env).encode()).hexdigest()
        _compare(f"sdmm {' '.join(args)}", got, want)


def check_digests() -> None:
    for workload, want in DIGESTS.items():
        lines = [line.split() for line in _bench(workload).splitlines()]
        _compare(f"{workload} digest", next((w[1] for w in lines if w[:1] == ["digest"]), None),
                 want)


def _check_trace(workload: str) -> None:
    metrics = json.loads(_bench(workload, "--trace", "1").splitlines()[-1])["metrics"]
    want = TRACED[workload]
    _compare(f"traced {workload}", {k: metrics[k]["value"] for k in want}, want)


def _compare(pin: str, got, want) -> None:
    if got != want:
        if isinstance(want, dict):  # name only the counts that moved
            pin += " " + ", ".join(k for k in want if got[k] != want[k])
        raise PinFailed(f"{pin}: got {got}, pinned {want}")
    print(f"ok  {pin}: {got}")


GROUPS = {"cli": check_cli, "digests": check_digests,
          **{f"trace-{w}": (lambda w=w: _check_trace(w)) for w in TRACED}}


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in GROUPS]
    if unknown:
        print(f"unknown group {unknown[0]!r}; groups are {', '.join(GROUPS)}")
        return 2
    try:
        for name in names or GROUPS:
            GROUPS[name]()
    except PinFailed as failure:
        print(f"FAILED  {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
