"""Span tracing for the traced benchmark run, recorded from outside the library.

The tracer replaces selected public callables of the ``sdmm`` modules with
wrappers that record one span per call: name, start, end, parent span and op
id, plus one number read from the arguments or the result (block
multiplications, unknowns, minors). A function is patched in every loaded
module namespace that holds a reference to it, so that calls made through
``from .x import f`` bindings are seen too; a method is patched on its
class. Spans are kept in flat arrays in memory and written out once, when
the run ends.

Per-layer metrics are computed from the finished span tree:

- ``calls``: number of spans of a name;
- ``busy_s``: inclusive time, counting a span only when no ancestor has the
  same name, so recursion is not counted twice;
- ``self_s``: each span's duration minus the time covered by its direct
  children (children of one span never overlap in a single thread).
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, module, attribute) for every callable the traced run wraps.
# Layer "_gauss" is named "gauss" because metric names start with a letter.
TARGETS = (
    ("protocol.run_protocol", "sdmm.protocol", "run_protocol"),
    ("protocol.decode", "sdmm.protocol", "decode"),
    ("protocol.p_of_s_empirical", "sdmm.protocol", "p_of_s_empirical"),
    ("protocol.mp_recovery_threshold_with_security", "sdmm.protocol",
     "mp_recovery_threshold_with_security"),
    ("schemes.partition", "sdmm.schemes", "partition"),
    ("schemes.build_f", "sdmm.schemes", "build_f"),
    ("schemes.build_g", "sdmm.schemes", "build_g"),
    ("matpoly.eval_sparse_horner", "sdmm.matpoly", "MatPoly.eval_sparse_horner"),
    ("matpoly.matmul", "sdmm.matpoly", "BlockMatrix.matmul"),
    ("matpoly.interpolate", "sdmm.matpoly", "interpolate"),
    ("fields.pow_", "sdmm.fields", "FieldElement.pow_"),
    ("gauss.solve", "sdmm._gauss", "solve"),
    ("gauss.rank", "sdmm._gauss", "rank"),
    ("gauss.batch_is_invertible", "sdmm._gauss", "batch_is_invertible"),
    ("linalg.find_evaluation_vector", "sdmm.linalg", "find_evaluation_vector"),
    ("linalg.mp_plan", "sdmm.linalg", "mp_plan"),
    ("linalg.ggasp_plan", "sdmm.linalg", "ggasp_plan"),
    ("linalg.is_mds", "sdmm.linalg", "is_mds"),
    ("linalg.security_check", "sdmm.linalg", "security_check"),
    ("thresholds.rate_sweep_fixed_n", "sdmm.thresholds", "rate_sweep_fixed_n"),
    ("thresholds.optimal_r", "sdmm.thresholds", "optimal_r"),
    ("thresholds.mp_threshold_closed_form", "sdmm.thresholds",
     "mp_threshold_closed_form"),
)

# (metric name, unit, better) of the traced run, in report order. The
# traced run reports every one of them, 0 where a workload never enters it.
PER_LAYER = (
    ("protocol.run_protocol.calls", "count", "lower"),
    ("protocol.run_protocol.busy_s", "s", "lower"),
    ("protocol.run_protocol.self_s", "s", "lower"),
    ("protocol.decode.calls", "count", "lower"),
    ("protocol.decode.busy_s", "s", "lower"),
    ("protocol.decode.self_s", "s", "lower"),
    ("protocol.decode.route_hypernode", "count", "higher"),
    ("protocol.decode.route_full", "count", "lower"),
    ("protocol.decode.undecodable", "count", "lower"),
    ("protocol.decode.hypernode_ratio", "ratio", "higher"),
    ("protocol.p_of_s_empirical.calls", "count", "lower"),
    ("protocol.p_of_s_empirical.busy_s", "s", "lower"),
    ("protocol.p_of_s_empirical.self_s", "s", "lower"),
    ("protocol.p_of_s_empirical.patterns", "count", "lower"),
    ("protocol.mp_recovery_threshold_with_security.calls", "count", "lower"),
    ("protocol.mp_recovery_threshold_with_security.busy_s", "s", "lower"),
    ("protocol.mp_recovery_threshold_with_security.self_s", "s", "lower"),
    ("protocol.mults.encode", "count", "lower"),
    ("protocol.mults.worker", "count", "lower"),
    ("protocol.mults.decode", "count", "lower"),
    ("schemes.build.busy_s", "s", "lower"),
    ("matpoly.eval_sparse_horner.calls", "count", "lower"),
    ("matpoly.eval_sparse_horner.busy_s", "s", "lower"),
    ("matpoly.eval_sparse_horner.self_s", "s", "lower"),
    ("matpoly.matmul.calls", "count", "lower"),
    ("matpoly.matmul.busy_s", "s", "lower"),
    ("matpoly.matmul.self_s", "s", "lower"),
    ("matpoly.matmul.mults", "count", "lower"),
    ("matpoly.interpolate.calls", "count", "lower"),
    ("matpoly.interpolate.busy_s", "s", "lower"),
    ("matpoly.interpolate.self_s", "s", "lower"),
    ("matpoly.interpolate.unknowns", "count", "lower"),
    ("fields.pow_.calls", "count", "lower"),
    ("fields.pow_.self_s", "s", "lower"),
    ("gauss.solve.calls", "count", "lower"),
    ("gauss.solve.self_s", "s", "lower"),
    ("gauss.rank.calls", "count", "lower"),
    ("gauss.rank.self_s", "s", "lower"),
    ("gauss.batch_is_invertible.calls", "count", "lower"),
    ("gauss.batch_is_invertible.self_s", "s", "lower"),
    ("gauss.batch_is_invertible.minors", "count", "lower"),
    ("linalg.find_evaluation_vector.calls", "count", "lower"),
    ("linalg.find_evaluation_vector.busy_s", "s", "lower"),
    ("linalg.find_evaluation_vector.self_s", "s", "lower"),
    ("linalg.find_evaluation_vector.candidates", "count", "lower"),
    ("linalg.find_evaluation_vector.accept_ratio", "ratio", "higher"),
    ("linalg.is_mds.calls", "count", "lower"),
    ("linalg.is_mds.busy_s", "s", "lower"),
    ("linalg.is_mds.self_s", "s", "lower"),
    ("linalg.is_mds.minors_checked", "count", "lower"),
    ("linalg.is_mds.minors_per_s", "1/s", "higher"),
    ("linalg.security_check.calls", "count", "lower"),
    ("linalg.security_check.busy_s", "s", "lower"),
    ("thresholds.rate_sweep_fixed_n.calls", "count", "lower"),
    ("thresholds.rate_sweep_fixed_n.busy_s", "s", "lower"),
    ("thresholds.rate_sweep_fixed_n.self_s", "s", "lower"),
    ("thresholds.optimal_r.calls", "count", "lower"),
    ("thresholds.optimal_r.self_s", "s", "lower"),
    ("thresholds.mp_threshold_closed_form.calls", "count", "lower"),
    ("thresholds.mp_threshold_closed_form.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)


def _matmul_mults(args, kwargs):
    a = args[0]
    b = args[1] if len(args) > 1 else kwargs["other"]
    return a.rows * a.cols * b.cols


def _unknowns(args, kwargs):
    exps = args[2] if len(args) > 2 else kwargs["exponents"]
    return len(set(exps)) if hasattr(exps, "__len__") else 0


def _minors(args, kwargs):
    return args[0].shape[0]


def _checked(result):
    return result.checked


class Tracer:
    """Records spans of the wrapped callables while installed.

    Use as a context manager around the traced loop; set ``op`` before each
    op so that its spans carry the op id.
    """

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.val = array("d")
        self.err = array("b")
        self.cur = -1
        self.op = -1
        self._restore = []
        self._class_sizes = {}

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, nid, pre=None, post=None):
        tr = self
        pc = time.perf_counter
        name, parent, op_of = self.name, self.parent, self.op_of
        start, end, val, err = self.start, self.end, self.val, self.err

        def wrapper(*args, **kwargs):
            sid = len(name)
            name.append(nid)
            parent.append(tr.cur)
            op_of.append(tr.op)
            start.append(0.0)
            end.append(0.0)
            val.append(0.0 if pre is None else pre(args, kwargs))
            err.append(0)
            tr.cur = sid
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                err[sid] = 1
                raise
            finally:
                end[sid] = pc()
                start[sid] = t0
                tr.cur = parent[sid]
            if post is not None:
                val[sid] = post(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _decode_class_size(self, args, kwargs):
        """Size of the plan's class support, to tell the decode routes apart."""
        params = (args[1] if len(args) > 1 else kwargs["plan"]).params
        size = self._class_sizes.get(params)
        if size is None:
            from sdmm.thresholds import product_class_support
            size = self._class_sizes[params] = len(product_class_support(params))
        return size

    def install(self) -> None:
        """Patch every target in each loaded module namespace that references it.

        That covers the defining module, every ``from .x import f`` binding
        inside the package, and the benchmark's own imports.
        """
        extract = {
            "matpoly.matmul": (_matmul_mults, None),
            "matpoly.interpolate": (_unknowns, None),
            "gauss.batch_is_invertible": (_minors, None),
            "linalg.is_mds": (None, _checked),
            "protocol.decode": (self._decode_class_size, None),
        }
        namespaces = [vars(m) for m in list(sys.modules.values())
                      if getattr(m, "__dict__", None) is not None]
        for nid, (span_name, mod_name, attr) in enumerate(TARGETS):
            owner = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, nid, *extract.get(span_name, (None, None))))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(fn, nid, *extract.get(span_name, (None, None)))
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is fn:
                        self._restore.append((ns, key, fn))
                        ns[key] = wrapper

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def spans(self) -> dict:
        """The recorded spans as numpy views, one entry per span.

        Call after recording has ended: the views pin the arrays' buffers.
        """
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op_of, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "val": np.frombuffer(self.val, dtype=np.float64),
            "err": np.frombuffer(self.err, dtype=np.int8),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.spans())


# -- aggregation --------------------------------------------------------------------


def has_ancestor(name: np.ndarray, parent: np.ndarray, codes) -> np.ndarray:
    """For each span, whether some proper ancestor's name is in codes.

    codes is either one code per span (same-name test) or a set of codes.
    """
    per_span = isinstance(codes, np.ndarray)
    wanted = None if per_span else np.array(sorted(codes), dtype=name.dtype)
    found = np.zeros(len(name), dtype=bool)
    anc = parent.astype(np.int64)
    while True:
        live = anc >= 0
        if not live.any():
            return found
        idx = np.where(live, anc, 0)
        hit = name[idx] == codes if per_span else np.isin(name[idx], wanted)
        found |= live & hit
        anc = np.where(live, parent[idx], -1)


def layer_times(name: np.ndarray, parent: np.ndarray, start: np.ndarray,
                end: np.ndarray, n_names: int) -> dict:
    """calls, busy_s and self_s for every name code, from a span tree."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(name))
    self_t = dur - covered
    outer = ~has_ancestor(name, parent, name)
    calls = np.bincount(name, minlength=n_names)
    busy = np.bincount(name[outer], weights=dur[outer], minlength=n_names)
    selfs = np.bincount(name, weights=self_t, minlength=n_names)
    return {code: {"calls": int(calls[code]), "busy_s": float(busy[code]),
                   "self_s": float(selfs[code])}
            for code in range(n_names)}


def layer_metrics(spans: dict, names: list, mults: dict, overhead: float) -> dict:
    """Every PER_LAYER metric from a finished span tree.

    mults are the summed ``SimReport.mult_counts`` of the traced ops and
    overhead is traced over untraced ops_per_s.
    """
    code = {n: i for i, n in enumerate(names)}
    name, parent, val, err = spans["name"], spans["parent"], spans["val"], spans["err"]
    times = layer_times(name, parent, spans["start"], spans["end"], len(names))
    out = {}
    for span_name, _, _ in TARGETS:
        for key, value in times[code[span_name]].items():
            out[f"{span_name}.{key}"] = value

    def total(span_name):
        return float(val[name == code[span_name]].sum())

    # decode routes: the last interpolate that returned inside each decode
    # span solved either the class support (hypernode route) or the full one
    decode = name == code["protocol.decode"]
    returned = decode & (err == 0)
    interp = np.flatnonzero((name == code["matpoly.interpolate"]) & (err == 0))
    last_unknowns = {}
    for i in interp:  # spans are in call order, so later ones overwrite
        last_unknowns[int(parent[i])] = val[i]
    hyper = sum(1 for i in np.flatnonzero(returned)
                if last_unknowns.get(int(i)) == val[i])
    n_returned = int(returned.sum())
    out["protocol.decode.route_hypernode"] = hyper
    out["protocol.decode.route_full"] = n_returned - hyper
    out["protocol.decode.undecodable"] = int((decode & (err == 1)).sum())
    out["protocol.decode.hypernode_ratio"] = hyper / n_returned if n_returned else 0.0

    pofs = np.flatnonzero(name == code["protocol.p_of_s_empirical"])
    out["protocol.p_of_s_empirical.patterns"] = int(
        (decode & np.isin(parent, pofs)).sum())

    for phase in ("encode", "worker", "decode"):
        out[f"protocol.mults.{phase}"] = int(mults.get(phase, 0))
    out["schemes.build.busy_s"] = sum(
        out[f"schemes.{f}.busy_s"] for f in ("partition", "build_f", "build_g"))
    out["matpoly.matmul.mults"] = int(total("matpoly.matmul"))
    out["matpoly.interpolate.unknowns"] = int(total("matpoly.interpolate"))
    out["gauss.batch_is_invertible.minors"] = int(total("gauss.batch_is_invertible"))

    plans = (name == code["linalg.mp_plan"]) | (name == code["linalg.ggasp_plan"])
    find = code["linalg.find_evaluation_vector"]
    candidates = int((plans & has_ancestor(name, parent, {find})).sum())
    accepted = int(((name == find) & (err == 0)).sum())
    out["linalg.find_evaluation_vector.candidates"] = candidates
    out["linalg.find_evaluation_vector.accept_ratio"] = (
        accepted / candidates if candidates else 0.0)
    checked = total("linalg.is_mds")
    busy = out["linalg.is_mds.busy_s"]
    out["linalg.is_mds.minors_checked"] = int(checked)
    out["linalg.is_mds.minors_per_s"] = checked / busy if busy else 0.0
    out["trace.overhead_ratio"] = overhead
    return {metric: out[metric] for metric, _, _ in PER_LAYER}
