"""Run-time span tracing of the wildmckay package, installed from outside.

`Tracer.install()` replaces every public function and method of the layer
modules (plus the constructors and the arithmetic and equality operators)
with a wrapper that records one span per call: a name, a start, an end and
the id of the enclosing span.  Spans are kept in flat `array` columns,
because a census pass makes about seven million calls into `gf`,
`laurent` and `covers`, and one Python object per span would take about
a gigabyte.  `uninstall()` puts
the originals back.  Nothing under `src/` is edited.

Self time of a span is its duration minus the time covered by its child
spans; `layer_metrics` derives every per-layer number from the spans and
the few counters the wrappers keep.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("gf", "laurent", "covers", "motivic", "stringy", "invariant_rings", "acceptance", "cli")

# operators worth a span; __hash__, __bool__ and the display methods are not
_DUNDERS = {
    "__init__", "__call__", "__eq__", "__neg__", "__pow__",
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
}
_MOTIVIC_OPS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__",
}
CENSUS_CASE_METRIC = "covers.s_per_input.q{q}_J{j}"


def _public(name: str) -> bool:
    return not name.startswith("_") or name in _DUNDERS


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer_of: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name_id = array("H")
        self.stack = [-1]
        self.peaks = {"laurent.peak_terms": 0, "motivic.peak_degree": 0, "invariant_rings.peak_terms": 0}
        self.checks = 0
        self.census_cases: list[tuple[int, int, int]] = []  # (q, max_exp, span id)
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def _intern(self, layer: str, qualname: str) -> int:
        name = f"{layer}.{qualname}"
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one per CLI call."""
        sid = self.open(self._intern("bench", name))
        try:
            yield
        finally:
            self.close(sid)

    def _wrap(self, fn, layer: str, qualname: str):
        nid = self._intern(layer, qualname)
        hook = self._hook(layer, qualname)
        opn, cls = self.open, self.close

        if hook is None:
            def traced(*args, **kwargs):
                sid = opn(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    cls(sid)
        else:
            def traced(*args, **kwargs):
                sid = opn(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    cls(sid)
                hook(sid, args, result)
                return result

        return functools.update_wrapper(traced, fn)

    # -- counters observed at specific boundaries ----------------------------

    def _peak(self, key: str, value: int) -> None:
        if value > self.peaks[key]:
            self.peaks[key] = value

    def _hook(self, layer: str, qualname: str):
        if qualname == "LaurentSeries.__init__":
            return lambda sid, a, r: self._peak("laurent.peak_terms", len(a[0].coeffs))
        if qualname == "MultiPoly.__init__":
            return lambda sid, a, r: self._peak("invariant_rings.peak_terms", len(a[0].terms))
        if qualname == "MotivicValue.__init__":
            def degree(sid, a, r):
                value = a[0]
                for terms in (value.num.terms, value.den.terms):
                    if terms:
                        self._peak("motivic.peak_degree", max(terms) - min(terms))
            return degree
        if qualname == "run_criterion":
            def checks(sid, a, r):
                self.checks += r.checks
            return checks
        if qualname == "enumerate_covers":
            def case(sid, a, r):
                self.census_cases.append((r.q, r.max_exp, sid))
            return case
        return None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public callables of every layer module of wildmckay."""
        modules = [importlib.import_module(f"wildmckay.{layer}") for layer in LAYERS]
        namespaces = [sys.modules["wildmckay"]] + modules
        replace: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    if not issubclass(obj, BaseException):
                        self._install_class(obj, layer)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    # plain functions and functools.cache wrappers such as gf.GF
                    replace[id(obj)] = (obj, self._wrap(obj, layer, name))
        # rebind every alias (from-imports, re-exports) and tuple registry entry
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    self._set(ns, name, replace[id(value)][1])
                elif isinstance(value, tuple) and any(_refers(v, replace) for v in value):
                    self._set(ns, name, _rebuild(value, replace))

    def _install_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if not _public(name):
                continue
            qualname = f"{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                self._set(cls, name, self._wrap(attr, layer, qualname))
            elif isinstance(attr, (classmethod, staticmethod)):
                self._set(cls, name, type(attr)(self._wrap(attr.__func__, layer, qualname)))

    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name) if not inspect.isclass(owner) else vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans as a JSON header line followed by the raw columns."""
        header = {
            "spans": len(self.start),
            "byteorder": sys.byteorder,
            "columns": [["start", "d"], ["end", "d"], ["parent", "i"], ["name", "H"]],
            "names": self.names,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.start, self.end, self.parent, self.name_id):
                column.tofile(fh)


def _refers(value, replace) -> bool:
    if isinstance(value, tuple):
        return any(_refers(v, replace) for v in value)
    return id(value) in replace and replace[id(value)][0] is value


def _rebuild(value, replace):
    if isinstance(value, tuple):
        return tuple(_rebuild(v, replace) for v in value)
    if id(value) in replace and replace[id(value)][0] is value:
        return replace[id(value)][1]
    return value


def summarize(tracer: Tracer, outermost: set[str]):
    """One pass over the spans: per span name, the call count, the self
    time (duration minus the time its child spans cover), and, for the
    names in `outermost`, the inclusive time of spans that have no ancestor
    of the same name."""
    n_names = len(tracer.names)
    calls = [0] * n_names
    incl = [0.0] * n_names
    covered = [0.0] * n_names
    watch = {i for i, n in enumerate(tracer.names) if n in outermost}
    outer = [0.0] * n_names
    start, end, parent, name_id = tracer.start, tracer.end, tracer.parent, tracer.name_id
    for sid in range(len(start)):
        nid = name_id[sid]
        d = end[sid] - start[sid]
        calls[nid] += 1
        incl[nid] += d
        par = parent[sid]
        if par >= 0:
            covered[name_id[par]] += d
        if nid in watch:
            while par >= 0 and name_id[par] != nid:
                par = parent[par]
            if par < 0:
                outer[nid] += d
    self_s = [incl[i] - covered[i] for i in range(n_names)]
    return calls, self_s, outer


def layer_metrics(tracer: Tracer, census_cases, criteria) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced pass, as name -> (value, unit)."""
    inclusive_names = {
        "covers.reduce_with_witnesses", "covers.witnesses_account_for", "covers.verify_jump",
        "stringy.origin_fiber_class", "stringy.projectivized_invariant",
    } | {f"acceptance.{fn_name}" for _, fn_name in criteria}
    by_calls, by_self, by_outer = summarize(tracer, inclusive_names)
    calls = {layer: 0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    named_calls = dict(zip(tracer.names, by_calls))
    named_self = dict(zip(tracer.names, by_self))
    named_outer = dict(zip(tracer.names, by_outer))
    for nid, layer in enumerate(tracer.layer_of):
        if layer in calls:
            calls[layer] += by_calls[nid]
            self_s[layer] += by_self[nid]

    def count(*names):
        return sum(named_calls.get(n, 0) for n in names)

    def inclusive(name):
        return named_outer.get(name, 0.0)

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.self_s"] = (self_s[layer], "s")

    out["gf.field_builds"] = (count("gf.GaloisField.__init__"), "count")

    out["laurent.mul_calls"] = (count("laurent.LaurentSeries.__mul__", "laurent.LaurentSeries.__rmul__"), "count")
    out["laurent.artin_schreier_calls"] = (count("laurent.artin_schreier"), "count")
    out["laurent.peak_terms"] = (tracer.peaks["laurent.peak_terms"], "count")

    reduce_calls = count("covers.reduce_with_witnesses")
    reduce_s = inclusive("covers.reduce_with_witnesses")
    witness_s = inclusive("covers.witnesses_account_for")
    out["covers.reduce_calls"] = (reduce_calls, "count")
    out["covers.reduce_self_s"] = (named_self.get("covers.reduce_with_witnesses", 0.0), "s")
    out["covers.witness_check_s"] = (witness_s, "s")
    out["covers.witness_share"] = (_ratio(witness_s, reduce_s + witness_s), "ratio")
    out["covers.verify_jump_calls"] = (count("covers.verify_jump"), "count")
    out["covers.verify_jump_s"] = (inclusive("covers.verify_jump"), "s")
    out["covers.s_per_input"] = (_ratio(reduce_s + witness_s, reduce_calls), "s")
    for q, j in census_cases:
        spans = [sid for cq, cj, sid in tracer.census_cases if (cq, cj) == (q, j)]
        seconds = sum(tracer.end[sid] - tracer.start[sid] for sid in spans)
        out[CENSUS_CASE_METRIC.format(q=q, j=j)] = (_ratio(seconds, len(spans) * q ** j), "s")

    ops = [f"motivic.MotivicValue.{op}" for op in sorted(_MOTIVIC_OPS)]
    out["motivic.values_built"] = (count("motivic.MotivicValue.__init__"), "count")
    out["motivic.ops"] = (count(*ops), "count")
    out["motivic.peak_degree"] = (tracer.peaks["motivic.peak_degree"], "count")
    out["motivic.point_count_calls"] = (count("motivic.MotivicValue.point_count"), "count")

    out["stringy.origin_fiber_s"] = (inclusive("stringy.origin_fiber_class"), "s")
    out["stringy.projectivized_s"] = (inclusive("stringy.projectivized_invariant"), "s")

    out["invariant_rings.substitute_calls"] = (count("invariant_rings.MultiPoly.substitute"), "count")
    out["invariant_rings.peak_terms"] = (tracer.peaks["invariant_rings.peak_terms"], "count")

    for criterion, fn_name in criteria:
        out[f"acceptance.{criterion}_s"] = (inclusive(f"acceptance.{fn_name}"), "s")
    out["acceptance.checks"] = (tracer.checks, "count")

    out["trace.spans"] = (len(tracer.start), "count")
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def growth_exponent(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0
