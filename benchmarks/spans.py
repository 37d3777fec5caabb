"""Span recording for the traced benchmark run.

The tracer replaces selected ``convmap`` functions with wrappers, on every
``convmap`` module attribute that refers to them (the names one module
imports from another, the module's own global, and the package namespace),
and on ``LevelCurve.write_csv``.  Each wrapped call records one span: name,
start, end, parent span, job id, a point count and a map key.  Spans stay in
memory and are written to an ``.npz`` file when the run ends.  No file under
``src/`` changes; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
from array import array
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from convmap.maps import MapSpec

# (defining module, attribute).  Span names are "<module>.<attribute>", so a
# span's layer is the module that defines the callee.
TARGETS = (
    ("series", "eval_table"),
    ("series", "derivative_table"),
    ("series", "series_inv"),
    ("series", "series_exp"),
    ("series", "series_mul"),
    ("series", "series_integrate"),
    ("maps", "jet_of"),
    ("maps", "jet_fields"),
    ("maps", "gen_herglotz"),
    ("maps", "map_from_json"),
    ("functionals", "grid_functionals"),
    ("functionals", "convexity_report"),
    ("functionals", "p_field"),
    ("functionals", "poincare_density"),
    ("levelset", "find_level_start"),
    ("levelset", "trace_level_set"),
    ("levelset", "LevelCurve.write_csv"),
    ("critical", "find_critical_point"),
    ("critical", "classify_phi"),
    ("cli", "main"),
    ("cli", "cmd_check"),
    ("cli", "cmd_trace"),
    ("cli", "cmd_curvature_map"),
    ("cli", "cmd_gen"),
)

# Which argument carries the point count of a call; trace_level_set counts
# the accepted points of its result, write_csv the rows it writes.
_POINTS_ARG = {
    "series.eval_table": 1,
    "maps.jet_fields": 1,
    "functionals.grid_functionals": 1,
}


def map_key(m) -> str:
    """Short label of a map for grouping spans: series<order>, a closed-form
    kind (polygon with its n), and a trailing '~' when composed."""
    if not isinstance(m, MapSpec):
        return ""
    if m.series is not None:
        key = f"series{m.series.order}"
    else:
        key = m.kind + (str(m.n) if m.kind == "polygon" else "")
    return key + ("~" if m.pre is not None or m.post is not None else "")


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []  # span name per id, one per wrapped target
        self.keys: list[str] = [""]
        self._key_ids: dict[str, int] = {"": 0}
        # typed arrays: level_march records about a million spans per cycle
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.points = array("q")
        self.key = array("i")
        self.current = -1
        self.job_id = -1  # -1 marks set-up
        self.active = False
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _key_id(self, key: str) -> int:
        kid = self._key_ids.get(key)
        if kid is None:
            kid = self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return kid

    def _wrap(self, fn, span_name: str):
        name_id = len(self.names)
        self.names.append(span_name)
        points_arg = _POINTS_ARG.get(span_name)
        counts_curve = span_name == "levelset.trace_level_set"
        counts_self = span_name == "levelset.LevelCurve.write_csv"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            parent = tracer.current
            tracer.name.append(name_id)
            tracer.parent.append(parent)
            tracer.job.append(tracer.job_id)
            tracer.end.append(0.0)
            tracer.points.append(0)
            tracer.key.append(0)
            tracer.current = idx
            result = None
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer.current = parent
                if points_arg is not None:
                    tracer.points[idx] = int(np.size(args[points_arg]))
                elif counts_curve and result is not None:
                    tracer.points[idx] = len(result)
                elif counts_self:
                    tracer.points[idx] = len(args[0])
                head = args[0] if args else None
                k = map_key(head) or map_key(result)
                if k:
                    tracer.key[idx] = tracer._key_id(k)

        return wrapper

    def install(self) -> None:
        """Wrap every TARGETS function wherever a convmap module refers to it."""
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == "convmap" or name.startswith("convmap."))]
        for mod_name, attr in TARGETS:
            home = sys.modules[f"convmap.{mod_name}"]
            span_name = f"{mod_name}.{attr}"
            if "." in attr:  # a method
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth]
                self._saved.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, span_name))
                continue
            fn = getattr(home, attr)
            wrapper = self._wrap(fn, span_name)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, name, fn))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()
        self.active = False

    @contextmanager
    def recording(self, job_id: int):
        self.job_id = job_id
        self.active = True
        try:
            yield
        finally:
            self.active = False

    # -- analysis --------------------------------------------------------
    def arrays(self) -> dict:
        fields = ("name", "start", "end", "parent", "job", "points", "key")
        return {f: np.frombuffer(getattr(self, f), dtype=getattr(self, f).typecode) for f in fields}

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.asarray(self.names), keys=np.asarray(self.keys), **self.arrays())


class SpanTable:
    """Read-only view of recorded spans with durations, self times and
    ancestor lookups, for turning spans into layer figures."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.keys = list(tracer.keys)
        self.name = a["name"]
        self.parent = a["parent"]
        self.job = a["job"]
        self.points = a["points"]
        self.key = a["key"]
        self.dur = a["end"] - a["start"]
        covered = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], self.dur[has_parent])
        # spans nest strictly (one thread), so direct children cover disjoint
        # parts of their parent's interval
        self.self_time = self.dur - covered

    def ids(self, span_name: str) -> int:
        return self.names.index(span_name) if span_name in self.names else -1

    def mask(self, *span_names: str) -> np.ndarray:
        ids = [self.ids(n) for n in span_names]
        return np.isin(self.name, [i for i in ids if i >= 0])

    def under(self, ancestor: str) -> np.ndarray:
        """True for spans that have a span named ``ancestor`` above them."""
        anc = self.ids(ancestor)
        out = np.zeros(self.name.size, dtype=bool)
        if anc < 0:
            return out
        # parents are recorded before their children, so one forward pass works
        name, parent = self.name.tolist(), self.parent.tolist()
        flags = out.tolist()
        for i, p in enumerate(parent):
            if p >= 0 and (flags[p] or name[p] == anc):
                flags[i] = True
        return np.asarray(flags, dtype=bool)

    def parent_is(self, span_name: str) -> np.ndarray:
        pid = self.ids(span_name)
        has_parent = self.parent >= 0
        out = np.zeros(self.name.size, dtype=bool)
        if pid >= 0:
            out[has_parent] = self.name[self.parent[has_parent]] == pid
        return out

    def keyed(self, key: str) -> np.ndarray:
        return self.key == (self.keys.index(key) if key in self.keys else -1)
