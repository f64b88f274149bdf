"""Layer tracing from outside the program.

`Tracer.install()` wraps every public function of the eight opcal
modules (plus `gns.TransposeSolver` construction and `.transpose`) and
puts the wrapper in *every* `opcal` module namespace that holds the
original, because opcal binds names with `from .x import y`.  Each call
records a span (function, start, end, parent span) in memory; spans of
one report share its index.  `uninstall()` restores every binding.
"""

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("basis", "channels", "core", "quantum", "infodim", "faithful", "gns", "cli")
SOLVER_METHODS = (("__init__", "gns.TransposeSolver"), ("transpose", "gns.TransposeSolver.transpose"))


def opcal_modules():
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "opcal" or name.startswith("opcal."))
    }


def public_functions(mod):
    """Public functions defined in `mod` itself (lru_cache wrappers
    included, classes and imported names excluded)."""
    return {
        attr: fn
        for attr, fn in vars(mod).items()
        if not attr.startswith("_")
        and callable(fn)
        and not inspect.isclass(fn)
        and getattr(fn, "__module__", None) == mod.__name__
    }


class Tracer:
    def __init__(self):
        self.names = []  # function id -> "layer.function"
        self.layers = []  # function id -> layer
        self.originals = {}  # "layer.function" -> unwrapped callable
        self.wrappers = {}  # "layer.function" -> wrapper
        self.spans = []  # (function id, start, end, parent span index)
        self.reports = []  # (first span index, end span index) per report
        self._stack = []
        self._restore = []  # (owner, attribute, original)

    # -- installation

    def install(self):
        mods = opcal_modules()
        for layer in LAYERS:
            for attr, fn in public_functions(mods[f"opcal.{layer}"]).items():
                wrapper = self._wrap(f"{layer}.{attr}", layer, fn)
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._rebind(mod, key, wrapper)
        solver = mods["opcal.gns"].TransposeSolver
        for attr, name in SOLVER_METHODS:
            self._rebind(solver, attr, self._wrap(name, "gns", vars(solver)[attr]))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, layer, fn):
        fid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, start, end, parent)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = f"traced:{name}"
        self.originals[name] = fn
        self.wrappers[name] = traced
        return traced

    # -- reports

    def begin_report(self):
        self.reports.append([len(self.spans), None])

    def end_report(self):
        self.reports[-1][1] = len(self.spans)

    # -- summaries

    def summary(self):
        """Totals over every recorded span: `<fn>.calls`, `<fn>.s`
        (inclusive, outermost call of that function only) and
        `<layer>.self_s` (time in the layer's spans not covered by a
        nested span of another layer)."""
        spans, names, layers = self.spans, self.names, self.layers
        child = [0.0] * len(spans)
        for fid, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for i, (fid, start, end, parent) in enumerate(spans):
            name = names[fid]
            calls[name] += 1
            self_s[layers[fid]] += (end - start) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != fid:
                p = spans[p][3]
            if p < 0:
                incl[name] += end - start
        out = {}
        for name in names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name]
        for layer, value in self_s.items():
            out[f"{layer}.self_s"] = value
        return out

    def write_spans(self, path):
        """One line per span: report, name, start and end (seconds from
        the first span), parent span index (-1 for a root)."""
        origin = self.spans[0][1] if self.spans else 0.0
        owner = [-1] * len(self.spans)
        for r, (first, last) in enumerate(self.reports):
            owner[first:last] = [r] * (last - first)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("report\tname\tstart_s\tend_s\tparent\n")
            for i, (fid, start, end, parent) in enumerate(self.spans):
                fh.write(
                    f"{owner[i]}\t{self.names[fid]}\t{start - origin:.9f}\t"
                    f"{end - origin:.9f}\t{parent}\n"
                )
