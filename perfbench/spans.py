"""Span tracing of the exocone layers, installed from outside the library.

:meth:`Tracer.install` wraps every public function of each ``exocone``
module, every binding of those functions that another module imported
(``nilcone.rank``, ``joseph.row_reduce``, ...), and the arithmetic methods
named in ``METHODS``.  Each call becomes a span with a name, start, end and
parent; spans are kept in flat arrays and written out once, by
:meth:`Tracer.write`.  :meth:`Tracer.uninstall` restores the originals.

Per-layer metrics are derived from the spans: ``calls``, ``total_s`` (time
inside the outermost span of that name) and ``self_s`` (span time minus the
time covered by child spans), plus a few counts recorded at the same
boundaries (terms out of a product, markings tried, span images, exit
codes).
"""

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("algebra", "partitions", "weyl", "nilcone", "joseph", "charp", "verify", "cli")

# (module, class, method) -> span name inside that module
METHODS = {
    ("algebra", "MultiPoly", "__mul__"): "multipoly_mul",
    ("algebra", "MultiPoly", "__rmul__"): "multipoly_mul",
    ("algebra", "MultiPoly", "evaluate"): "multipoly_evaluate",
    ("algebra", "LaurentChar", "__mul__"): "laurent_mul",
    ("algebra", "Matrix", "__matmul__"): "matmul",
}


# counts recorded at span boundaries, besides calls and times
COUNTERS = (
    "algebra.multipoly_mul.terms_out",
    "algebra.laurent_mul.terms_out",
    "nilcone.marked_invariant.markings_tried",
    "joseph.macdonald_span.images",
    "joseph.macdonald_span.dims",
    "cli.main.exit2",
)


def _module(name: str):
    # by path: the package rebinds some submodule names to functions
    return importlib.import_module(f"exocone.{name}")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_nested = array("b")  # a span of the same name is open
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: list[int] = []  # open spans per name
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = perf_counter()

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def active(self, name: str) -> bool:
        return self._active[self._id(name)] > 0

    def _open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_nested.append(self._active[nid] > 0)
        self._active[nid] += 1
        self._stack.append(sid)
        self.span_end.append(0.0)
        self.span_start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = perf_counter()
        self._stack.pop()
        self._active[self.span_name[sid]] -= 1

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        nid = self._id(name)
        opened, closed = self._open, self._close
        before = self._before(name)
        after = self._after(name)

        def wrapper(*args, **kwargs):
            if before:
                before()
            sid = opened(nid)
            try:
                result = fn(*args, **kwargs)
            except SystemExit as stop:
                if after:
                    after(stop.code)
                raise
            finally:
                closed(sid)
            if after:
                after(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _wrap_generator(self, name: str, fn):
        """Generators are counted, not timed: their body runs lazily inside
        whatever span consumes them."""
        self._id(name)
        counts = self.counts
        tried = name == "partitions.markings_of"

        def wrapper(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            for item in fn(*args, **kwargs):
                if tried and self.active("nilcone.marked_invariant"):
                    counts["nilcone.marked_invariant.markings_tried"] += 1
                yield item

        return functools.update_wrapper(wrapper, fn)

    def _before(self, name: str):
        if name == "weyl.act_on_poly":

            def image():
                if self.active("joseph.macdonald_span"):
                    self.counts["joseph.macdonald_span.images"] += 1

            return image
        return None

    def _after(self, name: str):
        counts = self.counts
        if name in ("algebra.multipoly_mul", "algebra.laurent_mul"):

            def terms(result):
                if hasattr(result, "terms"):
                    counts[f"{name}.terms_out"] += len(result.terms)

            return terms
        if name == "joseph.macdonald_span":

            def dim(result):
                counts["joseph.macdonald_span.dims"] += result[0]

            return dim
        if name == "cli.main":

            def exit2(code):
                counts["cli.main.exit2"] += code == 2

            return exit2
        return None

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in MODULES:
            mod = _module(short)
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        # rebind every name that refers to a wrapped function, in the
        # defining module and in every module that imported it
        for mod in [sys.modules["exocone"]] + [_module(m) for m in MODULES]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))
        for (short, cls_name, meth), span in METHODS.items():
            cls = getattr(_module(short), cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(f"{short}.{span}", fn))
            self._patches.append((cls, meth, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls / self_s / total_s per span name, the boundary counts, and
        the ratios derived from them."""
        n = len(self.span_name)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
        out: dict[str, float] = Counter()
        for name in self.names:
            for key in ("calls", "self_s", "total_s"):
                out[f"{name}.{key}"] = 0
        for name in COUNTERS:
            out[name] = 0
        for sid in range(n):
            name = self.names[self.span_name[sid]]
            dur = end[sid] - start[sid]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child[sid]
            if not self.span_nested[sid]:
                out[f"{name}.total_s"] += dur
        out.update(self.counts)
        tried = out["nilcone.marked_invariant.markings_tried"]
        out["nilcone.marked_invariant.match_ratio"] = (
            out["nilcone.marked_invariant.calls"] / tried if tried else 0.0
        )
        images = out["joseph.macdonald_span.images"]
        out["joseph.macdonald_span.useful_ratio"] = (
            out["joseph.macdonald_span.dims"] / images if images else 0.0
        )
        out["bench.spans"] = n
        return out

    def write(self, path) -> None:
        """All spans, one per line: id, parent id, name, start, end (s)."""
        t0 = self._t0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{sid}\t{self.span_parent[sid]}\t{self.names[self.span_name[sid]]}"
                    f"\t{self.span_start[sid] - t0:.9f}\t{self.span_end[sid] - t0:.9f}\n"
                )
