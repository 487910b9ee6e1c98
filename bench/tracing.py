"""Spans around the benchmark's calls into each layer's public functions.

A span is (name, start, end, parent), kept in flat arrays in memory and
written out once when the run ends.  Instrumenting replaces the public
functions in every loaded ``nefq2`` module namespace (and the value-type
``__add__`` methods on their classes) with recording wrappers, and puts
the originals back afterwards; the library source is not touched.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

#: (span name, module, attribute) for module-level public functions.
FUNCTIONS = (
    ("picard.intersect", "nefq2.picard", "intersect"),
    ("cohomology.cohomology_q2", "nefq2.cohomology", "cohomology_q2"),
    ("cohomology.euler_char", "nefq2.cohomology", "euler_char"),
    ("cohomology.ext1_module_profile", "nefq2.cohomology", "ext1_module_profile"),
    ("ktheory.line_class", "nefq2.ktheory", "line_class"),
    ("ktheory.to_chern", "nefq2.ktheory", "to_chern"),
    ("ktheory.from_chern", "nefq2.ktheory", "from_chern"),
    ("ktheory.twist_chern", "nefq2.ktheory", "twist_chern"),
    ("ktheory.ses_quotient_chern", "nefq2.ktheory", "ses_quotient_chern"),
    ("ktheory.four_term_quotient", "nefq2.ktheory", "four_term_quotient"),
    ("quiver.hom_ext_series", "nefq2.quiver", "hom_ext_series"),
    ("bondal.reconstruct", "nefq2.bondal", "reconstruct"),
    ("bondal.e2_page", "nefq2.bondal", "e2_page"),
    ("catalog.list_cases", "nefq2.catalog", "list_cases"),
    ("catalog.case_kclass", "nefq2.catalog", "case_kclass"),
    ("catalog.verify_case", "nefq2.catalog", "verify_case"),
    ("catalog.verify_all", "nefq2.catalog", "verify_all"),
    ("cli.main", "nefq2.cli", "main"),
)

#: (span name, module, class, method) for methods.
METHODS = (
    ("picard.bidegree_add", "nefq2.picard", "BiDegree", "__add__"),
    ("ktheory.kclass_add", "nefq2.ktheory", "KClass", "__add__"),
    ("serialize.to_json", "nefq2.catalog", "VerificationReport", "to_json"),
)

#: Spans the benchmark opens around its own calls (not library functions).
OWN_SPANS = ("serialize.dumps",)

SPAN_NAMES = tuple(n for n, *_ in FUNCTIONS) + tuple(n for n, *_ in METHODS) + OWN_SPANS
LAYERS = tuple(dict.fromkeys(n.split(".")[0] for n in SPAN_NAMES))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span: str, fn: Callable) -> Callable:
        nid = self._id(span)
        name_col, parent_col, start_col, end_col, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start_col)
            name_col.append(nid)
            parent_col.append(stack[-1])
            start_col.append(0)
            end_col.append(0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end_col[i] = clock()
                start_col[i] = t0
                stack.pop()

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        i = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(i)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.end[i] = time.perf_counter_ns()
            self.start[i] = t0
            self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, float]:
        """Per-function median microseconds and call counts, and per-layer
        self seconds, for every declared span name.  The benchmark's own
        spans report their total seconds instead of a per-call median."""
        n = len(self.start)
        covered = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        durations: dict[int, list[int]] = {}
        self_ns: dict[str, int] = dict.fromkeys(LAYERS, 0)
        for i in range(n):
            d = self.end[i] - self.start[i]
            nid = self.name[i]
            durations.setdefault(nid, []).append(d)
            self_ns[self.names[nid].split(".")[0]] += d - covered[i]
        metrics: dict[str, float] = {}
        for span in SPAN_NAMES:
            ds = durations.get(self._ids.get(span, -1), [])
            if span in OWN_SPANS:
                metrics[f"{span}_s"] = sum(ds) / 1e9
            else:
                metrics[f"{span}_us"] = statistics.median(ds) / 1e3 if ds else 0.0
            metrics[f"{span}_calls"] = len(ds)
        for layer, ns in self_ns.items():
            metrics[f"{layer}.self_s"] = ns / 1e9
        return metrics

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min(self.start) if len(self.start) else 0
        doc = {
            "meta": meta,
            "names": self.names,
            "spans": {
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "start_ns": [s - t0 for s in self.start],
                "end_ns": [e - t0 for e in self.end],
            },
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[dict[Callable, Callable]]:
    """Swap every traced public function for its recording wrapper in all
    loaded nefq2 modules; yield the original -> wrapper map."""
    for _, module, *_ in FUNCTIONS + METHODS:
        importlib.import_module(module)
    modules = [m for name, m in list(sys.modules.items()) if name == "nefq2" or name.startswith("nefq2.")]
    undo: list[tuple[object, str, object]] = []
    mapping: dict[Callable, Callable] = {}
    try:
        for span, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = tracer.wrap(span, original)
            mapping[original] = wrapper
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        undo.append((m, key, original))
        for span, module, cls, meth in METHODS:
            klass = getattr(sys.modules[module], cls)
            original = klass.__dict__[meth]
            setattr(klass, meth, tracer.wrap(span, original))
            undo.append((klass, meth, original))
        yield mapping
    finally:
        for obj, key, value in reversed(undo):
            setattr(obj, key, value)
