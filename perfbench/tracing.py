"""Per-layer tracing from outside the package.

`Tracer.install` replaces each layer's public functions with timing
wrappers at every place a caller can reach them: the defining module,
every other `kgraphlat` module that imported the function by name, and
the methods of the classes whose calls dominate the inner loops.  A
wrapper does nothing but forward the call while the tracer is off.

While on, every call updates exact aggregates (call counts, self time per
layer, inclusive time of the outermost activation of each function) and,
for the shallow part of the call tree, a span record
`(span_id, parent_id, query_id, name, start, end)`.  Spans stay in memory
and are written out by `write_spans`; the metrics come from the
aggregates, so the span limit never changes a number.  Library calls made
while the tracer is off (input generation, reference checks) are not
counted.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("textio", "kgraph", "align", "ideals", "structure", "cli")

# Methods reached through instances rather than module attributes.  Other
# classes (Path, CertifiedBool, ...) are left alone: their methods serve as
# sort keys and predicates millions of times and carry no layer work.
CLASS_METHODS = {"kgraph": ("KGraph",), "align": ("VertexUniverse",)}

# Spans deeper than this below the query, or beyond the limit, are only
# aggregated.
SPAN_DEPTH = 3
SPAN_LIMIT = 50_000


def _public_functions(mod) -> Dict[str, Callable]:
    """Qualified name -> function, for the functions a layer module defines
    and the public methods of its CLASS_METHODS classes."""
    layer = mod.__name__.rsplit(".", 1)[1]
    out = {}
    for name, obj in vars(mod).items():
        if name.startswith("_") or not callable(obj) or isinstance(obj, type):
            continue
        if getattr(obj, "__module__", None) == mod.__name__:
            out[f"{layer}.{name}"] = obj
    for cls_name in CLASS_METHODS.get(layer, ()):
        for name, obj in vars(getattr(mod, cls_name)).items():
            if name.startswith("_") or not callable(obj) or isinstance(obj, (staticmethod, classmethod)):
                continue
            out[f"{layer}.{cls_name}.{name}"] = obj
    return out


class Tracer:
    def __init__(self):
        self.on = False
        self.query: Optional[str] = None
        self._stack: List[list] = []  # frames: [start, child_seconds, span_id, name]
        self._active: Counter = Counter()
        self.spans: List[Tuple] = []
        self.spans_dropped = 0
        self.wrapped: Dict[str, Callable] = {}  # qualified name -> original
        self.bindings: List[Tuple[str, str]] = []  # (module or class, attribute) replaced
        self._hooks: Dict[str, Callable] = {}
        self.reset()

    def reset(self) -> None:
        """Zero the aggregates (spans are kept for the whole run)."""
        self.calls: Counter = Counter()
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.extra: Counter = Counter()

    # -- installation --------------------------------------------------------

    def install(self, package_name: str = "kgraphlat") -> None:
        """Wrap every layer's public functions at every binding site."""
        for layer in LAYERS:
            self.wrapped.update(_public_functions(sys.modules[f"{package_name}.{layer}"]))
        # self.wrapped keeps the originals alive, so their ids stay unique
        wrappers = {id(fn): self._wrap(fn, qual) for qual, fn in self.wrapped.items()}
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == package_name or mod_name.startswith(package_name + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                    self.bindings.append((mod_name, attr))
                elif isinstance(obj, type) and obj.__module__ == mod_name:
                    for cattr, cobj in list(vars(obj).items()):
                        if id(cobj) in wrappers:
                            setattr(obj, cattr, wrappers[id(cobj)])
                            self.bindings.append((f"{mod_name}.{obj.__name__}", cattr))

    def active(self, qual: str) -> bool:
        """Whether a traced call of qual is in progress."""
        return self._active[qual] > 0

    def on_return(self, qual: str, hook: Callable) -> None:
        """Call hook(tracer, result) after each traced call of qual."""
        self._hooks[qual] = hook

    def _wrap(self, fn: Callable, qual: str) -> Callable:
        layer = qual.split(".", 1)[0]
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = None
            if len(stack) <= SPAN_DEPTH:
                if len(tracer.spans) < SPAN_LIMIT:
                    span_id = len(tracer.spans)
                    tracer.spans.append(None)
                else:
                    tracer.spans_dropped += 1
            frame = [clock(), 0.0, span_id, qual]
            stack.append(frame)
            tracer._active[qual] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._active[qual] -= 1
                dur = end - frame[0]
                tracer.calls[qual] += 1
                tracer.self_time[layer] += dur - frame[1]
                if not tracer._active[qual]:
                    tracer.inclusive[qual] += dur
                if stack:
                    stack[-1][1] += dur
                if span_id is not None:
                    parent = stack[-1][2] if stack else None
                    tracer.spans[span_id] = (span_id, parent, tracer.query, qual, frame[0], end)
            hook = tracer._hooks.get(qual)
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    # -- run control -----------------------------------------------------------

    @contextmanager
    def span_query(self, query_id: str):
        """Root span for one benchmark query; its self time is the driver's."""
        self.query = query_id
        span_id = None
        if self.on and len(self.spans) < SPAN_LIMIT:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [time.perf_counter(), 0.0, span_id, "query"]
        depth = len(self._stack)
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            # an interrupt can land inside a wrapper's bookkeeping
            del self._stack[depth:]
            self._active.clear()
            if span_id is not None:
                self.spans[span_id] = (span_id, None, query_id, "query", frame[0], end)
            self.query = None

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.spans_dropped,
                                 "fields": ["id", "parent", "query", "name", "start", "end"]}) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
