"""Span tracing of the library's public functions, from outside the library.

:class:`Tracer` wraps every public function of the traced modules and
patches the wrapper into every ``embedlab`` module namespace that binds the
original (``embed`` binds ``is_stochastic`` from ``classify``, ``structure``
binds ``expm`` from ``numkit``, the package re-exports nearly everything).
Each wrapped call appends one span ``(name, start, end, parent)`` to an
in-memory list; aggregation happens after the run.  Leaving the ``with``
block restores every patched attribute.
"""

import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple

LAYERS = ("numkit", "classify", "structure", "embed", "cli")
PACKAGE = "embedlab"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def aggregate(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Calls and self time in seconds per function name and per layer
    (the part of the name before the first dot)."""
    totals: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for s, own in zip(spans, self_times(spans)):
        for key in (s.name, s.name.split(".", 1)[0]):
            totals[key]["calls"] += 1
            totals[key]["self_s"] += own
    return dict(totals)


def public_functions(module) -> Dict[str, Callable]:
    """Functions defined in ``module`` whose names do not start with ``_``."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


class Tracer:
    """Context manager that records a span around every call of the public
    functions of ``modules`` (a map from layer name to module object).

    ``observers`` maps a span name to ``fn(result, parent_name)``, called with
    the return value after the span closes; ``parent_name`` is None for a
    root span."""

    def __init__(self, modules, observers=None):
        self.modules = modules
        self.observers = observers or {}
        self.spans: List[Span] = []
        self._stack: List[tuple] = []  # (span index, name) of open spans
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, observer = self.spans, self._stack, self.observers.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent, parent_name = stack[-1] if stack else (-1, None)
            index = len(spans)
            spans.append(None)
            stack.append((index, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = Span(name, start, clock(), parent)
                stack.pop()
            if observer is not None:
                observer(result, parent_name)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def __enter__(self):
        namespaces = [m for key, m in sorted(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for layer, module in self.modules.items():
            for fname, fn in public_functions(module).items():
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()
        return False
