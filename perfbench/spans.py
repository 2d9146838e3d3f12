"""In-memory span recorder for the benchmark's traced run.

The program has no span hooks of its own, so the traced run wraps the
public methods of each layer's classes from outside: :class:`Patch`
swaps a recording wrapper in for the duration of one traced operation
and restores the original afterwards.  Every call records one span --
name, layer, start and end (``perf_counter_ns``), parent span and thread
-- into a list kept in memory and written out when the benchmark ends.

Spans nest per thread.  A span opened on a thread with nothing open
(a pool worker, once one runs under the traced operation) is parented to
the operation's root span, so its time is still subtracted from -- and
reconciled against -- the operation it served.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# Span record layout (a list, not an object: spans are created in the
# program's hot paths and the recorder's own cost is reported as
# ``trace.overhead_frac``).
SID, NAME, LAYER, START, END, PARENT, THREAD = range(7)


class SpanRecorder:
    """Collects spans for the operations run under :meth:`operation`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Optional[list] = None
        #: ``spans[begin:end]`` of each finished operation, in order.
        self.operations: List[Tuple[int, int]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """Return ``fn`` recording one span per call while an operation is open."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            root = rec._root
            if root is None:
                return fn(*args, **kwargs)
            stack = rec._stack()
            parent = stack[-1][SID] if stack else root[SID]
            span = [next(rec._ids), name, layer, perf_counter_ns(), 0, parent,
                    threading.get_ident()]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
                rec.spans.append(span)

        return traced

    @contextmanager
    def operation(self, name: str):
        """Open the root span of one measured operation; yields the span."""
        if self._root is not None:
            raise RuntimeError("traced operations do not nest")
        root = [next(self._ids), name, "engine", 0, 0, None, threading.get_ident()]
        begin = len(self.spans)
        stack = self._stack()
        stack.append(root)
        self._root = root
        root[START] = perf_counter_ns()
        try:
            yield root
        finally:
            root[END] = perf_counter_ns()
            self._root = None
            stack.pop()
            self.spans.append(root)
            self.operations.append((begin, len(self.spans)))

    def operation_spans(self, k: int) -> List[list]:
        """The spans of the ``k``-th finished operation (its root last)."""
        begin, end = self.operations[k]
        return self.spans[begin:end]

    def to_records(self) -> List[dict]:
        """The spans as JSON-ready dicts, in completion order."""
        keys = ("id", "name", "layer", "start_ns", "end_ns", "parent", "thread")
        return [dict(zip(keys, s)) for s in self.spans]


def self_times(spans: Iterable[list]) -> Tuple[Dict[str, int], int]:
    """Per-layer self time (ns) and the summed root duration of ``spans``.

    A span's self time is its duration minus the durations of its
    direct children, so the layer self times sum to the root durations
    exactly (integer nanoseconds) whenever every span closed inside its
    parent.
    """
    spans = list(spans)
    child_ns: Dict[int, int] = defaultdict(int)
    for s in spans:
        if s[PARENT] is not None:
            child_ns[s[PARENT]] += s[END] - s[START]
    layers: Dict[str, int] = defaultdict(int)
    root_ns = 0
    for s in spans:
        dur = s[END] - s[START]
        layers[s[LAYER]] += dur - child_ns.get(s[SID], 0)
        if s[PARENT] is None:
            root_ns += dur
    return dict(layers), root_ns


def inclusive_ns(spans: Iterable[list], name: str) -> int:
    """Summed duration of the spans called ``name`` (none of the wrapped
    methods recurse, so no span of a name nests in another of it)."""
    return sum(s[END] - s[START] for s in spans if s[NAME] == name)


class Patch:
    """Install recording wrappers on ``(owner, attribute)`` pairs; undo on exit."""

    def __init__(self, recorder: SpanRecorder, targets: Iterable[Tuple[type, str, str]]) -> None:
        self.recorder = recorder
        self.targets = list(targets)
        self._saved: List[Tuple[type, str, object]] = []

    def __enter__(self) -> "Patch":
        for cls, attr, layer in self.targets:
            owner = next(k for k in cls.__mro__ if attr in k.__dict__)
            original = owner.__dict__[attr]
            if not inspect.isfunction(original):
                raise TypeError(f"{owner.__name__}.{attr} is not a plain method")
            name = f"{owner.__name__}.{attr}"
            setattr(owner, attr, self.recorder.wrap(original, name, layer))
            self._saved.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
