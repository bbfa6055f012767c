"""In-memory spans recorded around calls into the program's layers.

The traced run wraps public functions and methods of ``repro`` from this
file — nothing under ``src/`` changes.  Each call becomes a span (layer,
name, start, end, parent span of the same thread); spans stay in memory
until the run ends.  A span's *self time* is its duration minus the part
of it that its child spans cover, so summing self times by layer splits
a thread's wall time between the layers without counting any twice.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from metrics import interval_union_ns


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    layer: str
    name: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def self_times_ns(spans) -> dict[int, int]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to the span."""
    by_id = {span.sid: span for span in spans}
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None:
            children.setdefault(parent.sid, []).append(
                (max(span.start_ns, parent.start_ns),
                 min(span.end_ns, parent.end_ns))
            )
    return {
        span.sid: span.duration_ns
        - interval_union_ns(
            (a, b) for a, b in children.get(span.sid, ()) if b > a
        )
        for span in spans
    }


def self_by_layer_ns(spans) -> dict[str, int]:
    """Self time summed per layer."""
    totals: dict[str, int] = {}
    own = self_times_ns(spans)
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0) + own[span.sid]
    return totals


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str, name: str | None = None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(sid, parent, layer, name or layer, start, end))

    def wrap(self, fn, layer: str, name: str | None = None, observe=None):
        """``fn`` inside a span; ``observe(args, kwargs, result, error,
        duration_ns)`` runs after each call, outside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = error = None
            start = time.perf_counter_ns()
            try:
                with self.span(layer, name):
                    result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                if observe is not None:
                    observe(args, kwargs, result, error,
                            time.perf_counter_ns() - start)

        return traced

    def patch(self, owner, attr: str, layer: str, name: str | None = None,
              observe=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by its
        traced wrapper until :meth:`unpatch`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, layer, name, observe))

    def patch_everywhere(self, fn, layer: str, name: str | None = None,
                         observe=None) -> None:
        """Trace ``fn`` under every name a ``repro`` module binds it to
        (``from x import f`` copies the reference into each importer)."""
        traced = self.wrap(fn, layer, name, observe)
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, traced)

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_spans(self, layer: str) -> list[Span]:
        return [span for span in self.spans if span.layer == layer]
