"""Host-time span recorder for the traced benchmark run.

Spans are opened and closed around calls into the program's public
functions.  The recorder keeps a stack, so when a span closes it knows
how much of its interval its children covered:

* **self time** (duration minus children) is added to the span's
  *layer* for the current phase (``setup`` or ``run``).  Every instant
  inside a phase's root span is therefore charged to exactly one layer,
  and the layers' self times sum to the root span's duration;
* **inclusive time** is added to the span's named *metric*, counted
  only for the outermost active span of that metric so recursion, or a
  metric shared by nested functions, is not counted twice;
* **calls** and an optional work **count** derived from the arguments
  are added to their own metrics.

Spans are kept in memory as ``(id, name, start_ns, end_ns, parent,
op)`` tuples and written out once, by :meth:`Recorder.dump`, when the
run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = ["Recorder"]

# Spans kept for the dump; root spans are always kept, and the
# aggregates stay exact beyond this cap.
_MAX_SPANS = 200_000


class Recorder:
    """Records spans, per-layer self time and per-metric totals."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 max_spans: int = _MAX_SPANS) -> None:
        self.clock = clock
        self.max_spans = max_spans
        self.phase = "setup"
        self.op: str | None = None
        self.spans: list[tuple[int, str, int, int, int, str | None]] = []
        self.dropped = 0
        # Keyed by (phase, layer) and (phase, metric).
        self.self_ns: dict[tuple[str, str], int] = {}
        self.time_ns: dict[tuple[str, str], int] = {}
        self.counts: dict[tuple[str, str], int] = {}
        self._active: dict[str, int] = {}
        # Open frames: [span id, name, layer, metric, start, child ns, phase]
        self._stack: list[list[Any]] = []
        self._next_id = 0

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, layer: str, metric: str | None = None) -> None:
        """Open a span; ``metric`` collects its inclusive time."""
        if metric is not None:
            self._active[metric] = self._active.get(metric, 0) + 1
        self._stack.append(
            [self._next_id, name, layer, metric, self.clock(), 0, self.phase]
        )
        self._next_id += 1

    def end(self) -> int:
        """Close the innermost open span; returns its duration in ns."""
        end = self.clock()
        span_id, name, layer, metric, start, child, phase = self._stack.pop()
        duration = end - start
        key = (phase, layer)
        self.self_ns[key] = self.self_ns.get(key, 0) + duration - child
        parent = -1
        if self._stack:
            self._stack[-1][5] += duration
            parent = self._stack[-1][0]
        if metric is not None:
            depth = self._active[metric] - 1
            self._active[metric] = depth
            if depth == 0:
                key = (phase, metric)
                self.time_ns[key] = self.time_ns.get(key, 0) + duration
        if parent == -1 or len(self.spans) < self.max_spans:
            self.spans.append((span_id, name, start, end, parent, self.op))
        else:
            self.dropped += 1
        return duration

    @contextlib.contextmanager
    def span(self, name: str, layer: str,
             metric: str | None = None) -> Iterator[None]:
        """A span around the ``with`` block."""
        self.begin(name, layer, metric)
        try:
            yield
        finally:
            self.end()

    def add(self, metric: str, amount: int = 1) -> None:
        """Add to a count metric."""
        key = (self.phase, metric)
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        metric: str | None = None,
        calls: str | None = None,
        count: tuple[str, Callable[..., int]] | None = None,
    ) -> Callable:
        """``fn`` with every call recorded as a span.

        ``calls`` names a metric counting the calls; ``count`` is a
        ``(metric, fn(*args, **kwargs) -> int)`` pair adding the amount
        of work each call carries, such as its number of queries.
        """
        rec = self

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            if calls is not None:
                rec.add(calls)
            if count is not None:
                rec.add(count[0], count[1](*args, **kwargs))
            rec.begin(name, layer, metric)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end()

        return recorded

    # -- results -------------------------------------------------------------

    def layer_ns(self, phase: str) -> dict[str, int]:
        """Self time per layer, in ns, for one phase."""
        return {
            layer: ns for (p, layer), ns in self.self_ns.items() if p == phase
        }

    def seconds(self, metric: str, phase: str | None = None) -> float:
        """Inclusive time of a metric, in one phase or in both."""
        return sum(
            ns for (p, m), ns in self.time_ns.items()
            if m == metric and phase in (None, p)
        ) / 1e9

    def count(self, metric: str, phase: str | None = None) -> int:
        """A count metric, in one phase or in both."""
        return sum(
            n for (p, m), n in self.counts.items()
            if m == metric and phase in (None, p)
        )

    def dump(self, path: Path) -> None:
        """Write the recorded spans as JSON, one list per span."""
        if self._stack:
            raise RuntimeError("dump() while spans are still open")
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
            "dropped": self.dropped,
            "spans": self.spans,
        }
        with path.open("w", encoding="utf-8") as fp:
            json.dump(payload, fp)
