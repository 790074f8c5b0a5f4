"""Lightweight metrics: counters and gauges.

The registry is the accounting half of the observability layer
(:mod:`repro.obs`): the tracer asks it for named instruments,
optionally qualified by hierarchical labels
(``kernel="filter", port="in"``), and increments them as hooks fire.
Instruments are plain Python numbers, so reading or snapshotting them
never perturbs a simulation; an untraced run creates none.

``snapshot()`` returns a plain dict keyed ``name{label=value,...}`` so
results can be attached to a bench
:class:`~repro.bench.reporting.ResultTable` or serialised as JSON.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Counter", "Gauge", "MetricsRegistry"]


def _key(name: str, labels: dict[str, Any]) -> str:
    """Canonical instrument key: ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: cannot add {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({_key(self.name, self.labels)}={self.value})"


class Gauge:
    """A value that can move both ways (occupancy, utilisation)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({_key(self.name, self.labels)}={self.value})"


class MetricsRegistry:
    """A named collection of instruments with hierarchical labels.

    ``counter``/``gauge`` get-or-create: the same ``(name, labels)``
    pair always returns the same instrument, so call sites need not
    cache handles (though hot paths should).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge] = {}

    # -- instrument access -------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = _key(name, labels)
        inst = self._instruments.get(key)
        if inst is None:
            inst = Counter(name, labels)
            self._instruments[key] = inst
        elif not isinstance(inst, Counter):
            raise TypeError(f"{key!r} already registered as {type(inst).__name__}")
        return inst

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _key(name, labels)
        inst = self._instruments.get(key)
        if inst is None:
            inst = Gauge(name, labels)
            self._instruments[key] = inst
        elif not isinstance(inst, Gauge):
            raise TypeError(f"{key!r} already registered as {type(inst).__name__}")
        return inst

    def snapshot(self) -> dict[str, float]:
        """Current values as a plain, JSON-friendly dict."""
        return {
            key: inst.value for key, inst in sorted(self._instruments.items())
        }
