"""A fault-injecting network link.

:class:`FaultyLink` is a drop-in subclass of
:class:`~repro.network.link.SimLink` that consults a
:class:`~repro.faults.plan.FaultPlan` on every transfer:

* a **dropped** transfer still occupies the wire (the bytes left the
  sender) but is never delivered: the returned event never fires,
  which is why callers need timeouts;
* a **latency spike** delays delivery by the plan's drawn magnitude.

Every injection lands on the tracer's ``faults:{site}`` track as an
instant event, so Chrome traces show exactly where the plan struck.
"""

from __future__ import annotations

from ..core.sim import Event, Simulator
from ..network.link import LinkModel, SimLink
from .plan import FaultPlan

__all__ = ["FaultyLink"]


class FaultyLink(SimLink):
    """A :class:`SimLink` whose transfers consult a :class:`FaultPlan`."""

    def __init__(
        self,
        sim: Simulator,
        model: LinkModel,
        plan: FaultPlan,
        name: str | None = None,
    ) -> None:
        super().__init__(sim, model, name)
        self.plan = plan
        self.drops = 0
        self.spikes = 0

    def transfer(self, nbytes: int, dst: object = None) -> Event:
        base = super().transfer(nbytes, dst)
        tracer = self.sim._tracer
        if self.plan.drop(self.name):
            self.drops += 1
            if tracer is not None:
                tracer.fault_injected("drop", self.name, nbytes=nbytes)
            # The wire time was already spent; only delivery is lost.
            return Event(self.sim)
        spike = self.plan.spike_delay_ps(self.name)
        if spike:
            self.spikes += 1
            if tracer is not None:
                tracer.fault_injected(
                    "latency_spike", self.name, delay_ps=spike
                )
            out = Event(self.sim)

            def _deliver(ev: Event, out: Event = out, spike: int = spike) -> None:
                if not out._cancelled:
                    out.succeed(ev.value, delay=spike)

            base.callbacks.append(_deliver)
            return out
        return base

