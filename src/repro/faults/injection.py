"""A fault-injecting network link.

:class:`FaultyLink` is a drop-in subclass of
:class:`~repro.network.link.SimLink` that consults a
:class:`~repro.faults.plan.FaultPlan` on every transfer:

* a **dropped** transfer still occupies the wire (the bytes left the
  sender) but is never delivered — in ``"silent"`` mode the returned
  event simply never fires (the realistic case, which is why callers
  need timeouts), in ``"error"`` mode it fails with
  :class:`TransferDropped` at the would-be delivery time (convenient
  for tests);
* a **latency spike** delays delivery by the plan's drawn magnitude.

Every injection lands on the tracer's ``faults:{site}`` track as an
instant event, so Chrome traces show exactly where the plan struck.
"""

from __future__ import annotations

from ..core.sim import Event, SimulationError, Simulator
from ..network.link import LinkModel, SimLink
from .plan import FaultPlan

__all__ = ["FaultyLink", "TransferDropped"]


class TransferDropped(SimulationError):
    """An injected link fault swallowed this transfer."""

    def __init__(self, site: str, nbytes: int) -> None:
        super().__init__(f"transfer of {nbytes} bytes dropped on {site!r}")
        self.site = site
        self.nbytes = nbytes


class FaultyLink(SimLink):
    """A :class:`SimLink` whose transfers consult a :class:`FaultPlan`.

    ``mode`` selects what a dropped transfer looks like to the caller:
    ``"silent"`` (event never fires) or ``"error"`` (event fails with
    :class:`TransferDropped` at delivery time).
    """

    def __init__(
        self,
        sim: Simulator,
        model: LinkModel,
        plan: FaultPlan,
        name: str | None = None,
        mode: str = "silent",
    ) -> None:
        if mode not in ("silent", "error"):
            raise ValueError(f"mode must be 'silent' or 'error', got {mode!r}")
        super().__init__(sim, model, name)
        self.plan = plan
        self.mode = mode
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
            out = Event(self.sim)
            if self.mode == "error":
                def _fail(ev: Event, out: Event = out) -> None:
                    if not out._cancelled:
                        out.fail(TransferDropped(self.name, ev.value))
                base.callbacks.append(_fail)
            return out
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

