"""Fault-tolerant collectives: re-route around dead ring members.

A ring allreduce is the least fault-tolerant schedule there is — every
node is on the critical path of every step — so ACCL-style deployments
must detect a dead member and fall back.  :func:`allreduce_with_faults`
replays a ring schedule step by step against a
:class:`~repro.faults.plan.FaultPlan`:

* a **dropped** step is retransmitted (the step's wire time is paid
  again, plus the detection timeout);
* a **latency spike** stretches the step;
* a **node outage** aborts the ring: the survivors restart the
  collective as a binomial *tree* over their own contributions (the
  crashed node's partial sums are lost, as in a real restart-based
  recovery), paying the time already sunk into the ring as waste.

The returned :class:`ResilientAllreduce` carries the usual
:class:`~repro.accl.collectives.CollectiveOutcome` (over the surviving
ranks) plus the recovery accounting the ``e22`` bench reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..faults.plan import FaultPlan
from ..obs.trace import Tracer
from .cluster import FpgaCluster, HostStagedCluster, _ClusterBase
from .collectives import CollectiveOutcome, _chunk, ring_allreduce_schedule

__all__ = ["ResilientAllreduce", "allreduce_with_faults"]

_PS_PER_S = 1_000_000_000_000


@dataclass(frozen=True)
class ResilientAllreduce:
    """One fault-injected allreduce run.

    ``outcome.buffers`` holds the survivors' results (in surviving-rank
    order); ``wasted_s`` is time spent on ring steps that the reroute
    then discarded.
    """

    outcome: CollectiveOutcome
    survivors: tuple[int, ...]
    rerouted: bool
    retries: int
    wasted_s: float

    @property
    def time_s(self) -> float:
        return self.outcome.time_s


def _subcluster(cluster: _ClusterBase, n_nodes: int) -> _ClusterBase:
    """A cluster of the same flavour over ``n_nodes`` survivors."""
    protocol = cluster.fabric.protocol
    if isinstance(cluster, HostStagedCluster):
        return HostStagedCluster(n_nodes, protocol, cluster.cpu)
    return FpgaCluster(n_nodes, protocol)


def allreduce_with_faults(
    cluster: _ClusterBase,
    buffers: list[np.ndarray],
    faults: FaultPlan,
    start_ps: int = 0,
    detect_timeout_ps: int = 5_000_000,
    tracer: Tracer | None = None,
) -> ResilientAllreduce:
    """Ring allreduce under ``faults``, degrading to a survivor tree.

    ``start_ps`` places the run on the plan's outage timeline;
    ``detect_timeout_ps`` is the extra time charged whenever a drop or
    crash must first be *noticed* before recovery starts.
    """
    cluster._check_count(buffers)
    _chunk(buffers)  # reject payloads the ring cannot split up front
    p = cluster.n_nodes
    steps, reductions = ring_allreduce_schedule(p, buffers[0].nbytes)
    t_ps = float(start_ps)
    retries = 0
    for i, (step, red) in enumerate(zip(steps, reductions)):
        dead = sorted(
            node for node in range(p) if faults.node_down(node, int(t_ps))
        )
        if dead:
            # Ring is broken: restart as a tree over the survivors'
            # original contributions.  Everything spent so far is waste.
            if tracer is not None:
                tracer.fault_injected(
                    "node_down", "accl.ring", at_ps=int(t_ps), nodes=dead
                )
            wasted_s = (t_ps - start_ps) / _PS_PER_S
            survivors = tuple(n for n in range(p) if n not in dead)
            sub = _subcluster(cluster, len(survivors))
            rerun = sub.allreduce([buffers[n] for n in survivors], "tree")
            rerun.time_s += wasted_s + detect_timeout_ps / _PS_PER_S
            return ResilientAllreduce(
                outcome=rerun,
                survivors=survivors,
                rerouted=True,
                retries=retries,
                wasted_s=wasted_s,
            )
        step_s = cluster._step_time_s(step, red)
        site = f"accl.step{i}"
        while faults.drop(site):
            # Retransmit: pay the detection timeout plus the step again.
            retries += 1
            if tracer is not None:
                tracer.fault_injected("drop", site, at_ps=int(t_ps))
                tracer.retry_attempted(site, retries, at_ps=int(t_ps))
            t_ps += detect_timeout_ps + step_s * _PS_PER_S
        spike = faults.spike_delay_ps(site)
        if spike and tracer is not None:
            tracer.fault_injected(
                "latency_spike", site, at_ps=int(t_ps), delay_ps=spike
            )
        t_ps += step_s * _PS_PER_S + spike
    outcome = cluster.allreduce(buffers, "ring")
    outcome.time_s = (t_ps - start_ps) / _PS_PER_S
    return ResilientAllreduce(
        outcome=outcome,
        survivors=tuple(range(p)),
        rerouted=False,
        retries=retries,
        wasted_s=0.0,
    )
