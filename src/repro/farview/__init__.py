"""Use Case I — Farview: smart disaggregated memory with operator
offloading (Korolija et al., CIDR 2022; Figure 2 of the tutorial).

The node (:class:`~repro.farview.server.FarviewServer`) streams table
data out of its DRAM through an operator pipeline straight into the
network; the client (:class:`~repro.farview.client.FarviewClient`)
compares that against fetching raw data and processing on a local CPU.
"""

from .client import FarviewClient, QueryOutcome
from .concurrency import ConcurrencyResult, simulate_clients
from .offload import OffloadExecution, offload_query
from .server import FarviewServer, ReadExecution

__all__ = [
    "ConcurrencyResult",
    "FarviewClient",
    "FarviewServer",
    "OffloadExecution",
    "QueryOutcome",
    "ReadExecution",
    "offload_query",
    "simulate_clients",
]
