"""Business-rule matching — the Amadeus search-engine case study.

Maschi et al. (SIGMOD 2020, one of the presenters' industry
collaborations) accelerate *business-rule evaluation* for travel
search: every query must be checked against thousands of rules (each a
conjunction of attribute ranges) before results can be priced.  On a
CPU the cost grows with the rule count; on an FPGA every rule is its
own comparator bank evaluated **in parallel**, so a query takes one
pipeline traversal regardless of how many rules are loaded — until the
fabric runs out of comparators, which is a resource question the
device model answers.

:class:`RuleSet` is the functional matcher (vectorised numpy, exact);
:func:`rules_kernel_spec` and :func:`cpu_match_time_s` price the two
platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..baselines.cpu import CpuModel
from ..core.clocking import FABRIC_300MHZ, ClockDomain
from ..core.device import ResourceVector
from ..core.kernel import KernelSpec

__all__ = [
    "RuleSet",
    "cpu_match_time_s",
    "random_rules",
    "rules_kernel_spec",
]


@dataclass(frozen=True)
class RuleSet:
    """``n_rules`` conjunctive range rules over ``n_attrs`` attributes.

    ``lows``/``highs`` have shape ``(n_rules, n_attrs)``; a rule
    matches a query when ``lows <= query <= highs`` on every attribute
    (wildcards are encoded as ``-inf``/``+inf`` bounds).
    ``priorities`` breaks ties: :meth:`best_match` returns the matching
    rule with the highest priority (lowest index wins ties).
    """

    lows: np.ndarray
    highs: np.ndarray
    priorities: np.ndarray

    def __post_init__(self) -> None:
        if self.lows.shape != self.highs.shape:
            raise ValueError("lows and highs must have identical shape")
        if self.lows.ndim != 2:
            raise ValueError("bounds must be (n_rules, n_attrs)")
        if self.priorities.shape != (self.lows.shape[0],):
            raise ValueError("priorities must be (n_rules,)")
        if (self.lows > self.highs).any():
            raise ValueError("every rule needs lows <= highs")

    @property
    def n_attrs(self) -> int:
        return self.lows.shape[1]

    def matches(self, queries: np.ndarray) -> np.ndarray:
        """Boolean match matrix of shape ``(n_queries, n_rules)``."""
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.n_attrs:
            raise ValueError(f"queries must be (q, {self.n_attrs})")
        ok_low = queries[:, None, :] >= self.lows[None, :, :]
        ok_high = queries[:, None, :] <= self.highs[None, :, :]
        return (ok_low & ok_high).all(axis=2)

    def best_match(self, queries: np.ndarray) -> np.ndarray:
        """Highest-priority matching rule per query (-1 for none)."""
        match = self.matches(queries)
        scores = np.where(match, self.priorities[None, :], -np.inf)
        best = scores.argmax(axis=1)
        any_match = match.any(axis=1)
        return np.where(any_match, best, -1)


def random_rules(
    n_rules: int,
    n_attrs: int,
    selectivity: float,
    wildcard_fraction: float,
    seed: int,
) -> RuleSet:
    """Generate rules whose per-attribute ranges cover ``selectivity``
    of a unit domain, with some attributes wildcarded."""
    if n_rules < 1 or n_attrs < 1:
        raise ValueError("need at least one rule and one attribute")
    if not 0 < selectivity <= 1:
        raise ValueError("selectivity must be in (0, 1]")
    if not 0 <= wildcard_fraction <= 1:
        raise ValueError("wildcard_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    lows = rng.random((n_rules, n_attrs)) * (1 - selectivity)
    highs = lows + selectivity
    wild = rng.random((n_rules, n_attrs)) < wildcard_fraction
    lows[wild] = -np.inf
    highs[wild] = np.inf
    priorities = rng.permutation(n_rules).astype(np.float64)
    return RuleSet(lows=lows, highs=highs, priorities=priorities)


def rules_kernel_spec(
    n_rules: int,
    n_attrs: int,
    clock: ClockDomain = FABRIC_300MHZ,
) -> KernelSpec:
    """The spatial rule-matching datapath.

    Every rule instantiates ``2 * n_attrs`` comparators plus a
    priority-resolution tree; a query enters per cycle (II=1) and the
    answer emerges after the tree's depth.  Resources grow linearly
    with rules x attributes — the feasibility boundary of the design.
    """
    if n_rules < 1 or n_attrs < 1:
        raise ValueError("need at least one rule and one attribute")
    comparators = 2 * n_rules * n_attrs
    tree_depth = max(1, math.ceil(math.log2(max(2, n_rules))))
    # Rules use narrow encoded attributes (the SIGMOD'20 design packs
    # domains into ~16-bit codes), so a comparator is ~10 LUTs.
    return KernelSpec(
        name=f"rules-{n_rules}x{n_attrs}",
        ii=1,
        depth=4 + tree_depth,
        unroll=1,
        clock=clock,
        resources=ResourceVector(
            lut=10 * comparators + 4 * n_rules,
            ff=12 * comparators,
            bram_36k=max(1, comparators // 4096),
        ),
    )


def cpu_match_time_s(
    cpu: CpuModel,
    n_queries: int,
    n_rules: int,
    n_attrs: int,
    short_circuit: float = 0.5,
    parallel: bool = False,
) -> float:
    """CPU rule evaluation: sequential per rule, with short-circuiting.

    ``short_circuit`` is the average fraction of a rule's attribute
    comparisons actually executed before a miss is known.
    """
    if min(n_queries, n_rules, n_attrs) < 0:
        raise ValueError("counts must be >= 0")
    if not 0 < short_circuit <= 1:
        raise ValueError("short_circuit must be in (0, 1]")
    comparisons = n_queries * n_rules * n_attrs * short_circuit * 2
    return cpu.compute_time_s(
        int(comparisons), element_bytes=8, parallel=parallel
    )
