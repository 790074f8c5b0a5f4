"""Unit and property tests for the business-rule matcher."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import xeon_server
from repro.core.device import ALVEO_U250
from repro.operators.rules import (
    RuleSet,
    cpu_match_time_s,
    random_rules,
    rules_kernel_spec,
)


def _tiny_rules():
    return RuleSet(
        lows=np.array([[0.0, 0.0], [0.5, -np.inf]]),
        highs=np.array([[0.4, 0.4], [1.0, np.inf]]),
        priorities=np.array([1.0, 2.0]),
    )


def test_matches_matrix():
    rules = _tiny_rules()
    queries = np.array([
        [0.2, 0.2],   # rule 0 only
        [0.7, 9.0],   # rule 1 only (wildcard second attr)
        [0.45, 0.2],  # neither
    ])
    match = rules.matches(queries)
    assert match.tolist() == [[True, False], [False, True], [False, False]]


def test_best_match_uses_priority():
    rules = RuleSet(
        lows=np.zeros((2, 1)),
        highs=np.ones((2, 1)),
        priorities=np.array([5.0, 9.0]),
    )
    best = rules.best_match(np.array([[0.5]]))
    assert best[0] == 1  # higher priority wins
    none = rules.best_match(np.array([[2.0]]))
    assert none[0] == -1


def test_matches_naive_reference():
    rules = random_rules(30, 4, seed=3, selectivity=0.3, wildcard_fraction=0.3)
    rng = np.random.default_rng(4)
    queries = rng.random((20, 4))
    got = rules.matches(queries)
    for qi in range(20):
        for ri in range(30):
            want = bool(
                (queries[qi] >= rules.lows[ri]).all()
                and (queries[qi] <= rules.highs[ri]).all()
            )
            assert got[qi, ri] == want


def test_ruleset_validation():
    with pytest.raises(ValueError):
        RuleSet(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        RuleSet(np.ones((1, 1)), np.zeros((1, 1)), np.zeros(1))
    with pytest.raises(ValueError):
        RuleSet(np.zeros((2, 1)), np.ones((2, 1)), np.zeros(3))
    rules = _tiny_rules()
    with pytest.raises(ValueError):
        rules.matches(np.zeros((2, 5)))


def test_random_rules_properties():
    rules = random_rules(100, 6, selectivity=0.25,
                         wildcard_fraction=0.5, seed=5)
    assert rules.lows.shape == (100, 6) and rules.n_attrs == 6
    wild = np.isinf(rules.lows)
    assert 0.3 < wild.mean() < 0.7
    finite = ~wild
    widths = (rules.highs - rules.lows)[finite]
    assert np.allclose(widths, 0.25)
    with pytest.raises(ValueError):
        random_rules(0, 1, selectivity=0.3, wildcard_fraction=0.3, seed=0)
    with pytest.raises(ValueError):
        random_rules(1, 1, selectivity=0.0, wildcard_fraction=0.3, seed=0)


def test_kernel_latency_flat_in_rule_count():
    """The SIGMOD'20 point: query latency is (nearly) independent of
    the number of rules — they evaluate in space, not time."""
    few = rules_kernel_spec(64, 8)
    many = rules_kernel_spec(4096, 8)
    assert many.ii == few.ii == 1
    # Depth grows only logarithmically (the priority tree).
    assert many.depth - few.depth <= 8
    # Resources grow linearly: that is where the scaling went.
    assert many.resources.lut > 30 * few.resources.lut


def test_cpu_time_linear_in_rules_fpga_flat():
    cpu = xeon_server()
    n_queries = 100_000
    cpu_small = cpu_match_time_s(cpu, n_queries, 128, 8)
    cpu_large = cpu_match_time_s(cpu, n_queries, 4096, 8)
    assert cpu_large == pytest.approx(32 * cpu_small, rel=0.01)
    fpga_small = rules_kernel_spec(128, 8).latency_seconds(n_queries)
    fpga_large = rules_kernel_spec(4096, 8).latency_seconds(n_queries)
    assert fpga_large < 1.01 * fpga_small
    assert fpga_large < cpu_large


def test_resource_feasibility_bounds_rule_count():
    """The fabric caps how many rules fit — the design's real limit."""
    assert ALVEO_U250.fits(rules_kernel_spec(4096, 8).resources)
    assert not ALVEO_U250.fits(rules_kernel_spec(200_000, 8).resources)


def test_cpu_match_validation():
    cpu = xeon_server()
    with pytest.raises(ValueError):
        cpu_match_time_s(cpu, -1, 1, 1)
    with pytest.raises(ValueError):
        cpu_match_time_s(cpu, 1, 1, 1, short_circuit=0.0)
    assert cpu_match_time_s(cpu, 0, 10, 10) == 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_property_best_match_is_a_match(seed):
    rules = random_rules(20, 3, seed=seed, selectivity=0.3,
                         wildcard_fraction=0.3)
    rng = np.random.default_rng(seed + 1)
    queries = rng.random((10, 3))
    best = rules.best_match(queries)
    match = rules.matches(queries)
    for qi, rule_id in enumerate(best):
        if rule_id >= 0:
            assert match[qi, rule_id]
            better = rules.priorities > rules.priorities[rule_id]
            assert not match[qi][better].any()
        else:
            assert not match[qi].any()
