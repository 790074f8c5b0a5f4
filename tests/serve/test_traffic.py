"""Load generators: determinism, shape, and validation."""

import numpy as np
import pytest

from repro.serve import OpenLoopConfig, Request, generate_requests
from repro.serve.traffic import _gaps_ps
from repro.workloads import ZipfSampler

_PS_PER_S = 1_000_000_000_000


def _cfg(**kw):
    base = dict(offered_qps=1e6, n_requests=500, slo_ps=10_000_000)
    base.update(kw)
    return OpenLoopConfig(**base)


def test_schedule_is_deterministic_per_seed():
    a = generate_requests(_cfg(), seed=7)
    b = generate_requests(_cfg(), seed=7)
    assert a == b
    c = generate_requests(_cfg(), seed=8)
    assert a != c


def test_arrivals_monotonic_and_ids_sequential():
    reqs = generate_requests(_cfg(), seed=3)
    assert [r.rid for r in reqs] == list(range(len(reqs)))
    arrivals = [r.arrival_ps for r in reqs]
    assert arrivals == sorted(arrivals)
    assert all(r.deadline_ps == r.arrival_ps + 10_000_000 for r in reqs)


def test_mean_rate_matches_offered_qps():
    cfg = _cfg(n_requests=20_000)
    reqs = generate_requests(cfg, seed=1)
    mean_gap = reqs[-1].arrival_ps / len(reqs)
    expected = _PS_PER_S / cfg.offered_qps
    assert mean_gap == pytest.approx(expected, rel=0.05)


def test_burst_preserves_mean_but_adds_variance():
    smooth = generate_requests(_cfg(n_requests=20_000), seed=5)
    bursty = generate_requests(
        _cfg(n_requests=20_000, burst_factor=4.0), seed=5
    )
    t_smooth = smooth[-1].arrival_ps
    t_bursty = bursty[-1].arrival_ps
    assert t_bursty == pytest.approx(t_smooth, rel=0.1)
    gaps = lambda reqs: np.diff([r.arrival_ps for r in reqs])
    assert gaps(bursty).std() > 1.3 * gaps(smooth).std()


def test_tenants_are_zipf_skewed_and_priority_flagged():
    cfg = _cfg(n_requests=5_000, n_tenants=8, tenant_skew=1.2,
               priority_tenants=(0, 3))
    reqs = generate_requests(cfg, seed=11)
    counts = np.bincount([r.tenant for r in reqs], minlength=8)
    assert counts[0] > 2 * counts[7] > 0
    for r in reqs:
        assert r.priority == (r.tenant in (0, 3))


@pytest.mark.parametrize("bad", [
    dict(offered_qps=0.0),
    dict(n_requests=0),
    dict(slo_ps=0),
    dict(n_tenants=0),
    dict(burst_factor=0.5),
    dict(burst_len=0),
])
def test_open_loop_validation(bad):
    with pytest.raises(ValueError):
        _cfg(**bad)


def test_requests_match_a_per_index_reference():
    cfg = _cfg(n_requests=2_000, n_tenants=6, burst_factor=3.0,
               priority_tenants=(1, 4))
    reqs = generate_requests(cfg, seed=13)
    # The same draws as generate_requests, read back one index at a time.
    rng = np.random.default_rng(13)
    arrivals = np.cumsum(_gaps_ps(cfg, rng)).astype(np.int64)
    tenants = ZipfSampler(cfg.n_tenants, cfg.tenant_skew, rng).sample(
        cfg.n_requests
    )
    expected = [
        Request(
            rid=i,
            tenant=int(tenants[i]),
            arrival_ps=int(arrivals[i]),
            deadline_ps=int(arrivals[i]) + cfg.slo_ps,
            priority=int(tenants[i]) in (1, 4),
        )
        for i in range(cfg.n_requests)
    ]
    assert reqs == expected


def test_request_fields_are_python_scalars():
    for req in generate_requests(_cfg(priority_tenants=(0, 2)), seed=4):
        assert [type(v) for v in req] == [int, int, int, int, bool]


def test_requests_are_immutable_and_hashable():
    req = generate_requests(_cfg(), seed=2)[0]
    with pytest.raises(AttributeError):
        req.arrival_ps = 0
    assert hash(req) == hash(Request(**req._asdict()))
    assert Request(rid=1, tenant=2, arrival_ps=3, deadline_ps=4).priority \
        is False
