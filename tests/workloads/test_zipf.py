"""Unit tests for the Zipf sampler."""

import numpy as np
import pytest

from repro.workloads.zipf import ZipfSampler


def _sampler(n=1000, s=1.0, seed=1):
    return ZipfSampler(n, s, np.random.default_rng(seed))


def test_samples_in_range():
    sampler = _sampler()
    ids = sampler.sample(10_000)
    assert ids.min() >= 0
    assert ids.max() < sampler.n
    assert ids.dtype == np.int64


def _probabilities(sampler):
    """Per-id probabilities, from the CDF the sampler draws with."""
    return np.diff(sampler._cdf, prepend=0.0)


def test_probabilities_sum_to_one_and_descend():
    sampler = _sampler(s=1.2)
    p = _probabilities(sampler)
    assert p.sum() == pytest.approx(1.0)
    assert (np.diff(p) <= 0).all()


def test_zero_skew_is_uniform():
    sampler = _sampler(n=10, s=0.0)
    assert np.allclose(_probabilities(sampler), 0.1)


def test_skew_concentrates_mass():
    mild = _sampler(s=0.5)
    strong = _sampler(s=1.5)
    # The CDF at rank k is the mass of the k hottest ids.
    assert strong._cdf[9] > mild._cdf[9]


def test_empirical_frequency_matches_skew():
    sampler = _sampler(n=100, s=1.0, seed=3)
    ids = sampler.sample(200_000)
    counts = np.bincount(ids, minlength=100)
    # Hottest id should be roughly n-th root more frequent; check rank-1
    # vs rank-10 ratio approximates 10 (Zipf s=1) within a wide margin.
    ratio = counts[0] / max(counts[9], 1)
    assert 5 < ratio < 20


def test_determinism_with_same_seed():
    a = _sampler(seed=42).sample(100)
    b = _sampler(seed=42).sample(100)
    assert (a == b).all()


def test_invalid_parameters():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ZipfSampler(0, 1.0, rng)
    with pytest.raises(ValueError):
        ZipfSampler(10, -0.1, rng)
    with pytest.raises(ValueError):
        _sampler().sample(-1)


def test_draws_above_cdf_top_stay_in_range():
    """Regression: float cumsum can leave cdf[-1] < 1.0; a uniform draw
    landing in the gap used to searchsorted to n — one past the last id."""
    sampler = _sampler(n=1000, s=0.99)
    # Simulate the cumsum undershoot explicitly, then draw above it.
    sampler._cdf = sampler._cdf.copy()
    sampler._cdf[-1] = 1.0 - 1e-9

    class _HighRng:
        def random(self, size):
            return np.full(size, np.nextafter(1.0, 0.0))

    sampler._rng = _HighRng()
    ids = sampler.sample(64)
    assert (ids >= 0).all()
    assert (ids < sampler.n).all()
    assert (ids == sampler.n - 1).all()


def test_cdf_top_is_pinned_to_one():
    """The constructor must not leave a probability gap above cdf[-1]."""
    for n, s in ((10, 0.0), (1000, 0.99), (100_000, 1.2)):
        sampler = _sampler(n=n, s=s)
        assert sampler._cdf[-1] == 1.0
