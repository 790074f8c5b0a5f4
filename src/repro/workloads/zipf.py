"""Zipf-distributed sampling for skewed access traces.

Recommendation workloads hit embedding rows with heavy skew (a few hot
items dominate).  :class:`ZipfSampler` draws ids from a bounded Zipf
distribution with exponent ``s``; ``s = 0`` degenerates to uniform.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ZipfSampler"]


class ZipfSampler:
    """Draw integers in ``[0, n)`` with Zipf(s) probabilities.

    Parameters
    ----------
    n:
        Universe size.
    s:
        Skew exponent (0 = uniform; ~0.99 is a common web-trace fit).
    rng:
        Numpy random generator (required: determinism is explicit).
    """

    def __init__(self, n: int, s: float, rng: np.random.Generator) -> None:
        if n < 1:
            raise ValueError(f"universe size must be >= 1, got {n}")
        if s < 0:
            raise ValueError(f"skew exponent must be >= 0, got {s}")
        self.n = n
        self.s = s
        self._rng = rng
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** (-s)
        self._cdf = np.cumsum(weights / weights.sum())
        # Float cumsum can leave cdf[-1] slightly below 1.0; a uniform
        # draw landing in that gap would searchsorted to n — one past
        # the last valid id.  Pin the top of the distribution.
        self._cdf[-1] = 1.0

    def sample(self, size: int) -> np.ndarray:
        """Draw ``size`` ids (int64)."""
        if size < 0:
            raise ValueError("size must be >= 0")
        u = self._rng.random(size)
        idx = np.searchsorted(self._cdf, u)
        # Clamp as a second line of defence (e.g. an rng returning
        # exactly 1.0 would still land one past the end).
        return np.minimum(idx, self.n - 1).astype(np.int64)
