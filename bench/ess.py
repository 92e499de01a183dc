"""Effective sample size of a scalar Markov chain.

Geyer's (1992) initial monotone sequence estimator: the autocorrelations
are summed in adjacent pairs, the pair sums are truncated at the first
nonpositive one and forced to be nonincreasing, and the integrated
autocorrelation time is tau = -1 + 2 * sum(pairs).  ESS = n / tau.
"""

from __future__ import annotations

import numpy as np


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Sample autocorrelation at lags 0..n-1 (biased, 1/n normalization)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    centered = x - x.mean()
    spectrum = np.fft.rfft(centered, 2 * n)
    acov = np.fft.irfft(spectrum * np.conj(spectrum))[:n] / n
    if acov[0] <= 0.0:
        return np.zeros(n)
    return acov / acov[0]


def ess(x) -> float:
    """Effective sample size of one chain; a constant chain has ESS 0."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        raise ValueError(f"need at least 4 draws, got {n}")
    rho = autocorrelation(x)
    if rho[0] == 0.0:
        return 0.0
    m = n // 2
    pairs = rho[0 : 2 * m : 2] + rho[1 : 2 * m : 2]
    nonpositive = np.flatnonzero(pairs <= 0.0)
    if nonpositive.size:
        pairs = pairs[: nonpositive[0]]
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * pairs.sum()
    return float(n / max(tau, 1.0 / n))


def group_ess(posteriors, columns) -> float:
    """ESS of a parameter group across batches.

    Each column's ESS is summed over the batch posteriors (their chains are
    independent); the group's value is the median over its columns.
    """
    per_column = [sum(ess(post.draws[:, c]) for post in posteriors) for c in columns]
    return float(np.median(per_column))
