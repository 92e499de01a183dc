"""Linear model of coregionalization for the multivariate spatial residual.

The K-variate residual process is w(s) = A v(s) with A lower triangular and
v_k independent mean-zero Gaussian processes sharing an exponential
correlation exp(-rate * distance).  Cross-covariance between pollutant i at s
and pollutant j at s' is then sum_m A_im A_jm exp(-rate * ||s - s'||); at
distance zero the K x K block is A A^T.

Observations are spatially misaligned and intermittent, so covariance
matrices are always built for an explicit stacked layout of (day, pollutant,
coordinate) triples; distinct days are independent blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor
from scipy.spatial.distance import cdist

__all__ = [
    "Coregionalization",
    "SpatialDecay",
    "StackedLayout",
    "CovarianceNotPDError",
    "exp_corr",
    "lmc_covariance",
    "sample_w",
    "chol_pd",
    "JITTER_SCALE",
]

#: One-shot diagonal jitter added when a covariance fails to factor:
#: JITTER_SCALE * trace / n.  Near-duplicate station coordinates make this
#: necessary on real data.
JITTER_SCALE = 1e-8


class CovarianceNotPDError(np.linalg.LinAlgError):
    """Covariance is not positive definite even after the jitter retry."""


@dataclass(frozen=True)
class Coregionalization:
    """Lower-triangular mixing matrix of the K latent processes.

    A strictly positive diagonal fixes the sign/rotation ambiguity of the
    factorization C = lower @ lower.T.
    """

    lower: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.lower, dtype=float).copy()
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"mixing matrix must be square, got shape {a.shape}")
        if not np.allclose(a, np.tril(a)):
            raise ValueError("mixing matrix must be lower triangular")
        if np.any(np.diag(a) <= 0):
            raise ValueError("mixing matrix diagonal must be strictly positive")
        a.setflags(write=False)
        object.__setattr__(self, "lower", a)

    @property
    def k(self) -> int:
        return self.lower.shape[0]

    def cross_cov(self) -> np.ndarray:
        """Same-site cross-covariance block lower @ lower.T."""
        return self.lower @ self.lower.T


@dataclass(frozen=True)
class SpatialDecay:
    """Exponential-correlation decay rate in 1/km, shared by all K processes.

    The effective range (correlation 0.05) is 3 / rate; the prior keeps the
    rate inside (3 / (0.75 d), 3 / (0.1 d)) for domain diameter d, but the
    type itself only requires positivity.
    """

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"decay rate must be positive, got {self.rate}")


def exp_corr(distance, decay: SpatialDecay):
    """exp(-rate * distance); equals 1 at distance zero."""
    d = np.asarray(distance, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be nonnegative")
    out = np.exp(-decay.rate * d)
    return float(out) if np.isscalar(distance) else out


@dataclass(frozen=True)
class StackedLayout:
    """Alignment between a stacked residual vector and its observations.

    Position i of the stacked vector belongs to pollutant ``pollutant[i]``
    observed at ``coords[i]`` on ``day[i]``.  The order is whatever order the
    observations were supplied in, so the layout is a bijection onto them.
    """

    day: np.ndarray
    pollutant: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        day = np.asarray(self.day, dtype=int).copy()
        pol = np.asarray(self.pollutant, dtype=int).copy()
        xy = np.asarray(self.coords, dtype=float).copy()
        if not (day.shape[0] == pol.shape[0] == xy.shape[0]) or xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError("layout arrays must align: (n,), (n,), (n, 2)")
        if day.shape[0] == 0:
            raise ValueError("layout must be nonempty")
        for a in (day, pol, xy):
            a.setflags(write=False)
        object.__setattr__(self, "day", day)
        object.__setattr__(self, "pollutant", pol)
        object.__setattr__(self, "coords", xy)

    @classmethod
    def from_observations(cls, observations, stations) -> "StackedLayout":
        day = [o.day for o in observations]
        pol = [o.pollutant_id for o in observations]
        xy = [(stations[o.site_id].x, stations[o.site_id].y) for o in observations]
        return cls(day=np.array(day), pollutant=np.array(pol), coords=np.array(xy))

    @property
    def n(self) -> int:
        return self.day.shape[0]

    def day_groups(self) -> dict:
        """Indices per day, days in ascending order."""
        return {int(d): np.flatnonzero(self.day == d) for d in np.unique(self.day)}


def _day_block(layout: StackedLayout, idx: np.ndarray, coreg, decay) -> np.ndarray:
    cross = coreg.cross_cov()
    coords = layout.coords[idx]
    pol = layout.pollutant[idx]
    dist = cdist(coords, coords)
    return cross[np.ix_(pol, pol)] * np.exp(-decay.rate * dist)


def chol_pd(cov: np.ndarray):
    """Cholesky with the single jitter retry; raises with the smallest
    eigenvalue when the matrix is still not positive definite."""
    try:
        return cho_factor(cov, lower=True)
    except np.linalg.LinAlgError:
        pass
    n = cov.shape[0]
    jittered = cov + np.eye(n) * (JITTER_SCALE * np.trace(cov) / n)
    try:
        return cho_factor(jittered, lower=True)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(cov)[0])
        raise CovarianceNotPDError(
            f"covariance not positive definite after jitter; smallest eigenvalue {smallest:.3e}"
        )


def lmc_covariance(
    layout: StackedLayout,
    coreg: Coregionalization,
    decay: SpatialDecay,
    ensure_pd: bool = True,
) -> np.ndarray:
    """Dense covariance of the stacked residual vector.

    Entries pair (pollutant i at s, day d) with (pollutant j at s', d'):
    zero when d != d', otherwise sum_m A_im A_jm exp(-rate ||s - s'||).
    With ``ensure_pd`` the jitter rule is applied when plain Cholesky fails,
    and a ``CovarianceNotPDError`` carries the smallest eigenvalue if even
    that does not help.
    """
    cross = coreg.cross_cov()
    dist = cdist(layout.coords, layout.coords)
    same_day = layout.day[:, None] == layout.day[None, :]
    cov = cross[np.ix_(layout.pollutant, layout.pollutant)] * np.exp(-decay.rate * dist)
    cov = np.where(same_day, cov, 0.0)
    if ensure_pd:
        try:
            cho_factor(cov, lower=True)
        except np.linalg.LinAlgError:
            n = cov.shape[0]
            cov = cov + np.eye(n) * (JITTER_SCALE * np.trace(cov) / n)
            try:
                cho_factor(cov, lower=True)
            except np.linalg.LinAlgError:
                smallest = float(np.linalg.eigvalsh(cov)[0])
                raise CovarianceNotPDError(
                    "stacked covariance not positive definite after jitter; "
                    f"smallest eigenvalue {smallest:.3e}"
                )
    return cov


def sample_w(
    layout: StackedLayout,
    coreg: Coregionalization,
    decay: SpatialDecay,
    rng: np.random.Generator,
) -> np.ndarray:
    """Exact draw of the stacked residual via per-day Cholesky factors.

    Days are independent draws (the process is purely spatial).  The caller
    owns the generator, so identical seeds give identical draws.
    """
    out = np.empty(layout.n)
    for _, idx in sorted(layout.day_groups().items()):
        block = _day_block(layout, idx, coreg, decay)
        c, lower = chol_pd(block)
        factor = np.tril(c) if lower else c.T
        out[idx] = factor @ rng.standard_normal(idx.size)
    return out

