"""Linear model of coregionalization for the multivariate spatial residual.

The K-variate residual process is w(s) = A v(s) with A lower triangular and
v_k independent mean-zero Gaussian processes sharing an exponential
correlation exp(-rate * distance).  Cross-covariance between pollutant i at s
and pollutant j at s' is then sum_m A_im A_jm exp(-rate * ||s - s'||); at
distance zero the K x K block is A A^T.

Observations are spatially misaligned and intermittent, so covariance
matrices are always built for an explicit stacked layout of (day, pollutant,
coordinate) triples; distinct days are independent blocks.

This module is the one home of the covariance and of its factorization.
:class:`LmcKernel` computes the distances and pollutant pairs of a set of
site pairs once and builds take(A A^T, pair) * exp(-rate * distance) on
them, for the sampler's day blocks, the simulator's draws and the kriging
stacks of prediction alike.  :func:`chol_pd` is the jitter rule: when plain
Cholesky fails, add JITTER_SCALE * trace / n to the diagonal and retry once,
and raise :class:`CovarianceNotPDError` if that fails too.

:class:`DayBlocks`, the home of the day blocks, factors C + D, the LMC block
plus the nugget diagonal, once per distinct day layout: for one theta in the
batch sampler, for the simulator's days (with D = 0) and for a stack of
posterior draws in interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Coregionalization",
    "SpatialDecay",
    "StackedLayout",
    "CovarianceNotPDError",
    "LmcKernel",
    "DayBlocks",
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

    @property
    def n(self) -> int:
        return self.day.shape[0]

    def day_groups(self) -> dict:
        """Indices per day, days in ascending order."""
        return {int(d): np.flatnonzero(self.day == d) for d in np.unique(self.day)}


class LmcKernel:
    """Geometry of a set of site pairs, computed once, and the LMC covariance on it.

    Rows are the sites ``coords`` (..., n, 2) of pollutants ``pollutant``
    (..., n); columns are ``coords_b``/``pollutant_b`` (..., m, 2)/(..., m),
    by default the rows themselves.  Leading batch axes broadcast, so one
    day's (n, n) block, (G, n, n) stacks of day blocks and targets x sites
    (T, n) all go through here.  ``dist`` holds the distances and ``pair``
    the flat pollutant-pair index ``pol_a * K + pol_b`` into a K x K cross
    block.
    """

    def __init__(self, coords, pollutant, n_pollutants: int, coords_b=None, pollutant_b=None):
        coords = np.asarray(coords, dtype=float)
        pollutant = np.asarray(pollutant)
        if coords_b is None:
            coords_b, pollutant_b = coords, pollutant
        diff = coords[..., :, None, :] - np.asarray(coords_b, dtype=float)[..., None, :, :]
        self.dist = np.sqrt((diff**2).sum(-1))
        self.pair = pollutant[..., :, None] * n_pollutants + np.asarray(pollutant_b)[..., None, :]

    def corr(self, rate) -> np.ndarray:
        """exp(-rate * distance); a rate of shape (I,) adds a leading draw axis."""
        rate = np.asarray(rate, dtype=float)
        out = np.asarray(-rate.reshape(rate.shape + (1,) * self.dist.ndim) * self.dist)
        return np.exp(out, out=out)

    def cov(self, cross, corr, out=None) -> np.ndarray:
        """take(cross, pair) * corr for a cross block ``cross`` (K, K), or
        (I, K, K) per draw; ``out=corr`` overwrites the correlations."""
        cross = np.asarray(cross)
        table = cross.reshape(cross.shape[:-2] + (-1,))
        return np.multiply(np.take(table, self.pair, axis=-1), corr, out=out)


def chol_pd(cov: np.ndarray):
    """Lower Cholesky factor of ``cov`` (n, n) or of each member of a stack
    (..., n, n), under the jitter rule: (L, jittered).

    When plain Cholesky fails, every member gets JITTER_SCALE * trace / n on
    its diagonal and the stack is factored again; if that fails too,
    :class:`CovarianceNotPDError` carries the smallest eigenvalue.
    """
    try:
        return np.linalg.cholesky(cov), False
    except np.linalg.LinAlgError:
        pass
    n = cov.shape[-1]
    trace = np.trace(cov, axis1=-2, axis2=-1)
    jittered = cov + (JITTER_SCALE * trace / n)[..., None, None] * np.eye(n)
    try:
        return np.linalg.cholesky(jittered), True
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(cov).min())
        raise CovarianceNotPDError(
            f"covariance not positive definite after jitter; smallest eigenvalue {smallest:.3e}"
        ) from None


class DayBlocks:
    """The day blocks of a stacked layout, by size, one block per day layout.

    Days are independent, so a covariance over the layout is block diagonal
    by day.  Days whose rows hold the same (coords, pollutant) sequence, the
    same layout, have the same block, so each distinct layout is built and
    factored once; the same sites in another row order are another layout.
    Per size group s, n ascending: ``rows[s]`` (G, n) holds the stacked
    indices of its G days, ascending; ``member[s]`` (G,) the layout of each,
    numbered in order of first appearance; ``kernels[s]`` the
    :class:`LmcKernel` of the U layouts, each on the rows of its first day,
    and ``pollutant[s]`` (U, n) their pollutants.  Stacks are (U, n, n), or
    (I, U, n, n) for a rate (I,), cross block (I, K, K) and nuggets (I, K).
    """

    def __init__(self, layout: StackedLayout, n_pollutants: int):
        by_size: dict = {}
        for _, idx in sorted(layout.day_groups().items()):
            by_size.setdefault(idx.size, []).append(idx)
        self.rows, self.member, self.kernels, self.pollutant = [], [], [], []
        for size in sorted(by_size):
            rows = np.array(by_size[size])
            slot: dict = {}
            keys = (layout.coords[r].tobytes() + layout.pollutant[r].tobytes() for r in rows)
            member = np.array([slot.setdefault(key, len(slot)) for key in keys])
            lead = rows[np.unique(member, return_index=True)[1]]  # (U, n)
            self.rows.append(rows)
            self.member.append(member)
            self.kernels.append(LmcKernel(layout.coords[lead], layout.pollutant[lead], n_pollutants))
            self.pollutant.append(layout.pollutant[lead])

    def corr(self, rate) -> list:
        """The correlation stacks exp(-rate * distance) per size group."""
        return [kernel.corr(rate) for kernel in self.kernels]

    def cov(self, cross, corrs, out=None) -> list:
        """The LMC stacks C per size group from the correlation stacks
        ``corrs``; ``out=corrs`` overwrites the correlations."""
        out = [None] * len(corrs) if out is None else out
        return [k.cov(cross, R, out=o) for k, R, o in zip(self.kernels, corrs, out)]

    def factor(self, covs, nugget2) -> list:
        """Lower factors of C + D per size group, D the nugget diagonal.

        ``nugget2`` (K,), or (I, K) per draw, is added in place on the
        diagonals of the stacks ``covs``, and each stack is factored by
        :func:`chol_pd`.  Its jitter rule acts on the whole stack: when one
        member fails to factor, every layout of that size, of every draw,
        is jittered.
        """
        nugget2 = np.asarray(nugget2)
        chols = []
        for C, pol in zip(covs, self.pollutant):
            np.einsum("...ii->...i", C)[...] += nugget2.take(pol, axis=-1)  # diagonal views
            chols.append(chol_pd(C)[0])
        return chols

    def gather(self, stacked: np.ndarray) -> list:
        """Rows of a stacked array per size group, each (G, n, ...)."""
        return [stacked[rows] for rows in self.rows]


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
        kernel = LmcKernel(layout.coords[idx], layout.pollutant[idx], coreg.k)
        lower, _ = chol_pd(kernel.cov(coreg.cross_cov(), kernel.corr(decay.rate)))
        out[idx] = lower @ rng.standard_normal(idx.size)
    return out
