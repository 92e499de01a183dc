"""Band-pass filtering of gridded fields and B-spline spectral covariates.

The workhorse recipe is: forward-transform a field, weight each Fourier
coefficient by a function of its frequency magnitude, transform back.  With
indicator weights this is band filtering; with a B-spline basis evaluated at
the magnitude it yields the spectral covariates used as regression features.

Weighting happens on the principal frequency domain, so energy aliased onto
low lattice frequencies stays there; no anti-alias correction is applied.
:func:`spectral_covariates` makes one forward transform per field and one
batched inverse over all B weighted copies of its spectrum, and returns
the field's covariates as one (B, ncells) array; every covariate dict of
the package maps (pollutant j, day) to such an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BSpline

from .grid import GridField, GridSpec, SpectrumField, dft_forward, dft_inverse, frequency_lattice

__all__ = [
    "MAX_MAGNITUDE",
    "BIN_RANGE_HI",
    "FrequencyBand",
    "SpectralBasis",
    "band_filter",
    "make_basis",
    "spectral_covariates",
    "build_covariates",
    "period_of",
]

#: Largest possible frequency magnitude on any grid: ||(-pi, -pi)||.
MAX_MAGNITUDE = math.sqrt(2.0) * math.pi

#: Upper limit of a band's edges: the exploratory regression's 8 equal bins
#: of width pi/5 cover [0, 8*pi/5), which contains [0, MAX_MAGNITUDE].
BIN_RANGE_HI = 8.0 * math.pi / 5.0


@dataclass(frozen=True)
class FrequencyBand:
    """Half-open magnitude interval [lo, hi) in radians per cell."""

    lo: float
    hi: float

    def __post_init__(self):
        if not 0.0 <= self.lo < self.hi:
            raise ValueError(f"need 0 <= lo < hi, got [{self.lo}, {self.hi})")
        if self.hi > BIN_RANGE_HI * (1.0 + 1e-12):
            raise ValueError(f"band upper edge {self.hi} exceeds {BIN_RANGE_HI}")

    def contains(self, magnitudes) -> np.ndarray:
        m = np.asarray(magnitudes)
        return (self.lo <= m) & (m < self.hi)


def band_filter(field: GridField, band: FrequencyBand) -> GridField:
    """Keep only the signal whose frequency magnitude lies in ``band``.

    A band containing no lattice frequency yields the zero field.
    """
    spectrum = dft_forward(field)
    lattice = frequency_lattice(field.spec)
    kept = np.where(band.contains(lattice.magnitudes), spectrum.coeffs, 0.0 + 0.0j)
    return dft_inverse(
        SpectrumField(spec=field.spec, coeffs=kept),
        pollutant_id=field.pollutant_id,
        day=field.day,
    )


@dataclass(frozen=True)
class SpectralBasis:
    """Clamped uniform B-spline basis on the magnitude axis [0, sqrt(2)*pi].

    The ``count`` basis functions are nonnegative, have local support, and sum
    to one everywhere on the interval (partition of unity).
    """

    count: int
    degree: int
    knots: np.ndarray
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def weights(self, spec: GridSpec) -> np.ndarray:
        """Read-only (count, M) table: row b is basis function b at the
        magnitude of each frequency of ``spec``'s lattice, in DFT
        coefficient order.  Computed on the first call per spec and kept on
        this basis, so every field of a run shares one table.
        """
        table = self._tables.get(spec)
        if table is None:
            table = np.ascontiguousarray(self.evaluate(frequency_lattice(spec).magnitudes).T)
            table.setflags(write=False)
            self._tables[spec] = table
        return table

    def evaluate(self, magnitudes) -> np.ndarray:
        """Evaluate all basis functions; returns shape (len(magnitudes), count).

        Magnitudes are clipped into the basis interval, which only matters for
        binning ranges that extend slightly past the lattice maximum.
        """
        m = np.clip(np.atleast_1d(np.asarray(magnitudes, dtype=float)), 0.0, MAX_MAGNITUDE)
        dm = BSpline.design_matrix(m, self.knots, self.degree, extrapolate=False)
        return dm.toarray()


def make_basis(count: int, degree: int = 3) -> SpectralBasis:
    """Build a clamped uniform knot B-spline basis of ``count`` functions."""
    if count < degree + 1:
        raise ValueError(f"need count >= degree + 1, got count={count} degree={degree}")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n_internal = count - degree - 1
    internal = np.linspace(0.0, MAX_MAGNITUDE, n_internal + 2)[1:-1]
    knots = np.concatenate(
        [np.zeros(degree + 1), internal, np.full(degree + 1, MAX_MAGNITUDE)]
    )
    knots.setflags(write=False)
    return SpectralBasis(count=count, degree=degree, knots=knots)


def spectral_covariates(
    field: GridField, basis: SpectralBasis, center: bool = False
) -> np.ndarray:
    """The field's spectral covariates as one read-only (B, ncells) array.

    Transform once, multiply coefficient l by basis function b evaluated at
    ||w_l|| for every b, and transform the (B, M) stack back in one batched
    inverse; row b is covariate b.  By partition of unity the rows sum back
    to the input field.  With ``center=True`` the grid mean is removed first,
    so covariates describe the anomaly field only; the removed mean is then
    absorbed by a regression intercept downstream.  Centering defaults off
    because the daily grid mean itself carries predictive signal.
    """
    work = field
    if center:
        work = GridField(
            field.spec, field.values - field.mean(), field.pollutant_id, field.day
        )
    weighted = dft_forward(work).coeffs * basis.weights(field.spec)
    weighted.setflags(write=False)  # handed to the spectrum without a copy
    return dft_inverse(SpectrumField(field.spec, weighted))


def build_covariates(fields: dict, basis: SpectralBasis, center: bool = False) -> dict:
    """Spectral covariates of every field: maps each (j, day) key of
    ``fields`` to the field's (B, ncells) array."""
    return {key: spectral_covariates(f, basis, center=center) for key, f in fields.items()}


def period_of(magnitude: float, dx: float) -> float:
    """Convert a frequency magnitude to a spatial period in km: dx * 2*pi / m.

    Magnitude zero maps to the infinite-period sentinel ``math.inf``.
    """
    if magnitude < 0:
        raise ValueError(f"magnitude must be nonnegative, got {magnitude}")
    if magnitude == 0:
        return math.inf
    return dx * 2.0 * math.pi / magnitude
