"""Regular-grid fields, the Fourier frequency lattice, and the 2D DFT pair.

Conventions fixed here and relied on everywhere else:

* Fields are stored as flat row-major arrays with x fastest, i.e. the value
  at cell (ix, iy) sits at index ``iy * nx + ix``.
* Frequencies use integer cell coordinates: the lattice frequency for index
  (lx, ly) is ``(2*pi*lx/nx, 2*pi*ly/ny)`` mapped into the principal domain
  [-pi, pi) per axis (the numpy ``fftfreq`` ordering).
* The forward transform carries the 1/M normalization so the zero-frequency
  coefficient equals the field mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "GridField",
    "SpectrumField",
    "SpectrumSymmetryError",
    "frequency_lattice",
    "dft_forward",
    "dft_inverse",
]


#: Largest imaginary residue, relative to the result norm, that
#: :func:`dft_inverse` discards; more means the spectrum was not
#: conjugate-symmetric.
SYMMETRY_REL_TOL = 1e-6


class SpectrumSymmetryError(ValueError):
    """Spectrum is too far from conjugate-symmetric to invert to a real field."""


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a regular grid with square cells of spacing ``dx`` km."""

    nx: int
    ny: int
    dx: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.nx}x{self.ny}")
        if not self.dx > 0:
            raise ValueError(f"cell spacing must be positive, got {self.dx}")

    @property
    def ncells(self) -> int:
        return self.nx * self.ny

    @property
    def extent_km(self) -> tuple[float, float]:
        """Physical size (x, y) of the grid bounding box in km."""
        return (self.nx * self.dx, self.ny * self.dx)

    @property
    def diameter_km(self) -> float:
        """Diagonal of the bounding box, the maximum distance in the domain."""
        return float(np.hypot(self.nx * self.dx, self.ny * self.dx))


def _as_readonly(values, n: int) -> np.ndarray:
    v = np.asarray(values, dtype=float).reshape(-1).copy()
    if v.size != n:
        raise ValueError(f"expected {n} values, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError("field values must be finite")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class GridField:
    """A real-valued field on a grid, tagged with pollutant and day indices."""

    spec: GridSpec
    values: np.ndarray
    pollutant_id: int = 0
    day: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly(self.values, self.spec.ncells))

    def grid2d(self) -> np.ndarray:
        """View of the values as a (ny, nx) array."""
        return self.values.reshape(self.spec.ny, self.spec.nx)

    @classmethod
    def from_2d(cls, spec: GridSpec, arr, pollutant_id: int = 0, day: int = 0) -> "GridField":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (spec.ny, spec.nx):
            raise ValueError(f"expected shape {(spec.ny, spec.nx)}, got {arr.shape}")
        return cls(spec, arr.ravel(), pollutant_id, day)

    def mean(self) -> float:
        return float(self.values.mean())


@dataclass(frozen=True)
class FrequencyLattice:
    """The M = nx*ny Fourier frequencies of a grid, in DFT coefficient order.

    ``freqs[l]`` is (omega_x, omega_y) in radians per cell in [-pi, pi)^2 and
    ``magnitudes[l]`` its Euclidean norm, which lies in [0, sqrt(2)*pi].
    """

    spec: GridSpec
    freqs: np.ndarray
    magnitudes: np.ndarray


def frequency_lattice(spec: GridSpec) -> FrequencyLattice:
    """Build the frequency lattice aligned with ``dft_forward`` output order."""
    wx = 2.0 * np.pi * np.fft.fftfreq(spec.nx)
    wy = 2.0 * np.pi * np.fft.fftfreq(spec.ny)
    gx, gy = np.meshgrid(wx, wy)
    freqs = np.column_stack([gx.ravel(), gy.ravel()])
    freqs.setflags(write=False)
    mags = np.hypot(freqs[:, 0], freqs[:, 1])
    mags.setflags(write=False)
    return FrequencyLattice(spec=spec, freqs=freqs, magnitudes=mags)


@dataclass(frozen=True)
class SpectrumField:
    """Complex DFT coefficients aligned with a grid's frequency lattice:
    one spectrum of M coefficients, or a stack of shape (B, M)."""

    spec: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim == 0 or c.ndim > 2 or c.shape[-1] != self.spec.ncells:
            raise ValueError(
                f"expected {self.spec.ncells} coefficients or a stack of them, got shape {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def grid2d(self) -> np.ndarray:
        """View of the coefficients as (ny, nx), or (B, ny, nx) for a stack."""
        return self.coeffs.reshape(self.coeffs.shape[:-1] + (self.spec.ny, self.spec.nx))

    def symmetry_residual(self) -> float:
        """Relative departure from conjugate symmetry Z(-w) = conj(Z(w))."""
        c = self.grid2d()
        mirrored = np.roll(np.conj(c[..., ::-1, ::-1]), (1, 1), axis=(-2, -1))
        scale = np.linalg.norm(c)
        if scale == 0.0:
            return 0.0
        return float(np.linalg.norm(c - mirrored) / scale)


def dft_forward(field: GridField) -> SpectrumField:
    """Forward 2D DFT with 1/M normalization.

    coeffs[l] = (1/M) * sum_s field(s) * exp(-i w_l . s) with s in integer
    cell coordinates, so coeffs at frequency zero is the field mean.
    """
    if not np.all(np.isfinite(field.values)):
        raise ValueError("field values must be finite")
    coeffs = np.fft.fft2(field.grid2d()) / field.spec.ncells
    return SpectrumField(spec=field.spec, coeffs=coeffs.ravel())


def dft_inverse(spectrum: SpectrumField, pollutant_id: int = 0, day: int = 0):
    """Inverse transform: field(s) = sum_l coeffs[l] * exp(i w_l . s).

    One spectrum gives a GridField tagged ``pollutant_id`` and ``day``.  A
    stack of shape (B, M) is inverted by one batched FFT and gives the
    read-only (B, M) array of its members' fields; row b equals, bit for
    bit, the inverse of member b alone.

    The imaginary residue is discarded; if any member's exceeds
    ``SYMMETRY_REL_TOL`` relative to that member's result norm, that member
    was not conjugate-symmetric and a ``SpectrumSymmetryError`` is raised
    instead.
    """
    spec = spectrum.spec
    z = np.fft.ifft2(spectrum.grid2d()).reshape(spectrum.coeffs.shape)
    z *= spec.ncells
    # squared norms by einsum: np.linalg.norm on complex data takes a
    # strided BLAS dot that is slow under multithreaded OpenBLAS
    imag2 = np.einsum("...i,...i->...", z.imag, z.imag)
    norm2 = imag2 + np.einsum("...i,...i->...", z.real, z.real)
    residue = np.sqrt(np.divide(imag2, norm2, out=np.zeros_like(norm2), where=norm2 > 0.0))
    bad = np.flatnonzero(residue > SYMMETRY_REL_TOL)
    if bad.size:
        member = f"member {bad[0]}: " if residue.ndim else ""
        raise SpectrumSymmetryError(
            f"{member}imaginary residue {residue.flat[bad[0]]:.3e} exceeds "
            f"{SYMMETRY_REL_TOL:.1e}; spectrum is not conjugate-symmetric"
        )
    if z.ndim == 1:
        return GridField(spec=spec, values=z.real, pollutant_id=pollutant_id, day=day)
    values = z.real.copy()
    values.setflags(write=False)
    return values
