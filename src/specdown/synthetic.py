"""Desk-scale synthetic data drawn from the model's own generative story.

Gridded fields are Gaussian random fields simulated in the spectral domain
(white noise filtered by a Matern-like spectral density, so conjugate
symmetry is automatic); station observations follow the regression equation:
intercept plus basis-weighted spectral covariates, plus a coregionalized
spatial residual per day, plus nugget noise.  Everything is reproducible
from (config, seed).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .filters import build_covariates, make_basis
from .grid import GridField, GridSpec, frequency_lattice
from .inference import derive_rng
from .lmc import Coregionalization, SpatialDecay, StackedLayout, sample_w
from .stations import Observation, Station, cell_indices

__all__ = [
    "FieldSpectrum",
    "SimConfig",
    "simulate_fields",
    "simulate_stations",
    "simulate",
    "true_raw_coef",
]

CADENCE_GAP = {"daily": 1, "1-in-3": 3, "1-in-6": 6}


@dataclass(frozen=True)
class FieldSpectrum:
    """Spectral density controls for the simulated gridded fields.

    density(w) ~ (1/range_cells^2 + ||w||^2)^(-exponent); exponent 0 gives a
    white field.  ``variance`` is the marginal variance of each field value.
    """

    variance: float = 1.0
    range_cells: float = 4.0
    exponent: float = 1.5

    def __post_init__(self):
        if self.variance <= 0 or self.range_cells <= 0 or self.exponent < 0:
            raise ValueError("variance and range must be positive, exponent nonnegative")

    def density(self, magnitudes: np.ndarray) -> np.ndarray:
        if self.exponent == 0:
            return np.ones_like(magnitudes)
        alpha2 = (1.0 / self.range_cells) ** 2
        return (alpha2 + magnitudes**2) ** (-self.exponent)


def _freeze(arr, shape=None, dtype=float):
    a = np.asarray(arr, dtype=dtype).copy()
    if shape is not None and a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SimConfig:
    """Ground truth and sampling design of one synthetic dataset."""

    spec: GridSpec
    beta0: np.ndarray  # (K,)
    beta: np.ndarray  # (K, J, B)
    nugget2: np.ndarray  # (K,)
    coreg: np.ndarray | None = None  # (K, K) lower triangular, None = no residual field
    decay: float | None = None
    basis_degree: int = 3
    spectrum: FieldSpectrum = FieldSpectrum()
    field_cross_corr: float = 0.0
    n_stations: int = 60
    strata_mix: tuple = (0.7, 0.1, 0.2)
    cadence: str = "daily"
    days: int = 18
    seed: int = 0

    def __post_init__(self):
        beta = _freeze(self.beta)
        if beta.ndim != 3:
            raise ValueError("beta must have shape (K, J, B)")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "beta0", _freeze(self.beta0, (beta.shape[0],)))
        nugget2 = _freeze(self.nugget2, (beta.shape[0],))
        if np.any(nugget2 < 0):
            raise ValueError("nugget variances must be nonnegative")
        object.__setattr__(self, "nugget2", nugget2)
        if self.coreg is not None:
            object.__setattr__(self, "coreg", _freeze(self.coreg, (beta.shape[0],) * 2))
            if self.decay is None:
                raise ValueError("decay rate required when a residual field is configured")
        if self.cadence not in CADENCE_GAP:
            raise ValueError(f"cadence must be one of {sorted(CADENCE_GAP)}")
        if abs(sum(self.strata_mix) - 1.0) > 1e-9 or len(self.strata_mix) != 3:
            raise ValueError("strata_mix must be three fractions summing to 1")

    @property
    def n_observed(self) -> int:
        return self.beta.shape[0]

    @property
    def n_gridded(self) -> int:
        return self.beta.shape[1]

    @property
    def basis_size(self) -> int:
        return self.beta.shape[2]

    @property
    def day_list(self) -> tuple:
        return tuple(range(1, self.days + 1))


@dataclass(frozen=True)
class SyntheticTruth:
    """Realized dataset plus everything needed to check an estimator."""

    config: SimConfig
    fields: dict  # (j, day) -> GridField
    covariates: dict  # (j, day) -> read-only (B, ncells) spectral covariates
    stations: dict  # site_id -> Station
    observations: tuple
    true_mean: np.ndarray  # per observation, log scale
    true_w: np.ndarray  # per observation
    w_days: dict  # day -> (StackedLayout over all station/pollutant pairs, values)

    def observed_raw(self) -> dict:
        """(site, day, pollutant) -> observed value on the original scale."""
        return {
            (o.site_id, o.day, o.pollutant_id): float(np.exp(o.value))
            for o in self.observations
        }


def simulate_fields(config: SimConfig) -> dict:
    """Per-(field, day) Gaussian random fields with the configured spectrum.

    White noise is transformed, weighted by the square-root spectral density
    (normalized so the marginal variance hits the target), and transformed
    back; a nonzero ``field_cross_corr`` mixes the J noise panels first.
    """
    rng = derive_rng(config.seed, 1)
    spec = config.spec
    J = config.n_gridded
    lattice = frequency_lattice(spec)
    density = config.spectrum.density(lattice.magnitudes)
    gains = np.sqrt(
        config.spectrum.variance * spec.ncells * density / density.sum()
    ).reshape(spec.ny, spec.nx)

    mix = np.eye(J)
    if config.field_cross_corr != 0.0 and J > 1:
        r = config.field_cross_corr
        corr = np.full((J, J), r) + (1.0 - r) * np.eye(J)
        mix = np.linalg.cholesky(corr)

    fields = {}
    for day in config.day_list:
        noise = rng.standard_normal((J, spec.ny, spec.nx))
        mixed = np.einsum("jm,myx->jyx", mix, noise)
        for j in range(J):
            coeffs = np.fft.fft2(mixed[j]) * gains
            values = np.fft.ifft2(coeffs).real
            fields[(j, day)] = GridField(spec, values.ravel(), pollutant_id=j, day=day)
    return fields


def _station_layout(config: SimConfig, rng) -> dict:
    n = config.n_stations
    K = config.n_observed
    extent = config.spec.extent_km
    xs = rng.uniform(0.0, extent[0], size=n)
    ys = rng.uniform(0.0, extent[1], size=n)
    counts = [int(np.floor(m * n)) for m in config.strata_mix]
    counts[0] += n - sum(counts)
    species = frozenset(range(1, K)) if K > 1 else frozenset([0])
    if K == 1 and counts[1] > 0:
        warnings.warn("single pollutant: species-only stations measure it too", stacklevel=2)
    measure_sets = (
        [frozenset([0])] * counts[0]
        + [species] * counts[1]
        + [frozenset(range(K))] * counts[2]
    )
    stations = {}
    for i in range(n):
        sid = f"S{i:03d}"
        stations[sid] = Station(site_id=sid, x=float(xs[i]), y=float(ys[i]), measures=measure_sets[i])
    return stations


def simulate_stations(config: SimConfig, fields: dict):
    """Place stations, build the true mean, add residual field and noise.

    Returns (stations, observations, truth).  Observation order is canonical:
    ascending (day, pollutant, site).
    """
    rng = derive_rng(config.seed, 2)
    spec = config.spec
    K = config.n_observed
    covariates = build_covariates(fields, make_basis(config.basis_size, config.basis_degree))

    stations = _station_layout(config, rng)
    site_ids = sorted(stations)
    cell_index = cell_indices(
        [stations[s].x for s in site_ids], [stations[s].y for s in site_ids], spec, site_ids
    )
    gap = CADENCE_GAP[config.cadence]
    offsets = {sid: int(o) for sid, o in zip(site_ids, rng.integers(0, gap, size=len(site_ids)))}

    coreg = Coregionalization(config.coreg) if config.coreg is not None else None
    decay = SpatialDecay(config.decay) if config.decay is not None else None

    observations = []
    true_mean = []
    true_w = []
    w_days = {}
    for day in config.day_list:
        # residual field for every (station, pollutant), observed or not
        day_w = None
        if coreg is not None:
            layout = StackedLayout(
                day=np.full(len(site_ids) * K, day),
                pollutant=np.repeat(np.arange(K), len(site_ids)),
                coords=np.tile(
                    np.array([[stations[s].x, stations[s].y] for s in site_ids]), (K, 1)
                ),
            )
            day_w = sample_w(layout, coreg, decay, rng)
            w_days[day] = (layout, day_w)
        for k in range(K):
            pos = np.array(
                [
                    p
                    for p, sid in enumerate(site_ids)
                    if k in stations[sid].measures and (day - 1 - offsets[sid]) % gap == 0
                ],
                dtype=int,
            )
            block_cells = cell_index[pos]
            # summed over (j, b) in this order: another order changes the last bits
            mu = np.full(pos.size, config.beta0[k])
            for j in range(config.n_gridded):
                for b in range(config.basis_size):
                    mu += config.beta[k, j, b] * covariates[(j, day)][b, block_cells]
            w_val = day_w[k * len(site_ids) + pos] if day_w is not None else np.zeros(pos.size)
            eps = (
                rng.normal(0.0, np.sqrt(config.nugget2[k]), size=pos.size)
                if config.nugget2[k] > 0
                else 0.0
            )
            value = mu + w_val + eps
            observations.extend(
                Observation(site_id=site_ids[p], day=day, pollutant_id=k, value=float(v))
                for p, v in zip(pos.tolist(), value.tolist())
            )
            true_mean.extend(mu.tolist())
            true_w.extend(w_val.tolist())

    truth = SyntheticTruth(
        config=config,
        fields=fields,
        covariates=covariates,
        stations=stations,
        observations=tuple(observations),
        true_mean=np.array(true_mean),
        true_w=np.array(true_w),
        w_days=w_days,
    )
    return stations, truth.observations, truth


def simulate(config: SimConfig) -> SyntheticTruth:
    """Fields and stations in one call."""
    fields = simulate_fields(config)
    _, _, truth = simulate_stations(config, fields)
    return truth


def true_raw_coef(truth: SyntheticTruth, design) -> np.ndarray:
    """True coefficients arranged in a design's raw-scale column order.

    Only meaningful when the design's covariate columns are the spectral
    covariates the truth was generated from (matching j and b sets).
    """
    config = truth.config
    out = np.empty(design.p)
    for i, col in enumerate(design.columns):
        if col.kind == "intercept":
            out[i] = config.beta0[col.k]
        else:
            if col.b is None:
                raise ValueError("design is not a spectral-covariate design")
            out[i] = config.beta[col.k, col.j, col.b]
    return out
