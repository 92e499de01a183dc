"""Station observations, model variants, and design-matrix assembly.

Stations sit at point coordinates inside the grid; each observation is one
(site, day, pollutant) log-scale value.  The eight model variants share one
design-matrix layout: K one-hot intercept columns followed by covariate
columns grouped by observed pollutant k, so the matrix is block-diagonal by
pollutant and joint least squares decouples into per-pollutant fits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .filters import CovariateStack
from .grid import GridSpec

__all__ = [
    "Station",
    "Observation",
    "ModelVariant",
    "ALL_VARIANTS",
    "variant_from_name",
    "ColumnMeta",
    "DesignMatrix",
    "OutOfGridError",
    "cell_lookup",
    "cell_indices",
    "assemble_design",
    "standardize",
    "destandardize",
    "coef_to_raw",
]


class OutOfGridError(ValueError):
    """Station coordinates fall outside the grid bounding box."""


@dataclass(frozen=True)
class Station:
    site_id: str
    x: float
    y: float
    measures: frozenset

    def __post_init__(self):
        if not self.measures:
            raise ValueError(f"station {self.site_id} measures no pollutant")
        object.__setattr__(self, "measures", frozenset(int(k) for k in self.measures))


@dataclass(frozen=True)
class Observation:
    site_id: str
    day: int
    pollutant_id: int
    value: float  # log micrograms per cubic metre

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"non-finite observation at {self.site_id} day {self.day}")


@dataclass(frozen=True)
class ModelVariant:
    """One of the eight mean/dependence combinations.

    ``mean_kind`` LD uses the raw gridded fields as covariates, SD the
    spectral covariates; ``cross`` adds the other pollutants' covariates;
    ``spatial`` switches the error model from independent to the
    coregionalized spatial process.
    """

    mean_kind: str
    cross: bool
    spatial: bool

    def __post_init__(self):
        if self.mean_kind not in ("LD", "SD"):
            raise ValueError(f"mean_kind must be 'LD' or 'SD', got {self.mean_kind!r}")

    @property
    def name(self) -> str:
        label = self.mean_kind + (" + Cross" if self.cross else "")
        return ("Spatial " if self.spatial else "") + label


ALL_VARIANTS = tuple(
    ModelVariant(mean_kind=mk, cross=cr, spatial=sp)
    for sp in (False, True)
    for mk in ("LD", "SD")
    for cr in (False, True)
)


def variant_from_name(name: str) -> ModelVariant:
    """Parse a variant name, tolerating case and spacing around '+'."""
    key = "".join(name.lower().split()).replace("+", "")
    for v in ALL_VARIANTS:
        if "".join(v.name.lower().split()).replace("+", "") == key:
            return v
    raise ValueError(f"unknown model variant {name!r}; one of {[v.name for v in ALL_VARIANTS]}")


def cell_lookup(station: Station, spec: GridSpec) -> int:
    """Row-major index of the grid cell containing the station."""
    return int(cell_indices([station.x], [station.y], spec, [station.site_id])[0])


def cell_indices(x, y, spec: GridSpec, labels=None) -> np.ndarray:
    """Row-major cell index of each point (x[i], y[i]) in km.

    Cells are half-open boxes [i*dx, (i+1)*dx), so a point exactly on an
    interior edge belongs to the higher-index cell.  The first point outside
    the grid raises :class:`OutOfGridError`, named by ``labels[i]`` when given.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ix = np.floor(x / spec.dx)
    iy = np.floor(y / spec.dx)
    inside = (ix >= 0) & (ix < spec.nx) & (iy >= 0) & (iy < spec.ny)
    if not inside.all():
        i = int(np.flatnonzero(~inside)[0])
        name = labels[i] if labels is not None else f"#{i}"
        raise OutOfGridError(
            f"station {name} at ({x[i]}, {y[i]}) km is outside "
            f"the {spec.nx}x{spec.ny} grid ({spec.extent_km[0]} x {spec.extent_km[1]} km)"
        )
    return (iy * spec.nx + ix).astype(int)


@dataclass(frozen=True)
class ColumnMeta:
    """Identity of one design column.

    kind 'intercept' columns carry (k,); 'covariate' columns carry (k, j) for
    LD variants and (k, j, b) for SD variants.
    """

    kind: str
    k: int
    j: int | None = None
    b: int | None = None

    @property
    def label(self) -> str:
        if self.kind == "intercept":
            return f"beta0[{self.k}]"
        if self.b is None:
            return f"beta[k={self.k},j={self.j}]"
        return f"beta[k={self.k},j={self.j},b={self.b}]"


@dataclass(frozen=True)
class DesignMatrix:
    """Observation-by-column regression design with a standardization record.

    ``col_mean``/``col_sd`` hold the transform applied to each column (0/1
    for untouched columns); covariate columns are standardized over their
    active rows only (rows whose observation pollutant matches the column's
    k), which preserves the block-diagonal zero pattern.
    """

    X: np.ndarray
    columns: tuple
    row_day: np.ndarray
    row_pollutant: np.ndarray
    row_site: tuple
    row_x: np.ndarray
    row_y: np.ndarray
    col_mean: np.ndarray
    col_sd: np.ndarray
    standardized: bool
    zero_variance: tuple

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def n_pollutants(self) -> int:
        return sum(1 for c in self.columns if c.kind == "intercept")

    def column_labels(self) -> list[str]:
        return [c.label for c in self.columns]

    def rows_for_days(self, days) -> np.ndarray:
        wanted = set(int(d) for d in days)
        return np.array([i for i, d in enumerate(self.row_day) if int(d) in wanted], dtype=int)


def assemble_design(
    variant: ModelVariant,
    fields: dict,
    covs: list[CovariateStack] | dict,
    observations: list[Observation],
    stations: dict,
) -> DesignMatrix:
    """Build the regression design for ``variant``.

    ``fields`` maps (pollutant j, day) to its GridField; ``covs`` is the
    spectral covariate collection, either a list of CovariateStack (whose
    fields carry day tags) or a dict keyed by (j, b, day).  ``stations`` maps
    site_id to Station.  The assembly is deterministic: rows follow the order
    of ``observations``; columns are intercepts for k = 0..K-1 followed by
    each k's covariate block ordered by (j, b).

    Raises a configuration ``ValueError`` when a needed field or covariate
    stack is missing.
    """
    if not observations:
        raise ValueError("no observations to assemble")
    K = max(o.pollutant_id for o in observations) + 1

    cov_lookup = {}
    if variant.mean_kind == "SD":
        if isinstance(covs, dict):
            cov_lookup = dict(covs)
        else:
            for st in covs:
                cov_lookup[(st.pollutant_id, st.basis_index, st.field.day)] = st
        if not cov_lookup:
            raise ValueError("SD variant requires spectral covariates")
        J = max(key[0] for key in cov_lookup) + 1
        B = max(key[1] for key in cov_lookup) + 1
    else:
        if not fields:
            raise ValueError("LD variant requires gridded fields")
        J = max(key[0] for key in fields) + 1
        B = None

    spec = None
    for f in fields.values() if fields else ():
        spec = f.spec
        break
    if spec is None:
        spec = next(iter(cov_lookup.values())).spec

    # column layout: K intercepts, then per-k blocks
    columns: list[ColumnMeta] = [ColumnMeta("intercept", k) for k in range(K)]
    block_start = {}
    for k in range(K):
        js = range(J) if variant.cross else (k,)
        block_start[k] = len(columns)
        for j in js:
            if variant.mean_kind == "LD":
                columns.append(ColumnMeta("covariate", k, j))
            else:
                for b in range(B):
                    columns.append(ColumnMeta("covariate", k, j, b))
    p = len(columns)

    n = len(observations)
    X = np.zeros((n, p))
    row_day = np.empty(n, dtype=int)
    row_pol = np.empty(n, dtype=int)
    row_x = np.empty(n)
    row_y = np.empty(n)
    row_site = []

    cell_cache = {}
    for i, obs in enumerate(observations):
        st = stations[obs.site_id]
        if obs.site_id not in cell_cache:
            cell_cache[obs.site_id] = cell_lookup(st, spec)
        cell = cell_cache[obs.site_id]
        k = obs.pollutant_id
        row_day[i] = obs.day
        row_pol[i] = k
        row_x[i] = st.x
        row_y[i] = st.y
        row_site.append(obs.site_id)
        X[i, k] = 1.0
        js = range(J) if variant.cross else (k,)
        col = block_start[k]
        for j in js:
            if variant.mean_kind == "LD":
                try:
                    field = fields[(j, obs.day)]
                except KeyError:
                    raise ValueError(f"missing field for pollutant {j} day {obs.day}")
                X[i, col] = field.values[cell]
                col += 1
            else:
                for b in range(B):
                    try:
                        stack = cov_lookup[(j, b, obs.day)]
                    except KeyError:
                        raise ValueError(
                            f"missing covariate stack (j={j}, b={b}, day={obs.day})"
                        )
                    X[i, col] = stack.field.values[cell]
                    col += 1

    return DesignMatrix(
        X=X,
        columns=tuple(columns),
        row_day=row_day,
        row_pollutant=row_pol,
        row_site=tuple(row_site),
        row_x=row_x,
        row_y=row_y,
        col_mean=np.zeros(p),
        col_sd=np.ones(p),
        standardized=False,
        zero_variance=(),
    )


def _active_rows(design: DesignMatrix, col: ColumnMeta) -> np.ndarray:
    return design.row_pollutant == col.k


def standardize(design: DesignMatrix) -> DesignMatrix:
    """Scale covariate columns to mean 0, sd 1 over their active rows.

    Intercept columns are untouched.  Zero-variance columns are flagged and
    left unscaled with (mean, sd) recorded as (0, 1) so de-standardization is
    exact.  Sample sd uses the n-1 denominator.
    """
    if design.standardized:
        raise ValueError("design is already standardized")
    X = design.X.copy()
    mean = np.zeros(design.p)
    sd = np.ones(design.p)
    flagged = []
    for idx, col in enumerate(design.columns):
        if col.kind != "covariate":
            continue
        rows = _active_rows(design, col)
        vals = X[rows, idx]
        if vals.size < 2:
            raise ValueError(f"column {col.label} has fewer than 2 active rows")
        m = vals.mean()
        s = vals.std(ddof=1)
        if s == 0.0:
            flagged.append(col.label)
            continue
        mean[idx] = m
        sd[idx] = s
        X[rows, idx] = (vals - m) / s
    return replace(
        design,
        X=X,
        col_mean=mean,
        col_sd=sd,
        standardized=True,
        zero_variance=tuple(flagged),
    )


def destandardize(design: DesignMatrix) -> DesignMatrix:
    """Invert :func:`standardize` exactly using the recorded statistics."""
    if not design.standardized:
        raise ValueError("design is not standardized")
    X = design.X.copy()
    for idx, col in enumerate(design.columns):
        if col.kind != "covariate":
            continue
        rows = _active_rows(design, col)
        X[rows, idx] = X[rows, idx] * design.col_sd[idx] + design.col_mean[idx]
    return replace(
        design,
        X=X,
        col_mean=np.zeros(design.p),
        col_sd=np.ones(design.p),
        standardized=False,
        zero_variance=(),
    )


def coef_to_raw(design: DesignMatrix, coef: np.ndarray) -> np.ndarray:
    """Map coefficients fit on the standardized design to the raw scale.

    Works on a single vector or a (draws, p) matrix.  Slopes divide by the
    recorded sd; each intercept absorbs the mean shift of its pollutant's
    covariate block.
    """
    coef = np.asarray(coef, dtype=float)
    single = coef.ndim == 1
    out = np.atleast_2d(coef).copy()
    if out.shape[1] != design.p:
        raise ValueError(f"expected {design.p} coefficients, got {out.shape[1]}")
    intercept_idx = {c.k: i for i, c in enumerate(design.columns) if c.kind == "intercept"}
    for idx, col in enumerate(design.columns):
        if col.kind != "covariate":
            continue
        raw_slope = out[:, idx] / design.col_sd[idx]
        out[:, intercept_idx[col.k]] -= raw_slope * design.col_mean[idx]
        out[:, idx] = raw_slope
    return out[0] if single else out
