"""Station observations, model variants, and design-matrix assembly.

Stations sit at point coordinates inside the grid; each observation is one
(site, day, pollutant) log-scale value.  The eight model variants share one
design-matrix layout: K one-hot intercept columns followed by covariate
columns grouped by observed pollutant k, so the matrix is block-diagonal by
pollutant and joint least squares decouples into per-pollutant fits.

:func:`design_rows` is the one place design rows are built: the fitting
rows of :func:`assemble_design` and the prediction rows of
:func:`specdown.evaluate.predict` both gather a column's gridded field (LD)
or spectral covariate (SD) at the rows' cells through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import GridSpec
from .lmc import StackedLayout

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
    "design_rows",
    "standardize",
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
        return np.flatnonzero(np.isin(self.row_day, [int(d) for d in days]))

    def layout(self, rows=slice(None)) -> StackedLayout:
        """Stacked-residual layout of the given rows, all rows by default."""
        return StackedLayout(
            day=self.row_day[rows],
            pollutant=self.row_pollutant[rows],
            coords=np.column_stack([self.row_x[rows], self.row_y[rows]]),
        )

    def scale_rows(self, X: np.ndarray, pollutant: np.ndarray) -> None:
        """Apply the recorded (x - col_mean) / col_sd in place to each
        covariate column of rows ``X``, over the rows of the column's
        pollutant; the identity on an unstandardized design."""
        for idx, col in enumerate(self.columns):
            if col.kind == "covariate":
                active = pollutant == col.k
                X[active, idx] = (X[active, idx] - self.col_mean[idx]) / self.col_sd[idx]


def assemble_design(
    variant: ModelVariant,
    fields: dict,
    covs: dict,
    observations: list[Observation],
    stations: dict,
) -> DesignMatrix:
    """Build the regression design for ``variant``.

    ``fields`` maps (pollutant j, day) to its GridField, and J is one more
    than the largest j there; ``covs`` maps (j, day) to the field's
    (B, ncells) spectral covariate array, and B is read from its shape.  ``stations`` maps site_id to Station.  The
    assembly is deterministic: rows follow the order of ``observations``;
    columns are intercepts for k = 0..K-1 followed by each k's covariate
    block ordered by (j, b).

    Raises a configuration ``ValueError`` when a needed field or covariate
    array is missing.
    """
    if not observations:
        raise ValueError("no observations to assemble")
    if not fields:
        raise ValueError("design assembly requires gridded fields")
    K = max(o.pollutant_id for o in observations) + 1
    J = max(j for j, _ in fields) + 1
    if variant.mean_kind == "SD":
        if not covs:
            raise ValueError("SD variant requires spectral covariates")
        B = next(iter(covs.values())).shape[0]
    spec = next(iter(fields.values())).spec

    # column layout: K intercepts, then per-k blocks
    columns = [ColumnMeta("intercept", k) for k in range(K)]
    for k in range(K):
        for j in range(J) if variant.cross else (k,):
            if variant.mean_kind == "LD":
                columns.append(ColumnMeta("covariate", k, j))
            else:
                columns.extend(ColumnMeta("covariate", k, j, b) for b in range(B))

    sites = [stations[o.site_id] for o in observations]
    row_site = tuple(o.site_id for o in observations)
    row_x = np.array([st.x for st in sites], dtype=float)
    row_y = np.array([st.y for st in sites], dtype=float)
    row_day = np.array([o.day for o in observations], dtype=int)
    row_pol = np.array([o.pollutant_id for o in observations], dtype=int)
    cells = cell_indices(row_x, row_y, spec, row_site)
    p = len(columns)
    return DesignMatrix(
        X=design_rows(columns, variant.mean_kind, fields, covs, cells, row_pol, row_day),
        columns=tuple(columns),
        row_day=row_day,
        row_pollutant=row_pol,
        row_site=row_site,
        row_x=row_x,
        row_y=row_y,
        col_mean=np.zeros(p),
        col_sd=np.ones(p),
        standardized=False,
        zero_variance=(),
    )


def design_rows(columns, mean_kind: str, fields, covs, cells, pollutant, day) -> np.ndarray:
    """Raw design rows of observations in grid ``cells`` of pollutants
    ``pollutant`` on days ``day``; shape (T, len(columns)).

    An intercept column is 1 on the rows of its pollutant.  A covariate
    column (k, j[, b]) holds, on the rows of pollutant k, the value at the
    row's cell of field ``fields[(j, day)]`` (LD) or of row b of the
    covariate array ``covs[(j, day)]`` (SD), gathered one column and day at
    a time; it is 0 on the other rows.  A missing field or covariate array
    raises ``ValueError``.
    """
    rows = np.zeros((cells.size, len(columns)))
    by_day = [(int(d), day == d) for d in np.unique(day)]
    for idx, col in enumerate(columns):
        active = pollutant == col.k
        if col.kind == "intercept":
            rows[active, idx] = 1.0
            continue
        for d, on_day in by_day:
            sel = active & on_day
            if not sel.any():
                continue
            if mean_kind == "LD":
                source = fields.get((col.j, d))
                if source is None:
                    raise ValueError(f"missing field for pollutant {col.j} day {d}")
                values = source.values
            else:
                source = covs.get((col.j, d))
                if source is None:
                    raise ValueError(f"missing covariates for pollutant {col.j} day {d}")
                values = source[col.b]
            rows[sel, idx] = values[cells[sel]]
    return rows


def standardize(design: DesignMatrix) -> DesignMatrix:
    """Scale covariate columns to mean 0, sd 1 over their active rows.

    A covariate column's active rows are those of its pollutant k.
    Intercept columns are untouched.  Zero-variance columns are flagged and
    left unscaled with (mean, sd) recorded as (0, 1).  Sample sd uses the
    n-1 denominator.
    """
    if design.standardized:
        raise ValueError("design is already standardized")
    mean = np.zeros(design.p)
    sd = np.ones(design.p)
    flagged = []
    for idx, col in enumerate(design.columns):
        if col.kind != "covariate":
            continue
        vals = design.X[design.row_pollutant == col.k, idx]
        if vals.size < 2:
            raise ValueError(f"column {col.label} has fewer than 2 active rows")
        s = vals.std(ddof=1)
        if s == 0.0:
            flagged.append(col.label)
            continue
        mean[idx] = vals.mean()
        sd[idx] = s
    scaled = replace(
        design,
        X=design.X.copy(),
        col_mean=mean,
        col_sd=sd,
        standardized=True,
        zero_variance=tuple(flagged),
    )
    scaled.scale_rows(scaled.X, scaled.row_pollutant)
    return scaled


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
