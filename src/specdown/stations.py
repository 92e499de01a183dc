"""Sites and observations of stations, model variants, and design assembly.

Stations sit at point coordinates inside the grid.  A station set is one
record array (:func:`site_records`), in memory as in ``fit``'s
``sites.npy``; consumers read its columns (:func:`site_measures`,
:func:`station_coords`).  Observations are one record array
(:func:`observation_records`), a row per (site, day, pollutant) log-scale
value, read by column too; a row reads as ``o.site_id``, ``o.day``,
``o.pollutant_id``, ``o.value``.  Design assembly and prediction also take
a list of rows (:func:`as_records`), as a row-by-row filter gives.  The
eight model variants share one design-matrix layout: K one-hot intercept
columns followed by covariate columns grouped by observed pollutant k, so
the matrix is block-diagonal by pollutant and joint least squares
decouples into per-pollutant fits.

:func:`design_rows` is the one place design rows are built: the fitting
rows of :func:`assemble_design` and the prediction rows of
:func:`specdown.evaluate.predict` both gather a column's gridded field (LD)
or spectral covariate (SD) at the rows' cells through it, from a
:class:`CellTable`.  A table holds those values at station cells only: a
monitor's value relates to the grid at the monitor's cell, so no fit or
prediction reads any other cell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import GridSpec
from .lmc import StackedLayout

__all__ = [
    "site_records",
    "site_measures",
    "records",
    "as_records",
    "observation_records",
    "station_coords",
    "ModelVariant",
    "ALL_VARIANTS",
    "variant_from_name",
    "ColumnMeta",
    "DesignMatrix",
    "CellTable",
    "OutOfGridError",
    "cell_indices",
    "assemble_design",
    "table_design",
    "design_rows",
    "standardize",
    "coef_to_raw",
]


class OutOfGridError(ValueError):
    """Coordinates of a station fall outside the grid bounding box."""


def records(**columns) -> np.recarray:
    """One record array of the named ``columns``, in order; a scalar is
    broadcast to the others' length."""
    arrays = np.broadcast_arrays(*map(np.atleast_1d, columns.values()))
    return np.rec.fromarrays(arrays, names=list(columns))


def as_records(rows) -> np.recarray:
    """A record array, or a nonempty list of its rows, as one record array;
    an empty list has no fields to give."""
    return np.asarray(rows).view(np.recarray)


def observation_records(site_id, day, pollutant_id, value) -> np.recarray:
    """Observations with log-scale values (log micrograms per cubic metre);
    a value that is not finite is a ``ValueError``."""
    obs = records(
        site_id=np.asarray(site_id, dtype=str),
        day=np.asarray(day, dtype=int),
        pollutant_id=np.asarray(pollutant_id, dtype=int),
        value=np.asarray(value, dtype=float),
    )
    bad = np.flatnonzero(~np.isfinite(obs.value))
    if bad.size:
        raise ValueError(f"non-finite observation at {obs.site_id[bad[0]]} day {obs.day[bad[0]]}")
    return obs


def site_records(site_id, x, y, measures) -> np.recarray:
    """Stations in the given order: ``site_id`` (``<U`` of the longest id),
    ``x`` and ``y`` (``<f8``, a scalar broadcast), and a bool ``k<id>``
    column per pollutant id of ``measures``, in id order: ``measures`` is
    the (ids, held) pair of :func:`site_measures`.  A station that measures
    nothing or a repeated site id is a ``ValueError``."""
    site_id = np.asarray(site_id, dtype=str)
    ids, held = np.asarray(measures[0], dtype=int), np.asarray(measures[1], dtype=bool)
    idle = np.flatnonzero(~held.any(axis=1))
    if idle.size:
        raise ValueError(f"station {site_id[idle[0]]} measures no pollutant")
    unique, counts = np.unique(site_id, return_counts=True)
    if np.any(counts > 1):
        raise ValueError(f"site id {unique[np.argmax(counts > 1)]} is repeated")
    columns = {f"k{ids[c]}": held[:, c] for c in np.argsort(ids)}
    return records(site_id=site_id, x=np.asarray(x, "<f8"), y=np.asarray(y, "<f8"), **columns)


def site_measures(sites) -> tuple[np.ndarray, np.ndarray]:
    """(ids, held) of site records: the pollutant ids of their ``k<id>``
    columns, and an (n, len(ids)) bool matrix, true where a station
    measures ids[c]."""
    names = sites.dtype.names[3:]
    held = np.array([sites[name] for name in names], dtype=bool).reshape(len(names), len(sites))
    return np.array([int(name[1:]) for name in names], dtype=int), held.T


def station_coords(sites, site_id) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of the station of each entry of ``site_id`` among the
    records ``sites``; an id not among them is a ``ValueError``."""
    site_id = np.asarray(site_id, dtype=str)
    order = np.argsort(sites.site_id)
    at = np.searchsorted(sites.site_id[order], site_id)
    found = at < order.size
    found[found] = sites.site_id[order[at[found]]] == site_id[found]
    if not found.all():
        raise ValueError(f"site {site_id[np.argmin(found)]} is not among the stations")
    rows = order[at]
    return sites.x[rows], sites.y[rows]


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
        pollutant; the identity on an unstandardized design.  The covariate
        columns of one pollutant are scaled as one block."""
        covariate = np.array([col.kind == "covariate" for col in self.columns], dtype=bool)
        col_k = np.array([col.k for col in self.columns])
        for k in np.unique(col_k[covariate]).tolist():
            cols = np.flatnonzero(covariate & (col_k == k))
            block = np.ix_(np.flatnonzero(pollutant == k), cols)
            X[block] = (X[block] - self.col_mean[cols]) / self.col_sd[cols]


@dataclass(frozen=True)
class CellTable:
    """The values design rows read, per (pollutant j, day) and grid cell.

    ``sources`` maps (j, day) to an (R, n) array: the field itself (LD,
    R = 1) or its B spectral covariates (SD, R = B), at the n grid cells
    that ``cells`` lists in strictly increasing order.  A violation of that
    shape is a ``ValueError``.
    """

    sources: dict
    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells)
        if cells.ndim != 1 or np.any(np.diff(cells) <= 0):
            raise ValueError("cells must be a 1-D strictly increasing array")
        object.__setattr__(self, "cells", cells)
        for key, src in self.sources.items():
            if np.ndim(src) != 2 or src.shape[1] != cells.size:
                raise ValueError(f"source {key} has shape {np.shape(src)}, not (R, {cells.size})")

    @classmethod
    def of_grids(cls, mean_kind: str, fields, covs, cells) -> "CellTable":
        """The fields (LD) or their covariate arrays (SD) at ``cells``, grid
        cells in any order and possibly repeated."""
        cells = np.unique(np.asarray(cells, dtype=int))
        if mean_kind == "LD":
            return cls({key: f.values[cells][None] for key, f in fields.items()}, cells)
        return cls({key: c[:, cells] for key, c in covs.items()}, cells)

    @classmethod
    def of_sites(cls, mean_kind: str, fields, covs, spec: GridSpec, sites) -> "CellTable":
        """:meth:`of_grids` at the cell of every one of the site records
        ``sites`` in grid ``spec``."""
        cells = cell_indices(sites.x, sites.y, spec, sites.site_id)
        return cls.of_grids(mean_kind, fields, covs, cells)

    def positions(self, cells) -> np.ndarray:
        """Column of each grid cell in the source arrays.  A cell the table
        does not hold is a ``ValueError``: the table was recorded by ``fit``
        for other stations."""
        cells = np.asarray(cells, dtype=int)
        held = np.isin(cells, self.cells)
        if not held.all():
            missing = int(cells[np.flatnonzero(~held)[0]])
            raise ValueError(f"grid cell {missing} is not in the station-cell table; refit")
        return np.searchsorted(self.cells, cells)


def assemble_design(
    variant: ModelVariant,
    fields: dict,
    covs: dict,
    observations,
    sites,
) -> DesignMatrix:
    """Build the regression design for ``variant`` from whole grids.

    ``fields`` maps (pollutant j, day) to its GridField, and J is one more
    than the largest j there; ``covs`` maps (j, day) to the field's
    (B, ncells) spectral covariate array.  Their values are gathered at the
    cells of the stations ``sites``; the rows are those of
    :func:`table_design`.

    Raises a configuration ``ValueError`` when a needed field or covariate
    array is missing.
    """
    if not fields:
        raise ValueError("design assembly requires gridded fields")
    if variant.mean_kind == "SD" and not covs:
        raise ValueError("SD variant requires spectral covariates")
    if not len(observations):
        raise ValueError("no observations to assemble")
    spec = next(iter(fields.values())).spec
    return table_design(
        variant,
        CellTable.of_sites(variant.mean_kind, fields, covs, spec, sites),
        max(j for j, _ in fields) + 1,
        spec,
        observations,
        sites,
    )


def table_design(
    variant: ModelVariant,
    table: CellTable,
    n_gridded: int,
    spec: GridSpec,
    observations,
    sites,
) -> DesignMatrix:
    """The regression design for ``variant``, its values read from ``table``.

    J is ``n_gridded``; for SD variants B is read from the table's arrays.
    The site records ``sites`` hold the observations' sites, and ``spec``
    places them in grid cells.  The assembly is deterministic: rows follow
    the order of ``observations`` (records or a list of their rows);
    columns are intercepts for k = 0..K-1 followed by each k's covariate
    block ordered by (j, b).
    """
    if not len(observations):
        raise ValueError("no observations to assemble")
    obs = as_records(observations)
    K = int(obs.pollutant_id.max()) + 1
    if variant.mean_kind == "SD":
        B = next(iter(table.sources.values())).shape[0]

    # column layout: K intercepts, then per-k blocks
    columns = [ColumnMeta("intercept", k) for k in range(K)]
    for k in range(K):
        for j in range(n_gridded) if variant.cross else (k,):
            if variant.mean_kind == "LD":
                columns.append(ColumnMeta("covariate", k, j))
            else:
                columns.extend(ColumnMeta("covariate", k, j, b) for b in range(B))

    row_x, row_y = station_coords(sites, obs.site_id)
    row_day, row_pol = np.array(obs.day), np.array(obs.pollutant_id)
    cells = cell_indices(row_x, row_y, spec, obs.site_id)
    p = len(columns)
    return DesignMatrix(
        X=design_rows(columns, table, cells, row_pol, row_day),
        columns=tuple(columns),
        row_day=row_day,
        row_pollutant=row_pol,
        row_x=row_x,
        row_y=row_y,
        col_mean=np.zeros(p),
        col_sd=np.ones(p),
        standardized=False,
        zero_variance=(),
    )


def design_rows(columns, table: CellTable, cells, pollutant, day) -> np.ndarray:
    """Raw design rows of observations in grid ``cells`` of pollutants
    ``pollutant`` on days ``day``; shape (T, len(columns)).

    An intercept column is 1 on the rows of its pollutant.  A covariate
    column (k, j[, b]) holds, on the rows of pollutant k, the value at the
    row's cell of the field (LD) or of covariate b (SD) of pollutant j on
    the row's day, read from ``table``; it is 0 on the other rows.  The rows
    are sorted once by (pollutant, day), and each column is filled from the
    (pollutant, day) groups of its pollutant in day order.  A missing field
    or covariate array, the first in column order and then day order, or a
    cell the table does not hold, raises ``ValueError``.
    """
    pos = table.positions(cells)
    rows = np.zeros((pos.size, len(columns)))
    if not pos.size:
        return rows
    order = np.lexsort((day, pollutant))
    key_pol, key_day = pollutant[order], day[order]
    starts = np.flatnonzero(
        np.r_[True, (key_pol[1:] != key_pol[:-1]) | (key_day[1:] != key_day[:-1])]
    )
    groups = {}  # pollutant -> [(day, its rows, their source positions)]
    for members in np.split(order, starts[1:]):
        k, d = int(pollutant[members[0]]), int(day[members[0]])
        groups.setdefault(k, []).append((d, members, pos[members]))
    for idx, col in enumerate(columns):
        for d, members, at in groups.get(col.k, ()):
            if col.kind == "intercept":
                rows[members, idx] = 1.0
                continue
            source = table.sources.get((col.j, d))
            if source is None:
                what = "field" if col.b is None else "covariates"
                raise ValueError(f"missing {what} for pollutant {col.j} day {d}")
            rows[members, idx] = source[col.b or 0][at]
    return rows


def standardize(design: DesignMatrix) -> DesignMatrix:
    """Scale covariate columns to mean 0, sd 1 over their active rows.

    A covariate column's active rows are those of its pollutant k, found
    once per pollutant and taken in row order.  Intercept columns are
    untouched.  Zero-variance columns are flagged and left unscaled with
    (mean, sd) recorded as (0, 1).  Sample sd uses the n-1 denominator.
    """
    if design.standardized:
        raise ValueError("design is already standardized")
    mean = np.zeros(design.p)
    sd = np.ones(design.p)
    flagged = []
    pollutants = {col.k for col in design.columns if col.kind == "covariate"}
    active = {k: np.flatnonzero(design.row_pollutant == k) for k in pollutants}
    for idx, col in enumerate(design.columns):
        if col.kind != "covariate":
            continue
        vals = design.X[active[col.k], idx]
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
