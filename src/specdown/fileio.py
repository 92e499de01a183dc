"""File formats and run configuration.

Artifacts are plain text (UTF-8) but for the grid and covariate files,
posterior draws and the station-cell table.  Text floats are written with
Python's shortest round-trip repr and binary ones as little-endian float64,
so identical runs produce byte-identical files.

Grid file: the ASCII header line ``nx ny dx pollutant_id day <f8``, then
exactly 8*nx*ny bytes holding the values as little-endian IEEE-754 float64
in row-major order (x fastest).  A covariate file is the grid file of
covariate b of pollutant j followed by the suffix line ``j b``.  One
reader serves both: it checks the header, the body's byte count and that
every value is finite, and raises a ``ParseError`` naming the file
otherwise.  A header without the ``<f8`` token is a text grid of an
earlier release; no reader for text bodies is kept, since formatting them
took two thirds of ``simulate`` and parsing them 40% of ``fit`` on a
128x128 grid.  Grid files keep the ``grid_*.txt`` names that stages find
them by.  :func:`read_grid_header` reads the header line alone, so a stage
can index a directory of grids without reading their values.

Station files are CSV with header
``site_id,x_km,y_km,day,pollutant,value_raw``; raw values are in original
concentration units and are log-transformed at ingestion, dropping
nonpositive values with a count.

Posterior draws are one 2-D ``<f8`` ``.npy`` array of (draw, parameter)
on the transformed scale, with a JSON sidecar holding the parameter names
and the rest of the :class:`BatchPosterior`.  As repr text they took 0.1 s
to write and 0.05 s to read on the wide benchmark (88k floats).  They keep
the ``batch_*.csv`` and ``combined.csv`` names that stages and the
benchmark find them by; a text draws file of an earlier release is a
``ParseError`` asking for a refit.  An unmeasured acceptance rate (NaN) is
``null`` in the sidecar, which is strict JSON.  Neither residual-field nor
natural-scale draws are stored: interpolation conditions on the training
data, and :meth:`BatchPosterior.natural_draws` derives the latter.

The station-cell table that ``fit`` writes beside ``design.json``
(``station_cells.npy``) holds the values the fitted design reads at every
station cell, so that interpolation reads no grid.  As text, with repr
floats, it cost 0.06-0.12 s per ``fit`` on a 128x128 grid with 400
stations (about 80k floats).  It is one ``.npy`` file
(:func:`write_cell_table`), whose bytes depend on its content alone; an
``.npz`` archive would stamp its members with the time of writing.  One
loader reads both ``.npy`` kinds and names the file it cannot read.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .grid import GridField, GridSpec
from .inference import BatchPosterior, McmcConfig, Priors
from .stations import CellTable, Observation, OutOfGridError, Station, cell_lookup

__all__ = [
    "ParseError",
    "write_grid",
    "read_grid",
    "read_grid_header",
    "write_covariate",
    "read_covariate",
    "write_station_csv",
    "parse_station_file",
    "write_posterior",
    "read_posterior",
    "write_cell_table",
    "read_cell_table",
    "PREDICTIONS_HEADER",
    "write_predictions_csv",
    "read_predictions_csv",
    "write_scorecard_csv",
    "write_coherence_csv",
    "write_aggregate_csv",
    "RunConfig",
]


class ParseError(ValueError):
    """A file violated its documented format; message carries the line."""


#: Default pollutant name table (observed index per name).
DEFAULT_POLLUTANTS = {"PM25": 0, "EC": 1, "OC": 2, "NO3": 3, "SO4": 4, "NH4": 5}


def _fmt(x: float) -> str:
    return repr(float(x))


def _load_npy(path, note: str = "") -> np.ndarray:
    """The array of the ``.npy`` file at ``path``, loaded without unpickling.
    A body numpy cannot read as an array (text, a truncated file) is a
    ``ParseError`` naming the file, with ``note`` appended."""
    try:
        return np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ParseError(f"{path}: not a .npy array ({exc}){note}")


# ---------------------------------------------------------------------------
# Grid and covariate files
# ---------------------------------------------------------------------------


#: Sixth header token of a grid file: its body is little-endian float64.
GRID_DTYPE = "<f8"

#: The suffix line ``j b`` of a covariate file.  Neither number has a
#: leading zero or is -0, so bytes slipped in before the line cannot parse
#: as the same pollutant.
_SUFFIX = re.compile(rb"(0|-?[1-9][0-9]*) (0|[1-9][0-9]*)\n")


def _grid_bytes(field: GridField) -> bytes:
    spec = field.spec
    header = f"{spec.nx} {spec.ny} {_fmt(spec.dx)} {field.pollutant_id} {field.day} {GRID_DTYPE}\n"
    return header.encode("ascii") + field.values.astype(GRID_DTYPE).tobytes()


def write_grid(field: GridField, path) -> None:
    Path(path).write_bytes(_grid_bytes(field))


def _parse_grid_header(line: bytes, path) -> tuple[GridSpec, int, int]:
    """(spec, pollutant_id, day) of the header line
    ``nx ny dx pollutant_id day <f8``."""
    tokens = line.decode("ascii", errors="replace").split()
    if tokens[5:6] != [GRID_DTYPE]:
        raise ParseError(
            f"{path}: grid header {tokens[:6]!r} lacks the {GRID_DTYPE!r} token; "
            "grid bodies are now binary little-endian float64, so a text grid must be rewritten"
        )
    try:
        nx, ny, dx, pollutant_id, day, _ = tokens
        nx, ny, dx, pollutant_id, day = int(nx), int(ny), float(dx), int(pollutant_id), int(day)
        spec = GridSpec(nx, ny, dx)
    except ValueError:
        raise ParseError(f"{path}: malformed grid header {tokens!r}")
    return spec, pollutant_id, day


def read_grid_header(path) -> tuple[GridSpec, int, int]:
    """(spec, pollutant_id, day) of a grid or covariate file, read from its
    first line only."""
    with open(path, "rb") as fh:
        return _parse_grid_header(fh.readline(), path)


def _body_length_error(path, spec: GridSpec, found: int) -> ParseError:
    return ParseError(
        f"{path}: body holds {found} bytes; expected {8 * spec.ncells} bytes "
        f"({spec.nx}x{spec.ny} {GRID_DTYPE} values)"
    )


def _read_grid_file(path) -> tuple[GridSpec, int, int, np.ndarray, bytes]:
    """(spec, pollutant_id, day, values, the bytes after the body) of a grid
    or covariate file.

    The body must hold a finite value for every cell; the caller checks
    what follows it."""
    data = Path(path).read_bytes()
    header, newline, _ = data.partition(b"\n")
    spec, pollutant_id, day = _parse_grid_header(header, path)
    start = len(header) + len(newline)
    nbytes = 8 * spec.ncells
    if len(data) - start < nbytes:
        raise _body_length_error(path, spec, len(data) - start)
    values = np.frombuffer(data, dtype=GRID_DTYPE, count=spec.ncells, offset=start)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ParseError(f"{path}: non-finite value {float(values[bad[0]])!r} at cell {bad[0]}")
    return spec, pollutant_id, day, values, data[start + nbytes:]


def read_grid(path, log: bool = False) -> GridField:
    """Read a grid file; ``log=True`` log-transforms at ingestion and
    requires strictly positive values."""
    spec, pollutant_id, day, values, rest = _read_grid_file(path)
    if rest:
        raise _body_length_error(path, spec, 8 * spec.ncells + len(rest))
    if log:
        if np.any(values <= 0):
            raise ParseError(f"{path}: nonpositive values cannot be log-transformed")
        values = np.log(values)
    return GridField(spec, values, pollutant_id, day)


def write_covariate(covariate: GridField, basis_index: int, path) -> None:
    """The grid file of ``covariate`` with the suffix line ``j b``."""
    suffix = f"{covariate.pollutant_id} {basis_index}\n".encode("ascii")
    Path(path).write_bytes(_grid_bytes(covariate) + suffix)


def read_covariate(path) -> tuple[GridField, int]:
    """(covariate field, basis index) of a covariate file."""
    spec, pollutant_id, day, values, rest = _read_grid_file(path)
    nbytes = 8 * spec.ncells
    match = _SUFFIX.fullmatch(rest)
    if match is None:
        raise ParseError(
            f"{path}: expected a body of {nbytes} bytes, then the suffix line 'j b'; "
            f"found {rest[:40]!r} after {nbytes} bytes"
        )
    j, b = int(match[1]), int(match[2])
    if j != pollutant_id:
        raise ParseError(
            f"{path}: suffix pollutant {j} differs from header {pollutant_id} "
            f"(the suffix follows a body of {nbytes} bytes)"
        )
    return GridField(spec, values, pollutant_id, day), b


# ---------------------------------------------------------------------------
# Station files
# ---------------------------------------------------------------------------

STATION_HEADER = "site_id,x_km,y_km,day,pollutant,value_raw"


def _csv_rows(path, header: str):
    """(line number, stripped fields) of each nonblank line under ``header``;
    a line whose field count differs from the header's is a ``ParseError``."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != header:
        raise ParseError(f"{path}:1: expected header {header!r}")
    n_fields = header.count(",") + 1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            raise ParseError(f"{path}:{lineno}: expected {n_fields} fields, got {len(parts)}")
        yield lineno, [p.strip() for p in parts]


def _pollutant_id(name: str, table: dict, path, lineno: int) -> int:
    """The id ``table`` gives a pollutant name; a numeric id is taken as-is."""
    if name in table:
        return table[name]
    if name.isdigit():
        return int(name)
    raise ParseError(f"{path}:{lineno}: unknown pollutant {name!r}")


def write_station_csv(stations: dict, observations, path, pollutants=None) -> None:
    """Observations back to CSV on the original (exp) scale."""
    names = {v: k for k, v in (pollutants or DEFAULT_POLLUTANTS).items()}
    lines = [STATION_HEADER]
    for o in observations:
        st = stations[o.site_id]
        name = names.get(o.pollutant_id, str(o.pollutant_id))
        lines.append(
            f"{o.site_id},{_fmt(st.x)},{_fmt(st.y)},{o.day},{name},{_fmt(np.exp(o.value))}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_station_file(path, spec: GridSpec, pollutants=None):
    """Parse a station CSV into stations and log-scale observations.

    Returns (stations, observations, n_dropped).  Nonpositive raw values are
    dropped and counted; malformed lines, unknown pollutant names,
    inconsistent coordinates, and out-of-grid stations are errors.
    """
    table = dict(pollutants or DEFAULT_POLLUTANTS)
    stations: dict = {}
    measures: dict = {}
    observations = []
    dropped = 0
    for lineno, (sid, xs, ys, ds, pname, vs) in _csv_rows(path, STATION_HEADER):
        try:
            x, y, day, raw = float(xs), float(ys), int(ds), float(vs)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}")
        pol = _pollutant_id(pname, table, path, lineno)
        if sid in stations:
            st = stations[sid]
            if (st.x, st.y) != (x, y):
                raise ParseError(f"{path}:{lineno}: station {sid} moved coordinates")
        else:
            probe = Station(site_id=sid, x=x, y=y, measures=frozenset([pol]))
            try:
                cell_lookup(probe, spec)
            except OutOfGridError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}")
            stations[sid] = probe
        measures.setdefault(sid, set()).add(pol)
        if raw <= 0:
            dropped += 1
            continue
        observations.append(
            Observation(site_id=sid, day=day, pollutant_id=pol, value=float(np.log(raw)))
        )
    stations = {
        sid: Station(site_id=sid, x=st.x, y=st.y, measures=frozenset(measures[sid]))
        for sid, st in stations.items()
    }
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} nonpositive value(s)", stacklevel=2)
    return stations, observations, dropped


# ---------------------------------------------------------------------------
# Posterior draws
# ---------------------------------------------------------------------------


#: The one array of a draws file: (draw, parameter) little-endian float64.
DRAWS_DTYPE = "<f8"


def write_posterior(post: BatchPosterior, csv_path) -> list:
    """The draws as one ``.npy`` array at ``csv_path`` and the JSON sidecar
    beside it; returns the two paths written."""
    csv_path = Path(csv_path)
    # through a handle, since np.save appends .npy to a path that lacks it
    with open(csv_path, "wb") as fh:
        np.save(fh, np.ascontiguousarray(post.draws, dtype=DRAWS_DTYPE), allow_pickle=False)

    meta = {
        "param_names": list(post.param_names),
        "n_draws": int(post.n_draws),
        "seed": post.seed,
        "acceptance": {k: None if math.isnan(v) else float(v) for k, v in post.acceptance.items()},
        "days": list(post.days),
        "n_beta": post.n_beta,
        "n_pollutants": post.n_pollutants,
        "transforms": list(post.transforms),
        "decay_bounds": list(post.decay_bounds) if post.decay_bounds else None,
    }
    meta_path = csv_path.with_suffix(".json")
    text = json.dumps(meta, indent=2, sort_keys=True, allow_nan=False)
    meta_path.write_text(text + "\n", encoding="utf-8")
    return [csv_path, meta_path]


def read_posterior(csv_path) -> BatchPosterior:
    """The posterior of a draws file and its sidecar.  A body that is not a
    2-D ``<f8`` array of ``n_draws`` rows, one column per sidecar name, is
    a ``ParseError`` naming the file."""
    csv_path = Path(csv_path)
    draws = _load_npy(csv_path, "; draws are binary now, so a run with text draws must be refit")
    meta = json.loads(csv_path.with_suffix(".json").read_text(encoding="utf-8"))
    names = tuple(meta["param_names"])
    shape = (meta["n_draws"], len(names))
    if draws.dtype != np.dtype(DRAWS_DTYPE) or draws.shape != shape:
        raise ParseError(
            f"{csv_path}: draws are {draws.dtype.str} {draws.shape}; "
            f"the sidecar gives {DRAWS_DTYPE} {shape}"
        )
    return BatchPosterior(
        draws=draws,
        param_names=names,
        transforms=tuple(meta["transforms"]),
        n_beta=int(meta["n_beta"]),
        n_pollutants=int(meta["n_pollutants"]),
        days=tuple(meta["days"]),
        seed=meta["seed"],
        decay_bounds=tuple(meta["decay_bounds"]) if meta["decay_bounds"] else None,
        acceptance={k: math.nan if v is None else v for k, v in meta["acceptance"].items()},
    )


# ---------------------------------------------------------------------------
# Station-cell table
# ---------------------------------------------------------------------------


def _cell_table_name(key) -> str:
    return f"j{key[0]}_d{key[1]}"


def write_cell_table(table: CellTable, path) -> Path:
    """One ``.npy`` record per cell of ``table``: the grid index ``cell``,
    then a field ``j<j>_d<day>`` per (j, day) in sorted order holding the
    R values of that key's source at the cell.  Returns the path."""
    path = Path(path)
    keys = sorted(table.sources)
    dtype = [("cell", "<i8")] + [
        (_cell_table_name(key), "<f8", (table.sources[key].shape[0],)) for key in keys
    ]
    records = np.zeros(table.cells.size, dtype=dtype)
    records["cell"] = table.cells
    for key in keys:
        records[_cell_table_name(key)] = table.sources[key].T
    np.save(path, records, allow_pickle=False)
    return path


def read_cell_table(path) -> CellTable:
    """The table of a file written by :func:`write_cell_table`; its source
    arrays are views of the loaded records."""
    records = _load_npy(path)
    names = records.dtype.names or ()
    if names[:1] != ("cell",):
        raise ParseError(f"{path}: not a station-cell table")
    sources = {}
    for name in names[1:]:
        try:
            j, day = name.removeprefix("j").split("_d")
            key = (int(j), int(day))
        except ValueError:
            raise ParseError(f"{path}: malformed table field {name!r}")
        if _cell_table_name(key) != name:
            raise ParseError(f"{path}: malformed table field {name!r}")
        sources[key] = records[name].T
    try:
        return CellTable(sources, records["cell"])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------


PREDICTIONS_HEADER = "site_or_cell,x,y,day,pollutant,pred,lo95,hi95"


def write_predictions_csv(results, path, pollutants=None) -> None:
    """``site_or_cell,x,y,day,pollutant,pred,lo95,hi95``; pred and the 95%
    bounds are on the original concentration scale."""
    names = {v: k for k, v in (pollutants or DEFAULT_POLLUTANTS).items()}
    lines = [PREDICTIONS_HEADER]
    for r in results:
        t = r.target
        name = names.get(t.pollutant_id, str(t.pollutant_id))
        lines.append(
            f"{t.site_id},{_fmt(t.x)},{_fmt(t.y)},{t.day},{name},"
            f"{_fmt(r.point)},{_fmt(np.exp(r.lo_log))},{_fmt(np.exp(r.hi_log))}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_predictions_csv(path, pollutants=None) -> list:
    """``(x, y, pollutant_id, pred)`` of each line of a predictions CSV.  A
    malformed number, an unknown pollutant, or a concentration (pred or a
    bound) that is negative or not finite is a ``ParseError`` at its line."""
    table = dict(pollutants or DEFAULT_POLLUTANTS)
    rows = []
    for lineno, (_, xs, ys, ds, pname, *concentrations) in _csv_rows(path, PREDICTIONS_HEADER):
        try:
            x, y, _ = float(xs), float(ys), int(ds)
            pred, lo, hi = (float(v) for v in concentrations)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}")
        for value in (pred, lo, hi):
            if not (np.isfinite(value) and value >= 0.0):
                raise ParseError(f"{path}:{lineno}: concentration {value!r} is not finite and >= 0")
        rows.append((x, y, _pollutant_id(pname, table, path, lineno), pred))
    return rows


def write_scorecard_csv(scorecards, path, pollutants=None) -> None:
    """Rows = variants, columns = pollutants, cells = ``RMSE(corr)``.

    Multiple scorecards per variant (one per fold) are averaged.
    """
    names = {v: k for k, v in (pollutants or DEFAULT_POLLUTANTS).items()}
    by_variant: dict = {}
    pol_ids: set = set()
    for card in scorecards:
        by_variant.setdefault(card.variant, []).append(card)
        pol_ids.update(card.rmse)
    pol_ids = sorted(pol_ids)
    lines = ["variant," + ",".join(names.get(k, str(k)) for k in pol_ids)]
    for variant, cards in by_variant.items():
        cells = []
        for k in pol_ids:
            rmses = [c.rmse[k] for c in cards if k in c.rmse]
            corrs = [c.corr[k] for c in cards if c.corr.get(k) is not None]
            if not rmses:
                cells.append("NA")
                continue
            rmse = float(np.mean(rmses))
            corr = f"{float(np.mean(corrs)):.2f}" if corrs else "NA"
            cells.append(f"{rmse:.2f}({corr})")
        lines.append(f"{variant}," + ",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_coherence_csv(curves, path) -> None:
    lines = ["k,j,magnitude,period_km,mean,lo,hi,significant"]
    for c in curves:
        flag = "true" if c.significant else "false"
        for i in range(c.magnitudes.shape[0]):
            lines.append(
                f"{c.k},{c.j},{_fmt(c.magnitudes[i])},{_fmt(c.periods_km[i])},"
                f"{_fmt(c.mean[i])},{_fmt(c.lo[i])},{_fmt(c.hi[i])},{flag}"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_aggregate_csv(rows, path, pollutants=None) -> None:
    names = {v: k for k, v in (pollutants or DEFAULT_POLLUTANTS).items()}
    lines = ["region,pollutant,n,mean_pred"]
    for region, k, n, mean_pred in rows:
        lines.append(f"{region},{names.get(k, str(k))},{n},{_fmt(mean_pred)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


#: Keys the ``mcmc``, ``priors`` and ``simulate`` sections may set: the
#: fields of :class:`Priors` less the one the run supplies itself, and the
#: keys of the ``mcmc`` and ``simulate`` defaults (added below the class);
#: the other :class:`McmcConfig` fields are test hooks, set in code only.
_SECTION_KEYS = {"priors": frozenset(f.name for f in fields(Priors)) - {"decay_bounds"}}


@dataclass
class RunConfig:
    """One JSON document drives every subcommand; defaults are embedded here
    and dumped by ``print-config`` for reproducibility."""

    grids_dir: str = "grids"
    stations_file: str = "stations.csv"
    output_dir: str = "out"
    variant: str = "Spatial SD + Cross"
    basis_size: int = 5
    basis_degree: int = 3
    center: bool = False
    folds: int = 5
    seed: int = 1234
    jobs: int = 1
    pollutants: dict = field(default_factory=lambda: dict(DEFAULT_POLLUTANTS))
    batch_len: int = 3
    mcmc: dict = field(
        default_factory=lambda: {
            "iterations": 5000,
            "burnin": 2000,
            "thin": 3,
            "step_decay": 0.8,
            "step_coreg": 0.3,
            "adapt": True,
        }
    )
    priors: dict = field(
        default_factory=lambda: {
            "beta_sd": 100.0,
            "coreg_offdiag_sd": 10.0,
            "coreg_diag_log_sd": 10.0,
            "nugget_shape": 2.0,
            "nugget_scale": 0.1,
        }
    )
    n_ols_draws: int = 1000
    max_kriging_draws: int = 400
    simulate: dict = field(
        default_factory=lambda: {
            "nx": 32,
            "ny": 32,
            "dx": 12.0,
            "n_observed": 2,
            "n_gridded": 2,
            "beta0": [1.0, 0.5],
            "beta_scale": 0.6,
            "cross_scale": 0.3,
            "coreg_diag": 0.5,
            "coreg_offdiag": 0.25,
            "effective_range_fraction": 0.33,
            "nugget2": [0.04, 0.04],
            "n_stations": 60,
            "strata_mix": [0.7, 0.1, 0.2],
            "cadence": "daily",
            "days": 18,
            "field_variance": 1.0,
            "field_range_cells": 4.0,
            "field_exponent": 1.5,
            "field_cross_corr": 0.3,
        }
    )

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        """The defaults overlaid with a JSON document, dict sections merged key
        by key.  An unknown key, at the top level or in the ``mcmc``,
        ``priors`` or ``simulate`` section, is a ``ParseError`` naming it."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        cfg = cls()
        for key, value in data.items():
            if not hasattr(cfg, key):
                raise ParseError(f"unknown config key {key!r}")
            if isinstance(getattr(cfg, key), dict) and isinstance(value, dict):
                unknown = sorted(set(value) - _SECTION_KEYS.get(key, set(value)))
                if unknown:
                    raise ParseError(f"unknown {key} config key {unknown[0]!r}")
                merged = dict(getattr(cfg, key))
                merged.update(value)
                setattr(cfg, key, merged)
            else:
                setattr(cfg, key, value)
        return cfg

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def mcmc_config(self, seed: int) -> McmcConfig:
        return McmcConfig(seed=seed, **self.mcmc)

    def priors_for(self, spec: GridSpec) -> Priors:
        return Priors(
            decay_bounds=(
                3.0 / (0.75 * spec.diameter_km),
                3.0 / (0.1 * spec.diameter_km),
            ),
            **self.priors,
        )


_SECTION_KEYS.update(mcmc=frozenset(RunConfig().mcmc), simulate=frozenset(RunConfig().simulate))
