"""File formats and run configuration.

Artifacts are plain text (UTF-8) but for the grid files, posterior draws
and the station-cell table.  Text floats are written with Python's shortest
round-trip repr and binary ones as little-endian float64, so identical runs
produce byte-identical files.

Grid file: the ASCII header line ``nx ny dx pollutant_id day <f8``, then
exactly 8*nx*ny bytes holding the values as little-endian IEEE-754 float64
in row-major order (x fastest).  Spectral covariates are grid files too:
covariate b of pollutant j on a day is the grid file of its values, the
header carrying j and the day and the file name the b.  The one reader,
:func:`read_grid`, checks the header, the body's byte count and that every
value is finite, and raises a ``ParseError`` naming the file otherwise.  A
header without the ``<f8`` token is a text grid of an earlier release; no
reader for text bodies is kept, since formatting them took two thirds of
``simulate`` and parsing them 40% of ``fit`` on a 128x128 grid.  Grid files
keep the ``grid_*.txt`` names that stages find them by.
:func:`read_grid_header` reads the header line alone, so a stage can index
a directory of grids without reading their values.

A station file is CSV with header
``site_id,x_km,y_km,day,pollutant,value_raw``; raw values are in original
concentration units and are log-transformed at ingestion, dropping
nonpositive values with a count; a value that is not finite is an error.
:func:`parse_station_file` splits the file once and converts and checks
whole columns, so it builds no object per line: it gives site records
(:func:`~specdown.stations.site_records`) and observation records.  When
a check fails, the shortest failing prefix of the file, found by bisection,
ends at the first faulty line, which the ``ParseError`` names.  The writers
of station and prediction files format whole columns of records, and a
predictions file reads back as one record array.

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
``.npz`` archive would stamp its members with the time of writing.

``fit`` also records the station file it parsed, so that ``predict``
parses none (:func:`write_station_records`): the site and observation
records, each saved as the ``.npy`` array it is in memory (``sites.npy``,
``observations.npy``), and a JSON sidecar (``sites.json``) with the
file's sha256 and the station, observation and dropped counts.
One loader reads every ``.npy`` kind and names the file it cannot read.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .grid import GridField, GridSpec
from .inference import BatchPosterior, McmcConfig, Priors
from .stations import (
    CellTable,
    cell_indices,
    observation_records,
    records,
    site_measures,
    site_records,
    station_coords,
)

__all__ = [
    "ParseError",
    "write_grid",
    "read_grid",
    "read_grid_header",
    "write_station_csv",
    "parse_station_file",
    "write_posterior",
    "read_posterior",
    "write_cell_table",
    "read_cell_table",
    "write_station_records",
    "read_station_records",
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
    A body that is not one ``.npy`` array and nothing after it (text, a zip
    or ``.npz`` archive, a truncated file, bytes after the array) is a
    ``ParseError`` naming the file, with ``note`` appended."""
    with open(path, "rb") as f:
        try:
            array = np.lib.format.read_array(f, allow_pickle=False)
        except ValueError as exc:
            raise ParseError(f"{path}: not a .npy array ({exc}){note}")
        if f.read(1):
            raise ParseError(f"{path}: not a .npy array (bytes after the array){note}")
    return array


# ---------------------------------------------------------------------------
# Grid files
# ---------------------------------------------------------------------------


#: Sixth header token of a grid file: its body is little-endian float64.
GRID_DTYPE = "<f8"


def write_grid(field: GridField, path) -> None:
    spec = field.spec
    header = f"{spec.nx} {spec.ny} {_fmt(spec.dx)} {field.pollutant_id} {field.day} {GRID_DTYPE}\n"
    Path(path).write_bytes(header.encode("ascii") + field.values.astype(GRID_DTYPE).tobytes())


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
    """(spec, pollutant_id, day) of a grid file, read from its first line
    only."""
    with open(path, "rb") as fh:
        return _parse_grid_header(fh.readline(), path)


def read_grid(path, log: bool = False) -> GridField:
    """Read a grid file; ``log=True`` log-transforms at ingestion and
    requires strictly positive values.

    The header must parse, the body must hold exactly 8*nx*ny bytes, and
    every value must be finite."""
    data = Path(path).read_bytes()
    header, newline, body = data.partition(b"\n")
    spec, pollutant_id, day = _parse_grid_header(header, path)
    if len(body) != 8 * spec.ncells:
        raise ParseError(
            f"{path}: body holds {len(body)} bytes; expected {8 * spec.ncells} bytes "
            f"({spec.nx}x{spec.ny} {GRID_DTYPE} values)"
        )
    values = np.frombuffer(data, dtype=GRID_DTYPE, offset=len(header) + len(newline))
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ParseError(f"{path}: non-finite value {float(values[bad[0]])!r} at cell {bad[0]}")
    if log:
        if np.any(values <= 0):
            raise ParseError(f"{path}: nonpositive values cannot be log-transformed")
        values = np.log(values)
    return GridField(spec, values, pollutant_id, day)


# ---------------------------------------------------------------------------
# The station CSV
# ---------------------------------------------------------------------------

STATION_HEADER = "site_id,x_km,y_km,day,pollutant,value_raw"


def _read_csv(path, header: str, parse):
    """``parse(*columns)`` of the nonblank lines under ``header``, a list of
    stripped fields per header field.  A line whose field count differs
    from the header's, a ``ValueError`` that ``parse`` raises, or an int past
    int64 is a ``ParseError`` at the first line whose prefix of the file is
    rejected: every check judges a line by the lines up to it, so that line
    is the first faulty one, and the message is its first fault in the
    order of the checks."""
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if not text or text[0].strip() != header:
        raise ParseError(f"{path}:1: expected header {header!r}")
    linenos = [n for n, line in enumerate(text, start=1) if n > 1 and line.strip()]
    lines = [text[n - 1] for n in linenos]
    n_fields = header.count(",") + 1

    def attempt(n):
        try:
            counts = np.fromiter((line.count(",") + 1 for line in lines[:n]), int, n)
            if np.any(counts != n_fields):
                raise ValueError(f"expected {n_fields} fields, got {counts[counts != n_fields][0]}")
            tokens = list(map(str.strip, ",".join(lines[:n]).split(","))) if n else []
            return parse(*(tokens[i::n_fields] for i in range(n_fields))), None
        except (ValueError, OverflowError) as exc:
            return None, exc

    result, error = attempt(len(lines))
    if error is None:
        return result
    good, bad = 0, len(lines)  # the first `good` lines pass, the first `bad` do not
    while bad - good > 1:
        mid = (good + bad) // 2
        _, mid_error = attempt(mid)
        if mid_error is None:
            good = mid
        else:
            bad, error = mid, mid_error
    raise ParseError(f"{path}:{linenos[bad - 1]}: {error}")


def _numbers(convert, strings) -> np.ndarray:
    """Python's ``convert`` (``float`` or ``int``) of each string, as a
    float64 or int64 array."""
    return np.fromiter(map(convert, strings), convert, len(strings))


def _pollutant_ids(names, pollutants) -> np.ndarray:
    """The id of each pollutant name in ``pollutants`` (name -> id) or the
    default table, a numeric name taken as the id; an unknown name is a
    ``ValueError``."""
    table = pollutants or DEFAULT_POLLUTANTS
    ids = {n: table[n] if n in table else int(n) if n.isdecimal() else None for n in set(names)}
    unknown = [n for n in names if ids[n] is None]
    if unknown:
        raise ValueError(f"unknown pollutant {unknown[0]!r}")
    return np.fromiter(map(ids.get, names), int, len(names))


def _pollutant_names(pollutants):
    """The name of a pollutant id, from ``pollutants`` (name -> id) or the
    default table; an id neither names is written as itself."""
    names = {v: k for k, v in (pollutants or DEFAULT_POLLUTANTS).items()}
    return lambda k: names.get(k, str(k))


def _write_csv(path, header: str, *columns) -> None:
    """``header`` and one line per row of the string ``columns``."""
    lines = [header, *map(",".join, zip(*columns))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_station_csv(sites, observations, path, pollutants=None) -> None:
    """Observations back to CSV on the original (exp) scale, at the
    coordinates of their sites among the records ``sites``."""
    x, y = station_coords(sites, observations.site_id)
    _write_csv(
        path,
        STATION_HEADER,
        observations.site_id.tolist(),
        map(repr, x.tolist()),
        map(repr, y.tolist()),
        map(str, observations.day.tolist()),
        map(_pollutant_names(pollutants), observations.pollutant_id.tolist()),
        map(repr, np.exp(observations.value).tolist()),
    )


def parse_station_file(path, spec: GridSpec, pollutants=None):
    """Parse a station CSV into site records and log-scale observations.

    Returns (sites, observations, n_dropped): the site records
    (:func:`~specdown.stations.site_records`), the form ``fit`` saves them
    in, in the order the sites first appear, and the observation records
    (:func:`~specdown.stations.observation_records`) in file order.
    Nonpositive raw values are dropped and counted, though a station still
    measures their pollutant.  The first faulty line is a ``ParseError`` at
    that line; of a line's own faults the first in this order: a field count
    other than the header's, a malformed number (x, y, day, then value, with
    the message of Python's ``float`` or ``int``), a raw value that is not
    finite (``nan``, ``inf``, ``-inf``, or an overflow such as ``1e400``), an
    unknown pollutant name, and a station that moved or lies outside the
    grid.  The file is split and checked in bulk; numbers are converted by
    Python's ``float`` and ``int``, so they accept exactly its spellings.
    """

    def parse(site, xs, ys, ds, names, vs):
        x, y = _numbers(float, xs), _numbers(float, ys)
        day, raw = _numbers(int, ds), _numbers(float, vs)
        bad = np.flatnonzero(~np.isfinite(raw))
        if bad.size:
            raise ValueError(f"value_raw {vs[bad[0]]!r} is not finite")
        pol = _pollutant_ids(names, pollutants)
        codes = {sid: c for c, sid in enumerate(dict.fromkeys(site))}  # in order of appearance
        code = np.fromiter(map(codes.get, site), int, len(site))
        first = np.unique(code, return_index=True)[1]
        site = np.array(site, dtype=str)
        moved = (x != x[first][code]) | (y != y[first][code])
        moved[first] = False
        if moved.any():
            raise ValueError(f"station {site[np.argmax(moved)]} moved coordinates")
        cell_indices(x, y, spec, site)
        ids, column = np.unique(pol, return_inverse=True)
        held = np.zeros((first.size, ids.size), dtype=bool)
        held[code, column] = True
        sites = site_records(list(codes), x[first], y[first], (ids, held))
        keep = raw > 0
        observations = observation_records(site[keep], day[keep], pol[keep], np.log(raw[keep]))
        return sites, observations, int(np.count_nonzero(~keep))

    sites, observations, dropped = _read_csv(path, STATION_HEADER, parse)
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} nonpositive value(s)", stacklevel=2)
    return sites, observations, dropped


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
# The station-cell table
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
# Site and observation records
# ---------------------------------------------------------------------------


def _observation_dtype(site_id_dtype) -> list:
    return [("site_id", site_id_dtype), ("day", "<i8"), ("pollutant_id", "<i8"), ("value", "<f8")]


def write_station_records(sites, observations, dropped: int, sha256: str, out) -> list:
    """Record the ``sites`` and ``observations`` parsed from a station file
    in directory ``out``, and return the three paths written.

    ``sites.npy`` holds the site records
    (:func:`~specdown.stations.site_records`) as they are in memory:
    ``site_id``, ``x``, ``y`` and a bool field ``k<k>`` per pollutant id
    that any station measures, true where this one does, so a pollutant
    whose values were all dropped stays measured.  ``observations.npy``
    holds the observation records with fields ``site_id``, ``day``,
    ``pollutant_id`` and ``value`` (``<i8`` ints, ``<f8`` values).  The
    sidecar ``sites.json`` holds ``sha256``, the station file's digest, and
    the ``stations``, ``observations`` and ``dropped`` counts."""
    out = Path(out)
    obs = np.asarray(observations).astype(_observation_dtype(observations.site_id.dtype.str), copy=False)
    paths = [out / name for name in ("sites.npy", "observations.npy", "sites.json")]
    np.save(paths[0], sites, allow_pickle=False)
    np.save(paths[1], obs, allow_pickle=False)
    meta = {"sha256": sha256, "stations": len(sites), "observations": len(obs), "dropped": dropped}
    paths[2].write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return paths


def read_station_records(out) -> tuple[np.recarray, np.recarray, dict]:
    """(sites, observations, sidecar) that :func:`write_station_records`
    wrote in directory ``out``: the site and observation records, in the
    form they are saved in, and the sidecar's dict.  A missing file is a
    ``FileNotFoundError`` that says to refit, since only ``fit`` writes
    them.  A body that is not one ``.npy`` array of the documented fields
    and dtypes, that :func:`~specdown.stations.site_records` or
    :func:`~specdown.stations.observation_records` refuses, whose record
    count is not the sidecar's, or an observation whose site is not among
    the sites, is a ``ParseError`` naming the file."""
    paths = [Path(out) / name for name in ("sites.npy", "observations.npy", "sites.json")]
    for path in paths:
        if not path.is_file():
            raise FileNotFoundError(f"{path} is missing; refit")
    sites_path, obs_path, meta_path = paths
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        counts = {key: int(meta[key]) for key in ("stations", "observations", "dropped")}
        if not isinstance(meta["sha256"], str):
            raise TypeError("sha256 is not a string")
    except (ValueError, TypeError, KeyError) as exc:
        raise ParseError(f"{meta_path}: not a station-records sidecar ({exc!r})")
    sites = _load_npy(sites_path)
    names = sites.dtype.names or ()
    if sites.ndim != 1 or names[:3] != ("site_id", "x", "y") or sites.dtype["site_id"].kind != "U":
        raise ParseError(f"{sites_path}: not a station table")
    if sites.dtype["x"].str != "<f8" or sites.dtype["y"].str != "<f8":
        raise ParseError(f"{sites_path}: station coordinates are not <f8")
    for name in names[3:]:
        k = name.removeprefix("k")
        if not k.isdecimal() or f"k{int(k)}" != name or sites.dtype[name].str != "|b1":
            raise ParseError(f"{sites_path}: malformed measures field {name!r}")
    try:
        sites = site_records(sites["site_id"], sites["x"], sites["y"], site_measures(sites))
    except ValueError as exc:
        raise ParseError(f"{sites_path}: {exc}")
    obs = _load_npy(obs_path)
    names = tuple(name for name, _ in _observation_dtype("<U"))
    if (
        obs.ndim != 1
        or obs.dtype.names != names
        or obs.dtype["site_id"].kind != "U"
        or obs.dtype.descr != _observation_dtype(obs.dtype["site_id"].str)
    ):
        raise ParseError(f"{obs_path}: not observation records {_observation_dtype('<U')}")
    for path, n, key in ((sites_path, len(sites), "stations"), (obs_path, obs.size, "observations")):
        if n != counts[key]:
            raise ParseError(f"{path}: holds {n} records; the sidecar gives {counts[key]}")
    try:
        observations = observation_records(*(obs[name] for name in names))
        station_coords(sites, observations.site_id)
    except ValueError as exc:
        raise ParseError(f"{obs_path}: {exc}")
    return sites, observations, meta


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------


PREDICTIONS_HEADER = "site_or_cell,x,y,day,pollutant,pred,lo95,hi95"


def write_predictions_csv(results, path, pollutants=None) -> None:
    """``site_or_cell,x,y,day,pollutant,pred,lo95,hi95`` of each prediction
    record, in order; pred and the 95% bounds are on the original
    concentration scale."""
    _write_csv(
        path,
        PREDICTIONS_HEADER,
        results.site_id.tolist(),
        map(repr, results.x.tolist()),
        map(repr, results.y.tolist()),
        map(str, results.day.tolist()),
        map(_pollutant_names(pollutants), results.pollutant_id.tolist()),
        map(repr, results.point.tolist()),
        map(repr, np.exp(results.lo_log).tolist()),
        map(repr, np.exp(results.hi_log).tolist()),
    )


def read_predictions_csv(path, pollutants=None) -> np.recarray:
    """A predictions CSV as one record array, a row per line in file order,
    with columns ``x``, ``y``, ``pollutant_id`` and ``point`` (the pred
    column).  A malformed number, a concentration (pred or a bound) that is
    negative or not finite, or an unknown pollutant is a ``ParseError`` at
    its line."""

    def parse(_, xs, ys, ds, names, *bounds):
        x, y, _ = _numbers(float, xs), _numbers(float, ys), _numbers(int, ds)
        pred, lo, hi = (_numbers(float, c) for c in bounds)
        for c in (pred, lo, hi):
            bad = np.flatnonzero(~(np.isfinite(c) & (c >= 0.0)))
            if bad.size:
                raise ValueError(f"concentration {float(c[bad[0]])!r} is not finite and >= 0")
        return records(x=x, y=y, pollutant_id=_pollutant_ids(names, pollutants), point=pred)

    return _read_csv(path, PREDICTIONS_HEADER, parse)


def write_scorecard_csv(scorecards, path, pollutants=None) -> None:
    """Rows = variants, columns = pollutants, cells = ``RMSE(corr)``.

    Multiple scorecards per variant (one per fold) are averaged.
    """
    name = _pollutant_names(pollutants)
    by_variant: dict = {}
    pol_ids: set = set()
    for card in scorecards:
        by_variant.setdefault(card.variant, []).append(card)
        pol_ids.update(card.rmse)
    pol_ids = sorted(pol_ids)
    lines = ["variant," + ",".join(map(name, pol_ids))]
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
    name = _pollutant_names(pollutants)
    lines = ["region,pollutant,n,mean_pred"]
    for region, k, n, mean_pred in rows:
        lines.append(f"{region},{name(k)},{n},{_fmt(mean_pred)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


#: The :class:`McmcConfig` fields a run config leaves to code: the seed,
#: which each batch derives, and the test hooks.
_MCMC_IN_CODE = frozenset(
    {"seed", "update_w", "update_beta", "update_nugget", "update_coreg", "update_decay", "init_nugget2"}
)


def _field_defaults(cls, leave_out) -> dict:
    """The default of every field of dataclass ``cls`` not in ``leave_out``."""
    return {f.name: f.default for f in fields(cls) if f.name not in leave_out}


def _typed(path, key: str, value, default):
    """``value`` of config key ``key``, if a bool, int, float or str
    ``default`` allows its type (an int may stand for a float, a bool for
    nothing else); otherwise a ``ParseError`` naming the file and the key."""
    kind = type(default)
    allowed = (kind, int) if kind is float else (kind,)  # a bool is no int here
    if kind in (bool, int, float, str) and type(value) not in allowed:
        got = json.dumps(value)
        raise ParseError(f"{path}: config key {key!r} must be {kind.__name__}, got {got}")
    return value


@dataclass
class RunConfig:
    """One JSON document drives every subcommand; defaults are embedded here
    and dumped by ``print-config`` for reproducibility.  The ``mcmc`` and
    ``priors`` sections take their keys and defaults from :class:`McmcConfig`
    and :class:`Priors`, less the fields the run supplies itself."""

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
    mcmc: dict = field(default_factory=lambda: _field_defaults(McmcConfig, _MCMC_IN_CODE))
    priors: dict = field(default_factory=lambda: _field_defaults(Priors, {"decay_bounds"}))
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
        by key.  A file that is not one JSON object, an unknown key (at the
        top level or in the ``mcmc``, ``priors`` or ``simulate`` section) or
        a section that is not an object is a ``ParseError`` naming the file
        and the key.  So is a scalar, at the top level or in a section,
        whose type is not its default's (an int may stand for a float, a
        bool for nothing else; a section's key is named ``section.key``)
        and a ``batch_len``, ``jobs``, ``n_ols_draws`` or
        ``max_kriging_draws`` below 1."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ParseError(f"{path}: not JSON ({exc})")
        if not isinstance(data, dict):
            raise ParseError(f"{path}: a run config must be one JSON object")
        cfg = cls()
        names = {f.name for f in fields(cls)}
        for key, value in data.items():
            if key not in names:
                raise ParseError(f"{path}: unknown config key {key!r}")
            default = getattr(cfg, key)
            if isinstance(default, dict):
                if not isinstance(value, dict):
                    raise ParseError(f"{path}: config key {key!r} must be a JSON object")
                unknown = sorted(set(value) - _SECTION_KEYS.get(key, set(value)))
                if unknown:
                    raise ParseError(f"{path}: unknown {key} config key {unknown[0]!r}")
                if key in _SECTION_KEYS:
                    value = {k: _typed(path, f"{key}.{k}", v, default[k]) for k, v in value.items()}
                value = {**default, **value}
            _typed(path, key, value, default)
            if key in ("batch_len", "jobs", "n_ols_draws", "max_kriging_draws") and value < 1:
                raise ParseError(f"{path}: config key {key!r} must be at least 1, got {value}")
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


#: Keys the ``mcmc``, ``priors`` and ``simulate`` sections may set: those of
#: their defaults.
_SECTION_KEYS = {key: frozenset(getattr(RunConfig(), key)) for key in ("mcmc", "priors", "simulate")}
