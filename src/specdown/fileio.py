"""File formats and run configuration.

All artifacts are plain text (UTF-8).  Floats are written with Python's
shortest round-trip repr, so identical runs produce byte-identical files.

Grid file: header line ``nx ny dx pollutant_id day``, then nx*ny
whitespace-separated reals in row-major order (x fastest).  A covariate
file is the grid file of covariate b of pollutant j plus a ``j b`` suffix
line.  :func:`read_grid_header` reads the header line alone, so a stage
can index a directory of grids without parsing their values.  Station
files are CSV with header
``site_id,x_km,y_km,day,pollutant,value_raw``; raw values are in original
concentration units and are log-transformed at ingestion, dropping
nonpositive values with a count.  Posterior draws are CSV plus a JSON
sidecar; residual-field draws ride along in an .npz when present.  The
natural-scale draws of the combined posterior are written by ``combine``
for readers outside the pipeline and never read back: every stage derives
them from the transformed draws.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .grid import GridField, GridSpec
from .inference import BatchPosterior, McmcConfig, Priors
from .lmc import StackedLayout
from .stations import Observation, OutOfGridError, Station, cell_lookup

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
    "write_natural_csv",
    "PREDICTIONS_HEADER",
    "write_predictions_csv",
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


def _fmt_values(values: np.ndarray) -> str:
    """Space-separated :func:`_fmt` of each value."""
    return " ".join(map(repr, values.tolist()))


def _write_draws_csv(path, names, draws) -> None:
    """Header of column names, then one row of draws per line.  The header
    goes through the csv module, so names holding commas are quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(names)
    for row in draws:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def _read_draws_csv(path):
    """(names, draws) of a file written by :func:`_write_draws_csv`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        names = tuple(next(reader))
        draws = np.loadtxt(fh, delimiter=",", ndmin=2)
    return names, draws


# ---------------------------------------------------------------------------
# Grid and covariate files
# ---------------------------------------------------------------------------


def _grid_lines(field: GridField) -> list:
    spec = field.spec
    header = f"{spec.nx} {spec.ny} {_fmt(spec.dx)} {field.pollutant_id} {field.day}"
    return [header, _fmt_values(field.values)]


def write_grid(field: GridField, path) -> None:
    Path(path).write_text("\n".join(_grid_lines(field)) + "\n", encoding="utf-8")


def _parse_grid_header(line: str, path) -> tuple[GridSpec, int, int]:
    """(spec, pollutant_id, day) of the header line ``nx ny dx pollutant_id day``."""
    tokens = line.split()
    try:
        nx, ny, dx, pollutant_id, day = tokens
        nx, ny, dx, pollutant_id, day = int(nx), int(ny), float(dx), int(pollutant_id), int(day)
    except ValueError:
        raise ParseError(f"{path}: malformed grid header {tokens!r}")
    return GridSpec(nx, ny, dx), pollutant_id, day


def _parse_grid_lines(header_line: str, tokens_values, path) -> GridField:
    spec, pollutant_id, day = _parse_grid_header(header_line, path)
    if len(tokens_values) != spec.ncells:
        raise ParseError(
            f"{path}: expected {spec.ncells} values, found {len(tokens_values)}"
        )
    values = np.array(tokens_values, dtype=float)
    return GridField(spec, values, pollutant_id=pollutant_id, day=day)


def read_grid_header(path) -> tuple[GridSpec, int, int]:
    """(spec, pollutant_id, day) of a grid or covariate file, read from its
    first line only."""
    with open(path, encoding="utf-8") as fh:
        return _parse_grid_header(fh.readline(), path)


def read_grid(path, log: bool = False) -> GridField:
    """Read a grid file; ``log=True`` log-transforms at ingestion and
    requires strictly positive values."""
    header, _, body = Path(path).read_text(encoding="utf-8").partition("\n")
    field = _parse_grid_lines(header, body.split(), path)
    if log:
        if np.any(field.values <= 0):
            raise ParseError(f"{path}: nonpositive values cannot be log-transformed")
        field = GridField(field.spec, np.log(field.values), field.pollutant_id, field.day)
    return field


def write_covariate(covariate: GridField, basis_index: int, path) -> None:
    """The grid file of ``covariate`` with the suffix line ``j b``."""
    lines = _grid_lines(covariate) + [f"{covariate.pollutant_id} {basis_index}"]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_covariate(path) -> tuple[GridField, int]:
    """(covariate field, basis index) of a covariate file."""
    header, _, body = Path(path).read_text(encoding="utf-8").partition("\n")
    tokens = body.split()
    middle, suffix = tokens[:-2], tokens[-2:]
    field = _parse_grid_lines(header, middle, path)
    try:
        j, b = int(suffix[0]), int(suffix[1])
    except ValueError:
        raise ParseError(f"{path}: malformed covariate suffix {suffix!r}")
    if j != field.pollutant_id:
        raise ParseError(f"{path}: suffix pollutant {j} differs from header {field.pollutant_id}")
    return field, b


# ---------------------------------------------------------------------------
# Station files
# ---------------------------------------------------------------------------

STATION_HEADER = "site_id,x_km,y_km,day,pollutant,value_raw"


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
    # numeric pollutant ids are accepted as-is
    stations: dict = {}
    measures: dict = {}
    observations = []
    dropped = 0
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != STATION_HEADER:
        raise ParseError(f"{path}:1: expected header {STATION_HEADER!r}")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ParseError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
        sid, xs, ys, ds, pname, vs = (p.strip() for p in parts)
        try:
            x, y, day, raw = float(xs), float(ys), int(ds), float(vs)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}")
        if pname in table:
            pol = table[pname]
        elif pname.isdigit():
            pol = int(pname)
        else:
            raise ParseError(f"{path}:{lineno}: unknown pollutant {pname!r}")
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


def write_posterior(post: BatchPosterior, csv_path) -> list:
    """Draws CSV + JSON sidecar; residual draws, if any, go to an .npz.
    Returns the paths written."""
    csv_path = Path(csv_path)
    _write_draws_csv(csv_path, post.param_names, post.draws)

    meta = {
        "n_draws": int(post.n_draws),
        "seed": post.seed,
        "acceptance": {k: float(v) for k, v in post.acceptance.items()},
        "days": list(post.days),
        "n_beta": post.n_beta,
        "n_pollutants": post.n_pollutants,
        "transforms": list(post.transforms),
        "decay_bounds": list(post.decay_bounds) if post.decay_bounds else None,
    }
    meta_path = csv_path.with_suffix(".json")
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    paths = [csv_path, meta_path]

    if post.w_draws is not None:
        arrays = {f"w_day_{d}": arr for d, arr in post.w_draws.items()}
        arrays["layout_day"] = post.w_layout.day
        arrays["layout_pollutant"] = post.w_layout.pollutant
        arrays["layout_coords"] = post.w_layout.coords
        npz_path = csv_path.with_suffix(".w.npz")
        np.savez(npz_path, **arrays)
        paths.append(npz_path)
    return paths


def write_natural_csv(post: BatchPosterior, path) -> None:
    """Draws on the natural scale, the transform suffixes cut from the names."""
    names = [n.replace(".logit", "").replace(".log", "") for n in post.param_names]
    _write_draws_csv(path, names, post.natural_draws())


def read_posterior(csv_path) -> BatchPosterior:
    csv_path = Path(csv_path)
    names, draws = _read_draws_csv(csv_path)
    meta = json.loads(csv_path.with_suffix(".json").read_text(encoding="utf-8"))
    w_draws = None
    w_layout = None
    npz_path = csv_path.with_suffix(".w.npz")
    if npz_path.exists():
        with np.load(npz_path) as data:
            w_layout = StackedLayout(
                day=data["layout_day"],
                pollutant=data["layout_pollutant"],
                coords=data["layout_coords"],
            )
            w_draws = {
                int(key[len("w_day_"):]): data[key]
                for key in data.files
                if key.startswith("w_day_")
            }
    return BatchPosterior(
        draws=draws,
        param_names=names,
        transforms=tuple(meta["transforms"]),
        n_beta=int(meta["n_beta"]),
        n_pollutants=int(meta["n_pollutants"]),
        days=tuple(meta["days"]),
        seed=meta["seed"],
        decay_bounds=tuple(meta["decay_bounds"]) if meta["decay_bounds"] else None,
        acceptance=dict(meta["acceptance"]),
        w_draws=w_draws,
        w_layout=w_layout,
    )


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
    lines = ["region,pollutant,n,mean_pred,mean_obs"]
    for region, k, n, mean_pred, mean_obs in rows:
        obs = _fmt(mean_obs) if mean_obs is not None else "NA"
        lines.append(f"{region},{names.get(k, str(k))},{n},{_fmt(mean_pred)},{obs}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


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
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        cfg = cls()
        for key, value in data.items():
            if not hasattr(cfg, key):
                raise ParseError(f"unknown config key {key!r}")
            if isinstance(getattr(cfg, key), dict) and isinstance(value, dict):
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
