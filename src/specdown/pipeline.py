"""End-to-end orchestration behind the command-line interface.

Each ``cmd_*`` function implements one subcommand against a
:class:`~specdown.fileio.RunConfig`; they are plain functions so tests can
drive the same pipeline in-process.  Batch fitting dispatches across a
process pool when ``jobs > 1``; every batch owns a seed derived from
(master seed, batch index), so results do not depend on the pool size.

Every stage that uses ``grids_dir`` first reads the header line of every
grid file there (:func:`~specdown.fileio.read_grid_header`): two files
holding one (pollutant, day), or files on different grids, are a
``ParseError``.  The headers give the season, split into training and test
days.  A stage then reads only the grid values it uses: ``fit`` the
training days, forecast ``predict`` the test days, ``cv`` every day;
interpolation ``predict``, ``coherence`` and ``aggregate`` read none.  A
value body, binary float64 (see :mod:`~specdown.fileio`), is checked only
where it is read.  Grid files are still found by the glob ``grid_*.txt``
and ``simulate`` still names them so, though their bodies are not text.

Design rows read a station-cell table: the values of the grids a stage
reads at the cell of every station.  ``fit`` writes the table of the
training days beside ``design.json``, where it records a sha256 digest of
each training grid file.  Interpolation ``predict`` reads that table once
the digests of the training grid files match the recorded ones.

The station file is parsed by ``fit`` and ``cv`` only, into site and
observation records, the one form of each through every stage; ``fit``
saves both as they are, with the file's sha256
(:func:`~specdown.fileio.write_station_records`).  Both ``predict`` modes
hash the station file, compare the digest with the recorded one, and load
the records; a station file changed since ``fit`` is an error that says to
refit.  ``cv`` has no prior ``fit`` and parses the file itself.

Posterior draws pass from ``fit`` (``batch_*.csv``) through ``combine``
(``combined.csv``) to ``predict`` and ``coherence`` in one binary format
(:func:`~specdown.fileio.write_posterior`, :func:`~specdown.fileio.read_posterior`).
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .evaluate import (
    PredictionContext,
    aggregate_means,
    coherence_curve,
    cv_split,
    predict,
    prediction_targets,
    score,
    split_season,
)
from .fileio import (
    ParseError,
    RunConfig,
    read_grid,
    read_grid_header,
    read_posterior,
    read_predictions_csv,
    write_aggregate_csv,
    write_coherence_csv,
    write_grid,
    write_posterior,
    write_predictions_csv,
    write_scorecard_csv,
    write_station_csv,
    parse_station_file,
    read_cell_table,
    write_cell_table,
    read_station_records,
    write_station_records,
)
from .filters import (
    FrequencyBand,
    band_filter,
    build_covariates,
    make_basis,
    spectral_covariates,
)
from .grid import GridField, GridSpec
from .inference import (
    consensus_combine,
    derive_rng,
    fit_batch_mcmc,
    make_batches,
    ols_posterior,
)
from .stations import (
    ALL_VARIANTS,
    CellTable,
    ColumnMeta,
    DesignMatrix,
    ModelVariant,
    assemble_design,
    site_measures,
    standardize,
    station_coords,
    table_design,
    variant_from_name,
)
from .synthetic import FieldSpectrum, SimConfig, simulate

__all__ = [
    "derived_seed",
    "load_fields",
    "build_covariates",
    "fit_variant",
    "targets_for",
    "cmd_simulate",
    "cmd_filter",
    "cmd_covariates",
    "cmd_fit",
    "cmd_combine",
    "cmd_predict",
    "cmd_cv",
    "cmd_coherence",
    "cmd_aggregate",
]


def derived_seed(master: int, *key: int) -> int:
    """Deterministic child seed from (master, key...)."""
    return int(np.random.SeedSequence(master, spawn_key=tuple(key)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def build_sim_config(cfg: RunConfig) -> SimConfig:
    """Materialize the ``simulate`` section of a run config.

    True coefficients follow a geometric taper over the basis index
    (coherence concentrated at low frequency): own-species slopes scale with
    ``beta_scale``, cross-species with ``cross_scale``.
    """
    s = cfg.simulate
    spec = GridSpec(int(s["nx"]), int(s["ny"]), float(s["dx"]))
    K, J, B = int(s["n_observed"]), int(s["n_gridded"]), int(cfg.basis_size)
    beta = np.zeros((K, J, B))
    taper = 0.6 ** np.arange(B)
    for k in range(K):
        for j in range(J):
            scale = s["beta_scale"] if j == k else s["cross_scale"]
            beta[k, j] = scale * taper
    coreg = None
    decay = None
    if s["coreg_diag"]:
        coreg = np.eye(K) * float(s["coreg_diag"])
        for i in range(1, K):
            coreg[i, 0] = float(s["coreg_offdiag"])
        eff_range = float(s["effective_range_fraction"]) * spec.diameter_km
        decay = 3.0 / eff_range
    return SimConfig(
        spec=spec,
        beta0=np.asarray(s["beta0"], dtype=float)[:K],
        beta=beta,
        nugget2=np.asarray(s["nugget2"], dtype=float)[:K],
        coreg=coreg,
        decay=decay,
        basis_degree=int(cfg.basis_degree),
        spectrum=FieldSpectrum(
            variance=float(s["field_variance"]),
            range_cells=float(s["field_range_cells"]),
            exponent=float(s["field_exponent"]),
        ),
        field_cross_corr=float(s["field_cross_corr"]),
        n_stations=int(s["n_stations"]),
        strata_mix=tuple(s["strata_mix"]),
        cadence=s["cadence"],
        days=int(s["days"]),
        seed=int(cfg.seed),
    )


#: The station-cell table ``fit`` writes beside ``design.json``.
CELL_TABLE = "station_cells.npy"


def _grid_paths(cfg: RunConfig) -> list:
    grids_dir = Path(cfg.grids_dir)
    paths = sorted(grids_dir.glob("grid_*.txt"))
    if not paths:
        raise FileNotFoundError(f"no grid files matching grid_*.txt under {grids_dir}")
    return paths


def _grid_index(cfg: RunConfig) -> tuple[GridSpec, dict]:
    """The run's grid spec and ``{(j, day): path}``, from the header of
    every grid file; a repeated (j, day) or a second grid spec is a
    ``ParseError`` naming both files."""
    spec = first = None
    index = {}
    for path in _grid_paths(cfg):
        file_spec, j, day = read_grid_header(path)
        if spec is None:
            spec, first = file_spec, path
        elif file_spec != spec:
            raise ParseError(f"{path}: grid {file_spec} differs from {spec} in {first}")
        held = index.setdefault((j, day), path)
        if held != path:
            raise ParseError(f"{path}: pollutant {j} day {day} is already in {held}")
    return spec, index


def load_fields(cfg: RunConfig) -> tuple[GridSpec, dict]:
    """Grid spec and every field under ``grids_dir`` keyed (j, day),
    log-transformed at ingest."""
    spec, index = _grid_index(cfg)
    return spec, {key: read_grid(path, log=True) for key, path in index.items()}


def _fit_batch_task(payload):
    batch, variant, priors, mcfg = payload
    return fit_batch_mcmc(batch, variant, priors, mcfg)


def _training_design(assemble, observations, train_days):
    """Standardized design and responses of the training-day observations,
    rows in observation order: what ``fit`` fits and interpolation
    conditions on.  ``assemble(observations)`` builds the raw design."""
    train_obs = observations[np.isin(observations.day, train_days)]
    return standardize(assemble(train_obs)), np.array(train_obs.value)


def fit_variant(
    cfg: RunConfig,
    variant: ModelVariant,
    spec: GridSpec,
    fields: dict,
    covs: dict,
    sites,
    observations,
    train_days,
    seed_key: tuple = (),
):
    """Assemble, standardize, and fit one variant on one training set.

    Returns (design, y, posteriors): a list of per-batch MCMC posteriors for
    spatial variants, or a single-element list holding the least-squares
    pseudo-posterior otherwise.
    """
    design, y = _training_design(
        lambda obs: assemble_design(variant, fields, covs, obs, sites), observations, train_days
    )
    if variant.spatial:
        batches = make_batches(design, y, train_days, cfg.batch_len)
        priors = cfg.priors_for(spec)
        payloads = [
            (
                batch,
                variant,
                priors,
                cfg.mcmc_config(derived_seed(cfg.seed, *seed_key, i)),
            )
            for i, batch in enumerate(batches)
        ]
        if cfg.jobs > 1:
            with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
                posteriors = list(pool.map(_fit_batch_task, payloads))
        else:
            posteriors = [_fit_batch_task(p) for p in payloads]
    else:
        batch = make_batches(design, y, train_days, len(train_days))[0]
        posteriors = [
            ols_posterior(batch, n_draws=cfg.n_ols_draws, seed=derived_seed(cfg.seed, *seed_key, 0))
        ]
    return design, y, posteriors


def _design_record(design: DesignMatrix, variant: ModelVariant, train_days, grids) -> dict:
    return {
        "variant": variant.name,
        "train_days": [int(d) for d in train_days],
        "grids": grids,
        "columns": [
            {"kind": c.kind, "k": c.k, "j": c.j, "b": c.b} for c in design.columns
        ],
        "col_mean": [float(v) for v in design.col_mean],
        "col_sd": [float(v) for v in design.col_sd],
        "standardized": design.standardized,
        "zero_variance": list(design.zero_variance),
    }


def _design_from_record(rec: dict) -> DesignMatrix:
    columns = tuple(
        ColumnMeta(kind=c["kind"], k=c["k"], j=c["j"], b=c["b"]) for c in rec["columns"]
    )
    p = len(columns)
    return DesignMatrix(
        X=np.zeros((0, p)),
        columns=columns,
        row_day=np.zeros(0, dtype=int),
        row_pollutant=np.zeros(0, dtype=int),
        row_x=np.zeros(0),
        row_y=np.zeros(0),
        col_mean=np.array(rec["col_mean"]),
        col_sd=np.array(rec["col_sd"]),
        standardized=bool(rec["standardized"]),
        zero_variance=tuple(rec["zero_variance"]),
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(cfg: RunConfig) -> list:
    """Write synthetic grid files (``grid_j<j>_d<day>.txt``, a text header
    over a binary float64 body), a station CSV, and the truth JSON."""
    sim = build_sim_config(cfg)
    truth = simulate(sim)
    out = Path(cfg.output_dir)
    grids = out / "grids"
    grids.mkdir(parents=True, exist_ok=True)
    artifacts = []
    for (j, day), field in sorted(truth.fields.items()):
        raw = GridField(field.spec, np.exp(field.values), j, day)
        path = grids / f"grid_j{j}_d{day:03d}.txt"
        write_grid(raw, path)
        artifacts.append(path)
    stations_path = out / "stations.csv"
    write_station_csv(truth.sites, truth.observations, stations_path, cfg.pollutants)
    artifacts.append(stations_path)
    truth_path = out / "truth.json"
    truth_json = {
        "seed": sim.seed,
        "beta0": sim.beta0.tolist(),
        "beta": sim.beta.tolist(),
        "nugget2": sim.nugget2.tolist(),
        "coreg": sim.coreg.tolist() if sim.coreg is not None else None,
        "decay": sim.decay,
        "days": sim.days,
        "cadence": sim.cadence,
        "n_stations": sim.n_stations,
        "grid": {"nx": sim.spec.nx, "ny": sim.spec.ny, "dx": sim.spec.dx},
    }
    truth_path.write_text(json.dumps(truth_json, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    artifacts.append(truth_path)
    return artifacts


def cmd_filter(cfg: RunConfig, input_path, lo: float, hi: float, output_path) -> list:
    """Band-pass filter one grid file, as read (no log transform), to the
    frequency magnitudes [lo, hi) in radians per cell, into a grid file."""
    field = read_grid(input_path, log=False)
    filtered = band_filter(field, FrequencyBand(lo, hi))
    write_grid(filtered, output_path)
    return [Path(output_path)]


def cmd_covariates(cfg: RunConfig, input_path, output_dir) -> list:
    """The spectral covariates of one grid file, as read (no log
    transform): one grid file per basis function b, named
    ``covariate_j<j>_b<b>_d<day>.txt``, whose header carries the input's
    pollutant j and day."""
    field = read_grid(input_path, log=False)
    basis = make_basis(cfg.basis_size, cfg.basis_degree)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    for b, values in enumerate(spectral_covariates(field, basis, center=cfg.center)):
        path = out / f"covariate_j{field.pollutant_id}_b{b}_d{field.day:03d}.txt"
        write_grid(GridField(field.spec, values, field.pollutant_id, field.day), path)
        artifacts.append(path)
    return artifacts


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
class _Season:
    """Every input of ``fit`` and ``predict`` but the grid values: the
    grid spec and index, the split of the season, the station file's site
    records, observations and count of dropped values, and the configured
    variant."""

    spec: GridSpec
    index: dict
    train_days: tuple
    test_days: tuple
    sites: np.recarray
    observations: np.recarray
    dropped: int
    variant: ModelVariant


def _season(cfg: RunConfig, read_stations) -> _Season:
    """The season of the grid headers, with the station file's contents
    from ``read_stations(cfg, spec)``, a (sites, observations, dropped)
    triple: :func:`_parsed_stations` in ``fit``, :func:`_recorded_stations`
    in ``predict``."""
    spec, index = _grid_index(cfg)
    train_days, test_days = split_season(sorted({day for _, day in index}))
    variant = variant_from_name(cfg.variant)
    return _Season(spec, index, train_days, test_days, *read_stations(cfg, spec), variant)


def _parsed_stations(cfg: RunConfig, spec: GridSpec):
    return parse_station_file(cfg.stations_file, spec, cfg.pollutants)


def _recorded_stations(cfg: RunConfig, spec: GridSpec):
    """The station file's contents as ``fit`` recorded them in
    ``output_dir`` (:func:`~specdown.fileio.read_station_records`), once
    the file's sha256 matches the recorded one: a station file changed
    since ``fit`` is an error that says to refit.  ``fit`` placed the
    stations on the grid, so ``spec`` is not read."""
    sites, observations, meta = read_station_records(cfg.output_dir)
    if _sha256(cfg.stations_file) != meta["sha256"]:
        raise ValueError(f"{cfg.stations_file} does not match the training data; refit")
    return sites, observations, meta["dropped"]


def _read_days(cfg: RunConfig, season: _Season, days) -> tuple[dict, dict]:
    """The fields of ``days``, log-transformed, and for SD variants their
    spectral covariates."""
    wanted = set(days)
    fields = {
        key: read_grid(path, log=True) for key, path in season.index.items() if key[1] in wanted
    }
    basis = make_basis(cfg.basis_size, cfg.basis_degree)
    covs = build_covariates(fields, basis, cfg.center) if season.variant.mean_kind == "SD" else {}
    return fields, covs


def _grid_digests(season: _Season) -> list:
    """sha256 of each training grid file, in (j, day) order, as
    ``design.json`` records them."""
    wanted = set(season.train_days)
    return [
        {"j": j, "day": day, "sha256": _sha256(path)}
        for (j, day), path in sorted(season.index.items())
        if day in wanted
    ]


def cmd_fit(cfg: RunConfig) -> list:
    """Fit the configured variant; one posterior file per batch, then
    ``design.json`` with the digests of the training grid files, the
    station-cell table, and the station records: the site and observation
    records parsed from the station file, with its digest
    (:func:`~specdown.fileio.write_station_records`)."""
    season = _season(cfg, _parsed_stations)
    digest = _sha256(cfg.stations_file)
    fields, covs = _read_days(cfg, season, season.train_days)
    design, y, posteriors = fit_variant(
        cfg,
        season.variant,
        season.spec,
        fields,
        covs,
        season.sites,
        season.observations,
        season.train_days,
    )
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    for i, post in enumerate(posteriors):
        artifacts.extend(write_posterior(post, out / f"batch_{i:03d}.csv"))
    rec_path = out / "design.json"
    rec = _design_record(design, season.variant, season.train_days, _grid_digests(season))
    rec_path.write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    artifacts.append(rec_path)
    table = CellTable.of_sites(season.variant.mean_kind, fields, covs, season.spec, season.sites)
    artifacts.append(write_cell_table(table, out / CELL_TABLE))
    # last: a fit that fails before here leaves the earlier fit's records,
    # whose digest makes predict refuse the station file this fit parsed
    records = write_station_records(season.sites, season.observations, season.dropped, digest, out)
    return artifacts + records


def cmd_combine(cfg: RunConfig) -> list:
    """Consensus-combine the batch posteriors into ``combined.csv`` and its
    sidecar.  A lone batch is its own consensus, so its combined files equal
    its batch files byte for byte."""
    out = Path(cfg.output_dir)
    paths = sorted(out.glob("batch_*.csv"))
    if not paths:
        raise FileNotFoundError(f"no batch posteriors under {out}")
    posteriors = [read_posterior(p) for p in paths]
    return write_posterior(consensus_combine(posteriors), out / "combined.csv")


def targets_for(sites, days, mode: str, observations=None) -> np.recarray:
    """Prediction targets on ``days`` at the site records ``sites``, in the
    order that fixes the random stream of
    :func:`~specdown.evaluate.predict`.

    Without ``observations``: every station and each pollutant it measures,
    ordered by day (as given), site id, then pollutant.  With
    ``observations``: one target per observation on one of ``days``, in
    observation order.
    """
    if observations is None:
        ids, held = site_measures(sites)
        by_id = np.argsort(sites.site_id)
        row, column = np.nonzero(held[by_id])
        days = np.asarray(days, dtype=int)
        row, pollutant = by_id[np.tile(row, days.size)], np.tile(ids[column], days.size)
        day = np.repeat(days, column.size)
        site_id, x, y = sites.site_id[row], sites.x[row], sites.y[row]
    else:
        rows = observations[np.isin(observations.day, days)]
        site_id, pollutant, day = rows.site_id, rows.pollutant_id, rows.day
        x, y = station_coords(sites, site_id)
    return prediction_targets(x, y, pollutant, day, mode, site_id)


def _interpolate(posteriors, sites, ctx, rng, max_kriging_draws, observations=None):
    """Interpolation records of each posterior in turn, on its days: at
    every station, or with ``observations`` at each of theirs (see
    :func:`targets_for`).  One random stream runs through them all."""
    results = []
    for post in posteriors:
        targets = targets_for(sites, post.days, "interpolation", observations)
        results.append(predict(post, targets, ctx, rng, max_kriging_draws))
    return np.concatenate(results).view(np.recarray)


def _interpolation_context(season: _Season, out: Path, rec: dict) -> PredictionContext:
    """What interpolation predicts from, read from ``fit``'s outputs.

    Training grid files whose digests differ from ``design.json``'s, a
    missing station-cell table, or one of other training days, mean the
    inputs changed since the fit: an error that says to refit.  A spatial
    posterior conditions on the training data, so its design is rebuilt
    from the table and the observations ``fit`` recorded, as ``fit`` built
    it, and must match ``design.json``.
    """
    grids = _grid_digests(season)
    stale = f"{out / 'design.json'} does not match the training data; refit"
    if rec.get("grids") != grids:
        raise ValueError(stale)
    path = out / CELL_TABLE
    if not path.is_file():
        raise FileNotFoundError(f"{path} is missing; refit")
    table = read_cell_table(path)
    if sorted(table.sources) != [(g["j"], g["day"]) for g in grids]:
        raise ValueError(f"{path} does not match the training data; refit")
    variant, spec, train_days = season.variant, season.spec, season.train_days
    if not variant.spatial:
        return PredictionContext(_design_from_record(rec), spec, train_days, table)
    n_gridded = max(j for j, _ in table.sources) + 1
    design, y = _training_design(
        lambda obs: table_design(variant, table, n_gridded, spec, obs, season.sites),
        season.observations,
        train_days,
    )
    if _design_record(design, variant, train_days, grids) != rec:
        raise ValueError(stale)
    return PredictionContext(design, spec, train_days, table, y)


def cmd_predict(cfg: RunConfig, mode: str = "forecast") -> list:
    """Predict at every station for the test (forecast) or training
    (interpolation) days and write the predictions CSV.

    Neither mode parses the station file: both check its sha256 against
    the one ``fit`` recorded and load the records ``fit`` saved
    (:func:`_recorded_stations`), so a station file changed since ``fit``
    is a ``ValueError`` and missing records a ``FileNotFoundError``, each
    saying to refit.  A forecast reads the test-day grids and the
    standardization from ``design.json``.  Interpolation reads no grid
    value: it checks the training grid files against the digests in
    ``design.json`` and takes its design rows from the station-cell table
    that ``fit`` wrote (see :func:`_interpolation_context`).  A station whose
    cell the table does not hold is a ``ValueError`` that says to refit.
    """
    if mode not in ("forecast", "interpolation"):
        raise ValueError(f"mode must be forecast or interpolation, got {mode!r}")
    season = _season(cfg, _recorded_stations)
    out = Path(cfg.output_dir)
    rec = json.loads((out / "design.json").read_text(encoding="utf-8"))
    rng = derive_rng(cfg.seed, 9000)
    if mode == "forecast":
        fields, covs = _read_days(cfg, season, season.test_days)
        table = CellTable.of_sites(season.variant.mean_kind, fields, covs, season.spec, season.sites)
        design = _design_from_record(rec)
        ctx = PredictionContext(design, season.spec, season.train_days, table)
        combined = read_posterior(out / "combined.csv")
        targets = targets_for(season.sites, season.test_days, "forecast")
        results = predict(combined, targets, ctx, rng, cfg.max_kriging_draws)
    else:
        ctx = _interpolation_context(season, out, rec)
        paths = sorted(out.glob("batch_*.csv"))
        if not paths:
            raise FileNotFoundError(f"no batch posteriors under {out}")
        posteriors = (read_posterior(p) for p in paths)
        results = _interpolate(posteriors, season.sites, ctx, rng, cfg.max_kriging_draws)
    path = out / f"predictions_{mode}.csv"
    write_predictions_csv(results, path, cfg.pollutants)
    return [path]


def run_cv_protocol(cfg: RunConfig, spec, fields, sites, observations):
    """The model-comparison protocol on one dataset: the site records
    ``sites`` and their observations.

    Stations are split into stratified folds.  Per variant and fold the model
    trains on the other folds' training-day observations.  Interpolation is
    scored at the held-out stations over the training days, per batch
    posterior (spatial variants condition on that fold's training data);
    forecasting is scored at all stations over the test days using the
    consensus-combined posterior.  Every variant of ``ALL_VARIANTS`` is
    compared.
    The season is the set of grid days, as for ``fit`` and ``predict``.
    Returns (interpolation cards, forecast cards).
    """
    train_days, test_days = split_season(sorted({day for _, day in fields}))
    basis = make_basis(cfg.basis_size, cfg.basis_degree)
    covs = build_covariates(fields, basis, cfg.center)
    tables = {kind: CellTable.of_sites(kind, fields, covs, spec, sites) for kind in ("LD", "SD")}
    folds = cv_split(sites, cfg.folds, seed=derived_seed(cfg.seed, 77))
    observed_raw = observations.copy()
    observed_raw.value = np.exp(observations.value)
    forecast_targets = targets_for(sites, test_days, "forecast", observations)

    interp_cards, forecast_cards = [], []
    for vi, variant in enumerate(ALL_VARIANTS):
        for fold in range(cfg.folds):
            heldout = np.isin(observations.site_id, sites.site_id[folds == fold])
            train_obs = observations[~heldout]
            design, y, posteriors = fit_variant(
                cfg,
                variant,
                spec,
                fields,
                covs,
                sites,
                train_obs,
                train_days,
                seed_key=(vi, fold),
            )
            ctx = PredictionContext(design, spec, train_days, tables[variant.mean_kind], y)
            rng = derive_rng(cfg.seed, 500, vi, fold)

            # interpolation at held-out stations, training days with data
            interp_results = _interpolate(
                posteriors, sites, ctx, rng, cfg.max_kriging_draws, observations[heldout]
            )
            if len(interp_results):
                interp_cards.append(
                    score(interp_results, observed_raw, variant=variant.name, fold=fold)
                )

            # forecast at all stations over the test days with data
            if len(forecast_targets):
                forecast_results = predict(
                    consensus_combine(posteriors), forecast_targets, ctx, rng, cfg.max_kriging_draws
                )
                forecast_cards.append(
                    score(forecast_results, observed_raw, variant=variant.name, fold=fold)
                )
    return interp_cards, forecast_cards


def cmd_cv(cfg: RunConfig) -> list:
    spec, fields = load_fields(cfg)
    sites, observations, _ = parse_station_file(cfg.stations_file, spec, cfg.pollutants)
    interp, forecast = run_cv_protocol(cfg, spec, fields, sites, observations)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    p1, p2 = out / "scorecard_interpolation.csv", out / "scorecard_forecast.csv"
    write_scorecard_csv(interp, p1, cfg.pollutants)
    write_scorecard_csv(forecast, p2, cfg.pollutants)
    return [p1, p2]


def cmd_coherence(cfg: RunConfig) -> list:
    """Coherence curves of the combined posterior; reads the grid headers
    only, for the grid spacing."""
    variant = variant_from_name(cfg.variant)
    if variant.mean_kind != "SD":
        raise ValueError("coherence curves require an SD variant")
    out = Path(cfg.output_dir)
    combined = read_posterior(out / "combined.csv")
    rec = json.loads((out / "design.json").read_text(encoding="utf-8"))
    design = _design_from_record(rec)
    pairs = sorted(
        {(c.k, c.j) for c in design.columns if c.kind == "covariate"}
    )
    basis = make_basis(cfg.basis_size, cfg.basis_degree)
    dx = _grid_index(cfg)[0].dx
    curves = [coherence_curve(combined, k, j, basis, design=design, dx=dx) for k, j in pairs]
    path = out / "coherence.csv"
    write_coherence_csv(curves, path)
    return [path]


def cmd_aggregate(cfg: RunConfig, predictions_path) -> list:
    """Quadrant-by-pollutant means of a predictions CSV."""
    rows = read_predictions_csv(predictions_path, cfg.pollutants)
    means = aggregate_means(rows, _grid_index(cfg)[0])
    out = Path(cfg.output_dir) / "aggregate.csv"
    write_aggregate_csv(means, out, cfg.pollutants)
    return [out]
