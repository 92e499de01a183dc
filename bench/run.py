"""Benchmark of the specdown pipeline: three seeded workloads, end to end.

Usage (from the repository root)::

    python3 bench/run.py --workload desk --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all            # desk, wide and cv in turn

``BENCHMARK.json`` lists desk and wide only, so that the runs its time budget
allows can each be long: on a shared host, a run's timings settle only over
tens of seconds.  cv runs when asked for by name (or with ``all``); the
traced run of either listed workload still covers its layers, process pools
included, through the probe pipeline.

Each run generates its inputs with ``specdown simulate`` from ``--seed``,
drives the CLI stages in-process (``specdown.cli.main``), checks the outputs,
and prints one line per metric followed, as the last line, by a JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` a separate traced run
reports per-layer costs (see ``bench/layers.json`` for what each one should
move).  The exit code is nonzero when a correctness check fails.

Runs read and write only inside the repository: scratch data goes to
``.bench_work/`` and a copy of each result, with run metadata, to
``.bench_work/results/``, which ``bench/summarize.py`` aggregates over seeds.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: timings must not depend on the thread count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH_DIR))

import numpy as np

from ess import group_ess
from trace import Spans, Tracer

#: Input generation is repeated at least this often and for at least this
#: long per run; setup_s is the median.
SETUP_REPS = 3
SETUP_SECONDS = 2.0

#: An untraced run makes one warm-up pass, then timed passes until its
#: seconds are spent, and never fewer than this many.  Each end-to-end time
#: is the median over the timed passes, so a pass is kept to a few seconds:
#: a shared host's speed changes from second to second, and a median over
#: many short passes is steadier from run to run than one long pass.
MIN_TIMED_PASSES = 3

PIPELINE_STAGES = (
    ("fit", ["fit"]),
    ("combine", ["combine"]),
    ("predict_forecast", ["predict", "--mode", "forecast"]),
    ("predict_interpolation", ["predict", "--mode", "interpolation"]),
    ("coherence", ["coherence"]),
)
ALL_STAGES = tuple(name for name, _ in PIPELINE_STAGES) + ("cv",)

#: Chain of the traced sampler probe, long enough for its ESS estimates.
PROBE_MCMC = {"iterations": 800, "burnin": 300, "thin": 2}

WORKLOADS = {
    "desk": {
        "config": {
            "variant": "Spatial SD + Cross",
            "jobs": 1,
            # short, so that a run holds many passes
            "mcmc": {"iterations": 120, "burnin": 60, "thin": 1},
        },
        "stages": PIPELINE_STAGES,
    },
    "wide": {
        "config": {
            "variant": "SD + Cross",
            "jobs": 1,
            "simulate": {
                "nx": 128,
                "ny": 128,
                "n_observed": 4,
                "n_gridded": 4,
                "n_stations": 400,
                "days": 12,
                "beta0": [1.0, 0.5, 0.3, 0.2],
                "nugget2": [0.04, 0.04, 0.04, 0.04],
                "coreg_diag": 0.0,  # independent errors: the model wide fits
            },
        },
        "stages": PIPELINE_STAGES,
    },
    "cv": {
        "config": {
            "jobs": 2,
            "folds": 2,
            "mcmc": {"iterations": 60, "burnin": 30, "thin": 1},
        },
        "stages": (("cv", ["cv"]),),
    },
}

#: Traced fallback pipeline: desk data, every stage, a very short chain.
PROBE_CONFIG = {
    "variant": "Spatial SD + Cross",
    "jobs": 2,
    "folds": 2,
    "mcmc": {"iterations": 20, "burnin": 10, "thin": 1},
}
PROBE_LOO_ITERATIONS = 200

# Correctness tolerances, wide enough for the seed commit on seeds 1-40 and
# narrow enough to catch a sampler that drifts to its prior.  Forecast
# coverage varies widely from seed to seed: the 216 targets share three days
# of spatially correlated residuals, and the short desk chain leaves 60 draws
# per interval; on seeds 1-40 it ran 0.833-0.977, median 0.905.  The nugget
# band is wide because every batch applies the full nugget prior, which
# consensus averaging then counts once per batch.
DESK_COVERAGE_BAND = (0.78, 0.99)
DESK_NUGGET_FACTOR = 6.0  # combined posterior median within x/6 .. x*6 of truth
DESK_DECAY_FACTOR = 2.5
WIDE_COEF_MAX_Z = 5.0  # |estimate - truth| / posterior sd, per coefficient
WIDE_COEF_RMS_Z = 1.5
N_VARIANTS = 8

END_TO_END_UNITS = {
    "setup_s": "s",
    "total_s": "s",
    "fit_s": "s",
    "predict_s": "s",
    "peak_rss_mb": "MB",
}


def import_specdown():
    """Import the package from this checkout's ``src``, nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import specdown
        from specdown import cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import specdown from {src}: {exc}")
    if Path(specdown.__file__).resolve().parent.parent != src:
        raise SystemExit(f"bench: specdown imported from {specdown.__file__}, not {src}")
    return specdown, cli


specdown, cli = import_specdown()
from specdown import evaluate, fileio, filters, grid, inference, pipeline, stations, synthetic  # noqa: E402


# ---------------------------------------------------------------------------
# Running CLI stages
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Stage:
    name: str
    seconds: float
    ok: bool
    error: str | None
    artifacts: list


def run_stage(name, cfg_path, args, seed=None) -> Stage:
    """One CLI invocation, in-process; a failure is recorded, never raised."""
    argv = ["--config", str(cfg_path)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    argv += list(args)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
    seconds = time.perf_counter() - t0
    artifacts = [Path(line) for line in out.getvalue().splitlines() if line.strip()]
    error = None
    if code != 0:
        try:
            error = json.loads(err.getvalue().strip().splitlines()[-1])["error"]
        except (IndexError, ValueError, KeyError):
            error = f"exit {code}"
    elif not artifacts or not all(p.is_file() for p in artifacts):
        error = "MissingArtifact"
    return Stage(name, seconds, error is None, error, artifacts)


def write_config(workdir: Path, overrides: dict, data_dir: Path | None = None) -> Path:
    """Config whose outputs go to ``workdir`` and inputs live in ``data_dir``."""
    data_dir = data_dir or workdir
    cfg = {
        "grids_dir": str(data_dir / "grids"),
        "stations_file": str(data_dir / "stations.csv"),
        "output_dir": str(workdir),
    }
    cfg.update(overrides)
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def hash_fit_artifacts(stage: Stage) -> str:
    h = hashlib.sha256()
    for path in sorted(stage.artifacts):
        related = sorted(path.parent.glob(path.stem + ".*")) + sorted(
            path.parent.glob(path.stem + "_*")
        )
        for p in sorted(set(related)):
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def posterior_groups(post):
    """Column indices of the parameter groups a posterior carries."""
    b, K, P = post.n_beta, post.n_pollutants, post.draws.shape[1]
    groups = {"beta": range(b), "nugget": range(b, b + K)}
    if post.has_spatial:
        groups["coreg"] = range(b + K, P - 1)
        groups["decay"] = [P - 1]
    return groups


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def pass_metrics(stages: dict, spans: Spans) -> dict:
    """End-to-end figures of one pass over a workload's stages.

    fit_s and predict_s are stage times where the workload has those stages;
    inside ``cv`` they are the time spent in ``fit_variant`` and ``predict``.
    """
    total = sum(s.seconds for s in stages.values())
    if "fit" in stages:
        fit_s = stages["fit"].seconds
        predict_s = stages["predict_forecast"].seconds + stages["predict_interpolation"].seconds
    else:
        fit_s = spans.seconds.get("pipeline.fit_variant", math.nan)
        predict_s = spans.seconds.get("evaluate.predict", math.nan)
    return {"total_s": total, "fit_s": fit_s, "predict_s": predict_s}


def install_light(tracer: Tracer):
    """The few wrappers every run needs: fit time, predict time and
    batch-fit failures.  Tens of calls per run."""
    tracer.wrap(pipeline, "fit_variant")
    tracer.wrap(evaluate, "predict", key=_predict_mode, items=_predict_targets)
    tracer.wrap(inference, "fit_batch_mcmc")


def _predict_mode(args, kwargs):
    targets = args[1] if len(args) > 1 else kwargs["targets"]
    return targets[0].mode if len(targets) else "none"


def _predict_targets(args, kwargs):
    return len(args[1] if len(args) > 1 else kwargs["targets"])


def install_full(tracer: Tracer):
    install_light(tracer)
    wraps = [
        (synthetic, "simulate_fields"),
        (synthetic, "simulate_stations"),
        (fileio, "read_grid"),
        (fileio, "parse_station_file"),
        (fileio, "read_posterior"),
        (fileio, "write_posterior"),
        (grid, "dft_forward"),
        (grid, "dft_inverse"),
        (filters, "spectral_covariates"),
        (stations, "assemble_design"),
        (stations, "standardize"),
        (inference, "consensus_combine"),
        (inference, "ols_posterior"),
        (evaluate, "score"),
        (evaluate, "coherence_curve"),
        (pipeline, "load_fields"),
        (pipeline, "build_covariates"),
    ]
    for module, attr in wraps:
        tracer.wrap(module, attr)
    tracer.wrap(pipeline, "ProcessPoolExecutor", "pipeline.pool_starts")


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def _read_raw_observations(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    out = {}
    for line in lines:
        sid, _, _, day, pol, value = line.split(",")
        out[(sid, day, pol)] = float(value)
    return out


def check_desk(workdir: Path) -> dict:
    """Forecast coverage and recovery of the nugget and decay."""
    observed = _read_raw_observations(workdir / "stations.csv")
    hits = total = 0
    for line in (workdir / "predictions_forecast.csv").read_text(encoding="utf-8").splitlines()[1:]:
        sid, _, _, day, pol, _, lo, hi = line.split(",")
        if (sid, day, pol) in observed:
            total += 1
            hits += float(lo) <= observed[(sid, day, pol)] <= float(hi)
    coverage = hits / total if total else math.nan
    truth = json.loads((workdir / "truth.json").read_text(encoding="utf-8"))
    combined = fileio.read_posterior(workdir / "combined.csv")
    nugget = np.median(combined.nugget2_draws(), axis=0)
    decay = float(np.median(combined.decay_draws()))
    nugget_ratio = nugget / np.asarray(truth["nugget2"][: nugget.size])
    decay_ratio = decay / truth["decay"]
    lo, hi = DESK_COVERAGE_BAND
    return {
        f"forecast coverage {coverage:.3f} in [{lo}, {hi}]": lo <= coverage <= hi,
        f"nugget / truth {np.round(nugget_ratio, 3).tolist()} within x{DESK_NUGGET_FACTOR}": bool(
            np.all(np.abs(np.log(nugget_ratio)) <= math.log(DESK_NUGGET_FACTOR))
        ),
        f"decay / truth {decay_ratio:.3f} within x{DESK_DECAY_FACTOR}": abs(math.log(decay_ratio))
        <= math.log(DESK_DECAY_FACTOR),
    }


def check_wide(workdir: Path) -> dict:
    """OLS coefficients, mapped to the raw scale, against the simulator's."""
    record = json.loads((workdir / "design.json").read_text(encoding="utf-8"))
    truth = json.loads((workdir / "truth.json").read_text(encoding="utf-8"))
    columns = [SimpleNamespace(**c) for c in record["columns"]]
    design = SimpleNamespace(
        p=len(columns),
        columns=columns,
        col_mean=np.asarray(record["col_mean"]),
        col_sd=np.asarray(record["col_sd"]),
    )
    sim = SimpleNamespace(beta0=np.asarray(truth["beta0"]), beta=np.asarray(truth["beta"]))
    true_coef = synthetic.true_raw_coef(SimpleNamespace(config=sim), design)
    draws = stations.coef_to_raw(design, fileio.read_posterior(workdir / "combined.csv").beta_draws())
    z = (draws.mean(axis=0) - true_coef) / draws.std(axis=0)
    max_z, rms_z = float(np.abs(z).max()), float(np.sqrt(np.mean(z**2)))
    return {
        f"OLS coefficient max |z| {max_z:.2f} <= {WIDE_COEF_MAX_Z}": max_z <= WIDE_COEF_MAX_Z,
        f"OLS coefficient rms z {rms_z:.2f} <= {WIDE_COEF_RMS_Z}": rms_z <= WIDE_COEF_RMS_Z,
    }


def check_cv(workdir: Path) -> dict:
    """Both scorecards hold a finite RMSE and correlation for every variant."""
    out = {}
    for mode in ("interpolation", "forecast"):
        rows = (workdir / f"scorecard_{mode}.csv").read_text(encoding="utf-8").splitlines()[1:]
        finite = 0
        for row in rows:
            cells = row.split(",")[1:]
            values = [float(v) for c in cells for v in c.rstrip(")").split("(")] if cells else []
            finite += bool(values) and all(math.isfinite(v) for v in values)
        out[f"{mode} scorecard: {finite}/{N_VARIANTS} variants finite"] = (
            len(rows) == N_VARIANTS and finite == N_VARIANTS
        )
    return out


WORKLOAD_CHECKS = {"desk": check_desk, "wide": check_wide, "cv": check_cv}


def check_hashes(workload: str, seed: int, hashes: list) -> dict:
    """Fit artifacts must not vary between passes or runs of one seed.

    Earlier runs are matched on the workload, the seed, and the content of
    the workload's config and of the package source, so an edit to either
    starts a new record.
    """
    if not hashes:
        return {"fit artifacts hashed": False}
    store = WORK / "fit_hashes.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    h = hashlib.sha256(json.dumps(WORKLOADS[workload], sort_keys=True).encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.read_bytes())
    key = f"{workload}:{seed}:{h.hexdigest()[:16]}"
    previous = known.setdefault(key, hashes[0])
    store.write_text(json.dumps(known, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {
        f"fit artifacts identical across {len(hashes)} pass(es) and earlier runs of seed {seed}": all(
            h == previous for h in hashes
        )
    }


# ---------------------------------------------------------------------------
# Traced probes
# ---------------------------------------------------------------------------


def sampler_probe(cfg_path: Path) -> dict:
    """Per-block cost, ESS and acceptance of batch 0 under the probe chain.

    Block costs are leave-one-out differences of ms/iteration.  The decay
    and mixing blocks are switched off one at a time from the full sampler;
    w, beta and nugget are measured with decay and mixing held, because w
    held at 0 while the mixing matrix moves drives it toward singular.
    """
    cfg = fileio.RunConfig.from_json(cfg_path)
    spec, fields = pipeline.load_fields(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the short season's split warns
        sites, observations, _ = fileio.parse_station_file(cfg.stations_file, spec, cfg.pollutants)
        train_days, _ = evaluate.split_season(sorted({f.day for f in fields.values()}))
    variant = stations.variant_from_name(cfg.variant)
    basis = filters.make_basis(cfg.basis_size, cfg.basis_degree)
    covs = pipeline.build_covariates(fields, basis, cfg.center)
    train = set(train_days)
    train_obs = [o for o in observations if o.day in train]
    design = stations.standardize(stations.assemble_design(variant, fields, covs, train_obs, sites))
    y = np.array([o.value for o in train_obs])
    batch = inference.make_batches(design, y, train_days, cfg.batch_len)[0]
    priors = cfg.priors_for(spec)
    full = cfg.mcmc_config(pipeline.derived_seed(cfg.seed, 0))

    def ms_per_iter(mcfg):
        t0 = time.perf_counter()
        post = inference.fit_batch_mcmc(batch, variant, priors, mcfg)
        return 1e3 * (time.perf_counter() - t0) / mcfg.iterations, post

    chain_ms, post = ms_per_iter(full)
    chain_s = chain_ms * full.iterations / 1e3
    n = PROBE_LOO_ITERATIONS
    short = dataclasses.replace(full, iterations=n, burnin=n // 3)
    held = dataclasses.replace(short, update_decay=False, update_coreg=False)
    variants = {
        "full": short,
        "no_decay": dataclasses.replace(short, update_decay=False),
        "no_coreg": dataclasses.replace(short, update_coreg=False),
        "held": held,
        "held_no_w": dataclasses.replace(held, update_w=False),
        "held_no_beta": dataclasses.replace(held, update_beta=False),
        "held_no_nugget": dataclasses.replace(held, update_nugget=False),
    }
    times = {name: [] for name in variants}
    for _ in range(3):  # interleaved rounds; keep each configuration's fastest
        for name, mcfg in variants.items():
            times[name].append(ms_per_iter(mcfg)[0])
    t = {name: min(v) for name, v in times.items()}
    groups = posterior_groups(post)
    coreg_accept = [v for k, v in post.acceptance.items() if k.startswith("coreg")]
    out = {
        "inference.ms_per_iter": chain_ms,
        "inference.w_ms_per_iter": t["held"] - t["held_no_w"],
        "inference.beta_ms_per_iter": t["held"] - t["held_no_beta"],
        "inference.nugget_ms_per_iter": t["held"] - t["held_no_nugget"],
        "inference.decay_ms_per_iter": t["full"] - t["no_decay"],
        "inference.coreg_ms_per_iter": t["full"] - t["no_coreg"],
        "inference.accept_decay": post.acceptance["decay"],
        "inference.accept_coreg_min": min(coreg_accept),
    }
    for group, cols in groups.items():
        out[f"inference.ess_{group}"] = group_ess([post], cols)
    out["inference.ess_per_s_min"] = min(group_ess([post], cols) for cols in groups.values()) / chain_s
    return out


def layer_metrics(stages: dict, work: Spans, probe: Spans, probe_stages: dict, sampler: dict) -> dict:
    """Per-layer figures of a traced run.

    Counts come from the workload pass.  Per-call costs come from the
    workload pass where it calls the function, else from the probe pipeline
    (desk data, every stage, short chain), so each is a measured time.
    """

    def per_call(name, scale=1e3):
        value = work.per_call(name)
        if value is None:
            value = probe.per_call(name)
        return scale * value if value is not None else math.nan

    def per_target_ms(mode):
        key = ("evaluate.predict", mode)
        value = work.per_item(key)
        return 1e3 * (value if value is not None else probe.per_item(key))

    dft_calls = work.calls.get("grid.dft_forward", 0) + work.calls.get("grid.dft_inverse", 0)
    out = dict(sampler)
    out.update(
        {
            "inference.consensus_combine_ms": per_call("inference.consensus_combine"),
            "inference.ols_posterior_ms": per_call("inference.ols_posterior"),
            "evaluate.predict_interpolation_ms_per_target": per_target_ms("interpolation"),
            "evaluate.predict_forecast_ms_per_target": per_target_ms("forecast"),
            "evaluate.predict_targets": work.items.get("evaluate.predict", 0),
            "evaluate.score_ms": per_call("evaluate.score"),
            "evaluate.coherence_curve_ms": per_call("evaluate.coherence_curve"),
            "fileio.read_grid_ms": per_call("fileio.read_grid"),
            "fileio.read_grid_calls": work.calls.get("fileio.read_grid", 0),
            "fileio.parse_station_file_s": per_call("fileio.parse_station_file", 1.0),
            "fileio.read_posterior_ms": per_call("fileio.read_posterior"),
            "fileio.write_posterior_ms": per_call("fileio.write_posterior"),
            "fileio.artifact_bytes": sum(
                p.stat().st_size for s in stages.values() for p in s.artifacts if p.is_file()
            ),
            "grid.dft_forward_ms": per_call("grid.dft_forward"),
            "grid.dft_inverse_ms": per_call("grid.dft_inverse"),
            "filters.spectral_covariates_ms": per_call("filters.spectral_covariates"),
            "filters.dft_calls_per_field": dft_calls / max(work.calls.get("filters.spectral_covariates", 0), 1),
            "stations.assemble_design_s": per_call("stations.assemble_design", 1.0),
            "stations.standardize_s": per_call("stations.standardize", 1.0),
            "pipeline.load_fields_calls": work.calls.get("pipeline.load_fields", 0),
            "pipeline.build_covariates_calls": work.calls.get("pipeline.build_covariates", 0),
            "pipeline.pool_starts": work.calls.get("pipeline.pool_starts")
            or probe.calls.get("pipeline.pool_starts", 0),
            "synthetic.simulate_fields_s": per_call("synthetic.simulate_fields", 1.0),
            "synthetic.simulate_stations_s": per_call("synthetic.simulate_stations", 1.0),
        }
    )
    for name in ALL_STAGES:
        stage = stages.get(name) or probe_stages[name]
        out[f"pipeline.cmd_{name}_s"] = stage.seconds
    return out


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run_passes(spec, cfg_path, seconds, tracer, trace):
    """Passes over the stages: a traced run makes one; an untraced run makes
    a warm-up pass, then timed passes until ``seconds`` have elapsed since
    the warm-up ended, and at least ``MIN_TIMED_PASSES`` of them."""
    passes = []
    want = 1 if trace else 1 + MIN_TIMED_PASSES
    start = None
    while len(passes) < want or (not trace and time.perf_counter() - start < seconds):
        tracer.spans = Spans()
        stages = {}
        fit_hash = None
        for name, args in spec["stages"]:
            stage = run_stage(name, cfg_path, args)
            stages[name] = stage
            if stage.ok and name in ("fit", "cv"):
                fit_hash = hash_fit_artifacts(stage)
        passes.append((stages, tracer.spans, fit_hash))
        if start is None:
            start = time.perf_counter()
    return passes


def run_probe_pipeline(tracer: Tracer, data_dir: Path, workdir: Path):
    """Every stage once on desk data with a short chain and jobs=2, traced
    apart."""
    cfg_path = write_config(workdir, PROBE_CONFIG, data_dir)
    tracer.spans = Spans()
    stages = {name: run_stage(name, cfg_path, args) for name, args in PIPELINE_STAGES + (("cv", ["cv"]),)}
    return stages, tracer.spans


def load_layers() -> list:
    return json.loads((BENCH_DIR / "layers.json").read_text(encoding="utf-8"))


class Accounts:
    """Operations attempted and failed: stages, probes and batch fits."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def add(self, stages, spans: Spans):
        stages = list(stages)
        self.attempted += len(stages)
        self.failures.extend((s.name, s.error) for s in stages if not s.ok)
        self.add_batches(spans)

    def add_batches(self, spans: Spans):
        batch_failures = [f for f in spans.failures if f[0] == "inference.fit_batch_mcmc"]
        self.attempted += spans.calls.get("inference.fit_batch_mcmc", 0) + len(batch_failures)
        self.failures.extend(batch_failures)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[workload]
    workdir = fresh_dir(WORK / workload)
    cfg_path = write_config(workdir, spec["config"])
    tracer = Tracer()
    (install_full if trace else install_light)(tracer)
    accounts = Accounts()
    try:
        setup_spans = tracer.spans = Spans()
        setups = []
        setup_start = time.perf_counter()
        while not setups or (
            not trace
            and (len(setups) < SETUP_REPS or time.perf_counter() - setup_start < SETUP_SECONDS)
        ):
            setups.append(run_stage("simulate", cfg_path, ["simulate"], seed=seed))
        accounts.add(setups, setup_spans)
        passes = run_passes(spec, cfg_path, seconds, tracer, trace)
        for stages, spans, _ in passes:
            accounts.add(stages.values(), spans)
        last_stages = passes[-1][0]

        checks = {}
        if all(s.ok for s in last_stages.values()):
            try:
                checks.update(WORKLOAD_CHECKS[workload](workdir))
            except (OSError, ValueError, KeyError) as exc:
                checks[f"output check raised {type(exc).__name__}: {exc}"] = False
        checks.update(check_hashes(workload, seed, [h for _, _, h in passes if h is not None]))

        timed = passes if trace else passes[1:]  # drop the warm-up pass
        per_pass = [pass_metrics(stages, spans) for stages, spans, _ in timed]
        e2e = {"setup_s": statistics.median(s.seconds for s in setups)}
        for key in ("total_s", "fit_s", "predict_s"):
            e2e[key] = statistics.median(p[key] for p in per_pass)
        e2e["peak_rss_mb"] = peak_rss_mb()

        if trace:
            work_spans = passes[0][1]
            for name in ("synthetic.simulate_fields", "synthetic.simulate_stations"):
                work_spans.calls[name] = setup_spans.calls.get(name, 0)
                work_spans.seconds[name] = setup_spans.seconds.get(name, 0.0)
            # Layers this workload skips are measured on desk-sized data.
            data_dir = workdir
            if workload != "desk":
                data_dir = fresh_dir(workdir / "probe_data")
                tracer.spans = Spans()
                setup = run_stage("simulate", write_config(data_dir, {}), ["simulate"], seed=seed)
                accounts.add([setup], tracer.spans)
            sampler_spans = tracer.spans = Spans()
            sampler_cfg = write_config(
                fresh_dir(workdir / "probe_sampler"), {"mcmc": PROBE_MCMC}, data_dir
            )
            accounts.attempted += 1
            try:
                sampler = sampler_probe(sampler_cfg)
            except Exception as exc:  # a program defect is reported, not raised
                accounts.failures.append(("sampler_probe", type(exc).__name__))
                sampler = {}
            accounts.add_batches(sampler_spans)
            probe_stages, probe_spans = run_probe_pipeline(
                tracer, data_dir, fresh_dir(workdir / "probe_pipeline")
            )
            accounts.add(probe_stages.values(), probe_spans)
            values = layer_metrics(last_stages, work_spans, probe_spans, probe_stages, sampler)
            units = {m["name"]: m["unit"] for m in load_layers()}
            metrics = {k: {"value": values.get(k, math.nan), "unit": u} for k, u in units.items()}
        else:
            metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    finally:
        tracer.uninstall()
    checks["every stage, probe and batch fit ran without error"] = not accounts.failures

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(timed),
        "stage_s": {name: statistics.median(p[0][name].seconds for p in timed) for name in last_stages},
        "pass_stage_s": [{name: s.seconds for name, s in p[0].items()} for p in passes],
        "total_s": e2e["total_s"],
        "checks": checks,
        "failures": accounts.failures,
        "attempted": accounts.attempted,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# Metadata and output
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def run_metadata(seed: int) -> dict:
    import scipy

    return {
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(),
    }


def _finite_or_none(value):
    return value if isinstance(value, int) or math.isfinite(value) else None


def report(result: dict, metadata: dict) -> bool:
    """Print the human-readable lines and the final JSON; return correctness."""
    correct = all(result["checks"].values())
    failed = len(result["failures"])
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} passes={result['passes']}")
    print("# metadata " + json.dumps(metadata, sort_keys=True))
    for name, seconds in result["stage_s"].items():
        print(f"stage {name:<24} {seconds:10.4f} s (median of {result['passes']} pass(es))")
    for name, m in result["metrics"].items():
        print(f"{name:<46} {m['value']:14.6g} {m['unit']}")
    print(f"{'failed_frac':<46} {failed / max(result['attempted'], 1):14.6g} frac")
    for name, error in result["failures"]:
        print(f"FAILED {name}: {error}")
    for check, ok in result["checks"].items():
        print(f"check {'ok  ' if ok else 'FAIL'} {check}")
    record = dict(result, correct=correct, metadata=metadata)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n", encoding="utf-8")
    metrics = {
        k: {"value": _finite_or_none(m["value"]), "unit": m["unit"]} for k, m in result["metrics"].items()
    }
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": failed, "metrics": metrics}))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = []
        for workload in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
        return max(codes)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0 if report(result, run_metadata(args.seed)) else 1


if __name__ == "__main__":
    raise SystemExit(main())
