"""Pipeline helpers and subcommands on a tiny simulated dataset."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from specdown import evaluate, fileio, filters, inference, pipeline, stations
from specdown.cli import main
from specdown.fileio import RunConfig, read_posterior, write_grid
from specdown.grid import GridField, GridSpec
from specdown.pipeline import (
    cmd_aggregate,
    cmd_coherence,
    cmd_combine,
    cmd_fit,
    cmd_predict,
    cmd_simulate,
    load_fields,
    targets_for,
)
from specdown.stations import Observation, Station

STATIONS = {
    "b": Station("b", 30.0, 40.0, frozenset([1, 0])),
    "a": Station("a", 10.0, 20.0, frozenset([0])),
}


class TestTargetsFor:
    def test_station_grid_order(self):
        targets = targets_for(STATIONS, (5, 4), "forecast")
        assert [(t.day, t.site_id, t.pollutant_id) for t in targets] == [
            (5, "a", 0),
            (5, "b", 0),
            (5, "b", 1),
            (4, "a", 0),
            (4, "b", 0),
            (4, "b", 1),
        ]
        assert all(t.mode == "forecast" for t in targets)
        assert (targets[1].x, targets[1].y) == (30.0, 40.0)

    def test_observation_order_and_day_filter(self):
        obs = [
            Observation("b", 3, 1, 0.0),
            Observation("a", 9, 0, 0.0),
            Observation("a", 2, 0, 0.0),
            Observation("b", 2, 0, 0.0),
        ]
        targets = targets_for(STATIONS, [2, 3], "interpolation", obs)
        assert [(t.site_id, t.day, t.pollutant_id) for t in targets] == [
            ("b", 3, 1),
            ("a", 2, 0),
            ("b", 2, 0),
        ]
        assert targets[1].x == 10.0 and targets[1].mode == "interpolation"


class TestAggregate:
    def test_quadrant_means_from_predictions_csv(self, tmp_path):
        spec = GridSpec(4, 4, 25.0)
        grids = tmp_path / "grids"
        grids.mkdir()
        write_grid(GridField(spec, np.ones(16), 0, 1), grids / "grid_j0_d001.txt")
        preds = tmp_path / "predictions.csv"
        preds.write_text(
            "site_or_cell,x,y,day,pollutant,pred,lo95,hi95\n"
            "a,10.0,10.0,1,PM25,2.0,1.0,3.0\n"
            "b,20.0,20.0,1,PM25,4.0,3.0,5.0\n"
            "c,90.0,90.0,1,PM25,8.0,7.0,9.0\n",
            encoding="utf-8",
        )
        cfg = RunConfig(grids_dir=str(grids), output_dir=str(tmp_path))
        (path,) = cmd_aggregate(cfg, preds)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == [
            "region,pollutant,n,mean_pred,mean_obs",
            "EN,PM25,1,8.0,NA",
            "WS,PM25,2,3.0,NA",
        ]


def _tiny_config(data, out, **overrides):
    """16x16 grid, 20 stations, 7 days (two 3-day training batches), 40 iterations."""
    cfg = RunConfig(
        grids_dir=str(data / "grids"),
        stations_file=str(data / "stations.csv"),
        output_dir=str(out),
        seed=5,
        mcmc={"iterations": 40, "burnin": 20, "thin": 1},
        **overrides,
    )
    cfg.simulate = {**cfg.simulate, "nx": 16, "ny": 16, "n_stations": 20, "days": 7}
    return cfg


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("tiny_data")
    cmd_simulate(_tiny_config(data, data))
    return data


class TestFitJobs:
    def test_batch_files_identical_for_one_and_two_jobs(self, tiny_data, tmp_path):
        outputs = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                artifacts = cmd_fit(_tiny_config(tiny_data, out, jobs=jobs))
            outputs[jobs] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            assert len([p for p in artifacts if p.name.startswith("batch_") and p.suffix == ".csv"]) == 2
        assert sorted(outputs[1]) == sorted(outputs[2])
        assert [name for name in outputs[1] if outputs[1][name] != outputs[2][name]] == []


class TestCoherence:
    def test_runs_without_the_station_file(self, tiny_data, tmp_path):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cmd_fit(_tiny_config(tiny_data, out))
            cmd_combine(_tiny_config(tiny_data, out))
        cfg = _tiny_config(tiny_data, out)
        cfg.stations_file = str(tmp_path / "missing.csv")
        (path,) = cmd_coherence(cfg)
        lines = path.read_text(encoding="utf-8").splitlines()
        # one curve per (observed, gridded) pair, 100 magnitudes each
        assert len(lines) == 1 + 2 * 2 * 100


class TestCvSeason:
    def test_cv_takes_the_season_from_the_grid_days(self, tmp_path, capsys):
        # cv once took its days from the observations, so a day with grids
        # but no station rows broke the season split that fit accepts
        run = _tiny_config(tmp_path, tmp_path, folds=2)
        run.seed = 3
        cfg = tmp_path / "config.json"
        cfg.write_text(run.to_json(), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["--config", str(cfg), "simulate"]) == 0
            stations = tmp_path / "stations.csv"
            lines = stations.read_text(encoding="utf-8").splitlines()
            kept = [line for line in lines if line.split(",")[3] != "4"]
            assert len(kept) < len(lines)
            stations.write_text("\n".join(kept) + "\n", encoding="utf-8")
            for command in ("fit", "cv"):
                assert main(["--config", str(cfg), command]) == 0, capsys.readouterr().err
        for name in ("scorecard_interpolation.csv", "scorecard_forecast.csv"):
            assert len((tmp_path / name).read_text(encoding="utf-8").splitlines()) == 9


@pytest.fixture(scope="module")
def tiny_fit(tiny_data, tmp_path_factory):
    """Output directory holding fit and combine results on the tiny data."""
    out = tmp_path_factory.mktemp("tiny_fit")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cmd_fit(_tiny_config(tiny_data, out))
        cmd_combine(_tiny_config(tiny_data, out))
    return out


# The tiny season has 7 days: training days 1-6, test day 7; J = 2 fields.
TRAIN_KEYS = [(j, day) for j in range(2) for day in range(1, 7)]
TEST_KEYS = [(0, 7), (1, 7)]


def _record(monkeypatch, name, note):
    """Wrap ``pipeline.<name>`` so each call appends ``note(args, result)``."""
    calls = []
    original = getattr(pipeline, name)

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(note(args, result))
        return result

    monkeypatch.setattr(pipeline, name, recorded)
    return calls


def _grid_reads(monkeypatch):
    """(pollutant, day) of every grid file the pipeline reads, call by call."""
    return _record(monkeypatch, "read_grid", lambda args, field: (field.pollutant_id, field.day))


class TestGridReads:
    def test_fit_reads_the_training_days(self, tiny_data, tmp_path, monkeypatch):
        reads = _grid_reads(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cmd_fit(_tiny_config(tiny_data, tmp_path))
        assert sorted(reads) == TRAIN_KEYS

    @pytest.mark.parametrize(
        "mode,keys",
        [("forecast", TEST_KEYS), ("interpolation", TRAIN_KEYS)],
        ids=["forecast", "interpolation"],
    )
    def test_predict_reads_its_days(self, tiny_data, tiny_fit, monkeypatch, mode, keys):
        reads = _grid_reads(monkeypatch)
        # the benchmark's tracer keys evaluate.predict on args[1][0].mode
        modes = _record(monkeypatch, "predict", lambda args, _: args[1][0].mode)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cmd_predict(_tiny_config(tiny_data, tiny_fit), mode)
        assert sorted(reads) == keys
        assert modes and set(modes) == {mode}

    def test_coherence_reads_no_grid(self, tiny_data, tiny_fit, monkeypatch):
        reads = _grid_reads(monkeypatch)
        cmd_coherence(_tiny_config(tiny_data, tiny_fit))
        assert reads == []

    def test_load_fields_reads_every_day(self, tiny_data, tmp_path, monkeypatch):
        reads = _grid_reads(monkeypatch)
        spec, fields = load_fields(_tiny_config(tiny_data, tmp_path))
        assert spec == GridSpec(16, 16, 12.0)
        assert sorted(fields) == sorted(TRAIN_KEYS + TEST_KEYS)
        assert len(reads) == len(fields)


class TestBenchProbeReplay:
    def test_sampler_probe_call_sequence(self, tiny_data):
        # the ingest of bench/run.py's sampler_probe, call for call: a
        # signature or return shape it relies on fails here first
        cfg = _tiny_config(tiny_data, tiny_data)
        spec, fields = pipeline.load_fields(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sites, observations, _ = fileio.parse_station_file(
                cfg.stations_file, spec, cfg.pollutants
            )
            train_days, _ = evaluate.split_season(sorted({f.day for f in fields.values()}))
        variant = stations.variant_from_name(cfg.variant)
        basis = filters.make_basis(cfg.basis_size, cfg.basis_degree)
        covs = pipeline.build_covariates(fields, basis, cfg.center)
        train = set(train_days)
        train_obs = [o for o in observations if o.day in train]
        design = stations.standardize(
            stations.assemble_design(variant, fields, covs, train_obs, sites)
        )
        y = np.array([o.value for o in train_obs])
        batch = inference.make_batches(design, y, train_days, cfg.batch_len)[0]
        priors = cfg.priors_for(spec)
        full = cfg.mcmc_config(pipeline.derived_seed(cfg.seed, 0))
        assert batch.days == (1, 2, 3)
        short = dataclasses.replace(full, iterations=20, burnin=10)
        post = inference.fit_batch_mcmc(batch, variant, priors, short)
        assert post.has_spatial
        assert "decay" in post.acceptance
        assert any(k.startswith("coreg") for k in post.acceptance)


# Bounds of the end-to-end recovery test, from the same config on seeds
# 101-140: forecast coverage ran 0.856-0.972, combined nugget median / truth
# 0.80-5.04 (the second pollutant's median 2.2: every batch applies the full
# nugget prior), decay median / truth 0.73-1.62.  Each ratio bound is the
# extreme seen there, widened by a factor of 1.5.
RECOVERY_COVERAGE = (0.80, 0.99)
RECOVERY_NUGGET = (0.53, 7.6)
RECOVERY_DECAY = (0.49, 2.4)


class TestEndToEndRecovery:
    def test_simulate_to_coherence_recovers_truth(self, tmp_path, capsys):
        # desk data (32x32 grid, 60 stations, 18 days: five 3-day batches);
        # 100 kept draws per batch for 28 parameters, so consensus weighs
        # full-rank batch covariances
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps(
                {
                    "grids_dir": str(tmp_path / "grids"),
                    "stations_file": str(tmp_path / "stations.csv"),
                    "output_dir": str(tmp_path),
                    "variant": "Spatial SD + Cross",
                    "seed": 1,
                    "mcmc": {"iterations": 200, "burnin": 100, "thin": 1},
                }
            ),
            encoding="utf-8",
        )
        written = []
        for args in (
            ["simulate"],
            ["fit"],
            ["combine"],
            ["predict", "--mode", "forecast"],
            ["predict", "--mode", "interpolation"],
            ["coherence"],
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert main(["--config", str(cfg)] + args) == 0, capsys.readouterr().err
            written += capsys.readouterr().out.split()
        assert all((tmp_path / p).is_file() for p in written)
        names = {p.rsplit("/", 1)[-1] for p in written}
        batches = [f"batch_{i:03d}.csv" for i in range(5)]
        assert names >= {
            "stations.csv",
            "truth.json",
            "design.json",
            "combined.csv",
            "predictions_forecast.csv",
            "predictions_interpolation.csv",
            "coherence.csv",
            *batches,
        }
        for batch in batches:
            assert (tmp_path / batch).with_suffix(".w.npz").is_file()

        observed = {}
        for line in (tmp_path / "stations.csv").read_text(encoding="utf-8").splitlines()[1:]:
            sid, _, _, day, pol, value = line.split(",")
            observed[(sid, day, pol)] = float(value)
        hits = total = 0
        forecast = (tmp_path / "predictions_forecast.csv").read_text(encoding="utf-8")
        for line in forecast.splitlines()[1:]:
            sid, _, _, day, pol, _, lo, hi = line.split(",")
            if (sid, day, pol) in observed:
                total += 1
                hits += float(lo) <= observed[(sid, day, pol)] <= float(hi)
        assert total > 100
        assert RECOVERY_COVERAGE[0] <= hits / total <= RECOVERY_COVERAGE[1]

        truth = json.loads((tmp_path / "truth.json").read_text(encoding="utf-8"))
        combined = read_posterior(tmp_path / "combined.csv")
        nugget = np.median(combined.nugget2_draws(), axis=0) / np.asarray(truth["nugget2"])
        decay = np.median(combined.decay_draws()) / truth["decay"]
        assert np.all((RECOVERY_NUGGET[0] <= nugget) & (nugget <= RECOVERY_NUGGET[1])), nugget
        assert RECOVERY_DECAY[0] <= decay <= RECOVERY_DECAY[1], decay
