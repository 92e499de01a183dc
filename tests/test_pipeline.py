"""Pipeline helpers and subcommands on a tiny simulated dataset."""

import dataclasses
import hashlib
import json
import shutil
import warnings
from pathlib import Path

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
from specdown.stations import observation_records, site_records

STATIONS = site_records(["b", "a"], [30.0, 10.0], [40.0, 20.0], ([0, 1], [[True, True], [True, False]]))


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
        obs = observation_records(["b", "a", "a", "b"], [3, 9, 2, 2], [1, 0, 0, 0], 0.0)
        targets = targets_for(STATIONS, [2, 3], "interpolation", obs)
        assert [(t.site_id, t.day, t.pollutant_id) for t in targets] == [
            ("b", 3, 1),
            ("a", 2, 0),
            ("b", 2, 0),
        ]
        assert targets[1].x == 10.0 and targets[1].mode == "interpolation"

    @staticmethod
    def _dict_targets(stations, days, observations=None):
        """Reference: (day, site_id, pollutant, x, y) of each target by the
        loop over a {site_id: ((x, y), measures)} dict that the columns
        replaced."""
        if observations is None:
            return [
                (d, sid, k, *stations[sid][0])
                for d in days
                for sid in sorted(stations)
                for k in sorted(stations[sid][1])
            ]
        return [
            (o.day, o.site_id, o.pollutant_id, *stations[o.site_id][0])
            for o in observations
            if o.day in days
        ]

    @pytest.mark.parametrize("with_observations", [False, True], ids=["stations", "observations"])
    def test_order_matches_the_dict_reference(self, with_observations):
        # ids whose code-point order differs from their digits' and case's
        rng = np.random.default_rng(8)
        names = [f"S{i}" for i in range(12)] + ["a", "B", "\u00e9t\u00e9", "Z9", "z10"]
        stations = {}
        for i in rng.permutation(len(names)):
            xy = (rng.uniform(0, 96), rng.uniform(0, 96))
            stations[names[i]] = xy, set(rng.choice(4, rng.integers(1, 4), replace=False).tolist())
        held = [[k in m for k in range(4)] for _, m in stations.values()]
        xy = np.array([c for c, _ in stations.values()])
        sites = site_records(list(stations), xy[:, 0], xy[:, 1], (range(4), held))
        days = (9, 3, 4)
        obs = None
        if with_observations:
            rows = [(sid, int(d), k) for sid, (_, m) in stations.items() for d in (2, 3, 4, 9) for k in m]
            rows = [rows[i] for i in rng.permutation(len(rows))]
            obs = observation_records(*zip(*rows), 0.0)
        targets = targets_for(sites, days, "forecast", obs)
        got = [(t.day, t.site_id, t.pollutant_id, t.x, t.y) for t in targets]
        assert got == self._dict_targets(stations, days, obs)


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
            "region,pollutant,n,mean_pred",
            "EN,PM25,1,8.0",
            "WS,PM25,2,3.0",
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


def _record(monkeypatch, name, note, module=pipeline):
    """Wrap ``module.<name>`` so each call appends ``note(args, result)``."""
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(note(args, result))
        return result

    monkeypatch.setattr(module, name, recorded)
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
        [("forecast", TEST_KEYS), ("interpolation", [])],
        ids=["forecast", "interpolation"],
    )
    def test_predict_reads_its_days(self, tiny_data, tiny_fit, monkeypatch, mode, keys):
        # interpolation predicts from the station-cell table fit wrote
        reads = _grid_reads(monkeypatch)
        built = _record(monkeypatch, "build_covariates", lambda args, covs: sorted(covs))
        spectral = _record(
            monkeypatch,
            "spectral_covariates",
            lambda args, _: (args[0].pollutant_id, args[0].day),
            filters,
        )
        # the benchmark's tracer keys evaluate.predict on args[1][0].mode
        modes = _record(monkeypatch, "predict", lambda args, _: args[1][0].mode)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cmd_predict(_tiny_config(tiny_data, tiny_fit), mode)
        assert sorted(reads) == keys
        assert sorted(spectral) == keys
        assert built == ([keys] if keys else [])
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


class TestCombine:
    def test_lone_batch_is_copied(self, tiny_data, tmp_path):
        # a least-squares fit writes one batch, its own consensus, so the
        # combined files equal the batch files byte for byte
        cfg = _tiny_config(tiny_data, tmp_path, variant="LD")
        cmd_fit(cfg)
        artifacts = cmd_combine(cfg)
        assert artifacts == [tmp_path / "combined.csv", tmp_path / "combined.json"]
        for ext in ("csv", "json"):
            batch = (tmp_path / f"batch_000.{ext}").read_bytes()
            assert (tmp_path / f"combined.{ext}").read_bytes() == batch


class TestInterpolationInputs:
    def test_design_record_must_match_the_rebuilt_design(self, tiny_data, tiny_fit, tmp_path):
        # spatial interpolation conditions on the training data it rebuilds;
        # a design.json from other inputs would make that data stale
        out = tmp_path / "out"
        shutil.copytree(tiny_fit, out)
        rec = json.loads((out / "design.json").read_text(encoding="utf-8"))
        rec["col_mean"][-1] += 1e-12
        (out / "design.json").write_text(json.dumps(rec), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="does not match the training data"):
                cmd_predict(_tiny_config(tiny_data, out), "interpolation")
            cmd_predict(_tiny_config(tiny_data, out), "forecast")


@pytest.fixture(
    scope="module", params=["Spatial SD + Cross", "LD"], ids=["spatial_sd_cross", "ld"]
)
def variant_fit(request, tiny_data, tmp_path_factory):
    """Config of a fit of one variant on the tiny data, with its
    interpolation predictions."""
    cfg = _tiny_config(tiny_data, tmp_path_factory.mktemp("variant_fit"), variant=request.param)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cmd_fit(cfg)
        cmd_predict(cfg, "interpolation")
    return cfg


def _predict_error(cfg, tmp_path, alter_data=None, alter_out=None, mode="interpolation"):
    """The error of ``predict`` in ``mode`` on copies of ``cfg``'s inputs
    and fit outputs under ``tmp_path``, once the callables have altered
    them."""
    data, out = tmp_path / "data", tmp_path / "out"
    shutil.copytree(cfg.grids_dir, data / "grids")
    shutil.copy(cfg.stations_file, data / "stations.csv")
    shutil.copytree(cfg.output_dir, out)
    for alter, where in ((alter_data, data), (alter_out, out)):
        if alter is not None:
            alter(where)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises((ValueError, FileNotFoundError)) as err:
            cmd_predict(_tiny_config(data, out, variant=cfg.variant), mode)
    return err.value


class TestStationCellTable:
    def test_predictions_equal_those_from_whole_grids(self, variant_fit, tmp_path):
        # the table fit recorded is the whole training grids gathered at the
        # station cells, and interpolating from either gives the same bytes
        cfg = variant_fit
        spec, fields = load_fields(cfg)
        sites, observations, _ = fileio.parse_station_file(cfg.stations_file, spec, cfg.pollutants)
        train_days = tuple(range(1, 7))
        fields = {key: f for key, f in fields.items() if key[1] in train_days}
        variant = stations.variant_from_name(cfg.variant)
        basis = filters.make_basis(cfg.basis_size, cfg.basis_degree)
        covs = {}
        if variant.mean_kind == "SD":
            covs = pipeline.build_covariates(fields, basis, cfg.center)
        cells = stations.cell_indices(sites.x, sites.y, spec)
        table = stations.CellTable.of_grids(variant.mean_kind, fields, covs, cells)
        out = Path(cfg.output_dir)
        recorded = fileio.read_cell_table(out / "station_cells.npy")
        assert np.array_equal(recorded.cells, table.cells)
        assert sorted(recorded.sources) == sorted(table.sources) == sorted(fields)
        for key, source in table.sources.items():
            assert np.array_equal(recorded.sources[key], source)
        train_obs = [o for o in observations if o.day in train_days]
        design = stations.standardize(
            stations.assemble_design(variant, fields, covs, train_obs, sites)
        )
        y = np.array([o.value for o in train_obs])
        ctx = evaluate.PredictionContext(design, spec, train_days, table, y)
        rng = inference.derive_rng(cfg.seed, 9000)
        results = []
        for path in sorted(out.glob("batch_*.csv")):
            post = read_posterior(path)
            targets = targets_for(sites, post.days, "interpolation")
            results.append(evaluate.predict(post, targets, ctx, rng, cfg.max_kriging_draws))
        results = np.concatenate(results).view(np.recarray)
        fileio.write_predictions_csv(results, tmp_path / "whole_grids.csv", cfg.pollutants)
        from_table = (out / "predictions_interpolation.csv").read_bytes()
        assert from_table == (tmp_path / "whole_grids.csv").read_bytes()

    def test_fit_writes_identical_tables(self, variant_fit, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cmd_fit(dataclasses.replace(variant_fit, output_dir=str(tmp_path)))
        first = Path(variant_fit.output_dir) / "station_cells.npy"
        assert (tmp_path / "station_cells.npy").read_bytes() == first.read_bytes()

    def test_missing_table_says_refit(self, variant_fit, tmp_path):
        err = _predict_error(
            variant_fit, tmp_path, alter_out=lambda out: (out / "station_cells.npy").unlink()
        )
        assert isinstance(err, FileNotFoundError) and "refit" in str(err)

    def test_station_cell_missing_from_the_table_says_refit(self, variant_fit, tmp_path):
        def drop_a_cell(out):
            table = fileio.read_cell_table(out / "station_cells.npy")
            sources = {key: source[:, 1:] for key, source in table.sources.items()}
            fileio.write_cell_table(
                stations.CellTable(sources, table.cells[1:]), out / "station_cells.npy"
            )

        err = _predict_error(variant_fit, tmp_path, alter_out=drop_a_cell)
        assert isinstance(err, ValueError) and "not in the station-cell table; refit" in str(err)

    def test_rewritten_training_grid_says_refit(self, variant_fit, tmp_path):
        # an independent-error variant once predicted from the new grid with
        # the old fit, and a spatial one noticed only a moved col_mean/col_sd
        def rewrite(data):
            path = data / "grids" / "grid_j1_d002.txt"
            field = fileio.read_grid(path)
            write_grid(GridField(field.spec, field.values * 1.01, 1, 2), path)

        err = _predict_error(variant_fit, tmp_path, alter_data=rewrite)
        assert isinstance(err, ValueError)
        assert "does not match the training data; refit" in str(err)


def _triple_a_training_value(data):
    # the reproduction of the stale-station defect: the first observation
    # on a training day (1-6), multiplied by 3
    path = data / "stations.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if i and int(line.split(",")[3]) <= 6)
    fields = lines[i].split(",")
    lines[i] = ",".join(fields[:5] + [repr(3 * float(fields[5]))])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _add_a_station(data):
    with open(data / "stations.csv", "a", encoding="utf-8") as fh:
        fh.write("NEW,100.5,100.5,2,PM25,7.5\n")


STATION_EDITS = pytest.mark.parametrize(
    "edit", [_triple_a_training_value, _add_a_station], ids=["tripled-value", "added-station"]
)


class TestStationRecords:
    def test_fit_records_the_parsed_station_file(self, variant_fit):
        cfg = variant_fit
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            parsed = fileio.parse_station_file(cfg.stations_file, GridSpec(16, 16, 12.0))
        recorded_sites, recorded_obs, meta = fileio.read_station_records(cfg.output_dir)
        assert recorded_sites.dtype == parsed[0].dtype and np.array_equal(recorded_sites, parsed[0])
        assert np.array_equal(recorded_obs, parsed[1])
        assert meta["dropped"] == parsed[2]
        digest = hashlib.sha256(Path(cfg.stations_file).read_bytes()).hexdigest()
        assert meta["sha256"] == digest

    @STATION_EDITS
    def test_changed_station_file_stops_interpolation(self, variant_fit, tmp_path, edit):
        # interpolation once exited 0 and conditioned on the new values with
        # draws fitted to the old ones
        err = _predict_error(variant_fit, tmp_path, alter_data=edit)
        assert isinstance(err, ValueError)
        assert "does not match the training data; refit" in str(err)

    @STATION_EDITS
    def test_changed_station_file_stops_forecast(self, tiny_data, tiny_fit, tmp_path, edit):
        cfg = _tiny_config(tiny_data, tiny_fit)
        err = _predict_error(cfg, tmp_path, alter_data=edit, mode="forecast")
        assert isinstance(err, ValueError)
        assert "does not match the training data; refit" in str(err)

    @pytest.mark.parametrize("name", ["sites.npy", "observations.npy", "sites.json"])
    def test_missing_records_say_refit(self, variant_fit, tmp_path, name):
        err = _predict_error(variant_fit, tmp_path, alter_out=lambda out: (out / name).unlink())
        assert isinstance(err, FileNotFoundError) and "refit" in str(err)

    @pytest.mark.parametrize("mode", ["forecast", "interpolation"])
    def test_predict_parses_no_station_file(self, tiny_data, tiny_fit, monkeypatch, mode):
        def refuse(*args, **kwargs):
            raise AssertionError("predict parsed the station file")

        for module in (fileio, pipeline):
            monkeypatch.setattr(module, "parse_station_file", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (path,) = cmd_predict(_tiny_config(tiny_data, tiny_fit), mode)
        assert path.name == f"predictions_{mode}.csv"


class TestStationCellsOnly:
    def test_every_table_holds_only_station_cells(self, tiny_data, tmp_path, monkeypatch):
        # forecast and cv once read their design rows from whole-grid tables
        built = []
        init = stations.CellTable.__init__

        def recording(table, *args, **kwargs):
            init(table, *args, **kwargs)
            built.append(table.cells)

        monkeypatch.setattr(stations.CellTable, "__init__", recording)
        cfg = _tiny_config(tiny_data, tmp_path, folds=2)
        spec = GridSpec(16, 16, 12.0)
        sites, _, _ = fileio.parse_station_file(cfg.stations_file, spec, cfg.pollutants)
        held = set(stations.cell_indices(sites.x, sites.y, spec).tolist())
        stages = {
            "fit": lambda: (cmd_fit(cfg), cmd_combine(cfg)),
            "forecast": lambda: cmd_predict(cfg, "forecast"),
            "interpolation": lambda: cmd_predict(cfg, "interpolation"),
            "cv": lambda: pipeline.cmd_cv(cfg),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for stage, run in stages.items():
                start = len(built)
                run()
                tables = built[start:]
                assert tables, stage
                for cells in tables:
                    assert cells is not None and held.issuperset(cells.tolist()), stage


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

    def test_sampler_probe_rows_match_the_record_columns(self, tiny_data):
        # the probe filters observation rows by attribute and hands the list
        # to assemble_design; that list must give the design the columns give
        cfg = _tiny_config(tiny_data, tiny_data)
        spec, fields = pipeline.load_fields(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sites, observations, _ = fileio.parse_station_file(
                cfg.stations_file, spec, cfg.pollutants
            )
        basis = filters.make_basis(cfg.basis_size, cfg.basis_degree)
        covs = pipeline.build_covariates(fields, basis, cfg.center)
        variant = stations.variant_from_name(cfg.variant)
        train = {1, 2, 3}
        train_obs = [o for o in observations if o.day in train]
        y = np.array([o.value for o in train_obs])
        subset = observations[np.isin(observations.day, list(train))]
        np.testing.assert_array_equal(y, subset.value)
        rows = stations.assemble_design(variant, fields, covs, train_obs, sites)
        columns = stations.assemble_design(variant, fields, covs, subset, sites)
        np.testing.assert_array_equal(rows.X, columns.X)
        np.testing.assert_array_equal(rows.row_day, columns.row_day)

    @pytest.mark.parametrize("days", [(5, 6), ()], ids=["two-days", "no-days"])
    def test_predict_trace_reads_mode_and_length(self, days):
        # the bench's predict wrapper reads targets[0].mode and len(targets)
        # on every run
        targets = targets_for(STATIONS, days, "interpolation")
        assert len(targets) == 3 * len(days)
        mode = targets[0].mode if len(targets) else "none"
        assert mode == ("interpolation" if days else "none")
        obs = observation_records(["a", "b"], [5, 7], [0, 1], 0.0)
        targets = targets_for(STATIONS, days, "forecast", obs)
        assert len(targets) == len(days) // 2
        assert (targets[0].mode if len(targets) else "none") == ("forecast" if days else "none")


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
        assert not list(tmp_path.glob("*.npz"))  # no residual-field draws are stored

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

