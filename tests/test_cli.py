"""Command-line error contract."""

import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from specdown.cli import main
from specdown.fileio import RunConfig, write_grid
from specdown.grid import GridField, GridSpec


class TestErrorContract:
    def test_unknown_config_key(self, tmp_path, capsys):
        # "season" was once a key that was parsed and never used
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"season": "JFM"}), encoding="utf-8")
        assert main(["--config", str(cfg), "print-config"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ParseError"
        assert "season" in payload["message"]

    def test_print_config_round_trips(self, tmp_path, capsys):
        assert main(["print-config"]) == 0
        text = capsys.readouterr().out
        cfg = tmp_path / "config.json"
        cfg.write_text(text, encoding="utf-8")
        assert main(["--config", str(cfg), "print-config"]) == 0
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize(
        "text,where",
        [
            ("site_or_cell,x,y,day,pollutant,pred,lo95,hi95\na,10.0,10.0,1,XYZ,2.0,1.0,3.0\n", ":2:"),
            ("site_or_cell,x,y,day,pollutant,pred,lo95,hi95\na,10.0,10.0,1,PM25,2.0,1.0\n", ":2:"),
            ("site,x,y,day,pollutant,pred,lo95,hi95\na,10.0,10.0,1,PM25,2.0,1.0,3.0\n", ":1:"),
        ],
        ids=["unknown-pollutant", "seven-fields", "header"],
    )
    def test_aggregate_rejects_malformed_predictions(self, tmp_path, capsys, text, where):
        # an unknown pollutant name was once filed under id -1 with exit 0
        grids = tmp_path / "grids"
        grids.mkdir()
        write_grid(GridField(GridSpec(4, 4, 25.0), np.ones(16), 0, 1), grids / "grid_j0_d001.txt")
        preds = tmp_path / "predictions.csv"
        preds.write_text(text, encoding="utf-8")
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps({"grids_dir": str(grids), "output_dir": str(tmp_path)}), encoding="utf-8"
        )
        assert main(["--config", str(cfg), "aggregate", "--predictions", str(preds)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"] == "ParseError"
        assert f"{preds}{where}" in payload["message"]
        assert not (tmp_path / "aggregate.csv").exists()


def _config(run_dir) -> str:
    """16x16 grid, 20 stations, 7 days at seed 3; inputs and outputs in ``run_dir``."""
    cfg = RunConfig(
        grids_dir=str(run_dir / "grids"),
        stations_file=str(run_dir / "stations.csv"),
        output_dir=str(run_dir),
        seed=3,
        folds=2,
        mcmc={"iterations": 40, "burnin": 20, "thin": 1},
    )
    cfg.simulate = {**cfg.simulate, "nx": 16, "ny": 16, "n_stations": 20, "days": 7}
    path = run_dir / "config.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """simulate, fit, combine and forecast on clean inputs."""
    run = tmp_path_factory.mktemp("finished_run")
    cfg = _config(run)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for args in (["simulate"], ["fit"], ["combine"], ["predict", "--mode", "forecast"]):
            assert main(["--config", cfg] + args) == 0
    return run


def _duplicate_day(grids):
    """A second file holding pollutant 0 day 2; returns (first, second)."""
    first = grids / "grid_j0_d002.txt"
    second = grids / "grid_j0_d002_copy.txt"
    shutil.copyfile(first, second)
    return first, second


def _other_grid(grids):
    """Pollutant 1 day 5 on a 20x20 grid; returns (first file, that file)."""
    path = grids / "grid_j1_d005.txt"
    write_grid(GridField(GridSpec(20, 20, 12.0), np.ones(400), 1, 5), path)
    return grids / "grid_j0_d001.txt", path


STAGES = [
    ["fit"],
    ["predict", "--mode", "forecast"],
    ["predict", "--mode", "interpolation"],
    ["coherence"],
    ["cv"],
    ["aggregate", "--predictions", "predictions_forecast.csv"],
]


class TestGridIndex:
    @pytest.mark.parametrize("fault", [_duplicate_day, _other_grid], ids=["duplicate-day", "other-grid"])
    @pytest.mark.parametrize("args", STAGES, ids=[a[-1] if a[0] == "predict" else a[0] for a in STAGES])
    def test_every_stage_rejects_the_grid_directory(
        self, finished_run, tmp_path, capsys, fault, args
    ):
        # both once passed silently: the second file replaced the first, and
        # the 20x20 grid was gathered with 16x16 cell indices
        run = tmp_path / "run"
        shutil.copytree(finished_run, run)
        first, second = fault(run / "grids")
        args = [str(run / a) if a.endswith(".csv") else a for a in args]
        before = sorted(p.name for p in run.iterdir())
        assert main(["--config", _config(run)] + args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"] == "ParseError"
        assert str(first) in payload["message"] and str(second) in payload["message"]
        assert sorted(p.name for p in run.iterdir()) == before


class TestArtifactList:
    def test_fit_and_combine_print_every_file_they_write(self, tmp_path, capsys):
        # fit once printed only batch_*.csv, combine only combined.csv
        cfg = _config(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["--config", cfg, "simulate"]) == 0
            for stage in ("fit", "combine"):
                capsys.readouterr()
                before = set(tmp_path.iterdir())
                assert main(["--config", cfg, stage]) == 0
                printed = [Path(line) for line in capsys.readouterr().out.splitlines()]
                assert len(printed) == len(set(printed))
                assert set(printed) == set(tmp_path.iterdir()) - before
