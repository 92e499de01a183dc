"""Command-line error contract."""

import json

import numpy as np
import pytest

from specdown.cli import main
from specdown.fileio import write_grid
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
