"""Pipeline helpers: prediction targets and aggregation."""

import numpy as np

from specdown.fileio import RunConfig, write_grid
from specdown.grid import GridField, GridSpec
from specdown.pipeline import cmd_aggregate, targets_for
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
