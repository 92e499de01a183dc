"""Posterior, grid, station and station-cell files: write -> read round
trips and faults; run configuration loading."""

import importlib.util
import json
import re
import struct
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specdown.fileio import (
    ParseError,
    RunConfig,
    read_cell_table,
    read_grid,
    read_grid_header,
    read_posterior,
    read_station_records,
    parse_station_file,
    write_grid,
    write_cell_table,
    write_posterior,
    write_station_records,
)
from specdown.grid import GridField, GridSpec
from specdown.inference import BatchPosterior, McmcConfig, Priors
from specdown.stations import CellTable, observation_records, site_measures, site_records

# printable names, commas and quotes included: parameter labels such as
# beta[k=0,j=0,b=0] hold commas
NAME = st.text(
    alphabet=st.characters(blacklist_categories=("Cc", "Cs")) | st.sampled_from(',"[]=.'),
    min_size=1,
    max_size=12,
)
FINITE = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)


def _cmp_artifacts():
    """The artifact-comparison tool, imported from its file."""
    path = Path(__file__).resolve().parent.parent / "tools" / "cmp_artifacts.py"
    spec = importlib.util.spec_from_file_location("cmp_artifacts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@st.composite
def posteriors(draw):
    n_draws = draw(st.integers(2, 5))
    names = draw(st.lists(NAME, min_size=1, max_size=5, unique=True))
    p = len(names)
    values = draw(st.lists(FINITE, min_size=n_draws * p, max_size=n_draws * p))
    draws = np.array(values).reshape(n_draws, p)
    return BatchPosterior(
        draws=draws,
        param_names=tuple(names),
        transforms=tuple(draw(st.sampled_from(["id", "log", "logit"])) for _ in names),
        n_beta=draw(st.integers(0, p)),
        n_pollutants=draw(st.integers(1, 3)),
        days=tuple(draw(st.lists(st.integers(0, 400), max_size=4))),
        seed=draw(st.none() | st.integers(0, 2**31)),
        decay_bounds=draw(st.none() | st.tuples(FINITE, FINITE)),
        acceptance=draw(st.dictionaries(NAME, st.floats(0, 1), max_size=3)),
    )


class TestPosteriorRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(post=posteriors())
    def test_write_read(self, post):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "batch_000.csv"
            assert write_posterior(post, path) == [path, path.with_suffix(".json")]
            back = read_posterior(path)
            assert back.param_names == post.param_names
            np.testing.assert_array_equal(back.draws, post.draws)
            for attr in ("transforms", "n_beta", "n_pollutants", "days", "seed", "acceptance"):
                assert getattr(back, attr) == getattr(post, attr)
            assert back.decay_bounds == post.decay_bounds

            # writing what was read gives the same bytes
            again = Path(tmp) / "again.csv"
            write_posterior(back, again)
            pairs = [(path, again), (path.with_suffix(".json"), again.with_suffix(".json"))]
            for first, second in pairs:
                assert first.read_bytes() == second.read_bytes()

    def test_comma_names_are_one_column_each(self, tmp_path):
        # names with commas and quotes round-trip through the sidecar
        names = ("beta0[0]", "beta[k=0,j=0,b=0]", 'say "hi", twice', "decay.logit")
        post = BatchPosterior(
            draws=np.arange(8.0).reshape(2, 4),
            param_names=names,
            transforms=("id", "id", "id", "logit"),
            n_beta=3,
            n_pollutants=1,
            days=(1,),
            decay_bounds=(0.01, 0.2),
        )
        write_posterior(post, tmp_path / "combined.csv")
        back = read_posterior(tmp_path / "combined.csv")
        assert back.param_names == names
        assert back.draws.shape == (2, 4)

    def test_unmeasured_rate_is_json_null(self, tmp_path):
        # a desk chain never runs the block move, so its rate is 0/0; NaN is
        # not JSON, and strict parsers reject it
        post = BatchPosterior(
            draws=np.zeros((2, 1)),
            param_names=("beta0[0]",),
            transforms=("id",),
            n_beta=1,
            n_pollutants=1,
            days=(1,),
            acceptance={"block": np.nan, "decay": 0.25},
        )
        path = tmp_path / "batch_000.csv"
        write_posterior(post, path)

        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        text = path.with_suffix(".json").read_text(encoding="utf-8")
        meta = json.loads(text, parse_constant=refuse)
        assert meta["acceptance"] == {"block": None, "decay": 0.25}
        back = read_posterior(path).acceptance
        assert np.isnan(back["block"]) and back["decay"] == 0.25


def _small_posterior():
    return BatchPosterior(
        draws=np.arange(6.0).reshape(3, 2),
        param_names=("a", "b"),
        transforms=("id", "id"),
        n_beta=2,
        n_pollutants=1,
        days=(1,),
    )


def _posterior_file(path):
    write_posterior(_small_posterior(), path)
    return read_posterior


def _cell_table_file(path):
    write_cell_table(CellTable({(0, 1): np.ones((2, 3))}, np.array([1, 4, 9])), path)
    return read_cell_table


class TestNpyFaults:
    @pytest.mark.parametrize(
        "make", [_posterior_file, _cell_table_file], ids=["read_posterior", "read_cell_table"]
    )
    @pytest.mark.parametrize("damage", ["text", "truncated", "trailing", "zip", "npz"])
    def test_damaged_body_names_the_file(self, tmp_path, make, damage):
        # a bare numpy ValueError, zipfile.BadZipFile or AttributeError once
        # reached the user without a path, and bytes after the array were
        # read without complaint
        path = tmp_path / "damaged.npy"
        read = make(path)
        data = path.read_bytes()
        archive = tmp_path / "archive.npz"
        np.savez(archive, body=np.load(path))
        bodies = {
            "text": b"a,b\n0.0,1.0\n",
            "truncated": data[:-5],
            "trailing": data + bytes(16),
            "zip": b"PK\x03\x04" + data[4:],
            "npz": archive.read_bytes(),
        }
        path.write_bytes(bodies[damage])
        with pytest.raises(ParseError, match="not a .npy array") as err:
            read(path)
        assert str(path) in str(err.value)

    def test_text_draws_ask_for_a_refit(self, tmp_path):
        # the repr-text draws of an earlier release
        path = tmp_path / "batch_000.csv"
        write_posterior(_small_posterior(), path)
        path.write_text("a,b\n0.0,1.0\n2.0,3.0\n4.0,5.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="must be refit") as err:
            read_posterior(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "key,value", [("n_draws", 4), ("param_names", ["a"])], ids=["n_draws", "param_names"]
    )
    def test_sidecar_disagreeing_with_the_array_names_the_file(self, tmp_path, key, value):
        path = tmp_path / "batch_000.csv"
        write_posterior(_small_posterior(), path)
        sidecar = path.with_suffix(".json")
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
        meta[key] = value
        sidecar.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ParseError, match="the sidecar gives") as err:
            read_posterior(path)
        assert str(path) in str(err.value)


@st.composite
def grid_fields(draw):
    spec = GridSpec(
        draw(st.integers(2, 5)),
        draw(st.integers(2, 5)),
        draw(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)),
    )
    values = draw(st.lists(FINITE, min_size=spec.ncells, max_size=spec.ncells))
    return GridField(spec, values, draw(st.integers(0, 9)), draw(st.integers(0, 400)))


def _assert_same_field(back, field):
    assert back.spec == field.spec
    assert (back.pollutant_id, back.day) == (field.pollutant_id, field.day)
    np.testing.assert_array_equal(back.values, field.values)


class TestGridRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(field=grid_fields())
    def test_write_read(self, field):
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "grid.txt", Path(tmp) / "again.txt"
            write_grid(field, path)
            back = read_grid(path)
            _assert_same_field(back, field)
            write_grid(back, again)
            assert again.read_bytes() == path.read_bytes()

    def test_body_is_little_endian_float64(self, tmp_path):
        # a subnormal, a negative zero and a huge value keep their bits, which
        # makes reruns byte-identical
        values = [5e-324, -0.0, 1e300, 0.1, -2.5, 1.0 / 3.0]
        field = GridField(GridSpec(3, 2, 12.5), values, 1, 7)
        path = tmp_path / "grid.txt"
        write_grid(field, path)
        body = b"".join(struct.pack("<d", v) for v in values)
        assert path.read_bytes() == b"3 2 12.5 1 7 <f8\n" + body
        back = read_grid(path)
        _assert_same_field(back, field)
        assert np.signbit(back.values[1])


SPEC = GridSpec(3, 2, 12.5)
BODY_BYTES = 8 * SPEC.ncells


GRID_CODEC = pytest.mark.parametrize(
    "write,read", [(lambda path, field: write_grid(field, path), read_grid)], ids=["grid"]
)


def _edit_body(path, edit):
    """Rewrite the file at ``path`` with ``edit(body)`` in place of its body."""
    data = path.read_bytes()
    start = data.index(b"\n") + 1
    path.write_bytes(data[:start] + edit(data[start:]))


class TestGridCodecFaults:
    @GRID_CODEC
    def test_text_grid_is_refused_by_name(self, tmp_path, write, read):
        # grids written before bodies were binary have a five-token header
        path = tmp_path / "grid_j1_d007.txt"
        path.write_bytes(b"3 2 12.5 1 7\n" + b" ".join([b"1.0"] * 6) + b"\n")
        for reader in (read, read_grid_header):
            with pytest.raises(ParseError, match="binary little-endian float64") as err:
                reader(path)
            assert str(path) in str(err.value)

    @GRID_CODEC
    @settings(max_examples=40, deadline=None)
    @given(cut=st.integers(1, BODY_BYTES))
    def test_short_body_gives_the_byte_count(self, write, read, cut):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "grid.txt"
            write(path, GridField(SPEC, np.arange(1.0, 7.0), 1, 7))
            _edit_body(path, lambda body: body[:-cut])
            with pytest.raises(ParseError, match=f"expected {BODY_BYTES} bytes") as err:
                read(path)
            assert str(path) in str(err.value)

    @GRID_CODEC
    @settings(max_examples=40, deadline=None)
    @given(extra=st.binary(min_size=1, max_size=24) | st.sampled_from([b"0", b"-", b"5", b" "]))
    def test_long_body_gives_the_byte_count(self, write, read, extra):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "grid.txt"
            write(path, GridField(SPEC, np.arange(1.0, 7.0), 1, 7))
            _edit_body(path, lambda body: body + extra)
            with pytest.raises(ParseError, match=f"{BODY_BYTES} bytes") as err:
                read(path)
            assert str(path) in str(err.value)

    @GRID_CODEC
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_names_the_file(self, tmp_path, write, read, bad):
        path = tmp_path / "grid.txt"
        write(path, GridField(SPEC, np.ones(6), 1, 7))
        _edit_body(path, lambda body: body[:16] + struct.pack("<d", bad) + body[24:])
        with pytest.raises(ParseError, match=f"non-finite value {bad!r} at cell 2") as err:
            read(path)
        assert str(path) in str(err.value)


class TestStationFile:
    @pytest.mark.parametrize("raw", ["nan", "inf", "1e400", "-inf"])
    def test_non_finite_value_is_parse_error_at_its_line(self, tmp_path, raw):
        # at line 3; -inf was once dropped as nonpositive, the others raised
        # a bare ValueError without the file or line
        path = tmp_path / "stations.csv"
        path.write_text(
            "site_id,x_km,y_km,day,pollutant,value_raw\n"
            f"A,5.0,5.0,1,PM25,2.5\nA,5.0,5.0,2,PM25,{raw}\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            parse_station_file(path, GridSpec(4, 4, 10.0))
        assert str(err.value) == f"{path}:3: value_raw '{raw}' is not finite"

    def _parse(self, tmp_path, *lines):
        path = tmp_path / "stations.csv"
        path.write_text(
            "\n".join(("site_id,x_km,y_km,day,pollutant,value_raw",) + lines) + "\n",
            encoding="utf-8",
        )
        return path, parse_station_file(path, GridSpec(4, 4, 10.0))

    def _fault(self, tmp_path, *lines):
        with pytest.raises(ParseError) as err:
            self._parse(tmp_path, *lines)
        return str(err.value).removeprefix(str(tmp_path / "stations.csv"))

    def test_rows_stations_and_measures(self, tmp_path):
        # blank lines are skipped, fields stripped, a numeric pollutant is
        # its own id, and day and pollutant keep the file's order
        _, (stations, obs, dropped) = self._parse(
            tmp_path,
            "B,25.0,35.0,2,EC,3.0",
            "",
            " A , 5.0 ,5.0, 1 , PM25 ,2.5",
            "B,25.0,35.0,1,7,4.0",
        )
        assert dropped == 0
        assert stations.site_id.tolist() == ["B", "A"]
        assert (stations.x[0], stations.y[0]) == (25.0, 35.0)
        ids, held = site_measures(stations)
        assert ids.tolist() == [0, 1, 7]
        assert held.tolist() == [[False, True, True], [True, False, False]]
        assert [(o.site_id, o.day, o.pollutant_id) for o in obs] == [
            ("B", 2, 1),
            ("A", 1, 0),
            ("B", 1, 7),
        ]
        assert [o.value for o in obs] == pytest.approx(np.log([3.0, 2.5, 4.0]), rel=1e-15)

    def test_nonpositive_values_are_dropped_with_a_count(self, tmp_path):
        with pytest.warns(UserWarning, match="dropped 2 nonpositive value"):
            _, (stations, obs, dropped) = self._parse(
                tmp_path,
                "A,5.0,5.0,1,PM25,0",
                "A,5.0,5.0,1,EC,2.0",
                "A,5.0,5.0,2,PM25,-1.5",
            )
        assert dropped == 2
        assert [(o.day, o.pollutant_id) for o in obs] == [(1, 1)]
        # the pollutant whose only values were dropped is still measured
        assert stations.dtype.names[3:] == ("k0", "k1")
        assert stations.k0.tolist() == stations.k1.tolist() == [True]

    def test_long_site_id_is_kept_whole(self, tmp_path):
        _, (stations, obs, _) = self._parse(
            tmp_path, "A,5.0,5.0,1,PM25,2.0", "STATION_WITH_A_LONG_ID,15.0,5.0,1,PM25,3.0"
        )
        assert stations.site_id.tolist() == ["A", "STATION_WITH_A_LONG_ID"]
        assert [o.site_id for o in obs] == ["A", "STATION_WITH_A_LONG_ID"]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "stations.csv"
        path.write_text("site,x,y\nA,5.0,5.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r":1: expected header"):
            parse_station_file(path, GridSpec(4, 4, 10.0))

    @pytest.mark.parametrize(
        "line,message",
        [
            ("A,5.0,5.0,2,PM25", "expected 6 fields, got 5"),
            ("A,5.0,5.0,2,PM25,1.0,9", "expected 6 fields, got 7"),
            ("A,5.0,abc,2,PM25,1.0", "could not convert string to float: 'abc'"),
            ("A,5.0,5.0,2.5,PM25,1.0", "invalid literal for int() with base 10: '2.5'"),
            ("A,5.0,5.0,2,PM25,", "could not convert string to float: ''"),
            ("A,5.0,5.0,2,XYZ,1.0", "unknown pollutant 'XYZ'"),
            # once a bare ValueError from int('\u00b2'), naming no file
            ("A,5.0,5.0,2,\u00b2,1.0", "unknown pollutant '\u00b2'"),
            ("A,6.0,5.0,2,PM25,1.0", "station A moved coordinates"),
            (
                "B,45.0,5.0,2,PM25,1.0",
                "station B at (45.0, 5.0) km is outside the 4x4 grid (40.0 x 40.0 km)",
            ),
        ],
    )
    def test_fault_at_its_line(self, tmp_path, line, message):
        fault = self._fault(tmp_path, "A,5.0,5.0,1,PM25,2.0", line, "C,15.0,5.0,1,PM25,2.0")
        assert fault == f":3: {message}"

    def test_day_past_int64_is_a_fault_at_its_line(self, tmp_path):
        # once an OverflowError naming no file
        day = "99999999999999999999"
        fault = self._fault(tmp_path, "A,5.0,5.0,1,PM25,2.0", f"A,5.0,5.0,{day},PM25,1.0")
        assert fault.startswith(":3: ") and "too large" in fault

    @pytest.mark.parametrize(
        "line,message",
        [
            ("B,abc,5.0,x,XYZ,nan", "could not convert string to float: 'abc'"),
            ("B,45.0,5.0,x,XYZ,nan", "invalid literal for int() with base 10: 'x'"),
            ("B,45.0,5.0,1,XYZ,nan", "value_raw 'nan' is not finite"),
            ("B,45.0,5.0,1,XYZ,1.0", "unknown pollutant 'XYZ'"),
            ("A,45.0,5.0,1,PM25,1.0", "station A moved coordinates"),
        ],
    )
    def test_faults_of_one_line_rank_in_order(self, tmp_path, line, message):
        # field count, number (x, y, day, value), finiteness, pollutant,
        # coordinates
        assert self._fault(tmp_path, "A,5.0,5.0,1,PM25,2.0", line) == f":3: {message}"

    @pytest.mark.parametrize(
        "first,later",
        [
            ("A,5.0,5.0,1,PM25", "A,5.0,5.0,x,PM25,1.0"),
            ("A,5.0,5.0,x,PM25,1.0", "A,5.0,5.0,1,PM25"),
            ("A,5.0,5.0,1,XYZ,1.0", "A,5.0,abc,1,PM25,1.0"),
            ("B,45.0,5.0,1,PM25,1.0", "A,5.0,5.0,1,PM25,inf"),
            ("A,6.0,5.0,1,PM25,1.0", "A,5.0,5.0,1,XYZ,1.0"),
        ],
    )
    def test_earlier_line_is_reported(self, tmp_path, first, later):
        fault = self._fault(tmp_path, "A,5.0,5.0,1,PM25,2.0", first, "C,15.0,5.0,1,PM25,2.0", later)
        assert fault.startswith(":3: ")


class TestRunConfig:
    @pytest.mark.parametrize(
        "data,key",
        [
            ({"mcmc": {"store_w": False}}, "store_w"),
            ({"mcmc": {"iterations": 10, "seed": 3}}, "seed"),
            ({"priors": {"beta_sd": 5.0, "decay_bounds": [0.1, 0.2]}}, "decay_bounds"),
            ({"priors": {"nugget_rate": 1.0}}, "nugget_rate"),
            ({"simulate": {"n_sites": 5, "nugget": [1, 1]}}, "n_sites"),
        ],
    )
    def test_unknown_section_key_is_parse_error(self, tmp_path, data, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ParseError, match=f"unknown .* config key '{key}'"):
            RunConfig.from_json(path)

    @pytest.mark.parametrize(
        "text,match",
        [
            ("[1, 2]", "one JSON object"),
            ("{mcmc: 5}", "not JSON"),
            ('{"mcmc": 5}', "config key 'mcmc' must be a JSON object"),
            ('{"priors": "x"}', "config key 'priors' must be a JSON object"),
            ('{"simulate": []}', "config key 'simulate' must be a JSON object"),
            ('{"pollutants": null}', "config key 'pollutants' must be a JSON object"),
            ('{"to_json": 1}', "unknown config key 'to_json'"),
        ],
        ids=["list", "not-json", "mcmc-number", "priors-string", "simulate-list", "pollutants-null", "method"],
    )
    def test_wrong_shape_is_parse_error_naming_the_file(self, tmp_path, text, match):
        # each once raised AttributeError or JSONDecodeError here, a
        # TypeError in mcmc_config or priors_for, or was accepted
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=match) as err:
            RunConfig.from_json(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "data,match",
        [
            # each once failed deep in fit with a TypeError or ZeroDivisionError
            ({"jobs": "2"}, "config key 'jobs' must be int, got \"2\""),
            ({"basis_size": "5"}, "config key 'basis_size' must be int, got \"5\""),
            ({"batch_len": 0}, "config key 'batch_len' must be at least 1, got 0"),
            ({"jobs": -1}, "config key 'jobs' must be at least 1"),
            ({"n_ols_draws": 0}, "config key 'n_ols_draws' must be at least 1"),
            ({"max_kriging_draws": 0}, "config key 'max_kriging_draws' must be at least 1"),
            ({"folds": True}, "config key 'folds' must be int, got true"),
            ({"folds": 2.0}, "config key 'folds' must be int, got 2.0"),
            ({"center": 1}, "config key 'center' must be bool, got 1"),
            ({"variant": None}, "config key 'variant' must be str, got null"),
        ],
    )
    def test_scalar_of_wrong_type_or_range_names_the_key(self, tmp_path, data, match):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(match)) as err:
            RunConfig.from_json(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize(
        "data,match",
        [
            # each once ran a 32-wide grid, simulated 1 day, was accepted,
            # or failed later with a TypeError naming no key
            ({"simulate": {"nx": 32.5}}, "config key 'simulate.nx' must be int, got 32.5"),
            ({"simulate": {"days": True}}, "config key 'simulate.days' must be int, got true"),
            ({"mcmc": {"adapt": 1}}, "config key 'mcmc.adapt' must be bool, got 1"),
            ({"mcmc": {"iterations": "100"}}, "config key 'mcmc.iterations' must be int, got \"100\""),
            ({"priors": {"beta_sd": "big"}}, "config key 'priors.beta_sd' must be float, got \"big\""),
            ({"priors": {"nugget_scale": False}}, "config key 'priors.nugget_scale' must be float, got false"),
            ({"simulate": {"cadence": 3}}, "config key 'simulate.cadence' must be str, got 3"),
        ],
        ids=["nx-float", "days-bool", "adapt-int", "iterations-str", "beta_sd-str", "float-bool", "cadence-int"],
    )
    def test_section_entry_of_wrong_type_names_the_key(self, tmp_path, data, match):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(match)) as err:
            RunConfig.from_json(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_the_bench_and_tool_configs_parse(self, tmp_path):
        tool = _cmp_artifacts()
        configs = [spec["config"] for spec in tool.bench_literal("WORKLOADS").values()]
        configs += [tool.bench_literal("PROBE_CONFIG"), {"mcmc": tool.bench_literal("PROBE_MCMC")}]
        configs += [overrides for _, overrides, _ in tool.cases().values()]
        path = tmp_path / "config.json"
        for config in configs:
            path.write_text(json.dumps(config), encoding="utf-8")
            assert RunConfig.from_json(path).seed == RunConfig().seed

    def test_int_stands_for_a_float(self, tmp_path):
        path = tmp_path / "config.json"
        data = {"simulate": {"dx": 12, "beta0": [1, 2]}, "priors": {"beta_sd": 3}, "jobs": 1}
        path.write_text(json.dumps(data), encoding="utf-8")
        cfg = RunConfig.from_json(path)
        assert cfg.simulate["dx"] == 12 and cfg.priors["beta_sd"] == 3 and cfg.jobs == 1

    def test_every_section_field_reaches_its_dataclass(self, tmp_path):
        # the mcmc section sets the six run settings; the sampler's test
        # hooks once passed through too, so update_w: false fitted the
        # independent-error model under a spatial variant's name
        mcmc = dict(iterations=30, burnin=10, thin=2, step_decay=0.5, step_coreg=0.2, adapt=False)
        assert set(RunConfig().mcmc) == set(mcmc)
        priors = {f.name: 2.5 for f in fields(Priors) if f.name != "decay_bounds"}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mcmc": mcmc, "priors": priors}), encoding="utf-8")
        cfg = RunConfig.from_json(path)
        made = cfg.mcmc_config(seed=7)
        assert made.seed == 7 and {key: getattr(made, key) for key in mcmc} == mcmc
        assert cfg.priors_for(GridSpec(4, 4, 10.0)).beta_sd == 2.5
        hooks = {f.name for f in fields(McmcConfig)} - set(mcmc) - {"seed"}
        assert hooks == {
            "update_w", "update_beta", "update_nugget", "update_coreg", "update_decay", "init_nugget2"
        }
        for key in sorted(hooks):
            path.write_text(json.dumps({"mcmc": {key: False}}), encoding="utf-8")
            with pytest.raises(ParseError, match=f"unknown mcmc config key '{key}'"):
                RunConfig.from_json(path)


class TestCellTableFile:
    @pytest.mark.parametrize(
        "cells", [[3, 3, 8], [8, 3, 5]], ids=["repeated-cell", "unsorted-cells"]
    )
    def test_cells_out_of_order_name_the_file(self, tmp_path, cells):
        # a repeated cell once passed, and positions() read its first copy
        records = np.zeros(len(cells), dtype=[("cell", "<i8"), ("j0_d1", "<f8", (2,))])
        records["cell"] = cells
        path = tmp_path / "station_cells.npy"
        np.save(path, records, allow_pickle=False)
        with pytest.raises(ParseError, match="strictly increasing") as err:
            read_cell_table(path)
        assert str(path) in str(err.value)


def _station_records(tmp_path):
    """A parsed station file with a long site id and a pollutant whose only
    value was dropped, recorded in ``tmp_path``; returns the parse."""
    path = tmp_path / "stations.csv"
    path.write_text(
        "site_id,x_km,y_km,day,pollutant,value_raw\n"
        "B,25.0,35.0,2,EC,3.0\n"
        "STATION_WITH_A_LONG_ID,5.0,15.0,1,PM25,2.5\n"
        "B,25.0,35.0,1,PM25,0\n"
        "B,25.0,35.0,3,7,4.0\n",
        encoding="utf-8",
    )
    with pytest.warns(UserWarning, match="dropped 1 nonpositive value"):
        parsed = parse_station_file(path, GridSpec(4, 4, 10.0))
    write_station_records(*parsed, "0" * 64, tmp_path)
    return parsed


class TestStationRecords:
    def test_round_trip(self, tmp_path):
        stations, obs, dropped = _station_records(tmp_path)
        back, back_obs, meta = read_station_records(tmp_path)
        assert back.dtype == stations.dtype and np.array_equal(back, stations)
        assert (back.k0[0], back.k1[0], back.k7[0]) == (True, True, True)  # pollutant 0's value was dropped
        assert back.site_id.tolist() == ["B", "STATION_WITH_A_LONG_ID"]
        assert back_obs.dtype == obs.dtype and np.array_equal(back_obs, obs)
        assert back_obs.site_id.tolist() == ["B", "STATION_WITH_A_LONG_ID", "B"]
        assert meta == {"sha256": "0" * 64, "stations": 2, "observations": 3, "dropped": dropped}

    @settings(max_examples=30, deadline=None)
    @given(
        ids=st.lists(
            st.text(st.characters(blacklist_categories=("Cc", "Cs")), min_size=1, max_size=40),
            min_size=1,
            max_size=5,
            unique=True,
        ),
        data=st.data(),
    )
    def test_round_trip_of_any_records(self, ids, data):
        xs, ys, measures = [], [], []
        for _ in ids:
            xs.append(data.draw(FINITE))
            ys.append(data.draw(FINITE))
            measures.append(data.draw(st.sets(st.integers(0, 12), min_size=1, max_size=4)))
        held = [[k in m for k in range(13)] for m in measures]
        stations = site_records(ids, xs, ys, (range(13), held))
        rows = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(0, 400), FINITE)))
        obs = observation_records(
            [r[0] for r in rows], [r[1] for r in rows], [0] * len(rows), [r[2] for r in rows]
        )
        with tempfile.TemporaryDirectory() as tmp:
            write_station_records(stations, obs, 0, "ab", tmp)
            back, back_obs, _ = read_station_records(tmp)
        assert back.dtype == stations.dtype and np.array_equal(back, stations)
        assert back_obs.dtype == obs.dtype and np.array_equal(back_obs, obs)

    @pytest.mark.parametrize("name", ["sites.npy", "observations.npy", "sites.json"])
    def test_missing_file_says_refit(self, tmp_path, name):
        _station_records(tmp_path)
        (tmp_path / name).unlink()
        with pytest.raises(FileNotFoundError, match="is missing; refit"):
            read_station_records(tmp_path)

    @pytest.mark.parametrize("name", ["sites.npy", "observations.npy"])
    @pytest.mark.parametrize("damage", ["text", "truncated", "pickled", "wrong-dtype"])
    def test_damaged_body_names_the_file(self, tmp_path, name, damage):
        _station_records(tmp_path)
        path = tmp_path / name
        body = np.load(path)
        if damage == "text":
            path.write_text("site_id,x,y\nB,25.0,35.0\n", encoding="utf-8")
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[:-5])
        elif damage == "pickled":
            np.save(path, np.array([{"site_id": "B"}, None], dtype=object), allow_pickle=True)
        else:  # a float day, or single-precision coordinates
            field, kind = ("day", "<f8") if name == "observations.npy" else ("x", "<f4")
            dtype = [(n, kind if n == field else body.dtype[n]) for n in body.dtype.names]
            np.save(path, body.astype(dtype), allow_pickle=False)
        with pytest.raises(ParseError) as err:
            read_station_records(tmp_path)
        assert str(path) in str(err.value)

    def test_repeated_site_id_names_the_file(self, tmp_path):
        _station_records(tmp_path)
        path = tmp_path / "sites.npy"
        body = np.load(path)
        body["site_id"][1] = body["site_id"][0]
        np.save(path, body, allow_pickle=False)
        with pytest.raises(ParseError, match="site id B is repeated") as err:
            read_station_records(tmp_path)
        assert str(path) in str(err.value)

    def test_observation_of_an_unrecorded_site_names_the_file(self, tmp_path):
        # predict once failed with a bare KeyError naming the site alone
        _station_records(tmp_path)
        path = tmp_path / "observations.npy"
        body = np.load(path)
        body["site_id"][1] = "S999"
        np.save(path, body, allow_pickle=False)
        with pytest.raises(ParseError, match="site S999 is not among the stations") as err:
            read_station_records(tmp_path)
        assert str(path) in str(err.value)

    def test_station_measuring_nothing_names_the_file(self, tmp_path):
        _station_records(tmp_path)
        path = tmp_path / "sites.npy"
        body = np.load(path)
        for name in body.dtype.names[3:]:
            body[name][0] = False
        np.save(path, body, allow_pickle=False)
        with pytest.raises(ParseError, match="measures no pollutant") as err:
            read_station_records(tmp_path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "meta", [[], {"stations": 2, "observations": 3, "dropped": 1}], ids=["list", "no-sha256"]
    )
    def test_malformed_sidecar_names_the_file(self, tmp_path, meta):
        _station_records(tmp_path)
        (tmp_path / "sites.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ParseError, match="not a station-records sidecar") as err:
            read_station_records(tmp_path)
        assert str(tmp_path / "sites.json") in str(err.value)

    @pytest.mark.parametrize("key", ["stations", "observations"])
    def test_sidecar_count_disagreeing_with_the_body_names_the_file(self, tmp_path, key):
        _station_records(tmp_path)
        sidecar = tmp_path / "sites.json"
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
        meta[key] += 1
        sidecar.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(ParseError, match="the sidecar gives") as err:
            read_station_records(tmp_path)
        assert str(tmp_path / ("sites.npy" if key == "stations" else "observations.npy")) in str(
            err.value
        )
