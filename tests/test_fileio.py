"""Posterior, grid, covariate and station-cell files: write -> read round
trips and faults; run configuration loading."""

import json
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
    read_covariate,
    read_grid,
    read_grid_header,
    read_posterior,
    write_covariate,
    write_grid,
    write_cell_table,
    write_posterior,
)
from specdown.grid import GridField, GridSpec
from specdown.inference import BatchPosterior, McmcConfig, Priors
from specdown.stations import CellTable

# printable names, commas and quotes included: parameter labels such as
# beta[k=0,j=0,b=0] hold commas
NAME = st.text(
    alphabet=st.characters(blacklist_categories=("Cc", "Cs")) | st.sampled_from(',"[]=.'),
    min_size=1,
    max_size=12,
)
FINITE = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)


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
    @pytest.mark.parametrize("damage", ["text", "truncated"])
    def test_damaged_body_names_the_file(self, tmp_path, make, damage):
        # a bare numpy ValueError once reached the user without a path
        path = tmp_path / "damaged.npy"
        read = make(path)
        data = path.read_bytes()
        path.write_bytes(b"a,b\n0.0,1.0\n" if damage == "text" else data[:-5])
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


class TestCovariateRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(field=grid_fields(), j=st.integers(0, 9), b=st.integers(0, 20))
    def test_write_read(self, field, j, b):
        field = GridField(field.spec, field.values, j, field.day)
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "cov.txt", Path(tmp) / "again.txt"
            write_covariate(field, b, path)
            back, back_b = read_covariate(path)
            assert back.spec == field.spec
            assert (back.pollutant_id, back_b) == (j, b)
            _assert_same_field(back, field)
            write_covariate(back, back_b, again)
            assert again.read_bytes() == path.read_bytes()

    def test_suffix_pollutant_must_match_header(self, tmp_path):
        path = tmp_path / "cov.txt"
        write_covariate(GridField(GridSpec(2, 2, 12.0), np.ones(4), 1, 3), 2, path)
        data = path.read_bytes()
        assert data.endswith(b"1 2\n")
        path.write_bytes(data[:-4] + b"0 2\n")
        with pytest.raises(ParseError, match="suffix pollutant 0"):
            read_covariate(path)


SPEC = GridSpec(3, 2, 12.5)
BODY_BYTES = 8 * SPEC.ncells


CODECS = pytest.mark.parametrize(
    "write,read,suffix",
    [
        (lambda path, field: write_grid(field, path), read_grid, b""),
        (lambda path, field: write_covariate(field, 4, path), read_covariate, b"1 4\n"),
    ],
    ids=["grid", "covariate"],
)


def _edit_body(path, edit):
    """Rewrite the file at ``path`` with ``edit(body)`` in place of its body."""
    data = path.read_bytes()
    start = data.index(b"\n") + 1
    body, rest = data[start : start + BODY_BYTES], data[start + BODY_BYTES :]
    path.write_bytes(data[:start] + edit(body) + rest)


class TestGridCodecFaults:
    @CODECS
    def test_text_grid_is_refused_by_name(self, tmp_path, write, read, suffix):
        # grids written before bodies were binary have a five-token header
        path = tmp_path / "grid_j1_d007.txt"
        path.write_bytes(b"3 2 12.5 1 7\n" + b" ".join([b"1.0"] * 6) + b"\n" + suffix)
        for reader in (read, read_grid_header):
            with pytest.raises(ParseError, match="binary little-endian float64") as err:
                reader(path)
            assert str(path) in str(err.value)

    @CODECS
    @settings(max_examples=40, deadline=None)
    @given(cut=st.integers(1, BODY_BYTES))
    def test_short_body_gives_the_byte_count(self, write, read, suffix, cut):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "grid.txt"
            write(path, GridField(SPEC, np.arange(1.0, 7.0), 1, 7))
            _edit_body(path, lambda body: body[:-cut])
            expected = f"expected (a body of )?{BODY_BYTES} bytes"
            with pytest.raises(ParseError, match=expected) as err:
                read(path)
            assert str(path) in str(err.value)

    @CODECS
    @settings(max_examples=40, deadline=None)
    @given(extra=st.binary(min_size=1, max_size=24) | st.sampled_from([b"0", b"-", b"5", b" "]))
    def test_long_body_gives_the_byte_count(self, write, read, suffix, extra):
        # bytes slipped in before a covariate's suffix line must not parse
        # as part of it
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "grid.txt"
            write(path, GridField(SPEC, np.arange(1.0, 7.0), 1, 7))
            _edit_body(path, lambda body: body + extra)
            with pytest.raises(ParseError, match=f"{BODY_BYTES} bytes") as err:
                read(path)
            assert str(path) in str(err.value)

    @CODECS
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_names_the_file(self, tmp_path, write, read, suffix, bad):
        path = tmp_path / "grid.txt"
        write(path, GridField(SPEC, np.ones(6), 1, 7))
        _edit_body(path, lambda body: body[:16] + struct.pack("<d", bad) + body[24:])
        with pytest.raises(ParseError, match=f"non-finite value {bad!r} at cell 2") as err:
            read(path)
        assert str(path) in str(err.value)


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
