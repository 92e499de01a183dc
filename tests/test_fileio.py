"""Posterior, grid and covariate files: write -> read round trips."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specdown.fileio import (
    ParseError,
    read_covariate,
    read_grid,
    read_posterior,
    write_covariate,
    write_grid,
    write_natural_csv,
    write_posterior,
)
from specdown.grid import GridField, GridSpec
from specdown.inference import BatchPosterior
from specdown.lmc import StackedLayout

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
    spatial = draw(st.booleans())
    w_draws = w_layout = None
    if spatial:
        days = draw(st.lists(st.integers(0, 400), min_size=1, max_size=3, unique=True))
        per_day = draw(st.integers(1, 3))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        w_layout = StackedLayout(
            day=np.repeat(days, per_day),
            pollutant=rng.integers(0, 3, per_day * len(days)),
            coords=rng.uniform(0, 100, (per_day * len(days), 2)),
        )
        w_draws = {d: rng.standard_normal((n_draws, per_day)) for d in days}
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
        w_draws=w_draws,
        w_layout=w_layout,
    )


class TestPosteriorRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(post=posteriors())
    def test_write_read(self, post):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "batch_000.csv"
            write_posterior(post, path)
            back = read_posterior(path)
            assert back.param_names == post.param_names
            np.testing.assert_array_equal(back.draws, post.draws)
            for attr in ("transforms", "n_beta", "n_pollutants", "days", "seed", "acceptance"):
                assert getattr(back, attr) == getattr(post, attr)
            assert back.decay_bounds == post.decay_bounds
            if post.w_draws is None:
                assert back.w_draws is None and back.w_layout is None
            else:
                assert sorted(back.w_draws) == sorted(post.w_draws)
                for d, arr in post.w_draws.items():
                    np.testing.assert_array_equal(back.w_draws[d], arr)
                for attr in ("day", "pollutant", "coords"):
                    np.testing.assert_array_equal(
                        getattr(back.w_layout, attr), getattr(post.w_layout, attr)
                    )

            # writing what was read gives the same bytes
            again = Path(tmp) / "again.csv"
            write_posterior(back, again)
            pairs = [(path, again), (path.with_suffix(".json"), again.with_suffix(".json"))]
            for first, second in pairs:
                assert first.read_bytes() == second.read_bytes()

    def test_comma_names_are_one_column_each(self, tmp_path):
        names = ("beta0[0]", "beta[k=0,j=0,b=0]", "beta[k=0,j=1,b=2]", "decay.logit")
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
        write_natural_csv(post, tmp_path / "combined_natural.csv")
        back = read_posterior(tmp_path / "combined.csv")
        assert back.param_names == names
        header = (tmp_path / "combined_natural.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header.endswith(",decay")


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

    def test_text_is_shortest_repr(self, tmp_path):
        # a subnormal, a negative zero and a huge value keep the spelling of
        # repr(float), which makes reruns byte-identical
        values = [5e-324, -0.0, 1e300, 0.1, -2.5, 1.0 / 3.0]
        field = GridField(GridSpec(3, 2, 12.5), values, 1, 7)
        path = tmp_path / "grid.txt"
        write_grid(field, path)
        expected = "3 2 12.5 1 7\n" + " ".join(repr(float(v)) for v in values) + "\n"
        assert path.read_text(encoding="utf-8") == expected
        _assert_same_field(read_grid(path), field)


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
        path.write_text(path.read_text(encoding="utf-8").replace("\n1 2\n", "\n0 2\n"), encoding="utf-8")
        with pytest.raises(ParseError, match="suffix pollutant 0"):
            read_covariate(path)
