"""Station model, variants, design assembly, standardization."""

import numpy as np
import pytest

from specdown.filters import make_basis, spectral_covariates
from specdown.grid import GridField, GridSpec
from specdown.stations import (
    ALL_VARIANTS,
    ModelVariant,
    Observation,
    OutOfGridError,
    Station,
    assemble_design,
    cell_indices,
    cell_lookup,
    coef_to_raw,
    standardize,
    variant_from_name,
)

SPEC = GridSpec(4, 4, 12.0)


def _station(sid, x, y, measures=(0,)):
    return Station(site_id=sid, x=x, y=y, measures=frozenset(measures))


def _fields_and_covs(spec, J, days, B=5, degree=3, seed=0):
    rng = np.random.default_rng(seed)
    basis = make_basis(B, degree)
    fields, covs = {}, {}
    for j in range(J):
        for d in days:
            f = GridField(spec, rng.standard_normal(spec.ncells), pollutant_id=j, day=d)
            fields[(j, d)] = f
            covs[(j, d)] = spectral_covariates(f, basis)
    return fields, covs


class TestVariants:
    def test_exactly_eight(self):
        assert len(ALL_VARIANTS) == 8
        assert len({v.name for v in ALL_VARIANTS}) == 8

    def test_names_round_trip(self):
        for v in ALL_VARIANTS:
            assert variant_from_name(v.name) == v

    def test_parse_is_forgiving(self):
        assert variant_from_name("spatial sd+cross").name == "Spatial SD + Cross"
        assert variant_from_name("LD").name == "LD"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            variant_from_name("quantum downscaler")

    def test_mean_kind_validated(self):
        with pytest.raises(ValueError):
            ModelVariant("XX", False, False)


class TestCellLookup:
    def test_cell_center(self):
        assert cell_lookup(_station("a", 6.0, 6.0), SPEC) == 0

    def test_edge_goes_to_higher_cell(self):
        assert cell_lookup(_station("a", 12.0, 0.0), SPEC) == 1

    def test_row_major_order(self):
        assert cell_lookup(_station("a", 6.0, 18.0), SPEC) == SPEC.nx

    def test_outside_rejected(self):
        with pytest.raises(OutOfGridError):
            cell_lookup(_station("a", -1.0, 5.0), SPEC)
        with pytest.raises(OutOfGridError):
            cell_lookup(_station("a", 48.0, 5.0), SPEC)

    def test_array_form_matches_scalar(self):
        x = np.array([6.0, 12.0, 6.0, 0.0, 47.999, 24.0])
        y = np.array([6.0, 0.0, 18.0, 0.0, 47.999, 36.0])
        expected = [cell_lookup(_station("a", a, b), SPEC) for a, b in zip(x, y)]
        assert cell_indices(x, y, SPEC).tolist() == expected

    def test_array_form_names_first_point_outside(self):
        with pytest.raises(OutOfGridError, match="station q at"):
            cell_indices([5.0, 5.0, 60.0], [5.0, -1.0, 5.0], SPEC, ["p", "q", "r"])


class TestAssembleDesign:
    def test_ld_single_pollutant_row(self):
        stations = {"a": _station("a", 6.0, 6.0)}
        obs = [Observation("a", 1, 0, 0.5)]
        fields, _ = _fields_and_covs(SPEC, J=1, days=[1])
        design = assemble_design(ModelVariant("LD", False, False), fields, [], obs, stations)
        assert design.X.shape == (1, 2)
        cell = cell_lookup(stations["a"], SPEC)
        assert design.X[0, 0] == 1.0
        assert design.X[0, 1] == fields[(0, 1)].values[cell]

    def test_sd_cross_column_count(self):
        stations = {
            "a": _station("a", 6.0, 6.0, (0, 1)),
            "b": _station("b", 30.0, 30.0, (0, 1)),
        }
        obs = [
            Observation("a", 1, 0, 0.1),
            Observation("a", 1, 1, 0.2),
            Observation("b", 1, 0, 0.3),
            Observation("b", 1, 1, 0.4),
        ]
        fields, covs = _fields_and_covs(SPEC, J=2, days=[1])
        design = assemble_design(ModelVariant("SD", True, False), fields, covs, obs, stations)
        assert design.p == 2 + 2 * 2 * 5

    @pytest.mark.parametrize(
        "mean_kind,cross,expected",
        [("LD", False, 2 + 2), ("LD", True, 2 + 2 * 2), ("SD", False, 2 + 2 * 5), ("SD", True, 2 + 2 * 2 * 5)],
    )
    def test_documented_column_counts(self, mean_kind, cross, expected):
        stations = {"a": _station("a", 6.0, 6.0, (0, 1))}
        obs = [Observation("a", 1, 0, 0.1), Observation("a", 1, 1, 0.2)]
        fields, covs = _fields_and_covs(SPEC, J=2, days=[1])
        design = assemble_design(ModelVariant(mean_kind, cross, False), fields, covs, obs, stations)
        assert design.p == expected

    def test_sd_columns_nest_in_cross(self):
        stations = {"a": _station("a", 6.0, 6.0, (0, 1))}
        obs = [Observation("a", 1, 0, 0.1), Observation("a", 1, 1, 0.2)]
        fields, covs = _fields_and_covs(SPEC, J=2, days=[1])
        plain = assemble_design(ModelVariant("SD", False, False), fields, covs, obs, stations)
        cross = assemble_design(ModelVariant("SD", True, False), fields, covs, obs, stations)
        plain_cols = {(c.kind, c.k, c.j, c.b) for c in plain.columns}
        cross_cols = {(c.kind, c.k, c.j, c.b) for c in cross.columns}
        assert plain_cols <= cross_cols
        assert all(c.j == c.k for c in plain.columns if c.kind == "covariate")

    def test_missing_covariate_is_config_error(self):
        stations = {"a": _station("a", 6.0, 6.0, (0, 1))}
        obs = [Observation("a", 1, 0, 0.1), Observation("a", 1, 1, 0.2)]
        fields, covs = _fields_and_covs(SPEC, J=2, days=[1])
        covs.pop((1, 1))
        with pytest.raises(ValueError, match="missing covariate"):
            assemble_design(ModelVariant("SD", True, False), fields, covs, obs, stations)

    def test_deterministic_assembly(self):
        rng = np.random.default_rng(5)
        stations = {
            f"s{i}": _station(f"s{i}", rng.uniform(0, 48), rng.uniform(0, 48), (0, 1))
            for i in range(6)
        }
        obs = [
            Observation(sid, d, k, float(rng.standard_normal()))
            for d in (1, 2)
            for sid in stations
            for k in (0, 1)
        ]
        fields, covs = _fields_and_covs(SPEC, J=2, days=[1, 2])
        variant = ModelVariant("SD", True, False)
        d1 = assemble_design(variant, fields, covs, obs, stations)
        d2 = assemble_design(variant, fields, covs, obs, stations)
        assert np.array_equal(d1.X, d2.X)
        assert d1.columns == d2.columns


def _small_design():
    stations = {
        "a": _station("a", 6.0, 6.0),
        "b": _station("b", 30.0, 6.0),
        "c": _station("c", 6.0, 30.0),
    }
    obs = [Observation(s, 1, 0, 0.1 * i) for i, s in enumerate(("a", "b", "c"))]
    fields, covs = _fields_and_covs(SPEC, J=1, days=[1], B=2, degree=1, seed=9)
    return assemble_design(ModelVariant("SD", False, False), fields, covs, obs, stations)


class TestStandardize:
    def test_columns_scaled(self):
        design = standardize(_small_design())
        for idx, col in enumerate(design.columns):
            if col.kind != "covariate":
                continue
            vals = design.X[:, idx]
            assert abs(vals.mean()) < 1e-12
            assert abs(vals.std(ddof=1) - 1.0) < 1e-12

    def test_example_column(self):
        # direct check of the (value - mean) / sd rule with n-1 sd
        raw = np.array([1.0, 2.0, 3.0])
        assert raw.std(ddof=1) == pytest.approx(1.0)
        scaled = (raw - raw.mean()) / raw.std(ddof=1)
        assert np.allclose(scaled, [-1.0, 0.0, 1.0])

    def test_intercepts_untouched(self):
        raw = _small_design()
        design = standardize(raw)
        for idx, col in enumerate(design.columns):
            if col.kind == "intercept":
                assert np.array_equal(design.X[:, idx], raw.X[:, idx])

    def test_constant_column_flagged_unchanged(self):
        raw = _small_design()
        X = raw.X.copy()
        X[:, 1] = 7.0
        import dataclasses

        raw = dataclasses.replace(raw, X=X)
        design = standardize(raw)
        assert design.zero_variance == (design.columns[1].label,)
        assert np.array_equal(design.X[:, 1], X[:, 1])
        assert design.col_sd[1] == 1.0

    def test_round_trip(self):
        raw = _small_design()
        design = standardize(raw)
        back = design.X.copy()
        for idx, col in enumerate(design.columns):
            if col.kind == "covariate":
                rows = design.row_pollutant == col.k
                back[rows, idx] = back[rows, idx] * design.col_sd[idx] + design.col_mean[idx]
        assert np.max(np.abs(back - raw.X)) < 1e-12

    def test_double_standardize_rejected(self):
        with pytest.raises(ValueError):
            standardize(standardize(_small_design()))


class TestCoefToRaw:
    def test_predictions_match_on_raw_scale(self):
        raw = _small_design()
        design = standardize(raw)
        rng = np.random.default_rng(2)
        coef = rng.standard_normal(design.p)
        raw_coef = coef_to_raw(design, coef)
        assert np.max(np.abs(design.X @ coef - raw.X @ raw_coef)) < 1e-10

    def test_matrix_of_draws(self):
        raw = _small_design()
        design = standardize(raw)
        rng = np.random.default_rng(3)
        draws = rng.standard_normal((4, design.p))
        raw_draws = coef_to_raw(design, draws)
        assert raw_draws.shape == draws.shape
        assert np.max(np.abs(design.X @ draws.T - raw.X @ raw_draws.T)) < 1e-10
