"""Site records, variants, design assembly, standardization."""

import numpy as np
import pytest

from specdown.filters import make_basis, spectral_covariates
from specdown.grid import GridField, GridSpec
from specdown.stations import (
    ALL_VARIANTS,
    CellTable,
    ModelVariant,
    OutOfGridError,
    assemble_design,
    cell_indices,
    coef_to_raw,
    design_rows,
    observation_records,
    site_measures,
    site_records,
    standardize,
    station_coords,
    variant_from_name,
)

SPEC = GridSpec(4, 4, 12.0)


def _sites(*rows):
    """Site records of (site_id, x, y, measures) rows, measures a set of
    pollutant ids."""
    ids = sorted({k for *_, measures in rows for k in measures})
    site_id, x, y, measures = zip(*rows)
    return site_records(site_id, x, y, (ids, [[k in m for k in ids] for m in measures]))


def cell_lookup(x, y, spec):
    """Cell of one station, looked up on its own."""
    return int(cell_indices([x], [y], spec, ["a"])[0])


def _obs(*rows):
    """Observation records of (site_id, day, pollutant_id, value) rows."""
    return observation_records(*zip(*rows))


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
        assert cell_lookup(6.0, 6.0, SPEC) == 0

    def test_edge_goes_to_higher_cell(self):
        assert cell_lookup(12.0, 0.0, SPEC) == 1

    def test_row_major_order(self):
        assert cell_lookup(6.0, 18.0, SPEC) == SPEC.nx

    def test_outside_rejected(self):
        with pytest.raises(OutOfGridError):
            cell_lookup(-1.0, 5.0, SPEC)
        with pytest.raises(OutOfGridError):
            cell_lookup(48.0, 5.0, SPEC)

    def test_array_form_matches_scalar(self):
        x = np.array([6.0, 12.0, 6.0, 0.0, 47.999, 24.0])
        y = np.array([6.0, 0.0, 18.0, 0.0, 47.999, 36.0])
        expected = [cell_lookup(a, b, SPEC) for a, b in zip(x, y)]
        assert cell_indices(x, y, SPEC).tolist() == expected

    def test_array_form_names_first_point_outside(self):
        with pytest.raises(OutOfGridError, match="station q at"):
            cell_indices([5.0, 5.0, 60.0], [5.0, -1.0, 5.0], SPEC, ["p", "q", "r"])


class TestCellTable:
    @pytest.mark.parametrize(
        "cells,width,match",
        [
            ([3, 3, 8], 3, "strictly increasing"),
            ([8, 3, 5], 3, "strictly increasing"),
            ([[3, 5, 8]], 3, "1-D"),
            ([3, 5, 8], 2, r"shape \(1, 2\), not \(R, 3\)"),
        ],
        ids=["repeated-cell", "unsorted-cells", "two-dimensional-cells", "wrong-width"],
    )
    def test_invariant(self, cells, width, match):
        with pytest.raises(ValueError, match=match):
            CellTable({(0, 1): np.zeros((1, width))}, cells)

    def test_of_grids_gathers_each_cell_once_in_order(self):
        fields, covs = _fields_and_covs(SPEC, 1, [1])
        ld = CellTable.of_grids("LD", fields, covs, [9, 2, 9])
        sd = CellTable.of_grids("SD", fields, covs, [9, 2, 9])
        assert ld.cells.tolist() == sd.cells.tolist() == [2, 9]
        np.testing.assert_array_equal(ld.sources[(0, 1)], fields[(0, 1)].values[[2, 9]][None])
        np.testing.assert_array_equal(sd.sources[(0, 1)], covs[(0, 1)][:, [2, 9]])
        assert ld.positions([9, 2, 9]).tolist() == [1, 0, 1]
        with pytest.raises(ValueError, match="grid cell 3 is not in the station-cell table"):
            ld.positions([2, 3])


class TestObservationRecords:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_refused_where_built(self, bad):
        with pytest.raises(ValueError, match="non-finite observation at b day 2"):
            _obs(("a", 1, 0, 0.5), ("b", 2, 1, bad))

    def test_rows_read_by_attribute(self):
        obs = _obs(("a", 1, 0, 0.5), ("long_site", 2, 1, -0.25))
        assert [(o.site_id, o.day, o.pollutant_id, o.value) for o in obs] == [
            ("a", 1, 0, 0.5),
            ("long_site", 2, 1, -0.25),
        ]


class TestSiteRecords:
    def test_layout_is_that_of_sites_npy(self):
        sites = _sites(("b", 30.0, 40.0, {7, 0}), ("long_id", 10.0, 20.0, {0}))
        assert sites.dtype.descr == [
            ("site_id", "<U7"), ("x", "<f8"), ("y", "<f8"), ("k0", "|b1"), ("k7", "|b1")
        ]
        assert sites.site_id.tolist() == ["b", "long_id"]  # the given order
        ids, held = site_measures(sites)
        assert ids.tolist() == [0, 7]
        assert held.tolist() == [[True, True], [True, False]]

    def test_columns_follow_the_ids_in_order(self):
        sites = site_records(["a"], [1.0], [2.0], ([3, 1], [[False, True]]))
        assert sites.dtype.names == ("site_id", "x", "y", "k1", "k3")
        assert (sites.k1[0], sites.k3[0]) == (True, False)

    def test_station_measuring_nothing_is_refused(self):
        with pytest.raises(ValueError, match="station b measures no pollutant"):
            site_records(["a", "b"], [1.0, 2.0], [1.0, 2.0], ([0, 1], [[True, False], [False, False]]))

    def test_repeated_site_id_is_refused(self):
        with pytest.raises(ValueError, match="site id a is repeated"):
            _sites(("a", 1.0, 1.0, {0}), ("b", 2.0, 2.0, {0}), ("a", 3.0, 3.0, {1}))


class TestStationCoords:
    @staticmethod
    def _dict_lookup(rows, site_id):
        """Reference: the lookup through a {site_id: (x, y)} dict that the
        columns replaced."""
        table = {sid: (x, y) for sid, x, y, _ in rows}
        xy = np.array([table[s] for s in site_id], dtype=float).reshape(-1, 2)
        return xy[:, 0], xy[:, 1]

    def test_values_match_the_dict_lookup(self):
        rng = np.random.default_rng(4)
        rows = [(f"S{i}", rng.uniform(0, 48), rng.uniform(0, 48), {0}) for i in rng.permutation(120)]
        sites = _sites(*rows)
        site_id = [rows[i][0] for i in rng.integers(0, len(rows), 500)]
        x, y = station_coords(sites, site_id)
        ref_x, ref_y = self._dict_lookup(rows, site_id)
        assert np.array_equal(x, ref_x) and np.array_equal(y, ref_y)
        assert [a.size for a in station_coords(sites, [])] == [0, 0]

    @pytest.mark.parametrize("missing", ["S1", "S00", "A", "Z", ""], ids=repr)
    def test_an_id_not_among_the_sites_is_named(self, missing):
        # searchsorted alone would give the neighbour's coordinates
        sites = _sites(("S0", 1.0, 1.0, {0}), ("S2", 2.0, 2.0, {0}), ("S10", 3.0, 3.0, {0}))
        with pytest.raises(ValueError, match=f"site {missing} is not among the stations"):
            station_coords(sites, ["S2", missing, "S0"])


class TestAssembleDesign:
    def test_ld_single_pollutant_row(self):
        sites = _sites(("a", 6.0, 6.0, {0}))
        obs = _obs(("a", 1, 0, 0.5))
        fields, _ = _fields_and_covs(SPEC, J=1, days=[1])
        design = assemble_design(ModelVariant("LD", False, False), fields, [], obs, sites)
        assert design.X.shape == (1, 2)
        cell = cell_lookup(sites.x[0], sites.y[0], SPEC)
        assert design.X[0, 0] == 1.0
        assert design.X[0, 1] == fields[(0, 1)].values[cell]

    def test_sd_cross_column_count(self):
        sites = _sites(("a", 6.0, 6.0, {0, 1}), ("b", 30.0, 30.0, {0, 1}))
        obs = _obs(("a", 1, 0, 0.1), ("a", 1, 1, 0.2), ("b", 1, 0, 0.3), ("b", 1, 1, 0.4))
        fields, covs = _fields_and_covs(SPEC, J=2, days=[1])
        design = assemble_design(ModelVariant("SD", True, False), fields, covs, obs, sites)
        assert design.p == 2 + 2 * 2 * 5

    @pytest.mark.parametrize(
        "mean_kind,cross,expected",
        [("LD", False, 2 + 2), ("LD", True, 2 + 2 * 2), ("SD", False, 2 + 2 * 5), ("SD", True, 2 + 2 * 2 * 5)],
    )
    def test_documented_column_counts(self, mean_kind, cross, expected):
        sites = _sites(("a", 6.0, 6.0, {0, 1}))
        obs = _obs(("a", 1, 0, 0.1), ("a", 1, 1, 0.2))
        fields, covs = _fields_and_covs(SPEC, J=2, days=[1])
        design = assemble_design(ModelVariant(mean_kind, cross, False), fields, covs, obs, sites)
        assert design.p == expected

    def test_sd_columns_nest_in_cross(self):
        sites = _sites(("a", 6.0, 6.0, {0, 1}))
        obs = _obs(("a", 1, 0, 0.1), ("a", 1, 1, 0.2))
        fields, covs = _fields_and_covs(SPEC, J=2, days=[1])
        plain = assemble_design(ModelVariant("SD", False, False), fields, covs, obs, sites)
        cross = assemble_design(ModelVariant("SD", True, False), fields, covs, obs, sites)
        plain_cols = {(c.kind, c.k, c.j, c.b) for c in plain.columns}
        cross_cols = {(c.kind, c.k, c.j, c.b) for c in cross.columns}
        assert plain_cols <= cross_cols
        assert all(c.j == c.k for c in plain.columns if c.kind == "covariate")

    def test_missing_covariate_is_config_error(self):
        sites = _sites(("a", 6.0, 6.0, {0, 1}))
        obs = _obs(("a", 1, 0, 0.1), ("a", 1, 1, 0.2))
        fields, covs = _fields_and_covs(SPEC, J=2, days=[1])
        covs.pop((1, 1))
        with pytest.raises(ValueError, match="missing covariate"):
            assemble_design(ModelVariant("SD", True, False), fields, covs, obs, sites)

    def test_deterministic_assembly(self):
        rng = np.random.default_rng(5)
        sites = _sites(*((f"s{i}", rng.uniform(0, 48), rng.uniform(0, 48), {0, 1}) for i in range(6)))
        obs = _obs(
            *(
                (sid, d, k, float(rng.standard_normal()))
                for d in (1, 2)
                for sid in sites.site_id.tolist()
                for k in (0, 1)
            )
        )
        fields, covs = _fields_and_covs(SPEC, J=2, days=[1, 2])
        variant = ModelVariant("SD", True, False)
        d1 = assemble_design(variant, fields, covs, obs, sites)
        d2 = assemble_design(variant, fields, covs, obs, sites)
        assert np.array_equal(d1.X, d2.X)
        assert d1.columns == d2.columns


class TestDesignRows:
    """Rows of pollutants 0..2 on days 1..3 at six station cells, with the
    SD + Cross columns."""

    DAYS = (1, 2, 3)

    def _setup(self):
        rng = np.random.default_rng(11)
        sites = _sites(
            *((f"s{i}", rng.uniform(0, 48), rng.uniform(0, 48), {0, 1, 2}) for i in range(6))
        )
        obs = _obs(
            *(
                (sid, d, k, float(rng.standard_normal()))
                for d in self.DAYS
                for sid in sites.site_id.tolist()
                for k in (0, 1, 2)
            )
        )
        fields, covs = _fields_and_covs(SPEC, J=3, days=self.DAYS)
        design = assemble_design(ModelVariant("SD", True, False), fields, covs, obs, sites)
        cells = cell_indices(design.row_x, design.row_y, SPEC)
        table = CellTable.of_grids("SD", fields, covs, cells)
        # interleave days and pollutants row by row
        order = rng.permutation(design.n)
        pol, day = design.row_pollutant[order], design.row_day[order]
        return design.columns, table, cells[order], pol, day

    @staticmethod
    def _mask_rows(columns, table, cells, pol, day):
        """Reference: one boolean mask per (column, day), over every row."""
        pos = table.positions(cells)
        rows = np.zeros((pos.size, len(columns)))
        for idx, col in enumerate(columns):
            if col.kind == "intercept":
                rows[pol == col.k, idx] = 1.0
                continue
            for d in np.unique(day).tolist():
                sel = (pol == col.k) & (day == d)
                if sel.any():
                    rows[sel, idx] = table.sources[(col.j, d)][col.b][pos[sel]]
        return rows

    def test_rows_match_the_per_column_mask_reference(self):
        columns, table, cells, pol, day = self._setup()
        rows = design_rows(columns, table, cells, pol, day)
        assert np.array_equal(rows, self._mask_rows(columns, table, cells, pol, day))

    def test_shuffled_rows_are_the_rows_shuffled(self):
        columns, table, cells, pol, day = self._setup()
        rows = design_rows(columns, table, cells, pol, day)
        perm = np.random.default_rng(3).permutation(cells.size)
        shuffled = design_rows(columns, table, cells[perm], pol[perm], day[perm])
        assert np.array_equal(shuffled, rows[perm])

    @pytest.mark.parametrize(
        "removed,named",
        [
            ([(1, 2), (0, 3)], "pollutant 0 day 3"),  # column (k=0, j=0) precedes (k=0, j=1)
            ([(1, 3), (1, 2)], "pollutant 1 day 2"),  # one column, the earlier day
        ],
        ids=["column-order-first", "then-day-order"],
    )
    def test_first_missing_source_in_column_then_day_order(self, removed, named):
        columns, table, cells, pol, day = self._setup()
        sources = {key: src for key, src in table.sources.items() if key not in removed}
        with pytest.raises(ValueError, match=f"missing covariates for {named}$"):
            design_rows(columns, CellTable(sources, table.cells), cells, pol, day)

    def test_intercept_is_one_on_its_pollutant_across_days(self):
        columns, table, cells, pol, day = self._setup()
        rows = design_rows(columns, table, cells, pol, day)
        for idx, col in enumerate(columns):
            if col.kind == "intercept":
                assert np.array_equal(rows[:, idx], (pol == col.k).astype(float))
                assert set(day[pol == col.k].tolist()) == set(self.DAYS)


def _small_design():
    sites = _sites(("a", 6.0, 6.0, {0}), ("b", 30.0, 6.0, {0}), ("c", 6.0, 30.0, {0}))
    obs = _obs(*((s, 1, 0, 0.1 * i) for i, s in enumerate(("a", "b", "c"))))
    fields, covs = _fields_and_covs(SPEC, J=1, days=[1], B=2, degree=1, seed=9)
    return assemble_design(ModelVariant("SD", False, False), fields, covs, obs, sites)


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

    def test_matches_the_per_column_mask_reference(self):
        # standardize once built one full-length mask per covariate column;
        # the rows here interleave pollutants and days
        rng = np.random.default_rng(5)
        sites = _sites(
            *((f"s{i}", rng.uniform(0, 48), rng.uniform(0, 48), {0, 1, 2}) for i in range(6))
        )
        rows = [
            (sid, d, k, float(rng.standard_normal()))
            for d in (1, 2, 3)
            for sid in sites.site_id.tolist()
            for k in (0, 1, 2)
        ]
        obs = _obs(*(rows[i] for i in rng.permutation(len(rows))))
        fields, covs = _fields_and_covs(SPEC, J=3, days=(1, 2, 3))
        raw = assemble_design(ModelVariant("SD", True, False), fields, covs, obs, sites)
        mean, sd, X = np.zeros(raw.p), np.ones(raw.p), raw.X.copy()
        for idx, col in enumerate(raw.columns):
            if col.kind == "covariate":
                mask = raw.row_pollutant == col.k
                vals = raw.X[mask, idx]
                mean[idx], sd[idx] = vals.mean(), vals.std(ddof=1)
                X[mask, idx] = (vals - mean[idx]) / sd[idx]
        design = standardize(raw)
        assert np.array_equal(design.col_mean, mean)
        assert np.array_equal(design.col_sd, sd)
        assert np.array_equal(design.X, X)

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
        raw_coef = coef_to_raw(design, draws)
        assert raw_coef.shape == draws.shape
        assert np.max(np.abs(design.X @ draws.T - raw.X @ raw_coef.T)) < 1e-10
