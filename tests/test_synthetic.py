"""Synthetic-data generator: determinism, moments, cadence, recovery hooks."""

import numpy as np
import pytest

from specdown import lmc
from specdown.grid import GridSpec
from specdown.inference import derive_rng
from specdown.lmc import Coregionalization, SpatialDecay, StackedLayout, chol_pd, sample_w
from specdown.stations import cell_indices, site_measures
from specdown.synthetic import (
    CADENCE_GAP,
    FieldSpectrum,
    SimConfig,
    _station_layout,
    simulate,
    simulate_fields,
    true_raw_coef,
)


def _config(**overrides):
    base = dict(
        spec=GridSpec(16, 16, 12.0),
        beta0=np.array([1.0, 0.5]),
        beta=0.4 * np.ones((2, 2, 3)),
        nugget2=np.array([0.04, 0.09]),
        coreg=np.array([[0.5, 0.0], [0.2, 0.4]]),
        decay=0.02,
        basis_degree=1,
        n_stations=20,
        days=4,
        seed=7,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            _config(beta=np.ones((2, 3)))
        with pytest.raises(ValueError):
            _config(beta0=np.ones(3))

    def test_coreg_needs_decay(self):
        with pytest.raises(ValueError, match="decay"):
            _config(decay=None)

    def test_cadence_validated(self):
        with pytest.raises(ValueError):
            _config(cadence="weekly")


class TestSimulateFields:
    def test_deterministic(self):
        a = simulate_fields(_config())
        b = simulate_fields(_config())
        for key in a:
            assert np.array_equal(a[key].values, b[key].values)

    def test_keys_cover_all_fields_and_days(self):
        fields = simulate_fields(_config())
        assert set(fields) == {(j, d) for j in range(2) for d in range(1, 5)}

    def test_dc_concentrated_spectrum_is_flat(self):
        cfg = _config(spectrum=FieldSpectrum(variance=1.0, range_cells=200.0, exponent=4.0))
        fields = simulate_fields(cfg)
        f = fields[(0, 1)]
        # nearly all mass at frequency zero: the field is almost constant
        assert f.values.std() < 0.05 * max(abs(f.mean()), 1.0)

    def test_white_spectrum_variance_oracle(self):
        # white density: field values are iid with the target variance;
        # check the mean of sample variances across replicates against
        # its Monte Carlo standard error
        target = 0.8
        variances = []
        for seed in range(200):
            cfg = _config(
                spectrum=FieldSpectrum(variance=target, exponent=0.0),
                days=1,
                seed=seed,
            )
            f = simulate_fields(cfg)[(0, 1)]
            variances.append(f.values.var(ddof=1))
        variances = np.array(variances)
        se = variances.std(ddof=1) / np.sqrt(variances.size)
        assert abs(variances.mean() - target) < 3.0 * se

    def test_cross_correlated_fields(self):
        cfg = _config(field_cross_corr=0.8, days=1, spec=GridSpec(32, 32, 12.0))
        fields = simulate_fields(cfg)
        r = np.corrcoef(fields[(0, 1)].values, fields[(1, 1)].values)[0, 1]
        assert r > 0.5


def _loop_reference(config, covariates):
    """Observations, true means and residuals of ``simulate_stations`` built
    one observation at a time: the mean summed over (j, b) per observation,
    one nugget draw per observation."""
    rng = derive_rng(config.seed, 2)
    K = config.n_observed
    sites = _station_layout(config, rng)
    ids, held = site_measures(sites)
    stations = {  # site_id -> ((x, y), measures)
        sid: ((x, y), set(ids[h].tolist()))
        for sid, x, y, h in zip(sites.site_id.tolist(), sites.x.tolist(), sites.y.tolist(), held)
    }
    site_ids = sorted(stations)
    cells = {sid: int(cell_indices([xy[0]], [xy[1]], config.spec)[0]) for sid, (xy, _) in stations.items()}
    gap = CADENCE_GAP[config.cadence]
    offsets = {sid: int(o) for sid, o in zip(site_ids, rng.integers(0, gap, size=len(site_ids)))}
    coreg = Coregionalization(config.coreg) if config.coreg is not None else None
    decay = SpatialDecay(config.decay) if config.decay is not None else None
    rows = []
    for day in config.day_list:
        day_w = None
        if coreg is not None:
            layout = StackedLayout(
                day=np.full(len(site_ids) * K, day),
                pollutant=np.repeat(np.arange(K), len(site_ids)),
                coords=np.tile(np.array([stations[s][0] for s in site_ids]), (K, 1)),
            )
            day_w = sample_w(layout, coreg, decay, rng)
        for k in range(K):
            for pos, sid in enumerate(site_ids):
                if k not in stations[sid][1] or (day - 1 - offsets[sid]) % gap != 0:
                    continue
                mu = config.beta0[k]
                for j in range(config.n_gridded):
                    for b in range(config.basis_size):
                        mu += config.beta[k, j, b] * covariates[(j, day)][b, cells[sid]]
                w_val = float(day_w[k * len(site_ids) + pos]) if day_w is not None else 0.0
                eps = rng.normal(0.0, np.sqrt(config.nugget2[k])) if config.nugget2[k] > 0 else 0.0
                rows.append((sid, day, k, float(mu + w_val + eps), float(mu), w_val))
    return rows


class TestSimulateStations:
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"cadence": "1-in-3", "days": 7}, {"nugget2": np.array([0.0, 0.09])}],
        ids=["daily", "1-in-3", "no-nugget-0"],
    )
    def test_blocks_match_the_per_observation_loop(self, overrides):
        cfg = _config(**overrides)
        truth = simulate(cfg)
        got = [
            (o.site_id, o.day, o.pollutant_id, o.value, m, w)
            for o, m, w in zip(truth.observations, truth.true_mean.tolist(), truth.true_w.tolist())
        ]
        assert got == _loop_reference(cfg, truth.covariates)

    def test_one_factor_per_simulate(self, monkeypatch):
        # every day draws w on the same (station, pollutant) rows, so the
        # season factors one LMC block, not one per day
        shapes = []

        def counting(cov):
            shapes.append(cov.shape)
            return chol_pd(cov)

        monkeypatch.setattr(lmc, "chol_pd", counting)
        truth = simulate(_config(days=6))
        assert shapes == [(1, 40, 40)]
        assert sorted(truth.w_days) == list(range(1, 7))

    def test_deterministic_truth(self):
        t1 = simulate(_config())
        t2 = simulate(_config())
        assert np.array_equal(t1.observations, t2.observations)
        for d in t1.w_days:
            assert np.array_equal(t1.w_days[d][1], t2.w_days[d][1])

    def test_noiseless_observations_equal_mean(self):
        cfg = _config(nugget2=np.array([0.0, 0.0]), coreg=None, decay=None)
        truth = simulate(cfg)
        values = np.array([o.value for o in truth.observations])
        assert np.max(np.abs(values - truth.true_mean)) < 1e-12

    def test_cadence_arithmetic_progression(self):
        truth = simulate(_config(cadence="1-in-3", days=12))
        by_site = {}
        for o in truth.observations:
            by_site.setdefault(o.site_id, set()).add(o.day)
        for days in by_site.values():
            days = sorted(days)
            assert all(b - a == 3 for a, b in zip(days, days[1:]))

    def test_strata_mix(self):
        truth = simulate(_config(n_stations=20, strata_mix=(0.5, 0.25, 0.25)))
        ids, held = site_measures(truth.sites)
        strata = {"total": 0, "species": 0, "both": 0}
        for measures in (set(ids[h].tolist()) for h in held):
            if measures == {0}:
                strata["total"] += 1
            elif 0 not in measures:
                strata["species"] += 1
            else:
                strata["both"] += 1
        assert strata == {"total": 10, "species": 5, "both": 5}

    def test_residual_variance_matches_nugget(self):
        # subtracting the known mean and field leaves noise with the
        # configured variance
        cfg = _config(n_stations=60, days=12, seed=3)
        truth = simulate(cfg)
        values = np.array([o.value for o in truth.observations])
        pols = np.array([o.pollutant_id for o in truth.observations])
        resid = values - truth.true_mean - truth.true_w
        for k in range(2):
            rk = resid[pols == k]
            var = rk.var(ddof=1)
            se = np.sqrt(2.0 / (rk.size - 1)) * var
            assert abs(var - cfg.nugget2[k]) < 3.0 * se

    def test_true_raw_coef_matches_design(self):
        from specdown.stations import ModelVariant, assemble_design

        truth = simulate(_config())
        design = assemble_design(
            ModelVariant("SD", True, False),
            truth.fields,
            truth.covariates,
            list(truth.observations),
            truth.sites,
        )
        coef = true_raw_coef(truth, design)
        mean = design.X @ coef
        assert np.max(np.abs(mean - truth.true_mean)) < 1e-9
