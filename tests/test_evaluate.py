"""Cross-validation splits, prediction, scoring, coherence curves."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specdown import evaluate
from specdown.evaluate import (
    PredictionContext,
    PredictionTarget,
    Scorecard,
    aggregate_means,
    coherence_curve,
    cv_split,
    predict,
    score,
    split_season,
)
from specdown.filters import make_basis, spectral_covariates
from specdown.grid import GridField, GridSpec
from specdown.inference import (
    BatchData,
    BatchPosterior,
    McmcConfig,
    Priors,
    fit_batch_mcmc,
)
from specdown.lmc import Coregionalization, SpatialDecay, StackedLayout, sample_w
from specdown.stations import (
    ColumnMeta,
    DesignMatrix,
    ModelVariant,
    Observation,
    Station,
    assemble_design,
    cell_indices,
    cell_lookup,
    standardize,
)


def _stations(n_total=10, n_species=5, n_both=5, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_total + n_species + n_both):
        if i < n_total:
            measures = frozenset([0])
        elif i < n_total + n_species:
            measures = frozenset([1])
        else:
            measures = frozenset([0, 1])
        out.append(
            Station(f"S{i:03d}", float(rng.uniform(0, 100)), float(rng.uniform(0, 100)), measures)
        )
    return out


class TestCvSplit:
    def test_balanced_strata(self):
        stations = _stations(10, 10, 10)
        folds = cv_split(stations, folds=5, seed=1)
        assert set(folds.values()) == set(range(5))
        for stratum_range in (range(10), range(10, 20), range(20, 30)):
            ids = [f"S{i:03d}" for i in stratum_range]
            counts = np.bincount([folds[s] for s in ids], minlength=5)
            assert counts.max() - counts.min() <= 1
            assert counts.sum() == 10

    def test_same_seed_same_assignment(self):
        stations = _stations()
        assert cv_split(stations, 5, seed=3) == cv_split(stations, 5, seed=3)

    def test_partition(self):
        stations = _stations(7, 4, 6)
        folds = cv_split(stations, folds=5, seed=2)
        assert set(folds) == {s.site_id for s in stations}

    def test_small_stratum_warns(self):
        stations = _stations(10, 2, 10)
        with pytest.warns(UserWarning, match="fewer than"):
            cv_split(stations, folds=5, seed=0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_fold_properties_any_seed(self, seed):
        stations = _stations(11, 6, 8)
        folds = cv_split(stations, folds=5, seed=seed)
        assert set(folds) == {s.site_id for s in stations}
        assert all(0 <= f < 5 for f in folds.values())


class TestSplitSeason:
    def test_standard_season(self):
        train, test = split_season(range(1, 91))
        assert train == tuple(range(1, 79))
        assert test == tuple(range(79, 91))

    def test_proportional_fallback(self):
        with pytest.warns(UserWarning, match="proportional"):
            train, test = split_season(range(1, 13))
        assert train == tuple(range(1, 11))
        assert test == (11, 12)

    def test_nonconsecutive_rejected(self):
        with pytest.raises(ValueError, match="consecutive"):
            split_season([1, 2, 4, 5])


def _fitted_setup(seed=0, tau2=0.04, l11=0.4, n_sites=25, phi=0.05, n_iter=900, fix_nugget=None):
    """One spatial batch fit on synthetic data; returns the pieces."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(8, 8, 12.0)
    days = (1, 2, 3)
    basis = make_basis(3, 1)
    fields, covs = {}, {}
    for d in days:
        f = GridField(spec, rng.standard_normal(64), 0, d)
        fields[(0, d)] = f
        covs[(0, d)] = spectral_covariates(f, basis)
    stations = {
        f"s{i}": Station(f"s{i}", float(rng.uniform(0, 96)), float(rng.uniform(0, 96)), frozenset([0]))
        for i in range(n_sites)
    }
    sids = sorted(stations)
    layout = StackedLayout(
        day=np.repeat(days, n_sites),
        pollutant=np.zeros(len(days) * n_sites, int),
        coords=np.tile(np.array([[stations[s].x, stations[s].y] for s in sids]), (len(days), 1)),
    )
    w = sample_w(layout, Coregionalization(np.array([[l11]])), SpatialDecay(phi), rng)
    beta0, slope = 1.0, 0.8
    obs = [Observation(s, d, 0, 0.0) for d in days for s in sids]
    variant = ModelVariant("SD", False, True)
    design = assemble_design(variant, fields, covs, obs, stations)
    mean = beta0 + design.X[:, 1:] @ np.array([slope, 0.3, 0.1])
    y = mean + w + rng.normal(0, np.sqrt(tau2), len(obs))
    obs = [
        Observation(o.site_id, o.day, o.pollutant_id, float(v)) for o, v in zip(obs, y)
    ]
    design = standardize(assemble_design(variant, fields, covs, obs, stations))
    yv = np.array([o.value for o in obs])
    batch = BatchData(days=days, y=yv, X=design.X, layout=layout, n_pollutants=1, design=design)
    priors = Priors(decay_bounds=(0.01, 0.2))
    cfg_kw = dict(iterations=n_iter, burnin=300, thin=2, seed=seed)
    if fix_nugget is not None:
        cfg_kw.update(update_nugget=False, init_nugget2=np.array([fix_nugget]))
    post = fit_batch_mcmc(batch, variant, priors, McmcConfig(**cfg_kw))
    ctx = PredictionContext(
        variant=variant, design=design, spec=spec, train_days=days, fields=fields, covs=covs
    )
    return spec, stations, obs, post, ctx, dict(tau2=tau2, l11=l11)


class TestPredict:
    def test_mode_day_validation(self):
        spec, stations, obs, post, ctx, _ = _fitted_setup()
        with pytest.raises(ValueError, match="outside the training period"):
            predict(post, [PredictionTarget(5, 5, 0, 99, "interpolation")], ctx)
        with pytest.raises(ValueError, match="inside the training period"):
            predict(post, [PredictionTarget(5, 5, 0, 2, "forecast")], ctx)

    def test_target_outside_grid_rejected(self):
        spec, stations, obs, post, ctx, _ = _fitted_setup()
        from specdown.stations import OutOfGridError

        with pytest.raises(OutOfGridError):
            predict(post, [PredictionTarget(-5.0, 5, 0, 2, "interpolation")], ctx)

    def test_interpolation_approaches_observation_as_nugget_vanishes(self):
        # with the model's nugget pinned near zero, the sampled residual field
        # interpolates the data and kriging reproduces observations exactly
        spec, stations, obs, post, ctx, truth = _fitted_setup(
            tau2=1e-12, n_iter=700, fix_nugget=1e-12
        )
        some = [o for o in obs if o.day == 2][:6]
        targets = [
            PredictionTarget(
                stations[o.site_id].x, stations[o.site_id].y, 0, 2, "interpolation", o.site_id
            )
            for o in some
        ]
        results = predict(post, targets, ctx, np.random.default_rng(0))
        for res, o in zip(results, some):
            assert abs(res.mean_log - o.value) < 1e-6

    def test_forecast_variance_at_least_interpolation(self):
        # the unconditioned residual field must widen forecasts relative to
        # kriging-conditioned interpolation at the same site
        spec, stations, obs, post, ctx, _ = _fitted_setup(tau2=0.01, l11=0.8, n_iter=900)
        sid = sorted(stations)[0]
        st_ = stations[sid]
        rng = np.random.default_rng(1)
        interp = predict(
            post, [PredictionTarget(st_.x, st_.y, 0, 2, "interpolation", sid)], ctx, rng
        )[0]
        # forecast from the same posterior at a test day
        ctx_fore = PredictionContext(
            variant=ctx.variant,
            design=ctx.design,
            spec=spec,
            train_days=(1, 2),
            fields=ctx.fields,
            covs=ctx.covs,
        )
        fore = predict(
            post, [PredictionTarget(st_.x, st_.y, 0, 3, "forecast", sid)], ctx_fore, rng
        )[0]
        assert (fore.hi_log - fore.lo_log) >= (interp.hi_log - interp.lo_log)

    def test_kriging_weights_match_direct_solve(self):
        # fixed parameters, three sites on a line: the conditional mean of the
        # residual field must equal c0' C^{-1} w from an independent solve
        l11, phi = 0.9, 0.04
        sites = np.array([[0.0, 0.0], [30.0, 0.0], [60.0, 0.0]])
        layout = StackedLayout(
            day=np.ones(3, int), pollutant=np.zeros(3, int), coords=sites
        )
        w_vals = np.array([0.5, -0.2, 0.3])
        draws = np.zeros((4, 2))  # intercept and slope fixed at zero
        vech = np.log(l11)
        lo, hi = 0.01, 0.2
        u = np.log((phi - lo) / (hi - lo)) - np.log(1 - (phi - lo) / (hi - lo))
        packed = np.column_stack(
            [draws, np.full((4, 1), np.log(1e-12)), np.full((4, 1), vech), np.full((4, 1), u)]
        )
        post = BatchPosterior(
            draws=packed,
            param_names=("beta0[0]", "beta[k=0,j=0]", "nugget2[0].log", "coreg[0,0].log", "decay.logit"),
            transforms=("id", "id", "log", "log", "logit"),
            n_beta=2,
            n_pollutants=1,
            days=(1,),
            decay_bounds=(lo, hi),
            w_draws={1: np.tile(w_vals, (4, 1))},
            w_layout=layout,
        )
        spec = GridSpec(8, 8, 12.0)
        field = GridField(spec, np.zeros(64), 0, 1)
        variant = ModelVariant("LD", False, True)
        design = assemble_design(
            variant,
            {(0, 1): field},
            [],
            [Observation("s0", 1, 0, 0.0)],
            {"s0": Station("s0", 1.0, 1.0, frozenset([0]))},
        )
        ctx = PredictionContext(
            variant=variant,
            design=design,
            spec=spec,
            train_days=(1,),
            fields={(0, 1): field},
        )
        target = PredictionTarget(15.0, 0.0, 0, 1, "interpolation", "new")
        res = predict(post, [target], ctx, np.random.default_rng(0))[0]

        C = l11**2 * np.exp(-phi * np.abs(sites[:, 0:1] - sites[:, 0:1].T))
        c0 = l11**2 * np.exp(-phi * np.abs(sites[:, 0] - 15.0))
        oracle = c0 @ np.linalg.solve(C, w_vals)
        # all draws identical and nugget ~ 0: the predictive mean is the
        # kriging mean plus the conditional-draw noise, which has variance
        # sigma0^2 - c0' C^{-1} c0
        cond_var = l11**2 - c0 @ np.linalg.solve(C, c0)
        assert abs(res.mean_log - oracle) < 4.0 * np.sqrt(cond_var / 4 + 1e-12)

    def test_results_align_with_targets(self):
        spec, stations, obs, post, ctx, _ = _fitted_setup()
        targets = [
            PredictionTarget(10.0, 10.0, 0, 1, "interpolation", "a"),
            PredictionTarget(50.0, 50.0, 0, 2, "interpolation", "b"),
        ]
        results = predict(post, targets, ctx, np.random.default_rng(0))
        assert [r.target.site_id for r in results] == ["a", "b"]
        for r in results:
            assert r.lo_log <= r.mean_log <= r.hi_log
            assert r.point > 0


def _spatial_posterior(draws, K, n_beta, lo, hi, w_draws, layout):
    """BatchPosterior from natural-scale draws: beta (I, p), nugget2 (I, K),
    lower mixing matrices (I, K, K) and decay rates (I,)."""
    beta, nugget2, lower, decay = draws
    vech, names = [], []
    for c in range(K):
        for r in range(c, K):
            vech.append(np.log(lower[:, r, c]) if r == c else lower[:, r, c])
            names.append(f"coreg[{r},{c}]" + (".log" if r == c else ""))
    frac = (decay - lo) / (hi - lo)
    packed = np.column_stack(
        [beta, np.log(nugget2), np.column_stack(vech), np.log(frac) - np.log1p(-frac)]
    )
    names = (
        [f"beta[{i}]" for i in range(n_beta)]
        + [f"nugget2[{k}].log" for k in range(K)]
        + names
        + ["decay.logit"]
    )
    transforms = (
        ["id"] * n_beta
        + ["log"] * K
        + ["log" if n.endswith(".log") else "id" for n in names[n_beta + K : -1]]
        + ["logit"]
    )
    return BatchPosterior(
        draws=packed,
        param_names=tuple(names),
        transforms=tuple(transforms),
        n_beta=n_beta,
        n_pollutants=K,
        days=tuple(sorted(w_draws)),
        decay_bounds=(lo, hi),
        w_draws=w_draws,
        w_layout=layout,
    )


def _reference_row(ctx, t):
    """Design row of one target, column by column."""
    cell = cell_lookup(Station("t", t.x, t.y, frozenset([t.pollutant_id])), ctx.spec)
    design = ctx.design
    row = np.zeros(design.p)
    for idx, col in enumerate(design.columns):
        if col.k != t.pollutant_id:
            continue
        if col.kind == "intercept":
            row[idx] = 1.0
            continue
        value = ctx.fields[(col.j, t.day)].values[cell]
        row[idx] = (value - design.col_mean[idx]) / design.col_sd[idx]
    return row


def _reference_predict(post, targets, ctx, rng):
    """Per target: explicit solves per draw, then the noise blocks in the
    documented order (residual, then nugget).  Returns per target the
    conditional mean and variance (None for forecasts), the 2.5/50/97.5
    percentiles and the mean of the draws."""
    beta = post.beta_draws()
    nugget2 = post.nugget2_draws()
    lower = post.coreg_draws()
    cross = lower @ np.swapaxes(lower, 1, 2)
    rate = post.decay_draws()
    layout = post.w_layout
    I = beta.shape[0]
    out = []
    for t in targets:
        k = t.pollutant_id
        draws = beta @ _reference_row(ctx, t)
        mean = var = None
        if t.mode == "interpolation":
            pos = np.flatnonzero(layout.day == t.day)
            xy, pol = layout.coords[pos], layout.pollutant[pos]
            dist = np.hypot(xy[:, None, 0] - xy[None, :, 0], xy[:, None, 1] - xy[None, :, 1])
            d0 = np.hypot(xy[:, 0] - t.x, xy[:, 1] - t.y)
            mean, var = np.empty(I), np.empty(I)
            for i in range(I):
                C = cross[i][np.ix_(pol, pol)] * np.exp(-rate[i] * dist)
                c0 = cross[i, k, pol] * np.exp(-rate[i] * d0)
                mean[i] = c0 @ np.linalg.solve(C, post.w_draws[t.day][i])
                var[i] = cross[i, k, k] - c0 @ np.linalg.solve(C, c0)
            draws = draws + mean + np.sqrt(var) * rng.standard_normal(I)
        else:
            draws = draws + np.sqrt(cross[:, k, k]) * rng.standard_normal(I)
        draws = draws + np.sqrt(nugget2[:, k]) * rng.standard_normal(I)
        out.append((mean, var, np.percentile(draws, [2.5, 50.0, 97.5]), draws.mean()))
    return out


def _kriging_setup(seed=5, I=12, K=2, train_days=(1, 2, 3)):
    """Hand-built spatial posterior over K pollutants with day blocks of
    different sizes, plus an LD + Cross design to predict with."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(8, 8, 12.0)
    days = train_days + (train_days[-1] + 1,)
    fields = {
        (j, d): GridField(spec, rng.standard_normal(64), j, d) for j in range(K) for d in days
    }
    stations = {
        f"s{i}": Station(
            f"s{i}", float(rng.uniform(0, 96)), float(rng.uniform(0, 96)), frozenset({i % K, 0})
        )
        for i in range(10)
    }
    obs = [
        Observation(sid, d, k, float(rng.standard_normal()))
        for d in train_days
        for sid in sorted(stations)[: 6 + d]
        for k in sorted(stations[sid].measures)
    ]
    variant = ModelVariant("LD", True, True)
    design = standardize(assemble_design(variant, fields, [], obs, stations))
    layout = StackedLayout(
        day=design.row_day,
        pollutant=design.row_pollutant,
        coords=np.column_stack([design.row_x, design.row_y]),
    )
    lower = np.zeros((I, K, K))
    lower[:, np.arange(K), np.arange(K)] = rng.uniform(0.4, 1.2, (I, K))
    lower[:, 1, 0] = rng.normal(0, 0.3, I)
    lo, hi = 0.01, 0.2
    natural = (
        rng.standard_normal((I, design.p)),
        rng.uniform(0.01, 0.1, (I, K)),
        lower,
        rng.uniform(0.02, 0.08, I),
    )
    w_draws = {d: rng.standard_normal((I, int(np.sum(layout.day == d)))) for d in train_days}
    post = _spatial_posterior(natural, K, design.p, lo, hi, w_draws, layout)
    ctx = PredictionContext(
        variant=variant, design=design, spec=spec, train_days=train_days, fields=fields
    )
    return post, ctx, stations, obs


class TestVectorisedPredict:
    def _targets(self, seed=9, n=21):
        # off-site points, days and pollutants interleaved, one forecast day
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n):
            day = int(rng.integers(1, 5))
            mode = "forecast" if day == 4 else "interpolation"
            x, y = rng.uniform(0, 96, 2)
            out.append(PredictionTarget(float(x), float(y), i % 2, day, mode, f"t{i}"))
        return out

    @pytest.mark.parametrize("chunk_values", [None, 1000])
    def test_matches_per_target_reference(self, monkeypatch, chunk_values):
        post, ctx, _, _ = _kriging_setup()
        targets = self._targets()
        assert {t.day for t in targets} == {1, 2, 3, 4}
        if chunk_values is not None:
            # 1000 values make chunks of a few targets: several boundaries
            monkeypatch.setattr(evaluate, "PREDICT_CHUNK_VALUES", chunk_values)
        results = predict(post, targets, ctx, np.random.default_rng(3))
        reference = _reference_predict(post, targets, ctx, np.random.default_rng(3))
        for res, (_, _, pct, mean) in zip(results, reference):
            np.testing.assert_allclose(
                [res.lo_log, np.log(res.point), res.hi_log], pct, rtol=1e-10, atol=1e-12
            )
            assert res.mean_log == pytest.approx(mean, rel=1e-10, abs=1e-12)

    def test_conditional_moments_match_direct_solves(self):
        post, ctx, _, _ = _kriging_setup()
        targets = [t for t in self._targets() if t.mode == "interpolation"]
        reference = _reference_predict(post, targets, ctx, np.random.default_rng(0))
        lower = post.coreg_draws()
        cross = lower @ np.swapaxes(lower, 1, 2)
        draw_idx = np.arange(post.n_draws)
        for d in (1, 2, 3):
            factor = evaluate._DayFactor(post, d, draw_idx, cross, post.decay_draws())
            idx = [i for i, t in enumerate(targets) if t.day == d]
            mean, var = factor.conditional(
                np.array([targets[i].x for i in idx]),
                np.array([targets[i].y for i in idx]),
                np.array([targets[i].pollutant_id for i in idx]),
            )
            for col, i in enumerate(idx):
                ref_mean, ref_var = reference[i][:2]
                np.testing.assert_allclose(mean[:, col], ref_mean, rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(var[:, col], ref_var, rtol=1e-10, atol=1e-12)

    def test_design_rows_reproduce_training_design(self):
        post, ctx, stations, obs = _kriging_setup()
        design = ctx.design
        cells = cell_indices(design.row_x, design.row_y, ctx.spec)
        rows = evaluate._design_rows(ctx, cells, design.row_pollutant, design.row_day)
        np.testing.assert_allclose(rows, design.X, rtol=1e-14, atol=1e-14)

    def test_coincident_stations_krige_through_jitter(self):
        # two stations at one site make each day's covariance singular; the
        # jitter rule factors it, and the field's conditional sd at the
        # shared site is of the jitter's relative scale, about 1e-4
        rng = np.random.default_rng(12)
        sites = rng.uniform(0, 100, size=(10, 2))
        sites[1] = sites[0]
        days = (1, 2, 3)
        day = np.repeat(days, len(sites))
        coords = np.tile(sites, (len(days), 1))
        layout = StackedLayout(day=day, pollutant=np.zeros(day.size, int), coords=coords)
        w = sample_w(layout, Coregionalization(np.array([[1.0]])), SpatialDecay(0.05), rng)
        y = 1.0 + w + rng.normal(0, 0.3, size=day.size)
        batch = BatchData(days=days, y=y, X=np.ones((day.size, 1)), layout=layout, n_pollutants=1)
        variant = ModelVariant("SD", False, True)
        post = fit_batch_mcmc(
            batch,
            variant,
            Priors(decay_bounds=(0.01, 0.2)),
            McmcConfig(iterations=300, burnin=100, thin=2, seed=4),
        )
        design = DesignMatrix(
            X=np.ones((day.size, 1)),
            columns=(ColumnMeta("intercept", 0),),
            row_day=day,
            row_pollutant=np.zeros(day.size, int),
            row_site=tuple(f"s{i}" for i in range(day.size)),
            row_x=coords[:, 0],
            row_y=coords[:, 1],
            col_mean=np.zeros(1),
            col_sd=np.ones(1),
            standardized=False,
            zero_variance=(),
        )
        ctx = PredictionContext(
            variant=variant, design=design, spec=GridSpec(10, 10, 12.0), train_days=days
        )
        shared, off = sites[0], (55.0, 45.0)
        targets = [
            PredictionTarget(float(x), float(y), 0, d, "interpolation", name)
            for d in days
            for name, (x, y) in (("shared", shared), ("off", off))
        ]
        results = predict(post, targets, ctx, np.random.default_rng(0))
        for r in results:
            assert np.all(np.isfinite([r.mean_log, r.lo_log, r.hi_log, r.point]))

        lower = post.coreg_draws()
        cross = lower @ np.swapaxes(lower, 1, 2)
        field_sd = np.sqrt(cross[:, 0, 0])
        for d in days:
            factor = evaluate._DayFactor(
                post, d, np.arange(post.n_draws), cross, post.decay_draws()
            )
            _, var = factor.conditional(
                np.array([shared[0]]), np.array([shared[1]]), np.zeros(1, int)
            )
            ratio = np.sqrt(np.maximum(var[:, 0], 0.0)) / field_sd
            assert np.all(ratio < 1e-3)
            assert np.median(ratio) > 1e-5


class TestScore:
    def _results(self, pairs):
        out = []
        obs = {}
        for i, (pred, actual) in enumerate(pairs):
            t = PredictionTarget(0.0, 0.0, 0, 1, "interpolation", f"s{i}")
            out.append(
                type("R", (), {"target": t, "point": pred, "mean_log": 0.0, "lo_log": 0.0, "hi_log": 0.0})()
            )
            obs[(f"s{i}", 1, 0)] = actual
        return out, obs

    def test_perfect_predictions(self):
        results, obs = self._results([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        card = score(results, obs)
        assert card.rmse[0] == pytest.approx(0.0)
        assert card.corr[0] == pytest.approx(1.0)

    def test_constant_offset(self):
        results, obs = self._results([(2.0, 1.0), (3.0, 2.0), (4.0, 3.0)])
        card = score(results, obs)
        assert card.rmse[0] == pytest.approx(1.0)
        assert card.corr[0] == pytest.approx(1.0)

    def test_anticorrelated(self):
        results, obs = self._results([(2.0, 1.0), (1.0, 2.0)])
        card = score(results, obs)
        assert card.corr[0] == pytest.approx(-1.0)

    def test_single_pair_missing_correlation(self):
        results, obs = self._results([(2.0, 1.0)])
        card = score(results, obs)
        assert card.corr[0] is None

    def test_order_invariant(self):
        results, obs = self._results([(1.0, 2.0), (5.0, 4.0), (3.0, 3.5)])
        a = score(results, obs)
        b = score(list(reversed(results)), obs)
        assert a.rmse == b.rmse and a.corr == b.corr

    def test_scorecard_validation(self):
        with pytest.raises(ValueError):
            Scorecard(variant="x", fold=0, rmse={0: -1.0}, corr={0: 0.5})
        with pytest.raises(ValueError):
            Scorecard(variant="x", fold=0, rmse={0: 1.0}, corr={0: 1.5})


class TestAggregate:
    def test_quadrant_grouping(self):
        spec = GridSpec(10, 10, 10.0)
        results, obs = [], {}
        for i, (x, y) in enumerate([(10, 10), (90, 90), (10, 90), (90, 10)]):
            t = PredictionTarget(float(x), float(y), 0, 1, "interpolation", f"s{i}")
            results.append(
                type("R", (), {"target": t, "point": float(i + 1), "mean_log": 0.0, "lo_log": 0.0, "hi_log": 0.0})()
            )
        rows = aggregate_means(results, spec)
        regions = {r[0] for r in rows}
        assert regions == {"WS", "EN", "WN", "ES"}


class TestCoherenceCurve:
    def _posterior(self, slopes, basis, seed=0):
        """Posterior with exact coefficient draws for one (k, j) pair."""
        rng = np.random.default_rng(seed)
        n_draws = 400
        B = basis.count
        draws = np.column_stack(
            [np.zeros((n_draws, 1))]
            + [
                np.full((n_draws, 1), s) + 0.0 * rng.standard_normal((n_draws, 1))
                for s in slopes
            ]
        )
        names = ["beta0[0]"] + [f"beta[k=0,j=0,b={b}]" for b in range(B)]
        return BatchPosterior(
            draws=draws,
            param_names=tuple(names),
            transforms=tuple(["id"] * (B + 1)),
            n_beta=B + 1,
            n_pollutants=1,
            days=(1,),
        )

    def _design(self, basis):
        """Unstandardized design record with the columns of :meth:`_posterior`."""
        columns = (ColumnMeta("intercept", 0),) + tuple(
            ColumnMeta("covariate", 0, 0, b) for b in range(basis.count)
        )
        p = len(columns)
        return DesignMatrix(
            X=np.zeros((0, p)),
            columns=columns,
            row_day=np.zeros(0, int),
            row_pollutant=np.zeros(0, int),
            row_site=(),
            row_x=np.zeros(0),
            row_y=np.zeros(0),
            col_mean=np.zeros(p),
            col_sd=np.ones(p),
            standardized=False,
            zero_variance=(),
        )

    def test_zero_coefficients_flat_not_significant(self):
        basis = make_basis(4, 1)
        post = self._posterior([0.0] * 4, basis)
        curve = coherence_curve(post, 0, 0, basis, self._design(basis), dx=12.0)
        assert np.allclose(curve.mean, 0.0)
        assert not curve.significant
        assert not curve.coef_significant.any()

    def test_constant_basis_point_mass(self):
        basis = make_basis(1, 0)
        post = self._posterior([2.0], basis)
        curve = coherence_curve(post, 0, 0, basis, self._design(basis), dx=12.0)
        assert np.allclose(curve.mean, 2.0)
        assert curve.significant
        assert np.all(curve.lo <= curve.mean) and np.all(curve.mean <= curve.hi)

    def test_unknown_pair_rejected(self):
        basis = make_basis(4, 1)
        post = self._posterior([0.0] * 4, basis)
        with pytest.raises(ValueError, match="no coefficients"):
            coherence_curve(post, 1, 3, basis, self._design(basis), dx=12.0)

    def test_periods_descend_with_magnitude(self):
        basis = make_basis(4, 1)
        post = self._posterior([0.1] * 4, basis)
        curve = coherence_curve(post, 0, 0, basis, self._design(basis), dx=12.0)
        assert np.all(np.diff(curve.magnitudes) > 0)
        assert np.all(np.diff(curve.periods_km) < 0)
        assert curve.periods_km[-1] == pytest.approx(12 * 2 * np.pi / curve.magnitudes[-1])
