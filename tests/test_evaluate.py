"""Cross-validation splits, prediction, scoring, coherence curves."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specdown import evaluate, lmc
from specdown.evaluate import (
    PredictionContext,
    Scorecard,
    aggregate_means,
    coherence_curve,
    cv_split,
    predict,
    prediction_targets,
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
from specdown.lmc import Coregionalization, LmcKernel, SpatialDecay, StackedLayout, sample_w
from specdown.stations import (
    CellTable,
    ColumnMeta,
    DesignMatrix,
    ModelVariant,
    assemble_design,
    cell_indices,
    observation_records,
    records,
    site_records,
    standardize,
    station_coords,
)


def _obs(*rows):
    """Observation records of (site_id, day, pollutant_id, value) rows."""
    return observation_records(*zip(*rows))


def _targets(*rows):
    """Prediction targets of (x, y, pollutant_id, day, mode, site_id) rows."""
    return prediction_targets(*zip(*rows))


def _stations(n_total=10, n_species=5, n_both=5, seed=0):
    """Site records of total-only, species-only and both-measuring
    stations, S000 onwards in that order."""
    rng = np.random.default_rng(seed)
    n = n_total + n_species + n_both
    xy = rng.uniform(0, 100, (n, 2))  # the x, y pairs drawn station by station
    held = np.zeros((n, 2), dtype=bool)
    held[:n_total, 0] = held[n_total:, 1] = held[n_total + n_species :, 0] = True
    return site_records([f"S{i:03d}" for i in range(n)], xy[:, 0], xy[:, 1], ([0, 1], held))


def _folds(sites, *args, **kwargs):
    """``cv_split``'s fold of each site, by site id."""
    return dict(zip(sites.site_id.tolist(), cv_split(sites, *args, **kwargs).tolist()))


def _dict_cv_split(measures: dict, folds, seed):
    """Reference: the split over a {site_id: measures} dict that the
    columns replaced, each stratum sorted by site id and dealt in one
    permutation."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)))
    assignment = {}
    for stratum in ("total-only", "species-only", "both"):
        members = sorted(
            sid
            for sid, m in measures.items()
            if {(True, True): "both", (True, False): "total-only", (False, True): "species-only"}[
                (0 in m, any(k != 0 for k in m))
            ]
            == stratum
        )
        for pos, idx in enumerate(rng.permutation(len(members))):
            assignment[members[idx]] = pos % folds
    return assignment


class TestCvSplit:
    def test_balanced_strata(self):
        stations = _stations(10, 10, 10)
        folds = _folds(stations, folds=5, seed=1)
        assert set(folds.values()) == set(range(5))
        for stratum_range in (range(10), range(10, 20), range(20, 30)):
            ids = [f"S{i:03d}" for i in stratum_range]
            counts = np.bincount([folds[s] for s in ids], minlength=5)
            assert counts.max() - counts.min() <= 1
            assert counts.sum() == 10

    def test_same_seed_same_assignment(self):
        stations = _stations()
        assert np.array_equal(cv_split(stations, 5, seed=3), cv_split(stations, 5, seed=3))

    def test_partition(self):
        stations = _stations(7, 4, 6)
        folds = _folds(stations, folds=5, seed=2)
        assert set(folds) == set(stations.site_id.tolist())

    def test_small_stratum_warns(self):
        stations = _stations(10, 2, 10)
        with pytest.warns(UserWarning, match="fewer than"):
            cv_split(stations, folds=5, seed=0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_fold_properties_any_seed(self, seed):
        stations = _stations(11, 6, 8)
        folds = _folds(stations, folds=5, seed=seed)
        assert set(folds) == set(stations.site_id.tolist())
        assert all(0 <= f < 5 for f in folds.values())

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_folds_match_the_dict_reference_on_shuffled_sites(self, seed):
        # three strata in shuffled order; the folds are those of the dict
        # loop, whatever the order of the records
        rng = np.random.default_rng(seed)
        strata = [{0}] * 9 + [{1, 2}] * 6 + [{0, 2}] * 7 + [{2}] * 3
        rows = [(f"S{i}", float(i), 1.0, strata[i]) for i in rng.permutation(len(strata))]
        measures = {sid: m for sid, _, _, m in rows}
        held = [[k in m for k in (0, 1, 2)] for *_, m in rows]
        sites = site_records([r[0] for r in rows], [r[1] for r in rows], 1.0, ([0, 1, 2], held))
        assert _folds(sites, 4, seed=seed) == _dict_cv_split(measures, 4, seed)


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
    xy = np.array([(rng.uniform(0, 96), rng.uniform(0, 96)) for _ in range(n_sites)])
    names = [f"s{i}" for i in range(n_sites)]
    stations = site_records(names, xy[:, 0], xy[:, 1], ([0], np.ones((n_sites, 1))))
    by_id = np.argsort(stations.site_id)
    sids = stations.site_id[by_id].tolist()
    layout = StackedLayout(
        day=np.repeat(days, n_sites),
        pollutant=np.zeros(len(days) * n_sites, int),
        coords=np.tile(xy[by_id], (len(days), 1)),
    )
    w = sample_w(layout, Coregionalization(np.array([[l11]])), SpatialDecay(phi), rng)
    beta0, slope = 1.0, 0.8
    obs = _obs(*((s, d, 0, 0.0) for d in days for s in sids))
    variant = ModelVariant("SD", False, True)
    design = assemble_design(variant, fields, covs, obs, stations)
    mean = beta0 + design.X[:, 1:] @ np.array([slope, 0.3, 0.1])
    y = mean + w + rng.normal(0, np.sqrt(tau2), len(obs))
    obs = _obs(*((o.site_id, o.day, o.pollutant_id, float(v)) for o, v in zip(obs, y)))
    design = standardize(assemble_design(variant, fields, covs, obs, stations))
    yv = np.array([o.value for o in obs])
    batch = BatchData(days=days, y=yv, X=design.X, layout=layout, n_pollutants=1, design=design)
    priors = Priors(decay_bounds=(0.01, 0.2))
    cfg_kw = dict(iterations=n_iter, burnin=300, thin=2, seed=seed)
    if fix_nugget is not None:
        cfg_kw.update(update_nugget=False, init_nugget2=np.array([fix_nugget]))
    post = fit_batch_mcmc(batch, variant, priors, McmcConfig(**cfg_kw))
    # some targets lie off the station cells: the table holds every cell
    table = CellTable.of_grids("SD", fields, covs, np.arange(spec.ncells))
    ctx = PredictionContext(
        design=design, spec=spec, train_days=days, table=table, y=yv
    )
    return spec, stations, obs, post, ctx, dict(tau2=tau2, l11=l11)


class TestPredict:
    def test_mode_day_validation(self):
        spec, stations, obs, post, ctx, _ = _fitted_setup()
        with pytest.raises(ValueError, match="outside the training period"):
            predict(post, _targets((5, 5, 0, 99, "interpolation", "")), ctx)
        with pytest.raises(ValueError, match="inside the training period"):
            predict(post, _targets((5, 5, 0, 2, "forecast", "")), ctx)

    def test_unknown_mode_rejected(self):
        spec, stations, obs, post, ctx, _ = _fitted_setup()
        targets = _targets((5, 5, 0, 2, "interpolation", "a"), (5, 5, 0, 2, "kriging", "b"))
        with pytest.raises(ValueError, match="mode must be interpolation or forecast, got 'kriging'"):
            predict(post, targets, ctx)

    def test_interpolation_day_outside_posterior_days(self):
        # day 4 is a training day of the context but not of this batch
        spec, stations, obs, post, ctx, _ = _fitted_setup()
        wider = replace(ctx, train_days=(1, 2, 3, 4))
        with pytest.raises(ValueError, match="outside the posterior's days"):
            predict(post, _targets((5, 5, 0, 4, "interpolation", "")), wider)

    def test_target_outside_grid_rejected(self):
        spec, stations, obs, post, ctx, _ = _fitted_setup()
        from specdown.stations import OutOfGridError

        with pytest.raises(OutOfGridError):
            predict(post, _targets((-5.0, 5, 0, 2, "interpolation", "")), ctx)

    def test_interpolation_approaches_observation_as_nugget_vanishes(self):
        # with the model's nugget pinned near zero, the field conditioned on
        # the data passes through it: interpolation reproduces observations
        spec, stations, obs, post, ctx, truth = _fitted_setup(
            tau2=1e-12, n_iter=700, fix_nugget=1e-12
        )
        some = [o for o in obs if o.day == 2][:6]
        xy = zip(*station_coords(stations, [o.site_id for o in some]))
        targets = _targets(*((x, y, 0, 2, "interpolation", o.site_id) for (x, y), o in zip(xy, some)))
        results = predict(post, targets, ctx, np.random.default_rng(0))
        for res, o in zip(results, some):
            assert abs(res.mean_log - o.value) < 1e-6

    def test_forecast_variance_at_least_interpolation(self):
        # the unconditioned residual field must widen forecasts relative to
        # kriging-conditioned interpolation at the same site
        spec, stations, obs, post, ctx, _ = _fitted_setup(tau2=0.01, l11=0.8, n_iter=900)
        first = np.argmin(stations.site_id)
        sid, x, y = stations.site_id[first], stations.x[first], stations.y[first]
        rng = np.random.default_rng(1)
        interp = predict(post, _targets((x, y, 0, 2, "interpolation", sid)), ctx, rng)[0]
        # forecast from the same posterior at a test day
        ctx_fore = PredictionContext(
            design=ctx.design,
            spec=spec,
            train_days=(1, 2),
            table=ctx.table,
        )
        fore = predict(post, _targets((x, y, 0, 3, "forecast", sid)), ctx_fore, rng)[0]
        assert (fore.hi_log - fore.lo_log) >= (interp.hi_log - interp.lo_log)

    def test_kriging_weights_match_direct_solve(self):
        # fixed parameters, three sites on a line: the conditional mean of the
        # residual field must equal c0' (C + D)^{-1} (y - X beta) from an
        # independent solve, and the prediction adds its two noise blocks
        l11, phi, tau2 = 0.9, 0.04, 0.05
        sites = np.array([[0.0, 0.0], [30.0, 0.0], [60.0, 0.0]])
        y_vals = np.array([0.5, -0.2, 0.3])
        draws = np.zeros((4, 2))  # intercept and slope fixed at zero
        vech = np.log(l11)
        lo, hi = 0.01, 0.2
        u = np.log((phi - lo) / (hi - lo)) - np.log(1 - (phi - lo) / (hi - lo))
        packed = np.column_stack(
            [draws, np.full((4, 1), np.log(tau2)), np.full((4, 1), vech), np.full((4, 1), u)]
        )
        post = BatchPosterior(
            draws=packed,
            param_names=("beta0[0]", "beta[k=0,j=0]", "nugget2[0].log", "coreg[0,0].log", "decay.logit"),
            transforms=("id", "id", "log", "log", "logit"),
            n_beta=2,
            n_pollutants=1,
            days=(1,),
            decay_bounds=(lo, hi),
        )
        spec = GridSpec(8, 8, 12.0)
        field = GridField(spec, np.zeros(64), 0, 1)
        variant = ModelVariant("LD", False, True)
        stations = site_records(["s0", "s1", "s2"], sites[:, 0], sites[:, 1], ([0], np.ones((3, 1))))
        obs = _obs(*((f"s{i}", 1, 0, v) for i, v in enumerate(y_vals)))
        design = assemble_design(variant, {(0, 1): field}, [], obs, stations)
        ctx = PredictionContext(
            design=design,
            spec=spec,
            train_days=(1,),
            table=CellTable.of_grids("LD", {(0, 1): field}, {}, np.arange(spec.ncells)),
            y=y_vals,
        )
        target = _targets((15.0, 0.0, 0, 1, "interpolation", "new"))
        res = predict(post, target, ctx, np.random.default_rng(0))[0]

        marginal = l11**2 * np.exp(-phi * np.abs(sites[:, 0:1] - sites[:, 0:1].T))
        marginal += tau2 * np.eye(3)
        c0 = l11**2 * np.exp(-phi * np.abs(sites[:, 0] - 15.0))
        oracle = c0 @ np.linalg.solve(marginal, y_vals)
        cond_var = l11**2 - c0 @ np.linalg.solve(marginal, c0)
        # all draws identical and beta = 0: each draw is the kriging mean
        # plus field noise of variance cond_var plus nugget noise
        noise = np.random.default_rng(0).standard_normal((1, 2, 4))[0]
        expected = oracle + np.sqrt(cond_var) * noise[0] + np.sqrt(tau2) * noise[1]
        assert res.mean_log == pytest.approx(expected.mean(), rel=1e-10, abs=1e-12)

    def test_results_align_with_targets(self):
        spec, stations, obs, post, ctx, _ = _fitted_setup()
        targets = _targets(
            (10.0, 10.0, 0, 1, "interpolation", "a"),
            (50.0, 50.0, 0, 2, "interpolation", "b"),
        )
        results = predict(post, targets, ctx, np.random.default_rng(0))
        assert [r.site_id for r in results] == ["a", "b"]
        for r in results:
            assert r.lo_log <= r.mean_log <= r.hi_log
            assert r.point > 0


def _spatial_posterior(draws, K, n_beta, lo, hi, days):
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
        days=tuple(days),
        decay_bounds=(lo, hi),
    )


def _reference_row(ctx, fields, t):
    """Design row of one target, column by column, from the fields."""
    cell = int(cell_indices([t.x], [t.y], ctx.spec)[0])
    design = ctx.design
    row = np.zeros(design.p)
    for idx, col in enumerate(design.columns):
        if col.k != t.pollutant_id:
            continue
        if col.kind == "intercept":
            row[idx] = 1.0
            continue
        value = fields[(col.j, t.day)].values[cell]
        row[idx] = (value - design.col_mean[idx]) / design.col_sd[idx]
    return row


def _reference_predict(post, targets, ctx, fields, rng):
    """Per target: explicit solves on C + D per draw, then the noise blocks
    in the documented order (residual, then nugget).  Returns per target the
    conditional mean and variance (None for forecasts), the 2.5/50/97.5
    percentiles and the mean of the draws."""
    beta = post.beta_draws()
    nugget2 = post.nugget2_draws()
    lower = post.coreg_draws()
    cross = lower @ np.swapaxes(lower, 1, 2)
    rate = post.decay_draws()
    design = ctx.design
    I = beta.shape[0]
    out = []
    for t in targets:
        k = t.pollutant_id
        draws = beta @ _reference_row(ctx, fields, t)
        mean = var = None
        if t.mode == "interpolation":
            pos = np.flatnonzero(design.row_day == t.day)
            x, y, pol = design.row_x[pos], design.row_y[pos], design.row_pollutant[pos]
            dist = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
            d0 = np.hypot(x - t.x, y - t.y)
            mean, var = np.empty(I), np.empty(I)
            for i in range(I):
                C = cross[i][np.ix_(pol, pol)] * np.exp(-rate[i] * dist)
                C += np.diag(nugget2[i, pol])
                c0 = cross[i, k, pol] * np.exp(-rate[i] * d0)
                resid = ctx.y[pos] - design.X[pos] @ beta[i]
                mean[i] = c0 @ np.linalg.solve(C, resid)
                var[i] = cross[i, k, k] - c0 @ np.linalg.solve(C, c0)
            draws = draws + mean + np.sqrt(var) * rng.standard_normal(I)
        else:
            draws = draws + np.sqrt(cross[:, k, k]) * rng.standard_normal(I)
        draws = draws + np.sqrt(nugget2[:, k]) * rng.standard_normal(I)
        out.append((mean, var, np.percentile(draws, [2.5, 50.0, 97.5]), draws.mean()))
    return out


def _kriging_setup(seed=5, I=12, K=2, train_days=(1, 2, 3), same_sites=False):
    """Hand-built spatial posterior over K pollutants with day blocks of
    different sizes (with ``same_sites``, every day observes the same eight
    stations), plus an LD + Cross design to predict with.  Returns the
    posterior, the context, the stations, the observations and the fields."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(8, 8, 12.0)
    days = train_days + (train_days[-1] + 1,)
    fields = {
        (j, d): GridField(spec, rng.standard_normal(64), j, d) for j in range(K) for d in days
    }
    xy = np.array([(rng.uniform(0, 96), rng.uniform(0, 96)) for _ in range(10)])
    held = np.arange(K) == (np.arange(10) % K)[:, None]
    held[:, 0] = True
    stations = site_records([f"s{i}" for i in range(10)], xy[:, 0], xy[:, 1], (np.arange(K), held))
    by_id = np.argsort(stations.site_id)
    obs = _obs(
        *(
            (stations.site_id[i], d, k, float(rng.standard_normal()))
            for d in train_days
            for i in by_id[: 8 if same_sites else 6 + d]
            for k in np.flatnonzero(held[i]).tolist()
        )
    )
    variant = ModelVariant("LD", True, True)
    design = standardize(assemble_design(variant, fields, [], obs, stations))
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
    post = _spatial_posterior(natural, K, design.p, lo, hi, train_days)
    # the targets lie off the station cells: the table holds every cell
    ctx = PredictionContext(
        design=design,
        spec=spec,
        train_days=train_days,
        table=CellTable.of_grids("LD", fields, {}, np.arange(spec.ncells)),
        y=np.array([o.value for o in obs]),
    )
    return post, ctx, stations, obs, fields


class TestVectorisedPredict:
    def _targets(self, seed=9, n=21):
        # off-site points, days and pollutants interleaved, one forecast day
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n):
            day = int(rng.integers(1, 5))
            mode = "forecast" if day == 4 else "interpolation"
            x, y = rng.uniform(0, 96, 2)
            out.append((float(x), float(y), i % 2, day, mode, f"t{i}"))
        return _targets(*out)

    @pytest.mark.parametrize("chunk_values", [None, 1000])
    def test_matches_per_target_reference(self, monkeypatch, chunk_values):
        post, ctx, _, _, fields = _kriging_setup()
        targets = self._targets()
        assert {t.day for t in targets} == {1, 2, 3, 4}
        if chunk_values is not None:
            # 1000 values make chunks of a few targets: several boundaries
            monkeypatch.setattr(evaluate, "PREDICT_CHUNK_VALUES", chunk_values)
        results = predict(post, targets, ctx, np.random.default_rng(3))
        reference = _reference_predict(post, targets, ctx, fields, np.random.default_rng(3))
        for res, (_, _, pct, mean) in zip(results, reference):
            np.testing.assert_allclose(
                [res.lo_log, np.log(res.point), res.hi_log], pct, rtol=1e-10, atol=1e-12
            )
            assert res.mean_log == pytest.approx(mean, rel=1e-10, abs=1e-12)

    def _slab_calls(self, monkeypatch, chunk_values, n, forbid_percentile=False):
        """Rows of each design_rows call and of each chunk of one predict
        call on ``n`` targets under ``PREDICT_CHUNK_VALUES = chunk_values``."""
        post, ctx, *_ = _kriging_setup()
        monkeypatch.setattr(evaluate, "PREDICT_CHUNK_VALUES", chunk_values)
        calls = {"design_rows": [], "_sorted_quantiles": []}
        sizes = {
            "design_rows": lambda args: len(args[2]),  # the cells
            "_sorted_quantiles": lambda args: len(args[0]),  # the sorted draws
        }
        for name in calls:
            original = getattr(evaluate, name)

            def counting(*args, _original=original, _name=name):
                calls[_name].append(sizes[_name](args))
                return _original(*args)

            monkeypatch.setattr(evaluate, name, counting)
        if forbid_percentile:

            def no_percentile(*args, **kwargs):
                raise AssertionError("predict sorts its draws; it does not call np.percentile")

            monkeypatch.setattr(np, "percentile", no_percentile)
        predict(post, self._targets(n=n), ctx, np.random.default_rng(3))
        return ctx.design.p, calls["design_rows"], calls["_sorted_quantiles"]

    def test_design_rows_in_slabs_and_no_percentile(self, monkeypatch):
        # the rows of all targets were once built in one call, a (targets, p)
        # block outside the chunk bound
        p, slabs, chunks = self._slab_calls(monkeypatch, 1000, 200, forbid_percentile=True)
        step = chunks[0]
        assert len(chunks) > 1 and set(chunks[:-1]) == {step}  # one sort per chunk
        per_slab = step * (1000 // (step * p))  # whole chunks of at most 1000 floats
        assert per_slab > step and len(slabs) == -(-200 // per_slab) > 1
        assert slabs[:-1] == [per_slab] * (len(slabs) - 1) and sum(slabs) == 200
        assert max(slabs) * p <= 1000

    def test_slab_is_one_chunk_when_a_chunk_exceeds_the_bound(self, monkeypatch):
        p, slabs, chunks = self._slab_calls(monkeypatch, 4, 21)
        assert p > 4 and chunks == [1] * 21
        assert slabs == chunks

    def test_conditional_moments_match_direct_solves(self):
        post, ctx, _, _, fields = _kriging_setup()
        targets = [t for t in self._targets() if t.mode == "interpolation"]
        reference = _reference_predict(post, targets, ctx, fields, np.random.default_rng(0))
        lower = post.coreg_draws()
        cross = lower @ np.swapaxes(lower, 1, 2)
        kriging = evaluate._Conditioner(
            ctx, (1, 2, 3), post.beta_draws(), post.nugget2_draws(), cross, post.decay_draws()
        )
        for d in (1, 2, 3):
            idx = [i for i, t in enumerate(targets) if t.day == d]
            mean, var = kriging.conditional(
                d,
                np.array([targets[i].x for i in idx]),
                np.array([targets[i].y for i in idx]),
                np.array([targets[i].pollutant_id for i in idx]),
            )
            for col, i in enumerate(idx):
                ref_mean, ref_var = reference[i][:2]
                np.testing.assert_allclose(mean[:, col], ref_mean, rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(var[:, col], ref_var, rtol=1e-10, atol=1e-12)

    def test_one_draw_prediction_is_the_dense_closed_form(self):
        # one posterior draw: each prediction is x0' beta + m + sqrt(v) z1 +
        # tau z2, with m = c0' (C + D)^{-1} (y - X beta) and
        # v = sigma0^2 - c0' (C + D)^{-1} c0 from one dense solve over every
        # training row (C zero across days), and z the documented noise
        post, ctx, _, _, fields = _kriging_setup(I=1)
        targets = [t for t in self._targets() if t.mode == "interpolation"]
        results = predict(post, targets, ctx, np.random.default_rng(4))
        beta, nugget2 = post.beta_draws()[0], post.nugget2_draws()[0]
        lower = post.coreg_draws()[0]
        cross, rate = lower @ lower.T, post.decay_draws()[0]
        design = ctx.design
        pol = design.row_pollutant
        xy = np.column_stack([design.row_x, design.row_y])
        same_day = design.row_day[:, None] == design.row_day[None, :]
        dist = np.linalg.norm(xy[:, None] - xy[None, :], axis=-1)
        marginal = cross[np.ix_(pol, pol)] * np.exp(-rate * dist) * same_day
        marginal += np.diag(nugget2[pol])
        t_xy = np.array([[t.x, t.y] for t in targets])
        k = np.array([t.pollutant_id for t in targets])
        on_day = np.array([t.day for t in targets])[:, None] == design.row_day[None, :]
        d0 = np.linalg.norm(t_xy[:, None] - xy[None, :], axis=-1)
        c0 = cross[np.ix_(k, pol)] * np.exp(-rate * d0) * on_day  # (T, N)
        mean = c0 @ np.linalg.solve(marginal, ctx.y - design.X @ beta)
        var = cross[k, k] - np.einsum("tn,nt->t", c0, np.linalg.solve(marginal, c0.T))
        noise = np.random.default_rng(4).standard_normal((len(targets), 2))
        rows = np.array([_reference_row(ctx, fields, t) for t in targets])
        expected = rows @ beta + mean + np.sqrt(var) * noise[:, 0] + np.sqrt(nugget2[k]) * noise[:, 1]
        np.testing.assert_allclose([r.mean_log for r in results], expected, rtol=1e-10, atol=1e-12)

    def test_averaged_field_draws_give_the_same_predictive(self):
        # Rao-Blackwell: exact draws of w | y, each kriged as c0' C^{-1} w,
        # average to the mean conditioned on y, and their spread plus the
        # kriging variance is its variance.  The reference draws come from
        # the dense conditional N(C S^{-1} r, C - C S^{-1} C), S = C + D
        post, ctx, *_ = _kriging_setup(I=1)
        beta, nugget2 = post.beta_draws(), post.nugget2_draws()
        lower = post.coreg_draws()
        cross, rate = lower @ np.swapaxes(lower, 1, 2), post.decay_draws()
        design, day = ctx.design, 2
        rows = design.rows_for_days([day])
        layout = design.layout(rows)
        C = LmcKernel(layout.coords, layout.pollutant, 2)
        C = C.cov(cross[0], C.corr(rate[0]))
        gain = np.linalg.solve(C + np.diag(nugget2[0, layout.pollutant]), C).T  # C S^{-1}
        resid = ctx.y[rows] - design.X[rows] @ beta[0]
        n_draws = 4000
        w = np.random.default_rng(8).multivariate_normal(gain @ resid, C - gain @ C, size=n_draws)
        x, y, k = np.array([10.0, 47.0, 80.0]), np.array([20.0, 51.0, 5.0]), np.array([0, 1, 1])
        kernel = LmcKernel(np.column_stack([x, y]), k, 2, layout.coords, layout.pollutant)
        c0 = kernel.cov(cross[0], kernel.corr(rate[0]))  # (T, n)
        weights = np.linalg.solve(C, c0.T)  # (n, T)
        kriged = w @ weights
        krige_var = cross[0][k, k] - np.einsum("tn,nt->t", c0, weights)

        kriging = evaluate._Conditioner(ctx, [day], beta, nugget2, cross, rate)
        mean, var = kriging.conditional(day, x, y, k)
        se = kriged.std(axis=0) / np.sqrt(n_draws)
        assert np.all(np.abs(kriged.mean(axis=0) - mean[0]) < 4.0 * se)
        spread = kriged.var(axis=0)
        assert np.all(np.abs(krige_var + spread - var[0]) < 4.0 * np.sqrt(2.0 / n_draws) * spread)

    def test_design_rows_reproduce_training_design(self):
        post, ctx, *_ = _kriging_setup()
        design = ctx.design
        cells = cell_indices(design.row_x, design.row_y, ctx.spec)
        rows = evaluate._design_rows(ctx, cells, design.row_pollutant, design.row_day)
        np.testing.assert_allclose(rows, design.X, rtol=1e-14, atol=1e-14)

    def test_coincident_stations_krige_without_jitter(self):
        # two stations at one site make each day's LMC block singular, but
        # C + D holds the nugget on its diagonal.  The field at the shared
        # site, observed twice with nugget noise, has conditional variance at
        # most 1 / (1 / sigma0^2 + 2 / tau^2): the other sites only shrink it
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
            row_x=coords[:, 0],
            row_y=coords[:, 1],
            col_mean=np.zeros(1),
            col_sd=np.ones(1),
            standardized=False,
            zero_variance=(),
        )
        # an intercept-only design reads no source; "off" lies in no station cell
        spec = GridSpec(10, 10, 12.0)
        ctx = PredictionContext(
            design=design,
            spec=spec,
            train_days=days,
            table=CellTable({}, np.arange(spec.ncells)),
            y=y,
        )
        shared, off = sites[0], (55.0, 45.0)
        targets = _targets(
            *(
                (float(x), float(y), 0, d, "interpolation", name)
                for d in days
                for name, (x, y) in (("shared", shared), ("off", off))
            )
        )
        results = predict(post, targets, ctx, np.random.default_rng(0))
        for r in results:
            assert np.all(np.isfinite([r.mean_log, r.lo_log, r.hi_log, r.point]))

        lower = post.coreg_draws()
        cross = lower @ np.swapaxes(lower, 1, 2)
        nugget2 = post.nugget2_draws()
        bound = 1.0 / (1.0 / cross[:, 0, 0] + 2.0 / nugget2[:, 0])
        kriging = evaluate._Conditioner(
            ctx, days, post.beta_draws(), nugget2, cross, post.decay_draws()
        )
        for d in days:
            _, var = kriging.conditional(
                d, np.array([shared[0]]), np.array([shared[1]]), np.zeros(1, int)
            )
            assert np.all(var[:, 0] > 0.0)
            assert np.all(var[:, 0] <= bound * (1.0 + 1e-9))


@st.composite
def _draw_rows(draw):
    """(rows, n) arrays with n up to 1,200: rounded values give ties, and
    some rows hold infinities or NaN."""
    rows = draw(st.integers(1, 4))
    n = draw(st.integers(1, 1200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((rows, n)) * draw(st.sampled_from([1e-3, 1.0, 1e6]))
    x = np.round(x, draw(st.sampled_from([0, 1, 8])))
    for value in (np.inf, -np.inf, np.nan):
        rate = draw(st.sampled_from([0.0, 0.0, 1.0 / n, 0.3]))
        spoil = rng.random((rows, n)) < rate
        spoil[rng.random(rows) < 0.5] = False  # leave some rows clean
        x[spoil] = value
    return x


class TestSortedQuantiles:
    @settings(max_examples=200, deadline=None)
    @given(x=_draw_rows())
    def test_equals_numpy_percentile(self, x):
        with np.errstate(invalid="ignore"):
            want = np.percentile(x, [2.5, 50.0, 97.5], axis=1)
            got = evaluate._sorted_quantiles(np.sort(x, axis=1), [0.025, 0.5, 0.975])
        assert got.shape == want.shape
        # equal as values: a sort and numpy's partition may order -0.0 and
        # 0.0, which compare equal, either way
        assert np.array_equal(got, want, equal_nan=True)


class TestSharedFactors:
    """Days observed in one layout share one Cholesky factor."""

    @pytest.mark.parametrize("same_sites, calls", [(True, 1), (False, 3)])
    def test_interpolation_factors_once_per_layout(self, monkeypatch, same_sites, calls):
        post, ctx, *_ = _kriging_setup(same_sites=same_sites)
        sizes = []
        chol_pd = lmc.chol_pd  # the original: the patch replaces lmc.chol_pd

        def counting(cov):
            sizes.append(cov.shape[:-2])
            return chol_pd(cov)

        monkeypatch.setattr(lmc, "chol_pd", counting)
        targets = _targets(*((20.0 * d, 40.0, d % 2, d, "interpolation", f"t{d}") for d in (1, 2, 3)))
        predict(post, targets, ctx, np.random.default_rng(0))
        # one stack per block size, of all draws of one layout
        assert sizes == [(post.n_draws, 1)] * calls

    def test_shared_factor_is_the_fresh_one_bit_for_bit(self):
        post, ctx, *_ = _kriging_setup(same_sites=True)
        lower = post.coreg_draws()
        draws = (
            post.beta_draws(),
            post.nugget2_draws(),
            lower @ np.swapaxes(lower, 1, 2),
            post.decay_draws(),
        )
        kriging = evaluate._Conditioner(ctx, (1, 2, 3), *draws)
        *_, first_inv, first_z = kriging.days[1]
        for d in (2, 3):
            *_, inv, z = kriging.days[d]
            *_, fresh_inv, fresh_z = evaluate._Conditioner(ctx, [d], *draws).days[d]
            assert inv is first_inv
            assert np.array_equal(inv, fresh_inv)
            assert np.array_equal(z, fresh_z)
            assert not np.array_equal(z, first_z)
        assert len({id(inv) for *_, inv, _ in kriging.days.values()}) == 1


class TestScore:
    def _results(self, pairs):
        sites = [f"s{i}" for i in range(len(pairs))]
        preds, actual = zip(*pairs)
        out = records(site_id=sites, day=1, pollutant_id=0, point=np.array(preds))
        return out, observation_records(sites, 1, 0, np.array(actual))

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
        b = score(results[::-1], obs)
        assert a.rmse == b.rmse and a.corr == b.corr

    def test_scorecard_validation(self):
        with pytest.raises(ValueError):
            Scorecard(variant="x", fold=0, rmse={0: -1.0}, corr={0: 0.5})
        with pytest.raises(ValueError):
            Scorecard(variant="x", fold=0, rmse={0: 1.0}, corr={0: 1.5})


class TestAggregate:
    def test_quadrant_grouping(self):
        spec = GridSpec(10, 10, 10.0)
        points = [(10.0, 10.0), (90.0, 90.0), (10.0, 90.0), (90.0, 10.0)]
        x, y = np.array(points).T
        predictions = records(x=x, y=y, pollutant_id=0, point=np.arange(1.0, 5.0))
        rows = aggregate_means(predictions, spec)
        assert rows == [
            ("EN", 0, 1, 2.0),
            ("ES", 0, 1, 4.0),
            ("WN", 0, 1, 3.0),
            ("WS", 0, 1, 1.0),
        ]


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
