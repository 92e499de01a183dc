"""Least squares, the batch sampler's full conditionals, consensus merging."""

import warnings

import numpy as np
import pytest

from specdown import lmc
from specdown.inference import (
    BatchData,
    BatchPosterior,
    McmcConfig,
    Priors,
    RankDeficientError,
    consensus_combine,
    derive_rng,
    fit_batch_mcmc,
    fit_ols,
    make_batches,
    marginal_loglik,
    ols_posterior,
)
from specdown.inference import (
    _IndependenceProposal,
    _factor_marginal,
    _gls_gram,
    _log_prior,
    _marginal_loglik,
    _pack_hyper,
    _theta_labels,
    _unpack_hyper,
)
from specdown.lmc import (
    JITTER_SCALE,
    Coregionalization,
    DayBlocks,
    LmcKernel,
    SpatialDecay,
    StackedLayout,
    chol_pd,
    sample_w,
)
from specdown.stations import ModelVariant

SPATIAL = ModelVariant("SD", True, True)


def _priors(lo=0.01, hi=0.2, **kw):
    return Priors(decay_bounds=(lo, hi), **kw)


def _k1_batch(seed, n_sites=40, days=(1, 2, 3), beta=1.5, tau2=0.25, l11=1.0, phi=0.047):
    """Intercept-only single-pollutant batch drawn from the model."""
    rng = np.random.default_rng(seed)
    sites = rng.uniform(0, 240, size=(n_sites, 2))
    day = np.repeat(days, n_sites)
    coords = np.tile(sites, (len(days), 1))
    layout = StackedLayout(day=day, pollutant=np.zeros(day.size, int), coords=coords)
    w = sample_w(layout, Coregionalization(np.array([[l11]])), SpatialDecay(phi), rng)
    y = beta + w + rng.normal(0, np.sqrt(tau2), size=day.size)
    X = np.ones((day.size, 1))
    return BatchData(days=tuple(days), y=y, X=X, layout=layout, n_pollutants=1)


class TestFitOls:
    def test_exact_fit_zero_se(self):
        x = np.arange(1.0, 6.0).reshape(-1, 1)
        fit = fit_ols(x, 2.0 * x.ravel())
        assert fit.coef[0] == pytest.approx(2.0)
        assert fit.se[0] == pytest.approx(0.0, abs=1e-12)

    def test_intercept_only_is_mean(self):
        y = np.array([1.0, 4.0, 7.0, -2.0])
        fit = fit_ols(np.ones((4, 1)), y)
        assert fit.coef[0] == pytest.approx(y.mean())

    @staticmethod
    def _solve_longdouble(A, b):
        """Gauss-Jordan with partial pivoting in extended precision."""
        A = A.astype(np.longdouble).copy()
        b = b.astype(np.longdouble).copy()
        n = A.shape[0]
        for col in range(n):
            pivot = col + int(np.argmax(np.abs(A[col:, col])))
            A[[col, pivot]] = A[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
            for row in range(n):
                if row == col:
                    continue
                factor = A[row, col] / A[col, col]
                A[row] -= factor * A[col]
                b[row] -= factor * b[col]
        return b / np.diag(A)

    def test_matches_quad_precision_normal_equations(self):
        rng = np.random.default_rng(50)
        X = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        fit = fit_ols(X, y)
        Xq = X.astype(np.longdouble)
        yq = y.astype(np.longdouble)
        gram = Xq.T @ Xq
        oracle = self._solve_longdouble(gram, Xq.T @ yq)
        assert np.max(np.abs(fit.coef - oracle.astype(float))) < 1e-9
        resid = yq - Xq @ oracle
        sigma2 = resid @ resid / (50 - 4)
        unit = np.column_stack(
            [self._solve_longdouble(gram, e) for e in np.eye(4, dtype=np.longdouble)]
        )
        se_oracle = np.sqrt(sigma2 * np.diag(unit)).astype(float)
        assert np.max(np.abs(fit.se - se_oracle)) < 1e-9

    def test_rank_deficiency_names_columns(self):
        X = np.ones((10, 3))
        X[:, 1] = np.arange(10)
        X[:, 2] = 2.0 * np.arange(10)  # duplicate direction
        with pytest.raises(RankDeficientError, match="slope[12]"):
            fit_ols(X, np.zeros(10), ["const", "slope1", "slope2"])


class TestConjugateBeta:
    @pytest.mark.parametrize("update_w", [False, True], ids=["field-at-zero", "spatial"])
    def test_chain_matches_closed_form(self, update_w):
        # theta held: the coefficient draws are iid from the exact Gaussian
        # posterior N(m, V), V^{-1} = X' S^{-1} X + I / 100^2 and
        # m = V X' S^{-1} y, with S = C + D and C zero while the field is
        # held at zero
        rng = np.random.default_rng(4)
        n, p = 40, 3
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        beta_true = np.array([1.0, -2.0, 0.5])
        tau2 = 0.36
        y = X @ beta_true + rng.normal(0, np.sqrt(tau2), n)
        layout = StackedLayout(
            day=np.ones(n, int), pollutant=np.zeros(n, int), coords=rng.uniform(0, 100, (n, 2))
        )
        batch = BatchData(days=(1,), y=y, X=X, layout=layout, n_pollutants=1)
        cfg = McmcConfig(
            iterations=12_000,
            burnin=0,
            thin=1,
            seed=5,
            update_w=update_w,
            update_nugget=False,
            update_coreg=False,
            update_decay=False,
            init_nugget2=np.array([tau2]),
        )
        post = fit_batch_mcmc(batch, SPATIAL, _priors(), cfg)
        draws = post.beta_draws()

        # the held mixing entry and rate, as the sampler initialized them
        l11, rate = post.coreg_draws()[0, 0, 0], post.decay_draws()[0]
        dist = np.linalg.norm(layout.coords[:, None] - layout.coords[None, :], axis=-1)
        field = l11**2 * np.exp(-rate * dist) if update_w else np.zeros((n, n))
        s_inv_x = np.linalg.solve(field + tau2 * np.eye(n), X)
        prec = X.T @ s_inv_x + np.eye(p) / 100.0**2
        cov = np.linalg.inv(prec)
        mean = cov @ (s_inv_x.T @ y)
        n_draws = draws.shape[0]
        se_mean = np.sqrt(np.diag(cov) / n_draws)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 3.0 * se_mean)
        emp_cov = np.cov(draws, rowvar=False)
        se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n_draws)
        assert np.all(np.abs(emp_cov - cov) < 3.0 * se_cov)
        # iid draws: the lag-1 autocorrelation of each coefficient is within
        # four standard errors, 1 / sqrt(n_draws), of zero
        lag1 = [np.corrcoef(col[:-1], col[1:])[0, 1] for col in draws.T]
        assert np.all(np.abs(lag1) < 4.0 / np.sqrt(n_draws))


class TestBatchSampler:
    def test_requires_spatial_variant(self):
        batch = _k1_batch(0)
        with pytest.raises(ValueError):
            fit_batch_mcmc(batch, ModelVariant("SD", True, False), _priors(), McmcConfig())

    def test_bit_identical_reruns(self):
        batch = _k1_batch(1)
        cfg = McmcConfig(iterations=300, burnin=100, thin=2, seed=9)
        a = fit_batch_mcmc(batch, SPATIAL, _priors(), cfg)
        b = fit_batch_mcmc(batch, SPATIAL, _priors(), cfg)
        assert np.array_equal(a.draws, b.draws)

    def test_draw_count_and_layout(self):
        batch = _k1_batch(2)
        cfg = McmcConfig(iterations=250, burnin=100, thin=3, seed=1)
        post = fit_batch_mcmc(batch, SPATIAL, _priors(), cfg)
        assert post.n_draws == cfg.n_draws == 50
        p = batch.p
        assert post.draws.shape[1] == p + 1 + 1 + 1  # beta, nugget, coreg, decay
        assert post.param_names[-1] == "decay.logit"
        assert post.decay_draws().min() > _priors().decay_bounds[0]
        assert post.decay_draws().max() < _priors().decay_bounds[1]

    def test_k1_recovery_coverage(self):
        # known truth; 95% intervals should cover in >= 18 of 20 replicates.
        # chains must be long enough for honest upper nugget tails: the
        # nugget and field-variance directions mix slowly
        truth = dict(beta=1.5, tau2=0.25, l11=1.0, phi=0.047)
        covered = {"beta": 0, "tau2": 0, "l11": 0, "phi": 0}
        n_rep = 20
        for rep in range(n_rep):
            batch = _k1_batch(1000 + rep, **truth)
            post = fit_batch_mcmc(
                batch,
                SPATIAL,
                _priors(),
                McmcConfig(iterations=12_000, burnin=4_000, thin=4, seed=rep),
            )
            lo, hi = np.percentile(post.beta_draws()[:, 0], [2.5, 97.5])
            covered["beta"] += lo <= truth["beta"] <= hi
            lo, hi = np.percentile(post.nugget2_draws()[:, 0], [2.5, 97.5])
            covered["tau2"] += lo <= truth["tau2"] <= hi
            lo, hi = np.percentile(post.coreg_draws()[:, 0, 0], [2.5, 97.5])
            covered["l11"] += lo <= truth["l11"] <= hi
            lo, hi = np.percentile(post.decay_draws(), [2.5, 97.5])
            covered["phi"] += lo <= truth["phi"] <= hi
        for name, count in covered.items():
            assert count >= 18, f"{name} covered only {count}/{n_rep}"


def _k2_batch(seed, n_sites=25, days=(1, 2, 3), distinct=False):
    """Two pollutants at every site, one intercept each, drawn from the model;
    the same sites every day, or new sites each day with ``distinct``."""
    rng = np.random.default_rng(seed)
    shape = (len(days), n_sites, 2) if distinct else (n_sites, 2)
    sites = np.broadcast_to(rng.uniform(0, 240, size=shape), (len(days), n_sites, 2))
    day = np.repeat(days, 2 * n_sites)
    pollutant = np.tile(np.repeat([0, 1], n_sites), len(days))
    coords = np.concatenate([np.vstack([s, s]) for s in sites])
    layout = StackedLayout(day=day, pollutant=pollutant, coords=coords)
    coreg = Coregionalization(np.array([[0.8, 0.0], [0.4, 0.6]]))
    w = sample_w(layout, coreg, SpatialDecay(0.05), rng)
    X = np.column_stack([pollutant == 0, pollutant == 1]).astype(float)
    y = X @ np.array([1.0, 0.5]) + w + rng.normal(0, 0.2, size=day.size)
    return BatchData(days=tuple(days), y=y, X=X, layout=layout, n_pollutants=2)


class TestThetaCodec:
    def test_accessors_match_natural_draws(self):
        cfg = McmcConfig(iterations=200, burnin=100, thin=2, seed=3)
        post = fit_batch_mcmc(_k2_batch(5), SPATIAL, _priors(), cfg)
        assert post.param_names[post.n_beta :] == (
            "nugget2[0].log",
            "nugget2[1].log",
            "coreg[0,0].log",
            "coreg[1,0]",
            "coreg[1,1].log",
            "decay.logit",
        )
        column = dict(zip(post.param_names, post.natural_draws().T))
        for k in range(2):
            np.testing.assert_array_equal(post.nugget2_draws()[:, k], column[f"nugget2[{k}].log"])
        lower = post.coreg_draws()
        for r, c in ((0, 0), (1, 0), (1, 1)):
            name = f"coreg[{r},{c}]" + (".log" if r == c else "")
            np.testing.assert_array_equal(lower[:, r, c], column[name])
        assert np.all(lower[:, 0, 1] == 0.0)
        np.testing.assert_array_equal(post.decay_draws(), column["decay.logit"])
        # one acceptance rate per coordinate of theta, named without its
        # transform suffix, and one for the block proposal
        theta_names = post.param_names[post.n_beta :]
        theta_keys = [n.replace(".logit", "").replace(".log", "") for n in theta_names]
        assert sorted(post.acceptance) == sorted(theta_keys + ["block"])
        assert all(0.0 < post.acceptance[k] < 1.0 for k in theta_keys)
        # a held decay is never proposed and sits mid-bounds, at logit 0
        priors = _priors()
        cfg = McmcConfig(iterations=200, burnin=100, thin=2, seed=3, update_decay=False)
        held = fit_batch_mcmc(_k2_batch(5), SPATIAL, priors, cfg)
        assert sorted(held.acceptance) == sorted(post.acceptance)
        assert np.isnan(held.acceptance["decay"]) and np.isnan(held.acceptance["block"])
        assert all(0.0 < held.acceptance[k] < 1.0 for k in theta_keys if k != "decay")
        assert np.all(held.draws[:, -1] == 0.0)
        np.testing.assert_allclose(held.decay_draws(), np.mean(priors.decay_bounds), rtol=1e-15)

    def test_log_prior_matches_scipy_k2(self):
        # differences of the packed log prior are differences of the scipy
        # densities on the natural scale plus each coordinate's log-Jacobian
        from scipy import stats

        priors = _priors(
            coreg_offdiag_sd=2.0, coreg_diag_log_sd=0.7, nugget_shape=3.0, nugget_scale=0.5
        )
        lo, hi = priors.decay_bounds

        def natural_logpdf(theta):
            nugget2, lower, u = _unpack_hyper(theta, 2)
            rate = lo + (hi - lo) / (1.0 + np.exp(-u))
            diag = np.diag(lower)
            total = stats.invgamma.logpdf(nugget2, priors.nugget_shape, scale=priors.nugget_scale)
            total = total.sum()
            total += stats.lognorm.logpdf(diag, priors.coreg_diag_log_sd).sum()
            total += stats.norm.logpdf(lower[1, 0], scale=priors.coreg_offdiag_sd)
            total += stats.uniform.logpdf(rate, loc=lo, scale=hi - lo)
            # d nugget2 / d log nugget2, d l_kk / d log l_kk, d rate / d u
            jacobian = np.log(nugget2).sum() + np.log(diag).sum()
            jacobian += np.log((rate - lo) * (hi - rate) / (hi - lo))
            return total + jacobian

        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = rng.normal(0.0, 1.5, (2, 6))
            np.testing.assert_allclose(
                _log_prior(a, 2, priors) - _log_prior(b, 2, priors),
                natural_logpdf(a) - natural_logpdf(b),
                rtol=1e-10,
                atol=1e-10,
            )

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_pack_unpack_round_trip(self, K):
        rng = np.random.default_rng(K)
        n = 7
        nugget2 = rng.uniform(0.01, 2.0, (n, K))
        lower = np.tril(rng.normal(size=(n, K, K)))
        lower[:, np.arange(K), np.arange(K)] = rng.uniform(0.1, 3.0, (n, K))
        u = rng.normal(size=n)
        v = _pack_hyper(nugget2, lower, u)
        assert v.shape == (n, len(_theta_labels(K)[0])) == (n, K + K * (K + 1) // 2 + 1)
        for got, want in zip(_unpack_hyper(v, K), (nugget2, lower, u)):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        # one draw without the leading axis packs to the same row
        for i in range(n):
            np.testing.assert_array_equal(_pack_hyper(nugget2[i], lower[i], u[i]), v[i])


def _k1_exact_cdfs(batch, priors, n_decay=190, d_log_nugget=0.04, d_log_l11=0.04):
    """Exact posterior CDFs of decay and nugget for a ``_k1_batch`` batch.

    Independent of the sampler: the intercept is integrated out in closed
    form, and (decay, log tau^2, log l11) run over a quadrature grid.  Every
    day has the same sites, so per decay value one eigendecomposition of the
    correlation matrix diagonalizes l11^2 R + tau^2 I for the whole grid.
    The log l11 grid reaches -60: at small l11 the likelihood is flat (a
    nugget-only plateau held up by the lognormal prior on the mixing
    diagonal), and that mass belongs to the integral.
    """
    days = len(batch.days)
    n = batch.n // days
    sites = batch.layout.coords[:n]
    Y = batch.y.reshape(days, n)
    dist = np.sqrt(((sites[:, None] - sites[None]) ** 2).sum(-1))
    decay = np.linspace(*priors.decay_bounds, n_decay + 1)
    log_t2 = np.arange(-6.0, 2.0 + 1e-9, d_log_nugget)
    log_l = np.concatenate([np.arange(-60.0, -3.0, 0.5), np.arange(-3.0, 2.5 + 1e-9, d_log_l11)])
    # priors on these coordinates: IG(shape, scale) on tau^2, N(0, sd^2) on log l11
    log_prior = (
        -priors.nugget_shape * log_t2 - priors.nugget_scale * np.exp(-log_t2)
    )[:, None] - 0.5 * (log_l / priors.coreg_diag_log_sd)[None, :] ** 2
    t2 = np.exp(log_t2)[:, None, None]
    l2 = np.exp(2.0 * log_l)[None, :, None]
    log_post = np.empty((decay.size, log_t2.size, log_l.size))
    for i, rate in enumerate(decay):
        lam, U = np.linalg.eigh(np.exp(-rate * dist))
        x = U.sum(axis=0)  # U^T 1
        Z = Y @ U
        var = l2 * np.maximum(lam, 0.0) + t2
        a = days * (x**2 / var).sum(-1) + 1.0 / priors.beta_sd**2
        b = ((Z * x).sum(0) / var).sum(-1)
        c = ((Z**2).sum(0) / var).sum(-1)
        log_post[i] = (
            -0.5 * days * np.log(var).sum(-1) - 0.5 * (c - b * b / a) - 0.5 * np.log(a) + log_prior
        )
    dens = np.exp(log_post - log_post.max())

    def cdf(marginal, x):
        c = np.concatenate([[0.0], np.cumsum(0.5 * (marginal[1:] + marginal[:-1]) * np.diff(x))])
        return c / c[-1]

    over_l = np.trapezoid(dens, log_l, axis=2)
    return {
        "decay": (decay, cdf(np.trapezoid(over_l, log_t2, axis=1), decay)),
        "nugget2": (np.exp(log_t2), cdf(np.trapezoid(over_l, decay, axis=0), log_t2)),
    }


class TestK1TailsAgainstQuadrature:
    def test_interval_ends_at_exact_quantiles(self):
        # replicate 9 of the coverage test, where the truth sits at exact
        # decay CDF 0.03: its interval ends must be the exact 2.5% and 97.5%
        # quantiles to within about 3 Monte Carlo standard errors at ESS 300.
        # A chain that mixes slowly in the tails puts them too far in.
        truth = dict(beta=1.5, tau2=0.25, l11=1.0, phi=0.047)
        batch = _k1_batch(1009, **truth)
        priors = _priors()
        post = fit_batch_mcmc(
            batch,
            SPATIAL,
            priors,
            McmcConfig(iterations=12_000, burnin=4_000, thin=4, seed=9),
        )
        exact = _k1_exact_cdfs(batch, priors)
        for name, draws in (
            ("decay", post.decay_draws()),
            ("nugget2", post.nugget2_draws()[:, 0]),
        ):
            grid, cdf = exact[name]
            ends = np.percentile(draws, [2.5, 97.5])
            at = np.interp(ends, grid, cdf)
            assert abs(at[0] - 0.025) < 0.015, f"{name} 2.5% end at exact CDF {at[0]:.3f}"
            assert abs(at[1] - 0.975) < 0.015, f"{name} 97.5% end at exact CDF {at[1]:.3f}"


class TestIndependenceProposal:
    def test_density_matches_multivariate_t(self):
        from scipy.stats import multivariate_t

        rng = np.random.default_rng(6)
        mix = np.array([[1.0, 0.0, 0.0], [0.5, 0.3, 0.0], [0.0, -0.2, 2.0]])
        draws = rng.standard_normal((400, 3)) @ mix
        prop = _IndependenceProposal.fit(draws)
        ref = multivariate_t(
            loc=draws.mean(axis=0),
            shape=prop.inflate * np.cov(draws, rowvar=False),
            df=prop.df,
        )
        points = [prop.draw(rng) for _ in range(5)]
        ours = np.array([prop.logpdf(v) for v in points])
        theirs = ref.logpdf(np.array(points))
        # equal up to the normalizing constant
        assert np.allclose(ours - ours[0], theirs - theirs[0], atol=1e-10)

    def test_too_few_draws(self):
        assert _IndependenceProposal.fit(np.zeros((29, 3))) is None
        assert _IndependenceProposal.fit(np.zeros((30, 3))) is None  # degenerate


class TestDegenerateBatches:
    def test_jitter_path_factors_singular_stack(self):
        L, jittered = chol_pd(np.ones((1, 3, 3)))
        assert jittered
        # trace / n is 1, so the jitter is JITTER_SCALE on each diagonal entry
        expected = np.ones((1, 3, 3)) + JITTER_SCALE * np.eye(3)
        np.testing.assert_allclose(L @ np.swapaxes(L, 1, 2), expected, rtol=0, atol=1e-12)
        assert np.all(np.diagonal(L @ np.swapaxes(L, 1, 2), axis1=1, axis2=2) > 1.0)

    def test_coincident_stations(self):
        # two stations at identical coordinates make every day's LMC block C
        # singular.  The sampler and interpolation factor only the marginal
        # covariance C + D, which holds the nugget on its diagonal and
        # factors without the jitter rule
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
        post = fit_batch_mcmc(
            batch, SPATIAL, _priors(), McmcConfig(iterations=300, burnin=100, thin=2, seed=4)
        )
        assert np.all(np.isfinite(post.draws))
        kernel = LmcKernel(sites, np.zeros(len(sites), int), 1)
        cov = kernel.cov(post.coreg_draws() ** 2, kernel.corr(post.decay_draws()))
        marginal = cov + post.nugget2_draws()[:, :, None] * np.eye(len(sites))
        assert chol_pd(cov)[1]
        assert not chol_pd(marginal)[1]


class TestMakeBatches:
    def _design(self, n_days=8, per_day=6):
        from specdown.stations import (
            ModelVariant as MV,
            assemble_design,
            observation_records,
            site_records,
        )
        from specdown.grid import GridField, GridSpec

        rng = np.random.default_rng(0)
        spec = GridSpec(4, 4, 12.0)
        sids = [f"s{i}" for i in range(per_day)]
        xy = np.array([(rng.uniform(0, 48), rng.uniform(0, 48)) for _ in sids])
        sites = site_records(sids, xy[:, 0], xy[:, 1], ([0], np.ones((per_day, 1))))
        fields = {
            (0, d): GridField(spec, rng.standard_normal(16), 0, d) for d in range(1, n_days + 1)
        }
        rows = [(sid, d, 0, float(rng.standard_normal())) for d in range(1, n_days + 1) for sid in sids]
        obs = observation_records(*zip(*rows))
        design = assemble_design(MV("LD", False, False), fields, [], obs, sites)
        return design, np.array([o.value for o in obs])

    def test_partial_batch_dropped_with_warning(self):
        design, y = self._design(n_days=8)
        with pytest.warns(UserWarning, match="partial batch"):
            batches = make_batches(design, y, range(1, 9), batch_len=3)
        assert [b.days for b in batches] == [(1, 2, 3), (4, 5, 6)]

    def test_windows_do_not_overlap(self):
        design, y = self._design(n_days=9)
        batches = make_batches(design, y, range(1, 10), batch_len=3)
        seen = set()
        for b in batches:
            assert not (seen & set(b.days))
            seen |= set(b.days)
        assert all(b.y.shape[0] == b.X.shape[0] == b.layout.n for b in batches)


class TestMarginalLoglik:
    def test_factorizes_over_batches(self):
        rng = np.random.default_rng(31)
        n_sites, days = 12, (1, 2, 3, 4, 5, 6)
        sites = rng.uniform(0, 150, (n_sites, 2))
        day = np.repeat(days, n_sites)
        layout = StackedLayout(
            day=day, pollutant=np.zeros(day.size, int), coords=np.tile(sites, (len(days), 1))
        )
        X = np.ones((day.size, 1))
        coreg = Coregionalization(np.array([[0.8]]))
        decay = SpatialDecay(0.03)
        y = 1.0 + sample_w(layout, coreg, decay, rng) + rng.normal(0, 0.3, day.size)
        whole = BatchData(days=days, y=y, X=X, layout=layout, n_pollutants=1)

        def sub(day_set):
            mask = np.isin(day, day_set)
            return BatchData(
                days=tuple(day_set),
                y=y[mask],
                X=X[mask],
                layout=StackedLayout(
                    day=day[mask], pollutant=np.zeros(mask.sum(), int), coords=layout.coords[mask]
                ),
                n_pollutants=1,
            )

        beta = np.array([1.0])
        nugget2 = np.array([0.09])
        ll_joint = marginal_loglik(whole, beta, coreg, decay, nugget2)
        ll_sum = sum(
            marginal_loglik(sub(ds), beta, coreg, decay, nugget2)
            for ds in ((1, 2, 3), (4, 5, 6))
        )
        assert ll_joint == pytest.approx(ll_sum, abs=1e-9)


class TestSharedLayouts:
    def _batch(self):
        """Four days of K=2 rows: day 2 is day 1 in another row order, day 3
        repeats day 1's rows, day 4 drops day 1's first station."""
        rng = np.random.default_rng(41)
        sites = rng.uniform(0, 150, (6, 2))
        site = np.r_[np.arange(6), np.arange(4)]  # pollutant 1 at the first four
        pol = np.r_[np.zeros(6, int), np.ones(4, int)]
        order = rng.permutation(site.size)
        keep = site != 0
        day_rows = [(site, pol), (site[order], pol[order]), (site, pol), (site[keep], pol[keep])]
        day = np.concatenate([np.full(s.size, d) for d, (s, _) in enumerate(day_rows, 1)])
        site_row = np.concatenate([s for s, _ in day_rows])
        pol_row = np.concatenate([p for _, p in day_rows])
        layout = StackedLayout(day=day, pollutant=pol_row, coords=sites[site_row])
        X = np.column_stack([pol_row == 0, pol_row == 1, rng.standard_normal(day.size)])
        y = rng.standard_normal(day.size)
        return BatchData(days=(1, 2, 3, 4), y=y, X=X.astype(float), layout=layout, n_pollutants=2)

    def _dense_covs(self, batch, cross, rate, nugget2):
        """C + D per day from pairwise distances, in stacked-vector order."""
        layout = batch.layout
        out = []
        for d in batch.days:
            idx = np.flatnonzero(layout.day == d)
            xy, pol = layout.coords[idx], layout.pollutant[idx]
            dist = np.linalg.norm(xy[:, None] - xy[None, :], axis=-1)
            S = cross[np.ix_(pol, pol)] * np.exp(-rate * dist) + np.diag(nugget2[pol])
            out.append((idx, S))
        return out

    def test_days_share_factors_by_exact_rows(self):
        from scipy.stats import multivariate_normal

        batch = self._batch()
        blocks = DayBlocks(batch.layout, 2)
        # sizes 8 (day 4) then 10 (days 1-3); day 2 is reordered, day 3 shares day 1's factor
        assert [rows.shape for rows in blocks.rows] == [(1, 8), (3, 10)]
        assert [member.tolist() for member in blocks.member] == [[0], [0, 1, 0]]
        assert [pol.shape[0] for pol in blocks.pollutant] == [1, 2]

        lower = np.array([[0.9, 0.0], [0.5, 0.7]])
        cross, rate, nugget2 = lower @ lower.T, 0.03, np.array([0.2, 0.1])
        beta = np.array([0.3, -0.2, 0.5])
        chols = _factor_marginal(blocks, blocks.cov(cross, blocks.corr(rate)), nugget2)
        assert [L.shape[0] for L in chols] == [1, 2]
        resid = batch.y - batch.X @ beta
        dense = self._dense_covs(batch, cross, rate, nugget2)
        expected = sum(multivariate_normal.logpdf(resid[idx], cov=S) for idx, S in dense)
        ll = _marginal_loglik(blocks, chols, blocks.gather(resid))
        assert ll - 0.5 * batch.n * np.log(2.0 * np.pi) == pytest.approx(expected, abs=1e-10)
        assert marginal_loglik(
            batch, beta, Coregionalization(lower), SpatialDecay(rate), nugget2
        ) == pytest.approx(expected, abs=1e-10)

        Xy = np.column_stack([batch.X, batch.y])
        S = np.zeros((batch.n, batch.n))
        for idx, S_d in dense:
            S[np.ix_(idx, idx)] = S_d
        gram = _gls_gram(blocks, chols, blocks.gather(Xy))
        np.testing.assert_allclose(gram, Xy.T @ np.linalg.solve(S, Xy), rtol=1e-10, atol=1e-12)

    def test_draw_axis_factors_equal_single_draw_factors(self):
        # a stack of I draws gives, member for member, the bytes of the I
        # factors of one theta each: the sampler and interpolation factor alike
        batch = self._batch()
        blocks = DayBlocks(batch.layout, 2)
        rng = np.random.default_rng(7)
        I = 5
        lower = np.zeros((I, 2, 2))
        lower[:, [0, 1], [0, 1]] = rng.uniform(0.4, 1.2, (I, 2))
        lower[:, 1, 0] = rng.normal(0.0, 0.3, I)
        cross = lower @ np.swapaxes(lower, 1, 2)
        rate = rng.uniform(0.01, 0.1, I)
        nugget2 = rng.uniform(0.01, 0.2, (I, 2))
        stacked = blocks.factor(blocks.cov(cross, blocks.corr(rate)), nugget2)
        assert [L.shape for L in stacked] == [(I, 1, 8, 8), (I, 2, 10, 10)]
        for i in range(I):
            single = blocks.factor(blocks.cov(cross[i], blocks.corr(rate[i])), nugget2[i])
            for L_stack, L_one in zip(stacked, single):
                assert np.array_equal(L_stack[i], L_one)

    @pytest.mark.parametrize("distinct, stack", [(False, 1), (True, 3)])
    def test_sampler_factors_one_block_per_layout(self, monkeypatch, distinct, stack):
        sizes = []
        batch = _k2_batch(3, n_sites=12, distinct=distinct)  # sample_w calls chol_pd too

        def counting(cov):
            sizes.append(cov.shape[0])
            return chol_pd(cov)  # the original, imported before the patch

        monkeypatch.setattr(lmc, "chol_pd", counting)
        cfg = McmcConfig(iterations=20, burnin=10, thin=1, seed=2)
        fit_batch_mcmc(batch, SPATIAL, _priors(), cfg)
        # the initial factor, then one per move: decay, three mixing entries, two nuggets
        assert sizes == [stack] * (1 + cfg.iterations * 6)


def _gaussian_posterior(mean, var, n_draws, seed, days):
    rng = np.random.default_rng(seed)
    draws = rng.normal(mean, np.sqrt(var), size=(n_draws, 1))
    return BatchPosterior(
        draws=draws,
        param_names=("theta",),
        transforms=("id",),
        n_beta=1,
        n_pollutants=1,
        days=days,
        seed=seed,
    )


class TestConsensus:
    def test_single_batch_returned_unchanged(self):
        post = _gaussian_posterior(0.0, 1.0, 500, 1, (1,))
        combined = consensus_combine([post])
        assert combined.draws is post.draws  # bit for bit, same buffer

    def test_gaussian_product_oracle(self):
        # subposteriors N(0,1) and N(2,1) drawn exactly; the product density
        # is N(1, 1/2)
        n = 50_000
        a = _gaussian_posterior(0.0, 1.0, n, 11, (1,))
        b = _gaussian_posterior(2.0, 1.0, n, 12, (2,))
        combined = consensus_combine([a, b])
        assert combined.draws.shape == (n, 1)
        assert abs(combined.draws.mean() - 1.0) < 0.02
        assert abs(combined.draws.var() - 0.5) < 0.05 * 0.5

    def test_permutation_invariant(self):
        a = _gaussian_posterior(0.0, 1.0, 400, 3, (1,))
        b = _gaussian_posterior(2.0, 2.0, 400, 4, (2,))
        c = _gaussian_posterior(-1.0, 0.5, 400, 5, (3,))
        x = consensus_combine([a, b, c])
        y = consensus_combine([c, a, b])
        assert np.array_equal(x.draws, y.draws)

    def test_mismatched_names_rejected(self):
        a = _gaussian_posterior(0.0, 1.0, 100, 3, (1,))
        b = BatchPosterior(
            draws=a.draws,
            param_names=("other",),
            transforms=("id",),
            n_beta=1,
            n_pollutants=1,
            days=(2,),
        )
        with pytest.raises(ValueError):
            consensus_combine([a, b])

    def test_truncates_to_shortest(self):
        a = _gaussian_posterior(0.0, 1.0, 300, 6, (1,))
        b = _gaussian_posterior(1.0, 1.0, 200, 7, (2,))
        with pytest.warns(UserWarning, match="truncating"):
            combined = consensus_combine([a, b])
        assert combined.n_draws == 200

    def test_combined_on_transformed_scale_then_both_stored(self):
        batch = _k1_batch(3)
        cfg = McmcConfig(iterations=400, burnin=200, thin=2, seed=2)
        p1 = fit_batch_mcmc(batch, SPATIAL, _priors(), cfg)
        p2 = fit_batch_mcmc(
            _k1_batch(4), SPATIAL, _priors(), McmcConfig(**{**cfg.__dict__, "seed": 3})
        )
        combined = consensus_combine([p1, p2])
        nat = combined.natural_draws()
        k = combined.n_beta
        assert np.allclose(nat[:, k], np.exp(combined.draws[:, k]))
        lo, hi = combined.decay_bounds
        assert np.all((nat[:, -1] > lo) & (nat[:, -1] < hi))

    def test_singular_batch_covariance_takes_jitter_path(self):
        rng = np.random.default_rng(8)

        def post(draws, days):
            return BatchPosterior(
                draws=draws,
                param_names=("a", "b"),
                transforms=("id", "id"),
                n_beta=2,
                n_pollutants=1,
                days=days,
            )

        regular = post(rng.normal(size=(200, 2)), (1,))
        draws = rng.normal(size=(200, 2))
        draws[:, 1] = 0.5  # a constant column: the sample covariance is singular
        singular = post(draws, (2,))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(singular.sample_cov)
        with pytest.warns(UserWarning, match="ridge-regularizing"):
            combined = consensus_combine([regular, singular])
        assert np.all(np.isfinite(combined.draws))
        # the jittered variance is tiny, so that batch pins the constant coordinate
        assert np.allclose(combined.draws[:, 1], 0.5, rtol=0, atol=1e-4)


    @pytest.mark.parametrize("n_draws, warns", [(5, True), (200, False)])
    def test_batches_too_short_for_their_parameters_warn_once(self, n_draws, warns):
        rng = np.random.default_rng(4)
        posts = [
            BatchPosterior(
                draws=rng.normal(size=(n_draws, 8)),
                param_names=tuple(f"p{i}" for i in range(8)),
                transforms=("id",) * 8,
                n_beta=7,
                n_pollutants=1,
                days=(d,),
            )
            for d in (1, 2, 3)
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            consensus_combine(posts)
        messages = [str(w.message) for w in caught]
        if warns:
            assert len(messages) == 1
            assert messages[0].startswith("5 kept draws for 8 parameters:")
        else:
            assert messages == []


class TestOlsPosterior:
    def test_centered_on_ols_fit(self):
        rng = np.random.default_rng(21)
        n = 200
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = X @ np.array([2.0, -1.0]) + rng.normal(0, 0.3, n)
        layout = StackedLayout(
            day=np.ones(n, int), pollutant=np.zeros(n, int), coords=rng.uniform(0, 10, (n, 2))
        )
        batch = BatchData(days=(1,), y=y, X=X, layout=layout, n_pollutants=1)
        post = ols_posterior(batch, n_draws=4000, seed=1)
        fit = fit_ols(X, y)
        assert np.allclose(post.beta_draws().mean(axis=0), fit.coef, atol=4 * fit.se.max() / 60)
        assert not post.has_spatial
        assert post.nugget2_draws().mean() == pytest.approx(fit.sigma2, rel=0.1)


class TestConfigValidation:
    def test_mcmc_config(self):
        with pytest.raises(ValueError):
            McmcConfig(iterations=100, burnin=100)
        with pytest.raises(ValueError):
            McmcConfig(thin=0)
        # a zero step freezes its coordinates; a zero nugget gives non-finite draws
        for bad in (0.0, -0.3, np.inf, np.nan):
            with pytest.raises(ValueError, match="step_coreg"):
                McmcConfig(step_coreg=bad)
            with pytest.raises(ValueError, match="step_decay"):
                McmcConfig(step_decay=bad)
            with pytest.raises(ValueError, match="init_nugget2"):
                McmcConfig(init_nugget2=[0.2, bad])
        # the stored value is the one given
        assert McmcConfig(init_nugget2=[0.2]).init_nugget2 == [0.2]
        # one initial nugget per pollutant
        cfg = McmcConfig(iterations=20, burnin=10, init_nugget2=[0.2, 0.2])
        with pytest.raises(ValueError, match="init_nugget2"):
            fit_batch_mcmc(_k1_batch(1001), SPATIAL, _priors(), cfg)

    def test_priors(self):
        with pytest.raises(ValueError):
            Priors(decay_bounds=(0.5, 0.1))
        with pytest.raises(ValueError):
            Priors(decay_bounds=(0.1, 0.5), beta_sd=-1.0)

    def test_derive_rng_deterministic(self):
        a = derive_rng(42, 1, 2).standard_normal(4)
        b = derive_rng(42, 1, 2).standard_normal(4)
        c = derive_rng(42, 1, 3).standard_normal(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
