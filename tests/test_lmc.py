"""Coregionalized spatial covariance and exact simulation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specdown.lmc import (
    JITTER_SCALE,
    Coregionalization,
    CovarianceNotPDError,
    LmcKernel,
    SpatialDecay,
    StackedLayout,
    chol_pd,
    sample_w,
)


def lmc_covariance(layout: StackedLayout, coreg: Coregionalization, decay: SpatialDecay) -> np.ndarray:
    """Dense covariance of the stacked residual vector.

    Entries pair (pollutant i at s, day d) with (pollutant j at s', d'):
    zero when d != d', otherwise sum_m A_im A_jm exp(-rate ||s - s'||).
    """
    kernel = LmcKernel(layout.coords, layout.pollutant, coreg.k)
    cov = kernel.cov(coreg.cross_cov(), kernel.corr(decay.rate))
    return np.where(layout.day[:, None] == layout.day[None, :], cov, 0.0)


def _layout(coords, pollutants, days=None):
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    days = np.ones(n, dtype=int) if days is None else np.asarray(days)
    return StackedLayout(day=days, pollutant=np.asarray(pollutants), coords=coords)


class TestTypes:
    def test_coreg_requires_lower_triangular(self):
        with pytest.raises(ValueError):
            Coregionalization(np.array([[1.0, 0.5], [0.5, 1.0]]))

    def test_coreg_requires_positive_diagonal(self):
        with pytest.raises(ValueError):
            Coregionalization(np.array([[1.0, 0.0], [0.5, 0.0]]))

    def test_decay_positive(self):
        with pytest.raises(ValueError):
            SpatialDecay(0.0)

    def test_layout_nonempty(self):
        with pytest.raises(ValueError):
            StackedLayout(day=np.empty(0, int), pollutant=np.empty(0, int), coords=np.empty((0, 2)))


def _corr(distance, rate):
    """LmcKernel correlation between the origin and a point ``distance`` km along x."""
    return LmcKernel([[0.0, 0.0], [distance, 0.0]], [0, 0], 1).corr(rate)[0, 1]


class TestExpCorr:
    def test_zero_distance(self):
        assert _corr(0.0, 0.13) == 1.0

    def test_effective_range(self):
        phi = 0.02
        assert _corr(3.0 / phi, phi) == pytest.approx(np.exp(-3), rel=1e-12)
        assert _corr(3.0 / phi, phi) == pytest.approx(0.0498, abs=1e-4)

    @settings(max_examples=30, deadline=None)
    @given(
        h1=st.floats(min_value=0.0, max_value=500.0),
        gap=st.floats(min_value=1e-6, max_value=500.0),
        phi=st.floats(min_value=1e-4, max_value=1.0),
    )
    def test_monotone_decreasing(self, h1, gap, phi):
        assert _corr(h1, phi) > _corr(h1 + gap, phi)


class TestCovariance:
    def test_scalar_two_sites(self):
        phi, h, v = 0.07, 10.0, 1.69
        layout = _layout([[0.0, 0.0], [h, 0.0]], [0, 0])
        cov = lmc_covariance(layout, Coregionalization(np.array([[np.sqrt(v)]])), SpatialDecay(phi))
        expected = np.array([[v, v * np.exp(-phi * h)], [v * np.exp(-phi * h), v]])
        assert np.allclose(cov, expected)

    def test_same_site_block_is_cross_cov(self):
        lower = np.array([[1.0, 0.0], [0.5, 1.2]])
        layout = _layout([[3.0, 4.0], [3.0, 4.0]], [0, 1])
        cov = lmc_covariance(layout, Coregionalization(lower), SpatialDecay(0.3))
        assert np.allclose(cov, lower @ lower.T)

    def test_monte_carlo_oracle(self):
        # simulate v_k as independent GPs at the two sites, form w = L v,
        # and compare the empirical covariance of 200k draws entrywise
        lower = np.array([[1.0, 0.0], [0.5, 1.0]])
        phi, h = 0.1, 10.0
        sites = np.array([[0.0, 0.0], [h, 0.0]])
        layout = _layout(np.vstack([sites, sites]), [0, 0, 1, 1])
        cov = lmc_covariance(layout, Coregionalization(lower), SpatialDecay(phi))

        rng = np.random.default_rng(20240101)
        n_draws = 200_000
        R = np.exp(-phi * np.abs(sites[:, :1] - sites[:, :1].T))
        cR = np.linalg.cholesky(R)
        v = np.einsum("st,dkt->dks", cR, rng.standard_normal((n_draws, 2, 2)))
        w = np.einsum("ik,dks->dis", lower, v)  # (draw, pollutant, site)
        stacked = w.reshape(n_draws, 4)  # pollutant-major to match the layout
        emp = np.cov(stacked, rowvar=False)
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n_draws)
        assert np.all(np.abs(emp - cov) < 3.0 * se)

    def test_within_pollutant_hand_expansion_k3(self):
        rng = np.random.default_rng(7)
        lower = np.tril(rng.uniform(0.2, 1.0, size=(3, 3)))
        phi, h = 0.04, 23.0
        layout = _layout([[0.0, 0.0], [h, 0.0]], [1, 1])
        cov = lmc_covariance(layout, Coregionalization(lower), SpatialDecay(phi))
        by_hand = sum(lower[1, j] ** 2 * np.exp(-phi * h) for j in range(3))
        assert cov[0, 1] == pytest.approx(by_hand, rel=1e-12)

    def test_cross_days_independent(self):
        layout = _layout([[0.0, 0.0], [0.0, 0.0]], [0, 0], days=[1, 2])
        cov = lmc_covariance(layout, Coregionalization(np.eye(1 + 0) + np.zeros((1, 1))), SpatialDecay(0.1))
        assert cov[0, 1] == 0.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        coords = rng.uniform(0, 50, size=(6, 2))
        pols = np.array([0, 1, 0, 1, 0, 1])
        lower = np.array([[1.0, 0.0], [0.4, 0.8]])
        layout = _layout(coords, pols)
        cov = lmc_covariance(layout, Coregionalization(lower), SpatialDecay(0.05))
        perm = rng.permutation(6)
        layout_p = _layout(coords[perm], pols[perm])
        cov_p = lmc_covariance(layout_p, Coregionalization(lower), SpatialDecay(0.05))
        assert np.allclose(cov_p, cov[np.ix_(perm, perm)])

    def test_kronecker_structure_fully_observed(self):
        # with a common decay and every site observing every pollutant,
        # pollutant-major stacking makes the matrix kron(cross, distance kernel)
        rng = np.random.default_rng(13)
        sites = rng.uniform(0, 100, size=(5, 2))
        lower = np.array([[0.9, 0.0], [0.3, 1.1]])
        phi = 0.02
        coords = np.vstack([sites, sites])
        pols = np.repeat([0, 1], 5)
        layout = _layout(coords, pols)
        cov = lmc_covariance(layout, Coregionalization(lower), SpatialDecay(phi))
        from scipy.spatial.distance import cdist

        R = np.exp(-phi * cdist(sites, sites))
        assert np.allclose(cov, np.kron(lower @ lower.T, R))


class TestLmcKernel:
    def test_batch_shapes_match_one_matrix_at_a_time(self):
        rng = np.random.default_rng(3)
        K, G, n, T, I = 2, 3, 5, 4, 6
        coords = rng.uniform(0, 60, size=(G, n, 2))
        pol = rng.integers(0, K, size=(G, n))
        lowers = np.tril(rng.uniform(0.2, 1.0, size=(I, K, K)))
        crosses = lowers @ np.swapaxes(lowers, 1, 2)
        rates = rng.uniform(0.01, 0.1, size=I)

        def by_hand(xy_a, pol_a, xy_b, pol_b, cross, rate):
            d = np.hypot(xy_a[:, None, 0] - xy_b[None, :, 0], xy_a[:, None, 1] - xy_b[None, :, 1])
            return cross[np.ix_(pol_a, pol_b)] * np.exp(-rate * d)

        # (G, n, n) day blocks under one rate and one cross block
        days = LmcKernel(coords, pol, K)
        stack = days.cov(crosses[0], days.corr(rates[0]))
        for g in range(G):
            expected = by_hand(coords[g], pol[g], coords[g], pol[g], crosses[0], rates[0])
            np.testing.assert_allclose(stack[g], expected, rtol=1e-13)

        # one day's (n, n) block per draw, written over the correlations
        day = LmcKernel(coords[0], pol[0], K)
        corr = day.corr(rates)
        out = day.cov(crosses, corr, out=corr)
        assert out is corr and out.shape == (I, n, n)
        for i in range(I):
            expected = by_hand(coords[0], pol[0], coords[0], pol[0], crosses[i], rates[i])
            np.testing.assert_allclose(out[i], expected, rtol=1e-13)

        # targets x sites per draw
        xy_t, pol_t = rng.uniform(0, 60, size=(T, 2)), rng.integers(0, K, size=T)
        cross_t = LmcKernel(xy_t, pol_t, K, coords[0], pol[0])
        c0 = cross_t.cov(crosses, cross_t.corr(rates))
        assert c0.shape == (I, T, n)
        for i in range(I):
            expected = by_hand(xy_t, pol_t, coords[0], pol[0], crosses[i], rates[i])
            np.testing.assert_allclose(c0[i], expected, rtol=1e-13)


class TestSampleW:
    def test_fixed_seed_reproducible(self):
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        layout = _layout(np.random.default_rng(0).uniform(0, 40, (8, 2)), [0] * 4 + [1] * 4)
        coreg = Coregionalization(np.array([[1.0, 0.0], [0.2, 0.7]]))
        decay = SpatialDecay(0.08)
        assert np.array_equal(
            sample_w(layout, coreg, decay, rng_a), sample_w(layout, coreg, decay, rng_b)
        )

    def test_moments_match_covariance(self):
        layout = _layout([[0.0, 0.0], [15.0, 0.0], [0.0, 0.0], [15.0, 0.0]], [0, 0, 1, 1])
        coreg = Coregionalization(np.array([[1.0, 0.0], [0.5, 1.0]]))
        decay = SpatialDecay(0.05)
        cov = lmc_covariance(layout, coreg, decay)
        rng = np.random.default_rng(99)
        n = 100_000
        draws = np.array([sample_w(layout, coreg, decay, rng) for _ in range(200)])
        # vectorized path: one big chol draw per repetition is slow in a loop;
        # use 200 exact draws for the mean check and a direct matrix sample
        # for the covariance check
        cf = np.linalg.cholesky(cov)
        big = (cf @ rng.standard_normal((4, n))).T
        mean_se = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(big.mean(axis=0)) < 4.0 * mean_se)
        emp = np.cov(big, rowvar=False)
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.all(np.abs(emp - cov) < 3.0 * se)
        # the exact sampler agrees with the direct construction in distribution
        emp_small = np.cov(draws, rowvar=False)
        se_small = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / 200)
        assert np.all(np.abs(emp_small - cov) < 4.0 * se_small)

    def test_days_drawn_independently(self):
        layout = _layout(
            [[0.0, 0.0], [0.0, 0.0]], [0, 0], days=[1, 2]
        )
        coreg = Coregionalization(np.array([[1.0]]))
        decay = SpatialDecay(0.1)
        rng = np.random.default_rng(1)
        draws = np.array([sample_w(layout, coreg, decay, rng) for _ in range(4000)])
        corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(4000)


class TestPdGuard:
    def test_jitter_rescues_duplicate_sites(self):
        layout = _layout([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]], [0, 0, 0])
        cov = lmc_covariance(layout, Coregionalization(np.array([[1.0]])), SpatialDecay(0.1))
        chol_pd(cov)  # should not raise

    def test_plain_factor_when_positive_definite(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        L, jittered = chol_pd(cov)
        assert not jittered
        np.testing.assert_array_equal(L, np.linalg.cholesky(cov))

    def test_stack_jitters_every_member(self):
        stack = np.stack([np.eye(2), np.ones((2, 2))])  # second member singular
        L, jittered = chol_pd(stack)
        assert jittered
        rebuilt = L @ np.swapaxes(L, 1, 2)
        np.testing.assert_allclose(rebuilt, stack + JITTER_SCALE * np.eye(2), rtol=0, atol=1e-14)

    def test_error_carries_smallest_eigenvalue(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(CovarianceNotPDError, match="smallest eigenvalue"):
            chol_pd(bad)
