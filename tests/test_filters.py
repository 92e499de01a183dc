"""Band filtering, the spline basis, spectral covariates, period conversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specdown.filters import (
    BIN_RANGE_HI,
    MAX_MAGNITUDE,
    FrequencyBand,
    band_filter,
    build_covariates,
    eight_bins,
    make_basis,
    period_of,
    spectral_covariates,
)
from specdown.grid import (
    GridField,
    GridSpec,
    SpectrumField,
    dft_forward,
    dft_inverse,
    frequency_lattice,
)

PI = np.pi


def _random_field(spec, seed=0):
    rng = np.random.default_rng(seed)
    return GridField(spec, rng.standard_normal(spec.ncells))


class TestFrequencyBand:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyBand(0.5, 0.5)
        with pytest.raises(ValueError):
            FrequencyBand(-0.1, 0.5)
        with pytest.raises(ValueError):
            FrequencyBand(0.0, BIN_RANGE_HI * 1.01)

    def test_eight_bins_share_edges(self):
        bins = eight_bins()
        assert len(bins) == 8
        for a, b in zip(bins, bins[1:]):
            assert a.hi == b.lo
        assert bins[0].lo == 0.0
        assert bins[-1].hi == pytest.approx(8 * PI / 5)
        for band in bins:
            assert band.hi - band.lo == pytest.approx(PI / 5)


class TestBandFilter:
    def test_constant_field_dc_excluded(self):
        spec = GridSpec(6, 6, 12.0)
        f = GridField(spec, np.full(36, 4.0))
        out = band_filter(f, FrequencyBand(PI / 5, 2 * PI / 5))
        assert np.allclose(out.values, 0.0, atol=1e-12)

    def test_constant_field_dc_included(self):
        spec = GridSpec(6, 6, 12.0)
        f = GridField(spec, np.full(36, 4.0))
        out = band_filter(f, FrequencyBand(0.0, PI / 5))
        assert np.allclose(out.values, 4.0, atol=1e-12)

    def test_empty_band_returns_zero_field(self):
        spec = GridSpec(4, 4, 12.0)
        f = _random_field(spec, 1)
        # a 4x4 lattice has magnitudes {0, pi/2, pi, ...}; (0.1, 0.2) is empty
        out = band_filter(f, FrequencyBand(0.1, 0.2))
        assert np.allclose(out.values, 0.0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_bins_reconstruct_field(self, seed):
        spec = GridSpec(9, 7, 12.0)
        f = _random_field(spec, seed)
        total = np.zeros(spec.ncells)
        for band in eight_bins():
            total = total + band_filter(f, band).values
        assert np.max(np.abs(total - f.values)) < 1e-9

    def test_linearity(self):
        spec = GridSpec(8, 8, 12.0)
        f, g = _random_field(spec, 2), _random_field(spec, 3)
        band = FrequencyBand(PI / 5, 3 * PI / 5)
        combo = GridField(spec, 2.5 * f.values + g.values)
        lhs = band_filter(combo, band).values
        rhs = 2.5 * band_filter(f, band).values + band_filter(g, band).values
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_idempotence(self):
        spec = GridSpec(8, 8, 12.0)
        f = _random_field(spec, 4)
        band = FrequencyBand(2 * PI / 5, 4 * PI / 5)
        once = band_filter(f, band)
        twice = band_filter(once, band)
        assert np.max(np.abs(twice.values - once.values)) < 1e-9

    def test_disjoint_bands_orthogonal(self):
        spec = GridSpec(8, 8, 12.0)
        f = _random_field(spec, 5)
        a = band_filter(f, FrequencyBand(0.0, 2 * PI / 5)).values
        b = band_filter(f, FrequencyBand(2 * PI / 5, 4 * PI / 5)).values
        inner = abs(np.dot(a, b))
        assert inner / np.dot(f.values, f.values) < 1e-8


class TestBasis:
    def test_single_indicator(self):
        basis = make_basis(1, degree=0)
        vals = basis.evaluate([0.0, 1.0, MAX_MAGNITUDE])
        assert np.allclose(vals, 1.0)

    def test_clamped_endpoint(self):
        basis = make_basis(5, degree=3)
        at0 = basis.evaluate([0.0])[0]
        assert at0[0] == pytest.approx(1.0)
        assert np.allclose(at0[1:], 0.0)

    def test_partition_of_unity(self):
        basis = make_basis(5, degree=3)
        vals = basis.evaluate([0.7])
        assert abs(vals.sum() - 1.0) < 1e-12

    def test_rejects_too_few_functions(self):
        with pytest.raises(ValueError):
            make_basis(3, degree=3)

    @settings(max_examples=30, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=9),
        degree=st.integers(min_value=0, max_value=3),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_partition_of_unity_property(self, count, degree, frac):
        if count < degree + 1:
            count = degree + 1
        basis = make_basis(count, degree)
        vals = basis.evaluate([frac * MAX_MAGNITUDE])
        assert abs(vals.sum() - 1.0) < 1e-10
        assert np.all(vals >= -1e-12)

    def test_local_support(self):
        basis = make_basis(8, degree=0)
        vals = basis.evaluate([0.1])
        assert np.count_nonzero(vals) == 1


class TestBasisWeights:
    def test_table_is_the_evaluated_basis_transposed(self):
        spec = GridSpec(8, 6, 12.0)
        basis = make_basis(5, 3)
        table = basis.weights(spec)
        assert table.shape == (5, spec.ncells)
        np.testing.assert_array_equal(table, basis.evaluate(frequency_lattice(spec).magnitudes).T)

    def test_read_only(self):
        table = make_basis(5, 3).weights(GridSpec(8, 6, 12.0))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    def test_one_table_per_spec(self):
        basis = make_basis(5, 3)
        first = basis.weights(GridSpec(8, 6, 12.0))
        assert basis.weights(GridSpec(8, 6, 12.0)) is first
        other = basis.weights(GridSpec(6, 8, 12.0))
        assert other is not first
        np.testing.assert_array_equal(
            other, basis.evaluate(frequency_lattice(GridSpec(6, 8, 12.0)).magnitudes).T
        )
        assert basis.weights(GridSpec(8, 6, 12.0)) is first


class TestSpectralCovariates:
    def test_single_constant_basis_reproduces_field(self):
        spec = GridSpec(6, 5, 12.0)
        f = _random_field(spec, 6)
        covs = spectral_covariates(f, make_basis(1, 0))
        assert len(covs) == 1
        assert np.max(np.abs(covs[0] - f.values)) < 1e-12

    def test_matches_direct_weighted_oracle(self):
        spec = GridSpec(8, 8, 12.0)
        f = _random_field(spec, 7)
        basis = make_basis(5, 3)
        covs = spectral_covariates(f, basis)
        lat = frequency_lattice(spec)
        coeffs = dft_forward(f).coeffs
        weights = basis.evaluate(lat.magnitudes)
        sx, sy = np.meshgrid(np.arange(spec.nx), np.arange(spec.ny))
        coords = np.column_stack([sx.ravel(), sy.ravel()])
        phases = np.exp(1j * (coords @ lat.freqs.T))  # (site, freq)
        for b, cov in enumerate(covs):
            oracle = (phases * (weights[:, b] * coeffs)[None, :]).sum(axis=1)
            assert np.max(np.abs(oracle.imag)) < 1e-8
            assert np.max(np.abs(cov - oracle.real)) < 1e-8

    def test_covariates_sum_to_field(self):
        spec = GridSpec(10, 6, 12.0)
        f = _random_field(spec, 8)
        covs = spectral_covariates(f, make_basis(5, 3))
        total = sum(covs)
        assert np.max(np.abs(total - f.values)) < 1e-9

    def test_centered_covariates_sum_to_anomaly(self):
        spec = GridSpec(10, 6, 12.0)
        f = _random_field(spec, 9)
        covs = spectral_covariates(f, make_basis(5, 3), center=True)
        total = sum(covs)
        assert np.max(np.abs(total - (f.values - f.values.mean()))) < 1e-9

    def test_weighted_spectrum_stays_symmetric(self):
        spec = GridSpec(8, 8, 12.0)
        f = _random_field(spec, 10)
        basis = make_basis(5, 3)
        lat = frequency_lattice(spec)
        coeffs = dft_forward(f).coeffs
        weights = basis.evaluate(lat.magnitudes)
        for b in range(5):
            weighted = SpectrumField(spec, coeffs * weights[:, b])
            assert weighted.symmetry_residual() < 1e-8

    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("count", [1, 5, 8])
    def test_rows_equal_single_member_inverse(self, center, count):
        spec = GridSpec(10, 6, 12.0)
        f = _random_field(spec, 11)
        basis = make_basis(count, min(count - 1, 3))
        covs = spectral_covariates(f, basis, center=center)
        assert covs.shape == (count, spec.ncells)
        work = GridField(spec, f.values - f.mean()) if center else f
        coeffs = dft_forward(work).coeffs
        weights = basis.weights(spec)
        for b in range(count):
            alone = dft_inverse(SpectrumField(spec, coeffs * weights[b])).values
            assert np.array_equal(covs[b], alone)

    def test_read_only(self):
        covs = spectral_covariates(_random_field(GridSpec(7, 9, 12.0), 12), make_basis(5, 3))
        assert not covs.flags.writeable
        with pytest.raises(ValueError):
            covs[0, 0] = 1.0

    def test_build_covariates_keys_each_field(self):
        spec = GridSpec(7, 9, 12.0)
        basis = make_basis(5, 3)
        fields = {(j, d): _random_field(spec, 10 * j + d) for j in range(2) for d in (1, 2)}
        covs = build_covariates(fields, basis, center=True)
        assert sorted(covs) == sorted(fields)
        for key, f in fields.items():
            assert np.array_equal(covs[key], spectral_covariates(f, basis, center=True))


class TestBinCovariates:
    def test_single_tone_lands_in_third_bin(self):
        spec = GridSpec(8, 8, 12.0)
        x = np.arange(8)
        f = GridField.from_2d(spec, np.tile(np.cos((PI / 2) * x), (8, 1)))
        norms = [np.linalg.norm(band_filter(f, band).values) for band in eight_bins()]
        assert norms[2] > 1.0
        for b, n in enumerate(norms):
            if b != 2:
                assert n < 1e-10


class TestPeriodOf:
    def test_values(self):
        assert period_of(PI / 5, 12.0) == pytest.approx(120.0)
        assert period_of(PI, 12.0) == pytest.approx(24.0)
        assert period_of(math.sqrt(2) * PI, 12.0) == pytest.approx(16.9705627, abs=1e-6)

    def test_zero_magnitude_sentinel(self):
        assert period_of(0.0, 12.0) == math.inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            period_of(-0.5, 12.0)
