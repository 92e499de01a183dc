"""Grid, frequency lattice, and DFT contracts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specdown.grid import (
    GridField,
    GridSpec,
    SpectrumField,
    SpectrumSymmetryError,
    dft_forward,
    dft_inverse,
    frequency_lattice,
)
from specdown.filters import BIN_RANGE_HI, FrequencyBand

PI = np.pi


def _eight_bins():
    """The exploratory regression's 8 equal magnitude bins over
    [0, BIN_RANGE_HI); consecutive bins share one floating-point edge."""
    edges = np.linspace(0.0, BIN_RANGE_HI, 9)
    return [FrequencyBand(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _random_field(spec, seed=0):
    rng = np.random.default_rng(seed)
    return GridField(spec, rng.standard_normal(spec.ncells))


class TestGridSpec:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            GridSpec(1, 4, 12.0)
        with pytest.raises(ValueError):
            GridSpec(4, 4, 0.0)

    def test_extent_and_diameter(self):
        spec = GridSpec(3, 4, 12.0)
        assert spec.extent_km == (36.0, 48.0)
        assert spec.diameter_km == pytest.approx(60.0)


class TestGridField:
    def test_rejects_nonfinite(self):
        spec = GridSpec(2, 2, 12.0)
        with pytest.raises(ValueError):
            GridField(spec, [1.0, np.nan, 0.0, 2.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            GridField(GridSpec(2, 2, 12.0), np.zeros(5))

    def test_values_are_immutable(self):
        f = _random_field(GridSpec(4, 4, 12.0))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestFrequencyLattice:
    def test_2x2_frequencies(self):
        lat = frequency_lattice(GridSpec(2, 2, 12.0))
        got = {tuple(np.round(f, 12)) for f in lat.freqs}
        expected = {(0.0, 0.0), (round(-PI, 12), 0.0), (0.0, round(-PI, 12)),
                    (round(-PI, 12), round(-PI, 12))}
        assert got == expected

    def test_4x4_contains_half_pi(self):
        lat = frequency_lattice(GridSpec(4, 4, 12.0))
        match = np.flatnonzero(
            np.isclose(lat.freqs[:, 0], PI / 2) & np.isclose(lat.freqs[:, 1], 0.0)
        )
        assert match.size == 1
        assert lat.magnitudes[match[0]] == pytest.approx(PI / 2)

    def test_full_scale_magnitude_bound(self):
        lat = frequency_lattice(GridSpec(299, 459, 12.0))
        assert lat.magnitudes.max() <= np.sqrt(2.0) * PI + 1e-12
        assert lat.freqs.shape == (299 * 459, 2)

    def test_zero_frequency_exactly_once(self):
        lat = frequency_lattice(GridSpec(8, 6, 12.0))
        zero = np.all(lat.freqs == 0.0, axis=1)
        assert zero.sum() == 1

    def test_principal_domain(self):
        lat = frequency_lattice(GridSpec(7, 12, 12.0))
        assert np.all(lat.freqs >= -PI)
        assert np.all(lat.freqs < PI)

    @pytest.mark.parametrize("nx,ny", [(8, 8), (13, 7), (299, 459)])
    def test_bins_partition_lattice(self, nx, ny):
        lat = frequency_lattice(GridSpec(nx, ny, 12.0))
        membership = np.zeros(lat.magnitudes.shape[0], dtype=int)
        for band in _eight_bins():
            membership += band.contains(lat.magnitudes).astype(int)
        assert np.all(membership == 1)


class TestForward:
    def test_constant_field_is_dc_only(self):
        spec = GridSpec(5, 4, 12.0)
        s = dft_forward(GridField(spec, np.full(spec.ncells, 3.25)))
        assert s.coeffs[0] == pytest.approx(3.25)
        assert np.allclose(s.coeffs[1:], 0.0, atol=1e-14)

    def test_single_tone_at_nyquist(self):
        spec = GridSpec(4, 4, 12.0)
        x = np.arange(4)
        field = GridField.from_2d(spec, np.tile(np.cos(PI * x), (4, 1)))
        s = dft_forward(field)
        lat = frequency_lattice(spec)
        hot = np.abs(s.coeffs) > 1e-12
        assert np.all(np.isclose(np.abs(lat.freqs[hot, 0]), PI))
        assert np.all(np.isclose(lat.freqs[hot, 1], 0.0))

    def test_matches_direct_summation_oracle(self):
        spec = GridSpec(8, 8, 12.0)
        field = _random_field(spec, seed=3)
        got = dft_forward(field).coeffs
        lat = frequency_lattice(spec)
        sx, sy = np.meshgrid(np.arange(spec.nx), np.arange(spec.ny))
        coords = np.column_stack([sx.ravel(), sy.ravel()])
        phases = np.exp(-1j * (coords @ lat.freqs.T))  # (site, freq)
        oracle = phases.T @ field.values / spec.ncells
        assert np.max(np.abs(got - oracle)) < 1e-8

    def test_conjugate_symmetry_of_real_fields(self):
        for nx, ny in [(8, 8), (13, 7), (6, 9)]:
            spec = GridSpec(nx, ny, 12.0)
            s = dft_forward(_random_field(spec, seed=nx * ny))
            assert s.symmetry_residual() < 1e-10


class TestInverse:
    def test_dc_only_gives_constant(self):
        spec = GridSpec(4, 4, 1.0)
        coeffs = np.zeros(16, dtype=complex)
        coeffs[0] = -2.5
        f = dft_inverse(SpectrumField(spec, coeffs))
        assert np.allclose(f.values, -2.5)

    def test_round_trip_16x16(self):
        spec = GridSpec(16, 16, 12.0)
        field = _random_field(spec, seed=16)
        back = dft_inverse(dft_forward(field))
        rel = np.linalg.norm(back.values - field.values) / np.linalg.norm(field.values)
        assert rel < 1e-10

    def test_broken_symmetry_raises(self):
        spec = GridSpec(4, 4, 1.0)
        coeffs = np.zeros(16, dtype=complex)
        coeffs[1] = 1.0 + 1.0j  # no conjugate partner
        with pytest.raises(SpectrumSymmetryError):
            dft_inverse(SpectrumField(spec, coeffs))

    def test_stack_with_one_asymmetric_member_raises(self):
        spec = GridSpec(4, 4, 1.0)
        field = _random_field(spec, seed=4)
        stack = np.tile(dft_forward(field).coeffs, (3, 1))
        stack[1, 1] += 1.0 + 1.0j  # no conjugate partner in member 1
        with pytest.raises(SpectrumSymmetryError, match="member 1"):
            dft_inverse(SpectrumField(spec, stack))

    def test_stack_rows_are_the_member_inverses(self):
        spec = GridSpec(7, 5, 1.0)
        coeffs = dft_forward(_random_field(spec, seed=5)).coeffs
        stack = np.stack([coeffs, 2.0 * coeffs, np.zeros_like(coeffs)])
        values = dft_inverse(SpectrumField(spec, stack))
        assert values.shape == (3, spec.ncells)
        assert not values.flags.writeable
        for member, row in zip(stack, values):
            assert np.array_equal(row, dft_inverse(SpectrumField(spec, member)).values)

    def test_metadata_passthrough(self):
        spec = GridSpec(4, 4, 1.0)
        s = dft_forward(GridField(spec, np.ones(16), pollutant_id=2, day=7))
        f = dft_inverse(s, pollutant_id=2, day=7)
        assert (f.pollutant_id, f.day) == (2, 7)



class TestSpectrumOwnership:
    def test_never_aliases_a_writeable_array(self):
        spec = GridSpec(4, 4, 1.0)
        owned = np.zeros((2, 16), dtype=complex)
        frozen_view = owned[1]
        frozen_view.setflags(write=False)  # read-only, but owned stays writeable
        for coeffs in (owned, frozen_view, owned.real):
            s = SpectrumField(spec, coeffs)
            assert not np.shares_memory(s.coeffs, owned)
            assert not s.coeffs.flags.writeable
        owned[:] = 1.0
        assert not s.coeffs.any()

    def test_takes_over_a_frozen_array(self):
        # spectral_covariates hands its (B, M) product over without a copy
        spec = GridSpec(4, 4, 1.0)
        product = np.ones((3, 16), dtype=complex)
        product.setflags(write=False)
        assert SpectrumField(spec, product).coeffs is product
        assert SpectrumField(spec, product[1]).coeffs.base is product


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(min_value=2, max_value=12),
    ny=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_round_trip_property(nx, ny, seed):
    spec = GridSpec(nx, ny, 12.0)
    field = _random_field(spec, seed)
    back = dft_inverse(dft_forward(field))
    scale = max(np.linalg.norm(field.values), 1e-12)
    assert np.linalg.norm(back.values - field.values) / scale < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(min_value=2, max_value=12),
    ny=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_parseval_property(nx, ny, seed):
    spec = GridSpec(nx, ny, 12.0)
    field = _random_field(spec, seed)
    coeffs = dft_forward(field).coeffs
    lhs = np.sum(field.values**2)
    rhs = spec.ncells * np.sum(np.abs(coeffs) ** 2)
    assert abs(lhs - rhs) / max(lhs, 1e-12) < 1e-8
