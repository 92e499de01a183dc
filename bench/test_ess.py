"""Check the ESS estimator on AR(1) chains of known ESS.

An AR(1) chain x_t = phi x_{t-1} + e_t has integrated autocorrelation time
(1 + phi) / (1 - phi), so ESS = n (1 - phi) / (1 + phi).

Run with ``python3 -m pytest bench/test_ess.py``.
"""

import numpy as np
import pytest

from ess import ess


def ar1(phi: float, n: int, rng) -> np.ndarray:
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / np.sqrt(1.0 - phi**2)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + e[t]
    return x


@pytest.mark.parametrize("phi", [-0.5, 0.0, 0.5, 0.9])
def test_ar1_known_ess(phi):
    n = 20_000
    rng = np.random.default_rng(7)
    expected = n * (1.0 - phi) / (1.0 + phi)
    estimates = [ess(ar1(phi, n, rng)) for _ in range(8)]
    assert np.median(estimates) == pytest.approx(expected, rel=0.1)


def test_constant_chain_has_zero_ess():
    assert ess(np.ones(100)) == 0.0


def test_too_short_rejected():
    with pytest.raises(ValueError):
        ess([1.0, 2.0, 3.0])
