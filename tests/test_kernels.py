import numpy as np
import pytest
from numpy.testing import assert_allclose

from polcascade import kernels

# (k1_lo, k1_hi, exx_a, gxx_a, exx_b, gxx_b, e_a, g_a, e_b, g_b, pref)
CASES = [
    # equal biexciton poles: arctan path; the first shares every pole
    # (a self overlap, evaluated in real arithmetic)
    (996.9, 997.1, 1997.0, 0.0026, 1997.0, 0.0026,
     999.95, 0.007, 999.95, 0.007, 0.0032),
    (996.5, 997.5, 1997.0, 0.0026, 1997.0, 0.0026,
     999.9, 0.012, 1000.1, 0.031, 1.7e-3),
    # distinct biexciton poles: complex-log path
    (996.9, 997.1, 1997.0, 0.0026, 1996.998, 0.0021,
     999.95, 0.007, 1000.05, 0.02, 0.0032),
    (990.0, 1005.0, 1997.0, 0.004, 1997.3, 0.0009,
     999.0, 0.05, 1001.0, 0.001, 2.1),
]


@pytest.mark.parametrize("case", CASES)
def test_integrand_against_dense_u_quadrature(case):
    # Independent check of the closed-form u-integral: trapezoid over a
    # dense u grid of the two-pole integrand.
    (k1_lo, k1_hi, exx_a, gxx_a, exx_b, gxx_b,
     e_a, g_a, e_b, g_b, pref) = case
    v = np.array([e_a + 0.013])
    got = kernels.overlap_integrand(v, *case)[0]
    u = np.linspace(k1_lo + v[0], k1_hi + v[0], 2_000_001)
    p = exx_a + 1j * gxx_a
    q = exx_b - 1j * gxx_b
    fu = np.trapezoid(1.0 / ((u - p) * (u - q)), u)
    expected = pref * fu / ((v[0] - (e_a + 1j * g_a)) * (v[0] - (e_b - 1j * g_b)))
    assert_allclose(got, expected, rtol=5e-7)


def test_log_path_is_continuous_with_arctan_path():
    base = CASES[0]
    exact = kernels.overlap_integrand(np.array([999.96]), *base)[0]
    bumped = list(base)
    bumped[5] = base[5] * (1.0 + 1e-9)  # gxx_b off the fast path
    near = kernels.overlap_integrand(np.array([999.96]), *bumped)[0]
    assert_allclose(near, exact, rtol=1e-6)


def test_midpoint_matches_amplitude_product_sum():
    # Same sum assembled from the raw amplitude definition
    # A = 1 / ((k1 + k2 - (E_XX - i G_XX)) (k2 - (E - i G))).
    (k1_lo, k1_hi, exx_a, gxx_a, exx_b, gxx_b,
     e_a, g_a, e_b, g_b, pref) = CASES[2]
    n1, n2 = 37, 41
    k2_lo, k2_hi = e_a - 0.3, e_b + 0.3
    h1 = (k1_hi - k1_lo) / n1
    h2 = (k2_hi - k2_lo) / n2
    k1 = k1_lo + (np.arange(n1) + 0.5) * h1
    k2 = k2_lo + (np.arange(n2) + 0.5) * h2
    kk1, kk2 = np.meshgrid(k1, k2, indexing="ij")
    amp_a = 1.0 / ((kk1 + kk2 - (exx_a - 1j * gxx_a))
                   * (kk2 - (e_a - 1j * g_a)))
    amp_b = 1.0 / ((kk1 + kk2 - (exx_b - 1j * gxx_b))
                   * (kk2 - (e_b - 1j * g_b)))
    expected = pref * h1 * h2 * np.sum(np.conj(amp_a) * amp_b)
    got = kernels.midpoint_overlap((exx_a, gxx_a, e_a, g_a, pref),
                                   (exx_b, gxx_b, e_b, g_b, 1.0),
                                   k1_lo, k1_hi, n1, k2_lo, k2_hi, n2)
    assert_allclose(got, expected, rtol=1e-12)


def test_active_backend_is_exported():
    assert kernels.BACKEND == "python"
    assert kernels.overlap_integrand is not None
