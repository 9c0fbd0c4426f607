import ast

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polcascade import kernels
from polcascade.experiments import fig4_sweep

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


def test_one_log_rule_in_the_kernels():
    # Every log of the kernels is kernels._log's np.log of a complex
    # array; no other log, real or complex, is taken there.
    with open(kernels.__file__) as fh:
        tree = ast.parse(fh.read())
    helper = [fn for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "_log"]
    assert len(helper) == 1
    inside = {id(node) for node in ast.walk(helper[0])}
    logs = ("log", "log1p", "log2", "log10")
    found = []
    for node in ast.walk(tree):
        where = f"kernels.py:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.ImportFrom) and node.module in (
                "math", "cmath", "numpy"):
            found += [f"{where} imports {node.module}.{alias.name}"
                      for alias in node.names if alias.name in logs]
        elif (isinstance(node, ast.Attribute) and node.attr in logs
              and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy", "math", "cmath")
              and id(node) not in inside):
            found.append(f"{where} takes {ast.unparse(node)}")
    assert not found, found
    # A real argument takes the complex log.
    x = np.array([0.5, 2.0, 1e300])
    assert kernels._log(x).tobytes() == np.log(x + 0j).tobytes()


def nudged_log(rng):
    """kernels._log with the real and the imaginary part of every result
    moved one ulp, each toward -inf or +inf as rng draws."""
    log = kernels._log

    def nudged(z):
        out = np.array(log(z))
        for part in (out.real, out.imag):
            part[...] = np.nextafter(
                part, rng.choice((-np.inf, np.inf), size=part.shape))
        return out

    return nudged


@pytest.mark.parametrize("seed", range(5))
def test_one_ulp_log_moves_fig4_gamma_by_at_most_64_eps(monkeypatch, seed):
    # A C library whose complex log differs from this one by an ulp moves
    # no fig4 gamma' by more than 64 eps in either part (4.25 eps measured
    # over these seeds); a 64-ulp nudge moves some by about 140-176 eps.
    schemes = (1, 2, 3)
    base = [fig4_sweep(s).gamma for s in schemes]
    monkeypatch.setattr(kernels, "_log",
                        nudged_log(np.random.default_rng(seed)))
    bound = 64 * np.finfo(float).eps
    for scheme, gamma in zip(schemes, base):
        moved = fig4_sweep(scheme).gamma - gamma
        assert np.abs(moved.real).max() <= bound, scheme
        assert np.abs(moved.imag).max() <= bound, scheme
