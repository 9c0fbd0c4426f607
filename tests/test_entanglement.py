import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import minimize

from polcascade.entanglement import (EntanglementReport,
                                     TwoQubitDensityMatrix,
                                     born_probabilities, chsh_bound,
                                     chsh_value, correlation,
                                     correlation_from_counts,
                                     correlation_matrix, optimal_chsh_angles,
                                     partial_transpose, peres_test,
                                     projected_state, sample_coincidences,
                                     x_state)
from polcascade.errors import EmptyWindowError, ValidationError
from polcascade.experiments import tracked_window
from polcascade.model import SystemParams, scheme_preset
from polcascade.pairstate import DetectorWindow
from polcascade.polariton import hypot


def random_x_states(rng, count):
    states = []
    for _ in range(count):
        p_hh = rng.uniform(0.05, 0.95)
        p_vv = 1.0 - p_hh
        mag = rng.uniform(0.0, 1.0) * math.sqrt(p_hh * p_vv)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        states.append(x_state(p_hh, p_vv, mag * complex(math.cos(phase),
                                                        math.sin(phase))))
    return states


# ----------------------------------------------------------- construction

def test_x_state_phi_plus_projector():
    rho = x_state(0.5, 0.5, 0.5)
    ket = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    assert_allclose(rho.matrix, np.outer(ket, ket), atol=1e-15)
    assert rho.gamma == 0.5
    assert rho.is_x_form()


@pytest.mark.parametrize("p_hh, p_vv, gamma", [
    (0.6, 0.4, 0.5),          # 0.25 > 0.24: not positive semidefinite
    (-0.1, 1.1, 0.0),
    (0.7, 0.4, 0.0),          # trace 1.1
    (0.5, 0.5, 0.5 + 1e-3),
])
def test_x_state_rejects(p_hh, p_vv, gamma):
    with pytest.raises(ValidationError):
        x_state(p_hh, p_vv, gamma)


@pytest.mark.parametrize("matrix", [
    np.eye(3) / 3.0,                                     # wrong shape
    np.diag([0.5, 0.5, 0.0, 0.0]) + 0.1j * np.eye(4),    # not Hermitian
    np.diag([0.6, 0.5, 0.0, 0.0]),                       # trace 1.1
    np.diag([1.1, -0.1, 0.0, 0.0]),                      # negative eigenvalue
])
def test_density_matrix_invariants_enforced(matrix):
    with pytest.raises(ValidationError):
        TwoQubitDensityMatrix(matrix)


def test_density_matrix_is_readonly():
    rho = x_state(0.5, 0.5, 0.25)
    with pytest.raises((ValueError, RuntimeError)):
        rho.matrix[0, 0] = 0.9


# ------------------------------------------------------ partial transpose

def test_partial_transpose_involution_and_symmetries():
    rng = np.random.default_rng(411)
    for rho in random_x_states(rng, 50):
        pt = partial_transpose(rho)
        back = pt.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        assert_array_equal(back, rho.matrix)      # reindexing, exact
        assert np.trace(pt) == np.trace(rho.matrix)
        assert np.max(np.abs(pt - pt.conj().T)) == 0.0


def test_partial_transpose_of_product_state_is_a_state():
    # For rho_A x rho_B the transform only transposes the B factor, so the
    # result is again a density matrix and a second pass restores it.
    ket_a = np.array([0.8, 0.6j])
    ket_b = np.array([0.6, 0.8 * np.exp(0.3j)])
    m = np.kron(np.outer(ket_a, ket_a.conj()), np.outer(ket_b, ket_b.conj()))
    rho = TwoQubitDensityMatrix(m)
    pt = TwoQubitDensityMatrix(partial_transpose(rho))
    assert_array_equal(partial_transpose(pt), rho.matrix)
    assert not peres_test(rho).entangled


# ------------------------------------------------------------- peres_test

def test_peres_random_x_states_iff_gamma():
    rng = np.random.default_rng(20240818)
    states = random_x_states(rng, 1000)
    # make a fifth of them exactly diagonal
    for i in range(0, 1000, 5):
        m = states[i].matrix.copy()
        m[0, 3] = m[3, 0] = 0.0
        states[i] = TwoQubitDensityMatrix(m)
    for rho in states:
        rep = peres_test(rho)
        assert rep.entangled == (abs(rho.gamma) > 1e-10)
        assert rep.entangled == (rep.negativity > 0.0)
        assert rep.negativity >= 0.0
        assert 2.0 - 1e-12 <= rep.chsh_max <= 2.0 * math.sqrt(2.0) * (1 + 1e-12)
        assert rep.gamma_magnitude == hypot(rho.gamma.real, rho.gamma.imag)


def test_balanced_min_pt_eigenvalue_is_minus_gamma():
    rng = np.random.default_rng(99)
    for _ in range(200):
        mag = rng.uniform(0.0, 0.5)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        rho = x_state(0.5, 0.5, mag * np.exp(1j * phase))
        rep = peres_test(rho)
        assert abs(rep.min_pt_eigenvalue - (-mag)) <= 1e-10
        assert abs(rep.negativity - mag) <= 1e-10


def test_x_fast_path_matches_general_eigensolver():
    rng = np.random.default_rng(7)
    for rho in random_x_states(rng, 100):
        fast = peres_test(rho).min_pt_eigenvalue
        dense = float(np.linalg.eigvalsh(partial_transpose(rho))[0])
        assert abs(fast - dense) <= 1e-12


def test_non_x_input_uses_general_path():
    m = x_state(0.45, 0.55, 0.3).matrix.copy()
    m[0, 0] -= 0.02
    m[1, 1] += 0.01          # populate HV/VH: no longer X-form
    m[2, 2] += 0.01
    m[1, 0] = m[0, 1] = 0.005
    rho = TwoQubitDensityMatrix(m)
    assert not rho.is_x_form()
    rep = peres_test(rho)
    dense = float(np.linalg.eigvalsh(partial_transpose(rho))[0])
    assert abs(rep.min_pt_eigenvalue - dense) <= 1e-12


def test_diagonal_state_classical_chsh():
    rep = peres_test(x_state(0.5, 0.5, 0.0))
    assert not rep.entangled
    assert rep.min_pt_eigenvalue >= -1e-15
    assert rep.chsh_max == pytest.approx(2.0, abs=1e-12)


def test_report_serializes_to_flat_json():
    rep = peres_test(x_state(0.5, 0.5, 0.3))
    d = rep.as_dict()
    assert set(d) == {"min_pt_eigenvalue", "negativity", "entangled",
                      "chsh_max", "gamma_magnitude"}
    assert json.loads(json.dumps(d)) == d
    assert isinstance(rep, EntanglementReport)


# ------------------------------------------------------------------ CHSH

@pytest.mark.parametrize("gamma", [0.0, 0.1, 0.25, 0.4, 0.5])
def test_chsh_closed_form_balanced(gamma):
    rho = x_state(0.5, 0.5, gamma)
    expected = 2.0 * math.sqrt(1.0 + 4.0 * gamma ** 2)
    assert_allclose(chsh_bound(rho), expected, atol=1e-12)
    assert_allclose(chsh_value(rho, optimal_chsh_angles(gamma)), expected,
                    atol=1e-12)


def test_chsh_half_gamma_against_angle_optimization():
    rho = x_state(0.5, 0.5, 0.5)
    best = -np.inf
    for start in [(0.1, 0.9, 0.3, -0.2), (0.0, math.pi / 4, 0.4, -0.4),
                  (0.5, 1.2, -0.3, 0.8)]:
        r = minimize(lambda a: -chsh_value(rho, a), start,
                     method="Nelder-Mead",
                     options=dict(xatol=1e-12, fatol=1e-14, maxiter=20000))
        best = max(best, -r.fun)
    assert abs(best - 2.0 * math.sqrt(2.0)) <= 1e-9
    assert abs(chsh_bound(rho) - 2.0 * math.sqrt(2.0)) <= 1e-9


def test_correlation_matrix_of_balanced_state():
    t = correlation_matrix(x_state(0.5, 0.5, 0.3))
    assert_allclose(t, np.diag([0.6, -0.6, 1.0]), atol=1e-14)


def loop_correlation_matrix(rho):
    """The pair-by-pair form: one np.kron, matmul and trace per T_ij."""
    paulis = (np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex),
              np.array([[1, 0], [0, -1]], dtype=complex))
    t = np.empty((3, 3))
    for i, si in enumerate(paulis):
        for j, sj in enumerate(paulis):
            t[i, j] = np.trace(rho.matrix @ np.kron(si, sj)).real
    return t


def random_general_states(rng, count):
    """Full-rank states a a^H / Tr, a with complex Gaussian entries."""
    states = []
    for _ in range(count):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = a @ a.conj().T
        m = (m + m.conj().T) / 2
        states.append(TwoQubitDensityMatrix(m / np.trace(m).real))
    return states


def test_correlation_matrix_equals_the_pair_by_pair_form(monkeypatch):
    rng = np.random.default_rng(20261020)
    states = random_x_states(rng, 300) + random_general_states(rng, 300)
    want = [loop_correlation_matrix(rho) for rho in states]
    loop_chsh = []
    for t in want:
        ev = np.linalg.eigvalsh(t.T @ t)
        loop_chsh.append(2.0 * math.sqrt(max(ev[-1] + ev[-2], 0.0)))

    def no_kron(*args):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", no_kron)
    for rho, t, chsh in zip(states, want, loop_chsh):
        got = correlation_matrix(rho)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == t.tobytes()
        assert chsh_bound(rho) == chsh


@pytest.mark.parametrize("a, b", [(0.0, 0.0), (0.3, -0.4),
                                  (math.pi / 8, math.pi / 3)])
def test_correlation_analytic_form(a, b):
    gamma = 0.35
    rho = x_state(0.5, 0.5, gamma)
    expected = (math.cos(2 * a) * math.cos(2 * b)
                + 2 * gamma * math.sin(2 * a) * math.sin(2 * b))
    assert_allclose(correlation(rho, a, b), expected, atol=1e-13)


# ------------------------------------------------------------------ Born

def test_born_probabilities_normalized():
    rho = x_state(0.4, 0.6, 0.2j)
    p = born_probabilities(rho, 0.7, -0.3)
    assert p.shape == (2, 2)
    assert np.all(p >= 0.0)
    assert_allclose(p.sum(), 1.0, atol=1e-14)


def test_phi_plus_parallel_analyzers():
    p = born_probabilities(x_state(0.5, 0.5, 0.5), 0.0, 0.0)
    assert_allclose(p, [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)


def loop_born_probabilities(rho, angle_a, angle_b):
    """The pair-by-pair form: one np.kron, matmul and trace per outcome."""
    def projectors(angle):
        ket = np.array([math.cos(angle), math.sin(angle)], dtype=complex)
        p0 = np.outer(ket, ket.conj())
        return p0, np.eye(2, dtype=complex) - p0

    pa, pb = projectors(angle_a), projectors(angle_b)
    probs = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            probs[i, j] = np.trace(rho.matrix @ np.kron(pa[i], pb[j])).real
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def test_born_probabilities_equals_the_kron_loop(monkeypatch):
    rng = np.random.default_rng(20261021)
    states = random_x_states(rng, 300) + random_general_states(rng, 300)
    # Random angles, and every fourth pair on multiples of pi/8, where
    # an X state has outcomes of exactly zero probability.
    angles = rng.uniform(-math.pi, math.pi, (len(states), 2))
    angles[::4] = rng.integers(-8, 9, (len(angles[::4]), 2)) * math.pi / 8
    want = [loop_born_probabilities(rho, a, b)
            for rho, (a, b) in zip(states, angles)]

    def no_kron(*args):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", no_kron)
    for rho, (a, b), p in zip(states, angles, want):
        got = born_probabilities(rho, a, b)
        assert got.dtype == np.float64 and got.shape == (2, 2)
        assert got.tobytes() == p.tobytes()


def test_correlation_from_counts():
    assert correlation_from_counts([[40, 10], [10, 40]]) == 0.6
    with pytest.raises(ValidationError):
        correlation_from_counts([[0, 0], [0, 0]])


# --------------------------------------------------------------- sampler

def test_sampler_fixed_seed_identical():
    rho = x_state(0.5, 0.5, 0.4)
    a = sample_coincidences(rho, (0.0, math.pi / 8), 100000, seed=42)
    b = sample_coincidences(rho, (0.0, math.pi / 8), 100000, seed=42)
    assert_array_equal(a, b)
    assert a.sum() == 100000
    c = sample_coincidences(rho, (0.0, math.pi / 8), 100000, seed=43)
    assert not np.array_equal(a, c)


def test_sampler_rejects_bad_n():
    rho = x_state(0.5, 0.5, 0.0)
    with pytest.raises(ValidationError):
        sample_coincidences(rho, (0.0, 0.0), 0, seed=1)


def test_sampler_rejects_n_beyond_int64():
    rho = x_state(0.5, 0.5, 0.0)
    with pytest.raises(ValidationError, match=r"2\*\*63 - 1"):
        sample_coincidences(rho, (0.0, 0.0), 2**63, seed=1)
    assert sample_coincidences(rho, (0.0, 0.0), 2**63 - 1, seed=1).sum() \
        == 2**63 - 1


def test_phi_plus_forbidden_outcomes_never_drawn():
    counts = sample_coincidences(x_state(0.5, 0.5, 0.5), (0.0, 0.0),
                                 100000, seed=5)
    assert counts[0, 1] == 0
    assert counts[1, 0] == 0


def test_sampler_matches_born_within_three_sigma():
    rho = x_state(0.5, 0.5, 0.4)
    n = 100000
    for k, (a, b) in enumerate([(0.0, math.pi / 8), (0.3, -0.5),
                                (math.pi / 4, 0.1)]):
        p = born_probabilities(rho, a, b)
        counts = sample_coincidences(rho, (a, b), n, seed=100 + k)
        sigma = np.sqrt(n * p * (1.0 - p))
        assert np.all(np.abs(counts - n * p) <= 3.0 * sigma + 1.0)


def test_separable_sampled_chsh_within_classical_bound():
    rho = x_state(0.5, 0.5, 0.0)
    angles = optimal_chsh_angles(0.5)
    a, a2, b, b2 = angles
    n = 100000
    est, var = 0.0, 0.0
    for sign, pair in ((1, (a, b)), (1, (a2, b)), (1, (a, b2)),
                       (-1, (a2, b2))):
        counts = sample_coincidences(rho, pair, n, seed=hash(pair) % 2 ** 31)
        e = correlation_from_counts(counts)
        est += sign * e
        var += (1.0 - e ** 2) / n
    assert est <= 2.0 + 3.0 * math.sqrt(var)


# -------------------------------------------------------- projected_state

def test_projected_scheme1_state():
    p = scheme_preset(1)
    w = tracked_window(p, "LP-LP", 0.2)
    rho = projected_state(p, "LP-LP", w)
    assert rho.is_x_form()
    assert abs(rho.gamma) >= 0.45
    rep = peres_test(rho)
    assert rep.entangled
    # the corner is the windowed coherence itself
    assert_allclose(abs(rho.gamma), 0.455183238731736, atol=1e-9)


def test_projected_symmetric_system_is_phi_plus_like():
    sym = SystemParams(ex_mean=1000.0, delta_x=0.0, cav_mean=1000.0,
                       delta_c=0.0, rabi=0.22, tau_c=15.0, tau_xx=500.0,
                       binding=3.0)
    w = tracked_window(sym, "LP-LP", 0.2)
    rho = projected_state(sym, "LP-LP", w)
    assert_allclose(rho.matrix[0, 0].real, 0.5, atol=1e-12)
    assert_allclose(abs(rho.gamma), 0.5, atol=1e-9)


def test_projected_far_window_raises():
    p = scheme_preset(1)
    w = DetectorWindow(center1=1e150, center2=1e150, width=0.2)
    with pytest.raises(EmptyWindowError):
        projected_state(p, "LP-LP", w)


def test_projected_sampled_chsh_consistent_with_bound():
    p = scheme_preset(1)
    w = tracked_window(p, "LP-LP", 0.2)
    rho = projected_state(p, "LP-LP", w)
    rep = peres_test(rho)
    g = abs(rho.gamma)
    a, a2, b, b2 = optimal_chsh_angles(g)
    n = 100000
    est, var = 0.0, 0.0
    for sign, pair in ((1, (a, b)), (1, (a2, b)), (1, (a, b2)),
                       (-1, (a2, b2))):
        counts = sample_coincidences(rho, pair, n, seed=2024)
        e = correlation_from_counts(counts)
        est += sign * e
        var += (1.0 - e ** 2) / n
    assert abs(est - rep.chsh_max) <= 3.0 * math.sqrt(var)
