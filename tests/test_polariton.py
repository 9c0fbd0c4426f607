import numpy as np
import pytest
from numpy.testing import assert_allclose

from _corpus import golden_min
from polcascade.errors import ValidationError
from polcascade.model import HBAR_MEV_PS, SystemParams, scheme_preset
from polcascade.polariton import (STATE_ORDER, anticrossing_sweep,
                                  find_crossings, min_gap, solve_polaritons)

# find_crossings on the scheme-3 LP pair, frozen from a scipy.brentq run
# on the closed-form gap (agreement required to the 1e-9 default tol).
SCHEME3_LP_CROSSING = 0.2805708466680039
# Frozen from the same oracle for the scheme-2 LP_H / UP_V pair.
SCHEME2_CROSSINGS = (-0.05366563145999442, 0.05366563145999442)
SCHEME2_GAP_AT_ZERO = 0.0026786250536298684


def random_params(rng):
    return SystemParams(
        ex_mean=float(rng.uniform(900.0, 1100.0)),
        delta_x=float(rng.uniform(-0.5, 0.5)),
        cav_mean=float(rng.uniform(900.0, 1100.0)),
        delta_c=float(rng.uniform(-1.0, 1.0)),
        rabi=float(rng.uniform(0.05, 0.5)),
        tau_c=float(rng.uniform(5.0, 50.0)),
        tau_xx=float(rng.uniform(100.0, 1000.0)),
        binding=float(rng.uniform(3.0, 6.0)))


def by_state(params):
    return {(s.pol, s.branch): s for s in solve_polaritons(params)}


def test_resonance_half_and_half():
    p = SystemParams(ex_mean=1000.0, delta_x=0.0, cav_mean=1000.0,
                     delta_c=0.0, rabi=0.22, tau_c=15.0, tau_xx=500.0,
                     binding=3.0)
    states = by_state(p)
    for (pol, branch), s in states.items():
        sign = -1.0 if branch == "LP" else 1.0
        assert_allclose(s.energy, 1000.0 + sign * 0.11, atol=1e-12)
        assert_allclose(s.x_ex ** 2, 0.5, atol=1e-12)
        assert_allclose(s.x_ph ** 2, 0.5, atol=1e-12)


def test_scheme1_energies_polarization_degenerate():
    states = by_state(scheme_preset(1))
    assert abs(states[("H", "LP")].energy - states[("V", "LP")].energy) <= 1e-12
    assert abs(states[("H", "UP")].energy - states[("V", "UP")].energy) <= 1e-12


def test_scheme2_near_degenerate_cross_pair():
    # LP of H sits about 1.3 ueV above the mean, UP of V the mirror image.
    states = by_state(scheme_preset(2))
    e_lp_h = states[("H", "LP")].energy - 1000.0
    e_up_v = states[("V", "UP")].energy - 1000.0
    assert_allclose(e_lp_h, 0.0013, atol=2e-4)
    assert_allclose(e_up_v, -0.0013, atol=2e-4)
    assert_allclose(abs(e_lp_h - e_up_v), SCHEME2_GAP_AT_ZERO, atol=1e-12)


def test_eigenvalue_oracle_1000_random_sets():
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        p = random_params(rng)
        states = by_state(p)
        for pol in ("H", "V"):
            h = np.array([[p.e_exciton(pol), p.rabi / 2.0],
                          [p.rabi / 2.0, p.e_cavity(pol)]])
            lo, hi = np.linalg.eigvalsh(h)
            assert abs(states[(pol, "LP")].energy - lo) < 1e-12
            assert abs(states[(pol, "UP")].energy - hi) < 1e-12


def test_hopfield_invariants_random_sets():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = random_params(rng)
        states = by_state(p)
        for pol in ("H", "V"):
            lp = states[(pol, "LP")]
            up = states[(pol, "UP")]
            assert lp.x_ex >= 0 and lp.x_ph >= 0
            assert_allclose(lp.x_ex ** 2 + lp.x_ph ** 2, 1.0, atol=1e-12)
            # LP and UP exchange their exciton and photon content.
            assert_allclose(lp.x_ex ** 2, up.x_ph ** 2, atol=1e-12)
            # Trace identity.
            assert_allclose(lp.energy + up.energy,
                            p.e_exciton(pol) + p.e_cavity(pol), atol=1e-9)
            assert lp.energy < up.energy
            assert_allclose(lp.linewidth,
                            lp.x_ph ** 2 * HBAR_MEV_PS / p.tau_c, atol=1e-15)


def test_polarization_swap_symmetry():
    p = scheme_preset(3)
    q = p.replace(delta_x=-p.delta_x, delta_c=-p.delta_c)
    sp, sq = by_state(p), by_state(q)
    for branch in ("LP", "UP"):
        assert sp[("H", branch)].energy == sq[("V", branch)].energy
        assert sp[("H", branch)].x_ex == sq[("V", branch)].x_ex


def exciton_cavity_detuning(params, pol):
    """E_exc(pol) - E_cav(pol), meV."""
    return params.e_exciton(pol) - params.e_cavity(pol)


@pytest.mark.parametrize("pol, expected", [("H", 0.1), ("V", -0.1)])
def test_exciton_cavity_detuning_scheme1(pol, expected):
    assert_allclose(exciton_cavity_detuning(scheme_preset(1), pol), expected,
                    atol=1e-12)


def test_exciton_cavity_detuning_scheme2():
    assert_allclose(exciton_cavity_detuning(scheme_preset(2), "H"), -0.2,
                    atol=1e-12)


def test_detuning_shift_is_uniform():
    p = SystemParams(ex_mean=1000.0, delta_x=0.0, cav_mean=1000.0,
                     delta_c=0.0, rabi=0.22, tau_c=15.0, tau_xx=500.0,
                     binding=3.0).with_detuning(0.3)
    for pol in ("H", "V"):
        assert_allclose(exciton_cavity_detuning(p, pol), -0.3, atol=1e-12)


def test_scheme3_lp_crossing_location():
    scan = find_crossings(scheme_preset(3), (("H", "LP"), ("V", "LP")),
                          -0.5, 0.5, tol=1e-9)
    assert not scan.identically_degenerate
    assert len(scan.detunings) == 1
    assert_allclose(scan.detunings[0], SCHEME3_LP_CROSSING, atol=2e-9)
    # Residual gap at the reported root stays below tol.
    states = by_state(scheme_preset(3).with_detuning(scan.detunings[0]))
    assert abs(states[("H", "LP")].energy - states[("V", "LP")].energy) < 1e-9


def test_scheme2_two_symmetric_crossings():
    scan = find_crossings(scheme_preset(2), (("H", "LP"), ("V", "UP")),
                          -0.5, 0.5, tol=1e-9)
    assert len(scan.detunings) == 2
    assert_allclose(scan.detunings, SCHEME2_CROSSINGS, atol=2e-9)
    # Gap stays small everywhere between the two roots.
    for d in np.linspace(-0.05, 0.05, 21):
        states = by_state(scheme_preset(2).with_detuning(float(d)))
        gap = abs(states[("H", "LP")].energy - states[("V", "UP")].energy)
        assert gap < 0.01


def test_identically_degenerate_flag_on_symmetric_system():
    # With no splittings the H and V problems are the same problem; the
    # LP-LP gap is zero at every detuning and no discrete root exists.
    p = SystemParams(ex_mean=1000.0, delta_x=0.0, cav_mean=1000.0,
                     delta_c=0.0, rabi=0.22, tau_c=15.0, tau_xx=500.0,
                     binding=3.0)
    scan = find_crossings(p, (("H", "LP"), ("V", "LP")), -0.5, 0.5, tol=1e-9)
    assert scan.identically_degenerate
    assert scan.detunings == ()


def test_scheme1_lp_pair_crosses_only_at_zero():
    # Moving the cavity doublet off delta = 0 breaks the scheme-1 mirror,
    # so the LP energies coincide at exactly one detuning.
    scan = find_crossings(scheme_preset(1), (("H", "LP"), ("V", "LP")),
                          -0.5, 0.5, tol=1e-9)
    assert not scan.identically_degenerate
    assert len(scan.detunings) == 1
    assert abs(scan.detunings[0]) < 1e-9


def test_find_crossings_rejects_same_polarization_pair():
    with pytest.raises(ValidationError):
        find_crossings(scheme_preset(2), (("H", "LP"), ("H", "UP")),
                       -0.5, 0.5)


@pytest.mark.parametrize("lo, hi, tol", [(0.5, -0.5, 1e-9), (0.0, 0.0, 1e-9),
                                         (-0.5, 0.5, 0.0)])
def test_find_crossings_rejects_bad_range(lo, hi, tol):
    with pytest.raises(ValidationError):
        find_crossings(scheme_preset(2), (("H", "LP"), ("V", "LP")),
                       lo, hi, tol=tol)


def test_min_gap_same_polarization_floor_is_rabi():
    # Same-pol branches never close below the Rabi splitting.
    p = scheme_preset(2)
    delta, gap = min_gap(p, (("H", "LP"), ("H", "UP")), -2.0, 2.0)
    assert_allclose(gap, p.rabi, atol=1e-9)
    # The minimum sits where the H modes are resonant: delta_cx such that
    # e_cavity(H) = e_exciton(H), i.e. delta = (delta_x - delta_c)/2.
    assert_allclose(delta, (p.delta_x - p.delta_c) / 2.0, atol=1e-6)


def test_min_gap_scheme2_cross_pair():
    delta, gap = min_gap(scheme_preset(2), (("H", "LP"), ("V", "UP")),
                         -0.4, 0.4)
    assert gap <= 0.003
    assert abs(delta) <= 0.06


def test_min_gap_scheme1_zero_everywhere():
    _, gap = min_gap(scheme_preset(1), (("H", "LP"), ("V", "LP")), -0.4, 0.4)
    assert gap <= 1e-12


def golden_min_gap(params, pair, lo, hi, tol=1e-9):
    """min_gap as it was before the array zoom: the 401-node scan, golden
    section over one-point gaps, and the scan node when it beats the
    refinement."""
    a, b = (STATE_ORDER.index(label) for label in pair)

    def gap(delta):
        energy = anticrossing_sweep(params, [delta]).energy[:, 0]
        return abs(energy[a] - energy[b])

    xs = [lo + (hi - lo) * i / 400 for i in range(401)]
    gs = [gap(x) for x in xs]
    i = min(range(401), key=gs.__getitem__)
    x, g = golden_min(gap, xs[max(0, i - 1)], xs[min(400, i + 1)], xtol=tol)
    if gs[i] < g:
        return xs[i], gs[i]
    return x, g


@pytest.mark.parametrize("scheme, pair, lo, hi", [
    (2, (("H", "LP"), ("H", "UP")), -2.0, 2.0),
    (2, (("H", "LP"), ("V", "UP")), -0.4, 0.4),
    (1, (("H", "LP"), ("V", "LP")), -0.4, 0.4),
])
def test_min_gap_matches_golden_section_reference(scheme, pair, lo, hi):
    tol = 1e-9
    params = scheme_preset(scheme)
    delta, gap = min_gap(params, pair, lo, hi, tol=tol)
    ref_delta, ref_gap = golden_min_gap(params, pair, lo, hi, tol=tol)
    assert abs(gap - ref_gap) <= tol
    # The same-polarization minimum is quadratic, so its position is
    # known only to about the square root of the gap's rounding.
    assert abs(delta - ref_delta) <= 1e-6


def test_min_gap_ends_where_the_bracket_cannot_narrow():
    # At detunings near 1e6 meV adjacent floats are 1.2e-10 apart, so a
    # bracket never gets below tol = 1e-12; the search must still end.
    p = scheme_preset(2)
    delta, gap = min_gap(p, (("H", "LP"), ("V", "UP")), 1e6, 1e6 + 1.0,
                         tol=1e-12)
    # The gap only grows with the detuning here, so the search ends at lo.
    energy = anticrossing_sweep(p, [1e6]).energy[:, 0]
    assert (delta, gap) == (1e6, abs(energy[0] - energy[3]))


def test_anticrossing_sweep_rows_match_point_solutions():
    p = scheme_preset(2)
    deltas = np.linspace(-0.4, 0.4, 9)
    states = anticrossing_sweep(p, deltas)
    assert states.energy.shape == (len(STATE_ORDER), deltas.size)
    for i, delta in enumerate(deltas.tolist()):
        q = p.with_detuning(delta)
        solved = by_state(q)
        for row, key in enumerate(STATE_ORDER):
            assert states.energy[row, i] == solved[key].energy
            assert states.x_ex[row, i] == solved[key].x_ex
            assert states.linewidth[row, i] == solved[key].linewidth
        for pol in ("H", "V"):
            lp, up = (STATE_ORDER.index((pol, b)) for b in ("LP", "UP"))
            assert_allclose(states.energy[lp, i] + states.energy[up, i],
                            q.e_exciton(pol) + q.e_cavity(pol), atol=1e-9)


def test_far_positive_detuning_lp_is_excitonic():
    states = anticrossing_sweep(scheme_preset(2), [5.0])
    for pol in ("H", "V"):
        assert states.x_ex[STATE_ORDER.index((pol, "LP")), 0] ** 2 > 0.999


def test_sweep_rejects_unsorted_grid():
    with pytest.raises(ValidationError):
        anticrossing_sweep(scheme_preset(1), [0.1, 0.0])
