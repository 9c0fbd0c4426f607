import math

import pytest
from numpy.testing import assert_allclose

import polcascade
from polcascade.errors import ValidationError
from polcascade.experiments import fig4_sweep, optimize_detuning
from polcascade.model import (HBAR_MEV_PS, PRESET_EX_MEAN, SystemParams,
                              hbar_mev_ps, lifetime_to_linewidth,
                              scheme_preset)


def test_hbar_constant():
    assert hbar_mev_ps() == 0.6582119569


@pytest.mark.parametrize("tau, expected", [
    (15.0, 0.6582119569 / 15.0),
    (500.0, 0.6582119569 / 500.0),
    (math.inf, 0.0),
])
def test_lifetime_to_linewidth(tau, expected):
    assert_allclose(lifetime_to_linewidth(tau), expected, rtol=0, atol=0)


@pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
def test_lifetime_rejects_nonpositive(tau):
    with pytest.raises(ValidationError):
        lifetime_to_linewidth(tau)


@pytest.mark.parametrize("scheme, delta_x, delta_c", [
    (1, 0.1, -0.1),
    (2, 0.1, 0.5),
    (3, -0.1, 0.5),
])
def test_scheme_presets(scheme, delta_x, delta_c):
    p = scheme_preset(scheme)
    assert p.delta_x == delta_x
    assert p.delta_c == delta_c
    assert p.rabi == 0.22
    assert p.ex_mean == PRESET_EX_MEAN
    assert p.cav_mean == p.ex_mean
    assert p.tau_c == 15.0
    assert p.tau_xx == 500.0
    assert p.binding == 3.0


def _fig4_point(scheme):
    curve = fig4_sweep(scheme, deltas=[0.0])
    return curve.scheme, curve.gamma.tolist()


def _optimum(scheme):
    return optimize_detuning(scheme, lo=-0.05, hi=0.05, scan_points=5)


# Every library entry point that takes a scheme id reads it by one rule.
SCHEME_ENTRY_POINTS = (scheme_preset, _fig4_point, _optimum)


@pytest.mark.parametrize("name", ["Scheme2", "scheme2", "2"])
def test_scheme_preset_accepts_names(name):
    for entry in SCHEME_ENTRY_POINTS:
        assert entry(name) == entry(2), entry.__name__


@pytest.mark.parametrize("bad", [0, 4, "Scheme4", "x", True])
def test_scheme_preset_rejects_unknown(bad):
    for entry in SCHEME_ENTRY_POINTS:
        with pytest.raises(ValidationError, match="scheme must be 1, 2 or 3"):
            entry(bad)


def test_package_exports_resolve_once():
    names = polcascade.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(polcascade, name), name


def test_scheme1_mirrors_cavity_onto_opposite_exciton():
    p = scheme_preset(1)
    assert p.e_cavity("H") == p.e_exciton("V")
    assert p.e_cavity("V") == p.e_exciton("H")


def test_level_energies_from_means_and_splittings():
    p = SystemParams(ex_mean=1000.0, delta_x=0.1, cav_mean=1000.2,
                     delta_c=-0.5, rabi=0.22, tau_c=15.0, tau_xx=500.0,
                     binding=3.0)
    assert_allclose(p.e_exciton("H") - p.e_exciton("V"), 0.1, atol=1e-12)
    assert_allclose(p.e_cavity("H") - p.e_cavity("V"), -0.5, atol=1e-12)
    assert_allclose(0.5 * (p.e_exciton("H") + p.e_exciton("V")), 1000.0,
                    atol=1e-12)
    assert_allclose(p.detuning_cx, 0.2, atol=1e-12)


def test_from_levels_round_trip_exact():
    # The four level energies survive the mean/splitting representation.
    levels = (999.93, 1000.07, 1000.21, 999.79)
    p = SystemParams.from_levels(*levels, rabi=0.22, tau_c=15.0,
                                 tau_xx=500.0, binding=3.0)
    back = (p.e_exciton("H"), p.e_exciton("V"),
            p.e_cavity("H"), p.e_cavity("V"))
    assert back == levels


def test_biexciton_energy():
    p = scheme_preset(1)
    assert p.e_biexciton == 2 * p.ex_mean - p.binding


def test_with_detuning_moves_only_the_cavity():
    p = scheme_preset(2)
    q = p.with_detuning(-0.275)
    assert_allclose(q.cav_mean - q.ex_mean, -0.275, atol=1e-12)
    assert q.delta_c == p.delta_c
    assert q.ex_mean == p.ex_mean


@pytest.mark.parametrize("field, value", [
    ("rabi", 0.0),
    ("rabi", -0.1),
    ("tau_c", 0.0),
    ("tau_xx", -5.0),
    ("ex_mean", math.nan),
    ("cav_mean", math.inf),
])
def test_invalid_params_rejected(field, value):
    good = dict(ex_mean=1000.0, delta_x=0.1, cav_mean=1000.0, delta_c=-0.1,
                rabi=0.22, tau_c=15.0, tau_xx=500.0, binding=3.0)
    good[field] = value
    with pytest.raises(ValidationError):
        SystemParams(**good)


def test_params_are_immutable():
    p = scheme_preset(1)
    with pytest.raises(Exception):
        p.rabi = 0.3
