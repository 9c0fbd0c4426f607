import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from _corpus import overlap_corpus, scheme3_crossing
from polcascade import cascade, kernels, pairstate
from polcascade.cascade import channel_arrays, enumerate_channels
from polcascade.errors import EmptyWindowError, ValidationError
from polcascade.experiments import tracked_window
from polcascade.model import SystemParams, scheme_preset
from polcascade.pairstate import (DetectorWindow, PairCoherence,
                                  QuadratureSpec, amplitude,
                                  brute_force_overlap, channel_norm,
                                  gamma_prime, gamma_prime_arrays,
                                  gamma_unprojected, normalize_pairing,
                                  pairing_channels, windowed_overlap)

# Frozen from this suite's own overlaps, cross-checked against the
# 4000 x 4000 midpoint rule (test_corpus_quadrature_vs_brute_force).
S1_GAMMA_PRIME_AT_ZERO = 0.455183238731736
S3_GAMMA_PRIME_AT_CROSSING = 0.15507402637173892
S1_GAMMA_UNPROJECTED = 0.4551832387313733


def channels_by_key(params):
    return {(c.pol, c.branch): c for c in enumerate_channels(params)}


def distinguishable_params():
    # Both splittings large and of equal sign: every H level sits 3 meV
    # above its V partner, far beyond all linewidths.
    return SystemParams(ex_mean=1000.0, delta_x=3.0, cav_mean=1000.0,
                        delta_c=3.0, rabi=0.22, tau_c=15.0, tau_xx=500.0,
                        binding=10.0)


# ---------------------------------------------------------------- types

def test_detector_window_intervals():
    w = DetectorWindow(center1=997.0, center2=1000.0, width=0.2)
    assert w.k1_interval == (996.9, 997.1)
    assert w.k2_interval == (999.9, 1000.1)


@pytest.mark.parametrize("kwargs", [
    dict(center1=997.0, center2=1000.0, width=0.0),
    dict(center1=997.0, center2=1000.0, width=-0.1),
    dict(center1=0.05, center2=1000.0, width=0.2),   # reaches k1 <= 0
    dict(center1=997.0, center2=math.nan, width=0.2),
])
def test_detector_window_rejects(kwargs):
    with pytest.raises(ValidationError):
        DetectorWindow(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(rel_tol=math.nan),
    dict(rel_tol=0.0),
    dict(rel_tol=-1e-9),
    dict(rel_tol=math.inf),
])
def test_quadrature_spec_rejects(kwargs):
    with pytest.raises(ValidationError):
        QuadratureSpec(**kwargs)


def test_pair_coherence_bound_enforced():
    PairCoherence(gamma=0.5 + 0.5e-9, channel_norms={"H:LP": 1.0},
                  pairing="LP-LP")
    with pytest.raises(ValidationError):
        PairCoherence(gamma=0.51, channel_norms={"H:LP": 1.0},
                      pairing="LP-LP")
    with pytest.raises(ValidationError):
        PairCoherence(gamma=0.1, channel_norms={"H:LP": -1e-3},
                      pairing="LP-LP")


@pytest.mark.parametrize("text, canonical", [
    ("LP-LP", "LP-LP"),
    ("lp-lp", "LP-LP"),
    ("LP–UP", "LP-UP"),   # en dash
    ("up_up", "UP-UP"),
])
def test_normalize_pairing(text, canonical):
    assert normalize_pairing(text) == canonical


def test_normalize_pairing_rejects_unknown():
    with pytest.raises(ValidationError):
        normalize_pairing("LP-XX")


def test_pairing_channels_orientation():
    chans = enumerate_channels(scheme_preset(2))
    a, b = pairing_channels(chans, "LP-UP")
    assert (a.pol, a.branch) == ("H", "LP")
    assert (b.pol, b.branch) == ("V", "UP")


# ------------------------------------------------------------ amplitude

def test_amplitude_lorentzian_in_total_energy():
    ch = channels_by_key(scheme_preset(1))[("H", "LP")]
    gxx = ch.xx_total_width
    e_xx = ch.photon1 + ch.photon2
    k2 = ch.photon2 + 0.003
    base = abs(amplitude(ch, e_xx - k2, k2)) ** 2
    for mult in (1.0, 2.0, 5.0):
        off = mult * gxx
        val = abs(amplitude(ch, e_xx + off - k2, k2)) ** 2
        assert_allclose(val / base, gxx ** 2 / (off ** 2 + gxx ** 2),
                        rtol=1e-10)


def test_amplitude_double_resonance_value():
    ch = channels_by_key(scheme_preset(2))[("V", "UP")]
    gxx = ch.xx_total_width
    gpol = ch.intermediate.linewidth
    x_ex2 = ch.intermediate.x_ex ** 2
    x_ph2 = ch.intermediate.x_ph ** 2
    e_xx = ch.photon1 + ch.photon2
    e_pol = ch.intermediate.energy
    got = abs(amplitude(ch, e_xx - e_pol, e_pol)) ** 2
    expected = (x_ex2 * gxx * x_ph2 * gpol
                / (4.0 * math.pi ** 2 * gxx ** 2 * gpol ** 2))
    assert_allclose(got, expected, rtol=1e-12)


@pytest.mark.parametrize("k1, k2", [(0.0, 1000.0), (-1.0, 1000.0),
                                    (997.0, 0.0)])
def test_amplitude_rejects_nonpositive_energies(k1, k2):
    ch = channels_by_key(scheme_preset(1))[("H", "LP")]
    with pytest.raises(ValidationError):
        amplitude(ch, k1, k2)


def test_channel_norm_analytic():
    for c in enumerate_channels(scheme_preset(3)):
        expected = c.intermediate.x_ex ** 2 * c.intermediate.x_ph ** 2 / 4.0
        assert_allclose(channel_norm(c), expected, rtol=1e-14)


# ----------------------------------------------------- windowed_overlap

def test_corpus_quadrature_vs_brute_force():
    for label, ca, cb, w in overlap_corpus():
        q = windowed_overlap(ca, cb, w)
        b = brute_force_overlap(ca, cb, w, n=4000)
        rel = abs(q - b) / max(abs(q), abs(b))
        assert rel < 1e-4, f"{label}: rel {rel:.2e}"


def test_overlap_hermitian_symmetry():
    for label, ca, cb, w in overlap_corpus():
        ab = windowed_overlap(ca, cb, w)
        ba = windowed_overlap(cb, ca, w)
        assert abs(ba - ab.conjugate()) <= 1e-9 * max(abs(ab), 1e-30), label


def test_self_overlap_real_nonnegative():
    for label, ca, cb, w in overlap_corpus():
        val = windowed_overlap(ca, ca, w)
        assert val.imag == 0.0, label
        assert val.real >= 0.0, label


def test_self_overlap_monotone_in_width():
    p = scheme_preset(2)
    ch = channels_by_key(p)[("H", "LP")]
    w0 = tracked_window(p, "LP-UP", 0.2)
    prev = 0.0
    for width in (0.05, 0.1, 0.2, 0.4, 0.8):
        w = DetectorWindow(center1=w0.center1, center2=w0.center2,
                           width=width)
        val = windowed_overlap(ch, ch, w).real
        assert val >= prev
        prev = val


def test_wide_window_truncation_of_channel_norm():
    # Covering +-20 combined half-widths leaves 3.2% of the Lorentzian
    # tails outside (1/(pi n) per axis edge); +-200 leaves 0.32%, inside
    # the 1% band.
    ch = channels_by_key(scheme_preset(1))[("H", "LP")]
    norm = channel_norm(ch)
    hw = ch.xx_total_width + ch.intermediate.linewidth
    ratios = {}
    for n in (20, 200):
        w = DetectorWindow(center1=ch.photon1, center2=ch.photon2,
                           width=2 * n * hw)
        ratios[n] = windowed_overlap(ch, ch, w).real / norm
    assert_allclose(ratios[20], 0.968004, atol=2e-4)
    assert abs(ratios[200] - 1.0) < 1e-2


def test_distinguishable_channels_barely_overlap():
    p = distinguishable_params()
    chans = channels_by_key(p)
    ca, cb = chans[("H", "LP")], chans[("V", "LP")]
    assert abs(ca.intermediate.energy - cb.intermediate.energy) > 2.9
    w = DetectorWindow(center1=ca.photon1, center2=ca.photon2, width=0.2)
    cross = windowed_overlap(ca, cb, w)
    assert abs(cross) / channel_norm(ca) < 1e-2


def test_zero_width_midpoint_limit():
    p = scheme_preset(1)
    chans = channels_by_key(p)
    ca, cb = chans[("H", "LP")], chans[("V", "LP")]
    w0 = tracked_window(p, "LP-LP", 0.2)
    tiny = DetectorWindow(center1=w0.center1, center2=w0.center2, width=1e-6)
    val = windowed_overlap(ca, cb, tiny)
    point = (amplitude(ca, w0.center1, w0.center2).conjugate()
             * amplitude(cb, w0.center1, w0.center2)) * (1e-6) ** 2
    assert abs(val / point - 1.0) < 1e-3


def test_brute_force_rejects_bad_n():
    p = scheme_preset(1)
    ch = channels_by_key(p)[("H", "LP")]
    w = tracked_window(p, "LP-LP", 0.2)
    with pytest.raises(ValidationError):
        brute_force_overlap(ch, ch, w, n=1)


# ---------------------------------------------------------- gamma_prime

def test_identical_channels_reach_one_half():
    p = scheme_preset(2)
    ch = channels_by_key(p)[("H", "LP")]
    w = DetectorWindow(center1=ch.photon1, center2=ch.photon2, width=0.2)
    # A channel's overlap with itself is real: its self overlap.
    self_overlap = windowed_overlap(ch, ch, w)
    assert self_overlap.imag == 0.0 and self_overlap.real > 0
    # The same channel on both sides of gamma': its cross overlap equals
    # each self overlap, so gamma' is 1/2.
    row = cascade.STATE_ORDER.index(("H", "LP"))
    self_a, self_b, gamma = gamma_prime_arrays(
        channel_arrays(p, [p.cav_mean]), (row, row), np.array([w.center1]),
        np.array([w.center2]), w.width)
    assert self_a[0] == self_b[0] == self_overlap.real
    assert abs(gamma[0] - 0.5) <= 1e-12


def test_scheme1_gamma_prime_frozen_value():
    p = scheme_preset(1)
    w = tracked_window(p, "LP-LP", 0.2)
    coh = gamma_prime(p, "LP-LP", w)
    assert abs(coh.gamma) >= 0.45
    assert_allclose(abs(coh.gamma), S1_GAMMA_PRIME_AT_ZERO, atol=1e-9)
    assert coh.pairing == "LP-LP"
    assert set(coh.channel_norms) == {"H:LP", "V:LP"}


def test_scheme3_at_crossing_below_scheme1():
    p = scheme_preset(3).with_detuning(scheme3_crossing())
    w = tracked_window(p, "LP-LP", 0.2)
    coh = gamma_prime(p, "LP-LP", w)
    assert_allclose(abs(coh.gamma), S3_GAMMA_PRIME_AT_CROSSING, atol=1e-9)
    assert abs(coh.gamma) < S1_GAMMA_PRIME_AT_ZERO


def test_gamma_prime_bound_across_settings():
    for scheme, pairing in ((1, "LP-LP"), (2, "LP-UP"), (3, "LP-LP")):
        for delta in (-0.3, 0.0, 0.28):
            p = scheme_preset(scheme).with_detuning(delta)
            w = tracked_window(p, pairing, 0.2)
            coh = gamma_prime(p, pairing, w)
            assert abs(coh.gamma) <= 0.5 + 1e-9


def test_empty_window_raises():
    p = scheme_preset(1)
    w = DetectorWindow(center1=1e150, center2=1e150, width=0.2)
    with pytest.raises(EmptyWindowError):
        gamma_prime(p, "LP-LP", w)


# The biexciton level lies 1.9 meV below zero, so every first photon has a
# negative energy, and the photon sums of the V-UP channel and the others
# cannot all reproduce e_biexciton: they differ by an ulp.
BELOW_ZERO = SystemParams(
    ex_mean=0.2365470528657987, delta_x=0.4180533720524431,
    cav_mean=3.9693851294440092, delta_c=-0.2821741134827378,
    rabi=0.40375927731027195, tau_c=8.057857395238237,
    tau_xx=1538.298408204529, binding=2.404590202912367)


@pytest.mark.parametrize("pairing", ["LP-LP", "UP-UP", "LP-UP"])
def test_gamma_prime_gives_a_pair_one_pole_where_photon_sums_differ(pairing):
    arrays = channel_arrays(BELOW_ZERO, [BELOW_ZERO.cav_mean])
    sums = (arrays.photon1 + arrays.photon2)[:, 0]
    assert len(set(sums.tolist())) == 2
    w = DetectorWindow(1.0, 1.0, 0.5)
    coh = gamma_prime(BELOW_ZERO, pairing, w)
    assert abs(coh.gamma) <= 0.5
    if pairing == "UP-UP":
        # The value of the form with one u-pole per channel.
        want = 0.48105309907337324 - 0.0012344809017742274j
        assert abs(coh.gamma - want) <= 1e-15
    # Channel objects carry the cascade's biexciton energy, so the
    # object entry point takes the same pole and gives the same bits.
    a, b = pairing_channels(enumerate_channels(BELOW_ZERO), pairing)
    assert a.e_xx == b.e_xx == BELOW_ZERO.e_biexciton
    cross = windowed_overlap(a, b, w)
    assert cross / sum(coh.channel_norms.values()) == coh.gamma


@pytest.mark.parametrize("field", ["e_xx", "xx_total_width"])
def test_pairs_with_distinct_biexciton_poles_are_refused(field):
    # A hand-built channel whose biexciton energy or width differs from
    # its partner's.
    p = scheme_preset(2).with_detuning(0.05)
    a, b = pairing_channels(enumerate_channels(p), "LP-UP")
    b = dataclasses.replace(b, **{field: getattr(b, field) * (1 + 1e-6)})
    w = tracked_window(p, "LP-UP", 0.2)
    for call in (windowed_overlap, brute_force_overlap):
        with pytest.raises(ValidationError) as exc:
            call(a, b, w)
        message = str(exc.value)
        assert "one biexciton pole" in message
        assert repr((a.e_xx, a.xx_total_width)) in message
        assert repr((b.e_xx, b.xx_total_width)) in message


# ----------------------------------------------------- gamma_unprojected

def test_unprojected_symmetric_system_is_half():
    sym = SystemParams(ex_mean=1000.0, delta_x=0.0, cav_mean=1000.0,
                       delta_c=0.0, rabi=0.22, tau_c=15.0, tau_xx=500.0,
                       binding=3.0)
    g = gamma_unprojected(sym)
    assert_allclose(g.real, 0.5, atol=1e-15)
    assert abs(g.imag) < 1e-15


def test_unprojected_scheme1_frozen_value():
    g = gamma_unprojected(scheme_preset(1))
    assert_allclose(abs(g), S1_GAMMA_UNPROJECTED, atol=1e-12)


def test_unprojected_distinguishable_channels_small():
    g = gamma_unprojected(distinguishable_params())
    assert abs(g) < 1e-2


def test_unprojected_consistent_with_wide_windowed_sum():
    # Opening the windows wide, the branch-resolved windowed coherences
    # weighted by their channel norms rebuild the unfiltered value.
    p = scheme_preset(1)
    chans = channels_by_key(p)
    total = sum(channel_norm(c) for c in chans.values())
    acc = 0.0 + 0.0j
    for branch in ("LP", "UP"):
        e_mid = 0.5 * (chans[("H", branch)].intermediate.energy
                       + chans[("V", branch)].intermediate.energy)
        w = DetectorWindow(center1=p.e_biexciton - e_mid, center2=e_mid,
                           width=100.0)
        coh = gamma_prime(p, f"{branch}-{branch}", w)
        acc += coh.gamma * (channel_norm(chans[("H", branch)])
                            + channel_norm(chans[("V", branch)]))
    assert abs(gamma_unprojected(p) - acc / total) < 1e-6


def residue_gamma_unprojected(params):
    """gamma_unprojected in closed form.  Over all space each H-V overlap
    is a product of two residue integrals, along u = k1 + k2 and along
    v = k2: for channels a and b, with biexciton pole E - i G, polariton
    pole e - i g and amplitude prefactor x_ex x_ph sqrt(G g) / 2 pi,

        pref_a pref_b 2 pi / ((G_a + G_b) - i (E_a - E_b))
                      2 pi / ((g_a + g_b) - i (e_a - e_b)),

    and a self overlap is the channel norm x_ex^2 x_ph^2 / 4."""
    chans = channels_by_key(params)

    def pref(ch):
        s = ch.intermediate
        return s.x_ex * s.x_ph * math.sqrt(ch.xx_total_width * s.linewidth) / (
            2 * math.pi)

    cross = 0j
    for branch in ("LP", "UP"):
        a, b = chans[("H", branch)], chans[("V", branch)]
        along_u = complex(a.xx_total_width + b.xx_total_width,
                          -(a.e_xx - b.e_xx))
        along_v = complex(a.intermediate.linewidth + b.intermediate.linewidth,
                          -(a.intermediate.energy - b.intermediate.energy))
        cross += pref(a) * pref(b) * (2 * math.pi / along_u) * (
            2 * math.pi / along_v)
    return cross / sum(channel_norm(ch) for ch in chans.values())


def study_points(count, seed=20):
    """Random SystemParams drawn like the benchmark's study points."""
    rng = np.random.default_rng(seed)
    return [SystemParams(ex_mean=1000.0, delta_x=rng.uniform(-0.3, 0.3),
                         cav_mean=1000.0 + rng.uniform(-0.5, 0.5),
                         delta_c=rng.uniform(-0.6, 0.6),
                         rabi=rng.uniform(0.1, 0.4), tau_c=rng.uniform(5.0, 30.0),
                         tau_xx=rng.uniform(200.0, 1000.0), binding=3.0)
            for _ in range(count)]


def test_unprojected_near_the_residue_form_at_the_default_tolerance():
    for params in study_points(30):
        got = gamma_unprojected(params)
        assert abs(got - residue_gamma_unprojected(params)) <= 1e-12


def test_unprojected_matches_the_residue_form_at_rel_tol_1e_12():
    quad = QuadratureSpec(rel_tol=1e-12)
    for params in study_points(30):
        got = gamma_unprojected(params, quad)
        assert abs(got - residue_gamma_unprojected(params)) <= 1e-12


def test_unprojected_ignores_the_quadrature_spec():
    # The closed form has no tolerance: the value is the same bit for bit.
    for params in study_points(10, seed=21):
        assert (gamma_unprojected(params, QuadratureSpec(rel_tol=1e-12))
                == gamma_unprojected(params))


def channel_gamma_unprojected(params):
    """gamma_unprojected as taken from CascadeChannel objects, one
    _residue per branch over the four channel norms."""
    chans = channels_by_key(params)
    norms = {key: channel_norm(ch) for key, ch in chans.items()}
    cross = 0j
    for branch in ("LP", "UP"):
        a, b = chans[("H", branch)], chans[("V", branch)]
        pair = math.sqrt(norms[("H", branch)] * norms[("V", branch)])
        if pair > 0:
            cross += pair * pairstate._residue(
                a.intermediate.linewidth, b.intermediate.linewidth,
                a.intermediate.energy, b.intermediate.energy)
    return cross / ((norms[("H", "LP")] + norms[("V", "LP")])
                    + (norms[("H", "UP")] + norms[("V", "UP")]))


# Random bindings fall below 10 Rabi half-splittings, which warns.
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_unprojected_equals_the_channel_object_form(monkeypatch):
    rng = np.random.default_rng(20261020)
    systems = [BELOW_ZERO, *study_points(50, seed=22)]
    for i in range(400):
        # H and V exactly or nearly degenerate in every fourth system,
        # and photon energies of both signs.
        delta_x, delta_c = rng.uniform(-1.0, 1.0, 2)
        if i % 4 == 0:
            delta_x, delta_c = rng.choice([0.0, 1e-9, -1e-9], 2)
        ex_mean = rng.uniform(-3.0, 3.0)
        systems.append(SystemParams(
            ex_mean=ex_mean, delta_x=delta_x,
            cav_mean=ex_mean + rng.uniform(-2.0, 2.0), delta_c=delta_c,
            rabi=rng.uniform(0.05, 1.0), tau_c=rng.uniform(2.0, 40.0),
            tau_xx=rng.uniform(100.0, 2000.0),
            binding=rng.uniform(0.5, 5.0)))
    want = [channel_gamma_unprojected(params) for params in systems]

    def no_channels(*args, **kwargs):
        raise AssertionError("a CascadeChannel was built")

    monkeypatch.setattr(cascade, "CascadeChannel", no_channels)
    got = [gamma_unprojected(params) for params in systems]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    # Where every branching weight vanished, it refuses as the channel
    # enumeration does.
    with pytest.raises(ValidationError, match="vanished"):
        gamma_unprojected(scheme_preset(1).with_detuning(1e9))


def residue_integral(g_a, g_b, e_a, e_b):
    """The integral of 1 / ((x - conj P_a)(x - P_b)) over the real line,
    P = e - i g, by mpmath.quad at 30 digits, split at the poles and at
    1 and 10 widths either side of them."""
    with mpmath.workdps(30):
        pole_a, pole_b = mpmath.mpc(e_a, g_a), mpmath.mpc(e_b, -g_b)
        cuts = {mpmath.mpf(e) + k * mpmath.mpf(g)
                for e, g in ((e_a, g_a), (e_b, g_b))
                for k in (-10, -1, 0, 1, 10)}
        return mpmath.quad(lambda x: 1 / ((x - pole_a) * (x - pole_b)),
                           [-mpmath.inf, *sorted(cuts), mpmath.inf])


@settings(max_examples=30, deadline=None)
@given(g_a=st.floats(1e-5, 1.0), g_b=st.floats(1e-5, 1.0),
       e_a=st.floats(-2.0, 2.0), offset=st.floats(-5.0, 5.0),
       scale=st.sampled_from((1.0, 1e-3, 1e-6)))
def test_residue_factor_against_30_digit_quadrature(g_a, g_b, e_a, offset,
                                                     scale):
    # Polariton linewidths and energies along v; only e_a - e_b matters.
    e_b = e_a + offset * scale
    with mpmath.workdps(30):
        want = complex(mpmath.sqrt(mpmath.mpf(g_a) * g_b) / mpmath.pi
                       * residue_integral(g_a, g_b, e_a, e_b))
    got = pairstate._residue(g_a, g_b, e_a, e_b)
    assert abs(got - want) <= 1e-15
    assert abs(got) <= 1.0


# ----------------------------------------------------------- properties

# The window overlaps are exact to about 1e-12 of sqrt(self_a * self_b)
# (tests/test_exact_overlaps.py), so gamma' is exact to 1e-12 absolute.
ROUNDOFF = 1e-12


@st.composite
def near_resonance(draw, detuning=1.0):
    """SystemParams with the cavity within detuning meV of the exciton;
    1 meV covers the standard detuning grid."""
    ex_mean = draw(st.floats(900.0, 1100.0))
    return SystemParams(
        ex_mean=ex_mean, delta_x=draw(st.floats(-0.5, 0.5)),
        cav_mean=ex_mean + draw(st.floats(-detuning, detuning)),
        delta_c=draw(st.floats(-0.5, 0.5)), rabi=draw(st.floats(0.05, 0.5)),
        tau_c=draw(st.floats(5.0, 50.0)), tau_xx=draw(st.floats(100.0, 1000.0)),
        binding=draw(st.floats(3.0, 6.0)))


@settings(max_examples=60, deadline=None)
@given(params=near_resonance(), pairing=st.sampled_from(("LP-LP", "UP-UP")),
       width=st.floats(0.01, 1.0), off1=st.floats(-0.3, 0.3),
       off2=st.floats(-0.3, 0.3))
def test_hv_relabeling_conjugates_gamma_prime(params, pairing, width, off1,
                                              off2):
    # Flipping the sign of both splittings swaps the H and V levels, so
    # the same window sees the two channels of the pairing swapped.
    mirror = params.replace(delta_x=-params.delta_x, delta_c=-params.delta_c)
    tracked = tracked_window(params, pairing, width)
    w = DetectorWindow(center1=tracked.center1 + off1,
                       center2=tracked.center2 + off2, width=width)
    try:
        coh = gamma_prime(params, pairing, w)
    except EmptyWindowError as exc:
        with pytest.raises(type(exc)) as mirrored:
            gamma_prime(mirror, pairing, w)
        assert str(mirrored.value) == str(exc)
        return
    flip = gamma_prime(mirror, pairing, w)
    # Equal to the last bit in most draws, not all: the cross overlap with
    # its two channels swapped is not computed as the bitwise conjugate.
    assert abs(flip.gamma - coh.gamma.conjugate()) <= 1e-12 * abs(coh.gamma)
    h, v = coh.channel_norms
    assert list(flip.channel_norms) == [h, v]
    assert flip.channel_norms[h] == pytest.approx(coh.channel_norms[v],
                                                  rel=1e-12, abs=0)
    assert flip.channel_norms[v] == pytest.approx(coh.channel_norms[h],
                                                  rel=1e-12, abs=0)


@settings(max_examples=60, deadline=None)
@given(params=near_resonance(detuning=50.0),
       pairing=st.sampled_from(("LP-LP", "UP-UP", "LP-UP")),
       width=st.floats(0.005, 2.0), off1=st.floats(-1.0, 1.0),
       off2=st.floats(-1.0, 1.0))
def test_gamma_prime_stays_within_one_half(params, pairing, width, off1,
                                           off2):
    tracked = tracked_window(params, pairing, 0.2)
    w = DetectorWindow(center1=tracked.center1 + off1,
                       center2=tracked.center2 + off2, width=width)
    try:
        coh = gamma_prime(params, pairing, w)
    except EmptyWindowError:
        return
    # Reaching here means the bound's ValidationError was not raised.
    assert abs(coh.gamma) <= 0.5 + ROUNDOFF


def tracked_gamma_prime(params, pairing, width):
    return gamma_prime(params, pairing,
                       tracked_window(params, pairing, width)).gamma


def rounding_allowance(pairing, *systems):
    """How far gamma' of one of these systems may read from another's.

    A level energy near E rounds by up to eps E / 2, and gamma' moves
    with a line or the ridge on the scale of the narrowest width of the
    pair: a polariton linewidth or the biexciton width.  So a system
    moved or rescaled reads gamma' to about eps E / width of itself.  A
    census of 10,000 random draws of each property below read at most
    0.74 times that (up to 2.4e-10 relative), and the allowance is 4
    times.
    """
    def ratio(params):
        narrowest = min(min(ch.xx_total_width, ch.intermediate.linewidth)
                        for ch in pairing_channels(enumerate_channels(params),
                                                   pairing))
        energy = max(abs(params.ex_mean), abs(params.cav_mean))
        return np.finfo(float).eps * energy / narrowest

    return 4 * max(ratio(p) for p in systems)


@settings(max_examples=60, deadline=None)
@given(params=near_resonance(), pairing=st.sampled_from(("LP-LP", "UP-UP",
                                                          "LP-UP")),
       width=st.floats(0.01, 1.0), shift=st.floats(-300.0, 300.0))
def test_gamma_prime_is_unchanged_by_an_energy_shift(params, pairing, width,
                                                     shift):
    # Every line and every tracked window moves by the shift.
    moved = params.replace(ex_mean=params.ex_mean + shift,
                           cav_mean=params.cav_mean + shift)
    want = tracked_gamma_prime(params, pairing, width)
    got = tracked_gamma_prime(moved, pairing, width)
    assert abs(got - want) <= rounding_allowance(pairing, params, moved) * abs(want)


@settings(max_examples=60, deadline=None)
@given(params=near_resonance(), pairing=st.sampled_from(("LP-LP", "UP-UP",
                                                          "LP-UP")),
       width=st.floats(0.01, 1.0), scale=st.floats(0.09, 11.0))
def test_gamma_prime_is_unchanged_by_a_change_of_energy_unit(params, pairing,
                                                            width, scale):
    # Energies, the window width and linewidths all scale; lifetimes,
    # being inverse energies, take the inverse scale.
    scaled = params.replace(
        ex_mean=params.ex_mean * scale, delta_x=params.delta_x * scale,
        cav_mean=params.cav_mean * scale, delta_c=params.delta_c * scale,
        rabi=params.rabi * scale, binding=params.binding * scale,
        tau_c=params.tau_c / scale, tau_xx=params.tau_xx / scale)
    want = tracked_gamma_prime(params, pairing, width)
    got = tracked_gamma_prime(scaled, pairing, width * scale)
    assert abs(got - want) <= rounding_allowance(pairing, params, scaled) * abs(want)


@settings(max_examples=60, deadline=None)
@given(params=near_resonance(detuning=50.0))
def test_unprojected_within_one_half_and_conjugated_by_hv_relabeling(params):
    g = gamma_unprojected(params)
    # 1/2 by construction; rounding can pass it by an ulp or two when H
    # and V nearly coincide.
    assert abs(g) <= 0.5 + 1e-15
    mirror = params.replace(delta_x=-params.delta_x, delta_c=-params.delta_c)
    assert abs(gamma_unprojected(mirror) - g.conjugate()) <= 1e-15 * abs(g)


@settings(max_examples=60, deadline=None)
@given(params=near_resonance(detuning=5.0),
       pairing=st.sampled_from(("LP-LP", "UP-UP", "LP-UP")),
       off1=st.floats(-1.0, 1.0), off2=st.floats(-1.0, 1.0),
       width=st.floats(0.005, 1.0),
       growth=st.lists(st.floats(1.01, 2.0), min_size=1, max_size=4))
def test_self_overlaps_are_real_and_grow_with_the_window(
        params, pairing, off1, off2, width, growth):
    # Nested windows about the same centers, each wider than the last.
    tracked = tracked_window(params, pairing, 0.2)
    center1, center2 = tracked.center1 + off1, tracked.center2 + off2
    widths = width * np.cumprod([1.0] + growth)
    exx, gxx, *sides = pairstate._pair(
        *pairing_channels(enumerate_channels(params), pairing))
    side_a, side_b = (np.repeat(side[:, None], widths.size, axis=1)
                      for side in sides)
    self_a, self_b, _ = kernels.window_overlaps(
        exx, gxx, side_a, side_b, center1 - widths / 2, center1 + widths / 2,
        center2 - widths / 2, center2 + widths / 2)
    for values in (self_a, self_b):
        assert values.dtype == np.float64
        assert np.all(values >= 0)
        assert np.all(np.diff(values) >= 0), values


def test_overlaps_add_over_the_two_parts_of_a_cut_box():
    # Window additivity: the overlaps over a box are the sums over the two
    # boxes that a cut at k1 = m or at k2 = m makes, on tracked windows of
    # points drawn like the benchmark's study points, cut from 5% to 95%
    # across.  The parts are not square, which DetectorWindow never gives
    # the kernel.  A self overlap is measured against itself, and the
    # cross overlap against its Cauchy-Schwarz bound sqrt(self_a self_b).
    # Over eleven draws of 2,000 points the worst was 181 eps, a self
    # overlap; no cross overlap missed by more than 3 eps.
    rng = np.random.default_rng(23)
    pairs, boxes = [], []
    for i, params in enumerate(study_points(2000, seed=23)):
        pairing = ("LP-LP", "UP-UP", "LP-UP")[i % 3]
        w = tracked_window(params, pairing, rng.uniform(0.05, 0.5))
        pairs.append(pairstate._pair(
            *pairing_channels(enumerate_channels(params), pairing)))
        boxes.append((*w.k1_interval, *w.k2_interval))
    exx, gxx, side_a, side_b = (np.array(column) for column in zip(*pairs))
    k1_lo, k1_hi, k2_lo, k2_hi = np.array(boxes).T

    def overlaps(*box):
        """The self_a, self_b and cross overlaps of every point's box."""
        return np.array(kernels.window_overlaps(exx, gxx, side_a.T, side_b.T,
                                                *box))

    whole = overlaps(k1_lo, k1_hi, k2_lo, k2_hi)
    scale = np.abs(whole)
    scale[2] = np.sqrt(whole[0].real * whole[1].real)
    m1, m2 = (lo + rng.uniform(0.05, 0.95, lo.size) * (hi - lo)
              for lo, hi in ((k1_lo, k1_hi), (k2_lo, k2_hi)))
    cuts = {"k1": overlaps(k1_lo, m1, k2_lo, k2_hi)
            + overlaps(m1, k1_hi, k2_lo, k2_hi),
            "k2": overlaps(k1_lo, k1_hi, k2_lo, m2)
            + overlaps(k1_lo, k1_hi, m2, k2_hi)}
    for axis, halves in cuts.items():
        error = np.abs(halves - whole) / scale
        worst = np.unravel_index(error.argmax(), error.shape)
        assert error[worst] <= 1024 * np.finfo(float).eps, (axis, worst,
                                                            error[worst])


# The midpoint oracle of the fig4 benchmark: n x n cells, and its bound
# relative to sqrt(self_a * self_b).
ORACLE_N = 1000
ORACLE_TOL = 1e-3


@settings(max_examples=20, deadline=None)
@given(params=near_resonance(), pairing=st.sampled_from(("LP-LP", "UP-UP",
                                                          "LP-UP")),
       cells=st.floats(0.05, 1.0), off1=st.floats(-1.0, 1.0),
       off2=st.floats(-1.0, 1.0))
def test_overlaps_and_gamma_prime_match_the_midpoint_oracle(
        params, pairing, cells, off1, off2):
    # Every line's half width spans at least 10 midpoint cells: a
    # polariton line's along k2, the ridge's along u = k1 + k2, over
    # which one cell reaches twice as far.  The window is moved by up to
    # its width from the tracked centers.
    ch_a, ch_b = pairing_channels(enumerate_channels(params), pairing)
    _, gxx, side_a, side_b = pairstate._pair(ch_a, ch_b)
    (_, g_a, _), (_, g_b, _) = side_a.tolist(), side_b.tolist()
    width = cells * min(gxx / 2, g_a, g_b) * ORACLE_N / 10
    tracked = tracked_window(params, pairing, width)
    w = DetectorWindow(center1=tracked.center1 + off1 * width,
                       center2=tracked.center2 + off2 * width, width=width)
    pairs = {"aa": (ch_a, ch_a), "bb": (ch_b, ch_b), "ab": (ch_a, ch_b)}
    exact = {k: windowed_overlap(x, y, w) for k, (x, y) in pairs.items()}
    oracle = {k: brute_force_overlap(x, y, w, n=ORACLE_N)
              for k, (x, y) in pairs.items()}
    scale = math.sqrt(oracle["aa"].real * oracle["bb"].real)
    for k in pairs:
        assert abs(exact[k] - oracle[k]) <= ORACLE_TOL * scale, k
    try:
        coh = gamma_prime(params, pairing, w)
    except EmptyWindowError:
        assert scale == 0
        return
    want = oracle["ab"] / (oracle["aa"].real + oracle["bb"].real)
    assert abs(coh.gamma - want) <= ORACLE_TOL


@pytest.mark.parametrize("cav_mean, rabi, tau_c", [(946.0, 0.5, 6.0),
                                                   (947.0, 0.125, 5.0)])
def test_far_detuned_identical_lines_stay_within_one_half(cav_mean, rabi,
                                                          tau_c):
    # H and V coincide, so gamma' is 1/2 up to roundoff.  An adaptive
    # quadrature at rel_tol 1e-9 returned 1/2 + 1.4e-9 and 1/2 + 8.1e-10
    # here, past the bound's own allowance.
    params = SystemParams(ex_mean=900.0, delta_x=1e-12, cav_mean=cav_mean,
                          delta_c=0.0, rabi=rabi, tau_c=tau_c, tau_xx=100.0,
                          binding=3.0)
    tracked = tracked_window(params, "LP-LP", 0.2)
    w = DetectorWindow(center1=tracked.center1, center2=tracked.center2,
                       width=1.0)
    coh = gamma_prime(params, "LP-LP", w)
    assert abs(abs(coh.gamma) - 0.5) <= ROUNDOFF
