"""The array passes of a sweep equal the scalar code they replace.

A sweep chunk solves its channels in one array pass
(cascade.channel_arrays), checked bit for bit against the per-point solve
kept here.  Also here: the Hermitian symmetry of the overlaps, a box with
a 5e-8 meV line against 40-digit arithmetic, and an import that loads no
process pool.
"""
import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import polcascade
from polcascade.cascade import channel_arrays, enumerate_channels
from polcascade.experiments import tracked_window
from polcascade.model import HBAR_MEV_PS, SystemParams, scheme_preset
from polcascade.pairstate import (channel_norm, pairing_channels,
                                  windowed_overlap)

PAIRINGS = ("LP-LP", "UP-UP", "LP-UP")

params_st = st.builds(
    SystemParams,
    ex_mean=st.floats(900.0, 1100.0),
    delta_x=st.floats(-0.5, 0.5),
    cav_mean=st.floats(900.0, 1100.0),
    delta_c=st.floats(-0.5, 0.5),
    rabi=st.floats(0.05, 0.5),
    tau_c=st.floats(5.0, 50.0),
    tau_xx=st.floats(100.0, 1000.0),
    binding=st.floats(3.0, 6.0),
)


# ------------------------------------------------------- channel solve

def scalar_channels(params):
    """Per-point polariton solve and channel enumeration in Python floats.

    The formulas channel_arrays evaluates on arrays, written out one
    state at a time: rows in (H,LP), (H,UP), (V,LP), (V,UP) order.
    """
    states = []
    for pol in ("H", "V"):
        e_exc, e_cav = params.e_exciton(pol), params.e_cavity(pol)
        mean = 0.5 * (e_exc + e_cav)
        delta = e_exc - e_cav
        r = math.hypot(delta, params.rabi)
        half = 0.5 * r
        dr = delta / r
        x_ph2_lp = min(1.0, max(0.0, 0.5 * (1.0 + dr)))
        x_ex2_lp = min(1.0, max(0.0, 0.5 * (1.0 - dr)))
        for energy, x_ex2, x_ph2 in ((mean - half, x_ex2_lp, x_ph2_lp),
                                     (mean + half, x_ph2_lp, x_ex2_lp)):
            states.append((energy, math.sqrt(x_ex2), math.sqrt(x_ph2),
                           x_ph2 * (HBAR_MEV_PS / params.tau_c)))
    raw = [x_ex * x_ex * (x_ph * x_ph) / 4.0 for _, x_ex, x_ph, _ in states]
    widths = [x_ex * x_ex * (HBAR_MEV_PS / params.tau_xx)
              for _, x_ex, _, _ in states]
    total = (raw[0] + raw[2]) + (raw[1] + raw[3])
    xx_total = (widths[0] + widths[2]) + (widths[1] + widths[3])
    e_xx = params.e_biexciton
    rows = []
    for (energy, x_ex, x_ph, linewidth), weight, width in zip(states, raw,
                                                              widths):
        p2 = energy
        p1 = e_xx - p2
        for _ in range(10):
            if p1 + p2 == e_xx:
                break
            p2 = e_xx - p1
            p1 = e_xx - p2
        rows.append((energy, x_ex, x_ph, linewidth, p1, p2,
                     float(np.sqrt(weight / total)), width, xx_total))
    return rows


def channel_rows(channels):
    return [(c.intermediate.energy, c.intermediate.x_ex, c.intermediate.x_ph,
             c.intermediate.linewidth, c.photon1, c.photon2, float(c.amp),
             c.xx_channel_width, c.xx_total_width) for c in channels]


@settings(max_examples=40, deadline=None)
@given(params=params_st,
       deltas=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=12))
def test_channel_arrays_equal_the_scalar_solve(params, deltas):
    arrays = channel_arrays(params, params.ex_mean + np.array(deltas))
    assert not arrays.vanished.any()
    for i, delta in enumerate(deltas):
        at = params.with_detuning(delta)
        expected = scalar_channels(at)
        assert channel_rows(arrays.channels(i)) == expected
        assert channel_rows(enumerate_channels(at)) == expected


@st.composite
def positive_photon_params(draw):
    """Random SystemParams, from far below to far above resonance, whose
    photon energies are all positive."""
    ex_mean = draw(st.floats(0.5, 1100.0))
    params = SystemParams(
        ex_mean=ex_mean, delta_x=draw(st.floats(-1.0, 1.0)),
        cav_mean=ex_mean + draw(st.floats(-5.0, 5.0)),
        delta_c=draw(st.floats(-1.0, 1.0)), rabi=draw(st.floats(0.01, 0.5)),
        tau_c=draw(st.floats(1.0, 100.0)), tau_xx=draw(st.floats(10.0, 2000.0)),
        binding=draw(st.floats(3.0, 10.0)))
    arrays = channel_arrays(params, [params.cav_mean])
    assume((arrays.photon1 > 0).all() and (arrays.photon2 > 0).all())
    return params


@settings(max_examples=200, deadline=None)
@given(params=positive_photon_params())
def test_the_four_channels_share_one_biexciton_pole(params):
    # Both photons of a pair come from one biexciton decay: with positive
    # photon energies, each row's photon1 + photon2 is the biexciton energy
    # exactly, and every channel carries the point's one total width.
    arrays = channel_arrays(params, [params.cav_mean])
    assert (arrays.photon1 + arrays.photon2 == params.e_biexciton).all()
    assert arrays.xx_total_width.shape == (1,)
    assert all(ch.xx_total_width == arrays.xx_total_width[0]
               and ch.e_xx == params.e_biexciton
               for ch in arrays.channels(0))


def test_squares_are_products():
    # Scheme 1 at delta = -0.3874 gives an H-UP exciton amplitude whose
    # square by the C library's pow(x, 2.0) can sit one ulp off the
    # correctly rounded x * x.  Every square in the channel solve is the
    # product.
    p = scheme_preset(1).with_detuning(-0.3874)
    arrays = channel_arrays(p, [p.cav_mean])
    x_ex = arrays.states.x_ex[1, 0].item()
    x_ph = arrays.states.x_ph[1, 0].item()
    assert x_ex == 0.9776124083729136
    assert (arrays.xx_channel_width[1, 0].item()
            == x_ex * x_ex * (HBAR_MEV_PS / p.tau_xx))
    h_up = enumerate_channels(p)[1]
    assert (h_up.pol, h_up.branch) == ("H", "UP")
    assert channel_norm(h_up) == x_ex * x_ex * (x_ph * x_ph) / 4.0


# ---------------------------------------------------------- Hermitian

@settings(max_examples=25, deadline=None)
@given(params=params_st, detuning=st.floats(-1.0, 1.0),
       width=st.floats(0.05, 0.5),
       pair=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       pairing=st.sampled_from(PAIRINGS))
def test_windowed_overlap_is_hermitian(params, detuning, width, pair,
                                       pairing):
    at = params.with_detuning(detuning)
    chans = enumerate_channels(at)
    a, b = (chans[i] for i in pair)
    w = tracked_window(at, pairing, width)
    ab = windowed_overlap(a, b, w)
    ba = windowed_overlap(b, a, w)
    # The two boxes differ only in the order of their arithmetic.
    scale = math.sqrt(windowed_overlap(a, a, w).real
                      * windowed_overlap(b, b, w).real)
    assert abs(ab - ba.conjugate()) <= 1e-12 * scale


# ------------------------------------------------------- near-bare line

def test_near_bare_exciton_self_overlap_is_exact():
    # 73.5 meV below resonance, the H upper polariton is almost a bare
    # exciton with a 5e-8 meV linewidth, and it carries its own share of
    # the biexciton width.  Its self overlap in a 0.5 meV window is
    # 4.13288156855377e-7: mpmath.quad at 40 digits, split at the poles and
    # ridge edges (tests/test_exact_overlaps.py has the oracle).
    p = SystemParams(ex_mean=1000.0, delta_x=0.45, cav_mean=926.5,
                     delta_c=0.45, rabi=0.19, tau_c=24.0, tau_xx=845.0,
                     binding=4.2)
    a, _ = pairing_channels(enumerate_channels(p), "UP-UP")
    a = dataclasses.replace(a, xx_total_width=a.xx_channel_width)
    assert a.intermediate.linewidth < 5e-8
    value = windowed_overlap(a, a, tracked_window(p, "UP-UP", 0.5))
    assert value.imag == 0.0
    assert abs(value.real - 4.1328815685537765e-7) <= 1e-12 * 4.13e-7


# -------------------------------------------------------------- import

def test_import_leaves_the_process_pool_unloaded():
    src = os.path.dirname(os.path.dirname(polcascade.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, polcascade; print('concurrent.futures' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
