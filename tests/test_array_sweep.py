"""The array passes of a sweep equal the scalar code they replace.

A sweep chunk solves its channels in one array pass
(cascade.channel_arrays), seeds the panels of all its overlaps at once
(pairstate._seed_panels) and evaluates both Gauss-Legendre rules of a
block of panels in one kernel call.  Each is checked bit for bit against
a scalar reference: the per-point solve kept here, the _panel_bounds loop
and per-panel kernel calls.  Also here: the Hermitian symmetry of the
overlaps, the panel cap that stops runaway refinement, and the lazy
import of the process pool.
"""
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import polcascade
from polcascade import kernels, pairstate
from polcascade.cascade import channel_arrays, enumerate_channels
from polcascade.errors import ConvergenceError
from polcascade.experiments import tracked_window
from polcascade.model import HBAR_MEV_PS, SystemParams, scheme_preset
from polcascade.pairstate import (QuadratureSpec, pairing_channels,
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

def scalar_channels(params, per_channel_xx_width):
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
    raw = [x_ex ** 2 * x_ph ** 2 / 4.0 for _, x_ex, x_ph, _ in states]
    widths = [x_ex ** 2 * (HBAR_MEV_PS / params.tau_xx)
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
                     float(np.sqrt(weight / total)), width,
                     width if per_channel_xx_width else xx_total))
    return rows


def channel_rows(channels):
    return [(c.intermediate.energy, c.intermediate.x_ex, c.intermediate.x_ph,
             c.intermediate.linewidth, c.photon1, c.photon2, float(c.amp),
             c.xx_channel_width, c.xx_total_width) for c in channels]


@settings(max_examples=40, deadline=None)
@given(params=params_st, per_channel=st.booleans(),
       deltas=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=12))
def test_channel_arrays_equal_the_scalar_solve(params, per_channel, deltas):
    arrays = channel_arrays(params, params.ex_mean + np.array(deltas),
                            per_channel)
    assert not arrays.vanished.any()
    for i, delta in enumerate(deltas):
        at = params.with_detuning(delta)
        expected = scalar_channels(at, per_channel)
        assert channel_rows(arrays.channels(i)) == expected
        assert channel_rows(enumerate_channels(at, per_channel)) == expected


# ------------------------------------------------------- panel seeding

@st.composite
def seed_boxes(draw):
    """A v-range and six (center, scale) features, often with cuts that
    land on, or within 1e-13 of the span of, one another or the ends: the
    rows that array seeding hands to _panel_bounds."""
    lo = draw(st.floats(1.0, 1010.0))
    span = 10.0 ** draw(st.floats(-4.0, 1.0))
    hi = lo + span
    centers, scales = [], []
    for _ in range(6):
        kind = draw(st.sampled_from(("free", "lo", "hi", "copy")))
        if kind == "lo" or kind == "hi":
            end = lo if kind == "lo" else hi
            center = end + draw(st.integers(-3, 3)) * math.ulp(end)
        elif kind == "copy" and centers:
            base = draw(st.sampled_from(centers))
            center = base + (draw(st.integers(-4, 4)) * math.ulp(base)
                             * draw(st.sampled_from((1.0, 100.0, 1e3))))
        else:
            center = lo + draw(st.floats(-0.5, 1.5)) * span
        centers.append(center)
        scales.append(draw(st.one_of(
            st.floats(1e-9, 1.0),
            # Ladders whose first rungs sit within 1e-13 of the span.
            st.floats(-15.0, -12.0).map(lambda e: span * 10.0 ** e),
            st.sampled_from((0.0, -1e-3, math.inf)),
            st.sampled_from(scales or [1e-3]))))
    return lo, hi, centers, scales


def panel_rows(boxes):
    rows = [pairstate._panel_bounds(lo, hi, zip(centers, scales))
            for lo, hi, centers, scales in boxes]
    return ([x for r in rows for x in r[:-1]], [x for r in rows for x in r[1:]],
            [len(r) - 1 for r in rows])


def seed(boxes, threshold):
    lo, hi, centers, scales = (np.array(x, dtype=float) for x in zip(*boxes))
    with mock.patch.object(pairstate, "_SEED_ARRAY_MIN_BOXES", threshold):
        ab, counts = pairstate._seed_panels(lo, hi, centers, scales)
    return ab[0].tolist(), ab[1].tolist(), counts.tolist()


@settings(max_examples=150, deadline=None)
@given(boxes=st.lists(seed_boxes(), min_size=1, max_size=12))
# A cut exactly 1e-13 of the span above lo, which the loop drops.
@example(boxes=[(0.0, 1.0, [1e-13, 0.5], [1.0, 1.0])])
def test_array_seeding_equals_panel_bounds(boxes):
    expected = panel_rows(boxes)
    assert seed(boxes, 1) == expected
    assert seed(boxes, pairstate._SEED_ARRAY_MIN_BOXES) == expected


# ------------------------------------------------------ kernel blocks

def kernel_boxes():
    """Boxes of all three kernel kinds, seeded by the _panel_bounds loop."""
    p = scheme_preset(2).with_detuning(0.05)
    boxes = []
    for per_channel in (False, True):
        chans = enumerate_channels(p, per_channel_xx_width=per_channel)
        for pairing in PAIRINGS:
            a, b = pairing_channels(chans, pairing)
            w = tracked_window(p, pairing, 0.3)
            for x, y in ((a, a), (b, b), (a, b)):
                boxes.append((x, y, *w.k1_interval, *w.k2_interval))
    par, kinds, bounds = [], [], []
    for x, y, k1_lo, k1_hi, k2_lo, k2_hi in boxes:
        args = pairstate._kernel_args(x, y)
        par.append((k1_lo, k1_hi, *args))
        kinds.append(int(kernels.kind_index(*args[:8])))
        bounds.append(pairstate._panel_bounds(k2_lo, k2_hi, (
            (args[4], args[5]), (args[6], args[7]),
            (args[0] - k1_lo, args[1]), (args[0] - k1_hi, args[1]),
            (args[2] - k1_lo, args[3]), (args[2] - k1_hi, args[3]))))
    order = np.argsort(kinds, kind="stable")
    par = np.array(par)[order].T.copy()
    bounds = [bounds[i] for i in order]
    ab = np.array([[x for r in bounds for x in r[:-1]],
                   [x for r in bounds for x in r[1:]]])
    owner = np.arange(len(bounds)).repeat([len(r) - 1 for r in bounds])
    return par, np.array(kinds)[order], ab, owner


@pytest.mark.parametrize("block", [1, 7, 256])
def test_one_kernel_call_per_block_equals_per_panel_rules(block):
    par, kind, ab, owner = kernel_boxes()
    assert set(kind.tolist()) == {0, 1, 2}
    n = 16
    with mock.patch.object(pairstate, "_BLOCK_PANELS", block):
        got = pairstate._eval_panels(par, kind, ab, owner, n)
    for i in range(ab.shape[1]):
        a, b = ab[:, i]
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        for row, m in enumerate((n, 2 * n)):
            xs, ws = np.polynomial.legendre.leggauss(m)
            vals = kernels.overlap_integrand(mid + half * xs, *par[:, owner[i]])
            assert got[row, i] == (vals * ws).sum() * half


@pytest.mark.parametrize("kind", kernels.KINDS)
def test_passing_the_kind_changes_no_value(kind):
    par, kinds, ab, owner = kernel_boxes()
    j = kernels.KINDS.index(kind)
    args = par[:, kinds.tolist().index(j)]
    v = np.linspace(args[6] - 0.2, args[6] + 0.2, 101)
    assert kernels.integrand_kind(*args[2:10]) == kind
    derived = kernels.overlap_integrand(v, *args)
    given_kind = kernels.overlap_integrand(v, *args, kind=kind)
    assert derived.dtype == given_kind.dtype
    assert np.array_equal(derived, given_kind)


# ---------------------------------------------------------- Hermitian

@settings(max_examples=25, deadline=None)
@given(params=params_st, detuning=st.floats(-1.0, 1.0),
       width=st.floats(0.05, 0.5), per_channel=st.booleans(),
       pair=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       pairing=st.sampled_from(PAIRINGS))
def test_windowed_overlap_is_hermitian(params, detuning, width, per_channel,
                                       pair, pairing):
    at = params.with_detuning(detuning)
    chans = enumerate_channels(at, per_channel_xx_width=per_channel)
    a, b = (chans[i] for i in pair)
    w = tracked_window(at, pairing, width)
    ab = windowed_overlap(a, b, w)
    ba = windowed_overlap(b, a, w)
    # Same panels either way; only the kernel's rounding differs.
    scale = math.sqrt(windowed_overlap(a, a, w).real
                      * windowed_overlap(b, b, w).real)
    assert abs(ab - ba.conjugate()) <= 1e-12 * scale


# ----------------------------------------------------------- panel cap

def test_refinement_stops_at_the_panel_cap():
    # 73.5 meV below resonance, the H upper polariton is almost a bare
    # exciton with a 5e-8 meV linewidth.  With its own share of the
    # biexciton width, its self overlap in a 0.5 meV window cannot reach
    # rel_tol 1e-13: the estimates are roundoff-limited, so refinement
    # splits most panels on every pass, and max_refinements = 30 alone
    # would let the panels grow 2^30-fold.
    quad = QuadratureSpec(rel_tol=1e-13)
    assert quad.max_refinements == 30
    p = SystemParams(ex_mean=1000.0, delta_x=0.45, cav_mean=926.5,
                     delta_c=0.45, rabi=0.19, tau_c=24.0, tau_xx=845.0,
                     binding=4.2)
    a, _ = pairing_channels(enumerate_channels(p, per_channel_xx_width=True),
                            "UP-UP")
    w = tracked_window(p, "UP-UP", 0.5)
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError) as err:
            windowed_overlap(a, a, w, quad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    panels = int(str(err.value).split("panels=")[1].rstrip(")"))
    assert pairstate._MAX_PANELS // 2 < panels <= pairstate._MAX_PANELS
    previous, last = err.value.last_estimates
    assert isinstance(previous, complex) and isinstance(last, complex)
    assert peak < 32_000_000, f"peak traced memory {peak / 1e6:.1f} MB"


# --------------------------------------------------------- lazy import

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
