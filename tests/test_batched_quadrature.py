"""The batched window overlaps give every overlap the value it gets alone.

A sweep chunk, a gamma_prime call and an unprojected box all go through
kernels.window_overlaps.  These tests check that an overlap's value, or
the error its point fails with, does not depend on what else shares its
batch, which form integrates its neighbours, or how a sweep is chunked.
"""
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polcascade import experiments, kernels, pairstate
from polcascade.cascade import enumerate_channels
from polcascade.errors import EmptyWindowError, ValidationError
from polcascade.experiments import sweep_gamma, tracked_window
from polcascade.model import SystemParams, scheme_preset
from polcascade.pairstate import (DetectorWindow, gamma_prime,
                                  pairing_channels)

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


@st.composite
def grids(draw, max_points=40):
    start = draw(st.floats(-0.5, 0.4))
    step = draw(st.floats(1e-3, 0.05))
    n = draw(st.integers(1, max_points))
    return start + step * np.arange(n)


def boxes_for(params, width, offset=(0, 0)):
    """Self and cross boxes of every pairing, on tracked windows moved by
    offset (meV along k1, k2)."""
    chans = enumerate_channels(params)
    boxes = []
    for pairing in PAIRINGS:
        ch_a, ch_b = pairing_channels(chans, pairing)
        w = tracked_window(params, pairing, width)
        k1 = [k + offset[0] for k in w.k1_interval]
        k2 = [k + offset[1] for k in w.k2_interval]
        for x, y in ((ch_a, ch_a), (ch_b, ch_b), (ch_a, ch_b)):
            boxes.append((x, y, *k1, *k2))
    return boxes


def batched(boxes):
    """The _overlap_box value of every box (ch_a, ch_b, k1_lo, k1_hi,
    k2_lo, k2_hi), from one kernels.window_overlaps call: the real self
    overlap where both sides are the same, else the cross overlap."""
    exx, gxx, side_a, side_b = (
        np.array(column) for column in zip(*(pairstate._pair(x, y)
                                             for x, y, *_ in boxes)))
    bounds = np.array([box[2:] for box in boxes]).T
    self_a, _, cross = kernels.window_overlaps(exx, gxx, side_a.T, side_b.T,
                                               *bounds)
    return np.where((side_a == side_b).all(axis=1), self_a, cross).tolist()


def forms_used(boxes):
    """The kernels form whose value each box keeps on its own: a rule
    where one ran, else the dilogarithm form, which every box starts in."""
    used = []
    for box in boxes:
        with mock.patch.object(kernels, "_ridge_rule",
                               wraps=kernels._ridge_rule) as ridge, \
                mock.patch.object(kernels, "_sheared_rule",
                                  wraps=kernels._sheared_rule) as sheared:
            pairstate._overlap_box(*box)
        used.append("_ridge_rule" if ridge.called else
                    "_sheared_rule" if sheared.called else "_dilog_form")
    return used


# ------------------------------------------------- sweep = point by point

@settings(max_examples=25, deadline=None)
@given(params=params_st, pairing=st.sampled_from(PAIRINGS),
       width=st.floats(0.05, 0.5), grid=grids())
def test_sweep_rows_equal_gamma_prime_bitwise(params, pairing, width, grid):
    curve = sweep_gamma(params, pairing, deltas=grid, width=width)
    assert len(curve.rows) == grid.size
    for row, delta in zip(curve.rows, grid):
        at = params.with_detuning(float(delta))
        w = tracked_window(at, pairing, width)
        assert row.delta_cx == float(delta)
        assert row.window == w
        assert row.gamma == gamma_prime(at, pairing, w).gamma


def test_fixed_window_sweep_equals_gamma_prime_bitwise():
    p = scheme_preset(3)
    w = tracked_window(p, "LP-LP", 0.3)
    grid = np.linspace(-0.3, 0.3, 41)
    curve = sweep_gamma(p, "LP-LP", deltas=grid, window=w)
    for row in curve.rows:
        at = p.with_detuning(row.delta_cx)
        assert row.window == w
        assert row.gamma == gamma_prime(at, "LP-LP", w).gamma


# ------------------------------------------------------------- chunking

@settings(max_examples=10, deadline=None)
@given(params=params_st, pairing=st.sampled_from(PAIRINGS),
       grid=grids(max_points=70))
def test_sweep_independent_of_chunk_size(params, pairing, grid):
    gammas = {}
    for chunk in (1, 7, 32, 161):
        with mock.patch.object(experiments, "_CHUNK_POINTS", chunk):
            curve = sweep_gamma(params, pairing, deltas=grid)
        gammas[chunk] = [r.gamma for r in curve.rows]
    assert gammas[1] == gammas[7] == gammas[32] == gammas[161]


def test_default_grid_is_one_chunk(monkeypatch):
    chunks = []
    sweep_point = experiments._sweep_point

    def counted(task):
        chunks.append(len(task[1]))
        return sweep_point(task)

    monkeypatch.setattr(experiments, "_sweep_point", counted)
    sweep_gamma(scheme_preset(2), "LP-UP")
    assert chunks == [161]


# ------------------------------------------------- mixed batches and forms

@settings(max_examples=15, deadline=None)
@given(params=params_st, width=st.floats(0.05, 0.5),
       narrow=st.floats(1e-4, 1e-3),
       offset=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_mixed_batch_matches_single_boxes(params, width, narrow, offset):
    boxes = (boxes_for(params, width) + boxes_for(params, narrow)
             + boxes_for(params, width, offset))
    alone = [pairstate._overlap_box(*box) for box in boxes]
    assert batched(boxes) == alone


def test_mixed_batch_covers_every_form():
    # The case the property above samples: tracked windows (dilogarithms),
    # windows moved off the ridge (the rule over v) and windows moved
    # along it, off the polariton lines (the rule over u), in one batch.
    p = scheme_preset(2).with_detuning(0.05)
    boxes = (boxes_for(p, 0.2) + boxes_for(p, 2e-4)
             + boxes_for(p, 0.1, offset=(0.5, 0.5))
             + boxes_for(p, 0.1, offset=(-0.5, 0.5)))
    assert set(forms_used(boxes)) == {"_ridge_rule", "_sheared_rule",
                                      "_dilog_form"}
    alone = [pairstate._overlap_box(*box) for box in boxes]
    assert batched(boxes) == alone
    assert batched(boxes[::-1]) == alone[::-1]


def test_batch_skips_empty_boxes():
    ch = enumerate_channels(scheme_preset(1))[0]
    box = (ch, ch, 996.9, 997.1, 999.9, 1000.1)
    empty = (ch, ch, 996.9, 996.9, 999.9, 1000.1)
    values = batched([empty, box, empty])
    assert values[0] == values[2] == 0j
    assert values[1] == pairstate._overlap_box(*box)


def pair_points(params, width, offset=(0, 0)):
    """The window_overlaps arguments of every pairing's channel pair on
    its tracked window moved by offset (meV along k1, k2), one point
    each: the poles (exx, gxx), the sides (a, b) and the bounds."""
    chans = enumerate_channels(params)
    poles, sides, bounds = [], [], []
    for pairing in PAIRINGS:
        exx, gxx, side_a, side_b = pairstate._pair(
            *pairing_channels(chans, pairing))
        w = tracked_window(params, pairing, width)
        poles.append((exx, gxx))
        sides.append((side_a, side_b))
        bounds.append([k + offset[0] for k in w.k1_interval]
                      + [k + offset[1] for k in w.k2_interval])
    return np.array(poles), np.array(sides), np.array(bounds)


def test_pair_values_equal_alone_and_in_a_batch_in_either_order():
    # Tracked windows, windows off the ridge and windows off the lines:
    # every form, as in test_mixed_batch_covers_every_form.
    p = scheme_preset(2).with_detuning(0.05)
    parts = [pair_points(p, 0.2), pair_points(p, 2e-4),
             pair_points(p, 0.1, (0.5, 0.5)), pair_points(p, 0.1, (-0.5, 0.5))]
    poles, sides, bounds = (np.concatenate(arrays) for arrays in zip(*parts))

    def values(order):
        return np.array(kernels.window_overlaps(
            *poles[order].T, *sides[order].transpose(1, 2, 0),
            *bounds[order].T))

    everything = np.arange(len(bounds))
    with mock.patch.object(kernels, "_ridge_rule",
                           wraps=kernels._ridge_rule) as ridge, \
            mock.patch.object(kernels, "_sheared_rule",
                              wraps=kernels._sheared_rule) as sheared:
        batched = values(everything)
    assert ridge.called and sheared.called
    reversed_ = values(everything[::-1])[:, ::-1]
    alone = np.array([values([i])[:, 0] for i in everything]).T
    assert batched.tobytes() == alone.tobytes() == reversed_.tobytes()


def dilog_terms(run):
    """How many elements kernels._dilog takes while run() runs, and what
    run() returns."""
    sizes = []
    dilog = kernels._dilog

    def counted(z, log1p_minus_z):
        sizes.append(z.size)
        return dilog(z, log1p_minus_z)

    with mock.patch.object(kernels, "_dilog", counted):
        result = run()
    return sum(sizes), result


@pytest.mark.parametrize("n", [1, 7, 161])
def test_sweep_evaluates_eight_dilogarithm_terms_per_point(n):
    # Both photons of a pair come from one biexciton decay, so the two
    # channels of a point share their biexciton pole, and its self_a,
    # self_b and cross boxes share one table of 8 terms, each evaluated
    # at the two window edges.
    grid = np.linspace(-0.4, 0.4, n)
    terms, _ = dilog_terms(lambda: sweep_gamma(scheme_preset(2), "LP-UP",
                                               deltas=grid))
    assert terms == 2 * 8 * n


class LogCounter:
    """numpy, with np.log counting the complex elements it takes."""

    def __init__(self):
        self.elements = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, x, *args, **kwargs):
        x = np.asarray(x)
        if x.dtype.kind == "c":
            self.elements += x.size
        return np.log(x, *args, **kwargs)


def test_fig4_sweeps_take_at_most_42_complex_logs_per_point():
    # Per point and window edge: 2 logs of w and 8 of 1 - z for the shared
    # biexciton pole's table, then a log of the mapped 1 - z, of -z or of
    # the reflected argument only for the entries each map moves, and the
    # cut logs only for entries that cross the cut: 39.6 per point.
    counter = LogCounter()
    points = 0
    with mock.patch.object(kernels, "np", counter):
        for scheme in (1, 2, 3):
            points += experiments.fig4_sweep(scheme).gamma.size
    assert points == 3 * 161
    assert counter.elements <= 42 * points


# ------------------------------------------------------------- failures

def test_sweep_raises_the_error_of_the_first_failing_point():
    p = scheme_preset(1)
    far = DetectorWindow(center1=1e150, center2=1e150, width=0.2)
    grid = np.linspace(-0.1, 0.1, 9)
    with pytest.raises(EmptyWindowError) as batched:
        sweep_gamma(p, "LP-LP", deltas=grid, window=far)
    at = p.with_detuning(float(grid[0]))
    with pytest.raises(EmptyWindowError) as alone:
        gamma_prime(at, "LP-LP", far)
    assert str(batched.value) == str(alone.value)


def first_point_error(p, pairing, grid, width):
    """The ValidationError message tracked_window gives at the first grid
    point where it fails."""
    for delta in grid:
        try:
            tracked_window(p.with_detuning(float(delta)), pairing, width)
        except ValidationError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("width", [0, -0.2, float("nan"), float("inf"), "wide"])
def test_sweep_raises_the_window_error_of_a_bad_width(width):
    p = scheme_preset(1)
    grid = np.linspace(-0.1, 0.1, 9)
    expected = first_point_error(p, "LP-LP", grid, width)
    with pytest.raises(ValidationError) as swept:
        sweep_gamma(p, "LP-LP", deltas=grid, width=width)
    assert str(swept.value) == expected


def test_sweep_raises_the_window_error_of_the_first_failing_point():
    # A window this wide reaches k1 <= 0 only where center1 is low, which
    # happens in the middle of the grid, not at its first point.
    p = scheme_preset(2)
    grid = np.linspace(-0.3, 0.3, 31)
    curve = sweep_gamma(p, "LP-UP", deltas=grid)
    width = 2 * float(np.median(curve.center1))
    first = int(np.argmax(curve.center1 - width / 2 <= 0))
    assert 0 < first
    expected = first_point_error(p, "LP-UP", grid, width)
    at = p.with_detuning(float(grid[first]))
    with pytest.raises(ValidationError) as alone:
        tracked_window(at, "LP-UP", width)
    assert str(alone.value) == expected == (
        "window extends to non-positive photon energy")
    with pytest.raises(ValidationError) as swept:
        sweep_gamma(p, "LP-UP", deltas=grid, width=width)
    assert str(swept.value) == expected


@pytest.mark.parametrize("vanish_at, message", [
    (3, "all branching weights vanished"),
    (20, "window extends to non-positive photon energy"),
])
def test_sweep_checks_weights_before_the_window_of_each_point(
        monkeypatch, vanish_at, message):
    p = scheme_preset(2)
    grid = np.linspace(-0.3, 0.3, 31)
    curve = sweep_gamma(p, "LP-UP", deltas=grid)
    width = 2 * float(np.median(curve.center1))
    first_bad_window = int(np.argmax(curve.center1 - width / 2 <= 0))
    assert 3 < first_bad_window < 20
    channel_arrays = experiments.channel_arrays

    def vanishing(params, cav_mean):
        arrays = channel_arrays(params, cav_mean)
        arrays.vanished[vanish_at] = True
        return arrays

    monkeypatch.setattr(experiments, "channel_arrays", vanishing)
    with pytest.raises(ValidationError, match=message):
        sweep_gamma(p, "LP-UP", deltas=grid, width=width)


def test_self_kernel_is_real_and_matches_complex_form():
    ch = enumerate_channels(scheme_preset(1))[0]
    exx, gxx, side, _ = pairstate._pair(ch, ch)
    e, g, pref_one = side.tolist()
    pref = pref_one * pref_one
    v = np.linspace(ch.intermediate.energy - 0.1,
                    ch.intermediate.energy + 0.1, 257)
    k1_lo, k1_hi = ch.photon1 - 0.1, ch.photon1 + 0.1
    got = kernels.overlap_integrand(v, k1_lo, k1_hi, exx, gxx, exx, gxx,
                                    e, g, e, g, pref)
    # Real up to roundoff: both factors share every pole.
    assert np.all(np.abs(got.imag) <= 1e-14 * np.abs(got.real))
    fu = (np.arctan((k1_hi + v - exx) / gxx)
          - np.arctan((k1_lo + v - exx) / gxx)) / gxx
    expected = pref * fu / ((v - (e + 1j * g)) * (v - (e - 1j * g)))
    # k1 + v rounds to 2.3e-13 meV against steps 0.0026 meV wide, so each
    # form is within 1.5e-11 of 40-digit arithmetic, not closer.
    np.testing.assert_allclose(got.real, expected.real, rtol=1e-10)


# ---------------------------------------------------------------- memory

def test_long_sweep_memory_stays_bounded():
    grid = np.linspace(-0.4, 0.4, 1601)
    p = scheme_preset(1)
    sweep_gamma(p, "LP-LP", deltas=grid[:40])  # warm node cache
    tracemalloc.start()
    try:
        curve = sweep_gamma(p, "LP-LP", deltas=grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(curve.rows) == grid.size
    assert peak < 2_000_000, f"peak traced memory {peak / 1e6:.2f} MB"
