"""The batched overlap quadrature gives every overlap the value it gets alone.

A sweep chunk, a gamma_prime call and an unprojected box all go through
pairstate._overlap_boxes.  These tests check that an overlap's value, or
the error it fails with, does not depend on what else shares its batch,
how the batch is cut into kernel blocks, how a sweep is chunked, or how
many worker processes run it.
"""
import concurrent.futures
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polcascade import experiments, kernels, pairstate
from polcascade.cascade import enumerate_channels
from polcascade.errors import ConvergenceError, ValidationError
from polcascade.experiments import sweep_gamma, tracked_window
from polcascade.model import SystemParams, scheme_preset
from polcascade.pairstate import (DEFAULT_QUAD, QuadratureSpec, gamma_prime,
                                  pairing_channels)

PAIRINGS = ("LP-LP", "UP-UP", "LP-UP")

# Tight enough that wide boxes refine while narrow ones converge at once.
# Near roundoff a pass can split every panel, so the pass cap stays small.
TIGHT = QuadratureSpec(rel_tol=1e-13, max_refinements=6)

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


def same_outcome(x, y):
    """Bitwise equal values, or the same error with the same estimates."""
    if isinstance(x, ConvergenceError) or isinstance(y, ConvergenceError):
        return (type(x) is type(y) and str(x) == str(y)
                and x.last_estimates == y.last_estimates)
    return x == y


def boxes_for(params, width, per_channel_xx_width=False):
    """Self and cross boxes of every pairing, on tracked windows."""
    chans = enumerate_channels(params,
                               per_channel_xx_width=per_channel_xx_width)
    boxes = []
    for pairing in PAIRINGS:
        ch_a, ch_b = pairing_channels(chans, pairing)
        w = tracked_window(params, pairing, width)
        for x, y in ((ch_a, ch_a), (ch_b, ch_b), (ch_a, ch_b)):
            boxes.append((x, y, *w.k1_interval, *w.k2_interval))
    return boxes


def kernel_calls(boxes, quad):
    """Kernel calls each box makes on its own."""
    calls = []
    with mock.patch.object(kernels, "overlap_integrand",
                           wraps=kernels.overlap_integrand) as spy:
        for box in boxes:
            spy.reset_mock()
            pairstate._overlap_boxes([box], quad)
            calls.append(spy.call_count)
    return calls


# ------------------------------------------------- sweep = point by point

@settings(max_examples=25, deadline=None)
@given(params=params_st, pairing=st.sampled_from(PAIRINGS),
       width=st.floats(0.05, 0.5), grid=grids())
def test_sweep_rows_equal_gamma_prime_bitwise(params, pairing, width, grid):
    curve = sweep_gamma(params, pairing, deltas=grid, width=width, workers=1)
    assert len(curve.rows) == grid.size
    for row, delta in zip(curve.rows, grid):
        at = params.with_detuning(float(delta))
        w = tracked_window(at, pairing, width)
        assert row.delta_cx == float(delta)
        assert row.window == w
        assert row.gamma == gamma_prime(at, pairing, w, DEFAULT_QUAD).gamma


def test_fixed_window_sweep_equals_gamma_prime_bitwise():
    p = scheme_preset(3)
    w = tracked_window(p, "LP-LP", 0.3)
    grid = np.linspace(-0.3, 0.3, 41)
    curve = sweep_gamma(p, "LP-LP", deltas=grid, window=w, workers=1)
    for row in curve.rows:
        at = p.with_detuning(row.delta_cx)
        assert row.window == w
        assert row.gamma == gamma_prime(at, "LP-LP", w).gamma


# ------------------------------------------ chunking and worker counts

@settings(max_examples=10, deadline=None)
@given(params=params_st, pairing=st.sampled_from(PAIRINGS),
       grid=grids(max_points=70))
def test_sweep_independent_of_chunk_size(params, pairing, grid):
    gammas = {}
    for chunk in (1, 7, 32, 161):
        with mock.patch.object(experiments, "_CHUNK_POINTS", chunk):
            curve = sweep_gamma(params, pairing, deltas=grid, workers=1)
        gammas[chunk] = [r.gamma for r in curve.rows]
    assert gammas[1] == gammas[7] == gammas[32] == gammas[161]


def test_default_grid_is_one_chunk_and_a_pool_gets_one_per_worker(
        monkeypatch):
    chunks = []
    sweep_point = experiments._sweep_point

    def counted(task):
        chunks.append(len(task[1]))
        return sweep_point(task)

    class InlinePool:
        """Runs the pool's tasks in this process, in order."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(experiments, "_sweep_point", counted)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    p = scheme_preset(2)
    rows = {}
    for workers in (1, 3):
        chunks.clear()
        rows[workers] = sweep_gamma(p, "LP-UP", workers=workers).rows
        assert chunks == {1: [161], 3: [54, 54, 53]}[workers]
    assert rows[1] == rows[3]


def test_sweep_independent_of_worker_count():
    p = SystemParams(ex_mean=1000.0, delta_x=0.12, cav_mean=1000.05,
                     delta_c=-0.2, rabi=0.3, tau_c=12.0, tau_xx=400.0,
                     binding=3.5)
    grid = np.linspace(-0.35, 0.3, 23)
    rows = {}
    # Seven-point chunks give the pool four tasks.
    with mock.patch.object(experiments, "_CHUNK_POINTS", 7):
        for workers in (1, 2):
            rows[workers] = sweep_gamma(p, "LP-UP", deltas=grid,
                                        workers=workers).rows
    assert [(r.delta_cx, r.gamma, r.window) for r in rows[1]] == \
        [(r.delta_cx, r.gamma, r.window) for r in rows[2]]


def test_workers_default_to_one(monkeypatch):
    monkeypatch.delenv("POLCASCADE_WORKERS", raising=False)
    assert experiments._resolve_workers(None) == 1
    monkeypatch.setenv("POLCASCADE_WORKERS", "3")
    assert experiments._resolve_workers(None) == 3


# ------------------------------------------------ mixed batches and blocks

@settings(max_examples=15, deadline=None)
@given(params=params_st, width=st.floats(0.05, 0.5),
       narrow=st.floats(1e-4, 1e-3), per_channel=st.booleans(),
       block=st.sampled_from([1, 97, 1024]))
def test_mixed_batch_matches_single_boxes(params, width, narrow, per_channel,
                                          block):
    boxes = (boxes_for(params, width, per_channel)
             + boxes_for(params, narrow, per_channel))
    alone = [pairstate._overlap_boxes([box], TIGHT)[0] for box in boxes]
    with mock.patch.object(pairstate, "_BLOCK_PANELS", block):
        batched = pairstate._overlap_boxes(boxes, TIGHT)
    assert all(same_outcome(x, y) for x, y in zip(batched, alone))


def test_mixed_batch_covers_every_kind_and_refinement():
    # The case the property above samples: converged and refining boxes,
    # self, arctan and log kernels, all in one batch.
    p = scheme_preset(2).with_detuning(0.05)
    boxes = (boxes_for(p, 0.2) + boxes_for(p, 2e-4)
             + boxes_for(p, 0.3, per_channel_xx_width=True))
    kinds = {kernels.integrand_kind(*pairstate._kernel_args(x, y)[:8])
             for x, y, *_ in boxes}
    assert kinds == {"self", "arctan", "log"}
    # One kernel call evaluates both rules, so a box that converges at
    # once makes one call and a refining box more.
    calls = kernel_calls(boxes, TIGHT)
    assert min(calls) == 1 and max(calls) > 1
    alone = [pairstate._overlap_boxes([box], TIGHT)[0] for box in boxes]
    for block in (1, 97, 4096):
        with mock.patch.object(pairstate, "_BLOCK_PANELS", block):
            batched = pairstate._overlap_boxes(boxes, TIGHT)
        assert all(same_outcome(x, y) for x, y in zip(batched, alone))


def test_batch_skips_empty_boxes():
    ch = enumerate_channels(scheme_preset(1))[0]
    box = (ch, ch, 996.9, 997.1, 999.9, 1000.1)
    empty = (ch, ch, 996.9, 996.9, 999.9, 1000.1)
    values = pairstate._overlap_boxes([empty, box, empty], DEFAULT_QUAD)
    assert values[0] == values[2] == 0j
    assert values[1] == pairstate._overlap_boxes([box], DEFAULT_QUAD)[0]


# ------------------------------------------------------------- failures

def test_failures_match_single_box_failures():
    p = scheme_preset(1)
    strict = QuadratureSpec(base_nodes=8, rel_tol=1e-13, max_refinements=1)
    boxes = boxes_for(p, 0.2) + boxes_for(p, 1e-4)
    alone = [pairstate._overlap_boxes([box], strict)[0] for box in boxes]
    assert any(isinstance(x, ConvergenceError) for x in alone)
    assert any(not isinstance(x, ConvergenceError) for x in alone)
    batched = pairstate._overlap_boxes(boxes, strict)
    assert all(same_outcome(x, y) for x, y in zip(batched, alone))
    for value in batched:
        if isinstance(value, ConvergenceError):
            previous, last = value.last_estimates
            assert isinstance(previous, complex) and isinstance(last, complex)


def test_sweep_raises_the_error_of_the_first_failing_point():
    p = scheme_preset(1)
    strict = QuadratureSpec(base_nodes=8, rel_tol=1e-15, max_refinements=1)
    grid = np.linspace(-0.1, 0.1, 9)
    with pytest.raises(ConvergenceError) as batched:
        sweep_gamma(p, "LP-LP", deltas=grid, quad=strict, workers=1)
    at = p.with_detuning(float(grid[0]))
    with pytest.raises(ConvergenceError) as alone:
        gamma_prime(at, "LP-LP", tracked_window(at, "LP-LP", 0.2), strict)
    assert str(batched.value) == str(alone.value)
    assert batched.value.last_estimates == alone.value.last_estimates


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
        sweep_gamma(p, "LP-LP", deltas=grid, width=width, workers=1)
    assert str(swept.value) == expected


def test_sweep_raises_the_window_error_of_the_first_failing_point():
    # A window this wide reaches k1 <= 0 only where center1 is low, which
    # happens in the middle of the grid, not at its first point.
    p = scheme_preset(2)
    grid = np.linspace(-0.3, 0.3, 31)
    curve = sweep_gamma(p, "LP-UP", deltas=grid, workers=1)
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
        sweep_gamma(p, "LP-UP", deltas=grid, width=width, workers=1)
    assert str(swept.value) == expected


@pytest.mark.parametrize("vanish_at, message", [
    (3, "all branching weights vanished"),
    (20, "window extends to non-positive photon energy"),
])
def test_sweep_checks_weights_before_the_window_of_each_point(
        monkeypatch, vanish_at, message):
    p = scheme_preset(2)
    grid = np.linspace(-0.3, 0.3, 31)
    curve = sweep_gamma(p, "LP-UP", deltas=grid, workers=1)
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
        sweep_gamma(p, "LP-UP", deltas=grid, width=width, workers=1)


def test_self_kernel_is_real_and_matches_complex_form():
    ch = enumerate_channels(scheme_preset(1))[0]
    args = pairstate._kernel_args(ch, ch)
    v = np.linspace(ch.intermediate.energy - 0.1,
                    ch.intermediate.energy + 0.1, 257)
    k1_lo, k1_hi = ch.photon1 - 0.1, ch.photon1 + 0.1
    got = kernels.overlap_integrand(v, k1_lo, k1_hi, *args)
    assert got.dtype == np.float64
    exx, gxx, _, _, e, g, _, _, pref = args
    fu = (np.arctan((k1_hi + v - exx) / gxx)
          - np.arctan((k1_lo + v - exx) / gxx)) / gxx
    expected = pref * fu / ((v - (e + 1j * g)) * (v - (e - 1j * g)))
    np.testing.assert_allclose(got, expected.real, rtol=1e-14)


# ---------------------------------------------------------------- memory

def test_long_sweep_memory_stays_bounded():
    grid = np.linspace(-0.4, 0.4, 1601)
    p = scheme_preset(1)
    sweep_gamma(p, "LP-LP", deltas=grid[:40], workers=1)  # warm node cache
    tracemalloc.start()
    try:
        curve = sweep_gamma(p, "LP-LP", deltas=grid, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(curve.rows) == grid.size
    assert peak < 2_000_000, f"peak traced memory {peak / 1e6:.2f} MB"


def traced_peak(boxes, quad):
    tracemalloc.start()
    try:
        values = pairstate._overlap_boxes(boxes, quad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, values


def test_refining_box_in_a_large_batch_keeps_its_own_memory():
    # 95 narrow boxes converge within a few passes; a cross box 2 meV off
    # the lines keeps splitting to ~2000 panels and fails.  Once the
    # others are done, each pass should cost what that box costs alone.
    quad = QuadratureSpec(rel_tol=1e-13, max_refinements=10)
    p = scheme_preset(2)
    h, v = pairing_channels(enumerate_channels(p), "LP-LP")
    c1, c2 = h.photon1 + 2.0, h.photon2 + 2.0
    far = (h, v, c1 - 0.005, c1 + 0.005, c2 - 0.005, c2 + 0.005)
    others = []
    for delta in np.linspace(-0.3, 0.32, 32):
        at = p.with_detuning(float(delta))
        ch_a, ch_b = pairing_channels(enumerate_channels(at), "LP-LP")
        w = tracked_window(at, "LP-LP", 2e-4)
        for x, y in ((ch_a, ch_a), (ch_b, ch_b), (ch_a, ch_b)):
            others.append((x, y, *w.k1_interval, *w.k2_interval))
    others = others[:95]
    pairstate._overlap_boxes(others[:3], quad)  # warm node cache
    peak_others, alone = traced_peak(others, quad)
    peak_far, far_alone = traced_peak([far], quad)
    peak_both, both = traced_peak(others + [far], quad)
    assert isinstance(far_alone[0], ConvergenceError)
    assert "panels=2" in str(far_alone[0])  # refined to thousands of panels
    assert all(same_outcome(x, y) for x, y in zip(both, alone + far_alone))
    assert peak_both < peak_others + peak_far, (
        f"batch peak {peak_both / 1e6:.2f} MB, parts "
        f"{peak_others / 1e6:.2f} + {peak_far / 1e6:.2f} MB")
