"""One input rule per kind, in model, named by the input it refuses.

Numbers, counts, seeds, ranges and grids are checked by model's
_require_* rules.  Each refusal below is a ValidationError whose message
names the argument; the accepted rows are inputs of those kinds that must
pass.  An ast guard keeps the rules in one module: math.isfinite, the
numbers module and isinstance tests against int, float or complex appear
only in model.py.
"""
import ast
import math
import os

import numpy as np
import pytest

from polcascade.cascade import enumerate_channels, pl_spectrum
from polcascade.entanglement import (TwoQubitDensityMatrix,
                                     born_probabilities, chsh_value,
                                     correlation, correlation_from_counts,
                                     optimal_chsh_angles, peres_test,
                                     sample_coincidences, x_state)
from polcascade.errors import ValidationError
from polcascade.experiments import (SweepCurve, optimize_detuning,
                                    spectrum_grid, sweep_gamma,
                                    tracked_window)
from polcascade.model import SystemParams, lifetime_to_linewidth, scheme_preset
from polcascade.pairstate import (DetectorWindow, QuadratureSpec, amplitude,
                                  brute_force_overlap, gamma_prime,
                                  pairing_channels)
from polcascade.polariton import find_crossings, min_gap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "polcascade")

p = scheme_preset(1)
pair = (("H", "LP"), ("V", "LP"))
rho = x_state(0.5, 0.5, 0.3)
window = tracked_window(p, "LP-LP")
ch_a, ch_b = pairing_channels(enumerate_channels(p), "LP-LP")


def sweep_curve(deltas, **fields):
    """A SweepCurve of the given detunings with valid other fields, save
    those given as keywords."""
    shape = np.shape(deltas)
    fields = {"gamma": np.full(shape, 0.1j), "center1": np.full(shape, 997.0),
              "center2": np.full(shape, 1000.0), "width": np.full(shape, 0.2),
              **fields}
    return SweepCurve(deltas=np.array(deltas), pairing="LP-LP", **fields)


# (name the message must hold, call)
REFUSED = {
    "find_crossings lo text": ("lo", lambda: find_crossings(p, pair, "a", 0.5)),
    "find_crossings hi nan": (
        "hi", lambda: find_crossings(p, pair, -0.5, math.nan)),
    "find_crossings tol zero": (
        "tol", lambda: find_crossings(p, pair, -0.5, 0.5, tol=0.0)),
    "min_gap lo above hi": ("lo", lambda: min_gap(p, pair, 0.5, -0.5)),
    "min_gap tol text": ("tol", lambda: min_gap(p, pair, -0.5, 0.5, tol="1")),
    "optimize lo None": ("lo", lambda: optimize_detuning(1, lo=None)),
    "optimize hi inf": ("hi", lambda: optimize_detuning(1, hi=math.inf)),
    "lifetime text": ("tau_ps", lambda: lifetime_to_linewidth("5")),
    "x_state population text": ("p_hh", lambda: x_state("0.5", 0.5, 0)),
    "x_state population nan": ("p_vv", lambda: x_state(0.5, math.nan, 0)),
    "x_state gamma text": ("gamma", lambda: x_state(0.5, 0.5, "a")),
    "x_state gamma nan": (
        "gamma", lambda: x_state(0.5, 0.5, complex(0.1, math.nan))),
    "pl_spectrum text grid": ("energy grid",
                              lambda: pl_spectrum(p, ["a", "b"])),
    "pl_spectrum one point": ("energy grid", lambda: pl_spectrum(p, [1.0])),
    "spectrum_grid points float": (
        "points", lambda: spectrum_grid(p, points=2.5)),
    "spectrum_grid points one": ("points", lambda: spectrum_grid(p, points=1)),
    "spectrum_grid margin nan": (
        "margin", lambda: spectrum_grid(p, margin=math.nan)),
    "sample n bool": (
        "n", lambda: sample_coincidences(rho, (0, 0.3), True, 1)),
    "brute_force n bool": (
        "n", lambda: brute_force_overlap(ch_a, ch_b, window, n=True)),
    "rel_tol text": ("rel_tol", lambda: QuadratureSpec(rel_tol="1e-9")),
    "rel_tol inf": ("rel_tol", lambda: QuadratureSpec(rel_tol=math.inf)),
    "params rabi inf": ("rabi", lambda: SystemParams(rabi=math.inf)),
    "born angle_a nan": (
        "angle_a", lambda: born_probabilities(rho, math.nan, 0.0)),
    "correlation angle_b inf": (
        "angle_b", lambda: correlation(rho, 0.0, math.inf)),
    "chsh angle nan": (
        "angle_a", lambda: chsh_value(rho, (0.0, math.nan, 0.1, -0.1))),
    "sample angle_a nan": (
        "angle_a", lambda: sample_coincidences(rho, (math.nan, 0.3), 10, 1)),
    "sample angle_b inf": (
        "angle_b", lambda: sample_coincidences(rho, (0.0, math.inf), 10, 1)),
    "counts 3x3": ("counts", lambda: correlation_from_counts(np.ones((3, 3)))),
    "counts negative": (
        "counts", lambda: correlation_from_counts([[1, -3], [0, 5]])),
    "counts nan": (
        "counts", lambda: correlation_from_counts([[1, math.nan], [0, 5]])),
    "counts inf": (
        "counts", lambda: correlation_from_counts([[1, math.inf], [0, 5]])),
    "counts text": (
        "counts", lambda: correlation_from_counts([["a", 1], [0, 5]])),
    "params rabi bool": ("rabi", lambda: SystemParams(rabi=True)),
    "lifetime bool": ("tau_ps", lambda: lifetime_to_linewidth(True)),
    "x_state population bool": ("p_hh", lambda: x_state(True, False, 0)),
    "amplitude k1 nan": ("k1", lambda: amplitude(ch_a, math.nan, 999.0)),
    "amplitude k1 inf": ("k1", lambda: amplitude(ch_a, math.inf, 999.0)),
    "amplitude k1 text": ("k1", lambda: amplitude(ch_a, "1", 2)),
    "amplitude k2 bool": ("k2", lambda: amplitude(ch_a, 997.0, True)),
    "chsh angles gamma nan": ("gamma", lambda: optimal_chsh_angles(math.nan)),
    "sample seed None": (
        "seed", lambda: sample_coincidences(rho, (0, 0.3), 10, None)),
    "sample seed bool": (
        "seed", lambda: sample_coincidences(rho, (0, 0.3), 10, True)),
    "sample seed negative": (
        "seed", lambda: sample_coincidences(rho, (0, 0.3), 10, -1)),
    "sample seed float": (
        "seed", lambda: sample_coincidences(rho, (0, 0.3), 10, 1.5)),
    "sample seed text": (
        "seed", lambda: sample_coincidences(rho, (0, 0.3), 10, "a")),
    "sample seed 2**63": (
        "seed", lambda: sample_coincidences(rho, (0, 0.3), 10, 2**63)),
    "sample seed empty list": (
        "seed", lambda: sample_coincidences(rho, (0, 0.3), 10, [])),
    "sample seed list with a bool": (
        "seed[1]", lambda: sample_coincidences(rho, (0, 0.3), 10, [0, False])),
    "sample seed list with a negative": (
        "seed[0]", lambda: sample_coincidences(rho, (0, 0.3), 10, [-1, 3])),
    "density matrix text": (
        "density matrix", lambda: TwoQubitDensityMatrix("abc")),
    "density matrix ragged": (
        "density matrix", lambda: TwoQubitDensityMatrix(
            [[1, 0, 0, 0], [0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])),
    "density matrix text entry": (
        "density matrix", lambda: TwoQubitDensityMatrix(
            [["a", 0, 0, 0]] + [[0, 0, 0, 0]] * 3)),
    "peres_test ragged": ("density matrix", lambda: peres_test([[1], [0, 0]])),
    "sample basis_pair one angle": (
        "basis_pair", lambda: sample_coincidences(rho, (0.1,), 10, 1)),
    "sample basis_pair scalar": (
        "basis_pair", lambda: sample_coincidences(rho, 0.3, 10, 1)),
    "sample basis_pair three angles": (
        "basis_pair", lambda: sample_coincidences(rho, (0.1, 0.2, 0.3), 10, 1)),
    "sample basis_pair None": (
        "basis_pair", lambda: sample_coincidences(rho, None, 10, 1)),
    "chsh angles three": (
        "angles", lambda: chsh_value(rho, (0.0, 0.1, 0.2))),
    "chsh angles five": (
        "angles", lambda: chsh_value(rho, (0.0, 0.1, 0.2, 0.3, 0.4))),
    "chsh angles scalar": ("angles", lambda: chsh_value(rho, 0.3)),
    "chsh angles None": ("angles", lambda: chsh_value(rho, None)),
    "window center1 bool": (
        "center1", lambda: DetectorWindow(True, 1000.0, 0.2)),
    "window center2 bool": (
        "center2", lambda: DetectorWindow(997.0, True, 0.2)),
    "window width bool": ("width", lambda: DetectorWindow(997.0, 1000.0, True)),
    "window width text": (
        "width", lambda: DetectorWindow(997.0, 1000.0, "0.2")),
    "tracked_window width bool": (
        "width", lambda: tracked_window(p, "LP-LP", True)),
    "sweep_gamma width bool": (
        "width", lambda: sweep_gamma(p, "LP-LP", [0.0, 0.1], width=True)),
    "optimize width bool": ("width", lambda: optimize_detuning(1, width=True)),
    "SweepCurve deltas nan": ("deltas", lambda: sweep_curve([0.0, math.nan])),
    "SweepCurve deltas inf": ("deltas", lambda: sweep_curve([0.0, math.inf])),
    "SweepCurve deltas 2-d": (
        "deltas", lambda: sweep_curve([[0.0, 0.1], [0.2, 0.3]])),
    "SweepCurve gamma longer": ("gamma", lambda: sweep_curve(
        [0.0, 0.1], gamma=np.array([0.1j, 0.2j, 0.45]))),
    "SweepCurve center1 shorter": (
        "center1", lambda: sweep_curve([0.0, 0.1], center1=np.full(1, 997.0))),
    "SweepCurve center2 longer": (
        "center2", lambda: sweep_curve([0.0, 0.1], center2=np.full(4, 1e3))),
    "SweepCurve width 2-d": (
        "width", lambda: sweep_curve([0.0, 0.1], width=np.full((2, 1), 0.2))),
    "SweepCurve gamma list": (
        "gamma", lambda: sweep_curve([0.0, 0.1], gamma=[0.1j, 0.2j])),
    "SweepCurve width tuple": (
        "width", lambda: sweep_curve([0.0, 0.1], width=(0.2, 0.2))),
    "SweepCurve deltas list": ("deltas", lambda: SweepCurve(
        [0.0, 0.1], *(np.full(2, v) for v in (0.1j, 997.0, 1e3, 0.2)),
        "LP-LP")),
}


@pytest.mark.parametrize("name, call", REFUSED.values(), ids=list(REFUSED))
def test_refusal_names_the_argument(name, call):
    with pytest.raises(ValidationError) as exc:
        call()
    assert name in str(exc.value)


def test_numpy_integer_counts_are_accepted():
    counts = sample_coincidences(rho, (0.0, 0.3), np.int64(10), 1)
    assert counts.sum() == 10
    assert np.array_equal(counts, sample_coincidences(rho, (0.0, 0.3), 10, 1))
    assert (brute_force_overlap(ch_a, ch_b, window, n=np.int64(10))
            == brute_force_overlap(ch_a, ch_b, window, n=10))


def test_accepted_edges():
    assert lifetime_to_linewidth(math.inf) == 0.0
    QuadratureSpec(rel_tol=1e-12)
    # A list seed, as the benchmark's study workload passes; a tuple or
    # NumPy integers draw the same counts.
    counts = sample_coincidences(rho, (0.0, 0.3), 10, [0, 3])
    assert counts.sum() == 10
    for seed in ((0, 3), [np.int64(0), np.uint8(3)]):
        assert np.array_equal(
            sample_coincidences(rho, (0.0, 0.3), 10, seed), counts)
    assert np.array_equal(sample_coincidences(rho, (0.0, 0.3), 10, 2**63 - 1),
                          sample_coincidences(rho, (0.0, 0.3), 10,
                                              np.uint64(2**63 - 1)))
    assert (x_state(0.5, 0.5, np.complex128(0.3 - 0.1j)).gamma
            == x_state(0.5, 0.5, 0.3 - 0.1j).gamma)
    assert correlation_from_counts([[3, 0], [0, 1]]) == 1.0
    # Angles come from any iterable of the right length.
    angles = optimal_chsh_angles(0.3)
    assert (chsh_value(rho, np.array(angles)) == chsh_value(rho, list(angles))
            == chsh_value(rho, iter(angles)) == chsh_value(rho, angles))
    assert np.array_equal(sample_coincidences(rho, [0.0, 0.3], 10, 1),
                          sample_coincidences(rho, np.array([0.0, 0.3]), 10, 1))


@pytest.mark.parametrize("kind", [np.int64, np.float32, np.float64])
def test_numpy_scalar_windows_are_stored_as_floats(kind):
    # 997, 1000 and 0.25 are exact in every kind; an integer width is 1.
    width = 1 if kind is np.int64 else 0.25
    plain = DetectorWindow(997.0, 1000.0, float(width))
    w = DetectorWindow(kind(997), kind(1000), kind(width))
    assert [type(v) for v in vars(w).values()] == [float] * 3
    assert w == plain
    assert (repr(gamma_prime(p, "LP-LP", w))
            == repr(gamma_prime(p, "LP-LP", plain)))
    assert (tracked_window(p, "LP-LP", kind(width))
            == tracked_window(p, "LP-LP", float(width)))


def test_rules_live_in_model():
    found = []
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py") or filename == "model.py":
            continue
        with open(os.path.join(PACKAGE, filename)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            where = f"{filename}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Import):
                found += [f"{where} imports numbers" for alias in node.names
                          if alias.name == "numbers"]
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numbers":
                    found.append(f"{where} imports from numbers")
                found += [f"{where} imports math.isfinite"
                          for alias in node.names
                          if node.module == "math" and alias.name == "isfinite"]
            elif (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "math"):
                found.append(f"{where} uses math.isfinite")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2):
                found += [f"{where} tests isinstance against {name.id}"
                          for name in ast.walk(node.args[1])
                          if isinstance(name, ast.Name)
                          and name.id in ("int", "float", "complex")]
    assert not found, found
