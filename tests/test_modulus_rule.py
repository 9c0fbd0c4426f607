"""One modulus rule: polariton.hypot, CPython's math.hypot per element.

Every |gamma| the package reports, writes or compares, and the Rabi level
spacing, goes through polariton.hypot.  These tests hold it to 200-bit
arithmetic, tie the sweep and row views of |gamma'| to it, check that the
1/2 bound is still enforced where each result is built, and keep a second
rule (np.hypot, or math.hypot outside the helper) out of the source.
"""
import ast
import math
import os
import warnings

import mpmath
import numpy as np
import pytest

from polcascade import experiments, kernels
from polcascade.errors import ValidationError
from polcascade.experiments import (SweepCurve, optimize_detuning,
                                    sweep_gamma, tracked_window)
from polcascade.model import scheme_preset
from polcascade.pairstate import gamma_prime
from polcascade.polariton import hypot

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "polcascade")


def random_gammas(n=2000, seed=20261019):
    """n complex numbers uniform in the disk |gamma| <= 1/2."""
    rng = np.random.default_rng(seed)
    r = 0.5 * np.sqrt(rng.random(n))
    t = 2 * np.pi * rng.random(n)
    return r * np.cos(t) + 1j * (r * np.sin(t))


def correctly_rounded(gammas):
    with mpmath.workprec(200):
        return np.array([float(mpmath.sqrt(mpmath.mpf(x) ** 2
                                           + mpmath.mpf(y) ** 2))
                         for x, y in zip(gammas.real.tolist(),
                                         gammas.imag.tolist())])


def test_hypot_rounds_correctly():
    gammas = random_gammas()
    exact = correctly_rounded(gammas)
    got = hypot(gammas.real, gammas.imag)
    assert got.dtype == np.float64 and got.shape == gammas.shape
    assert np.flatnonzero(got != exact).tolist() == []
    # Two numbers give a float; a 2-d array keeps its shape.
    assert type(hypot(3.0, 4.0)) is float and hypot(3.0, 4.0) == 5.0
    square = gammas[:4].reshape(2, 2)
    assert hypot(square.real, square.imag).tolist() == (
        exact[:4].reshape(2, 2).tolist())
    assert hypot(np.array([3.0, 0.0]), 4.0).tolist() == [5.0, 4.0]


def test_hypot_of_nan_is_silent_nan():
    # math.hypot returns NaN without a warning; so does the array branch.
    x = np.array([np.nan, 3.0, np.inf])
    y = np.array([1.0, 4.0, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hypot(x, y)
    assert got[0] != got[0] and got[1:].tolist() == [5.0, math.inf]


def test_sweep_and_row_moduli_are_correctly_rounded():
    gammas = random_gammas()
    n = gammas.size
    curve = SweepCurve(deltas=np.arange(n, dtype=float), gamma=gammas,
                       center1=np.full(n, 997.0), center2=np.full(n, 1000.0),
                       width=np.full(n, 0.2), pairing="LP-LP")
    exact = correctly_rounded(gammas)
    assert curve.abs_gamma.tolist() == exact.tolist()
    assert [row.abs_gamma for row in curve.rows] == exact.tolist()


def test_each_curve_takes_one_modulus_pass(monkeypatch, tmp_path):
    calls = []

    def counted(x, y):
        calls.append(np.shape(x))
        return hypot(x, y)

    monkeypatch.setattr(experiments, "hypot", counted)
    curve = sweep_gamma(scheme_preset(1), "LP-LP",
                        deltas=np.linspace(-0.1, 0.1, 5))
    assert curve.abs_gamma.tolist() == hypot(curve.gamma.real,
                                             curve.gamma.imag).tolist()
    curve.rows[int(curve.abs_gamma.argmax())]
    assert calls == [(5,)]
    # The bound check, the fig4 CSV and the fig4 SVG read one pass each.
    calls.clear()
    experiments._figure_gamma_curves(str(tmp_path), svg=True)
    assert calls == [(161,)] * 3
    # optimize's objective reads the pass of each sweep.
    sweeps = []
    monkeypatch.setattr(experiments, "sweep_gamma",
                        lambda *a, **k: sweeps.append(1) or sweep_gamma(*a, **k))
    calls.clear()
    optimize_detuning(1, lo=-0.05, hi=0.05)
    assert len(calls) == len(sweeps) > 1


def test_bound_is_checked_where_each_result_is_built(monkeypatch):
    window_overlaps = kernels.window_overlaps

    def past_the_bound(*args):
        # A cross overlap as large as both self overlaps: |gamma'| = 1.
        self_a, self_b, _ = window_overlaps(*args)
        return self_a, self_b, (self_a + self_b).astype(complex)

    params = scheme_preset(1)
    w = tracked_window(params, "LP-LP")
    monkeypatch.setattr(kernels, "window_overlaps", past_the_bound)
    with pytest.raises(ValidationError, match="1/2 bound"):
        gamma_prime(params, "LP-LP", w)
    with pytest.raises(ValidationError, match="1/2 bound"):
        sweep_gamma(params, "LP-LP", deltas=np.linspace(-0.1, 0.1, 5))


def attribute_path(node):
    """"a.b.c" for an attribute chain of names, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def test_one_modulus_rule_in_the_source():
    found = []
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, filename)) as fh:
            tree = ast.parse(fh.read())
        helper = set()
        if filename == "polariton.py":
            helper = {id(node) for fn in tree.body
                      if isinstance(fn, ast.FunctionDef) and fn.name == "hypot"
                      for node in ast.walk(fn)}
        for node in ast.walk(tree):
            where = f"{filename}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.ImportFrom) and node.module in (
                    "math", "numpy"):
                found += [f"{where} imports {node.module}.hypot"
                          for alias in node.names if alias.name == "hypot"]
            path = attribute_path(node)
            if path in ("np.hypot", "numpy.hypot"):
                found.append(f"{where} uses {path}")
            elif path == "math.hypot" and id(node) not in helper:
                found.append(f"{where} uses math.hypot outside the helper")
            # abs or np.abs of a gamma: its modulus goes through hypot.
            if (isinstance(node, ast.Call)
                    and (attribute_path(node.func) in ("np.abs", "numpy.abs")
                         or isinstance(node.func, ast.Name)
                         and node.func.id == "abs")
                    and any("gamma" in ast.unparse(arg).lower()
                            for arg in node.args)):
                found.append(f"{where} takes {ast.unparse(node)}")
    assert not found, found
