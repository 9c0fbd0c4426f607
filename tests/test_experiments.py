import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _corpus import golden_min, scheme3_crossing
from polcascade import experiments
from polcascade.cascade import enumerate_channels
from polcascade.errors import (ConvergenceError, EmptyWindowError,
                               ValidationError)
from polcascade.experiments import (FIGURE_IDS, SCHEME_PAIRING, SweepCurve,
                                    SweepRow, default_delta_grid, fig4_sweep,
                                    optimize_detuning, reproduce_figure,
                                    sweep_gamma, tracked_window,
                                    write_anticrossing_files,
                                    write_spectrum_files)
from polcascade.model import scheme_preset
from polcascade.pairstate import (DetectorWindow, gamma_prime,
                                  pairing_channels)
from polcascade.polariton import anticrossing_sweep, hypot, solve_polaritons


def read_csv(path):
    header, columns, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header.append(line)
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return header, columns, rows


def column(rows, columns, name):
    i = columns.index(name)
    return np.array([float(r[i]) for r in rows])


# --------------------------------------------------------------- windows

def test_tracked_window_centers_on_paired_lines():
    for scheme, pairing in ((1, "LP-LP"), (2, "LP-UP"), (3, "LP-LP")):
        p = scheme_preset(scheme).with_detuning(0.07)
        w = tracked_window(p, pairing, 0.2)
        ca, cb = pairing_channels(enumerate_channels(p), pairing)
        mid = 0.5 * (ca.intermediate.energy + cb.intermediate.energy)
        assert w.center2 == mid
        assert w.center1 == p.e_biexciton - mid
        assert w.width == 0.2


def test_default_grid_shape():
    g = default_delta_grid()
    assert g.size == 161
    assert g[0] == -0.4 and g[-1] == 0.4
    assert np.all(np.diff(g) > 0)


# ---------------------------------------------------------- sweep curves

def small_grid():
    return np.linspace(-0.05, 0.05, 9)


def test_sweep_rows_sorted_and_bounded():
    curve = sweep_gamma(scheme_preset(1), "LP-LP", deltas=small_grid())
    assert np.all(np.diff(curve.deltas) > 0)
    assert np.all(curve.abs_gamma <= 0.5 + 1e-9)
    peak = curve.rows[int(curve.abs_gamma.argmax())]
    assert peak.abs_gamma == curve.abs_gamma.max()


def test_sweep_curve_validation():
    def curve(deltas, gammas):
        n = len(deltas)
        return SweepCurve(deltas=np.array(deltas), gamma=np.array(gammas),
                          center1=np.full(n, 997.0),
                          center2=np.full(n, 1000.0), width=np.full(n, 0.2),
                          pairing="LP-LP", scheme=1)

    ok = curve([0.0, 0.1], [0.1 + 0j, 0.2j])
    assert ok.rows[1] == SweepRow(
        delta_cx=0.1, gamma=0.2j, pairing="LP-LP",
        window=DetectorWindow(center1=997.0, center2=1000.0, width=0.2))
    assert ok.rows[int(ok.abs_gamma.argmax())] == ok.rows[1]
    with pytest.raises(ValidationError, match="strictly increasing"):
        curve([0.0, -0.1], [0.1 + 0j, 0.1 + 0j])
    with pytest.raises(ValidationError, match="bound"):
        curve([0.0, 0.1], [0.1 + 0j, 0.52 + 0j])


def test_fig4_sweep_builds_no_window_or_row_objects(monkeypatch):
    built = []
    window_init = DetectorWindow.__post_init__
    row_init = SweepRow.__init__

    def counted_window(self):
        built.append("window")
        window_init(self)

    def counted_row(self, *args, **kwargs):
        built.append("row")
        row_init(self, *args, **kwargs)

    monkeypatch.setattr(DetectorWindow, "__post_init__", counted_window)
    monkeypatch.setattr(SweepRow, "__init__", counted_row)
    curve = fig4_sweep(2)
    assert built == []
    assert len(curve.rows) == 161       # the view builds them on demand
    assert built.count("row") == built.count("window") == 161


@pytest.mark.parametrize("deltas", [
    [],
    [0.0, 0.0, 0.1],
    [0.1, 0.0],
    [[0.0, 0.1]],
    [0.0, math.inf],
])
def test_sweep_rejects_bad_grids(deltas):
    with pytest.raises(ValidationError):
        sweep_gamma(scheme_preset(1), "LP-LP", deltas=deltas)


@pytest.mark.parametrize("deltas, message", [
    ([], "detuning grid is empty"),
    ([[0.0, 0.1]], "detuning grid must be 1-d, got shape (1, 2)"),
    (["x"], "detuning grid must hold only numbers"),
    ([0.0, math.nan], "detuning grid must be finite, got nan at index 1"),
    ([0.0, -math.inf], "detuning grid must be finite, got -inf at index 1"),
    ([0.0, 0.0, 0.1], "detuning grid must be strictly increasing, got 0.0 "
                      "then 0.0 at index 1"),
    ([0.1, 0.0], "detuning grid must be strictly increasing"),
], ids=["empty", "2-d", "text", "nan", "inf", "repeat", "falling"])
def test_both_sweeps_refuse_a_bad_grid_alike(deltas, message):
    p = scheme_preset(1)
    errors = []
    for sweep in (lambda: sweep_gamma(p, "LP-LP", deltas=deltas),
                  lambda: anticrossing_sweep(p, deltas)):
        with pytest.raises(ValidationError) as exc:
            sweep()
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith(message)


def test_fig4_scheme_pairings():
    assert SCHEME_PAIRING == {1: "LP-LP", 2: "LP-UP", 3: "LP-LP"}
    for scheme in (1, 2, 3):
        curve = fig4_sweep(scheme, deltas=np.linspace(-0.01, 0.01, 3))
        assert curve.scheme == scheme
        assert all(r.pairing == SCHEME_PAIRING[scheme] for r in curve.rows)
    with pytest.raises(ValidationError):
        fig4_sweep(4)


def test_scheme1_curve_peaks_near_zero():
    curve = fig4_sweep(1, deltas=small_grid())
    peak = curve.rows[int(curve.abs_gamma.argmax())]
    assert peak.abs_gamma >= 0.45
    assert abs(peak.delta_cx) <= 0.05


def test_scheme3_curve_asymmetric_about_crossing():
    # The LP channel is cavity-like (broad) left of the crossing and
    # exciton-like (narrow) right of it, so the left side overlaps more.
    crossing = scheme3_crossing()
    p = scheme_preset(3)
    lw = {}
    for delta in (-0.4, 0.4):
        chans = {(c.pol, c.branch): c
                 for c in enumerate_channels(p.with_detuning(delta))}
        lw[delta] = chans[("H", "LP")].intermediate.linewidth
    assert lw[-0.4] > lw[0.4]
    curve = fig4_sweep(3, deltas=np.linspace(-0.4, 0.4, 17))
    left = curve.abs_gamma[curve.deltas < crossing]
    right = curve.abs_gamma[curve.deltas > crossing]
    assert left.mean() > right.mean()


def test_window_doubling_at_scheme1_optimum_barely_matters():
    delta, best = optimize_detuning(1, lo=-0.1, hi=0.1)
    p = scheme_preset(1).with_detuning(delta)
    wide = tracked_window(p, "LP-LP", 0.4)
    at_wide = abs(gamma_prime(p, "LP-LP", wide).gamma)
    assert abs(at_wide - best) < 0.05


# ------------------------------------------------------ optimize_detuning

def test_optimize_scheme1_near_zero():
    delta, val = optimize_detuning(1, lo=-0.1, hi=0.1)
    assert abs(delta) <= 0.02
    assert val >= 0.45
    assert_allclose(val, 0.4557411616327495, atol=1e-6)


def test_optimize_scheme3_near_crossing_on_its_side():
    delta, val = optimize_detuning(3, lo=0.1, hi=0.4)
    assert abs(delta - scheme3_crossing()) <= 0.02
    assert val > 0.15


def test_optimize_scheme3_default_range_matches_sweep_peak():
    # Over the full grid the broad-line side wins, so the global optimum
    # sits left of the crossing; the sweep maximum is the oracle.
    delta, val = optimize_detuning(3)
    curve = fig4_sweep(3, deltas=np.linspace(-0.25, -0.12, 27))
    peak = curve.rows[int(curve.abs_gamma.argmax())]
    assert abs(delta - peak.delta_cx) <= 0.005 + 1e-4
    assert val >= peak.abs_gamma - 1e-9


def golden_optimum(scheme, lo, hi):
    """optimize_detuning as it was before the array zoom: the 50-point
    scan, golden section over one-point gamma_prime calls, and the scan
    point when it beats the refinement."""
    params = scheme_preset(scheme)
    pairing = SCHEME_PAIRING[scheme]

    def objective(delta):
        at = params.with_detuning(delta)
        return abs(gamma_prime(at, pairing, tracked_window(at, pairing)).gamma)

    xs = np.linspace(lo, hi, 50)
    vals = [objective(float(x)) for x in xs]
    best = int(np.argmax(vals))
    delta, neg = golden_min(lambda d: -objective(d), float(xs[max(0, best - 1)]),
                            float(xs[min(len(xs) - 1, best + 1)]), xtol=1e-4)
    if -neg < vals[best]:
        return float(xs[best]), vals[best]
    return delta, -neg


@pytest.mark.parametrize("scheme", [1, 2, 3])
@pytest.mark.parametrize("lo, hi", [(-0.4, 0.4), (0.1, 0.4), (-0.1, 0.1)])
def test_optimize_matches_golden_section_reference(scheme, lo, hi):
    delta, val = optimize_detuning(scheme, lo=lo, hi=hi)
    ref_delta, ref_val = golden_optimum(scheme, lo, hi)
    assert abs(delta - ref_delta) <= 1e-4
    assert abs(val - ref_val) <= 1e-8
    # The value reported is gamma_prime's at the returned detuning.
    at = scheme_preset(scheme).with_detuning(delta)
    pairing = SCHEME_PAIRING[scheme]
    g = gamma_prime(at, pairing, tracked_window(at, pairing)).gamma
    assert val == hypot(g.real, g.imag)


def test_optimize_runs_on_array_sweeps_only(monkeypatch):
    def one_point(*args, **kwargs):
        raise AssertionError("optimize_detuning made a one-point call")

    monkeypatch.setattr(experiments, "tracked_window", one_point)
    monkeypatch.setattr(experiments, "gamma_prime", one_point)
    delta, val = optimize_detuning(3, lo=0.1, hi=0.4)
    assert abs(delta - scheme3_crossing()) <= 0.02
    fixed = DetectorWindow(center1=997.12, center2=999.88, width=0.4)
    optimize_detuning(1, lo=-0.1, hi=0.1, window=fixed)


@pytest.mark.parametrize("kwargs", [
    dict(scheme=5),
    dict(scheme=1, lo=0.2, hi=0.1),
    dict(scheme=1, lo=0.0, hi=math.inf),
])
def test_optimize_rejects(kwargs):
    with pytest.raises(ValidationError):
        optimize_detuning(**kwargs)


def test_optimize_flat_objective_errors():
    with pytest.raises(ConvergenceError):
        optimize_detuning(1, lo=0.1, hi=0.1 + 1e-13)
    far = DetectorWindow(center1=1e150, center2=1e150, width=0.2)
    with pytest.raises(EmptyWindowError):
        optimize_detuning(1, window=far)


# --------------------------------------------------------------- figures

def test_figure_ids():
    assert FIGURE_IDS == ("2a", "3a", "1c", "2c", "3c", "4")
    with pytest.raises(ValidationError):
        reproduce_figure("9z", out_dir=".")


def test_anticrossing_figure_contents(tmp_path):
    paths = reproduce_figure("2a", out_dir=str(tmp_path))
    assert [os.path.basename(p) for p in paths] == ["fig2a.csv", "fig2a.svg"]
    header, columns, rows = read_csv(paths[0])
    assert columns == ["delta_cx_mev", "E_H_LP", "E_H_UP", "E_V_LP",
                       "E_V_UP", "xex2_H_LP", "xex2_H_UP", "xex2_V_LP",
                       "xex2_V_UP"]
    assert len(rows) == 161
    gap_h = column(rows, columns, "E_H_UP") - column(rows, columns, "E_H_LP")
    gap_v = column(rows, columns, "E_V_UP") - column(rows, columns, "E_V_LP")
    assert_allclose(min(gap_h.min(), gap_v.min()), 0.22, atol=1e-9)
    text = "\n".join(header)
    assert "scheme = 2" in text
    assert "workers" not in text


def test_anticrossing_csv_matches_point_solutions(tmp_path):
    # The exciton fractions are squared on the way to the file as
    # x_ex * x_ex, and read back bit for bit.
    p = scheme_preset(2)
    deltas = np.linspace(-0.4, 0.4, 9)
    csv_path = str(tmp_path / "anticrossing.csv")
    paths, states = write_anticrossing_files(csv_path, p, deltas, ["levels"],
                                             "levels", svg=False)
    assert paths == [csv_path]
    assert states.energy.shape == (4, deltas.size)
    _, columns, rows = read_csv(csv_path)
    assert column(rows, columns, "delta_cx_mev").tolist() == deltas.tolist()
    for i, delta in enumerate(deltas.tolist()):
        for s in solve_polaritons(p.with_detuning(delta)):
            cell = rows[i][columns.index(f"xex2_{s.pol}_{s.branch}")]
            assert float(cell) == s.x_ex * s.x_ex
            cell = rows[i][columns.index(f"E_{s.pol}_{s.branch}")]
            assert float(cell) == s.energy


def test_svg_beside_a_csv_path_without_extension(tmp_path):
    # The SVG takes the CSV path less its extension, if any, so a path
    # without one never yields a hidden file named ".svg".
    p = scheme_preset(1)
    levels, spec = str(tmp_path / "levels"), str(tmp_path / "spec")
    paths, _ = write_anticrossing_files(levels, p, np.linspace(-0.1, 0.1, 3),
                                        ["levels"], "levels")
    assert paths == [levels, levels + ".svg"]
    grid = np.linspace(997.0, 1001.0, 11)
    assert write_spectrum_files(spec, p, grid, ["spectrum"],
                                "spectrum") == [spec, spec + ".svg"]
    assert sorted(os.listdir(tmp_path)) == ["levels", "levels.svg", "spec",
                                            "spec.svg"]


def test_spectrum_figure_four_peaks_per_polarization(tmp_path):
    paths = reproduce_figure("3c", out_dir=str(tmp_path), svg=False)
    assert [os.path.basename(p) for p in paths] == ["fig3c.csv"]
    header, columns, rows = read_csv(paths[0])
    assert columns == ["energy_mev", "intensity_H", "intensity_V"]
    e = column(rows, columns, "energy_mev")
    for name in ("intensity_H", "intensity_V"):
        y = column(rows, columns, name)
        interior = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])
        peaks = e[1:-1][interior]
        # merge maxima closer than 10 grid steps
        distinct = 1 + int(np.sum(np.diff(peaks) > 10 * (e[1] - e[0])))
        assert distinct == 4, name


def test_figure_outputs_are_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for fig in ("2a", "1c"):
        pa = reproduce_figure(fig, out_dir=str(a))
        pb = reproduce_figure(fig, out_dir=str(b))
        for fa, fb in zip(pa, pb):
            with open(fa, "rb") as fha, open(fb, "rb") as fhb:
                assert fha.read() == fhb.read(), fa


def test_figure_io_error_names_path():
    with pytest.raises(OSError, match="fig2a|/dev/null"):
        reproduce_figure("2a", out_dir="/dev/null/nope")
