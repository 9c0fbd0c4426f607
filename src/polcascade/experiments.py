"""Scripted sweeps, spectra, and detuning optimization.

Reproduces the headline result sets: polariton anticrossings versus
cavity-exciton detuning, two-polarization luminescence spectra at the
level-matching detunings, and the filtered-coherence |gamma'| curves for
the three schemes.

Detector windows track the swept levels: center2 sits at the mean of the
two paired intermediate-state energies and center1 at E_XX - center2,
recomputed at every detuning.  Both target lines sit symmetrically about
the window centers, and inside the acceptance only while they are closer
together than the window width.  Farther apart, the window holds neither
line and |gamma'| comes from the Lorentzian tails: scheme 3 at the
default 0.2 meV width does this for negative detunings, where its two LP
lines are 0.20-0.45 meV apart.  Such points are computed like any other,
without a warning.

A sweep runs in contiguous chunks of up to one standard grid (161
points), so a default sweep is one chunk and one array pass:
cascade.channel_arrays solves the channels, the window-center arrays and
their validity follow from them, and pairstate.gamma_prime_arrays
integrates every overlap in one exact kernels.window_overlaps call.  A
SweepCurve keeps these arrays; its rows view builds SweepRows on demand,
each equal to gamma_prime at its detuning bit for bit.  Longer grids
run one chunk after another in this process; results are identical for
any chunk size.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .cascade import (STATE_ORDER, _write_rows_csv, channel_arrays,
                      enumerate_channels, pl_spectrum, write_spectrum_csv)
from .errors import ConvergenceError, ValidationError
from .model import SystemParams, scheme_id, scheme_preset
from .pairstate import (DetectorWindow, gamma_prime, gamma_prime_arrays,
                        invalid_windows, normalize_pairing, pairing_labels)
from .polariton import (PolaritonArrays, _golden_min, anticrossing_sweep,
                        detuning_grid, find_crossings, per_element)
from .svg import line_plot

# Branch pairing correlated in each scheme's coherence curve; scheme 2
# pairs the H lower polariton with the V upper polariton.
SCHEME_PAIRING = {1: "LP-LP", 2: "LP-UP", 3: "LP-LP"}

FIGURE_IDS = ("2a", "3a", "1c", "2c", "3c", "4")

_GRID_LO = -0.4
_GRID_HI = 0.4
_GRID_POINTS = 161

# Grid points per batched overlap call: one standard grid, so a default
# sweep pays the per-call work (channel solve, window checks, kernel
# setup) once.  Longer grids run in chunks of this size, which bounds
# their memory.
_CHUNK_POINTS = _GRID_POINTS


def default_delta_grid() -> np.ndarray:
    """Standard detuning grid: 161 points over [-0.4, 0.4] meV."""
    return np.linspace(_GRID_LO, _GRID_HI, _GRID_POINTS)


def tracked_window(params: SystemParams, pairing: str,
                   width: float = 0.2) -> DetectorWindow:
    """Detector window centered on the paired lines at this detuning.

    width is the full width in meV.  The window holds both paired lines
    only while they are at most width apart; otherwise it holds neither.
    """
    center1, center2 = _tracked_windows(
        params, channel_arrays(params, [params.cav_mean]), pairing, width)
    return DetectorWindow(center1=center1.item(), center2=center2.item(),
                          width=width)


def _tracked_windows(params: SystemParams, channels, pairing: str, width):
    """The center1 and center2 arrays of the tracked window at every point
    of a channel array.

    center2 sits at the mean of the two paired polariton energies and
    center1 at E_XX - center2.  The first point with vanished branching
    weights or an invalid window raises, weights first.
    """
    row_a, row_b = (STATE_ORDER.index(label)
                    for label in pairing_labels(pairing))
    energy = channels.states.energy
    center2 = 0.5 * (energy[row_a] + energy[row_b])
    center1 = params.e_biexciton - center2
    bad = channels.vanished | invalid_windows(center1, center2, width)
    if bad.any():
        i = int(bad.argmax())
        channels.check(i)
        # Fails with the window's own ValidationError.
        DetectorWindow(center1=center1.item(i), center2=center2.item(i),
                       width=width)
    return center1, center2


@dataclass(frozen=True)
class SweepRow:
    """Filtered coherence at one detuning."""

    delta_cx: float
    gamma: complex
    window: DetectorWindow
    pairing: str

    @property
    def abs_gamma(self) -> float:
        return abs(self.gamma)


@dataclass(frozen=True, eq=False)
class SweepCurve:
    """|gamma'| versus detuning for one scheme.  Point i has detuning
    deltas[i], coherence gamma[i] and the window with centers center1[i],
    center2[i] and full width width[i]."""

    deltas: np.ndarray
    gamma: np.ndarray
    center1: np.ndarray
    center2: np.ndarray
    width: np.ndarray
    pairing: str
    scheme: int = 0

    def __post_init__(self):
        if np.any(np.diff(self.deltas) <= 0):
            raise ValidationError("sweep rows must be sorted by detuning")
        if np.any(self.abs_gamma > 0.5 + 1e-9):
            raise ValidationError("a sweep row violates the |gamma'| <= 1/2 bound")

    @property
    def abs_gamma(self) -> np.ndarray:
        # hypot, as Python's abs of a complex; np.abs differs in the last bit.
        return np.hypot(self.gamma.real, self.gamma.imag)

    @property
    def rows(self) -> tuple:
        """The points as SweepRows, built on each access."""
        windows = map(DetectorWindow, self.center1.tolist(),
                      self.center2.tolist(), self.width.tolist())
        return tuple(map(SweepRow, self.deltas.tolist(), self.gamma.tolist(),
                         windows, [self.pairing] * self.deltas.size))

    def peak(self) -> SweepRow:
        """Row with the largest |gamma'|; builds only that row."""
        i = int(self.abs_gamma.argmax())
        window = DetectorWindow(self.center1.item(i), self.center2.item(i),
                                self.width.item(i))
        return SweepRow(self.deltas.item(i), self.gamma.item(i), window,
                        self.pairing)


def _sweep_point(task):
    """The gamma', center1, center2 and width arrays of one contiguous
    chunk of grid points.

    One array pass solves the chunk's channels and places its windows, and
    its overlaps go through one kernels.window_overlaps call.  The name
    predates chunking; the benchmark's tracer wraps it and reads params,
    deltas and pairing from the task tuple.
    """
    params, deltas, pairing, width, window = task
    channels = channel_arrays(params, params.ex_mean + np.array(deltas))
    if window is None:
        center1, center2 = _tracked_windows(params, channels, pairing, width)
    else:
        # Raises for the first point whose weights vanished, if any.
        channels.check(int(channels.vanished.argmax()))
        center1, center2 = (np.full(len(deltas), c)
                            for c in (window.center1, window.center2))
        width = window.width
    _, _, gamma = gamma_prime_arrays(channels, pairing, center1, center2,
                                     width)
    return gamma, center1, center2, np.broadcast_to(width, gamma.shape)


def sweep_gamma(params: SystemParams, pairing: str, deltas=None,
                width: float = 0.2, window: DetectorWindow | None = None,
                scheme: int = 0) -> SweepCurve:
    """Filtered coherence across a detuning grid for one branch pairing.

    The grid runs in chunks of up to _CHUNK_POINTS points, one after
    another.
    """
    pairing = normalize_pairing(pairing)
    grid = default_delta_grid() if deltas is None else detuning_grid(deltas)
    points = [float(d) for d in grid]
    chunks = [_sweep_point((params, points[i:i + _CHUNK_POINTS], pairing,
                            width, window))
              for i in range(0, len(points), _CHUNK_POINTS)]
    return SweepCurve(grid, *map(np.concatenate, zip(*chunks)), pairing,
                      scheme)


def fig4_sweep(scheme: int | str, deltas=None, width: float = 0.2,
               workers=None) -> SweepCurve:
    """The |gamma'|-versus-detuning curve for one scheme preset.

    scheme is an int or a name that scheme_id accepts.  workers is
    accepted and ignored: sweeps run in one process.  It stays only
    because the benchmark's fig4 workload passes workers=1.
    """
    scheme = scheme_id(scheme)
    return sweep_gamma(scheme_preset(scheme), SCHEME_PAIRING[scheme],
                       deltas=deltas, width=width, scheme=scheme)


def optimize_detuning(scheme: int | str, lo: float = _GRID_LO,
                      hi: float = _GRID_HI, width: float = 0.2,
                      scan_points: int = 50,
                      xtol: float = 1e-4,
                      window: DetectorWindow | None = None) -> tuple[float, float]:
    """Detuning maximizing |gamma'| for a scheme: scan, then golden section.

    Returns (delta_cx, abs_gamma).  A flat objective (for instance from a
    fixed window that misses every line) is refused rather than resolved
    to an arbitrary point.  The scan is one sweep_gamma call; the
    golden-section steps evaluate one point at a time.  scheme is an int
    or a name that scheme_id accepts.
    """
    scheme = scheme_id(scheme)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValidationError(f"invalid range ({lo!r}, {hi!r})")
    if scan_points < 3:
        raise ValidationError("scan_points must be >= 3")
    params = scheme_preset(scheme)
    pairing = SCHEME_PAIRING[scheme]

    def objective(delta: float) -> float:
        at = params.with_detuning(delta)
        w = window if window is not None else tracked_window(at, pairing, width)
        return abs(gamma_prime(at, pairing, w).gamma)

    xs = np.linspace(lo, hi, scan_points)
    # One array sweep; each point equals objective at its detuning.
    vals = sweep_gamma(params, pairing, deltas=xs, width=width,
                       window=window).abs_gamma.tolist()
    if max(vals) - min(vals) < 1e-12:
        raise ConvergenceError(
            "|gamma'| is flat over the scan range; no detuning optimum exists")
    best = int(np.argmax(vals))
    a = float(xs[max(0, best - 1)])
    b = float(xs[min(len(xs) - 1, best + 1)])
    delta, neg = _golden_min(lambda d: -objective(d), a, b, xtol)
    if -neg < vals[best]:
        return float(xs[best]), vals[best]
    return delta, -neg


def _provenance(figure: str, params: SystemParams, extra=()) -> list[str]:
    from . import __version__

    lines = [f"polcascade {__version__}", f"figure {figure}"]
    for field in fields(params):
        lines.append(f"{field.name} = {getattr(params, field.name)!r}")
    lines.extend(extra)
    return lines


def write_anticrossing_files(csv_path: str, params: SystemParams, deltas,
                             header_lines, title: str,
                             svg: bool = True) -> tuple[list[str], PolaritonArrays]:
    """Write the four polariton energies and exciton fractions across a
    detuning grid to csv_path and, with svg, plot the energies beside it.

    Returns the written paths and the PolaritonArrays of the grid (rows in
    STATE_ORDER).
    """
    deltas = np.asarray(deltas, dtype=float)
    states = anticrossing_sweep(params, deltas)
    energies = dict(zip(STATE_ORDER, states.energy))
    # pow, as the scalar x_ex ** 2; np.square differs in the last bit.
    x_ex2 = per_element(pow, states.x_ex, 2.0)
    _write_rows_csv(csv_path, header_lines, {
        "delta_cx_mev": deltas,
        **{f"E_{p}_{b}": e for (p, b), e in energies.items()},
        **{f"xex2_{p}_{b}": x for (p, b), x in zip(STATE_ORDER, x_ex2)}})
    paths = [csv_path]
    if svg:
        svg_path = csv_path[:-4] + ".svg"
        line_plot(svg_path, [(f"{p} {b}", deltas, e)
                             for (p, b), e in energies.items()],
                  title=title, xlabel="cavity-exciton detuning (meV)",
                  ylabel="energy (meV)")
        paths.append(svg_path)
    return paths, states


def spectrum_grid(params: SystemParams, margin: float = 0.5,
                  points: int = 4001) -> np.ndarray:
    """Energy grid from margin meV below the lowest line to above the
    highest."""
    lines = []
    for ch in enumerate_channels(params):
        lines.extend((ch.photon1, ch.photon2))
    return np.linspace(min(lines) - margin, max(lines) + margin, points)


def write_spectrum_files(csv_path: str, params: SystemParams, grid,
                         header_lines, title: str, svg: bool = True,
                         reference: str = "absolute") -> list[str]:
    """Write the emission spectrum on grid to csv_path and, with svg, plot
    it beside it.  Returns the written paths."""
    spectrum = pl_spectrum(params, grid, reference=reference)
    write_spectrum_csv(csv_path, spectrum, header_lines=header_lines)
    paths = [csv_path]
    if svg:
        svg_path = csv_path[:-4] + ".svg"
        line_plot(svg_path, [
            ("H", grid, spectrum.intensity_h),
            ("V", grid, spectrum.intensity_v),
        ], title=title, xlabel="photon energy (meV)",
            ylabel="intensity (1/meV)")
        paths.append(svg_path)
    return paths


def _scheme3_crossing() -> float:
    params = scheme_preset(3)
    scan = find_crossings(params, (("H", "LP"), ("V", "LP")), -0.5, 0.5,
                          tol=1e-9)
    if not scan.detunings:
        raise ConvergenceError("scheme 3 lower-polariton crossing not found")
    return scan.detunings[0]


def _figure_gamma_curves(out_dir: str, svg: bool) -> list[str]:
    paths = []
    curves = []
    for scheme in (1, 2, 3):
        curve = fig4_sweep(scheme)
        curves.append(curve)
        header = _provenance("fig4", scheme_preset(scheme), (
            f"scheme = {scheme}",
            f"pairing = {SCHEME_PAIRING[scheme]}",
            "window policy: center2 = mean paired polariton energy, "
            "center1 = E_XX - center2, tracked per point",
            "window width = 0.2 meV (full)",
            f"delta_cx grid = {_GRID_POINTS} points over [{_GRID_LO}, {_GRID_HI}] meV",
        ))
        csv_path = os.path.join(out_dir, f"fig4_scheme{scheme}.csv")
        _write_rows_csv(csv_path, header, {
            "delta_cx_mev": curve.deltas, "abs_gamma_prime": curve.abs_gamma,
            "re_gamma": curve.gamma.real, "im_gamma": curve.gamma.imag,
            "center1": curve.center1, "center2": curve.center2,
            "width": curve.width,
            "pairing": [curve.pairing] * curve.deltas.size})
        paths.append(csv_path)
    if svg:
        svg_path = os.path.join(out_dir, "fig4.svg")
        line_plot(svg_path, [
            (f"scheme {c.scheme}", c.deltas, c.abs_gamma) for c in curves
        ], title="Filtered pair coherence",
            xlabel="cavity-exciton detuning (meV)", ylabel="|gamma'|")
        paths.append(svg_path)
    return paths


def reproduce_figure(fig: str, out_dir: str = ".",
                     svg: bool = True) -> list[str]:
    """Write the CSV (and SVG) file set for one figure id.

    Returns the written paths.  Output bytes depend only on the inputs.
    """
    fig = str(fig).lower()
    if fig not in FIGURE_IDS:
        raise ValidationError(
            f"unknown figure {fig!r}; expected one of {', '.join(FIGURE_IDS)}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        if fig == "4":
            return _figure_gamma_curves(out_dir, svg)
        # The other ids are <scheme><panel>: a for levels, c for spectra.
        scheme, label = int(fig[0]), f"fig{fig}"
        csv_path = os.path.join(out_dir, f"{label}.csv")
        if fig.endswith("a"):
            params = scheme_preset(scheme)
            header = _provenance(label, params, (
                f"scheme = {scheme}",
                f"delta_cx grid = {_GRID_POINTS} points over [{_GRID_LO}, {_GRID_HI}] meV",
                "columns: absolute polariton energies and exciton fractions",
            ))
            return write_anticrossing_files(
                csv_path, params, default_delta_grid(), header,
                f"Polariton levels, scheme {scheme}", svg)[0]
        delta = _scheme3_crossing() if fig == "3c" else 0.0
        params = scheme_preset(scheme).with_detuning(delta)
        grid = spectrum_grid(params)
        header = _provenance(label, params, (
            f"scheme = {scheme}",
            f"delta_cx = {delta!r}",
            f"energy grid = {grid.size} points over "
            f"[{float(grid[0])!r}, {float(grid[-1])!r}] meV",
        ))
        return write_spectrum_files(csv_path, params, grid, header,
                                    f"Emission spectrum, scheme {scheme}", svg)
    except OSError as exc:
        raise OSError(f"writing figure {fig} under {out_dir!r}: {exc}") from exc


def reproduce_all(out_dir: str = ".", svg: bool = True) -> list[str]:
    """All six figure file sets."""
    paths = []
    for fig in FIGURE_IDS:
        paths.extend(reproduce_figure(fig, out_dir, svg=svg))
    return paths
