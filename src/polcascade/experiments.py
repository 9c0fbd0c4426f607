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
any chunk size.  optimize_detuning takes the same path: scan, then zoom
by array sweeps.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

import numpy as np

from .cascade import (STATE_ORDER, _write_rows_csv, channel_arrays,
                      enumerate_channels, pl_spectrum, write_spectrum_csv)
from .errors import ConvergenceError, ValidationError
from .model import (SystemParams, _require_count, _require_finite,
                    _require_grid, _require_positive, _require_range,
                    scheme_id, scheme_preset)
# gamma_prime is not called here; it is imported only so that the
# benchmark tracer's experiments site resolves.
from .pairstate import (_GAMMA_BOUND, DetectorWindow,  # noqa: F401
                        gamma_prime, gamma_prime_arrays, invalid_windows,
                        normalize_pairing, pairing_labels)
from .polariton import (PolaritonArrays, _zoom_min, anticrossing_sweep,
                        find_crossings, hypot)
from .svg import line_plot

# Branch pairing correlated in each scheme's coherence curve; scheme 2
# pairs the H lower polariton with the V upper polariton.
SCHEME_PAIRING = {1: "LP-LP", 2: "LP-UP", 3: "LP-LP"}

FIGURE_IDS = ("2a", "3a", "1c", "2c", "3c", "4")

# Defaults of the library, the figures and the CLI (energies in meV).
_GRID_LO = -0.4
_GRID_HI = 0.4
_GRID_POINTS = 161
_WINDOW_WIDTH = 0.2
_SPECTRUM_MARGIN = 0.5
_SPECTRUM_POINTS = 4001
# Evenly spaced detunings of optimize_detuning's first scan.
_SCAN_POINTS = 50

# Grid points per batched overlap call: one standard grid, so a default
# sweep pays the per-call work (channel solve, window checks, kernel
# setup) once.  Longer grids run in chunks of this size, which bounds
# their memory.
_CHUNK_POINTS = _GRID_POINTS


def default_delta_grid() -> np.ndarray:
    """The standard grid: _GRID_POINTS detunings over [_GRID_LO, _GRID_HI]."""
    return np.linspace(_GRID_LO, _GRID_HI, _GRID_POINTS)


def tracked_window(params: SystemParams, pairing: str,
                   width: float = _WINDOW_WIDTH) -> DetectorWindow:
    """Detector window centered on the paired lines at this detuning.

    width is the full width in meV.  The window holds both paired lines
    only while they are at most width apart; otherwise it holds neither.
    """
    center1, center2 = _tracked_windows(
        channel_arrays(params, [params.cav_mean]), pairing, width)
    return DetectorWindow(center1=center1.item(), center2=center2.item(),
                          width=width)


def _tracked_windows(channels, pairing: str, width):
    """The center1 and center2 arrays of the tracked window at every point
    of a channel array.

    center2 sits at the mean of the two paired polariton energies and
    center1 at E_XX - center2.  A bad width raises first; then the first
    point with vanished weights or an invalid window raises, weights first.
    """
    _require_positive("width", _require_finite("width", width))
    row_a, row_b = (STATE_ORDER.index(label)
                    for label in pairing_labels(pairing))
    energy = channels.states.energy
    center2 = 0.5 * (energy[row_a] + energy[row_b])
    center1 = channels.e_biexciton - center2
    bad = (channels.vanished | ~np.isfinite(center1) | ~np.isfinite(center2)
           | invalid_windows(center1, center2, width))
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
        return hypot(self.gamma.real, self.gamma.imag)


@dataclass(frozen=True, eq=False)
class SweepCurve:
    """|gamma'| versus detuning for one scheme.  Point i has detuning
    deltas[i], coherence gamma[i], |gamma'| abs_gamma[i] and the window
    with centers center1[i], center2[i] and full width width[i].
    abs_gamma is taken once, by polariton.hypot, as rows[i].abs_gamma."""

    deltas: np.ndarray
    gamma: np.ndarray
    center1: np.ndarray
    center2: np.ndarray
    width: np.ndarray
    pairing: str
    scheme: int = 0
    abs_gamma: np.ndarray = field(init=False)

    def __post_init__(self):
        arrays = ("deltas", "gamma", "center1", "center2", "width")
        for name in arrays:
            if not isinstance(getattr(self, name), np.ndarray):
                raise ValidationError(f"{name} must be a NumPy array, got "
                                      f"{type(getattr(self, name)).__name__}")
        _require_grid("deltas", self.deltas)
        for name in arrays[1:]:
            if getattr(self, name).shape != self.deltas.shape:
                raise ValidationError(f"{name} must have the shape of deltas")
        object.__setattr__(self, "abs_gamma",
                           hypot(self.gamma.real, self.gamma.imag))
        if np.any(self.abs_gamma > _GAMMA_BOUND):
            raise ValidationError("a sweep row violates the |gamma'| <= 1/2 bound")

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
    chunk of grid points; deltas is a slice of the checked grid array.

    One array pass solves the chunk's channels and places its windows, and
    its overlaps go through one kernels.window_overlaps call.  The name
    predates chunking; the benchmark's tracer wraps it and reads params,
    deltas and pairing from the task tuple.
    """
    params, deltas, pairing, width, window = task
    channels = channel_arrays(params, params.ex_mean + deltas)
    if window is None:
        center1, center2 = _tracked_windows(channels, pairing, width)
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
                width: float = _WINDOW_WIDTH,
                window: DetectorWindow | None = None,
                scheme: int = 0) -> SweepCurve:
    """Filtered coherence across a detuning grid for one branch pairing.

    The grid runs in chunks of up to _CHUNK_POINTS points, one after
    another.
    """
    pairing = normalize_pairing(pairing)
    grid = (default_delta_grid() if deltas is None
            else _require_grid("detuning grid", deltas))
    chunks = [_sweep_point((params, grid[i:i + _CHUNK_POINTS], pairing,
                            width, window))
              for i in range(0, grid.size, _CHUNK_POINTS)]
    return SweepCurve(grid, *map(np.concatenate, zip(*chunks)), pairing,
                      scheme)


def fig4_sweep(scheme: int | str, deltas=None, width: float = _WINDOW_WIDTH,
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
                      hi: float = _GRID_HI, width: float = _WINDOW_WIDTH,
                      window: DetectorWindow | None = None) -> tuple[float, float]:
    """Detuning maximizing |gamma'| for a scheme: scan _SCAN_POINTS points,
    then zoom by array sweeps, each one sweep_gamma call.

    Returns (delta_cx, abs_gamma), abs_gamma equal to |gamma_prime| at
    delta_cx.  A flat objective (say, a fixed window that misses every
    line) is refused.  scheme is an int or a name scheme_id accepts.
    """
    scheme = scheme_id(scheme)
    _require_range("lo", "hi", lo, hi)
    params = scheme_preset(scheme)
    pairing = SCHEME_PAIRING[scheme]

    def neg_abs_gamma(deltas):
        return -sweep_gamma(params, pairing, deltas=deltas, width=width,
                            window=window).abs_gamma

    xs = np.linspace(lo, hi, _SCAN_POINTS)
    vals = neg_abs_gamma(xs)
    if vals.max() - vals.min() < 1e-12:
        raise ConvergenceError(f"|gamma'| is flat over lo = {lo!r}, "
                               f"hi = {hi!r}; no detuning optimum exists")
    best = int(np.argmin(vals))
    delta, neg = _zoom_min(neg_abs_gamma, xs.item(max(best - 1, 0)),
                           xs.item(min(best + 1, _SCAN_POINTS - 1)),
                           xtol=1e-4, span=(lo, hi))
    return delta, -neg


def _provenance(figure: str, params: SystemParams, extra=()) -> list[str]:
    from . import __version__

    lines = [f"polcascade {__version__}", f"figure {figure}"]
    for f in fields(params):
        lines.append(f"{f.name} = {getattr(params, f.name)!r}")
    lines.extend(extra)
    return lines


def _plot_beside(csv_path: str, svg: bool, series, title: str, xlabel: str,
                 ylabel: str) -> list[str]:
    """[csv_path] and, with svg, the path of the line_plot of series that
    it writes beside csv_path: the same name with .svg for its extension."""
    if not svg:
        return [csv_path]
    svg_path = os.path.splitext(csv_path)[0] + ".svg"
    line_plot(svg_path, series, title=title, xlabel=xlabel, ylabel=ylabel)
    return [csv_path, svg_path]


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
    x_ex2 = states.x_ex * states.x_ex
    _write_rows_csv(csv_path, header_lines, {
        "delta_cx_mev": deltas,
        **{f"E_{p}_{b}": e for (p, b), e in energies.items()},
        **{f"xex2_{p}_{b}": x for (p, b), x in zip(STATE_ORDER, x_ex2)}})
    return _plot_beside(csv_path, svg, [(f"{p} {b}", deltas, e)
                                        for (p, b), e in energies.items()],
                        title, "cavity-exciton detuning (meV)",
                        "energy (meV)"), states


def spectrum_grid(params: SystemParams, margin: float = _SPECTRUM_MARGIN,
                  points: int = _SPECTRUM_POINTS) -> np.ndarray:
    """Energy grid from margin meV below the lowest line to above the
    highest."""
    _require_finite("margin", margin)
    points = _require_count("points", points, 2)
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
    return _plot_beside(csv_path, svg, [("H", grid, spectrum.intensity_h),
                                        ("V", grid, spectrum.intensity_v)],
                        title, "photon energy (meV)", "intensity (1/meV)")


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
            f"window width = {_WINDOW_WIDTH} meV (full)",
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
