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

Grid points are pure, independent computations.  A sweep evaluates them
in contiguous chunks.  Each chunk is one array pass: cascade.channel_arrays
solves the channels at all of its detunings, the window centers follow
from those arrays, and pairstate.gamma_prime_arrays puts every self and
cross overlap of the chunk through one batched quadrature.  Each row
equals gamma_prime at its detuning bit for bit.  Chunks may be farmed out
to a process pool, and results are identical for any worker count or
chunk size.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .cascade import (STATE_ORDER, channel_arrays, enumerate_channels,
                      pl_spectrum, write_spectrum_csv)
from .errors import ConvergenceError, ValidationError
from .model import SystemParams, scheme_preset
from .pairstate import (DEFAULT_QUAD, DetectorWindow, QuadratureSpec,
                        gamma_prime, gamma_prime_arrays, normalize_pairing,
                        pairing_labels)
from .polariton import _golden_min, anticrossing_sweep, find_crossings
from .svg import line_plot

# Branch pairing correlated in each scheme's coherence curve; scheme 2
# pairs the H lower polariton with the V upper polariton.
SCHEME_PAIRING = {1: "LP-LP", 2: "LP-UP", 3: "LP-LP"}

FIGURE_IDS = ("2a", "3a", "1c", "2c", "3c", "4")

_GRID_LO = -0.4
_GRID_HI = 0.4
_GRID_POINTS = 161

# Grid points per batched quadrature call and per pool task.  Keeps a
# chunk's panel arrays small (~1k panels) while amortizing the per-call
# bookkeeping.
_CHUNK_POINTS = 32


def default_delta_grid() -> np.ndarray:
    """Standard detuning grid: 161 points over [-0.4, 0.4] meV."""
    return np.linspace(_GRID_LO, _GRID_HI, _GRID_POINTS)


def tracked_window(params: SystemParams, pairing: str,
                   width: float = 0.2) -> DetectorWindow:
    """Detector window centered on the paired lines at this detuning.

    width is the full width in meV.  The window holds both paired lines
    only while they are at most width apart; otherwise it holds neither.
    """
    return _tracked_windows(params, channel_arrays(params, [params.cav_mean]),
                            pairing, width)[0]


def _tracked_windows(params: SystemParams, channels, pairing: str,
                     width: float) -> list[DetectorWindow]:
    """The tracked window of every point of a channel array.

    center2 sits at the mean of the two paired polariton energies and
    center1 at E_XX - center2.  Points are checked in order, each for
    vanished branching weights before its window.
    """
    row_a, row_b = (STATE_ORDER.index(label)
                    for label in pairing_labels(pairing))
    energy = channels.states.energy
    center2 = 0.5 * (energy[row_a] + energy[row_b])
    center1 = params.e_biexciton - center2
    windows = []
    for i, (c1, c2) in enumerate(zip(center1.tolist(), center2.tolist())):
        channels.check(i)
        windows.append(DetectorWindow(center1=c1, center2=c2, width=width))
    return windows


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


@dataclass(frozen=True)
class SweepCurve:
    """|gamma'| versus detuning for one scheme."""

    scheme: int
    rows: tuple

    def __post_init__(self):
        deltas = [r.delta_cx for r in self.rows]
        if any(b <= a for a, b in zip(deltas, deltas[1:])):
            raise ValidationError("sweep rows must be sorted by detuning")
        if any(r.abs_gamma > 0.5 + 1e-9 for r in self.rows):
            raise ValidationError("a sweep row violates the |gamma'| <= 1/2 bound")

    @property
    def deltas(self) -> np.ndarray:
        return np.array([r.delta_cx for r in self.rows])

    @property
    def abs_gamma(self) -> np.ndarray:
        return np.array([r.abs_gamma for r in self.rows])

    def peak(self) -> SweepRow:
        """Row with the largest |gamma'|."""
        return max(self.rows, key=lambda r: r.abs_gamma)


def _resolve_workers(workers) -> int:
    if workers is None:
        env = os.environ.get("POLCASCADE_WORKERS", "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValidationError(
                f"POLCASCADE_WORKERS must be an integer, got {env!r}")
    if not (isinstance(workers, int) and workers >= 1):
        raise ValidationError(f"workers must be a positive integer, got {workers!r}")
    return workers


def _sweep_point(task) -> list[SweepRow]:
    """Rows for one contiguous chunk of grid points (a pool task).

    One array pass solves the chunk's channels and places its windows, and
    its overlaps go through one batched quadrature.  The name predates
    chunking; the benchmark's tracer wraps it.
    """
    params, deltas, pairing, width, quad, window = task
    channels = channel_arrays(params, params.ex_mean + np.array(deltas))
    if window is None:
        windows = _tracked_windows(params, channels, pairing, width)
    else:
        for i in range(len(deltas)):
            channels.check(i)
        windows = [window] * len(deltas)
    _, _, gammas = gamma_prime_arrays(channels, pairing, windows, quad)
    return [SweepRow(delta_cx=delta, gamma=gamma, window=w, pairing=pairing)
            for delta, gamma, w in zip(deltas, gammas.tolist(), windows)]


def sweep_gamma(params: SystemParams, pairing: str, deltas=None,
                width: float = 0.2, quad: QuadratureSpec = DEFAULT_QUAD,
                workers=None, window: DetectorWindow | None = None,
                scheme: int = 0) -> SweepCurve:
    """Filtered coherence across a detuning grid for one branch pairing.

    workers defaults to POLCASCADE_WORKERS, else 1; more than one farms
    the grid chunks out to a process pool.
    """
    pairing = normalize_pairing(pairing)
    grid = default_delta_grid() if deltas is None else np.asarray(deltas, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValidationError("detuning grid must be a finite 1-d array")
    if np.any(np.diff(grid) <= 0):
        raise ValidationError("detuning grid must be strictly increasing")
    workers = _resolve_workers(workers)
    points = [float(d) for d in grid]
    tasks = [(params, points[i:i + _CHUNK_POINTS], pairing, width, quad,
              window) for i in range(0, len(points), _CHUNK_POINTS)]
    if workers == 1 or len(tasks) < 2:
        chunks = [_sweep_point(t) for t in tasks]
    else:
        # Imported here so that importing the package does not load the
        # pool machinery (concurrent.futures, multiprocessing, logging).
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_sweep_point, tasks))
    return SweepCurve(scheme=scheme,
                      rows=tuple(row for chunk in chunks for row in chunk))


def fig4_sweep(scheme: int, deltas=None, width: float = 0.2,
               quad: QuadratureSpec = DEFAULT_QUAD, workers=None) -> SweepCurve:
    """The |gamma'|-versus-detuning curve for one scheme preset."""
    if scheme not in SCHEME_PAIRING:
        raise ValidationError(f"scheme must be 1, 2, or 3, got {scheme!r}")
    return sweep_gamma(scheme_preset(scheme), SCHEME_PAIRING[scheme],
                       deltas=deltas, width=width, quad=quad,
                       workers=workers, scheme=scheme)


def optimize_detuning(scheme: int, lo: float = _GRID_LO, hi: float = _GRID_HI,
                      width: float = 0.2,
                      quad: QuadratureSpec = DEFAULT_QUAD,
                      scan_points: int = 50, xtol: float = 1e-4,
                      window: DetectorWindow | None = None) -> tuple[float, float]:
    """Detuning maximizing |gamma'| for a scheme: scan, then golden section.

    Returns (delta_cx, abs_gamma).  A flat objective (for instance from a
    fixed window that misses every line) is refused rather than resolved
    to an arbitrary point.  The scan is one sweep_gamma call; the
    golden-section steps evaluate one point at a time.
    """
    if scheme not in SCHEME_PAIRING:
        raise ValidationError(f"scheme must be 1, 2, or 3, got {scheme!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValidationError(f"invalid range ({lo!r}, {hi!r})")
    if scan_points < 3:
        raise ValidationError("scan_points must be >= 3")
    params = scheme_preset(scheme)
    pairing = SCHEME_PAIRING[scheme]

    def objective(delta: float) -> float:
        at = params.with_detuning(delta)
        w = window if window is not None else tracked_window(at, pairing, width)
        return abs(gamma_prime(at, pairing, w, quad).gamma)

    xs = np.linspace(lo, hi, scan_points)
    # One array sweep; each row equals objective at its detuning.
    vals = [abs(row.gamma) for row in sweep_gamma(
        params, pairing, deltas=xs, width=width, quad=quad, workers=1,
        window=window).rows]
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
    for name in ("ex_mean", "delta_x", "cav_mean", "delta_c", "rabi",
                 "tau_c", "tau_xx", "binding"):
        lines.append(f"{name} = {getattr(params, name)!r}")
    lines.extend(extra)
    return lines


def _write_rows_csv(path, header_lines, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else repr(float(v))
                              for v in row) + "\n")


def _figure_anticrossing(scheme: int, label: str, out_dir: str,
                         svg: bool) -> list[str]:
    params = scheme_preset(scheme)
    rows = anticrossing_sweep(params, default_delta_grid())
    columns = (["delta_cx_mev"]
               + [f"E_{p}_{b}" for p, b in STATE_ORDER]
               + [f"xex2_{p}_{b}" for p, b in STATE_ORDER])
    data = [[r.delta_cx] + [r.energies[k] for k in STATE_ORDER]
            + [r.x_ex2[k] for k in STATE_ORDER] for r in rows]
    header = _provenance(label, params, (
        f"scheme = {scheme}",
        f"delta_cx grid = {_GRID_POINTS} points over [{_GRID_LO}, {_GRID_HI}] meV",
        "columns: absolute polariton energies and exciton fractions",
    ))
    csv_path = os.path.join(out_dir, f"{label}.csv")
    _write_rows_csv(csv_path, header, columns, data)
    paths = [csv_path]
    if svg:
        svg_path = csv_path[:-4] + ".svg"
        xs = [r.delta_cx for r in rows]
        series = [(f"{p} {b}", xs, [r.energies[(p, b)] for r in rows])
                  for p, b in STATE_ORDER]
        line_plot(svg_path, series, title=f"Polariton levels, scheme {scheme}",
                  xlabel="cavity-exciton detuning (meV)", ylabel="energy (meV)")
        paths.append(svg_path)
    return paths


def _spectrum_grid(params: SystemParams, margin: float = 0.5,
                   points: int = 4001) -> np.ndarray:
    lines = []
    for ch in enumerate_channels(params):
        lines.extend((ch.photon1, ch.photon2))
    return np.linspace(min(lines) - margin, max(lines) + margin, points)


def _figure_spectrum(scheme: int, delta: float, label: str, out_dir: str,
                     svg: bool) -> list[str]:
    params = scheme_preset(scheme).with_detuning(delta)
    grid = _spectrum_grid(params)
    spectrum = pl_spectrum(params, grid)
    header = _provenance(label, params, (
        f"scheme = {scheme}",
        f"delta_cx = {delta!r}",
        f"energy grid = {grid.size} points over "
        f"[{float(grid[0])!r}, {float(grid[-1])!r}] meV",
    ))
    csv_path = os.path.join(out_dir, f"{label}.csv")
    write_spectrum_csv(csv_path, spectrum, header_lines=header)
    paths = [csv_path]
    if svg:
        svg_path = csv_path[:-4] + ".svg"
        line_plot(svg_path, [
            ("H", grid, spectrum.intensity_h),
            ("V", grid, spectrum.intensity_v),
        ], title=f"Emission spectrum, scheme {scheme}",
            xlabel="photon energy (meV)", ylabel="intensity (1/meV)")
        paths.append(svg_path)
    return paths


def _scheme3_crossing() -> float:
    params = scheme_preset(3)
    scan = find_crossings(params, (("H", "LP"), ("V", "LP")), -0.5, 0.5,
                          tol=1e-9)
    if not scan.detunings:
        raise ConvergenceError("scheme 3 lower-polariton crossing not found")
    return scan.detunings[0]


def _figure_gamma_curves(out_dir: str, svg: bool, quad: QuadratureSpec,
                         workers) -> list[str]:
    paths = []
    curves = []
    for scheme in (1, 2, 3):
        curve = fig4_sweep(scheme, quad=quad, workers=workers)
        curves.append(curve)
        columns = ["delta_cx_mev", "abs_gamma_prime", "re_gamma", "im_gamma",
                   "center1", "center2", "width", "pairing"]
        data = [[r.delta_cx, abs(r.gamma), r.gamma.real, r.gamma.imag,
                 r.window.center1, r.window.center2, r.window.width,
                 r.pairing] for r in curve.rows]
        header = _provenance("fig4", scheme_preset(scheme), (
            f"scheme = {scheme}",
            f"pairing = {SCHEME_PAIRING[scheme]}",
            "window policy: center2 = mean paired polariton energy, "
            "center1 = E_XX - center2, tracked per point",
            "window width = 0.2 meV (full)",
            f"delta_cx grid = {_GRID_POINTS} points over [{_GRID_LO}, {_GRID_HI}] meV",
            f"quadrature: base_nodes = {quad.base_nodes}, rel_tol = {quad.rel_tol!r}, "
            f"max_refinements = {quad.max_refinements}",
        ))
        csv_path = os.path.join(out_dir, f"fig4_scheme{scheme}.csv")
        _write_rows_csv(csv_path, header, columns, data)
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
                     quad: QuadratureSpec = DEFAULT_QUAD, workers=None,
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
        if fig == "2a":
            return _figure_anticrossing(2, "fig2a", out_dir, svg)
        if fig == "3a":
            return _figure_anticrossing(3, "fig3a", out_dir, svg)
        if fig == "1c":
            return _figure_spectrum(1, 0.0, "fig1c", out_dir, svg)
        if fig == "2c":
            return _figure_spectrum(2, 0.0, "fig2c", out_dir, svg)
        if fig == "3c":
            return _figure_spectrum(3, _scheme3_crossing(), "fig3c", out_dir, svg)
        return _figure_gamma_curves(out_dir, svg, quad, workers)
    except OSError as exc:
        raise OSError(f"writing figure {fig} under {out_dir!r}: {exc}") from exc


def reproduce_all(out_dir: str = ".", quad: QuadratureSpec = DEFAULT_QUAD,
                  workers=None, svg: bool = True) -> list[str]:
    """All six figure file sets."""
    paths = []
    for fig in FIGURE_IDS:
        paths.extend(reproduce_figure(fig, out_dir, quad=quad, workers=workers,
                                      svg=svg))
    return paths
