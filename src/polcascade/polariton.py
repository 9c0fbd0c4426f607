"""Polariton eigenmodes of the exciton-cavity doublets.

Each linear polarization hosts an independent two-level exciton-photon
system; strong coupling splits it into lower (LP) and upper (UP) polariton
branches with Hopfield weights that set radiative linewidths.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .model import BRANCHES, HBAR_MEV_PS, POLARIZATIONS, SystemParams


@dataclass(frozen=True)
class PolaritonState:
    """One polariton branch of one polarization."""

    pol: str          # "H" or "V"
    branch: str       # "LP" or "UP"
    energy: float     # meV
    x_ex: float       # exciton Hopfield amplitude, real >= 0
    x_ph: float       # photon Hopfield amplitude, real >= 0
    linewidth: float  # radiative half width x_ph^2 * hbar / tau_c, meV


@dataclass(frozen=True)
class PolaritonSet:
    """The four polariton states of a parameter set."""

    h_lp: PolaritonState
    h_up: PolaritonState
    v_lp: PolaritonState
    v_up: PolaritonState

    def get(self, pol: str, branch: str) -> PolaritonState:
        try:
            return getattr(self, f"{pol.lower()}_{branch.lower()}")
        except AttributeError:
            raise ValidationError(f"no state ({pol!r}, {branch!r})") from None

    def __iter__(self):
        return iter((self.h_lp, self.h_up, self.v_lp, self.v_up))


# Rows of the polariton arrays, in PolaritonSet order.
STATE_ORDER = (("H", "LP"), ("H", "UP"), ("V", "LP"), ("V", "UP"))


@dataclass(frozen=True)
class PolaritonArrays:
    """The four polariton states at many cavity-mode energies.

    Each field has one row per state in STATE_ORDER and one column per
    point.
    """

    energy: np.ndarray
    x_ex: np.ndarray
    x_ph: np.ndarray
    linewidth: np.ndarray

    def states(self, i: int) -> PolaritonSet:
        """The PolaritonSet of point i."""
        columns = zip(STATE_ORDER, self.energy[:, i].tolist(),
                      self.x_ex[:, i].tolist(), self.x_ph[:, i].tolist(),
                      self.linewidth[:, i].tolist())
        return PolaritonSet(*(
            PolaritonState(pol=pol, branch=branch, energy=energy, x_ex=x_ex,
                           x_ph=x_ph, linewidth=linewidth)
            for (pol, branch), energy, x_ex, x_ph, linewidth in columns))


def per_element(fn, array, *scalars) -> np.ndarray:
    """fn(x, *scalars) on Python floats, element by element, as an array.

    For the libm functions whose NumPy loops round differently
    (math.hypot against np.hypot, pow(x, 2.0) against np.square), so that
    array results equal the scalar formulas bit for bit.
    """
    columns = [array.ravel().tolist(), *map(itertools.repeat, scalars)]
    return np.array(list(map(fn, *columns)), dtype=float).reshape(array.shape)


# Signs that turn the LP photon fraction 0.5 (1 + dr) into the photon
# (first row) and exciton (second row) fractions of LP and UP; a sign
# flip is exact, so 1 + (-dr) equals the scalar 1 - dr bit for bit.
_FRACTION_SIGN = np.array([[[1.0], [-1.0]], [[-1.0], [1.0]]])[:, None]


def polariton_arrays(params: SystemParams, cav_mean) -> PolaritonArrays:
    """Diagonalize both polarization subsystems at each cavity-mode mean.

    cav_mean replaces params.cav_mean, one point per element; all other
    parameters are shared.  Column i equals the scalar solve of
    params.replace(cav_mean=cav_mean[i]) bit for bit, and solve_polaritons
    is the one-point case.
    """
    cav = np.asarray(cav_mean, dtype=float)
    # Axes (pol, branch, point) from here on, pol in H, V order.
    e_exc = np.array([params.e_exciton("H"),
                      params.e_exciton("V")])[:, None, None]
    e_cav = cav + np.array([params.delta_c / 2,
                            (-params.delta_c) / 2])[:, None, None]
    mean = 0.5 * (e_exc + e_cav)
    delta = e_exc - e_cav
    r = per_element(math.hypot, delta, params.rabi)
    # LP photon fraction grows as the cavity mode dives below the exciton.
    x_ph2, x_ex2 = np.minimum(1.0, np.maximum(
        0.0, 0.5 * (1.0 + _FRACTION_SIGN * (delta / r))))
    # LP sits half the splitting below the mean and UP above it:
    # mean - (-half) equals mean + half.
    energy = mean - _FRACTION_SIGN[0] * (0.5 * r)
    x_ex, x_ph = np.sqrt([x_ex2, x_ph2])
    return PolaritonArrays(energy=energy.reshape(4, -1),
                           x_ex=x_ex.reshape(4, -1), x_ph=x_ph.reshape(4, -1),
                           linewidth=(x_ph2 * (HBAR_MEV_PS / params.tau_c)
                                      ).reshape(4, -1))


def solve_polaritons(params: SystemParams) -> PolaritonSet:
    """Diagonalize both polarization subsystems."""
    return polariton_arrays(params, [params.cav_mean]).states(0)


def exciton_cavity_detuning(params: SystemParams, pol: str) -> float:
    """Per-polarization detuning E_exc(pol) - E_cav(pol), meV."""
    return params.e_exciton(pol) - params.e_cavity(pol)


StatePair = tuple[tuple[str, str], tuple[str, str]]


def _check_pair(pair: StatePair, allow_same_pol: bool) -> StatePair:
    try:
        (pol_a, br_a), (pol_b, br_b) = pair
    except (TypeError, ValueError):
        raise ValidationError(f"pair must be ((pol, branch), (pol, branch)), got {pair!r}") from None
    for pol, br in ((pol_a, br_a), (pol_b, br_b)):
        if pol not in POLARIZATIONS or br not in BRANCHES:
            raise ValidationError(f"unknown state ({pol!r}, {br!r})")
    if pol_a == pol_b:
        if not allow_same_pol:
            raise ValidationError(
                "crossing search needs states of opposite polarization; "
                f"got {pol_a} twice (same-polarization branches never cross)")
        if br_a == br_b:
            raise ValidationError("pair must name two distinct states")
    return (pol_a, br_a), (pol_b, br_b)


def _gaps(params: SystemParams, pair: StatePair, deltas) -> list[float]:
    """Energy of the first state minus the second at each detuning."""
    a, b = (STATE_ORDER.index(label) for label in pair)
    energy = polariton_arrays(params, params.ex_mean + np.asarray(deltas)).energy
    return (energy[a] - energy[b]).tolist()


def _gap_function(params: SystemParams, pair: StatePair):
    def gap(delta_cx: float) -> float:
        return _gaps(params, pair, [delta_cx])[0]

    return gap


def _check_range(lo: float, hi: float, tol: float) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValidationError(f"need finite lo < hi, got [{lo}, {hi}]")
    if not tol > 0:
        raise ValidationError(f"tol must be positive, got {tol}")


@dataclass(frozen=True)
class CrossingScan:
    """Result of a crossing search along the mode-exciton detuning axis."""

    detunings: tuple[float, ...]       # crossing positions, ascending
    identically_degenerate: bool       # gap stayed below tol over the scan


def find_crossings(params: SystemParams, pair: StatePair, lo: float, hi: float,
                   tol: float = 1e-9, scan_points: int = 401) -> CrossingScan:
    """Locate detunings where two polariton energies of opposite
    polarization coincide.

    A dense scan brackets sign changes of the gap; each bracket is refined
    by bisection until |gap| < tol.  If the gap never exceeds tol anywhere
    on the scan the pair is reported as identically degenerate instead.
    """
    pair = _check_pair(pair, allow_same_pol=False)
    _check_range(lo, hi, tol)
    n = max(int(scan_points), 401)
    gap = _gap_function(params, pair)
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    gs = _gaps(params, pair, xs)
    if max(abs(g) for g in gs) < tol:
        return CrossingScan(detunings=(), identically_degenerate=True)
    roots = []
    for i in range(n - 1):
        ga, gb = gs[i], gs[i + 1]
        if ga == 0.0 and abs(ga) < tol:
            roots.append(xs[i])
            continue
        if ga * gb < 0:
            roots.append(_bisect(gap, xs[i], xs[i + 1], ga, tol))
    if gs[-1] == 0.0:
        roots.append(xs[-1])
    # Merge duplicates from roots landing on scan nodes.
    roots.sort()
    merged = []
    for r in roots:
        if not merged or r - merged[-1] > tol:
            merged.append(r)
    return CrossingScan(detunings=tuple(merged), identically_degenerate=False)


def _bisect(gap, a: float, b: float, ga: float, tol: float,
            max_iter: int = 200) -> float:
    mid = 0.5 * (a + b)
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        gm = gap(mid)
        if abs(gm) < tol:
            return mid
        if (ga < 0) == (gm < 0):
            a, ga = mid, gm
        else:
            b = mid
    raise ConvergenceError(
        f"bisection did not reach |gap| < {tol} in {max_iter} iterations",
        last_estimates=(a, b))


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, a: float, b: float, xtol: float) -> tuple[float, float]:
    """Golden-section minimum of f on [a, b]."""
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    x = c if fc < fd else d
    return x, f(x)


def min_gap(params: SystemParams, pair: StatePair, lo: float, hi: float,
            tol: float = 1e-9, scan_points: int = 401) -> tuple[float, float]:
    """Detuning of closest approach and the |gap| there.

    Accepts same-polarization pairs too: an LP/UP pair of one polarization
    never crosses and its closest approach is the Rabi splitting.
    """
    pair = _check_pair(pair, allow_same_pol=True)
    _check_range(lo, hi, tol)
    n = max(int(scan_points), 401)
    gap = _gap_function(params, pair)
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    gs = [abs(g) for g in _gaps(params, pair, xs)]
    i_best = min(range(n), key=gs.__getitem__)
    a = xs[max(0, i_best - 1)]
    b = xs[min(n - 1, i_best + 1)]
    x, g = _golden_min(lambda d: abs(gap(d)), a, b, xtol=max(tol, 1e-12))
    if gs[i_best] < g:
        return xs[i_best], gs[i_best]
    return x, g


def detuning_grid(deltas) -> np.ndarray:
    """deltas as a new float array.  A grid must be a non-empty 1-d
    sequence of finite numbers in strictly increasing order; each fault
    raises its own ValidationError."""
    try:
        grid = np.array(deltas, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"detuning grid must hold only numbers: {exc}") from None
    if grid.ndim != 1:
        raise ValidationError(
            f"detuning grid must be 1-d, got shape {grid.shape}")
    if grid.size == 0:
        raise ValidationError("detuning grid is empty")
    bad = ~np.isfinite(grid)
    if bad.any():
        i = int(bad.argmax())
        raise ValidationError(
            f"detuning grid must be finite, got {grid.item(i)!r} at index {i}")
    bad = np.diff(grid) <= 0
    if bad.any():
        i = int(bad.argmax()) + 1
        raise ValidationError(
            f"detuning grid must be strictly increasing, got "
            f"{grid.item(i - 1)!r} then {grid.item(i)!r} at index {i}")
    return grid


def anticrossing_sweep(params: SystemParams, deltas) -> PolaritonArrays:
    """Solve the four polariton states across a detuning grid.

    The grid must pass detuning_grid.  One array solve covers it: the
    result has one row per state in STATE_ORDER and one column per
    detuning, and column i equals solve_polaritons at deltas[i] bit for
    bit.
    """
    return polariton_arrays(params, params.ex_mean + detuning_grid(deltas))
