"""Polariton eigenmodes of the exciton-cavity doublets.

Each linear polarization hosts an independent two-level exciton-photon
system; strong coupling splits it into lower (LP) and upper (UP) polariton
branches with Hopfield weights that set radiative linewidths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .model import (BRANCHES, HBAR_MEV_PS, POLARIZATIONS, SystemParams,
                    _require_grid, _require_positive, _require_range)


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


def hypot(x, y):
    """CPython's math.hypot, per element where x or y is an array: the one
    modulus rule, correctly rounded where the C library's may not be."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.asarray(np.frompyfunc(math.hypot, 2, 1)(x, y), dtype=float)
    return math.hypot(x, y)


# Signs that turn the LP photon fraction 0.5 (1 + dr) into the photon
# (first row) and exciton (second row) fractions of LP and UP; a sign
# flip is exact, so 1 + (-dr) equals the scalar 1 - dr bit for bit.
_FRACTION_SIGN = np.array([[[1.0], [-1.0]], [[-1.0], [1.0]]])[:, None]


def polariton_arrays(params: SystemParams, cav_mean) -> PolaritonArrays:
    """Diagonalize both polarization subsystems at each cavity-mode mean.

    cav_mean replaces params.cav_mean, one point per element; all other
    parameters are shared.  Column i equals the one-point case,
    solve_polaritons(params.replace(cav_mean=cav_mean[i])), bit for bit.
    """
    cav = np.asarray(cav_mean, dtype=float)
    # Axes (pol, branch, point) from here on, pol in H, V order.
    e_exc = np.array([params.e_exciton("H"),
                      params.e_exciton("V")])[:, None, None]
    e_cav = cav + np.array([params.delta_c / 2,
                            (-params.delta_c) / 2])[:, None, None]
    mean = 0.5 * (e_exc + e_cav)
    delta = e_exc - e_cav
    r = hypot(delta, params.rabi)
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


@dataclass(frozen=True)
class CrossingScan:
    """Result of a crossing search along the mode-exciton detuning axis."""

    detunings: tuple[float, ...]       # crossing positions, ascending
    identically_degenerate: bool       # gap stayed below tol over the scan


_SCAN_POINTS = 401
_MAX_BISECTIONS = 200
# Points per pass of _zoom_min; each pass narrows the bracket fourfold, so
# 600 passes take any finite bracket (at most 2**1025 wide) below 1e-12.
_ZOOM_POINTS = 9
_MAX_ZOOMS = 600


def _scan(params: SystemParams, pair: StatePair, lo: float, hi: float):
    """_SCAN_POINTS even steps over [lo, hi] and the gaps there, as lists."""
    n = _SCAN_POINTS
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    return xs, _gaps(params, pair, xs)


def find_crossings(params: SystemParams, pair: StatePair, lo: float, hi: float,
                   tol: float = 1e-9) -> CrossingScan:
    """Locate detunings where two polariton energies of opposite
    polarization coincide.

    A dense scan brackets sign changes of the gap; each bracket is refined
    by bisection until |gap| < tol.  If the gap never exceeds tol anywhere
    on the scan the pair is reported as identically degenerate instead.
    """
    pair = _check_pair(pair, allow_same_pol=False)
    _require_range("lo", "hi", lo, hi)
    _require_positive("tol", tol)
    xs, gs = _scan(params, pair, lo, hi)
    if max(abs(g) for g in gs) < tol:
        return CrossingScan(detunings=(), identically_degenerate=True)
    # Scan nodes where the gap is exactly zero, then one bisection per
    # bracketed sign change.
    roots = [x for x, g in zip(xs, gs) if g == 0.0]
    roots += [_bisect(params, pair, a, b, ga, tol)
              for a, b, ga, gb in zip(xs, xs[1:], gs, gs[1:]) if ga * gb < 0]
    # Merge duplicates from roots landing on scan nodes.
    roots.sort()
    merged = []
    for r in roots:
        if not merged or r - merged[-1] > tol:
            merged.append(r)
    return CrossingScan(detunings=tuple(merged), identically_degenerate=False)


def _bisect(params: SystemParams, pair: StatePair, a: float, b: float,
            ga: float, tol: float) -> float:
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (a + b)
        gm = _gaps(params, pair, [mid])[0]
        if abs(gm) < tol:
            return mid
        if (ga < 0) == (gm < 0):
            a, ga = mid, gm
        else:
            b = mid
    raise ConvergenceError(
        f"bisection did not reach |gap| < {tol} in {_MAX_BISECTIONS} "
        "iterations", last_estimates=(a, b))


def _zoom_min(f, a: float, b: float, xtol: float,
              span: tuple[float, float]) -> tuple[float, float]:
    """Least value of f on [a, b] and where it lies: (x, f(x)).

    f maps an array of points to an array of values.  Each pass evaluates
    _ZOOM_POINTS evenly spaced points of the bracket and keeps the two
    steps about the least, until the bracket is at most xtol wide or
    stops narrowing (a NaN bracket stops too).  x is the best point
    evaluated.  No finite value, or _MAX_ZOOMS passes, raise a
    ConvergenceError that names span, the caller's (lo, hi)."""
    best_x, best_f = a, math.inf
    for _ in range(_MAX_ZOOMS):
        xs = np.linspace(a, b, _ZOOM_POINTS)
        fs = f(xs)
        i = int(np.argmin(fs))
        if fs[i] < best_f:
            best_x, best_f = xs.item(i), fs.item(i)
        width = b - a
        a, b = xs.item(max(i - 1, 0)), xs.item(min(i + 1, _ZOOM_POINTS - 1))
        if not xtol < b - a < width:
            if abs(best_f) < math.inf:
                return best_x, best_f
            break
    lo, hi = span
    raise ConvergenceError(
        f"zoom found no finite least value within {_MAX_ZOOMS} passes for "
        f"lo = {lo!r}, hi = {hi!r}",
        last_estimates=(a, b))


def min_gap(params: SystemParams, pair: StatePair, lo: float, hi: float,
            tol: float = 1e-9) -> tuple[float, float]:
    """Detuning of closest approach and the |gap| there.

    Accepts same-polarization pairs too: an LP/UP pair of one polarization
    never crosses and its closest approach is the Rabi splitting.
    """
    pair = _check_pair(pair, allow_same_pol=True)
    _require_range("lo", "hi", lo, hi)
    _require_positive("tol", tol)
    xs, gs = _scan(params, pair, lo, hi)
    i = int(np.argmin(np.abs(gs)))
    return _zoom_min(lambda d: np.abs(_gaps(params, pair, d)),
                     xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)],
                     xtol=max(tol, 1e-12), span=(lo, hi))


def anticrossing_sweep(params: SystemParams, deltas) -> PolaritonArrays:
    """Solve the four polariton states across a detuning grid.

    The grid must pass model._require_grid.  One array solve covers it: the
    result has one row per state in STATE_ORDER and one column per
    detuning, and column i equals solve_polaritons at deltas[i] bit for
    bit.
    """
    return polariton_arrays(
        params, params.ex_mean + _require_grid("detuning grid", deltas))
