"""Two-photon wave packets, windowed overlaps, and polarization coherence.

Each cascade channel emits a two-photon packet whose amplitude,
pref / ((k1 + k2 - E + iG) (k2 - e + ig)), is a double Lorentzian in
(k1 + k2, k2).  The degree of polarization entanglement is a
ratio of packet overlaps: over all space for the unprojected coherence, or
over a detector window for the spectrally filtered one.

Window integrals are exact to roundoff: kernels.window_overlaps has no
tolerance, and each value depends only on its own point.  It takes
channel pairs, not single boxes: each point gives one biexciton pole,
the _side rows of two channels (the H and V sides of gamma') and one
window, and gets back both self overlaps and the cross overlap.  Both
photons of a pair come from one biexciton decay, so the two channels
share that pole, and the 24 dilogarithm terms of a point are the entries
of one 8-term table or their conjugates (see kernels).  gamma' has one
implementation, gamma_prime_arrays, on cascade.channel_arrays with the
cascade's pole: sweeps call it on many points, gamma_prime on one.
windowed_overlap (through _overlap_box) and brute_force_overlap take two
channel objects, paired by _pair, the one place that refuses a pair
whose poles differ.  The all-space overlaps of gamma_unprojected need no
window: they are residue integrals in closed form.  A window's numbers
go through model's rules, and invalid_windows refuses one that reaches
k <= 0.  gamma_prime, tracked_window and sweep_gamma normalize a pairing
once; the helpers behind them take its two STATE_ORDER rows (_PAIRINGS).
The amplitude itself is never evaluated here: it and a packet's
all-space norm x_ex^2 x_ph^2 / 4 are references in tests/oracles.py.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
# enumerate_channels is not called here; it is imported only so that the
# benchmark tracer's (pairstate, "enumerate_channels") site resolves.
from .cascade import (STATE_ORDER, CascadeChannel, ChannelArrays,  # noqa: F401
                      channel_arrays, enumerate_channels)
from .errors import EmptyWindowError, ValidationError
from .model import (SystemParams, _require_count, _require_finite,
                    _require_positive)
from .polariton import hypot

TWO_PI = 2.0 * math.pi
# |gamma'| <= 1/2 by Cauchy-Schwarz and AM-GM, plus a roundoff allowance.
_GAMMA_BOUND = 0.5 + 1e-9

# The STATE_ORDER rows of the H-side and V-side channels correlated by each
# pairing; the LP-UP pairing takes the upper branch on the V side.
_PAIRINGS = {"LP-LP": (0, 2), "UP-UP": (1, 3), "LP-UP": (0, 3)}


def normalize_pairing(pairing: str) -> str:
    """Canonical pairing key: LP-LP, UP-UP or LP-UP."""
    key = str(pairing).replace("–", "-").replace("_", "-").upper()
    if key not in _PAIRINGS:
        raise ValidationError(
            f"unknown pairing {pairing!r}; expected one of LP-LP, UP-UP, LP-UP")
    return key


def pairing_channels(channels, pairing: str) -> tuple[CascadeChannel, CascadeChannel]:
    """The (H-side, V-side) channels correlated by a pairing."""
    by_label = {(c.pol, c.branch): c for c in channels}
    return tuple(by_label[STATE_ORDER[row]]
                 for row in _PAIRINGS[normalize_pairing(pairing)])


def invalid_windows(center1, center2, width):
    """Where windows (numbers or arrays) reach k <= 0; NaN flags nothing."""
    half = width / 2
    return (center1 - half <= 0) | (center2 - half <= 0)


@dataclass(frozen=True)
class DetectorWindow:
    """Square spectral acceptance window for the photon pair.  Fields are
    stored as Python floats: under NumPy 2 a float32 width would keep the
    interval bounds in float32."""

    center1: float  # first-photon window center, meV
    center2: float  # second-photon window center, meV
    width: float    # FULL width; acceptance is center +- width/2, meV

    def __post_init__(self):
        for name in ("center1", "center2", "width"):
            value = _require_finite(name, getattr(self, name))
            object.__setattr__(self, name, float(value))
        _require_positive("width", self.width)
        if invalid_windows(self.center1, self.center2, self.width):
            raise ValidationError(
                "window extends to non-positive photon energy")

    @property
    def k1_interval(self) -> tuple[float, float]:
        return (self.center1 - self.width / 2, self.center1 + self.width / 2)

    @property
    def k2_interval(self) -> tuple[float, float]:
        return (self.center2 - self.width / 2, self.center2 + self.width / 2)


@dataclass(frozen=True)
class QuadratureSpec:
    """A tolerance that no computation reads any more: window overlaps
    and gamma_unprojected are closed forms.  It is still accepted, and
    validated, where callers pass it."""

    rel_tol: float = 1e-9

    def __post_init__(self):
        _require_positive("rel_tol", _require_finite("rel_tol", self.rel_tol))


@dataclass(frozen=True)
class PairCoherence:
    """Off-diagonal HH-VV coherence of a filtered photon pair."""

    gamma: complex                       # cross overlap over summed self overlaps
    channel_norms: dict = field(default_factory=dict)  # windowed self overlap per "pol:branch"
    pairing: str = ""

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        magnitude = hypot(self.gamma.real, self.gamma.imag)
        if not magnitude <= _GAMMA_BOUND:
            raise ValidationError(
                f"|gamma| = {magnitude!r} exceeds the 1/2 bound")
        for label, norm in self.channel_norms.items():
            if not norm >= 0:
                raise ValidationError(
                    f"channel norm for {label} must be >= 0, got {norm!r}")


def _side(xx_total_width, energy, linewidth, x_ex, x_ph):
    """The amplitude parameters of channels, one row each: the
    intermediate state's energy and linewidth, and the amplitude
    prefactor x_ex x_ph sqrt(xx_total_width linewidth) / 2pi."""
    pref = x_ex * x_ph * np.sqrt(xx_total_width * linewidth) / TWO_PI
    return np.array([energy, linewidth, pref])


def _pair(ch_a, ch_b):
    """The biexciton pole (e_xx, xx_total_width) that two channel objects
    share, and the _side rows of each; a pair whose poles differ is
    refused, with both poles named."""
    poles = [(float(ch.e_xx), float(ch.xx_total_width)) for ch in (ch_a, ch_b)]
    if any(x != y for x, y in zip(*poles)):
        raise ValidationError(
            "the two channels of a pair must share one biexciton pole, got "
            "(exx, gxx) = {!r} and {!r}".format(*poles))
    sides = _side(*np.array([
        (ch.xx_total_width, ch.intermediate.energy, ch.intermediate.linewidth,
         ch.intermediate.x_ex, ch.intermediate.x_ph)
        for ch in (ch_a, ch_b)]).T)
    return (*poles[0], *sides.T)


def _overlap_box(ch_a, ch_b, k1_lo, k1_hi, k2_lo, k2_hi) -> complex:
    """conj(amplitude_a) * amplitude_b integrated over an open box; the
    real self overlap where both sides are the same."""
    exx, gxx, side_a, side_b = _pair(ch_a, ch_b)
    self_a, _, cross = kernels.window_overlaps(
        exx, gxx, side_a[:, None], side_b[:, None], [k1_lo], [k1_hi],
        [k2_lo], [k2_hi])
    return complex((self_a if (side_a == side_b).all() else cross)[0])


def windowed_overlap(ch_a: CascadeChannel, ch_b: CascadeChannel,
                     w: DetectorWindow) -> complex:
    """Window integral of conj(amplitude_a) * amplitude_b."""
    return _overlap_box(ch_a, ch_b, *w.k1_interval, *w.k2_interval)


def brute_force_overlap(ch_a: CascadeChannel, ch_b: CascadeChannel,
                        w: DetectorWindow, n: int = 4000) -> complex:
    """Midpoint-rule cross check of windowed_overlap on an n x n grid."""
    n = _require_count("n", n, 2)
    exx, gxx, side_a, side_b = _pair(ch_a, ch_b)
    if side_a[2] * side_b[2] == 0.0:
        return 0j
    return complex(kernels.midpoint_overlap(
        exx, gxx, side_a.tolist(), side_b.tolist(), *w.k1_interval, n,
        *w.k2_interval, n))


def gamma_prime_arrays(channels: ChannelArrays, rows, center1, center2,
                       width):
    """Self overlaps and gamma' of a pairing at every point of a channel
    array; rows are the pairing's two STATE_ORDER rows (_PAIRINGS).

    This is the one place where window overlaps become gamma'.  Point i's
    window has centers center1[i], center2[i] and full width width, one
    number for all points or an array of one per point.  Both sides of a
    point take the cascade's one biexciton pole, and the self_a, self_b
    and cross overlaps of all points come from one
    kernels.window_overlaps call.  Returns the self_a, self_b and gamma
    arrays, raising EmptyWindowError if a window holds no emission; the
    caller's SweepCurve or PairCoherence checks the 1/2 bound.
    """
    gxx = channels.xx_total_width

    def side(row):
        """The _side rows of one channel at every point."""
        s = channels.states
        return _side(gxx, s.energy[row], s.linewidth[row], s.x_ex[row],
                     s.x_ph[row])

    row_a, row_b = rows
    half = np.divide(width, 2)
    self_a, self_b, cross = kernels.window_overlaps(
        channels.e_biexciton, gxx, side(row_a), side(row_b), center1 - half,
        center1 + half, center2 - half, center2 + half)
    norm = self_a + self_b
    if (norm < 1e-300).any():
        raise EmptyWindowError(
            "empty window: no emission inside the acceptance")
    # Divides each part by the real norm.
    return self_a, self_b, kernels._join(cross.real / norm, cross.imag / norm)


def gamma_prime(params: SystemParams, pairing: str,
                w: DetectorWindow) -> PairCoherence:
    """Filtered polarization coherence for a branch pairing of the cascade.

    The one-point case of gamma_prime_arrays, so a sweep row equals it bit
    for bit.
    """
    key = normalize_pairing(pairing)
    rows = _PAIRINGS[key]
    channels = channel_arrays(params, [params.cav_mean])
    channels.check(0)
    self_a, self_b, gamma = gamma_prime_arrays(
        channels, rows, np.array([w.center1]), np.array([w.center2]), w.width)
    return PairCoherence(
        gamma=complex(gamma[0]),
        channel_norms={"{}:{}".format(*STATE_ORDER[row]): float(norm[0])
                       for row, norm in zip(rows, (self_a, self_b))},
        pairing=key)


def _residue(g_a, g_b, e_a, e_b) -> complex:
    """2 sqrt(g_a g_b) / ((g_a + g_b) - i (e_a - e_b)), of modulus <= 1.

    The integral of 1 / ((x - conj P_a)(x - P_b)) over the real line,
    for poles P = e - i g in the lower half plane, is 2 pi / ((g_a + g_b)
    - i (e_a - e_b)) by the residue at conj P_a; this is that integral
    times sqrt(g_a g_b) / pi.
    """
    return 2.0 * math.sqrt(g_a * g_b) / complex(g_a + g_b, -(e_a - e_b))


# quad is unused (overlaps are exact); the benchmark's study workload passes it.
def gamma_unprojected(params: SystemParams,
                      quad: QuadratureSpec | None = None) -> complex:
    """Unfiltered polarization coherence: branch-diagonal H-V overlaps.

    Over all space the overlap of two channels a and b factorizes into
    one residue integral along u = k1 + k2 (biexciton energy E, width G)
    and one along v = k2 (polariton energy e, linewidth g):

        pref_a pref_b 2 pi / ((G_a + G_b) - i (E_a - E_b))
                      2 pi / ((g_a + g_b) - i (e_a - e_b))
        = sqrt(n_a n_b) _residue(G) _residue(g),

    with n the channel norm, and a self overlap is the norm.  Both
    photons come from one biexciton decay, so a and b share the pole
    (E, G) and _residue(G) is 2G / 2G = 1 exactly: only the residue along
    v remains.  gamma is the H-V overlaps of LP and UP over the four
    norms.  _residue has modulus <= 1 and sqrt(n_a n_b) <= (n_a + n_b) /
    2, so |gamma| <= 1/2 by construction, up to a few ulps where H and V
    nearly coincide.

    Each state's energy, linewidth and Hopfield amplitudes are read from
    the one column of cascade.channel_arrays, which raises
    ValidationError where every branching weight vanished; no channel
    object is built.
    """
    arrays = channel_arrays(params, [params.cav_mean])
    arrays.check(0)
    s = arrays.states
    energy, linewidth, x_ex, x_ph = (
        row[:, 0].tolist() for row in (s.energy, s.linewidth, s.x_ex, s.x_ph))
    # A channel's all-space norm is x_ex^2 x_ph^2 / 4.
    norms = [(a * a * (b * b)) / 4.0 for a, b in zip(x_ex, x_ph)]
    cross, total = 0j, 0.0
    for a, b in (_PAIRINGS["LP-LP"], _PAIRINGS["UP-UP"]):
        total += norms[a] + norms[b]
        pair = math.sqrt(norms[a] * norms[b])
        if pair > 0:
            cross += pair * _residue(linewidth[a], linewidth[b], energy[a],
                                     energy[b])
    return cross / total
