"""Two-photon wave packets, windowed overlaps, and polarization coherence.

Each cascade channel emits a two-photon packet whose amplitude is a double
Lorentzian in (k1 + k2, k2).  The degree of polarization entanglement is a
ratio of packet overlaps: over all space for the unprojected coherence, or
over a detector window for the spectrally filtered one.

Window integrals are exact to roundoff: kernels.window_overlaps has no
tolerance, and each value depends only on its own point.  It takes
channel pairs, not single boxes: each point gives the _side rows of two
channels (the H and V sides of gamma') and one window, and gets back both
self overlaps and the cross overlap.  Both photons of a pair come from
one biexciton decay, so the two channels share their biexciton pole, and
the 24 dilogarithm terms of a point are the entries of one 8-term table
or their conjugates (see kernels); a pair whose poles differ is the one
input it refuses.  Every caller takes that one path: detuning sweeps
through gamma_prime_arrays, straight from cascade.channel_arrays, which
gives both sides of a point the cascade's one biexciton energy;
gamma_prime and gamma_prime_from_channels through _pair_overlaps; and
windowed_overlap, one box of two channel objects, through _overlap_boxes.
The all-space overlaps of gamma_unprojected need no window: they are
residue integrals in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .cascade import (STATE_ORDER, CascadeChannel, ChannelArrays,
                      channel_arrays, enumerate_channels)
from .errors import EmptyWindowError, ValidationError
from .model import (SystemParams, _require_count, _require_finite,
                    _require_positive)
from .polariton import hypot

TWO_PI = 2.0 * math.pi
# |gamma'| <= 1/2 by Cauchy-Schwarz and AM-GM, plus a roundoff allowance.
_GAMMA_BOUND = 0.5 + 1e-9

# (pol, branch) labels correlated by each pairing; the LP-UP pairing takes
# the upper branch on the V side.
_PAIRINGS = {
    "LP-LP": (("H", "LP"), ("V", "LP")),
    "UP-UP": (("H", "UP"), ("V", "UP")),
    "LP-UP": (("H", "LP"), ("V", "UP")),
}


def normalize_pairing(pairing: str) -> str:
    """Canonical pairing key: LP-LP, UP-UP or LP-UP."""
    key = str(pairing).replace("–", "-").replace("_", "-").upper()
    if key not in _PAIRINGS:
        raise ValidationError(
            f"unknown pairing {pairing!r}; expected one of LP-LP, UP-UP, LP-UP")
    return key


def pairing_labels(pairing: str) -> tuple[tuple[str, str], tuple[str, str]]:
    """The (pol, branch) labels of the H-side and V-side channels."""
    return _PAIRINGS[normalize_pairing(pairing)]


def pairing_channels(channels, pairing: str) -> tuple[CascadeChannel, CascadeChannel]:
    """The (H-side, V-side) channels correlated by a pairing."""
    by_label = {(c.pol, c.branch): c for c in channels}
    label_a, label_b = pairing_labels(pairing)
    return by_label[label_a], by_label[label_b]


def _window_checks(center1, center2, width):
    """The window-validity rule on numbers or arrays: each check (true
    where it fails) with its message, in order of precedence.  A
    non-number fails as non-finite (x - x is 0 exactly when x is finite),
    and photon energies are positive, so a window reaching k <= 0 fails.
    """
    c1, c2, w = (v if isinstance(v, (int, float, np.ndarray)) else math.nan
                 for v in (center1, center2, width))
    return ((c1 - c1 != 0, "center1 must be finite, got {center1!r}"),
            (c2 - c2 != 0, "center2 must be finite, got {center2!r}"),
            (w - w != 0, "width must be finite, got {width!r}"),
            (w <= 0, "width must be > 0, got {width!r}"),
            ((c1 - w / 2 <= 0) | (c2 - w / 2 <= 0),
             "window extends to non-positive photon energy"))


def invalid_windows(center1, center2, width) -> np.ndarray:
    """Where windows given as center and width arrays fail the rule."""
    bad = False
    with np.errstate(invalid="ignore"):
        for failed, _ in _window_checks(center1, center2, width):
            bad = bad | failed
    return bad


@dataclass(frozen=True)
class DetectorWindow:
    """Square spectral acceptance window for the photon pair."""

    center1: float  # first-photon window center, meV
    center2: float  # second-photon window center, meV
    width: float    # FULL width; acceptance is center +- width/2, meV

    def __post_init__(self):
        for failed, message in _window_checks(self.center1, self.center2,
                                              self.width):
            if failed:
                raise ValidationError(message.format(**vars(self)))

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
        magnitude = hypot(self.gamma.real, self.gamma.imag)
        if magnitude > _GAMMA_BOUND:
            raise ValidationError(
                f"|gamma| = {magnitude!r} exceeds the 1/2 bound")
        for label, norm in self.channel_norms.items():
            if norm < 0:
                raise ValidationError(f"negative channel norm for {label}")


def _prefactor(x_ex, x_ph, gxx, g):
    """Amplitude prefactor x_ex x_ph sqrt(gxx g) / 2pi, on floats or arrays."""
    return x_ex * x_ph * np.sqrt(gxx * g) / TWO_PI


def amplitude(ch: CascadeChannel, k1: float, k2: float) -> complex:
    """Two-photon amplitude of one channel at photon energies (k1, k2)."""
    for name, k in (("k1", k1), ("k2", k2)):
        _require_positive(name, _require_finite(name, k))
    exx, gxx, e, g, pref = _sides([ch])[:, 0].tolist()
    if pref == 0.0:
        return 0j
    return pref / ((k1 + k2 - (exx - 1j * gxx)) * (k2 - (e - 1j * g)))


def _side(e_xx, xx_total_width, energy, linewidth, x_ex, x_ph):
    """The amplitude parameters of channels, one row each: e_xx,
    xx_total_width, the intermediate state's energy and linewidth, and
    the amplitude prefactor."""
    return np.array([e_xx, xx_total_width, energy, linewidth,
                     _prefactor(x_ex, x_ph, xx_total_width, linewidth)])


def _sides(channels):
    """The _side rows of channel objects."""
    return _side(*np.array([
        (ch.e_xx, ch.xx_total_width, ch.intermediate.energy,
         ch.intermediate.linewidth, ch.intermediate.x_ex, ch.intermediate.x_ph)
        for ch in channels]).T)


def _overlap_boxes(boxes) -> list:
    """Exact overlaps of boxes (ch_a, ch_b, k1_lo, k1_hi, k2_lo, k2_hi),
    one complex value per box: the real self overlap where both channels
    are the same, else the cross overlap."""
    chans_a, chans_b, *bounds = zip(*boxes)
    side_a, side_b = _sides(chans_a), _sides(chans_b)
    self_a, _, cross = kernels.window_overlaps(side_a, side_b, *bounds)
    same = (side_a == side_b).all(axis=0)
    return np.where(same, self_a, cross).tolist()


def _overlap_box(ch_a, ch_b, k1_lo, k1_hi, k2_lo, k2_hi) -> complex:
    """conj(amplitude_a) * amplitude_b integrated over an open box."""
    return _overlap_boxes([(ch_a, ch_b, k1_lo, k1_hi, k2_lo, k2_hi)])[0]


def windowed_overlap(ch_a: CascadeChannel, ch_b: CascadeChannel,
                     w: DetectorWindow) -> complex:
    """Window integral of conj(amplitude_a) * amplitude_b."""
    return _overlap_box(ch_a, ch_b, *w.k1_interval, *w.k2_interval)


def brute_force_overlap(ch_a: CascadeChannel, ch_b: CascadeChannel,
                        w: DetectorWindow, n: int = 4000) -> complex:
    """Midpoint-rule cross check of windowed_overlap on an n x n grid."""
    n = _require_count("n", n, 2)
    side_a, side_b = _sides([ch_a, ch_b]).T.tolist()
    if side_a[4] * side_b[4] == 0.0:
        return 0j
    return complex(kernels.midpoint_overlap(side_a, side_b, *w.k1_interval, n,
                                            *w.k2_interval, n))


def _pair_overlaps(side_a, side_b, k1_lo, k1_hi, k2_lo, k2_hi):
    """Self overlaps and gamma' of many points, as arrays.

    side_a and side_b hold the _side rows of the channel on each side of
    every point.  Point i's window is the box (k1_lo[i], k1_hi[i]) x
    (k2_lo[i], k2_hi[i]).  The self_a, self_b and cross overlaps of all
    points come from one kernels.window_overlaps call.  Raises
    EmptyWindowError if a window holds no emission.  Returns (self_a,
    self_b, gamma); the |gamma'| <= 1/2 bound is checked where the result
    is built, by PairCoherence or SweepCurve.
    """
    self_a, self_b, cross = kernels.window_overlaps(side_a, side_b, k1_lo,
                                                    k1_hi, k2_lo, k2_hi)
    norm = self_a + self_b
    if (norm < 1e-300).any():
        raise EmptyWindowError(
            "empty window: no emission inside the acceptance")
    # Divides each part by the real norm.
    return self_a, self_b, kernels._join(cross.real / norm, cross.imag / norm)


def gamma_prime_arrays(channels: ChannelArrays, pairing: str, center1,
                       center2, width):
    """Self overlaps and gamma' of a pairing at every point of a channel
    array.

    Point i's window has centers center1[i], center2[i] and full width
    width, one number for all points or an array of one per point.
    Both sides of a point take the cascade's biexciton energy as the
    energy of their shared u-pole.  Returns the self_a, self_b and gamma
    arrays, raising as _pair_overlaps does; the caller's SweepCurve or
    PairCoherence checks the 1/2 bound.
    """
    e_xx = np.full(channels.vanished.shape, channels.e_biexciton)

    def side(row):
        """The _side rows of one channel at every point."""
        s = channels.states
        return _side(e_xx, channels.xx_total_width[row], s.energy[row],
                     s.linewidth[row], s.x_ex[row], s.x_ph[row])

    row_a, row_b = (STATE_ORDER.index(label)
                    for label in pairing_labels(pairing))
    half = np.divide(width, 2)
    return _pair_overlaps(side(row_a), side(row_b), center1 - half,
                          center1 + half, center2 - half, center2 + half)


def gamma_prime_from_channels(ch_a: CascadeChannel, ch_b: CascadeChannel,
                              w: DetectorWindow,
                              pairing: str = "") -> PairCoherence:
    """Filtered coherence of two explicit channels (synthetic-state entry)."""
    bounds = ([b] for b in (*w.k1_interval, *w.k2_interval))
    self_a, self_b, gamma = _pair_overlaps(_sides([ch_a]), _sides([ch_b]),
                                           *bounds)
    return PairCoherence(
        gamma=complex(gamma[0]),
        channel_norms={f"{ch_a.pol}:{ch_a.branch}": float(self_a[0]),
                       f"{ch_b.pol}:{ch_b.branch}": float(self_b[0])},
        pairing=pairing or f"{ch_a.branch}-{ch_b.branch}")


def gamma_prime(params: SystemParams, pairing: str,
                w: DetectorWindow) -> PairCoherence:
    """Filtered polarization coherence for a branch pairing of the cascade.

    The one-point case of gamma_prime_arrays, so a sweep row equals it bit
    for bit.
    """
    key = normalize_pairing(pairing)
    channels = channel_arrays(params, [params.cav_mean])
    channels.check(0)
    self_a, self_b, gamma = gamma_prime_arrays(
        channels, key, np.array([w.center1]), np.array([w.center2]), w.width)
    (pol_a, branch_a), (pol_b, branch_b) = pairing_labels(key)
    return PairCoherence(gamma=complex(gamma[0]),
                         channel_norms={f"{pol_a}:{branch_a}": float(self_a[0]),
                                        f"{pol_b}:{branch_b}": float(self_b[0])},
                         pairing=key)


def _norm(x_ex, x_ph):
    """All-space norm of a channel's packet from its Hopfield amplitudes."""
    return (x_ex * x_ex * (x_ph * x_ph)) / 4.0


def channel_norm(ch: CascadeChannel) -> float:
    """All-space norm of one channel's packet, x_ex^2 x_ph^2 / 4."""
    return _norm(ch.intermediate.x_ex, ch.intermediate.x_ph)


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
    norms = [_norm(*amplitudes) for amplitudes in zip(x_ex, x_ph)]
    cross, total = 0j, 0.0
    for branch in ("LP", "UP"):
        a, b = (STATE_ORDER.index((pol, branch)) for pol in ("H", "V"))
        total += norms[a] + norms[b]
        pair = math.sqrt(norms[a] * norms[b])
        if pair > 0:
            cross += pair * _residue(linewidth[a], linewidth[b], energy[a],
                                     energy[b])
    return cross / total
