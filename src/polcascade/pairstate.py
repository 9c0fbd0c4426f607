"""Two-photon wave packets, windowed overlaps, and polarization coherence.

Each cascade channel emits a two-photon packet whose amplitude is a double
Lorentzian in (k1 + k2, k2).  The degree of polarization entanglement is a
ratio of packet overlaps: over all space for the unprojected coherence, or
over a detector window for the spectrally filtered one.

Window integrals run in rotated coordinates u = k1 + k2, v = k2.  The
u-integral has a closed form (the u-ridge is only ~1e-3 meV wide, far too
narrow for a fixed grid); the v-integral uses adaptive Gauss-Legendre
panels seeded around every pole and ridge-edge location.  All panel sets
and reduction orders are fixed by the inputs, so results are reproducible
bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .cascade import CascadeChannel, enumerate_channels
from .errors import ConvergenceError, EmptyWindowError, ValidationError
from .model import SystemParams

TWO_PI = 2.0 * math.pi

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


def pairing_channels(channels, pairing: str) -> tuple[CascadeChannel, CascadeChannel]:
    """The (H-side, V-side) channels correlated by a pairing."""
    key = normalize_pairing(pairing)
    by_label = {(c.pol, c.branch): c for c in channels}
    label_a, label_b = _PAIRINGS[key]
    return by_label[label_a], by_label[label_b]


@dataclass(frozen=True)
class DetectorWindow:
    """Square spectral acceptance window for the photon pair."""

    center1: float  # first-photon window center, meV
    center2: float  # second-photon window center, meV
    width: float    # FULL width; acceptance is center +- width/2, meV

    def __post_init__(self):
        for name in ("center1", "center2", "width"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValidationError(f"{name} must be finite, got {v!r}")
        if self.width <= 0:
            raise ValidationError(f"width must be > 0, got {self.width!r}")
        # Photon energies are positive; a window reaching k <= 0 is unphysical.
        if self.center1 - self.width / 2 <= 0 or self.center2 - self.width / 2 <= 0:
            raise ValidationError("window extends to non-positive photon energy")

    @property
    def k1_interval(self) -> tuple[float, float]:
        return (self.center1 - self.width / 2, self.center1 + self.width / 2)

    @property
    def k2_interval(self) -> tuple[float, float]:
        return (self.center2 - self.width / 2, self.center2 + self.width / 2)


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the adaptive v-integration."""

    base_nodes: int = 16       # Gauss-Legendre nodes per panel
    rel_tol: float = 1e-9      # relative convergence target
    max_refinements: int = 30  # panel-splitting passes before giving up

    def __post_init__(self):
        if not (isinstance(self.base_nodes, int) and self.base_nodes >= 8):
            raise ValidationError(
                f"base_nodes must be an integer >= 8, got {self.base_nodes!r}")
        if not (isinstance(self.rel_tol, (int, float))
                and math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValidationError(f"rel_tol must be > 0, got {self.rel_tol!r}")
        if not (isinstance(self.max_refinements, int) and self.max_refinements >= 1):
            raise ValidationError(
                f"max_refinements must be an integer >= 1, got {self.max_refinements!r}")


DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True)
class PairCoherence:
    """Off-diagonal HH-VV coherence of a filtered photon pair."""

    gamma: complex                       # cross overlap over summed self overlaps
    channel_norms: dict = field(default_factory=dict)  # windowed self overlap per "pol:branch"
    pairing: str = ""

    def __post_init__(self):
        # Cauchy-Schwarz on the cross term plus AM-GM on the denominator.
        if abs(self.gamma) > 0.5 + 1e-9:
            raise ValidationError(
                f"|gamma| = {abs(self.gamma)!r} exceeds the 1/2 bound")
        for label, norm in self.channel_norms.items():
            if norm < 0:
                raise ValidationError(f"negative channel norm for {label}")


def _amp_prefactor(ch: CascadeChannel) -> float:
    s = ch.intermediate
    return s.x_ex * s.x_ph * math.sqrt(ch.xx_total_width * s.linewidth) / TWO_PI


def amplitude(ch: CascadeChannel, k1: float, k2: float) -> complex:
    """Two-photon amplitude of one channel at photon energies (k1, k2)."""
    if k1 <= 0 or k2 <= 0:
        raise ValidationError(f"photon energies must be positive, got {(k1, k2)!r}")
    pref = _amp_prefactor(ch)
    if pref == 0.0:
        return 0j
    eps_xx = ch.e_xx - 1j * ch.xx_total_width
    eps_pol = ch.intermediate.energy - 1j * ch.intermediate.linewidth
    return pref / ((k1 + k2 - eps_xx) * (k2 - eps_pol))


def window_value(w: DetectorWindow, k1: float, k2: float) -> int:
    """1 inside the closed acceptance rectangle, else 0."""
    half = w.width / 2
    inside = abs(k1 - w.center1) <= half and abs(k2 - w.center2) <= half
    return 1 if inside else 0


_GL_CACHE: dict = {}


def _gl_nodes(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


# Panels per kernel call.  Bounds the node temporaries (256 x 32 complex
# values, 128 kB each) however many overlaps a batch holds.
_BLOCK_PANELS = 256

_KINDS = ("self", "arctan", "log")


def _eval_panels(par, kind, ab, owner, n):
    """Coarse (n-node) and fine (2n-node) Gauss-Legendre values per panel.

    Panel i spans (ab[0, i], ab[1, i]) of overlap owner[i], whose kernel
    arguments are column owner[i] of par.  Owners ascend and kind[owner]
    (an index into _KINDS) with them, so each kernel call takes a
    contiguous run of up to _BLOCK_PANELS panels of one kind, one row of
    nodes per panel.  A panel's value depends only on its own bounds and
    arguments: each row is summed on its own, the same way at any block
    size or position.  Returns the coarse and fine values as two rows.
    """
    out = np.empty(ab.shape, dtype=complex)
    edges = kind[owner].searchsorted(np.arange(len(_KINDS) + 1))
    for lo, hi in zip(edges[:-1], edges[1:]):
        for start in range(lo, hi, _BLOCK_PANELS):
            run = slice(start, min(start + _BLOCK_PANELS, hi))
            args = par[:, owner[run], None]
            a, b = ab[:, run]
            half = 0.5 * (b - a)
            mid = 0.5 * (a + b)
            for row, m in enumerate((n, 2 * n)):
                xs, ws = _gl_nodes(m)
                vals = kernels.overlap_integrand(
                    mid[:, None] + half[:, None] * xs, *args)
                out[row, run] = (vals * ws).sum(axis=1) * half
    return out


def _ordered_sums(x, owner, counts):
    """Per-overlap sums of panel values, added left to right in panel order.

    Panels are grouped by ascending owner, counts[j] of them for overlap j.
    Only overlaps that still have panels get a row of the summation table,
    so its size follows the panels in play; zero padding after a row's
    last panel leaves its running sum unchanged.  Overlaps without panels
    sum to 0.
    """
    rows = counts.nonzero()[0]
    width = counts[rows]
    start = width.cumsum() - width
    row = np.arange(rows.size).repeat(width)
    table = np.zeros((rows.size, int(width.max())), dtype=x.dtype)
    table[row, np.arange(owner.size) - start[row]] = x
    out = np.zeros(counts.size, dtype=x.dtype)
    out[rows] = np.add.accumulate(table, axis=1)[:, -1]
    return out


def _panel_bounds(lo, hi, features):
    """Sorted panel boundaries over [lo, hi], seeded by geometric ladders.

    Each (center, scale) feature cuts at center and center +- scale * 8^k
    for every step shorter than the span.  Cuts closer than 1e-13 of the
    span to the previous kept one are dropped.
    """
    span = hi - lo
    cuts = {lo, hi}
    for center, scale in set(features):
        if scale <= 0 or not math.isfinite(scale):
            continue
        cuts.add(center)
        step = scale
        while step < span:
            cuts.add(center - step)
            cuts.add(center + step)
            step *= 8.0
    eps = 1e-13 * span
    bounds = [lo]
    for c in sorted(c for c in cuts if lo < c <= hi):
        if c - bounds[-1] > eps:
            bounds.append(c)
    if len(bounds) < 2:
        bounds = [lo, hi]
    bounds[-1] = hi
    return bounds


def _kernel_args(ch_a: CascadeChannel, ch_b: CascadeChannel):
    """Pole parameters of conj(amplitude_a) * amplitude_b for the kernels."""
    return (ch_a.e_xx, ch_a.xx_total_width,
            ch_b.e_xx, ch_b.xx_total_width,
            ch_a.intermediate.energy, ch_a.intermediate.linewidth,
            ch_b.intermediate.energy, ch_b.intermediate.linewidth,
            _amp_prefactor(ch_a) * _amp_prefactor(ch_b))


def _overlap_boxes(boxes, quad: QuadratureSpec) -> list:
    """conj(amplitude_a) * amplitude_b integrated over many open boxes.

    Each box is (ch_a, ch_b, k1_lo, k1_hi, k2_lo, k2_hi).  Returns one
    entry per box: its complex value, or the ConvergenceError it failed
    with.  The v-integral runs on adaptive Gauss-Legendre panels seeded
    around every pole and ridge-edge location; a box passes when the
    fine-minus-coarse estimates, summed in panel order, reach quad.rel_tol
    of its fine sum, and only the panels of boxes that miss it are
    bisected.  Every entry is a pure function of its own box and quad, the
    same in any batch.
    """
    out = [0j] * len(boxes)
    jobs = []
    for i, (ch_a, ch_b, k1_lo, k1_hi, k2_lo, k2_hi) in enumerate(boxes):
        args = _kernel_args(ch_a, ch_b)
        if args[-1] == 0.0 or k1_hi <= k1_lo or k2_hi <= k2_lo:
            continue
        exx_a, gxx_a, exx_b, gxx_b, e_a, g_a, e_b, g_b, _ = args
        bounds = _panel_bounds(k2_lo, k2_hi, (
            (e_a, g_a), (e_b, g_b),
            # v values where a u-interval edge crosses the biexciton ridge;
            # the closed-form u-factor has an arctan step of width gxx there.
            (exx_a - k1_lo, gxx_a), (exx_a - k1_hi, gxx_a),
            (exx_b - k1_lo, gxx_b), (exx_b - k1_hi, gxx_b),
        ))
        kind = _KINDS.index(kernels.integrand_kind(*args[:8]))
        jobs.append((kind, i, (k1_lo, k1_hi, *args), bounds))
    if not jobs:
        return out
    # Grouped by kind, so _eval_panels finds each kind's panels in one run.
    jobs.sort(key=lambda job: job[:2])
    live = [job[1] for job in jobs]
    kind = np.array([job[0] for job in jobs])
    par = np.array([job[2] for job in jobs]).T.copy()
    counts = np.array([len(job[3]) - 1 for job in jobs])
    ab = np.array([[x for job in jobs for x in job[3][:-1]],
                   [x for job in jobs for x in job[3][1:]]])
    owner = np.arange(len(jobs)).repeat(counts)
    n = quad.base_nodes
    cf = _eval_panels(par, kind, ab, owner, n)
    active = np.ones(len(jobs), dtype=bool)
    prev = [None] * len(jobs)

    def fail(j, total):
        out[live[j]] = ConvergenceError(
            "window overlap quadrature did not converge "
            f"(rel_tol={quad.rel_tol}, panels={counts[j]})",
            last_estimates=(prev[j], complex(total)))

    for _ in range(quad.max_refinements + 1):
        totals = _ordered_sums(cf[1], owner, counts)
        errs = np.abs(cf[1] - cf[0])
        tol = quad.rel_tol * np.maximum(np.abs(totals), 1e-300)
        passed = _ordered_sums(errs, owner, counts) <= tol
        ok = (active & passed).nonzero()[0]
        for j in ok:
            out[live[j]] = complex(totals[j])
        if ok.size:
            active[ok] = False
            if not active.any():
                return out
            keep = active[owner]
            ab, cf = ab[:, keep], cf[:, keep]
            errs, owner = errs[keep], owner[keep]
            counts[ok] = 0
        mid = 0.5 * (ab[0] + ab[1])
        split = ((errs > (tol / (2 * np.maximum(counts, 1)))[owner])
                 & (ab[0] < mid) & (mid < ab[1]))
        # Every offending panel is at float resolution: no progress possible.
        stuck = (active & (np.bincount(owner, weights=split,
                                       minlength=len(jobs)) == 0)).nonzero()[0]
        for j in stuck:
            fail(j, totals[j])
        if stuck.size:
            active[stuck] = False
            if not active.any():
                return out
            keep = active[owner]
            ab, cf = ab[:, keep], cf[:, keep]
            mid, owner, split = mid[keep], owner[keep], split[keep]
        # Bisect in place: each split panel becomes two adjacent panels.
        at = split.nonzero()[0]
        rep = 1 + split
        ab = ab.repeat(rep, axis=1)
        cf = cf.repeat(rep, axis=1)
        owner = owner.repeat(rep)
        first = at + np.arange(at.size)
        ab[1, first] = ab[0, first + 1] = mid[at]
        children = first.repeat(2)
        children[1::2] += 1
        cf[:, children] = _eval_panels(par, kind, ab[:, children],
                                       owner[children], n)
        counts = np.bincount(owner, minlength=len(jobs))
        for j in active.nonzero()[0]:
            prev[j] = complex(totals[j])
    totals = _ordered_sums(cf[1], owner, counts)
    for j in active.nonzero()[0]:
        fail(j, totals[j])
    return out


def _overlap_box(ch_a, ch_b, k1_lo, k1_hi, k2_lo, k2_hi,
                 quad: QuadratureSpec) -> complex:
    """conj(amplitude_a) * amplitude_b integrated over an open box."""
    value = _overlap_boxes([(ch_a, ch_b, k1_lo, k1_hi, k2_lo, k2_hi)], quad)[0]
    if isinstance(value, ConvergenceError):
        raise value
    return value


def windowed_overlap(ch_a: CascadeChannel, ch_b: CascadeChannel,
                     w: DetectorWindow,
                     quad: QuadratureSpec = DEFAULT_QUAD) -> complex:
    """Window integral of conj(amplitude_a) * amplitude_b."""
    k1_lo, k1_hi = w.k1_interval
    k2_lo, k2_hi = w.k2_interval
    return _overlap_box(ch_a, ch_b, k1_lo, k1_hi, k2_lo, k2_hi, quad)


def brute_force_overlap(ch_a: CascadeChannel, ch_b: CascadeChannel,
                        w: DetectorWindow, n: int = 4000) -> complex:
    """Midpoint-rule cross check of windowed_overlap on an n x n grid."""
    if not (isinstance(n, int) and n >= 2):
        raise ValidationError(f"n must be an integer >= 2, got {n!r}")
    args = _kernel_args(ch_a, ch_b)
    if args[-1] == 0.0:
        return 0j
    k1_lo, k1_hi = w.k1_interval
    k2_lo, k2_hi = w.k2_interval
    return complex(kernels.midpoint_overlap(
        k1_lo, k1_hi, n, k2_lo, k2_hi, n, *args))


def _pair_coherence(ch_a: CascadeChannel, ch_b: CascadeChannel,
                    self_a: float, self_b: float, cross: complex,
                    pairing: str) -> PairCoherence:
    label = pairing or f"{ch_a.branch}-{ch_b.branch}"
    return PairCoherence(
        gamma=cross / (self_a + self_b),
        channel_norms={
            f"{ch_a.pol}:{ch_a.branch}": self_a,
            f"{ch_b.pol}:{ch_b.branch}": self_b,
        },
        pairing=label)


def gamma_prime_from_channels(ch_a: CascadeChannel, ch_b: CascadeChannel,
                              w: DetectorWindow,
                              quad: QuadratureSpec = DEFAULT_QUAD,
                              pairing: str = "") -> PairCoherence:
    """Filtered coherence of two explicit channels (synthetic-state entry)."""
    return gamma_prime_batch([(ch_a, ch_b, w, pairing)], quad)[0]


def gamma_prime_batch(items, quad: QuadratureSpec = DEFAULT_QUAD) -> list:
    """Filtered coherence for many (ch_a, ch_b, window, pairing) items.

    All overlaps go through one batched quadrature.  An item fails with
    the ConvergenceError of its first failing overlap in the order self_a,
    self_b, cross, or with EmptyWindowError when the window holds no
    emission; the first failing item's error is raised.
    """
    boxes = []
    for ch_a, ch_b, w, _ in items:
        k1_lo, k1_hi = w.k1_interval
        k2_lo, k2_hi = w.k2_interval
        for x, y in ((ch_a, ch_a), (ch_b, ch_b), (ch_a, ch_b)):
            boxes.append((x, y, k1_lo, k1_hi, k2_lo, k2_hi))
    values = _overlap_boxes(boxes, quad)
    out = []
    for i, (ch_a, ch_b, _, pairing) in enumerate(items):
        self_a, self_b, cross = values[3 * i:3 * i + 3]
        for value in (self_a, self_b):
            if isinstance(value, ConvergenceError):
                raise value
        if self_a.real + self_b.real < 1e-300:
            raise EmptyWindowError(
                "empty window: no emission inside the acceptance")
        if isinstance(cross, ConvergenceError):
            raise cross
        out.append(_pair_coherence(ch_a, ch_b, self_a.real, self_b.real,
                                   cross, pairing))
    return out


def gamma_prime(params: SystemParams, pairing: str, w: DetectorWindow,
                quad: QuadratureSpec = DEFAULT_QUAD) -> PairCoherence:
    """Filtered polarization coherence for a branch pairing of the cascade."""
    key = normalize_pairing(pairing)
    ch_a, ch_b = pairing_channels(enumerate_channels(params), key)
    return gamma_prime_from_channels(ch_a, ch_b, w, quad, pairing=key)


def _branch_box(ch_h: CascadeChannel, ch_v: CascadeChannel, n_halfwidths: float):
    """Box covering +-N combined half-widths of one branch's H and V lines."""
    gu = ch_h.xx_total_width + ch_v.xx_total_width
    gv = ch_h.intermediate.linewidth + ch_v.intermediate.linewidth
    s1 = n_halfwidths * (gu + gv)
    s2 = n_halfwidths * gv
    k1_lo = min(ch_h.photon1, ch_v.photon1) - s1
    k1_hi = max(ch_h.photon1, ch_v.photon1) + s1
    k2_lo = min(ch_h.photon2, ch_v.photon2) - s2
    k2_hi = max(ch_h.photon2, ch_v.photon2) + s2
    return (k1_lo, k1_hi, k2_lo, k2_hi)


def _outside_fraction(ch: CascadeChannel, box) -> float:
    """Upper bound on the fraction of a channel's norm outside a box.

    Uses the axis-aligned (u, v) core contained in the sheared image of the
    box, where the squared amplitude factorizes into two Lorentzians.
    """
    k1_lo, k1_hi, k2_lo, k2_hi = box
    u_lo = k1_lo + k2_hi
    u_hi = k1_hi + k2_lo
    gxx = ch.xx_total_width
    e = ch.intermediate.energy
    g = ch.intermediate.linewidth
    if u_hi <= u_lo or gxx <= 0 or g <= 0:
        return 1.0
    cov_u = (math.atan((u_hi - ch.e_xx) / gxx)
             - math.atan((u_lo - ch.e_xx) / gxx)) / math.pi
    cov_v = (math.atan((k2_hi - e) / g) - math.atan((k2_lo - e) / g)) / math.pi
    return 1.0 - cov_u * cov_v


def channel_norm(ch: CascadeChannel) -> float:
    """All-space norm of one channel's packet, x_ex^2 x_ph^2 / 4."""
    s = ch.intermediate
    return (s.x_ex ** 2 * s.x_ph ** 2) / 4.0


def gamma_unprojected(params: SystemParams,
                      quad: QuadratureSpec = DEFAULT_QUAD,
                      start_halfwidths: float = 200.0) -> complex:
    """Unfiltered polarization coherence: branch-diagonal H-V overlaps.

    The all-space integrals are truncated to boxes of +-N combined
    half-widths.  N starts at start_halfwidths and grows until the
    Cauchy-Schwarz bound on every neglected cross tail drops below
    quad.rel_tol of the total norm; self terms get the analytic Lorentzian
    tail added back.
    """
    channels = {(c.pol, c.branch): c for c in enumerate_channels(params)}
    norms = {key: channel_norm(ch) for key, ch in channels.items()}
    n_total = ((norms[("H", "LP")] + norms[("V", "LP")])
               + (norms[("H", "UP")] + norms[("V", "UP")]))
    if n_total <= 0:
        raise ValidationError("all channel norms vanished")
    n_hw = max(float(start_halfwidths), 8.0)
    for _ in range(64):
        boxes = {}
        bound = 0.0
        for branch in ("LP", "UP"):
            ch_h = channels[("H", branch)]
            ch_v = channels[("V", branch)]
            box = _branch_box(ch_h, ch_v, n_hw)
            boxes[branch] = box
            pair_norm = norms[("H", branch)] * norms[("V", branch)]
            if pair_norm > 0:
                bound += math.sqrt(norms[("H", branch)] * _outside_fraction(ch_h, box)
                                   * norms[("V", branch)] * _outside_fraction(ch_v, box))
        if bound <= quad.rel_tol * n_total:
            break
        n_hw *= 8.0
    else:
        raise ConvergenceError(
            "could not bound the cross-overlap tails below rel_tol")
    terms = []
    for branch in ("LP", "UP"):
        ch_h = channels[("H", branch)]
        ch_v = channels[("V", branch)]
        terms.append((ch_h, ch_v))
        terms += [(ch, ch) for ch in (ch_h, ch_v)
                  if norms[(ch.pol, ch.branch)] != 0]
    values = _overlap_boxes([(x, y, *boxes[x.branch]) for x, y in terms],
                            quad)
    cross = 0j
    self_sum = 0.0
    for (ch_a, ch_b), value in zip(terms, values):
        if isinstance(value, ConvergenceError):
            raise value
        if ch_a is not ch_b:
            cross += value
        else:
            self_sum += (value.real + norms[(ch_a.pol, ch_a.branch)]
                         * _outside_fraction(ch_a, boxes[ch_a.branch]))
    return complex(cross / self_sum)
