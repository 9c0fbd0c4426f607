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

One array-level routine, _integrate, integrates every overlap: a batch of
boxes arrives as one array of pole parameters and window bounds (built by
_box_args), the panels of a large batch are seeded in array passes, and
each kernel call evaluates both Gauss-Legendre rules on a block of panels.
Channel objects reach it through _overlap_boxes (windowed_overlap,
gamma_unprojected) and gamma_prime_from_channels; detuning sweeps reach
it through gamma_prime_arrays, straight from cascade.channel_arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .cascade import (STATE_ORDER, CascadeChannel, ChannelArrays,
                      channel_arrays, enumerate_channels)
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


def _prefactor(x_ex, x_ph, gxx, g):
    """Amplitude prefactor x_ex x_ph sqrt(gxx g) / 2pi, on floats or arrays."""
    return x_ex * x_ph * np.sqrt(gxx * g) / TWO_PI


def _amp_prefactor(ch: CascadeChannel) -> float:
    s = ch.intermediate
    return float(_prefactor(s.x_ex, s.x_ph, ch.xx_total_width, s.linewidth))


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


def _gl_rules(n: int):
    """Nodes of the n- and 2n-node Gauss-Legendre rules on [-1, 1], one
    array after the other, and each rule's weights."""
    if n not in _GL_CACHE:
        xs_c, ws_c = np.polynomial.legendre.leggauss(n)
        xs_f, ws_f = np.polynomial.legendre.leggauss(2 * n)
        _GL_CACHE[n] = (np.concatenate([xs_c, xs_f]), ws_c, ws_f)
    return _GL_CACHE[n]


# Panels per kernel call.  Bounds the node temporaries (256 x 48 complex
# values, 192 kB each) however many overlaps a batch holds.
_BLOCK_PANELS = 256

# Panels one overlap may grow to.  Near roundoff a pass can split every
# panel, so max_refinements alone would allow 2^30-fold growth.
_MAX_PANELS = 65536


def _eval_panels(par, kind, ab, owner, n):
    """Coarse (n-node) and fine (2n-node) Gauss-Legendre values per panel.

    Panel i spans (ab[0, i], ab[1, i]) of overlap owner[i], whose kernel
    arguments are column owner[i] of par.  Owners ascend and kind[owner]
    (an index into kernels.KINDS) with them, so each kernel call takes a
    contiguous run of up to _BLOCK_PANELS panels of one kind, one row of
    3n nodes (both rules) per panel.  A panel's value depends only on its
    own bounds and arguments: each row is summed on its own, the same way
    at any block size or position.  Returns the coarse and fine values as
    two rows.
    """
    xs, ws_c, ws_f = _gl_rules(n)
    out = np.empty(ab.shape, dtype=complex)
    edges = kind[owner].searchsorted(np.arange(len(kernels.KINDS) + 1))
    for name, lo, hi in zip(kernels.KINDS, edges[:-1], edges[1:]):
        for start in range(lo, hi, _BLOCK_PANELS):
            run = slice(start, min(start + _BLOCK_PANELS, hi))
            a, b = ab[:, run]
            half = 0.5 * (b - a)
            # Nodes run down the columns, so the pole parameters broadcast
            # along contiguous rows; the weighted products are laid out
            # one panel per row again before the row sums.
            v = xs[:, None] * half
            v += 0.5 * (a + b)
            vals = kernels.overlap_integrand(v, *par[:, owner[run]],
                                             kind=name)
            del v
            out[0, run] = np.multiply(vals[:n].T, ws_c, order="C").sum(
                axis=1) * half
            out[1, run] = np.multiply(vals[n:].T, ws_f, order="C").sum(
                axis=1) * half
            # Node arrays are freed as soon as they are used, so that a
            # block's arrays are not alive next to the next block's.
            del vals
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


# Batches of fewer boxes are seeded box by box: the array form costs about
# as much as _panel_bounds on eight boxes, mostly in fixed per-call work.
_SEED_ARRAY_MIN_BOXES = 8


def _seed_rows(lo, hi, centers, scales):
    """_panel_bounds of each box, flattened like _seed_panels."""
    rows = [_panel_bounds(a, b, zip(c, s)) for a, b, c, s in zip(
        lo.tolist(), hi.tolist(), centers.tolist(), scales.tolist())]
    return (np.array([[x for r in rows for x in r[:-1]],
                      [x for r in rows for x in r[1:]]]),
            np.array([len(r) - 1 for r in rows], dtype=int))


def _seed_panels(lo, hi, centers, scales):
    """_panel_bounds of many boxes at once, flattened into panels.

    Box i spans (lo[i], hi[i]) with features (centers[i, f], scales[i, f]).
    Returns the bounds of every panel as two rows, box after box, and each
    box's panel count; both equal _panel_bounds bit for bit.  From
    _SEED_ARRAY_MIN_BOXES boxes on, each box's cuts (hi, and each valid
    feature's center and ladder) fill one padded row, which is masked to
    (lo, hi], sorted and stripped of exact repeats.  Where no two of the
    remaining values lie within 1e-13 of the span, they are the bounds;
    the other rows go through _panel_bounds.
    """
    if lo.size < _SEED_ARRAY_MIN_BOXES:
        return _seed_rows(lo, hi, centers, scales)
    span = (hi - lo)[:, None]
    valid = (scales > 0) & np.isfinite(scales)
    # Ladder steps scale * 8^k, exact like the repeated *= 8.0 of the
    # loop; the rung count covers the smallest scale against its span.
    ratio = np.max(span / np.where(valid, scales, np.inf), initial=1.0)
    rungs = 8.0 ** np.arange(int(math.log(ratio, 8.0)) + 2)
    step = scales[:, :, None] * rungs
    step[~((step < span[:, :, None]) & valid[:, :, None])] = np.nan
    ladder = centers[:, :, None]
    bounds = np.concatenate([lo[:, None], hi[:, None],
                             np.where(valid, centers, np.nan),
                             (ladder - step).reshape(lo.size, -1),
                             (ladder + step).reshape(lo.size, -1)], axis=1)
    del step
    # Cuts outside (lo, hi] become NaN, which sorts after the rest; lo,
    # below every kept cut, leads each row.
    cuts = bounds[:, 1:]
    cuts[~((lo[:, None] < cuts) & (cuts <= hi[:, None]))] = np.nan
    bounds.sort(axis=1)
    gap = bounds[:, 1:] - bounds[:, :-1]
    # First occurrences of the values: lo leads every row, and hi, its
    # largest cut, ends it.
    keep = np.ones(bounds.shape, dtype=bool)
    keep[:, 1:] = gap > 0
    close = (gap <= 1e-13 * span).any(axis=1, where=keep[:, 1:])
    del gap
    fast = (~close).nonzero()[0]
    if fast.size < lo.size:
        bounds, keep = bounds[fast], keep[fast]
    upper = bounds[:, 1:][keep[:, 1:]]
    top = keep.shape[1] - 1 - keep[:, ::-1].argmax(axis=1)
    keep[np.arange(fast.size), top] = False
    ab = np.array([bounds[keep], upper])
    if fast.size == lo.size:
        return ab, keep.sum(axis=1)
    slow = close.nonzero()[0]
    ab_slow, counts_slow = _seed_rows(lo[slow], hi[slow], centers[slow],
                                      scales[slow])
    counts = np.empty(lo.size, dtype=int)
    counts[fast] = keep.sum(axis=1)
    counts[slow] = counts_slow
    panels = close.repeat(counts)
    out = np.empty((2, panels.size))
    out[:, ~panels] = ab
    out[:, panels] = ab_slow
    return out, counts


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


def _box_args(side_a, side_b, k1_lo, k1_hi, k2_lo, k2_hi):
    """The _integrate rows of conj(amplitude_a) * amplitude_b over boxes.

    side_a and side_b hold the _side rows of the channel on each side of
    every box.  Rows: k1_lo, k1_hi, the nine overlap_integrand pole
    parameters (exx_a, gxx_a, exx_b, gxx_b, e_a, g_a, e_b, g_b, pref),
    k2_lo and k2_hi.
    """
    exx_a, gxx_a, e_a, g_a, pref_a = side_a
    exx_b, gxx_b, e_b, g_b, pref_b = side_b
    return np.array([k1_lo, k1_hi, exx_a, gxx_a, exx_b, gxx_b, e_a, g_a,
                     e_b, g_b, pref_a * pref_b, k2_lo, k2_hi])


def _kernel_args(ch_a: CascadeChannel, ch_b: CascadeChannel):
    """Pole parameters of conj(amplitude_a) * amplitude_b for the kernels:
    the nine middle _box_args rows, as floats."""
    side_a, side_b = _sides([ch_a, ch_b]).T
    return tuple(_box_args(side_a, side_b, 0.0, 0.0, 0.0, 0.0)[2:11].tolist())


def _integrate(boxes, quad: QuadratureSpec):
    """conj(amplitude_a) * amplitude_b integrated over many open boxes.

    Column i of boxes holds the _box_args rows of box i.  Returns the
    complex value of every box (0 for an empty box or a vanishing
    amplitude) and a dict from the index of each box that failed to its
    ConvergenceError.  The v-integral runs
    on adaptive Gauss-Legendre panels seeded around every pole and
    ridge-edge location; a box passes when the fine-minus-coarse
    estimates, summed in panel order, reach quad.rel_tol of its fine sum,
    and only the panels of boxes that miss it are bisected.  A box fails
    once no offending panel can be split or splitting would take it past
    _MAX_PANELS.  Every value is a pure function of its own box and quad,
    the same in any batch.
    """
    values = np.zeros(boxes.shape[1], dtype=complex)
    failed = {}
    (k1_lo, k1_hi, exx_a, gxx_a, exx_b, gxx_b, e_a, g_a, e_b, g_b, pref,
     k2_lo, k2_hi) = boxes
    kind = kernels.kind_index(exx_a, gxx_a, exx_b, gxx_b, e_a, g_a, e_b, g_b)
    live = (~((pref == 0.0) | (k1_hi <= k1_lo) | (k2_hi <= k2_lo))).nonzero()[0]
    if not live.size:
        return values, failed
    # Grouped by kind, so _eval_panels finds each kind's panels in one run.
    live = live[np.argsort(kind[live], kind="stable")]
    kind = kind[live]
    par = boxes[:11, live]
    k1_lo, k1_hi, exx_a, gxx_a, exx_b, gxx_b, e_a, g_a, e_b, g_b, _ = par
    k2_lo, k2_hi = boxes[11:, live]
    ab, counts = _seed_panels(k2_lo, k2_hi, np.array([
        e_a, e_b,
        # v values where a u-interval edge crosses the biexciton ridge;
        # the closed-form u-factor has an arctan step of width gxx there.
        exx_a - k1_lo, exx_a - k1_hi, exx_b - k1_lo, exx_b - k1_hi,
    ]).T, np.array([g_a, g_b, gxx_a, gxx_a, gxx_b, gxx_b]).T)
    jobs = live.size
    owner = np.arange(jobs).repeat(counts)
    n = quad.base_nodes
    cf = _eval_panels(par, kind, ab, owner, n)
    active = np.ones(jobs, dtype=bool)
    prev = np.zeros(jobs, dtype=complex)
    has_prev = np.zeros(jobs, dtype=bool)

    def fail(j, total):
        failed[int(live[j])] = ConvergenceError(
            "window overlap quadrature did not converge "
            f"(rel_tol={quad.rel_tol}, panels={counts[j]})",
            last_estimates=(complex(prev[j]) if has_prev[j] else None,
                            complex(total)))

    for _ in range(quad.max_refinements + 1):
        totals = _ordered_sums(cf[1], owner, counts)
        errs = np.abs(cf[1] - cf[0])
        tol = quad.rel_tol * np.maximum(np.abs(totals), 1e-300)
        passed = _ordered_sums(errs, owner, counts) <= tol
        ok = (active & passed).nonzero()[0]
        values[live[ok]] = totals[ok]
        if ok.size:
            active[ok] = False
            if not active.any():
                return values, failed
            keep = active[owner]
            ab, cf = ab[:, keep], cf[:, keep]
            errs, owner = errs[keep], owner[keep]
            counts[ok] = 0
        mid = 0.5 * (ab[0] + ab[1])
        split = ((errs > (tol / (2 * np.maximum(counts, 1)))[owner])
                 & (ab[0] < mid) & (mid < ab[1]))
        # No progress is possible when every offending panel is at float
        # resolution, and none is allowed past the panel cap.
        splits = np.bincount(owner, weights=split, minlength=jobs)
        stuck = (active & ((splits == 0)
                           | (counts + splits > _MAX_PANELS))).nonzero()[0]
        for j in stuck:
            fail(j, totals[j])
        if stuck.size:
            active[stuck] = False
            if not active.any():
                return values, failed
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
        counts = np.bincount(owner, minlength=jobs)
        prev[active] = totals[active]
        has_prev |= active
    totals = _ordered_sums(cf[1], owner, counts)
    for j in active.nonzero()[0]:
        fail(j, totals[j])
    return values, failed


def _overlap_boxes(boxes, quad: QuadratureSpec) -> list:
    """_integrate over boxes (ch_a, ch_b, k1_lo, k1_hi, k2_lo, k2_hi).

    Returns one entry per box: its complex value, or the ConvergenceError
    it failed with.
    """
    if not boxes:
        return []
    chans_a, chans_b, *bounds = zip(*boxes)
    values, failed = _integrate(
        _box_args(_sides(chans_a), _sides(chans_b), *np.array(bounds)), quad)
    out = values.tolist()
    for i, error in failed.items():
        out[i] = error
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


def _pair_overlaps(side_a, side_b, k1_lo, k1_hi, k2_lo, k2_hi,
                   quad: QuadratureSpec):
    """Self overlaps and gamma' of many points, as arrays.

    side_a and side_b hold the _side rows of the channel on each side of
    every point.  Point i's window is the box (k1_lo[i], k1_hi[i]) x
    (k2_lo[i], k2_hi[i]).  The self_a, self_b and cross overlaps of all
    points go through one _integrate call.  Raises the error of the first
    failing point: the ConvergenceError of its self_a, then its self_b
    overlap, EmptyWindowError when its window holds no emission, the
    ConvergenceError of its cross overlap, or the ValidationError of a
    |gamma'| above 1/2.  Returns (self_a, self_b, gamma).
    """
    n = len(k1_lo)
    values, failed = _integrate(_box_args(
        np.concatenate([side_a, side_b, side_a], axis=1),
        np.concatenate([side_a, side_b, side_b], axis=1),
        *np.tile([k1_lo, k1_hi, k2_lo, k2_hi], 3)), quad)
    self_a, self_b = values[:n].real, values[n:2 * n].real
    cross = values[2 * n:]
    norm = self_a + self_b
    empty = norm < 1e-300
    # Divides each part by the real norm; empty windows raise below.
    norm = np.where(empty, 1.0, norm)
    gamma = np.empty(n, dtype=complex)
    gamma.real = cross.real / norm
    gamma.imag = cross.imag / norm
    bad = empty | (np.abs(gamma) > 0.5 + 1e-9)
    bad[[j % n for j in failed]] = True
    if bad.any():
        i = int(bad.argmax())
        for j in (i, n + i):
            if j in failed:
                raise failed[j]
        if empty[i]:
            raise EmptyWindowError(
                "empty window: no emission inside the acceptance")
        if 2 * n + i in failed:
            raise failed[2 * n + i]
        raise ValidationError(
            f"|gamma| = {abs(complex(gamma[i]))!r} exceeds the 1/2 bound")
    return self_a, self_b, gamma


def gamma_prime_arrays(channels: ChannelArrays, pairing: str, center1,
                       center2, width, quad: QuadratureSpec = DEFAULT_QUAD):
    """Self overlaps and gamma' of a pairing at every point of a channel
    array.

    Point i's window has centers center1[i], center2[i] and full width
    width, one number for all points or an array of one per point.
    Returns the self_a, self_b and gamma arrays; errors are raised in the
    order of _pair_overlaps.
    """
    def side(row):
        """The _side rows of one channel at every point."""
        s = channels.states
        return _side(channels.photon1[row] + channels.photon2[row],
                     channels.xx_total_width[row], s.energy[row],
                     s.linewidth[row], s.x_ex[row], s.x_ph[row])

    row_a, row_b = (STATE_ORDER.index(label)
                    for label in pairing_labels(pairing))
    half = np.divide(width, 2)
    return _pair_overlaps(side(row_a), side(row_b), center1 - half,
                          center1 + half, center2 - half, center2 + half, quad)


def gamma_prime_from_channels(ch_a: CascadeChannel, ch_b: CascadeChannel,
                              w: DetectorWindow,
                              quad: QuadratureSpec = DEFAULT_QUAD,
                              pairing: str = "") -> PairCoherence:
    """Filtered coherence of two explicit channels (synthetic-state entry)."""
    bounds = ([b] for b in (*w.k1_interval, *w.k2_interval))
    self_a, self_b, gamma = _pair_overlaps(_sides([ch_a]), _sides([ch_b]),
                                           *bounds, quad)
    return PairCoherence(
        gamma=complex(gamma[0]),
        channel_norms={f"{ch_a.pol}:{ch_a.branch}": float(self_a[0]),
                       f"{ch_b.pol}:{ch_b.branch}": float(self_b[0])},
        pairing=pairing or f"{ch_a.branch}-{ch_b.branch}")


def gamma_prime(params: SystemParams, pairing: str, w: DetectorWindow,
                quad: QuadratureSpec = DEFAULT_QUAD) -> PairCoherence:
    """Filtered polarization coherence for a branch pairing of the cascade.

    The one-point case of gamma_prime_arrays, so a sweep row equals it bit
    for bit.
    """
    key = normalize_pairing(pairing)
    channels = channel_arrays(params, [params.cav_mean])
    channels.check(0)
    self_a, self_b, gamma = gamma_prime_arrays(
        channels, key, np.array([w.center1]), np.array([w.center2]), w.width,
        quad)
    (pol_a, branch_a), (pol_b, branch_b) = pairing_labels(key)
    return PairCoherence(gamma=complex(gamma[0]),
                         channel_norms={f"{pol_a}:{branch_a}": float(self_a[0]),
                                        f"{pol_b}:{branch_b}": float(self_b[0])},
                         pairing=key)


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
