"""Exact window integrals of two-photon amplitude products.

A window overlap integrates conj(A_a) * A_b over a box k1 in
[k1_lo, k1_hi], k2 in [k2_lo, k2_hi].  In rotated coordinates u = k1 + k2,
v = k2 the integrand is

    pref / ((u - p) (u - q) (v - pa) (v - pb)),

with the conjugated factor's poles in the upper half plane
(p = exx_a + i gxx_a along u, pa = e_a + i g_a along v) and the direct
factor's in the lower half plane (q = exx_b - i gxx_b, pb = e_b - i g_b).
Integrating one pair of poles over a segment gives logs (_pair_integral);
overlap_integrand is the v-integrand the u-integral leaves.
midpoint_overlap is the brute-force 2-d midpoint rule over the original
(k1, k2) box, used as a cross check.

window_overlaps integrates the boxes of a batch of channel pairs
exactly: for each point, the self overlaps of both channels and their
cross overlap over one window.  Both photons of a pair come from one
biexciton decay, so the two channels of a point share their u-pole p;
a pair whose u-poles differ is refused.  Partial fractions in u and v
turn a box into eight integrals J(s, r) = int log(v - s) / (v - r) dv,
each a difference of complex dilogarithms ('t Hooft and Veltman, Nucl.
Phys. B153 (1979) 365): _dilog_form, which takes every tracked window.
A point's three boxes share terms, and a term whose s is a
lower-half-plane u-pole is the conjugate of one in the upper half plane,
J(conj s, conj r) = conj J(s, r), which holds because the biexciton
width is positive.  So one table of 8 terms per point gives all 24,
directly or conjugated: rows s = p - w1, p (w1 the k1 width) and
columns r = pa_a, conj pa_a, pa_b, conj pa_b.  A self overlap is
-Re X / (2 gxx g) pref^2 with X = (J00 - J01) - (J10 - J11) over its
channel's columns, real by construction; the cross overlap sums eight
table entries, four of them conjugated.  Each complex log of the table
is taken once, and only on the entries that use it: at each window edge,
log(1 - z) on every entry and log w once per row; the other logs of
_dilog only on the entries its maps move, and those of the cut only
where the path crosses it.

A sum cancels once poles lie outside the box (3 meV off the ridge, 7
digits were left), so a box whose sum cancels by more than
_DILOG_CANCELLATION goes to a 64-node Gauss-Legendre rule instead: over
v when the ridge lies outside the window (_ridge_rule), over u when the
polariton poles do (_sheared_rule), with the poles near the window
subtracted and integrated in closed form.  Where neither applies, the
box is halved in v until one applies to each piece.

Boxes are integrated relative to their corner (k1_lo, k2_lo), so window
widths enter exactly, and each value depends only on its own point.
Results do not depend on the host's SIMD: the arithmetic is complex log,
complex divide, abs, and real add, subtract, multiply and divide, whose
results NumPy's CPU dispatch does not change.  Every log is taken by
_log, on complex arrays.  Complex products are
spelled out in real arithmetic (_mul), because a fused multiply-add would
round them differently; a product with a real factor rounds the same
either way.
"""
import math
from functools import cache

import numpy as np

from .errors import ValidationError

# Kept for callers that record which implementation ran; NumPy is the only one.
BACKEND = "python"

_PI2_6 = math.pi ** 2 / 6

# B_2k / (2k + 1)! for k = 1..12: the even Bernoulli terms of the series
# of Li2 in -log(1 - z), whose argument stays within |u| <= 1.05 after the
# region maps of _dilog; the first term left out is below 1e-17.
_LI2_TERMS = tuple(b / math.factorial(2 * k + 1) for k, b in enumerate((
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
    -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
    -236364091 / 2730), start=1))

# Gauss-Legendre nodes of the rules, and the margin that admits them: a
# pole whose real part lies outside [a - m, b + m], m = (b - a) / 32, is
# outside the Bernstein ellipse of parameter 1.42 around [a, b], where the
# 64-node rule errs by about 1.42^-128 = 3e-20 relative.
_NODES = 64
_MARGIN = 1 / 32

# Boxes go to a rule where the dilogarithm sum cancels by more than this
# factor (its error is about 1e-16 times the factor) and a rule applies.
# The fig4 sweeps' tracked windows cancel by at most 32.
_DILOG_CANCELLATION = 256.0


def _join(re, im):
    """The complex array re + i im, built without arithmetic."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _mul(x, y):
    """Complex product from separate real products and sums."""
    return _join(x.real * y.real - x.imag * y.imag,
                 x.real * y.imag + x.imag * y.real)


def _log(z):
    """The principal log of z taken as complex, per element: the one log
    rule of the kernels.  A real argument would reach NumPy's real log,
    which rounds differently at different SIMD levels."""
    return np.log(np.asarray(z, dtype=complex))


def _log1p_over(x):
    """log(1 + x) / x on complex arrays, accurate for small |x|: with
    u = 1 + x rounded, log(u) / (u - 1) is the same function at the x
    that u represents exactly."""
    u = 1.0 + x
    exact = u == 1.0
    return np.where(exact, 1.0, _log(u) / np.where(exact, 1.0, u - 1.0))


def _log1p(x):
    """log(1 + x), accurate for small |x|."""
    return _mul(x, _log1p_over(x))


def _pair_integral(lo_p, lo_q, width, pq):
    """Integral of 1 / ((x - p)(x - q)) from lo to lo + width, given
    lo - p, lo - q, width and p - q.

    log((hi - p) / (lo - p)) - log((hi - q) / (lo - q)) is the integral's
    log for real x with p above and q below the axis, and its continuation
    elsewhere.  Where its imaginary part, the angle the path subtends, is
    under pi/2, the log of the product of the two ratios, log1p(X), is the
    same value, and it keeps the digits that the difference of two close
    logs loses.  Only the elements that use log1p(X) take its log, and
    only the others divide the difference by p - q.
    """
    logs = _log1p(width / lo_p) - _log1p(width / lo_q)
    single = np.abs(logs.imag) < 0.5 * math.pi
    pq = np.broadcast_to(pq, logs.shape)
    out = np.divide(logs, pq, out=np.empty(logs.shape, dtype=complex),
                    where=~single)
    # X = width (p - q) / ((lo - p)(hi - q)).
    span = (width / _mul(lo_p, lo_q + width))[single]
    out[single] = _mul(span, _log1p_over(_mul(span, pq[single])))
    return out


def overlap_integrand(v, k1_lo, k1_hi, exx_a, gxx_a, exx_b, gxx_b,
                      e_a, g_a, e_b, g_b, pref):
    """Closed-form u-integral times the v-pole factors, on an array of v.

    The parameters are scalars or arrays that broadcast against v.  Every
    step is elementwise: a value depends on its own v and parameters, not
    on the rest of the call.
    """
    v = np.asarray(v, dtype=float)
    p, q = exx_a + 1j * gxx_a, exx_b - 1j * gxx_b
    lo = k1_lo + v
    fu = _pair_integral(lo - p, lo - q, k1_hi - k1_lo, p - q)
    fu = fu / (v - (e_a + 1j * g_a)) / (v - (e_b - 1j * g_b))
    return (fu * pref)[()]


def _dilog(z, log1p_minus_z):
    """Li2(z), the principal dilogarithm, on flat complex arrays, given
    log(1 - z) as _log1p(-z).

    Maps z into |z| <= 1, Re z <= 1/2 with Li2(z) = -Li2(1/z) - pi^2/6 -
    log^2(-z) / 2 and Li2(z) = -Li2(1 - z) + pi^2/6 - log(z) log(1 - z),
    then sums the Bernoulli series in u = -log(1 - z) (Vollinga and
    Weinzierl, Comput. Phys. Commun. 167 (2005) 177).  z must be off the
    cut z > 1 and away from 0 and 1.

    An element that neither map moves takes no log here: its u is the
    given log.  One that a map moves to z2 takes log(1 - z2), and also
    log(-z) where inverted and log(z2) where reflected.
    """
    inverted = np.abs(z) > 1
    inv = inverted.nonzero()[0]
    z1 = z.copy()
    z1[inv] = 1.0 / z[inv]
    reflected = z1.real > 0.5
    refl = reflected.nonzero()[0]
    z2 = z1.copy()
    z2[refl] = 1.0 - z1[refl]
    u = -log1p_minus_z
    moved = (inverted | reflected).nonzero()[0]
    u[moved] = -_log1p(-z2[moved])
    # Horner's rule on the real and imaginary parts, in _mul's order.
    ur, ui = u.real, u.imag
    u2r = ur * ur - ui * ui
    u2i = ur * ui + ui * ur
    tr = np.full(u.shape, _LI2_TERMS[-1])
    ti = np.zeros(u.shape)
    for c in _LI2_TERMS[-2::-1]:
        tr, ti = tr * u2r - ti * u2i + c, tr * u2i + ti * u2r
    u2 = _join(u2r, u2i)
    value = u - 0.25 * u2 + _mul(u, _mul(u2, _join(tr, ti)))
    # Where refl, log(z1) = log(1 - z2) = -u.
    value[refl] = _PI2_6 - value[refl] + _mul(u[refl], _log(z2[refl]))
    log_minus_z = _log(-z[inv])
    value[inv] = -value[inv] - _PI2_6 - 0.5 * _mul(log_minus_z, log_minus_z)
    return value


def _dilog_table(w2, s, r):
    """J(s, r) = int log(v - s) / (v - r) dv over v in [0, w2], on
    arrays s and r that broadcast together, and the summed sizes of the
    terms that make up each J.

    For w = v - s and d = r - s, J(s, r) is [log w log(1 - w/d) +
    Li2(w/d)] between the window edges, minus sign(Im 1/d) 2 pi i
    (log x - log w*) when w/d crosses the cut of both functions at x > 1
    (w* is w there).  An edge exactly on the real axis counts as lying on
    the side the path leaves it by.  d = 0 gives log^2(w) / 2.

    An entry takes at each edge log(1 - z), which serves both the product
    term and _dilog (as log((r - edge) / d) where |1 - z| < 1/2), plus
    what _dilog takes for the entries its maps move; each row s takes
    log w.  Only an entry that crosses the cut takes the two logs of its
    jump, log x and log w*.

    The work runs on flat arrays: NumPy's loops over the real and
    imaginary parts of a flat array cost less than over a table's axes.
    """
    d = r - s
    shape = d.shape

    def flat(x):
        """x spread over the table, as one flat array."""
        out = np.empty(shape, x.dtype)
        out[...] = x
        return out.reshape(-1)

    d = d.reshape(-1)
    s_flat, r_flat, w2_flat = flat(s), flat(r), flat(w2)
    degenerate = d == 0
    d = np.where(degenerate, 1.0, d)
    degenerate_at = degenerate.nonzero()[0]
    # One window edge at a time, which halves the temporaries.
    f, im, size = [], [], 0.0
    for edge, edge_flat, side in ((0.0, 0.0, -d.imag), (w2, w2_flat, d.imag)):
        z = (edge_flat - s_flat) / d
        # Im z along the path runs with Im(1/d), of sign opposite to Im d.
        z.imag = np.where(z.imag == 0, np.copysign(1e-300, side), z.imag)
        # log w takes one log per row s, not one per table entry.
        log_w = flat(_log(edge - s))
        log1p_minus_z = _log1p(-z)
        # Near z = 1, as where the pole r lies on an edge, 1 - z rounded
        # from z keeps only the digits of |1 - z|; (r - edge) / d keeps
        # all.  It takes the side of the cut that z takes.
        one_minus_z = (r_flat - edge_flat) / d
        one_minus_z.imag = np.copysign(one_minus_z.imag, -z.imag)
        near_one = ((np.abs(one_minus_z) < 0.5)
                    & (one_minus_z != 0)).nonzero()[0]
        log1p_minus_z[near_one] = _log(one_minus_z[near_one])
        parts = (_mul(log_w, log1p_minus_z), _dilog(z, log1p_minus_z))
        log_w0 = log_w[degenerate_at]
        parts[0][degenerate_at] = 0.5 * _mul(log_w0, log_w0)
        parts[1][degenerate_at] = 0.0
        f.append(parts[0] + parts[1])
        size = size + np.abs(parts[0]) + np.abs(parts[1])
        im.append(z.imag.copy())
    j = f[1] - f[0]
    # The path crosses the real axis of z where Im z changes sign, at the
    # fraction t of the window; w* shares the path's Im w = -Im s.
    im_lo, im_hi = im
    crosses = (im_lo < 0) != (im_hi < 0)
    t = im_lo / np.where(crosses, im_lo - im_hi, 1.0)
    w_cross = _join(t * w2_flat - s_flat.real, -s_flat.imag)
    x = (w_cross / d).real
    cut = (crosses & (x > 1) & ~degenerate).nonzero()[0]
    if cut.size:
        log_ratio = _log(x[cut]) - _log(w_cross[cut])
        jump = 2 * math.pi * _join(-log_ratio.imag, log_ratio.real)
        j[cut] -= np.copysign(1.0, im_hi[cut] - im_lo[cut]) * jump
        size[cut] += np.abs(jump)
    return j.reshape(shape), size.reshape(shape)


def _dilog_form(w1, w2, p, pa):
    """The self and cross box integrals (pref 1) of channel pairs, and
    how much each sum cancels: the sum of its terms' sizes over its size.

    p holds each point's upper-half-plane biexciton pole along u, which
    both channels share, and pa the polariton poles of the a and b
    channels along v, relative to the box corner: v runs over [0, w2],
    the u-pole sits at exx - k1_lo - k2_lo + i gxx.  Returns the real self
    integrals (row a, row b), the complex cross integral, and the
    cancellations of the self_a, self_b and cross sums as rows.

    Partial fractions put s at p - w1, p, conj(p) - w1 and conj(p), and r
    at the polariton pole of one channel and the conjugate of the
    other's.  The terms with s in the lower half plane are J(conj s,
    conj r) = conj J(s, r), since v is real and log(v - s) never meets
    its cut while Im s = gxx > 0.  So one table of 8 terms holds every
    term of a point's three boxes: rows s = p - w1, p and columns r =
    pa_a, conj pa_a, pa_b, conj pa_b.  A self integral is
    2 Re X / ((2i gxx)(2i g)) with X = (J00 - J01) - (J10 - J11) over its
    channel's columns; the cross integral sums the Y = (J00 - J03) -
    (J10 - J13) of a with the conjugated Y of b.
    """
    pa_bar = np.conj(pa)
    # Axes of the table: row s (p - w1, p), channel (a, b), column r
    # (pa, conj pa of the channel), point.
    j, size = _dilog_table(w2, np.array([p - w1, p])[:, None, None],
                           np.array([[pa[0], pa_bar[0]], [pa[1], pa_bar[1]]]))
    # Column 0 less column 1 (X) and less the other channel's column 1
    # (Y), row p - w1 less row p, for each channel, and the summed sizes
    # of their terms.
    x = j[:, :, 0].real - j[:, :, 1].real
    x = x[0] - x[1]
    y = j[:, :, 0] - j[:, ::-1, 1]
    y = y[0] - y[1]
    total = y[0] + np.conj(y[1])
    size_x = size[:, :, 0] + size[:, :, 1]
    size_x = size_x[0] + size_x[1]
    size_y = size[:, :, 0] + size[:, ::-1, 1]
    size_y = size_y[0] + size_y[1]
    with np.errstate(divide="ignore"):
        cancellation = np.array([*(size_x / np.abs(x)),
                                 (size_y[0] + size_y[1]) / np.abs(total)])
    return (-x / (2 * p.imag * pa.imag),
            total / (p - np.conj(p)) / (pa[0] - pa_bar[1]),
            cancellation)


def _gap(lo, hi, a, b):
    """How far the interval [lo, hi] lies outside [a, b]."""
    return np.maximum(np.maximum(lo - b, a - hi), 0.0)


@cache
def _gauss_legendre():
    return np.polynomial.legendre.leggauss(_NODES)


def _pole_rule(lo, hi, inner, r1, r2, s1, s2):
    """int F(x) / ((x - r1)(x - r2)) dx over [lo, hi].  F(x) is the
    _pair_integral with poles s1, s2 from off_a + slope_a x to off_b +
    slope_b x, inner = (off_a, slope_a, off_b, slope_b), and must be
    analytic within _MARGIN (hi - lo) of [lo, hi].

    A pole r within that margin is subtracted with its residue
    c = F(r) / (r - other) and integrated in closed form,
    c log((hi - r) / (lo - r)); the rest goes to the Gauss-Legendre rule,
    summed node by node in a fixed order.
    """
    off_a, slope_a, off_b, slope_b = inner

    def smooth(x):
        a = off_a + slope_a * x
        width = (off_b - off_a) + (slope_b - slope_a) * x
        return _pair_integral(a - s1, a - s2, width, s1 - s2)

    half = 0.5 * (hi - lo)
    center = 0.5 * (lo + hi)
    nodes, weights = (rule.reshape((-1,) + (1,) * np.ndim(half))
                      for rule in _gauss_legendre())
    x = center + half * nodes
    f = smooth(x) / (x - r1) / (x - r2)
    total = 0j
    for r, other in ((r1, r2), (r2, r1)):
        near = _gap(r.real, r.real, lo, hi) < _MARGIN * (hi - lo)
        if near.any():
            c = np.where(near, smooth(np.where(near, r, center)) / (r - other),
                         0)
            f -= c / (x - r)
            total = total + _mul(c, _log((hi - r) / (lo - r)))
    # accumulate adds the nodes' terms one after another.
    return total + half * np.add.accumulate(weights * f)[-1]


def _ridge_rule(w1, w2, p, q, pa, pb):
    """The box integral (pref 1) by the rule over v, where the u-segment
    at v runs from v to v + w1; coordinates as in _dilog_form."""
    return _pole_rule(0.0, w2, (0.0, 1.0, w1, 1.0), pa, pb, p, q)


def _sheared_rule(w1, w2, p, q, pa, pb):
    """The box integral (pref 1) by the rule over u, for boxes far from
    the polariton poles; corner-relative coordinates as in _dilog_form.

    u runs over [0, w1 + w2] in three pieces between the corners 0, w1,
    w2 and w1 + w2, and at each u the v-integral runs from max(0, u - w1)
    to min(w2, u), one formula per piece.
    """
    corners = np.sort([np.zeros_like(w1), w1, w2, w1 + w2], axis=0)
    lo, hi = corners[:-1], corners[1:]
    mid = 0.5 * (lo + hi)
    from_u = mid - w1 > 0
    to_u = mid < w2
    inner = (np.where(from_u, -w1, 0.0), from_u * 1.0,
             np.where(to_u, 0.0, w2), to_u * 1.0)
    return np.add.accumulate(_pole_rule(lo, hi, inner, p, q, pa, pb))[-1]


# Halvings of a box in v before a cancelling dilogarithm sum is kept: a
# line 2^-40 of the window width outside it takes about 35.
_MAX_DEPTH = 48


def _exact_overlaps(w1, w2, p, pa, depth=0):
    """The self integrals (rows a, b) and the cross integral (pref 1) of
    nonempty boxes, in the coordinates of _dilog_form: by its dilogarithm
    sums, or by a rule where a sum cancels by more than
    _DILOG_CANCELLATION and a rule applies.

    A box whose sum cancels with no rule to take it, because a line or
    the ridge lies just outside the window or the two lie apart inside
    it, is halved in v and each half taken the same way.  The halves next
    to the line or ridge shrink toward it until the rule that needs it
    beyond their margin applies, up to _MAX_DEPTH halvings.
    """
    self_, cross, cancellation = _dilog_form(w1, w2, p, pa)
    stuck = cancellation > _DILOG_CANCELLATION
    if stuck.any():
        # A rule applies where the real parts lie beyond the margin of
        # [0, w2]: those of the v at which k1 + v meets a u-pole (segments
        # [p - w1, p]), or those of both polariton poles.
        margin = _MARGIN * w2
        ridge = _gap(p.real - w1, p.real, 0.0, w2) >= margin
        poles_far = _gap(pa.real, pa.real, 0.0, w2) >= margin
        values = (self_[0], self_[1], cross)
        for box, (a, b) in enumerate(((0, 0), (1, 1), (0, 1))):
            for form, chosen in ((_ridge_rule, ridge),
                                 (_sheared_rule,
                                  ~ridge & poles_far[a] & poles_far[b])):
                i = (stuck[box] & chosen).nonzero()[0]
                if i.size:
                    got = form(w1[i], w2[i], p[i], np.conj(p[i]),
                               pa[a, i], np.conj(pa[b, i]))
                    values[box][i] = got.real if a == b else got
                    stuck[box, i] = False
        i = stuck.any(axis=0).nonzero()[0]
        if i.size and depth < _MAX_DEPTH:
            half = 0.5 * w2[i]
            (self_lo, cross_lo), (self_hi, cross_hi) = (
                _exact_overlaps(w1[i], half, p[i] - shift,
                                pa[:, i] - shift, depth + 1)
                for shift in (0.0, half))
            for box, (value, lo, hi) in enumerate(zip(
                    values, (*self_lo, cross_lo), (*self_hi, cross_hi))):
                value[i] = np.where(stuck[box, i], lo + hi, value[i])
    return self_, cross


def window_overlaps(side_a, side_b, k1_lo, k1_hi, k2_lo, k2_hi):
    """The self and cross overlaps of channel pairs, integrated exactly
    over their boxes.

    Point i pairs two channels over the box [k1_lo[i], k1_hi[i]] x
    [k2_lo[i], k2_hi[i]].  Column i of side_a holds the rows exx, gxx, e,
    g, pref of channel a, whose amplitude is pref / ((k1 + k2 - exx +
    i gxx)(k2 - e + i g)); side_b holds channel b's.  Both photons of a
    pair come from one biexciton decay, so the two channels of a point
    must share their biexciton pole (exx, gxx); a point whose channels do
    not raises ValidationError.  Returns self_a and self_b, the real
    integrals of each channel's |amplitude|^2, and cross, that of
    conj(amplitude_a) * amplitude_b: all 0 for an empty box, and a value
    is 0 where an amplitude in it vanishes.
    """
    exx, gxx, e, g, pref = np.array([side_a, side_b]).swapaxes(0, 1)
    split = ((exx[0] != exx[1]) | (gxx[0] != gxx[1])).nonzero()[0]
    if split.size:
        poles = [(exx[k, split[0]].item(), gxx[k, split[0]].item())
                 for k in (0, 1)]
        raise ValidationError(
            "the two channels of a pair must share one biexciton pole, got "
            "(exx, gxx) = {!r} and {!r}".format(*poles))
    k1_lo, k1_hi, k2_lo, k2_hi = np.array([k1_lo, k1_hi, k2_lo, k2_hi],
                                          dtype=float)
    w1 = k1_hi - k1_lo
    w2 = k2_hi - k2_lo
    # Each difference of two nearby energies is exact, but exx - k1_lo
    # rounds where exx is more than twice k1_lo: its rounding error
    # (Knuth's two-sum) is added back after k2_lo, near it, is taken off.
    head = exx[0] - k1_lo
    minus_k1 = head - exx[0]
    error = (exx[0] - (head - minus_k1)) - (k1_lo + minus_k1)
    p = _join((head - k2_lo) + error, gxx[0])
    pa = _join(e - k2_lo, g)
    live = ((w1 > 0) & (w2 > 0)).nonzero()[0]
    self_ = np.zeros(pa.shape)
    cross = np.zeros(w1.shape, dtype=complex)
    self_[:, live], cross[live] = _exact_overlaps(w1[live], w2[live],
                                                  p[live], pa[:, live])
    # A vanishing amplitude gives 0, also where a zero width (the self
    # values divide by gxx g) leaves the unscaled value infinite.
    self_ = np.where(pref != 0, self_ * (pref * pref), 0.0)
    pref_ab = pref[0] * pref[1]
    return self_[0], self_[1], np.where(pref_ab != 0, cross * pref_ab, 0)


def midpoint_overlap(side_a, side_b, k1_lo, k1_hi, n1, k2_lo, k2_hi, n2):
    """Midpoint-rule value of the window integral of conj(amplitude_a) *
    amplitude_b on an n1 x n2 grid.  side_a and side_b are one column
    each of window_overlaps' sides: exx, gxx, e, g, pref."""
    exx_a, gxx_a, e_a, g_a, pref_a = side_a
    exx_b, gxx_b, e_b, g_b, pref_b = side_b
    h1 = (k1_hi - k1_lo) / n1
    h2 = (k2_hi - k2_lo) / n2
    k1 = k1_lo + (np.arange(n1) + 0.5) * h1
    same = exx_a == exx_b and gxx_a == gxx_b
    p = exx_a + 1j * gxx_a
    q = exx_b - 1j * gxx_b
    pa = e_a + 1j * g_a
    pb = e_b - 1j * g_b
    total = 0.0 + 0.0j
    for j0 in range(0, n2, 256):
        k2 = k2_lo + (np.arange(j0, min(j0 + 256, n2)) + 0.5) * h2
        u = k1[:, None] + k2[None, :]
        if same:
            fu = 1.0 / ((u - exx_a) ** 2 + gxx_a * gxx_a)
        else:
            fu = 1.0 / ((u - p) * (u - q))
        gv = 1.0 / ((k2 - pa) * (k2 - pb))
        total += np.sum(fu * gv[None, :])
    return pref_a * pref_b * h1 * h2 * total
