"""The dilogarithm table and the pair integral against frozen copies.

kernels._dilog, kernels._dilog_table and kernels._pair_integral take
each complex log only on the elements that use it.  The copies below
take every log over every element and pick with np.where.  Each element
goes through the same operations on the same inputs either way, so the
values must agree to the bit.
"""
import math

import numpy as np
import pytest

from polcascade import kernels

# ------------------------------------------------------ frozen reference

_PI2_6 = math.pi ** 2 / 6
_LI2_TERMS = tuple(b / math.factorial(2 * k + 1) for k, b in enumerate((
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
    -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
    -236364091 / 2730), start=1))


def _join(re, im):
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _mul(x, y):
    return _join(x.real * y.real - x.imag * y.imag,
                 x.real * y.imag + x.imag * y.real)


def _log1p_over(x):
    u = 1.0 + x
    exact = u == 1.0
    return np.where(exact, 1.0, np.log(u) / np.where(exact, 1.0, u - 1.0))


def _log1p(x):
    return _mul(x, _log1p_over(x))


def reference_pair_integral(lo_p, lo_q, width, pq):
    logs = _log1p(width / lo_p) - _log1p(width / lo_q)
    span = width / _mul(lo_p, lo_q + width)
    single = _mul(span, _log1p_over(_mul(span, pq)))
    return np.where(np.abs(logs.imag) < 0.5 * math.pi, single, logs / pq)


def reference_dilog(z):
    inv = np.abs(z) > 1
    z1 = np.where(inv, 1.0 / np.where(inv, z, 1.0), z)
    refl = z1.real > 0.5
    z2 = np.where(refl, 1.0 - z1, z1)
    u = -_log1p(-z2)
    u2 = _mul(u, u)
    tail = np.full(u.shape, _LI2_TERMS[-1], dtype=complex)
    for c in _LI2_TERMS[-2::-1]:
        tail = _mul(tail, u2) + c
    value = u - 0.25 * u2 + _mul(u, _mul(u2, tail))
    reflected = _PI2_6 - value + _mul(u, np.log(np.where(refl, z2, 1.0)))
    value = np.where(refl, reflected, value)
    log_minus_z = np.log(-np.where(inv, z, -1.0))
    inverted = -value - _PI2_6 - 0.5 * _mul(log_minus_z, log_minus_z)
    return np.where(inv, inverted, value)


def reference_dilog_table(w2, s, r):
    d = r - s
    shape = d.shape

    def flat(x):
        out = np.empty(shape, x.dtype)
        out[...] = x
        return out.reshape(-1)

    d = d.reshape(-1)
    s_flat, r_flat, w2_flat = flat(s), flat(r), flat(w2)
    degenerate = d == 0
    d = np.where(degenerate, 1.0, d)
    f, im, size = [], [], 0.0
    for edge, edge_flat, side in ((0.0, 0.0, -d.imag), (w2, w2_flat, d.imag)):
        z = (edge_flat - s_flat) / d
        z.imag = np.where(z.imag == 0, np.copysign(1e-300, side), z.imag)
        log_w = flat(np.log(edge - s))
        one_minus_z = (r_flat - edge_flat) / d
        one_minus_z.imag = np.copysign(one_minus_z.imag, -z.imag)
        near_one = (np.abs(one_minus_z) < 0.5) & (one_minus_z != 0)
        log1p_minus_z = np.where(
            near_one, np.log(np.where(near_one, one_minus_z, 1.0)),
            _log1p(-z))
        parts = (np.where(degenerate, 0.5 * _mul(log_w, log_w),
                          _mul(log_w, log1p_minus_z)),
                 np.where(degenerate, 0.0, reference_dilog(z)))
        f.append(parts[0] + parts[1])
        size = size + np.abs(parts[0]) + np.abs(parts[1])
        im.append(z.imag.copy())
    j = f[1] - f[0]
    im_lo, im_hi = im
    crosses = (im_lo < 0) != (im_hi < 0)
    t = im_lo / np.where(crosses, im_lo - im_hi, 1.0)
    w_cross = _join(t * w2_flat - s_flat.real, -s_flat.imag)
    x = (w_cross / d).real
    cut = crosses & (x > 1) & ~degenerate
    if cut.any():
        log_ratio = np.log(np.where(cut, x, 1.0) + 0j) - np.log(w_cross)
        jump = 2 * math.pi * _join(-log_ratio.imag, log_ratio.real)
        j -= np.where(cut, np.copysign(1.0, im_hi - im_lo) * jump, 0)
        size += np.where(cut, np.abs(jump), 0.0)
    return j.reshape(shape), size.reshape(shape)


# ------------------------------------------------------------------ tests

def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def region_points(rng, n):
    """n random z in each region of _dilog's maps: plain (|z| <= 1,
    Re z <= 1/2), reflected (|z| <= 1, Re z > 1/2), inverted (|z| > 1,
    Re 1/z <= 1/2) and both (|z| > 1, Re 1/z > 1/2)."""
    radius = np.concatenate([rng.uniform(0, 2, 40 * n),
                             10.0 ** rng.uniform(-8, 12, 4 * n)])
    z = radius * np.exp(1j * rng.uniform(-math.pi, math.pi, radius.size))
    inv = np.abs(z) > 1
    refl = np.where(inv, 1 / np.where(inv, z, 1), z).real > 0.5
    return [z[(inv == i) & (refl == r)][:n]
            for i, r in ((False, False), (False, True), (True, False),
                         (True, True))]


def boundary_points():
    """z on the edges of the regions, and on either side of the cut."""
    circle = np.exp(1j * np.linspace(0.01, 6.27, 400))
    on_circle = circle[np.abs(circle) == 1]
    y = np.linspace(-0.86, 0.86, 41)
    half = 0.5 + 1j * y
    # Re 1/z exactly 1/2 on the inverted side.
    inverse = 1 / (0.5 + 1j * np.concatenate([y, [-3.0, 3.0, 40.0]]))
    inverse = inverse[((1 / inverse).real == 0.5) & (np.abs(inverse) > 1)]
    axis = np.array([-5.0, -1.0, -0.3, 0.2, 0.5, 0.9, 1.5, 2.0, 1e6])
    tiny = np.concatenate([axis + 1e-300j, axis - 1e-300j])
    return on_circle, half, inverse, tiny


def test_dilog_is_bitwise_the_reference_in_every_region():
    rng = np.random.default_rng(20)
    plain, reflected, inverted, both = region_points(rng, 400)
    for z in (plain, reflected, inverted, both):
        assert z.size == 400
    on_circle, half, inverse, tiny = boundary_points()
    assert on_circle.size > 100 and inverse.size > 10
    mixed = rng.permutation(np.concatenate([plain, reflected, inverted,
                                            both]))
    for z in (plain, reflected, inverted, both, on_circle, half, inverse,
              tiny, mixed):
        with np.errstate(all="ignore"):
            got = kernels._dilog(z, kernels._log1p(-z))
            want = reference_dilog(z)
        assert same_bits(got, want)


def table_inputs(rng, n):
    """A random table whose entries include degenerate d = 0 entries and
    entries whose path crosses the cut: s above the axis as in the
    windows, r on either side, w2 over three decades."""
    s = rng.uniform(-2, 2, (2, n)) + 1j * 10.0 ** rng.uniform(-4, 0.5, (2, n))
    r = (rng.uniform(-2, 2, (2, 3, n))
         + 1j * rng.choice([-1, 1], (2, 3, n)) * 10.0 ** rng.uniform(
             -4, 0.5, (2, 3, n)))
    r[0, 1, :20] = s[0, :20]
    w2 = 10.0 ** rng.uniform(-2, 1, n)
    return w2, s[:, None, :], r


def cut_entries(w2, s, r):
    """How many entries of the table cross the cut, by the table's rule."""
    d = np.broadcast_to(r - s, np.broadcast(w2, s, r).shape)
    s, w2 = np.broadcast_to(s, d.shape), np.broadcast_to(w2, d.shape)
    with np.errstate(all="ignore"):
        im_lo, im_hi = (((edge - s) / d).imag for edge in (0.0, w2))
        crosses = (im_lo < 0) != (im_hi < 0)
        t = im_lo / np.where(crosses, im_lo - im_hi, 1.0)
        x = ((t * w2 - s.real - 1j * s.imag) / d).real
    return int(np.count_nonzero(crosses & (x > 1) & (d != 0)))


@pytest.mark.parametrize("seed, n", [(21, 400), (22, 1), (23, 3)])
def test_dilog_table_is_bitwise_the_reference(seed, n):
    rng = np.random.default_rng(seed)
    w2, s, r = table_inputs(rng, n)
    if n >= 100:
        assert cut_entries(w2, s, r) > 100
        assert np.count_nonzero(r == s) == 20
    with np.errstate(all="ignore"):
        got = kernels._dilog_table(w2, s, r)
        want = reference_dilog_table(w2, s, r)
    assert all(same_bits(g, w) for g, w in zip(got, want))


def test_dilog_table_without_a_cut_is_bitwise_the_reference():
    # Every s and r above the axis: no path changes the sign of Im z.
    rng = np.random.default_rng(24)
    s = rng.uniform(-2, 2, (4, 50)) + 1j * rng.uniform(0.1, 1, (4, 50))
    r = s + rng.uniform(-1, 1, (4, 50)) + 1j * rng.uniform(0.01, 1, (4, 50))
    w2 = rng.uniform(0.1, 2, 50)
    assert cut_entries(w2, s, r) == 0
    got = kernels._dilog_table(w2, s, r)
    want = reference_dilog_table(w2, s, r)
    assert all(same_bits(g, w) for g, w in zip(got, want))


def test_pair_integral_is_bitwise_the_reference_on_both_branches():
    # Shapes as _pole_rule passes them (nodes by points, with scalar or
    # per-point poles) and as overlap_integrand does (0-d).
    rng = np.random.default_rng(25)
    nodes, points = 16, 200
    lo_p = (rng.uniform(-3, 3, (nodes, points))
            - 1j * 10.0 ** rng.uniform(-4, 0, points))
    lo_q = lo_p + rng.uniform(-1, 1, points) + 1j * 10.0 ** rng.uniform(
        -4, 0, points)
    width = 10.0 ** rng.uniform(-3, 1, (nodes, 1))
    pq = lo_q[0] - lo_p[0]
    cases = [(lo_p, lo_q, width, pq),
             (lo_p, lo_q, 0.7, 0.3 - 0.01j),
             (np.complex128(0.5 - 0.2j), np.complex128(0.4 + 0.1j), 0.25,
              0.1 - 0.3j),
             (np.complex128(-0.1 - 1e-4j), np.complex128(-0.1 + 1e-4j), 0.2,
              -2e-4j)]
    branches = set()
    for args in cases:
        with np.errstate(all="ignore"):
            got = kernels._pair_integral(*args)
            want = reference_pair_integral(*args)
            logs = _log1p(args[2] / args[0]) - _log1p(args[2] / args[1])
        branches.update(np.unique(np.abs(logs.imag) < 0.5 * math.pi).tolist())
        assert same_bits(got, want)
    assert branches == {False, True}
