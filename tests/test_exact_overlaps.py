"""The exact window overlaps against 30-digit arithmetic.

kernels.window_overlaps integrates each box in closed form (complex
dilogarithms) or by a Gauss-Legendre rule with its nearby poles taken out
in closed form, halving in v a box that no rule takes whole.  The oracle
here is mpmath.quad of the v-integral of the u-integral's closed form,
split at the poles and at the ridge edges.
Each box is checked through window_overlaps, which gives a channel
pair's two self overlaps and its cross overlap together.
"""
import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polcascade import kernels, pairstate
from polcascade.cascade import enumerate_channels
from polcascade.experiments import tracked_window
from polcascade.model import SystemParams

DPS = 30


def oracle(exx, gxx, side_a, side_b, k1, k2):
    """The integral of conj(amplitude_a) * amplitude_b over the box k1 x k2
    at DPS digits, from the biexciton pole (exx, gxx) that both channels
    share and the window_overlaps rows of each side."""
    with mpmath.workdps(DPS):
        exx, gxx = mpmath.mpf(exx), mpmath.mpf(gxx)
        e_a, g_a, pref_a = map(mpmath.mpf, side_a)
        e_b, g_b, pref_b = map(mpmath.mpf, side_b)
        k1_lo, k1_hi, k2_lo, k2_hi = map(mpmath.mpf, (*k1, *k2))
        p = mpmath.mpc(exx, gxx)
        q = mpmath.mpc(exx, -gxx)
        pa = mpmath.mpc(e_a, g_a)
        pb = mpmath.mpc(e_b, -g_b)

        def integrand(v):
            fu = (mpmath.log(k1_hi + v - p) - mpmath.log(k1_lo + v - p)
                  - mpmath.log(k1_hi + v - q) + mpmath.log(k1_lo + v - q))
            return fu / (p - q) / ((v - pa) * (v - pb))

        cuts = {k2_lo, k2_hi}
        for center, scale in ((e_a, g_a), (e_b, g_b),
                              (exx - k1_lo, gxx), (exx - k1_hi, gxx)):
            for step in (0, 1, 10):
                cuts.update((center - step * scale, center + step * scale))
        cuts = sorted(c for c in cuts if k2_lo <= c <= k2_hi)
        return complex(pref_a * pref_b * mpmath.quad(integrand, cuts))


def overlaps(exx, gxx, side_a, side_b, k1, k2):
    """The self_a, self_b and cross overlaps of one box."""
    got = kernels.window_overlaps(exx, gxx, np.array([side_a]).T,
                                  np.array([side_b]).T, [k1[0]], [k1[1]],
                                  [k2[0]], [k2[1]])
    return [value[0] for value in got]


def expected(exx, gxx, side_a, side_b, k1, k2):
    """The oracle's self_a, self_b and cross overlaps of one box."""
    return [oracle(exx, gxx, x, y, k1, k2)
            for x, y in ((side_a, side_a), (side_b, side_b), (side_a, side_b))]


@st.composite
def windows(draw):
    """Random SystemParams, pairing and window: a tracked window of random
    width, moved by up to 1 meV along k1 and k2."""
    ex_mean = draw(st.floats(900.0, 1100.0))
    params = SystemParams(
        ex_mean=ex_mean, delta_x=draw(st.floats(-0.5, 0.5)),
        cav_mean=ex_mean + draw(st.floats(-5.0, 5.0)),
        delta_c=draw(st.floats(-0.5, 0.5)), rabi=draw(st.floats(0.05, 0.5)),
        tau_c=draw(st.floats(5.0, 50.0)), tau_xx=draw(st.floats(100.0, 1000.0)),
        binding=draw(st.floats(3.0, 6.0)))
    pairing = draw(st.sampled_from(("LP-LP", "UP-UP", "LP-UP")))
    width = draw(st.floats(0.005, 2.0))
    tracked = tracked_window(params, pairing, width)
    off1, off2 = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
    k1 = [k + off1 for k in tracked.k1_interval]
    k2 = [k + off2 for k in tracked.k2_interval]
    channels = enumerate_channels(params)
    return pairstate.pairing_channels(channels, pairing), k1, k2


@settings(max_examples=25, deadline=None)
@given(windows())
def test_overlaps_match_30_digit_quadrature(window):
    (ch_a, ch_b), k1, k2 = window
    pair = pairstate._pair(ch_a, ch_b)
    got = overlaps(*pair, k1, k2)
    want = expected(*pair, k1, k2)
    # The cross overlap is measured against its Cauchy-Schwarz bound; a
    # self overlap far larger than that bound, against itself.
    scale = math.sqrt(want[0].real * want[1].real)
    if scale < 1e-300:
        return
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * max(scale, abs(w)), (g, w)


# Near-degenerate boxes, in exactly representable numbers.  The tracked
# layout puts the ridge edges of the H channel on the window edges:
# exx - k1_hi = k2_lo and exx - k1_lo = k2_hi.
K1 = (996.875, 997.125)
K2 = (999.875, 1000.125)
EXX = 1997.0
GXX = 0.0078125


def degenerate_sides(e_a, g_a, e_b=1000.0, g_b=0.03125):
    """The window_overlaps pole and rows of two channels with biexciton
    energy EXX and width GXX, the first with polariton energy e_a and
    linewidth g_a, the second with e_b and g_b."""
    return EXX, GXX, (e_a, g_a, 1e-2), (e_b, g_b, 1e-2)


@pytest.mark.parametrize("e_a, g_a", [
    # d = r - s = 0: the polariton pole sits on a ridge edge.
    (K2[0], GXX),
    # d -> 0 from either side, in energy and in width.
    (K2[0] + 2 ** -40, GXX),
    (K2[0], GXX * (1 + 2 ** -40)),
    (K2[0], GXX * (1 - 2 ** -40)),
    # Im d = 0: polariton linewidth equal to the biexciton width.
    (1000.0, GXX),
    # w/d real at the lower edge: a real-axis crossing exactly there (the
    # pole's energy on the edge, wider than the ridge) ...
    (K2[0], 2 * GXX),
    # ... and on the cut of log(1 - w/d) and Li2 (narrower than the ridge).
    (K2[0], GXX / 2),
    (K2[1], GXX / 2),
])
def test_near_degenerate_boxes_are_finite_and_exact(e_a, g_a):
    sides = degenerate_sides(e_a, g_a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = overlaps(*sides, K1, K2)
        # The same boxes with the poles a hair away from the degeneracy.
        nudged = overlaps(*degenerate_sides(e_a, g_a * (1 + 1e-9)), K1, K2)
    # The cross box and the first channel's self box share the degenerate
    # terms.
    for g, n, w in zip(got, nudged, expected(*sides, K1, K2)):
        assert np.isfinite(g.real) and np.isfinite(g.imag)
        assert abs(g - w) <= 1e-12 * abs(w), (g, w)
        assert abs(g - n) <= 1e-8 * abs(w)


@pytest.mark.parametrize("edge", (900.0, 902.0))
def test_narrow_line_on_a_window_edge(edge):
    # A line 2^-15 meV wide on an edge, with the ridge across the middle
    # of the window, puts z = w/d within 3e-5 of 1 there: 1 - z rounded
    # from z keeps five digits fewer than its log needs.
    k1, k2 = (896.0, 898.0), (900.0, 902.0)
    sides = (1797.0, 2 ** -6, (edge, 2 ** -15, 1e-3), (edge, 2 ** -14, 1e-3))
    for g, w in zip(overlaps(*sides, k1, k2), expected(*sides, k1, k2)):
        assert abs(g - w) <= 1e-12 * abs(w), (g, w)


def test_ridge_of_a_biexciton_more_than_twice_k1():
    # exx - k1_lo = 1028.3125 - 2^-43 has no float: it rounds by 2^-43
    # meV, which moves a ridge 2^-9 meV wide by 3e-11 of the self overlap.
    k1, k2 = (1021.75 + 2 ** -43, 1022.0625), (1028.25, 1028.5625)
    sides = (2050.0625, 2 ** -9, (1027.0, 2 ** -10, 1e-3),
             (1028.4375, 2 ** -6, 1e-3))
    got, want = overlaps(*sides, k1, k2), expected(*sides, k1, k2)
    scale = math.sqrt(want[0].real * want[1].real)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * max(scale, abs(w)), (g, w)


def test_box_beside_a_narrow_ridge_edge():
    # The ridge (gxx = 4.5e-5 meV) ends on the window's lower edge and the
    # line lies 0.5 meV below the window, so the dilogarithm sum cancels
    # by 3.6e4 (2.4e-12 relative error); the rule over u takes the box.
    e, g, gxx = 903.0206906325745, 0.1307468231779825, 4.477841010087558e-05
    exx = 893.9793093674255 + e
    box = (exx, gxx, (e, g, 1e-2), (e, g, 1e-2))
    k1 = (893.4793093674255, 894.4793093674255)
    k2 = (903.5206906325745, 904.5206906325745)
    with mock.patch.object(kernels, "_sheared_rule",
                           wraps=kernels._sheared_rule) as rule:
        got = overlaps(*box, k1, k2)[0]
    assert rule.called
    want = oracle(*box, k1, k2)
    assert abs(got - want) <= 1e-12 * abs(want)


def halvings(call):
    """The depth of each point _exact_overlaps took while call() ran."""
    depths = []
    exact = kernels._exact_overlaps

    def record(w1, w2, p, pa, depth=0):
        depths.extend([depth] * w1.size)
        return exact(w1, w2, p, pa, depth)

    with mock.patch.object(kernels, "_exact_overlaps", record):
        call()
    return depths


def halved_box_matches_oracle(side, k1, k2):
    """Check a self box against the oracle, and that it was halved; side
    holds the pole and the channel's rows: exx, gxx, e, g, pref."""
    exx, gxx, *own = side
    box = (exx, gxx, own, own)
    got = []
    depths = halvings(lambda: got.append(overlaps(*box, k1, k2)[0]))
    assert 0 < max(depths) < kernels._MAX_DEPTH
    want = oracle(*box, k1, k2)
    assert abs(got[0] - want) <= 1e-12 * abs(want)


def test_box_just_below_a_narrow_line_with_the_ridge_inside():
    # A self box that test_overlaps_match_30_digit_quadrature drew: an
    # almost pure exciton line (g = 7.6e-5 meV) 0.014 meV below a 1.1 meV
    # window that the ridge crosses.  The line is inside the margin of the
    # rule over u and the ridge rules out the rule over v, so the box is
    # halved in v; its dilogarithm sum, cancelling by 2.5e5, was 4.7e-11
    # off.
    halved_box_matches_oracle(
        (1818.170283925588, 0.013164239138, 910.5834333190267,
         7.55087243843366e-05, 3.799204543956359e-06),
        (905.6855891090352, 906.7842898223059),
        (910.5969985136321, 911.6956992269029))


@pytest.mark.parametrize("side, k1, k2", [
    # The line inside the window, the ridge 0.0023 window widths above
    # it: the sum cancels by 4.3e6 and was 2.5e-10 off.
    ((1966.5250591043591, 6.390705642415011e-06, 983.918217519036,
      0.014776512855574015, 2.5955264095885968e-06),
     (979.7931827520938, 981.2552878456952),
     (983.8043026280407, 985.266407721642)),
    # The line and the lower end of the ridge both inside the window, 0.47
    # window widths apart: the sum cancels by 1.3e4.
    ((2034.5404597526885, 0.0008581208944253307, 1019.5260595541988,
      6.104757797981346e-05, 2.367800953653115e-06),
     (1013.5233690122343, 1014.5389282286606),
     (1019.3062341079938, 1020.32179332442)),
], ids=["ridge-just-outside", "ridge-inside-apart"])
def test_box_with_a_line_inside_and_the_ridge_apart_is_halved(side, k1, k2):
    # Self boxes of the same property, where a line inside the window
    # rules out the rule over u and the ridge, near the window or in it,
    # the rule over v.
    halved_box_matches_oracle(side, k1, k2)


def seeded_windows(count, seed):
    """count windows drawn as windows() draws them, from NumPy's seeded
    generator: the window_overlaps poles, sides and box bounds, one column
    per window."""
    rng = np.random.default_rng(seed)
    pairs, bounds = [], []
    for _ in range(count):
        ex_mean = rng.uniform(900.0, 1100.0)
        params = SystemParams(
            ex_mean=ex_mean, delta_x=rng.uniform(-0.5, 0.5),
            cav_mean=ex_mean + rng.uniform(-5.0, 5.0),
            delta_c=rng.uniform(-0.5, 0.5), rabi=rng.uniform(0.05, 0.5),
            tau_c=rng.uniform(5.0, 50.0), tau_xx=rng.uniform(100.0, 1000.0),
            binding=rng.uniform(3.0, 6.0))
        pairing = ("LP-LP", "UP-UP", "LP-UP")[rng.integers(3)]
        tracked = tracked_window(params, pairing, rng.uniform(0.005, 2.0))
        off1, off2 = rng.uniform(-1.0, 1.0, 2)
        pairs.append(pairstate._pair(
            *pairstate.pairing_channels(enumerate_channels(params), pairing)))
        bounds.append([k + off1 for k in tracked.k1_interval]
                      + [k + off2 for k in tracked.k2_interval])
    exx, gxx, side_a, side_b = zip(*pairs)
    return (np.array(exx), np.array(gxx), np.array(side_a).T,
            np.array(side_b).T), np.array(bounds).T


def test_every_cancelling_box_takes_a_rule():
    # In 4,000 draws half the boxes cancel past the threshold, and about
    # one point in ten holds a box that no rule takes whole, so its halves
    # are taken at depth 1.  Halving stops before _MAX_DEPTH only once
    # every piece that cancels takes a rule.
    pairs, bounds = seeded_windows(4000, 0)
    depths = halvings(lambda: kernels.window_overlaps(*pairs, *bounds))
    assert depths.count(1) > 2 * 200
    assert max(depths) < kernels._MAX_DEPTH


def test_dilogarithm_against_mpmath():
    rng = np.random.default_rng(7)
    radius = np.concatenate([rng.uniform(0, 2, 2000),
                             10.0 ** rng.uniform(-8, 12, 1000)])
    z = radius * np.exp(1j * rng.uniform(-math.pi, math.pi, radius.size))
    # Points near 1 and on the unit circle, where the region maps meet.
    z = np.concatenate([z, 1 + 1e-3 * np.exp(1j * np.linspace(0.1, 6.2, 50)),
                        np.exp(1j * np.linspace(0.01, 6.27, 200))])
    got = kernels._dilog(z, kernels._log1p(-z))
    for zi, gi in zip(z, got):
        want = complex(mpmath.polylog(2, complex(zi)))
        assert abs(gi - want) <= 5e-15 * max(1.0, abs(want)), zi
