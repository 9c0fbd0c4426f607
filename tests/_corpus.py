"""Shared 10-case overlap corpus: (label, channel_a, channel_b, window).

Covers self and cross overlaps, all three schemes, narrow through wide
windows, and an energy-distinguishable pair, for checking the adaptive
quadrature against the brute-force midpoint rule.  Also a frozen
golden-section search (golden_min), the refinement that
optimize_detuning and min_gap used before their array zoom, as the
reference for both.
"""
import math

from polcascade.cascade import enumerate_channels
from polcascade.experiments import tracked_window
from polcascade.model import scheme_preset
from polcascade.pairstate import DetectorWindow
from polcascade.polariton import find_crossings


def _chan(params, pol, branch):
    return {(c.pol, c.branch): c
            for c in enumerate_channels(params)}[(pol, branch)]


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, a, b, xtol):
    """Golden-section minimum of the one-point function f on [a, b]:
    (x, f(x))."""
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


def scheme3_crossing():
    scan = find_crossings(scheme_preset(3), (("H", "LP"), ("V", "LP")),
                          -0.5, 0.5, tol=1e-12)
    return scan.detunings[0]


def overlap_corpus():
    s1 = scheme_preset(1)
    s2 = scheme_preset(2)
    s3 = scheme_preset(3)
    s3c = s3.with_detuning(scheme3_crossing())

    w1 = tracked_window(s1, "LP-LP", 0.2)
    w1_up = tracked_window(s1, "UP-UP", 0.2)
    w2 = tracked_window(s2, "LP-UP", 0.2)
    w3 = tracked_window(s3c, "LP-LP", 0.2)
    w3_zero = tracked_window(s3, "LP-LP", 0.2)
    narrow = DetectorWindow(center1=w1.center1, center2=w1.center2,
                            width=0.01)
    wide = DetectorWindow(center1=w2.center1, center2=w2.center2, width=0.5)

    return [
        ("s1 LP self H", _chan(s1, "H", "LP"), _chan(s1, "H", "LP"), w1),
        ("s1 LP cross", _chan(s1, "H", "LP"), _chan(s1, "V", "LP"), w1),
        ("s1 UP cross", _chan(s1, "H", "UP"), _chan(s1, "V", "UP"), w1_up),
        ("s2 cross LP-UP", _chan(s2, "H", "LP"), _chan(s2, "V", "UP"), w2),
        ("s2 UP self V", _chan(s2, "V", "UP"), _chan(s2, "V", "UP"), w2),
        ("s3 LP cross at crossing", _chan(s3c, "H", "LP"),
         _chan(s3c, "V", "LP"), w3),
        ("s3 LP self H at crossing", _chan(s3c, "H", "LP"),
         _chan(s3c, "H", "LP"), w3),
        ("s3 LP cross detuned apart", _chan(s3, "H", "LP"),
         _chan(s3, "V", "LP"), w3_zero),
        ("s1 LP cross narrow", _chan(s1, "H", "LP"), _chan(s1, "V", "LP"),
         narrow),
        ("s2 LP self wide", _chan(s2, "H", "LP"), _chan(s2, "H", "LP"),
         wide),
    ]
