"""Minimal SVG line plots.

CSV files are the data contract; these plots are a convenience for eyeballing
results without a plotting stack.  Output is a pure function of the inputs:
fixed canvas, fixed palette, fixed tick layout, no timestamps.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

_WIDTH = 720
_HEIGHT = 480
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 40
_MARGIN_B = 50
_PALETTE = ("#1f6fb2", "#c23b22", "#2a9d66", "#8250c4", "#b8860b", "#444444")


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 6  # about six ticks
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def line_plot(path, series, title: str = "", xlabel: str = "",
              ylabel: str = "") -> None:
    """Write a multi-series line plot.

    series: iterable of (label, xs, ys) with equal-length sequences.
    """
    series = [(str(lbl), np.asarray(xs, float), np.asarray(ys, float))
              for lbl, xs, ys in series]
    if not series or not any(xs.size for _, xs, _ in series):
        raise ValidationError("nothing to plot")
    for lbl, xs, ys in series:
        if len(xs) != len(ys):
            raise ValidationError(f"series {lbl!r} has mismatched lengths")
    x_lo = min(xs.min() for _, xs, _ in series if xs.size).item()
    x_hi = max(xs.max() for _, xs, _ in series if xs.size).item()
    y_lo = min(ys.min() for _, _, ys in series if ys.size).item()
    y_hi = max(ys.max() for _, _, ys in series if ys.size).item()
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h}" '
                     f'x2="{x:.2f}" y2="{_MARGIN_T + plot_h + 5}" stroke="#333"/>')
        parts.append(f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 18}" '
                     f'font-size="11" text-anchor="middle" fill="#333">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" '
                     f'x2="{_MARGIN_L}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" font-size="11" '
                     f'text-anchor="end" fill="#333">{_fmt(t)}</text>')
    for idx, (lbl, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(map("%.2f,%.2f".__mod__,
                           zip(sx(xs).tolist(), sy(ys).tolist())))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = _MARGIN_T + 16 + 16 * idx
        lx = _MARGIN_L + plot_w - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly}" font-size="12" '
                     f'fill="#333">{lbl}</text>')
    if title:
        parts.append(f'<text x="{_WIDTH / 2:.0f}" y="24" font-size="15" '
                     f'text-anchor="middle" fill="#111">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{_MARGIN_L + plot_w / 2:.0f}" '
                     f'y="{_HEIGHT - 12}" font-size="13" text-anchor="middle" '
                     f'fill="#333">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="18" y="{_MARGIN_T + plot_h / 2:.0f}" '
                     f'font-size="13" text-anchor="middle" fill="#333" '
                     f'transform="rotate(-90 18 {_MARGIN_T + plot_h / 2:.0f})">'
                     f'{ylabel}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
