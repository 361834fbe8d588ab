"""Minimal deterministic SVG line charts (log-scale y) for campaign output.

Hand-rolled on purpose: the output bytes depend only on the input data,
so rendered charts can be diffed and regression-tested like the CSV.
"""

from __future__ import annotations

import math

__all__ = ["line_chart"]

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
)

_W, _H = 760, 500
_ML, _MR, _MT, _MB = 70, 180, 40, 50
_X_TICKS = 6  # x-axis ticks at most: an even split of the span, its step rounded up


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / (_X_TICKS - 1)
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-9 * step:
        out.append(round(t, 9))
        t += step
    return out or [lo]


def _drawable(x: float, y: float) -> bool:
    """Whether ``(x, y)`` has a place on the chart: ``x`` finite, ``y`` finite and positive."""
    return math.isfinite(x) and 0.0 < y < math.inf


def line_chart(series, title: str, xlabel: str, ylabel: str) -> str:
    """Render one chart; ``series`` is a list of (label, xs, ys) triples.

    The y axis is decimal-log scaled; points whose x is not finite (an
    infinite SNR) or whose y is not finite and positive are dropped, and
    each series is one polyline, so a dropped point's neighbours are joined
    by a straight segment.
    """
    pts = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys) if _drawable(x, y)]
    if pts:
        x_lo, x_hi = min(p[0] for p in pts), max(p[0] for p in pts)
        y_lo, y_hi = min(p[1] for p in pts), max(p[1] for p in pts)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.1, 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = math.floor(math.log10(y_lo)), math.ceil(math.log10(y_hi))  # whole decades
    if y_hi == y_lo:
        y_hi = y_lo + 1

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MT + (y_hi - math.log10(y)) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_ML + plot_w / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
    ]
    # axes box
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>'
    )
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        out.append(f'<line x1="{px:.1f}" y1="{_MT + plot_h}" x2="{px:.1f}" '
                   f'y2="{_MT + plot_h + 5}" stroke="black"/>')
        out.append(f'<text x="{px:.1f}" y="{_MT + plot_h + 18}" '
                   f'text-anchor="middle">{t:g}</text>')
    for t in range(y_lo, y_hi + 1):
        py = sy(10.0**t)
        out.append(f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" '
                   f'y2="{py:.1f}" stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" '
                   f'text-anchor="end">1e{t}</text>')
    out.append(
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_H - 10}" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{_MT + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MT + plot_h / 2:.1f})">{ylabel}</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = [f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys) if _drawable(x, y)]
        # one polyline per series, empty when no drawable points
        out.append(
            f'<polyline points="{" ".join(coords)}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MT + 16 * (i + 1)
        out.append(f'<line x1="{_W - _MR + 10}" y1="{ly - 4}" '
                   f'x2="{_W - _MR + 34}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{_W - _MR + 40}" y="{ly}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
