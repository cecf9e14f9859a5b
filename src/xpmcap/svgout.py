"""Minimal static SVG emitters for sweep curves and region overlays.

Deterministic text output: same inputs produce byte-identical documents.
Axis ranges auto-fit the data with a 5% margin.
"""

from __future__ import annotations

import math

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 62, 16, 16, 46


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class _Canvas:
    def __init__(self, xlim, ylim):
        self.xlim, self.ylim = xlim, ylim
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
            f'font-family="sans-serif" font-size="12">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
        ]

    def px(self, x: float) -> float:
        lo, hi = self.xlim
        return _ML + (x - lo) / (hi - lo) * (_W - _ML - _MR)

    def py(self, y: float) -> float:
        lo, hi = self.ylim
        return _H - _MB - (y - lo) / (hi - lo) * (_H - _MT - _MB)

    def axes(self, xlabel: str, ylabel: str):
        x0, y0 = _ML, _H - _MB
        x1, y1 = _W - _MR, _MT
        self.parts.append(
            f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
            f'fill="none" stroke="black"/>')
        for t in _nice_ticks(*self.xlim):
            if not self.xlim[0] <= t <= self.xlim[1]:
                continue
            px = self.px(t)
            self.parts.append(
                f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 4}" '
                f'stroke="black"/>')
            self.parts.append(
                f'<text x="{px:.2f}" y="{y0 + 18}" text-anchor="middle">'
                f'{_fmt(t)}</text>')
        for t in _nice_ticks(*self.ylim):
            if not self.ylim[0] <= t <= self.ylim[1]:
                continue
            py = self.py(t)
            self.parts.append(
                f'<line x1="{x0 - 4}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" '
                f'stroke="black"/>')
            self.parts.append(
                f'<text x="{x0 - 7}" y="{py + 4:.2f}" text-anchor="end">'
                f'{_fmt(t)}</text>')
        self.parts.append(
            f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 10}" '
            f'text-anchor="middle">{xlabel}</text>')
        self.parts.append(
            f'<text x="14" y="{(_MT + _H - _MB) / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {(_MT + _H - _MB) / 2:.0f})">'
            f'{ylabel}</text>')

    def finish(self) -> str:
        self.parts.append("</svg>")
        return "\n".join(self.parts) + "\n"


def _limits(values, pad: float = 0.05):
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
    span = hi - lo
    return lo - pad * span, hi + pad * span


def render_curves(series, xlabel: str, ylabel: str) -> str:
    """Multi-curve line plot.

    series: iterable of (label, color, dasharray_or_None, xs, ys).
    """
    series = list(series)
    xs_all = [x for _, _, _, xs, _ in series for x in xs]
    ys_all = [y for _, _, _, _, ys in series for y in ys]
    canvas = _Canvas(_limits(xs_all), _limits(ys_all))
    canvas.axes(xlabel, ylabel)
    for label, color, dash, xs, ys in series:
        pts = " ".join(f"{canvas.px(x):.2f},{canvas.py(y):.2f}"
                       for x, y in zip(xs, ys))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        canvas.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"{dash_attr}/>')
    for i, (label, color, dash, _, _) in enumerate(series):
        y = _MT + 16 + 16 * i
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        canvas.parts.append(
            f'<line x1="{_ML + 10}" y1="{y - 4}" x2="{_ML + 40}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="1.8"{dash_attr}/>')
        canvas.parts.append(
            f'<text x="{_ML + 46}" y="{y}">{label}</text>')
    return canvas.finish()


def render_regions(layers, annotations=()) -> str:
    """Overlay of filled convex regions on rate axes.

    layers: iterable of (region, fill_color, fill_opacity, label); regions
    are drawn in order, later layers on top.
    """
    layers = list(layers)
    xs_all = [0.0] + [v[0] for region, *_ in layers for v in region.vertices]
    ys_all = [0.0] + [v[1] for region, *_ in layers for v in region.vertices]
    canvas = _Canvas(_limits(xs_all), _limits(ys_all))
    canvas.axes("R1 (bits per symbol)", "R2 (bits per symbol)")
    for region, color, opacity, label in layers:
        if len(region.vertices) < 2:
            continue
        path = "M " + " L ".join(f"{canvas.px(x):.2f} {canvas.py(y):.2f}"
                                 for x, y in region.vertices) + " Z"
        canvas.parts.append(
            f'<path d="{path}" fill="{color}" fill-opacity="{opacity}" '
            f'stroke="{color}" stroke-width="1.5"/>')
    for i, (region, color, opacity, label) in enumerate(layers):
        y = _MT + 16 + 16 * i
        canvas.parts.append(
            f'<rect x="{_W - _MR - 160}" y="{y - 10}" width="12" height="12" '
            f'fill="{color}" fill-opacity="{opacity}"/>')
        canvas.parts.append(
            f'<text x="{_W - _MR - 144}" y="{y}">{label}</text>')
    for i, note in enumerate(annotations):
        canvas.parts.append(
            f'<text x="{_ML + 10}" y="{_H - _MB - 10 - 16 * i}" '
            f'fill="#333">{note}</text>')
    return canvas.finish()
