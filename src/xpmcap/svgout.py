"""Minimal static SVG emitters for sweep curves and region overlays.

Deterministic text output: same inputs produce byte-identical documents.
Axis ranges auto-fit the data with a 5% margin.
"""

from __future__ import annotations

import math

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 62, 16, 16, 46


def _limits(values, pad: float = 0.05):
    lo, hi = min(values), max(values)
    # A span at rounding level would give ticks finer than the values'
    # ulp: draw it as one unit, or from |lo| ~ 1e16, where a unit rounds
    # away, as 1e-12 of |lo|.
    if not hi - lo > 1e-12 * max(abs(lo), abs(hi)):
        hi = lo + 1.0 if lo + 1.0 > lo else lo + 1e-12 * abs(lo)
    span = hi - lo
    return lo - pad * span, hi + pad * span


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """The round values in [lo, hi] about (hi - lo) / target apart."""
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= m * mag)
    ticks, t, last = [], math.ceil(lo / step) * step, None
    while t != last and t <= hi + 1e-12 * step:  # t + step may round to t
        t0 = 0.0 if abs(t) < 1e-12 * step else t
        if lo <= t0 <= hi:
            ticks.append(t0)
        last, t = t, t + step
    return ticks


def _labelled_ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    """_nice_ticks with their labels: 6 significant digits, or the fewest
    (up to 17, which tell any two floats apart) that tell the ticks apart
    on an axis spanning less than about 1e-5 of its magnitude."""
    ticks = _nice_ticks(lo, hi)
    for digits in range(6, 18):
        labels = [f"{t:.{digits}g}" for t in ticks]
        if len(set(labels)) == len(labels):
            break
    return list(zip(ticks, labels))


def _figure(xs, ys, xlabel: str, ylabel: str, marks) -> str:
    """One SVG document: axes fitted to xs and ys, with frame, ticks and
    labels, around the elements marks(px, py) returns; px and py map data
    coordinates to the page."""
    (xlo, xhi), (ylo, yhi) = _limits(xs), _limits(ys)
    x0, y0, x1, y1 = _ML, _H - _MB, _W - _MR, _MT

    def px(x: float) -> float:
        return x0 + (x - xlo) / (xhi - xlo) * (x1 - x0)

    def py(y: float) -> float:
        return y0 - (y - ylo) / (yhi - ylo) * (y0 - y1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        f'fill="none" stroke="black"/>']
    for t, label in _labelled_ticks(xlo, xhi):
        parts += [
            f'<line x1="{px(t):.2f}" y1="{y0}" x2="{px(t):.2f}" '
            f'y2="{y0 + 4}" stroke="black"/>',
            f'<text x="{px(t):.2f}" y="{y0 + 18}" text-anchor="middle">'
            f'{label}</text>']
    for t, label in _labelled_ticks(ylo, yhi):
        parts += [
            f'<line x1="{x0 - 4}" y1="{py(t):.2f}" x2="{x0}" '
            f'y2="{py(t):.2f}" stroke="black"/>',
            f'<text x="{x0 - 7}" y="{py(t) + 4:.2f}" text-anchor="end">'
            f'{label}</text>']
    mid = f"{(y1 + y0) / 2:.0f}"
    parts += [
        f'<text x="{(x0 + x1) / 2:.0f}" y="{_H - 10}" '
        f'text-anchor="middle">{xlabel}</text>',
        f'<text x="14" y="{mid}" text-anchor="middle" '
        f'transform="rotate(-90 14 {mid})">{ylabel}</text>',
        *marks(px, py), "</svg>"]
    return "\n".join(parts) + "\n"


def render_curves(series, xlabel: str, ylabel: str) -> str:
    """Multi-curve line plot.

    series: iterable of (label, color, dasharray_or_None, xs, ys).
    """
    series = [(label, color, f' stroke-dasharray="{dash}"' if dash else "",
               xs, ys) for label, color, dash, xs, ys in series]

    def marks(px, py):
        for _, color, dash_attr, xs, ys in series:
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
            yield (f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.8"{dash_attr}/>')
        for i, (label, color, dash_attr, _, _) in enumerate(series):
            y = _MT + 16 + 16 * i
            yield (f'<line x1="{_ML + 10}" y1="{y - 4}" x2="{_ML + 40}" '
                   f'y2="{y - 4}" stroke="{color}" stroke-width="1.8"'
                   f'{dash_attr}/>')
            yield f'<text x="{_ML + 46}" y="{y}">{label}</text>'

    return _figure([x for *_, xs, _ in series for x in xs],
                   [y for *_, ys in series for y in ys], xlabel, ylabel, marks)


def render_regions(layers, annotations=()) -> str:
    """Overlay of filled convex regions on rate axes.

    layers: iterable of (region, fill_color, fill_opacity, label); regions
    are drawn in order, later layers on top.
    """
    layers = list(layers)

    def marks(px, py):
        for region, color, opacity, _ in layers:
            if len(region.vertices) >= 2:
                path = " L ".join(f"{px(x):.2f} {py(y):.2f}"
                                  for x, y in region.vertices)
                yield (f'<path d="M {path} Z" fill="{color}" '
                       f'fill-opacity="{opacity}" stroke="{color}" '
                       f'stroke-width="1.5"/>')
        for i, (_, color, opacity, label) in enumerate(layers):
            y = _MT + 16 + 16 * i
            yield (f'<rect x="{_W - _MR - 160}" y="{y - 10}" width="12" '
                   f'height="12" fill="{color}" fill-opacity="{opacity}"/>')
            yield f'<text x="{_W - _MR - 144}" y="{y}">{label}</text>'
        for i, note in enumerate(annotations):
            yield (f'<text x="{_ML + 10}" y="{_H - _MB - 10 - 16 * i}" '
                   f'fill="#333">{note}</text>')

    xs, ys = zip((0.0, 0.0), *(v for r, *_ in layers for v in r.vertices))
    return _figure(xs, ys, "R1 (bits per symbol)", "R2 (bits per symbol)",
                   marks)
