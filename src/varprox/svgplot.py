"""Minimal dependency-free SVG log-log line plots (convergence curves)."""

import math
from xml.sax.saxutils import escape

__all__ = ["multi_panel"]

_COLORS = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f"]

_W, _H = 460, 360
_ML, _MR, _MT, _MB = 64, 14, 30, 46


def _log_pairs(xs, ys):
    return [(math.log10(x), math.log10(y)) for x, y in zip(xs, ys)
            if x > 0 and y > 0 and math.isfinite(x) and math.isfinite(y)]


def _ticks(lo, hi):
    return list(range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1))


def _panel(curves, xlabel, ylabel, title, x_off):
    transformed = [(label, _log_pairs(xs, ys))
                   for label, xs, ys in curves]
    all_pts = [p for _, pts in transformed for p in pts]
    if not all_pts:
        return [f'<text x="{x_off + 40}" y="40">no finite data</text>']
    xs = [p[0] for p in all_pts]
    ys = [p[1] for p in all_pts]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if xhi == xlo:
        xhi = xlo + 1
    if yhi == ylo:
        yhi = ylo + 1
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def sx(x):
        return x_off + _ML + (x - xlo) / (xhi - xlo) * pw

    def sy(y):
        return _MT + (1 - (y - ylo) / (yhi - ylo)) * ph

    parts = [f'<rect x="{x_off + _ML}" y="{_MT}" width="{pw}" height="{ph}" '
             'fill="white" stroke="#333"/>']
    parts.append(f'<text x="{x_off + _ML + pw / 2:.1f}" y="{_MT - 10}" '
                 f'text-anchor="middle" font-weight="bold">{escape(title)}</text>')
    for t in _ticks(xlo, xhi):
        parts.append(f'<line x1="{sx(t):.1f}" y1="{_MT + ph}" x2="{sx(t):.1f}" '
                     f'y2="{_MT + ph + 5}" stroke="#333"/>')
        parts.append(f'<text x="{sx(t):.1f}" y="{_MT + ph + 18}" '
                     f'text-anchor="middle" font-size="11">1e{t}</text>')
    for t in _ticks(ylo, yhi):
        parts.append(f'<line x1="{x_off + _ML - 5}" y1="{sy(t):.1f}" '
                     f'x2="{x_off + _ML}" y2="{sy(t):.1f}" stroke="#333"/>')
        parts.append(f'<text x="{x_off + _ML - 8}" y="{sy(t) + 4:.1f}" '
                     f'text-anchor="end" font-size="11">1e{t}</text>')
    parts.append(f'<text x="{x_off + _ML + pw / 2:.1f}" y="{_H - 8}" '
                 f'text-anchor="middle" font-size="12">{escape(xlabel)}</text>')
    parts.append(f'<text x="{x_off + 14}" y="{_MT + ph / 2:.1f}" font-size="12" '
                 f'transform="rotate(-90 {x_off + 14} {_MT + ph / 2:.1f})" '
                 f'text-anchor="middle">{escape(ylabel)}</text>')
    for i, (label, pts) in enumerate(transformed):
        color = _COLORS[i % len(_COLORS)]
        if pts:
            path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            parts.append(f'<polyline points="{path}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{x_off + _ML + 8}" y1="{ly}" '
                     f'x2="{x_off + _ML + 28}" y2="{ly}" stroke="{color}" '
                     'stroke-width="2"/>')
        parts.append(f'<text x="{x_off + _ML + 33}" y="{ly + 4}" '
                     f'font-size="11">{escape(label)}</text>')
    return parts


def multi_panel(path, panels):
    """Write one SVG with the given panels side by side.

    Each panel is a dict with keys ``curves`` (list of ``(label, xs, ys)``),
    ``xlabel``, ``ylabel`` and ``title``.  Both axes are log10; points with
    a non-positive or non-finite coordinate are not drawn.
    """
    width = _W * len(panels)
    body = []
    for i, panel in enumerate(panels):
        body.extend(_panel(panel["curves"], panel.get("xlabel", ""),
                           panel.get("ylabel", ""), panel.get("title", ""),
                           i * _W))
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{_H}" font-family="sans-serif" font-size="12">\n'
           + "\n".join(body) + "\n</svg>\n")
    with open(path, "w") as fh:
        fh.write(svg)
