"""Static SVG 1.1 line plots with byte-deterministic output.

No plotting library: the renderer is a pure function of its inputs, so two
runs from the same data produce identical files, which the experiment harness
relies on for reproducibility checks.
"""

from __future__ import annotations

import math

import numpy as np

from .descent import _write_atomic

PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
)

_W, _H = 840, 520
_ML, _MR, _MT, _MB = 70, 210, 40, 55  # margins; right one holds the legend


def _axis(lo: float, hi: float):
    """The plotted range ``(lo, hi, s)`` of data from ``lo`` to ``hi``. Equal
    ends span one unit up, or from lo to lo / 2 where a unit is below lo's
    ulp. Coordinates are computed on values times ``s``: 1.0, or 2**-11 where
    ``(hi - lo) * 1024`` overflows, so that any span of floats, scaled, times
    the plot's width stays finite; scaling values that large by a power of
    two is exact, so it changes no coordinate's bits."""
    if hi == lo:
        hi = lo + 1.0
        if hi == lo:
            lo, hi = sorted((lo, lo / 2))
    return lo, hi, 1.0 if (hi - lo) * 1024 < math.inf else 2.0**-11


def _linear_ticks(lo: float, hi: float, s: float):
    raw = (hi * s - lo * s) / 4 / s  # about five ticks, four steps apart
    # no decimal step: hi <= lo, or a span of a few subnormals, where 10.0 ** -324 is 0
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 0.0
    if mag == 0.0:
        return [lo]
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        # a step under half an ulp of t leaves it, and one past the largest float makes it inf
        if not t < t + step < math.inf:
            break
        t += step
    return ticks


def _decade_ticks(lo: float, hi: float):
    # the powers of ten a float holds: 10.0 ** -324 is 0 and 10.0 ** 309 overflows
    lo_e = max(math.floor(math.log10(lo)), -323)
    hi_e = min(math.ceil(math.log10(hi)), 308)
    stride = max(1, (hi_e - lo_e) // 8)
    return [10.0**e for e in range(lo_e, hi_e + 1, stride)]


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, ``&`` first, as xml.sax.saxutils.escape
    does; that module imports a network stack."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _line(x1, y1, x2, y2, stroke="#333333", width="1") -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" stroke-width="{width}"/>'


def _text(x, y, size, body, attrs="") -> str:
    return f'<text x="{x}" y="{y}" font-family="sans-serif" font-size="{size}"{attrs}>{body}</text>'


def render_comparison(curves) -> str:
    """Render one polyline per curve plus axes and a legend.

    ``curves`` is a sequence of (label, x, y) with equal-length 1-d arrays;
    the axes are labelled "oracle calls" (x) and "objective" (y). The y axis
    is a log scale exactly when every y is positive. Returns the SVG document
    text.
    """
    if not curves:
        raise ValueError("need at least one curve")
    named = []
    for label, x, y in curves:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.size == 0 or x.size != y.size:
            raise ValueError(f"curve {label!r} needs matching nonempty x and y")
        named.append((str(label), x, y))

    xs = np.concatenate([c[1] for c in named])
    ys = np.concatenate([c[2] for c in named])
    log_y = bool(np.all(ys > 0))
    x_lo, x_hi, sx = _axis(float(xs.min()), float(xs.max()))
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if log_y:
        ty_lo, ty_hi, sy = _axis(math.log10(y_lo), math.log10(y_hi))
    else:
        ty_lo, ty_hi, sy = _axis(y_lo, y_hi)

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(v):
        return _ML + pw * (v * sx - x_lo * sx) / (x_hi * sx - x_lo * sx)

    def py(v):
        tv = math.log10(v) if log_y else v
        return _MT + ph * (1.0 - (tv * sy - ty_lo * sy) / (ty_hi * sy - ty_lo * sy))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#ffffff"/>',
        _line(_ML, _MT + ph, _ML + pw, _MT + ph),  # axes
        _line(_ML, _MT, _ML, _MT + ph),
    ]
    for t in _linear_ticks(x_lo, x_hi, sx):
        xx = f"{px(t):.2f}"
        out.append(_line(xx, _MT + ph, xx, _MT + ph + 5))
        out.append(_text(xx, _MT + ph + 18, 11, f"{t:g}", ' text-anchor="middle"'))
    y_ticks = _decade_ticks(y_lo, y_hi) if log_y else _linear_ticks(ty_lo, ty_hi, sy)
    for t in y_ticks:
        yy = py(t)
        if yy < _MT - 1e-6 or yy > _MT + ph + 1e-6:
            continue
        out.append(_line(_ML - 5, f"{yy:.2f}", _ML, f"{yy:.2f}"))
        out.append(_text(_ML - 8, f"{yy + 4:.2f}", 11, f"{t:g}", ' text-anchor="end"'))
    out.append(_text(f"{_ML + pw / 2:.2f}", _H - 15, 12, "oracle calls", ' text-anchor="middle"'))
    yy = f"{_MT + ph / 2:.2f}"
    out.append(_text(18, yy, 12, "objective", f' text-anchor="middle" transform="rotate(-90 18 {yy})"'))

    for i, (label, x, y) in enumerate(named):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')

    lx = _W - _MR + 20
    for i, (label, _, _) in enumerate(named):
        ly = _MT + 14 + 20 * i
        out.append(_line(lx, ly, lx + 24, ly, PALETTE[i % len(PALETTE)], "1.5"))
        out.append(_text(lx + 30, ly + 4, 11, _escape(label)))

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(svg_text: str, path) -> None:
    """Write SVG text to ``path`` through :func:`holderopt.descent._write_atomic`:
    a failed write leaves ``path`` as it was and no temp file."""
    _write_atomic(path, (svg_text,))
