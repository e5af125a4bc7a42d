"""Static SVG 1.1 line plots with byte-deterministic output.

No plotting library: the renderer is a pure function of its inputs, so two
runs from the same data produce identical files, which the experiment harness
relies on for reproducibility checks.
"""

from __future__ import annotations

import math
import os

import numpy as np

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


def _linear_ticks(lo: float, hi: float, target: int = 5):
    if not (hi > lo):
        return [lo]
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _decade_ticks(lo: float, hi: float):
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    stride = max(1, (hi_e - lo_e) // 8)
    return [10.0**e for e in range(lo_e, hi_e + 1, stride)]


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, ``&`` first, as xml.sax.saxutils.escape
    does; that module imports a network stack."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_comparison(curves, log_y: bool = False) -> str:
    """Render one polyline per curve plus axes and a legend.

    ``curves`` is a sequence of (label, x, y) with equal-length 1-d arrays;
    the axes are labelled "oracle calls" (x) and "objective" (y). With
    ``log_y`` every y must be positive. Returns the SVG document text.
    """
    if not curves:
        raise ValueError("need at least one curve")
    named = []
    for label, x, y in curves:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.size == 0 or x.size != y.size:
            raise ValueError(f"curve {label!r} needs matching nonempty x and y")
        if log_y and np.any(y <= 0):
            raise ValueError(f"curve {label!r} has nonpositive values; log scale impossible")
        named.append((str(label), x, y))

    xs = np.concatenate([c[1] for c in named])
    ys = np.concatenate([c[2] for c in named])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if log_y:
        ty_lo, ty_hi = math.log10(y_lo), math.log10(y_hi)
    else:
        ty_lo, ty_hi = y_lo, y_hi
    if ty_hi == ty_lo:
        ty_hi = ty_lo + 1.0

    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(v):
        return _ML + pw * (v - x_lo) / (x_hi - x_lo)

    def py(v):
        tv = math.log10(v) if log_y else v
        return _MT + ph * (1.0 - (tv - ty_lo) / (ty_hi - ty_lo))

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    out.append(f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#ffffff"/>')

    # axes
    out.append(
        f'<line x1="{_ML}" y1="{_MT + ph}" x2="{_ML + pw}" y2="{_MT + ph}" stroke="#333333" stroke-width="1"/>'
    )
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + ph}" stroke="#333333" stroke-width="1"/>')

    for t in _linear_ticks(x_lo, x_hi):
        xx = px(t)
        out.append(
            f'<line x1="{xx:.2f}" y1="{_MT + ph}" x2="{xx:.2f}" y2="{_MT + ph + 5}" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{xx:.2f}" y="{_MT + ph + 18}" font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{t:g}</text>'
        )
    y_ticks = _decade_ticks(y_lo, y_hi) if log_y else _linear_ticks(ty_lo, ty_hi)
    for t in y_ticks:
        yy = py(t)
        if yy < _MT - 1e-6 or yy > _MT + ph + 1e-6:
            continue
        out.append(
            f'<line x1="{_ML - 5}" y1="{yy:.2f}" x2="{_ML}" y2="{yy:.2f}" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{yy + 4:.2f}" font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{t:g}</text>'
        )
    out.append(
        f'<text x="{_ML + pw / 2:.2f}" y="{_H - 15}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle">oracle calls</text>'
    )
    yy = _MT + ph / 2
    out.append(
        f'<text x="18" y="{yy:.2f}" font-family="sans-serif" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 18 {yy:.2f})">objective</text>'
    )

    for i, (label, x, y) in enumerate(named):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')

    lx = _W - _MR + 20
    for i, (label, _, _) in enumerate(named):
        color = PALETTE[i % len(PALETTE)]
        ly = _MT + 14 + 20 * i
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" stroke="{color}" stroke-width="1.5"/>')
        out.append(
            f'<text x="{lx + 30}" y="{ly + 4}" font-family="sans-serif" font-size="11">{_escape(label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(svg_text: str, path) -> None:
    """Write SVG text atomically (temp file + rename)."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg_text)
    os.replace(tmp, path)
