"""Deterministic SVG output: ternary scatter plots, reallocation curves with
confidence bands, and per-profile boxplots.  Hand-rolled markup keeps the
files byte-stable for golden-file diffs."""

from __future__ import annotations

import math

import numpy as np

from .composition import CompositionError

_W, _H = 480.0, 420.0
_MARGIN = 50.0
_NO_VALUE_FILL = "#4477aa"  # also the fill of the lowest value


def _f(x: float) -> str:
    return f"{x:.3f}"


def _svg(title: str, body: list[str]) -> str:
    """The SVG document of ``body``, under ``title``."""
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:.0f}" '
        f'height="{_H:.0f}" viewBox="0 0 {_W:.0f} {_H:.0f}">\n'
        f'<text x="{_f(_W / 2)}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def ternary_svg(parts: np.ndarray, labels: tuple[str, ...],
                values: np.ndarray, title: str) -> str:
    """Scatter of the closed (N, 3) compositions ``parts`` in the unit
    triangle, vertices labeled with the behavior names ``labels``; the
    values drive a blue-orange fill, whose range comes from the finite
    values.  Points without a finite value get the fill of the lowest
    value."""
    side = _W - 2 * _MARGIN
    tri_h = side * math.sqrt(3) / 2

    def to_px(u, v):
        return _MARGIN + u * side, _H - _MARGIN - v * side

    body = []
    v0, v1, v2 = to_px(0, 0), to_px(1, 0), to_px(0.5, tri_h / side)
    body.append(
        f'<polygon points="{_f(v0[0])},{_f(v0[1])} {_f(v1[0])},{_f(v1[1])} '
        f'{_f(v2[0])},{_f(v2[1])}" fill="none" stroke="black"/>')
    anchors = [(v0, "end", 15), (v1, "start", 15), (v2, "middle", -10)]
    for lab, ((px, py), anchor, dy) in zip(labels, anchors):
        body.append(f'<text x="{_f(px)}" y="{_f(py + dy)}" '
                    f'text-anchor="{anchor}" font-size="12">{lab}</text>')
    if parts.shape[1] != 3:
        raise CompositionError(
            "ternary coordinates require a 3-part composition")
    # parts (a, b, c) map to (b + c/2, c*sqrt(3)/2): vertices (0, 0), (1, 0)
    # and (1/2, sqrt(3)/2) in part order
    px, py = to_px(parts[:, 1] + 0.5 * parts[:, 2],
                   (math.sqrt(3) / 2) * parts[:, 2])
    fills = np.full(len(parts), _NO_VALUE_FILL, dtype=object)
    values = np.asarray(values, dtype=float)
    known = np.isfinite(values)
    if known.any():
        v = values[known]
        vmin, vmax = float(v.min()), float(v.max())
        t = (v - vmin) / ((vmax - vmin) or 1.0)
        # red and blue run from #4477aa to #ee7733; green stays 0x77
        r = (68 + t * (238 - 68)).astype(int)
        b = (170 + t * (51 - 170)).astype(int)
        fills[known] = [f"#{ri:02x}77{bi:02x}"
                        for ri, bi in zip(r.tolist(), b.tolist())]
    body.extend(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="2.5" '
                f'fill="{fill}" fill-opacity="0.7"/>'
                for x, y, fill in zip(px.tolist(), py.tolist(), fills))
    return _svg(title, body)


def curve_svg(x: np.ndarray, y: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              title: str) -> str:
    """Line plot with a shaded pointwise 95% confidence band and a zero line."""
    x = np.asarray(x, dtype=float)
    ymin = min(float(lo.min()), 0.0)
    ymax = max(float(hi.max()), 0.0)
    yspan = (ymax - ymin) or 1.0
    xspan = (x.max() - x.min()) or 1.0

    def to_px(xv, yv):
        px = _MARGIN + (xv - x.min()) / xspan * (_W - 2 * _MARGIN)
        py = _H - _MARGIN - (yv - ymin) / yspan * (_H - 2 * _MARGIN)
        return px, py

    body = []
    band = [to_px(xi, hi_i) for xi, hi_i in zip(x, hi)]
    band += [to_px(xi, lo_i) for xi, lo_i in zip(x[::-1], lo[::-1])]
    pts = " ".join(f"{_f(px)},{_f(py)}" for px, py in band)
    body.append(f'<polygon class="ci-band" points="{pts}" fill="#88aadd" '
                'fill-opacity="0.4" stroke="none"/>')
    _, zero_y = to_px(x.min(), 0.0)
    body.append(f'<line x1="{_f(_MARGIN)}" y1="{_f(zero_y)}" '
                f'x2="{_f(_W - _MARGIN)}" y2="{_f(zero_y)}" '
                'stroke="#999999" stroke-dasharray="4 3"/>')
    line = " ".join(f"{_f(px)},{_f(py)}"
                    for px, py in (to_px(xi, yi) for xi, yi in zip(x, y)))
    body.append(f'<polyline points="{line}" fill="none" stroke="#224488" '
                'stroke-width="1.5"/>')
    body.append(f'<text x="{_f(_W / 2)}" y="{_f(_H - 12)}" text-anchor="middle" '
                f'font-size="12">minutes reallocated</text>')
    body.append(f'<text x="14" y="{_f(_H / 2)}" text-anchor="middle" '
                f'font-size="12" transform="rotate(-90 14 {_f(_H / 2)})">'
                'predicted outcome difference</text>')
    return _svg(title, body)


def profile_boxplot_svg(groups: dict[str, dict[str, np.ndarray]],
                        title: str) -> str:
    """Grouped boxplots: one panel column per behavior, one box per profile.

    ``groups`` maps profile name -> {behavior: sample of hours/day}; profile
    order is preserved (callers order by mean sitting time).
    """
    profiles = list(groups)
    behaviors = list(next(iter(groups.values())))
    n_cols = len(behaviors)
    panel_w = (_W - 2 * _MARGIN) / n_cols
    all_vals = np.concatenate([np.asarray(groups[p][b], dtype=float)
                               for p in profiles for b in behaviors])
    ymin, ymax = float(all_vals.min()), float(all_vals.max())
    yspan = (ymax - ymin) or 1.0

    def to_py(v):
        return _H - _MARGIN - (v - ymin) / yspan * (_H - 2 * _MARGIN)

    body = []
    for ci, b in enumerate(behaviors):
        x0 = _MARGIN + ci * panel_w
        body.append(f'<text x="{_f(x0 + panel_w / 2)}" y="{_f(_H - 12)}" '
                    f'text-anchor="middle" font-size="12">{b}</text>')
        box_w = panel_w / (len(profiles) + 1)
        for pi, prof in enumerate(profiles):
            vals = np.sort(np.asarray(groups[prof][b], dtype=float))
            q1, q2, q3 = np.percentile(vals, [25, 50, 75])
            cx = x0 + (pi + 1) * box_w
            half = box_w * 0.35
            body.append(
                f'<g class="box" data-profile="{prof}" data-behavior="{b}">')
            body.append(f'<line x1="{_f(cx)}" y1="{_f(to_py(vals[0]))}" '
                        f'x2="{_f(cx)}" y2="{_f(to_py(vals[-1]))}" '
                        'stroke="#444444"/>')
            body.append(f'<rect x="{_f(cx - half)}" y="{_f(to_py(q3))}" '
                        f'width="{_f(2 * half)}" '
                        f'height="{_f(to_py(q1) - to_py(q3))}" '
                        'fill="#aaccee" stroke="#224488"/>')
            body.append(f'<line x1="{_f(cx - half)}" y1="{_f(to_py(q2))}" '
                        f'x2="{_f(cx + half)}" y2="{_f(to_py(q2))}" '
                        'stroke="#224488" stroke-width="1.5"/>')
            body.append('</g>')
    return _svg(title, body)
