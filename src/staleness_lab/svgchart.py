"""Minimal deterministic SVG line charts.

No plotting dependency: the curves produced around here are plain line
charts, and emitting the SVG by hand keeps outputs byte-stable across
environments.  All coordinates are rounded to two decimals and the palette,
fonts, and layout are fixed, so the same data always yields the same bytes.
"""

from __future__ import annotations

import math

WIDTH = 720
HEIGHT = 440
MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 40
MARGIN_BOTTOM = 56

PALETTE = ("#1f6fb4", "#d1495b", "#2e8b57", "#b8860b", "#6a5acd", "#444444")


def _nice_step(span: float) -> float:
    raw = span / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mult * mag >= raw:
            return mult * mag
    return 10.0 * mag


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-9 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    a = abs(v)
    if a >= 1e5 or a < 1e-3:
        return f"{v:.1e}"
    s = f"{v:.6g}"
    return s


def render_line_chart(
    headers: list[str],
    rows: list[tuple],
    title: str | None = None,
    y_label: str | None = None,
) -> str:
    """Render one polyline per y-column; ``None`` and non-finite cells
    break the line.

    ``headers`` names the columns (first is x, also the x-axis label);
    ``rows`` holds floats or ``None``.  Returns a standalone SVG document
    string.
    """
    if len(headers) < 2:
        raise ValueError("need an x column and at least one series")
    n_series = len(headers) - 1
    if any(len(r) != len(headers) for r in rows):
        raise ValueError("row width must match header width")

    xs = [r[0] for r in rows if _finite(r[0])]
    ys = [r[i] for r in rows for i in range(1, len(headers)) if _finite(r[i])]
    if not xs or not ys:
        raise ValueError("no numeric data to plot")

    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    # breathing room above and below the data
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.2f}" y="24" text-anchor="middle" font-size="16" '
            f'fill="#222222">{_esc(title)}</text>'
        )

    # grid and ticks
    for tx in _ticks(x_lo, x_hi):
        gx = px(tx)
        parts.append(
            f'<line x1="{gx:.2f}" y1="{MARGIN_TOP}" x2="{gx:.2f}" '
            f'y2="{MARGIN_TOP + plot_h}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{gx:.2f}" y="{MARGIN_TOP + plot_h + 18:.2f}" text-anchor="middle" '
            f'font-size="11" fill="#444444">{_esc(_fmt_tick(tx))}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        gy = py(ty)
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{gy:.2f}" x2="{MARGIN_LEFT + plot_w}" '
            f'y2="{gy:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{gy + 4:.2f}" text-anchor="end" '
            f'font-size="11" fill="#444444">{_esc(_fmt_tick(ty))}</text>'
        )

    # axes
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP + plot_h}" '
        f'x2="{MARGIN_LEFT + plot_w}" y2="{MARGIN_TOP + plot_h}" '
        f'stroke="#222222" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{MARGIN_TOP + plot_h}" stroke="#222222" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.2f}" y="{HEIGHT - 14}" text-anchor="middle" '
        f'font-size="13" fill="#222222">{_esc(headers[0])}</text>'
    )
    if y_label or n_series == 1:
        parts.append(
            f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" '
            f'font-size="13" fill="#222222" transform="rotate(-90 18 '
            f'{MARGIN_TOP + plot_h / 2:.2f})">{_esc(y_label or headers[1])}</text>'
        )

    # series polylines (a None or non-finite cell breaks the line into segments)
    for si in range(n_series):
        color = PALETTE[si % len(PALETTE)]
        segments: list[list[str]] = [[]]
        for r in rows:
            x, y = r[0], r[1 + si]
            if not (_finite(x) and _finite(y)):
                if segments[-1]:
                    segments.append([])
                continue
            segments[-1].append(f"{px(x):.2f},{py(y):.2f}")
        for seg in segments:
            if len(seg) >= 2:
                parts.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" '
                    f'stroke="{color}" stroke-width="2"/>'
                )
            elif len(seg) == 1:
                cx, cy = seg[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')

    # legend, top-right inside the plot
    if n_series > 1:
        lx = MARGIN_LEFT + plot_w - 150
        ly = MARGIN_TOP + 10
        box_h = 18 * n_series + 10
        parts.append(
            f'<rect x="{lx - 10}" y="{ly - 14}" width="160" height="{box_h}" '
            f'fill="#ffffff" stroke="#bbbbbb" stroke-width="1"/>'
        )
        for si in range(n_series):
            yy = ly + 18 * si
            color = PALETTE[si % len(PALETTE)]
            parts.append(
                f'<line x1="{lx}" y1="{yy - 4}" x2="{lx + 24}" y2="{yy - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{lx + 30}" y="{yy}" font-size="11" '
                f'fill="#222222">{_esc(headers[1 + si])}</text>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _finite(v) -> bool:
    return v is not None and math.isfinite(v)


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_chart(path, headers, rows, **kwargs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_line_chart(headers, rows, **kwargs))
