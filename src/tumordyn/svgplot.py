"""Standalone SVG line charts, no plotting dependency.

Output is deterministic: same inputs, same bytes. Data series render as
<polyline> elements; axes and gridlines are plain <line>s so counting
polylines counts data series.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PlotStyle", "emit_plot"]

_WIDTH, _HEIGHT = 960, 600  # canvas size in pixels
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]


@dataclass(frozen=True)
class PlotStyle:
    title: str
    x_label: str
    y_label: str
    split_x: float | None = None  # dashed vertical marker, e.g. a train/test split


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def emit_plot(path, x, series, style: PlotStyle, scatter=None) -> None:
    """Write a line chart of shared-x series, optionally with scatter points.

    `series` is a list of (label, y_values) drawn as polylines over `x`;
    `scatter` is an optional (label, xs, ys) drawn as circles on its own
    x positions.
    """
    x = [float(v) for v in x]
    if not series or not x:
        raise ValueError("nothing to plot: empty x grid or no series")
    for label, ys in series:
        if len(ys) != len(x):
            raise ValueError(f"series {label!r} has {len(ys)} points, x grid has {len(x)}")

    xs_all = list(x)
    ys_all = [float(v) for _, ys in series for v in ys]
    if scatter is not None:
        s_label, s_xs, s_ys = scatter
        if not len(s_xs) or len(s_xs) != len(s_ys):
            raise ValueError("scatter needs equally many non-empty xs and ys")
        xs_all += [float(v) for v in s_xs]
        ys_all += [float(v) for v in s_ys]

    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    W, H = _WIDTH, _HEIGHT
    ml, mr, mt, mb = 78, 180, 48, 58
    px = lambda v: ml + (v - x_lo) / (x_hi - x_lo) * (W - ml - mr)
    py = lambda v: H - mb - (v - y_lo) / (y_hi - y_lo) * (H - mt - mb)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">'
    )
    out.append('<rect width="100%" height="100%" fill="#ffffff"/>')
    out.append(
        f'<text x="{W / 2:.0f}" y="26" text-anchor="middle" font-size="17" '
        f'font-family="sans-serif">{_escape(style.title)}</text>'
    )

    # gridlines and ticks
    n_ticks = 5
    for i in range(n_ticks + 1):
        yv = y_lo + (y_hi - y_lo) * i / n_ticks
        yp = py(yv)
        out.append(
            f'<line x1="{ml}" y1="{_fmt(yp)}" x2="{W - mr}" y2="{_fmt(yp)}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{ml - 8}" y="{_fmt(yp + 4)}" text-anchor="end" font-size="12" '
            f'font-family="sans-serif">{yv:.4g}</text>'
        )
        xv = x_lo + (x_hi - x_lo) * i / n_ticks
        xp = px(xv)
        out.append(
            f'<text x="{_fmt(xp)}" y="{H - mb + 20}" text-anchor="middle" font-size="12" '
            f'font-family="sans-serif">{xv:.4g}</text>'
        )

    # axes
    out.append(
        f'<line x1="{ml}" y1="{H - mb}" x2="{W - mr}" y2="{H - mb}" stroke="#000000" stroke-width="1.5"/>'
    )
    out.append(
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H - mb}" stroke="#000000" stroke-width="1.5"/>'
    )
    out.append(
        f'<text x="{(ml + W - mr) / 2:.0f}" y="{H - 14}" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{_escape(style.x_label)}</text>'
    )
    out.append(
        f'<text x="20" y="{(mt + H - mb) / 2:.0f}" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif" transform="rotate(-90 20 {(mt + H - mb) / 2:.0f})">'
        f"{_escape(style.y_label)}</text>"
    )

    if style.split_x is not None:
        xp = px(float(style.split_x))
        out.append(
            f'<line x1="{_fmt(xp)}" y1="{mt}" x2="{_fmt(xp)}" y2="{H - mb}" '
            'stroke="#888888" stroke-width="1" stroke-dasharray="6 4"/>'
        )

    legend_entries = []
    for idx, (label, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{_fmt(px(a))},{_fmt(py(float(b)))}" for a, b in zip(x, ys))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>')
        legend_entries.append((label, color, "line"))

    if scatter is not None:
        s_label, s_xs, s_ys = scatter
        color = _COLORS[len(series) % len(_COLORS)]
        for a, b in zip(s_xs, s_ys):
            out.append(
                f'<circle cx="{_fmt(px(float(a)))}" cy="{_fmt(py(float(b)))}" r="4" '
                f'fill="{color}"/>'
            )
        legend_entries.append((s_label, color, "points"))

    lx = W - mr + 16
    for idx, (label, color, kind) in enumerate(legend_entries):
        ly = mt + 10 + idx * 24
        if kind == "line":
            out.append(
                f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
            )
        else:
            out.append(f'<circle cx="{lx + 12}" cy="{ly}" r="4" fill="{color}"/>')
        out.append(
            f'<text class="legend" x="{lx + 32}" y="{ly + 4}" font-size="13" '
            f'font-family="sans-serif">{_escape(label)}</text>'
        )

    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
