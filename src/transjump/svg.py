"""Minimal hand-rolled SVG bar charts (no plotting dependency)."""
from __future__ import annotations


def grouped_bar_svg(series: dict[str, list[float]], x_labels: list[str],
                    title: str, y_label: str) -> str:
    """Side-by-side bars for up to a few series over the model order k.

    The x axis is labelled "k" and each x label names one order; the chart
    is 820 x 420 px, with series in alternating grey and black.
    """
    width, height, colors = 820, 420, ("#999999", "#111111")
    names = list(series)
    n_groups = len(x_labels)
    for name in names:
        if len(series[name]) != n_groups:
            raise ValueError(f"series {name!r} length does not match labels")
    left, right, top, bottom = 60, 20, 34, 46
    plot_w = width - left - right
    plot_h = height - top - bottom
    y_max = max((max(v) for v in series.values() if len(v)), default=1.0)
    y_max = y_max * 1.08 or 1.0

    group_w = plot_w / max(1, n_groups)
    bar_w = group_w * 0.8 / max(1, len(names))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    parts.append(f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="14">{title}</text>')

    # axes
    x0, y0 = left, top + plot_h
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" '
                 f'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{x0}" y1="{top}" x2="{x0}" y2="{y0}" '
                 f'stroke="black" stroke-width="1"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yv = frac * y_max
        yy = y0 - frac * plot_h
        parts.append(f'<line x1="{x0 - 4}" y1="{yy:.1f}" x2="{x0}" y2="{yy:.1f}" '
                     f'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x0 - 8}" y="{yy + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{yv:.2f}</text>')

    label_step = max(1, n_groups // 16)
    for gi, label in enumerate(x_labels):
        gx = x0 + gi * group_w
        for si, name in enumerate(names):
            val = series[name][gi]
            bar_h = 0.0 if y_max == 0 else max(0.0, val / y_max * plot_h)
            bx = gx + group_w * 0.1 + si * bar_w
            parts.append(
                f'<rect x="{bx:.2f}" y="{y0 - bar_h:.2f}" width="{bar_w:.2f}" '
                f'height="{bar_h:.2f}" fill="{colors[si % len(colors)]}"/>')
        if gi % label_step == 0:
            parts.append(f'<text x="{gx + group_w / 2:.1f}" y="{y0 + 16}" '
                         f'text-anchor="middle" font-family="sans-serif" '
                         f'font-size="11">{label}</text>')

    parts.append(f'<text x="{x0 + plot_w / 2:.1f}" y="{height - 8}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">k</text>')
    parts.append(f'<text x="16" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {top + plot_h / 2:.1f})">{y_label}</text>')

    # legend
    lx = x0 + plot_w - 150
    for si, name in enumerate(names):
        ly = top + 6 + si * 18
        parts.append(f'<rect x="{lx}" y="{ly}" width="12" height="12" '
                     f'fill="{colors[si % len(colors)]}"/>')
        parts.append(f'<text x="{lx + 18}" y="{ly + 10}" font-family="sans-serif" '
                     f'font-size="12">{name}</text>')

    parts.append('</svg>')
    return "\n".join(parts)
