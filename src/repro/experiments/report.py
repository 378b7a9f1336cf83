"""Plain-text rendering for experiment results: tables and line plots.

The paper's figures are line charts; in a terminal-first library we
render them as aligned tables plus a simple ASCII scatter so the shape
(orderings, crossovers, saturation fold-backs) is visible at a glance.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.sim.metrics import BNFCurve


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned monospace table."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in cells)) if cells
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(value.rjust(w) for value, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def ascii_plot(
    series: Mapping[str, Sequence[tuple[float, float]]],
    width: int = 72,
    height: int = 20,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Scatter several (x, y) series onto a character grid.

    Each series gets the first letter of its label (disambiguated with
    digits on collision).  Intended for quick shape checks of BNF
    curves in terminals and logs, not for publication.
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0

    grid = [[" "] * width for _ in range(height)]
    markers: dict[str, str] = {}
    used: set[str] = set()
    for label in series:
        marker = label[0].upper()
        if marker in used:
            for digit in "23456789":
                if digit not in used:
                    marker = digit
                    break
        used.add(marker)
        markers[label] = marker

    for label, pts in series.items():
        marker = markers[label]
        for x, y in pts:
            col = round((x - x_low) / x_span * (width - 1))
            row = height - 1 - round((y - y_low) / y_span * (height - 1))
            grid[row][col] = marker

    lines = [f"{y_label} ({y_low:.3g} .. {y_high:.3g})"]
    lines += ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width)
    lines.append(f" {x_label} ({x_low:.3g} .. {x_high:.3g})")
    legend = "  ".join(f"{marker}={label}" for label, marker in markers.items())
    lines.append(f" legend: {legend}")
    return "\n".join(lines)


def matches_report(
    title: str, x_label: str, xs: Sequence[float],
    series: Mapping[str, Sequence[float]], x_format: str,
) -> str:
    """A standalone figure (Figures 8 and 9): matches/cycle per x and
    algorithm, as a table and a plot."""
    rows = [(f"{x:{x_format}}",) + tuple(values[i] for values in series.values())
            for i, x in enumerate(xs)]
    plot = ascii_plot(
        {label: list(zip(xs, values)) for label, values in series.items()},
        x_label=x_label, y_label="matches per cycle", height=16,
    )
    return format_table((x_label, *series), rows, title=title) + "\n\n" + plot


def bnf_plot(curves: Mapping[str, BNFCurve], width: int = 72, height: int = 20) -> str:
    """ASCII Burton-Normal-Form chart: latency (y) vs throughput (x)."""
    series = {
        label: [(p.throughput, p.latency_ns) for p in curve.points]
        for label, curve in curves.items()
    }
    return ascii_plot(
        series,
        width=width,
        height=height,
        x_label="delivered flits/router/ns",
        y_label="average packet latency (ns)",
    )


def curves_table(curves: Mapping[str, BNFCurve]) -> str:
    """The raw sweep numbers behind a BNF chart."""
    rows = []
    for label, curve in curves.items():
        for point in curve.points:
            rows.append(
                (label, f"{point.offered_rate:.4g}", point.throughput,
                 point.latency_ns, point.packets_delivered)
            )
    return format_table(
        ("algorithm", "offered rate", "flits/router/ns", "latency ns", "packets"),
        rows,
    )


def panels_report(panels: Mapping[str, Mapping[str, BNFCurve]]) -> str:
    """BNF panels (Figures 10 and 11): under each title, the raw sweep
    numbers and the chart."""
    return "\n\n\n".join(
        f"== {title} ==\n\n{curves_table(curves)}\n\n{bnf_plot(curves)}"
        for title, curves in panels.items()
    )
