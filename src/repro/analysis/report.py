"""Plain-text rendering of the paper's tables and figures.

The benchmark harness prints every reproduced table/figure as text so
``pytest benchmarks/`` output is self-contained: paper value beside
measured value wherever the paper publishes a number.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

__all__ = ["render_table", "render_series", "render_histogram", "side_by_side"]


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned text table."""
    columns = [
        [str(header)] + [str(row[i]) for row in rows]
        for i, header in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        str(h).ljust(widths[i]) for i, h in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rows:
        lines.append(
            "  ".join(str(row[i]).ljust(widths[i]) for i in range(len(headers)))
        )
    return "\n".join(lines)


def render_series(
    pairs: Sequence[Tuple[object, float]],
    title: Optional[str] = None,
    value_format: str = "{:.4f}",
) -> str:
    """Render (label, value) pairs, one per line."""
    lines: List[str] = []
    if title:
        lines.append(title)
    label_width = max((len(str(label)) for label, _ in pairs), default=0)
    for label, value in pairs:
        lines.append(
            f"  {str(label).ljust(label_width)}  {value_format.format(value)}"
        )
    return "\n".join(lines)


def render_histogram(
    values: Sequence[float],
    labels: Optional[Sequence[object]] = None,
    width: int = 40,
    title: Optional[str] = None,
) -> str:
    """ASCII bar chart (used for the figure benchmarks)."""
    lines: List[str] = []
    if title:
        lines.append(title)
    peak = max(values, default=0.0)
    if labels is None:
        labels = list(range(len(values)))
    label_width = max((len(str(label)) for label in labels), default=0)
    for label, value in zip(labels, values):
        bar = "#" * (int(round(width * value / peak)) if peak > 0 else 0)
        lines.append(f"  {str(label).rjust(label_width)} |{bar} {value:.4f}")
    return "\n".join(lines)


def side_by_side(
    paper: Mapping[str, float],
    measured: Mapping[str, float],
    title: Optional[str] = None,
    value_format: str = "{:.3f}",
) -> str:
    """Paper-vs-measured comparison table over shared keys."""
    rows = []
    for key in paper:
        measured_value = measured.get(key)
        rows.append(
            (
                key,
                value_format.format(paper[key]),
                "-"
                if measured_value is None
                else value_format.format(measured_value),
            )
        )
    return render_table(("key", "paper", "measured"), rows, title=title)
