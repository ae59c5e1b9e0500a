"""Shared experiment-harness utilities: number formatting and table rendering.

Every bench prints the rows/series the corresponding paper artifact
reports, via these fixed-width tables, so ``bench_output.txt`` is
directly comparable against EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List, Sequence


def fmt_seconds(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def fmt_bytes(count: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if count < 1024 or unit == "GB":
            return f"{count:.2f}{unit}" if unit != "B" else f"{count:.0f}B"
        count /= 1024
    return f"{count:.2f}GB"


class Table:
    """Minimal fixed-width table printer for experiment output."""

    def __init__(self, title: str, headers: Sequence[str]):
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append([str(cell) for cell in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [f"== {self.title} =="]
        header = " | ".join(
            h.ljust(widths[i]) for i, h in enumerate(self.headers)
        )
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(
                " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            )
        return "\n".join(lines)
