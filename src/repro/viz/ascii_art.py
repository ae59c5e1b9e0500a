"""ASCII rendering of 2-D SGS summaries.

The paper's user study displayed clusters in ViStream, a multivariate
visualization tool. For a terminal-only reproduction, these helpers
render the skeletal grid cells of one (or several) 2-D summaries as
character art — density-shaded for core cells, ``+`` for edge cells —
which is exactly the information SGS was designed to preserve: shape,
connectivity, and density distribution at sub-region granularity.
"""

from __future__ import annotations

from typing import List

from repro.core.sgs import SGS

#: Darkness ramp for core-cell densities (light to dark).
_RAMP = ".:-=*%@#"


def render_sgs(sgs: SGS, border: bool = True) -> str:
    """Render one 2-D SGS as character art.

    Core cells are shaded by relative population; edge cells print as
    ``+``; empty space as `` ``.
    """
    if sgs.dimensions != 2:
        raise ValueError("ASCII rendering supports 2-D summaries only")
    cells = sgs.cells  # one view for the whole rendering
    xs = [loc[0] for loc in cells]
    ys = [loc[1] for loc in cells]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    max_population = max(
        (cell.population for cell in cells.values() if cell.is_core),
        default=1,
    )
    rows: List[str] = []
    for y in range(max_y, min_y - 1, -1):
        row_chars = []
        for x in range(min_x, max_x + 1):
            cell = cells.get((x, y))
            if cell is None:
                row_chars.append(" ")
            elif cell.is_core:
                level = min(
                    len(_RAMP) - 1,
                    int(cell.population / max_population * (len(_RAMP) - 1)),
                )
                row_chars.append(_RAMP[level])
            else:
                row_chars.append("+")
        rows.append("".join(row_chars))
    if border:
        width = max_x - min_x + 1
        top = "┌" + "─" * width + "┐"
        bottom = "└" + "─" * width + "┘"
        rows = [top] + ["│" + row + "│" for row in rows] + [bottom]
    return "\n".join(rows)
