"""Text and SVG pictures of lower crossingless matches.

Layout is deterministic: vertices get fixed columns box by box, each arc is
drawn at a height given by its nesting depth, and unmatched vertices become
vertical rays to the top edge (marked ``^`` or ``v`` once an orientation is
chosen).  Unmatched vertices are never nested inside an arc, so rays and arc
horizontals can never collide.
"""

from __future__ import annotations

from .diagrams import BoxConfig, LowerMatch, OrientedLowerMatch


def _layout(boxes: BoxConfig):
    """Column of each vertex, [open, close] column span per box, total width."""
    col = 0
    spans = []
    vcol: dict[int, int] = {}
    v = 1
    for w in boxes.sizes:
        open_col = col
        if w == 0:
            close_col = open_col + 1
        else:
            for j in range(w):
                vcol[v] = open_col + 1 + 3 * j
                v += 1
            close_col = open_col + 3 * w - 1
        spans.append((open_col, close_col))
        col = close_col + 2
    return vcol, spans, col - 1


def _arc_depths(arcs) -> dict[tuple[int, int], int]:
    depths = {}
    for p, q in arcs:
        depths[(p, q)] = 1 + sum(1 for p2, q2 in arcs if p2 < p and q < q2)
    return depths


def ascii_diagram(m: LowerMatch, downs: int | None = None) -> str:
    """Multi-line text picture; ``downs`` marks that many rightmost rays down."""
    down = None if downs is None else OrientedLowerMatch(m, downs).down_vertices()
    vcol, spans, width = _layout(m.boxes)
    depths = _arc_depths(m.arcs)
    max_depth = max(depths.values(), default=0)
    free = m.unmatched()
    top_rows = max(max_depth, 2 if free else 0)

    grid = [[" "] * width for _ in range(top_rows + 2)]
    vertex_row = top_rows
    box_row = top_rows + 1

    for (p, q), d in depths.items():
        row = top_rows - 1 - max_depth + d
        cp, cq = vcol[p], vcol[q]
        grid[row][cp] = "."
        grid[row][cq] = "."
        for c in range(cp + 1, cq):
            grid[row][c] = "-"
        for below in range(row + 1, vertex_row):
            grid[below][cp] = "|"
            grid[below][cq] = "|"

    for u in free:
        c = vcol[u]
        for row in range(top_rows):
            grid[row][c] = "|"
        if down is not None:
            grid[0][c] = "v" if u in down else "^"

    for c in vcol.values():
        grid[vertex_row][c] = "o"
    for open_col, close_col in spans:
        grid[box_row][open_col] = "["
        grid[box_row][close_col] = "]"
        for c in range(open_col + 1, close_col):
            grid[box_row][c] = "-"

    return "\n".join("".join(row).rstrip() for row in grid)


def svg_diagram(m: LowerMatch, downs: int | None = None) -> str:
    """Standalone SVG: boxes as rectangles, arcs as semicircles, oriented rays."""
    down = None if downs is None else OrientedLowerMatch(m, downs).down_vertices()
    vcol, spans, width = _layout(m.boxes)

    def x(col: int) -> int:
        return 10 + 12 * col

    base = 90
    parts = []
    for open_col, close_col in spans:
        parts.append(
            f'<rect x="{x(open_col)}" y="{base}" width="{x(close_col) - x(open_col)}" '
            f'height="18" fill="none" stroke="black"/>'
        )
    for v, col in vcol.items():
        parts.append(f'<circle cx="{x(col)}" cy="{base}" r="2.5" fill="black"/>')
    for p, q in m.arcs:
        xp, xq = x(vcol[p]), x(vcol[q])
        r = (xq - xp) / 2
        parts.append(
            f'<path d="M {xp} {base} A {r:g} {r:g} 0 0 1 {xq} {base}" '
            f'fill="none" stroke="black"/>'
        )
    for u in m.unmatched():
        xu = x(vcol[u])
        parts.append(f'<line x1="{xu}" y1="{base}" x2="{xu}" y2="24" stroke="black"/>')
        if down is not None:
            if u in down:
                parts.append(
                    f'<polygon points="{xu},30 {xu - 4},22 {xu + 4},22" fill="black"/>'
                )
            else:
                parts.append(
                    f'<polygon points="{xu},16 {xu - 4},26 {xu + 4},26" fill="black"/>'
                )
    total_w = x(width) + 10
    header = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" height="120" '
        f'viewBox="0 0 {total_w} 120">'
    )
    return header + "".join(parts) + "</svg>"
