"""Deterministic SVG rendering of brick diagrams with highlighted curves.

Strands are vertical lines, crossings horizontal bars at their word
position, and each highlighted curve outlines the bricks spanned by its
support, column by column.  Identical input produces byte-identical
output: coordinates are integers and iteration orders are fixed.
"""

from __future__ import annotations

from typing import Iterable

from .curves import NormalCurve
from .fatgraph import FatGraphSurface

_XSTEP = 48
_YSTEP = 22
_MARGIN = 30
_PALETTE = ("#c62828", "#1565c0", "#2e7d32", "#ef6c00", "#6a1b9a", "#00838f")


def _strand_x(i: int) -> int:
    return _MARGIN + _XSTEP * (i - 1)


def _pos_y(pos: int) -> int:
    return _MARGIN + _YSTEP * pos


def render_svg(surface: FatGraphSurface, highlight: Iterable[NormalCurve] = ()) -> str:
    word = surface.word
    s, c = word.strands, word.length
    width = 2 * _MARGIN + _XSTEP * (s - 1)
    height = 2 * _MARGIN + _YSTEP * max(c - 1, 0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i in range(1, s + 1):
        x = _strand_x(i)
        parts.append(
            f'<line x1="{x}" y1="{_MARGIN - 12}" x2="{x}" y2="{height - _MARGIN + 12}" '
            f'stroke="#555" stroke-width="2"/>'
        )
    for pos, g in enumerate(word.letters):
        x1, x2 = _strand_x(g), _strand_x(g + 1)
        y = _pos_y(pos)
        parts.append(
            f'<line x1="{x1}" y1="{y}" x2="{x2}" y2="{y}" stroke="#111" stroke-width="4"/>'
        )
    for ci, curve in enumerate(highlight):
        color = _PALETTE[ci % len(_PALETTE)]
        per_column: dict[int, list[int]] = {}
        for pos in sorted(curve.support):
            g = word.letters[pos]
            per_column.setdefault(g, []).append(pos)
        for g in sorted(per_column):
            positions = per_column[g]
            for top, bottom in zip(positions, positions[1:]):
                x1, x2 = _strand_x(g), _strand_x(g + 1)
                y1, y2 = _pos_y(top), _pos_y(bottom)
                parts.append(
                    f'<rect x="{x1 - 4}" y="{y1 - 4}" width="{x2 - x1 + 8}" '
                    f'height="{y2 - y1 + 8}" fill="none" stroke="{color}" '
                    f'stroke-width="3" rx="6"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
