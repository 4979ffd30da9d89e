"""Ribbon-graph spine of the fibre surface of a positive braid.

The surface of a connected positive word has one disk per strand and one
band per crossing; it deformation-retracts onto the brick diagram.  As a
fatgraph: vertex v = strand v, edge j = crossing j joining strands
word[j] and word[j]+1, and the edge-ends at each vertex are cyclically
ordered by word position.  With that structure the boundary cycles of the
fatgraph are exactly the components of the braid closure, which is checked
at build time.

Half-edge encoding: crossing j has a lower end 2j (on strand word[j]) and
an upper end 2j+1 (on strand word[j]+1).  An oriented traversal of edge j
is the signed integer +(j+1) (upward, lower strand to upper) or -(j+1).

Ends 2j and 2j+1 lie on different strands, so on each strand the order
of the end indices is word order, which is ring order: the curve engine
compares ends around a disk by the end indices themselves.  It reads the
surface through three flat tables: each end's strand (end_vertex) and each
signed traversal's source and target end (src_end, tgt_end), indexed by
the traversal itself.
"""

from __future__ import annotations

import dataclasses

from .braidwords import BraidWord
from .errors import DisconnectedWord, InternalConsistencyError, TrivialLink


@dataclasses.dataclass(frozen=True)
class RectangleCurve:
    """Two consecutive crossings in one column; bounds an embedded circle."""

    column: int
    top: int  # word position of the upper crossing
    bottom: int  # word position of the lower crossing

    def to_json(self):
        return {"column": self.column, "top": self.top, "bottom": self.bottom}


@dataclasses.dataclass(frozen=True)
class BrickDiagram:
    """Column occupancy of a positive word plus its rectangles."""

    columns: tuple[tuple[int, ...], ...]  # columns[i-1] = positions of generator i
    rectangles: tuple[RectangleCurve, ...]

    @classmethod
    def from_word(cls, word: BraidWord) -> "BrickDiagram":
        cols: list[list[int]] = [[] for _ in range(word.strands - 1)]
        for pos, g in enumerate(word.letters):
            cols[g - 1].append(pos)
        rects = []
        for i, col in enumerate(cols, start=1):
            for a, b in zip(col, col[1:]):
                rects.append(RectangleCurve(i, a, b))
        return cls(tuple(tuple(c) for c in cols), tuple(rects))


class FatGraphSurface:
    """Fibre surface of a connected positive braid word, as a fatgraph.

    Exposes the brick diagram, the rectangle basis of the cycle space, the
    plumbing order of the monodromy twists, and the half-edge tables of the
    curve engine.
    """

    __slots__ = (
        "word",
        "brick",
        "rectangles",
        "rect_index",
        "twist_ordering",
        "end_vertex",
        "src_end",
        "tgt_end",
        "boundary_count",
    )

    def __init__(self, word: BraidWord):
        if not word.is_connected:
            raise DisconnectedWord("the fibre surface needs every generator present")
        self.word = word
        self.brick = BrickDiagram.from_word(word)
        self.rectangles = self.brick.rectangles
        self.rect_index = {(r.column, r.top): i for i, r in enumerate(self.rectangles)}

        # Action order of the monodromy twists: columns right to left,
        # bottom to top inside each column; the first entry acts first.
        # Rectangles are listed column by column, top to bottom, so that is
        # the rectangle list reversed.
        self.twist_ordering = tuple(range(len(self.rectangles) - 1, -1, -1))

        # The strand of each end: 2j on word[j], 2j+1 on word[j] + 1.  Built
        # from a list: tuple() of a generator grows by reallocation, and that
        # raised the peak RSS of repeated knots passes by about 0.8 MB.
        c = word.length
        self.end_vertex = tuple([g + k for g in word.letters for k in (0, 1)])
        # Source and target end of each signed traversal t, indexed by t
        # itself: +t at t, -t at 2c + 1 - t, where a negative index lands.
        # Slot 0 is unused (there is no traversal 0).
        self.src_end = (0, *range(0, 2 * c, 2), *range(2 * c - 1, 0, -2))
        self.tgt_end = (0, *range(1, 2 * c, 2), *range(2 * c - 2, -1, -2))
        self.boundary_count = self._trace_boundary()
        if self.boundary_count != word.components:
            raise InternalConsistencyError(
                "fatgraph boundary count disagrees with the closure permutation"
            )

    # -- basic invariants ---------------------------------------------------

    @property
    def euler_characteristic(self) -> int:
        return self.word.strands - self.word.length

    @property
    def b1(self) -> int:
        return self.word.b1

    @property
    def genus(self) -> int:
        return (2 - self.euler_characteristic - self.boundary_count) // 2

    def _trace_boundary(self) -> int:
        """Count face orbits of (cyclic successor at vertex) o (other end)."""
        n_ends = 2 * self.word.length
        # Ring order is end order: each strand's ring lists its ends ascending.
        rings: list[list[int]] = [[] for _ in range(self.word.strands + 1)]
        for end, v in enumerate(self.end_vertex):
            rings[v].append(end)
        succ = [0] * n_ends
        for ring in rings:
            for end, nxt in zip(ring, ring[1:] + ring[:1]):
                succ[end] = nxt
        seen = [False] * n_ends
        cycles = 0
        for start in range(n_ends):
            if seen[start]:
                continue
            cycles += 1
            h = start
            while not seen[h]:
                seen[h] = True
                h = succ[h ^ 1]  # cross the edge, then step around the vertex
        return cycles

    def rectangle_word(self, rect: RectangleCurve) -> tuple[int, int]:
        """Edge word of the rectangle circle: up through the top crossing,
        back down through the bottom one."""
        return (rect.top + 1, -(rect.bottom + 1))

    def top_left_rectangle(self) -> RectangleCurve:
        """Topmost rectangle of the leftmost column that has one.

        Rectangles are listed column by column, top to bottom, so this is
        the first one; a surface with b1 = 0 has none.
        """
        if not self.rectangles:
            raise TrivialLink("b1 = 0: the fibre surface has no rectangle")
        return self.rectangles[0]

    def column_rectangles(self, column: int) -> list[RectangleCurve]:
        return [r for r in self.rectangles if r.column == column]

    def homology_from_edge_counts(self, counts: dict[int, int]) -> tuple[int, ...]:
        """Coordinates of a cycle in the rectangle basis.

        counts maps word position -> net signed traversals.  Within each
        column the rectangle coefficients are the partial sums; a nonzero
        column total means the input was not a cycle.
        """
        coords = [0] * len(self.rectangles)
        for col_i, col in enumerate(self.brick.columns, start=1):
            running = 0
            for a, b in zip(col, col[1:]):
                running += counts.get(a, 0)
                coords[self.rect_index[(col_i, a)]] = running
            total = running + counts.get(col[-1], 0)
            if total != 0:
                raise InternalConsistencyError("edge counts do not form a cycle")
        return tuple(coords)

    def to_json(self):
        return {
            "word": list(self.word.letters),
            "strands": self.word.strands,
            "edges": [
                {"position": j, "generator": g} for j, g in enumerate(self.word.letters)
            ],
            "rectangles": [r.to_json() for r in self.rectangles],
            "boundary_components": self.boundary_count,
        }

    def __repr__(self):
        return (
            f"FatGraphSurface(word=[{self.word.text()}], chi={self.euler_characteristic}, "
            f"boundary={self.boundary_count})"
        )


def build_surface(word: BraidWord) -> FatGraphSurface:
    """Construct the fibre surface spine; raises DisconnectedWord otherwise."""
    return FatGraphSurface(word)
