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

The curve engine reads the surface through flat tables: each strand's ring
of ends (vertex_slots), each end's strand (end_vertex) and ring slot
(end_slot), all filled in one pass over the letters, and each signed
traversal's source and target end (src_end, tgt_end), indexed by the
traversal itself.
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
        "vertex_slots",
        "end_vertex",
        "end_slot",
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

        # Strand rings, and for each end its strand and ring slot, in one
        # pass: ring order is word-position order.
        s, letters = word.strands, word.letters
        c = len(letters)
        rings: list[list[int]] = [[] for _ in range(s + 1)]
        end_vertex = [0] * (2 * c)
        end_slot = [0] * (2 * c)
        for j, g in enumerate(letters):
            lower, upper = 2 * j, 2 * j + 1
            ring = rings[g]
            end_vertex[lower] = g
            end_slot[lower] = len(ring)
            ring.append(lower)
            ring = rings[g + 1]
            end_vertex[upper] = g + 1
            end_slot[upper] = len(ring)
            ring.append(upper)
        self.vertex_slots = tuple(tuple(x) for x in rings)
        self.end_vertex = tuple(end_vertex)
        self.end_slot = tuple(end_slot)
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
        succ = [0] * n_ends
        for v in range(1, self.word.strands + 1):
            ring = self.vertex_slots[v]
            k = len(ring)
            for idx, end in enumerate(ring):
                succ[end] = ring[(idx + 1) % k]
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
