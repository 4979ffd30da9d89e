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

The brick diagram is its columns: columns[g - 1] lists the word positions
of generator g, and the rectangles of column g are its consecutive pairs.
A surface is built from the columns, the three end tables and the boundary
check alone.  The monodromy sweep reads the (column, top, bottom) triples
of twist_sweep and, built in the same loop, one window mask per triple:
the crossings a curve must traverse to have a transit end between the
core's ends.  The RectangleCurve records are built on first use, for the
readers that want them.
"""

from __future__ import annotations

import functools
from itertools import repeat
from typing import NamedTuple

from .braidwords import BraidWord
from .errors import DisconnectedWord, InternalConsistencyError, TrivialLink


class RectangleCurve(NamedTuple):
    """Two consecutive crossings in one column; bounds an embedded circle."""

    column: int
    top: int  # word position of the upper crossing
    bottom: int  # word position of the lower crossing

    def to_json(self):
        return {"column": self.column, "top": self.top, "bottom": self.bottom}


# _record(RectangleCurve, (column, top, bottom)) makes the record without
# the Python-level __new__ of RectangleCurve(...), at about half its cost.
_record = tuple.__new__


def _columns(word: BraidWord) -> tuple[tuple[int, ...], ...]:
    """columns[g - 1] = word positions of generator g, ascending."""
    cols: list[list[int]] = [[] for _ in range(word.strands - 1)]
    for pos, g in enumerate(word.letters):
        cols[g - 1].append(pos)
    return tuple(map(tuple, cols))


@functools.lru_cache(maxsize=128)
def _traversal_ends(c: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Source and target end of each signed traversal t of a c-crossing
    word, indexed by t itself: +t at t, -t at 2c + 1 - t, where a negative
    index lands.  Slot 0 is unused (there is no traversal 0).  The tables
    depend on c alone, so words of one length share them; the cache keeps
    the 128 lengths used last, so its size stays bounded."""
    src = (0, *range(0, 2 * c, 2), *range(2 * c - 1, 0, -2))
    tgt = (0, *range(1, 2 * c, 2), *range(2 * c - 2, -1, -2))
    return src, tgt


def _rectangles(columns) -> tuple[RectangleCurve, ...]:
    """Rectangle records column by column, top to bottom in each."""
    return tuple(
        _record(RectangleCurve, rect)
        for g, col in enumerate(columns, start=1)
        for rect in zip(repeat(g), col, col[1:])
    )


class FatGraphSurface:
    """Fibre surface of a connected positive braid word, as a fatgraph.

    Exposes the brick diagram's columns, the rectangle basis of the cycle
    space, the plumbing order of the monodromy twists, and the half-edge
    tables of the curve engine.
    """

    __slots__ = (
        "word",
        "columns",
        "end_vertex",
        "src_end",
        "tgt_end",
        "boundary_count",
        "_sweep",
        "_masks",
        "_rectangles",
    )

    def __init__(self, word: BraidWord):
        if not word.is_connected:
            raise DisconnectedWord("the fibre surface needs every generator present")
        self.word = word
        self.columns = _columns(word)
        self._sweep = self._masks = self._rectangles = None

        # The strand of each end: 2j on word[j], 2j+1 on word[j] + 1, filled
        # by two strided slice assignments.
        letters = word.letters
        ends = [0] * (2 * len(letters))
        ends[::2] = letters
        ends[1::2] = [g + 1 for g in letters]
        self.end_vertex = tuple(ends)
        self.src_end, self.tgt_end = _traversal_ends(word.length)
        self.boundary_count = self._trace_boundary()
        if self.boundary_count != word.components:
            raise InternalConsistencyError(
                "fatgraph boundary count disagrees with the closure permutation"
            )

    # -- rectangles ---------------------------------------------------------

    @property
    def twist_sweep(self) -> tuple[tuple[int, int, int], ...]:
        """(column, top, bottom) of each rectangle in the action order of
        the monodromy twists: columns right to left, bottom to top inside
        each column; the first entry acts first.  Built on first use, with
        window_masks."""
        if self._sweep is None:
            self._build_sweep()
        return self._sweep

    @property
    def window_masks(self) -> tuple[int, ...]:
        """Per twist_sweep entry (g, top, bottom), one int with bit p set
        for the crossings top <= p <= bottom of letter g - 1, g or g + 1:
        a curve traverses one of them exactly when it has a transit end in
        the core's window (curves.apply_monodromy).  Built with the sweep."""
        if self._sweep is None:
            self._build_sweep()
        return self._masks

    def _build_sweep(self):
        # Plain loops: columns are short, and zip and slices per column
        # cost more than they save.
        sweep, masks = [], []
        cols = self.columns
        bits = [0] * (len(cols) + 2)  # bits[g]: the positions of letter g
        for p, g in enumerate(self.word.letters):
            bits[g] |= 1 << p
        for g in range(len(cols), 0, -1):
            col = cols[g - 1]
            near = bits[g - 1] | bits[g] | bits[g + 1]
            for k in range(len(col) - 2, -1, -1):
                top, bottom = col[k], col[k + 1]
                sweep.append((g, top, bottom))
                masks.append(near & ((2 << bottom) - (1 << top)))
        self._sweep, self._masks = tuple(sweep), tuple(masks)

    @property
    def rectangles(self) -> tuple[RectangleCurve, ...]:
        """The rectangle basis, column by column, top to bottom in each;
        built on first use."""
        if self._rectangles is None:
            self._rectangles = _rectangles(self.columns)
        return self._rectangles

    @property
    def twist_ordering(self) -> tuple[int, ...]:
        """Indices into rectangles in the action order of twist_sweep.

        Rectangles are listed column by column, top to bottom, so that is
        the rectangle list reversed.
        """
        return tuple(range(self.b1 - 1, -1, -1))

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
        """Count face orbits of (next end on the strand) o (other end).

        Ring order is end order, so the next end on a strand is the next
        larger end index there, the largest wrapping to the smallest.  One
        pass from the last end down fills that table: each end's successor
        is the strand's lowest end seen so far, and the first end met on a
        strand, its largest, gets the lowest one once the pass is over.
        """
        ends = self.end_vertex
        n_ends = len(ends)
        nxt = [0] * n_ends
        lowest = [-1] * (self.word.strands + 1)
        largest = []
        for end in range(n_ends - 1, -1, -1):
            v = ends[end]
            if lowest[v] < 0:
                largest.append(end)
            else:
                nxt[end] = lowest[v]
            lowest[v] = end
        for end in largest:
            nxt[end] = lowest[ends[end]]
        seen = bytearray(n_ends)
        # A strand with no end (the one strand of the empty word) is a disk
        # bounded by a face of its own.
        cycles = lowest.count(-1) - 1
        start = seen.find(0)  # -1 on a word with no crossing
        while start >= 0:
            cycles += 1
            h = start
            while not seen[h]:
                seen[h] = 1
                h = nxt[h ^ 1]  # cross the edge, then step around the vertex
            start = seen.find(0, start)  # -1 once every end is seen
        return cycles

    def top_left_rectangle(self) -> RectangleCurve:
        """Topmost rectangle of the leftmost column that has one.

        Rectangles are listed column by column, top to bottom, so this is
        the first one; a surface with b1 = 0 has none.
        """
        if not self.rectangles:
            raise TrivialLink("b1 = 0: the fibre surface has no rectangle")
        return self.rectangles[0]

    def homology_from_edge_counts(self, counts: dict[int, int]) -> tuple[int, ...]:
        """Coordinates of a cycle in the rectangle basis.

        counts maps word position -> net signed traversals.  Within each
        column the rectangle coefficients are the partial sums, listed in
        rectangle order; a nonzero column total means the input was not a
        cycle.
        """
        coords = []
        for col in self.columns:
            running = 0
            for a in col[:-1]:
                running += counts.get(a, 0)
                coords.append(running)
            if running + counts.get(col[-1], 0):
                raise InternalConsistencyError("edge counts do not form a cycle")
        return tuple(coords)

    def __repr__(self):
        return (
            f"FatGraphSurface(word=[{self.word.text()}], chi={self.euler_characteristic}, "
            f"boundary={self.boundary_count})"
        )


def build_surface(word: BraidWord) -> FatGraphSurface:
    """Construct the fibre surface spine; raises DisconnectedWord otherwise."""
    return FatGraphSurface(word)
