"""Homological shadow of the monodromy: intersection form and its transvections.

The rectangle circles form a basis of the cycle space, the algebraic
intersection numbers assemble into an antisymmetric form J, and each
right-handed twist acts on homology by the transvection
x -> x + sign * <x, r> * r.  The ordered product over the plumbing order is
the homological monodromy; its characteristic polynomial computes the
Alexander polynomial of the fibred closure.

J is sparse.  Two rectangle circles share a vertex disk only when their
columns are equal or adjacent, and their transits there are linked only
when the position intervals share an end or interleave.  Each rectangle
has at most three such neighbours further right or down, so at most
3 * b1 pairs can pair nonzero, and each of those pairings is +-1 or 0 by
the brick diagram alone: signed_intersection reads it in closed form from
the two rectangles' crossings.  No curve is built, so J does not depend on
the curve engine, and tests/test_curves.py and
selftest.curve_property_suite check the engine against it.  The twist
engine builds no circles either: it reads each rectangle's core from its
crossings.  A transvection changes one
coordinate, so the monodromy is built as one row update per twist,
starting from I: row r gains sign * J[a][r] * row a for each neighbour a
of r.  The rows stay sparse (a few nonzeros each, every one +-1 on the
surfaces measured), so they are kept as column -> entry maps while the
twists act and written out as the dense matrix once, at the end.

charpoly is the exact kernel of linalg: a Hessenberg form built from
Krylov chains of H and the Hessenberg recurrence, modulo the smallest
Mersenne prime above twice a Hadamard bound of the coefficients, with
each vector packed into one int so that an update is one multiply-add.
No coefficient of det(tI - H) can exceed that bound in absolute value, so
the symmetric residues are the integer coefficients and the result is
exact.  H's few nonzeros per column make the product H b one pass over
its +-1 entries.
"""

from __future__ import annotations

from bisect import bisect

from .alexpoly import LaurentPolynomial
from .curves import RIGHT_HANDED_SIGN, signed_intersection
from .fatgraph import FatGraphSurface
from .linalg import charpoly


def _neighbour_pairs(surface: FatGraphSurface):
    """Index pairs a < b of rectangles whose circles can pair nonzero.

    Within a column, consecutive rectangles share a crossing.  A rectangle
    (top, bottom) of column i interleaves two rectangles of column i + 1
    at most: the one whose bottom is the first column-(i + 1) position
    inside (top, bottom), and the one whose top is the last.
    """
    columns = surface.brick.columns
    index = surface.rect_index
    for i, col in enumerate(columns, start=1):
        nxt = columns[i] if i < len(columns) else ()
        for top, bottom in zip(col, col[1:]):
            a = index[(i, top)]
            if bottom != col[-1]:
                yield a, index[(i, bottom)]
            lo = bisect(nxt, top)
            hi = bisect(nxt, bottom, lo)
            if lo == hi:
                continue
            if lo:
                yield a, index[(i + 1, nxt[lo - 1])]
            if hi < len(nxt):
                yield a, index[(i + 1, nxt[hi - 1])]


def intersection_form(surface: FatGraphSurface) -> list[list[int]]:
    """Antisymmetric pairing matrix of the rectangle basis.

    signed_intersection pairs each rectangle with each of its neighbours
    in closed form, from their crossings; no circle is built.
    """
    rects = surface.rectangles
    n = len(rects)
    j = [[0] * n for _ in range(n)]
    for a, b in _neighbour_pairs(surface):
        val = signed_intersection(rects[a], rects[b])
        j[a][b] = val
        j[b][a] = -val
    return j


def homological_monodromy(surface: FatGraphSurface) -> list[list[int]]:
    """Matrix of the monodromy on the rectangle basis (columns = images)."""
    j = intersection_form(surface)
    n = len(j)
    pairing: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b in _neighbour_pairs(surface):
        if j[a][b]:
            pairing[b].append((a, RIGHT_HANDED_SIGN * j[a][b]))
            pairing[a].append((b, RIGHT_HANDED_SIGN * j[b][a]))
    rows = [{r: 1} for r in range(n)]
    for idx in surface.twist_ordering:
        row = rows[idx]
        for a, coeff in pairing[idx]:
            for c, y in rows[a].items():
                x = row.get(c, 0) + coeff * y
                if x:
                    row[c] = x
                else:
                    del row[c]
        rows[idx] = row
    h = [[0] * n for _ in range(n)]
    for dense, row in zip(h, rows):
        for c, x in row.items():
            dense[c] = x
    return h


def alexander_from_monodromy(surface: FatGraphSurface) -> LaurentPolynomial:
    """Alexander polynomial of the closure as det(tI - H), normalized."""
    h = homological_monodromy(surface)
    return charpoly(h).normalized()
