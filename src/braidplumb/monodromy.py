"""Homological shadow of the monodromy: intersection form and its transvections.

The rectangle circles form a basis of the cycle space, the algebraic
intersection numbers assemble into an antisymmetric form J, and each
right-handed twist acts on homology by the transvection
x -> x + sign * <x, r> * r.  The ordered product over the plumbing order is
the homological monodromy; its characteristic polynomial computes the
Alexander polynomial of the fibred closure.

charpoly is the exact kernel of linalg: Hessenberg reduction and the
Hessenberg recurrence, O(n^3), modulo the smallest Mersenne prime above
twice the Hadamard bound of the coefficients.  No coefficient of
det(tI - H) can exceed that bound in absolute value, so the symmetric
residues are the integer coefficients and the result is exact.
"""

from __future__ import annotations

from .alexpoly import LaurentPolynomial
from .curves import (
    RIGHT_HANDED_SIGN,
    curve_from_rectangle,
    signed_intersection,
)
from .fatgraph import FatGraphSurface
from .linalg import charpoly


def intersection_form(surface: FatGraphSurface) -> list[list[int]]:
    """Antisymmetric pairing matrix of the rectangle basis."""
    curves = [curve_from_rectangle(surface, r) for r in surface.rectangles]
    n = len(curves)
    j = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            val = signed_intersection(curves[a], curves[b])
            j[a][b] = val
            j[b][a] = -val
    return j


def homological_monodromy(surface: FatGraphSurface) -> list[list[int]]:
    """Matrix of the monodromy on the rectangle basis (columns = images)."""
    j = intersection_form(surface)
    n = len(j)
    cols = []
    for k in range(n):
        v = [0] * n
        v[k] = 1
        for idx in surface.twist_ordering:
            pairing = sum(v[a] * j[a][idx] for a in range(n) if v[a])
            if pairing:
                v[idx] += RIGHT_HANDED_SIGN * pairing
        cols.append(v)
    return [[cols[c][r] for c in range(n)] for r in range(n)]


def alexander_from_monodromy(surface: FatGraphSurface) -> LaurentPolynomial:
    """Alexander polynomial of the closure as det(tI - H), normalized."""
    h = homological_monodromy(surface)
    return charpoly(h).normalized()
