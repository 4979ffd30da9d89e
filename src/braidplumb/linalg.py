"""Exact integer linear algebra: characteristic polynomial, rank, determinant.

charpoly reduces the matrix to upper Hessenberg form by similarity and runs
the Hessenberg recurrence (Cohen, A Course in Computational Algebraic
Number Theory, Alg. 2.2.9), both modulo one Mersenne prime p.  Every
coefficient of det(tI - M) is a signed sum of principal minors, so the
Hadamard bound B = prod_j (2 + isqrt(|col_j|^2)) >= prod_j (1 + |col_j|)
bounds each of them; with p > 2B the symmetric residues are the integer
coefficients themselves.  The result is exact and deterministic, and the
arithmetic stays O(n^3) on numbers of one fixed size.

rank and det share one fraction-free Gaussian elimination (Bareiss): every
division is exact, so the entries stay integers bounded by minors of the
input, and the last pivot of a square matrix of full rank is its
determinant up to the sign of the row swaps.  det is the kernel of the
Burau route in alexpoly, which evaluates a polynomial matrix at t = 2^K.
reduce_row is the same elimination one row at a time, for a rank that
grows by one row per step (the chain detector in plumbing).

This module depends on no other part of the package at import time;
charpoly imports LaurentPolynomial when it is called, because alexpoly
imports det from here.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Optional

from .errors import DomainError

# Exponents e of the Mersenne primes 2^e - 1 from 2^61 - 1 to 2^4423 - 1.
# The last one covers coefficient bounds of 4421 bits, far past the
# matrix sizes pure-Python O(n^3) arithmetic reaches.
MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423)


def hadamard_bound(matrix: list[list[int]]) -> int:
    """Bound on the absolute value of every coefficient of det(tI - M)."""
    bound = 1
    for col in zip(*matrix):
        bound *= 2 + isqrt(sum(x * x for x in col))
    return bound


def mersenne_modulus(bound: int) -> int:
    """Smallest table prime p = 2^e - 1 with p > 2 * bound."""
    for e in MERSENNE_EXPONENTS:
        p = (1 << e) - 1
        if p > 2 * bound:
            return p
    raise DomainError(
        f"coefficient bound of {bound.bit_length()} bits exceeds the prime table"
    )


def charpoly(matrix: list[list[int]]):
    """det(tI - M) of a square integer matrix, exact, as a LaurentPolynomial."""
    from .alexpoly import LaurentPolynomial

    p = mersenne_modulus(hadamard_bound(matrix))
    h = [[x % p for x in row] for row in matrix]
    _hessenberg(h, p)
    coeffs = _hessenberg_charpoly(h, p)
    half = p >> 1
    return LaurentPolynomial.from_dense(c - p if c > half else c for c in coeffs)


def _hessenberg(a: list[list[int]], p: int) -> None:
    """Reduce a to upper Hessenberg form mod p in place, by similarities."""
    n = len(a)
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if a[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            a[piv], a[j + 1] = a[j + 1], a[piv]
            for row in a:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        pivot_row = a[j + 1]
        inv = pow(pivot_row[j], -1, p)
        # E = I - sum_k u_k e_k e_{j+1}^T clears column j below row j+1;
        # the row operations give E a, then E a E^{-1} adds the columns.
        factors = [(k, a[k][j] * inv % p) for k in range(j + 2, n) if a[k][j]]
        if not factors:
            continue
        tail = pivot_row[j:]
        for k, u in factors:
            row = a[k]
            row[j:] = [(x - u * y) % p for x, y in zip(row[j:], tail)]
        for row in a:
            row[j + 1] = (row[j + 1] + sum(u * row[k] for k, u in factors)) % p


def _hessenberg_charpoly(h: list[list[int]], p: int) -> list[int]:
    """Coefficients (constant term first) of det(tI - H) mod p, H Hessenberg.

    p_m = (t - h_mm) p_{m-1} - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1}.
    """
    polys = [[1]]
    for m in range(len(h)):
        prev = polys[m]
        acc = [0] + prev
        d = h[m][m]
        for k, c in enumerate(prev):
            acc[k] -= d * c
        sub = 1
        for i in range(m - 1, -1, -1):
            sub = sub * h[i + 1][i] % p
            if not sub:
                break
            c = h[i][m] * sub % p
            if c:
                for k, x in enumerate(polys[i]):
                    acc[k] -= c * x
        polys.append([x % p for x in acc])
    return polys[-1]


def _bareiss(m: list[list[int]]) -> tuple[int, int, int]:
    """Fraction-free elimination of the rows m, in place.

    Returns the rank, the sign of the row permutation and the last pivot.
    The pivot of step k is a minor of order k + 1, so every division is
    exact; for a square matrix of full rank, sign * last pivot is det.
    """
    r, sign, prev = 0, 1, 1
    if not m:
        return r, sign, prev
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        pivot_row = m[r]
        d = pivot_row[c]
        for i in range(r + 1, len(m)):
            x = m[i][c]
            m[i] = [(d * a - x * b) // prev for a, b in zip(m[i], pivot_row)]
        prev = d
        r += 1
        if r == len(m):
            break
    return r, sign, prev


def rank(rows) -> int:
    """Rank over Q of integer row vectors, by fraction-free elimination."""
    return _bareiss([list(r) for r in rows])[0]


def reduce_row(row, echelon) -> Optional[tuple[int, list[int]]]:
    """The row reduced fraction-free against echelon rows, as a new echelon
    entry (pivot, row), or None when the row depends on them over Q.

    echelon holds (pivot, row) pairs, each row zero at the pivots before
    its own.  The reduced row is zero at every pivot, so it is nonzero
    exactly when the row is independent; its first nonzero column is its
    pivot.  Dividing by the content keeps the entries small and changes no
    rank.
    """
    row = list(row)
    for pivot, e in echelon:
        x = row[pivot]
        if x:
            d = e[pivot]
            row = [d * a - x * b for a, b in zip(row, e)]
    pivot = next((k for k, a in enumerate(row) if a), None)
    if pivot is None:
        return None
    g = gcd(*row)
    return pivot, [a // g for a in row] if g > 1 else row


def det(matrix: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by fraction-free elimination."""
    n = len(matrix)
    r, sign, last = _bareiss([list(row) for row in matrix])
    return sign * last if r == n else 0
