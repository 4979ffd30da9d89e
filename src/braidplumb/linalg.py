"""Exact integer linear algebra: characteristic polynomial, determinant,
incremental row reduction.

charpoly and hadamard_bound take M as sparse rows, one column -> entry
dict of the nonzero entries per row, as monodromy builds H, and read only
the stored entries.  charpoly works modulo one Mersenne prime p.  The
coefficient c_k of t^(n-k) in det(tI - M) is (-1)^k times the sum of the
k x k principal minors of M.  By Hadamard's inequality the minor on the
index set S is at most prod_{j in S} nu_j in absolute value, nu_j the
Euclidean norm of column j, so |c_k| <= e_k(nu) <= prod_j (1 + nu_j):
expanding the product gives every e_k(nu) among its non-negative terms.
M^T has the same principal minors, so the row norms give a second bound,
and B is the smaller of the two, each factor rounded up in 16-bit fixed
point.  With p > 2B the symmetric residues are the integer coefficients
themselves.  The bound used before, prod_j (2 + isqrt(|col_j|^2)),
rounded every factor up by as much as a whole unit; B takes a narrower
prime on 116 of the 300 `alexander` matrices of seeds 1-3 (107 -> 89 or
89 -> 61 bits on 105 of them).

Krylov chains bring M to upper Hessenberg form, a chain closing on a
zero residual, so a derogatory M takes the same path, and the Hessenberg
recurrence (Cohen, A Course in Computational Algebraic Number Theory,
Alg. 2.2.9) runs as the chains grow.  With each vector and polynomial
packed into one int, that is O(n^2) big-integer multiply-adds.  Against
the Gaussian similarity reduction it replaced (Python 3.11, 2-core
x86-64 VM), it is 1.7-2.3x faster on monodromies of random words with
n = 16-60 and 1.1-1.2x at n = 115-143, but 1.2x slower at n <= 15 and
1.2-3.5x slower on torus-knot monodromies, which stay sparse under
Gaussian elimination while Krylov vectors fill in.

A slot is a whole number of 64-bit limbs, so a vector is packed by
strided slice assignments into an array('Q') and unpacked by strided
slices of a memoryview: a few C-level passes per vector instead of one
to_bytes / from_bytes call per slot.  On the `alexander` matrices of
seeds 1-3 (same VM) that took 17% off charpoly where p has 61 bits (195
of 300, n = 8-48), whose slots were 128 bits already; where p has 89 bits
(101, n = 39-60) a slot widens from 184 to 192 bits and charpoly took
1-2% longer.

det is fraction-free Gaussian elimination (Bareiss) on a dense matrix,
as the Burau matrix is: every division is exact, so the entries stay
integers bounded by minors of the input, and the last pivot of a
nonsingular matrix is its determinant up to the sign of the row swaps.
It is the kernel of the Burau route in alexpoly, which evaluates a
polynomial matrix at t = 2^K.  reduce_row eliminates one dense row at a
time against an echelon form, for a rank that grows by one row per step:
the chain detector and the chain validator's arc test in plumbing both
decide independence with it.

This module depends on no other part of the package at import time;
charpoly imports LaurentPolynomial when it is called, because alexpoly
imports det from here.
"""

from __future__ import annotations

import sys
from array import array
from math import gcd, isqrt
from typing import Optional

from .errors import DomainError

# Exponents e of the Mersenne primes 2^e - 1 from 2^61 - 1 to 2^4423 - 1.
# The last one covers coefficient bounds of 4421 bits, far past the
# matrix sizes pure-Python O(n^3) arithmetic reaches.
MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423)

_LIMB = (1 << 64) - 1
_LITTLE_ENDIAN = sys.byteorder == "little"  # a packed int's bytes are then its limbs


def hadamard_bound(rows: list[dict[int, int]]) -> int:
    """Bound on every coefficient of det(tI - M) in absolute value, M as sparse rows.

    The smaller of prod_j (1 + |col_j|) and prod_i (1 + |row_i|), each
    factor rounded up in 16-bit fixed point and the product rounded up
    once (see the module docstring).
    """
    col_sums = [0] * len(rows)
    for row in rows:
        for k, x in row.items():
            col_sums[k] += x * x
    row_sums = [sum(x * x for x in row.values()) for row in rows]
    return min(_norm_product(col_sums), _norm_product(row_sums))


def _norm_product(sums: list[int]) -> int:
    """Ceiling of prod (1 + sqrt(s)) over the sums of squares s.

    Each factor is 2^16 + ceil(2^16 sqrt(s)), which is at least
    2^16 (1 + sqrt(s)): for s >= 1, ceil(sqrt(s << 32)) = isqrt((s << 32) - 1) + 1.
    """
    one = 1 << 16
    prod = 1
    for s in sums:
        prod *= one + isqrt((s << 32) - 1) + 1 if s else one
    shift = 16 * len(sums)
    return (prod + (1 << shift) - 1) >> shift


def mersenne_modulus(bound: int) -> int:
    """Smallest table prime p = 2^e - 1 with p > 2 * bound."""
    for e in MERSENNE_EXPONENTS:
        p = (1 << e) - 1
        if p > 2 * bound:
            return p
    raise DomainError(
        f"coefficient bound of {bound.bit_length()} bits exceeds the prime table"
    )


def charpoly(rows: list[dict[int, int]]):
    """det(tI - M) of an integer matrix given by sparse rows, exact, as a LaurentPolynomial."""
    from .alexpoly import LaurentPolynomial

    p = mersenne_modulus(hadamard_bound(rows))
    coeffs = _krylov_charpoly(rows, p)
    half = p >> 1
    return LaurentPolynomial.from_dense(c - p if c > half else c for c in coeffs)


def _krylov_charpoly(rows: list[dict[int, int]], p: int) -> list[int]:
    """Coefficients (constant term first) of det(tI - M) mod p = 2^e - 1.

    Builds a basis b_0, b_1, ... of Krylov chains in which M is upper
    Hessenberg: M b_d = sum_{j<=d} h[j][d] b_j + b_{d+1}.  Reducing M b_d
    against the basis in order reads h[j][d] at b_j's pivot, the lowest
    nonzero slot of b_j, where every later b is zero; the residual is
    b_{d+1}, unscaled, so the subdiagonal is 1.  A zero residual closes
    the chain (h[d+1][d] = 0) and the next chain starts at the first unit
    vector off the pivots.  The Hessenberg recurrence runs alongside: with
    that subdiagonal, P_{d+1} = t P_d - sum_j h[j][d] P_j over the j of
    the current chain, P_d being det(tI - H) of the leading d x d block.

    Vectors and polynomials are packed into one int of n + 1 slots of w
    bits.  A reduced operand has every slot in [0, p), an update adds
    (p - c) * x < p^2 to a slot, and no slot takes more than n updates, so
    2^w > (n + 1) p^2 keeps every slot non-negative and every carry inside
    its slot: an update is one multiply-add, a read one shift and mask.
    b_j is stored shifted down to its pivot, so its updates multiply only
    the slots from the pivot up.

    w is a whole number of 64-bit limbs, so on a little-endian host a
    packed int's bytes are an array('Q') whose limbs i, i + L, i + 2L, ...
    are limb i of every slot (L limbs a slot).  A vector of residues,
    ceil(e / 64) limbs each, is packed by one strided slice assignment per
    limb and unpacked by strided slices of a memoryview cast to 'Q'.  On a
    big-endian host a slot is converted by itself through to_bytes /
    from_bytes.
    """
    n = len(rows)
    e = p.bit_length()
    limbs = (2 * e + (n + 1).bit_length() + 63) >> 6
    w = 64 * limbs
    size = 8 * limbs
    mask = (1 << w) - 1
    ones = int.from_bytes((1).to_bytes(size, "little") * (n + 1), "little")
    low, high = ones * p, ones * ((1 << (w - e)) - 1)
    upper = range(1, (e + 63) >> 6)  # the value limbs above the lowest

    def reduce(v: int) -> int:
        # 2^e = 1 mod p.  A slot below (n + 1) p^2 < 2^(2e + b), b the bit
        # length of n + 1, is below 2^e + 2^(e + b) after one fold and
        # below 2^e + 2^(b + 1) < 2p after two, however wide the slot; then
        # a slot >= p, whose bit e is set after adding 1, loses one p.
        for _ in range(2):
            v = (v & low) + (v >> e & high)
        return v - ((v + ones) >> e & ones) * p

    def pack(values: list[int]) -> int:
        # values in [0, p)
        if not _LITTLE_ENDIAN:
            return int.from_bytes(b"".join([x.to_bytes(size, "little") for x in values]), "little")
        words = array("Q", bytes(size * len(values)))
        words[::limbs] = array("Q", [x & _LIMB for x in values] if upper else values)
        for i in upper:
            words[i::limbs] = array("Q", [x >> (64 * i) & _LIMB for x in values])
        return int.from_bytes(words, "little")

    def unpack(v: int, slots: int) -> list[int]:
        data = v.to_bytes(slots * size, "little")
        if not _LITTLE_ENDIAN:
            return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]
        words = memoryview(data).cast("Q")
        values = words[::limbs].tolist()
        for i in upper:
            values = [x | y << (64 * i) for x, y in zip(values, words[i::limbs].tolist())]
        return values

    # Column k of M as its +1 rows, its -1 rows and its other (row, entry).
    cols: list[tuple[list, list, list]] = [([], [], []) for _ in range(n)]
    for i, row in enumerate(rows):
        for k, x in row.items():
            if x == 1:
                cols[k][0].append(i)
            elif x == -1:
                cols[k][1].append(i)
            else:
                cols[k][2].append((i, x))
    basis: list[tuple[int, int, int]] = []  # (pivot's bit offset, 1 / pivot entry, b_j >> it)
    pivots: set[int] = set()
    polys = [1]
    vec: Optional[list[int]] = None  # b_d, unpacked
    for d in range(n):
        if vec is None:
            k = next(k for k in range(n) if k not in pivots)
            vec = [0] * n
            vec[k] = 1
            residual, start = 1 << (w * k), d
        else:
            k = next(k for k, x in enumerate(vec) if x)
        pivots.add(k)
        basis.append((w * k, pow(vec[k], -1, p), residual >> (w * k)))
        ys = [0] * n
        for v, (up, down, rest) in zip(vec, cols):
            if v:
                for i in up:
                    ys[i] += v
                for i in down:
                    ys[i] -= v
                for i, x in rest:
                    ys[i] += x * v
        y = pack([x % p for x in ys])
        acc = polys[d] << w
        for j, (shift, scale, bj) in enumerate(basis):
            c = (y >> shift & mask) * scale % p
            if c:
                c = p - c
                y += c * bj << shift
                if j >= start:
                    acc += c * polys[j]
        polys.append(reduce(acc))
        residual = reduce(y)
        vec = unpack(residual, n) if residual else None
    return unpack(polys[n], n + 1)


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
    """Determinant of a square integer matrix, by fraction-free elimination.

    The pivot of step k is a minor of order k + 1, so every division is
    exact, and sign * the last pivot is det.  A column with no pivot left
    makes the matrix singular.
    """
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        pivot_row = m[c]
        d = pivot_row[c]
        for i in range(c + 1, n):
            x = m[i][c]
            m[i] = [(d * a - x * b) // prev for a, b in zip(m[i], pivot_row)]
        prev = d
    return sign * prev
