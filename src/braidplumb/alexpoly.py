"""Exact integer Laurent polynomials and Alexander polynomial machinery.

Everything here is exact: integer coefficients, no floating point.  The
single-row obstruction solver builds one integral candidate per (n, eps)
and decides feasibility by re-substituting it, with no rational
arithmetic; the full table over (n, eps) is read off (t+1)*Delta in closed
form, in linear time, by the conditions that candidate obeys.  Alexander
polynomials are only ever defined up to a unit +-t^k, so most comparisons
go through ``normalized()``, which picks the representative with lowest
exponent 0 and positive constant term.

The reduced-Burau route evaluates at one integer instead of computing over
the Laurent ring (Kronecker substitution).  For a positive word every entry
of rho(w) is a polynomial in t, and so is det(rho(w) - I).  The three-column
Burau update runs on Python integers at t = 2^K, linalg.det takes one
integer determinant, and its balanced base-2^K digits are the coefficients,
provided each is below 2^(K-1) in absolute value.  A second pass of the
same update on nonnegative integers at t = 1 bounds each entry's
coefficient 1-norm N_ij, and every coefficient is at most the l2 Hadamard
bound isqrt(prod_j sum_i N_ij^2) on the unit circle, so
K = bitlength(bound) + 1 makes the decoding exact.  On the 300 alexander
benchmark words of seeds 1-3 K is 66 bits at the median and 166 at most
(72 and 171 with the 1-norm product prod_j sum_i N_ij used before),
against 6 and 18 bits for the largest true coefficient.
"""

from __future__ import annotations

import dataclasses
from math import gcd, isqrt
from operator import mul
from typing import Iterable, Mapping, Optional

from .errors import (
    DisconnectedWord,
    InvalidParameter,
    NotCoprime,
    NotDivisible,
    ZeroPolynomial,
)
from .linalg import det


class LaurentPolynomial:
    """Sparse Laurent polynomial with integer coefficients.

    Stored as a dict exponent -> nonzero coefficient.  Instances are
    immutable; arithmetic returns new objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        d = {}
        for e, c in items:
            if c:
                d[int(e)] = d.get(int(e), 0) + int(c)
                if not d[int(e)]:
                    del d[int(e)]
        self.coeffs = d

    @classmethod
    def term(cls, coeff: int, exp: int = 0) -> "LaurentPolynomial":
        return cls({exp: coeff})

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    @classmethod
    def t(cls) -> "LaurentPolynomial":
        return cls({1: 1})

    @classmethod
    def from_dense(cls, coeffs: Iterable[int], min_exp: int = 0) -> "LaurentPolynomial":
        return cls({min_exp + i: c for i, c in enumerate(coeffs)})

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no degree")
        return max(self.coeffs)

    @property
    def min_exp(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no minimal exponent")
        return min(self.coeffs)

    def __getitem__(self, exp: int) -> int:
        return self.coeffs.get(exp, 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPolynomial.term(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other) -> "LaurentPolynomial":
        if isinstance(other, int):
            other = LaurentPolynomial.term(other)
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            d[e] = d.get(e, 0) + c
            if not d[e]:
                del d[e]
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out.coeffs = d
        return out

    def __neg__(self) -> "LaurentPolynomial":
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out.coeffs = {e: -c for e, c in self.coeffs.items()}
        return out

    def __sub__(self, other) -> "LaurentPolynomial":
        if isinstance(other, int):
            other = LaurentPolynomial.term(other)
        return self + (-other)

    def __mul__(self, other) -> "LaurentPolynomial":
        if isinstance(other, int):
            other = LaurentPolynomial.term(other)
        d = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out.coeffs = {e: c for e, c in d.items() if c}
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise InvalidParameter("negative powers are not Laurent-polynomial valued here")
        acc = LaurentPolynomial.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by t^k."""
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out.coeffs = {e + k: c for e, c in self.coeffs.items()}
        return out

    def reciprocal(self) -> "LaurentPolynomial":
        """Substitute t -> 1/t."""
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out.coeffs = {-e: c for e, c in self.coeffs.items()}
        return out

    def normalized(self) -> "LaurentPolynomial":
        """Canonical representative up to units: min exponent 0, constant term > 0."""
        if not self.coeffs:
            return LaurentPolynomial()
        m = self.min_exp
        sign = 1 if self.coeffs[m] > 0 else -1
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out.coeffs = {e - m: sign * c for e, c in self.coeffs.items()}
        return out

    def unit_equal(self, other: "LaurentPolynomial") -> bool:
        """Equality up to multiplication by +-t^k."""
        return self.normalized() == other.normalized()

    def dense(self) -> list[int]:
        """Coefficient list of the normalized representative, constant term first."""
        p = self.normalized()
        if not p.coeffs:
            return [0]
        return [p[e] for e in range(0, p.degree + 1)]

    def to_json(self) -> dict[str, int]:
        return {str(e): c for e, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, data: Mapping[str, int]) -> "LaurentPolynomial":
        return cls({int(e): int(c) for e, c in data.items()})

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            mag = "" if abs(c) == 1 and e != 0 else str(abs(c))
            if e == 0:
                var = ""
            elif e == 1:
                var = "t"
            else:
                var = f"t^{e}"
            body = (mag + ("*" if mag and var else "") + var) or str(abs(c))
            parts.append(("-" if c < 0 else "+") + body)
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s


def divide_exact(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """Exact quotient a/b in the Laurent ring; raises NotDivisible on remainder."""
    if b.is_zero():
        raise ZeroPolynomial("division by the zero polynomial")
    if a.is_zero():
        return LaurentPolynomial()
    # Shift both to ordinary polynomials and long-divide from the top.
    sa, sb = a.min_exp, b.min_exp
    rem = dict(a.shift(-sa).coeffs)
    bb = b.shift(-sb)
    db = bb.degree
    lead = bb[db]
    quot: dict[int, int] = {}
    while rem:
        dr = max(rem)
        if dr < db:
            break
        head = rem[dr]
        if head % lead:
            break
        q = head // lead
        quot[dr - db] = q
        for e, c in bb.coeffs.items():
            k = e + dr - db
            rem[k] = rem.get(k, 0) - q * c
            if not rem[k]:
                del rem[k]
    if rem:
        raise NotDivisible(
            "remainder is nonzero", remainder=LaurentPolynomial(rem).shift(sa)
        )
    return LaurentPolynomial(quot).shift(sa - sb)


def cyclotomic_like(n: int) -> LaurentPolynomial:
    """t^n - 1."""
    return LaurentPolynomial({n: 1, 0: -1})


def torus_alexander(p: int, q: int) -> LaurentPolynomial:
    """Alexander polynomial of the (p, q) torus knot, normalized.

    Computed as the exact quotient (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)).
    """
    if p < 1 or q < 1:
        raise InvalidParameter(f"torus parameters must be positive, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) != 1: the closure is a link, not a knot")
    num = cyclotomic_like(p * q) * cyclotomic_like(1)
    den = cyclotomic_like(p) * cyclotomic_like(q)
    return divide_exact(num, den).normalized()


# ---------------------------------------------------------------------------
# Reduced Burau representation
# ---------------------------------------------------------------------------


def _burau_product(word, t: int, sign: int = -1) -> list[list[int]]:
    """Reduced Burau matrix of a positive braid word at the integer t.

    The image of s_i acts on the basis f_1..f_{n-1} (differences of the
    unreduced basis) by f_{i-1} -> f_{i-1} + t f_i, f_i -> -t f_i,
    f_{i+1} -> f_i + f_{i+1}.  Its matrix differs from the identity in
    row i only, so right-multiplying by it rewrites columns i-1, i and i+1,
    each from the old column i.  Every entry of the product is a polynomial
    in t, so one integer t = 2^K carries all of its coefficients.

    With t = 1 and sign = +1 the same update runs on nonnegative integers
    and bounds each entry's coefficient 1-norm: |t x| = |x|, and the norm
    of a sum is at most the sum of the norms.
    """
    n = word.strands - 1
    acc = [[int(r == c) for c in range(n)] for r in range(n)]
    for letter in word.letters:
        g = letter - 1
        for row in acc:
            x = row[g]
            if not x:
                continue
            tx = x * t
            row[g] = sign * tx
            if g > 0:
                row[g - 1] += tx
            if g + 1 < n:
                row[g + 1] += x
    return acc


def _det_norm_bound(word) -> int:
    """Bound B on every coefficient of D = det(rho(word) - I) in absolute value.

    The coefficient c_k is the mean of D(z) z^-k over the unit circle, so
    |c_k| <= max_{|z|=1} |D(z)|.  By Hadamard's inequality |D(z)| is at
    most the product of the Euclidean norms of the columns of
    rho(word)(z) - I, and on the unit circle each entry is at most its
    coefficient 1-norm N_ij in absolute value.  So |c_k| <= sqrt(X) with
    X = prod_j sum_i N_ij^2, and as c_k is an integer, |c_k| <= isqrt(X).
    Each column's Euclidean norm is at most its 1-norm, so B never exceeds
    the 1-norm product prod_j sum_i N_ij that bounds the 1-norm of D.
    """
    norms = _burau_product(word, 1, 1)
    for i, row in enumerate(norms):
        row[i] += 1  # the -I adds 1 to the diagonal entry's norm
    prod = 1
    for col in zip(*norms):
        prod *= sum(map(mul, col, col))
    return isqrt(prod)


def _balanced_digits(value: int, k: int) -> list[int]:
    """The digits c_i, |c_i| < 2^(k-1), of value = sum_i c_i 2^(k i), lowest first."""
    mask = (1 << k) - 1
    half = 1 << (k - 1)
    digits = []
    while value:
        c = value & mask
        if c >= half:
            c -= 1 << k
        digits.append(c)
        value = (value - c) >> k
    return digits


def _burau_det(word) -> LaurentPolynomial:
    """det(rho(word) - I) by Kronecker substitution t = 2^K.

    Every coefficient of the determinant is at most the bound B in absolute
    value, so with K = bitlength(B) + 1 each is below 2^(K-1) and the
    balanced base-2^K digits of the integer determinant are exactly the
    coefficients.
    """
    k = _det_norm_bound(word).bit_length() + 1
    m = _burau_product(word, 1 << k)
    for i, row in enumerate(m):
        row[i] -= 1
    return LaurentPolynomial.from_dense(_balanced_digits(det(m), k))


def burau_alexander(word) -> LaurentPolynomial:
    """Alexander polynomial of the closure via the reduced Burau determinant.

    Uses det(rho(word) - I) = +-t^k (1 + t + ... + t^{s-1}) Delta and
    normalizes the quotient.  Independent of the monodromy route: it never
    touches the fibre surface.
    """
    if not word.is_connected:
        raise DisconnectedWord("split closures have no single Alexander quotient here")
    s = word.strands
    if s == 1:
        return LaurentPolynomial.one()
    # The closure of a positive braid is fibred, so Delta is monic and the
    # determinant never vanishes; an unknot's is a unit times the divisor.
    denom = LaurentPolynomial({e: 1 for e in range(s)})
    return divide_exact(_burau_det(word), denom).normalized()


# ---------------------------------------------------------------------------
# Plumbing obstruction solver
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class HironakaSolution:
    """Witness for (t+1)*Delta = t^n P(t) + eps t^d P(1/t) with integral P."""

    n: int
    epsilon: int
    d: int
    P: LaurentPolynomial
    attained_degree: int

    def verify(self, delta: LaurentPolynomial) -> bool:
        q = (LaurentPolynomial({1: 1, 0: 1}) * delta.normalized()).normalized()
        rhs = self.P.shift(self.n) + self.epsilon * self.P.reciprocal().shift(self.d)
        return q == rhs


def _q_coefficients(delta: LaurentPolynomial) -> list[int]:
    """Coefficients of Q = (t+1)*Delta normalized, constant term first."""
    if delta.is_zero():
        raise ZeroPolynomial("the zero polynomial is not an Alexander polynomial")
    q_poly = (LaurentPolynomial({1: 1, 0: 1}) * delta.normalized()).normalized()
    return [q_poly[e] for e in range(q_poly.degree + 1)]


def _solve_q(q: list[int], n: int, epsilon: int) -> Optional[HironakaSolution]:
    """hironaka_solve on prepared coefficients: one candidate, re-substituted.

    The equation reads q_j = p_{j-n} + eps p_{d-j} with d = deg Q - n, each
    term present when its index lies in 0..d.  Writing j = n + k and
    m = d - n, coefficient n + k of Q involves p_k and p_{m-k}.  For k > m
    only p_k occurs, so it is forced to q_{n+k}.  For 0 <= k <= m the pair
    (k, m - k) enters two equations, q_{n+k} = p_k + eps p_{m-k} and
    q_{n+m-k} = p_{m-k} + eps p_k; every solution has the same value of
    p_k + eps p_{m-k}, so the lower index can carry it whole (p_k = q_{n+k},
    p_{m-k} = 0).  At 2k = m the equation is (1 + eps) p_k = q_{n+k}: its
    only possible root is q_{n+k} // 2 for eps = +1, and for eps = -1 any
    p_k will do, so 0 is taken.  Every other equation involves only forced
    coefficients.  So a solution exists iff this candidate solves the
    system, and re-substituting it is the complete feasibility test.
    """
    d = len(q) - 1 - n
    if d < 0 or n < 0:
        return None
    m = d - n
    p = [0] * (d + 1)
    for k in range(d + 1):
        if k > m or 2 * k < m:
            p[k] = q[n + k]
        elif 2 * k == m and epsilon == 1:
            p[k] = q[n + k] // 2
    for j, qj in enumerate(q):
        rhs = p[j - n] if j >= n else 0
        if j <= d:
            rhs += epsilon * p[d - j]
        if rhs != qj:
            return None
    poly = LaurentPolynomial.from_dense(p)
    attained = poly.degree if not poly.is_zero() else 0
    return HironakaSolution(n=n, epsilon=epsilon, d=d, P=poly, attained_degree=attained)


def hironaka_solve(
    delta: LaurentPolynomial, n: int, epsilon: int
) -> Optional[HironakaSolution]:
    """Find integral P with (t+1)*Delta = t^n P(t) + eps t^d P(1/t), if any.

    Delta is taken up to units.  Replacing Delta by -Delta flips P, and
    t^k-shifts realign the exponent windows, so normalizing Q = (t+1)*Delta
    to minimal exponent 0 with positive constant term covers every unit
    representative at once.  Every returned solution re-substitutes exactly.
    """
    if epsilon not in (1, -1):
        raise InvalidParameter("epsilon must be +1 or -1")
    return _solve_q(_q_coefficients(delta), n, epsilon)


@dataclasses.dataclass(frozen=True)
class FeasibilityRow:
    n: int
    epsilon: int
    feasible: bool
    attained_degree: Optional[int] = None
    degree_budget: Optional[int] = None


def hironaka_max_n(
    delta: LaurentPolynomial,
) -> tuple[int, list[FeasibilityRow]]:
    """Largest n admitting a solution, with the full (n, eps) feasibility table.

    The published plumbing bound is n_max - 1: an n-chain summand forces
    feasibility at n + 1.

    The table is read off Q = (t+1)*Delta in closed form, in O(N) for
    N = deg Q, with no per-row candidate.  Row (n, eps), d = N - n, is
    feasible iff q_j = eps q_{N-j} for every j <= d and q_j = 0 for every
    d < j < n.  In _solve_q's terms, with m = d - n:

    - n > N/2 (m < 0).  Every p_k = q_{n+k} is forced, every equation
      j >= n holds, and j < n reads q_j = eps p_{d-j} = eps q_{N-j} for
      j <= d and q_j = 0 for d < j < n.
    - n <= N/2 (m >= 0).  For j < n only eps p_{d-j} occurs, and d - j > m
      forces p_{d-j} = q_{N-j}, so q_j = eps q_{N-j}; for j > d only
      p_{j-n} = q_j occurs, which holds.  In between, the pair k < m - k
      carries p_k = q_{n+k}, p_{m-k} = 0, so its second equation reads
      q_{N-n-k} = eps q_{n+k}, and the middle k = m/2 (N even) reads
      (1 + eps) p_k = q_{N/2}.  For eps = +1 that asks q_{N/2} to be even,
      which Q(-1) = 0 already gives: with q_j = q_{N-j} and N even,
      Q(-1) = 2 sum_{j<N/2} (-1)^j q_j + (-1)^{N/2} q_{N/2}.  So the row is
      feasible iff q_j = eps q_{N-j} for every j; as mismatches come in
      pairs j, N - j, that is every j <= d, and the window d < j < n is
      empty.

    For n >= 1 the candidate's top coefficient is p_d = q_N != 0, so the
    attained degree is d.  For n = 0 the candidate is the lower half of Q,
    p_k = q_k for 2k < N, and p_{N/2} = q_{N/2} / 2 (eps = +1) or 0 with
    q_{N/2} = 0 (eps = -1); its degree is the last k <= N/2 with q_k != 0
    (q_0 > 0).  hironaka_solve is the single-row solver, and the tests
    hold this table to it row by row.
    """
    q = _q_coefficients(delta)
    big_n = len(q) - 1
    # first[eps]: the least j with q_j != eps q_{N-j}, or N + 1 if none.
    first = {
        eps: next((j for j, x in enumerate(q) if x != eps * q[big_n - j]), big_n + 1)
        for eps in (1, -1)
    }
    table = []
    n_max = -1
    clear = True  # q_j == 0 for every d < j < n
    for n in range(big_n + 1):
        d = big_n - n
        if n - d >= 2:  # the window (d, n) gains j = d + 1 and j = n - 1
            clear = clear and not q[d + 1] and not q[n - 1]
        for eps in (1, -1):
            if not (clear and d < first[eps]):
                table.append(FeasibilityRow(n=n, epsilon=eps, feasible=False))
                continue
            attained = d if n else next(k for k in range(big_n // 2, -1, -1) if q[k])
            table.append(FeasibilityRow(n, eps, True, attained, d))
            n_max = n
    if n_max < 0:
        raise ZeroPolynomial("no feasible decomposition at any n; malformed input")
    return n_max, table
