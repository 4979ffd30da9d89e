"""The exact linear-algebra kernel against Fraction, Faddeev-LeVerrier and
Gaussian Hessenberg oracles."""

import itertools
import random
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidplumb import linalg
from braidplumb.alexpoly import LaurentPolynomial, burau_alexander, torus_alexander
from braidplumb.braidwords import BraidWord, parse_braid
from braidplumb.errors import DomainError, InternalConsistencyError
from braidplumb.fatgraph import build_surface
from braidplumb.linalg import (
    MERSENNE_EXPONENTS,
    _krylov_charpoly,
    charpoly,
    det,
    hadamard_bound,
    mersenne_modulus,
)
from braidplumb.monodromy import homological_monodromy
from braidplumb.plumbing import (
    _arc_functionals_independent,
    detect_chain,
    torus_braid,
    validate_chain_certificate,
)


# ---------------------------------------------------------------------------
# Oracles: the eliminations the kernel replaced
# ---------------------------------------------------------------------------


def rows_of(matrix):
    """The sparse rows charpoly and hadamard_bound take: {column: entry},
    nonzero entries only."""
    return [{c: x for c, x in enumerate(row) if x} for row in matrix]


def dense(rows):
    """The dense matrix of sparse rows."""
    return [[row.get(c, 0) for c in range(len(rows))] for row in rows]


def dense_hadamard_bound(matrix):
    """The bound as computed on the dense matrix before the kernel took
    sparse rows: the smaller of prod (1 + |v|) over the columns and over
    the rows, each factor 2^16 + ceil(2^16 |v|), the product rounded up."""

    def norm_product(vectors):
        prod = 1
        for v in vectors:
            s = sum(x * x for x in v)
            prod *= (1 << 16) + isqrt((s << 32) - 1) + 1 if s else 1 << 16
        shift = 16 * len(matrix)
        return (prod + (1 << shift) - 1) >> shift

    return min(norm_product(zip(*matrix)), norm_product(matrix))


def faddeev_leverrier(matrix):
    """det(tI - M) by the O(n^4) Faddeev-LeVerrier recursion."""
    n = len(matrix)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [row[:] for row in matrix]
    c = 1
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                m[i][i] += c
            cols = list(zip(*m))
            m = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in matrix]
        trace = sum(m[i][i] for i in range(n))
        assert trace % k == 0
        c = -trace // k
        coeffs[n - k] = c
    return LaurentPolynomial({e: c for e, c in enumerate(coeffs) if c})


def gaussian_charpoly(matrix):
    """det(tI - M) by Gaussian Hessenberg reduction and the list recurrence,
    modulo the prime charpoly picks; the kernel before the Krylov chains."""
    p = mersenne_modulus(hadamard_bound(rows_of(matrix)))
    h = [[x % p for x in row] for row in matrix]
    hessenberg_reduce(h, p)
    coeffs = hessenberg_recurrence(h, p)
    half = p >> 1
    return LaurentPolynomial.from_dense(c - p if c > half else c for c in coeffs)


def hessenberg_reduce(a: list[list[int]], p: int) -> None:
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


def hessenberg_recurrence(h: list[list[int]], p: int) -> list[int]:
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


def fraction_rank(vectors):
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def fraction_inverse(matrix):
    n = len(matrix)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(c == r)) for c in range(n)]
        for r, row in enumerate(matrix)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def inverse_arc_rank_ok(surface, seed, n):
    """The cut-connectivity test as first stated: rank of u H^{-k}, k < n."""
    h_inv = fraction_inverse(dense(homological_monodromy(surface)))
    u = [Fraction(0)] * len(surface.rectangles)
    for idx, rect in enumerate(surface.rectangles):
        if rect.top == seed.top:
            u[idx] += 1
        if rect.bottom == seed.top:
            u[idx] -= 1
    rows = [u]
    for _ in range(n - 1):
        row = rows[-1]
        rows.append([sum(x * col[a] for a, x in enumerate(row)) for col in zip(*h_inv)])
    return fraction_rank(rows) == n


def leibniz_det(matrix):
    """Sum over permutations of sign * product, sign from the inversion count."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for r, c in enumerate(perm):
            term *= matrix[r][c]
        total += term
    return total


def lucas_lehmer(e):
    m = (1 << e) - 1
    s = 4
    for _ in range(e - 2):
        s = (s * s - 2) % m
    return s == 0


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

entries = st.integers(min_value=-60, max_value=60)


@st.composite
def dense_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


@st.composite
def zero_subdiagonal_matrices(draw):
    """Some columns are zero below the subdiagonal: Hessenberg skips them."""
    m = draw(dense_matrices())
    n = len(m)
    for j in draw(st.sets(st.integers(min_value=0, max_value=max(n - 1, 0)))):
        for i in range(j + 1, n):
            m[i][j] = 0
    return m


@st.composite
def nilpotent_matrices(draw):
    """A strictly upper triangular matrix with its basis permuted."""
    n = draw(st.integers(min_value=0, max_value=10))
    perm = draw(st.permutations(range(n)))
    upper = [[draw(entries) if c > r else 0 for c in range(n)] for r in range(n)]
    return [[upper[perm[r]][perm[c]] for c in range(n)] for r in range(n)]


@st.composite
def permutation_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    perm = draw(st.permutations(range(n)))
    return [[int(perm[c] == r) for c in range(n)] for r in range(n)]


@st.composite
def det_matrices(draw):
    """Square matrices, n 0-7, some singular, some with zero leading pivots.

    A singular one has a row that is an integer combination of the others;
    zeroing the top of the first columns forces row swaps in elimination.
    """
    n = draw(st.integers(min_value=0, max_value=7))
    m = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        target = draw(st.integers(min_value=0, max_value=n - 1))
        coeffs = [draw(st.integers(min_value=-3, max_value=3)) for _ in range(n)]
        coeffs[target] = 0
        m[target] = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(n)]
    if n >= 2 and draw(st.booleans()):
        for j in range(draw(st.integers(min_value=1, max_value=n - 1))):
            for i in range(draw(st.integers(min_value=j + 1, max_value=n))):
                m[i][j] = 0
    return m


@st.composite
def connected_words(draw):
    s = draw(st.integers(min_value=2, max_value=5))
    c = draw(st.integers(min_value=s, max_value=12))
    base = list(range(1, s)) + [
        draw(st.integers(min_value=1, max_value=s - 1)) for _ in range(c - s + 1)
    ]
    return BraidWord(s, tuple(draw(st.permutations(base))))


@st.composite
def repeated_block_sums(draw):
    """The direct sum of r copies of B, the companion matrix of a monic
    polynomial of degree 2-4, basis permuted: det(tI - M) = det(tI - B)^r,
    and each Krylov chain closes inside one copy, before the factor repeats."""
    deg = draw(st.integers(min_value=2, max_value=4))
    tail = [draw(entries) for _ in range(deg)]
    block = [[int(r == c + 1) for c in range(deg)] for r in range(deg)]
    for r in range(deg):
        block[r][deg - 1] = -tail[r]
    reps = draw(st.integers(min_value=2, max_value=4))
    n = deg * reps
    m = [[0] * n for _ in range(n)]
    for q in range(0, n, deg):
        for r in range(deg):
            m[q + r][q : q + deg] = block[r]
    perm = draw(st.permutations(range(n)))
    return block, reps, [[m[perm[r]][perm[c]] for c in range(n)] for r in range(n)]


@st.composite
def block_triangular_matrices(draw):
    """[[A, C], [0, B]]: the chain from e_0 closes inside A's columns."""
    a = draw(st.integers(min_value=1, max_value=6))
    b = draw(st.integers(min_value=1, max_value=6))
    top = [[draw(entries) for _ in range(a)] for _ in range(a)]
    bottom = [[draw(entries) for _ in range(b)] for _ in range(b)]
    coupling = [[draw(entries) for _ in range(b)] for _ in range(a)]
    m = [row + extra for row, extra in zip(top, coupling)]
    m += [[0] * a + row for row in bottom]
    return top, bottom, m


def sparse_sign_matrix(n, rng):
    """n x n with entries +-1, about 4.5 nonzeros a column, like the monodromy."""
    m = [[0] * n for _ in range(n)]
    for c in range(n):
        for r in rng.sample(range(n), rng.randint(3, 6)):
            m[r][c] = rng.choice((1, -1))
    return m


@st.composite
def wide_connected_words(draw):
    s = draw(st.integers(min_value=2, max_value=9))
    b1 = draw(st.integers(min_value=1, max_value=60))
    base = list(range(1, s)) + [draw(st.integers(min_value=1, max_value=s - 1)) for _ in range(b1)]
    return BraidWord(s, tuple(draw(st.permutations(base))))


# ---------------------------------------------------------------------------
# charpoly
# ---------------------------------------------------------------------------


class TestCharpoly:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            dense_matrices(),
            zero_subdiagonal_matrices(),
            nilpotent_matrices(),
            permutation_matrices(),
        )
    )
    def test_matches_faddeev_leverrier(self, m):
        assert charpoly(rows_of(m)) == faddeev_leverrier(m)

    def test_empty_matrix(self):
        assert charpoly([]) == LaurentPolynomial.one()

    def test_hadamard_matrix_attains_the_determinant_bound(self):
        # 60 times the Sylvester matrix of order 8: |det| = prod_j |col_j|,
        # so the constant term sits at the edge the modulus must cover.
        sylvester = [[1]]
        for _ in range(3):
            sylvester = [row + row for row in sylvester] + [
                row + [-x for x in row] for row in sylvester
            ]
        m = [[60 * x for x in row] for row in sylvester]
        poly = charpoly(rows_of(m))
        assert abs(poly[0]) == (60 * 60 * 8) ** 4 <= hadamard_bound(rows_of(m))
        assert poly == faddeev_leverrier(m)

    @pytest.mark.parametrize("p, q", [(8, 17), (9, 19)])
    def test_large_torus_monodromy_agrees(self, p, q):
        word = torus_braid(p, q)
        h = homological_monodromy(build_surface(word))
        assert len(h) == (p - 1) * (q - 1)
        start = time.perf_counter()
        poly = charpoly(h)
        elapsed = time.perf_counter() - start
        assert poly.unit_equal(burau_alexander(word))
        assert poly.unit_equal(torus_alexander(p, q))
        # On a 2-core x86-64 VM, Faddeev-LeVerrier took about 12 s at
        # b1 = 112 and the kernel 0.04 s.  The bound only guards the order.
        assert elapsed < 2.0


def column_bound_before(matrix):
    """The bound charpoly used before: prod_j (2 + isqrt(|col_j|^2))."""
    bound = 1
    for col in zip(*matrix):
        bound *= 2 + isqrt(sum(x * x for x in col))
    return bound


@st.composite
def sparse_sign_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    m = [[0] * n for _ in range(n)]
    for c in range(n):
        for r in draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=6)):
            m[r][c] = draw(st.sampled_from((1, -1)))
    return m


class TestHadamardBound:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(dense_matrices(), sparse_sign_matrices()))
    def test_sound_symmetric_and_below_the_old_bound(self, m):
        bound = hadamard_bound(rows_of(m))
        poly = faddeev_leverrier(m)
        assert all(abs(poly[k]) <= bound for k in range(len(m) + 1))
        assert bound == hadamard_bound(rows_of(zip(*m)))
        assert bound <= column_bound_before(m)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(dense_matrices(), sparse_sign_matrices()))
    def test_sparse_rows_give_the_dense_bound(self, m):
        assert hadamard_bound(rows_of(m)) == dense_hadamard_bound(m)

    def test_sparse_rows_give_the_dense_bound_at_every_prime(self):
        # Wide integer matrices and monodromies, whose bounds pick primes
        # from 61 to 521 bits: the same bound keeps every charpoly output.
        rng = random.Random(22)
        moduli = set()
        for n in range(6, 95, 4):
            m = sparse_sign_matrix(n, rng)
            for _ in range(n):
                m[rng.randrange(n)][rng.randrange(n)] = rng.randint(-9, 9)
            for case in (m, dense(homological_monodromy(build_surface(torus_braid(3, n))))):
                bound = hadamard_bound(rows_of(case))
                assert bound == dense_hadamard_bound(case), n
                moduli.add(mersenne_modulus(bound).bit_length())
        assert {61, 89, 107, 127, 521} <= moduli

    def test_exact_on_integer_norms(self):
        # Every factor 1 + |v| is an integer here, so no rounding shows.
        for n in range(6):
            identity = [[int(i == k) for k in range(n)] for i in range(n)]
            assert hadamard_bound(rows_of(identity)) == 2**n
            assert hadamard_bound([{} for _ in range(n)]) == 1
        assert hadamard_bound([{0: 3}, {0: 4}]) == 6  # columns 5, 0; rows 3, 4: 20

    def test_rounds_up(self):
        # 1 + sqrt(2) = 2.414...: the ceiling of the product, not of each factor.
        assert hadamard_bound([{0: 1, 1: 1}, {0: -1, 1: 1}]) == 6  # (1 + sqrt 2)^2 = 5.83
        assert hadamard_bound([{0: 1}]) == 2


class TestKrylovChains:
    """The Krylov kernel against the Gaussian reduction it replaced, where
    Faddeev-LeVerrier is too slow or the chains take their rarer paths."""

    @settings(max_examples=150, deadline=None)
    @given(repeated_block_sums())
    def test_repeated_block_closes_chains_early(self, case):
        block, reps, m = case
        poly = charpoly(rows_of(m))
        assert poly == gaussian_charpoly(m)
        assert poly == charpoly(rows_of(block)) ** reps

    @settings(max_examples=150, deadline=None)
    @given(block_triangular_matrices())
    def test_block_triangular_zero_subdiagonal(self, case):
        top, bottom, m = case
        poly = charpoly(rows_of(m))
        assert poly == gaussian_charpoly(m)
        assert poly == charpoly(rows_of(top)) * charpoly(rows_of(bottom))

    def test_sparse_sign_matrices_across_the_modulus_step(self):
        rng = random.Random(20)
        moduli = set()
        # The bound reaches 127 bits at n = 70 and 521 at n = 80.
        for n in range(20, 87, 2):
            m = sparse_sign_matrix(n, rng)
            moduli.add(mersenne_modulus(hadamard_bound(rows_of(m))).bit_length())
            assert charpoly(rows_of(m)) == gaussian_charpoly(m), n
        assert {127, 521} <= moduli

    def test_every_slot_layout_has_an_oracle(self, monkeypatch):
        # The first matrix whose bound selects each prime from 61 to 521
        # bits: slots of 2 to 17 limbs holding residues of 1 to 9 limbs.
        # The big-endian pack / unpack path runs on the same matrices.
        rng = random.Random(21)
        layouts = {}
        for n in range(6, 95, 2):
            m = sparse_sign_matrix(n, rng)
            layouts.setdefault(mersenne_modulus(hadamard_bound(rows_of(m))), m)
        assert {61, 89, 107, 127, 521} <= {p.bit_length() for p in layouts}
        cases = list(layouts.items())
        # n = 100 with few nonzeros keeps p at 61 bits in 192-bit slots, so
        # a slot is far wider than twice its residues.
        wide = [[0] * 100 for _ in range(100)]
        for _ in range(40):
            wide[rng.randrange(100)][rng.randrange(100)] = rng.choice((1, -1, 2, -3))
        assert mersenne_modulus(hadamard_bound(rows_of(wide))).bit_length() == 61
        cases.append(((1 << 61) - 1, wide))
        limb_path = []
        for p, m in cases:
            assert charpoly(rows_of(m)) == gaussian_charpoly(m), (p.bit_length(), len(m))
            limb_path.append(_krylov_charpoly(rows_of(m), p))
        # The big-endian path, which converts slot by slot: with no array
        # type the limb path cannot run.
        monkeypatch.setattr(linalg, "_LITTLE_ENDIAN", False)
        monkeypatch.setattr(linalg, "array", None)
        for (p, m), coeffs in zip(cases, limb_path):
            assert _krylov_charpoly(rows_of(m), p) == coeffs, (p.bit_length(), len(m))

    @settings(max_examples=15, deadline=None)
    @given(wide_connected_words())
    def test_monodromy_matches_burau_up_to_b1_60(self, word):
        h = homological_monodromy(build_surface(word))
        assert charpoly(h).unit_equal(burau_alexander(word))


class TestMersenneTable:
    def test_every_entry_is_prime(self):
        assert all(e <= 4423 for e in MERSENNE_EXPONENTS)
        for e in MERSENNE_EXPONENTS:
            assert lucas_lehmer(e), e

    def test_table_is_sorted_and_composites_fail(self):
        assert list(MERSENNE_EXPONENTS) == sorted(set(MERSENNE_EXPONENTS))
        assert not lucas_lehmer(67) and not lucas_lehmer(4421)

    def test_smallest_prime_above_twice_the_bound(self):
        assert mersenne_modulus(1) == (1 << 61) - 1
        assert mersenne_modulus(1 << 59) == (1 << 61) - 1
        assert mersenne_modulus(1 << 60) == (1 << 89) - 1
        assert mersenne_modulus((1 << 4421) - 1) == (1 << 4423) - 1
        with pytest.raises(DomainError):
            mersenne_modulus(1 << 4422)


# ---------------------------------------------------------------------------
# det
# ---------------------------------------------------------------------------


class TestDet:
    @settings(max_examples=300, deadline=None)
    @given(det_matrices())
    def test_matches_leibniz_oracle(self, m):
        before = [row[:] for row in m]
        assert det(m) == leibniz_det(m)
        assert m == before

    def test_edge_cases(self):
        assert det([]) == 1
        assert det([[-7]]) == -7
        assert det([[0]]) == 0
        assert det([[0, 1], [1, 0]]) == -1
        assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
        assert det([[2, 4], [3, 6]]) == 0
        # The second pivot vanishes after the first step and forces a swap.
        assert det([[1, 2, 3], [2, 4, 5], [3, 7, 9]]) == 1
        assert det([[0, 0], [0, 5]]) == 0


# ---------------------------------------------------------------------------
# Chain validator: u H^k versus the Fraction u H^{-k} oracle
# ---------------------------------------------------------------------------


class TestArcFunctionals:
    @settings(max_examples=60, deadline=None)
    @given(connected_words(), st.integers(min_value=0, max_value=10**6))
    def test_forward_powers_agree_with_inverse_oracle(self, word, pick):
        surface = build_surface(word)
        seed = surface.rectangles[pick % len(surface.rectangles)]
        cert = detect_chain(surface, seed, surface.b1 + 1)
        for n in range(1, cert.n + 1):
            assert _arc_functionals_independent(surface, seed, n) == inverse_arc_rank_ok(
                surface, seed, n
            )

    def test_known_defect_still_rejected(self):
        # detect_chain does not test cut connectivity, so it emits a
        # certificate the validator rejects; pinned until the detector
        # applies the same test.
        surface = build_surface(parse_braid("2 2 1 2 1 1 2 2 2 2"))
        seed = surface.rectangles[4]
        cert = detect_chain(surface, seed, surface.b1 + 1)
        assert not inverse_arc_rank_ok(surface, seed, cert.n)
        with pytest.raises(InternalConsistencyError, match="arc rank too low"):
            validate_chain_certificate(cert)
