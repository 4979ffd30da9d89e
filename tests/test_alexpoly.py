import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from braidplumb import alexpoly
from braidplumb.alexpoly import (
    FeasibilityRow,
    LaurentPolynomial,
    _balanced_digits,
    _burau_det,
    _burau_product,
    _det_norm_bound,
    _q_coefficients,
    _solve_q,
    burau_alexander,
    divide_exact,
    hironaka_max_n,
    hironaka_solve,
    torus_alexander,
)
from braidplumb.braidwords import BraidWord, parse_braid
from braidplumb.errors import InvalidParameter, NotCoprime, NotDivisible, ZeroPolynomial

L = LaurentPolynomial


def poly(**kw):
    return L({int(k[1:] if k.startswith("e") else k): v for k, v in kw.items()})


class TestArithmetic:
    def test_basic_ring_ops(self):
        t = L.t()
        p = (t + 1) * (t - 1)
        assert p == L({2: 1, 0: -1})
        assert (t**3).coeffs == {3: 1}
        assert (p - p).is_zero()
        assert (L({-2: 3}) * L({2: 5})) == L({0: 15})

    def test_normalized_minexp_and_sign(self):
        p = L({-3: -2, -1: 4})
        n = p.normalized()
        assert n.min_exp == 0 and n[0] > 0
        assert n == L({0: 2, 2: -4})

    def test_unit_equal(self):
        a = L({0: 1, 1: -1})  # 1 - t
        b = L({5: -1, 6: 1})  # t^6 - t^5 = -t^5 (1 - t)
        assert a.unit_equal(b)
        assert not a.unit_equal(L({0: 1, 1: 1}))

    def test_reciprocal_shift(self):
        p = L({0: 1, 2: -3})
        assert p.reciprocal() == L({0: 1, -2: -3})
        assert p.shift(4) == L({4: 1, 6: -3})

    def test_negative_power_rejected(self):
        with pytest.raises(InvalidParameter):
            L.t() ** -1


class TestDivideExact:
    def test_textbook_quotient(self):
        num = L({6: 1, 0: -1}) * L({1: 1, 0: -1})
        den = L({2: 1, 0: -1}) * L({3: 1, 0: -1})
        q = divide_exact(num, den)
        assert q == L({2: 1, 1: -1, 0: 1})
        assert den * q == num  # independent check: multiply back

    def test_unit_divisor(self):
        x = L({3: 2, -1: 5})
        assert divide_exact(x, L.one()) == x

    def test_remainder_raises(self):
        with pytest.raises(NotDivisible) as err:
            divide_exact(L({2: 1, 0: 1}), L({1: 1, 0: 1}))
        assert err.value.remainder == L({0: 2})

    def test_zero_divisor(self):
        with pytest.raises(ZeroPolynomial):
            divide_exact(L.one(), L())

    def test_random_products_divide_back(self):
        import random

        rng = random.Random(5)
        for _ in range(100):
            a = L({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(4)})
            b = L({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(4)})
            if a.is_zero() or b.is_zero():
                continue
            assert divide_exact(a * b, b) == a


class TestTorusAlexander:
    def test_trefoil(self):
        assert torus_alexander(2, 3) == L({0: 1, 1: -1, 2: 1})

    def test_t37_matches_printed_polynomial(self):
        expected = L({0: 1, 1: -1, 3: 1, 4: -1, 6: 1, 8: -1, 9: 1, 11: -1, 12: 1})
        assert torus_alexander(3, 7) == expected

    def test_t34_times_t_plus_one(self):
        got = L({1: 1, 0: 1}) * torus_alexander(3, 4)
        assert got == L({0: 1, 2: -1, 3: 1, 4: 1, 5: -1, 7: 1})

    def test_degree_is_twice_genus(self):
        from math import gcd

        for p in range(2, 6):
            for q in range(p + 1, 10):
                if gcd(p, q) != 1:
                    continue
                assert torus_alexander(p, q).degree == (p - 1) * (q - 1)

    def test_noncoprime_rejected(self):
        with pytest.raises(NotCoprime):
            torus_alexander(4, 6)

    def test_nonpositive_parameters_rejected(self):
        for p, q in ((-3, 5), (0, 1), (3, 0)):
            with pytest.raises(InvalidParameter):
                torus_alexander(p, q)

    def test_symmetric(self):
        for p, q in ((2, 5), (3, 5), (4, 7)):
            d = torus_alexander(p, q)
            assert d.reciprocal().normalized() == d


# ---------------------------------------------------------------------------
# Oracles: the dense product of reduced Burau generator matrices, and the
# Laurent-ring route the integer route replaced
# ---------------------------------------------------------------------------


def burau_generator(i, n):
    """Reduced Burau image of s_i in B_n: the identity except in row i."""
    m = [[L.one() if r == c else L() for c in range(n - 1)] for r in range(n - 1)]
    g = i - 1
    m[g][g] = -L.t()
    if g >= 1:
        m[g][g - 1] = L.t()
    if g + 1 <= n - 2:
        m[g][g + 1] = L.one()
    return m


def dense_burau(word):
    n = word.strands - 1
    acc = [[L.one() if r == c else L() for c in range(n)] for r in range(n)]
    for letter in word.letters:
        gen = burau_generator(letter, word.strands)
        acc = [
            [
                sum((acc[r][k] * gen[k][c] for k in range(n)), L())
                for c in range(n)
            ]
            for r in range(n)
        ]
    return acc


def reduced_burau(word):
    """The Laurent product by the three-column update, letters in order."""
    n = word.strands - 1
    acc = [[L.one() if r == c else L() for c in range(n)] for r in range(n)]
    for letter in word.letters:
        g = letter - 1
        for row in acc:
            x = row[g]
            if not x.coeffs:
                continue
            tx = x.shift(1)
            row[g] = -tx
            if g > 0:
                row[g - 1] = row[g - 1] + tx
            if g + 1 < n:
                row[g + 1] = row[g + 1] + x
    return acc


def _poly_det(matrix):
    """Fraction-free Bareiss determinant over the Laurent ring."""
    n = len(matrix)
    if n == 0:
        return L.one()
    m = [row[:] for row in matrix]
    sign = 1
    prev = L.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            for r in range(k + 1, n):
                if not m[r][k].is_zero():
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return L()
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                num = m[k][k] * m[r][c] - m[r][k] * m[k][c]
                m[r][c] = divide_exact(num, prev)
            m[r][k] = L()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def oracle_det(word):
    """det(rho(word) - I) by the Laurent-ring Bareiss."""
    m = reduced_burau(word)
    for i in range(word.strands - 1):
        m[i][i] = m[i][i] - L.one()
    return _poly_det(m)


def oracle_alexander(word):
    if word.strands == 1:
        return L.one()
    denom = L({e: 1 for e in range(word.strands)})
    return divide_exact(oracle_det(word), denom).normalized()


# ---------------------------------------------------------------------------
# Oracle: the case-by-case obstruction solver that the single re-substituted
# candidate replaced
# ---------------------------------------------------------------------------


def case_solve_qcoeffs(q, n, epsilon):
    big_n = len(q) - 1
    d = big_n - n
    if d < 0:
        return None
    p = [0] * (d + 1)
    if n > d:
        for k in range(d + 1):
            p[k] = q[n + k]
        for j in range(d + 1):
            if epsilon * p[d - j] != q[j]:
                return None
        for j in range(d + 1, n):
            if q[j] != 0:
                return None
        return L({k: p[k] for k in range(d + 1)})
    m = d - n
    for k in range(m + 1, d + 1):
        p[k] = q[n + k]
        if epsilon * q[d - k] != p[k]:
            return None
    for k in range(0, m + 1):
        if q[n + k] != epsilon * q[n + m - k]:
            return None
    done = [False] * (m + 1)
    for k in range(0, m + 1):
        if done[k]:
            continue
        kk = m - k
        if k == kk:
            val = q[n + k]
            if epsilon == 1:
                if val % 2:
                    return None
                p[k] = val // 2
            else:
                if val != 0:
                    return None
                p[k] = 0
        else:
            p[k] = q[n + k]
            p[kk] = 0
        done[k] = done[kk] = True
    return L({k: p[k] for k in range(d + 1)})


def case_solve_q(q, n, epsilon):
    """(P, d, attained degree) of the case-by-case solver, or None."""
    if n >= len(q) or n < 0:
        return None
    p = case_solve_qcoeffs(q, n, epsilon)
    if p is None:
        return None
    d = len(q) - 1 - n
    if p.shift(n) + epsilon * p.reciprocal().shift(d) != L.from_dense(q):
        return None
    return p, d, p.degree if not p.is_zero() else 0


def evaluate(p, t):
    """p(t) for a polynomial p with no negative exponents."""
    return sum(c * t**e for e, c in p.coeffs.items())


def norm1(p):
    return sum(abs(c) for c in p.coeffs.values())


def one_norm_product(word):
    """The Burau route's bound before the l2 one: prod_j (1 + sum_i N_ij)."""
    bound = 1
    for col in zip(*_burau_product(word, 1, 1)):
        bound *= sum(col) + 1
    return bound


@st.composite
def braid_words(draw):
    """Any positive word on 2 to 9 strands, links and split words included."""
    s = draw(st.integers(min_value=2, max_value=9))
    letters = draw(st.lists(st.integers(min_value=1, max_value=s - 1), max_size=40))
    return BraidWord(s, tuple(letters))


@st.composite
def connected_words(draw, max_strands=12, max_length=120):
    """Connected positive words with s <= max_strands and c <= max_length."""
    s = draw(st.integers(min_value=2, max_value=max_strands))
    extra = draw(
        st.lists(st.integers(min_value=1, max_value=s - 1), max_size=max_length + 1 - s)
    )
    letters = draw(st.permutations(list(range(1, s)) + extra))
    return BraidWord(s, tuple(letters))


def _words(max_strands, max_length):
    for s in range(1, max_strands + 1):
        for c in range(max_length + 1 if s > 1 else 1):
            for letters in itertools.product(range(1, s), repeat=c):
                yield BraidWord(s, letters)


def _route_k(word):
    return _det_norm_bound(word).bit_length() + 1


class TestBurau:
    def _check_integer_image(self, word):
        k = _route_k(word)
        dense = dense_burau(word)
        image = _burau_product(word, 1 << k)
        assert image == [[evaluate(p, 1 << k) for p in row] for row in dense]
        norms = _burau_product(word, 1, 1)
        for norm_row, row in zip(norms, dense):
            assert all(n >= norm1(p) for n, p in zip(norm_row, row))

    def test_three_column_update_equals_dense_product_exhaustive(self):
        for word in _words(4, 6):
            self._check_integer_image(word)

    @settings(max_examples=150, deadline=None)
    @given(braid_words())
    def test_three_column_update_equals_dense_product(self, word):
        self._check_integer_image(word)

    def _check_against_oracle(self, word):
        expected = oracle_det(word)
        assert _burau_det(word) == expected
        assert not expected.is_zero()
        # Exact decoding needs the bound on the largest coefficient; the
        # 1-norm of the determinant may exceed it.
        bound = _det_norm_bound(word)
        assert bound >= max(abs(c) for c in expected.coeffs.values())
        assert bound <= one_norm_product(word)
        assert burau_alexander(word) == oracle_alexander(word)

    def test_route_equals_laurent_oracle_exhaustive(self):
        for word in _words(4, 8):
            if word.is_connected and word.strands > 1:
                self._check_against_oracle(word)

    @settings(max_examples=60, deadline=None)
    @given(connected_words())
    def test_route_equals_laurent_oracle(self, word):
        self._check_against_oracle(word)

    def test_balanced_digits_at_the_extremes(self):
        for k in (2, 3, 8, 61, 171):
            top = (1 << (k - 1)) - 1
            for digits in (
                [top],
                [-top],
                [top, -top, top],
                [-top, 0, 0, top],
                [0, -top, top, -top, -top],
                [1, -1, top],
            ):
                value = sum(c << (k * i) for i, c in enumerate(digits))
                assert _balanced_digits(value, k) == digits
        assert _balanced_digits(0, 5) == []

    def test_unknot_words(self):
        assert burau_alexander(parse_braid("1")) == L.one()
        assert burau_alexander(parse_braid("1 2")) == L.one()
        assert burau_alexander(BraidWord(1, ())) == L.one()
        # The determinant of an unknot word is the unit multiple
        # +-t^k (1 + ... + t^{s-1}) of the divisor, never zero.
        for word in (parse_braid("1"), parse_braid("1 2"), parse_braid("3 2 1")):
            denom = L({e: 1 for e in range(word.strands)})
            assert _burau_det(word).unit_equal(denom)

    def test_trefoil_one_by_one(self):
        assert burau_alexander(parse_braid("1 1 1")) == L({0: 1, 1: -1, 2: 1})

    def test_hopf_link(self):
        assert burau_alexander(parse_braid("1 1")).unit_equal(L({1: 1, 0: -1}))

    def test_torus_words_match_formula(self):
        from math import gcd

        from braidplumb.plumbing import torus_braid

        for p in range(2, 6):
            for q in range(p + 1, 10):
                if gcd(p, q) != 1:
                    continue
                word = torus_braid(p, q)
                assert burau_alexander(word).unit_equal(torus_alexander(p, q))

    def test_braid_relation_invariance(self):
        a = burau_alexander(parse_braid("1 2 1 2 2 1"))
        b = burau_alexander(parse_braid("2 1 2 2 2 1"))
        assert a.unit_equal(b)


class TestHironaka:
    def test_two_strand_family(self):
        for q in (3, 5, 7, 9):
            sol = hironaka_solve(torus_alexander(2, q), q, 1)
            assert sol is not None
            assert sol.P == L.one()
            assert sol.verify(torus_alexander(2, q))

    def test_t37_solution(self):
        sol = hironaka_solve(torus_alexander(3, 7), 7, 1)
        assert sol is not None
        assert sol.P == L({0: 1, 1: -1, 3: 1, 4: -1, 6: 1})
        assert sol.d == 6 and sol.attained_degree == 6

    def test_t37_infeasible_at_8(self):
        d = torus_alexander(3, 7)
        assert hironaka_solve(d, 8, 1) is None
        assert hironaka_solve(d, 8, -1) is None

    def test_max_n_families(self):
        for k in range(1, 5):
            n1, _ = hironaka_max_n(torus_alexander(3, 3 * k + 1))
            assert n1 == 3 * k + 1
            n2, _ = hironaka_max_n(torus_alexander(3, 3 * k + 2))
            assert n2 == 3 * k + 3

    def test_unknot(self):
        n_max, table = hironaka_max_n(L.one())
        assert n_max == 1
        assert any(row.feasible for row in table)

    def test_solutions_resubstitute(self):
        for p, q in ((2, 7), (3, 5), (3, 8), (4, 5)):
            delta = torus_alexander(p, q)
            n_max, table = hironaka_max_n(delta)
            for row in table:
                if row.feasible:
                    sol = hironaka_solve(delta, row.n, row.epsilon)
                    assert sol is not None and sol.verify(delta)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            hironaka_max_n(L())

    def test_epsilon_outside_plus_minus_one_rejected(self):
        for eps in (0, 2, -2):
            with pytest.raises(InvalidParameter):
                hironaka_solve(torus_alexander(3, 4), 3, eps)

    @staticmethod
    def _check_table(delta):
        """hironaka_max_n's closed-form table equals the single-row solves."""
        expected = []
        for n in range((L({1: 1, 0: 1}) * delta).normalized().degree + 1):
            for eps in (1, -1):
                sol = hironaka_solve(delta, n, eps)
                if sol is None:
                    expected.append(FeasibilityRow(n=n, epsilon=eps, feasible=False))
                else:
                    assert sol.verify(delta)
                    expected.append(
                        FeasibilityRow(n, eps, True, sol.attained_degree, sol.d)
                    )
        if not any(row.feasible for row in expected):
            with pytest.raises(ZeroPolynomial):
                hironaka_max_n(delta)
            return None
        n_max, table = hironaka_max_n(delta)
        assert table == expected
        assert n_max == max(row.n for row in table if row.feasible)
        return table

    @settings(max_examples=150, deadline=None)
    @given(connected_words(max_strands=9, max_length=40))
    def test_table_equals_single_solves(self, word):
        self._check_table(burau_alexander(word))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=16))
    def test_table_equals_single_solves_on_any_polynomial(self, coeffs):
        # Mostly asymmetric: no row with n <= N/2 is feasible, and most
        # such polynomials have no feasible row at all.
        assume(any(coeffs))
        self._check_table(L.from_dense(coeffs))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3)), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=12),
    )
    def test_table_equals_single_solves_on_built_solutions(self, p, n):
        # Q = t^n P + eps t^d P(1/t) with eps = -(-1)^(n + d) vanishes at
        # t = -1, so Delta = Q / (t + 1) has a feasible row at (n, eps) by
        # construction: for n > d the window d < j < n of Q is zero, and
        # sparse P leaves zeros inside the symmetric rows too.
        p = p[:-1] + [p[-1] or 1]
        d = len(p) - 1
        eps = -((-1) ** (n + d))
        big_p = L.from_dense(p)
        q = big_p.shift(n) + eps * big_p.reciprocal().shift(d)
        assume(not q.is_zero())
        table = self._check_table(divide_exact(q, L({1: 1, 0: 1})))
        if n >= 1:  # Q is already normalized: q_0 = eps p_d, deg Q = n + d
            assert table[2 * n + (eps == -1)] == FeasibilityRow(n, eps, True, d, d)

    def test_table_solves_no_single_row(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("hironaka_max_n called the single-row solver")

        monkeypatch.setattr(alexpoly, "_solve_q", refuse)
        n_max, table = hironaka_max_n(torus_alexander(3, 7))
        assert n_max == 7 and len(table) == 2 * 14  # deg Q = 13

    def _check_against_case_solver(self, delta):
        q = _q_coefficients(delta)
        for n in range(-1, len(q) + 1):
            for eps in (1, -1):
                sol = _solve_q(q, n, eps)
                expected = case_solve_q(q, n, eps)
                if expected is None:
                    assert sol is None
                else:
                    assert (sol.P, sol.d, sol.attained_degree) == expected
                    assert sol.verify(delta)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=14))
    def test_candidate_equals_case_solver_on_any_polynomial(self, coeffs):
        assume(any(coeffs))
        self._check_against_case_solver(L.from_dense(coeffs))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=10),
        st.booleans(),
    )
    def test_candidate_equals_case_solver_on_palindromes(self, half, odd):
        assume(any(half))
        mirror = half[::-1][1:] if odd else half[::-1]
        self._check_against_case_solver(L.from_dense(half + mirror))

    @settings(max_examples=100, deadline=None)
    @given(connected_words(max_strands=9, max_length=40))
    def test_candidate_equals_case_solver_on_burau(self, word):
        self._check_against_case_solver(burau_alexander(word))

    def test_candidate_equals_case_solver_on_torus_knots(self):
        for p, q in ((2, 9), (3, 7), (3, 8), (4, 5), (5, 7), (5, 9)):
            self._check_against_case_solver(torus_alexander(p, q))
