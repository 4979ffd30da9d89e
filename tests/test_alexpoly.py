import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from braidplumb.alexpoly import (
    FeasibilityRow,
    LaurentPolynomial,
    burau_alexander,
    divide_exact,
    hironaka_max_n,
    hironaka_solve,
    reduced_burau,
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
# Oracle: the dense product of reduced Burau generator matrices
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


@st.composite
def braid_words(draw):
    """Any positive word on 2 to 9 strands, links and split words included."""
    s = draw(st.integers(min_value=2, max_value=9))
    letters = draw(st.lists(st.integers(min_value=1, max_value=s - 1), max_size=40))
    return BraidWord(s, tuple(letters))


class TestBurau:
    def test_three_column_update_equals_dense_product_exhaustive(self):
        for s in range(1, 5):
            for c in range(7 if s > 1 else 1):
                for letters in itertools.product(range(1, s), repeat=c):
                    word = BraidWord(s, letters)
                    assert reduced_burau(word) == dense_burau(word), letters

    @settings(max_examples=150, deadline=None)
    @given(braid_words())
    def test_three_column_update_equals_dense_product(self, word):
        assert reduced_burau(word) == dense_burau(word)

    def test_trefoil_one_by_one(self):
        assert burau_alexander(parse_braid("1 1 1")) == L({0: 1, 1: -1, 2: 1})

    def test_hopf_link(self):
        assert burau_alexander(parse_braid("1 1")).unit_equal(L({1: 1, 0: -1}))

    def test_unknot_words(self):
        assert burau_alexander(parse_braid("1")) == L.one()
        assert burau_alexander(parse_braid("1 2")) == L.one()

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

    @settings(max_examples=150, deadline=None)
    @given(braid_words())
    def test_table_equals_single_solves(self, word):
        assume(word.is_connected)
        delta = burau_alexander(word)
        n_max, table = hironaka_max_n(delta)
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
        assert table == expected
        assert n_max == max(row.n for row in table if row.feasible)
