import itertools
import random
import time
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from braidplumb.alexpoly import LaurentPolynomial, burau_alexander, torus_alexander
from braidplumb.braidwords import BraidWord, parse_braid
import braidplumb.monodromy as monodromy
from braidplumb.curves import (
    RIGHT_HANDED_SIGN,
    curve_from_rectangle,
    signed_intersection,
)
from braidplumb.fatgraph import build_surface
from braidplumb.monodromy import (
    _neighbour_pairs,
    alexander_from_monodromy,
    charpoly,
    homological_monodromy,
    intersection_form,
)
from braidplumb.plumbing import torus_braid


def random_connected(rng, c, s):
    base = list(range(1, s)) + [rng.randint(1, s - 1) for _ in range(c - s + 1)]
    rng.shuffle(base)
    return BraidWord(s, tuple(base))


# ---------------------------------------------------------------------------
# Oracles: the dense routines the sparse homology layer replaced
# ---------------------------------------------------------------------------


def dense(rows):
    """The dense matrix of sparse rows (rows[r][c] = M[r][c], zeros left out)."""
    return [[row.get(c, 0) for c in range(len(rows))] for row in rows]


def dense_intersection_form(surface):
    """The curve engine's signed_intersection on every pair of rectangle
    circles, independent of the closed form intersection_form reads."""
    curves = [curve_from_rectangle(surface, r) for r in surface.rectangles]
    n = len(curves)
    j = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            val = signed_intersection(curves[a], curves[b])
            j[a][b] = val
            j[b][a] = -val
    return j


def column_transvection_monodromy(surface, j):
    """Each basis vector pushed through every transvection in turn."""
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


def all_connected_words(max_strands, max_length):
    for s in range(2, max_strands + 1):
        for c in range(s - 1, max_length + 1):
            for letters in itertools.product(range(1, s), repeat=c):
                word = BraidWord(s, letters)
                if word.is_connected:
                    yield word


@st.composite
def connected_words(draw, max_strands=9, max_length=40):
    """Connected words, links included."""
    s = draw(st.integers(min_value=2, max_value=max_strands))
    c = draw(st.integers(min_value=s - 1, max_value=max_length))
    base = list(range(1, s)) + [
        draw(st.integers(min_value=1, max_value=s - 1)) for _ in range(c - s + 1)
    ]
    return BraidWord(s, tuple(draw(st.permutations(base))))


def check_against_oracles(word):
    surface = build_surface(word)
    j = dense(intersection_form(surface))
    assert j == dense_intersection_form(surface)
    nonzero = sum(1 for row in j for v in row if v) // 2
    pairs = list(_neighbour_pairs(surface))
    assert nonzero <= len(pairs) <= 3 * surface.b1
    assert len(set(pairs)) == len(pairs) and all(a < b for a, b in pairs)
    assert dense(homological_monodromy(surface)) == column_transvection_monodromy(surface, j)


def assert_seifert_identity(surface):
    """V^T H == V for the Seifert-type matrix V of the twist order.

    V is 1 on the diagonal and J[a][b] below it: rectangle a comes before b
    in twist_ordering exactly when a > b.  This checks H by a matrix
    identity, independently of the transvection loop that builds it.
    """
    j = dense(intersection_form(surface))
    h = dense(homological_monodromy(surface))
    n = len(j)
    v = [[1 if a == b else j[a][b] if a > b else 0 for b in range(n)] for a in range(n)]
    vt_h = [
        [sum(v[k][a] * h[k][b] for k in range(n) if v[k][a]) for b in range(n)]
        for a in range(n)
    ]
    assert vt_h == v


class TestIntersectionForm:
    def test_antisymmetric(self):
        s = build_surface(torus_braid(3, 5))
        j = dense(intersection_form(s))
        n = len(j)
        for a in range(n):
            assert j[a][a] == 0
            for b in range(n):
                assert j[a][b] == -j[b][a]

    def test_pattern_matches_brick_adjacency(self):
        # nonzero exactly for same-column neighbours or interleaved
        # adjacent-column rectangles, and then +-1
        s = build_surface(BraidWord(4, (3, 1, 2, 2, 3, 1, 2, 1)))
        j = dense(intersection_form(s))
        rects = s.rectangles
        for a in range(len(rects)):
            for b in range(len(rects)):
                if a == b:
                    continue
                ra, rb = rects[a], rects[b]
                if ra.column == rb.column:
                    touching = ra.bottom == rb.top or rb.bottom == ra.top
                    assert (abs(j[a][b]) == 1) == touching
                elif abs(ra.column - rb.column) == 1:
                    interleaved = (
                        ra.top < rb.top < ra.bottom < rb.bottom
                        or rb.top < ra.top < rb.bottom < ra.bottom
                    )
                    assert (abs(j[a][b]) == 1) == interleaved
                else:
                    assert j[a][b] == 0


class TestSparseOracles:
    def test_exhaustive_small_words(self):
        count = 0
        for word in all_connected_words(4, 8):
            check_against_oracles(word)
            count += 1
        assert count > 8000

    @settings(max_examples=150, deadline=None)
    @given(connected_words())
    def test_random_words(self, word):
        check_against_oracles(word)

    def test_large_torus_routes_agree_quickly(self):
        word = torus_braid(8, 17)
        start = time.perf_counter()
        h = homological_monodromy(build_surface(word))
        monodromy_s = time.perf_counter() - start
        start = time.perf_counter()
        burau = burau_alexander(word)
        burau_s = time.perf_counter() - start
        assert len(h) == 112
        assert charpoly(h).unit_equal(burau)
        assert burau.unit_equal(torus_alexander(8, 17))
        # On a 2-core x86-64 VM the dense routes took 0.13 s (J and H) and
        # 0.025 s (Burau), the sparse ones 0.015 s and 0.003 s.  The bound
        # only guards the order.
        assert monodromy_s < 1.0 and burau_s < 1.0


def check_sparse_rows(surface):
    """J and H store no zero, and J is antisymmetric with at most 3 * b1 pairs."""
    j = intersection_form(surface)
    h = homological_monodromy(surface)
    assert len(j) == len(h) == surface.b1
    assert all(x for rows in (j, h) for row in rows for x in row.values())
    assert all(j[b].get(a) == -x for a, row in enumerate(j) for b, x in row.items())
    assert sum(map(len, j)) <= 6 * surface.b1


class TestSparseRows:
    def test_every_small_word(self):
        for word in all_connected_words(4, 7):
            check_sparse_rows(build_surface(word))

    @settings(max_examples=100, deadline=None)
    @given(connected_words())
    def test_random_words(self, word):
        check_sparse_rows(build_surface(word))

    def test_torus_knots(self):
        for p, q in ((3, 5), (6, 13), (8, 17)):
            check_sparse_rows(build_surface(torus_braid(p, q)))


class TestFormPairs:
    @settings(max_examples=60, deadline=None)
    @given(connected_words(max_strands=7, max_length=20))
    def test_one_pairing_per_neighbour_pair(self, word):
        surface = build_surface(word)
        paired = []

        def recording(x, y):
            paired.append((x, y))
            return signed_intersection(x, y)

        with mock.patch.object(monodromy, "signed_intersection", recording):
            j = intersection_form(surface)
        assert dense(j) == dense_intersection_form(surface)
        rects = surface.rectangles
        assert paired == [(rects[a], rects[b]) for a, b in _neighbour_pairs(surface)]


class TestHomologicalMonodromy:
    def test_hopf_band_fixes_its_class(self):
        s = build_surface(parse_braid("1 1"))
        assert homological_monodromy(s) == [{0: 1}]

    def test_trefoil_charpoly(self):
        s = build_surface(parse_braid("1 1 1"))
        assert charpoly(homological_monodromy(s)) == LaurentPolynomial(
            {2: 1, 1: -1, 0: 1}
        )

    def test_preserves_intersection_form(self):
        for word in (torus_braid(3, 4), BraidWord(4, (3, 1, 2, 2, 3, 1, 2, 1))):
            s = build_surface(word)
            j = dense(intersection_form(s))
            h = dense(homological_monodromy(s))
            n = len(j)
            got = [
                [
                    sum(h[a][i] * j[a][b] * h[b][k] for a in range(n) for b in range(n))
                    for k in range(n)
                ]
                for i in range(n)
            ]
            assert got == j

    @settings(max_examples=200, deadline=None)
    @given(connected_words(max_strands=7, max_length=30))
    def test_seifert_identity(self, word):
        assert_seifert_identity(build_surface(word))

    def test_seifert_identity_large_torus(self):
        assert_seifert_identity(build_surface(torus_braid(6, 13)))

    def test_determinant_is_unit(self):
        for word in (torus_braid(3, 4), torus_braid(4, 5), parse_braid("1 1 2 2 1 2")):
            h = homological_monodromy(build_surface(word))
            assert (-1) ** len(h) * charpoly(h)[0] in (1, -1)


class TestAlexanderFromMonodromy:
    def test_hopf_link(self):
        got = alexander_from_monodromy(build_surface(parse_braid("1 1")))
        assert got.unit_equal(LaurentPolynomial({1: 1, 0: -1}))

    def test_trefoil(self):
        got = alexander_from_monodromy(build_surface(parse_braid("1 1 1")))
        assert got == torus_alexander(2, 3)

    def test_torus34(self):
        got = alexander_from_monodromy(build_surface(torus_braid(3, 4)))
        assert got.unit_equal(torus_alexander(3, 4))

    def test_torus37_degree_twelve_polynomial(self):
        got = alexander_from_monodromy(build_surface(torus_braid(3, 7)))
        expected = LaurentPolynomial(
            {0: 1, 1: -1, 3: 1, 4: -1, 6: 1, 8: -1, 9: 1, 11: -1, 12: 1}
        )
        assert got.unit_equal(expected)

    def test_agrees_with_burau_on_random_words(self):
        rng = random.Random(2024)
        done = 0
        while done < 60:
            s = rng.randint(2, 6)
            c = rng.randint(max(2, s - 1), 12)
            w = random_connected(rng, c, s)
            assert alexander_from_monodromy(build_surface(w)).unit_equal(
                burau_alexander(w)
            )
            done += 1
