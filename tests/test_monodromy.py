import random

from braidplumb.alexpoly import LaurentPolynomial, burau_alexander, torus_alexander
from braidplumb.braidwords import BraidWord, parse_braid
from braidplumb.fatgraph import build_surface
from braidplumb.monodromy import (
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


class TestIntersectionForm:
    def test_antisymmetric(self):
        s = build_surface(torus_braid(3, 5))
        j = intersection_form(s)
        n = len(j)
        for a in range(n):
            assert j[a][a] == 0
            for b in range(n):
                assert j[a][b] == -j[b][a]

    def test_pattern_matches_brick_adjacency(self):
        # nonzero exactly for same-column neighbours or interleaved
        # adjacent-column rectangles, and then +-1
        s = build_surface(BraidWord(4, (3, 1, 2, 2, 3, 1, 2, 1)))
        j = intersection_form(s)
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


class TestHomologicalMonodromy:
    def test_hopf_band_fixes_its_class(self):
        s = build_surface(parse_braid("1 1"))
        assert homological_monodromy(s) == [[1]]

    def test_trefoil_charpoly(self):
        s = build_surface(parse_braid("1 1 1"))
        assert charpoly(homological_monodromy(s)) == LaurentPolynomial(
            {2: 1, 1: -1, 0: 1}
        )

    def test_preserves_intersection_form(self):
        for word in (torus_braid(3, 4), BraidWord(4, (3, 1, 2, 2, 3, 1, 2, 1))):
            s = build_surface(word)
            j = intersection_form(s)
            h = homological_monodromy(s)
            n = len(j)
            got = [
                [
                    sum(h[a][i] * j[a][b] * h[b][k] for a in range(n) for b in range(n))
                    for k in range(n)
                ]
                for i in range(n)
            ]
            assert got == j

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
