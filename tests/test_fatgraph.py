import itertools
import random

import pytest

from braidplumb.braidwords import BraidWord, parse_braid
from braidplumb.errors import DisconnectedWord, TrivialLink
from braidplumb.fatgraph import BrickDiagram, build_surface
from braidplumb.plumbing import torus_braid


class TestBrickDiagram:
    def test_columns_and_rectangles(self):
        brick = BrickDiagram.from_word(parse_braid("3 1 2 2 3 1 2 1"))
        assert brick.columns == ((1, 5, 7), (2, 3, 6), (0, 4))
        # rectangle count = c - (s - 1) = b1
        assert len(brick.rectangles) == 8 - 3

    def test_rectangles_pair_consecutive_positions(self):
        brick = BrickDiagram.from_word(parse_braid("1 1 1 1"))
        assert [(r.top, r.bottom) for r in brick.rectangles] == [(0, 1), (1, 2), (2, 3)]


class TestSurface:
    def test_trefoil_surface(self):
        s = build_surface(parse_braid("1 1 1"))
        assert s.euler_characteristic == -1
        assert s.boundary_count == 1
        assert len(s.rectangles) == 2
        assert s.genus == 1

    def test_hopf_band(self):
        s = build_surface(parse_braid("1 1"))
        assert s.euler_characteristic == 0
        assert s.boundary_count == 2
        assert len(s.rectangles) == 1
        assert s.genus == 0

    def test_torus_43(self):
        s = build_surface(torus_braid(4, 3))
        assert s.b1 == 6
        assert s.boundary_count == 1
        assert s.genus == 3

    def test_top_left_rectangle_skips_empty_columns(self):
        s = build_surface(parse_braid("1 2 1 2"))
        assert (s.top_left_rectangle().column, s.top_left_rectangle().top) == (1, 0)
        s = build_surface(parse_braid("4 3 1 2 2"))
        assert (s.top_left_rectangle().column, s.top_left_rectangle().top) == (2, 3)
        with pytest.raises(TrivialLink):
            build_surface(parse_braid("1 2 3")).top_left_rectangle()

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedWord):
            build_surface(BraidWord(4, (1, 2, 1)))

    def test_boundary_matches_closure_on_random_words(self):
        rng = random.Random(123)
        for _ in range(200):
            s_count = rng.randint(2, 7)
            c = rng.randint(max(2, s_count - 1), 14)
            base = list(range(1, s_count)) + [
                rng.randint(1, s_count - 1) for _ in range(c - s_count + 1)
            ]
            rng.shuffle(base)
            w = BraidWord(s_count, tuple(base))
            assert build_surface(w).boundary_count == w.components

    def test_twist_ordering_right_to_left_bottom_to_top(self):
        s = build_surface(torus_braid(3, 3))
        rects = [s.rectangles[i] for i in s.twist_ordering]
        assert [r.column for r in rects] == [2, 2, 1, 1]
        assert [r.top for r in rects] == [3, 1, 2, 0]  # bottom rectangle first

    def test_homology_basis_spans_cycle_space(self):
        # rectangle coordinates of each rectangle's own boundary cycle
        s = build_surface(parse_braid("1 2 1 2 1 2"))
        for idx, rect in enumerate(s.rectangles):
            counts = {rect.top: 1, rect.bottom: -1}
            coords = s.homology_from_edge_counts(counts)
            expect = tuple(1 if i == idx else 0 for i in range(len(s.rectangles)))
            assert coords == expect

    def test_json_shape(self):
        data = build_surface(parse_braid("1 1")).to_json()
        assert data["strands"] == 2
        assert data["boundary_components"] == 2
        assert data["rectangles"] == [{"column": 1, "top": 0, "bottom": 1}]

    def test_rectangle_incidence_rank_is_b1(self):
        from fractions import Fraction

        rng = random.Random(71)
        for _ in range(30):
            s_count = rng.randint(2, 6)
            c = rng.randint(max(2, s_count - 1), 12)
            base = list(range(1, s_count)) + [
                rng.randint(1, s_count - 1) for _ in range(c - s_count + 1)
            ]
            rng.shuffle(base)
            surf = build_surface(BraidWord(s_count, tuple(base)))
            rows = []
            for rect in surf.rectangles:
                row = [Fraction(0)] * c
                row[rect.top] += 1
                row[rect.bottom] -= 1
                rows.append(row)
            rank = 0
            cols = c
            pivot_col = 0
            while rank < len(rows) and pivot_col < cols:
                pivot = next(
                    (r for r in range(rank, len(rows)) if rows[r][pivot_col]), None
                )
                if pivot is None:
                    pivot_col += 1
                    continue
                rows[rank], rows[pivot] = rows[pivot], rows[rank]
                inv = 1 / rows[rank][pivot_col]
                rows[rank] = [x * inv for x in rows[rank]]
                for r in range(len(rows)):
                    if r != rank and rows[r][pivot_col]:
                        f = rows[r][pivot_col]
                        rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
                rank += 1
                pivot_col += 1
            assert rank == surf.b1 == len(surf.rectangles)


def random_connected_words(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        s_count = rng.randint(2, 7)
        c = rng.randint(max(2, s_count - 1), 16)
        base = list(range(1, s_count)) + [
            rng.randint(1, s_count - 1) for _ in range(c - s_count + 1)
        ]
        rng.shuffle(base)
        yield BraidWord(s_count, tuple(base))


def scanned_twist_ordering(surface):
    """The twist order by its definition: a per-column scan, columns right
    to left, bottom to top inside each column."""
    order = []
    for col in range(surface.word.strands - 1, 0, -1):
        col_rects = [i for i, r in enumerate(surface.rectangles) if r.column == col]
        col_rects.sort(key=lambda i: -surface.rectangles[i].top)
        order.extend(col_rects)
    return tuple(order)


class TestTraversalTables:
    def test_ends_follow_the_half_edge_encoding(self):
        for w in random_connected_words(5, 300):
            s = build_surface(w)
            c = w.length
            assert len(s.src_end) == len(s.tgt_end) == 2 * c + 1
            for t in range(1, c + 1):
                assert (s.src_end[t], s.tgt_end[t]) == (2 * t - 2, 2 * t - 1)
                assert (s.src_end[-t], s.tgt_end[-t]) == (2 * t - 1, 2 * t - 2)

    def test_rings_list_each_strands_ends_in_word_order(self):
        # The curve engine orders the ends around a strand disk by their
        # indices.  That is ring (word-position) order because no strand
        # holds both ends of one crossing.
        for w in random_connected_words(6, 300):
            s = build_surface(w)
            assert len(s.end_vertex) == 2 * w.length
            for j, g in enumerate(w.letters):
                assert (s.end_vertex[2 * j], s.end_vertex[2 * j + 1]) == (g, g + 1)
            for v in range(1, w.strands + 1):
                ends = [e for e in range(2 * w.length) if s.end_vertex[e] == v]
                positions = [e >> 1 for e in ends]
                assert len(set(positions)) == len(positions)
                ring = [j for j, g in enumerate(w.letters) if v in (g, g + 1)]
                assert positions == ring

    def test_twist_ordering_is_the_per_column_scan(self):
        for w in random_connected_words(7, 500):
            s = build_surface(w)
            assert s.twist_ordering == scanned_twist_ordering(s)


def ring_face_count(surface):
    """The boundary trace before the next-end table: ring lists per strand,
    a successor table from the rings, and a face walk from every end."""
    n_ends = 2 * surface.word.length
    rings = [[] for _ in range(surface.word.strands + 1)]
    for end, v in enumerate(surface.end_vertex):
        rings[v].append(end)
    succ = [0] * n_ends
    for ring in rings:
        for end, nxt in zip(ring, ring[1:] + ring[:1]):
            succ[end] = nxt
    seen = [False] * n_ends
    cycles = 0
    for start in range(n_ends):
        if seen[start]:
            continue
        cycles += 1
        h = start
        while not seen[h]:
            seen[h] = True
            h = succ[h ^ 1]
    return cycles


class TestBoundaryTrace:
    def test_next_end_table_equals_the_ring_walk(self):
        words = 0
        for s in range(2, 5):
            for c in range(s - 1, 9):
                for letters in itertools.product(range(1, s), repeat=c):
                    w = BraidWord(s, letters)
                    if not w.is_connected:
                        continue
                    surf = build_surface(w)  # raises unless the trace is w.components
                    assert surf.boundary_count == ring_face_count(surf) == w.components
                    words += 1
        assert words == 8836

    def test_one_strand_disk_has_one_boundary_circle(self):
        # The empty word on one strand closes to the unknot; its fibre
        # surface is a disk with no band, whose one boundary circle has no
        # end on it.  The ring walk finds no face there.
        surf = build_surface(BraidWord(1, ()))
        assert surf.boundary_count == 1 == surf.word.components
        assert ring_face_count(surf) == 0
        assert surf.genus == 0 and surf.rectangles == ()
