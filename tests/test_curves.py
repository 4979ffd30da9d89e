import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidplumb.curves as cv
from braidplumb.braidwords import BraidWord, parse_braid
from braidplumb.curves import (
    NormalCurve,
    TwistFactor,
    apply_monodromy,
    curve_from_rectangle,
    dehn_twist,
    geometric_intersection,
    reduce_cyclic,
    self_intersection,
    signed_intersection,
)
from braidplumb.errors import EmptyCurve, InvalidParameter, NonEmbeddedCore, NotAPath
from braidplumb.fatgraph import RectangleCurve, build_surface
from braidplumb.monodromy import intersection_form
from braidplumb.plumbing import detect_chain, torus_braid

FIGURE_BRAID = BraidWord(6, (4, 4, 3, 2, 1, 5, 5, 3, 4, 2, 2, 5, 3, 4, 1, 1, 2, 2, 3))


def surface(text):
    return build_surface(parse_braid(text))


def random_curve(s, rng):
    x = curve_from_rectangle(s, rng.choice(s.rectangles))
    return apply_monodromy(s, x, rng.randint(0, 3))


class TestReduce:
    def test_cancellation(self):
        s = surface("1 1 1")
        x = NormalCurve(s, (1, -1, 2, -3))
        assert x.word == (2, -3)

    def test_wraparound_cancellation(self):
        assert reduce_cyclic((2, 3, -3, 1, -2)) == (1,)

    def test_idempotent(self):
        s = surface("1 1 1")
        x = NormalCurve(s, (1, -2))
        assert NormalCurve(s, x.word).word == x.word

    def test_null_homotopic_raises(self):
        s = surface("1 1 1")
        with pytest.raises(EmptyCurve):
            NormalCurve(s, (1, -1))

    def test_homology_preserved_by_reduction(self):
        s = surface("1 1 1")
        messy = NormalCurve(s, (1, -3, 3, -2), reduce=True)
        clean = NormalCurve(s, (1, -2), reduce=False)
        assert messy.homology == clean.homology


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=0, max_size=14))
def test_reduce_cyclic_leaves_no_cancelling_pair(word):
    out = reduce_cyclic(tuple(word))
    n = len(out)
    for i in range(n):
        assert out[i] != -out[(i + 1) % n] or n == 1


class TestRectangleCurves:
    def test_two_edge_cycle(self):
        s = surface("1 1 1")
        top = curve_from_rectangle(s, s.rectangles[0])
        assert top.word == (1, -2)
        assert self_intersection(top) == 0
        assert top.homology == (1, 0)

    def test_all_rectangles_embedded_with_basis_homology(self):
        s = build_surface(torus_braid(4, 4))
        for idx, rect in enumerate(s.rectangles):
            x = curve_from_rectangle(s, rect)
            assert self_intersection(x) == 0
            assert x.homology == tuple(
                1 if i == idx else 0 for i in range(len(s.rectangles))
            )


class TestGeometricIntersection:
    def test_same_column_adjacent(self):
        s = surface("1 1 1")
        r1, r2 = (curve_from_rectangle(s, r) for r in s.rectangles)
        assert geometric_intersection(r1, r2) == 1

    def test_same_column_distant(self):
        s = surface("1 1 1 1")
        r1 = curve_from_rectangle(s, s.rectangles[0])
        r3 = curve_from_rectangle(s, s.rectangles[2])
        assert geometric_intersection(r1, r3) == 0

    def test_adjacent_columns(self):
        interleaved = surface("1 2 1 2")
        a, b = (curve_from_rectangle(interleaved, r) for r in interleaved.rectangles)
        assert geometric_intersection(a, b) == 1
        stacked = surface("1 1 2 2")
        a, b = (curve_from_rectangle(stacked, r) for r in stacked.rectangles)
        assert geometric_intersection(a, b) == 0

    def test_far_columns_disjoint(self):
        s = surface("1 1 2 2 3 3 1 2 3")
        col1 = curve_from_rectangle(s, s.rectangles[s.rect_index[(1, 0)]])
        col3 = curve_from_rectangle(s, s.rectangles[s.rect_index[(3, 4)]])
        assert geometric_intersection(col1, col3) == 0

    def test_symmetry(self):
        rng = random.Random(9)
        s = build_surface(torus_braid(3, 5))
        for _ in range(50):
            x, y = random_curve(s, rng), random_curve(s, rng)
            assert geometric_intersection(x, y) == geometric_intersection(y, x)

    def test_homological_bound(self):
        rng = random.Random(10)
        s = build_surface(torus_braid(3, 5))
        j = intersection_form(s)
        n = len(j)
        for _ in range(200):
            x, y = random_curve(s, rng), random_curve(s, rng)
            pairing = sum(
                x.homology[a] * j[a][b] * y.homology[b]
                for a in range(n)
                for b in range(n)
            )
            assert signed_intersection(x, y) == pairing
            assert abs(pairing) <= geometric_intersection(x, y)

    def test_same_class_copies_are_disjoint(self):
        s = surface("1 1 1")
        x = curve_from_rectangle(s, s.rectangles[0])
        y = NormalCurve(s, x.word, reduce=False)
        assert geometric_intersection(x, y) == 0


class TestDehnTwist:
    def test_disjoint_core_fixes_curve(self):
        s = surface("1 1 1 1")
        core = TwistFactor(curve_from_rectangle(s, s.rectangles[0]))
        x = curve_from_rectangle(s, s.rectangles[2])
        assert dehn_twist(core, x).word == x.word

    def test_core_fixes_itself(self):
        s = surface("1 1 1")
        gamma = curve_from_rectangle(s, s.rectangles[0])
        assert dehn_twist(TwistFactor(gamma), gamma).word == gamma.word

    def test_nonembedded_core_rejected(self):
        s = build_surface(torus_braid(3, 4))
        r0 = curve_from_rectangle(s, s.rectangles[0])
        x = apply_monodromy(s, r0, 1)
        # splice a figure-eight-like word: r0 followed by a far curve
        ugly = NormalCurve(s, x.word + x.word, reduce=False)
        if self_intersection(ugly) != 0:
            with pytest.raises(NonEmbeddedCore):
                TwistFactor(ugly)

    def test_trefoil_twists_match_transvections(self):
        s = surface("1 1 1")
        j = intersection_form(s)
        bottom = TwistFactor(curve_from_rectangle(s, s.rectangles[1]))
        top = TwistFactor(curve_from_rectangle(s, s.rectangles[0]))
        r1 = curve_from_rectangle(s, s.rectangles[0])
        after_bottom = dehn_twist(bottom, r1)
        pairing = sum(
            r1.homology[a] * j[a][1] for a in range(2)
        )
        expect = tuple(
            r1.homology[k] + cv.RIGHT_HANDED_SIGN * pairing * (1 if k == 1 else 0)
            for k in range(2)
        )
        assert after_bottom.homology == expect
        after_both = dehn_twist(top, after_bottom)
        assert after_both.homology != r1.homology

    def test_transvection_property_random(self):
        rng = random.Random(31)
        s = build_surface(torus_braid(3, 4))
        j = intersection_form(s)
        n = len(j)
        for _ in range(300):
            gamma = curve_from_rectangle(s, rng.choice(s.rectangles))
            x = random_curve(s, rng)
            right = rng.random() < 0.5
            tw = dehn_twist(TwistFactor(gamma, right=right), x)
            pairing = sum(
                x.homology[a] * j[a][b] * gamma.homology[b]
                for a in range(n)
                for b in range(n)
            )
            sign = cv.RIGHT_HANDED_SIGN if right else -cv.RIGHT_HANDED_SIGN
            expect = tuple(
                x.homology[k] + sign * pairing * gamma.homology[k] for k in range(n)
            )
            assert tw.homology == expect

    def test_left_inverts_right(self):
        rng = random.Random(32)
        s = build_surface(torus_braid(3, 4))
        for _ in range(200):
            gamma = curve_from_rectangle(s, rng.choice(s.rectangles))
            x = random_curve(s, rng)
            y = dehn_twist(TwistFactor(gamma, right=True), x)
            z = dehn_twist(TwistFactor(gamma, right=False), y)
            assert z.is_isotopic(x, oriented=True)

    def test_twists_preserve_intersections(self):
        rng = random.Random(33)
        s = build_surface(torus_braid(3, 4))
        for _ in range(200):
            f = TwistFactor(curve_from_rectangle(s, rng.choice(s.rectangles)))
            x, y = random_curve(s, rng), random_curve(s, rng)
            assert geometric_intersection(
                dehn_twist(f, x), dehn_twist(f, y)
            ) == geometric_intersection(x, y)

    def test_core_intersection_preserved(self):
        rng = random.Random(34)
        s = build_surface(torus_braid(3, 5))
        for _ in range(100):
            f = TwistFactor(curve_from_rectangle(s, rng.choice(s.rectangles)))
            x = random_curve(s, rng)
            assert geometric_intersection(
                dehn_twist(f, x), f.core
            ) == geometric_intersection(x, f.core)


class TestMonodromyOrbits:
    def test_torus43_steps(self):
        s = build_surface(torus_braid(4, 3))
        r = curve_from_rectangle(s, s.top_left_rectangle())
        for k in (1, 2):
            image = apply_monodromy(s, r, k)
            target = curve_from_rectangle(s, s.rectangles[s.rect_index[(k + 1, k)]])
            assert image.is_isotopic(target)

    def test_torus38_shift_three(self):
        s = build_surface(torus_braid(3, 8))
        r = curve_from_rectangle(s, s.top_left_rectangle())
        shifted = apply_monodromy(s, r, 3)
        target = curve_from_rectangle(s, s.rectangles[s.rect_index[(1, 6)]])
        assert shifted.is_isotopic(target)

    def test_torus57_shift_five(self):
        s = build_surface(torus_braid(5, 7))
        r = curve_from_rectangle(s, s.top_left_rectangle())
        shifted = apply_monodromy(s, r, 5)
        target = curve_from_rectangle(s, s.rectangles[s.rect_index[(1, 20)]])
        assert shifted.is_isotopic(target)

    def test_inverse_monodromy_inverts(self):
        s = build_surface(torus_braid(3, 4))
        rng = random.Random(35)
        for _ in range(20):
            x = random_curve(s, rng)
            # The inverse monodromy: left twists in the reverse order.
            y = apply_monodromy(s, x, 1)
            for idx in reversed(s.twist_ordering):
                core = curve_from_rectangle(s, s.rectangles[idx])
                y = dehn_twist(TwistFactor(core, right=False), y)
            assert y.is_isotopic(x, oriented=True)

    def test_negative_power_rejected(self):
        s = build_surface(torus_braid(3, 4))
        r = curve_from_rectangle(s, s.top_left_rectangle())
        with pytest.raises(InvalidParameter):
            apply_monodromy(s, r, -1)


@st.composite
def small_surfaces(draw):
    s = draw(st.integers(min_value=2, max_value=5))
    c = draw(st.integers(min_value=s, max_value=12))
    base = list(range(1, s)) + [
        draw(st.integers(min_value=1, max_value=s - 1)) for _ in range(c - s + 1)
    ]
    return build_surface(BraidWord(s, tuple(draw(st.permutations(base)))))


def drawn_curve(s, data):
    """A monodromy image of a rectangle circle, perhaps twisted once more,
    and then perhaps doubled or multiplied with a second such curve at a
    common strand disk, so that non-embedded curves are drawn too."""

    def orbit_curve():
        x = curve_from_rectangle(s, data.draw(st.sampled_from(s.rectangles)))
        x = apply_monodromy(s, x, data.draw(st.integers(min_value=0, max_value=3)))
        if data.draw(st.booleans()):
            core = curve_from_rectangle(s, data.draw(st.sampled_from(s.rectangles)))
            x = dehn_twist(TwistFactor(core, right=data.draw(st.booleans())), x)
        return x

    x = orbit_curve()
    kind = data.draw(st.sampled_from(["simple", "double", "product"]))
    if kind == "double":
        return NormalCurve(s, x.word * 2, reduce=False)
    if kind == "product":
        y = orbit_curve()
        at = {t[0]: i for i, t in enumerate(x.transits())}
        for j, t in enumerate(y.transits()):
            if t[0] in at:
                i = at[t[0]]
                word = x.word[i:] + x.word[:i] + y.word[j:] + y.word[:j]
                if reduce_cyclic(word):
                    return NormalCurve(s, word)
                break
    return x


class TestMonodromyInvariance:
    # The chain detector's orbit criterion rests on this: the monodromy is
    # a homeomorphism, so it keeps both intersection numbers.
    @settings(max_examples=150, deadline=None)
    @given(small_surfaces(), st.data())
    def test_monodromy_keeps_intersection_numbers(self, s, data):
        x, y = drawn_curve(s, data), drawn_curve(s, data)
        fx, fy = apply_monodromy(s, x, 1), apply_monodromy(s, y, 1)
        assert geometric_intersection(fx, fy) == geometric_intersection(x, y)
        assert self_intersection(fx) == self_intersection(x)


class TestTraversesBand:
    def test_rectangle_traverses_own_bands_once(self):
        s = surface("1 1 1")
        r = curve_from_rectangle(s, s.rectangles[0])
        assert r.traverses(0) == 1
        assert r.traverses(1) == 1
        assert r.traverses(2) == 0

    def test_figure_braid_image_avoids_top_band(self):
        s = build_surface(FIGURE_BRAID)
        assert FIGURE_BRAID.letters[0] == FIGURE_BRAID.letters[1] == 4
        r = curve_from_rectangle(s, s.rectangles[s.rect_index[(4, 0)]])
        image = apply_monodromy(s, r, 1)
        assert image.traverses(0) == 0


# ---------------------------------------------------------------------------
# Oracles: the full-scan crossing search and the sort-based linking rule
# ---------------------------------------------------------------------------


def oracle_linked(keys):
    """Sort the four germs around the disk, start at x's incoming one, and
    read off whether the germs alternate.  keys[t] = (slot, tie-break)."""
    tags = sorted(range(4), key=lambda t: keys[t])
    z = tags.index(cv._XB)
    tags = tags[z:] + tags[:z]
    if tags[1] >= 2 and tags[2] == cv._XF:
        return (1 if tags[1] == cv._YB else -1, tags[1])
    return None


def ring_slots(word):
    """Each end's slot in its strand's ring, the ring listing the crossings
    that meet the strand in word order."""
    slot, seen = {}, {}
    for j, g in enumerate(word.letters):
        for end, v in ((2 * j, g), (2 * j + 1, g + 1)):
            slot[end] = seen.get(v, 0)
            seen[v] = slot[end] + 1
    return slot


def oracle_pair_event(surface, wx, Lx, tx, ix, wy, Ly, ty, jy, bound):
    _, inx, outx = tx[ix]
    _, iny, outy = ty[jy]
    if inx == iny:
        return None
    if outx == outy:
        bundle = (cv._XF, cv._YF)
    elif outx == iny:
        if inx == outy:
            return None
        bundle = (cv._XF, cv._YB)
    elif inx == outy:
        return None
    else:
        bundle = None
    slot = ring_slots(surface.word)
    keys = [[slot[inx], 0], [slot[outx], 0], [slot[iny], 0], [slot[outy], 0]]
    if bundle is not None:
        t1, t2 = bundle
        g1 = (wx, Lx, ix, t1 == cv._XF) if t1 < 2 else (wy, Ly, jy, t1 == cv._YF)
        g2 = (wx, Lx, ix, t2 == cv._XF) if t2 < 2 else (wy, Ly, jy, t2 == cv._YF)
        order = cv._compare_germs(surface, g1, g2, bound)
        if order == 0:
            return None
        if order < 0:
            keys[t2][1] = 1
        else:
            keys[t1][1] = 1
    return oracle_linked([tuple(k) for k in keys])


def oracle_events(surface, x, y):
    """Every transit of x against every transit of y at the same disk."""
    wx, wy = x.word, y.word
    Lx, Ly = len(wx), len(wy)
    tx, ty = x.transits(), y.transits()
    bound = Lx + Ly + 2
    out = []
    for i in range(Lx):
        for j in range(Ly):
            if tx[i][0] != ty[j][0] or (x is y and i == j):
                continue
            ev = oracle_pair_event(surface, wx, Lx, tx, i, wy, Ly, ty, j, bound)
            if ev is not None:
                out.append((i, j, ev[0], ev[1]))
    return out


class TestLinkingRule:
    def test_every_key_order(self):
        for perm in itertools.permutations(range(4)):
            keys = [(p, 0) for p in perm]
            assert cv._linked(*perm) == oracle_linked(keys)

    def test_every_tie_broken_order(self):
        # A bundle shares one end, (XF, YF) or (XF, YB); the germ compare
        # lifts one of the two.  The other two germs take the remaining
        # slots of a ring of three in every order.
        for t1, t2 in ((cv._XF, cv._YF), (cv._XF, cv._YB)):
            rest = [t for t in range(4) if t not in (t1, t2)]
            for slots in itertools.permutations(range(3)):
                for lifted in (t1, t2):
                    keys = [None] * 4
                    keys[t1] = (slots[0], int(lifted == t1))
                    keys[t2] = (slots[0], int(lifted == t2))
                    keys[rest[0]] = (slots[1], 0)
                    keys[rest[1]] = (slots[2], 0)
                    flat = [2 * a + b for a, b in keys]
                    assert cv._linked(*flat) == oracle_linked(keys)


@st.composite
def connected_surfaces(draw, max_strands=7, max_length=20):
    s = draw(st.integers(min_value=2, max_value=max_strands))
    c = draw(st.integers(min_value=s, max_value=max_length))
    base = list(range(1, s)) + [
        draw(st.integers(min_value=1, max_value=s - 1)) for _ in range(c - s + 1)
    ]
    return build_surface(BraidWord(s, tuple(draw(st.permutations(base)))))


def fresh(curve):
    """The same word as a new, uncached curve."""
    return NormalCurve(curve.surface, curve.word, reduce=False)


class TestEngineAgainstOracles:
    @settings(max_examples=40, deadline=None)
    @given(connected_surfaces(), st.data())
    def test_events_twists_and_self_intersection(self, s, data):
        cores = [curve_from_rectangle(s, r) for r in s.rectangles]
        seed = data.draw(st.sampled_from(cores))
        orbit = [apply_monodromy(s, seed, k) for k in range(4)]
        other = apply_monodromy(s, data.draw(st.sampled_from(cores)), 1)
        for x in orbit:
            for y in cores + [other]:
                assert cv._events(s, fresh(x), fresh(y)) == oracle_events(s, x, y)
                assert cv._events(s, fresh(y), fresh(x)) == oracle_events(s, y, x)
            x2 = fresh(x)
            count = len(oracle_events(s, x2, x2))
            assert cv._events(s, x2, x2) == oracle_events(s, x2, x2)
            assert self_intersection(fresh(x)) == count // 2
            for core in cores:
                for right in (True, False):
                    out = dehn_twist(TwistFactor(core, right=right), fresh(x))
                    cv._path_transits(s, out.word)

    def test_non_embedded_curve_matches_oracle(self):
        s = build_surface(torus_braid(3, 4))
        r0 = curve_from_rectangle(s, s.rectangles[0])
        x = apply_monodromy(s, r0, 2)
        for y in (x, apply_monodromy(s, x, 1)):
            twice = NormalCurve(s, y.word + y.word, reduce=False)
            events = cv._events(s, fresh(twice), fresh(twice))
            assert events == oracle_events(s, twice, twice)

    def test_rectangle_cores_take_the_fast_path(self, monkeypatch):
        s = build_surface(torus_braid(4, 5))

        def no_scan(*args):
            raise AssertionError("_events called on a curve passing each disk once")

        monkeypatch.setattr(cv, "_events", no_scan)
        for r in s.rectangles:
            TwistFactor(curve_from_rectangle(s, r))



class TestPrimitiveRoot:
    @settings(max_examples=60, deadline=None)
    @given(connected_surfaces(), st.data())
    def test_cached_root_equals_the_scan(self, s, data):
        seed = curve_from_rectangle(s, data.draw(st.sampled_from(s.rectangles)))
        x = apply_monodromy(s, seed, data.draw(st.integers(min_value=0, max_value=3)))
        for power in (1, 2, 3):
            # x.word is cyclically reduced, so its powers are too
            curve = NormalCurve(s, x.word * power, reduce=False)
            assert curve.primitive_root() == cv._primitive_root(curve.word)
            assert curve.primitive_root() is curve.primitive_root()

    def test_intersections_read_the_cached_root(self, monkeypatch):
        s = build_surface(torus_braid(3, 4))
        r0 = curve_from_rectangle(s, s.rectangles[0])
        curves = [apply_monodromy(s, r0, k) for k in range(3)]
        curves.append(curve_from_rectangle(s, s.rectangles[1]))
        assert all(c.primitive_root()[1] == 1 for c in curves)
        pairs = [(a, b) for a in curves for b in curves]
        expected = [(geometric_intersection(a, b), signed_intersection(a, b)) for a, b in pairs]

        def no_scan(word):
            raise AssertionError("primitive root recomputed")

        monkeypatch.setattr(cv, "_primitive_root", no_scan)
        got = [(geometric_intersection(a, b), signed_intersection(a, b)) for a, b in pairs]
        assert got == expected


def full_sweep_step(s, factors, x, skipped):
    """One monodromy step by the sweep without the window rule: every
    factor in twist order.  Twists the window rule skips go to `skipped`."""
    for idx, f in zip(s.twist_ordering, factors):
        if not cv._meets_window(fresh(x), s.rectangles[idx]):
            skipped.append((f, x))
        x = dehn_twist(f, x)
    return x


class TestWindowSweep:
    @settings(max_examples=40, deadline=None)
    @given(connected_surfaces(), st.data())
    def test_sweep_equals_the_full_sweep(self, s, data):
        factors = [TwistFactor(curve_from_rectangle(s, s.rectangles[i])) for i in s.twist_ordering]
        for rect in s.rectangles:
            seed = curve_from_rectangle(s, rect)
            chain = detect_chain(s, rect, s.b1 + 1)
            iterates, skipped = [seed], []
            while len(iterates) < max(5, chain.n):
                iterates.append(full_sweep_step(s, factors, iterates[-1], skipped))
            for power in range(4):
                # Same word, not just the same class; from the seed and
                # from a fresh copy of each iterate.
                assert apply_monodromy(s, seed, power).word == iterates[power].word
                step = apply_monodromy(s, fresh(iterates[power]), 1)
                assert step.word == iterates[power + 1].word
            assert chain.curve_words == tuple(x.word for x in iterates[: chain.n])
            for f, x in skipped:
                assert cv._events(s, fresh(x), f.core) == []
                assert dehn_twist(f, x) is x

    @settings(max_examples=30, deadline=None)
    @given(connected_surfaces(), st.data())
    def test_foreign_curve_raises(self, s, data):
        twin = build_surface(s.word)
        rect = data.draw(st.sampled_from(twin.rectangles))
        x = apply_monodromy(twin, curve_from_rectangle(twin, rect), data.draw(st.integers(0, 2)))
        assert apply_monodromy(s, x, 0) is x
        for power in (1, 2, 3):
            with pytest.raises(NonEmbeddedCore, match="^core and curve live on different surfaces$"):
                apply_monodromy(s, x, power)

    def test_foreign_curve_outside_every_window_raises(self):
        s = surface("1 1 1")
        far = surface("1 1 1 1 1 1")
        x = curve_from_rectangle(far, far.rectangles[-1])  # crossings 4 and 5
        assert not any(cv._meets_window(x, r) for r in s.rectangles)
        with pytest.raises(NonEmbeddedCore, match="^core and curve live on different surfaces$"):
            apply_monodromy(s, x, 1)
        # b1 = 0: no twist, so nothing refuses the curve.
        assert apply_monodromy(surface("1 2"), x, 1) is x


def rectangle_twist_inputs(s, seeds):
    """The monodromy iterates phi^k(C), k <= 3, of each seed circle C, and
    their left twists along every rectangle; one curve per word."""
    lefts = [TwistFactor(curve_from_rectangle(s, r), right=False) for r in s.rectangles]
    curves = {}
    for seed in seeds:
        x = curve_from_rectangle(s, seed)
        for k in range(4):
            curves[x.word] = x
            for f in lefts:
                y = dehn_twist(f, x)
                curves.setdefault(y.word, y)
            x = apply_monodromy(s, x, 1)
    return list(curves.values())


def check_rectangle_twists(s, curves):
    """The push-off twist along each rectangle against the linked-pair
    twist along its circle, word for word, and the curve itself back when
    the twist fixes it; returns the pair count."""
    factors = [TwistFactor(curve_from_rectangle(s, r)) for r in s.rectangles]
    for x in curves:
        for rect, f in zip(s.rectangles, factors):
            want = dehn_twist(f, fresh(x))
            y = fresh(x)
            got = dehn_twist(rect, y)
            assert got.word == want.word, (s.word.letters, rect, x.word)
            if want.word == x.word:
                assert got is y
    return len(curves) * len(factors)


class TestRectangleTwist:
    @settings(max_examples=40, deadline=None)
    @given(connected_surfaces(max_strands=8, max_length=30), st.data())
    def test_equals_the_factor_twist(self, s, data):
        cores = [curve_from_rectangle(s, r) for r in s.rectangles]
        seed = data.draw(st.sampled_from(s.rectangles))
        curves = rectangle_twist_inputs(s, [seed]) + cores
        # Each core's other rotation, its reverse and the reverse's rotation.
        for core in cores:
            w = core.word
            for word in (w[::-1], core.reversed_word(), (-w[0], -w[1])):
                curves.append(NormalCurve(s, word, reduce=False))
        check_rectangle_twists(s, curves)

    def test_push_off_equals_the_linked_pair_twist(self):
        pairs = 0
        for s in range(2, 5):
            for c in range(s - 1, 8):
                for letters in itertools.product(range(1, s), repeat=c):
                    word = BraidWord(s, letters)
                    if word.is_connected:
                        surf = build_surface(word)
                        inputs = rectangle_twist_inputs(surf, surf.rectangles)
                        pairs += check_rectangle_twists(surf, inputs)
        assert pairs == 245520

    @pytest.mark.parametrize(
        "text, rect, word, image",
        [
            # A run along the core that straddles the word's start: the
            # image keeps the rotation of the insertion at the run's entry.
            ("2 2 2 2 2 1 2 2 1", (2, 2, 3), (-3, 4, -5, 4), (4, -5)),
            ("2 2 1 2 1 1", (2, 1, 3), (-1, 2, -1, 4), (-1, 2, -4, 2, -1, 2)),
            ("2 1 1 1 2 1 1 2 1 2 1", (1, 1, 2), (-6, 3), (-6, 2)),
        ],
    )
    def test_run_across_the_word_start(self, text, rect, word, image):
        s = surface(text)
        rect = RectangleCurve(*rect)
        x = NormalCurve(s, word, reduce=False)
        assert dehn_twist(rect, x).word == image
        core = curve_from_rectangle(s, rect)
        assert dehn_twist(TwistFactor(core), fresh(x)).word == image

    def test_rectangle_of_another_surface_is_refused(self):
        s = surface("1 1 1")
        x = curve_from_rectangle(s, s.rectangles[0])
        other = surface("1 2 1 2")  # (1, 0, 2) and (2, 1, 3)
        made_up = [RectangleCurve(1, 0, 2), RectangleCurve(1, 2, 3), RectangleCurve(2, 0, 1)]
        for rect in list(other.rectangles) + made_up:
            with pytest.raises(NonEmbeddedCore, match="is not a rectangle of the curve's surface$"):
                dehn_twist(rect, x)
        # The same crossings on another surface of the same word are a
        # rectangle of this one.
        twin = build_surface(s.word)
        assert dehn_twist(twin.rectangles[1], x).word == dehn_twist(s.rectangles[1], x).word


    @settings(max_examples=40, deadline=None)
    @given(connected_surfaces(max_length=14), st.data())
    def test_refused_exactly_when_not_a_rectangle(self, s, data):
        # Every triple with g a generator and top, bottom any position (in
        # either order) or one step outside the word, on the curve's
        # surface and on a twin built from the same word.
        twin = build_surface(s.word)
        rect = data.draw(st.sampled_from(s.rectangles))
        x = apply_monodromy(s, curve_from_rectangle(s, rect), data.draw(st.integers(0, 2)))
        x_twin = NormalCurve(twin, x.word, reduce=False)
        rects = set(s.rectangles)
        assert rects == set(twin.rectangles)
        c = s.word.length
        for g in range(1, s.word.strands):
            for top, bottom in itertools.product(range(-1, c + 1), repeat=2):
                triple = RectangleCurve(g, top, bottom)
                images = []
                for y in (x, x_twin):
                    try:
                        images.append(dehn_twist(triple, y).word)
                    except NonEmbeddedCore as exc:
                        assert str(exc) == f"{triple} is not a rectangle of the curve's surface"
                        images.append(None)
                assert (images[0] is not None) == (triple in rects), triple
                assert images[0] == images[1]


def check_rectangle_pairings(s):
    """The closed form against the event scan on the rectangle circles, for
    every ordered pair of rectangles."""
    rects = s.rectangles
    circles = [curve_from_rectangle(s, r) for r in rects]
    for a, ca in zip(rects, circles):
        for b, cb in zip(rects, circles):
            assert signed_intersection(a, b) == signed_intersection(ca, cb), (a, b)
    return len(rects) ** 2


@st.composite
def wide_surfaces(draw):
    s = draw(st.integers(min_value=2, max_value=9))
    c = draw(st.integers(min_value=s - 1, max_value=35))
    base = list(range(1, s)) + [
        draw(st.integers(min_value=1, max_value=s - 1)) for _ in range(c - s + 1)
    ]
    return build_surface(BraidWord(s, tuple(draw(st.permutations(base)))))


class TestRectanglePairing:
    def test_every_small_word(self):
        pairs = 0
        for s in range(2, 5):
            for c in range(s - 1, 8):
                for letters in itertools.product(range(1, s), repeat=c):
                    word = BraidWord(s, letters)
                    if word.is_connected:
                        pairs += check_rectangle_pairings(build_surface(word))
        assert pairs == 38957

    @settings(max_examples=60, deadline=None)
    @given(wide_surfaces())
    def test_random_words(self, s):
        check_rectangle_pairings(s)

    def test_mixed_types_are_refused(self):
        s = surface("1 2 1 2")
        rect = s.rectangles[0]
        circle = curve_from_rectangle(s, s.rectangles[1])
        for x, y in ((rect, circle), (circle, rect)):
            with pytest.raises(InvalidParameter):
                signed_intersection(x, y)


class TestPathErrors:
    def test_out_of_range_traversal(self):
        s = surface("1 1 1")
        with pytest.raises(NotAPath, match="traversal 4 outside the edge range 1..3"):
            NormalCurve(s, (1, 4))

    def test_word_that_does_not_close(self):
        s = surface("1 2 1 2")
        # Both go up from strand 1, so the first junction fails.
        with pytest.raises(NotAPath, match="traversals 1 -> 3 do not share a strand disk"):
            NormalCurve(s, (1, 3), reduce=False)

    def test_null_homotopic_word_stays_empty_curve(self):
        s = surface("1 1 1")
        with pytest.raises(EmptyCurve):
            NormalCurve(s, (1, -1))
        assert not issubclass(NotAPath, EmptyCurve)

    def test_traversal_outside_the_range_is_named_first(self):
        s = surface("1 1 1")
        for t in (0, 4, -4):
            # (t, 2) is not a path either; the range check still comes first.
            with pytest.raises(NotAPath) as err:
                NormalCurve(s, (t, 2), reduce=False)
            assert str(err.value) == f"traversal {t} outside the edge range 1..3"

    def test_first_broken_junction_in_word_order(self):
        s = surface("1 2 1 2")
        # +1 and +3 run from strand 1 to 2, +2 and +4 from strand 2 to 3.
        # Each word has a broken closing junction and one broken inner one.
        for word, pair in (((1, 2, 3), "2 -> 3"), ((1, 3, 2), "1 -> 3")):
            with pytest.raises(NotAPath) as err:
                NormalCurve(s, word, reduce=False)
            assert str(err.value) == f"traversals {pair} do not share a strand disk"


def first_broken_junction(s, word):
    """The path check by its definition: junctions word[i] -> word[i+1] in
    word order, the closing one last."""
    L = len(word)
    for i in range(L):
        a, b = word[i], word[(i + 1) % L]
        here = s.end_vertex[2 * abs(a) - 1 if a > 0 else 2 * abs(a) - 2]
        there = s.end_vertex[2 * abs(b) - 2 if b > 0 else 2 * abs(b) - 1]
        if here != there:
            return f"traversals {a} -> {b} do not share a strand disk"
    return None


def transits_by_position(s, word):
    """Transit i recomputed on its own from the half-edge encoding."""
    out = []
    for i, t in enumerate(word):
        prev = word[i - 1]
        inc = 2 * abs(prev) - 1 if prev > 0 else 2 * abs(prev) - 2
        dep = 2 * abs(t) - 2 if t > 0 else 2 * abs(t) - 1
        out.append((s.end_vertex[dep], inc, dep))
    return out


class TestPathCheck:
    @settings(max_examples=200, deadline=None)
    @given(connected_surfaces(), st.data())
    def test_any_word_against_the_junction_scan(self, s, data):
        c = s.word.length
        traversal = st.integers(min_value=1, max_value=c).flatmap(
            lambda j: st.sampled_from((j, -j))
        )
        word = tuple(data.draw(st.lists(traversal, min_size=1, max_size=8)))
        message = first_broken_junction(s, word)
        if message is None:
            assert NormalCurve(s, word, reduce=False).transits() == transits_by_position(s, word)
        else:
            with pytest.raises(NotAPath) as err:
                NormalCurve(s, word, reduce=False)
            assert str(err.value) == message

    @settings(max_examples=40, deadline=None)
    @given(connected_surfaces(), st.data())
    def test_transits_of_monodromy_images(self, s, data):
        seed = curve_from_rectangle(s, data.draw(st.sampled_from(s.rectangles)))
        for power in range(4):
            x = apply_monodromy(s, seed, power)
            assert x.transits() == transits_by_position(s, x.word)
