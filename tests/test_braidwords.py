import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidplumb.braidwords import (
    BraidRelation,
    BraidWord,
    Carry,
    CyclicConjugate,
    Destabilize,
    braid_invariants,
    is_trivial_closure,
    min_rotation,
    parse_braid,
    replay_moves,
    square_normalization,
    square_prefix_generator,
)
from braidplumb.errors import (
    DisconnectedWord,
    IllegalMove,
    InvalidGenerator,
    TrivialLink,
)


def count_words(monkeypatch):
    """Count BraidWord constructions from now on, by wrapping __post_init__;
    the returned one-item list holds the count."""
    built = [0]
    check = BraidWord.__post_init__

    def counted(self):
        built[0] += 1
        check(self)

    monkeypatch.setattr(BraidWord, "__post_init__", counted)
    return built


def oracle_components(letters, strands):
    """Independent permutation-product oracle."""
    perm = list(range(strands))
    for x in letters:
        perm[x - 1], perm[x] = perm[x], perm[x - 1]
    seen = set()
    count = 0
    for start in range(strands):
        if start in seen:
            continue
        count += 1
        v = start
        while v not in seen:
            seen.add(v)
            v = perm[v]
    return count


@st.composite
def connected_words(draw):
    """Connected words on up to 8 strands and 24 letters, links included."""
    s = draw(st.integers(min_value=2, max_value=8))
    c = draw(st.integers(min_value=s - 1, max_value=24))
    base = list(range(1, s)) + [
        draw(st.integers(min_value=1, max_value=s - 1)) for _ in range(c - s + 1)
    ]
    return BraidWord(s, tuple(draw(st.permutations(base))))


class TestParse:
    def test_strands_default(self):
        w = parse_braid("1 2 2 3")
        assert w.strands == 4 and w.letters == (1, 2, 2, 3)

    def test_figure_word(self):
        w = parse_braid("3 1 2 2 3 1 2 1")
        assert w.strands == 4 and w.length == 8

    def test_rejects_zero(self):
        with pytest.raises(InvalidGenerator):
            parse_braid("0 1")

    def test_rejects_non_integer(self):
        with pytest.raises(InvalidGenerator):
            parse_braid("1 x")

    def test_rejects_letter_beyond_strands(self):
        with pytest.raises(InvalidGenerator):
            parse_braid("1 3", strands=3)

    def test_explicit_strands(self):
        assert parse_braid("1", strands=5).strands == 5


class TestClosure:
    def test_single_crossing(self):
        assert parse_braid("1").components == 1

    def test_torus_33(self):
        w = parse_braid("1 2 1 2 1 2")
        assert w.components == len(w.cycles()) == 3
        assert oracle_components(w.letters, 3) == 3

    def test_figure_word_two_components(self):
        w = parse_braid("3 1 2 2 3 1 2 1")
        assert w.components == len(w.cycles()) == 2
        assert oracle_components(w.letters, 4) == 2

    def test_matches_oracle_randomly(self):
        rng = random.Random(11)
        for _ in range(300):
            s = rng.randint(2, 7)
            letters = tuple(rng.randint(1, s - 1) for _ in range(rng.randint(0, 12)))
            w = BraidWord(s, letters)
            assert w.components == oracle_components(letters, s)
            assert w.is_knot == (oracle_components(letters, s) == 1)

    def test_more_strands_than_letters_plus_one_is_no_knot(self):
        # c transpositions leave at least s - c cycles, so the answer needs
        # no permutation; a 10**18-entry one could not be built.
        assert not BraidWord(10**18, (1,)).is_knot
        assert not BraidWord(10**18, ()).is_knot
        assert BraidWord(2, (1,)).is_knot and BraidWord(1, ()).is_knot


class TestInvariants:
    def test_trefoil(self):
        rep = braid_invariants(parse_braid("1 1 1"))
        assert (rep.c, rep.b1, rep.genus) == (3, 2, 1)

    def test_torus_43_genus(self):
        rep = braid_invariants(parse_braid("1 2 3 1 2 3 1 2 3"))
        assert rep.genus == 3  # (p-1)(q-1)/2 for coprime p=4, q=3

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedWord):
            braid_invariants(BraidWord(4, (1, 2, 1)))

    def test_reduced_flag(self):
        assert braid_invariants(parse_braid("1 1 2 2")).reduced
        assert not braid_invariants(parse_braid("1 1 2")).reduced


class TestMoves:
    def test_braid_relation(self):
        w = BraidWord(3, (1, 2, 1))
        assert replay_moves(w, [BraidRelation(0, 1)]).letters == (2, 1, 2)
        back = replay_moves(BraidWord(3, (2, 1, 2)), [BraidRelation(0, -1)])
        assert back.letters == (1, 2, 1)

    @pytest.mark.parametrize("direction", [7, 0])
    def test_braid_relation_direction_must_be_unit(self, direction):
        with pytest.raises(IllegalMove, match=f"direction {direction} does not fit"):
            replay_moves(BraidWord(3, (1, 2, 1)), [BraidRelation(0, direction)])

    def test_cyclic(self):
        w = BraidWord(3, (1, 2, 2))
        assert replay_moves(w, [CyclicConjugate(1)]).letters == (2, 2, 1)

    def test_commutation(self):
        w = BraidWord(4, (1, 3))
        assert replay_moves(w, [Carry(0, 1)]).letters == (3, 1)
        with pytest.raises(IllegalMove):
            replay_moves(BraidWord(3, (1, 2)), [Carry(0, 1)])

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_carry_matches_adjacent_swaps(self, data):
        letters = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=12))
        source, target = (
            data.draw(st.integers(0, len(letters) - 1), label=name)
            for name in ("source", "target")
        )
        w = BraidWord(9, tuple(letters))
        want = carry_by_swaps(letters, source, target)
        if isinstance(want, int):
            with pytest.raises(IllegalMove, match=f" position {want} blocks "):
                replay_moves(w, [Carry(source, target)])
        else:
            assert replay_moves(w, [Carry(source, target)]).letters == want

    @pytest.mark.parametrize("source,target", [(-1, 0), (0, -1), (3, 0), (0, 3), (-3, 2)])
    def test_carry_outside_the_word_is_illegal(self, source, target):
        # Every pair of letters commutes, so a wrapped index would replay.
        w = BraidWord(6, (1, 3, 5))
        with pytest.raises(IllegalMove, match="inside the word"):
            replay_moves(w, [Carry(source, target)])

    def test_carry_in_place_is_a_no_op(self):
        w = BraidWord(3, (1, 2, 1))
        for p in range(3):
            assert replay_moves(w, [Carry(p, p)]) == w

    def test_destabilize_needs_single_occurrence(self):
        with pytest.raises(IllegalMove):
            replay_moves(BraidWord(4, (3, 3, 1)), [Destabilize(3)])

    def test_destabilize_merges_blocks(self):
        # lone s_2 between interleaved blocks: sorting before renumbering
        # is what keeps the closure intact.
        w = BraidWord(5, (2, 1, 4, 2, 1, 2, 4, 2, 3, 4))
        out = replay_moves(w, [Destabilize(3)])
        assert out.strands == 4
        assert out.components == w.components == 1

    def test_replay_matches_single_moves(self):
        w = BraidWord(4, (1, 2, 1, 3, 1))
        moves = [
            BraidRelation(0, 1),
            Carry(3, 4),
            CyclicConjugate(-2),
            Destabilize(3),
        ]
        step = w
        for move in moves:
            step = replay_moves(step, [move])
        assert replay_moves(w, moves) == step == BraidWord(3, (2, 1, 2, 1))
        assert w.letters == (1, 2, 1, 3, 1)

    def test_replay_stops_at_illegal_move(self):
        w = BraidWord(4, (1, 3, 2, 2))
        with pytest.raises(IllegalMove, match="letters 1, 2 do not commute"):
            replay_moves(w, [Carry(0, 1), Carry(1, 2)])

    def test_moves_preserve_components_and_b1(self):
        rng = random.Random(3)
        for _ in range(400):
            s = rng.randint(2, 6)
            c = rng.randint(max(2, s - 1), 10)
            base = list(range(1, s)) + [
                rng.randint(1, s - 1) for _ in range(c - s + 1)
            ]
            rng.shuffle(base)
            w = BraidWord(s, tuple(base))
            candidates = [CyclicConjugate(rng.randrange(c))]
            for p in range(c - 2):
                a, b, a2 = w.letters[p], w.letters[p + 1], w.letters[p + 2]
                if a == a2 and abs(a - b) == 1:
                    candidates.append(BraidRelation(p, 1 if b == a + 1 else -1))
            for p in range(c - 1):
                if abs(w.letters[p] - w.letters[p + 1]) >= 2:
                    candidates.append(Carry(p, p + 1))
            for g in set(w.letters):
                if w.letters.count(g) == 1:
                    candidates.append(Destabilize(g))
            for move in candidates:
                w2 = replay_moves(w, [move])
                assert w2.components == w.components
                if w.is_connected and w2.is_connected:
                    assert w2.b1 == w.b1


def carry_by_swaps(letters, source, target):
    """Reference carry: adjacent transpositions from source towards target.

    Returns the letters after the carry, or the first position whose letter
    is within 1 of the carried one: the letter the carry cannot pass.
    """
    out = list(letters)
    step = 1 if target > source else -1
    for p in range(source, target, step):
        if abs(out[p] - out[p + step]) < 2:
            return p + step
        out[p], out[p + step] = out[p + step], out[p]
    return tuple(out)


def all_rotations_minimum(letters):
    """Reference least rotation: the minimum over every rotation."""
    return min((letters[r:] + letters[:r] for r in range(len(letters))), default=())


def block_scan_trivial(word):
    """Reference triviality test: split the word into blocks of consecutive
    present generators; each block closes to an unknot exactly when every
    generator in it occurs once."""
    counts = [0] * (word.strands + 1)
    for x in word.letters:
        counts[x] += 1
    g = 1
    while g < word.strands:
        if counts[g] == 0:
            g += 1
            continue
        block_total = 0
        block_gens = 0
        while g < word.strands and counts[g] > 0:
            block_total += counts[g]
            block_gens += 1
            g += 1
        if block_total != block_gens:
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=10))
def test_min_rotation_is_rotation_invariant(letters):
    t = tuple(letters)
    base = min_rotation(t)
    for r in range(len(t)):
        assert min_rotation(t[r:] + t[:r]) == base
    assert sorted(base) == sorted(t)


class TestMinRotation:
    def test_edge_cases(self):
        assert min_rotation(()) == ()
        assert min_rotation((5,)) == (5,)
        assert min_rotation((2, 1, 2, 1)) == (1, 2, 1, 2)
        assert min_rotation((1, 2, 1, 2)) == (1, 2, 1, 2)
        assert min_rotation((3, 3, 3)) == (3, 3, 3)
        assert min_rotation((2, -1, 2, -1, 2, -1)) == (-1, 2, -1, 2, -1, 2)

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.integers(min_value=-3, max_value=3), max_size=14),
        st.integers(min_value=1, max_value=4),
    )
    def test_equals_all_rotations_oracle(self, letters, power):
        # Powers of a word make the periodic cases, e.g. (1, 2, 1, 2).
        t = tuple(letters) * power
        assert min_rotation(t) == all_rotations_minimum(t)

    def test_exhaustive_small_alphabet(self):
        for c in range(0, 9):
            for t in itertools.product((1, 2, 3), repeat=c):
                assert min_rotation(t) == all_rotations_minimum(t)


class TestTrivialClosure:
    def test_unknot_words(self):
        assert is_trivial_closure(parse_braid("1 2"))
        assert is_trivial_closure(BraidWord(4, (1, 2, 3)))
        assert is_trivial_closure(BraidWord(1, ()))

    def test_nontrivial(self):
        assert not is_trivial_closure(parse_braid("1 1"))
        assert not is_trivial_closure(BraidWord(4, (1, 3, 1, 3)))

    def test_builds_no_word(self, monkeypatch):
        # Destabilization works in place on a letter list.
        words = [BraidWord(4, (1, 2, 3)), parse_braid("1 2 3 2 1 2"), BraidWord(4, (1, 3, 1, 3))]
        built = count_words(monkeypatch)
        assert [is_trivial_closure(w) for w in words] == [True, False, False]
        assert built == [0]

    def test_split_block_detection(self):
        # Hopf link plus a free strand: nontrivial split link.
        assert not is_trivial_closure(BraidWord(3, (2, 2)))

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_equals_block_scan_oracle(self, data):
        s = data.draw(st.integers(min_value=2, max_value=9))
        letters = data.draw(st.lists(st.integers(min_value=1, max_value=s - 1), max_size=16))
        w = BraidWord(s, tuple(letters))
        assert is_trivial_closure(w) == block_scan_trivial(w)

    def test_equals_block_scan_oracle_exhaustive(self):
        for s in range(1, 6):
            for c in range(0, 7):
                for letters in itertools.product(range(1, s), repeat=c):
                    w = BraidWord(s, letters)
                    assert is_trivial_closure(w) == block_scan_trivial(w), w


class TestNormalization:
    def test_already_square(self):
        res = square_normalization(parse_braid("1 1"))
        assert res.m == 1 and res.word.letters == (1, 1) and res.moves == ()

    def test_prefix_shape_predicate(self):
        assert square_prefix_generator((2, 2, 1, 1, 2)) == 2
        assert square_prefix_generator((3, 3, 2, 2, 1, 3)) == 3
        assert square_prefix_generator((3, 3, 1, 2)) is None
        assert square_prefix_generator((1, 2, 1)) is None

    def test_torus_33(self):
        res = square_normalization(parse_braid("1 2 1 2 1 2"))
        assert square_prefix_generator(res.word.letters) == res.m
        assert res.word.components == 3 and res.word.b1 == 4

    def test_trivial_raises(self):
        with pytest.raises(TrivialLink):
            square_normalization(parse_braid("1 2"))

    def test_restarts_build_one_word(self, monkeypatch):
        # One letter list is rewritten across the restarts after each braid
        # relation, and the result is the only word built.
        word = BraidWord(5, (1, 2, 3, 4) * 6)  # T(5, 6)
        built = count_words(monkeypatch)
        res = square_normalization(word)
        assert built == [1]
        assert sum(isinstance(mv, BraidRelation) for mv in res.moves) == 6
        assert replay_moves(word, res.moves) == res.word

    def test_moves_replay(self):
        rng = random.Random(77)
        for _ in range(300):
            s = rng.randint(2, 6)
            c = rng.randint(max(2, s - 1), 11)
            base = list(range(1, s)) + [
                rng.randint(1, s - 1) for _ in range(c - s + 1)
            ]
            rng.shuffle(base)
            w = BraidWord(s, tuple(base))
            try:
                res = square_normalization(w)
            except TrivialLink:
                assert w.b1 == 0
                continue
            replayed = replay_moves(w, list(res.moves))
            assert replayed.letters == res.word.letters
            assert replayed.strands == res.word.strands
            assert square_prefix_generator(res.word.letters) == res.m
            assert res.word.components == w.components

    def test_split_words_have_no_form(self):
        # No move creates a generator, and the form needs s_1.
        for w in (BraidWord(3, (2, 2)), BraidWord(4, (2, 3, 2, 3))):
            with pytest.raises(DisconnectedWord):
                square_normalization(w)

    @settings(max_examples=300, deadline=None)
    @given(connected_words())
    def test_construction_property(self, w):
        try:
            res = square_normalization(w)
        except TrivialLink:
            assert is_trivial_closure(w)
            return
        assert replay_moves(w, list(res.moves)) == res.word
        assert square_prefix_generator(res.word.letters) == res.m
        assert res.word.components == w.components
        assert res.word.b1 == w.b1
        assert all(mv.source != mv.target for mv in res.moves if isinstance(mv, Carry))

    def test_exhaustive_small_words(self):
        # Every connected positive word with c <= 7 and nontrivial closure
        # normalizes (deduplicated by least rotation).  Larger-scale
        # coverage comes from the acceptance corpus.
        seen = set()
        checked = 0
        for s in range(2, 9):
            k = s - 1
            for c in range(k, 8):
                for letters in itertools.product(range(1, s), repeat=c):
                    if len(set(letters)) != k:
                        continue
                    canon = min_rotation(letters)
                    if canon in seen or canon != letters:
                        continue
                    seen.add(canon)
                    w = BraidWord(s, letters)
                    if is_trivial_closure(w):
                        continue
                    res = square_normalization(w)
                    assert square_prefix_generator(res.word.letters) == res.m
                    checked += 1
        assert checked > 3000
