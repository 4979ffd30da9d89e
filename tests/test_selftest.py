import dataclasses
import itertools

import braidplumb.plumbing as plumbing
from braidplumb.braidwords import BraidWord, min_rotation
from braidplumb.plumbing import torus_summand_report
from braidplumb.selftest import (
    _compositions,
    necklaces_fixed_content,
    obstruction_consistency,
    reduced_knot_corpus,
    run_all,
    trefoil_exhaustive,
)


def brute_necklaces(content):
    n = sum(content)
    k = len(content)
    out = set()
    for w in itertools.product(range(k), repeat=n):
        if all(w.count(j) == content[j] for j in range(k)):
            out.add(min(w[r:] + w[:r] for r in range(n)))
    return out


class TestNecklaceEnumerator:
    def test_matches_bruteforce(self):
        for content in [
            (2,),
            (5,),
            (2, 2),
            (3, 2),
            (2, 4),
            (1, 1, 2),
            (2, 2, 2),
            (4, 2, 2),
            (2, 3, 3),
            (2, 2, 2, 2),
        ]:
            got = set(necklaces_fixed_content(content))
            assert got == brute_necklaces(content), content

    def test_outputs_are_least_rotations(self):
        for neck in necklaces_fixed_content((3, 2, 2)):
            assert neck == min_rotation(neck)


class TestCorpus:
    def test_small_scale_matches_bruteforce(self):
        got = {(w.strands, w.letters) for w in reduced_knot_corpus(7)}
        want = set()
        for s in range(2, 5):
            k = s - 1
            for c in range(2 * k, 8):
                for letters in itertools.product(range(1, s), repeat=c):
                    if any(letters.count(g) < 2 for g in range(1, s)):
                        continue
                    canon = min_rotation(letters)
                    if canon != letters:
                        continue
                    w = BraidWord(s, letters)
                    if w.is_knot:
                        want.add((s, letters))
        assert got == want

    def test_matches_is_knot_filter_in_order(self):
        # The enumeration before the knot test moved onto the necklace.
        want = []
        for k in range(1, 6):
            for c in range(2 * k, 11):
                if (c - k) % 2:
                    continue
                for content in _compositions(c, k, 2):
                    for neck in necklaces_fixed_content(content):
                        word = BraidWord(k + 1, tuple(x + 1 for x in neck))
                        if word.is_knot:
                            want.append(word)
        assert list(reduced_knot_corpus(10)) == want

    def test_members_are_reduced_connected_knots(self):
        for w in reduced_knot_corpus(8):
            assert w.is_connected and w.is_reduced and w.is_knot
            assert w.b1 % 2 == 0


def test_run_all_quick_passes():
    results = run_all(quick=True)
    assert len(results) == 8
    for res in results:
        assert res.passed, res.line()


class TestObstructionConsistency:
    def test_validates_every_pooled_certificate(self):
        cert = torus_summand_report(3, 5).certificate
        assert obstruction_consistency([cert]).passed
        # The bound still holds, but the stored C_1 is C_0 again, not the
        # monodromy image, so only the validator can reject it.
        words = cert.curve_words
        tampered = dataclasses.replace(cert, curve_words=words[:1] + words[:-1])
        result = obstruction_consistency([cert, tampered])
        assert not result.passed
        assert "1 rejected" in result.detail


class TestTrefoilExhaustive:
    def test_validates_every_step_it_builds(self, monkeypatch):
        result = trefoil_exhaustive(8)
        assert result.passed
        assert "steps validated, 0 failures" in result.detail
        # A construction that disagrees with the engine on every step with
        # m >= 2 passes the step counts, so only the validator catches it.
        honest = plumbing._top_rectangle_image

        def wrong(letters):
            image = honest(letters)
            return image if letters[0] == 1 else image[::-1]

        monkeypatch.setattr(plumbing, "_top_rectangle_image", wrong)
        result = trefoil_exhaustive(8)
        assert not result.passed
        assert " 0 failures" not in result.detail
