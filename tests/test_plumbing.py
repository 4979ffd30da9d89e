import dataclasses
import functools
import itertools
import json
import re
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidplumb.curves as cv
import braidplumb.plumbing as plumbing
from braidplumb.alexpoly import burau_alexander, hironaka_max_n
from braidplumb.braidwords import BraidWord, Carry, parse_braid, replay_moves
from braidplumb.errors import (
    CertificateRejected,
    DisjointnessFailure,
    DomainError,
    EmptyCurve,
    IllegalMove,
    InternalConsistencyError,
    InvalidParameter,
    NotAKnot,
    NotAPath,
    TrivialKnot,
)
from braidplumb.fatgraph import RectangleCurve, build_surface
from braidplumb.linalg import reduce_row
from braidplumb.monodromy import homological_monodromy
from braidplumb.plumbing import (
    ChainCertificate,
    detect_chain,
    torus_braid,
    torus_summand_report,
    trefoil_decompose,
    trefoil_decomposition_from_json,
    trefoil_step,
    validate_chain_certificate,
    validate_trefoil_decomposition,
    validate_trefoil_step,
)
from braidplumb.selftest import reduced_knot_corpus
from test_linalg import fraction_rank


@st.composite
def knot_words(draw, max_strands=8, max_letters=24):
    """Connected knot words on up to max_strands strands and max_letters
    letters.

    A connected word is drawn, then letters joining two closure components
    are appended until one is left.
    """
    s = draw(st.integers(min_value=2, max_value=max_strands))
    c = draw(st.integers(min_value=s - 1, max_value=max_letters - (s - 1)))
    base = list(range(1, s)) + [
        draw(st.integers(min_value=1, max_value=s - 1)) for _ in range(c - s + 1)
    ]
    letters = tuple(draw(st.permutations(base)))
    while not BraidWord(s, letters).is_knot:
        comps = BraidWord(s, letters).components
        joining = [
            g for g in range(1, s) if BraidWord(s, letters + (g,)).components < comps
        ]
        letters += (draw(st.sampled_from(joining)),)
    return BraidWord(s, letters)


class TestTorusBraid:
    def test_two_strand(self):
        assert torus_braid(2, 3).letters == (1, 1, 1)

    def test_four_three(self):
        assert torus_braid(4, 3).letters == (1, 2, 3, 1, 2, 3, 1, 2, 3)

    def test_zero_power(self):
        w = torus_braid(3, 0)
        assert w.strands == 3 and w.letters == ()

    def test_bad_parameters_are_domain_errors(self):
        for p, q in ((0, 5), (3, -1)):
            with pytest.raises(InvalidParameter):
                torus_braid(p, q)


class TestDetectChain:
    def test_two_strand_fills_surface(self):
        for q in range(2, 10):
            s = build_surface(torus_braid(2, q))
            cert = detect_chain(s, s.top_left_rectangle(), q + 3)
            assert cert.n == q - 1

    def test_torus_lower_bound(self):
        for p, q in ((3, 4), (3, 5), (4, 5)):
            s = build_surface(torus_braid(p, q))
            cert = detect_chain(s, s.top_left_rectangle(), p)
            assert cert.n >= p - 1

    def test_monotone_prefix(self):
        s = build_surface(torus_braid(3, 5))
        big = detect_chain(s, s.top_left_rectangle(), 6)
        for m in range(1, big.n + 1):
            small = detect_chain(s, s.top_left_rectangle(), m)
            assert small.n == m
            assert small.curve_words == big.curve_words[:m]

    def test_max_n_below_one_rejected(self):
        s = build_surface(torus_braid(3, 4))
        with pytest.raises(InvalidParameter):
            detect_chain(s, s.top_left_rectangle(), 0)

    def test_single_curve_chain(self):
        s = build_surface(torus_braid(3, 4))
        cert = detect_chain(s, s.top_left_rectangle(), 1)
        assert cert.n == 1 and len(cert.curve_words) == 1

    def test_certificate_validates_and_round_trips(self):
        s = build_surface(torus_braid(3, 5))
        cert = detect_chain(s, s.top_left_rectangle(), 6)
        assert validate_chain_certificate(cert)
        reloaded = ChainCertificate.from_json(json.loads(json.dumps(cert.to_json())))
        assert validate_chain_certificate(reloaded)
        assert reloaded == cert

    def test_json_holds_word_seed_n_and_curves_only(self):
        s = build_surface(torus_braid(3, 5))
        data = detect_chain(s, s.top_left_rectangle(), 6).to_json()
        assert list(data) == ["word", "strands", "seed", "n", "curves"]

    def test_old_schema_with_table_and_rank_still_loads(self):
        # Certificates written with the intersection table and rank load as
        # before: the loader reads only the keys it needs, and the stored
        # table and rank, right or wrong, are not evidence.
        s = build_surface(torus_braid(3, 5))
        cert = detect_chain(s, s.top_left_rectangle(), 6)
        for table, rank in ((chain_pattern(cert.n), cert.n), ([[2]], 0)):
            data = {**cert.to_json(), "intersections": table, "rank": rank}
            reloaded = ChainCertificate.from_json(json.loads(json.dumps(data)))
            assert reloaded == cert
            assert validate_chain_certificate(reloaded)

    def test_seed_that_is_no_rectangle_rejected(self):
        # Column 1 of T(3, 5) holds positions 0, 2, 4, ...; (0, 4) spans two
        # rectangles.  Its circle is still embedded, but it is no seed.
        s = build_surface(torus_braid(3, 5))
        seed = RectangleCurve(column=1, top=0, bottom=4)
        cert = detect_chain(s, s.top_left_rectangle(), 6)
        bad = dataclasses.replace(
            cert, seed=seed, curve_words=((1, -5),) + cert.curve_words[1:]
        )
        with pytest.raises(CertificateRejected, match="seed is not a rectangle"):
            validate_chain_certificate(bad)

    @pytest.mark.parametrize("seed", [(1, 0, 4), (1, 1, 0), (2, 0, 1)])
    def test_detector_refuses_a_seed_that_is_no_rectangle(self, seed):
        # Each triple's circle is a closed path on "1 1 1 1 1", but none
        # is a rectangle.  The seed test counts crossings along the seed
        # rectangle, which is sound for a rectangle of the surface only,
        # and the validator rejects such a seed.
        s = build_surface(parse_braid("1 1 1 1 1"))
        seed = RectangleCurve(*seed)
        cv.curve_from_rectangle(s, seed)  # a closed path: NotAPath is not raised
        with pytest.raises(InvalidParameter, match=r"^seed .* is not a rectangle of the surface$"):
            detect_chain(s, seed, s.b1 + 1)

    def test_curve_beyond_the_regrown_chain_rejected(self):
        # The appended image breaks the chain, so only the length of the
        # regrown chain tells the certificate from a true one.
        s = build_surface(torus_braid(3, 5))
        cert = detect_chain(s, s.top_left_rectangle(), 9)
        last = cv.NormalCurve(s, cert.curve_words[-1])
        image = cv.apply_monodromy(last, 1)
        bad = dataclasses.replace(
            cert, n=cert.n + 1, curve_words=cert.curve_words + (image.word,)
        )
        with pytest.raises(CertificateRejected, match="chain from the seed stops"):
            validate_chain_certificate(bad)

    @pytest.mark.parametrize("stored,error", [((1, 3), NotAPath), ((), EmptyCurve)])
    def test_stored_word_that_is_no_curve_rejected(self, stored, error):
        # Stored words are compared with the regrown curves, which are
        # closed paths, by least rotation alone: a word that is no path, or
        # an empty one, is a rejected certificate like any other wrong curve.
        s = build_surface(torus_braid(3, 5))
        with pytest.raises(error):
            cv.NormalCurve(s, stored)
        cert = detect_chain(s, s.top_left_rectangle(), 6)
        words = cert.curve_words
        last = cert.n - 1
        for k, message in ((0, "chain does not start"), (last, "is not the monodromy image")):
            bad = dataclasses.replace(cert, curve_words=words[:k] + (stored,) + words[k + 1 :])
            with pytest.raises(CertificateRejected, match=message):
                validate_chain_certificate(bad)

    def test_chain_invariants_hold(self):
        s = build_surface(torus_braid(3, 8))
        cert = detect_chain(s, s.top_left_rectangle(), 9)
        assert cert.n == 8
        assert brute_force_table(s, cert) == chain_pattern(cert.n)
        assert brute_force_rank(s, cert) == cert.n

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_stored_table_equals_recomputed(self, data):
        # detect_chain stores no table or rank: the chain pattern and rank n
        # follow from n by the orbit criterion.  Every intersection of the
        # stored curves, counted pair by pair, and their exact rank agree.
        s = data.draw(st.integers(min_value=2, max_value=6))
        c = data.draw(st.integers(min_value=s, max_value=14))
        base = list(range(1, s)) + [
            data.draw(st.integers(min_value=1, max_value=s - 1)) for _ in range(c - s + 1)
        ]
        surface = build_surface(BraidWord(s, tuple(data.draw(st.permutations(base)))))
        seed = data.draw(st.sampled_from(surface.rectangles))
        cert = detect_chain(surface, seed, surface.b1 + 1)
        assert brute_force_table(surface, cert) == chain_pattern(cert.n)
        assert brute_force_rank(surface, cert) == cert.n


def chain_pattern(n):
    return tuple(tuple(int(abs(a - b) == 1) for b in range(n)) for a in range(n))


def brute_force_table(surface, cert):
    """Every pair of stored curves counted by geometric_intersection; 0 on
    the diagonal."""
    chain = [cv.NormalCurve(surface, w) for w in cert.curve_words]
    return tuple(
        tuple(0 if a == b else cv.geometric_intersection(x, y) for b, y in enumerate(chain))
        for a, x in enumerate(chain)
    )


def brute_force_rank(surface, cert):
    return fraction_rank([list(cv.NormalCurve(surface, w).homology) for w in cert.curve_words])


# ---------------------------------------------------------------------------
# Oracle: the chain validator with its own loops, before it regrew the chain
# through detect_chain
# ---------------------------------------------------------------------------


def loop_validate_chain_certificate(cert):
    surface = build_surface(cert.word)
    chain = [cv.NormalCurve(surface, w) for w in cert.curve_words]
    n = cert.n
    if len(chain) != n or n < 1:
        raise InternalConsistencyError("certificate length disagrees with n")
    if cert.seed not in surface.rectangles:
        raise InternalConsistencyError("seed is not a rectangle of the surface")
    seed_curve = cv.curve_from_rectangle(surface, cert.seed)
    if chain[0] != seed_curve:
        raise InternalConsistencyError("chain does not start at the seed rectangle")
    for k in range(1, n):
        expected = cv.apply_monodromy(chain[k - 1], 1)
        if expected != chain[k]:
            raise InternalConsistencyError(f"C_{k} is not the monodromy image of C_{k-1}")
    for a in range(n):
        if cv.self_intersection(chain[a]) != 0:
            raise InternalConsistencyError(f"C_{a} is not embedded")
        for b in range(n):
            expect = 1 if abs(a - b) == 1 else 0
            got = 0 if a == b else cv.geometric_intersection(chain[a], chain[b])
            if got != expect:
                raise InternalConsistencyError(
                    f"intersection table mismatch at ({a}, {b}): {got}"
                )
    if fraction_rank([list(c.homology) for c in chain]) != n:
        raise InternalConsistencyError("chain classes are not independent over Q")
    if not plumbing._arc_functionals_independent(surface, cert.seed, n):
        raise InternalConsistencyError("cut surface would disconnect: arc rank too low")
    return True


def verdict(validate, cert):
    try:
        return validate(cert)
    except (InternalConsistencyError, CertificateRejected):
        return False


def tampered_chains(surface, cert, data):
    """The certificate with one field changed, each as a user could store it."""
    n = cert.n
    words = cert.curve_words
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    shift = data.draw(st.integers(min_value=1, max_value=len(words[k])))
    rotated = words[k][shift:] + words[k][:shift]
    yield dataclasses.replace(cert, curve_words=words[:k] + (rotated,) + words[k + 1 :])
    reverse = tuple(-e for e in reversed(words[k]))
    yield dataclasses.replace(cert, curve_words=words[:k] + (reverse,) + words[k + 1 :])
    yield dataclasses.replace(cert, curve_words=words[:-1])
    if n > 1:
        yield dataclasses.replace(cert, n=n - 1, curve_words=words[:-1])
    image = cv.apply_monodromy(cv.NormalCurve(surface, words[-1]), 1)
    yield dataclasses.replace(cert, n=n + 1, curve_words=words + (image.word,))
    others = [r for r in surface.rectangles if r != cert.seed]
    if others:
        yield dataclasses.replace(cert, seed=data.draw(st.sampled_from(others)))


class TestValidatorOracle:
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_verdicts_equal_the_loop_validator(self, data):
        s = data.draw(st.integers(min_value=2, max_value=7))
        c = data.draw(st.integers(min_value=s, max_value=20))
        base = list(range(1, s)) + [
            data.draw(st.integers(min_value=1, max_value=s - 1)) for _ in range(c - s + 1)
        ]
        surface = build_surface(BraidWord(s, tuple(data.draw(st.permutations(base)))))
        for seed in surface.rectangles:
            cert = detect_chain(surface, seed, surface.b1 + 1)
            for variant in (cert, *tampered_chains(surface, cert, data)):
                assert verdict(validate_chain_certificate, variant) == verdict(
                    loop_validate_chain_certificate, variant
                )


# ---------------------------------------------------------------------------
# Oracle: the chain detector that tests each candidate against every curve
# of the chain, before the orbit criterion
# ---------------------------------------------------------------------------


def pairwise_pattern_ok(candidate, chain):
    """Embedded, meets the last curve once and misses all the others."""
    if cv.self_intersection(candidate) != 0:
        return False
    if cv.geometric_intersection(candidate, chain[-1]) != 1:
        return False
    return all(cv.geometric_intersection(candidate, earlier) == 0 for earlier in chain[:-1])


def pairwise_detect_chain(surface, seed, max_n):
    c0 = cv.curve_from_rectangle(surface, seed)
    chain = [c0]
    echelon = [reduce_row(c0.homology, [])]
    while len(chain) < max_n:
        candidate = cv.apply_monodromy(chain[-1], 1)
        if not pairwise_pattern_ok(candidate, chain):
            break
        entry = reduce_row(candidate.homology, echelon)
        if entry is None:
            break
        chain.append(candidate)
        echelon.append(entry)
    return ChainCertificate(
        word=surface.word,
        seed=seed,
        n=len(chain),
        curve_words=tuple(c.word for c in chain),
    )


class TestOrbitCriterion:
    def test_every_small_word_from_every_rectangle(self):
        pairs = 0
        for s in range(2, 5):
            for c in range(s - 1, 8):
                for letters in itertools.product(range(1, s), repeat=c):
                    word = BraidWord(s, letters)
                    if not word.is_connected:
                        continue
                    surface = build_surface(word)
                    cap = surface.b1 + 1
                    for seed in surface.rectangles:
                        assert detect_chain(surface, seed, cap) == pairwise_detect_chain(
                            surface, seed, cap
                        ), (letters, seed)
                        pairs += 1
        assert pairs == 10203

    @pytest.mark.parametrize("p, q", [(2, 11), (3, 8), (3, 11), (4, 7), (4, 9)])
    def test_long_torus_chains_from_every_rectangle(self, p, q):
        surface = build_surface(torus_braid(p, q))
        longest = 0
        for seed in surface.rectangles:
            cert = detect_chain(surface, seed, surface.b1 + 1)
            assert cert == pairwise_detect_chain(surface, seed, surface.b1 + 1), seed
            longest = max(longest, cert.n)
        assert longest > 6


# ---------------------------------------------------------------------------
# Oracle: the arc test with dense vector-matrix products
# ---------------------------------------------------------------------------


def dense_arc_rows(surface, seed, n):
    """The rows u H^k, k < n, by dense vector-matrix products."""
    h = homological_monodromy(surface)
    cols = [[row.get(c, 0) for row in h] for c in range(len(h))]
    u = [0] * len(surface.rectangles)
    for idx, rect in enumerate(surface.rectangles):
        if rect.top == seed.top:
            u[idx] += 1
        if rect.bottom == seed.top:
            u[idx] -= 1
    rows = [u]
    for _ in range(n - 1):
        row = rows[-1]
        rows.append([sum(x * y for x, y in zip(row, col)) for col in cols])
    return rows


def dense_arc_functionals_independent(surface, seed, n):
    return fraction_rank(dense_arc_rows(surface, seed, n)) == n


class TestSparseArcRows:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_verdicts_equal_the_dense_products(self, data):
        s = data.draw(st.integers(min_value=2, max_value=7))
        c = data.draw(st.integers(min_value=s, max_value=20))
        base = list(range(1, s)) + [
            data.draw(st.integers(min_value=1, max_value=s - 1)) for _ in range(c - s + 1)
        ]
        surface = build_surface(BraidWord(s, tuple(data.draw(st.permutations(base)))))
        for seed in surface.rectangles:
            detected = detect_chain(surface, seed, surface.b1 + 1).n
            for n in range(1, detected + 2):
                assert plumbing._arc_functionals_independent(
                    surface, seed, n
                ) == dense_arc_functionals_independent(surface, seed, n)

    def test_torus_chains_at_large_b1(self):
        # The chains workload's torus knots, b1 up to 60, from evenly spaced
        # seeds; the hypothesis test above stays below b1 = 20.  The chain
        # lengths stop short of the rank of the Krylov rows u H^k, so the
        # verdict is also checked where it turns False: at that rank + 1.
        tori = [(p, q) for p in range(3, 7) for q in range(p + 1, 2 * p + 2) if gcd(p, q) == 1]
        for p, q in tori:
            surface = build_surface(torus_braid(p, q))
            for k in range(3):
                seed = surface.rectangles[k * surface.b1 // 3]
                detected = detect_chain(surface, seed, surface.b1 + 1).n
                # the Krylov rank is at most b1, so the rows up to k = b1 reach it
                krylov = fraction_rank(dense_arc_rows(surface, seed, surface.b1 + 1))
                assert detected <= krylov
                for n in range(1, detected + 2):
                    assert plumbing._arc_functionals_independent(
                        surface, seed, n
                    ) == dense_arc_functionals_independent(surface, seed, n), (p, q, k, n)
                assert plumbing._arc_functionals_independent(surface, seed, krylov)
                assert not plumbing._arc_functionals_independent(surface, seed, krylov + 1)


def cocore_readings(surface, seed):
    """a_k = u . homology(C_k) on the chain detect_chain grows from the
    seed, u the seed's cocore row (the arc test's first row)."""
    u = dense_arc_rows(surface, seed, 1)[0]
    cert = detect_chain(surface, seed, surface.b1 + 1)
    return [
        sum(x * y for x, y in zip(u, cv.NormalCurve(surface, w).homology))
        for w in cert.curve_words
    ]


def check_cocore_criterion(surface):
    """If a_k = 0 for 1 <= k < n, the arc test passes at n.  With
    v_j = H^-j h_0, the matrix (u H^k v_j), k, j < n, holds a_(k-j) on and
    below its diagonal; a_0 = 1 and the zeros make it triangular with a
    unit diagonal, so the rows u H^k are independent.  Returns how many
    prefixes with n >= 2 meet the criterion, and how many there are."""
    met = total = 0
    for seed in surface.rectangles:
        a = cocore_readings(surface, seed)
        assert a[0] == 1
        for n in range(2, len(a) + 1):
            total += 1
            if not any(a[1:n]):
                met += 1
                assert plumbing._arc_functionals_independent(surface, seed, n), (seed, n)
    return met, total


class TestCocoreCriterion:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_zero_readings_pass_the_arc_test(self, data):
        s = data.draw(st.integers(min_value=2, max_value=7))
        c = data.draw(st.integers(min_value=s, max_value=20))
        base = list(range(1, s)) + [
            data.draw(st.integers(min_value=1, max_value=s - 1)) for _ in range(c - s + 1)
        ]
        check_cocore_criterion(build_surface(BraidWord(s, tuple(data.draw(st.permutations(base))))))

    def test_knot_corpus(self):
        # Every seed of every reduced positive knot word with c <= 8; most
        # chain prefixes meet the criterion, so it decides most arc tests.
        met = total = 0
        for word in reduced_knot_corpus(8):
            m, t = check_cocore_criterion(build_surface(word))
            met, total = met + m, total + t
        assert (met, total) == (733, 981)


# ---------------------------------------------------------------------------
# Loader contract: a missing field or a wrongly typed value is a
# CertificateRejected that names the field
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def certificate_texts():
    torus = build_surface(torus_braid(3, 5))
    # the known defect: a certificate its validator rejects still loads
    defect = build_surface(parse_braid("2 2 1 2 1 1 2 2 2 2"))
    return (
        ("chain", json.dumps(detect_chain(torus, torus.top_left_rectangle(), 9).to_json())),
        ("chain", json.dumps(detect_chain(defect, defect.rectangles[4], defect.b1).to_json())),
        ("trefoil", json.dumps(trefoil_decompose(torus_braid(3, 4)).to_json())),
        ("trefoil", json.dumps(trefoil_decompose(parse_braid("1 1 1 2 1 3 2 3 3")).to_json())),
    )


LOADERS = {"chain": ChainCertificate.from_json, "trefoil": trefoil_decomposition_from_json}


def json_paths(node, path=()):
    """The path of every value below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from json_paths(value, path + (key,))


def json_kind(value):
    return type(value).__name__


WRONG_TYPES = (7, "7", 7.0, True, None, [], {})


class TestLoaderContract:
    @pytest.mark.parametrize(
        "loader,data,field",
        [
            ("chain", {}, "strands"),
            ("chain", {"strands": "three", "word": [1, 2, 1, 2]}, "strands"),
            ("trefoil", {"strands": 2, "word": [1, 1, 1]}, "steps"),
            ("trefoil", {"strands": 2, "word": [1, 1, 1], "steps": 1}, "steps"),
        ],
    )
    def test_malformed_json_is_rejected_by_name(self, loader, data, field):
        with pytest.raises(CertificateRejected, match=field):
            LOADERS[loader](data)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_dropped_key_or_wrong_type_is_rejected(self, data):
        loader, text = data.draw(st.sampled_from(certificate_texts()))
        assert LOADERS[loader](json.loads(text))
        doc = json.loads(text)
        paths = list(json_paths(doc))
        droppable = [p for p in paths if isinstance(p[-1], str)]
        path = data.draw(st.sampled_from(paths + droppable))
        *parents, last = path
        parent = functools.reduce(lambda node, key: node[key], parents, doc)
        if path in droppable and data.draw(st.booleans()):
            del parent[last]
        else:
            wrong = [v for v in WRONG_TYPES if json_kind(v) != json_kind(parent[last])]
            parent[last] = data.draw(st.sampled_from(wrong))
        with pytest.raises(CertificateRejected) as info:
            LOADERS[loader](doc)
        named = re.search(r"'(.*)'", str(info.value)).group(1)
        field = next(key for key in reversed(path) if isinstance(key, str))
        assert re.sub(r"\[\d+\]", "", named).split(".")[-1] == field


    @pytest.mark.parametrize(
        "field", ["word", "steps[0].m", "final_word"]
    )
    def test_letter_out_of_range_names_the_field(self, field):
        data = json.loads(json.dumps(trefoil_decompose(torus_braid(3, 4)).to_json()))
        step = data["steps"][0]
        if field == "steps[0].m":
            step["m"], bad = 7, 7
        else:
            data[field].insert(0, 9)
            bad = 9
        message = f"field '{field}': letter {bad} outside the generator range 1.."
        with pytest.raises(CertificateRejected, match="^" + re.escape(message)):
            trefoil_decomposition_from_json(data)

    def test_chain_letter_out_of_range_names_the_word(self):
        data = json.loads(certificate_texts()[0][1])
        data["word"].append(5)
        with pytest.raises(CertificateRejected, match="^field 'word': letter 5 outside"):
            ChainCertificate.from_json(data)


class TestTrefoilStep:
    def test_trefoil(self):
        word = parse_braid("1 1 1")
        step, after = trefoil_step(word)
        assert step.m == 1
        assert after.letters == (1,)
        assert 1 not in map(abs, step.image)  # the image avoids the top band
        assert validate_trefoil_step(word, step) == after

    def test_genus_drops(self):
        w = torus_braid(3, 4)
        _, after = trefoil_step(w)
        assert after.b1 == w.b1 - 2
        assert after.is_knot

    def test_not_a_knot(self):
        with pytest.raises(NotAKnot):
            trefoil_step(parse_braid("1 2 1 2 1 2"))

    def test_trivial_knot(self):
        with pytest.raises(TrivialKnot):
            trefoil_step(parse_braid("1 2"))

    def test_replay_must_reach_normalized_word(self, monkeypatch):
        honest = plumbing.square_normalization

        def lying(word):
            res = honest(word)
            swapped = res.word.letters[:2] + res.word.letters[2:][::-1]
            assert swapped != res.word.letters
            return dataclasses.replace(res, word=BraidWord(res.word.strands, swapped))

        monkeypatch.setattr(plumbing, "square_normalization", lying)
        with pytest.raises(
            InternalConsistencyError, match="move replay does not reach the normalized word"
        ):
            trefoil_step(torus_braid(3, 4))

    @pytest.mark.parametrize(
        "field,message",
        [
            ("image", "stored image is not the monodromy image"),
            # The moves replay to a word that starts with the square s_m s_m.
            ("m", "move replay does not reach the normalized word"),
            ("moves", "move replay does not reach the normalized word"),
        ],
    )
    def test_validator_compares_every_field(self, field, message):
        word = torus_braid(3, 4)
        step, _ = trefoil_step(word)
        bad = {
            "image": tuple(-t for t in step.image),
            "m": 3 - step.m,
            "moves": step.moves[1:],  # the first move dropped
        }[field]
        assert bad != getattr(step, field)
        with pytest.raises(CertificateRejected, match=message):
            validate_trefoil_step(word, dataclasses.replace(step, **{field: bad}))

    def test_push_off_count_other_than_one_is_an_engine_error(self, monkeypatch):
        # i(phi(R), R) = 1 is a theorem (validate_trefoil_step), so its
        # failure is exit 3, not a rejected certificate.
        word = torus_braid(3, 4)
        step, _ = trefoil_step(word)
        monkeypatch.setattr(cv, "geometric_intersection", lambda x, y: 2)
        with pytest.raises(InternalConsistencyError, match=r"i\(phi\(R\), R\) is not 1"):
            validate_trefoil_step(word, step)

    @pytest.mark.parametrize("letters", [(1, 1), (1, 1, 1, 1), (1, 1, 2, 2)])
    def test_word_that_is_no_knot_rejected(self, letters):
        # The step validator is public: a link word is the caller's error,
        # not a failed disjointness theorem.
        word = BraidWord(max(letters) + 1, letters)
        with pytest.raises(CertificateRejected, match="^the step's word is not a knot$"):
            validate_trefoil_step(word, plumbing.TrefoilStep((), 1, (-2,)))


class TestTrefoilDecompose:
    def test_trefoil_single_step(self):
        dec = trefoil_decompose(parse_braid("1 1 1"))
        assert len(dec.steps) == 1
        assert dec.to_json()["ribbon_twists"] == 1
        assert validate_trefoil_decomposition(dec)

    def test_torus34_three_steps(self):
        dec = trefoil_decompose(torus_braid(3, 4))
        assert len(dec.steps) == 3
        assert dec.to_json()["ribbon_twists"] == 3
        assert validate_trefoil_decomposition(dec)

    def test_two_component_rejected(self):
        with pytest.raises(NotAKnot):
            trefoil_decompose(parse_braid("3 1 2 2 3 1 2 1"))

    def test_unknot_empty_decomposition(self):
        dec = trefoil_decompose(parse_braid("1 2"))
        assert dec.steps == ()
        assert dec.to_json()["ribbon_twists"] == 0

    def test_json_round_trip(self):
        dec = trefoil_decompose(torus_braid(3, 4))
        blob = json.dumps(dec.to_json())
        back = trefoil_decomposition_from_json(json.loads(blob))
        assert validate_trefoil_decomposition(back)
        assert back.word.letters == dec.word.letters
        assert [s.to_json() for s in back.steps] == [s.to_json() for s in dec.steps]

    def test_step_json_holds_moves_m_and_image_only(self):
        # No step stores a word: the validator walks them from "word".
        data = trefoil_decompose(parse_braid("1 2 1 3 2 3 3 1 2 2 3 1 3")).to_json()
        assert data["steps"]
        assert all(step.keys() == {"moves", "m", "phiR"} for step in data["steps"])

    @pytest.mark.parametrize(
        "tamper",
        [
            "drop_move",
            "change_m",
            "change_final_word",
            "change_phiR",
            "change_genus",
            "change_ribbon_twists",
            "block_carry",
        ],
    )
    def test_tampered_round_trip_rejected(self, tamper):
        # The validator replays each step's moves from the word the walk
        # has reached and requires the stored m's square in front; it
        # recomputes the after-word, and the walk's last one must be the
        # stored final word.  The loader itself checks genus and
        # ribbon_twists against the steps, and refuses a mismatch as a
        # malformed certificate.  T(3,4) carries no letter; the 4-strand
        # word's first step carries three.
        if tamper == "block_carry":
            dec = trefoil_decompose(parse_braid("1 2 1 3 2 3 3 1 2 2 3 1 3"))
        else:
            dec = trefoil_decompose(torus_braid(3, 4))
        honest = dec.to_json()
        data = json.loads(json.dumps(honest))
        step = data["steps"][0]
        if tamper == "block_carry":
            # Retarget the first carry onto the letter within 1 of the
            # carried one that lies nearest to it: the carry now passes it.
            k, carry = next(
                (k, mv) for k, mv in enumerate(dec.steps[0].moves) if isinstance(mv, Carry)
            )
            letters = replay_moves(dec.word, dec.steps[0].moves[:k]).letters
            x = letters[carry.source]
            step["moves"][k]["target"] = min(
                (p for p, y in enumerate(letters) if p != carry.source and abs(y - x) < 2),
                key=lambda p: abs(p - carry.source),
            )
        elif tamper == "drop_move":
            del step["moves"][0]
        elif tamper == "change_m":
            step["m"] = 3 - step["m"]
        elif tamper == "change_final_word":
            data["final_word"] = data["final_word"][::-1] + [1]
        elif tamper == "change_phiR":
            step["phiR"][0] = -step["phiR"][0]
        elif tamper == "change_genus":
            data["genus"] = 99
        else:
            data["ribbon_twists"] = data["ribbon_twists"] + 1
        if tamper in ("change_genus", "change_ribbon_twists"):
            assert data != honest
            with pytest.raises(CertificateRejected, match="^genus and ribbon twists"):
                trefoil_decomposition_from_json(data)
            return
        assert data != honest
        back = trefoil_decomposition_from_json(data)
        # A stored field that differs from the replay is a rejected
        # certificate.  Moves and m are checked together: the moves must
        # replay to a word that starts with the square s_m s_m.
        expected = {
            "drop_move": (CertificateRejected, "move replay does not reach"),
            "change_m": (CertificateRejected, "move replay does not reach"),
            "change_final_word": (CertificateRejected, "final word mismatch"),
            "change_phiR": (CertificateRejected, "stored image is not the monodromy image"),
            "block_carry": (IllegalMove, r"do not commute: position \d+ blocks the carry"),
        }
        error, message = expected[tamper]
        with pytest.raises(error, match=message) as info:
            validate_trefoil_decomposition(back)
        # A tampered certificate is a domain error (exit 2), never exit 3.
        assert type(info.value) is error and issubclass(error, DomainError)

    @settings(max_examples=150, deadline=None)
    @given(knot_words(), st.data())
    def test_tampered_step_is_accepted_or_a_domain_error(self, w, data):
        # Whatever one step's moves, m or phiR, or the final word, say,
        # loading and validating ends in acceptance or a DomainError (exit 2);
        # InternalConsistencyError (exit 3) is left for engine bugs.
        doc = json.loads(json.dumps(trefoil_decompose(w).to_json()))
        if not doc["steps"]:
            return
        step = data.draw(st.sampled_from(doc["steps"]))
        moves = step["moves"]
        tampers = ["change_m", "flip_final_word", "flip_phiR"]
        if moves:
            tampers += ["drop_move", "duplicate_move"]
        # The integer positions a move names: a braid relation's, and a
        # carry's source and target.
        shiftable = [
            (mv, key) for mv in moves for key in ("position", "source", "target") if key in mv
        ]
        if shiftable:
            tampers.append("shift_position")
        tamper = data.draw(st.sampled_from(tampers))
        if tamper in ("drop_move", "duplicate_move"):
            k = data.draw(st.integers(0, len(moves) - 1))
            if tamper == "drop_move":
                del moves[k]
            else:
                moves.insert(k, dict(moves[k]))
        elif tamper == "change_m":
            other = st.integers(-1, w.strands).filter(lambda m: m != step["m"])
            step["m"] = data.draw(other)
        elif tamper == "shift_position":
            move, key = data.draw(st.sampled_from(shiftable))
            move[key] += data.draw(st.sampled_from([-2, -1, 1, 2]))
        elif tamper == "flip_final_word":
            # Reversed, with one letter, in range or not, put in anywhere.
            final = doc["final_word"][::-1]
            k = data.draw(st.integers(0, len(final)))
            final.insert(k, data.draw(st.integers(-1, w.strands)))
            doc["final_word"] = final
        else:
            word = step["phiR"]
            k = data.draw(st.integers(0, len(word) - 1))
            word[k] = -word[k]
        try:
            validate_trefoil_decomposition(trefoil_decomposition_from_json(doc))
        except DomainError:
            pass

    @pytest.mark.parametrize("direction", [7, 0])
    def test_braid_move_direction_must_be_unit(self, direction):
        data = trefoil_decompose(torus_braid(3, 5)).to_json()
        moves = [mv for step in data["steps"] for mv in step["moves"]]
        move = next(mv for mv in moves if mv["kind"] == "braid")
        move["direction"] = direction
        back = trefoil_decomposition_from_json(data)
        with pytest.raises(IllegalMove, match=f"direction {direction} does not fit"):
            validate_trefoil_decomposition(back)
        del move["direction"]
        with pytest.raises(CertificateRejected, match=r"missing field .*\.direction'"):
            trefoil_decomposition_from_json(data)

    def test_carry_fields_are_checked_on_load(self):
        data = trefoil_decompose(parse_braid("1 2 1 3 2 3 3 1 2 2 3 1 3")).to_json()
        moves = data["steps"][0]["moves"]
        k = next(k for k, mv in enumerate(moves) if mv["kind"] == "carry")
        field = f"steps[0].moves[{k}]."
        target = moves[k].pop("target")
        with pytest.raises(CertificateRejected, match=re.escape(f"missing field '{field}target'")):
            trefoil_decomposition_from_json(data)
        moves[k].update(target=target, source=True)
        with pytest.raises(
            CertificateRejected, match=re.escape(f"field '{field}source' must be an integer")
        ):
            trefoil_decomposition_from_json(data)

    def test_retired_commute_kind_is_unknown(self):
        data = trefoil_decompose(parse_braid("1 2 1 3 2 3 3 1 2 2 3 1 3")).to_json()
        data["steps"][0]["moves"][0] = {"kind": "commute", "position": 0}
        with pytest.raises(IllegalMove, match=re.escape("unknown move kind 'commute'")):
            trefoil_decomposition_from_json(data)

    def test_stored_final_word_and_step_count_rejected(self):
        dec = trefoil_decompose(torus_braid(3, 5))
        last = dec.final_word
        wrong_final = BraidWord(last.strands + 1, last.letters + (last.strands,))
        with pytest.raises(CertificateRejected, match="final word mismatch"):
            validate_trefoil_decomposition(dataclasses.replace(dec, final_word=wrong_final))
        # The same letters on other strands: the walk ends on 2 strands.
        t34 = trefoil_decompose(torus_braid(3, 4))
        assert t34.final_word == BraidWord(2, (1,))
        with pytest.raises(CertificateRejected, match="final word mismatch"):
            validate_trefoil_decomposition(
                dataclasses.replace(t34, final_word=BraidWord(4, (1,)))
            )
        w = dec.word
        for step in dec.steps[:-1]:
            w = validate_trefoil_step(w, step)
        short = dataclasses.replace(dec, steps=dec.steps[:-1], final_word=w)
        with pytest.raises(CertificateRejected, match="ribbon twist count"):
            validate_trefoil_decomposition(short)

    def test_link_word_rejected(self):
        # Every step of this 2-component word replays, and its one step is
        # b1 // 2 = 1 of them, but the final word "1 1" is no unknot.
        word = parse_braid("1 1 1 1")
        image, after = plumbing._deplumb(word)
        step = plumbing.TrefoilStep((), 1, image)
        dec = plumbing.TrefoilDecomposition(word=word, steps=(step,), final_word=after)
        with pytest.raises(CertificateRejected, match="not a knot"):
            validate_trefoil_decomposition(dec)

    def test_huge_strand_count_rejected(self):
        # c letters on s > c + 1 strands close to at least s - c components,
        # so the word is no knot, and no 10**18-entry permutation is built.
        data = trefoil_decompose(parse_braid("1 1 1")).to_json()
        data["strands"] = 10**18
        back = trefoil_decomposition_from_json(data)
        with pytest.raises(CertificateRejected, match="not a knot"):
            validate_trefoil_decomposition(back)
        with pytest.raises(NotAKnot, match=f"^closure has at least {10**18 - 3} components$"):
            trefoil_decompose(back.word)

    @settings(max_examples=120, deadline=None)
    @given(knot_words())
    def test_random_knots_decompose(self, w):
        dec = trefoil_decompose(w)
        assert len(dec.steps) == w.b1 // 2
        assert validate_trefoil_decomposition(dec)

    @pytest.mark.parametrize("p,q", [(6, 7), (6, 13), (7, 15)])
    def test_large_torus_knots_decide(self, p, q):
        start = time.perf_counter()
        dec = trefoil_decompose(torus_braid(p, q))
        assert validate_trefoil_decomposition(dec)
        assert time.perf_counter() - start < 2.0
        assert len(dec.steps) == (p - 1) * (q - 1) // 2

    def test_every_step_disjointness_holds(self):
        dec = trefoil_decompose(torus_braid(4, 5))
        assert len(dec.steps) == 6
        assert all(1 not in map(abs, s.image) for s in dec.steps)


class TestStepIsTheCriterionAtTwo:
    def test_knot_corpus(self):
        # On every distinct normalized step word of the knot classes with
        # c <= 10, validate_trefoil_step accepts exactly when the chain
        # detector reaches n = 2 from the top rectangle and the arc test
        # passes at n = 2 (the proof is in its docstring).
        seen, norms = set(), set()
        passed = 0
        todo = list(reduced_knot_corpus(10))
        while todo:
            w = todo.pop()
            key = (w.strands, w.canonical())
            if w.b1 == 0 or key in seen:
                continue
            seen.add(key)
            step, after = trefoil_step(w)
            todo.append(after)
            norm = replay_moves(w, step.moves)
            if norm in norms:
                continue
            norms.add(norm)
            try:
                accepted = validate_trefoil_step(w, step) == after
            except InternalConsistencyError:
                accepted = False
            surface = build_surface(norm)
            top = RectangleCurve(step.m, 0, 1)
            chain = detect_chain(surface, top, 2).n == 2
            assert accepted == (chain and plumbing._arc_functionals_independent(surface, top, 2))
            passed += accepted
        assert len(norms) == passed == 2074


def engine_image(norm):
    """apply_monodromy of the top rectangle (m, 0, 1) of a square-prefix word."""
    surface = build_surface(norm)
    r_curve = cv.curve_from_rectangle(surface, RectangleCurve(norm.letters[0], 0, 1))
    return cv.apply_monodromy(r_curve).word


def assert_images_are_the_engines(word, step):
    """The producer's constructed image of the step from word equals the
    engine's, letter for letter; returns the step's after-word."""
    norm = replay_moves(word, step.moves)
    assert step.image == engine_image(norm), norm.text()
    return BraidWord(norm.strands, norm.letters[2:])


def assert_decomposition_images_are_the_engines(dec):
    w = dec.word
    for step in dec.steps:
        w = assert_images_are_the_engines(w, step)
    assert w == dec.final_word


class TestConstructedImage:
    """trefoil_step constructs phi(R) from the normalized word's letters
    (plumbing._top_rectangle_image); the twist engine is the oracle."""

    def test_worked_example(self):
        letters = (3, 3, 2, 1, 1, 1, 3, 3, 1, 2, 3, 1, 2, 3, 1, 1, 3)
        assert plumbing._top_rectangle_image(letters) == (-2, -3, -4, 12, 10, 7)
        assert engine_image(BraidWord(4, letters)) == (-2, -3, -4, 12, 10, 7)

    def test_every_step_of_the_knot_corpus(self):
        seen = set()
        todo = list(reduced_knot_corpus(10))
        while todo:
            w = todo.pop()
            key = (w.strands, w.canonical())
            if w.b1 == 0 or key in seen:
                continue
            seen.add(key)
            step, after = trefoil_step(w)
            assert assert_images_are_the_engines(w, step) == after
            todo.append(after)
        assert len(seen) == 5125

    @settings(max_examples=100, deadline=None)
    @given(knot_words(max_strands=10, max_letters=60))
    def test_random_knots(self, w):
        assert_decomposition_images_are_the_engines(trefoil_decompose(w))

    @pytest.mark.parametrize(
        "p,q", [(p, p + 1) for p in range(2, 13)] + [(p, 2 * p + 1) for p in range(2, 7)]
    )
    def test_torus_knots(self, p, q):
        assert_decomposition_images_are_the_engines(trefoil_decompose(torus_braid(p, q)))

    def test_certify_builds_no_surface_and_applies_no_twist(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("certify reached the twist engine")

        for module, name in (
            (plumbing, "build_surface"),
            (cv, "apply_monodromy"),
            (cv, "dehn_twist"),
        ):
            monkeypatch.setattr(module, name, refuse)
        dec = trefoil_decompose(torus_braid(5, 6))
        monkeypatch.undo()
        assert len(dec.steps) == 10
        assert validate_trefoil_decomposition(dec)


class TestTorusSummandReport:
    def test_proposition_one_cases(self):
        rep = torus_summand_report(3, 7)
        assert (rep.detector_n, rep.hironaka_max_plumbing, rep.verdict) == (6, 6, "exact")
        rep = torus_summand_report(3, 8)
        assert (rep.detector_n, rep.hironaka_max_plumbing, rep.verdict) == (8, 8, "exact")

    def test_lower_bound_case(self):
        rep = torus_summand_report(4, 5)
        assert rep.detector_n >= 3
        assert rep.verdict in ("exact", "lower_bound")
        assert rep.detector_n <= rep.hironaka_max_plumbing

    def test_certificate_present_and_valid(self):
        rep = torus_summand_report(3, 5)
        assert rep.certificate is not None
        assert validate_chain_certificate(rep.certificate)

    @pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (1, 5), (2, 1), (5, 1)])
    def test_unknot_parameters_get_the_bound(self, p, q):
        # Every T(1, q) and T(p, 1) is an unknot: Delta = 1, bound 0.
        rep = torus_summand_report(p, q)
        assert rep.hironaka_max_plumbing == 0
        assert (rep.detector_n, rep.verdict) == (0, "degenerate")

    def test_torus_link_bound_via_burau(self):
        rep = torus_summand_report(2, 4)  # T(2,4) is a link
        assert rep.detector_n == 3
        assert rep.hironaka_max_plumbing is not None


class TestObstructionConsistency:
    def test_chain_implies_bound(self):
        for p, q in ((2, 5), (2, 6), (3, 4), (3, 5)):
            word = torus_braid(p, q)
            s = build_surface(word)
            best = max(
                detect_chain(s, seed, s.b1 + 1).n
                for seed in s.rectangles
                if seed.column == 1
            )
            n_max, _ = hironaka_max_n(burau_alexander(word))
            assert n_max >= best + 1


# ---------------------------------------------------------------------------
# Oracle: the chain detector with a full rank per candidate
# ---------------------------------------------------------------------------


def rank_chain_ok(candidate, chain, homologies):
    if not pairwise_pattern_ok(candidate, chain):
        return False
    return fraction_rank(homologies + [list(candidate.homology)]) == len(chain) + 1


def rank_detect_chain(surface, seed, max_n):
    c0 = cv.curve_from_rectangle(surface, seed)
    chain = [c0]
    homologies = [list(c0.homology)]
    while len(chain) < max_n:
        candidate = cv.apply_monodromy(chain[-1], 1)
        if not rank_chain_ok(candidate, chain, homologies):
            break
        chain.append(candidate)
        homologies.append(list(candidate.homology))
    return tuple(c.word for c in chain)


class TestIncrementalRank:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_detector_equals_the_rank_oracle(self, data):
        s = data.draw(st.integers(min_value=2, max_value=7))
        c = data.draw(st.integers(min_value=s, max_value=20))
        base = list(range(1, s)) + [
            data.draw(st.integers(min_value=1, max_value=s - 1)) for _ in range(c - s + 1)
        ]
        surface = build_surface(BraidWord(s, tuple(data.draw(st.permutations(base)))))
        seed = data.draw(st.sampled_from(surface.rectangles))
        max_n = data.draw(st.integers(min_value=1, max_value=surface.b1 + 1))
        cert = detect_chain(surface, seed, max_n)
        assert cert.curve_words == rank_detect_chain(surface, seed, max_n)
        assert cert.n == len(cert.curve_words)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_reduction_agrees_with_rank(self, data):
        width = data.draw(st.integers(min_value=1, max_value=6))
        entries = st.integers(min_value=-4, max_value=4)
        accepted, echelon = [], []
        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            if accepted and data.draw(st.booleans()):
                # a combination of rows already taken: always dependent
                coeffs = [data.draw(entries) for _ in accepted]
                row = [sum(k * r[c] for k, r in zip(coeffs, accepted)) for c in range(width)]
            else:
                row = [data.draw(entries) for _ in range(width)]
            entry = reduce_row(row, echelon)
            independent = fraction_rank(accepted + [row]) == len(accepted) + 1
            assert (entry is not None) == independent
            if independent:
                pivot, reduced = entry
                assert all(reduced[p] == 0 for p, _ in echelon)
                assert reduced[pivot] and not any(reduced[:pivot])
                accepted.append(row)
                echelon.append(entry)
