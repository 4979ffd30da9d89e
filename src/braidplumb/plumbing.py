"""Plumbing structure detectors and machine-checkable certificates.

Two evidence objects: ChainCertificate witnesses an iterated-Hopf chain of
curves C_k = phi^k(C_0) (consecutive curves meet once, all others are
disjoint, classes independent over Q), and TrefoilDecomposition witnesses
a genus-many sequence of square-removal steps, each certified by a
monodromy-image disjointness check.

The chain is grown by the orbit criterion: phi keeps intersection
numbers, so i(C_a, C_b) = i(C_{a-b}, C_0) for a > b, and each new iterate
is tested against the seed curve C_0 alone (i = 1 for C_1, 0 after), plus
embeddedness and a rank rise; the rest of the table follows by induction
(proof in detect_chain).  C_0 is the circle of a rectangle, so that one
intersection is read from the seed rectangle's crossings by the push-off
rule (curves._push_off_events), with no linked-pair scan.

A trefoil step removes the square s_m s_m of a word in square-prefix form
s_m s_m s_{m-1}^+ ... s_1^+ w.  Its certificate stores the monodromy image
phi(R) of the top rectangle's circle.  trefoil_step constructs that image
from the word's letters in one scan (_top_rectangle_image, whose docstring
proves it), with no surface and no Dehn twist; validate_trefoil_step
recomputes it with the twist engine (_deplumb), so every certificate is
still checked against the engine.
"""

from __future__ import annotations

import dataclasses
from itertools import compress
from math import gcd
from typing import Optional

from . import curves as cv
from .alexpoly import burau_alexander, hironaka_max_n, torus_alexander
from .braidwords import (
    BraidWord,
    Destabilize,
    RewriteMove,
    field_word,
    is_trivial_closure,
    json_field,
    min_rotation,
    move_from_json,
    replay_moves,
    square_normalization,
)
from .errors import (
    CertificateRejected,
    DisjointnessFailure,
    InternalConsistencyError,
    InvalidParameter,
    NotAKnot,
    TrivialKnot,
)
from .fatgraph import FatGraphSurface, RectangleCurve, build_surface
from .linalg import reduce_row
from .monodromy import homological_monodromy


# ---------------------------------------------------------------------------
# Chain certificates
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ChainCertificate:
    """Witness of an n-fold iterated-plumbing chain grown from one rectangle."""

    word: BraidWord
    seed: RectangleCurve
    n: int
    curve_words: tuple[tuple[int, ...], ...]
    intersections: tuple[tuple[int, ...], ...]
    rank: int

    def to_json(self):
        return {
            "word": list(self.word.letters),
            "strands": self.word.strands,
            "seed": self.seed.to_json(),
            "n": self.n,
            "curves": [list(w) for w in self.curve_words],
            "intersections": [list(r) for r in self.intersections],
            "rank": self.rank,
        }

    @classmethod
    def from_json(cls, data) -> "ChainCertificate":
        """Load a certificate's JSON; CertificateRejected names a missing
        or wrongly typed field."""
        strands = json_field(data, "strands", "an integer")
        word = field_word(strands, json_field(data, "word", "a list of integers"), "word")
        seed = json_field(data, "seed", "a JSON object")
        return cls(
            word=word,
            seed=RectangleCurve(
                *(json_field(seed, k, "an integer", "seed.") for k in ("column", "top", "bottom"))
            ),
            n=json_field(data, "n", "an integer"),
            curve_words=tuple(map(tuple, json_field(data, "curves", "a list of integer lists"))),
            intersections=tuple(
                map(tuple, json_field(data, "intersections", "a list of integer lists"))
            ),
            rank=json_field(data, "rank", "an integer"),
        )


def _chain_ok(candidate, seed, k, echelon) -> Optional[tuple[int, list[int]]]:
    """The echelon entry of the candidate phi(C_k), or None when it does
    not extend the chain C_0, ..., C_k (the orbit criterion, see
    detect_chain).

    Cheapest test first: i(phi(C_k), C_0) must be 1 for k = 0 and 0
    afterwards, the candidate must be embedded, and its homology row must
    raise the rank over Q by one.  C_0 is the circle of the seed
    rectangle, so the first test is one intersection against the seed
    rectangle itself: the push-off events of the candidate along it.
    """
    expect = 1 if k == 0 else 0
    if cv.geometric_intersection(candidate, seed) != expect:
        return None
    if cv.self_intersection(candidate) != 0:
        return None
    return reduce_row(candidate.homology, echelon)


def detect_chain(
    surface: FatGraphSurface, seed: RectangleCurve, max_n: int
) -> ChainCertificate:
    """Largest chain C_0, phi(C_0), ..., phi^{n-1}(C_0) with n <= max_n.

    Greedy growth; a single embedded curve is a valid 1-chain, so n >= 1
    and max_n must be at least 1.  The result is prefix-monotone in max_n
    by construction.

    The orbit criterion: C_0, ..., C_k being a chain (each embedded,
    i(C_a, C_b) = 1 when |a - b| = 1 and 0 otherwise, rank k + 1), the
    candidate C_{k+1} = phi(C_k) extends it exactly when
    i(C_{k+1}, C_0) is 1 for k = 0 and 0 for k >= 1, C_{k+1} is embedded,
    and its row raises the rank.  Proof: phi is a homeomorphism, so it
    keeps geometric intersection and self-intersection numbers.  For
    1 <= j <= k, i(C_{k+1}, C_j) = i(phi C_k, phi C_{j-1}) =
    i(C_k, C_{j-1}), which is 1 for j = k and 0 for j < k, as the pattern
    asks; only the entry against C_0 is new.  And C_{k+1} is embedded
    because C_k is, so the embeddedness test can never fail on a chain; it
    stays as a cross-check of the engine.  Each candidate thus costs one
    intersection against the seed curve instead of k + 1, read from the
    seed rectangle's crossings (the push-off rule, no linked-pair scan),
    and a failing one is dropped after that single count.

    The count is sound for a rectangle of the surface only, so a seed
    that is not in surface.rectangles is refused (InvalidParameter).
    """
    if max_n < 1:
        raise InvalidParameter(f"max_n must be at least 1, got {max_n}")
    if seed not in surface.rectangles:
        raise InvalidParameter(f"seed {tuple(seed)} is not a rectangle of the surface")
    c0 = cv.curve_from_rectangle(surface, seed)
    if cv.self_intersection(c0) != 0:
        raise InternalConsistencyError("rectangle curves must be embedded")
    chain = [c0]
    echelon = [reduce_row(c0.homology, [])]  # a rectangle: a basis vector
    last = c0
    while len(chain) < max_n:
        candidate = cv.apply_monodromy(last)
        entry = _chain_ok(candidate, seed, len(chain) - 1, echelon)
        if entry is None:
            break
        chain.append(candidate)
        echelon.append(entry)
        last = candidate
    # _chain_ok admitted each curve only by the orbit criterion and a rank
    # rise, so the table is the chain pattern (by the induction in the
    # docstring) and the rank is n.
    # validate_chain_certificate regrows the chain through this function
    # and compares.
    n = len(chain)
    pattern = tuple(tuple(int(abs(a - b) == 1) for b in range(n)) for a in range(n))
    return ChainCertificate(
        word=surface.word,
        seed=seed,
        n=n,
        curve_words=tuple(c.word for c in chain),
        intersections=pattern,
        rank=n,
    )


def validate_chain_certificate(cert: ChainCertificate) -> bool:
    """Regrow the chain of a (possibly deserialized) certificate and compare.

    After checking the stored curve count and that the seed is a
    rectangle, detect_chain regrows the chain from the seed, so the iterate
    property C_k = phi^k(C_0), embeddedness, the intersection pattern and
    the rank over Q are decided by the test that certifies them.  A stored
    length other than n, or a seed that is no rectangle, contradicts the
    certificate itself.  The regrown chain must reach n, every stored
    word must have the least rotation of the regrown curve, and the stored
    table and rank must equal the regrown ones.  The regrown curves are
    closed paths, so a stored word that is no path, or is empty, fails the
    rotation comparison.  Each of these checks compares a
    stored field with the engine's own result, so each failure raises
    CertificateRejected.  Only the validator tests the cut independence of
    the transversal-arc functionals u H^{-k} (u pairs cycles with the
    seed's top band), which certifies that cutting the surface along the
    chain's arcs leaves it connected.
    """
    surface = build_surface(cert.word)
    n = cert.n
    if len(cert.curve_words) != n or n < 1:
        raise CertificateRejected("certificate length disagrees with n")
    if cert.seed not in surface.rectangles:
        raise CertificateRejected("seed is not a rectangle of the surface")
    fresh = detect_chain(surface, cert.seed, n)
    if fresh.n < n:
        raise CertificateRejected(f"the chain from the seed stops at n = {fresh.n}")
    for k, (stored, word) in enumerate(zip(cert.curve_words, fresh.curve_words)):
        if min_rotation(stored) != min_rotation(word):
            raise CertificateRejected(
                f"C_{k} is not the monodromy image of C_{k-1}"
                if k
                else "chain does not start at the seed rectangle"
            )
    if cert.intersections != fresh.intersections:
        raise CertificateRejected("intersection table is not the chain pattern")
    if cert.rank != fresh.rank:
        raise CertificateRejected("chain classes are not independent over Q")
    if not _arc_functionals_independent(surface, cert.seed, n):
        raise InternalConsistencyError("cut surface would disconnect: arc rank too low")
    return True


def _arc_functionals_independent(
    surface: FatGraphSurface, seed: RectangleCurve, n: int
) -> bool:
    """Rank-n test for the pairing functionals of the n chain arcs.

    Pairing a cycle with the k-th arc equals pairing its phi^{-k} image
    with a transversal arc of the seed's top band, so the functionals are
    the rows u H^{-k}, k < n; independence is exactly what keeps the cut
    surface connected.  Multiplying every row on the right by the
    invertible H^{n-1} turns them into the rows u H^k, k < n, and keeps
    the rank, so the test needs only integer vector-matrix products.  H
    comes as sparse rows of its nonzero entries, so the next row is the
    sum, over the nonzero entries y at index r of the current row, of y
    times row r of H, and each product costs O(nnz(H)) plus the current
    row's support instead of b1^2.  Each row is reduced against the ones
    before it as it is formed (reduce_row), and the first dependent row
    decides.
    """
    h = homological_monodromy(surface)
    span = range(len(h))
    u = [(rect.top == seed.top) - (rect.bottom == seed.top) for rect in surface.rectangles]
    echelon = []
    row = u
    while True:
        entry = reduce_row(row, echelon)
        if entry is None:
            return False
        echelon.append(entry)
        if len(echelon) == n:
            return True
        nxt = [0] * len(h)
        for r in compress(span, row):
            y = row[r]
            for c, x in h[r].items():
                nxt[c] += y * x
        row = nxt


# ---------------------------------------------------------------------------
# Trefoil decomposition
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TrefoilStep:
    """One square-removal step, certified by the disjointness check."""

    before: BraidWord
    moves: tuple[RewriteMove, ...]
    m: int
    curve: tuple[int, ...]
    image: tuple[int, ...]
    after: BraidWord

    def to_json(self):
        return {
            "before": list(self.before.letters),
            "moves": [m.to_json() for m in self.moves],
            "m": self.m,
            "R": list(self.curve),
            "phiR": list(self.image),
            "after": list(self.after.letters),
        }


@dataclasses.dataclass(frozen=True)
class TrefoilDecomposition:
    """Iterated square removal from a positive braid knot down to genus 0."""

    word: BraidWord
    steps: tuple[TrefoilStep, ...]
    final_word: BraidWord

    @property
    def genus(self) -> int:
        return len(self.steps)

    def to_json(self):
        return {
            "word": list(self.word.letters),
            "strands": self.word.strands,
            "steps": [s.to_json() for s in self.steps],
            "genus": self.genus,
            "ribbon_twists": len(self.steps),
            "final_word": list(self.final_word.letters),
        }


def _after_word(norm: BraidWord) -> BraidWord:
    """The after-word w of a knot word s_m s_m w: the square removed, on
    the same strands.

    Both trefoil_step and validate_trefoil_step (through _deplumb) take
    the after-word from here.  A connected after-word is a theorem for
    positive braid knots, so a disconnected one is fatal, not recoverable.
    A connected after-word has b1 two less: it is the c-letter word minus
    two letters on the same s strands, so its b1 is c - 2 - s + 1.
    """
    after = BraidWord(norm.strands, norm.letters[2:])
    if not after.is_connected:
        raise InternalConsistencyError("square removal disconnected a knot word")
    return after


def _top_rectangle_image(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The word of phi(R), read from the letters L of a knot word in the
    square-prefix form s_m s_m s_{m-1}^+ ... s_1^+ w with w connected; R is
    the circle (1, -2) of the top rectangle (m, 0, 1), m = L[0] = L[1].

    Lemma.  Let d_m = 1 and, for g = m - 1, ..., 1, let d_g be the first
    position of the prefix's s_g run.  Let u_m be the first position p >= 2
    with L[p] = m and, for g = m - 1, ..., 1, let u_g be the first position
    after u_{g+1} with L[p] = g, while there is one; h is the last level
    whose u_h is found.  Then apply_monodromy of the curve R has the word

        (-(d_m + 1), ..., -(d_h + 1), u_h + 1, ..., u_m + 1),

    letter for letter, its rotation included.  Read cyclically, the
    search for u_g, g < h, would wrap onto the prefix's own s_g run, the
    first s_g of L, and so give u_g = d_g for every g < h: the same word is
    reduce_cyclic of all m downs and m ups, whose pairs -(d_g + 1),
    d_g + 1 cancel.  No letter is 1 or -1, since d_g >= 1 and u_g >= 2, so
    the image misses the top band: the deplumbing disjointness holds by
    construction.

    Proof.  Write X_k for (-(d_m + 1), ..., -(d_k + 1), u_k + 1, ...,
    u_m + 1); the claim is that the image is X_h.  The proof traces the
    sweep of apply_monodromy: the right-handed rectangle twists, columns
    s - 1 down to 1, bottom to top in each.  A twist whose push-off rule
    (curves._push_off_events) finds no event returns the curve unchanged,
    so only the twists with an event matter.  For the twist along
    (g, t, b) the rule reads the transits on disks g and g + 1.  The
    push-off's side A holds, on disk g, the ends of the crossings strictly
    between t and b and, on disk g + 1, those strictly outside [t, b].  A
    transit is an event when its two ends lie on opposite sides of A.  A run along the core's bands t and b counts
    once, at its entry, decided by the entry's incoming end against the
    exit's outgoing end.  An event on disk g + 1 that arrives from A
    inserts (-(t + 1), b + 1) before the transit's outgoing letter, and
    the word is reduced.

    u_m exists: w is connected, so it holds an s_m, and the prefix's
    positions 2, ..., e - 1 hold letters below m, so u_m >= e, where e is
    the first position after the prefix.  So every u_g found is at least
    e, above every d_g.

    Columns g >= m + 2: R = (1, -2) passes disks m and m + 1 only, so
    nothing lies on disks g and g + 1.  Column m + 1: R has nothing on
    disk m + 2, and on disk m + 1 A holds the crossings strictly between
    t and b, where t >= 2, so the ends of crossings 0 and 1 of R's transit
    there are both off A.

    Column m, with crossings 0, 1, u_m, ...  For t >= u_m, R's transit on
    disk m (crossing 1 to 0) has both ends off A and its transit on disk
    m + 1 (0 to 1) both on A.  For (m, 1, u_m), the transit on disk m
    arrives along band 1.  The one on disk m + 1 enters the run of band 1
    from crossing 0, which lies on A, and the run leaves on disk m by
    crossing 0, which lies off A.  That one event inserts (-2, u_m + 1)
    and gives (1, -2, u_m + 1, -2).  Last, R itself, (m, 0, 1): every
    transit but the one from u_m to -2 on disk m + 1 arrives along band
    0 or 1.  That one enters the run -2, 1, -2 from u_m, on A on disk
    m + 1, and leaves it on disk m by u_m, off A there.  Inserting (-1, 2)
    before the last -2 and reducing gives (-2, u_m + 1) = X_m.

    Column g < m.  Before it the curve is X_{g+1}.  Its transits are the
    turns between consecutive letters: two downs -(d_{k+1} + 1),
    -(d_k + 1) meet on disk k + 1, two ups u_k + 1, u_{k+1} + 1 meet on
    disk k + 1, and the closing turn u_m to d_m lies on disk m + 1.  So
    only the turn from d_{g+1} to u_{g+1} lies on disk g + 1, and nothing
    lies on disk g.
    Let P_0 < P_1 < ... be the crossings of letter g.  None lies before
    the prefix's s_g run, so P_0 = d_g > d_{g+1}, and P_0 < e <= u_{g+1}.
    Neither end of the turn is a band of column g, so for (g, P_{i-1}, P_i)
    it is an event exactly when u_{g+1} lies between P_{i-1} and P_i; the
    end at d_{g+1} is always on A.
    - No P_i lies after u_{g+1}, so u_g is not found and h = g + 1: no
      twist of column g has an event.  The curve still has nothing on disk
      g, so no twist of column g - 1 has one either, and so on: the image
      is X_{g+1}.
    - Otherwise u_g = P_i, the first crossing of letter g after u_{g+1},
      and i >= 1.  The twists with t >= u_g have no event.
      (g, P_{i-1}, u_g) has the one event, arriving from A, and inserts
      (-(P_{i-1} + 1), u_g + 1) between -(d_{g+1} + 1) and u_{g+1} + 1,
      where nothing cancels.  Then for j = i - 1, ..., 1 the curve holds
      -(d_{g+1} + 1), -(P_j + 1), u_g + 1, u_{g+1} + 1, and the twist along
      (g, P_{j-1}, P_j) meets it only in these turns.  The turn from P_j
      to u_g, on disk g, arrives along band P_j.  The turn from d_{g+1} to
      P_j, on disk g + 1, enters that run from A and leaves it by u_g > P_j,
      off A on disk g: one event.  It inserts (-(P_{j-1} + 1), P_j + 1)
      before -(P_j + 1), and P_j + 1 cancels against -(P_j + 1), so the
      down letter moves up to P_{j-1}.  The turn from u_g to u_{g+1} has
      both ends after P_j, on A.  After j = 1 the curve is X_g.

    Rotation: the engine's X_m starts with -2, each later insertion goes
    in at an index of at least 1, and the first letter -2 and the last
    u_m + 1 >= 3 never cancel, so reduce_cyclic keeps the rotation.  So
    the image is X_h.  QED.

    validate_trefoil_step recomputes every image with the twist engine
    (_deplumb), and the selftest's criterion 5 does so on every step of
    the knot corpus.
    """
    m = letters[0]
    ups = []
    p = 1
    for g in range(m, 0, -1):
        try:
            p = letters.index(g, p + 1)
        except ValueError:
            break
        ups.append(p + 1)
    downs = [-2]
    d = 2  # d_{m-1}, then each run's end is the next run's start
    for g in range(m - 1, m - len(ups), -1):
        downs.append(-(d + 1))
        while letters[d] == g:
            d += 1
    ups.reverse()
    return (*downs, *ups)


def _deplumb(norm: BraidWord) -> tuple[tuple[int, ...], tuple[int, ...], BraidWord]:
    """The top rectangle's curve R, its monodromy image and the after-word
    of a knot word that starts with a square s_m s_m, by the twist engine.

    The validator's deplumbing routine: it builds the surface, applies
    the monodromy to the circle of the rectangle (m, 0, 1), m the first
    letter, and takes the after-word from _after_word.  trefoil_step
    constructs the image from the letters instead (_top_rectangle_image),
    so this is the engine's check of that construction.  The disjointness
    of the image from the top band is a theorem for positive braid knots;
    its failure is fatal, not recoverable.
    """
    surface = build_surface(norm)
    r_curve = cv.curve_from_rectangle(surface, RectangleCurve(norm.letters[0], 0, 1))
    image = cv.apply_monodromy(r_curve)
    traversals = image.traverses(0)
    if traversals != 0:
        raise DisjointnessFailure(
            f"monodromy image meets the top band {traversals} times on {norm.text()!r}"
        )
    return r_curve.word, image.word, _after_word(norm)


def _require_knot(word: BraidWord) -> None:
    """Raise NotAKnot unless the closure is a knot.  A word on s > c + 1
    strands has at least s - c components, counted without its permutation."""
    if not word.is_knot:
        c = len(word.letters)
        count = f"at least {word.strands - c}" if word.strands > c + 1 else word.components
        raise NotAKnot(f"closure has {count} components")


def trefoil_step(word: BraidWord) -> TrefoilStep:
    """Normalize to a square prefix, construct the top rectangle's
    monodromy image, and remove the square.

    The moves must replay to the normalized word, or the engine is at
    fault.  The after-word comes from _after_word, the routine the
    validator calls too, and the image from the normalized word's letters
    (_top_rectangle_image), with no surface built and no twist applied.
    R, the circle of the rectangle (m, 0, 1), is the word (1, -2).
    validate_trefoil_step recomputes the image with the twist engine.
    """
    _require_knot(word)
    if word.b1 == 0:
        raise TrivialKnot("genus zero: nothing to deplumb")
    res = square_normalization(word)
    if replay_moves(word, res.moves) != res.word:
        raise InternalConsistencyError("move replay does not reach the normalized word")
    after = _after_word(res.word)
    image = _top_rectangle_image(res.word.letters)
    return TrefoilStep(word, res.moves, res.m, (1, -2), image, after)


def trefoil_decompose(word: BraidWord) -> TrefoilDecomposition:
    """Iterate trefoil_step until genus zero; step count equals the genus."""
    _require_knot(word)
    genus = word.b1 // 2
    steps = []
    w = word
    while w.b1 > 0:
        step = trefoil_step(w)
        steps.append(step)
        w = step.after
    if len(steps) != genus:
        raise InternalConsistencyError("step count disagrees with the genus")
    if not is_trivial_closure(w):
        raise InternalConsistencyError("final word does not destabilize to the identity")
    return TrefoilDecomposition(word=word, steps=tuple(steps), final_word=w)


def validate_trefoil_step(step: TrefoilStep) -> bool:
    """Replay the moves, then recompute the step's curve and image.

    Moves that do not replay to the stored square s_m s_m followed by the
    stored after-word, on its strands, or a stored curve or image other
    than the recomputed one, raise CertificateRejected.  Only a word the
    replay has matched reaches _deplumb, whose theorem checks keep
    InternalConsistencyError.
    """
    norm = replay_moves(step.before, step.moves)
    after = step.after
    if norm.strands != after.strands or norm.letters != (step.m, step.m) + after.letters:
        raise CertificateRejected("move replay does not reach the normalized word")
    curve, image, _ = _deplumb(norm)
    if curve != step.curve:
        raise CertificateRejected("stored curve is not the top rectangle")
    if image != step.image:
        raise CertificateRejected("stored image is not the monodromy image")
    return True


def validate_trefoil_decomposition(dec: TrefoilDecomposition) -> bool:
    """Validate every step and the chain they form.

    A certificate whose word is not a knot, whose steps do not chain, or
    whose stored final word or step count differs from the recomputed one
    raises CertificateRejected.  Past those checks the final word has
    b1 = 0, so its failure to destabilize is an engine error.
    """
    if not dec.word.is_knot:
        raise CertificateRejected("the certificate's word is not a knot")
    w = dec.word
    for step in dec.steps:
        if step.before.letters != w.letters or step.before.strands != w.strands:
            raise CertificateRejected("steps do not chain")
        validate_trefoil_step(step)
        w = step.after
    if w.letters != dec.final_word.letters:
        raise CertificateRejected("final word mismatch")
    if len(dec.steps) != dec.word.b1 // 2:
        raise CertificateRejected("ribbon twist count must equal the genus")
    if not is_trivial_closure(dec.final_word):
        raise InternalConsistencyError("final word does not destabilize to the identity")
    return True


def trefoil_decomposition_from_json(data) -> TrefoilDecomposition:
    """Load a decomposition's JSON; CertificateRejected names a missing or
    wrongly typed field, a letter outside the generator range (in word,
    before, m, after or final_word), or a genus or ribbon twist count other
    than the step count."""
    ints = "a list of integers"
    strands = json_field(data, "strands", "an integer")
    word = field_word(strands, json_field(data, "word", ints), "word")
    steps = []
    w = word
    for i, raw in enumerate(json_field(data, "steps", "a list")):
        where = f"steps[{i}]."
        before = tuple(json_field(raw, "before", ints, where))
        # A step that chains starts from the previous step's after-word:
        # reuse it.  Any other before-word gets its own BraidWord, and
        # validate_trefoil_decomposition rejects it.
        before = w if before == w.letters else field_word(w.strands, before, where + "before")
        moves = tuple(
            move_from_json(mv, f"{where}moves[{k}].")
            for k, mv in enumerate(json_field(raw, "moves", "a list", where))
        )
        # The after-word is on one strand fewer per destabilization;
        # validate_trefoil_step replays the moves to the square plus it.
        strands = before.strands - sum(isinstance(mv, Destabilize) for mv in moves)
        after = field_word(strands, json_field(raw, "after", ints, where), where + "after")
        # m is a letter of the normalized word, which is on after's strands.
        m = json_field(raw, "m", "an integer", where)
        if not 0 < m < strands:
            raise CertificateRejected(
                f"field {where + 'm'!r}: letter {m} outside the generator range 1..{strands - 1}"
            )
        steps.append(
            TrefoilStep(
                before=before,
                moves=moves,
                m=m,
                curve=tuple(json_field(raw, "R", ints, where)),
                image=tuple(json_field(raw, "phiR", ints, where)),
                after=after,
            )
        )
        w = after
    genus = json_field(data, "genus", "an integer")
    ribbon_twists = json_field(data, "ribbon_twists", "an integer")
    final = tuple(json_field(data, "final_word", ints))
    final_word = w if final == w.letters else field_word(w.strands, final, "final_word")
    if genus != len(steps) or ribbon_twists != len(steps):
        raise CertificateRejected("genus and ribbon twists must equal the step count")
    return TrefoilDecomposition(word=word, steps=tuple(steps), final_word=final_word)


# ---------------------------------------------------------------------------
# Torus braids
# ---------------------------------------------------------------------------


def torus_braid(p: int, q: int) -> BraidWord:
    """The braid (s_1 s_2 ... s_{p-1})^q on p strands."""
    if p < 1 or q < 0:
        raise InvalidParameter(f"torus braid needs p >= 1 and q >= 0, got ({p}, {q})")
    return BraidWord(p, tuple(list(range(1, p)) * q))


@dataclasses.dataclass(frozen=True)
class TorusSummandReport:
    p: int
    q: int
    detector_n: int
    hironaka_max_plumbing: Optional[int]
    verdict: str
    certificate: Optional[ChainCertificate]

    def to_json(self):
        return {
            "p": self.p,
            "q": self.q,
            "detector_n": self.detector_n,
            "hironaka_max_plumbing": self.hironaka_max_plumbing,
            "verdict": self.verdict,
            "certificate": self.certificate.to_json() if self.certificate else None,
        }


def torus_summand_report(p: int, q: int) -> TorusSummandReport:
    """Chain detector versus the Alexander-polynomial bound for T(p, q).

    Seeds every rectangle of the first column (the optimal deep-orbit
    chains re-enter the left column).  When the detector meets the bound
    the answer is exact; otherwise the detector value is a lower bound.

    The gap is a negative result, not a missing seed: on T(4,5), T(5,6),
    T(4,7), T(6,7) and T(5,9) no seed beat the rectangles, among every
    rectangle, every band sum T_a^{+-1}(R_b) of neighbouring rectangles and
    every image of a rectangle under a partial twist product, nor on T(4,5)
    (T(5,6)) any embedded reduced word up to length 8 (6).  Two sharper
    upper bounds were rejected: divisibility of Delta by Delta_{A_n} =
    (t^{n+1} - (-1)^{n+1})/(t + 1) allows 0 on T(3,5), where the detector
    finds 5, and the Levine-Tristram inertia bound was never sharper than
    the Hironaka bound on the 21 torus knots tried.
    """
    word = torus_braid(p, q)
    hironaka_bound = None
    if q >= 1:
        delta = torus_alexander(p, q) if gcd(p, q) == 1 else burau_alexander(word)
        hironaka_bound = hironaka_max_n(delta)[0] - 1
    if q < 2 or p < 2:
        return TorusSummandReport(p, q, 0, hironaka_bound, "degenerate", None)
    surface = build_surface(word)
    cap = hironaka_bound + 2
    best = None
    for seed in surface.rectangles:
        if seed.column != 1:
            break  # rectangles are listed column by column
        cert = detect_chain(surface, seed, cap)
        if best is None or cert.n > best.n:
            best = cert
    detector_n = best.n if best else 0
    if detector_n > hironaka_bound:
        raise InternalConsistencyError(
            "detected chain exceeds the Alexander-polynomial bound"
        )
    verdict = "exact" if detector_n == hironaka_bound else "lower_bound"
    return TorusSummandReport(p, q, detector_n, hironaka_bound, verdict, best)
