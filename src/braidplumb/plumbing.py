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
(proof in detect_chain).
"""

from __future__ import annotations

import dataclasses
from math import gcd
from typing import Optional

from . import curves as cv
from .alexpoly import burau_alexander, hironaka_max_n, torus_alexander
from .braidwords import (
    BraidWord,
    Destabilize,
    RewriteMove,
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
        word = BraidWord(strands, tuple(json_field(data, "word", "a list of integers")))
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


def _chain_ok(candidate, chain, echelon) -> Optional[tuple[int, list[int]]]:
    """The echelon entry of the candidate phi(C_k), or None when it does
    not extend the chain C_0, ..., C_k (the orbit criterion, see
    detect_chain).

    Cheapest test first: i(phi(C_k), C_0) must be 1 for k = 0 and 0
    afterwards, the candidate must be embedded, and its homology row must
    raise the rank over Q by one.
    """
    expect = 1 if len(chain) == 1 else 0
    if cv.geometric_intersection(candidate, chain[0]) != expect:
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
    intersection against the seed curve instead of k + 1, and a failing
    one is dropped after that single scan.
    """
    if max_n < 1:
        raise InvalidParameter(f"max_n must be at least 1, got {max_n}")
    c0 = cv.curve_from_rectangle(surface, seed)
    if cv.self_intersection(c0) != 0:
        raise InternalConsistencyError("rectangle curves must be embedded")
    chain = [c0]
    echelon = [reduce_row(c0.homology, [])]  # a rectangle: a basis vector
    last = c0
    while len(chain) < max_n:
        candidate = cv.apply_monodromy(surface, last, 1)
        entry = _chain_ok(candidate, chain, echelon)
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

    After checking that the stored words are paths and the seed is a
    rectangle, detect_chain regrows the chain from the seed, so the iterate
    property C_k = phi^k(C_0), embeddedness, the intersection pattern and
    the rank over Q are decided by the test that certifies them.  A stored
    length other than n, or a seed that is no rectangle, contradicts the
    certificate itself.  The regrown chain must reach n, every stored
    curve must be isotopic to the regrown one, and the stored table and
    rank must equal the regrown ones.  Each of these checks compares a
    stored field with the engine's own result, so each failure raises
    CertificateRejected.  Only the validator tests the cut independence of
    the transversal-arc functionals u H^{-k} (u pairs cycles with the
    seed's top band), which certifies that cutting the surface along the
    chain's arcs leaves it connected.
    """
    surface = build_surface(cert.word)
    chain = [cv.NormalCurve(surface, w, reduce=False) for w in cert.curve_words]
    n = cert.n
    if len(chain) != n or n < 1:
        raise CertificateRejected("certificate length disagrees with n")
    if cert.seed not in surface.rectangles:
        raise CertificateRejected("seed is not a rectangle of the surface")
    fresh = detect_chain(surface, cert.seed, n)
    if fresh.n < n:
        raise CertificateRejected(f"the chain from the seed stops at n = {fresh.n}")
    for k, word in enumerate(fresh.curve_words):
        if chain[k].canonical() != min_rotation(word):
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
    the rank, so the test needs only integer vector-matrix products.  H has
    a few nonzeros per column, read once, so each product is a sum over
    them: O(nnz(H)) instead of b1^2.  Each row is reduced against the ones
    before it as it is formed (reduce_row), and the first dependent row
    decides.
    """
    h = homological_monodromy(surface)
    cols = [[(r, x) for r, x in enumerate(col) if x] for col in zip(*h)]
    u = [0] * len(surface.rectangles)
    for idx, rect in enumerate(surface.rectangles):
        if rect.top == seed.top:
            u[idx] += 1
        if rect.bottom == seed.top:
            u[idx] -= 1
    echelon = []
    row = u
    while True:
        entry = reduce_row(row, echelon)
        if entry is None:
            return False
        echelon.append(entry)
        if len(echelon) == n:
            return True
        row = [sum(row[r] * x for r, x in col) for col in cols]


# ---------------------------------------------------------------------------
# Trefoil decomposition
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TrefoilStep:
    """One square-removal step, certified by the disjointness check."""

    before: BraidWord
    moves: tuple[RewriteMove, ...]
    normalized: BraidWord
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


def _build_step(
    before: BraidWord, moves: tuple[RewriteMove, ...], m: int
) -> TrefoilStep:
    """Replay the moves and compute every field of the step they define.

    The one routine behind trefoil_step and validate_trefoil_step.  The
    disjointness of the monodromy image from the top band is a theorem for
    positive braid knots; its failure is fatal, not recoverable.
    """
    norm = replay_moves(before, list(moves))
    if norm.letters[:2] != (m, m):
        raise InternalConsistencyError("normalized word does not start with the square")
    surface = build_surface(norm)
    rect = surface.rectangles[surface.rect_index[(m, 0)]]
    if rect.bottom != 1:
        raise InternalConsistencyError("square prefix must give the top rectangle (0, 1)")
    r_curve = cv.curve_from_rectangle(surface, rect)
    image = cv.apply_monodromy(surface, r_curve, 1)
    traversals = image.traverses(0)
    if traversals != 0:
        raise DisjointnessFailure(
            f"monodromy image meets the top band {traversals} times on {norm.text()!r}"
        )
    after = BraidWord(norm.strands, norm.letters[2:])
    if not after.is_connected:
        raise InternalConsistencyError("square removal disconnected a knot word")
    if after.b1 != norm.b1 - 2:
        raise InternalConsistencyError("square removal must drop b1 by exactly 2")
    return TrefoilStep(
        before=before,
        moves=moves,
        normalized=norm,
        m=m,
        curve=r_curve.word,
        image=image.word,
        after=after,
    )


def trefoil_step(word: BraidWord) -> TrefoilStep:
    """Normalize to a square prefix, verify the deplumbing disjointness,
    and remove the square.

    The step is built by the validator's own routine from the moves, so a
    returned step passes validate_trefoil_step by construction.
    """
    if not word.is_knot:
        raise NotAKnot(f"closure has {word.components} components")
    if word.b1 == 0:
        raise TrivialKnot("genus zero: nothing to deplumb")
    res = square_normalization(word)
    step = _build_step(word, res.moves, res.m)
    if step.normalized != res.word:
        raise InternalConsistencyError("move replay does not reach the normalized word")
    return step


def trefoil_decompose(word: BraidWord) -> TrefoilDecomposition:
    """Iterate trefoil_step until genus zero; step count equals the genus."""
    if not word.is_knot:
        raise NotAKnot(f"closure has {word.components} components")
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
    """Replay the moves and recompute every stored field of a step.

    A stored field that differs from the recomputed one raises
    CertificateRejected; the theorem checks inside _build_step keep
    InternalConsistencyError.
    """
    fresh = _build_step(step.before, step.moves, step.m)
    if fresh.normalized != step.normalized:
        raise CertificateRejected("move replay does not reach the normalized word")
    if fresh.curve != step.curve:
        raise CertificateRejected("stored curve is not the top rectangle")
    if fresh.image != step.image:
        raise CertificateRejected("stored image is not the monodromy image")
    if fresh.after != step.after:
        raise CertificateRejected("stored after-word is not the square removal")
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
    wrongly typed field, or a genus or ribbon twist count other than the
    step count."""
    ints = "a list of integers"
    strands = json_field(data, "strands", "an integer")
    word = BraidWord(strands, tuple(json_field(data, "word", ints)))
    steps = []
    w = word
    for i, raw in enumerate(json_field(data, "steps", "a list")):
        where = f"steps[{i}]."
        before = tuple(json_field(raw, "before", ints, where))
        # A step that chains starts from the previous step's after-word:
        # reuse it.  Any other before-word gets its own BraidWord, and
        # validate_trefoil_decomposition rejects it.
        before = w if before == w.letters else BraidWord(w.strands, before)
        moves = tuple(
            move_from_json(mv, f"{where}moves[{k}].")
            for k, mv in enumerate(json_field(raw, "moves", "a list", where))
        )
        m = json_field(raw, "m", "an integer", where)
        # The normalized word is the square plus the after-word, on one
        # strand fewer per destabilization; validate_trefoil_step replays
        # the moves and compares.
        strands = before.strands - sum(isinstance(mv, Destabilize) for mv in moves)
        norm = BraidWord(strands, (m, m) + tuple(json_field(raw, "after", ints, where)))
        after = BraidWord(strands, norm.letters[2:])
        steps.append(
            TrefoilStep(
                before=before,
                moves=moves,
                normalized=norm,
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
    final_word = w if final == w.letters else BraidWord(w.strands, final)
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
    for seed in surface.column_rectangles(1):
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
