"""Acceptance suite: every headline claim as one timed pass/fail check.

Each criterion function returns a CriterionResult; run_all executes them in
order and reuses the chain certificates of the torus criteria for the
final obstruction-consistency check.  All expectations are exact.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from math import gcd
from typing import Callable

from . import curves as cv
from .alexpoly import (
    LaurentPolynomial,
    burau_alexander,
    hironaka_max_n,
    hironaka_solve,
    torus_alexander,
)
from .braidwords import BraidWord
from .errors import CertificateRejected, InternalConsistencyError
from .fatgraph import RectangleCurve, build_surface
from .monodromy import alexander_from_monodromy, homological_monodromy, intersection_form
from .plumbing import (
    ChainCertificate,
    detect_chain,
    torus_braid,
    torus_summand_report,
    trefoil_step,
    validate_chain_certificate,
    validate_trefoil_step,
)


@dataclasses.dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float
    limit: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: {self.detail} "
            f"({self.elapsed:.2f}s / limit {self.limit:g}s)"
        )


def _timed(limit: float):
    def wrap(fn: Callable[..., tuple[bool, str]]):
        def run(*args, **kwargs) -> CriterionResult:
            t0 = time.time()
            passed, detail = fn(*args, **kwargs)
            elapsed = time.time() - t0
            if elapsed > limit:
                passed = False
                detail += f"; exceeded the {limit:.0f}s budget"
            return CriterionResult(fn.__name__, passed, detail, elapsed, limit)

        return run

    return wrap


# ---------------------------------------------------------------------------
# Corpus enumeration (criterion 5)
# ---------------------------------------------------------------------------


def necklaces_fixed_content(content: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All least-rotation representatives of cyclic words with the given
    letter multiplicities (letters 0..k-1, counts all >= 1)."""
    n = sum(content)
    k = len(content)
    a = [0] * n
    counts = list(content)
    out: list[tuple[int, ...]] = []
    counts[0] -= 1

    def gen(t: int, p: int):
        if t == n:
            if n % p == 0:
                out.append(tuple(a))
            return
        lo = a[t - p]
        for j in range(lo, k):
            if counts[j]:
                a[t] = j
                counts[j] -= 1
                gen(t + 1, p if j == lo else t + 1)
                counts[j] += 1

    gen(1, 1)
    return out


def _compositions(total: int, parts: int, minimum: int):
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def reduced_knot_corpus(max_crossings: int):
    """Connected reduced positive knot words up to cyclic rotation.

    Connected: every generator present; reduced: every generator at least
    twice; knot: the closure permutation is one cycle (which forces
    c = s - 1 mod 2).  The cycle is traced on the necklace itself, so a
    BraidWord is built only for the knots, about one necklace in seven.
    """
    for k in range(1, max_crossings // 2 + 1):
        s = k + 1
        for c in range(2 * k, max_crossings + 1):
            if (c - k) % 2:
                continue
            for content in _compositions(c, k, 2):
                for neck in necklaces_fixed_content(content):
                    if _closes_to_knot(s, neck):
                        yield BraidWord(s, tuple(x + 1 for x in neck))


def _closes_to_knot(strands: int, neck: tuple[int, ...]) -> bool:
    """BraidWord.is_knot for the word whose letters are neck's plus one."""
    perm = list(range(strands))
    for x in neck:
        perm[x], perm[x + 1] = perm[x + 1], perm[x]
    v, size = perm[0], 1
    while v:
        v = perm[v]
        size += 1
    return size == strands


def random_connected_word(rng: random.Random, c: int, s: int) -> BraidWord:
    base = list(range(1, s)) + [rng.randint(1, s - 1) for _ in range(c - s + 1)]
    rng.shuffle(base)
    return BraidWord(s, tuple(base))


def _random_curve(surface, rng: random.Random) -> cv.NormalCurve:
    x = cv.curve_from_rectangle(surface, rng.choice(surface.rectangles))
    return cv.apply_monodromy(x, rng.randint(0, 3))


def _pairing(x: cv.NormalCurve, j, y: cv.NormalCurve) -> int:
    """The homology of x and y paired by J, given by sparse rows."""
    hx, hy = x.homology, y.homology
    return sum(hx[a] * val * hy[b] for a, row in enumerate(j) if hx[a] for b, val in row.items())


def _seifert_identity(j, h) -> bool:
    """V^T H = V from the sparse rows of J and H.  Row a of V^T H is H[a]
    plus J[k][a] H[k] over the k > a, and J[k][a] = -J[a][k]."""
    for a, row in enumerate(j):
        vt_h = dict(h[a])
        v_row = {a: 1}
        for k, val in row.items():
            if k < a:
                v_row[k] = val
                continue
            for b, x in h[k].items():
                vt_h[b] = vt_h.get(b, 0) - val * x
        if {b: x for b, x in vt_h.items() if x} != v_row:
            return False
    return True


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


@_timed(0.1)
def torus37_identity() -> tuple[bool, str]:
    delta = torus_alexander(3, 7)
    target = LaurentPolynomial(
        {0: 1, 2: -1, 3: 1, 5: -1, 6: 1, 7: 1, 8: -1, 10: 1, 11: -1, 13: 1}
    )
    product_ok = (LaurentPolynomial({1: 1, 0: 1}) * delta) == target
    sol = hironaka_solve(delta, 7, 1)
    p_expected = LaurentPolynomial({0: 1, 1: -1, 3: 1, 4: -1, 6: 1})
    sol_ok = sol is not None and sol.n == 7 and sol.P == p_expected and sol.verify(delta)
    return product_ok and sol_ok, f"identity={product_ok} solver={sol_ok}"


@_timed(30.0)
def proposition1(cert_sink: list) -> tuple[bool, str]:
    ok = True
    checked = []
    for k in range(1, 5):
        for q, expect_n_max, expect_chain in (
            (3 * k + 1, 3 * k + 1, 3 * k),
            (3 * k + 2, 3 * k + 3, 3 * k + 2),
        ):
            rep = torus_summand_report(3, q)
            n_max = rep.hironaka_max_plumbing + 1
            good = (
                n_max == expect_n_max
                and rep.detector_n == expect_chain
                and rep.verdict == "exact"
            )
            ok = ok and good
            checked.append(f"T(3,{q}):{rep.detector_n}/{n_max}{'' if good else '!'}")
            if rep.certificate is not None:
                cert_sink.append(rep.certificate)
    return ok, " ".join(checked)


@_timed(30.0)
def general_lower_bound(cert_sink: list) -> tuple[bool, str]:
    ok = True
    details = []
    for p in range(2, 6):
        for q in range(p + 1, 10):
            if gcd(p, q) != 1:
                continue
            rep = torus_summand_report(p, q)
            good = rep.detector_n >= p - 1
            ok = ok and good
            details.append(f"T({p},{q}):{rep.detector_n}{'' if good else '!'}")
            if rep.certificate is not None:
                cert_sink.append(rep.certificate)
    for q in range(2, 10):
        surface = build_surface(torus_braid(2, q))
        cert = detect_chain(surface, surface.top_left_rectangle(), q + 1)
        good = cert.n == q - 1
        ok = ok and good
        details.append(f"s1^{q}:{cert.n}{'' if good else '!'}")
        cert_sink.append(cert)
    return ok, " ".join(details)


@_timed(60.0)
def proposition2(cert_sink: list) -> tuple[bool, str]:
    rep = torus_summand_report(5, 7)
    cert_sink.append(rep.certificate)
    return rep.detector_n >= 14, f"T(5,7) chain n={rep.detector_n} (need >= 14)"


@_timed(600.0)
def trefoil_exhaustive(max_crossings: int = 12) -> tuple[bool, str]:
    """Criterion 5: every reduced positive knot class with c <= max_crossings
    decomposes in genus-many trefoil steps.

    Step counts are memoized by the class of the word a step starts from,
    so each distinct step is built once, and validate_trefoil_step checks
    each step built: it recomputes with the twist engine the image that
    trefoil_step constructs from the letters.  A step count other than the
    genus, or a step the validator rejects, is a failure.
    """
    memo: dict = {}
    validated = 0
    bad = 0

    def step_count(word: BraidWord) -> int:
        """Steps to genus zero; validates each step it builds."""
        nonlocal validated, bad
        if word.b1 == 0:
            return 0
        key = (word.strands, word.canonical())
        hit = memo.get(key)
        if hit is None:
            step = trefoil_step(word)
            try:
                validate_trefoil_step(step)
                validated += 1
            except CertificateRejected:
                bad += 1
            hit = memo[key] = step_count(step.after) + 1
        return hit

    total = 0
    for word in reduced_knot_corpus(max_crossings):
        total += 1
        if step_count(word) != word.b1 // 2:
            bad += 1
    return bad == 0, (
        f"{total} knot classes (c <= {max_crossings}), {validated} steps validated,"
        f" {bad} failures"
    )


@_timed(60.0)
def alexander_three_way() -> tuple[bool, str]:
    ok = True
    pairs = 0
    for p in range(2, 6):
        for q in range(p + 1, 10):
            if gcd(p, q) != 1:
                continue
            word = torus_braid(p, q)
            a_torus = torus_alexander(p, q)
            a_burau = burau_alexander(word)
            a_mono = alexander_from_monodromy(build_surface(word))
            if not (a_torus.unit_equal(a_burau) and a_burau.unit_equal(a_mono)):
                ok = False
            pairs += 1
    rng = random.Random(20240711)
    randoms = 0
    while randoms < 100:
        s = rng.randint(2, 6)
        c = rng.randint(max(2, s - 1), 12)
        word = random_connected_word(rng, c, s)
        if not word.is_connected:
            continue
        if not burau_alexander(word).unit_equal(
            alexander_from_monodromy(build_surface(word))
        ):
            ok = False
        randoms += 1
    return ok, f"{pairs} torus pairs, {randoms} random words"


@_timed(60.0)
def curve_property_suite() -> tuple[bool, str]:
    """Twists act on homology as transvections, the push-off twist along a
    rectangle equals the linked-pair twist along its circle word for word
    and the push-off count equals the linked-pair count against the
    circle, |pairing| <= geometric intersection, the monodromy keeps
    geometric and self-intersection numbers (the lemma behind
    detect_chain's orbit criterion), H meets the Seifert identity
    V^T H = V, and rectangle orbits of three torus knots.  J comes from intersection_form, which
    reads the brick diagram and runs no part of the curve engine, so the
    transvection and bound checks test the engine against it.  V is 1 on
    the diagonal and J[a][b] for a > b (rectangle a is twisted before b),
    0 above it, so the identity checks homological_monodromy without its
    transvection loop."""
    rng = random.Random(987123)
    surfaces = [
        build_surface(torus_braid(3, 5)),
        build_surface(torus_braid(4, 4)),
        build_surface(BraidWord(4, (3, 1, 2, 2, 3, 1, 2, 1))),
        build_surface(BraidWord(3, (1, 1, 2, 2, 1, 2))),
    ]
    forms = {id(s): intersection_form(s) for s in surfaces}

    pl_ok = rect_ok = count_ok = True
    for _ in range(1000):
        surface = rng.choice(surfaces)
        j = forms[id(surface)]
        rect = rng.choice(surface.rectangles)
        gamma = cv.curve_from_rectangle(surface, rect)
        x = _random_curve(surface, rng)
        right = rng.random() < 0.5
        tw = cv.dehn_twist(cv.TwistFactor(gamma, right=right), x)
        linked = tw if right else cv.dehn_twist(cv.TwistFactor(gamma), x)
        rect_ok = rect_ok and cv.dehn_twist(rect, x).word == linked.word
        count_ok = count_ok and (
            cv.geometric_intersection(x, rect) == cv.geometric_intersection(x, gamma)
        )
        pairing = _pairing(x, j, gamma)
        sign = cv.RIGHT_HANDED_SIGN if right else -cv.RIGHT_HANDED_SIGN
        expect = tuple(a + sign * pairing * b for a, b in zip(x.homology, gamma.homology))
        if tw.homology != expect:
            pl_ok = False
            break

    bound_ok = True
    for _ in range(1000):
        surface = rng.choice(surfaces)
        j = forms[id(surface)]
        x = _random_curve(surface, rng)
        y = _random_curve(surface, rng)
        if abs(_pairing(x, j, y)) > cv.geometric_intersection(x, y):
            bound_ok = False
            break

    invariance_ok = True
    for _ in range(200):
        surface = rng.choice(surfaces)
        x = _random_curve(surface, rng)
        y = _random_curve(surface, rng)
        fx = cv.apply_monodromy(x)
        fy = cv.apply_monodromy(y)
        kept = cv.geometric_intersection(fx, fy) == cv.geometric_intersection(x, y)
        if not kept or cv.self_intersection(fx) != cv.self_intersection(x):
            invariance_ok = False
            break

    seifert_ok = all(
        _seifert_identity(forms[id(s)], homological_monodromy(s)) for s in surfaces
    )

    def reaches(surface, power, rect):
        """The power-th monodromy image of the top-left rectangle is rect."""
        start = cv.curve_from_rectangle(surface, surface.top_left_rectangle())
        image = cv.apply_monodromy(start, power)
        return rect in surface.rectangles and image.is_isotopic(
            cv.curve_from_rectangle(surface, rect)
        )

    s43 = build_surface(torus_braid(4, 3))
    orbit_ok = (
        all(reaches(s43, k, RectangleCurve(k + 1, k, k + 3)) for k in (1, 2))
        and reaches(build_surface(torus_braid(3, 8)), 3, RectangleCurve(1, 6, 8))
        and reaches(build_surface(torus_braid(5, 7)), 5, RectangleCurve(1, 20, 24))
    )

    return (
        pl_ok and rect_ok and count_ok and bound_ok and invariance_ok and seifert_ok and orbit_ok,
        f"transvection={pl_ok} rect-twist={rect_ok} rect-count={count_ok} "
        f"pairing-bound={bound_ok} monodromy-invariance={invariance_ok} "
        f"seifert={seifert_ok} orbits={orbit_ok}",
    )


@_timed(120.0)
def obstruction_consistency(certs: list[ChainCertificate]) -> tuple[bool, str]:
    ok = True
    rejected = 0
    cache: dict = {}
    for cert in certs:
        key = (cert.word.strands, cert.word.letters)
        n_max = cache.get(key)
        if n_max is None:
            delta = burau_alexander(cert.word)
            n_max, _ = hironaka_max_n(delta)
            cache[key] = n_max
        if n_max < cert.n + 1:
            ok = False
        back = ChainCertificate.from_json(json.loads(json.dumps(cert.to_json())))
        try:
            valid = back == cert and validate_chain_certificate(back)
        except (CertificateRejected, InternalConsistencyError):
            valid = False
        rejected += not valid
    return ok and not rejected, (
        f"{len(certs)} certificates against their Alexander bounds; "
        f"{rejected} rejected after a JSON round trip"
    )


def run_all(quick: bool = False) -> list[CriterionResult]:
    """Run the acceptance criteria in order; quick mode shrinks the corpus."""
    certs: list[ChainCertificate] = []
    results = [
        torus37_identity(),
        proposition1(certs),
        general_lower_bound(certs),
        proposition2(certs),
        trefoil_exhaustive(10 if quick else 12),
        alexander_three_way(),
        curve_property_suite(),
        obstruction_consistency(certs),
    ]
    return results
