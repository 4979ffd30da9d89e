"""Seeded inputs and the certify / verify steps of the three workloads.

Every function takes `bp`, a namespace of freshly imported braidplumb
modules, and calls the package through module attributes at call time, so
the tracer's wrappers see every call.  Inputs are derived from the seed
(the heavy knot strata from a fixed one); the program only ever sees the
generated braid words.
"""

from __future__ import annotations

import dataclasses
import json
import random
from math import gcd
from typing import Any, Callable, Optional

# Torus knot ladder of the `knots` workload.  T(5, q) drives the
# breadth-first normalization search; T(6, 7) does not decide within the
# per-input limit on the current engine and stays in so that the defect
# shows as a failure.
KNOT_LADDER = (
    [(3, q) for q in range(4, 18) if gcd(3, q) == 1]
    + [(4, q) for q in range(5, 12) if gcd(4, q) == 1]
    + [(5, q) for q in range(6, 14) if gcd(5, q) == 1]
    + [(6, 7)]
)

class WrongVerdict(Exception):
    """The program produced a result that a correctness gate rejects."""


@dataclasses.dataclass
class Item:
    """One benchmark input: a braid word plus workload-specific data."""

    label: str
    kind: str  # "random" or "torus"; run.spread_order interleaves the kinds
    word: Any  # braidplumb.braidwords.BraidWord
    rect: Optional[int] = None  # chains: seed rectangle index
    torus: Optional[tuple[int, int]] = None
    bound: Optional[int] = None  # chains: Alexander plumbing bound of a torus knot


def _torus(bp, p: int, q: int):
    return bp.braidwords.BraidWord(p, tuple(range(1, p)) * q)


# How many of the 300 random knot words have s strands: the mix that uniform
# (s, c) cells with uniform letters accept (estimated from 200,000 draws),
# fixed so that seeds differ in words but not in the mix of sizes.
KNOT_STRANDS_QUOTA = {4: 153, 5: 97, 6: 35, 7: 13, 8: 2}

# Words on 6 or more strands are where the breadth-first normalization
# search blows up: over ten seeds their total certify time ranged from 0.7 s
# to 6 s, and one of them ran past the 10 s limit, against about 1 s for
# each of the s = 4 and s = 5 strata.  They
# are drawn from this fixed seed in every run, so the tail and throughput
# do not depend on how many of them a seed happens to make expensive.
HEAVY_STRANDS = 6
HEAVY_SEED = 0


def _knot_cells():
    # c - s + 1 must be even: the closure of c transpositions is an s-cycle
    # only when c and s - 1 have the same parity, so any other (s, c) pair
    # would make the rejection loop below spin forever.
    return [(s, c) for s in range(4, 9) for c in range(12, 25) if (c - s + 1) % 2 == 0]


def random_knot_word(bp, rng: random.Random, s: int):
    """Uniform length and letters, redrawn until the word is a reduced connected knot."""
    lengths = [c for t, c in _knot_cells() if t == s]
    while True:
        c = rng.choice(lengths)
        word = bp.braidwords.BraidWord(s, tuple(rng.randint(1, s - 1) for _ in range(c)))
        if word.is_connected and word.is_reduced and word.is_knot:
            return word


def random_connected_word(bp, rng: random.Random, s: int, c: int):
    while True:
        word = bp.braidwords.BraidWord(s, tuple(rng.randint(1, s - 1) for _ in range(c)))
        if word.is_connected:
            return word


def knot_items(bp, seed: int) -> list[Item]:
    """Distinct random knot words, KNOT_STRANDS_QUOTA[s] of them on s strands, then the ladder.

    Words on fewer than HEAVY_STRANDS strands come from `seed`, the others
    from HEAVY_SEED.
    """
    seeded, heavy = random.Random(seed), random.Random(HEAVY_SEED)
    seen = set()
    items = []
    for s, count in KNOT_STRANDS_QUOTA.items():
        rng, tag = (seeded, "r") if s < HEAVY_STRANDS else (heavy, "h")
        drawn = 0
        while drawn < count:
            word = random_knot_word(bp, rng, s)
            key = (word.strands, word.canonical())
            if key not in seen:
                seen.add(key)
                items.append(Item(f"{tag}{len(items)}", "random", word))
                drawn += 1
    for p, q in KNOT_LADDER:
        items.append(Item(f"T({p},{q})", "torus", _torus(bp, p, q), torus=(p, q)))
    return items


CHAIN_INPUTS = 500


def chain_items(bp, seed: int) -> list[Item]:
    """Half torus knots T(p, q), p 3..6; half random connected words, s 3..7, c <= 20.

    Torus knots are cycled, each time from the next of evenly spaced seed
    rectangles, and the (s, c) shapes are cycled, so every seed gets the
    same mix of sizes; the seed draws the letters and their rectangles.
    """
    rng = random.Random(seed)
    tori = [(p, q) for p in range(3, 7) for q in range(p + 1, 2 * p + 2) if gcd(p, q) == 1]
    n = CHAIN_INPUTS
    rounds = -(-(n + 1) // 2 // len(tori))
    shapes = [(s, c) for s in range(3, 8) for c in range(s, 21)]
    bounds = {}
    items = []
    # A connected word has exactly b1 rectangles; an explicit index never
    # reaches the top_left_rectangle default.
    for i in range(n):
        if i % 2 == 0:
            r, t = divmod(i // 2, len(tori))
            p, q = tori[t]
            if (p, q) not in bounds:
                n_max, _ = bp.alexpoly.hironaka_max_n(bp.alexpoly.torus_alexander(p, q))
                bounds[p, q] = n_max - 1
            word = _torus(bp, p, q)
            item = Item(f"T({p},{q})#{i}", "torus", word, torus=(p, q), bound=bounds[p, q])
            item.rect = r * word.b1 // rounds
        else:
            s, c = shapes[(i // 2) % len(shapes)]
            item = Item(f"r{i}", "random", random_connected_word(bp, rng, s, c))
            item.rect = rng.randrange(item.word.b1)
        items.append(item)
    return items


ALEXANDER_RANDOM, ALEXANDER_TORUS = 90, 10


def alexander_items(bp, seed: int) -> list[Item]:
    """Random connected words with b1 spread evenly over 8..60, plus torus knots.

    Charpoly cost grows with b1, so b1 and s follow a fixed design and the
    seed draws only the letters; the torus knots are spaced evenly by b1.
    """
    rng = random.Random(seed)
    items = []
    for i in range(ALEXANDER_RANDOM):
        b1 = 8 + round(i * 52 / (ALEXANDER_RANDOM - 1))
        s = 3 + i % 7
        items.append(Item(f"r{i}", "random", random_connected_word(bp, rng, s, b1 + s - 1)))
    tori = sorted(
        ((p - 1) * (q - 1), p, q)
        for p in range(3, 10)
        for q in range(p + 1, 40)
        if gcd(p, q) == 1 and 8 <= (p - 1) * (q - 1) <= 60
    )
    for k in range(ALEXANDER_TORUS):
        _, p, q = tori[round(k * (len(tori) - 1) / (ALEXANDER_TORUS - 1))]
        items.append(Item(f"T({p},{q})", "torus", _torus(bp, p, q), torus=(p, q)))
    return items


# ---------------------------------------------------------------------------
# Certify, check, JSON round trip, validate
# ---------------------------------------------------------------------------


def _dumps(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def certify_knot(bp, item: Item):
    return bp.plumbing.trefoil_decompose(item.word)


def roundtrip_knot(bp, dec):
    text = _dumps(dec.to_json())
    return text, bp.plumbing.trefoil_decomposition_from_json(json.loads(text))


def validate_knot(bp, item: Item, back) -> None:
    bp.plumbing.validate_trefoil_decomposition(back)  # raises if it rejects


def certify_chain(bp, item: Item):
    surface = bp.fatgraph.build_surface(item.word)
    return bp.plumbing.detect_chain(surface, surface.rectangles[item.rect], item.word.b1 + 1)


def check_chain(bp, item: Item, cert) -> None:
    """n <= max_n holds by detect_chain's loop, and the validator's rank check
    gives n <= b1; what is left to gate is the torus knot's Alexander bound."""
    if item.bound is not None and cert.n > item.bound:
        raise WrongVerdict(f"{item.label}: n = {cert.n} exceeds the Alexander bound {item.bound}")


def roundtrip_chain(bp, cert):
    text = _dumps(cert.to_json())
    return text, bp.plumbing.ChainCertificate.from_json(json.loads(text))


def validate_chain(bp, item: Item, back) -> None:
    bp.plumbing.validate_chain_certificate(back)  # raises if it rejects


def certify_alexander(bp, item: Item):
    """What `analyze` and `bound` compute: invariants, both routes, the bound."""
    inv = bp.braidwords.braid_invariants(item.word)
    burau = bp.alexpoly.burau_alexander(item.word)
    mono = bp.monodromy.alexander_from_monodromy(bp.fatgraph.build_surface(item.word))
    formula = bp.alexpoly.torus_alexander(*item.torus) if item.torus else None
    n_max, _ = bp.alexpoly.hironaka_max_n(burau)
    return {
        "word": list(item.word.letters),
        "strands": item.word.strands,
        "b1": inv.b1,
        "components": inv.components,
        "burau": burau.to_json(),
        "monodromy": mono.to_json(),
        "torus_formula": formula.to_json() if formula else None,
        "n_max": n_max,
    }


def _routes_agree(bp, payload) -> bool:
    poly = bp.alexpoly.LaurentPolynomial.from_json
    burau = poly(payload["burau"])
    ok = burau.unit_equal(poly(payload["monodromy"]))
    if payload["torus_formula"] is not None:
        ok = ok and burau.unit_equal(poly(payload["torus_formula"]))
    return ok


def check_alexander(bp, item: Item, payload) -> None:
    if not _routes_agree(bp, payload):
        raise WrongVerdict(f"{item.label}: Burau, monodromy and torus formula disagree")


def roundtrip_alexander(bp, payload):
    text = _dumps(payload)
    return text, json.loads(text)


def validate_alexander(bp, item: Item, back) -> None:
    """Re-check the route agreement and re-solve the bound at n_max."""
    delta = bp.alexpoly.LaurentPolynomial.from_json(back["burau"])
    solved = [bp.alexpoly.hironaka_solve(delta, back["n_max"], eps) for eps in (1, -1)]
    if not _routes_agree(bp, back) or not any(s is not None and s.verify(delta) for s in solved):
        raise WrongVerdict(f"{item.label}: stored Alexander payload does not re-verify")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    items: Callable
    certify: Callable
    roundtrip: Callable
    validate: Callable
    # Layers this workload must reach in a traced run, and layers the
    # metric map predicts it never calls.
    stressed: tuple[str, ...]
    predicted_zero: tuple[str, ...]
    # Messages of InternalConsistencyError a validator raises on a known
    # engine defect: such an input counts as one without a verdict, not as a
    # wrong verdict.  Any other rejection aborts the run.
    known_defects: tuple[str, ...] = ()
    # Gate on the certified result.  knots has none of its own:
    # trefoil_decompose raises InternalConsistencyError when the step count
    # differs from the genus b1/2, which is a wrong verdict.
    check: Optional[Callable] = None


WORKLOADS = {
    "knots": Workload(
        "knots", knot_items, certify_knot, roundtrip_knot, validate_knot,
        stressed=(
            "braidwords.square_normalization", "braidwords.replay_moves",
            "fatgraph.build_surface", "curves.apply_monodromy", "curves.dehn_twist",
            "plumbing.trefoil_decompose", "plumbing.trefoil_step",
            "plumbing.validate_trefoil_decomposition",
        ),
        predicted_zero=("monodromy.charpoly",),
    ),
    "chains": Workload(
        "chains", chain_items, certify_chain, roundtrip_chain, validate_chain,
        check=check_chain,
        stressed=(
            "fatgraph.build_surface", "curves.apply_monodromy", "curves.dehn_twist",
            "curves.geometric_intersection", "curves.self_intersection",
            "monodromy.homological_monodromy", "monodromy.intersection_form",
            "curves.signed_intersection", "plumbing.detect_chain",
            "plumbing.validate_chain_certificate",
        ),
        predicted_zero=("braidwords.square_normalization", "monodromy.charpoly"),
        # About 0.5% of random words get a detect_chain certificate that
        # validate_chain_certificate rejects, e.g. 2 2 1 2 1 1 2 2 2 2 from
        # rectangle 4.
        known_defects=("cut surface would disconnect: arc rank too low",),
    ),
    "alexander": Workload(
        "alexander", alexander_items, certify_alexander, roundtrip_alexander,
        validate_alexander,
        check=check_alexander,
        stressed=(
            "braidwords.braid_invariants", "fatgraph.build_surface",
            "monodromy.intersection_form", "monodromy.homological_monodromy",
            "monodromy.charpoly", "curves.signed_intersection",
            "alexpoly.burau_alexander", "alexpoly.hironaka_max_n", "alexpoly.torus_alexander",
        ),
        predicted_zero=(
            "braidwords.square_normalization", "curves.dehn_twist", "curves.apply_monodromy",
        ),
    ),
}
