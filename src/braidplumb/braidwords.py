"""Positive braid words: parsing, invariants, rewriting moves, square-prefix form.

A word is a sequence of 1-based generator indices; letter i is one positive
crossing of strands i and i+1, read top to bottom.  All rewriting moves
preserve the closure link: cyclic conjugation, the braid relation
s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1}, distant commutation, and Markov
destabilization of a generator occurring exactly once.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Union

from .errors import (
    CertificateRejected,
    DisconnectedWord,
    IllegalMove,
    InternalConsistencyError,
    InvalidGenerator,
    TrivialLink,
)


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A positive braid word on `strands` strands."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise InvalidGenerator("strand count must be at least 1")
        for x in self.letters:
            if not isinstance(x, int) or x < 1 or x >= self.strands:
                raise InvalidGenerator(
                    f"letter {x!r} outside the generator range 1..{self.strands - 1}"
                )
        object.__setattr__(self, "letters", tuple(self.letters))

    @property
    def length(self) -> int:
        return len(self.letters)

    @property
    def is_connected(self) -> bool:
        """True when every generator 1..strands-1 occurs at least once."""
        if self.strands == 1:
            return True
        return len(set(self.letters)) == self.strands - 1

    @property
    def is_reduced(self) -> bool:
        """True when every generator occurs at least twice."""
        counts = [0] * self.strands
        for x in self.letters:
            counts[x] += 1
        return all(counts[i] >= 2 for i in range(1, self.strands))

    @property
    def b1(self) -> int:
        """First Betti number of the fibre surface, c - s + 1."""
        if not self.is_connected:
            raise DisconnectedWord("b1 is defined for connected words only")
        return self.length - self.strands + 1

    def permutation(self) -> tuple[int, ...]:
        """Image of each strand under the closure, 0-indexed."""
        perm = list(range(self.strands))
        for x in self.letters:
            perm[x - 1], perm[x] = perm[x], perm[x - 1]
        return tuple(perm)

    def cycles(self) -> list[tuple[int, ...]]:
        perm = self.permutation()
        seen = [False] * self.strands
        out = []
        for start in range(self.strands):
            if seen[start]:
                continue
            cyc = []
            v = start
            while not seen[v]:
                seen[v] = True
                cyc.append(v)
                v = perm[v]
            out.append(tuple(cyc))
        return out

    @property
    def components(self) -> int:
        return len(self.cycles())

    @property
    def is_knot(self) -> bool:
        """True when the cycle through strand 0 visits every strand."""
        perm = self.permutation()
        v, size = perm[0], 1
        while v != 0:
            v = perm[v]
            size += 1
        return size == self.strands

    def canonical(self) -> tuple[int, ...]:
        """Lexicographically least cyclic rotation of the letter sequence."""
        return min_rotation(self.letters)

    def text(self) -> str:
        return " ".join(str(x) for x in self.letters)

    def __str__(self):
        return f"BraidWord(s={self.strands}, [{self.text()}])"


def min_rotation(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least cyclic rotation of a letter sequence."""
    best = letters
    for r in range(1, len(letters)):
        cand = letters[r:] + letters[:r]
        if cand < best:
            best = cand
    return best


def parse_braid(text: str, strands: Optional[int] = None) -> BraidWord:
    """Parse whitespace-separated generator indices into a BraidWord.

    The strand count defaults to max letter + 1.
    """
    tokens = text.split()
    letters = []
    for tok in tokens:
        try:
            val = int(tok)
        except ValueError as exc:
            raise InvalidGenerator(f"non-integer token {tok!r}") from exc
        if val < 1:
            raise InvalidGenerator(f"generator index {val} must be positive")
        letters.append(val)
    if strands is None:
        strands = (max(letters) + 1) if letters else 1
    for val in letters:
        if val >= strands:
            raise InvalidGenerator(f"letter {val} needs more than {strands} strands")
    return BraidWord(strands, tuple(letters))


@dataclasses.dataclass(frozen=True)
class InvariantReport:
    c: int
    s: int
    b1: int
    components: int
    genus: Optional[int]
    reduced: bool
    connected: bool


def braid_invariants(word: BraidWord) -> InvariantReport:
    """Length, Betti number, component count, and (for knots) the genus."""
    if not word.is_connected:
        raise DisconnectedWord("some generator is absent; the closure splits")
    b1 = word.b1
    comps = word.components
    genus = None
    if comps == 1:
        if b1 % 2:
            raise AssertionError("knot closure with odd b1; impossible")
        genus = b1 // 2
    return InvariantReport(
        c=word.length,
        s=word.strands,
        b1=b1,
        components=comps,
        genus=genus,
        reduced=word.is_reduced,
        connected=word.is_connected,
    )


# ---------------------------------------------------------------------------
# Rewriting moves
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CyclicConjugate:
    shift: int

    def to_json(self):
        return {"kind": "cyclic", "shift": self.shift}


@dataclasses.dataclass(frozen=True)
class BraidRelation:
    position: int
    direction: int = 1  # +1 rewrites (i, i+1, i); -1 rewrites (i+1, i, i+1)

    def to_json(self):
        return {"kind": "braid", "position": self.position, "direction": self.direction}


@dataclasses.dataclass(frozen=True)
class CommutationSwap:
    position: int

    def to_json(self):
        return {"kind": "commute", "position": self.position}


@dataclasses.dataclass(frozen=True)
class Destabilize:
    generator: int

    def to_json(self):
        return {"kind": "destabilize", "generator": self.generator}


RewriteMove = Union[CyclicConjugate, BraidRelation, CommutationSwap, Destabilize]


_INT = frozenset((int,))  # JSON true and false are no integers


def _is_ints(value) -> bool:
    return type(value) is list and set(map(type, value)) <= _INT


_JSON_SHAPES = {
    "an integer": lambda value: type(value) is int,
    "a string": lambda value: type(value) is str,
    "a JSON object": lambda value: type(value) is dict,
    "a list": lambda value: type(value) is list,
    "a list of integers": _is_ints,
    "a list of integer lists": lambda value: type(value) is list
    and all(map(_is_ints, value)),
}


def json_field(data, key: str, shape: str, where: str = ""):
    """data[key] of a certificate's JSON, checked to be of the named shape.

    shape is a key of _JSON_SHAPES; where prefixes the field name in the
    CertificateRejected raised on a missing field or a wrong type.
    """
    try:
        value = data[key]
    except (KeyError, TypeError):
        value = None  # no shape admits null: the checks below say why
    if _JSON_SHAPES[shape](value):
        return value
    if type(data) is not dict:
        name = f"field {where.rstrip('.')!r}" if where else "certificate"
        raise CertificateRejected(f"{name} must be a JSON object")
    if key not in data:
        raise CertificateRejected(f"missing field {where + key!r}")
    raise CertificateRejected(f"field {where + key!r} must be {shape}")


def field_word(strands: int, letters, field: str) -> BraidWord:
    """BraidWord(strands, letters) for the certificate field of that name;
    a letter outside the generator range is a CertificateRejected that
    names the field."""
    try:
        return BraidWord(strands, tuple(letters))
    except InvalidGenerator as exc:
        raise CertificateRejected(f"field {field!r}: {exc}") from None


def move_from_json(data: dict, where: str = "") -> RewriteMove:
    kind = json_field(data, "kind", "a string", where)
    if kind == "cyclic":
        return CyclicConjugate(json_field(data, "shift", "an integer", where))
    if kind == "braid":
        return BraidRelation(
            json_field(data, "position", "an integer", where),
            json_field(data, "direction", "an integer", where),
        )
    if kind == "commute":
        return CommutationSwap(json_field(data, "position", "an integer", where))
    if kind == "destabilize":
        return Destabilize(json_field(data, "generator", "an integer", where))
    raise IllegalMove(f"unknown move kind {kind!r}")


def _apply(strands: int, letters: list[int], move: RewriteMove) -> int:
    """Apply a legal rewriting move to `letters` in place; return the strand count."""
    c = len(letters)
    if isinstance(move, CyclicConjugate):
        if c:
            shift = move.shift % c
            letters[:] = letters[shift:] + letters[:shift]
        return strands
    if isinstance(move, BraidRelation):
        p = move.position
        if p < 0 or p + 2 >= c:
            raise IllegalMove(f"braid relation needs positions {p}..{p+2} inside the word")
        a, b, a2 = letters[p], letters[p + 1], letters[p + 2]
        if a != a2 or abs(a - b) != 1:
            raise IllegalMove(f"no braid relation pattern at position {p}")
        # b - a is +1 or -1 here, and the direction must name it.
        if b - a != move.direction:
            raise IllegalMove(
                f"direction {move.direction} does not fit the pattern at position {p}"
            )
        letters[p : p + 3] = (b, a, b)
        return strands
    if isinstance(move, CommutationSwap):
        p = move.position
        if p < 0 or p + 1 >= c:
            raise IllegalMove(f"commutation needs positions {p}, {p+1} inside the word")
        a, b = letters[p], letters[p + 1]
        if abs(a - b) < 2:
            raise IllegalMove(f"letters {a}, {b} do not commute")
        letters[p], letters[p + 1] = b, a
        return strands
    if isinstance(move, Destabilize):
        g = move.generator
        if letters.count(g) != 1:
            raise IllegalMove(f"generator {g} does not occur exactly once")
        # Rotate the lone letter to the front; the rest splits into letters
        # below and above g, which commute pairwise, so the closure is the
        # connected sum realized by the merged (s-1)-strand word.  Sorting
        # must happen before renumbering: afterwards g-1 and g no longer
        # commute.
        pos = letters.index(g)
        tail = letters[pos + 1 :] + letters[:pos]
        letters[:] = [x for x in tail if x < g] + [x - 1 for x in tail if x > g]
        return strands - 1
    raise IllegalMove(f"unknown move {move!r}")


def replay_moves(word: BraidWord, moves: Iterable[RewriteMove]) -> BraidWord:
    """Apply the moves in order; the closure link type is preserved."""
    strands, letters = word.strands, list(word.letters)
    for m in moves:
        strands = _apply(strands, letters, m)
    return BraidWord(strands, tuple(letters))


# ---------------------------------------------------------------------------
# Square-prefix normalization
# ---------------------------------------------------------------------------


def square_prefix_generator(letters: tuple[int, ...]) -> Optional[int]:
    """Return m when the word starts s_m s_m s_{m-1}^+ ... s_1^+, else None."""
    c = len(letters)
    if c < 2 or letters[0] != letters[1]:
        return None
    m = letters[0]
    i = 2
    for g in range(m - 1, 0, -1):
        if i >= c or letters[i] != g:
            return None
        while i < c and letters[i] == g:
            i += 1
    return m


@dataclasses.dataclass(frozen=True)
class NormalizationResult:
    word: BraidWord
    m: int
    moves: tuple[RewriteMove, ...]


def _destabilize_all(word: BraidWord, moves: list[RewriteMove]) -> BraidWord:
    """Remove every generator occurring exactly once, repeatedly.

    Destabilizing g keeps the count of every other generator (those above
    g move down one index), so one count pass serves the whole cascade.
    """
    strands, letters = word.strands, list(word.letters)
    counts = [0] * strands
    for x in letters:
        counts[x] += 1
    while 1 in counts:
        g = counts.index(1)
        move = Destabilize(g)
        strands = _apply(strands, letters, move)
        moves.append(move)
        del counts[g]
    return BraidWord(strands, tuple(letters))


def is_trivial_closure(word: BraidWord) -> bool:
    """True when the closure is a trivial link (split union of unknots):
    destabilizing every generator that occurs once, repeatedly, leaves no
    letter."""
    return not _destabilize_all(word, []).letters


def square_normalization(word: BraidWord) -> NormalizationResult:
    """Rewrite to a word starting with s_m^2 s_{m-1}^+ ... s_1^+.

    Constructive.  After destabilizing, rotate an s_1 to the front and take
    the next s_1 as the level-1 pair.  At level k the gap between the pair
    holds only letters >= k+1:
      - no s_{k+1}: the gap commutes past s_k and leaves the square s_k s_k;
      - one s_{k+1}: commuting gives s_k s_{k+1} s_k, the braid relation
        turns it into s_{k+1} s_k s_{k+1}, and the construction restarts;
      - more: the last two s_{k+1} of the gap are the pair of level k+1.
    Behind the square s_m s_m the closing letters of levels m-1, ..., 1 are
    then commuted forward in turn; the level-k one passes only letters
    >= k+2, since its gap holds no s_{k+1} after the level-(k+1) pair.

    Termination: a braid relation lowers the sum over letters x of
    (s - 1 - x) by one, and a destabilization never raises it, so the
    restarts are bounded by its starting value; passing that bound is an
    engine bug.  No move creates a generator, so a word without s_1 after
    destabilization (a split closure) has no square-prefix form.
    """
    moves: list[RewriteMove] = []

    def play(move):
        _apply(strands, letters, move)
        moves.append(move)

    def carry(src, dst):
        """Commute letters[src] to position dst, one swap at a time."""
        step = 1 if dst > src else -1
        for p in range(src, dst, step):
            play(CommutationSwap(p if step > 0 else p - 1))

    word = _destabilize_all(word, moves)
    if not word.letters:
        raise TrivialLink("the closure destabilizes to a trivial link")
    for _ in range(sum(word.strands - 1 - x for x in word.letters) + 1):
        m = square_prefix_generator(word.letters)
        if m is not None:
            return NormalizationResult(word, m, tuple(moves))
        strands, letters = word.strands, list(word.letters)
        if 1 not in letters:
            raise DisconnectedWord(
                f"no s_1 on {strands} strands after destabilization: the closure"
                " splits and has no square-prefix form"
            )
        if letters[0] != 1:
            play(CyclicConjugate(letters.index(1)))
        a, b, k = 0, letters.index(1, 1), 1
        closers: list[int] = []  # closing positions of the enclosing pairs
        while True:
            inner = [p for p in range(a + 1, b) if letters[p] == k + 1]
            if len(inner) < 2:
                break
            closers.append(b)
            a, b, k = inner[-2], inner[-1], k + 1
        if inner:
            q = inner[0]
            carry(a, q - 1)
            carry(b, q + 1)
            play(BraidRelation(q - 1, 1))
            word = _destabilize_all(BraidWord(strands, tuple(letters)), moves)
            continue
        carry(b, a + 1)
        if a:
            play(CyclicConjugate(a))
        for front, close in enumerate(reversed(closers), start=2):
            carry(close - a, front)
        word = BraidWord(strands, tuple(letters))
        if square_prefix_generator(word.letters) != k:
            raise InternalConsistencyError("constructed word lacks the square prefix")
        return NormalizationResult(word, k, tuple(moves))
    raise InternalConsistencyError("square-prefix construction passed its restart bound")

