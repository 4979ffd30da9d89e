"""Free homotopy classes of curves on the fibre surface, and Dehn twists.

A curve is a reduced cyclic word of oriented band traversals on the
fatgraph spine; reduced cyclic words are canonical representatives of free
homotopy classes, so equality testing is rotation equality.

Geometric intersection numbers are computed by linked-pair counting.  Two
strands can only be forced to cross where they pass a common vertex disk;
a pair of passes is "linked" when the four path germs leaving the disk
alternate around its boundary.  Ring order on a disk is the order of the
end indices (see fatgraph), so germs are compared by the ends they leave
through.  Germs entering the same band are ordered by their first
divergence, and strand pairs sharing a run of bands are anchored at one
designated end of the run so each crossing is counted exactly once.  A
Dehn twist along a TwistFactor splices an oriented copy of the core into
the curve at every counted crossing and reduces.  Every curve, a twist's
output included, goes through the NormalCurve constructor, which checks
that the word is a closed path and, in the same pass over the surface's
traversal tables, builds the curve's transits.

The monodromy twists along rectangle cores, and those take no scan.  A
rectangle's core passes only strand disks g and g + 1, so its twist is
read in closed form from its crossings by the push-off rule
(_rectangle_twist): a copy of the core goes in wherever the curve crosses
a parallel copy of it, and a run of the curve along the core's bands
counts once, at its entry.  The monodromy sweep skips the twist along a
rectangle core when no transit end of the current curve lies in the
core's window, the arc between the core's ends on its two strand disks:
such a curve cannot cross the core (see _meets_window).  The sweep reads
each rectangle as its (g, top, bottom) triple from the surface's columns
and makes a RectangleCurve only for a twist that may act.  The window test,
the push-off rule and the linked-pair scan read one index, the positions
of the curve's transits per strand disk, built once per curve.  Two
rectangles are paired in closed form from their crossings as well
(signed_intersection), so the intersection form builds no curve.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import defaultdict

from .braidwords import min_rotation
from .errors import (
    EmptyCurve,
    InternalConsistencyError,
    InvalidParameter,
    NonEmbeddedCore,
    NotAPath,
)
from .fatgraph import FatGraphSurface, RectangleCurve, _record

# Global handedness: with ring order taken as ascending end (word-position)
# order, inserting the core with this orientation at a positively-linked
# crossing realizes the *right-handed* twist.  Calibrated once against the
# torus-braid orbit facts (see tests); everything downstream inherits it.
RIGHT_HANDED_SIGN = -1


def reduce_cyclic(word) -> tuple[int, ...]:
    """Cyclically reduce an edge word (free cancellation of e, -e pairs)."""
    out: list[int] = []
    for t in word:
        if out and out[-1] == -t:
            out.pop()
        else:
            out.append(t)
    while len(out) >= 2 and out[0] == -out[-1]:
        out.pop()
        out.pop(0)
    return tuple(out)


def _path_transits(surface: FatGraphSurface, word):
    """Check that the word is a closed path and return its transits.

    Transit i is (vertex, incoming end, outgoing end) between word[i-1] and
    word[i].  A failing junction is named in word order: the closing one,
    word[-1] -> word[0], comes last.
    """
    c = surface.word.length
    for t in word:
        if t == 0 or t > c or t < -c:
            raise NotAPath(f"traversal {t} outside the edge range 1..{c}")
    src, tgt, vertex = surface.src_end, surface.tgt_end, surface.end_vertex
    transits = []
    inc = tgt[word[-1]]
    for t in word:
        dep = src[t]
        v = vertex[dep]
        if vertex[inc] != v and transits:
            prev = word[len(transits) - 1]
            raise NotAPath(f"traversals {prev} -> {t} do not share a strand disk")
        transits.append((v, inc, dep))
        inc = tgt[t]
    v, inc, _ = transits[0]
    if vertex[inc] != v:
        raise NotAPath(f"traversals {word[-1]} -> {word[0]} do not share a strand disk")
    return transits


class NormalCurve:
    """A free homotopy class, stored as its reduced cyclic edge word."""

    __slots__ = (
        "surface",
        "word",
        "_transits",
        "_self_int",
        "_homology",
        "_canon",
        "_ucanon",
        "_root",
        "_by_disk",
    )

    def __init__(self, surface: FatGraphSurface, word, reduce: bool = True):
        word = tuple(word)
        if reduce:
            word = reduce_cyclic(word)
        if not word:
            raise EmptyCurve("the word reduces to nothing: null-homotopic curve")
        self._transits = _path_transits(surface, word)
        self.surface = surface
        self.word = word
        self._self_int = None
        self._homology = None
        self._canon = None
        self._ucanon = None
        self._root = None
        self._by_disk = None

    def canonical(self) -> tuple[int, ...]:
        """Least rotation of the word; equality of classes keeps orientation."""
        if self._canon is None:
            self._canon = min_rotation(self.word)
        return self._canon

    def primitive_root(self) -> tuple[tuple[int, ...], int]:
        """The word as root^power with the shortest root; cached."""
        if self._root is None:
            self._root = _primitive_root(self.word)
        return self._root

    def reversed_word(self) -> tuple[int, ...]:
        return tuple(-t for t in reversed(self.word))

    def unoriented_canonical(self) -> tuple[int, ...]:
        if self._ucanon is None:
            self._ucanon = min(self.canonical(), min_rotation(self.reversed_word()))
        return self._ucanon

    def is_isotopic(self, other: "NormalCurve", oriented: bool = False) -> bool:
        if self.surface is not other.surface:
            return False
        if oriented:
            return self.canonical() == other.canonical()
        return self.unoriented_canonical() == other.unoriented_canonical()

    def __eq__(self, other):
        if not isinstance(other, NormalCurve):
            return NotImplemented
        return self.surface is other.surface and self.canonical() == other.canonical()

    def __hash__(self):
        return hash((id(self.surface), self.canonical()))

    def transits(self):
        """Per position i: (vertex, incoming end, outgoing end) between
        word[i-1] and word[i]; built by the path check."""
        return self._transits

    @property
    def support(self) -> dict[int, int]:
        """Unsigned traversal counts per word position."""
        out: dict[int, int] = {}
        for t in self.word:
            out[abs(t) - 1] = out.get(abs(t) - 1, 0) + 1
        return out

    def traverses(self, position: int) -> int:
        e = position + 1
        return sum(1 for t in self.word if abs(t) == e)

    @property
    def homology(self) -> tuple[int, ...]:
        if self._homology is None:
            counts: dict[int, int] = {}
            for t in self.word:
                counts[abs(t) - 1] = counts.get(abs(t) - 1, 0) + (1 if t > 0 else -1)
            self._homology = self.surface.homology_from_edge_counts(counts)
        return self._homology

    def to_json(self):
        return list(self.word)

    def __repr__(self):
        return f"NormalCurve({list(self.word)})"


def curve_from_rectangle(surface: FatGraphSurface, rect: RectangleCurve) -> NormalCurve:
    return NormalCurve(surface, surface.rectangle_word(rect), reduce=False)


@dataclasses.dataclass(frozen=True)
class TwistFactor:
    """A Dehn twist along an embedded core curve."""

    core: NormalCurve
    right: bool = True

    def __post_init__(self):
        if self_intersection(self.core) != 0:
            raise NonEmbeddedCore("twist cores must be embedded circles")


# ---------------------------------------------------------------------------
# Linked-pair machinery
# ---------------------------------------------------------------------------
#
# A germ is an infinite reduced edge path leaving a vertex, encoded as
# (word, L, anchor, forward).  Step k of a forward germ anchored at transit
# i is word[(i+k) % L]; of a backward germ, -word[(i-1-k) % L].


def _germ_step(word, L, anchor, forward, k):
    if forward:
        return word[(anchor + k) % L]
    return -word[(anchor - 1 - k) % L]


def _compare_germs(surface, g1, g2, bound):
    """Order two germs sharing their first traversal.

    Follows both until the first divergence and orders the departing bands
    counterclockwise after the arrival band; this equals the transverse
    order of the two parallel strands at the shared starting band.  Returns
    -1/+1, or 0 for rays that never diverge (parallel forever).
    """
    w1, L1, a1, f1 = g1
    w2, L2, a2, f2 = g2
    prev = _germ_step(w1, L1, a1, f1, 0)
    for k in range(1, bound + 1):
        s1 = _germ_step(w1, L1, a1, f1, k)
        s2 = _germ_step(w2, L2, a2, f2, k)
        if s1 == s2:
            prev = s1
            continue
        # Ring order is end order, so counterclockwise from the pivot is
        # ascending (end - pivot) mod 2c.
        src, pivot = surface.src_end, surface.tgt_end[prev]
        n_ends = len(surface.end_vertex)
        n1 = (src[s1] - pivot) % n_ends
        n2 = (src[s2] - pivot) % n_ends
        return -1 if n1 < n2 else 1
    return 0


# Germ tags inside one pair evaluation.
_XB, _XF, _YB, _YF = 0, 1, 2, 3


def _pair_event(surface, wx, Lx, tx, ix, wy, Ly, ty, jy, bound):
    """Classify one transit pair; return (sign, inside_tag) when it is a
    forced crossing, else None.

    Pairs are anchored so that strand pairs sharing a run of bands are
    counted at exactly one end of the run: parallel runs at the vertex
    where they merge, antiparallel runs at the end where x's outgoing band
    is y's incoming band.
    """
    _, inx, outx = tx[ix]
    _, iny, outy = ty[jy]
    if inx == iny:
        return None
    if outx == outy:
        bundle = (_XF, _YF)
    elif outx == iny:
        if inx == outy:
            return None
        bundle = (_XF, _YB)
    elif inx == outy:
        return None
    else:
        bundle = None

    # Distinct keys 2 * end + tie-break around the disk (ring order is end
    # order): the one shared end of a bundle gets the tie-break.
    keys = [2 * inx, 2 * outx, 2 * iny, 2 * outy]
    if bundle is not None:
        t1, t2 = bundle
        g1 = (wx, Lx, ix, t1 == _XF) if t1 < 2 else (wy, Ly, jy, t1 == _YF)
        g2 = (wx, Lx, ix, t2 == _XF) if t2 < 2 else (wy, Ly, jy, t2 == _YF)
        order = _compare_germs(surface, g1, g2, bound)
        if order == 0:
            return None
        keys[t2 if order < 0 else t1] += 1
    return _linked(*keys)


def _linked(xb, xf, yb, yf):
    """Linking of two transits from the distinct ring keys of their germs.

    Linked when exactly one of y's germs lies on the arc from x's incoming
    germ to its outgoing one, counterclockwise; that germ names the sign.
    Returns (sign, inside_tag) or None.
    """
    if xb < xf:
        yb_inside = xb < yb < xf
        yf_inside = xb < yf < xf
    else:
        yb_inside = yb > xb or yb < xf
        yf_inside = yf > xb or yf < xf
    if yb_inside == yf_inside:
        return None
    return (1, _YB) if yb_inside else (-1, _YF)


def _disk_positions(x: NormalCurve):
    """Strand disk -> positions of x's transits on it; cached on the curve."""
    if x._by_disk is None:
        by_disk = defaultdict(list)
        for j, t in enumerate(x._transits):
            by_disk[t[0]].append(j)
        x._by_disk = by_disk
    return x._by_disk


def _scan(surface, wx, tx, wy, ty, by_vertex, skip_diagonal=False):
    """Forced crossings between two words, given their transits and y's
    disk index, as (i, j, sign, inside_tag)."""
    Lx, Ly = len(wx), len(wy)
    bound = Lx + Ly + 2
    out = []
    for i, t in enumerate(tx):
        for j in by_vertex.get(t[0], ()):
            if skip_diagonal and i == j:
                continue
            ev = _pair_event(surface, wx, Lx, tx, i, wy, Ly, ty, j, bound)
            if ev is not None:
                out.append((i, j, ev[0], ev[1]))
    return out


def _events(surface, x: NormalCurve, y: NormalCurve):
    """All forced crossings between x and y as (i, j, sign, inside_tag)."""
    if x.surface is not surface or y.surface is not surface:
        raise InternalConsistencyError("curves live on a different surface")
    # x is y: a transit never crosses itself.
    return _scan(
        surface, x.word, x._transits, y.word, y._transits, _disk_positions(y), x is y
    )


def _primitive_root(word):
    """Smallest rotation period; returns (root, power)."""
    L = len(word)
    for p in range(1, L + 1):
        if L % p:
            continue
        if word[p:] + word[:p] == word:
            return word[:p], L // p
    return word, 1


def _same_unoriented_class(a: NormalCurve, b: NormalCurve) -> bool:
    if len(a.word) != len(b.word):
        return False
    return a.unoriented_canonical() == b.unoriented_canonical()


def self_intersection(x: NormalCurve) -> int:
    """Minimal self-crossing number of the class."""
    if x._self_int is not None:
        return x._self_int
    if len(_disk_positions(x)) == len(x.word):
        # Each strand disk is passed at most once: no pair of transits to link.
        x._self_int = 0
        return 0
    root, power = x.primitive_root()
    if power > 1:
        base = self_intersection(NormalCurve(x.surface, root, reduce=False))
        x._self_int = power * power * base + (power - 1)
        return x._self_int
    events = _events(x.surface, x, x)
    crossings = len(events)
    if crossings % 2:
        raise InternalConsistencyError("self-crossing events must pair up")
    x._self_int = crossings // 2
    return x._self_int


def geometric_intersection(x: NormalCurve, y: NormalCurve) -> int:
    """Minimal transverse intersection number of the two classes."""
    rx, px = x.primitive_root()
    ry, py = y.primitive_root()
    bx = NormalCurve(x.surface, rx, reduce=False) if px > 1 else x
    by = NormalCurve(y.surface, ry, reduce=False) if py > 1 else y
    if _same_unoriented_class(bx, by):
        return px * py * 2 * self_intersection(bx)
    return px * py * len(_events(x.surface, bx, by))


def signed_intersection(
    x: NormalCurve | RectangleCurve, y: NormalCurve | RectangleCurve
) -> int:
    """Algebraic intersection number (equals the homological pairing).

    Two NormalCurves are paired by the event scan.  Two RectangleCurves of
    one surface are paired in closed form from their crossings; for a in
    column g:

    - b in column g: +1 if a.bottom == b.top, -1 if b.bottom == a.top,
      else 0 (a == b included);
    - b in column g + 1: +1 if b.top < a.top < b.bottom < a.bottom, -1 if
      a.top < b.top < a.bottom < b.bottom, 0 if nested or disjoint;
    - a in column g + 1 of b's: the negation of the case above;
    - columns further apart: 0.

    The circle of a passes strand disks g and g + 1 only, so two circles
    meet only on a shared band (same column: the crossing one's bottom is
    the other's top) or on the shared disk g + 1.  Ring order is word
    order, so on that disk each circle is a chord between the ends of its
    two crossings, and two chords are linked exactly when their position
    intervals interleave; nested or disjoint intervals give unlinked
    chords.  The signs are those the event scan gives the two rectangle
    circles (tests compare the two on every ordered pair of rectangles of
    every connected word with s <= 4 and c <= 7).  Which surface the
    rectangles belong to is the caller's to keep; a RectangleCurve paired
    with a NormalCurve is refused.
    """
    rect = isinstance(x, RectangleCurve)
    if rect != isinstance(y, RectangleCurve):
        raise InvalidParameter("pair two RectangleCurves or two NormalCurves")
    if rect:
        return _rectangle_pairing(x, y)
    rx, px = x.primitive_root()
    ry, py = y.primitive_root()
    bx = NormalCurve(x.surface, rx, reduce=False) if px > 1 else x
    by = NormalCurve(y.surface, ry, reduce=False) if py > 1 else y
    if _same_unoriented_class(bx, by):
        return 0
    total = sum(sign for (_, _, sign, _) in _events(x.surface, bx, by))
    return px * py * total


def _rectangle_pairing(a: RectangleCurve, b: RectangleCurve) -> int:
    """signed_intersection of two rectangle circles, from their crossings."""
    step = b.column - a.column
    if step == 0:
        return (a.bottom == b.top) - (b.bottom == a.top)
    if step == -1:
        return -_rectangle_pairing(b, a)
    if step != 1:
        return 0
    return (b.top < a.top < b.bottom < a.bottom) - (a.top < b.top < a.bottom < b.bottom)


# ---------------------------------------------------------------------------
# Dehn twists
# ---------------------------------------------------------------------------


def _insertion_order_key(surface, tx, wc, tc, bound):
    """Comparator ordering same-transit crossings along x's chord; tx are
    x's transits, wc and tc the core's word and transits."""
    n_ends = len(surface.end_vertex)
    Lc = len(wc)

    def germ_of(event):
        _, j, _, tag = event
        return (wc, Lc, j, tag == _YF)

    def end_of(event):
        _, j, _, tag = event
        return tc[j][2] if tag == _YF else tc[j][1]

    def cmp(e1, e2):
        if e1[0] != e2[0]:
            return -1 if e1[0] < e2[0] else 1
        base = tx[e1[0]][1]
        end1, end2 = end_of(e1), end_of(e2)
        if end1 != end2:
            # Ring order is end order: counterclockwise from x's incoming end.
            n1 = (end1 - base) % n_ends
            n2 = (end2 - base) % n_ends
            return -1 if n1 < n2 else 1
        return _compare_germs(surface, germ_of(e1), germ_of(e2), bound)

    return functools.cmp_to_key(cmp)


def dehn_twist(factor: TwistFactor | RectangleCurve, x: NormalCurve) -> NormalCurve:
    """Image of x under the twist; computed in minimal position.

    The factor is a TwistFactor, or a RectangleCurve of x's surface for the
    right-handed twist along that rectangle's core (_rectangle_twist, read
    from the rectangle's crossings with no core curve built).  A rectangle
    (g, top, bottom) is one of the surface's exactly when the word holds
    letter g at top and at bottom and nowhere between them; any other
    triple is refused.

    For a TwistFactor, an oriented copy of the core is spliced into x at
    every forced crossing, the orientation given by the crossing sign and
    handedness, then the word is reduced.
    """
    surface = x.surface
    if isinstance(factor, RectangleCurve):
        g, top, bottom = factor
        letters = surface.word.letters
        if not (
            0 <= top < bottom < len(letters)
            and letters[top] == g == letters[bottom]
            and g not in letters[top + 1 : bottom]
        ):
            raise NonEmbeddedCore(f"{factor} is not a rectangle of the curve's surface")
        return _rectangle_twist(factor, x)
    core = factor.core
    if core.surface is not surface:
        raise NonEmbeddedCore("core and curve live on different surfaces")
    if _same_unoriented_class(x, core):
        return x
    wx, tx = x.word, x.transits()
    wc, tc = core.word, core.transits()
    hand = RIGHT_HANDED_SIGN if factor.right else -RIGHT_HANDED_SIGN
    events = _scan(surface, wx, tx, wc, tc, _disk_positions(core))
    if not events:
        return x
    if len(events) > 1:
        bound = len(wx) + len(wc) + 2
        events.sort(key=_insertion_order_key(surface, tx, wc, tc, bound))
    out: list[int] = []
    prev = 0
    for i, j, sign, _tag in events:
        out.extend(wx[prev:i])
        rotated = wc[j:] + wc[:j]
        if sign * hand > 0:
            out.extend(rotated)
        else:
            out.extend(-t for t in reversed(rotated))
        prev = i
    out.extend(wx[prev:])
    return NormalCurve(surface, out, reduce=True)


def _rectangle_twist(rect: RectangleCurve, x: NormalCurve) -> NormalCurve:
    """Right-handed twist along the core of rectangle (g, top, bottom) by
    the push-off rule.

    The core is the word (a, -b), a = top + 1, b = bottom + 1.  It crosses
    disk g from end 2 bottom to end 2 top and disk g + 1 from 2 top + 1 to
    2 bottom + 1, and both rings are in word order, so on each disk its
    chord splits the other ends into two arcs.  The core passes each of
    the two disks once, so it is embedded, and a push-off A of the core
    runs beside it on one side: on disk g its side holds the ends of the
    crossings strictly between top and bottom, on disk g + 1 the ends of
    the crossings strictly outside [top, bottom].  That is one side of the
    core: along band top, the ring successor of 2 top on disk g (a later
    word position) faces the ring predecessor of 2 top + 1 on disk g + 1
    (an earlier one).  The core's own four ends lie off A's side.

    Rule.  A transit of x on disk g or g + 1 whose incoming and outgoing
    ends lie on opposite sides of A gets one copy of the core, rotated to
    start on that disk: (a, -b) on g, (-b, a) on g + 1.  The copy is
    reversed exactly when the transit arrives from A's side.  A maximal
    run of x along the core's bands (transits whose ends are both the
    core's) counts once, at its entry transit, the one that arrives by
    another band and leaves along the core; it is decided by the entry's
    incoming end against the exit's outgoing end.  The walk to the exit
    ends within len(x) transits: the entry arrives by a band that is not
    one of the core's, so the transit before it leaves by that band.  The
    spliced word is reduced.

    Proof.  The twist along the core is the twist T_A along its isotopic
    push-off, supported in a thin annulus around A.  Draw x as chords in
    the disks and strands along the bands, its strands on the core's bands
    beside the core, off A's side.  Then x meets A only in disks g and
    g + 1, once in each transit whose chord separates A's side from the
    rest, and T_A(x) follows x and turns once around A at each such point,
    in the direction the crossing sets: a copy of the core word starting
    on that disk, reversed when x arrives from A's side (RIGHT_HANDED_SIGN
    calibrates that against the torus orbits, as for the linked-pair
    twist).  This needs x transverse to A, not minimal.  Inside a run of
    core letters s, x lies off A's side, so the run meets A at its entry
    when the entry arrives from A's side and at its exit when the exit
    leaves to it.  With both, the two turns are a copy and its inverse
    around s: a bigon with A, which cancels in the class.  With one, an
    insertion c' at the exit equals the insertion c at the entry, since
    c s = s c' when s is a prefix of a power of c or of its inverse and c'
    is c rotated to start at the run's exit.  The linked-pair scan anchors
    a shared run at the same entry (_pair_event).  The spliced word
    represents T_A(x), and the cyclically reduced word of a class is unique
    up to rotation, so reduction gives the image's word; the test suite
    checks it letter for letter against the linked-pair twist.
    """
    g, top, bottom = rect
    a, b = top + 1, bottom + 1
    wx, tx = x.word, x._transits
    last = len(wx) - 1
    by_disk = _disk_positions(x)
    events = []
    for v in (g, g + 1):
        for j in by_disk.get(v, ()):
            _, inc, dep = tx[j]
            p = inc >> 1
            if p == top or p == bottom:
                # Arrives along a core band: inside a run, or its exit.
                continue
            w, q = v, dep >> 1
            k = j
            while q == top or q == bottom:
                # An entry: walk along the core to the run's exit.
                k = k + 1 if k < last else 0
                w, _, dep = tx[k]
                q = dep >> 1
            arrives = top < p < bottom if v == g else not top <= p <= bottom
            leaves = top < q < bottom if w == g else not top <= q <= bottom
            if arrives != leaves:
                events.append((j, v, arrives))
    if not events:
        return x
    events.sort()
    out: list[int] = []
    prev = 0
    for j, v, arrives in events:
        out.extend(wx[prev:j])
        copy = (a, -b) if v == g else (-b, a)
        # The crossing's sign is +1 when x arrives from A's side.
        sign = 1 if arrives else -1
        out.extend(copy if sign * RIGHT_HANDED_SIGN > 0 else (-copy[1], -copy[0]))
        prev = j
    out.extend(wx[prev:])
    return NormalCurve(x.surface, out, reduce=True)


def _meets_window(x: NormalCurve, window: tuple[int, int, int]) -> bool:
    """Whether a transit end of x lies in the window of the rectangle core
    (g, top, bottom), given as that triple or as its RectangleCurve.

    The core of rectangle (g, top, bottom) passes strand disks g and g + 1,
    with its ends on each at crossings top and bottom.  Ring order is word
    position order, so the closed arc between the core's ends holds exactly
    the ends of crossings top..bottom.  A transit with both ends outside it
    has both germs on one side of the core's chord and cannot be linked
    with it; a curve with no end inside is left as it is by the twist.
    """
    g, top, bottom = window
    tx = x._transits
    by_disk = _disk_positions(x)
    for v in (g, g + 1):
        for j in by_disk.get(v, ()):
            _, inc, dep = tx[j]
            if top <= inc >> 1 <= bottom or top <= dep >> 1 <= bottom:
                return True
    return False


def apply_monodromy(surface: FatGraphSurface, x: NormalCurve, power: int = 1) -> NormalCurve:
    """Apply the full ordered product of right-handed rectangle twists.

    The sweep reads each rectangle as its (g, top, bottom) triple from the
    surface's columns (twist_sweep), right to left and bottom to top.  A
    twist is skipped when no transit end of the current curve lies in its
    core's window (_meets_window): dehn_twist would find no crossing and
    return the curve itself.  Only a twist that may act makes a
    RectangleCurve, and goes to dehn_twist along it, which reads the core
    from its crossings.  The window test stays although a twist it passes
    reads the same transits again: it stops at the first end inside, and
    calling dehn_twist on every rectangle instead made certify slower on
    the benchmark's chains and knots inputs (Python 3.11, 2-core x86-64
    VM).
    """
    if power < 0:
        raise InvalidParameter("power must be non-negative; invert via left twists instead")
    sweep = surface.twist_sweep
    # dehn_twist refuses a curve from another surface; test it before any
    # window test can skip that twist.
    if power and sweep and x.surface is not surface:
        raise NonEmbeddedCore("core and curve live on different surfaces")
    for _ in range(power):
        for window in sweep:
            if _meets_window(x, window):
                x = dehn_twist(_record(RectangleCurve, window), x)
    return x
