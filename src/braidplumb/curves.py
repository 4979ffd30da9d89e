"""Free homotopy classes of curves on the fibre surface, and Dehn twists.

A curve is a reduced cyclic word of oriented band traversals on the
fatgraph spine; reduced cyclic words are canonical representatives of free
homotopy classes, so equality testing is rotation equality.

Geometric intersection numbers of two curves are computed by linked-pair
counting.  Two strands can only be forced to cross where they pass a
common vertex disk; a pair of passes is "linked" when the four path germs
leaving the disk alternate around its boundary.  Ring order on a disk is
the order of the end indices (see fatgraph), so germs are compared by the
ends they leave through.  Germs entering the same band are ordered by
their first divergence, and strand pairs sharing a run of bands are
anchored at one designated end of the run so each crossing is counted
exactly once.  A Dehn twist along a TwistFactor splices an oriented copy
of the core into the curve at every counted crossing and reduces.

Rectangles take no scan.  A rectangle's core passes only strand disks g
and g + 1, so its crossings with a curve are read in closed form by the
push-off rule (_push_off_events): the curve crosses a parallel copy of the
core at a transit on those disks whose ends lie on opposite sides of it,
and a run of the curve along the core's bands counts once, at its entry.
dehn_twist along a rectangle splices a copy of the core in at each of
those crossings, and geometric_intersection against a rectangle counts
them.  apply_monodromy(x, power) reads the sweep of x's own
surface, each rectangle as its (g, top, bottom) triple, and hands
dehn_twist the triple of a twist that may act, one whose core's window
(the arc between the core's ends on its two strand disks) holds a transit
end of the current curve.  That test is one AND of the curve's band mask
with the window mask the surface builds with the sweep (apply_monodromy
says why the two agree).  Two rectangles are paired in closed form from
their crossings as well (signed_intersection), so the intersection form
builds no curve.

Every curve, a twist's output included, goes through the NormalCurve
constructor.  It cyclically reduces the word, and one pass over the word
and the surface's traversal tables checks that it is a closed path and
builds the transits, the disk index (the transit positions per strand
disk, read by the push-off rule and the linked-pair scan) and the band
mask (bit p set when the word traverses crossing p).  A curve knows its
surface, so nothing takes a surface beside a curve; two curves of
different surfaces are refused (InvalidParameter) wherever they meet:
geometric_intersection, signed_intersection and a TwistFactor twist.
Where a rectangle may stand for a curve, whatever is not a NormalCurve is
a rectangle (g, top, bottom), read by position.  One that is not three
integers is refused (InvalidParameter) wherever it is read.  It has no
surface of its own; one whose letters do not fit the curve's surface word
is refused (NonEmbeddedCore) by dehn_twist and geometric_intersection.
"""

from __future__ import annotations

import dataclasses
import functools

from .braidwords import min_rotation
from .errors import (
    EmptyCurve,
    InternalConsistencyError,
    InvalidParameter,
    NonEmbeddedCore,
    NotAPath,
)
from .fatgraph import FatGraphSurface, RectangleCurve

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
    """Check that the word is a closed path; return its transits, its disk
    index and its band mask, all built in that one pass.

    Transit i is (vertex, incoming end, outgoing end) between word[i-1] and
    word[i].  The disk index maps each strand disk to the positions of the
    transits on it, in word order.  Bit p of the band mask is set when the
    word traverses crossing p.  A failing junction is named in word order:
    the closing one, word[-1] -> word[0], comes last.
    """
    c = surface.word.length
    for t in word:
        if t == 0 or t > c or t < -c:
            raise NotAPath(f"traversal {t} outside the edge range 1..{c}")
    src, tgt, vertex = surface.src_end, surface.tgt_end, surface.end_vertex
    transits = []
    by_disk: dict[int, list[int]] = {}
    bands = 0
    inc = tgt[word[-1]]
    for j, t in enumerate(word):
        dep = src[t]
        v = vertex[dep]
        if vertex[inc] != v and j:
            raise NotAPath(f"traversals {word[j - 1]} -> {t} do not share a strand disk")
        transits.append((v, inc, dep))
        by_disk.setdefault(v, []).append(j)
        bands |= 1 << (dep >> 1)
        inc = tgt[t]
    v, inc, _ = transits[0]
    if vertex[inc] != v:
        raise NotAPath(f"traversals {word[-1]} -> {word[0]} do not share a strand disk")
    return transits, by_disk, bands


class NormalCurve:
    """A free homotopy class, stored as its reduced cyclic edge word.

    The constructor reduces the word it is given.  transits[i] is
    (vertex, incoming end, outgoing end) between word[i-1] and word[i],
    built by the path check.
    """

    __slots__ = ("surface", "word", "transits", "_by_disk", "_bands", "_homology", "_root")

    def __init__(self, surface: FatGraphSurface, word):
        word = reduce_cyclic(word)
        if not word:
            raise EmptyCurve("the word reduces to nothing: null-homotopic curve")
        self.transits, self._by_disk, self._bands = _path_transits(surface, word)
        self.surface = surface
        self.word = word
        self._homology = None
        self._root = None

    def canonical(self) -> tuple[int, ...]:
        """Least rotation of the word; equality of classes keeps orientation."""
        return min_rotation(self.word)

    def primitive_root(self) -> tuple[tuple[int, ...], int]:
        """The word as root^power with the shortest root; cached."""
        if self._root is None:
            self._root = _primitive_root(self.word)
        return self._root

    def reversed_word(self) -> tuple[int, ...]:
        return tuple(-t for t in reversed(self.word))

    def unoriented_canonical(self) -> tuple[int, ...]:
        return min(self.canonical(), min_rotation(self.reversed_word()))

    def is_isotopic(self, other: "NormalCurve") -> bool:
        """Unoriented isotopy; oriented isotopy is ==."""
        if self.surface is not other.surface or len(self.word) != len(other.word):
            return False
        return self.unoriented_canonical() == other.unoriented_canonical()

    def __eq__(self, other):
        if not isinstance(other, NormalCurve):
            return NotImplemented
        return self.surface is other.surface and self.canonical() == other.canonical()

    def __hash__(self):
        return hash((id(self.surface), self.canonical()))

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

    def __repr__(self):
        return f"NormalCurve({list(self.word)})"


def curve_from_rectangle(surface: FatGraphSurface, rect: RectangleCurve) -> NormalCurve:
    """The rectangle circle: up through the top crossing, back down through
    the bottom one."""
    return NormalCurve(surface, (rect.top + 1, -(rect.bottom + 1)))


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


def _events(x: NormalCurve, y: NormalCurve):
    """All forced crossings between x and y, two curves of one surface, as
    (i, j, sign, inside_tag)."""
    # x is y: a transit never crosses itself.
    return _scan(x.surface, x.word, x.transits, y.word, y.transits, y._by_disk, x is y)


def _require_one_surface(x: NormalCurve, y: NormalCurve) -> None:
    """Refuse two curves of different surfaces: no count or twist relates
    them, even when their words are equal."""
    if x.surface is not y.surface:
        raise InvalidParameter("curves live on different surfaces")


def _primitive_root(word):
    """Smallest rotation period; returns (root, power)."""
    L = len(word)
    for p in range(1, L + 1):
        if L % p:
            continue
        if word[p:] + word[:p] == word:
            return word[:p], L // p
    return word, 1


def _root_curve(x: NormalCurve) -> tuple[NormalCurve, int]:
    """x as root^power: the primitive root as a curve (x itself when x is
    primitive) and the power."""
    root, power = x.primitive_root()
    if power == 1:
        return x, 1
    return NormalCurve(x.surface, root), power


def self_intersection(x: NormalCurve) -> int:
    """Minimal self-crossing number of the class."""
    if len(x._by_disk) == len(x.word):
        # Each strand disk is passed at most once: no pair of transits to link.
        return 0
    base, power = _root_curve(x)
    if power > 1:
        return power * power * self_intersection(base) + (power - 1)
    crossings = len(_events(x, x))
    if crossings % 2:
        raise InternalConsistencyError("self-crossing events must pair up")
    return crossings // 2


def geometric_intersection(x: NormalCurve, y: NormalCurve | tuple[int, int, int]) -> int:
    """Minimal transverse intersection number of the two classes.

    x is a curve (anything else is refused, InvalidParameter); y is a
    curve of x's surface, or a rectangle (g, top, bottom) of it for its
    circle.  Against a rectangle the count is the number of push-off
    events of x (_push_off_events), read from the rectangle's crossings
    with no circle built and no scan; a triple that is not a rectangle of
    x's surface is refused there (NonEmbeddedCore).
    Two NormalCurves are counted by the linked-pair scan of their
    primitive roots: i(r^p, s^q) = p q i(r, s), and two copies of one
    class count twice the self-intersection of its root.
    """
    if not isinstance(x, NormalCurve):
        raise InvalidParameter("the first argument must be a NormalCurve")
    if not isinstance(y, NormalCurve):
        return len(_push_off_events(y, x))
    _require_one_surface(x, y)
    bx, px = _root_curve(x)
    by, py = _root_curve(y)
    if bx.is_isotopic(by):
        return px * py * 2 * self_intersection(bx)
    return px * py * len(_events(bx, by))


def signed_intersection(
    x: NormalCurve | tuple[int, int, int], y: NormalCurve | tuple[int, int, int]
) -> int:
    """Algebraic intersection number (equals the homological pairing).

    Two NormalCurves of one surface are paired by the event scan; curves
    of two surfaces are refused.  Two rectangles (g, top, bottom) of one
    surface are paired in closed form from their crossings; for a in
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
    rectangles belong to is the caller's to keep; a rectangle paired with
    a NormalCurve, or one that is not three entries, is refused
    (InvalidParameter).
    """
    curve = isinstance(x, NormalCurve)
    if curve != isinstance(y, NormalCurve):
        raise InvalidParameter("pair two rectangles or two NormalCurves")
    if not curve:
        return _rectangle_pairing(x, y)
    _require_one_surface(x, y)
    bx, px = _root_curve(x)
    by, py = _root_curve(y)
    if bx.is_isotopic(by):
        return 0
    total = sum(sign for (_, _, sign, _) in _events(bx, by))
    return px * py * total


def _rectangle_pairing(a: tuple[int, int, int], b: tuple[int, int, int]) -> int:
    """signed_intersection of two rectangle circles, from their crossings."""
    try:
        (ga, a_top, a_bottom), (gb, b_top, b_bottom) = a, b
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(
            f"a rectangle is three integers (g, top, bottom), got {a!r} and {b!r}"
        ) from exc
    step = gb - ga
    if step == 0:
        return (a_bottom == b_top) - (b_bottom == a_top)
    if step == -1:
        return -_rectangle_pairing(b, a)
    if step != 1:
        return 0
    return (b_top < a_top < b_bottom < a_bottom) - (a_top < b_top < a_bottom < b_bottom)


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


def dehn_twist(factor: TwistFactor | tuple[int, int, int], x: NormalCurve) -> NormalCurve:
    """Image of x under the twist; computed in minimal position.

    The factor is a TwistFactor whose core lies on x's surface, or a
    rectangle (g, top, bottom) of x's surface, as a RectangleCurve or a
    plain triple, for the right-handed twist along that rectangle's core,
    read from the rectangle's crossings with no core curve built: a copy
    of the core goes in at each push-off event, (a, -b) on disk g and
    (-b, a) on g + 1, a = top + 1, b = bottom + 1, reversed when x arrives
    from the push-off's side.  _push_off_events refuses a triple that is
    not one of the surface's rectangles and holds the proof.

    For a TwistFactor, an oriented copy of the core is spliced into x at
    every forced crossing, the orientation given by the crossing sign and
    handedness, then the word is reduced.
    """
    surface = x.surface
    if not isinstance(factor, TwistFactor):
        events = _push_off_events(factor, x)
        if not events:
            return x
        events.sort()
        g, top, bottom = factor
        a, b = top + 1, bottom + 1
        wx = x.word
        out: list[int] = []
        prev = 0
        for j, v, arrives in events:
            out.extend(wx[prev:j])
            copy = (a, -b) if v == g else (-b, a)
            # The crossing's sign is +1 when x arrives from the push-off's side.
            sign = 1 if arrives else -1
            out.extend(copy if sign * RIGHT_HANDED_SIGN > 0 else (-copy[1], -copy[0]))
            prev = j
        out.extend(wx[prev:])
        return NormalCurve(surface, out)
    core = factor.core
    _require_one_surface(x, core)
    if x.is_isotopic(core):
        return x
    wx, tx = x.word, x.transits
    wc, tc = core.word, core.transits
    hand = RIGHT_HANDED_SIGN if factor.right else -RIGHT_HANDED_SIGN
    events = _scan(surface, wx, tx, wc, tc, core._by_disk)
    if not events:
        return x
    if len(events) > 1:
        bound = len(wx) + len(wc) + 2
        events.sort(key=_insertion_order_key(surface, tx, wc, tc, bound))
    out = []
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
    return NormalCurve(surface, out)


def _push_off_events(rect: tuple[int, int, int], x: NormalCurve) -> list[tuple[int, int, bool]]:
    """The crossings of x with a push-off of the core of rectangle
    (g, top, bottom), as (transit, disk, arrives from the push-off's side).

    The rectangle must be one of x's surface's: its word holds letter g at
    top and at bottom and nowhere between them.  Any other triple is
    refused (NonEmbeddedCore), and an argument that is not three integers
    (InvalidParameter); this is the one rectangle check of dehn_twist and
    geometric_intersection.

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
    ends lie on opposite sides of A is an event.  A maximal run of x along
    the core's bands (transits whose ends are both the core's) counts
    once, at its entry transit, the one that arrives by another band and
    leaves along the core; it is decided by the entry's incoming end
    against the exit's outgoing end.  The walk to the exit ends within
    len(x) transits: the entry arrives by a band that is not one of the
    core's, so the transit before it leaves by that band.

    Twist.  The twist along the core is the twist T_A along its isotopic
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
    is c rotated to start at the run's exit.  The spliced word represents
    T_A(x), and the cyclically reduced word of a class is unique up to
    rotation, so reduction gives the image's word; the test suite checks
    it letter for letter against the linked-pair twist.

    Count.  The events are the crossings of x with A in that drawing.  The
    run rule leaves no bigon with A (a run that would meet A twice counts
    nothing), and the linked-pair scan anchors a shared run at the same
    entry (_pair_event), so the number of events is i(x, core).  A proper
    power r^k passes the transits of r k times, so it gives k times the
    count of r, as i(r^k, core) = k i(r, core) for the embedded core.  The
    core itself, a power of it or its reverse arrives along a core band at
    every transit, so it gives 0.  The test suite checks the count against
    the linked-pair count of the rectangle circle.
    """
    letters = x.surface.word.letters
    try:
        g, top, bottom = rect
        embedded = (
            0 <= top < bottom < len(letters)
            and letters[top] == g == letters[bottom]
            and g not in letters[top + 1 : bottom]
        )
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(
            f"a rectangle is three integers (g, top, bottom), got {rect!r}"
        ) from exc
    if not embedded:
        raise NonEmbeddedCore(f"{rect} is not a rectangle of the curve's surface")
    tx = x.transits
    last = len(tx) - 1
    by_disk = x._by_disk
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
    return events


def apply_monodromy(x: NormalCurve, power: int = 1) -> NormalCurve:
    """Apply the monodromy of x's surface power times: each time, the full
    ordered product of its right-handed rectangle twists.

    The sweep reads each rectangle as its (g, top, bottom) triple from the
    surface's columns (twist_sweep), right to left and bottom to top.  A
    twist is skipped when no transit end of the current curve lies in its
    core's window, the arc between the core's ends on disks g and g + 1,
    which holds exactly the ends of crossings top..bottom (ring order is
    word order).  A transit with both ends outside it cannot be linked
    with the core, so dehn_twist would find no crossing and return the
    curve itself.  The test is one AND of the curve's band mask with the
    entry's window mask (window_masks): the curve has an end in the window
    exactly when it traverses a crossing p in top..bottom whose letter is
    g - 1, g or g + 1, since it then passes both ends of p, on disks
    letter(p) and letter(p) + 1.  Only a twist that may act goes to
    dehn_twist, as its triple, and dehn_twist reads the core from its
    crossings.  Calling dehn_twist on every rectangle instead made certify
    slower on the benchmark's chains and knots inputs (Python 3.11, 2-core
    x86-64 VM).
    """
    if power < 0:
        raise InvalidParameter("power must be non-negative; invert via left twists instead")
    surface = x.surface
    sweep, masks = surface.twist_sweep, surface.window_masks
    for _ in range(power):
        for window, mask in zip(sweep, masks):
            if x._bands & mask:
                x = dehn_twist(window, x)
    return x
