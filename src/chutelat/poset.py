"""Chute-move posets: enumeration, lattice queries, polygons, chute paths.

The partial order is the reflexive-transitive closure of single chute
moves.  Nothing here assumes the structural theorems: meets and joins
are searched for and their uniqueness is checked, with a
TheoremViolation carrying a witness whenever a check fails.

Bit r of a closure mask stands for the element of rank r in one linear
extension, by Lehmer total with the canonical index as tie-break.  A
greatest lower bound, if it exists, is then the top set bit of the
common down-set and a least upper bound the lowest set bit of the common
up-set (Freese, Jezek and Nation, *Free Lattices*, 1995).
"""

from __future__ import annotations

import gc
from array import array
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, chain, repeat

from . import chute
from .errors import Incomparable, TheoremViolation
from .perm import Permutation
from .pipedream import (
    PipeDream,
    _cross_mask,
    _layout,
    _read_table,
    _route_read,
    _rows_key,
    is_reduced,
    phi,
    theta,
    trace,
)
from .tableaux import (
    InversionsTableau,
    _support,
    delta_multiset,
    increment,
    increment_multiset,
    lehmer_form,
    lehmer_leq,
    lehmer_vector,
    restrict,
    validate_inversions_tableau,
)

__all__ = [
    "ChutePoset",
    "Interval",
    "PolygonType",
    "seed_dream",
    "enumerate_poset",
    "cached_poset",
    "brute_force_enumerate",
    "leq_via_lehmer",
    "theta_inverse",
    "single_moves_all_covers",
    "classify_polygon",
    "PathStep",
    "chute_path",
    "to_dot",
]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_Csr = namedtuple("_Csr", "starts targets move_ids moves")


def _csr(rows) -> _Csr:
    """Rows of (move, target) pairs in CSR form."""
    starts, targets, move_ids, ids = array("i", [0]), array("i"), array("i"), {}
    for row in rows:
        for mv, j in row:
            move_ids.append(ids.setdefault(mv, len(ids)))
            targets.append(j)
        starts.append(len(targets))
    return _Csr(starts, targets, move_ids, tuple(ids))


def _seed_mask(w: Permutation) -> int:
    """The cross mask of the seed dream of w: row i holds crosses in
    columns 1..c(i), c the Lehmer code of the inverse permutation."""
    offsets = _layout(w.n)[0]
    mask = 0
    for i, c in enumerate(w.inverse().lehmer_code(), start=1):
        mask |= ((1 << c) - 1) << offsets[i]
    return mask


def seed_dream(w: Permutation) -> PipeDream:
    """Left-justified filling: row i holds crosses in columns 1..c(i) where
    c is the Lehmer code of the inverse permutation (``_seed_mask``).
    Under the exit-label wiring convention used here this dream traces to
    w itself; the build re-checks that."""
    return PipeDream._from_mask(w.n, _seed_mask(w))


class _Lazy:
    """Made on first read by the poset method named ``make``, which stores
    the field, and any made alongside, as an instance attribute; this
    non-data descriptor then yields to it."""

    def __init__(self, make):
        self.make = make

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        getattr(obj, self.make)()
        return obj.__dict__[self.name]


class ChutePoset:
    """All reduced pipe dreams of one wiring, ordered by chute moves.

    Elements sit in a canonical order (undirected distance from the seed
    over move edges, then the serialized grid as tie-break), so indices,
    DOT output, and witnesses are stable across runs.  ``cross_masks[k]``
    is element k's cross mask, read off its rows when not given; given
    the masks, ``elements`` may be None, and the dreams are then made
    from the masks on first read.

    The store is flat: element k's moves, in ``chute.find_moves`` order,
    are the CSR row ``_starts[k]:_starts[k + 1]`` of ``_targets`` and of
    ``_move_ids``, indices into ``_moves``; ``moves_up`` gives (move,
    target) rows or a ``_Csr``.  Its Lehmer vector is run k of ``_width``
    entries of ``_flat``, its total ``_totals[k]``.  The rest is made on
    first read (``_Lazy``): ``elements``, ``vectors``, ``_ends``, ``_up``,
    ``index``, ``_covers_down``, and by one ``_closure_pass`` the rank
    order, the strict down-sets (bit r for the element of rank r,
    ``_order[r]``) and the cover rows.
    """

    def __init__(
        self,
        w: Permutation,
        elements: tuple[PipeDream, ...] | None,
        vectors,
        moves_up,
        cross_masks: tuple | None = None,
    ):
        self.w = w
        if cross_masks is None:
            cross_masks = tuple(_cross_mask(d.rows)[0] for d in elements)
        if elements is not None:
            self.elements = elements
        self.cross_masks = cross_masks
        size = len(cross_masks)
        # a dream of size n is its cross mask
        if len(set(cross_masks)) != size:
            raise ValueError("duplicate elements")
        if len(vectors) != size:
            raise ValueError("need one Lehmer vector per element")
        if not isinstance(moves_up, _Csr):
            if len(moves_up) != size:
                raise ValueError("need one row of moves per element")
            moves_up = _csr(moves_up)
        self._starts, self._targets, self._move_ids, self._moves = moves_up
        starts, targets = self._starts, self._targets
        # the vectors are distinct iff the crossing-row tableaux are
        if len(set(vectors)) != size:
            raise TheoremViolation(
                "crossing-row map is not injective on this fiber",
                witness={"w": str(w)},
            )
        self._totals = totals = list(map(sum, vectors))
        for k in range(size):
            total = totals[k]
            for j in targets[starts[k]:starts[k + 1]]:
                if totals[j] <= total:
                    raise TheoremViolation(
                        "a move failed to raise the Lehmer total",
                        witness={"from": self.elements[k].to_json(),
                                 "to": self.elements[j].to_json()},
                    )
        self._flat = array("i", list(chain.from_iterable(vectors)))
        self._width = size and len(self._flat) // size
        # verify's fork tables (joins of up-forks, meets of down-forks)
        self._up_fork_bounds = None
        self._down_fork_bounds = None

    def _make_elements(self) -> None:
        self.elements = tuple(map(PipeDream._from_mask, repeat(self.w.n), self.cross_masks))

    def _make_ends(self) -> None:
        """Sources, the elements no move targets, and sinks, the empty
        move rows."""
        starts, size = self._starts, self.size
        targeted = set(self._targets)
        self._ends = (
            [k for k in range(size) if k not in targeted],
            [k for k in range(size) if starts[k] == starts[k + 1]],
        )

    def _closure_pass(self) -> None:
        """Up the ranks, down[k] ORs the strict down-sets of the sources of
        moves into k, ends[k] their bits; a source in both is no cover.
        Stable sorts; ``ints`` shares one int object per index."""
        size, starts, targets = self.size, self._starts, self._targets
        ints = list(range(size))
        order = sorted(ints, key=self._totals.__getitem__)
        rank = sorted(ints, key=order.__getitem__)
        down, ends = [0] * size, [0] * size
        shared = list(map(ints.__getitem__, targets))
        covers = list(map(tuple, map(shared.__getitem__, map(slice, starts, starts[1:]))))
        for r, k in enumerate(order):
            below, bits = down[k], ends[k]
            ends[k] = 0
            for s in _bits(below & bits):
                c = order[s]
                covers[c] = tuple(j for j in covers[c] if j != k)
            down[k] = m = below | bits
            bit = 1 << r
            # k's move row: only targets of k drop from it
            for j in covers[k]:
                down[j] |= m
                ends[j] |= bit
        self._order, self._rank = tuple(order), tuple(rank)
        self._down, self._covers_up = tuple(down), tuple(covers)

    def _make_vectors(self) -> None:
        # zip() of nothing yields nothing
        m = self._width
        self.vectors = tuple(zip(*[iter(self._flat)] * m)) if m else ((),) * self.size

    def _make_up(self) -> None:
        rank, covers, up = self._rank, self._covers_up, [0] * self.size
        for k in reversed(self._order):
            m = 0
            for j in covers[k]:
                m |= (1 << rank[j]) | up[j]
            up[k] = m
        self._up = tuple(up)

    def _make_covers_down(self) -> None:
        rows = [[] for _ in range(self.size)]
        for k, row in enumerate(self._covers_up):
            for j in row:
                rows[j].append(k)
        self._covers_down = tuple(map(tuple, rows))

    def _make_index(self) -> None:
        self.index = {d: k for k, d in enumerate(self.elements)}

    def _make_thetas(self) -> None:
        self.thetas = tuple(theta(d) for d in self.elements)
        self.theta_index = {t: k for k, t in enumerate(self.thetas)}

    _order = _Lazy("_closure_pass")
    _rank = _Lazy("_closure_pass")
    _down = _Lazy("_closure_pass")
    _covers_up = _Lazy("_closure_pass")
    elements = _Lazy("_make_elements")
    _ends = _Lazy("_make_ends")
    vectors = _Lazy("_make_vectors")
    _up = _Lazy("_make_up")
    _covers_down = _Lazy("_make_covers_down")
    index = _Lazy("_make_index")
    thetas = _Lazy("_make_thetas")
    theta_index = _Lazy("_make_thetas")

    # -- basic lookups ------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.cross_masks)

    def idx(self, p: PipeDream) -> int:
        try:
            return self.index[p]
        except KeyError:
            raise ValueError("dream is not an element of this poset") from None

    def moves_up_idx(self, a: int) -> tuple:
        """Element a's moves, each paired with its target."""
        moves, ids, targets = self._moves, self._move_ids, self._targets
        return tuple((moves[ids[e]], targets[e]) for e in range(self._starts[a], self._starts[a + 1]))

    def moves_from(self, p: PipeDream) -> tuple:
        """Applicable moves with their targets, in rectangle order."""
        return tuple((mv, self.elements[j]) for mv, j in self.moves_up_idx(self.idx(p)))

    def covers_up_idx(self, a: int) -> tuple[int, ...]:
        return self._covers_up[a]

    def covers_down_idx(self, a: int) -> tuple[int, ...]:
        return self._covers_down[a]

    def _down0(self, a: int) -> int:
        return self._down[a] | (1 << self._rank[a])

    def _up0(self, a: int) -> int:
        return self._up[a] | (1 << self._rank[a])

    def _canonical(self, mask: int) -> list[int]:
        """Canonical indices of the elements in a mask, ascending."""
        order = self._order
        return sorted(order[r] for r in _bits(mask))

    # -- order queries ------------------------------------------------------

    def leq_idx(self, a: int, b: int) -> bool:
        return a == b or bool((self._up[a] >> self._rank[b]) & 1)

    def leq(self, p: PipeDream, q: PipeDream) -> bool:
        return self.leq_idx(self.idx(p), self.idx(q))

    def min_element(self) -> PipeDream:
        """The unique source, which is the minimum: ``__init__`` checks that
        every move raises the Lehmer total, so moves are acyclic and every
        element lies above some source."""
        sources = self._ends[0]
        if len(sources) != 1:
            raise TheoremViolation(
                f"{len(sources)} move-minimal elements",
                witness={"sources": [self.elements[k].to_json() for k in sources]},
            )
        return self.elements[sources[0]]

    def max_element(self) -> PipeDream:
        """The unique sink, which is the maximum by the dual argument."""
        sinks = self._ends[1]
        if len(sinks) != 1:
            raise TheoremViolation(
                f"{len(sinks)} move-maximal elements",
                witness={"sinks": [self.elements[k].to_json() for k in sinks]},
            )
        return self.elements[sinks[0]]

    def _no_extreme(self, common: int, a: int, b: int, kind: str) -> TheoremViolation:
        """The violation for a pair whose common bounds ``common`` have no
        extreme element: either there are none, or the candidate (the
        last or first bit, which is last or first in a linear extension)
        fails to dominate them, which is a genuine witness."""
        pair = [self.elements[a].to_json(), self.elements[b].to_json()]
        if common == 0:
            return TheoremViolation(f"no common {kind} bound", witness={"pair": pair})
        return TheoremViolation(
            f"common {kind} bounds have no extreme element",
            witness={
                "pair": pair,
                "bounds": [self.elements[k].to_json() for k in self._canonical(common)],
            },
        )

    def meet_idx(self, a: int, b: int) -> int:
        down, rank = self._down, self._rank
        common = (down[a] | 1 << rank[a]) & (down[b] | 1 << rank[b])
        if common:
            top = common.bit_length() - 1
            best = self._order[top]
            if not common & ~(down[best] | 1 << top):
                return best
        raise self._no_extreme(common, a, b, "lower")

    def join_idx(self, a: int, b: int) -> int:
        up, rank = self._up, self._rank
        common = (up[a] | 1 << rank[a]) & (up[b] | 1 << rank[b])
        if common:
            low = common & -common
            best = self._order[low.bit_length() - 1]
            if not common & ~(up[best] | low):
                return best
        raise self._no_extreme(common, a, b, "upper")

    def meet(self, p: PipeDream, q: PipeDream) -> PipeDream:
        return self.elements[self.meet_idx(self.idx(p), self.idx(q))]

    def join(self, p: PipeDream, q: PipeDream) -> PipeDream:
        return self.elements[self.join_idx(self.idx(p), self.idx(q))]

    def interval_idx(self, a: int, b: int) -> "Interval":
        if not self.leq_idx(a, b):
            raise ValueError("interval endpoints are not comparable")
        return Interval(self, a, b)

    def interval(self, p: PipeDream, q: PipeDream) -> "Interval":
        return self.interval_idx(self.idx(p), self.idx(q))


@dataclass(frozen=True, eq=False)
class Interval:
    """A closed interval, carried as its endpoints' canonical indices; its
    members (ascending) are read off one mask in the poset's rank order."""

    poset: ChutePoset
    bottom: int
    top: int

    @property
    def mask(self) -> int:
        return self.poset._up0(self.bottom) & self.poset._down0(self.top)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(self.poset._canonical(self.mask))

    @property
    def size(self) -> int:
        return self.mask.bit_count()


class PolygonType(Enum):
    DIAMOND = "diamond"
    PENTAGON = "pentagon"
    POLYGON = "polygon"
    NOT_A_POLYGON = "not_a_polygon"


def _span_polygon(poset: ChutePoset, bottom: int, top: int) -> PolygonType:
    """Name [bottom, top] by walking its cover rows: DIAMOND or PENTAGON
    when it is two maximal chains meeting only at the endpoints, of 4 or 5
    elements, POLYGON for a larger such shape (which the checkers treat as
    a failure), and NOT_A_POLYGON otherwise.

    The upper covers of a member that lie <= top are its upper covers in
    the interval I.  The bottom must have two.  From each, the walk
    follows a member's one upper cover in I until it reaches a lower
    cover of the top; a member with another count, or two walks that end
    at the same lower cover, make I no polygon.  Every walk ends, as it
    climbs inside I and meets a lower cover of the top before the top.
    A member covered by the top has no other upper cover in I, since it
    would lie strictly between.  So a maximal chain up from the bottom to
    any member of I takes one of the two first steps and then the one
    upper cover in I at each member, and every member of (bottom, top)
    lies on a walk.  Two walks that share a member go on together, so
    walks with distinct ends are disjoint, and I is exactly the two
    chains.  The verdict is therefore the cover-degree one on every
    interval, a fork's span or not: two upper covers in I at the bottom,
    one at every other member but the top, and two lower covers at the
    top, which two walks with one end do not give it.
    """
    rank, covers = poset._rank, poset._covers_up
    inside, ends = poset._down0(top), poset._covers_down[top]
    starts = [j for j in covers[bottom] if (inside >> rank[j]) & 1]
    if len(starts) != 2:
        return PolygonType.NOT_A_POLYGON
    size, end = 4, None  # the endpoints and the two first steps
    for k in starts:
        while k not in ends:
            step = [j for j in covers[k] if (inside >> rank[j]) & 1]
            if len(step) != 1:
                return PolygonType.NOT_A_POLYGON
            k = step[0]
            size += 1
        if k == end:
            return PolygonType.NOT_A_POLYGON
        end = k
    if size == 4:
        return PolygonType.DIAMOND
    if size == 5:
        return PolygonType.PENTAGON
    return PolygonType.POLYGON


def classify_polygon(iv: Interval) -> PolygonType:
    """The shape of an interval, as ``_span_polygon`` names it."""
    return _span_polygon(iv.poset, iv.bottom, iv.top)


# ---------------------------------------------------------------------------
# enumeration


def _undirected_depth(up: list[list]) -> list[int]:
    """Distance from element 0 over the move edges, each taken both ways;
    ``up[j]`` lists element j's moves, each then its target's id."""
    neighbours: list[list[int]] = [[] for _ in up]
    for j, row in enumerate(up):
        for k in row[1::2]:
            neighbours[j].append(k)
            neighbours[k].append(j)
    depth = [-1] * len(up)
    depth[0] = 0
    queue = [0]
    for k in queue:
        for j in neighbours[k]:
            if depth[j] < 0:
                depth[j] = depth[k] + 1
                queue.append(j)
    return depth


def _move_of(key: tuple, support: tuple) -> chute.ChuteMove:
    """The move of a build's scan key: its rectangle and, in place of the
    pipe pair, the pair's slot in ``support``, the inversions of w in
    Lehmer-vector order.  The move is the one ``chute`` shares."""
    return chute._shared_move((*key[:4], support[key[4]]))


def _read_error(w: Permutation, masks: list, up: list, keys: dict, k: int) -> Exception:
    """The error for element k, whose mask read failed: the ValueError of
    the tableau route, ``lehmer_vector(theta(dream), w)``, as a
    TheoremViolation with the dream, and the source and move that first
    reached it (``up[k][:2]``, a key id in ``keys``), as witness.  The two
    routes read the same vectors, so one that reads the dream is a fault
    of the mask read, a RuntimeError.  Only this path makes dreams in the
    build."""
    n = w.n
    dream = PipeDream._from_mask(n, masks[k])
    try:
        vector = lehmer_vector(theta(dream), w)
    except ValueError as exc:
        witness = {"w": str(w), "dream": dream.to_json()}
        if k:
            m, source = up[k][:2]
            witness["source"] = PipeDream._from_mask(n, masks[source]).to_json()
            witness["move"] = _move_of(list(keys)[m], _support(w)).to_json()
        return TheoremViolation(str(exc), witness=witness)
    return RuntimeError(f"the mask read refused a dream of {w} that the tableau route reads as {vector}")


def enumerate_poset(w: Permutation) -> ChutePoset:
    """Downward breadth-first search from the seed dream by inverse moves
    alone, searching each element once.

    The seed is the top of PD(w), and inverse chute moves from it reach
    every reduced pipe dream of w (Bergeron and Billey, "RC-graphs and
    Schubert polynomials", *Exp. Math.* 2 (1993)).  An inverse move from d
    to e is the move edge e -> d, recorded in e's row.  An element's
    canonical depth is its undirected distance from the seed over them,
    and ties go by ``_rows_key``, the rows order read off the mask.

    Each dream is a cross mask.  The seed's is ``_seed_mask(w)``; its
    dream, made from the mask unvalidated, goes through ``trace`` and
    ``chute.find_moves``, and a seed not wired to w or with an up-move
    aborts loudly.  Every element, the seed too, is then read once by
    ``_route_read``, which routes it and gives its Lehmer vector and the
    Lehmer slot of the pair at each cross, and ``chute.inverse_move_scan``
    keys its inverse moves by those slots.  A target is the mask with two
    bits flipped.  A failed read is raised with its witness (see
    ``_read_error``).  No other ``PipeDream`` is made: the poset
    makes them from the masks on first read.  The cyclic collector is off
    for the build: it makes many long-lived objects and no cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        n = w.n
        seed = _seed_mask(w)
        # the one dream the build makes; its checks share one routing
        top = PipeDream._from_mask(n, seed)
        routing = trace(top)
        if routing.wiring != w:
            raise RuntimeError(f"seed dream traces to {routing.wiring}, wanted {w}")
        if chute.find_moves(top):
            raise RuntimeError(f"seed dream of {w} has an up-move, so it is not the top")
        masks = [seed]
        ids = {seed: 0}
        vectors = []
        up: list[list] = [[]]
        keys: dict = {}
        table = _read_table(w)
        read, scan = _route_read, chute.inverse_move_scan
        # masks grows while it is walked, which makes it the BFS queue
        for k, mask in enumerate(masks):
            got = read(n, mask, table)
            if got is None:
                raise _read_error(w, masks, up, keys, k)
            vectors.append(got[0])
            for key, flip in scan(n, mask, got[1]):
                # the scan has just found the move, which is all that
                # chute.inverse_apply checks, so the flip needs no check
                target = mask ^ flip
                j = ids.get(target)
                if j is None:
                    j = ids[target] = len(masks)
                    masks.append(target)
                    up.append([])
                up[j] += keys.setdefault(key, len(keys)), k
        size = len(masks)
        depth = _undirected_depth(up)
        # a depth above every rows key: the two compare as (depth, rows)
        shift = n * (n - 1) // 2
        sort_keys = [d << shift | _rows_key(n, m) for d, m in zip(depth, masks)]
        order = sorted(range(size), key=sort_keys.__getitem__)
        canon = [0] * size
        for pos, k in enumerate(order):
            canon[k] = pos
        # each key's place among the moves in move order
        support = _support(w)
        found = [_move_of(key, support) for key in keys]
        by_order = sorted(range(len(found)), key=lambda m: chute.move_order(found[m]))
        place = {m: pos for pos, m in enumerate(by_order)}
        # sorted by source, move and target: the CSR rows
        nm, counts = len(found), [0] * size
        for s, row in enumerate(up):
            counts[canon[s]] = len(row) >> 1
        edges = sorted([
            (canon[s] * nm + place[m]) * size + canon[t]
            for s, row in enumerate(up) for m, t in zip(row[::2], row[1::2])
        ])
        return ChutePoset(
            w,
            None,
            list(map(vectors.__getitem__, order)),
            _Csr(
                array("i", accumulate(counts, initial=0)),
                array("i", [e % size for e in edges]),
                array("i", [e // size % nm for e in edges]),
                tuple(map(found.__getitem__, by_order)),
            ),
            tuple(map(masks.__getitem__, order)),
        )
    finally:
        if enabled:
            gc.enable()


# a verify run reads one fiber, and triforce (n <= 4) one more; the bound
# keeps a sweep from holding every fiber it visits
@lru_cache(maxsize=8)
def cached_poset(w: Permutation) -> ChutePoset:
    return enumerate_poset(w)


@lru_cache(maxsize=None)
def _brute_force_all(n: int) -> dict:
    if not 1 <= n <= 6:
        raise ValueError("brute force is guarded to n <= 6")
    interior = [(r, c) for r in range(1, n) for c in range(1, n + 1 - r)]
    found: dict[Permutation, list[PipeDream]] = {}
    for bits in range(1 << len(interior)):
        boxes = {interior[k] for k in range(len(interior)) if (bits >> k) & 1}
        d = PipeDream.from_crosses(n, boxes)
        if is_reduced(d):
            found.setdefault(trace(d).wiring, []).append(d)
    return {v: tuple(sorted(ds, key=lambda d: d.rows)) for v, ds in found.items()}


def brute_force_enumerate(w: Permutation) -> frozenset[PipeDream]:
    """Independent oracle: every cross/bump assignment of the interior,
    filtered by reducedness and wiring.  Exponential, hence the guard."""
    return frozenset(_brute_force_all(w.n).get(w, ()))


# ---------------------------------------------------------------------------
# order by tableaux


def leq_via_lehmer(p: PipeDream, q: PipeDream) -> bool:
    """Componentwise comparison of the Lehmer images; agreement with the
    move-closure order is the central verified theorem, not an assumption."""
    return lehmer_leq(phi(p), phi(q))


def theta_inverse(t: InversionsTableau) -> PipeDream:
    """The reduced pipe dream whose crossing-row tableau is t, found by
    lookup in the enumerated fiber of t's permutation."""
    poset = cached_poset(t.w)
    k = poset.theta_index.get(t)
    if k is None:
        raise ValueError("tableau is not realized by any reduced pipe dream")
    return poset.elements[k]


def single_moves_all_covers(poset: ChutePoset) -> bool:
    """Whether every single move lands on a cover.  Measured, never assumed:
    a row of covers is its row of moves less what transitive reduction drops."""
    return sum(map(len, poset._covers_up)) == len(poset._targets)


# ---------------------------------------------------------------------------
# explicit chute paths


@dataclass(frozen=True)
class PathStep:
    """One increment batch: the chosen box and the full set it drags along."""

    box: tuple[int, int]
    bset: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {"box": list(self.box), "bset": [list(b) for b in self.bset]}


def chute_path(t_from: InversionsTableau, t_to: InversionsTableau) -> tuple[PathStep, ...]:
    """Explicit path in the increment picture from t_from up to t_to.

    Repeatedly: take the multiset difference M of Lehmer forms, collect the
    boxes of M whose single increment stays inside the inversions-tableau
    family after restricting to their column, take the rightmost such box
    per row, break ties toward the leftmost column and lowest row, widen it
    to the set B of same-entry boxes to its right that trade against the
    same value, and apply one increment per box of B.  Four conditions are
    re-checked at every step:

      (I)   each widened box holds p0 and trades against q0,
      (II)  B never leaves the difference multiset,
      (III) the batch increment lands on an inversions tableau,
      (IV)  q0 is absent from the chosen column beforehand.

    A failed condition, or a nonempty difference with no incrementable box,
    raises TheoremViolation: both would contradict the structure theory
    this package exists to check.  Incomparable inputs raise
    ``Incomparable``, and a start above the target raises ValueError.
    """
    w = t_from.w
    if t_to.w != w:
        raise ValueError("tableaux tagged with different permutations")
    for t in (t_from, t_to):
        res = validate_inversions_tableau(t, w)
        if not res:
            raise ValueError(f"not an inversions tableau: {res.message}")
    n = w.n
    delta = delta_multiset(t_from, t_to, w)
    if delta is None:
        if delta_multiset(t_to, t_from, w) is None:
            raise Incomparable("tableaux are incomparable")
        raise ValueError("the start lies strictly above the target; a path only goes up")
    steps: list[PathStep] = []
    t, m = t_from, delta
    for _ in range(sum(delta.values()) + 1):
        if m is None:
            raise TheoremViolation(
                "a step overshot the target",
                witness={"from": t_from.to_json(), "to": t_to.to_json(), "reached": t.to_json()},
            )
        if not m:
            return tuple(steps)
        x_boxes = []
        for (i, j) in sorted(m, key=lambda b: (b[1], b[0])):
            cut = restrict(t, j)
            inc, _kind = increment(cut, i, j)
            if validate_inversions_tableau(inc, cut.w):
                x_boxes.append((i, j))
        if not x_boxes:
            raise TheoremViolation(
                "difference multiset nonempty but no box is incrementable",
                witness={"from": t.to_json(), "to": t_to.to_json(),
                         "remaining": sorted(m.elements())},
            )
        rightmost = {}
        for (i, j) in x_boxes:
            rightmost[i] = max(rightmost.get(i, 0), j)
        candidates = [(i, j) for (i, j) in x_boxes if j == rightmost[i]]
        x0, y0 = min(candidates, key=lambda b: (b[1], b[0]))
        p0 = t.get(x0, y0)
        below = {t.get(ii, y0) for ii in range(1, x0)}
        q0 = p0 + 1
        while q0 in below:
            q0 += 1
        ys = tuple(
            y for y in range(y0 + 1, n + 1)
            if t.get(x0, y) == p0 and p0 < t.get(y0, y)
        )
        bset = ((x0, y0),) + tuple((x0, y) for y in ys)
        failures = []
        for y in ys:
            if t.get(y0, y) != q0:
                failures.append(f"(I) entry at ({y0},{y}) is {t.get(y0, y)}, not q0={q0}")
            if increment(t, x0, y)[0].get(x0, y) != q0:
                failures.append(f"(I) increment at ({x0},{y}) does not reach q0={q0}")
        if any(m[b] < 1 for b in bset):
            failures.append("(II) widened set leaves the difference multiset")
        lifted = increment_multiset(t, bset)
        if not validate_inversions_tableau(lifted, w):
            failures.append("(III) batch increment leaves the inversions-tableau family")
        if any(t.get(ii, y0) == q0 for ii in range(1, y0)):
            failures.append(f"(IV) q0={q0} already sits in column {y0}")
        if not failures:
            before = lehmer_form(t, w)
            after = lehmer_form(lifted, w)
            for box in before.support():
                want = before.get(*box) + (1 if box in bset else 0)
                if after.get(*box) != want:
                    failures.append(f"Lehmer form moved wrongly at {box}")
        if failures:
            raise TheoremViolation(
                "; ".join(failures),
                witness={"tableau": t.to_json(), "box": [x0, y0],
                         "bset": [list(b) for b in bset]},
            )
        steps.append(PathStep((x0, y0), bset))
        t = lifted
        m = delta_multiset(t, t_to, w)
    raise TheoremViolation(
        "path did not terminate within the multiset budget",
        witness={"from": t_from.to_json(), "to": t_to.to_json()},
    )


# ---------------------------------------------------------------------------
# output


def to_dot(poset: ChutePoset) -> str:
    """Hasse diagram in DOT form, bottom-up.  Nodes carry their canonical
    index and the dream's JSON as a tooltip; each cover edge is labeled
    with the pipe pair of its move."""
    lines = [
        "digraph chutelat {",
        "  rankdir=BT;",
        '  node [shape=circle, fontsize=10];',
    ]
    for k, d in enumerate(poset.elements):
        # the compact JSON of d.to_json() with its quotes escaped; rows hold
        # only C, B and E, so nothing else needs escaping
        rows = ",".join(f'\\"{row}\\"' for row in d.rows)
        lines.append(f'  {k} [tooltip="{{\\"n\\":{d.n},\\"rows\\":[{rows}]}}"];')
    labels = [f"({mv.pipe_lo},{mv.pipe_hi})" for mv in poset._moves]
    starts, targets, ids = poset._starts, poset._targets, poset._move_ids
    # one string per row
    for k, covers in enumerate(poset._covers_up):
        row = [
            f'  {k} -> {targets[e]} [label="{labels[ids[e]]}"];'
            for e in range(starts[k], starts[k + 1])
            if targets[e] in covers
        ]
        if row:
            lines.append("\n".join(row))
    lines.append("}\n")
    return "\n".join(lines)
