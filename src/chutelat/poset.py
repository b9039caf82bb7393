"""Chute-move posets: enumeration, lattice queries, polygons, chute paths.

The partial order is the reflexive-transitive closure of single chute
moves.  A poset is built by a downward breadth-first search from the seed
dream, the top of the fiber, by inverse moves alone (Bergeron and Billey,
1993); after that every query (covers, meets, joins, intervals) runs on
dense bitmask closures.  Nothing here assumes the structural theorems:
meets and joins are searched for and their uniqueness is checked, with a
TheoremViolation carrying a witness whenever a check fails.

Bit layout: bit r of a closure mask stands for the element of rank r in
one linear extension, the order by Lehmer total with the canonical index
as tie-break.  ``ChutePoset._order[r]`` is that element's canonical index
and ``ChutePoset._rank`` maps back; nothing outside the masks sees ranks.
A greatest lower bound, if it exists, is then the top set bit of the
common down-set and a least upper bound the lowest set bit of the common
up-set (Freese, Jezek and Nation, *Free Lattices*, 1995, on algorithms
for finite lattices).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

from . import chute
from .errors import Incomparable, TheoremViolation
from .perm import Permutation
from .pipedream import (
    BUMP,
    CROSS,
    ELBOW,
    PipeDream,
    is_reduced,
    phi,
    phi_vector,
    theta,
    trace,
)
from .tableaux import (
    InversionsTableau,
    delta_multiset,
    increment,
    increment_multiset,
    lehmer_form,
    lehmer_leq,
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
    "fork_polygon",
    "PathStep",
    "chute_path",
    "to_dot",
]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def seed_dream(w: Permutation) -> PipeDream:
    """Left-justified filling: row i holds crosses in columns 1..c(i) where
    c is the Lehmer code of the inverse permutation.  Under the exit-label
    wiring convention used here this dream traces to w itself; the caller
    re-checks that at enumeration time."""
    code = w.inverse().lehmer_code()
    return PipeDream(
        tuple(CROSS * c + BUMP * (w.n - i - c) + ELBOW for i, c in enumerate(code, start=1))
    )


class ChutePoset:
    """All reduced pipe dreams of one wiring, ordered by chute moves.

    Elements sit in a canonical order (undirected distance from the seed
    over move edges, then the serialized grid as tie-break), so indices,
    DOT output, and witnesses are stable across runs.  Internally every
    element carries bitmasks of its strict up- and down-sets, with bit r
    standing for the element of Lehmer-total rank r (canonical index
    ``_order[r]``); covers are the single-move edges with nothing strictly
    between.

    ``vectors[k]`` is the Lehmer vector of element k,
    ``lehmer_vector(theta(elements[k]), w)``, and ``moves_up[k]`` holds the
    moves out of element k, in the order ``chute.find_moves`` returns them,
    each paired with its target's index.
    """

    def __init__(
        self, w: Permutation, elements: tuple[PipeDream, ...], vectors: tuple, moves_up: tuple
    ):
        self.w = w
        self.elements = elements
        self.index = {d: k for k, d in enumerate(elements)}
        if len(self.index) != len(elements):
            raise ValueError("duplicate elements")
        size = len(elements)
        if len(vectors) != size:
            raise ValueError("need one Lehmer vector per element")
        if len(moves_up) != size:
            raise ValueError("need one row of moves per element")
        self.vectors = vectors
        # the column relabeling is a bijection on column-injective
        # tableaux, so the vectors are distinct exactly when the
        # crossing-row tableaux are
        if len(set(vectors)) != size:
            raise TheoremViolation(
                "crossing-row map is not injective on this fiber",
                witness={"w": str(w)},
            )
        self._moves_up: tuple = moves_up
        totals = [sum(v) for v in self.vectors]
        for k, row in enumerate(self._moves_up):
            for _mv, j in row:
                if totals[j] <= totals[k]:
                    raise TheoremViolation(
                        "a move failed to raise the Lehmer total",
                        witness={"from": elements[k].to_json(), "to": elements[j].to_json()},
                    )
        # bit r of every mask is the element of Lehmer-total rank r, so a
        # mask's high bits are its high elements in a linear extension
        order = sorted(range(size), key=lambda k: (totals[k], k))
        rank = [0] * size
        for r, k in enumerate(order):
            rank[k] = r
        self._order = tuple(order)
        self._rank = tuple(rank)
        up = [0] * size
        for k in reversed(order):
            m = 0
            for _mv, j in self._moves_up[k]:
                m |= (1 << rank[j]) | up[j]
            up[k] = m
        down = [0] * size
        for k in order:
            bit = 1 << rank[k]
            for _mv, j in self._moves_up[k]:
                down[j] |= bit | down[k]
        self._up = tuple(up)
        self._down = tuple(down)
        covers_up = []
        covers_down = [[] for _ in range(size)]
        for k, moves in enumerate(self._moves_up):
            row = tuple((mv, j) for (mv, j) in moves if up[k] & down[j] == 0)
            # a row that drops no move is stored once, as the move row
            covers_up.append(moves if len(row) == len(moves) else row)
            for _mv, j in row:
                covers_down[j].append(k)
        self._covers_up = tuple(covers_up)
        self._covers_down = tuple(tuple(sorted(c)) for c in covers_down)
        self._full = (1 << size) - 1
        # verify's fork tables: the join of each up-fork and the meet of
        # each down-fork, built on first use
        self._up_fork_bounds = None
        self._down_fork_bounds = None

    # -- basic lookups ------------------------------------------------------

    @cached_property
    def thetas(self) -> tuple[InversionsTableau, ...]:
        """Each element's crossing-row tableau, built on first use; the
        build and the checks read only ``vectors``."""
        return tuple(theta(d) for d in self.elements)

    @cached_property
    def theta_index(self) -> dict[InversionsTableau, int]:
        return {t: k for k, t in enumerate(self.thetas)}

    @property
    def size(self) -> int:
        return len(self.elements)

    def idx(self, p: PipeDream) -> int:
        try:
            return self.index[p]
        except KeyError:
            raise ValueError("dream is not an element of this poset") from None

    def moves_from(self, p: PipeDream) -> tuple:
        """Applicable moves with their targets, in rectangle order."""
        return tuple((mv, self.elements[j]) for mv, j in self._moves_up[self.idx(p)])

    def covers_up_idx(self, a: int) -> tuple:
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
        sources = [k for k in range(self.size) if not self._down[k]]
        if len(sources) != 1:
            raise TheoremViolation(
                f"{len(sources)} move-minimal elements",
                witness={"sources": [self.elements[k].to_json() for k in sources]},
            )
        return self.elements[sources[0]]

    def max_element(self) -> PipeDream:
        """The unique sink, which is the maximum by the dual argument."""
        sinks = [k for k in range(self.size) if not self._moves_up[k]]
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


def classify_polygon(iv: Interval) -> PolygonType:
    """Decide whether the interval consists of exactly two maximal chains
    meeting only at the endpoints, and name it by its cardinality.

    Let I = [a, b] have n >= 4 elements; I is convex, so its cover edges
    are the poset's cover edges between members.  A polygon's two chains
    give a two upper covers in I, b two lower covers, and every other
    member one of each.  Conversely, let a have two upper covers in I,
    every other member but b one, and b two lower covers.  Those are n
    edges, and every member above a has a lower cover, so each member
    strictly between a and b has exactly one.  The two cover paths up
    from a then run to b, share no member between (it would have two
    lower covers) and pass through every member (follow its lower covers
    down to a).  Polygons of 4 and 5 elements get their usual names;
    a larger one is a POLYGON, which the checkers treat as a failure.
    """
    mask = iv.mask
    size = mask.bit_count()
    if size < 4:
        return PolygonType.NOT_A_POLYGON
    poset = iv.poset
    rank, order = poset._rank, poset._order
    lower = sum((mask >> rank[j]) & 1 for j in poset.covers_down_idx(iv.top))
    if lower != 2:
        return PolygonType.NOT_A_POLYGON
    # every member but the top
    for r in _bits(mask & poset._down[iv.top]):
        k = order[r]
        upper = sum((mask >> rank[j]) & 1 for _mv, j in poset.covers_up_idx(k))
        if upper != (2 if k == iv.bottom else 1):
            return PolygonType.NOT_A_POLYGON
    if size == 4:
        return PolygonType.DIAMOND
    if size == 5:
        return PolygonType.PENTAGON
    return PolygonType.POLYGON


def fork_polygon(
    poset: ChutePoset, g: int, x: int, y: int, bound: int, up: bool
) -> PolygonType | None:
    """The shape of a fork's span read off cover rows: DIAMOND, PENTAGON,
    or None when the covers show neither and ``classify_polygon`` must
    decide.  With ``up``, (x, y) is a pair of upper covers of g with join
    ``bound``; otherwise a pair of lower covers of g with meet ``bound``.

    Take an up-fork, b its join and I = [g, b].  Every member of (g, b]
    lies above an upper cover of g that is <= b, the first step of a
    maximal chain up to it from g.  So when x and y are the only upper
    covers of g that lie <= b, I is {g} with [x, b] and [y, b], and when b
    covers x, [x, b] = {x, b}, since a cover has nothing strictly between.
    If b covers both, I = {g, x, y, b}: a diamond, x and y being distinct
    upper covers of g and so incomparable.  If b covers y alone and x has
    exactly one upper cover z <= b, which b covers, the same argument at x
    gives [x, b] = {x, z, b}, so I is the chains g < x < z < b and
    g < y < b; y is none of x, z, b, since y > x would put x strictly
    between g and its cover y.  That is a pentagon.  In both shapes the
    cover degrees inside I are the ones ``classify_polygon`` counts, so
    its verdict is the same.  Down-fork spans are dual: lower covers of g
    that are >= the meet a, and upper covers of a.
    """
    rank = poset._rank
    if up:
        inside = poset._down0(bound)
        ends = poset.covers_down_idx(bound)
    else:
        inside = poset._up0(bound)
        ends = [j for _mv, j in poset.covers_up_idx(bound)]

    def steps(k):
        # the covers of k that lead away from g and stay inside the span
        row = [j for _mv, j in poset.covers_up_idx(k)] if up else poset.covers_down_idx(k)
        return [j for j in row if (inside >> rank[j]) & 1]

    if len(steps(g)) != 2:
        return None
    x_end, y_end = x in ends, y in ends
    if x_end and y_end:
        return PolygonType.DIAMOND
    if x_end == y_end:
        return None
    z = steps(y if x_end else x)
    if len(z) == 1 and z[0] in ends:
        return PolygonType.PENTAGON
    return None


# ---------------------------------------------------------------------------
# enumeration


def _undirected_depth(up: list[list]) -> list[int]:
    """Distance from element 0 over the move edges, each taken both ways;
    ``up[j]`` lists element j's moves with their targets' ids."""
    neighbours: list[list[int]] = [[] for _ in up]
    for j, row in enumerate(up):
        for _mv, k in row:
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


def enumerate_poset(w: Permutation) -> ChutePoset:
    """Downward breadth-first search from the seed dream by inverse moves
    alone, searching each element once.

    The seed is the top of PD(w), and inverse chute moves from it reach
    every reduced pipe dream of w (Bergeron and Billey, "RC-graphs and
    Schubert polynomials", *Exp. Math.* 2 (1993)).  An inverse move from d
    to e is the move edge e -> d, so it is recorded in e's row, and each
    row is sorted by (top, left, bottom, right), the order
    ``chute.find_moves`` returns.  The canonical depth of an element is its
    undirected distance from the seed over these edges, the layer an
    undirected search by moves and inverse moves would put it in.  Each
    element is routed once: its inverse-move search and the read of its
    Lehmer vector are consecutive calls, so the second finds the routing
    in ``trace``'s one-entry cache, and the next element's replaces it.

    The seed's wiring and its having no up-move are re-checked at runtime;
    either failing means the seed construction itself is broken, so it
    aborts loudly.

    The cyclic garbage collector is off for the build and restored after
    it: the build allocates tens of thousands of long-lived tuples and
    dreams and no reference cycles, so the collections those allocations
    trigger would free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        seed = seed_dream(w)
        if trace(seed).wiring != w:
            raise RuntimeError(f"seed dream traces to {trace(seed).wiring}, wanted {w}")
        if chute.find_moves(seed):
            raise RuntimeError(f"seed dream of {w} has an up-move, so it is not the top")
        # keyed by rows, so a dream is built and validated only when it is new
        ids = {seed.rows: 0}
        dreams = [seed]
        vectors = []
        up: list[list] = [[]]
        # dreams grows while it is walked, which makes it the BFS queue
        for k, d in enumerate(dreams):
            # phi_vector reads the routing find_inverse_moves left in trace
            moves = chute.find_inverse_moves(d)
            vectors.append(phi_vector(d, w))
            for mv in moves:
                # the scan has just matched exactly the tiles that
                # chute._fits(after=True) tests, so the swap needs no check
                rows = chute._swapped(d.rows, mv, undo=True)
                j = ids.get(rows)
                if j is None:
                    j = ids[rows] = len(dreams)
                    dreams.append(PipeDream(rows))
                    up.append([])
                up[j].append((mv, k))
        depth = _undirected_depth(up)
        order = sorted(range(len(dreams)), key=lambda k: (depth[k], dreams[k].rows))
        canon = [0] * len(order)
        for pos, k in enumerate(order):
            canon[k] = pos
        for row in up:
            if len(row) > 1:
                row.sort(key=lambda e: chute.move_order(e[0]))
        moves_up = tuple(tuple((mv, canon[j]) for mv, j in up[k]) for k in order)
        return ChutePoset(
            w, tuple(dreams[k] for k in order), tuple(vectors[k] for k in order), moves_up
        )
    finally:
        if enabled:
            gc.enable()


@lru_cache(maxsize=None)
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
    return all(len(c) == len(m) for c, m in zip(poset._covers_up, poset._moves_up))


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
    for k in range(poset.size):
        for mv, j in poset.covers_up_idx(k):
            lines.append(f'  {k} -> {j} [label="({mv.pipe_lo},{mv.pipe_hi})"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
