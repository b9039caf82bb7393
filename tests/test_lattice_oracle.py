"""Rank-ordered closure bitsets against the canonical-order scans they replaced.

``ChutePoset`` keeps its closures with bit r standing for the element of
Lehmer-total rank r, reads a meet off the top bit of a common down-set
and a join off the low bit of a common up-set, and ``verify`` compares
whole masks where it used to loop over pairs.  The oracle here is the
older layout: bit k is canonical element k, a meet or join is found by
scanning every common bound for the one of extreme rank, and the
isomorphism, semidistributivity, polygon and transpose checks loop over
pairs.  The lattice, polygon and transpose oracles also keep passes
that ``verify`` leaves out because earlier loops subsume them: the join
of every up-fork replayed, a classification of the interval of every
comparable pair, and in the transpose oracle the join of the images of
every pair compared with the image of its meet, and a second test that
each last-column pair is reversed.  The anti-isomorphism that the
transpose order pass proves already gives both of the last two.  The
in-degree count of move edges is kept as the oracle's ``min_element``,
and two polygon oracles classify an interval, one by listing its maximal
chains and one by counting cover degrees, where ``_span_polygon`` walks
two chains up the cover rows.
Both routes must give the same order, bounds, intervals and covers, and
the same reports with the same witnesses, on healthy fibers and on
broken ones.

``verify`` decides ``lattice``, ``sd`` and ``transpose`` by certificates
(bounded forks, kappa, cover edges) and runs its sweeps only when one
fails.  Hand-built non-lattices and non-semidistributive lattices on real
dreams of 361542 drive each fallback and must still give the oracle's
witness; with the fallbacks made to raise, the certificates alone must
pass every fiber of S_5.
"""

import functools
import itertools
import random

import pytest

from chutelat import chute, tableaux, verify
from chutelat.errors import TheoremViolation
from chutelat.perm import Permutation
from chutelat.pipedream import PipeDream, transpose
from chutelat.poset import (
    ChutePoset,
    Interval,
    PolygonType,
    _span_polygon,
    cached_poset,
    classify_polygon,
)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class OraclePoset(ChutePoset):
    """The same elements and move edges, with closures indexed by canonical
    index and meets and joins found by scanning."""

    def __init__(self, fast: ChutePoset):
        self.__dict__.update(fast.__dict__)
        size = fast.size
        totals = [sum(v) for v in self.vectors]
        order = sorted(range(size), key=lambda k: (totals[k], k))
        rank = [0] * size
        for r, k in enumerate(order):
            rank[k] = r
        self._toporank = tuple(rank)
        # in the canonical layout rank and index coincide, which is what
        # the polygon classifiers need to read an oracle interval's mask
        self._rank = self._order = tuple(range(size))
        up = [0] * size
        for k in reversed(order):
            for _mv, j in self.moves_up_idx(k):
                up[k] |= (1 << j) | up[j]
        down = [0] * size
        for k in order:
            for _mv, j in self.moves_up_idx(k):
                down[j] |= (1 << k) | down[k]
        self._up = tuple(up)
        self._down = tuple(down)
        covers_up = []
        covers_down = [[] for _ in range(size)]
        for k in range(size):
            row = tuple(j for _mv, j in self.moves_up_idx(k) if up[k] & down[j] == 0)
            covers_up.append(row)
            for j in row:
                covers_down[j].append(k)
        self._covers_up = tuple(covers_up)
        self._covers_down = tuple(tuple(sorted(c)) for c in covers_down)

    def _down0(self, a):
        return self._down[a] | (1 << a)

    def _up0(self, a):
        return self._up[a] | (1 << a)

    def leq_idx(self, a, b):
        return a == b or bool((self._up[a] >> b) & 1)

    def min_element(self):
        indeg = [0] * self.size
        for j in self._targets:
            indeg[j] += 1
        sources = [k for k in range(self.size) if indeg[k] == 0]
        if len(sources) != 1:
            raise TheoremViolation(
                f"{len(sources)} move-minimal elements",
                witness={"sources": [self.elements[k].to_json() for k in sources]},
            )
        if self._up0(sources[0]) != (1 << self.size) - 1:
            raise TheoremViolation(
                "unique source is not a minimum",
                witness={"source": self.elements[sources[0]].to_json()},
            )
        return self.elements[sources[0]]

    def _extreme(self, common, a, b, lower):
        kind = "lower" if lower else "upper"
        if common == 0:
            raise TheoremViolation(
                f"no common {kind} bound",
                witness={"pair": [self.elements[a].to_json(), self.elements[b].to_json()]},
            )
        rank = self._toporank
        if lower:
            best = max(_bits(common), key=lambda k: rank[k])
            covered = self._down0(best)
        else:
            best = min(_bits(common), key=lambda k: rank[k])
            covered = self._up0(best)
        if common & ~covered:
            raise TheoremViolation(
                f"common {kind} bounds have no extreme element",
                witness={
                    "pair": [self.elements[a].to_json(), self.elements[b].to_json()],
                    "bounds": [self.elements[k].to_json() for k in _bits(common)],
                },
            )
        return best

    def meet_idx(self, a, b):
        return self._extreme(self._down0(a) & self._down0(b), a, b, lower=True)

    def join_idx(self, a, b):
        return self._extreme(self._up0(a) & self._up0(b), a, b, lower=False)


# -- the pairwise checks that the mask sweeps replaced --------------------


def oracle_isomorphism(poset, deadline):
    seen = {}
    for k, v in enumerate(poset.vectors):
        if v in seen:
            return verify._pair_witness(poset, seen[v], k, "equal Lehmer forms")
        seen[v] = k
    for a in range(poset.size):
        va = poset.vectors[a]
        for b in range(poset.size):
            comp = all(x <= y for x, y in zip(va, poset.vectors[b]))
            if poset.leq_idx(a, b) != comp:
                return verify._pair_witness(
                    poset, a, b, "move order and componentwise order disagree")
    return None


def _oracle_buckets(poset, meet_side):
    size = poset.size
    rank = poset._toporank
    def_bad = None
    cover_bad = None
    for fixed in range(size):
        buckets = {}
        for g in range(size):
            key = poset.meet_idx(g, fixed) if meet_side else poset.join_idx(g, fixed)
            buckets.setdefault(key, []).append(g)
        if meet_side:
            cover_keys = set(poset.covers_down_idx(fixed))
        else:
            cover_keys = set(poset.covers_up_idx(fixed))
        for key, members in buckets.items():
            if meet_side:
                ext = max(members, key=lambda g: rank[g])
                ok = all(poset.leq_idx(g, ext) for g in members)
            else:
                ext = min(members, key=lambda g: rank[g])
                ok = all(poset.leq_idx(ext, g) for g in members)
            if not ok:
                if def_bad is None:
                    def_bad = (key, fixed)
                if cover_bad is None and key in cover_keys:
                    cover_bad = (key, fixed)
    side = "meet" if meet_side else "join"
    if def_bad is not None and cover_bad is None:
        return verify._pair_witness(
            poset, *def_bad, f"{side}-side covers-only criterion disagrees with definition")
    if def_bad is not None:
        return verify._pair_witness(
            poset, *def_bad, f"{side}-semidistributivity fails on this bucket")
    return None


def oracle_semidistributive(poset, deadline):
    bad = _oracle_buckets(poset, meet_side=True)
    if bad is not None:
        return bad
    return _oracle_buckets(poset, meet_side=False)


def oracle_lattice(poset, deadline):
    poset.min_element()
    poset.max_element()
    for a in range(poset.size):
        for b in range(a, poset.size):
            poset.meet_idx(a, b)
            poset.join_idx(a, b)
    # the bounded-fork replay, which the all-pairs search above subsumes
    for g0 in range(poset.size):
        ups = list(poset.covers_up_idx(g0))
        for x, y in itertools.combinations(ups, 2):
            poset.join_idx(x, y)
    return None


def oracle_classify_polygon(iv: Interval) -> PolygonType:
    """Decide whether the interval consists of exactly two maximal chains
    meeting only at the endpoints, and name it by its cardinality.

    Within an interval every saturated upward chain reaches the top, so
    maximal chains are exactly the cover paths from bottom to top and the
    count can be capped at three.  Intervals with a third chain (equally:
    a chord in the cycle picture) are not polygons; two diamonds glued
    along an edge is the smallest shape that distinction matters for.
    Cardinality 4 and 5 polygons get their usual names; anything larger
    reports POLYGON, which the structure theorems say never happens (the
    checkers treat that as a failure, not this function).
    """
    if iv.size < 4:
        return PolygonType.NOT_A_POLYGON
    poset = iv.poset
    rank = poset._rank
    chains = []
    stack = [(iv.bottom, (iv.bottom,))]
    while stack:
        v, path = stack.pop()
        if v == iv.top:
            chains.append(path)
            if len(chains) > 2:
                return PolygonType.NOT_A_POLYGON
            continue
        for j in poset.covers_up_idx(v):
            if (iv.mask >> rank[j]) & 1:
                stack.append((j, path + (j,)))
    if len(chains) != 2:
        return PolygonType.NOT_A_POLYGON
    if set(chains[0]) & set(chains[1]) != {iv.bottom, iv.top}:
        return PolygonType.NOT_A_POLYGON
    # an element off both chains would start a third one
    off_chains = set(iv.members) - set(chains[0]) - set(chains[1])
    if off_chains:
        raise TheoremViolation(
            "interval element lies on neither maximal chain",
            witness={"bottom": iv.bottom, "top": iv.top,
                     "chains": [list(c) for c in chains], "off_chains": sorted(off_chains)},
        )
    if iv.size == 4:
        return PolygonType.DIAMOND
    if iv.size == 5:
        return PolygonType.PENTAGON
    return PolygonType.POLYGON


def oracle_cover_degree_polygon(iv: Interval) -> PolygonType:
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
        upper = sum((mask >> rank[j]) & 1 for j in poset.covers_up_idx(k))
        if upper != (2 if k == iv.bottom else 1):
            return PolygonType.NOT_A_POLYGON
    if size == 4:
        return PolygonType.DIAMOND
    if size == 5:
        return PolygonType.PENTAGON
    return PolygonType.POLYGON


def oracle_polygonal(poset, deadline):
    def verdict_witness(a, b, verdict):
        return {
            "note": "interval is not a diamond or pentagon",
            "bottom": poset.elements[a].to_json(),
            "top": poset.elements[b].to_json(),
            "verdict": verdict.value,
        }

    fine = (PolygonType.DIAMOND, PolygonType.PENTAGON)
    for g0 in range(poset.size):
        ups = list(poset.covers_up_idx(g0))
        for x, y in itertools.combinations(ups, 2):
            top = poset.join_idx(x, y)
            verdict = oracle_classify_polygon(poset.interval_idx(g0, top))
            if verdict not in fine:
                return verdict_witness(g0, top, verdict)
        for x, y in itertools.combinations(poset.covers_down_idx(g0), 2):
            bot = poset.meet_idx(x, y)
            verdict = oracle_classify_polygon(poset.interval_idx(bot, g0))
            if verdict not in fine:
                return verdict_witness(bot, g0, verdict)
    # every comparable pair, which the fork spans above subsume
    for a in range(poset.size):
        for b in range(poset.size):
            if (poset._up[a] >> b) & 1:
                verdict = oracle_classify_polygon(poset.interval_idx(a, b))
                if verdict is PolygonType.POLYGON:
                    return verdict_witness(a, b, verdict)
    return None


def oracle_transpose(poset, deadline):
    w = poset.w
    other = verify.cached_poset(w.inverse())
    if other.size != poset.size:
        return {"note": "fibers of w and its inverse differ in size",
                "sizes": [poset.size, other.size]}
    image = []
    for d in poset.elements:
        td = transpose(d)
        if td not in other.index:
            return {"note": "transpose left the fiber", "dream": d.to_json()}
        image.append(other.index[td])
    size = poset.size
    for a in range(size):
        for b in range(size):
            if poset.leq_idx(a, b) != other.leq_idx(image[b], image[a]):
                return verify._pair_witness(poset, a, b, "transpose order not reversed")
    for a in range(size):
        for b in range(a, size):
            m = poset.meet_idx(a, b)
            if other.join_idx(image[a], image[b]) != image[m]:
                return verify._pair_witness(poset, a, b, "transpose of meet is not the join")
    n = w.n
    row0 = w.inverse()(n)
    last_col = {k for k, box in enumerate(tableaux._support(w)) if box[1] == n}
    bad_row = {k for k, box in enumerate(tableaux._support(other.w)) if box[0] == row0}
    for a in range(size):
        va = poset.vectors[a]
        for b in range(size):
            if not poset.leq_idx(a, b):
                continue
            vb = poset.vectors[b]
            if not {k for k in range(len(va)) if va[k] != vb[k]} <= last_col:
                continue
            ta, tb = image[a], image[b]
            if not other.leq_idx(tb, ta):
                return verify._pair_witness(poset, a, b, "transposed pair not reversed")
            wa = other.vectors[ta]
            wb = other.vectors[tb]
            if not {k for k in range(len(wa)) if wa[k] != wb[k]} <= bad_row:
                return verify._pair_witness(
                    poset, a, b, "transposed pair differs outside the forced row")
    return None


ORACLE_CHECKS = {
    "isomorphism": oracle_isomorphism,
    "lattice": oracle_lattice,
    "sd": oracle_semidistributive,
    "polygonal": oracle_polygonal,
    "transpose": oracle_transpose,
}


# -- running both routes --------------------------------------------------


_oracles: dict = {}


def oracle_of(fast: ChutePoset) -> OraclePoset:
    # posets hash by identity, so each fast poset gets one oracle twin
    if fast not in _oracles:
        _oracles[fast] = OraclePoset(fast)
    return _oracles[fast]


def reports(monkeypatch, w, posets=None, names=None):
    """The ms-stripped verify report of w on the fast code and on the
    oracle code, of the checks ``names`` (all by default).  ``posets``
    overrides the fiber of any permutation, so a hand-made poset can stand
    in for the enumerated one."""
    posets = posets or {}

    def fast_fiber(v):
        return posets.get(v) or cached_poset(v)

    out = []
    for oracle in (False, True):
        with monkeypatch.context() as m:
            if oracle:
                m.setattr(verify, "cached_poset", lambda v: oracle_of(fast_fiber(v)))
                for name, fn in ORACLE_CHECKS.items():
                    m.setitem(verify._CHECKERS, name, fn)
            else:
                m.setattr(verify, "cached_poset", fast_fiber)
            rep = verify.run_checks(w, names).to_json()
        for c in rep["checks"]:
            del c["ms"]
        out.append(rep)
    return out


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except TheoremViolation as exc:
        return ("violation", str(exc), exc.witness)


def assert_queries_agree(fast, oracle):
    assert fast._covers_up == oracle._covers_up
    assert fast._covers_down == oracle._covers_down
    assert outcome(fast.min_element) == outcome(oracle.min_element)
    assert outcome(fast.max_element) == outcome(oracle.max_element)
    for a in range(fast.size):
        for b in range(fast.size):
            leq = fast.leq_idx(a, b)
            assert leq == oracle.leq_idx(a, b), (a, b)
            if leq:
                assert fast.interval_idx(a, b).members == oracle.interval_idx(a, b).members
        # both routes AND the two bound sets, so (b, a) only swaps the pair
        # in a witness
        for b in range(a, fast.size):
            assert outcome(fast.meet_idx, a, b) == outcome(oracle.meet_idx, a, b), (a, b)
            assert outcome(fast.join_idx, a, b) == outcome(oracle.join_idx, a, b), (a, b)


def sampled_n7(count=4, seed=7, min_size=20):
    """Seeded random permutations of 7 whose fibers have at least
    ``min_size`` elements; most random words of S_7 have fibers of one to
    ten elements, which would test little."""
    return list(_draw_n7(count, seed, min_size))


# the draw builds the fiber of every word it tries, more than the poset
# cache keeps, so each draw is made once per session
@functools.lru_cache(maxsize=None)
def _draw_n7(count, seed, min_size):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        w = Permutation(tuple(rng.sample(range(1, 8), 7)))
        if w not in out and cached_poset(w).size >= min_size:
            out.append(w)
    return tuple(out)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_rank_bitsets_match_oracle_on_sn(monkeypatch, n):
    for word in itertools.permutations(range(1, n + 1)):
        w = Permutation(word)
        fast = cached_poset(w)
        assert_queries_agree(fast, oracle_of(fast))
        got, want = reports(monkeypatch, w)
        assert got == want, w


def test_rank_bitsets_match_oracle_on_sampled_n7(monkeypatch):
    for w in sampled_n7():
        fast = cached_poset(w)
        assert_queries_agree(fast, oracle_of(fast))
        got, want = reports(monkeypatch, w)
        assert got == want, w


class PairRowStore:
    """The move and cover rows as ``ChutePoset`` stored them before its
    CSR rows: one row of (move, target) pairs per element, and the rank
    order, strict down-sets and cover rows of the one eager pass that
    ``__init__`` ran, each cover row being its pair row less the moves
    that skip an element."""

    def __init__(self, vectors, moves_up):
        size = len(moves_up)
        totals = [sum(v) for v in vectors]
        order = sorted(range(size), key=lambda k: (totals[k], k))
        rank = [0] * size
        for r, k in enumerate(order):
            rank[k] = r
        down = [0] * size
        ends = [0] * size
        covers = list(moves_up)
        for r, k in enumerate(order):
            below, bits = down[k], ends[k]
            for s in _bits(below & bits):
                c = order[s]
                covers[c] = tuple(e for e in covers[c] if e[1] != k)
            down[k] = m = below | bits
            for _mv, j in moves_up[k]:
                down[j] |= m
                ends[j] |= 1 << r
        self._moves_up = tuple(moves_up)
        self._order, self._rank = tuple(order), tuple(rank)
        self._down, self._covers_up = tuple(down), tuple(covers)

    def up(self):
        """The strict up-sets in rank layout, by the pass over move rows
        that ``ChutePoset`` ran before it read them off the cover rows."""
        rank, up = self._rank, [0] * len(self._order)
        for k in reversed(self._order):
            m = 0
            for _mv, j in self._moves_up[k]:
                m |= (1 << rank[j]) | up[j]
            up[k] = m
        return tuple(up)


def found_pair_rows(poset):
    """Each element's moves by ``find_moves``, each with the index of the
    dream ``apply`` takes it to: the rows the build stored as pairs."""
    index = {d: k for k, d in enumerate(poset.elements)}
    return tuple(
        tuple((mv, index[chute.apply(d, mv)]) for mv in chute.find_moves(d))
        for d in poset.elements
    )


def assert_covers_and_closures_agree(fast, pair_rows):
    """The CSR rows against ``pair_rows``; the rank order, down-sets and
    cover rows against ``PairRowStore``'s eager pass and the oracle's
    ``up[k] & down[j]`` rule; the up-sets against the pass over move rows.
    Returns the number of non-cover moves."""
    old = PairRowStore(fast.vectors, pair_rows)
    assert tuple(fast.moves_up_idx(k) for k in range(fast.size)) == old._moves_up
    assert (fast._order, fast._rank, fast._down) == (old._order, old._rank, old._down)
    assert fast._covers_up == tuple(tuple(j for _mv, j in row) for row in old._covers_up)
    oracle = OraclePoset(fast)
    assert fast._covers_up == oracle._covers_up
    assert fast._covers_down == oracle._covers_down
    assert fast._up == old.up()
    return len(fast._targets) - sum(map(len, fast._covers_up))


def test_cover_rows_and_closures_match_the_eager_rule():
    words = [w for n in (4, 5, 6) for w in itertools.permutations(range(1, n + 1))]
    perms = [Permutation(w) for w in words] + sampled_n7()
    perms += [Permutation.parse("1327654"), Permutation.parse("12438765")]
    for w in perms:
        fast = cached_poset(w)
        assert assert_covers_and_closures_agree(fast, found_pair_rows(fast)) == 0, w


def test_cover_rows_and_closures_match_the_eager_rule_on_random_move_graphs():
    # random acyclic move graphs on real dreams of 361542, in a shuffled
    # canonical order, each move raising the Lehmer total; most hold
    # moves that skip an element, which the one down-set pass must drop
    real = _real_361542()
    skipping = 0
    for seed in range(40):
        rng = random.Random(seed)
        picks = rng.sample(range(real.size), rng.randint(2, real.size))
        totals = [sum(real.vectors[k]) for k in picks]
        targets = [
            [j for j, t in enumerate(totals) if t > s and rng.random() < 0.35] for s in totals
        ]
        pair_rows = tuple(tuple((None, j) for j in row) for row in targets)
        skipped = assert_covers_and_closures_agree(hand_built_361542(picks, targets), pair_rows)
        skipping += skipped > 0
    assert skipping >= 20


def _drop_edge(poset, k, i):
    moves = [poset.moves_up_idx(k) for k in range(poset.size)]
    moves[k] = moves[k][:i] + moves[k][i + 1:]
    return ChutePoset(poset.w, poset.elements, poset.vectors, tuple(moves))


def test_dropped_move_edge_fails_alike_on_both_routes(monkeypatch):
    # every move edge of two fibers is dropped in turn.  The broken order
    # must fail isomorphism on both routes with the same pair, and every
    # meet and join that stops existing must raise the same violation with
    # the same witness.  In 1432 a dropped edge leaves two sources or two
    # sinks; in 124635 some drops keep both unique, so the lattice check
    # itself fails on a meet or join
    meet_join_failures = 0
    for word in ("1432", "124635"):
        w = Permutation.parse(word)
        real = cached_poset(w)
        for k in range(real.size):
            for i in range(len(real.moves_up_idx(k))):
                broken = _drop_edge(real, k, i)
                got, want = reports(monkeypatch, w, {w: broken})
                assert got == want, (word, k, i)
                assert got["checks"][0]["status"] == "fail"
                assert_queries_agree(broken, oracle_of(broken))
                lattice = got["checks"][1]["witness"] or {}
                if "bound" in lattice.get("message", ""):
                    meet_join_failures += 1
    assert meet_join_failures > 0


def _real_361542():
    return cached_poset(Permutation.parse("361542"))


def _picks(*totals):
    """Canonical indices of distinct real dreams of 361542, one of each
    given Lehmer total, the earliest unused dream of that total first."""
    real = _real_361542()
    by_total = {}
    for k, v in enumerate(real.vectors):
        by_total.setdefault(sum(v), []).append(k)
    used = {}
    out = []
    for t in totals:
        out.append(by_total[t][used.get(t, 0)])
        used[t] = used.get(t, 0) + 1
    return out


def _mirror(k):
    """The canonical index of the transpose of dream k of 361542, which is
    an involution, so its fiber is closed under transposition."""
    real = _real_361542()
    return real.index[transpose(real.elements[k])]


def hand_built_361542(picks, targets):
    """The real dreams ``picks`` of 361542, element i moving to the
    elements ``targets[i]``.  The checks read only the targets of move
    edges, not their moves."""
    real = _real_361542()
    moves_up = tuple(tuple((None, j) for j in row) for row in targets)
    return ChutePoset(
        real.w,
        tuple(real.elements[k] for k in picks),
        tuple(real.vectors[k] for k in picks),
        moves_up,
    )


def hexagon_361542():
    """Six real dreams of 361542, one of Lehmer total 0, two of total 1,
    two of total 2 and one of total 3, ordered by two three-step chains
    from the first to the last: a lattice that is one hexagon."""
    return hand_built_361542(_picks(0, 1, 1, 2, 2, 3), ((1, 2), (3,), (4,), (5,), (5,), ()))


def m3_361542():
    """M3: a bottom of Lehmer total 1, three atoms of total 2 and a top of
    total 3.  A lattice, neither meet- nor join-semidistributive."""
    return hand_built_361542(_picks(1, 2, 2, 2, 3), ((1, 2, 3), (4,), (4,), (4,), ()))


def join_only_361542():
    """A seven-element lattice: a bottom 0 of Lehmer total 1, atoms 1 and
    2, then 3 above 2, 4 above 1 and 5 above both atoms, and a top 6.  It
    is meet- but not join-semidistributive: 3 v 5 = 4 v 5 = 6, yet
    (3 ^ 4) v 5 = 5, and the meet-irreducible 5 has no kappa."""
    return hand_built_361542(
        _picks(1, 2, 2, 3, 3, 3, 4),
        ((1, 2), (4, 5), (3, 5), (6,), (6,), (6,), ()),
    )


def bowtie_361542():
    """A bounded bowtie: a bottom of Lehmer total 1, two atoms of total 2,
    the atoms' transposes as two coatoms of total 4, and the bottom's
    transpose as the top.  Each atom lies below both coatoms, so the
    coatoms have no meet and the atoms no join.  Transposition reverses
    this order, so the transpose check gets past its order test."""
    bottom = _picks(1)[0]
    atoms = [k for k in _picks(2, 2, 2, 2) if sum(_real_361542().vectors[_mirror(k)]) == 4][:2]
    return hand_built_361542(
        [bottom, *atoms, *map(_mirror, atoms), _mirror(bottom)],
        ((1, 2), (3, 4), (3, 4), (5,), (5,), ()),
    )


def hexagon_and_open_fork_361542():
    """A hexagon 0 < 1 < 4 < 6, 0 < 2 < 5 < 6 with a third atom 3 that
    lies below the two maximal elements 7 and 8, as 1 does, so 1 v 3 does
    not exist.  On dreams of Lehmer totals 1, 2, 2, 2, 3, 3, 4, 3, 3."""
    return hand_built_361542(
        _picks(1, 2, 2, 2, 3, 3, 4, 3, 3),
        ((1, 2, 3), (4, 7, 8), (5,), (7, 8), (6,), (6,), (), (), ()),
    )


def two_chains_361542():
    """Two disjoint two-element chains, each from a dream of Lehmer total
    1 to the transpose of the other's: unbounded, with no fork at all, and
    reversed by transposition."""
    x, y = _picks(1, 1)
    return hand_built_361542([x, y, _mirror(y), _mirror(x)], ((2,), (3,), (), ()))


def test_hexagon_fails_polygonal_on_both_routes(monkeypatch):
    # the span of the up-fork at the bottom is the whole hexagon, so both
    # routes report it from their fork loops
    hexagon = hexagon_361542()
    witness = {
        "note": "interval is not a diamond or pentagon",
        "bottom": hexagon.elements[0].to_json(),
        "top": hexagon.elements[5].to_json(),
        "verdict": "polygon",
    }
    assert verify.check_polygonal(hexagon, verify.Deadline(None)) == witness
    got, want = reports(monkeypatch, hexagon.w, {hexagon.w: hexagon})
    assert got == want
    assert got["checks"][1]["status"] == "pass"
    assert got["checks"][3] == {"name": "polygonal", "status": "fail", "witness": witness}


def test_polygonal_classifies_each_span_before_the_next_bound(monkeypatch):
    # the bottom's first up-fork spans the hexagon and its second, (1, 3),
    # has no join: the hexagon is reported only if each span is classified
    # before the next fork's join is computed
    poset = hexagon_and_open_fork_361542()
    with pytest.raises(TheoremViolation):
        poset.join_idx(1, 3)
    witness = {
        "note": "interval is not a diamond or pentagon",
        "bottom": poset.elements[0].to_json(),
        "top": poset.elements[6].to_json(),
        "verdict": "polygon",
    }
    assert verify.check_polygonal(poset, verify.Deadline(None)) == witness
    got, want = reports(monkeypatch, poset.w, {poset.w: poset}, ("polygonal",))
    assert got == want
    assert got["checks"] == [{"name": "polygonal", "status": "fail", "witness": witness}]


def tailed_diamond_361542():
    """A diamond 0 < 1, 2 < 3 with a tail 3 < 4 above it, on dreams of
    Lehmer totals 0, 1, 1, 2 and 3.  In [0, 4] the upper covers of every
    member but the top are those of a pentagon; the top has one lower
    cover."""
    return hand_built_361542(_picks(0, 1, 1, 2, 3), ((1, 2), (3,), (3,), (4,), ()))


def split_pentagon_361542():
    """A pentagon 0 < 1 < 4 < 5, 0 < 3 < 5 whose long side has a second
    first step 0 < 2 < 4, on dreams of Lehmer totals 1, 2, 2, 2, 3 and 4.
    Every member of [0, 5] but the bottom has the covers of a polygon."""
    return hand_built_361542(
        _picks(1, 2, 2, 2, 3, 4), ((1, 2, 3), (4,), (4,), (5,), (5,), ()))


@pytest.mark.parametrize("build, top", [(m3_361542, 4), (split_pentagon_361542, 5)])
def test_three_chains_fail_polygonal_on_both_routes(monkeypatch, build, top):
    # three maximal chains from the bottom: M3 has five elements, so a size
    # test alone would call it a pentagon, and only the bottom's three
    # upper covers tell the split pentagon from a hexagon
    poset = build()
    iv = poset.interval_idx(0, top)
    assert iv.size == poset.size
    assert classify_polygon(iv) is oracle_classify_polygon(iv) is PolygonType.NOT_A_POLYGON
    witness = {
        "note": "interval is not a diamond or pentagon",
        "bottom": poset.elements[0].to_json(),
        "top": poset.elements[top].to_json(),
        "verdict": "not_a_polygon",
    }
    got, want = reports(monkeypatch, poset.w, {poset.w: poset}, ("polygonal",))
    assert got == want
    assert got["checks"] == [{"name": "polygonal", "status": "fail", "witness": witness}]


def test_tailed_diamond_is_not_a_pentagon(monkeypatch):
    # only the top's lower covers tell [0, 4] from a pentagon; its fork
    # spans are diamonds, so polygonal passes on both routes
    tailed = tailed_diamond_361542()
    iv = tailed.interval_idx(0, 4)
    assert iv.size == 5
    assert [len(tailed.covers_up_idx(k)) for k in range(4)] == [2, 1, 1, 1]
    assert tailed.covers_down_idx(4) == (3,)
    assert classify_polygon(iv) is oracle_classify_polygon(iv) is PolygonType.NOT_A_POLYGON
    got, want = reports(monkeypatch, tailed.w, {tailed.w: tailed}, ("polygonal",))
    assert got == want
    assert got["checks"][0]["status"] == "pass"


def skewed_hexagon_361542():
    """A hexagon whose sides take two steps and four, 0 < 2 < 5 and
    0 < 1 < 3 < 4 < 5, on dreams of Lehmer totals 0, 1, 1, 2, 3 and 4.
    The top covers 2 and not 1, and 1 has one upper cover, 3, which the
    top does not cover."""
    return hand_built_361542(_picks(0, 1, 1, 2, 3, 4), ((1, 2), (3,), (5,), (4,), (5,), ()))


def forked_pentagon_361542():
    """The shape of a pentagon 0 < 2 < 5, 0 < 1 < z < 5 with two middles
    z = 3 and z = 4 on its long side, on dreams of Lehmer totals 1, 2, 2,
    3, 3 and 4: the top covers 2 and not 1, and 1 has two upper covers
    below the top."""
    return hand_built_361542(
        _picks(1, 2, 2, 3, 3, 4), ((1, 2), (3, 4), (5,), (5,), (5,), ()))


def hand_built_shapes():
    return [
        hexagon_361542(), m3_361542(), join_only_361542(), bowtie_361542(),
        hexagon_and_open_fork_361542(), two_chains_361542(), tailed_diamond_361542(),
        split_pentagon_361542(), skewed_hexagon_361542(), forked_pentagon_361542(),
    ]


def oracle_fork_failure(poset, up):
    """The fork walk that the fork table replaced: each fork's bound in
    turn, the first one missing returned."""
    bound = poset.join_idx if up else poset.meet_idx
    for g in range(poset.size):
        for a, b in verify._forks(poset, g, up):
            try:
                bound(a, b)
            except TheoremViolation:
                return a, b
    return None


def assert_fork_tables_match_bounds(poset):
    """Each fork table entry is its fork's join or meet, or -1 exactly
    when the bound raises; the table is kept on the poset, and the first
    failing fork is the one the old walk found."""
    deadline = verify.Deadline(None)
    for up in (True, False):
        bound = poset.join_idx if up else poset.meet_idx
        forks = [f for g in range(poset.size) for f in verify._forks(poset, g, up)]
        table = verify._fork_bounds(poset, deadline, up)
        assert len(table) == len(forks)
        for (a, b), got in zip(forks, table):
            want = outcome(bound, a, b)
            assert got == (want[1] if want[0] == "ok" else -1), (str(poset.w), up, a, b)
        assert verify._fork_bounds(poset, deadline, up) is table
        assert verify._fork_failure(poset, deadline, up) == oracle_fork_failure(poset, up)


def test_fork_tables_match_the_bounds():
    for n in (4, 5, 6):
        for word in itertools.permutations(range(1, n + 1)):
            assert_fork_tables_match_bounds(cached_poset(Permutation(word)))
    for w in sampled_n7():
        assert_fork_tables_match_bounds(cached_poset(w))
    shapes = hand_built_shapes()
    for poset in shapes:
        assert_fork_tables_match_bounds(poset)
    # the bowtie misses a join and a meet, the open fork a join
    missing = [(-1 in p._up_fork_bounds, -1 in p._down_fork_bounds) for p in shapes[3:5]]
    assert missing == [(True, True), (True, False)]


class _Polls(verify.Deadline):
    """A budget that runs out at poll number ``polls + 1``."""

    def __init__(self, polls):
        super().__init__(None)
        self.polls = polls

    def poll(self):
        self.polls -= 1
        if self.polls < 0:
            raise verify._BudgetExceeded


def test_fork_table_polls_once_per_element_and_keeps_no_partial_table():
    poset = hexagon_361542()
    for up, attr in ((True, "_up_fork_bounds"), (False, "_down_fork_bounds")):
        with pytest.raises(verify._BudgetExceeded):
            verify._fork_bounds(poset, _Polls(poset.size - 1), up)
        assert getattr(poset, attr) is None
        table = verify._fork_bounds(poset, _Polls(poset.size), up)
        assert getattr(poset, attr) is table and len(table) == 1


def fork_verdicts(poset):
    """``_span_polygon``'s verdict on the span of every fork with a bound,
    on both sides, which must be both oracles'; the set of verdicts
    seen."""
    seen = set()
    for g in range(poset.size):
        for up in (True, False):
            bound = poset.join_idx if up else poset.meet_idx
            for x, y in verify._forks(poset, g, up):
                found = outcome(bound, x, y)
                if found[0] != "ok":
                    continue
                span = (g, found[1]) if up else (found[1], g)
                seen |= classify_both(poset, [span])
    return seen


@pytest.mark.parametrize("n", [4, 5, 6])
def test_cover_rows_name_fork_spans_like_classify_polygon_on_sn(n):
    # every fork span of a real fiber is a diamond or a pentagon, and the
    # cover rows name each one
    seen = set()
    for word in itertools.permutations(range(1, n + 1)):
        seen |= fork_verdicts(cached_poset(Permutation(word)))
    assert seen <= {PolygonType.DIAMOND, PolygonType.PENTAGON}
    assert PolygonType.PENTAGON in seen


def test_cover_rows_name_fork_spans_like_classify_polygon_on_samples_and_shapes():
    seen = set()
    for w in sampled_n7():
        seen |= fork_verdicts(cached_poset(w))
    assert seen == {PolygonType.DIAMOND, PolygonType.PENTAGON}
    # shapes that are neither: each has a span named neither a diamond nor
    # a pentagon, and every span's verdict must be the oracles'
    for poset in hand_built_shapes():
        fork_verdicts(poset)
    for build in (hexagon_361542, m3_361542, split_pentagon_361542,
                  skewed_hexagon_361542, forked_pentagon_361542):
        seen = fork_verdicts(build())
        assert seen - {PolygonType.DIAMOND, PolygonType.PENTAGON}, build.__name__


def test_transpose_check_builds_no_dream(monkeypatch):
    # images are looked up by cross mask; a hand-built fiber that holds
    # only some of its own transposes still reports the first element
    # whose transpose left it, as the oracle's dream lookup does
    built = []
    validate = PipeDream.__post_init__

    def counting(self):
        built.append(self.rows)
        validate(self)

    w = Permutation.parse("1327654")
    cached_poset(w)
    with monkeypatch.context() as m:
        m.setattr(PipeDream, "__post_init__", counting)
        assert verify.check_transpose_antiisomorphism(cached_poset(w), verify.Deadline(None)) is None
    assert built == []
    hexagon = hexagon_361542()
    got, want = reports(monkeypatch, hexagon.w, {hexagon.w: hexagon}, ("transpose",))
    assert got == want
    assert got["checks"][0]["witness"]["note"] == "transpose left the fiber"


def row_transpose_image(poset, other):
    """The lookup that ``_transpose_image`` replaced: each transpose found
    in ``other`` by its rows, -1 where it is not there."""
    from chutelat.pipedream import transpose_rows

    position = {d.rows: k for k, d in enumerate(other.elements)}
    return [position.get(transpose_rows(d.rows), -1) for d in poset.elements]


def test_transpose_image_by_masks_matches_rows():
    for n in range(1, 7):
        for word in itertools.permutations(range(1, n + 1)):
            w = Permutation(word)
            poset, other = cached_poset(w), cached_poset(w.inverse())
            image = verify._transpose_image(poset, other)
            assert image == row_transpose_image(poset, other), w
            assert sorted(image) == list(range(poset.size)), w
    # the hexagon holds only some of its own transposes
    hexagon = hexagon_361542()
    image = verify._transpose_image(hexagon, hexagon)
    assert image == row_transpose_image(hexagon, hexagon) and -1 in image


def _involutions(n):
    for word in itertools.permutations(range(1, n + 1)):
        w = Permutation(word)
        if w == w.inverse():
            yield w


def test_involution_transpose_reads_its_own_fiber(monkeypatch):
    # w^-1 = w, so the check decides on the fiber it holds: it routes,
    # scans and certifies no transpose, and builds no fiber
    from chutelat import poset as poset_module

    calls = []

    def refuse(name):
        return lambda *args: calls.append(name)

    ws = [w for n in (4, 5, 6, 7) for w in _involutions(n)]
    assert len(ws) == 10 + 26 + 76 + 232
    ws += [Permutation.parse("1327654"), Permutation.parse("13287654")]
    for w in ws:
        poset = cached_poset(w)
        with monkeypatch.context() as m:
            for name in ("_route_read", "inverse_move_scan", "_inverse_move_certificate"):
                m.setattr(verify, name, refuse(name))
            m.setattr(poset_module, "enumerate_poset", refuse("enumerate_poset"))
            assert verify.check_transpose_antiisomorphism(poset, verify.Deadline(None)) is None, w
        assert calls == [], w


def test_non_involution_transpose_runs_the_certificate(monkeypatch):
    w = Permutation.parse("13524")
    poset = cached_poset(w)
    assert w != w.inverse()
    calls = []
    certify = verify._inverse_move_certificate
    monkeypatch.setattr(
        verify, "_inverse_move_certificate", lambda *args: calls.append(0) or certify(*args))
    assert verify.check_transpose_antiisomorphism(poset, verify.Deadline(None)) is None
    assert calls == [0]


def _transposes_of(poset):
    """``_inverse_fiber_check``'s view of the transposes: their indices
    in the built fiber of w^-1, and their Lehmer vectors there."""
    other = cached_poset(poset.w.inverse())
    image = verify._transpose_image(poset, other)
    return image, [other.vectors[t] for t in image]


def test_transpose_routes_agree_on_sn_and_samples():
    # on every fiber the certificate passes with the inverse fiber's own
    # vectors, and the whole check gives what the inverse-fiber route gives
    ws = [Permutation(word) for n in (4, 5, 6) for word in itertools.permutations(range(1, n + 1))]
    ws += sampled_n7() + [Permutation.parse("13287645"), Permutation.parse("14328756")]
    for w in ws:
        poset = cached_poset(w)
        image, vectors = _transposes_of(poset)
        assert sorted(image) == list(range(poset.size)), w
        assert verify._inverse_move_certificate(poset, verify.Deadline(None)) == (vectors, None), w
        assert verify.check_transpose_antiisomorphism(poset, verify.Deadline(None)) is None, w
        assert verify._inverse_fiber_check(poset, verify.Deadline(None)) is None, w
    s6 = ws[144:864]
    assert sum(w != w.inverse() for w in s6) == 644 and len(s6) == 720
    assert [cached_poset(w).size for w in ws[-2:]] == [3850, 1575]


def test_transpose_mask_reflects_rows():
    # on every dream of S_1..S_6, and on random masks of n up to 12, where
    # the first rows span two table chunks
    from chutelat.pipedream import _cross_mask, _mask_rows, _transpose_mask, transpose_rows

    for n in range(1, 7):
        for word in itertools.permutations(range(1, n + 1)):
            for d in cached_poset(Permutation(word)).elements:
                want = _cross_mask(transpose_rows(d.rows))[0]
                assert _transpose_mask(n, _cross_mask(d.rows)[0]) == want, d.rows
    rng = random.Random(3)
    for n in range(7, 13):
        for _ in range(50):
            mask = rng.getrandbits(n * (n - 1) // 2)
            want = _cross_mask(transpose_rows(_mask_rows(n, mask)))[0]
            assert _transpose_mask(n, mask) == want
            assert _transpose_mask(n, want) == mask


def test_transpose_certificate_polls_once_per_image():
    poset = cached_poset(Permutation.parse("13524"))
    with pytest.raises(verify._BudgetExceeded):
        verify._inverse_move_certificate(poset, _Polls(poset.size - 1))
    vectors, refuted = verify._inverse_move_certificate(poset, _Polls(poset.size))
    assert refuted is None and len(vectors) == poset.size


def test_transpose_certificate_stops_where_each_test_fails(monkeypatch):
    # a failed vector read, a wrong top, vectors that repeat and vectors
    # that fall along a move (the last two would make the build of the
    # inverse fiber raise): the certificate stops at the element where
    # each happens, and since the real inverse fiber passes, its
    # refutation is the witness
    w = Permutation.parse("13524")
    poset = cached_poset(w)
    cached_poset(w.inverse())
    read = verify._route_read
    totals = [sum(v) for v in verify._inverse_move_certificate(poset, verify.Deadline(None))[0]]
    repeat = next(a for a in range(poset.size) if totals[a] in totals[:a])
    first_move = next(a for a in range(poset.size) if poset.moves_up_idx(a))
    bottom = poset.idx(poset.min_element())
    assert len({0, bottom, repeat, first_move}) == 4

    def refuted(a):
        return [{"note": "inverse-move criterion disagrees with the inverse fiber",
                 "dream": poset.elements[a].to_json()}]

    def vectors_made(make):
        def fake(n, mask, table):
            vector, slots = read(n, mask, table)
            return make(vector), slots
        return fake

    for name, fake, stop in (
        ("_route_read", lambda n, mask, table: None, 0),
        ("_seed_mask", lambda v: 0, bottom),
        ("_route_read", vectors_made(lambda v: (sum(v),)), repeat),
        ("_route_read", vectors_made(lambda v: tuple(-x for x in v)), first_move),
    ):
        with monkeypatch.context() as m:
            m.setattr(verify, name, fake)
            got = [c.witness for c in verify.run_checks(w, ("transpose",)).checks]
        assert got == refuted(stop), name


def test_non_involution_verify_builds_one_fiber(monkeypatch):
    # the transposes of 13524's dreams are wired to 14253, whose fiber a
    # passing transpose check never builds
    from chutelat import poset as poset_module

    built = []
    build = poset_module.enumerate_poset
    cached_poset.cache_clear()
    monkeypatch.setattr(poset_module, "enumerate_poset", lambda w: built.append(str(w)) or build(w))
    report = verify.run_checks(Permutation.parse("13524"))
    assert [c.status for c in report.checks] == ["pass"] * 5 + ["skipped"]
    assert built == ["13524"]


def _comparable_pairs(poset):
    return [(a, b) for a in range(poset.size) for b in range(poset.size) if poset.leq_idx(a, b)]


def _fork_spans(poset):
    """The fork spans in the order ``check_polygonal`` meets them, repeats
    included: from each element to the join of two of its upper covers,
    and from the meet of two of its lower covers to it."""
    spans = []
    for g in range(poset.size):
        ups = list(poset.covers_up_idx(g))
        spans += [(g, poset.join_idx(x, y)) for x, y in itertools.combinations(ups, 2)]
        downs = poset.covers_down_idx(g)
        spans += [(poset.meet_idx(x, y), g) for x, y in itertools.combinations(downs, 2)]
    return spans


def _classified_spans(monkeypatch, poset):
    """The (bottom, top) of each ``_span_polygon`` call that a passing
    ``check_polygonal`` makes, in call order, and of each
    ``classify_polygon`` call."""
    calls, interval_calls = [], []
    real_walk, real_classify = verify._span_polygon, verify.classify_polygon

    def counted(poset, bottom, top):
        calls.append((bottom, top))
        return real_walk(poset, bottom, top)

    def via_interval(iv):
        interval_calls.append((iv.bottom, iv.top))
        return real_classify(iv)

    with monkeypatch.context() as m:
        m.setattr(verify, "_span_polygon", counted)
        m.setattr(verify, "classify_polygon", via_interval)
        assert verify.check_polygonal(poset, verify.Deadline(None)) is None
    return calls, interval_calls


def test_each_fork_span_is_classified_once(monkeypatch):
    # a span met again already passed, so it is not classified again, and
    # each span is classified by one walk, with no Interval made for
    # classify_polygon
    for word in itertools.permutations(range(1, 6)):
        poset = cached_poset(Permutation(word))
        distinct = list(dict.fromkeys(_fork_spans(poset)))
        assert _classified_spans(monkeypatch, poset) == (distinct, []), word
    mid = cached_poset(Permutation.parse("1327654"))
    calls, interval_calls = _classified_spans(monkeypatch, mid)
    assert calls == list(dict.fromkeys(_fork_spans(mid)))
    assert len(calls) == 2287
    assert interval_calls == []


def classify_both(poset, pairs):
    """The walk's verdict on each interval, which must be the verdict of
    ``classify_polygon`` and of both oracles, the chain search and the
    cover-degree count; the set of verdicts seen, so a caller can tell
    the pairs exercised more than one outcome."""
    seen = set()
    for a, b in pairs:
        iv = poset.interval_idx(a, b)
        verdict = _span_polygon(poset, a, b)
        assert verdict is classify_polygon(iv), (str(poset.w), a, b)
        assert verdict is oracle_classify_polygon(iv), (str(poset.w), a, b)
        assert verdict is oracle_cover_degree_polygon(iv), (str(poset.w), a, b)
        seen.add(verdict)
    return seen


@pytest.mark.parametrize("n", [4, 5, 6])
def test_cover_degrees_classify_like_chains_on_sn(n):
    seen = set()
    for word in itertools.permutations(range(1, n + 1)):
        poset = cached_poset(Permutation(word))
        seen |= classify_both(poset, _comparable_pairs(poset))
    assert {PolygonType.PENTAGON, PolygonType.NOT_A_POLYGON} <= seen
    assert PolygonType.POLYGON not in seen


def test_cover_degrees_classify_like_chains_on_samples_and_fixtures():
    seen = set()
    for w in sampled_n7():
        poset = cached_poset(w)
        seen |= classify_both(poset, _comparable_pairs(poset))
    mid = cached_poset(Permutation.parse("1327654"))
    assert len(_fork_spans(mid)) == 4574
    seen |= classify_both(mid, _comparable_pairs(mid))
    assert {PolygonType.DIAMOND, PolygonType.PENTAGON, PolygonType.NOT_A_POLYGON} <= seen
    assert PolygonType.POLYGON not in seen
    for poset in hand_built_shapes():
        seen |= classify_both(poset, _comparable_pairs(poset))
    assert seen == set(PolygonType)
    hexagon = hexagon_361542()
    assert PolygonType.POLYGON in classify_both(hexagon, _comparable_pairs(hexagon))
    glued = cached_poset(Permutation.parse("12543"))
    pair = (glued.vectors.index((0, 1, 1)), glued.vectors.index((1, 2, 2)))
    assert classify_both(glued, [pair]) == {PolygonType.NOT_A_POLYGON}


@pytest.mark.parametrize("build, side, irreducible", [
    (m3_361542, "meet", (1, 0)),
    (join_only_361542, "join", (5, 6)),
])
def test_non_semidistributive_lattice_fails_sd_on_both_routes(monkeypatch, build, side, irreducible):
    # a lattice reaches the kappa test, which stops at the first
    # irreducible without kappa; the bucket sweep then gives the witness
    lattice = build()
    deadline = verify.Deadline(None)
    assert verify._lattice_certificate(lattice, deadline) is None
    kappa = {s: verify._kappa_certificate(lattice, deadline, meet_side=s == "meet")
             for s in ("meet", "join")}
    assert kappa[side] == verify._pair_witness(
        lattice, *irreducible, f"{side}-side kappa criterion disagrees with definition")
    if side == "join":
        assert kappa["meet"] is None
    got, want = reports(monkeypatch, lattice.w, {lattice.w: lattice})
    assert got == want
    assert got["checks"][1]["status"] == "pass"
    sd = got["checks"][2]
    assert sd["status"] == "fail"
    assert sd["witness"]["note"] == f"{side}-semidistributivity fails on this bucket"


def _missing_bound(poset, a, b, kind, bounds):
    return {
        "message": f"common {kind} bounds have no extreme element",
        "witness": {
            "pair": [poset.elements[a].to_json(), poset.elements[b].to_json()],
            "bounds": [poset.elements[k].to_json() for k in bounds],
        },
    }


def _no_bound(poset, a, b, kind):
    return {
        "message": f"no common {kind} bound",
        "witness": {"pair": [poset.elements[a].to_json(), poset.elements[b].to_json()]},
    }


def test_non_lattices_fail_each_check_alone_on_both_routes(monkeypatch):
    # kappa passes on both sides of the bowtie and of the two chains, and
    # the two chains have no down-fork, so only the bounds and the lattice
    # certificate keep sd and transpose from passing.  A missing bottom
    # is lattice's witness alone: sd and transpose report the missing meet
    bowtie = bowtie_361542()
    chains = two_chains_361542()
    deadline = verify.Deadline(None)
    for poset in (bowtie, chains):
        for meet_side in (True, False):
            assert verify._kappa_certificate(poset, deadline, meet_side) is None
    assert verify._fork_failure(bowtie, deadline, up=False) == (3, 4)
    assert verify._fork_failure(chains, deadline, up=False) is None
    sources = {"message": "2 move-minimal elements",
               "witness": {"sources": [chains.elements[k].to_json() for k in (0, 1)]}}
    expected = [
        (bowtie, "lattice", _missing_bound(bowtie, 1, 2, "upper", (3, 4, 5))),
        (bowtie, "sd", _missing_bound(bowtie, 4, 3, "lower", (0, 1, 2))),
        (bowtie, "transpose", _missing_bound(bowtie, 3, 4, "lower", (0, 1, 2))),
        (chains, "lattice", sources),
        (chains, "sd", _no_bound(chains, 1, 0, "lower")),
        (chains, "transpose", _no_bound(chains, 0, 1, "lower")),
    ]
    for poset, name, witness in expected:
        got, want = reports(monkeypatch, poset.w, {poset.w: poset}, (name,))
        assert got == want, name
        assert got["checks"] == [{"name": name, "status": "fail", "witness": witness}]


def test_certificates_decide_every_s5_fiber_alone(monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("a fallback sweep ran on a healthy fiber")

    for name in ("_all_pairs_bound", "_buckets_have_extreme", "_reversal_sweep"):
        monkeypatch.setattr(verify, name, sweep)
    for word in itertools.permutations(range(1, 6)):
        report = verify.run_checks(Permutation(word))
        assert [c.status for c in report.checks] == ["pass"] * 5 + ["skipped"], word


def test_failed_certificate_with_passing_sweep_reports_refutation(monkeypatch):
    # 13524 is healthy and not an involution, so the transposes of its
    # dreams are wired to 14253, and the transpose check's failure path
    # builds that separate fiber
    w = Permutation.parse("13524")
    poset = cached_poset(w)

    def run(*names):
        return [c.witness for c in verify.run_checks(w, names).checks]

    def pair(a, b, note):
        return verify._pair_witness(poset, a, b, note)

    with monkeypatch.context() as m:
        m.setattr(verify, "_fork_failure", lambda p, d, up: (0, 1))
        assert run("lattice", "sd", "transpose") == [
            pair(0, 1, "bounded-fork criterion disagrees with all-pairs search"),
            pair(0, 1, "bounded-fork criterion disagrees with all-pairs search"),
            pair(0, 1, "bounded down-fork criterion disagrees with the meet sweep"),
        ]
    stub = pair(2, 0, "join-side kappa criterion disagrees with definition")
    with monkeypatch.context() as m:
        m.setattr(verify, "_kappa_certificate", lambda p, d, meet_side: None if meet_side else stub)
        assert run("sd") == [stub]
    # an inverse move hidden from the transpose certificate, which stops
    # at the first element with a move; the inverse fiber's order pass
    # then passes, so the certificate's refutation is the witness
    a = next(k for k in range(poset.size) if poset.covers_up_idx(k))
    scan = verify.inverse_move_scan
    with monkeypatch.context() as m:
        m.setattr(verify, "inverse_move_scan", lambda n, mask, pipes: scan(n, mask, pipes)[1:])
        assert run("transpose") == [{
            "note": "inverse-move criterion disagrees with the inverse fiber",
            "dream": poset.elements[a].to_json(),
        }]
        # with cover edges of the inverse fiber that contradict its order
        # as well, the failure path reports its own cover-edge refutation
        b = min(poset.covers_up_idx(a))
        m.setattr(cached_poset(w.inverse()), "covers_down_idx", lambda k: ())
        assert run("transpose") == [
            pair(a, b, "cover-edge criterion disagrees with the order pass")]


def test_last_column_pairs_fail_alike_on_both_routes(monkeypatch):
    # with the forced row of the inverse fiber emptied, a last-column pair
    # fails as soon as its transposes differ at all, which happens on most
    # fibers of S_6; both routes must stop at the same first pair.  The
    # check reads the support through verify, the oracle through tableaux.
    support = tableaux._support
    failures = 0
    for word in itertools.permutations(range(1, 7)):
        w = Permutation(word)
        # both fibers are built before the support is patched, since a
        # build reads it; the oracle reads them from the poset cache
        cached_poset(w)
        cached_poset(w.inverse())

        def no_forced_row(v, w=w):
            boxes = support(v)
            return boxes if v == w else ((0, 0),) * len(boxes)

        with monkeypatch.context() as m:
            m.setattr(verify, "_support", no_forced_row)
            m.setattr(tableaux, "_support", no_forced_row)
            got, want = reports(monkeypatch, w, names=("transpose",))
        assert got == want, w
        failures += got["checks"][0]["status"] == "fail"
    assert failures > 0
