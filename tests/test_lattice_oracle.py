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
and the polygon oracle classifies an interval by listing its maximal
chains, where ``classify_polygon`` counts cover degrees.
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

import itertools
import random

import pytest

from chutelat import tableaux, verify
from chutelat.errors import TheoremViolation
from chutelat.perm import Permutation
from chutelat.pipedream import PipeDream, transpose
from chutelat.poset import (
    ChutePoset,
    Interval,
    PolygonType,
    cached_poset,
    classify_polygon,
    fork_polygon,
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
        # classify_polygon needs to read an oracle interval's mask
        self._rank = self._order = tuple(range(size))
        up = [0] * size
        for k in reversed(order):
            for _mv, j in self._moves_up[k]:
                up[k] |= (1 << j) | up[j]
        down = [0] * size
        for k in order:
            for _mv, j in self._moves_up[k]:
                down[j] |= (1 << k) | down[k]
        self._up = tuple(up)
        self._down = tuple(down)
        covers_up = []
        covers_down = [[] for _ in range(size)]
        for k in range(size):
            row = tuple((mv, j) for (mv, j) in self._moves_up[k] if up[k] & down[j] == 0)
            covers_up.append(row)
            for _mv, j in row:
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
        for row in self._moves_up:
            for _mv, j in row:
                indeg[j] += 1
        sources = [k for k in range(self.size) if indeg[k] == 0]
        if len(sources) != 1:
            raise TheoremViolation(
                f"{len(sources)} move-minimal elements",
                witness={"sources": [self.elements[k].to_json() for k in sources]},
            )
        if self._up0(sources[0]) != self._full:
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
            cover_keys = {j for _mv, j in poset.covers_up_idx(fixed)}
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
        ups = [j for _mv, j in poset.covers_up_idx(g0)]
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
        for _mv, j in poset.covers_up_idx(v):
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
        ups = [j for _mv, j in poset.covers_up_idx(g0)]
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
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        w = Permutation(tuple(rng.sample(range(1, 8), 7)))
        if w not in out and cached_poset(w).size >= min_size:
            out.append(w)
    return out


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


def _drop_edge(poset, k, i):
    moves = list(poset._moves_up)
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
            for i in range(len(real._moves_up[k])):
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
    """``fork_polygon``'s verdict on the span of every fork with a bound,
    on both sides, which must be ``classify_polygon``'s whenever it names
    one; the set of verdicts seen."""
    seen = set()
    for g in range(poset.size):
        for up in (True, False):
            bound = poset.join_idx if up else poset.meet_idx
            for x, y in verify._forks(poset, g, up):
                found = outcome(bound, x, y)
                if found[0] != "ok":
                    continue
                b = found[1]
                verdict = fork_polygon(poset, g, x, y, b, up)
                if verdict is not None:
                    iv = Interval(poset, *((g, b) if up else (b, g)))
                    assert verdict is classify_polygon(iv), (str(poset.w), g, x, y, up)
                seen.add(verdict)
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
    # shapes that are neither: each has a span the cover rows leave to
    # classify_polygon, and no verdict they name may differ from its
    for poset in hand_built_shapes():
        fork_verdicts(poset)
    for build in (hexagon_361542, m3_361542, split_pentagon_361542,
                  skewed_hexagon_361542, forked_pentagon_361542):
        assert None in fork_verdicts(build()), build.__name__


def test_transpose_check_builds_no_dream(monkeypatch):
    # images are looked up by their rows; a hand-built fiber that holds
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


def _comparable_pairs(poset):
    return [(a, b) for a in range(poset.size) for b in range(poset.size) if poset.leq_idx(a, b)]


def _fork_spans(poset):
    """The fork spans in the order ``check_polygonal`` meets them, repeats
    included: from each element to the join of two of its upper covers,
    and from the meet of two of its lower covers to it."""
    spans = []
    for g in range(poset.size):
        ups = [j for _mv, j in poset.covers_up_idx(g)]
        spans += [(g, poset.join_idx(x, y)) for x, y in itertools.combinations(ups, 2)]
        downs = poset.covers_down_idx(g)
        spans += [(poset.meet_idx(x, y), g) for x, y in itertools.combinations(downs, 2)]
    return spans


def _classified_spans(monkeypatch, poset):
    """The (bottom, top) of each ``fork_polygon`` call that a passing
    ``check_polygonal`` makes, in call order, and of each
    ``classify_polygon`` call."""
    calls, fallbacks = [], []
    real_fork, real_classify = verify.fork_polygon, verify.classify_polygon

    def counted(poset, g, x, y, bound, up):
        calls.append((g, bound) if up else (bound, g))
        return real_fork(poset, g, x, y, bound, up)

    def fallback(iv):
        fallbacks.append((iv.bottom, iv.top))
        return real_classify(iv)

    with monkeypatch.context() as m:
        m.setattr(verify, "fork_polygon", counted)
        m.setattr(verify, "classify_polygon", fallback)
        assert verify.check_polygonal(poset, verify.Deadline(None)) is None
    return calls, fallbacks


def test_each_fork_span_is_classified_once(monkeypatch):
    # a span met again already passed, so it is not classified again; on
    # a passing fiber the cover rows name every span, so the interval
    # classifier never runs
    for word in itertools.permutations(range(1, 6)):
        poset = cached_poset(Permutation(word))
        distinct = list(dict.fromkeys(_fork_spans(poset)))
        assert _classified_spans(monkeypatch, poset) == (distinct, []), word
    mid = cached_poset(Permutation.parse("1327654"))
    calls, fallbacks = _classified_spans(monkeypatch, mid)
    assert calls == list(dict.fromkeys(_fork_spans(mid)))
    assert len(calls) == 2287
    assert fallbacks == []


def classify_both(poset, pairs):
    """The cover-degree verdict of each interval, which must be the chain
    search's; the set of verdicts seen, so a caller can tell the pairs
    exercised more than one outcome."""
    seen = set()
    for a, b in pairs:
        iv = poset.interval_idx(a, b)
        verdict = classify_polygon(iv)
        assert verdict is oracle_classify_polygon(iv), (str(poset.w), a, b)
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
    spans = _fork_spans(mid)
    assert len(spans) == 4574
    seen |= classify_both(mid, spans)
    assert {PolygonType.DIAMOND, PolygonType.PENTAGON, PolygonType.NOT_A_POLYGON} <= seen
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
    # 13524 is healthy and not an involution, so its transpose check reads
    # the separate fiber of 14253
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
    # cover edges of the inverse fiber that contradict its order
    a = next(k for k in range(poset.size) if poset.covers_up_idx(k))
    b = min(j for _mv, j in poset.covers_up_idx(a))
    with monkeypatch.context() as m:
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

        def no_forced_row(v, w=w):
            boxes = support(v)
            return boxes if v == w else ((0, 0),) * len(boxes)

        monkeypatch.setattr(verify, "_support", no_forced_row)
        monkeypatch.setattr(tableaux, "_support", no_forced_row)
        got, want = reports(monkeypatch, w, names=("transpose",))
        assert got == want, w
        failures += got["checks"][0]["status"] == "fail"
    assert failures > 0
