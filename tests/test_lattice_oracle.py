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
in-degree count of move edges is kept as the oracle's ``min_element``.
Both routes must give the same order, bounds, intervals and covers, and
the same reports with the same witnesses, on healthy fibers and on
broken ones.
"""

import itertools
import random

import pytest

from chutelat import verify
from chutelat.errors import TheoremViolation
from chutelat.perm import Permutation
from chutelat.pipedream import transpose
from chutelat.poset import ChutePoset, Interval, PolygonType, cached_poset, classify_polygon


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

    def interval_idx(self, a, b):
        if not self.leq_idx(a, b):
            raise ValueError("interval endpoints are not comparable")
        mask = self._up0(a) & self._down0(b)
        return Interval(self, a, b, tuple(_bits(mask)), mask)


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
            verdict = classify_polygon(poset.interval_idx(g0, top))
            if verdict not in fine:
                return verdict_witness(g0, top, verdict)
        for x, y in itertools.combinations(poset.covers_down_idx(g0), 2):
            bot = poset.meet_idx(x, y)
            verdict = classify_polygon(poset.interval_idx(bot, g0))
            if verdict not in fine:
                return verdict_witness(bot, g0, verdict)
    # every comparable pair, which the fork spans above subsume
    for a in range(poset.size):
        for b in range(poset.size):
            if (poset._up[a] >> b) & 1:
                verdict = classify_polygon(poset.interval_idx(a, b))
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
    last_col = {k for k, box in enumerate(verify._support(poset)) if box[1] == n}
    bad_row = {k for k, box in enumerate(verify._support(other)) if box[0] == row0}
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


def reports(monkeypatch, w, posets=None):
    """The ms-stripped verify report of w on the fast route and on the
    oracle route.  ``posets`` overrides the fiber of any permutation, so a
    hand-made poset can stand in for the enumerated one."""
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
            rep = verify.run_checks(w).to_json()
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
    return ChutePoset(poset.w, poset.elements, tuple(moves))


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


def hexagon_361542():
    """Six real dreams of 361542, one of Lehmer total 0, two of total 1,
    two of total 2 and one of total 3, ordered by two three-step chains
    from the first to the last: a lattice that is one hexagon."""
    w = Permutation.parse("361542")
    real = cached_poset(w)
    by_total = {}
    for k, v in enumerate(real.vectors):
        by_total.setdefault(sum(v), []).append(k)
    picks = [by_total[0][0], *by_total[1][:2], *by_total[2][:2], by_total[3][0]]
    elements = tuple(real.elements[k] for k in picks)
    # the checks read only the targets of move edges, not their moves
    moves_up = (((None, 1), (None, 2)), ((None, 3),), ((None, 4),),
                ((None, 5),), ((None, 5),), ())
    return ChutePoset(w, elements, moves_up)


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
