import gc
import itertools
import json
from collections import Counter

import pytest

from chutelat import chute as chute_module
from chutelat import cli as cli_module
from chutelat import pipedream as pipedream_module
from chutelat import poset as poset_module
from chutelat import schubert as schubert_module
from chutelat import verify as verify_module
from chutelat.chute import ChuteMove, check_increment_correspondence
from chutelat.errors import Incomparable, TheoremViolation
from chutelat.perm import Permutation
from chutelat.pipedream import (
    CROSS,
    PipeDream,
    phi_vector,
    route_crosses,
    theta,
    trace,
)
from chutelat.poset import (
    ChutePoset,
    PolygonType,
    brute_force_enumerate,
    cached_poset,
    chute_path,
    classify_polygon,
    enumerate_poset,
    leq_via_lehmer,
    seed_dream,
    single_moves_all_covers,
    theta_inverse,
    to_dot,
)
from chutelat.tableaux import increment_multiset


def all_perms(n):
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation(word)


def test_enumerate_matches_brute_force_small():
    totals = {1: 1, 2: 2, 3: 7, 4: 41}
    for n, want in totals.items():
        count = 0
        for w in all_perms(n):
            p = cached_poset(w)
            assert frozenset(p.elements) == brute_force_enumerate(w)
            count += p.size
        assert count == want


def test_fiber_sizes_frozen():
    assert cached_poset(Permutation.parse("2143")).size == 3
    assert cached_poset(Permutation.parse("1432")).size == 5
    assert cached_poset(Permutation.parse("361542")).size == 21
    assert cached_poset(Permutation.parse("12543")).size == 14


def test_canonical_order_deterministic():
    w = Permutation.parse("361542")
    a = enumerate_poset(w)
    b = enumerate_poset(w)
    assert a.elements == b.elements
    assert cached_poset(w) is cached_poset(w)


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_enumerate(Permutation.identity(7))


def test_seed_is_max():
    for w in all_perms(4):
        p = cached_poset(w)
        mx = p.max_element()
        mn = p.min_element()
        assert mx == seed_dream(w)
        for d in p.elements:
            assert p.leq(mn, d)
            assert p.leq(d, mx)


def _seed_below_the_top(monkeypatch, w):
    lower = cached_poset(w).cross_masks[1]
    monkeypatch.setattr(poset_module, "_seed_mask", lambda _w: lower)


def test_seed_below_the_top_is_refused(monkeypatch):
    # the downward search needs the seed to be the top of the fiber; a
    # lower element of the same fiber has an up-move and must be refused
    w = Permutation.parse("361542")
    _seed_below_the_top(monkeypatch, w)
    with pytest.raises(RuntimeError, match="not the top"):
        enumerate_poset(w)


@pytest.mark.parametrize("enabled", [True, False])
def test_build_runs_without_the_collector_and_restores_it(monkeypatch, enabled):
    w = Permutation.parse("361542")
    real_seed_mask = poset_module._seed_mask
    during = []

    def spy(v):
        during.append(gc.isenabled())
        return real_seed_mask(v)

    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        monkeypatch.setattr(poset_module, "_seed_mask", spy)
        enumerate_poset(w)
        assert gc.isenabled() is enabled
        _seed_below_the_top(monkeypatch, w)
        with pytest.raises(RuntimeError, match="not the top"):
            enumerate_poset(w)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()
    assert during and not any(during)


def test_leq_matches_lehmer_dominance():
    for w in all_perms(4):
        p = cached_poset(w)
        for a in range(p.size):
            for b in range(p.size):
                dom = all(x <= y for x, y in zip(p.vectors[a], p.vectors[b]))
                assert p.leq_idx(a, b) == dom
                assert leq_via_lehmer(p.elements[a], p.elements[b]) == dom


def test_meet_join_lattice_axioms():
    p = cached_poset(Permutation.parse("361542"))
    for a in range(p.size):
        assert p.meet_idx(a, a) == a
        assert p.join_idx(a, a) == a
        for b in range(p.size):
            m = p.meet_idx(a, b)
            j = p.join_idx(a, b)
            assert p.leq_idx(m, a) and p.leq_idx(m, b)
            assert p.leq_idx(a, j) and p.leq_idx(b, j)
            assert p.meet_idx(b, a) == m
            assert p.join_idx(b, a) == j
            for k in range(p.size):
                if p.leq_idx(k, a) and p.leq_idx(k, b):
                    assert p.leq_idx(k, m)
                if p.leq_idx(a, k) and p.leq_idx(b, k):
                    assert p.leq_idx(j, k)
            assert p.meet_idx(a, p.join_idx(a, b)) == a
            assert p.join_idx(a, p.meet_idx(a, b)) == a


def test_interval_requires_comparable():
    p = cached_poset(Permutation.parse("1432"))
    assert not p.leq_idx(1, 2)
    with pytest.raises(ValueError):
        p.interval_idx(1, 2)


def test_short_intervals_are_not_polygons():
    p = cached_poset(Permutation.parse("2143"))
    assert classify_polygon(p.interval_idx(0, 0)).value == "not_a_polygon"
    assert classify_polygon(p.interval_idx(1, 0)).value == "not_a_polygon"
    assert classify_polygon(p.interval_idx(2, 0)).value == "not_a_polygon"  # 3-chain


def move_targets(p, k):
    return tuple(j for _mv, j in p.moves_up_idx(k))


def cover_moves(p):
    """The move of each cover edge (k, j), read off the move rows."""
    return {
        (k, j): mv for k in range(p.size) for mv, j in p.moves_up_idx(k) if j in p.covers_up_idx(k)
    }


def test_pentagon_1432_frozen():
    p = cached_poset(Permutation.parse("1432"))
    assert [d.rows for d in p.elements] == [
        ("BBBE", "CCE", "CE", "E"),
        ("BBCE", "CBE", "CE", "E"),
        ("BCBE", "CCE", "BE", "E"),
        ("BCCE", "BBE", "CE", "E"),
        ("BCCE", "BCE", "BE", "E"),
    ]
    assert p.vectors == ((1, 1, 1), (0, 1, 1), (1, 1, 0), (0, 0, 1), (0, 0, 0))
    iv = p.interval_idx(4, 0)
    assert iv.size == 5
    assert classify_polygon(iv) is PolygonType.PENTAGON
    covers = cover_moves(p)
    assert set(covers) == {(1, 0), (2, 0), (3, 1), (4, 2), (4, 3)}
    incomparable = {
        (a, b)
        for a in range(p.size)
        for b in range(a + 1, p.size)
        if not p.leq_idx(a, b) and not p.leq_idx(b, a)
    }
    assert incomparable == {(1, 2), (2, 3)}


def test_pentagon_chains_balance_increments():
    # both maximal chains apply the same multiset of box increments
    p = cached_poset(Permutation.parse("1432"))
    covers = cover_moves(p)

    def chain_boxes(chain):
        out = Counter()
        for k, j in zip(chain, chain[1:]):
            rep = check_increment_correspondence(p.elements[k], covers[(k, j)])
            out.update(rep.increments)
        return out

    short = chain_boxes((4, 2, 0))
    long = chain_boxes((4, 3, 1, 0))
    assert short == long == Counter({(2, 3): 1, (2, 4): 1, (3, 4): 1})
    # the short chain's batch move drags (2,4) along with (2,3)
    rep = check_increment_correspondence(p.elements[4], covers[(4, 2)])
    assert rep.increments == ((2, 3), (2, 4))


def test_first_diamond_12453():
    p = cached_poset(Permutation.parse("12453"))
    assert p.vectors[4] == (1, 0) and p.vectors[1] == (2, 1)
    iv = p.interval_idx(4, 1)
    assert iv.size == 4
    assert classify_polygon(iv) is PolygonType.DIAMOND


def test_glued_diamonds_are_not_a_polygon():
    # two diamonds sharing an edge: the union of two maximal chains that
    # meet only at the endpoints, yet a chord adds a third chain
    p = cached_poset(Permutation.parse("12543"))
    a = p.vectors.index((0, 1, 1))
    b = p.vectors.index((1, 2, 2))
    iv = p.interval_idx(a, b)
    assert iv.size == 6
    assert classify_polygon(iv) is PolygonType.NOT_A_POLYGON


def test_single_moves_all_covers_recorded():
    # measured outcome at desk scale: no single move skips a level, so
    # each row of covers is stored once, as the row of moves itself
    for n in (3, 4):
        for w in all_perms(n):
            assert single_moves_all_covers(cached_poset(w))
    mid = cached_poset(Permutation.parse("1327654"))
    assert single_moves_all_covers(mid)
    assert all(mid.covers_up_idx(k) == move_targets(mid, k) for k in range(mid.size))


def hand_built_361542(totals, targets):
    """Real dreams of 361542, one per entry of ``totals`` with that Lehmer
    total (distinct dreams for a repeated total), joined by move edges to
    ``targets``; the poset reads only the targets of its moves."""
    w = Permutation.parse("361542")
    real = cached_poset(w)
    by_total = {}
    for k, v in enumerate(real.vectors):
        by_total.setdefault(sum(v), []).append(k)
    seen = Counter()
    picks = []
    for t in totals:
        picks.append(by_total[t][seen[t]])
        seen[t] += 1
    moves_up = tuple(tuple((None, j) for j in row) for row in targets)
    return ChutePoset(
        w, tuple(real.elements[k] for k in picks), tuple(real.vectors[k] for k in picks), moves_up
    )


def test_single_moves_all_covers_false_on_a_skipping_move():
    # the chain 0 -> 1 -> 2 plus the move 0 -> 2 that skips the middle
    skipping = hand_built_361542((0, 1, 2), ((1, 2), (2,), ()))
    assert skipping.covers_up_idx(0) == (1,)
    assert all(skipping.covers_up_idx(k) == move_targets(skipping, k) for k in (1, 2))
    assert not single_moves_all_covers(skipping)
    # two three-step chains from bottom to top: every move is a cover
    hexagon = hand_built_361542((0, 1, 1, 2, 2, 3), ((1, 2), (3,), (4,), (5,), (5,), ()))
    assert single_moves_all_covers(hexagon)
    assert all(hexagon.covers_up_idx(k) == move_targets(hexagon, k) for k in range(6))


def test_dot_draws_only_the_cover_edges_each_with_its_move():
    # the chain 0 -> 1 -> 2 plus the skipping move 0 -> 2: the DOT reads
    # each cover's label through the move rows and leaves the skip out
    chain = hand_built_361542((0, 1, 2), ((1, 2), (2,), ()))
    moves = [ChuteMove(1, 2, 1, 2, 1, 2), ChuteMove(1, 3, 1, 2, 1, 3), ChuteMove(2, 3, 1, 2, 2, 3)]
    rows = (((moves[0], 1), (moves[1], 2)), ((moves[2], 2),), ())
    skipping = ChutePoset(chain.w, chain.elements, chain.vectors, rows)
    edges = [line for line in to_dot(skipping).splitlines() if " -> " in line]
    assert edges == ['  0 -> 1 [label="(1,2)"];', '  1 -> 2 [label="(2,3)"];']


def test_digest_builds_no_up_set_and_verify_builds_each_once(capsys, monkeypatch):
    # the listing, the count, the Schubert sum and info read the elements
    # alone, so the poset keeps its flat store and makes nothing; the DOT
    # reads the cover rows, so it runs the down-set pass but makes no
    # up-set; a verify run makes the pass, the vector tuples, the up-sets
    # and the lower cover rows once each
    w = Permutation.parse("1327654")
    cached_poset.cache_clear()
    poset = cached_poset(w)
    for argv in (["enumerate", str(w), "--json"], ["enumerate", str(w), "--count"],
                 ["schubert", str(w)], ["info", str(w)]):
        assert cli_module.main(argv) == 0
    assert len(json.loads(capsys.readouterr().out.splitlines()[0])) == poset.size == 660
    lazy = {"_down", "_covers_up", "_order", "_rank", "vectors", "_ends", "_up", "_covers_down",
            "index"}
    assert not lazy & set(vars(poset))
    assert to_dot(poset).count(" -> ") == len(poset._targets)
    assert single_moves_all_covers(poset)
    assert lazy & set(vars(poset)) == {"_down", "_covers_up", "_order", "_rank"}
    made = []

    def counting(name, make):
        return lambda p: made.append(name) or make(p)

    makers = {d.make for d in vars(ChutePoset).values() if isinstance(d, poset_module._Lazy)}
    for name in makers:
        monkeypatch.setattr(ChutePoset, name, counting(name, getattr(ChutePoset, name)))
    cached_poset.cache_clear()
    assert verify_module.run_checks(w).passed
    assert sorted(made) == [
        "_closure_pass", "_make_covers_down", "_make_ends", "_make_up", "_make_vectors"]


def test_passing_verify_and_schubert_sum_make_no_dream():
    # the checks read masks, vectors and closures, and the Schubert sum
    # counts crosses per row off the masks, so neither makes the dreams
    w = Permutation.parse("1327654")
    cached_poset.cache_clear()
    assert verify_module.run_checks(w).passed
    assert "elements" not in vars(cached_poset(w))
    for word in itertools.permutations(range(1, 6)):
        v = Permutation(word)
        assert schubert_module.schubert_from_pipedreams(v) == schubert_module.schubert_oracle(v)
        assert "elements" not in vars(cached_poset(v)), v


def test_lazy_fields_are_plain_attributes_once_made():
    # a lazy field, once made, is an instance attribute that later reads
    # find, and the fields made with it are stored too; the class defines
    # no __getattr__, so a name that is no field still raises
    poset = enumerate_poset(Permutation.parse("1432"))
    assert "vectors" not in vars(poset)
    assert poset.vectors is vars(poset)["vectors"] is poset.vectors
    assert "_rank" not in vars(poset)
    poset._down
    assert {"_order", "_rank", "_down", "_covers_up"} <= set(vars(poset))
    assert "__getattr__" not in vars(ChutePoset)
    with pytest.raises(AttributeError, match="no attribute 'no_such_field'"):
        poset.no_such_field
    assert not hasattr(poset, "_moves_up")


def test_lazy_vectors_equal_the_vectors_the_build_read(monkeypatch):
    # the build reads each vector off its mask, once per element, traces
    # the seed alone, validates no dream, and stores each vector in the
    # flat array;
    # unpacked on first read, they are the ones it read, element by
    # element, and a hand-built poset gives back the vectors it was handed
    w = Permutation.parse("12438765")
    read, route_read = [], poset_module._route_read

    def reading(n, mask, table):
        got = route_read(n, mask, table)
        read.append(got[0])
        return got

    validated = []
    validate = PipeDream.__post_init__
    monkeypatch.setattr(poset_module, "_route_read", reading)
    monkeypatch.setattr(PipeDream, "__post_init__", lambda d: validated.append(d) or validate(d))
    trace.cache_clear()
    built = enumerate_poset(w)
    assert trace.cache_info().misses == 1 and validated == []
    assert sorted(built.vectors) == sorted(read) and len(read) == built.size
    assert built.vectors == tuple(phi_vector(d, w) for d in built.elements)
    rows = [built.moves_up_idx(k) for k in range(built.size)]
    again = ChutePoset(w, built.elements, built.vectors, rows)
    assert again.vectors == built.vectors
    assert again._flat == built._flat


def test_move_that_lowers_the_lehmer_total_is_a_violation():
    # the move rows are checked against the Lehmer totals: the first move,
    # in canonical order, that does not raise the total is the witness
    w = Permutation.parse("1432")
    real = cached_poset(w)
    rows = [real.moves_up_idx(k) for k in range(real.size)]
    a, (mv, b) = next((k, row[0]) for k, row in enumerate(rows) if row)
    rows[b] = rows[b] + ((mv, a),)
    with pytest.raises(TheoremViolation, match="a move failed to raise the Lehmer total") as exc:
        ChutePoset(w, real.elements, real.vectors, rows)
    assert exc.value.witness == {"from": real.elements[b].to_json(), "to": real.elements[a].to_json()}


def test_idx_and_duplicate_elements_raise_value_error():
    real = cached_poset(Permutation.parse("1432"))
    with pytest.raises(ValueError, match="not an element of this poset"):
        real.idx(cached_poset(Permutation.parse("2143")).elements[0])
    with pytest.raises(ValueError, match="^duplicate elements$"):
        ChutePoset(real.w, real.elements[:1] * 2, real.vectors[:2], ((), ()))


def test_equal_crossing_row_tableaux_are_a_violation(monkeypatch):
    # the guard that keeps Lehmer forms distinct, which check_isomorphism
    # relies on: two elements may not share a crossing-row tableau, which
    # the guard sees as a shared Lehmer vector.  Reached once by handing
    # the poset equal vectors and once through the build, with every
    # element read as the first one's vector
    w = Permutation.parse("1432")
    real = cached_poset(w)
    with pytest.raises(TheoremViolation, match="crossing-row map is not injective") as exc:
        ChutePoset(w, real.elements[:2], (real.vectors[0],) * 2, ((), ()))
    assert exc.value.witness == {"w": "1432"}
    route_read = poset_module._route_read
    monkeypatch.setattr(
        poset_module, "_route_read",
        lambda n, mask, table: (real.vectors[0], route_read(n, mask, table)[1]),
    )
    with pytest.raises(TheoremViolation, match="crossing-row map is not injective") as exc:
        enumerate_poset(w)
    assert exc.value.witness == {"w": "1432"}


def test_mask_read_refusing_a_readable_dream_is_a_runtime_error(monkeypatch):
    # the mask read and the tableau route read the same vectors, so a
    # mask read that refuses a dream the tableau route reads is a fault
    # of the reader, not a theorem violation
    w = Permutation.parse("1432")
    refused = cached_poset(w).cross_masks[1]
    route_read = poset_module._route_read
    monkeypatch.setattr(
        poset_module, "_route_read",
        lambda n, mask, table: None if mask == refused else route_read(n, mask, table),
    )
    want = phi_vector(PipeDream._from_mask(w.n, refused), w)
    with pytest.raises(RuntimeError, match="the mask read refused a dream of 1432") as exc:
        enumerate_poset(w)
    assert not isinstance(exc.value, TheoremViolation)
    assert str(want) in str(exc.value)


def test_poset_needs_one_vector_per_element():
    real = cached_poset(Permutation.parse("1432"))
    with pytest.raises(ValueError, match="one Lehmer vector per element"):
        ChutePoset(real.w, real.elements[:2], real.vectors[:1], ((), ()))


def test_build_traces_each_element_once(monkeypatch):
    # the downward search traces the seed once, for its wiring and up-move
    # checks, then reads every element once with _route_read, which
    # routes it and reads its vector in one pass, and whose slots by bit
    # feed the element's inverse-move scan; no other dream is traced, and
    # the poset itself routes nothing
    w = Permutation.parse("12438765")
    routed, read, read_slots, scanned = [], [], [], []
    route_read, scan = poset_module._route_read, chute_module.inverse_move_scan

    def reading(n, mask, table):
        read.append(mask)
        got = route_read(n, mask, table)
        read_slots.append(got[1])
        return got

    def routing(n, mask):
        routed.append(mask)
        return route_crosses(n, mask)

    monkeypatch.setattr(pipedream_module, "route_crosses", routing)
    monkeypatch.setattr(poset_module, "_route_read", reading)
    monkeypatch.setattr(
        chute_module, "inverse_move_scan",
        lambda n, mask, slots: scanned.append(slots) or scan(n, mask, slots),
    )
    trace.cache_clear()
    built = enumerate_poset(w)
    info = trace.cache_info()
    assert info.misses == 1
    assert info.maxsize == 1 and info.currsize <= 1
    assert routed == [poset_module._seed_mask(w)] == [built.cross_masks[0]]
    assert len(read) == built.size == 3003
    assert set(read) == set(built.cross_masks)
    # each element's scan gets the very slots of its one read (the lists
    # are held here, so identity is meaningful)
    assert len(scanned) == 3003
    assert all(a is b for a, b in zip(read_slots, scanned))
    assert "elements" not in vars(built)
    routed.clear()
    read.clear()
    trace.cache_clear()
    ChutePoset(w, built.elements, built.vectors, [built.moves_up_idx(k) for k in range(built.size)])
    info = trace.cache_info()
    assert info.hits + info.misses == 0
    assert routed == read == []


def test_build_reaches_large_n_from_cross_masks():
    # a cross mask needs no table over all fillings, so S_40 builds at
    # once: the identity is one all-bump dream, and s_k has one element
    # per box of anti-diagonal k, each a single cross there
    n = 40
    pipedream_module._row.cache_clear()
    assert enumerate_poset(Permutation.identity(n)).elements == (PipeDream.all_bump(n),)
    for k in (1, 20, 39):
        word = list(range(1, n + 1))
        word[k - 1], word[k] = word[k], word[k - 1]
        built = enumerate_poset(Permutation(tuple(word)))
        assert built.size == k
        crosses = sorted(
            [
                (r, c)
                for r, row in enumerate(d.rows, start=1)
                for c, t in enumerate(row, start=1)
                if t == CROSS
            ]
            for d in built.elements
        )
        assert crosses == [[(r, k + 1 - r)] for r in range(1, k + 1)]
    info = pipedream_module._row.cache_info()
    assert info.maxsize is not None and 0 < info.currsize <= info.maxsize


def test_thetas_are_built_on_demand(monkeypatch):
    # the checks, the Schubert sum and the DOT output never build the
    # tableaux; asked for, they are theta of each element, built once
    w = Permutation.parse("1432")
    fresh = enumerate_poset(w)
    for module in (verify_module, schubert_module):
        real = module.cached_poset
        monkeypatch.setattr(
            module, "cached_poset", lambda v, real=real: fresh if v == w else real(v)
        )
    assert verify_module.run_checks(w).passed
    schubert_module.schubert_from_pipedreams(w)
    to_dot(fresh)
    assert "thetas" not in vars(fresh) and "theta_index" not in vars(fresh)
    eager = tuple(theta(d) for d in fresh.elements)
    assert fresh.thetas == eager
    assert fresh.theta_index == {t: k for k, t in enumerate(eager)}
    assert fresh.thetas is fresh.thetas


def test_dream_level_queries_match_index_queries():
    p = cached_poset(Permutation.parse("361542"))
    for a, b in itertools.product(range(p.size), repeat=2):
        da, db = p.elements[a], p.elements[b]
        assert p.meet(da, db) == p.elements[p.meet_idx(a, b)]
        assert p.join(da, db) == p.elements[p.join_idx(a, b)]
        if p.leq_idx(a, b):
            assert p.interval(da, db).members == p.interval_idx(a, b).members
        else:
            with pytest.raises(ValueError, match="not comparable"):
                p.interval(da, db)


def test_theta_inverse_round_trip():
    for w in all_perms(4):
        p = cached_poset(w)
        for d in p.elements:
            assert theta_inverse(theta(d)) == d


def test_theta_inverse_rejects_unrealized():
    p = cached_poset(Permutation.parse("2143"))
    fake = p.thetas[0].with_entries({(1, 2): 5})
    with pytest.raises(ValueError):
        theta_inverse(fake)


def test_chute_path_pentagon_frozen():
    p = cached_poset(Permutation.parse("1432"))
    steps = chute_path(p.thetas[4], p.thetas[0])
    assert [s.to_json() for s in steps] == [
        {"box": [2, 3], "bset": [[2, 3], [2, 4]]},
        {"box": [3, 4], "bset": [[3, 4]]},
    ]
    assert chute_path(p.thetas[4], p.thetas[4]) == ()
    with pytest.raises(Incomparable, match="tableaux are incomparable"):
        chute_path(p.thetas[1], p.thetas[2])
    with pytest.raises(ValueError, match="strictly above") as exc:
        chute_path(p.thetas[0], p.thetas[4])
    assert type(exc.value) is ValueError


def test_chute_path_composes_to_target():
    p = cached_poset(Permutation.parse("361542"))
    for a in range(p.size):
        for b in range(p.size):
            if not p.leq_idx(a, b):
                continue
            t = p.thetas[a]
            for step in chute_path(p.thetas[a], p.thetas[b]):
                t = increment_multiset(t, step.bset)
            assert t == p.thetas[b]


def test_chute_path_overshoot_is_a_violation(monkeypatch):
    # the difference multiset vanishing mid-path means a step went past
    # the target; the start's multiset is computed once, so the first
    # None comes after the first step, which reaches thetas[2]
    p = cached_poset(Permutation.parse("1432"))
    real = poset_module.delta_multiset
    calls = []

    def first_call_only(*args):
        calls.append(args)
        return real(*args) if len(calls) == 1 else None

    monkeypatch.setattr(poset_module, "delta_multiset", first_call_only)
    with pytest.raises(TheoremViolation, match="overshot") as exc:
        chute_path(p.thetas[4], p.thetas[0])
    assert exc.value.witness["reached"] == p.thetas[2].to_json()
    assert len(calls) == 2


def test_to_dot_frozen():
    p = cached_poset(Permutation.parse("2143"))
    # each tooltip is the dream's compact JSON with its quotes escaped
    assert to_dot(p) == (
        "digraph chutelat {\n"
        "  rankdir=BT;\n"
        "  node [shape=circle, fontsize=10];\n"
        r'  0 [tooltip="{\"n\":4,\"rows\":[\"CBBE\",\"BBE\",\"CE\",\"E\"]}"];' "\n"
        r'  1 [tooltip="{\"n\":4,\"rows\":[\"CBBE\",\"BCE\",\"BE\",\"E\"]}"];' "\n"
        r'  2 [tooltip="{\"n\":4,\"rows\":[\"CBCE\",\"BBE\",\"BE\",\"E\"]}"];' "\n"
        '  1 -> 0 [label="(3,4)"];\n'
        '  2 -> 1 [label="(3,4)"];\n'
        "}\n"
    )
