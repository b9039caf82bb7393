import bisect
import dataclasses
import itertools
import json
import random
import re
import sys
from collections import Counter

import pytest

from chutelat import pipedream as pipedream_module
from chutelat.chute import (
    check_increment_correspondence,
    find_inverse_moves,
    find_moves,
    inverse_move_scan,
)
from chutelat.errors import TheoremViolation
from chutelat.perm import Permutation
from chutelat.poset import _seed_mask, cached_poset
from chutelat.pipedream import (
    BUMP,
    CROSS,
    ELBOW,
    PipeDream,
    Routing,
    _cross_mask,
    _layout,
    _mask_rows,
    _read_table,
    _route_read,
    _rows_key,
    _transpose_mask,
    is_reduced,
    phi,
    phi_vector,
    route_crosses,
    theta,
    trace,
    transpose,
    transpose_rows,
    triforce_embed,
)
from chutelat.tableaux import _column_starts, _relabel, _support, lehmer_vector, restrict
from test_lattice_oracle import sampled_n7


# The reader ``_route_read`` replaced, kept as its oracle: the routing's
# pipe pairs by bit, read against a per-w table of pair tuples.


def _lehmer_slots(w: Permutation) -> tuple[dict, tuple[bool, ...], tuple[int, ...]]:
    """The table ``_crossing_vector`` reads a dream of w with: each
    inversion (i, j) of w, under both (i, j) and (j, i), mapped to its
    slot in the Lehmer vector, the (column, row) order of ``_support``;
    per slot, whether it starts its column; and the row of each mask bit.
    A build computes it once and reads every element with it."""
    slot = {}
    for s, (i, j) in enumerate(_support(w)):
        slot[i, j] = slot[j, i] = s
    return slot, _column_starts(w), _layout(w.n)[2]


def _crossing_vector(pipes: list, table: tuple) -> tuple[int, ...] | None:
    """The Lehmer vector of w read off a routing's pipe pairs by bit, with
    ``table = _lehmer_slots(w)``, or None when a check of
    ``lehmer_vector`` fails: the crossing pairs must be exactly the
    inversions of w, one crossing each and no other pair, and the
    crossing rows distinct within each column.  Each crossing row lands
    in its pair's slot, and ``tableaux._relabel`` relabels the columns."""
    slot, starts, bit_rows = table
    entries = [0] * len(starts)
    if len(pipes) - pipes.count(None) != len(entries):
        return None
    for r, pair in zip(bit_rows, pipes):
        if pair is not None:
            s = slot.get(pair)
            # not an inversion, or an inversion crossing twice
            if s is None or entries[s]:
                return None
            entries[s] = r
    return _relabel(starts, entries)


def crosses(dream):
    """The cross boxes, row by row, left to right."""
    return tuple(
        (r, c)
        for r, row in enumerate(dream.rows, start=1)
        for c, t in enumerate(row, start=1)
        if t == CROSS
    )


def crossing_of(routing, i, j):
    """The highest box where pipes i and j cross, None if they never
    cross."""
    for box, pipes in sorted(boxes_of(routing.wiring.n, routing.pipes).items()):
        if sorted(pipes) == sorted((i, j)):
            return box
    return None


def test_boundary_must_be_elbow():
    with pytest.raises(ValueError):
        PipeDream(("CB", "E"))  # row 1 must end in E
    with pytest.raises(ValueError):
        PipeDream(("CBE", "BE", "C"))
    with pytest.raises(ValueError):
        PipeDream(("CBE", "BE"))  # missing row


def test_interior_elbow_rejected():
    with pytest.raises(ValueError):
        PipeDream(("EBE", "BE", "E"))


@pytest.mark.parametrize("rows, message", [
    (("CEE", "BE", "E"), "tile E at (1,2): elbows sit exactly on the southeast boundary"),
    (("CBE", "XE", "E"), "bad tile 'X' at (2,1)"),
    (("CXCE", "BBE", "BE", "E"), "bad tile 'X' at (1,2)"),
    (("CBE", "BBE", "E"), "row 2 has length 3, expected 2"),
    ((["C", "X", "E"], "BE", "E"), "bad tile 'X' at (1,2)"),
])
def test_rejected_rows_keep_their_messages(rows, message):
    # rows that pass the one-pass test skip the per-tile loop; every row
    # that fails it goes through the loop, which names the first bad tile
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PipeDream(rows)


def test_from_crosses():
    d = PipeDream.from_crosses(3, {(1, 1), (2, 1)})
    assert d.rows == ("CBE", "CE", "E")
    assert crosses(d) == ((1, 1), (2, 1))
    with pytest.raises(ValueError):
        PipeDream.from_crosses(3, {(1, 3)})  # boundary box


def test_all_bump_traces_identity():
    for n in range(1, 7):
        d = PipeDream.all_bump(n)
        assert trace(d).wiring == Permutation.identity(n)
        assert is_reduced(d)


def test_trace_wiring_examples():
    # single cross at (1,1) swaps pipes 1 and 2
    d = PipeDream.from_crosses(2, {(1, 1)})
    assert trace(d).wiring == Permutation.parse("21")
    # full staircase of crosses gives the longest element
    n = 4
    full = PipeDream.from_crosses(
        n, {(r, c) for r in range(1, n) for c in range(1, n + 1 - r)}
    )
    assert trace(full).wiring == Permutation.longest(n)
    assert is_reduced(full)


def test_double_crossing_not_reduced():
    # pipes 2 and 3 cross at (2,1) and uncross at (1,2): wiring is trivial
    d = PipeDream.from_crosses(3, {(1, 2), (2, 1)})
    assert trace(d).wiring == Permutation.identity(3)
    assert not is_reduced(d)
    with pytest.raises(ValueError, match="crossing-row tableau needs a reduced dream"):
        theta(d)
    # same boxes shifted left is a perfectly fine reduced dream
    assert is_reduced(PipeDream.from_crosses(3, {(1, 1), (2, 1)}))


def test_crossing_records():
    d = PipeDream.from_crosses(2, {(1, 1)})
    routing = trace(d)
    assert crossing_of(routing, 1, 2) == (1, 1)
    assert boxes_of(2, routing.pipes)[(1, 1)] in ((1, 2), (2, 1))


def test_theta_entries_are_crossing_rows():
    d = PipeDream.from_crosses(
        4, {(r, c) for r in range(1, 4) for c in range(1, 5 - r)}
    )
    t = theta(d)
    w = trace(d).wiring
    for (i, j) in sorted(w.inversions()):
        row, _col = crossing_of(trace(d), i, j)
        assert t.get(i, j) == row
    # off-diagram boxes are zero
    for (i, j) in t.boxes():
        if (i, j) not in w.inversions():
            assert t.get(i, j) == 0


def test_transpose_involution_and_wiring():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        boxes = {
            (r, c)
            for r in range(1, n)
            for c in range(1, n + 1 - r)
            if rng.random() < 0.4
        }
        d = PipeDream.from_crosses(n, boxes)
        assert transpose(transpose(d)) == d
        assert trace(transpose(d)).wiring == trace(d).wiring.inverse()


def tile_transpose(dream):
    """The reflection read box by box through ``tile``: the reference for
    ``transpose``."""
    n = dream.n
    return PipeDream(
        tuple(
            "".join(dream.tile(c, r) for c in range(1, n + 2 - r))
            for r in range(1, n + 1)
        )
    )


def tile_crosses(dream):
    """The cross boxes read through ``tile``: the reference for
    ``crosses``."""
    return tuple(b for b in dream.boxes() if dream.tile(*b) == CROSS)


def test_transpose_and_crosses_match_tile_oracles_s1_to_s6():
    for n in range(1, 7):
        for word in itertools.permutations(range(1, n + 1)):
            for d in cached_poset(Permutation(word)).elements:
                assert transpose(d) == tile_transpose(d), d.rows
                assert transpose_rows(d.rows) == tile_transpose(d).rows
                assert crosses(d) == tile_crosses(d), d.rows


@dataclasses.dataclass
class BoxRouting:
    """A routing as the reference tracers give it: the pipe pairs keyed by
    cross box, where ``Routing`` keeps them by mask bit."""

    wiring: Permutation
    cross_pipes: dict

    @property
    def reduced(self):
        pairs = {(h, v) if h < v else (v, h) for h, v in self.cross_pipes.values()}
        return len(pairs) == len(self.cross_pipes)


def boxes_of(n, pipes):
    """The pipe pairs by mask bit of ``route_crosses`` keyed by cross box,
    the bits taken rows bottom to top, each left to right."""
    boxes = [(r, c) for r in range(n - 1, 0, -1) for c in range(1, n + 1 - r)]
    return {box: pair for box, pair in zip(boxes, pipes) if pair is not None}


def box_trace(dream):
    """``trace(dream)`` with its pipe pairs keyed by cross box."""
    routing = trace(dream)
    return BoxRouting(routing.wiring, boxes_of(dream.n, routing.pipes))


def pipes_by_bit(n, cross_pipes):
    """The pairs of a box-keyed routing laid out by mask bit, as
    ``route_crosses`` gives them."""
    offsets = pipedream_module._layout(n)[0]
    pipes = [None] * offsets[0]
    for (r, c), pair in cross_pipes.items():
        pipes[offsets[r] + c - 1] = pair
    return pipes


def oracle_trace(dream):
    """Follow each pipe box by box from the west edge to the north edge: the
    reference for the row sweep in ``trace``.  Returns the routing and, per
    pipe label, the boxes the pipe passes through in order."""
    n = dream.n
    rows = dream.rows
    exit_pipe = [0] * (n + 1)
    horiz: dict[tuple[int, int], int] = {}
    vert: dict[tuple[int, int], int] = {}
    paths = []
    for pipe in range(1, n + 1):
        r, c, from_west = pipe, 1, True
        path = []
        while True:
            path.append((r, c))
            # (r, c) stays in the staircase: a pipe turns east only out of
            # a cross or bump, never out of a boundary elbow, and stops at
            # r == 0
            t = rows[r - 1][c - 1]
            if from_west:
                goes_east = t == CROSS
                if t == CROSS:
                    horiz[(r, c)] = pipe
            else:
                goes_east = t == BUMP
                if t == CROSS:
                    vert[(r, c)] = pipe
                if t == ELBOW:
                    raise TheoremViolation(
                        f"pipe {pipe} entered boundary box ({r},{c}) from the south",
                        witness={"dream": dream.to_json(), "pipe": pipe, "box": [r, c]},
                    )
            if goes_east:
                c += 1
                from_west = True
            else:
                r -= 1
                from_west = False
                if r == 0:
                    exit_pipe[c] = pipe
                    break
        paths.append(tuple(path))
    wiring = Permutation(tuple(exit_pipe[1:]))
    cross_pipes = {box: (h, vert[box]) for box, h in horiz.items()}
    return BoxRouting(wiring, cross_pipes), tuple(paths)


def assert_trace_matches_oracle(d):
    got = box_trace(d)
    want, _paths = oracle_trace(d)
    assert got.wiring == want.wiring, d.rows
    assert got.cross_pipes == want.cross_pipes, d.rows
    assert got.reduced == want.reduced, d.rows


def test_trace_matches_oracle_on_every_filling_n_le_6():
    # every cross/bump filling of the interior, reduced or not: the
    # fillings brute_force_enumerate visits
    for n in range(1, 7):
        interior = [(r, c) for r in range(1, n) for c in range(1, n + 1 - r)]
        for bits in range(1 << len(interior)):
            boxes = {interior[k] for k in range(len(interior)) if (bits >> k) & 1}
            assert_trace_matches_oracle(PipeDream.from_crosses(n, boxes))


def test_trace_matches_oracle_on_sampled_n7_and_12438765():
    for w in sampled_n7() + [Permutation.parse("12438765")]:
        for d in cached_poset(w).elements:
            assert_trace_matches_oracle(d)


def row_sweep_trace(dream):
    """Route every pipe in one sweep of the rows from bottom to top, box by
    box: the reference for the slot-swap router behind ``trace``.

    ``north[c]`` holds the pipe leaving column c of the row below and
    ``west`` the pipe coming in from the left, pipe r at column 1 of row r.
    A cross passes both straight on, a bump swaps them and an elbow turns
    ``west`` north; a pipe entering an elbow from the south is a
    TheoremViolation."""
    n = dream.n
    north = [0] * (n + 1)
    cross_pipes = {}
    for r in range(n, 0, -1):
        west = r
        for c, t in enumerate(dream.rows[r - 1], start=1):
            south = north[c]
            if t == CROSS:
                cross_pipes[(r, c)] = (west, south)
            elif t == BUMP:
                north[c], west = west, south
            elif south:
                raise TheoremViolation(
                    f"pipe {south} entered boundary box ({r},{c}) from the south",
                    witness={"dream": dream.to_json(), "pipe": south, "box": [r, c]},
                )
            else:
                north[c] = west
    return BoxRouting(Permutation(tuple(north[1:])), cross_pipes)


def _routed_or_raised(route, dream):
    """The routing's wiring and crossings, or the violation's message and
    witness."""
    try:
        routing = route(dream)
    except TheoremViolation as exc:
        return str(exc), exc.witness
    return routing.wiring, routing.cross_pipes


def cb_fillings(rng):
    """Every cross/bump filling for n <= 6, then 2,000 seeded ones for
    n = 7..9, reduced or not."""
    for n in range(1, 7):
        interior = [(r, c) for r in range(1, n) for c in range(1, n + 1 - r)]
        for bits in range(1 << len(interior)):
            yield PipeDream.from_crosses(
                n, {interior[k] for k in range(len(interior)) if (bits >> k) & 1}
            )
    for _ in range(2000):
        n = rng.randint(7, 9)
        yield PipeDream(tuple(
            "".join(rng.choice(CROSS + BUMP) for _ in range(n - r)) + ELBOW
            for r in range(1, n + 1)
        ))


def test_trace_matches_row_sweep_on_fillings_and_interior_elbows():
    # every cross/bump filling for n <= 6, 2,000 seeded ones for n = 7..9,
    # and seeded unvalidated rows with interior elbows, where the first
    # elbow in sweep order must raise with the same message and witness
    rng = random.Random(20261019)
    for d in cb_fillings(rng):
        assert _routed_or_raised(box_trace, d) == _routed_or_raised(row_sweep_trace, d), d.rows
    # one interior tile in five an elbow, and one more placed at random
    tiles = (CROSS, CROSS, BUMP, BUMP, ELBOW)
    for _ in range(500):
        n = rng.randint(2, 9)
        rows = [
            "".join(rng.choice(tiles) for _ in range(n - r)) + ELBOW for r in range(1, n + 1)
        ]
        r = rng.randint(1, n - 1)
        c = rng.randint(1, n - r)
        rows[r - 1] = rows[r - 1][: c - 1] + ELBOW + rows[r - 1][c:]
        d = _unvalidated(rows)
        got = _routed_or_raised(box_trace, d)
        assert isinstance(got[0], str), rows
        assert got == _routed_or_raised(row_sweep_trace, d), rows


def test_phi_vector_matches_the_tableau_route():
    # every element of every fiber of S_1..S_6, of the sampled n=7 fibers
    # and of one n=8 fiber; the poset stores the same vectors
    ws = [Permutation(word) for n in range(1, 7) for word in itertools.permutations(range(1, n + 1))]
    ws += sampled_n7() + [Permutation.parse("12438765")]
    for w in ws:
        poset = cached_poset(w)
        for d, stored in zip(poset.elements, poset.vectors):
            assert phi_vector(d, w) == stored, (w, d.rows)
            assert lehmer_vector(theta(d), w) == stored, (w, d.rows)


def test_consecutive_reads_route_a_dream_once():
    # trace keeps one routing, so reads of one dream in a row are routed
    # once; phi_vector routes through _route_read and leaves the cache
    # alone; check_increment_correspondence reads the dream before the
    # move, then the dream after it, each in a row
    w = Permutation.parse("14325")
    assert trace.cache_info().maxsize == 1
    for d in cached_poset(w).elements:
        trace.cache_clear()
        find_inverse_moves(d)
        phi_vector(d, w)
        theta(d)
        is_reduced(d)
        info = trace.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 1, 1), d.rows
        for mv in find_moves(d):
            trace.cache_clear()
            check_increment_correspondence(d, mv)
            assert trace.cache_info().misses == 2, (d.rows, mv)


def _raised(call):
    with pytest.raises(Exception) as exc:
        call()
    return type(exc.value), str(exc.value)


def test_phi_vector_fails_like_the_tableau_route(monkeypatch):
    doubled = PipeDream.from_crosses(3, {(1, 2), (2, 1)})
    # pipes 3 and 4 cross three times, so the crossing pairs still make
    # up the inversion set {(3, 4)} of the wiring 1243
    tripled = PipeDream.from_crosses(4, {(1, 3), (2, 2), (3, 1)})
    assert not is_reduced(doubled) and not is_reduced(tripled)
    other = cached_poset(Permutation.parse("1432")).elements[0]
    cases = [
        (doubled, trace(doubled).wiring, "needs a reduced dream"),
        (tripled, Permutation.parse("1243"), "needs a reduced dream"),
        (other, Permutation.parse("2143"), "not column-injective for 2143"),
        # 1324 and 132 have the same single inversion (2, 3)
        (cached_poset(Permutation.parse("1324")).elements[0], Permutation.parse("132"),
         "tableau n=4 but w has n=3"),
    ]
    for d, w, message in cases:
        got = _raised(lambda: phi_vector(d, w))
        assert got == _raised(lambda: lehmer_vector(theta(d), w)), (d.rows, w)
        assert got[0] is ValueError and message in got[1], got
    # a routing whose crossings are the inversions of 321 but put pipes 1
    # and 3 and pipes 2 and 3 in the same row, 1, of column 3
    w = Permutation.parse("321")
    fake = Routing(w, pipes_by_bit(3, {(2, 1): (1, 2), (1, 1): (1, 3), (1, 2): (2, 3)}))
    monkeypatch.setattr(pipedream_module, "trace", lambda d: fake)
    d = PipeDream.all_bump(3)
    got = _raised(lambda: phi_vector(d, w))
    assert got == _raised(lambda: lehmer_vector(theta(d), w))
    assert got == (ValueError, "not column-injective for 321: entry 1 repeats in column 3 (rows 1 and 2)")


def bisect_relabel(pairs):
    """The column relabel that ``tableaux._relabel`` replaced, on
    (column, entry) pairs in (column, row) order: each column's entries
    so far kept sorted, and the count of smaller ones below an entry read
    off by bisection.  None when an entry repeats in its column."""
    out = []
    column, below = None, []
    for j, v in pairs:
        if j != column:
            column, below = j, []
        at = bisect.bisect_left(below, v)
        if at < len(below) and below[at] == v:
            return None
        out.append(v - 1 - at)
        below.insert(at, v)
    return tuple(out)


def dict_crossing_vector(cross_pipes, w):
    """The box-keyed reader that ``_crossing_vector`` replaced: the
    crossing rows keyed by pipe pair, checked against the inversions of w
    as a set, and each column relabeled by ``bisect_relabel``."""
    inv = w.inversions()
    if len(cross_pipes) != len(inv):
        return None
    entries = {((h, v) if h < v else (v, h)): r for (r, _c), (h, v) in cross_pipes.items()}
    if entries.keys() != inv:
        return None
    return bisect_relabel((j, entries[i, j]) for i, j in _support(w))


def test_crossing_vector_matches_the_dict_reader():
    # the per-bit pairs of route_crosses are the box dict of the row sweep,
    # and the per-bit read gives the dict reader's vector, or None exactly
    # when it does, on every filling of cb_fillings, reduced or not, read
    # against its own wiring, that wiring with one more or one fewer
    # inversion, and a seeded random permutation
    rng = random.Random(20261020)
    outcomes = Counter()
    for d in cb_fillings(rng):
        n = d.n
        labels, pipes = route_crosses(n, _cross_mask(d.rows)[0])
        boxed = boxes_of(n, pipes)
        sweep = row_sweep_trace(d)
        assert boxed == sweep.cross_pipes, d.rows
        assert Permutation(tuple(labels[1:])) == sweep.wiring, d.rows
        ws = [sweep.wiring, Permutation(tuple(rng.sample(range(1, n + 1), n)))]
        if n > 1:
            k = rng.randrange(n - 1)
            word = list(sweep.wiring.word)
            word[k], word[k + 1] = word[k + 1], word[k]
            ws.append(Permutation(tuple(word)))
        for w in ws:
            got = _crossing_vector(pipes, _lehmer_slots(w))
            assert got == dict_crossing_vector(boxed, w), (d.rows, w)
            outcomes[got is None] += 1
    assert outcomes[True] and outcomes[False]


def test_crossing_vector_matches_the_dict_reader_on_inversion_pairs():
    # pairs drawn from the inversions of w, in either orientation, on
    # random bits: the fillings reach column repeats only through routings
    # no dream has, so these hand-made ones cover every check of the read
    rng = random.Random(20261021)
    outcomes = Counter()
    for _ in range(3000):
        n = rng.randint(2, 7)
        w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        inv = sorted(w.inversions())
        bits = n * (n - 1) // 2
        count = min(bits, max(0, len(inv) + rng.choice((-1, 0, 0, 0, 1))))
        pipes = [None] * bits
        for b in rng.sample(range(bits), count):
            i, j = rng.choice(inv) if inv else (1, 2)
            pipes[b] = (i, j) if rng.random() < 0.5 else (j, i)
        got = _crossing_vector(pipes, _lehmer_slots(w))
        assert got == dict_crossing_vector(boxes_of(n, pipes), w), (pipes, w)
        outcomes[got is None] += 1
    assert outcomes[True] and outcomes[False]


def assert_route_read_agrees(n, mask, w, pipes=None):
    """``_route_read`` against ``route_crosses`` and ``_crossing_vector``:
    the same vector, or None from both; and at each cross the slot of
    its pipe pair.  True when both refused the read."""
    if pipes is None:
        pipes = route_crosses(n, mask)[1]
    want = _crossing_vector(pipes, _lehmer_slots(w))
    got = _route_read(n, mask, _read_table(w))
    if want is None:
        assert got is None, (n, mask, w)
        return True
    vector, slots = got
    assert vector == want, (n, mask, w)
    support = _support(w)
    for b, pair in enumerate(pipes):
        if pair is not None:
            assert support[slots[b]] == tuple(sorted(pair)), (n, mask, w, b)
    return False


def test_route_read_matches_the_pipe_pair_reader_on_every_mask_n_le_5():
    outcomes = Counter()
    for n in range(1, 6):
        ws = [Permutation(word) for word in itertools.permutations(range(1, n + 1))]
        for mask in range(1 << (n * (n - 1) // 2)):
            pipes = route_crosses(n, mask)[1]
            for w in ws:
                outcomes[assert_route_read_agrees(n, mask, w, pipes)] += 1
    assert outcomes[True] and outcomes[False]


def test_route_read_matches_the_pipe_pair_reader_on_s6_fibers_and_transposes():
    # every element of every fiber of S_6, read for w, and its transpose,
    # read for w^-1, as the transpose certificate reads it
    count = 0
    for word in itertools.permutations(range(1, 7)):
        w = Permutation(word)
        for mask in cached_poset(w).cross_masks:
            assert not assert_route_read_agrees(6, mask, w)
            assert not assert_route_read_agrees(6, _transpose_mask(6, mask), w.inverse())
            count += 1
    assert count == sum(cached_poset(Permutation(word)).size
                        for word in itertools.permutations(range(1, 7)))


def _reduced_mask(rng, n):
    """The mask of a reduced dream of a seeded w of size n, and w: the
    seed dream, then a few inverse moves, each taken at random."""
    w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
    mask = _seed_mask(w)
    for _ in range(rng.randrange(6)):
        flips = [flip for _key, flip in inverse_move_scan(n, mask, route_crosses(n, mask)[1])]
        if not flips:
            break
        mask ^= rng.choice(flips)
    return mask, w


def test_route_read_matches_the_pipe_pair_reader_on_seeded_n7_to_n11():
    # half the masks are reduced dreams, read for their own wiring; the
    # other half random fillings, non-reduced; every mask is read for its
    # own wiring and for a seeded w
    rng = random.Random(20261022)
    outcomes = Counter()
    for n in range(7, 12):
        for k in range(60):
            if k % 2:
                mask, w = _reduced_mask(rng, n)
            else:
                while True:
                    mask = rng.getrandbits(n * (n - 1) // 2)
                    labels, pipes = route_crosses(n, mask)
                    w = Permutation(tuple(labels[1:]))
                    if not Routing(w, pipes).reduced:
                        break
            assert assert_route_read_agrees(n, mask, w) == (k % 2 == 0), (n, mask)
            other = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            outcomes[assert_route_read_agrees(n, mask, other)] += 1
    assert outcomes[True]


def test_rows_key_sorts_every_fiber_of_s1_to_s7_as_rows_do():
    for n in range(1, 8):
        for word in itertools.permutations(range(1, n + 1)):
            masks = cached_poset(Permutation(word)).cross_masks
            want = sorted(masks, key=lambda m: _mask_rows(n, m))
            assert sorted(masks, key=lambda m: _rows_key(n, m)) == want, word


def test_rows_key_sorts_seeded_masks_as_rows_do():
    # n = 8..12, so the top rows span two 8-bit chunks from n = 10 on;
    # beside random masks, masks one bit away from a shared one, so that
    # rows tie up to any column, and masks with the first 8 columns of
    # one row cleared, so that a row's crosses may all lie past its first
    # chunk; then n = 40, whose top row takes five chunks
    rng = random.Random(20261023)
    for n in list(range(8, 13)) + [40]:
        bits = n * (n - 1) // 2
        base = rng.getrandbits(bits)
        offsets = _layout(n)[0]
        masks = {rng.getrandbits(bits) for _ in range(150)}
        masks |= {base ^ (1 << b) for b in range(bits)}
        masks |= {base & ~(0xFF << offsets[r]) for r in range(1, n)}
        masks = list(masks)
        want = sorted(masks, key=lambda m: _mask_rows(n, m))
        assert sorted(masks, key=lambda m: _rows_key(n, m)) == want, n
        assert len({_rows_key(n, m) for m in masks}) == len(masks)


def test_dreams_from_masks_are_valid():
    # every mask for n <= 6 and seeded ones for n = 7..10: the rows made
    # without validation pass it, and read back to the mask
    rng = random.Random(20261019)
    cases = [(n, mask) for n in range(1, 7) for mask in range(1 << (n * (n - 1) // 2))]
    cases += [(n, rng.getrandbits(n * (n - 1) // 2)) for n in range(7, 11) for _ in range(500)]
    for n, mask in cases:
        d = PipeDream._from_mask(n, mask)
        assert type(d.rows) is tuple
        assert PipeDream(d.rows) == d
        assert _cross_mask(d.rows) == (mask, None), (n, mask)


def test_built_elements_equal_their_validated_copies():
    ws = [Permutation(p) for n in range(4, 7) for p in itertools.permutations(range(1, n + 1))]
    for w in ws + [Permutation.parse("12438765")]:
        for d in cached_poset(w).elements:
            copy = PipeDream(d.rows)
            assert copy == d and hash(copy) == hash(d), (w, d.rows)


# Row deletion, a lemma no check runs: deleting the last pipe of a dream in
# PD(w) gives a dream in PD(w with n dropped).


def _pipe_row_boxes(dream: PipeDream, pipe: int) -> dict[int, list[tuple[int, int]]]:
    """The boxes one pipe passes through, grouped by row, west to east."""
    by_row: dict[int, list[tuple[int, int]]] = {}
    r, c, from_west = pipe, 1, True
    while r:
        by_row.setdefault(r, []).append((r, c))
        # a pipe goes east out of a cross it entered from the west or a
        # bump it entered from the south, and north out of everything else
        if dream.rows[r - 1][c - 1] == (CROSS if from_west else BUMP):
            c, from_west = c + 1, True
        else:
            r, from_west = r - 1, False
    return by_row


def hat_delete(dream: PipeDream) -> PipeDream:
    """Remove the trace of the last pipe: in every row, delete the rightmost
    box the pipe n passes through and close the gap leftwards.  The result
    is a dream of size n-1 whose wiring is the wiring of the input with its
    largest value dropped."""
    if not is_reduced(dream):
        raise ValueError("row deletion needs a reduced dream")
    n = dream.n
    if n < 2:
        raise ValueError("nothing left after deleting from size 1")
    by_row = _pipe_row_boxes(dream, n)
    new_rows = []
    for r in range(1, n):
        boxes = by_row.get(r)
        if not boxes:
            raise TheoremViolation(
                f"pipe {n} misses row {r}",
                witness={"dream": dream.to_json(), "pipe": n, "row": r},
            )
        tiles = [dream.tile(*b) for b in boxes]
        if not (
            tiles == [CROSS]
            or (len(tiles) == 2 and tiles[0] == BUMP and tiles[1] in (BUMP, ELBOW))
        ):
            raise TheoremViolation(
                f"pipe {n} occupies {boxes} in row {r} with tiles {tiles}; "
                f"a reduced dream allows a single cross or a bump pair",
                witness={"dream": dream.to_json(), "pipe": n, "row": r,
                         "boxes": [list(b) for b in boxes]},
            )
        drop_col = max(c for (_, c) in boxes)
        row = dream.rows[r - 1]
        new_row = row[: drop_col - 1] + row[drop_col:]
        # the box arriving at the new boundary is a bump or the old elbow
        if new_row[-1] == BUMP:
            new_row = new_row[:-1] + ELBOW
        elif new_row[-1] != ELBOW:
            raise TheoremViolation(
                f"cross landed on the boundary in row {r}",
                witness={"dream": dream.to_json(), "pipe": n, "row": r},
            )
        new_rows.append(new_row)
    return PipeDream(tuple(new_rows))


def test_pipe_row_boxes_match_oracle_path_s1_to_s6():
    for n in range(1, 7):
        for word in itertools.permutations(range(1, n + 1)):
            for d in cached_poset(Permutation(word)).elements:
                _routing, paths = oracle_trace(d)
                want: dict[int, list[tuple[int, int]]] = {}
                for (r, c) in paths[n - 1]:
                    want.setdefault(r, []).append((r, c))
                assert _pipe_row_boxes(d, n) == want, d.rows


def test_hat_delete():
    # deletion drops the largest value from the wiring
    d = PipeDream.from_crosses(3, {(1, 1), (1, 2)})
    w = trace(d).wiring
    assert w == Permutation.parse("231")
    h = hat_delete(d)
    assert h.n == 2
    assert trace(h).wiring == w.delete_values_above(w.n - 1)


def test_hat_delete_maps_each_fiber_onto_the_smaller_one_s4_to_s6():
    # on all 6,514 dreams of S_4..S_6: PD(w) goes onto PD(w-hat), and the
    # crossing-row tableau of the image is the input's with column n cut
    for n in range(4, 7):
        for word in itertools.permutations(range(1, n + 1)):
            w = Permutation(word)
            images = set()
            for d in cached_poset(w).elements:
                h = hat_delete(d)
                assert theta(h) == restrict(theta(d), n - 1), d.rows
                images.add(h)
            assert images == set(cached_poset(w.delete_values_above(n - 1)).elements), word


def _unvalidated(rows):
    """A dream that skips the tile checks, to reach the guards behind them."""
    d = object.__new__(PipeDream)
    object.__setattr__(d, "rows", tuple(rows))
    return d


def test_trace_elbow_from_south_is_a_violation():
    # an interior elbow turns pipe 2 north into another elbow
    d = _unvalidated(("EE", "E"))
    with pytest.raises(TheoremViolation) as exc:
        trace(d)
    assert exc.value.witness == {"dream": {"n": 2, "rows": ["EE", "E"]}, "pipe": 2, "box": [1, 1]}


@pytest.mark.parametrize("rows, message", [
    ({}, "pipe 3 misses row 1"),
    ({1: [(1, 1)], 2: [(2, 1)]}, "a reduced dream allows a single cross or a bump pair"),
    ({1: [(1, 1), (1, 3)], 2: [(2, 1), (2, 2)]}, "cross landed on the boundary in row 1"),
])
def test_hat_delete_guards_are_violations(monkeypatch, rows, message):
    # row 1 is B C E: the stub hands hat_delete pipe-3 boxes that no real
    # trace produces, one guard per case
    d = PipeDream.from_crosses(3, {(1, 2)})
    monkeypatch.setattr(sys.modules[__name__], "_pipe_row_boxes", lambda dream, pipe: rows)
    with pytest.raises(TheoremViolation, match=message) as exc:
        hat_delete(d)
    assert exc.value.witness["dream"] == d.to_json()
    assert exc.value.witness["pipe"] == 3
    assert exc.value.witness["row"] == 1


def test_triforce_embed_wiring():
    for word in itertools.permutations(range(1, 4)):
        w = Permutation(word)
        d = PipeDream.from_crosses(
            3, {(i, c) for i, ci in enumerate(w.inverse().lehmer_code(), 1) for c in range(1, ci + 1)}
        )
        e = triforce_embed(d)
        assert e.n == 2 * w.n
        assert trace(e).wiring == w.triforce()
        assert is_reduced(e)


def test_json_round_trip():
    # a frozen slotted value: equal grids compare and hash alike, no field
    # can be set and there is no per-instance dict
    d = PipeDream.from_crosses(4, {(1, 1), (1, 3), (3, 1)})
    blob = json.dumps(d.to_json())
    back = PipeDream.from_json(json.loads(blob))
    assert back == d and back is not d and hash(back) == hash(d)
    assert len({d, back, PipeDream.all_bump(4)}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.rows = PipeDream.all_bump(4).rows
    assert not hasattr(d, "__dict__")


@pytest.mark.parametrize("n", [True, 1.0, "1", None, 2])
def test_json_n_must_be_the_integer_row_count(n):
    # True == 1 and 1.0 == 1 in Python, so an equality test alone admits them
    assert PipeDream.from_json({"n": 1, "rows": ["E"]}) == PipeDream(("E",))
    with pytest.raises(ValueError, match="n field"):
        PipeDream.from_json({"n": n, "rows": ["E"]})


def test_render_ascii():
    d = PipeDream.from_crosses(3, {(1, 1)})
    assert d.render_ascii() == "+))\n))\n)"


def test_phi_is_lehmer_of_theta():
    d = PipeDream.from_crosses(4, {(1, 1), (2, 1), (1, 3)})
    assert is_reduced(d)
    L = phi(d)
    assert L.w == trace(d).wiring
    assert sum(L.as_vector()) >= 0
