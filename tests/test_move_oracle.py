"""The fast move search and build against the slow routes they replaced.

The rectangle oracle tries every rectangle of the staircase, box by box,
which is O(n^4) rectangles per dream; the fast path in ``chutelat.chute``
scans one corner per cross.  Both must return the same moves, in the same
order and with the same pipe pairs.

``swapped_rows`` and ``tile_vertical_pipes`` are the string routes that
``apply``, ``inverse_apply`` and ``vertical_pipes`` replaced: the first
swaps a move's two corner tiles, the second reads the rectangle's columns
tile by tile.  Both must give what the mask routes give on every move.

``per_cross_inverse_scan`` is the inverse move scan that
``inverse_move_scan`` replaced: one climb per southwest cross, where the
fast scan climbs once per run of crosses.  Both must return the same
list, in the same order, on every mask of n <= 6, reduced or not, and on
seeded masks of n = 7..11.

``two_way_enumerate`` is the undirected search by moves and inverse moves
that ``enumerate_poset`` used before it searched downward from the top
dream alone.  Both must build the same poset: the same elements in the
same canonical order, the same move rows and the same covers.
"""

import itertools
import random

import pytest

from chutelat import chute
from chutelat.chute import (
    ChuteMove,
    apply,
    find_inverse_moves,
    find_moves,
    inverse_apply,
    vertical_pipes,
)
from chutelat.perm import Permutation
from chutelat.pipedream import BUMP, CROSS, ELBOW, PipeDream, _layout, route_crosses, theta, trace
from chutelat.poset import (
    ChutePoset,
    brute_force_enumerate,
    cached_poset,
    enumerate_poset,
    seed_dream,
)
from chutelat.schubert import schubert_oracle
from chutelat.tableaux import lehmer_vector
from test_pipedream import boxes_of


def _rect_boxes(t, b, l, r):
    for row in range(t, b + 1):
        for col in range(l, r + 1):
            yield (row, col)


def _matches(dream, t, b, l, r, after):
    """Tile pattern of a move rectangle, before (after=False) or after the
    move.  Each box must satisfy every corner constraint that names it, so
    degenerate rectangles fail by contradiction, never by a size filter."""
    if b + r > dream.n + 1:
        return False
    for (row, col) in _rect_boxes(t, b, l, r):
        allowed = {CROSS, BUMP, ELBOW}
        if (row, col) == (t, l):
            allowed &= {BUMP}
        if (row, col) == (b, l):
            allowed &= {CROSS} if after else {BUMP}
        if (row, col) == (t, r):
            allowed &= {BUMP} if after else {CROSS}
        if (row, col) == (b, r):
            allowed &= {BUMP, ELBOW}
        if (row, col) not in ((t, l), (b, l), (t, r), (b, r)):
            allowed &= {CROSS}
        if dream.tile(row, col) not in allowed:
            return False
    return True


def _all_rects(n):
    """Every rectangle in the staircase, degenerate ones included; the
    pattern matcher is what rules the degenerate ones out."""
    for t in range(1, n + 1):
        for b in range(t, n + 1):
            for l in range(1, n + 1):
                for r in range(l, n + 2 - b):
                    yield (t, b, l, r)


def oracle_moves(dream, after=False):
    """Up-moves of the dream (after=False) or the moves producing it,
    sorted by (top, left, bottom, right).  The pipe pair is read at the
    northeast corner before a move and at the southwest corner after it."""
    cross_pipes = boxes_of(dream.n, trace(dream).pipes)
    out = []
    for (t, b, l, r) in _all_rects(dream.n):
        if _matches(dream, t, b, l, r, after):
            h, v = cross_pipes[(b, l) if after else (t, r)]
            out.append(ChuteMove(t, b, l, r, min(h, v), max(h, v)))
    out.sort(key=lambda m: (m.top, m.left, m.bottom, m.right))
    return out


def assert_agrees(dream):
    assert find_moves(dream) == oracle_moves(dream), dream
    assert find_inverse_moves(dream) == oracle_moves(dream, after=True), dream


def test_moves_match_oracle_s4_to_s6():
    for n in (4, 5, 6):
        for word in itertools.permutations(range(1, n + 1)):
            for d in cached_poset(Permutation(word)).elements:
                assert_agrees(d)


@pytest.mark.parametrize(
    "n, named",
    [(7, "1327654"), (8, "12438765"), (9, "132549876"), (10, "1,3,2,5,4,10,9,8,7,6")],
)
def test_moves_match_oracle_sampled_n7_n8(n, named):
    # a seeded walk along the oracle's own moves from the seed dream of
    # each sampled permutation, checking the fast path at every step
    rng = random.Random(20261017 + n)
    words = [Permutation.parse(named)]
    words += [Permutation(tuple(rng.sample(range(1, n + 1), n))) for _ in range(4)]
    for w in words:
        d = seed_dream(w)
        for _ in range(40):
            assert_agrees(d)
            steps = [(apply, m) for m in oracle_moves(d)]
            steps += [(inverse_apply, m) for m in oracle_moves(d, after=True)]
            if not steps:
                break
            step, m = rng.choice(steps)
            d = step(d, m)
            assert trace(d).wiring == w


def swapped_rows(rows, move, undo=False):
    """The rows with the move's two corner tiles swapped, unchecked: the
    southwest bump becomes a cross and the northeast cross a bump, or the
    reverse with ``undo``."""
    t, b, l, r = move.rect
    southwest, northeast = (BUMP, CROSS) if undo else (CROSS, BUMP)
    out = list(rows)
    out[b - 1] = out[b - 1][: l - 1] + southwest + out[b - 1][l:]
    out[t - 1] = out[t - 1][: r - 1] + northeast + out[t - 1][r:]
    return tuple(out)


def tile_vertical_pipes(dream, move):
    """The pipes through the columns of the rectangle that are crosses on
    every row top..bottom, read tile by tile and named at the bottom box."""
    cross_pipes = boxes_of(dream.n, trace(dream).pipes)
    t, b, l, r = move.rect
    labels = [
        cross_pipes[(b, col)][1]
        for col in range(l, r + 1)
        if all(dream.tile(row, col) == CROSS for row in range(t, b + 1))
    ]
    return tuple(sorted(labels))


def test_apply_undo_and_vertical_pipes_match_tile_oracles():
    words = [w for n in range(4, 7) for w in itertools.permutations(range(1, n + 1))]
    words.append(Permutation.parse("12438765").word)
    moves = 0
    for word in words:
        for d in cached_poset(Permutation(word)).elements:
            for mv in find_moves(d):
                after = apply(d, mv)
                assert after.rows == swapped_rows(d.rows, mv), (d, mv)
                assert vertical_pipes(d, mv) == tile_vertical_pipes(d, mv), (d, mv)
                assert vertical_pipes(after, mv) == tile_vertical_pipes(after, mv), (d, mv)
                moves += 1
            for mv in find_inverse_moves(d):
                assert inverse_apply(d, mv).rows == swapped_rows(d.rows, mv, undo=True), (d, mv)
    # 12438765 alone has 10,654 move edges
    assert moves > 10_654


def per_cross_inverse_scan(n, mask, pipes):
    """The moves that produce the dream of cross mask ``mask``, one climb
    per southwest cross (b, l): r is the nearest non-cross to its right,
    and the top is the first row above whose span l..r is not all
    crosses, which must read B C...C B."""
    offsets = _layout(n)[0]
    rows = chute._row_ints(n, mask)
    out = []
    for b in range(2, n):
        row = rows[b]
        at = offsets[b]
        while row:
            low = row & -row
            # adding the run's lowest bit clears the run and carries into r
            r = ((row + low) & ~row).bit_length()
            east = 1 << (r - 1)
            for l in range(low.bit_length(), r):
                west = 1 << (l - 1)
                full = (east << 1) - west
                t = b - 1
                while t and rows[t] & full == full:
                    t -= 1
                # the top row reads B C...C B on columns l..r
                if t and rows[t] & full == full - west - east:
                    flip = (west << at) | (east << offsets[t])
                    out.append(((t, b, l, r, pipes[at + l - 1]), flip))
            row &= row + low
    return out


def assert_inverse_scans_agree(n, mask):
    pipes = route_crosses(n, mask)[1]
    assert chute.inverse_move_scan(n, mask, pipes) == per_cross_inverse_scan(n, mask, pipes), (n, mask)


def test_run_scan_matches_per_cross_scan_on_every_mask_n2_to_n6():
    masks = 0
    for n in range(2, 7):
        for mask in range(1 << (n * (n - 1) // 2)):
            assert_inverse_scans_agree(n, mask)
            masks += 1
    assert masks == 33_866


def test_run_scan_matches_per_cross_scan_on_seeded_masks_n7_to_n11():
    rng = random.Random(20261020)
    for n in range(7, 12):
        bits = n * (n - 1) // 2
        for _ in range(300):
            assert_inverse_scans_agree(n, rng.getrandbits(bits))
            # dense masks have long runs and tall climbs
            assert_inverse_scans_agree(n, rng.getrandbits(bits) | rng.getrandbits(bits))
    for d in cached_poset(Permutation.parse("132549876")).elements[::7]:
        assert_inverse_scans_agree(9, chute._cross_mask(d.rows)[0])


def two_way_enumerate(w: Permutation) -> ChutePoset:
    """Undirected breadth-first closure of the seed dream under moves and
    inverse moves, searching each element once.  The up-moves found on the
    way are the poset's move edges, kept against discovery ids so that each
    dream is stored once.  The seed's wiring is re-checked at runtime; a
    mismatch means the seed construction itself is broken, so it aborts
    loudly."""
    seed = seed_dream(w)
    if trace(seed).wiring != w:
        raise RuntimeError(f"seed dream traces to {trace(seed).wiring}, wanted {w}")
    ids = {seed: 0}
    dreams = [seed]
    depth = [0]
    up = []

    def visit(e: PipeDream, k: int) -> int:
        j = ids.get(e)
        if j is None:
            j = ids[e] = len(dreams)
            dreams.append(e)
            depth.append(depth[k] + 1)
        return j

    # dreams grows while it is walked, which makes it the BFS queue
    for k, d in enumerate(dreams):
        up.append([(mv, visit(chute.apply(d, mv), k)) for mv in chute.find_moves(d)])
        for mv in chute.find_inverse_moves(d):
            visit(chute.inverse_apply(d, mv), k)
    order = sorted(range(len(dreams)), key=lambda k: (depth[k], dreams[k].rows))
    canon = [0] * len(order)
    for pos, k in enumerate(order):
        canon[k] = pos
    moves_up = tuple(tuple((mv, canon[j]) for mv, j in up[k]) for k in order)
    elements = tuple(dreams[k] for k in order)
    vectors = tuple(lehmer_vector(theta(d), w) for d in elements)
    return ChutePoset(w, elements, vectors, moves_up)


def assert_builds_agree(w: Permutation) -> ChutePoset:
    fast, slow = enumerate_poset(w), two_way_enumerate(w)
    assert fast.elements == slow.elements, str(w)
    assert fast.vectors == slow.vectors, str(w)
    assert [fast.moves_up_idx(k) for k in range(fast.size)] == [
        slow.moves_up_idx(k) for k in range(slow.size)
    ], str(w)
    assert [fast.covers_up_idx(k) for k in range(fast.size)] == [
        slow.covers_up_idx(k) for k in range(slow.size)
    ], str(w)
    return fast


def test_downward_build_matches_two_way_s4_to_s6():
    for n in (4, 5, 6):
        for word in itertools.permutations(range(1, n + 1)):
            w = Permutation(word)
            fast = assert_builds_agree(w)
            assert frozenset(fast.elements) == brute_force_enumerate(w), str(w)


def _sampled_n7_n8():
    rng = random.Random(20261018)
    words = [Permutation(tuple(rng.sample(range(1, 8), 7))) for _ in range(4)]
    return words + [Permutation.parse("1327654"), Permutation.parse("12438765")]


@pytest.mark.parametrize("w", _sampled_n7_n8(), ids=str)
def test_downward_build_matches_two_way_sampled_n7_n8(w):
    fast = assert_builds_agree(w)
    assert fast.size == schubert_oracle(w).evaluate_ones()


def test_downward_build_size_matches_schubert_on_seeded_n8():
    rng = random.Random(20261019)
    for _ in range(4):
        w = Permutation(tuple(rng.sample(range(1, 9), 8)))
        assert enumerate_poset(w).size == schubert_oracle(w).evaluate_ones(), str(w)


def test_downward_build_constructs_each_element_once(monkeypatch):
    # inverse moves are deduplicated by mask, and the build makes one
    # dream, the seed's, for its checks: 10,654 move edges, 3003 masks, no
    # dream validated.  The poset makes the 3003 dreams from their masks
    # on first read, whose rows are valid by construction, and validates
    # none
    validated, from_masks = [], []
    validate = PipeDream.__post_init__
    from_mask = PipeDream._from_mask

    def counting_validate(self):
        validated.append(self.rows)
        validate(self)

    def counting_from_mask(n, mask):
        dream = from_mask(n, mask)
        from_masks.append(dream.rows)
        return dream

    w = Permutation.parse("12438765")
    seed_rows = seed_dream(w).rows
    monkeypatch.setattr(PipeDream, "__post_init__", counting_validate)
    monkeypatch.setattr(PipeDream, "_from_mask", staticmethod(counting_from_mask))
    poset = enumerate_poset(w)
    assert validated == [] and from_masks == [seed_rows]
    assert len(poset._targets) == 10654
    assert len(poset.cross_masks) == len(set(poset.cross_masks)) == 3003
    from_masks.clear()
    assert poset.size == len(poset.elements) == len(from_masks) == 3003
    assert validated == [] and poset.elements[0].rows == seed_rows
    assert sorted(from_masks) == sorted(d.rows for d in poset.elements)
