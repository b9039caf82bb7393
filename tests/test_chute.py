import dataclasses
import itertools
import random
import re

import pytest

from chutelat.chute import (
    ChuteMove,
    _swapped,
    apply,
    check_increment_correspondence,
    find_inverse_moves,
    find_moves,
    inverse_apply,
    moved_rows,
    vertical_pipes,
)
from chutelat.perm import Permutation
from chutelat.pipedream import PipeDream, is_reduced, theta, trace
from chutelat.poset import cached_poset, seed_dream
from chutelat.tableaux import lehmer_form
from test_pipedream import crosses

FIXTURE = PipeDream(("CBCCCCBE", "CCCCCCE", "CBCCBE", "BBBBE", "BBBE", "CBE", "CE", "E"))


def test_move_rejects_degenerate_rectangles():
    with pytest.raises(ValueError):
        ChuteMove(2, 2, 1, 3, 1, 2)  # single row
    with pytest.raises(ValueError):
        ChuteMove(1, 2, 3, 3, 1, 2)  # single column
    with pytest.raises(ValueError):
        ChuteMove(2, 1, 1, 3, 1, 2)  # inverted rows
    with pytest.raises(ValueError):
        ChuteMove(1, 2, 1, 3, 4, 4)  # pipes must be a strict pair


def test_move_json_round_trip():
    # a frozen slotted value: equal moves compare and hash alike, no field
    # can be set and there is no per-instance dict
    m = ChuteMove(1, 3, 2, 5, 3, 5)
    back = ChuteMove.from_json(m.to_json())
    assert back == m and back is not m and hash(back) == hash(m)
    assert len({m, back, ChuteMove(1, 3, 2, 5, 2, 5)}) == 2
    assert m.to_json() == {"rect": [1, 3, 2, 5], "pipes": [3, 5]}
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.top = 2
    assert not hasattr(m, "__dict__")


def test_seed_has_no_up_moves():
    # the seed tops the order, so nothing applies there
    for word in itertools.permutations(range(1, 5)):
        assert find_moves(seed_dream(Permutation(word))) == []


def test_chain_2143_frozen():
    bottom = PipeDream(("CBCE", "BBE", "BE", "E"))
    mid = PipeDream(("CBBE", "BCE", "BE", "E"))
    top = PipeDream(("CBBE", "BBE", "CE", "E"))
    m1 = ChuteMove(1, 2, 2, 3, 3, 4)
    m2 = ChuteMove(2, 3, 1, 2, 3, 4)
    assert find_moves(bottom) == [m1]
    assert apply(bottom, m1) == mid
    assert find_moves(mid) == [m2]
    assert apply(mid, m2) == top
    assert find_moves(top) == []
    assert find_inverse_moves(bottom) == []
    assert find_inverse_moves(mid) == [m1]
    assert find_inverse_moves(top) == [m2]
    assert inverse_apply(top, m2) == mid
    assert inverse_apply(mid, m1) == bottom
    assert seed_dream(Permutation.parse("2143")) == top


def test_apply_rejects_mismatched_pattern():
    bottom = PipeDream(("CBCE", "BBE", "BE", "E"))
    with pytest.raises(ValueError):
        apply(bottom, ChuteMove(2, 3, 1, 2, 3, 4))
    with pytest.raises(ValueError):
        inverse_apply(bottom, ChuteMove(1, 2, 2, 3, 3, 4))
    # rows 2..3, columns 1..3 would reach box (3, 3), outside the staircase
    for step in (apply, inverse_apply):
        with pytest.raises(ValueError):
            step(bottom, ChuteMove(2, 3, 1, 3, 1, 2))


def test_moved_rows_rejects_what_apply_and_inverse_apply_reject():
    bottom = PipeDream(("CBCE", "BBE", "BE", "E"))
    # the first rectangle has the wrong tiles, the second would reach box
    # (3, 3), outside the staircase
    for move in (ChuteMove(2, 3, 1, 2, 3, 4), ChuteMove(2, 3, 1, 3, 1, 2)):
        for undo, step, words in (
            (True, inverse_apply, "cannot be undone here"),
            (False, apply, "is not applicable"),
        ):
            message = f"^move {re.escape(str(move))} {words}$"
            with pytest.raises(ValueError, match=message):
                moved_rows(bottom, move, undo=undo)
            with pytest.raises(ValueError, match=message):
                step(bottom, move)


def test_unchecked_swap_matches_moved_rows_on_every_move():
    # the build swaps the corners of each move find_inverse_moves returns
    # without moved_rows' tile check; both give the same rows
    words = [w for n in range(1, 7) for w in itertools.permutations(range(1, n + 1))]
    words.append(Permutation.parse("12438765").word)
    swaps = 0
    for word in words:
        for d in cached_poset(Permutation(word)).elements:
            for mv in find_inverse_moves(d):
                assert _swapped(d.rows, mv, undo=True) == moved_rows(d, mv, undo=True)
                swaps += 1
            for mv in find_moves(d):
                assert _swapped(d.rows, mv, undo=False) == moved_rows(d, mv)
    # 12438765 alone has 10,654 move edges, each undone once in its build
    assert swaps > 10_654


def test_apply_preserves_wiring_and_crosses():
    rng = random.Random(20260816)
    words = [tuple(rng.sample(range(1, 6), 5)) for _ in range(6)]
    for word in set(words):
        w = Permutation(word)
        for d in cached_poset(w).index:
            for m in find_moves(d):
                d2 = apply(d, m)
                assert trace(d2).wiring == w
                assert is_reduced(d2)
                assert len(crosses(d2)) == len(crosses(d))
                assert inverse_apply(d2, m) == d
                assert m in find_inverse_moves(d2)


def test_moves_sorted_by_position():
    ms = find_moves(FIXTURE)
    assert [(m.rect, m.pipes) for m in ms] == [
        ((1, 3, 2, 5), (3, 5)),
        ((3, 4, 2, 3), (5, 8)),
    ]
    assert ms == sorted(ms, key=lambda m: (m.top, m.left, m.bottom, m.right))


def test_vertical_pipes_fixture():
    m = find_moves(FIXTURE)[0]
    labels = vertical_pipes(FIXTURE, m)
    assert labels == (6, 8)
    assert all(y > m.pipe_hi for y in labels)


def test_increment_report_fixture():
    m = find_moves(FIXTURE)[0]
    rep = check_increment_correspondence(FIXTURE, m)
    assert rep.to_json() == {
        "box": [3, 5],
        "vertical": [6, 8],
        "p0": 1,
        "q0": 3,
        "increments": [[3, 5], [3, 6], [3, 8]],
    }


def test_increment_correspondence_s4():
    # each box of the report's B rises by exactly one on the Lehmer side
    for word in itertools.permutations(range(1, 5)):
        w = Permutation(word)
        for d in cached_poset(w).index:
            for m in find_moves(d):
                rep = check_increment_correspondence(d, m)
                assert rep.box == m.pipes
                assert rep.increments[0] == rep.box
                l1 = lehmer_form(theta(d), w)
                l2 = lehmer_form(theta(apply(d, m)), w)
                diffs = {
                    b: l2.get(*b) - l1.get(*b)
                    for b in l1.support()
                    if l2.get(*b) != l1.get(*b)
                }
                assert diffs == {b: 1 for b in rep.increments}
