import itertools
import random
import sys
from collections import Counter

import pytest

from chutelat.errors import TheoremViolation
from chutelat.perm import Permutation
from chutelat.pipedream import PipeDream, theta
from chutelat.poset import cached_poset
from chutelat.tableaux import (
    InversionsTableau,
    LehmerTableau,
    StairTableau,
    _support,
    delta_multiset,
    increment,
    increment_multiset,
    lambda_shape_balanced,
    lehmer_form,
    lehmer_form_inverse,
    lehmer_leq,
    lehmer_vector,
    restrict,
    validate_inversions_tableau,
)
from test_lattice_oracle import sampled_n7

# the unique element of IT(361542) meeting all the balance facts pinned
# below, recorded from an existence scan so later tests can fix entries
T361542 = InversionsTableau(
    ((0, 1, 0, 0, 1), (2, 1, 2, 2), (0, 0, 0), (4, 4), (3,)),
    Permutation.parse("361542"),
)


def all_thetas(n):
    for word in itertools.permutations(range(1, n + 1)):
        poset = cached_poset(Permutation(word))
        for t in poset.thetas:
            yield t


# Oracles of the hook form of balance, a lemma no check runs:
# ``validate_inversions_tableau`` reads balance off the lambda shapes only.


def is_balanced(t: StairTableau) -> bool:
    n = t.n
    return all(
        lambda_shape_balanced(t, i, j, k)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for k in range(j + 1, n + 1)
    )


def hook_boxes(n: int, i: int, j: int) -> list[tuple[int, int]]:
    """The boxes of column j between rows i and j, the boxes of row i between
    columns i and j, and the corner (i, j); always of odd cardinality."""
    if not 1 <= i < j <= n:
        raise ValueError(f"({i},{j}) is not a box for n={n}")
    arm = [(i, jj) for jj in range(i + 1, j)]
    leg = [(ii, j) for ii in range(i + 1, j)]
    return arm + leg + [(i, j)]


def hook_balanced(t: StairTableau, i: int, j: int) -> bool:
    """The corner entry equals the median of the hook's entries."""
    entries = sorted(t.get(*b) for b in hook_boxes(t.n, i, j))
    if len(entries) % 2 != 1:
        raise ValueError(f"hook of ({i},{j}) has {len(entries)} boxes; a median needs an odd count")
    return t.get(i, j) == entries[len(entries) // 2]


def balance_equivalence_check(t: StairTableau) -> bool:
    """Balance can be read off shapes or hooks; both answers must agree."""
    by_shapes = is_balanced(t)
    by_hooks = all(
        hook_balanced(t, i, j) for i in range(1, t.n) for j in range(i + 1, t.n + 1)
    )
    if by_shapes != by_hooks:
        raise TheoremViolation(
            "shape balance and hook balance disagree",
            witness={"rows": t.rows, "shapes": by_shapes, "hooks": by_hooks},
        )
    return by_shapes


def test_stair_shape_validation():
    with pytest.raises(ValueError):
        StairTableau(((0, 0), (0, 0)))  # row 2 too long
    t = StairTableau(((0, 1, 0), (2, 0), (0,)))
    assert t.n == 4
    assert t.get(1, 3) == 1
    assert t.get(2, 3) == 2


def test_get_bounds():
    t = StairTableau(((0,),))
    with pytest.raises(ValueError):
        t.get(1, 1)
    with pytest.raises(ValueError):
        t.get(2, 1)


def test_with_entries_preserves_class_and_tag():
    t2 = T361542.with_entries({(1, 2): 1})
    assert isinstance(t2, InversionsTableau)
    assert t2.w == T361542.w
    assert t2.get(1, 2) == 1
    assert T361542.get(1, 2) == 0


def test_hook_boxes_361542():
    assert hook_boxes(6, 2, 6) == [
        (2, 3), (2, 4), (2, 5), (3, 6), (4, 6), (5, 6), (2, 6),
    ]
    assert len(hook_boxes(6, 1, 2)) == 1


def test_fixture_balance_facts():
    g = T361542.get
    assert g(1, 6) == 1 and {g(1, 4), g(4, 6)} == {0, 4}
    assert g(2, 5) == 2 and {g(2, 3), g(3, 5)} == {0, 2}
    vals = Counter(g(*b) for b in hook_boxes(6, 2, 6))
    assert vals == Counter([0, 1, 2, 2, 2, 3, 4])
    assert g(2, 6) == 2
    assert lambda_shape_balanced(T361542, 1, 4, 6)
    assert lambda_shape_balanced(T361542, 2, 3, 5)
    assert hook_balanced(T361542, 2, 6)
    assert validate_inversions_tableau(T361542, T361542.w)


def test_balance_equivalence_on_fiber():
    # hooks balanced iff lambda shapes balanced, and theta images satisfy
    # both, on every dream of S_4..S_6
    for n in range(4, 7):
        for t in all_thetas(n):
            assert balance_equivalence_check(t), t.rows
            assert is_balanced(t), t.rows


def test_hook_balanced_rejects_even_hook(monkeypatch):
    # hook_boxes always returns an odd count; a broken one must not slip
    # through as a wrong median, with or without -O
    monkeypatch.setattr(sys.modules[__name__], "hook_boxes", lambda n, i, j: [(i, j), (i - 1, j)])
    with pytest.raises(ValueError, match="odd count"):
        hook_balanced(T361542, 2, 6)


def test_validate_rejects_row_bound():
    t = T361542.with_entries({(1, 3): 2})  # row 1 entries must be <= 1
    res = validate_inversions_tableau(t, T361542.w)
    assert not res
    assert res.condition == "row_bound"


def test_validate_reports_row_bound_before_higher_duplicate():
    # (1,6) breaks the row bound and (2,6) then repeats its entry: the scan
    # runs bottom to top, so the lower box wins.  Without the row bound,
    # lehmer_form meets the duplicate instead
    t = T361542.with_entries({(1, 6): 2})
    res = validate_inversions_tableau(t, T361542.w)
    assert not res
    assert (res.condition, res.box) == ("row_bound", (1, 6))
    with pytest.raises(ValueError, match="entry 2 repeats in column 6"):
        lehmer_form(t, T361542.w)
    with pytest.raises(ValueError, match="entry 2 repeats in column 6"):
        lehmer_vector(t, T361542.w)


def oracle_lehmer_form(t, w):
    """The relabeling as a loop over every box, counting the smaller
    entries below by a scan: the reference for ``lehmer_vector``, which
    counts them on a bitmask of the ranks of the entries below."""
    inv = w.inversions()
    entries = t.rows
    rows = [[None] * (t.n - i) for i in range(1, t.n)]
    for j in range(2, t.n + 1):
        below: set[int] = set()
        for i in range(1, j):
            v = entries[i - 1][j - i - 1]
            if (i, j) in inv:
                missing = v - 1 - sum(1 for u in below if u < v)
                rows[i - 1][j - i - 1] = missing
            if v != 0:
                below.add(v)
    return LehmerTableau(w, tuple(tuple(r) for r in rows))


def test_lehmer_vector_is_the_vector_of_lehmer_form():
    # every theta of S_4..S_6, of the sampled n=7 fibers and of one n=8
    # fiber; the poset stores the same vectors
    ws = [Permutation(word) for n in (4, 5, 6) for word in itertools.permutations(range(1, n + 1))]
    ws += sampled_n7() + [Permutation.parse("12438765")]
    for w in ws:
        poset = cached_poset(w)
        for t, vector in zip(poset.thetas, poset.vectors):
            want = oracle_lehmer_form(t, w)
            assert lehmer_form(t, w) == want, (w, t.rows)
            assert lehmer_vector(t, w) == vector == want.as_vector(), (w, t.rows)


def test_lehmer_vector_on_large_entries():
    # a column-injective entry may be any positive int; the relabel reads
    # ranks, so a huge entry costs no huge bitmask and keeps its value
    w = T361542.w
    for big in (7, 10**6, 10**40):
        for box in ((4, 6), (5, 6), (1, 3)):
            t = T361542.with_entries({box: big + T361542.get(*box)})
            want = oracle_lehmer_form(t, w)
            assert lehmer_form(t, w) == want, (big, box)
            assert lehmer_vector(t, w) == want.as_vector(), (big, box)


def test_support_is_cached_and_bounded():
    # every vector of a fiber reads the same support, so it is sorted once
    for n in range(1, 7):
        for word in itertools.permutations(range(1, n + 1)):
            w = Permutation(word)
            assert _support(w) == tuple(sorted(w.inversions(), key=lambda b: (b[1], b[0])))
            assert _support(w) is _support(w)
    info = _support.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


def test_validate_rejects_support():
    t = T361542.with_entries({(1, 2): 1})  # (1,2) is not an inversion
    res = validate_inversions_tableau(t, T361542.w)
    assert not res
    assert res.condition == "nonzero_off_inversion"


def test_validate_rejects_column_clash():
    t = T361542.with_entries({(5, 6): 4})  # column 6 already holds a 4 at (4,6)
    res = validate_inversions_tableau(t, T361542.w)
    assert not res
    assert res.condition == "column_duplicate"
    assert "column 6" in res.message


def test_validate_rejects_unbalanced():
    # swap the two distinct column-6 entries to spoil a hook balance
    t = T361542.with_entries({(4, 6): 3, (5, 6): 4})
    res = validate_inversions_tableau(t, T361542.w)
    assert not res
    assert res.condition == "unbalanced"


def test_lehmer_form_361542():
    L = lehmer_form(T361542, T361542.w)
    assert L.w == T361542.w
    assert set(L.support()) == set(sorted(T361542.w.inversions(), key=lambda b: (b[1], b[0])))
    # by hand: tau(1,3): entry 1, below row 1 nothing, values 1..0 none missing... entry 1 -> count of k in [0] = 0
    assert L.get(1, 3) == 0
    # (4,6): entry 4; rows below 4 in column 6 hold 0,1,2; {1,2,3} minus {1,2} leaves 3 -> 1
    assert L.get(4, 6) == 1


def test_lehmer_round_trip_all_s4():
    for t in all_thetas(4):
        L = lehmer_form(t, t.w)
        back = lehmer_form_inverse(L)
        assert back == t
        assert isinstance(back, InversionsTableau)


def stepping_lehmer_form_inverse(lt: LehmerTableau) -> InversionsTableau:
    """The earlier ``lehmer_form_inverse``, which steps a candidate up one
    integer at a time, m + 1 steps for Lehmer value m."""
    n = lt.n
    rows = [[0] * (n - i) for i in range(1, n)]
    for j in range(2, n + 1):
        used: set[int] = set()
        for i in range(1, j):
            m = lt.get(i, j)
            if m is None:
                continue
            candidate = 0
            remaining = m + 1
            while remaining:
                candidate += 1
                if candidate not in used:
                    remaining -= 1
            rows[i - 1][j - i - 1] = candidate
            used.add(candidate)
    return InversionsTableau(tuple(tuple(r) for r in rows), lt.w)


def test_lehmer_form_inverse_matches_stepping_on_random_fillings():
    # arbitrary fillings of the inversion diagram of 361542 with values up
    # to 12, so used entries sit both below and above each candidate
    rng = random.Random(5)
    w = T361542.w
    for _ in range(300):
        rows = tuple(
            tuple(rng.randrange(13) if v is not None else None for v in row)
            for row in lehmer_form(T361542, w).rows
        )
        lt = LehmerTableau(w, rows)
        back = lehmer_form_inverse(lt)
        assert back == stepping_lehmer_form_inverse(lt), rows
        assert lehmer_form(back, w) == lt


def test_lehmer_round_trip_on_large_entries():
    # the entry over a Lehmer value near 10**40 is found by counting the
    # used entries below it, not by stepping up to it
    w = T361542.w
    for box in ((4, 6), (5, 6), (1, 3)):
        t = T361542.with_entries({box: 10**40 + T361542.get(*box)})
        lt = lehmer_form(t, w)
        assert lt.get(*box) > 10**40 - 6
        assert lehmer_form_inverse(lt) == t, box


def test_lehmer_leq():
    w = Permutation.parse("2143")
    poset = cached_poset(w)
    Ls = [lehmer_form(t, w) for t in poset.thetas]
    bot = min(Ls, key=lambda L: sum(L.as_vector()))
    top = max(Ls, key=lambda L: sum(L.as_vector()))
    assert lehmer_leq(bot, top)
    assert not lehmer_leq(top, bot)
    with pytest.raises(ValueError):
        lehmer_leq(bot, lehmer_form(T361542, T361542.w))


def test_lehmer_json_round_trip():
    L = lehmer_form(T361542, T361542.w)
    assert LehmerTableau.from_json(L.to_json()) == L


@pytest.mark.parametrize("cls, t", [
    (InversionsTableau, T361542),
    (LehmerTableau, lehmer_form(T361542, T361542.w)),
])
def test_tableau_json_rejects_bad_fields(cls, t):
    good = t.to_json()
    assert cls.from_json(good) == t
    # True == 1 and 1.0 == 1 in Python, so the n = 1 tableau, which has no
    # rows, is where an equality test alone would admit them
    one = cls.from_json({"n": 1, "w": "1", "rows": []})
    for n in (True, 1.0, "1", None):
        with pytest.raises(ValueError, match="n field"):
            cls.from_json({**one.to_json(), "n": n})
    bad = [
        {**good, "n": 6.0}, {**good, "n": 5},
        {k: v for k, v in good.items() if k != "n"},
        {**good, "w": 361542}, {k: v for k, v in good.items() if k != "w"},
        {k: v for k, v in good.items() if k != "rows"}, {**good, "rows": [1]}, [good],
    ]
    for obj in bad:
        with pytest.raises(ValueError):
            cls.from_json(obj)


T41865732 = theta(
    PipeDream(("CBCCCCBE", "CCCCCCE", "CBCCBE", "BBBBE", "BBBE", "CBE", "CE", "E"))
)


def test_increment_pure():
    # (3,5): entry 1 bumps to 3, no 3 above it in column 5 to displace
    t2, kind = increment(T41865732, 3, 5)
    assert kind == "pure"
    assert t2.get(3, 5) == 3
    assert t2.get(2, 5) == T41865732.get(2, 5)
    diff = [
        (i, j)
        for i in range(1, 8)
        for j in range(i + 1, 9)
        if t2.get(i, j) != T41865732.get(i, j)
    ]
    assert diff == [(3, 5)]


def test_increment_trade():
    # (3,6): the bumped-to value 3 already sits at (5,6), so the entries swap
    t2, kind = increment(T41865732, 3, 6)
    assert kind == "trade"
    assert t2.get(3, 6) == 3
    assert t2.get(5, 6) == 1
    assert T41865732.get(5, 6) == 3


def test_increment_raises_on_zero_box():
    with pytest.raises(ValueError):
        increment(T41865732, 4, 5)  # (4,5) holds 0


def test_increment_raises_lehmer_by_one():
    w = T361542.w
    for (i, j) in sorted(w.inversions(), key=lambda b: (b[1], b[0])):
        t2, _kind = increment(T361542, i, j)
        res = validate_inversions_tableau(t2, w)
        if not res:
            continue
        before = lehmer_form(T361542, w)
        after = lehmer_form(t2, w)
        for box in before.support():
            want = before.get(*box) + (1 if box == (i, j) else 0)
            assert after.get(*box) == want


def test_increments_commute():
    rng = random.Random(3)
    boxes = sorted(T361542.w.inversions(), key=lambda b: (b[1], b[0]))
    for _ in range(20):
        picks = rng.sample(boxes, 3)
        ref = increment_multiset(T361542, picks)
        order = picks[:]
        rng.shuffle(order)
        out = T361542
        for b in order:
            out, _ = increment(out, *b)
        assert out == ref


def test_delta_multiset_and_restrict():
    w = Permutation.parse("2143")
    poset = cached_poset(w)
    lo = poset.thetas[poset.idx(poset.min_element())]
    hi = poset.thetas[poset.idx(poset.max_element())]
    d = delta_multiset(lo, hi, w)
    assert d is not None and sum(d.values()) == 2
    assert delta_multiset(hi, lo, w) is None  # reverse direction is negative
    assert increment_multiset(lo, d) == hi
    cut = restrict(hi, 3)
    assert cut.n == 3
    assert cut.w == w.delete_values_above(3)


def test_delta_multiset_tag_mismatch():
    w = Permutation.parse("2143")
    poset = cached_poset(w)
    with pytest.raises(ValueError):
        delta_multiset(poset.thetas[0], T361542)


def test_theorem_violation_payload():
    exc = TheoremViolation("boom", witness={"k": 1})
    assert exc.witness == {"k": 1}
    assert "boom" in str(exc)
