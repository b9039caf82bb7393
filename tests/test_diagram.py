"""``perm._diagram`` against the derivations it replaced.

One cached record per word now carries the inversion diagram: its boxes
in Lehmer-vector order, the column starts, the pair-to-box table and the
row and column counts.  The routes it replaced are kept here verbatim as
its oracle: ``tableaux._support`` and ``_column_starts``, the pair loop
of ``Permutation.inversions``, the bisecting ``lehmer_code``, the slot
loop of ``pipedream._read_table`` and ``poset._seed_mask`` read off the
Lehmer code of w^-1.  None of them reads ``_diagram``.
"""

import itertools
import random
from bisect import bisect_left

from chutelat.perm import Permutation, _diagram
from chutelat.pipedream import _layout, _read_table
from chutelat.poset import _seed_mask


def oracle_support(w):
    """The inversion diagram of w in (column, row) order, read column by
    column off the positions of the values: (i, j) with i < j is an
    inversion when i sits right of j."""
    pos = w.inverse().word
    return tuple([
        (i, j)
        for j, at in enumerate(pos[1:], start=2)
        for i, p in enumerate(pos[: j - 1], start=1)
        if p > at
    ])


def oracle_column_starts(w):
    """Per box of ``oracle_support(w)``, whether it is the lowest of its column."""
    support = oracle_support(w)
    return tuple(s == 0 or support[s - 1][1] != j for s, (_i, j) in enumerate(support))


def oracle_inversions(w):
    """Value pairs (i, j), i < j, where i appears to the right of j."""
    pos = w.inverse().word
    n = w.n
    return frozenset(
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if pos[i - 1] > pos[j - 1]
    )


def oracle_lehmer_code(w):
    """code(i) = #{j > i : word[j] < word[i]}, read right to left: the
    values right of i, kept sorted, below word[i] are the first
    ``bisect_left`` of them."""
    seen = []
    code = []
    for v in reversed(w.word):
        k = bisect_left(seen, v)
        code.append(k)
        seen.insert(k, v)
    return tuple(reversed(code))


def oracle_read_table(w):
    """The table ``_route_read`` used to read with: per mask bit its west
    slot and row, the Lehmer slot of each pair in a flat (n + 1)^2 tuple,
    the column starts, and the labels and zeros a read copied to start
    from, which ``_route_read`` now makes itself."""
    width = w.n + 1
    slot = [-1] * (width * width)
    for s, (i, j) in enumerate(oracle_support(w)):
        slot[i * width + j] = slot[j * width + i] = s
    west, rows = _layout(w.n)[1:3]
    return west, rows, tuple(slot), oracle_column_starts(w), tuple(range(width)), (0,) * len(west)


def oracle_seed_mask(w):
    """Row i of the seed dream holds crosses in columns 1..c(i), c the
    Lehmer code of w^-1 (here the bisecting one)."""
    offsets = _layout(w.n)[0]
    mask = 0
    for i, c in enumerate(oracle_lehmer_code(w.inverse()), start=1):
        mask |= ((1 << c) - 1) << offsets[i]
    return mask


def simple_transposition(n, k):
    word = list(range(1, n + 1))
    word[k - 1], word[k] = word[k], word[k - 1]
    return Permutation(tuple(word))


def words():
    """Every word of S_1..S_7, then seeded words of n = 8..40 and S_40's
    identity, w0, s_1, s_20 and s_39."""
    for n in range(1, 8):
        for word in itertools.permutations(range(1, n + 1)):
            yield Permutation(word)
    rng = random.Random(20261022)
    for n in range(8, 41):
        for _ in range(5):
            yield Permutation(tuple(rng.sample(range(1, n + 1), n)))
    yield Permutation.identity(40)
    yield Permutation.longest(40)
    for k in (1, 20, 39):
        yield simple_transposition(40, k)


def test_diagram_matches_the_routes_it_replaced():
    count = 0
    for w in words():
        d = _diagram(w)
        assert d is _diagram(w), w
        support, code = oracle_support(w), oracle_lehmer_code(w)
        assert d.boxes == support, w
        assert d.starts == oracle_column_starts(w), w
        table = oracle_read_table(w)
        assert d.slot == table[2], w
        assert d.rows == (0, *oracle_lehmer_code(w.inverse())), w
        assert d.cols == (0, *(code[p - 1] for p in w.inverse().word)), w
        assert w.inversions() == oracle_inversions(w) == frozenset(support), w
        assert w.length() == len(support), w
        assert w.lehmer_code() == code, w
        assert _read_table(w) == table[:4], w
        assert _seed_mask(w) == oracle_seed_mask(w), w
        count += 1
    assert count == 1 + 2 + 6 + 24 + 120 + 720 + 5040 + 33 * 5 + 5
    info = _diagram.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


def test_the_record_is_the_only_diagram_cache():
    # the readers keep no cache of their own
    assert not hasattr(Permutation.inversions, "cache_info")
    assert not hasattr(_read_table, "cache_info")
    w = Permutation.parse("361542")
    assert _diagram(w) is _diagram(Permutation.parse("361542"))
