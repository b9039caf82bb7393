import itertools
import random

import pytest

from chutelat.perm import Permutation, _diagram


def test_parse_digits():
    assert Permutation.parse("361542").word == (3, 6, 1, 5, 4, 2)


def test_parse_commas():
    w = Permutation.parse("3,6,1,5,4,2,12,7,8,9,10,11")
    assert w.n == 12
    assert w.word[6] == 12
    assert Permutation.parse(" 1, 3 ,2 ") == Permutation.parse("132")


def test_str_round_trip():
    rng = random.Random(11)
    for n in (1, 4, 9, 10, 13):
        for _ in range(20):
            word = list(range(1, n + 1))
            rng.shuffle(word)
            w = Permutation(tuple(word))
            assert Permutation.parse(str(w)) == w


# "10" reads as digits 1, 0 and 0 is out of range; the last four are text
# that int() reads (a non-ASCII digit, a sign, an underscore, a superscript)
# and str never writes
_PARSE_ERRORS = {
    "": "empty permutation text",
    "10": "not a permutation",
    "132x": "bad permutation text",
    "1,2,2": "not a permutation",
    "0,1": "not a permutation",
    "\u0662\u0661": "bad permutation text",
    "1,+3,2": "bad permutation text",
    "2,1_0,3,4,5,6,7,8,9,1": "bad permutation text",
    "1\u00b2": "bad permutation text",
}


@pytest.mark.parametrize("bad", list(_PARSE_ERRORS))
def test_parse_rejects(bad):
    with pytest.raises(ValueError, match=_PARSE_ERRORS[bad]):
        Permutation.parse(bad)


def test_not_a_permutation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation(())


def test_call_and_position_of():
    w = Permutation.parse("361542")
    assert w(2) == 6
    assert w.inverse()(6) == 2
    assert all(w(w.inverse()(v)) == v for v in range(1, 7))


def test_inverse_involution():
    for word in itertools.permutations(range(1, 6)):
        w = Permutation(word)
        assert w.inverse().inverse() == w


def test_identity_longest():
    assert Permutation.identity(4).word == (1, 2, 3, 4)
    assert Permutation.longest(4).word == (4, 3, 2, 1)
    assert Permutation.longest(4).length() == 6


def test_inversions_361542():
    w = Permutation.parse("361542")
    assert w.inversions() == frozenset(
        {(1, 3), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (4, 5), (4, 6), (5, 6)}
    )
    assert w.length() == 9


def test_inversions_cache_matches_position_pairs_and_stays_bounded():
    for word in itertools.permutations(range(1, 6)):
        w = Permutation(word)
        w.inversions()  # fills the diagram cache; the call below reads it back
        # value pairs (i, j), i < j, with i at the later position
        want = {
            (word[q], word[p])
            for p in range(5)
            for q in range(p + 1, 5)
            if word[p] > word[q]
        }
        assert w.inversions() == want, word
    for word in itertools.permutations(range(1, 7)):
        Permutation(word).inversions()
    info = _diagram.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize


def test_lehmer_code():
    assert Permutation.parse("361542").lehmer_code() == (2, 4, 0, 2, 1, 0)
    assert Permutation.parse("2143").lehmer_code() == (1, 0, 1, 0)
    for word in itertools.permutations(range(1, 6)):
        w = Permutation(word)
        assert sum(w.lehmer_code()) == w.length()


def test_delete_values_above():
    w = Permutation.parse("361542")
    assert w.delete_values_above(4).word == (3, 1, 4, 2)
    assert w.delete_values_above(6) == w
    assert w.delete_values_above(5).word == (3, 1, 5, 4, 2)


def test_triforce_361542():
    assert str(Permutation.parse("361542").triforce()) == "1,2,3,4,5,6,11,9,8,12,7,10"


def test_triforce_inversions_reflect():
    # (i, j) lands at (2n+1-j, 2n+1-i): the inversion diagram is point-reflected
    for word in itertools.permutations(range(1, 5)):
        w = Permutation(word)
        t = w.triforce()
        m = 2 * w.n + 1
        reflected = frozenset((m - j, m - i) for (i, j) in w.inversions())
        assert t.inversions() == reflected
