import functools
import itertools

import pytest

from chutelat import schubert
from chutelat.errors import TheoremViolation
from chutelat.perm import Permutation
from chutelat.poset import cached_poset
from chutelat.schubert import (
    IntPolynomial,
    divided_difference,
    schubert_from_pipedreams,
    schubert_oracle,
)


def test_normalization():
    p = IntPolynomial.from_dict({(1, 0): 2, (1,): 3, (0, 2): 1, (2, 0, 0): 0})
    assert p.terms == (((0, 2), 1), ((1,), 5))
    assert IntPolynomial.from_dict({(1,): 1, (0, 1): -1}) - IntPolynomial.from_dict(
        {(1,): 1, (0, 1): -1}
    ) == IntPolynomial.zero()
    with pytest.raises(ValueError):
        IntPolynomial.from_dict({(-1,): 1})


def test_str_frozen():
    assert str(IntPolynomial.zero()) == "0"
    assert str(IntPolynomial.monomial((), 1)) == "1"
    assert str(IntPolynomial.monomial((1,))) == "x1"
    assert str(IntPolynomial.monomial((2, 1))) == "x1^2 x2"
    assert str(IntPolynomial.monomial((1, 1), 3)) == "3 * x1 x2"
    two_terms = IntPolynomial.from_dict({(1,): 1, (0, 1): 1})
    assert str(two_terms) == "x1 + x2"


def test_arithmetic():
    x1 = IntPolynomial.monomial((1,))
    x2 = IntPolynomial.monomial((0, 1))
    assert (x1 + x2) * (x1 - x2) == IntPolynomial.from_dict({(2,): 1, (0, 2): -1})
    assert (x1 * x2).evaluate_ones() == 1
    assert ((x1 + x2) * (x1 + x2)).evaluate_ones() == 4
    assert [c for _e, c in (x1 - x2).terms] == [1, -1]
    assert [c for _e, c in (x1 + x2).terms] == [1, 1]


def test_divided_difference_frozen():
    x1sq = IntPolynomial.monomial((2,))
    assert str(divided_difference(x1sq, 1)) == "x1 + x2"
    # symmetric input vanishes
    sym = IntPolynomial.from_dict({(1, 0): 1, (0, 1): 1})
    assert divided_difference(sym, 1) == IntPolynomial.zero()
    # degree drops by one
    out = divided_difference(IntPolynomial.monomial((0, 3)), 1)
    assert out == IntPolynomial.from_dict({(2, 0): -1, (1, 1): -1, (0, 2): -1})
    with pytest.raises(ValueError):
        divided_difference(x1sq, 0)


def test_inexact_division_is_a_violation(monkeypatch):
    # a wrong swap makes the re-multiplied quotient disagree
    monkeypatch.setattr(schubert, "_swap_vars", lambda poly, r: poly)
    with pytest.raises(TheoremViolation, match="not exact") as exc:
        divided_difference(IntPolynomial.monomial((2,)), 1)
    assert exc.value.witness == {"poly": "x1^2", "r": 1, "quotient": "x1 + x2"}


def product_divided_difference(poly: IntPolynomial, r: int) -> IntPolynomial:
    """The earlier ``divided_difference``: the same termwise quotient, with
    exact division confirmed by multiplying and subtracting whole
    polynomials, each canonicalized by ``from_dict``."""
    if r < 1:
        raise ValueError("variable index must be positive")
    d: dict = {}
    for exps, coeff in poly.terms:
        padded = exps + (0,) * (r + 1 - len(exps))
        p, q = padded[r - 1], padded[r]
        if p == q:
            continue
        sign = 1 if p > q else -1
        lo, hi = min(p, q), max(p, q)
        for k in range(lo, hi):
            lst = list(padded)
            lst[r - 1], lst[r] = k, p + q - 1 - k
            key = tuple(lst)
            d[key] = d.get(key, 0) + sign * coeff
    out = IntPolynomial.from_dict(d)
    xr = IntPolynomial.monomial((0,) * (r - 1) + (1,))
    xr1 = IntPolynomial.monomial((0,) * r + (1,))
    if out * (xr - xr1) != poly - schubert._swap_vars(poly, r):
        raise TheoremViolation(
            "division was not exact",
            witness={"poly": str(poly), "r": r, "quotient": str(out)},
        )
    return out


def _oracle_polynomials(max_n):
    """Every polynomial the oracle recursion reaches on S_1..S_max_n, with
    its number of variables n."""
    for n in range(1, max_n + 1):
        for word in itertools.permutations(range(1, n + 1)):
            yield n, schubert._oracle_by_word(word)


def test_divided_difference_matches_product_check_on_s1_to_s6():
    # every oracle polynomial of S_1..S_6, at every variable index up to n,
    # ascents and descents alike
    calls = 0
    for n, poly in _oracle_polynomials(6):
        for r in range(1, n + 1):
            assert divided_difference(poly, r) == product_divided_difference(poly, r), (poly, r)
            calls += 1
    assert calls == sum(n * len(list(itertools.permutations(range(n)))) for n in range(1, 7))


def test_inexact_division_raises_alike_on_both_checks(monkeypatch):
    # a wrong swap breaks the identity on every polynomial with a term
    # that x_r and x_{r+1} do not enter alike; both checks raise the
    # same violation with the same witness
    monkeypatch.setattr(schubert, "_swap_vars", lambda poly, r: poly)
    raised = 0
    for n, poly in _oracle_polynomials(4):
        for r in range(1, n):
            outcomes = []
            for divide in (divided_difference, product_divided_difference):
                try:
                    outcomes.append(("ok", divide(poly, r)))
                except TheoremViolation as exc:
                    outcomes.append(("raised", str(exc), exc.witness))
            assert outcomes[0] == outcomes[1], (poly, r)
            raised += outcomes[0][0] == "raised"
    assert raised > 0


def test_oracle_frozen_values():
    assert str(schubert_oracle(Permutation.parse("21"))) == "x1"
    assert str(schubert_oracle(Permutation.parse("132"))) == "x1 + x2"
    assert str(schubert_oracle(Permutation.parse("321"))) == "x1^2 x2"
    assert str(schubert_oracle(Permutation.parse("2143"))) == "x1^2 + x1 x2 + x1 x3"
    assert str(schubert_oracle(Permutation.parse("1432"))) == (
        "x1^2 x2 + x1^2 x3 + x1 x2^2 + x1 x2 x3 + x2^2 x3"
    )
    assert str(schubert_oracle(Permutation.identity(4))) == "1"


def test_pipedream_sum_matches_oracle_s4():
    for word in itertools.permutations(range(1, 5)):
        w = Permutation(word)
        assert schubert_from_pipedreams(w) == schubert_oracle(w)


@functools.lru_cache(maxsize=None)
def last_ascent_oracle(word: tuple[int, ...]) -> IntPolynomial:
    """The divided-difference recursion of ``schubert_oracle`` run on the
    same word, but down along last ascents instead of first ones."""
    n = len(word)
    for r in range(n - 1, 0, -1):
        if word[r - 1] < word[r]:
            lst = list(word)
            lst[r - 1], lst[r] = lst[r], lst[r - 1]
            return divided_difference(last_ascent_oracle(tuple(lst)), r)
    return IntPolynomial.from_dict({tuple(range(n - 1, 0, -1)): 1} if n > 1 else {(): 1})


def test_oracle_path_independence():
    # first and last ascents take different routes down from the longest
    # element on every word with two ascents; the polynomial is the same
    for n in range(1, 6):
        for word in itertools.permutations(range(1, n + 1)):
            w = Permutation(word)
            assert schubert_oracle(w) == last_ascent_oracle(w.inverse().word), word


def test_positivity_and_ones_count():
    for s in ("1432", "2143", "361542"):
        w = Permutation.parse(s)
        p = schubert_from_pipedreams(w)
        assert all(c > 0 for _e, c in p.terms)
        assert p.evaluate_ones() == cached_poset(w).size


def test_degree_equals_length():
    for word in itertools.permutations(range(1, 5)):
        w = Permutation(word)
        p = schubert_oracle(w)
        degrees = {sum(exps) for exps, _c in p.terms} or {0}
        assert degrees == {w.length()}


def test_oracle_memo_is_bounded_and_holds_all_of_s6():
    # the memo is bounded, yet a pass over S_6 computes each word once:
    # the recursion only reaches words of S_6, and all 720 fit, so a
    # second pass computes nothing
    perms = [Permutation(word) for word in itertools.permutations(range(1, 7))]
    schubert._oracle_by_word.cache_clear()
    for _ in range(2):
        for w in perms:
            schubert_oracle(w)
        info = schubert._oracle_by_word.cache_info()
        assert info.maxsize is not None and info.maxsize >= 720
        assert info.misses == info.currsize == 720
