"""Schubert polynomials two ways: summed over pipe dreams, and by the
classical divided-difference recursion.  The two must agree; the package
treats agreement as a checkable fact, so both routes are independent."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import TheoremViolation
from .perm import Permutation
from .pipedream import _layout
from .poset import cached_poset

__all__ = [
    "IntPolynomial",
    "schubert_from_pipedreams",
    "schubert_oracle",
    "divided_difference",
]


def _trim(exps: tuple[int, ...]) -> tuple[int, ...]:
    k = len(exps)
    while k and exps[k - 1] == 0:
        k -= 1
    return exps[:k]


def _term_key(term: tuple[tuple[int, ...], int]) -> tuple:
    """Graded-lex key of a term (exps, coeff): total degree, then exps."""
    exps = term[0]
    return (sum(exps), exps)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial in x1, x2, ... with a canonical representation:
    terms sorted graded-lex descending, no zero coefficients, exponent
    tuples trimmed of trailing zeros.  Equal polynomials compare equal."""

    terms: tuple[tuple[tuple[int, ...], int], ...]

    @staticmethod
    def from_dict(d: dict) -> "IntPolynomial":
        clean = {}
        for exps, coeff in d.items():
            if coeff == 0:
                continue
            key = _trim(tuple(exps))
            if key and min(key) < 0:
                raise ValueError(f"negative exponent in {key}")
            clean[key] = clean.get(key, 0) + coeff
        items = [term for term in clean.items() if term[1]]
        items.sort(key=_term_key, reverse=True)
        return IntPolynomial(tuple(items))

    @staticmethod
    def zero() -> "IntPolynomial":
        return IntPolynomial(())

    @staticmethod
    def monomial(exps, coeff: int = 1) -> "IntPolynomial":
        return IntPolynomial.from_dict({tuple(exps): coeff})

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        d = dict(self.terms)
        for exps, coeff in other.terms:
            d[exps] = d.get(exps, 0) + coeff
        return IntPolynomial.from_dict(d)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        d = dict(self.terms)
        for exps, coeff in other.terms:
            d[exps] = d.get(exps, 0) - coeff
        return IntPolynomial.from_dict(d)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        d: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                m = max(len(e1), len(e2))
                a = e1 + (0,) * (m - len(e1))
                b = e2 + (0,) * (m - len(e2))
                key = tuple(x + y for x, y in zip(a, b))
                d[key] = d.get(key, 0) + c1 * c2
        return IntPolynomial.from_dict(d)

    def evaluate_ones(self) -> int:
        """Value at x1 = x2 = ... = 1."""
        return sum(coeff for _exps, coeff in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.terms:
            vars_part = " ".join(
                f"x{i}" if e == 1 else f"x{i}^{e}"
                for i, e in enumerate(exps, start=1)
                if e
            )
            if not vars_part:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(vars_part)
            else:
                parts.append(f"{coeff} * {vars_part}")
        return " + ".join(parts)


def _swap_vars(poly: IntPolynomial, r: int) -> IntPolynomial:
    d = {}
    for exps, coeff in poly.terms:
        padded = exps + (0,) * (r + 1 - len(exps))
        lst = list(padded)
        lst[r - 1], lst[r] = lst[r], lst[r - 1]
        key = tuple(lst)
        d[key] = d.get(key, 0) + coeff
    return IntPolynomial.from_dict(d)


def divided_difference(poly: IntPolynomial, r: int) -> IntPolynomial:
    """(f - s_r f) / (x_r - x_{r+1}), computed termwise by the telescoping
    identity, then re-multiplied to confirm exact division: the sum of
    q * (x_r - x_{r+1}) - f + s_r f is taken on exponent dicts, with no
    polynomial built for it, and must vanish."""
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
    rest: dict = {}
    for exps, coeff in d.items():
        # exps is padded to hold x_r and x_{r+1}; the products are trimmed
        # to match the canonical terms of f and s_r f
        lst = list(exps)
        lst[r - 1] += 1
        key = _trim(tuple(lst))
        rest[key] = rest.get(key, 0) + coeff
        lst[r - 1] -= 1
        lst[r] += 1
        key = _trim(tuple(lst))
        rest[key] = rest.get(key, 0) - coeff
    for exps, coeff in poly.terms:
        rest[exps] = rest.get(exps, 0) - coeff
    for exps, coeff in _swap_vars(poly, r).terms:
        rest[exps] = rest.get(exps, 0) + coeff
    if any(rest.values()):
        raise TheoremViolation(
            "division was not exact",
            witness={"poly": str(poly), "r": r, "quotient": str(out)},
        )
    return out


# holds all of S_6, so an S_6 sweep computes each word once
@lru_cache(maxsize=1024)
def _oracle_by_word(word: tuple[int, ...]) -> IntPolynomial:
    n = len(word)
    for r in range(1, n):
        if word[r - 1] < word[r]:
            lst = list(word)
            lst[r - 1], lst[r] = lst[r], lst[r - 1]
            return divided_difference(_oracle_by_word(tuple(lst)), r)
    return IntPolynomial.from_dict({tuple(range(n - 1, 0, -1)): 1} if n > 1 else {(): 1})


def schubert_oracle(w: Permutation) -> IntPolynomial:
    """Divided-difference recursion, independent of any pipe dream code: start
    from the staircase monomial of the longest element and walk down along
    first ascents.  The wiring convention used here reads exit labels, so
    the recursion runs on the inverse permutation."""
    return _oracle_by_word(w.inverse().word)


def schubert_from_pipedreams(w: Permutation) -> IntPolynomial:
    """One monomial per reduced pipe dream: the exponent of x_r counts the
    crosses in row r, the set bits of the row's run of the cross mask."""
    poset = cached_poset(w)
    rows = _layout(w.n)[3]
    d: dict = {}
    for mask in poset.cross_masks:
        # from_dict trims the zero count of row n
        key = tuple([((mask >> at) & bits).bit_count() for _length, at, bits in rows])
        d[key] = d.get(key, 0) + 1
    return IntPolynomial.from_dict(d)
