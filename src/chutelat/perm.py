"""Permutations in one-line notation.

The text form concatenates digits for n <= 9 ("361542") and falls back to
comma-separated values ("3,6,1,5,4,2,12,...") for larger degrees, so every
permutation round-trips through ``str`` and ``Permutation.parse``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

__all__ = ["Permutation"]


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of {1, ..., n}, stored as its one-line word."""

    word: tuple[int, ...]

    def __post_init__(self):
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        n = len(word)
        if n == 0 or sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {word!r}")

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} out of range 1..{self.n}")
        return self.word[i - 1]

    def __str__(self) -> str:
        if self.n <= 9:
            return "".join(str(v) for v in self.word)
        return ",".join(str(v) for v in self.word)

    @staticmethod
    def parse(text: str) -> "Permutation":
        """Parse the text form; inverse of ``str``.  Only ASCII digits are
        read: the whole text in digit form, each comma-separated part (give
        or take surrounding spaces) in comma form.

        >>> Permutation.parse("361542").word
        (3, 6, 1, 5, 4, 2)
        """
        text = text.strip()
        if not text:
            raise ValueError("empty permutation text")
        parts = [part.strip() for part in text.split(",")] if "," in text else list(text)
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise ValueError(f"bad permutation text: {text!r}")
        return Permutation(tuple(int(part) for part in parts))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def longest(n: int) -> "Permutation":
        """The order-reversing permutation w0 = n, n-1, ..., 1."""
        return Permutation(tuple(range(n, 0, -1)))

    # every fiber reads its inverse for the seed and for the transpose
    # check; as with ``inversions``, the bound keeps a sweep small
    @lru_cache(maxsize=64)
    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for pos, val in enumerate(self.word, start=1):
            inv[val - 1] = pos
        return Permutation(tuple(inv))

    # Every tableau of a fiber asks for the same diagram; a small bound
    # keeps an S_n sweep from holding every permutation it visits.
    @lru_cache(maxsize=64)
    def inversions(self) -> frozenset[tuple[int, int]]:
        """Value pairs (i, j), i < j, where i appears to the right of j.

        These index the boxes of the inversion diagram: (i, j) with i < j is
        an inversion exactly when inverse()(i) > inverse()(j).  Cached
        per permutation; the result is immutable, so sharing it is safe.
        """
        pos = self.inverse().word
        n = self.n
        return frozenset(
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if pos[i - 1] > pos[j - 1]
        )

    def length(self) -> int:
        """Coxeter length = number of inversions."""
        return len(self.inversions())

    def lehmer_code(self) -> tuple[int, ...]:
        """code(i) = #{j > i : word[j] < word[i]}, read right to left: the
        values right of i, kept sorted, below word[i] are the first
        ``bisect_left`` of them.

        >>> Permutation.parse("361542").lehmer_code()
        (2, 4, 0, 2, 1, 0)
        """
        seen: list[int] = []
        code = []
        for v in reversed(self.word):
            k = bisect_left(seen, v)
            code.append(k)
            seen.insert(k, v)
        return tuple(reversed(code))

    def delete_values_above(self, j: int) -> "Permutation":
        """Drop the values j+1..n from the word; the result lives in S_j."""
        if not 1 <= j <= self.n:
            raise ValueError(f"cutoff {j} out of range 1..{self.n}")
        return Permutation(tuple(v for v in self.word if v <= j))

    def triforce(self) -> "Permutation":
        """Double the degree: fix 1..n and place the reversed complement of
        the word in positions n+1..2n.  The inversions of the result are a
        shifted copy of the inversions of this permutation."""
        n = self.n
        top = list(range(1, n + 1))
        bottom = [2 * n + 1 - self.word[2 * n - i] for i in range(n + 1, 2 * n + 1)]
        return Permutation(tuple(top + bottom))
