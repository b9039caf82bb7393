"""Permutations in one-line notation and their inversion diagrams.

The text form concatenates digits for n <= 9 ("361542") and falls back to
comma-separated values ("3,6,1,5,4,2,12,...") for larger degrees, so every
permutation round-trips through ``str`` and ``Permutation.parse``.

The inversion diagram of w is made once per w, by ``_diagram``, and every
reader of it in the package reads that one record.
"""

from __future__ import annotations

from collections import namedtuple
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

    # the transpose check and the Schubert oracle read the inverse of each
    # fiber's w; as with ``_diagram``, the bound keeps a sweep small
    @lru_cache(maxsize=64)
    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for pos, val in enumerate(self.word, start=1):
            inv[val - 1] = pos
        return Permutation(tuple(inv))

    def inversions(self) -> frozenset[tuple[int, int]]:
        """Value pairs (i, j), i < j, where i appears to the right of j:
        the boxes of the inversion diagram (``_diagram``)."""
        return frozenset(_diagram(self).boxes)

    def length(self) -> int:
        """Coxeter length = number of inversions."""
        return len(_diagram(self).boxes)

    def lehmer_code(self) -> tuple[int, ...]:
        """code(i) = #{j > i : word[j] < word[i]}: the values below
        word[i] right of it, the boxes of column word[i] of the diagram.

        >>> Permutation.parse("361542").lehmer_code()
        (2, 4, 0, 2, 1, 0)
        """
        cols = _diagram(self).cols
        return tuple(cols[v] for v in self.word)

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


_Diagram = namedtuple("_Diagram", "boxes starts slot rows cols")


# every tableau, read and move of a fiber asks for the same diagram; the
# bound keeps a sweep small, and the record holds tuples only
@lru_cache(maxsize=64)
def _diagram(w: Permutation) -> _Diagram:
    """The inversion diagram of w, read column by column off the positions
    of the values: (i, j), i < j, is a box when i sits right of j.
    ``boxes`` lists them in (column, row) order, a Lehmer vector's, and
    ``starts`` flags the lowest of each column; ``slot`` holds box (i, j)'s
    index at i * (n + 1) + j and at j * (n + 1) + i, and -1 off the
    diagram; ``rows[k]`` and ``cols[k]``, k = 0..n, count the boxes of
    row k and column k, the Lehmer codes of w^-1 at k and of w where k
    sits."""
    width = len(w.word) + 1
    pos = [0] * width
    for p, v in enumerate(w.word, start=1):
        pos[v] = p
    boxes, starts = [], []
    slot = [-1] * (width * width)
    rows, cols = [0] * width, [0] * width
    for j in range(2, width):
        at, first = pos[j], len(boxes)
        for i in range(1, j):
            if pos[i] > at:
                slot[i * width + j] = slot[j * width + i] = len(boxes)
                starts.append(len(boxes) == first)
                boxes.append((i, j))
                rows[i] += 1
        cols[j] = len(boxes) - first
    return _Diagram(tuple(boxes), tuple(starts), tuple(slot), tuple(rows), tuple(cols))
