"""Staircase tableaux over the inversion diagram and the Lehmer bijection.

Boxes live in the reflected-French staircase {(i, j) : 1 <= i < j <= n}:
row i is the i-th row from the bottom, column j runs from 2 to n, and "below
box (i, j)" always means the boxes (i', j) with i' < i.  A tableau stores
row i at ``rows[i-1]`` as the entries of (i, i+1), ..., (i, n).

Three nested families appear here:

* column-injective tableaux for w: zero exactly off the inversion diagram
  of w, nonzero entries distinct within each column;
* inversions tableaux IT(w): column-injective, balanced, and bounded by the
  row index (row i holds entries <= i); these are the images of reduced
  pipe dreams under the crossing-row map;
* Lehmer tableaux: the image of the column-injective family under the
  column-local relabeling ``lehmer_form``, ordered componentwise.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .perm import Permutation

__all__ = [
    "StairTableau",
    "InversionsTableau",
    "LehmerTableau",
    "ValidationResult",
    "validate_inversions_tableau",
    "lambda_shape_balanced",
    "lehmer_vector",
    "lehmer_form",
    "lehmer_form_inverse",
    "increment",
    "increment_multiset",
    "delta_multiset",
    "restrict",
    "lehmer_leq",
]


def _check_stair_shape(rows, allow_none=False):
    n = len(rows) + 1
    for i, row in enumerate(rows, start=1):
        if len(row) != n - i:
            raise ValueError(
                f"row {i} has {len(row)} entries, expected {n - i}"
            )
        for v in row:
            if v is None and allow_none:
                continue
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"bad entry {v!r} in row {i}")


@dataclass(frozen=True, eq=False)
class StairTableau:
    """Nonnegative filling of the staircase; equality compares entries only."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        _check_stair_shape(rows)

    @property
    def n(self) -> int:
        return len(self.rows) + 1

    def get(self, i: int, j: int) -> int:
        if not 1 <= i < j <= self.n:
            raise ValueError(f"({i},{j}) is not a box for n={self.n}")
        return self.rows[i - 1][j - i - 1]

    def boxes(self):
        """All boxes (i, j), column-major: j ascending, i ascending within."""
        n = self.n
        for j in range(2, n + 1):
            for i in range(1, j):
                yield (i, j)

    def with_entries(self, updates: Mapping[tuple[int, int], int]):
        rows = [list(r) for r in self.rows]
        for (i, j), v in updates.items():
            if not 1 <= i < j <= self.n:
                raise ValueError(f"({i},{j}) is not a box for n={self.n}")
            rows[i - 1][j - i - 1] = v
        return _rebuild(self, tuple(tuple(r) for r in rows))

    def __eq__(self, other):
        if not isinstance(other, StairTableau):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)


@dataclass(frozen=True, eq=False)
class InversionsTableau(StairTableau):
    """A staircase tableau tagged with the permutation it is attached to.

    The tag records which inversion diagram the zero pattern is measured
    against; it does not by itself certify membership in IT(w), which is
    what ``validate_inversions_tableau`` decides.
    """

    w: Permutation

    def __post_init__(self):
        super().__post_init__()
        if self.w.n != self.n:
            raise ValueError(f"tableau has n={self.n} but w has n={self.w.n}")

    def to_json(self) -> dict:
        return {"n": self.n, "w": str(self.w), "rows": [list(r) for r in self.rows]}

    @staticmethod
    def from_json(obj: dict) -> "InversionsTableau":
        w, rows = _read_json(obj)
        return _check_json_n(InversionsTableau(rows, w), obj)


@dataclass(frozen=True)
class LehmerTableau:
    """Entries on the inversion diagram of w only; None everywhere else."""

    w: Permutation
    rows: tuple[tuple[int | None, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        _check_stair_shape(rows, allow_none=True)
        if self.w.n != self.n:
            raise ValueError(f"tableau has n={self.n} but w has n={self.w.n}")
        inv = self.w.inversions()
        for j in range(2, self.n + 1):
            for i in range(1, j):
                have = rows[i - 1][j - i - 1] is not None
                if have != ((i, j) in inv):
                    raise ValueError(
                        f"support mismatch at ({i},{j}): entries must sit "
                        f"exactly on the inversions of {self.w}"
                    )

    @property
    def n(self) -> int:
        return len(self.rows) + 1

    def get(self, i: int, j: int) -> int | None:
        if not 1 <= i < j <= self.n:
            raise ValueError(f"({i},{j}) is not a box for n={self.n}")
        return self.rows[i - 1][j - i - 1]

    def support(self) -> tuple[tuple[int, int], ...]:
        """Inversion boxes in (column, row)-sorted order."""
        return _support(self.w)

    def as_vector(self) -> tuple[int, ...]:
        return tuple(self.get(i, j) for (i, j) in self.support())

    def to_json(self) -> dict:
        return {"n": self.n, "w": str(self.w), "rows": [list(r) for r in self.rows]}

    @staticmethod
    def from_json(obj: dict) -> "LehmerTableau":
        w, rows = _read_json(obj)
        return _check_json_n(LehmerTableau(w, rows), obj)


def _read_json(obj) -> tuple[Permutation, tuple]:
    """The w and rows of a tableau's JSON object."""
    if not (isinstance(obj, dict) and isinstance(obj.get("w"), str)
            and isinstance(obj.get("rows"), list)
            and all(isinstance(row, list) for row in obj["rows"])):
        raise ValueError('a tableau is a JSON object {"n": ..., "w": "...", "rows": [...]}')
    return Permutation.parse(obj["w"]), tuple(tuple(r) for r in obj["rows"])


def _check_json_n(t, obj: dict):
    """t, once its JSON ``n`` field is an int (not a bool) equal to t.n."""
    if type(obj.get("n")) is not int or obj["n"] != t.n:
        raise ValueError(f"n field must be the integer {t.n}, got {obj.get('n')!r}")
    return t


# every vector of a fiber reads the same support; as with
# ``Permutation.inversions``, a small bound keeps a sweep from holding every
# permutation it visits, and the tuple is immutable, so sharing it is safe
@lru_cache(maxsize=64)
def _support(w: Permutation) -> tuple[tuple[int, int], ...]:
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


def _rebuild(t: StairTableau, rows):
    if isinstance(t, InversionsTableau):
        return InversionsTableau(rows, t.w)
    return StairTableau(rows)


def lehmer_leq(a: LehmerTableau, b: LehmerTableau) -> bool:
    """Componentwise order on Lehmer tableaux for the same permutation."""
    if a.w != b.w:
        raise ValueError("Lehmer tableaux for different permutations")
    return all(x <= y for x, y in zip(a.as_vector(), b.as_vector()))


# ---------------------------------------------------------------------------
# balance


def lambda_shape_balanced(t: StairTableau, i: int, j: int, k: int) -> bool:
    """The corner entry t(i,k) lies weakly between t(i,j) and t(j,k)."""
    if not 1 <= i < j < k <= t.n:
        raise ValueError(f"({i},{j},{k}) is not a shape for n={t.n}")
    lo, hi = sorted((t.get(i, j), t.get(j, k)))
    return lo <= t.get(i, k) <= hi


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationResult:
    """First violation found, or ok=True; scan order is deterministic."""

    ok: bool
    condition: str | None = None
    box: tuple[int, int] | None = None
    shape: tuple[int, int, int] | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


_OK = ValidationResult(True)


def _column_scan(t: StairTableau, w: Permutation, row_bound: bool) -> ValidationResult:
    """Per box, columns left to right and rows bottom to top: the zero
    pattern, then column distinctness, then (if ``row_bound``) the row
    bound.  The first offending box wins.  Without the row bound this is
    the membership test for column-injective tableaux."""
    if t.n != w.n:
        raise ValueError(f"tableau n={t.n} but w has n={w.n}")
    inv = w.inversions()
    rows = t.rows
    for j in range(2, t.n + 1):
        seen = {}
        for i in range(1, j):
            v = rows[i - 1][j - i - 1]
            if v == 0 and (i, j) in inv:
                return ValidationResult(
                    False, "zero_on_inversion", box=(i, j),
                    message=f"({i},{j}) is an inversion of {w} but holds 0",
                )
            if v != 0 and (i, j) not in inv:
                return ValidationResult(
                    False, "nonzero_off_inversion", box=(i, j),
                    message=f"({i},{j}) is not an inversion of {w} but holds {v}",
                )
            if v != 0:
                if v in seen:
                    return ValidationResult(
                        False, "column_duplicate", box=(i, j),
                        message=f"entry {v} repeats in column {j} "
                                f"(rows {seen[v]} and {i})",
                    )
                seen[v] = i
                if row_bound and v > i:
                    return ValidationResult(
                        False, "row_bound", box=(i, j),
                        message=f"entry {v} at ({i},{j}) exceeds its row index",
                    )
    return _OK


def validate_inversions_tableau(t: StairTableau, w: Permutation) -> ValidationResult:
    """Membership test for IT(w).

    Scan order: per box (columns left to right, rows bottom to top) check
    the zero pattern, then column distinctness, then the row bound; after
    all boxes pass, check the three-box shapes in lexicographic (i, j, k)
    order.  The first violation wins.
    """
    res = _column_scan(t, w, row_bound=True)
    if not res:
        return res
    n = t.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                if not lambda_shape_balanced(t, i, j, k):
                    return ValidationResult(
                        False, "unbalanced", shape=(i, j, k),
                        message=f"shape ({i},{j},{k}) entries "
                                f"{t.get(i, j)},{t.get(i, k)},{t.get(j, k)} "
                                f"are not balanced",
                    )
    return _OK


# ---------------------------------------------------------------------------
# the Lehmer bijection


@lru_cache(maxsize=64)
def _column_starts(w: Permutation) -> tuple[bool, ...]:
    """Per box of ``_support(w)``, whether it is the lowest of its column."""
    support = _support(w)
    return tuple(s == 0 or support[s - 1][1] != j for s, (_i, j) in enumerate(support))


def _relabel(starts: tuple[bool, ...], entries: list[int]) -> tuple[int, ...] | None:
    """Column-local relabeling of positive entries given in (column, row)
    order, a new column beginning at each entry whose flag in ``starts``
    is set: each entry v becomes the number of positive integers below v
    that are missing from the entries under it in its column, v - 1 minus
    the count of smaller entries below, read off a bitmask of the
    column's entries so far.  None when an entry repeats in its column.
    The bitmask has a bit per value, so the entries should be small:
    crossing rows, or ranks."""
    out = []
    seen = 0
    for start, v in zip(starts, entries):
        if start:
            seen = 0
        bit = 1 << v
        if seen & bit:
            return None
        out.append(v - 1 - (seen & (bit - 1)).bit_count())
        seen |= bit
    return tuple(out)


def lehmer_vector(t: StairTableau, w: Permutation) -> tuple[int, ...]:
    """Column-local relabeling (``_relabel``) of the entries on the
    inversions of w, in (column, row) order, the order of
    ``LehmerTableau.as_vector``."""
    res = _column_scan(t, w, row_bound=False)
    if not res:
        raise ValueError(f"not column-injective for {w}: {res.message}")
    rows = t.rows
    entries = [rows[i - 1][j - i - 1] for i, j in _support(w)]
    # a column-injective entry may be any positive int, so _relabel reads
    # the entries' ranks, which compare as the entries do: entry v of rank
    # k relabels to v - k plus its rank's relabel.  The scan passed, so
    # the entries are distinct in each column and _relabel returns a vector
    rank = {v: k for k, v in enumerate(sorted(set(entries)), start=1)}
    ranks = [rank[v] for v in entries]
    return tuple(
        v - k + m for v, k, m in zip(entries, ranks, _relabel(_column_starts(w), ranks))
    )


def lehmer_form(t: StairTableau, w: Permutation) -> LehmerTableau:
    """``lehmer_vector`` laid out on the inversion diagram of w.  A
    bijection from column-injective tableaux for w onto arbitrary fillings
    of the inversion diagram."""
    vector = lehmer_vector(t, w)
    rows = [[None] * (t.n - i) for i in range(1, t.n)]
    for (i, j), m in zip(_support(w), vector):
        rows[i - 1][j - i - 1] = m
    return LehmerTableau(w, tuple(tuple(r) for r in rows))


def lehmer_form_inverse(lt: LehmerTableau) -> InversionsTableau:
    """Rebuild the column-injective tableau column by column, bottom to top:
    the entry over Lehmer value m is the (m+1)-th positive integer not yet
    used below in its column.  Starting from m + 1, each used entry, in
    ascending order, that is at most the candidate pushes it up by one; so,
    as in ``lehmer_vector``, used entries are counted rather than stepped
    through, and the cost grows with the column height, not the entries."""
    n = lt.n
    rows = [[0] * (n - i) for i in range(1, n)]
    for j in range(2, n + 1):
        used: list[int] = []
        for i in range(1, j):
            m = lt.get(i, j)
            if m is None:
                continue
            candidate = m + 1
            for u in used:
                if u > candidate:
                    break
                candidate += 1
            rows[i - 1][j - i - 1] = candidate
            insort(used, candidate)
    return InversionsTableau(tuple(tuple(r) for r in rows), lt.w)


# ---------------------------------------------------------------------------
# increments


def increment(t: StairTableau, i: int, j: int) -> tuple[StairTableau, str]:
    """Raise the entry at (i, j) to the next value legal for its column.

    With a = t(i,j) and b the smallest integer above a missing from the
    column below (i, j): if b is absent from the whole column the entry is
    replaced ("pure"); if b sits higher in the column the two entries swap
    places ("trade").  Either way the column stays injective and the Lehmer
    form gains exactly 1 at (i, j).
    """
    a = t.get(i, j)
    if a == 0:
        raise ValueError(f"({i},{j}) holds 0; increments live on inversion boxes")
    below = {t.get(ii, j) for ii in range(1, i)} - {0}
    b = a + 1
    while b in below:
        b += 1
    for ii in range(i + 1, j):
        if t.get(ii, j) == b:
            return t.with_entries({(i, j): b, (ii, j): a}), "trade"
    return t.with_entries({(i, j): b}), "pure"


def increment_multiset(
    t: StairTableau, boxes: Mapping[tuple[int, int], int] | Iterable[tuple[int, int]]
) -> StairTableau:
    """Apply ``increment`` once per multiset element; the order does not
    matter (a tested property), so boxes are processed in sorted order."""
    if isinstance(boxes, Mapping):
        counts = Counter(dict(boxes))
    else:
        counts = Counter(boxes)
    for box, mult in counts.items():
        if mult < 0:
            raise ValueError(f"negative multiplicity at {box}")
    out = t
    for box in sorted(counts, key=lambda b: (b[1], b[0])):
        for _ in range(counts[box]):
            out, _kind = increment(out, *box)
    return out


def delta_multiset(
    t1: StairTableau, t2: StairTableau, w: Permutation | None = None
) -> Counter | None:
    """Box-by-box difference of Lehmer forms, as a multiset of boxes, or
    None when some coordinate would be negative (incomparable pair)."""
    if w is None:
        if isinstance(t1, InversionsTableau):
            w = t1.w
        else:
            raise ValueError("w is required for untagged tableaux")
    if isinstance(t1, InversionsTableau) and isinstance(t2, InversionsTableau):
        if t1.w != t2.w:
            raise ValueError("tableaux tagged with different permutations")
    out: Counter = Counter()
    for box, a, b in zip(_support(w), lehmer_vector(t1, w), lehmer_vector(t2, w)):
        if b < a:
            return None
        if b > a:
            out[box] = b - a
    return out


def restrict(t: StairTableau, j: int) -> StairTableau:
    """Keep columns 2..j only.  For a tableau tagged with w the result is
    tagged with w minus its values above j, and membership in the
    inversions-tableau family is preserved."""
    if not 2 <= j <= t.n:
        raise ValueError(f"cutoff {j} out of range 2..{t.n}")
    rows = tuple(tuple(t.rows[i - 1][: j - i]) for i in range(1, j))
    if isinstance(t, InversionsTableau):
        return InversionsTableau(rows, t.w.delete_values_above(j))
    return StairTableau(rows)
