"""Pipe dreams on the staircase and the crossing-row map onto tableaux.

A pipe dream of size n fills the staircase {(r, c) : r + c <= n + 1} (rows
top to bottom, columns left to right) with tiles:

* ``C`` (cross): both pipes pass straight through;
* ``B`` (bump): the pipe from the west turns north, the pipe from the
  south turns east;
* ``E`` (elbow): the single west-to-north arc; exactly the boxes on the
  southeast boundary r + c = n + 1 hold one.

Pipe i enters at the west end of row i; reading the pipe labels along the
north edge left to right gives the wiring permutation.  A dream is reduced
when no two pipes cross twice; the reduced dreams with wiring w form PD(w).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import TheoremViolation
from .perm import Permutation
from .tableaux import (
    InversionsTableau,
    LehmerTableau,
    _check_json_n,
    _relabel,
    _support,
    lehmer_form,
    lehmer_vector,
)

__all__ = [
    "CROSS",
    "BUMP",
    "ELBOW",
    "PipeDream",
    "Routing",
    "trace",
    "is_reduced",
    "theta",
    "phi",
    "phi_vector",
    "transpose",
    "triforce_embed",
]

CROSS = "C"
BUMP = "B"
ELBOW = "E"


@dataclass(frozen=True, slots=True)
class PipeDream:
    """Immutable tile grid; row r is ``rows[r-1]``, a string over C/B/E."""

    rows: tuple[str, ...]

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        for r, row in enumerate(rows, start=1):
            if len(row) != n + 1 - r:
                raise ValueError(f"row {r} has length {len(row)}, expected {n + 1 - r}")
            for c, t in enumerate(row, start=1):
                if t not in "CBE":
                    raise ValueError(f"bad tile {t!r} at ({r},{c})")
                if (t == ELBOW) != (r + c == n + 1):
                    raise ValueError(
                        f"tile {t} at ({r},{c}): elbows sit exactly on the "
                        f"southeast boundary"
                    )

    @property
    def n(self) -> int:
        return len(self.rows)

    def tile(self, r: int, c: int) -> str:
        if not (1 <= r and 1 <= c and r + c <= self.n + 1):
            raise ValueError(f"({r},{c}) outside the staircase for n={self.n}")
        return self.rows[r - 1][c - 1]

    def boxes(self):
        n = self.n
        for r in range(1, n + 1):
            for c in range(1, n + 2 - r):
                yield (r, c)

    def crosses(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (r, c)
            for r, row in enumerate(self.rows, start=1)
            for c, t in enumerate(row, start=1)
            if t == CROSS
        )

    def with_tiles(self, updates: dict[tuple[int, int], str]) -> "PipeDream":
        rows = [list(row) for row in self.rows]
        for (r, c), t in updates.items():
            rows[r - 1][c - 1] = t
        return PipeDream(tuple("".join(row) for row in rows))

    @staticmethod
    def all_bump(n: int) -> "PipeDream":
        if n < 1:
            raise ValueError("n must be positive")
        return PipeDream(tuple(BUMP * (n - r) + ELBOW for r in range(1, n + 1)))

    @staticmethod
    def from_crosses(n: int, crosses) -> "PipeDream":
        dream = PipeDream.all_bump(n)
        updates = {}
        for (r, c) in crosses:
            if r + c > n:
                raise ValueError(f"({r},{c}) cannot hold a cross for n={n}")
            updates[(r, c)] = CROSS
        return dream.with_tiles(updates)

    def to_json(self) -> dict:
        return {"n": self.n, "rows": list(self.rows)}

    @staticmethod
    def from_json(obj) -> "PipeDream":
        if not (
            isinstance(obj, dict)
            and isinstance(obj.get("rows"), list)
            and all(isinstance(row, str) for row in obj["rows"])
        ):
            raise ValueError('a dream is a JSON object {"n": ..., "rows": [row strings]}')
        return _check_json_n(PipeDream(tuple(obj["rows"])), obj)

    def render_ascii(self) -> str:
        """One glyph per box: '+' for a cross, ')' for a bump or elbow."""
        return "\n".join(
            "".join("+" if t == CROSS else ")" for t in row) for row in self.rows
        )


@dataclass(eq=False)
class Routing:
    """Everything the tracer learns in one pass over a dream."""

    wiring: Permutation
    # cross box -> (pipe passing west-to-east, pipe passing south-to-north)
    cross_pipes: dict[tuple[int, int], tuple[int, int]] = field(repr=False)

    @property
    def reduced(self) -> bool:
        """No pair of pipes crosses more than once."""
        pairs = {(h, v) if h < v else (v, h) for h, v in self.cross_pipes.values()}
        return len(pairs) == len(self.cross_pipes)


@lru_cache(maxsize=1)
def trace(dream: PipeDream) -> Routing:
    """Route every pipe in one sweep of the rows from bottom to top.

    ``north[c]`` holds the pipe leaving column c of the row below and
    ``west`` the pipe coming in from the left, pipe r at column 1 of row r.
    A cross passes both straight on, a bump swaps them and an elbow turns
    ``west`` north.  Total on every C/B filling, reduced or not: each box
    is visited once.  A pipe entering an elbow from the south, which only
    an elbow ``PipeDream`` rejects allows, is a TheoremViolation.

    The cache holds one dream: every caller that reads a dream more than
    once does so in consecutive calls (the build's move search and Lehmer
    vector, ``theta`` after ``is_reduced``), and a fiber's routings are
    not kept after its build.
    """
    n = dream.n
    north = [0] * (n + 1)
    cross_pipes = {}
    for r in range(n, 0, -1):
        west = r
        for c, t in enumerate(dream.rows[r - 1], start=1):
            south = north[c]
            if t == CROSS:
                cross_pipes[(r, c)] = (west, south)
            elif t == BUMP:
                north[c], west = west, south
            elif south:
                raise TheoremViolation(
                    f"pipe {south} entered boundary box ({r},{c}) from the south",
                    witness={"dream": dream.to_json(), "pipe": south, "box": [r, c]},
                )
            else:
                north[c] = west
    return Routing(Permutation(tuple(north[1:])), cross_pipes)


def is_reduced(dream: PipeDream) -> bool:
    """No pair of pipes crosses more than once."""
    return trace(dream).reduced


def theta(dream: PipeDream) -> InversionsTableau:
    """Send a reduced dream to the tableau of crossing rows: box (i, j)
    holds the row where pipes i and j cross, and 0 when they do not."""
    routing = trace(dream)
    if not routing.reduced:
        raise ValueError("crossing-row tableau needs a reduced dream")
    n = dream.n
    rows = [[0] * (n - i) for i in range(1, n)]
    for (r, _c), (h, v) in routing.cross_pipes.items():
        lo, hi = (h, v) if h < v else (v, h)
        rows[lo - 1][hi - lo - 1] = r
    return InversionsTableau(tuple(tuple(r) for r in rows), routing.wiring)


def phi(dream: PipeDream) -> LehmerTableau:
    """Crossing rows followed by the column-local relabeling."""
    t = theta(dream)
    return lehmer_form(t, t.w)


def phi_vector(dream: PipeDream, w: Permutation) -> tuple[int, ...]:
    """``lehmer_vector(theta(dream), w)`` read straight off
    ``trace(dream)``, with no tableau built.

    The checks of ``lehmer_vector`` run first: the sizes agree, the dream is
    reduced and its crossing pairs are exactly the inversions of w (one
    crossing per inversion and no other pair), and the crossing rows are
    distinct within each column.  Each column is then relabeled bottom to
    top by ``tableaux._relabel``, as ``lehmer_vector`` does.  If a check
    fails, ``lehmer_vector(theta(dream), w)`` runs instead, so every error
    keeps its type and message.
    """
    cross_pipes = trace(dream).cross_pipes
    inv = w.inversions()
    if dream.n == w.n and len(cross_pipes) == len(inv):
        # box (lo, hi) of the crossing-row tableau holds the crossing row
        entries = {((h, v) if h < v else (v, h)): r for (r, _c), (h, v) in cross_pipes.items()}
        if entries.keys() == inv:
            vector = _relabel((j, entries[i, j]) for i, j in _support(w))
            if vector is not None:
                return vector
    return lehmer_vector(theta(dream), w)


def transpose(dream: PipeDream) -> "PipeDream":
    """Reflect across the main diagonal; wiring becomes its inverse and the
    chute-move order reverses."""
    n = dream.n
    rows = dream.rows
    # row r of the reflection is column r read downwards: the r-th tile of
    # the first n + 1 - r rows, the ones long enough to hold one
    return PipeDream(
        tuple("".join(row[r - 1] for row in rows[: n + 1 - r]) for r in range(1, n + 1))
    )


def triforce_embed(dream: PipeDream) -> "PipeDream":
    """Embed into the staircase of size 2n: interior tiles are reflected
    across the antidiagonal, box (i, j) landing at (n+1-j, n+1-i), and all
    other boxes are bumps (elbows on the new boundary).  The wiring of the
    image is the triforce of the wiring."""
    n = dream.n
    big = PipeDream.all_bump(2 * n)
    updates = {}
    for (r, c) in dream.boxes():
        if r + c <= n:
            updates[(n + 1 - c, n + 1 - r)] = dream.tile(r, c)
    return big.with_tiles(updates)
