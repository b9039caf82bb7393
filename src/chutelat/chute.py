"""Chute moves: the covering mechanism on reduced pipe dreams.

A move lives on a rectangle R of height and width at least 2 inside the
staircase whose tiles look like

    B C C C          C C C B
    C C C C    -->   C C C C
    B C C B/E        C C C B/E

northwest and southwest corners bump, southeast corner bump-or-elbow, every
other box (the northeast corner included) a cross.  Applying the move turns
the southwest bump into a cross and the northeast cross into a bump, which
slides one crossing down-left along its rectangle without changing the
wiring.  The pipes meeting at the northeast corner name the move: the same
pair (i, j) also names the tableau box whose entry the move raises.

Moves are found from a corner rather than by trying every rectangle.  A
move is fixed by its northeast cross (t, r): the top row reads B C...C on
columns l..r, so l can only be the nearest non-cross left of (t, r); the
rows strictly between are all crosses on l..r and the bottom row is not,
so the bottom b can only be the first row below t whose span l..r is not
all crosses.  Each cross therefore yields at most one move, and what is
left to test is that row b reads B C...C B/E.  Inverse moves are found
the same way from the southwest cross (b, l): r is the nearest non-cross
to its right, and the top is the first row above whose span is not all
crosses, which must read B C...C B.  A scan reads at most O(n^2) tiles
per cross, where the rectangle search tested O(n^4) rectangles box by box.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import TheoremViolation
from .pipedream import BUMP, CROSS, ELBOW, PipeDream, theta, trace
from .tableaux import InversionsTableau, increment, increment_multiset

__all__ = [
    "ChuteMove",
    "find_moves",
    "find_inverse_moves",
    "moved_rows",
    "apply",
    "inverse_apply",
    "vertical_pipes",
    "IncrementReport",
    "check_increment_correspondence",
]


@dataclass(frozen=True, slots=True)
class ChuteMove:
    """Rectangle rows top..bottom, columns left..right, plus the pipe pair
    crossing at the northeast corner before the move."""

    top: int
    bottom: int
    left: int
    right: int
    pipe_lo: int
    pipe_hi: int

    def __post_init__(self):
        if not (1 <= self.top < self.bottom and 1 <= self.left < self.right):
            raise ValueError(
                f"degenerate rectangle rows {self.top}..{self.bottom}, "
                f"cols {self.left}..{self.right}"
            )
        if not 1 <= self.pipe_lo < self.pipe_hi:
            raise ValueError(f"bad pipe pair ({self.pipe_lo},{self.pipe_hi})")

    @property
    def rect(self) -> tuple[int, int, int, int]:
        return (self.top, self.bottom, self.left, self.right)

    @property
    def pipes(self) -> tuple[int, int]:
        return (self.pipe_lo, self.pipe_hi)

    def to_json(self) -> dict:
        return {"rect": list(self.rect), "pipes": list(self.pipes)}

    @staticmethod
    def from_json(obj: dict) -> "ChuteMove":
        t, b, l, r = obj["rect"]
        i, j = obj["pipes"]
        return ChuteMove(t, b, l, r, i, j)


def move_order(move: ChuteMove) -> tuple[int, int, int, int]:
    """Sort key of every move list here: (top, left, bottom, right)."""
    return (move.top, move.left, move.bottom, move.right)


def _reads(dream: PipeDream, row: int, l: int, r: int, west: str, east: str) -> bool:
    """Whether row ``row`` reads ``west``, then crosses, then a tile from
    ``east`` across columns l..r; a span leaving the staircase never does."""
    span = dream.rows[row - 1][l - 1 : r]
    return (
        len(span) == r - l + 1
        and span[0] == west
        and span[-1] in east
        and span[1:-1] == CROSS * (r - l - 1)
    )


def _fits(dream: PipeDream, t: int, b: int, l: int, r: int, after: bool) -> bool:
    """Tile pattern of a move rectangle, before (after=False) or after the
    move."""
    if b + r > dream.n + 1:
        return False
    full = CROSS * (r - l + 1)
    return (
        _reads(dream, t, l, r, BUMP, BUMP if after else CROSS)
        and all(dream.rows[s - 1][l - 1 : r] == full for s in range(t + 1, b))
        and _reads(dream, b, l, r, CROSS if after else BUMP, BUMP + ELBOW)
    )


def find_moves(dream: PipeDream) -> list[ChuteMove]:
    """All applicable moves, sorted by (top, left, bottom, right); one scan
    per northeast cross."""
    cross_pipes = trace(dream).cross_pipes
    out = []
    for t, row in enumerate(dream.rows, start=1):
        for r, tile in enumerate(row, start=1):
            if tile != CROSS:
                continue
            l = len(row[: r - 1].rstrip(CROSS))
            if l == 0:
                continue
            full = CROSS * (r - l + 1)
            b = t + 1
            while dream.rows[b - 1][l - 1 : r] == full:
                b += 1
            if _reads(dream, b, l, r, BUMP, BUMP + ELBOW):
                h, v = cross_pipes[(t, r)]
                out.append(ChuteMove(t, b, l, r, min(h, v), max(h, v)))
    out.sort(key=move_order)
    return out


def find_inverse_moves(dream: PipeDream) -> list[ChuteMove]:
    """All moves that produce this dream, sorted like ``find_moves``; one
    scan per southwest cross.  The pipe pair is read at the southwest
    corner, where the moved crossing now sits.

    Each row is read run by run: ``str.find`` steps to the next cross, and
    every cross l of a run shares the run's r, the first non-cross after
    it (a row ends in an elbow, so r stays in the row)."""
    cross_pipes = trace(dream).cross_pipes
    rows = dream.rows
    out = []
    for b, row in enumerate(rows, start=1):
        start = row.find(CROSS) + 1
        while start:
            r = start + 1
            while row[r - 1] == CROSS:
                r += 1
            for l in range(start, r):
                full = CROSS * (r - l + 1)
                t = b - 1
                while t and rows[t - 1][l - 1 : r] == full:
                    t -= 1
                if t and rows[t - 1][l - 1 : r] == BUMP + CROSS * (r - l - 1) + BUMP:
                    h, v = cross_pipes[(b, l)]
                    out.append(ChuteMove(t, b, l, r, min(h, v), max(h, v)))
            start = row.find(CROSS, r) + 1
    out.sort(key=move_order)
    return out


def _swapped(rows: tuple[str, ...], move: ChuteMove, undo: bool) -> tuple[str, ...]:
    """The rows with the move's two corner tiles swapped, unchecked: the
    southwest bump becomes a cross and the northeast cross a bump, or the
    reverse with ``undo``."""
    t, b, l, r = move.rect
    southwest, northeast = (BUMP, CROSS) if undo else (CROSS, BUMP)
    out = list(rows)
    out[b - 1] = out[b - 1][: l - 1] + southwest + out[b - 1][l:]
    out[t - 1] = out[t - 1][: r - 1] + northeast + out[t - 1][r:]
    return tuple(out)


def moved_rows(dream: PipeDream, move: ChuteMove, undo: bool = False) -> tuple[str, ...]:
    """Rows of the dream after the move, or after undoing it; rejects
    rectangles whose tiles do not match.  Only the rows are built, so a
    caller can look the result up before paying for a ``PipeDream``."""
    t, b, l, r = move.rect
    if not _fits(dream, t, b, l, r, after=undo):
        raise ValueError(
            f"move {move} cannot be undone here" if undo else f"move {move} is not applicable"
        )
    return _swapped(dream.rows, move, undo)


def apply(dream: PipeDream, move: ChuteMove) -> PipeDream:
    """Perform the move; rejects rectangles whose tiles do not match."""
    return PipeDream(moved_rows(dream, move))


def inverse_apply(dream: PipeDream, move: ChuteMove) -> PipeDream:
    """Undo the move; rejects rectangles whose tiles do not match."""
    return PipeDream(moved_rows(dream, move, undo=True))


def vertical_pipes(dream: PipeDream, move: ChuteMove) -> tuple[int, ...]:
    """Labels of the pipes crossing vertically through the move rectangle:
    those passing through cross tiles of a single column spanning all of
    rows top..bottom.  Such columns are read off the tile pattern and the
    pipe is identified at the bottom box."""
    routing = trace(dream)
    t, b, l, r = move.rect
    labels = []
    for col in range(l, r + 1):
        if all(dream.tile(row, col) == CROSS for row in range(t, b + 1)):
            labels.append(routing.cross_pipes[(b, col)][1])
    return tuple(sorted(labels))


@dataclass(frozen=True)
class IncrementReport:
    """Witness data tying one chute move to its tableau increments."""

    box: tuple[int, int]          # (x0, y0), the pipe pair of the move
    vertical: tuple[int, ...]     # Y, pipes crossing the rectangle vertically
    p0: int                       # entry at (x0, y0) before the move
    q0: int                       # entry at (x0, y0) after the move
    increments: tuple[tuple[int, int], ...]  # B, sorted by column

    def to_json(self) -> dict:
        return {
            "box": list(self.box),
            "vertical": list(self.vertical),
            "p0": self.p0,
            "q0": self.q0,
            "increments": [list(b) for b in self.increments],
        }


def check_increment_correspondence(dream: PipeDream, move: ChuteMove) -> IncrementReport:
    """Verify, on one applicable move, that the tableau side changes by the
    predicted multiset of increments.

    With (x0, y0) the move's pipe pair, Y the vertically-crossing pipes and
    B = {(x0, y0)} united with {(x0, y) : y in Y}, the checks are: the
    tableau after the move equals the tableau before with every box of B
    incremented once; Y computes identically before and after the move; for
    every y in Y the entries satisfy before(x0,y) = after(y0,y) = p0 and
    after(x0,y) = before(y0,y) = q0 with q0 the increment target at
    (x0, y0); and q0 appears nowhere in column y0 before the move.  Any
    failure raises TheoremViolation carrying the report.
    """
    # each dream's two reads are consecutive, so each is routed once
    t1 = theta(dream)
    after_dream = apply(dream, move)
    y_before = vertical_pipes(dream, move)
    t2 = theta(after_dream)
    y_after = vertical_pipes(after_dream, move)
    x0, y0 = move.pipes
    if any(y <= y0 for y in y_before):
        raise TheoremViolation(
            f"vertical pipe label not above {y0}: {y_before}",
            witness={"move": move.to_json(), "dream": dream.to_json()},
        )
    p0 = t1.get(x0, y0)
    incremented, _kind = increment(t1, x0, y0)
    q0 = incremented.get(x0, y0)
    bset = ((x0, y0),) + tuple((x0, y) for y in y_before)
    bset = tuple(sorted(bset, key=lambda bx: (bx[1], bx[0])))
    report = IncrementReport(
        box=(x0, y0), vertical=y_before, p0=p0, q0=q0, increments=bset
    )
    failures = []
    if y_before != y_after:
        failures.append(f"vertical pipes changed: {y_before} -> {y_after}")
    try:
        if increment_multiset(t1, Counter(bset)) != t2:
            failures.append("tableau after the move is not the incremented tableau")
    except ValueError as exc:
        failures.append(f"increment multiset not applicable: {exc}")
    for y in y_before:
        if t1.get(x0, y) != p0:
            failures.append(f"entry before at ({x0},{y}) is not p0={p0}")
        if t2.get(y0, y) != p0:
            failures.append(f"entry after at ({y0},{y}) is not p0={p0}")
        if t2.get(x0, y) != q0:
            failures.append(f"entry after at ({x0},{y}) is not q0={q0}")
        if t1.get(y0, y) != q0:
            failures.append(f"entry before at ({y0},{y}) is not q0={q0}")
    for i in range(1, y0):
        if t1.get(i, y0) == q0:
            failures.append(f"q0={q0} already sits in column {y0} at row {i}")
    if failures:
        raise TheoremViolation(
            "; ".join(failures), witness={"report": report.to_json(), "move": move.to_json()}
        )
    return report
