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
from a run of southwest crosses (b, l), which share r, the non-cross
after the run: one climb finds the top, the one row above whose span is
not all crosses, which must read B C...C B.  A scan tests at most n row
spans per cross, where the rectangle search tested O(n^4) rectangles.

``move_scan`` and ``inverse_move_scan`` run on a dream's cross mask (see
``pipedream.route_crosses``), one int per row, so a span test is one AND
and a comparison, and read a move's pipe pair off the router's pairs by
mask bit; the build hands them the Lehmer slots ``pipedream._route_read``
records by bit instead, which name the pairs of a reduced dream of w.
``find_moves`` and ``find_inverse_moves`` sort what they find on a
``PipeDream``.  A scan hands back each move's key and the two bits
the move flips, so ``apply`` and ``inverse_apply`` are scan membership,
pipe pair included, plus one XOR on the mask.  The tile letters stay
inside ``pipedream``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .errors import TheoremViolation
from .pipedream import PipeDream, _cross_mask, _layout, theta, trace
from .tableaux import increment, increment_multiset

__all__ = [
    "ChuteMove",
    "find_moves",
    "find_inverse_moves",
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


def _row_ints(n: int, mask: int) -> list[int]:
    """The interiors of rows 1..n of the cross mask, one int each with bit
    c - 1 for column c, after a 0 for row 0; row n has none and reads 0."""
    return [0] + [(mask >> at) & bits for _length, at, bits in _layout(n)[3]]


# a fiber's move edges repeat few moves (116 distinct among the 10,654
# edges of 12438765), so one ChuteMove is shared per key, rectangle and
# routed pipe pair; the bound keeps a large n from holding them all
_shared_move = lru_cache(maxsize=4096)(lambda key: ChuteMove(*key[:4], *sorted(key[4])))


def move_scan(n: int, mask: int, pipes: list) -> list[tuple[tuple, int]]:
    """The moves that apply to the dream of size n with cross mask
    ``mask`` and pipe pairs ``pipes`` by bit (see
    ``pipedream.route_crosses``), unsorted, as keys, each with the two
    bits that applying it flips: its northeast cross and its southwest
    bump.  One scan per northeast cross; the pipe pair is read off its bit.

    Each row is read run by run: every cross r of a run of crosses shares
    the run's l, the bump just left of it.  A column past a row's interior
    reads 0, as a bump does, so the bottom row's east end may also be an
    elbow; (b - 1, r) is a cross, so (b, r) lies in the staircase."""
    offsets = _layout(n)[0]
    rows = _row_ints(n, mask)
    out = []
    for t in range(1, n - 1):
        row = rows[t]
        while row:
            low = row & -row
            l = low.bit_length() - 1
            end = ((row + low) & ~row).bit_length()
            if l:
                west = 1 << (l - 1)
                for r in range(l + 1, end):
                    east = 1 << (r - 1)
                    full = (east << 1) - west
                    b = t + 1
                    while rows[b] & full == full:
                        b += 1
                    # the bottom row reads B C...C B/E on columns l..r
                    if rows[b] & full == full - west - east:
                        flip = (east << offsets[t]) | (west << offsets[b])
                        out.append(((t, b, l, r, pipes[offsets[t] + r - 1]), flip))
            row &= row + low
    return out


def _sorted_moves(scan, dream):
    found = scan(dream.n, _cross_mask(dream.rows)[0], trace(dream).pipes)
    return sorted((_shared_move(key) for key, _flip in found), key=move_order)


def find_moves(dream: PipeDream) -> list[ChuteMove]:
    """All applicable moves, sorted by (top, left, bottom, right):
    ``move_scan`` on the dream's cross mask and routing."""
    return _sorted_moves(move_scan, dream)


def inverse_move_scan(n: int, mask: int, pipes: list) -> list[tuple[tuple, int]]:
    """The moves that produce the dream of size n with cross mask ``mask``
    and pipe pairs ``pipes`` by bit (see ``pipedream.route_crosses``),
    unsorted, as keys, each with the two bits that undoing it flips: its
    southwest cross and its northeast bump.  The pipe pair is read off the
    bit of the southwest corner, where the moved crossing now sits.

    One climb per run of crosses, and at most one move.  Let a run of row
    b take columns lo..r - 1, r the first non-cross after it (a row ends
    in an elbow, so r stays in the row, and columns l..r of every row
    above lie in the staircase).  Every candidate l shares r.  Climb the
    rows t above b, p the nearest non-cross left of r in row t.  If (t, r)
    is a cross, a candidate l <= p stops at row t, which cannot read
    B C...C B with a cross at r: only l > p go on, so lo rises past p.
    Else row t is the top of every candidate left, and reads B C...C B
    on l..r only at l = p: one move if p >= lo, as the rows between are
    then crosses on p..r, and else none."""
    offsets = _layout(n)[0]
    rows = _row_ints(n, mask)
    out = []
    for b in range(2, n):
        row = rows[b]
        at = offsets[b]
        while row:
            low = row & -row
            lo = low.bit_length()
            # adding the run's lowest bit clears the run and carries into r
            r = ((row + low) & ~row).bit_length()
            east = 1 << (r - 1)
            t = b - 1
            while t and lo < r:
                above = rows[t]
                p = (~above & (east - 1)).bit_length()
                if not above & east:
                    if p >= lo:
                        flip = (1 << (p - 1 + at)) | (east << offsets[t])
                        out.append(((t, b, p, r, pipes[at + p - 1]), flip))
                    break
                if p >= lo:
                    lo = p + 1
                t -= 1
            row &= row + low
    return out


def find_inverse_moves(dream: PipeDream) -> list[ChuteMove]:
    """All moves that produce this dream, sorted like ``find_moves``:
    ``inverse_move_scan`` on the dream's cross mask and routing."""
    return _sorted_moves(inverse_move_scan, dream)


def _flip_move(scan, dream, move, refusal):
    n, mask = dream.n, _cross_mask(dream.rows)[0]
    for key, flip in scan(n, mask, trace(dream).pipes):
        if _shared_move(key) == move:
            return PipeDream._from_mask(n, mask ^ flip)
    raise ValueError(f"move {move} {refusal}")


def apply(dream: PipeDream, move: ChuteMove) -> PipeDream:
    """Perform the move; rejects a move, pipe pair included, that
    ``move_scan`` does not find on this dream."""
    return _flip_move(move_scan, dream, move, "is not applicable")


def inverse_apply(dream: PipeDream, move: ChuteMove) -> PipeDream:
    """Undo the move; rejects a move, pipe pair included, that
    ``inverse_move_scan`` does not find on this dream."""
    return _flip_move(inverse_move_scan, dream, move, "cannot be undone here")


def vertical_pipes(dream: PipeDream, move: ChuteMove) -> tuple[int, ...]:
    """Labels of the pipes crossing vertically through the move rectangle:
    those passing through cross tiles of a single column spanning all of
    rows top..bottom.  Such columns are the set bits of the AND of those
    rows' ints on columns left..right, and the pipe is identified at the
    bottom box."""
    t, b, l, r = move.rect
    columns = (1 << r) - (1 << (l - 1))
    for row in _row_ints(dream.n, _cross_mask(dream.rows)[0])[t : b + 1]:
        columns &= row
    pipes, base = trace(dream).pipes, _layout(dream.n)[0][b] - 1
    return tuple(sorted(pipes[base + c][1] for c in range(l, r + 1) if columns >> (c - 1) & 1))


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
