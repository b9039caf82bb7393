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
from .perm import Permutation, _diagram
from .tableaux import (
    InversionsTableau,
    LehmerTableau,
    _check_json_n,
    _relabel,
    lehmer_form,
    lehmer_vector,
)

__all__ = [
    "CROSS",
    "BUMP",
    "ELBOW",
    "PipeDream",
    "Routing",
    "route_crosses",
    "trace",
    "is_reduced",
    "theta",
    "phi",
    "phi_vector",
    "transpose",
    "transpose_rows",
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
            # the common case in one pass of C code: the right length,
            # crosses and bumps, then the elbow; anything else takes the
            # per-tile loop, which names the first bad tile
            if (
                isinstance(row, str)
                and len(row) == n + 1 - r
                and row[-1] == ELBOW
                and not row[:-1].strip(CROSS + BUMP)
            ):
                continue
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

    @classmethod
    def _from_mask(cls, n: int, mask: int) -> "PipeDream":
        """The dream of size n whose crosses are the set bits of ``mask``
        (interior bits only), made without ``__post_init__``.

        Its rows are ``_mask_rows(n, mask)``, a tuple of n rows, row r
        being ``_row(n + 1 - r, bits)``: n - r tiles each a cross or a
        bump, then one elbow.  So row r has length n + 1 - r, every tile
        is C, B or E, and the one elbow is at column c = n + 1 - r, where
        r + c = n + 1.  That is everything ``__post_init__`` checks, so it
        would pass on every such tuple; ``PipeDream(rows)`` stays the
        validator for rows from anywhere else."""
        dream = object.__new__(cls)
        object.__setattr__(dream, "rows", _mask_rows(n, mask))
        return dream

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
    # per mask bit (see _layout): (pipe passing west-to-east, pipe passing
    # south-to-north) at a cross, None at a bump
    pipes: list = field(repr=False)

    @property
    def reduced(self) -> bool:
        """No pair of pipes crosses more than once."""
        pairs = [pair for pair in self.pipes if pair is not None]
        return len({(h, v) if h < v else (v, h) for h, v in pairs}) == len(pairs)


# Cross masks.  Interior box (r, c), r + c <= n, is bit offset[r] + c - 1
# of an int, with the rows taken bottom to top and each row left to right,
# so the bits of a mask come out in the order the router visits them.


@lru_cache(maxsize=64)
def _layout(n: int) -> tuple:
    """``offsets[r]``, the bit of box (r, 1), for r = 0..n; per bit of box
    (r, c) its west slot r + c - 1 and its row r; and per row r = 1..n
    its length n + 1 - r, ``offsets[r]`` and the mask of its n - r
    interior bits."""
    offsets = tuple((n - r) * (n - r - 1) // 2 for r in range(n + 1))
    boxes = [(r, c) for r in range(n - 1, 0, -1) for c in range(1, n + 1 - r)]
    return (
        offsets,
        tuple(r + c - 1 for r, c in boxes),
        tuple(r for r, _c in boxes),
        tuple((n + 1 - r, offsets[r], (1 << (n - r)) - 1) for r in range(1, n + 1)),
    )


_CROSS_BITS = str.maketrans({CROSS: "1", BUMP: "0"})


def _cross_mask(rows: tuple[str, ...]) -> tuple[int, tuple[int, int] | None]:
    """The cross mask of the rows and the first interior box, in bit order,
    holding neither a cross nor a bump, or None; the crosses from that
    box's row on are left out of the mask."""
    n = len(rows)
    offsets = _layout(n)[0]
    mask = 0
    for r in range(n - 1, 0, -1):
        interior = rows[r - 1][: n - r]
        if interior.strip(CROSS + BUMP):
            c = next(c for c, t in enumerate(interior, start=1) if t not in (CROSS, BUMP))
            return mask, (r, c)
        mask |= int(interior[::-1].translate(_CROSS_BITS), 2) << offsets[r]
    return mask, None


# a fiber's rows repeat across its elements, so the rows of a new mask
# are assembled from shared strings; the bound keeps a large n from
# holding every row it meets
@lru_cache(maxsize=4096)
def _row(length: int, bits: int) -> str:
    """The row of ``length`` tiles with crosses on the set bits of its
    interior, bumps elsewhere, and the elbow last."""
    return "".join(CROSS if bits >> k & 1 else BUMP for k in range(length - 1)) + ELBOW


def _mask_rows(n: int, mask: int) -> tuple[str, ...]:
    """The rows of the dream of size n whose crosses are the set bits."""
    return tuple([_row(length, (mask >> at) & bits) for length, at, bits in _layout(n)[3]])


def _chunk_tables(n: int, bit) -> tuple:
    """Per chunk of up to 8 interior columns start + 1 .. start + width of
    each row r of a cross mask: the chunk's shift in the mask, its width
    mask, and the table whose entry v is the mask of the bits
    ``bit(r, c)`` of the columns c on v's set bits.  Chunks keep every
    table at 256 entries or fewer."""
    offsets = _layout(n)[0]
    out = []
    for r in range(1, n):
        for start in range(0, n - r, 8):
            width = min(8, n - r - start)
            table = [0] * (1 << width)
            for v in range(1, 1 << width):
                low = v & -v
                # the low bit of v stands for column start + low.bit_length()
                table[v] = table[v ^ low] | 1 << bit(r, start + low.bit_length())
            out.append((offsets[r] + start, (1 << width) - 1, tuple(table)))
    return tuple(out)


def _map_chunks(tables: tuple, mask: int) -> int:
    """The mask whose bits the chunks of ``mask`` map to by ``tables``."""
    out = 0
    for shift, bits, table in tables:
        out |= table[(mask >> shift) & bits]
    return out


@lru_cache(maxsize=64)
def _rows_key_tables(n: int) -> tuple:
    """``_chunk_tables`` sending column c of row r to bit
    offsets[r] + n - r - c of ``_rows_key``."""
    offsets = _layout(n)[0]
    return _chunk_tables(n, lambda r, c: offsets[r] + n - r - c)


def _rows_key(n: int, mask: int) -> int:
    """An int that orders the dreams of size n by their cross masks as
    their rows tuples order them.

    Every dream of size n has rows of the same lengths, each ending in
    its elbow, so two rows tuples first differ at an interior box: in the
    topmost row that differs, at its leftmost column that differs, one
    holds B and the other C, and B < C.  Read each row's interior as a
    binary number, column 1 most significant and C as 1, and put the
    rows one after another, row 1 most significant.  The fields have
    fixed widths, so the ints compare as the rows tuples do.  The mask
    holds row r at ``offsets[r]``, which falls as r grows, so its rows
    are already in that order; only each row reads backwards, column c
    of row r at bit offsets[r] + c - 1 where the key has it at
    offsets[r] + n - r - c, which ``_rows_key_tables`` maps chunk by
    chunk."""
    return _map_chunks(_rows_key_tables(n), mask)


def route_crosses(n: int, mask: int) -> tuple[list[int], list]:
    """Route the pipes of a dream of size n given by its cross mask: the
    labels by slot after the last cross (``labels[c]`` exits at column c)
    and the pipe pairs by mask bit, ``pipes[offsets[r] + c - 1]`` being
    (pipe from the west, pipe from the south) at cross (r, c) and None at
    a bump.

    Slot s is the anti-diagonal position of an edge: the west and north
    edges of box (r, c) are slot r + c - 1, its south and east edges slot
    r + c, so the edge shared by two neighbouring boxes has one slot seen
    from either side.  Pipe r enters at the west edge of (r, 1), slot r,
    and leaves column c at the north edge of (1, c), slot c.  A bump turns
    west to north and south to east, and an elbow west to north, so both
    keep every pipe on its slot; a cross sends west to east and south to
    north, which swaps slots r + c - 1 and r + c.  Only the crosses are
    therefore visited, once each.  Visiting a box needs its west and south
    neighbours visited first, and the bit order (rows bottom to top, each
    left to right) is such an order, so the set bits are read lowest
    first.  The pair crossing at a box is the two slots' labels before
    the swap.  The pairs are stored by bit, so every reader (the Lehmer
    vector, the move scans) finds a box's pair by index, with no box
    tuple built or hashed.
    """
    slots = _layout(n)[1]
    labels = list(range(n + 1))
    pipes = [None] * len(slots)
    while mask:
        low = mask & -mask
        mask ^= low
        b = low.bit_length() - 1
        a = slots[b]
        west, south = labels[a], labels[a + 1]
        pipes[b] = (west, south)
        labels[a], labels[a + 1] = south, west
    return labels, pipes


@lru_cache(maxsize=1)
def trace(dream: PipeDream) -> Routing:
    """Route every pipe through the dream's crosses with ``route_crosses``.

    Total on every C/B filling, reduced or not.  A pipe entering an
    interior elbow from the south, which only an unvalidated dream holds,
    is a TheoremViolation.  At the first such elbow (r, c) in bit order
    the pipe is the one on its south slot r + c once the rows below are
    routed; the crosses left of it in row r swap lower slots only.

    The cache holds one dream: every caller that reads a dream more than
    once does so in consecutive calls (the build's seed checks, ``theta``
    after ``is_reduced``).  The build traces only its seed and reads
    every element with ``_route_read``.
    """
    n = dream.n
    mask, elbow = _cross_mask(dream.rows)
    labels, pipes = route_crosses(n, mask)
    if elbow is not None:
        r, c = elbow
        raise TheoremViolation(
            f"pipe {labels[r + c]} entered boundary box ({r},{c}) from the south",
            witness={"dream": dream.to_json(), "pipe": labels[r + c], "box": [r, c]},
        )
    return Routing(Permutation(tuple(labels[1:])), pipes)


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
    for r, pair in zip(_layout(n)[2], routing.pipes):
        if pair is not None:
            h, v = pair
            lo, hi = (h, v) if h < v else (v, h)
            rows[lo - 1][hi - lo - 1] = r
    return InversionsTableau(tuple(tuple(r) for r in rows), routing.wiring)


def phi(dream: PipeDream) -> LehmerTableau:
    """Crossing rows followed by the column-local relabeling."""
    t = theta(dream)
    return lehmer_form(t, t.w)


def _read_table(w: Permutation) -> tuple:
    """What ``_route_read`` reads a dream of w with: per mask bit its west
    slot and its row (see ``_layout``), and from ``_diagram(w)`` the slot
    of each pipe pair in the Lehmer vector and the column starts."""
    diagram = _diagram(w)
    return (*_layout(w.n)[1:3], diagram.slot, diagram.starts)


def _route_read(n: int, mask: int, table: tuple) -> tuple[tuple[int, ...], list] | None:
    """Route the dream of size n with cross mask ``mask`` and read its
    Lehmer vector for w, with ``table = _read_table(w)``, in one pass:
    the vector, and per mask bit the slot in it of the pair crossing
    there (0 at a bump); or None when a check of ``lehmer_vector`` fails.

    The routing is ``route_crosses``'s slot swap, crosses lowest bit
    first.  The crossing pairs must be exactly the inversions of w, one
    crossing each and no other pair, so the dream is reduced and wired
    to w; each crossing row lands in its pair's slot, and
    ``tableaux._relabel`` relabels the columns, which fails when a
    crossing row repeats in one.  The count of crosses is tested first,
    and a pair off the inversions or met twice stops the routing."""
    west, rows, slot, starts = table
    if mask.bit_count() != len(starts):
        return None
    width = n + 1
    labels = list(range(width))
    slots = [0] * len(west)
    entries = [0] * len(starts)
    while mask:
        low = mask & -mask
        mask ^= low
        b = low.bit_length() - 1
        a = west[b]
        x = labels[a]
        y = labels[a + 1]
        labels[a] = y
        labels[a + 1] = x
        s = slot[x * width + y]
        # not an inversion, or an inversion crossing twice
        if s < 0 or entries[s]:
            return None
        entries[s] = rows[b]
        slots[b] = s
    vector = _relabel(starts, entries)
    return None if vector is None else (vector, slots)


def phi_vector(dream: PipeDream, w: Permutation) -> tuple[int, ...]:
    """``lehmer_vector(theta(dream), w)`` read straight off the dream's
    cross mask by ``_route_read``, with no tableau built.

    The sizes must agree as well.  If a check fails,
    ``lehmer_vector(theta(dream), w)`` runs instead, so every error keeps
    its type and message.
    """
    if dream.n == w.n:
        mask, elbow = _cross_mask(dream.rows)
        if elbow is None:
            read = _route_read(w.n, mask, _read_table(w))
            if read is not None:
                return read[0]
    return lehmer_vector(theta(dream), w)


def transpose_rows(rows: tuple[str, ...]) -> tuple[str, ...]:
    """The rows of the reflection across the main diagonal.  Row r of the
    reflection is column r read downwards: with every row padded to length
    n, column r is the r-th entry of ``zip``, cut to its first n + 1 - r
    tiles, those of the rows long enough to hold one."""
    n = len(rows)
    columns = zip(*(row.ljust(n) for row in rows))
    return tuple("".join(col[: n + 1 - r]) for r, col in enumerate(columns, start=1))


@lru_cache(maxsize=64)
def _transpose_tables(n: int) -> tuple:
    """``_chunk_tables`` sending box (r, c) to the bit of box (c, r)."""
    offsets = _layout(n)[0]
    return _chunk_tables(n, lambda r, c: offsets[c] + r - 1)


def _transpose_mask(n: int, mask: int) -> int:
    """The cross mask of the reflection across the main diagonal of the
    dream of size n with cross mask ``mask``, a table lookup per chunk of
    ``_transpose_tables(n)``; ``_cross_mask(transpose_rows(rows))`` on
    masks."""
    return _map_chunks(_transpose_tables(n), mask)


def transpose(dream: PipeDream) -> "PipeDream":
    """Reflect across the main diagonal; wiring becomes its inverse and the
    chute-move order reverses."""
    return PipeDream(transpose_rows(dream.rows))


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
