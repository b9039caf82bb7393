"""Machine checks of the structure theorems, one permutation at a time.

Each check either passes, fails with a serializable witness, or is skipped
when the shared time budget runs out.  Failures are first-class results,
not exceptions: the point of the package is to hunt for counterexamples,
so a red check with a witness is a more valuable outcome than a crash.
"""

from __future__ import annotations

import os
import time
from array import array
from dataclasses import dataclass
from itertools import chain, combinations, islice

from .chute import inverse_move_scan
from .errors import TheoremViolation
from .perm import Permutation
# ``transpose`` and ``classify_polygon`` are no longer called here;
# perfbench/child.py wraps ``verify.transpose`` and
# ``verify.classify_polygon`` by name, so the names stay
from .pipedream import (
    _read_table,
    _route_read,
    _transpose_mask,
    transpose,
    triforce_embed,
)
from .poset import (
    ChutePoset,
    PolygonType,
    _bits,
    _seed_mask,
    _span_polygon,
    cached_poset,
    classify_polygon,
)
from .tableaux import _support

__all__ = [
    "CheckResult",
    "VerificationReport",
    "Deadline",
    "run_checks",
    "CHECK_NAMES",
    "DEFAULT_BUDGET_MS",
]

DEFAULT_BUDGET_MS = 600_000


class _BudgetExceeded(Exception):
    pass


class _SkipCheck(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class Deadline:
    """Wall-clock budget shared by all checks of one verification run."""

    def __init__(self, budget_ms: int | None):
        if budget_ms is None:
            env = os.environ.get("CHUTELAT_BUDGET_MS")
            try:
                budget_ms = int(env) if env else DEFAULT_BUDGET_MS
            except ValueError:
                raise ValueError(
                    f"CHUTELAT_BUDGET_MS must be an integer number of ms, got {env!r}"
                ) from None
        if budget_ms < 0:
            raise ValueError(f"budget must be at least 0 ms, got {budget_ms}")
        self.budget_ms = budget_ms
        self.start = time.perf_counter()

    def poll(self) -> None:
        if (time.perf_counter() - self.start) * 1000.0 > self.budget_ms:
            raise _BudgetExceeded


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | skipped
    witness: object
    ms: int

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "witness": self.witness,
            "ms": self.ms,
        }


@dataclass(frozen=True)
class VerificationReport:
    w: Permutation
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json(self) -> dict:
        return {"w": str(self.w), "checks": [c.to_json() for c in self.checks]}


def _pair_witness(poset: ChutePoset, a: int, b: int, note: str) -> dict:
    return {
        "note": note,
        "pair": [poset.elements[a].to_json(), poset.elements[b].to_json()],
    }


def check_isomorphism(poset: ChutePoset, deadline: Deadline):
    """Move-closure order equals componentwise order on Lehmer forms.

    ``ChutePoset.__init__`` has made the forms distinct (theta is injective,
    and so is ``lehmer_form``); equal forms would fail here anyway, since
    distinct elements of an acyclic order have distinct up-sets."""
    thresholds, full = _threshold_masks(poset), (1 << poset.size) - 1
    for a, va in enumerate(poset.vectors):
        deadline.poll()
        above = full
        for k, x in enumerate(va):
            above &= thresholds[k][x]
        differ = above ^ poset._up0(a)
        if differ:
            return _pair_witness(
                poset, a, poset._canonical(differ)[0],
                "move order and componentwise order disagree",
            )
    return None


def _threshold_masks(poset: ChutePoset) -> list[list[int]]:
    """``T[k][x]``: mask of the elements whose Lehmer vector has entry at
    least x in coordinate k, so the componentwise up-set of a vector v is
    the AND over k of ``T[k][v[k]]``."""
    rank = poset._rank
    out = []
    for column in zip(*poset.vectors):
        at = [0] * (max(column) + 1)
        for g, x in enumerate(column):
            at[x] |= 1 << rank[g]
        for x in range(len(at) - 2, -1, -1):
            at[x] |= at[x + 1]
        out.append(at)
    return out


def _all_pairs_bound(poset: ChutePoset, deadline: Deadline, joins: bool) -> None:
    """Definitional sweep: the meet (and with ``joins`` the join) of every
    pair a <= b in canonical order.  The first one missing raises its
    ``TheoremViolation``, which is the witness; this is the fallback of
    ``lattice`` and of ``transpose``'s meet test."""
    size = poset.size
    for a in range(size):
        deadline.poll()
        for b in range(a, size):
            poset.meet_idx(a, b)
            if joins:
                poset.join_idx(a, b)


def _unbounded_pair(poset: ChutePoset):
    """Two move-minimal or two move-maximal elements, or None.  Moves are
    acyclic (``ChutePoset.__init__`` checks that each raises the Lehmer
    total), so one source and one sink are a bottom and a top."""
    for ends in poset._ends:
        if len(ends) != 1:
            return tuple(ends[:2])
    return None


def _forks(poset: ChutePoset, g: int, up: bool):
    """The forks at g: the pairs of its upper covers (with ``up``) or of
    its lower covers, in cover order."""
    return combinations((poset.covers_up_idx if up else poset.covers_down_idx)(g), 2)


def _fork_bounds(poset: ChutePoset, deadline: Deadline, up: bool) -> array:
    """The fork table of one side: the join of every up-fork (with ``up``)
    or the meet of every down-fork, in ``_forks`` order, -1 where the
    bound does not exist.  Built on first use, polling once per element,
    and kept on the poset for the other checks of the run; a build the
    budget cuts short keeps nothing."""
    attr = "_up_fork_bounds" if up else "_down_fork_bounds"
    table = getattr(poset, attr)
    if table is None:
        bound = poset.join_idx if up else poset.meet_idx
        table = array("i")
        for g in range(poset.size):
            deadline.poll()
            for a, b in _forks(poset, g, up):
                try:
                    table.append(bound(a, b))
                except TheoremViolation:
                    table.append(-1)
        setattr(poset, attr, table)
    return table


def _fork_failure(poset: ChutePoset, deadline: Deadline, up: bool):
    """The first up-fork without a join (with ``up``) or down-fork without
    a meet.  None when every fork has its bound."""
    try:
        missing = _fork_bounds(poset, deadline, up).index(-1)
    except ValueError:
        return None
    forks = chain.from_iterable(_forks(poset, g, up) for g in range(poset.size))
    return next(islice(forks, missing, None))


# A certificate returns None when it proves its claim.  Otherwise the
# definitional sweep runs unchanged, so a failure keeps the witness it has
# always had, and the certificate returns what to report should the sweep
# pass anyway: that its theorem has been refuted on this poset.


def _lattice_certificate(poset: ChutePoset, deadline: Deadline):
    """A finite bounded poset in which every two upper covers of one
    element have a join is a lattice (Bjorner, Edelman and Ziegler,
    "Hyperplane arrangements with a lattice of regions", *Discrete Comput.
    Geom.* 5 (1990), Lemma 2.1).  So a unique bottom and top and one join
    per up-fork decide what the all-pairs sweep decides.  Every pair the
    certificate can stop at (two minimal or two maximal elements, or a
    fork) fails the sweep too, so a passing sweep refutes the lemma."""
    bad = _unbounded_pair(poset)
    if bad is None:
        bad = _fork_failure(poset, deadline, up=True)
    if bad is None:
        return None
    return _pair_witness(poset, *bad, "bounded-fork criterion disagrees with all-pairs search")


def check_lattice(poset: ChutePoset, deadline: Deadline):
    """Unique bottom and top, and every pair has a meet and a join.  The
    bounded-fork certificate decides; when it fails, the bound checks and
    the all-pairs sweep run as the definition and give the witness."""
    refuted = _lattice_certificate(poset, deadline)
    if refuted is None:
        return None
    poset.min_element()
    poset.max_element()
    _all_pairs_bound(poset, deadline, joins=True)
    return refuted


def _kappa_certificate(poset: ChutePoset, deadline: Deadline, meet_side: bool):
    """Semidistributivity on one side of a lattice, by kappa.

    Let j be join-irreducible with lower cover j_*.  Then x ^ j = j_*
    exactly when x >= j_* and x is not >= j, so that set is
    K(j) = ``_up0(j_*) & ~_up0(j)``, which holds j_*.  A finite lattice is
    meet-semidistributive iff every K(j) has a greatest element, kappa(j)
    (Freese, Jezek and Nation, *Free Lattices*, 1995, Thm 2.56; Reading,
    Speyer and Thomas, arXiv:1907.08050).  Its candidate is the top bit of
    K(j), last in the linear extension.  The join side is dual, on
    meet-irreducibles m with upper cover m^*: K(m) is
    ``_down0(m^*) & ~_down0(m)`` and its low bit must be least.  The
    theorem needs a lattice, so ``_lattice_certificate`` runs first."""
    order = poset._order
    for j in range(poset.size):
        covers = poset.covers_down_idx(j) if meet_side else poset.covers_up_idx(j)
        if len(covers) != 1:
            continue
        deadline.poll()
        c = covers[0]
        if meet_side:
            kset = poset._up0(c) & ~poset._up0(j)
            ok = not kset & ~poset._down0(order[kset.bit_length() - 1])
        else:
            kset = poset._down0(c) & ~poset._down0(j)
            ok = not kset & ~poset._up0(order[(kset & -kset).bit_length() - 1])
        if not ok:
            side = "meet" if meet_side else "join"
            return _pair_witness(
                poset, j, c, f"{side}-side kappa criterion disagrees with definition")
    return None


def _buckets_have_extreme(poset, deadline, meet_side: bool):
    """Definitional semidistributivity on one side.  The covers-only
    criterion is evaluated in the same sweep; since a cover failure is a
    special case of a definitional one, the routes can only disagree when
    the definition fails while every cover bucket is clean, which would
    refute the covers-only reduction and gets its own witness."""
    size = poset.size
    rank, order = poset._rank, poset._order
    bound = poset.meet_idx if meet_side else poset.join_idx
    def_bad = None
    cover_bad = None
    for fixed in range(size):
        deadline.poll()
        buckets: dict[int, int] = {}
        for g in range(size):
            key = bound(g, fixed)
            buckets[key] = buckets.get(key, 0) | (1 << rank[g])
        if meet_side:
            cover_keys = set(poset.covers_down_idx(fixed))
        else:
            cover_keys = set(poset.covers_up_idx(fixed))
        for key, bucket in buckets.items():
            # the bucket's candidate extreme is its last (first) element in
            # the linear extension; it is the extreme iff it dominates all
            if meet_side:
                ok = not bucket & ~poset._down0(order[bucket.bit_length() - 1])
            else:
                ok = not bucket & ~poset._up0(order[(bucket & -bucket).bit_length() - 1])
            if not ok:
                if def_bad is None:
                    def_bad = (key, fixed)
                if cover_bad is None and key in cover_keys:
                    cover_bad = (key, fixed)
    side = "meet" if meet_side else "join"
    if def_bad is not None and cover_bad is None:
        return _pair_witness(
            poset, *def_bad,
            f"{side}-side covers-only criterion disagrees with definition",
        )
    if def_bad is not None:
        return _pair_witness(
            poset, *def_bad,
            f"{side}-semidistributivity fails on this bucket",
        )
    return None


def check_semidistributive(poset: ChutePoset, deadline: Deadline):
    """Meet- and join-semidistributive.  The lattice certificate and then
    the kappa certificate of each side decide; a non-lattice never reaches
    kappa.  When one fails, the definitional bucket sweep gives the
    witness, or raises the first missing meet or join."""
    refuted = (
        _lattice_certificate(poset, deadline)
        or _kappa_certificate(poset, deadline, meet_side=True)
        or _kappa_certificate(poset, deadline, meet_side=False)
    )
    if refuted is None:
        return None
    return (
        _buckets_have_extreme(poset, deadline, meet_side=True)
        or _buckets_have_extreme(poset, deadline, meet_side=False)
        or refuted
    )


def check_polygonal(poset: ChutePoset, deadline: Deadline):
    """Every fork span is a diamond or a pentagon, and so no interval at
    all is a larger polygon.

    Only fork spans need classifying.  Let [a, b] be a polygon: two
    maximal chains meeting only at a and b.  Their first steps x and y
    are upper covers of a, and a < x v y <= b.  An element of [a, b]
    above both x and y lies on a maximal chain through x and on one
    through y, so on both chains, so it is b.  Hence x v y = b: [a, b] is
    the span of the up-fork (x, y) at a, and the fork loop classifies it.

    Each fork's bound comes from the fork table, and its span is named
    by one ``_span_polygon`` call, which walks the span's two chains up
    the cover rows.  A fork without a bound raises the bound's own
    violation when the loop reaches it.  A span met again is skipped: it
    passed the first time, or the check would have returned, so the
    first failing span and its witness stay.
    """
    seen = set()
    tables = {up: iter(_fork_bounds(poset, deadline, up)) for up in (True, False)}
    for g in range(poset.size):
        deadline.poll()
        for up, bounds in tables.items():
            for x, y in _forks(poset, g, up):
                b = next(bounds)
                if b < 0:
                    (poset.join_idx if up else poset.meet_idx)(x, y)
                span = (g, b) if up else (b, g)
                if span in seen:
                    continue
                seen.add(span)
                verdict = _span_polygon(poset, *span)
                if verdict not in (PolygonType.DIAMOND, PolygonType.PENTAGON):
                    return {
                        "note": "interval is not a diamond or pentagon",
                        "bottom": poset.elements[span[0]].to_json(),
                        "top": poset.elements[span[1]].to_json(),
                        "verdict": verdict.value,
                    }
    return None


def _cover_certificate(poset: ChutePoset, other: ChutePoset, image: list, deadline: Deadline):
    """A bijection that maps the cover edges of one finite poset exactly
    onto the reversed cover edges of another is an order anti-isomorphism,
    since each order is the reflexive-transitive closure of its covers.
    ``image`` is a bijection (transposition is injective and the sizes are
    equal), so it suffices that, for every a, the images of a's upper
    covers are the lower covers of a's image."""
    for a in range(poset.size):
        deadline.poll()
        ups = {image[j] for j in poset.covers_up_idx(a)}
        differ = ups ^ set(other.covers_down_idx(image[a]))
        if differ:
            b = min(k for k, t in enumerate(image) if t in differ)
            return _pair_witness(poset, a, b, "cover-edge criterion disagrees with the order pass")
    return None


def _reversal_sweep(poset: ChutePoset, other: ChutePoset, image: list, deadline: Deadline):
    """Definitional order pass: the up-set of every a, carried into the
    other poset's bit order, must be the down-set of a's image."""
    size = poset.size
    # ``preimage`` maps a bit of the other poset back to b
    image_bit = [1 << other._rank[image[k]] for k in poset._order]
    preimage = [0] * size
    for b, t in enumerate(image):
        preimage[other._rank[t]] = b
    for a in range(size):
        deadline.poll()
        carried = 0
        for r in _bits(poset._up0(a)):
            carried |= image_bit[r]
        differ = carried ^ other._down0(image[a])
        if differ:
            b = min(preimage[r] for r in _bits(differ))
            return _pair_witness(poset, a, b, "transpose order not reversed")
    return None


def _transpose_image(poset: ChutePoset, other: ChutePoset) -> list[int]:
    """The index in ``other`` of each element's transpose, -1 where the
    transpose is not there.  Transposes are looked up by cross mask, so
    no dream or row is built for them."""
    n = poset.w.n
    position = {m: k for k, m in enumerate(other.cross_masks)}
    return [position.get(_transpose_mask(n, m), -1) for m in poset.cross_masks]


def _inverse_move_certificate(poset: ChutePoset, deadline: Deadline):
    """The Lehmer vectors of the transposes, read with no fiber of w^-1
    built, and None; or None and the refutation to report should the
    order pass agree with the inverse fiber after all.

    Write T for transposition of cross masks, Q for the fiber of w^-1
    with its move edges, and q0 for the top of Q, the seed dream of w^-1,
    whose cross mask is ``_seed_mask(w^-1)``.  The certificate asks,
    polling once per image:

    - the poset has one source b, and T(b) = q0;
    - each image T(a) has a Lehmer vector by ``_route_read`` with
      ``_read_table(w^-1)``, which routes it once: its crossing pairs are
      the inversions of w^-1, each crossing once, so T(a) is reduced and
      wired to w^-1, and lies in Q;
    - ``inverse_move_scan`` on T(a) finds exactly the dreams T(j), j a
      move target of a: the moves into T(a) in Q are the transposes of
      the moves out of a;
    - and what the build of Q would check: the vectors are distinct, and
      each move T(j) -> T(a) raises their Lehmer total.

    Then T is an order anti-isomorphism onto Q.  Every a lies above b,
    the one source of an acyclic move graph, along moves a' -> j whose
    transposes T(j) -> T(a') are inverse moves, so inverse moves reach
    every image from q0; and the images hold every inverse move of each
    image.  So they are exactly what inverse moves reach from q0, which
    is all of Q (Bergeron and Billey, "RC-graphs and Schubert
    polynomials", *Exp. Math.* 2 (1993)) and is what ``enumerate_poset``
    builds for w^-1.  T is injective, so it is a bijection onto Q.  Every
    move edge of Q ends at some T(a), and those into T(a) are the
    T(j) -> T(a) for the moves a -> j, so T carries the move edges onto
    those of Q, reversed.  Each order is the closure of its move edges,
    so T reverses order.  The build of Q would read the same vectors and
    pass its own checks, the two above and a seed with no move out of it,
    since no move leads into b; so ``_inverse_fiber_check`` would pass
    its size, image and cover tests and go on to the same meet and
    last-column tests with the same vectors."""
    w, n = poset.w, poset.w.n
    inverse = w.inverse()
    images = [_transpose_mask(n, mask) for mask in poset.cross_masks]

    def stop(a):
        return None, {"note": "inverse-move criterion disagrees with the inverse fiber",
                      "dream": poset.elements[a].to_json()}

    sources = poset._ends[0]
    if len(sources) != 1 or images[sources[0]] != _seed_mask(inverse):
        return stop(sources[0])
    table = _read_table(inverse)
    read, scan, poll = _route_read, inverse_move_scan, deadline.poll
    vectors, starts, targets = [], poset._starts, poset._targets
    for a, image in enumerate(images):
        poll()
        got = read(n, image, table)
        if got is None or (
            {image ^ flip for _mv, flip in scan(n, image, got[1])}
            != {images[j] for j in targets[starts[a]:starts[a + 1]]}
        ):
            return stop(a)
        vectors.append(got[0])
    seen = set()
    for a, vector in enumerate(vectors):
        if vector in seen:
            return stop(a)
        seen.add(vector)
    totals = [sum(v) for v in vectors]
    for a, total in enumerate(totals):
        for j in targets[starts[a]:starts[a + 1]]:
            if totals[j] >= total:
                return stop(a)
    return vectors, None


def _inverse_fiber_check(poset: ChutePoset, deadline: Deadline):
    """The transpose check on the built fiber of w^-1: the images are
    looked up in it by cross mask, the anti-isomorphism is certified on cover
    edges (``_cover_certificate``) and, if that fails, decided by the
    definitional order pass."""
    other = cached_poset(poset.w.inverse())
    if other.size != poset.size:
        return {"note": "fibers of w and its inverse differ in size",
                "sizes": [poset.size, other.size]}
    image = _transpose_image(poset, other)
    if -1 in image:
        d = poset.elements[image.index(-1)]
        return {"note": "transpose left the fiber", "dream": d.to_json()}
    refuted = _cover_certificate(poset, other, image, deadline)
    if refuted is not None:
        return _reversal_sweep(poset, other, image, deadline) or refuted
    return _meets_and_last_column(poset, deadline, [other.vectors[t] for t in image])


def _meets_and_last_column(poset: ChutePoset, deadline: Deadline, image_vectors: list):
    """The rest of the transpose check, once the anti-isomorphism holds:
    every meet exists, and each last-column pair transposes to a pair
    differing only in the forced row.  ``image_vectors[a]`` is the Lehmer
    vector of a's transpose for w^-1."""
    if _unbounded_pair(poset) is not None:
        _all_pairs_bound(poset, deadline, joins=False)
    else:
        fork = _fork_failure(poset, deadline, up=False)
        if fork is not None:
            _all_pairs_bound(poset, deadline, joins=False)
            return _pair_witness(
                poset, *fork, "bounded down-fork criterion disagrees with the meet sweep")
    w = poset.w
    n = w.n
    inverse = w.inverse()
    row0 = inverse(n)
    # the last column holds one inversion (i, n) per value i right of n
    cut = len(_support(w)) - (n - row0)
    kept = [k for k, (i, _j) in enumerate(_support(inverse)) if i != row0]
    # a pair fails when its images differ off the forced row, so each group
    # of one prefix before the last column is split by its images' vectors
    # off that row, and only a group split in two or more can fail
    keys = [
        (v[:cut], tuple(map(image.__getitem__, kept)))
        for v, image in zip(poset.vectors, image_vectors)
    ]
    split: dict = {}
    for a, (prefix, off) in enumerate(keys):
        split.setdefault(prefix, {}).setdefault(off, []).append(a)
    for a, (prefix, off) in enumerate(keys):
        deadline.poll()
        parts = split[prefix]
        if len(parts) > 1:
            above = [b for key, part in parts.items() if key != off
                     for b in part if poset.leq_idx(a, b)]
            if above:
                return _pair_witness(
                    poset, a, min(above),
                    "transposed pair differs outside the forced row",
                )
    return None


def check_transpose_antiisomorphism(poset: ChutePoset, deadline: Deadline):
    """Transposition is an order anti-isomorphism onto the fiber of the
    inverse permutation, and a pair whose Lehmer forms differ only in the
    last column transposes to a reversed pair differing only in one row.

    For an involution, w^-1 = w, so the fiber of w^-1 is the one being
    checked, already built; ``_inverse_fiber_check`` finds it in the cache
    and decides directly, so no certificate can be refuted.  Otherwise the anti-isomorphism is certified on
    the transposes' inverse moves (``_inverse_move_certificate``), which
    exists only to avoid building the fiber of w^-1.  If that fails,
    ``_inverse_fiber_check`` builds the fiber and decides, giving the
    witness.  The anti-isomorphism maps the common lower bounds of a
    and b onto the common upper bounds of their images, the greatest onto
    the least; so meets go to joins, and only their existence is tested.
    That is the dual of the bounded-fork certificate: a bounded poset
    whose down-forks all have meets is a lattice.  When the certificate
    fails, or cannot apply because the poset is unbounded, the all-pairs
    meet sweep decides and gives the witness.  A pair differing only in
    the last column has equal Lehmer vectors off it, so only such groups
    are searched, and only those whose images do not all agree off the
    forced row; the first pair a <= b of one in the pairwise order whose
    images differ there is the witness, and a b above a already has its
    image below a's.  The support is in (column, row) order, so the group
    is the prefix before the last column.
    """
    if poset.w == poset.w.inverse():
        return _inverse_fiber_check(poset, deadline)
    vectors, refuted = _inverse_move_certificate(poset, deadline)
    if refuted is not None:
        return _inverse_fiber_check(poset, deadline) or refuted
    return _meets_and_last_column(poset, deadline, vectors)


def check_triforce_interval(poset: ChutePoset, deadline: Deadline):
    """The doubled staircase embeds the whole fiber as the interval between
    the images of bottom and top, preserving order both ways."""
    w = poset.w
    if w.n > 4:
        raise _SkipCheck("triforce check guarded to n <= 4")
    big = cached_poset(w.triforce())
    image = []
    for d in poset.elements:
        e = triforce_embed(d)
        if e not in big.index:
            return {"note": "embedded dream left the fiber", "dream": d.to_json()}
        image.append(big.index[e])
    lo = image[poset.idx(poset.min_element())]
    hi = image[poset.idx(poset.max_element())]
    iv = big.interval_idx(lo, hi)
    image_mask = sum(1 << big._rank[k] for k in set(image))
    if iv.mask != image_mask:
        return {"note": "image is not the bottom-to-top interval",
                "interval_size": iv.size, "image_size": image_mask.bit_count()}
    size = poset.size
    for a in range(size):
        deadline.poll()
        for b in range(size):
            if poset.leq_idx(a, b) != big.leq_idx(image[a], image[b]):
                return _pair_witness(poset, a, b, "embedding is not an order map")
    return None


_CHECKERS = {
    "isomorphism": check_isomorphism,
    "lattice": check_lattice,
    "sd": check_semidistributive,
    "polygonal": check_polygonal,
    "transpose": check_transpose_antiisomorphism,
    "triforce": check_triforce_interval,
}
CHECK_NAMES = tuple(_CHECKERS)


def _violation(exc: TheoremViolation) -> dict:
    return {"message": str(exc), "witness": exc.witness}


def run_checks(
    w: Permutation,
    names: tuple[str, ...] | None = None,
    budget_ms: int | None = None,
) -> VerificationReport:
    if names is None:
        names = CHECK_NAMES
    for pos, nm in enumerate(names):
        if not nm:
            raise ValueError(f"check {pos + 1} of the list is empty")
        if nm in names[:pos]:
            raise ValueError(f"check {nm} is listed twice")
    unknown = [nm for nm in names if nm not in _CHECKERS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    deadline = Deadline(budget_ms)
    results = []
    # the fiber is built by the first check that gets past the budget; a
    # build that raises is not cached, so its violation is kept here and
    # reported by every check, with no second build
    poset = broken = None
    for nm in names:
        t0 = time.perf_counter()
        try:
            deadline.poll()
            if poset is None and broken is None:
                try:
                    poset = cached_poset(w)
                except TheoremViolation as exc:
                    broken = _violation(exc)
            if broken is not None:
                status, witness = "fail", broken
            else:
                witness = _CHECKERS[nm](poset, deadline)
                status = "pass" if witness is None else "fail"
        except _BudgetExceeded:
            status, witness = "skipped", {"reason": "budget exhausted"}
        except _SkipCheck as exc:
            status, witness = "skipped", {"reason": exc.reason}
        except TheoremViolation as exc:
            status, witness = "fail", _violation(exc)
        ms = int((time.perf_counter() - t0) * 1000)
        results.append(CheckResult(nm, status, witness, ms))
    return VerificationReport(w, tuple(results))
