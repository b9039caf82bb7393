"""Acceptance gate: nine exhaustive desk-scale criteria.

Every test here prints exactly one line to the real stdout, either
"criterion k: PASS <label>" or "criterion k: FAIL <label>", so the
verdicts survive pytest's capture and can be grepped from any run.
Failures still raise, keeping the module an ordinary pytest suite.
"""

import functools
import itertools
import time

import pytest

from chutelat.chute import check_increment_correspondence, find_moves
from chutelat.perm import Permutation
from chutelat.pipedream import PipeDream
from chutelat.poset import (
    brute_force_enumerate,
    cached_poset,
    chute_path,
    theta_inverse,
)
from chutelat.schubert import schubert_from_pipedreams, schubert_oracle
from chutelat.tableaux import (
    InversionsTableau,
    increment_multiset,
    lambda_shape_balanced,
    lehmer_form,
    lehmer_form_inverse,
    validate_inversions_tableau,
)
from chutelat.verify import run_checks
from test_tableaux import hook_balanced, hook_boxes


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_verdicts(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(line: str) -> None:
    if _CAPSYS is None:
        print(line, flush=True)
        return
    with _CAPSYS.disabled():
        print(line, flush=True)


def criterion(num: int, label: str):
    def deco(fn):
        @functools.wraps(fn)
        def run():
            try:
                extra = fn()
            except BaseException:
                _report(f"criterion {num}: FAIL  {label}")
                raise
            suffix = f"  [{extra}]" if extra else ""
            _report(f"criterion {num}: PASS  {label}{suffix}")

        return run

    return deco


def perms(n):
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation(word)


@criterion(1, "enumeration agrees with the brute-force oracle for all n <= 5")
def test_criterion_1_enumeration_oracle():
    t0 = time.perf_counter()
    seen = 0
    for n in range(1, 6):
        for w in perms(n):
            assert frozenset(cached_poset(w).elements) == brute_force_enumerate(w)
            seen += 1
    assert seen == 153
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    return f"{seen} permutations in {elapsed:.1f}s"


@criterion(2, "crossing-row and Lehmer forms round-trip on every S_5 fiber")
def test_criterion_2_round_trips():
    for w in perms(5):
        p = cached_poset(w)
        for k, d in enumerate(p.elements):
            t = p.thetas[k]
            assert validate_inversions_tableau(t, w)
            assert theta_inverse(t) == d
            back = lehmer_form_inverse(lehmer_form(t, w))
            assert isinstance(back, InversionsTableau)
            assert back == t


@criterion(3, "move order equals componentwise Lehmer order on all pairs")
def test_criterion_3_order_isomorphism():
    t0 = time.perf_counter()
    targets = list(perms(5)) + [
        Permutation.parse("361542"),
        Permutation.parse("2761543"),
    ]
    for w in targets:
        p = cached_poset(w)
        for a in range(p.size):
            va = p.vectors[a]
            for b in range(p.size):
                dom = all(x <= y for x, y in zip(va, p.vectors[b]))
                assert p.leq_idx(a, b) == dom, (str(w), a, b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    return f"{len(targets)} posets in {elapsed:.1f}s"


@criterion(4, "lattice, semidistributivity, polygonality over S_5 and S_6")
def test_criterion_4_lattice_semidistributive_polygonal():
    names = ("lattice", "sd", "polygonal")
    skipped = []
    for n in (5, 6):
        for w in perms(n):
            report = run_checks(w, names=names, budget_ms=600_000)
            for c in report.checks:
                assert c.status != "fail", (str(w), c.name, c.witness)
                if c.status == "skipped":
                    skipped.append(f"{w}:{c.name}")
    return "skipped: " + (", ".join(skipped) if skipped else "none")


@criterion(5, "every chute move matches its tableau increments, S_5 and fixture")
def test_criterion_5_increment_correspondence():
    for w in perms(5):
        for d in cached_poset(w).elements:
            for mv in find_moves(d):
                check_increment_correspondence(d, mv)
    fixture = PipeDream(
        ("CBCCCCBE", "CCCCCCE", "CBCCBE", "BBBBE", "BBBE", "CBE", "CE", "E")
    )
    moves = [m for m in find_moves(fixture) if m.rect == (1, 3, 2, 5)]
    assert len(moves) == 1
    rep = check_increment_correspondence(fixture, moves[0])
    assert rep.vertical == (6, 8)
    assert rep.p0 == 1
    assert rep.q0 == 3


@criterion(6, "transpose anti-isomorphism on S_5; triforce interval on S_4")
def test_criterion_6_transpose_and_triforce():
    for w in perms(5):
        report = run_checks(w, names=("transpose",))
        assert [c.status for c in report.checks] == ["pass"], str(w)
    for w in perms(4):
        report = run_checks(w, names=("triforce",))
        assert [c.status for c in report.checks] == ["pass"], str(w)
    lifted = Permutation.parse("361542").triforce()
    assert lifted.word == (1, 2, 3, 4, 5, 6, 11, 9, 8, 12, 7, 10)


@criterion(7, "explicit increment paths join every comparable tableau pair, S_5")
def test_criterion_7_chute_paths():
    pairs = 0
    for w in perms(5):
        p = cached_poset(w)
        for a in range(p.size):
            for b in range(p.size):
                if not p.leq_idx(a, b):
                    continue
                t = p.thetas[a]
                for step in chute_path(p.thetas[a], p.thetas[b]):
                    t = increment_multiset(t, step.bset)
                assert t == p.thetas[b], (str(w), a, b)
                pairs += 1
    return f"{pairs} comparable pairs"


@criterion(8, "pipe-dream Schubert sums equal the divided-difference oracle, S_5")
def test_criterion_8_schubert_cross_check():
    t0 = time.perf_counter()
    for w in perms(5):
        poly = schubert_from_pipedreams(w)
        assert poly == schubert_oracle(w), str(w)
        assert poly.evaluate_ones() == cached_poset(w).size
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    return f"{elapsed:.1f}s"


@criterion(9, "running-example tableau facts hold and are realized in the fiber")
def test_criterion_9_fixture_facts():
    w = Permutation.parse("361542")
    fixture = InversionsTableau(
        ((0, 1, 0, 0, 1), (2, 1, 2, 2), (0, 0, 0), (4, 4), (3,)), w
    )
    assert validate_inversions_tableau(fixture, w)

    def facts(t) -> bool:
        outer1 = sorted((t.get(1, 4), t.get(4, 6)))
        outer2 = sorted((t.get(2, 3), t.get(3, 5)))
        hook = sorted(t.get(*b) for b in hook_boxes(6, 2, 6))
        return (
            outer1 == [0, 4]
            and t.get(1, 6) == 1
            and lambda_shape_balanced(t, 1, 4, 6)
            and outer2 == [0, 2]
            and t.get(2, 5) == 2
            and lambda_shape_balanced(t, 2, 3, 5)
            and hook == [0, 1, 2, 2, 2, 3, 4]
            and t.get(2, 6) == 2
            and hook_balanced(t, 2, 6)
        )

    assert facts(fixture)
    realized = [t for t in cached_poset(w).thetas if facts(t)]
    assert len(realized) >= 1
    assert fixture in realized
    return f"{len(realized)} realization(s) in a fiber of {cached_poset(w).size}"
