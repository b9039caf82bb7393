import json

import pytest

from chutelat.perm import Permutation
from chutelat.verify import CHECK_NAMES, DEFAULT_BUDGET_MS, run_checks


def test_check_names():
    assert CHECK_NAMES == (
        "isomorphism",
        "lattice",
        "sd",
        "polygonal",
        "transpose",
        "triforce",
    )


def test_all_checks_pass_1432():
    report = run_checks(Permutation.parse("1432"))
    assert report.passed
    assert [c.name for c in report.checks] == list(CHECK_NAMES)
    for c in report.checks:
        assert c.status == "pass"
        assert c.witness is None


def test_report_json_shape():
    report = run_checks(Permutation.parse("2143"), names=("isomorphism", "lattice"))
    blob = report.to_json()
    assert blob["w"] == "2143"
    assert [c["name"] for c in blob["checks"]] == ["isomorphism", "lattice"]
    for c in blob["checks"]:
        assert set(c) == {"name", "status", "witness", "ms"}
        assert c["status"] == "pass"
        assert isinstance(c["ms"], int)
    json.dumps(blob)  # witnesses must stay serializable


def test_zero_budget_skips_everything():
    report = run_checks(Permutation.parse("361542"), budget_ms=0)
    assert all(c.status == "skipped" for c in report.checks)
    assert all(c.witness == {"reason": "budget exhausted"} for c in report.checks)
    assert report.passed  # skips are not failures


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_checks(Permutation.parse("2143"), names=("isomorphism", "bogus"))


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("CHUTELAT_BUDGET_MS", "0")
    report = run_checks(Permutation.parse("2143"), names=("isomorphism",))
    assert report.checks[0].status == "skipped"
    monkeypatch.delenv("CHUTELAT_BUDGET_MS")
    report = run_checks(Permutation.parse("2143"), names=("isomorphism",))
    assert report.checks[0].status == "pass"
    assert DEFAULT_BUDGET_MS == 600_000


def test_triforce_skipped_above_s4():
    report = run_checks(Permutation.parse("12345"), names=("triforce",))
    [c] = report.checks
    assert c.status == "skipped"
    assert "reason" in c.witness
    assert c.witness["reason"] != "budget exhausted"


def test_triforce_runs_in_s4():
    report = run_checks(Permutation.parse("1432"), names=("triforce",))
    assert report.checks[0].status == "pass"


def test_subset_and_order_respected():
    report = run_checks(Permutation.parse("321"), names=("transpose", "sd"))
    assert [c.name for c in report.checks] == ["transpose", "sd"]
    assert report.passed


def test_failing_build_runs_once_and_fails_every_check(monkeypatch):
    # an inverse move that flips only one of its two bits breaks the
    # build; lru_cache keeps nothing that raised, so run_checks keeps the
    # violation and every check reports it, with one build in all
    from chutelat import chute, poset
    from chutelat.errors import TheoremViolation

    scan = chute.inverse_move_scan
    monkeypatch.setattr(
        chute, "inverse_move_scan",
        lambda n, mask, pipes: [(mv, flip & (flip - 1)) for mv, flip in scan(n, mask, pipes)])
    w = Permutation.parse("1432")
    poset.cached_poset.cache_clear()
    with pytest.raises(TheoremViolation) as exc:
        poset.enumerate_poset(w)
    built = []
    build = poset.enumerate_poset
    monkeypatch.setattr(poset, "enumerate_poset", lambda v: built.append(v) or build(v))
    report = run_checks(w)
    assert built == [w]
    want = {"message": str(exc.value), "witness": exc.value.witness}
    assert [c.to_json()["witness"] for c in report.checks] == [want] * len(CHECK_NAMES)
    assert {c.status for c in report.checks} == {"fail"}
