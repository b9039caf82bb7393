import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chutelat
from chutelat import chute
from chutelat import cli as cli_module
from chutelat.cli import main
from chutelat.perm import Permutation
from chutelat.pipedream import PipeDream
from chutelat.poset import cached_poset


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def dream_file(tmp_path, name, dream):
    path = tmp_path / name
    path.write_text(json.dumps(dream.to_json()))
    return str(path)


def test_enumerate_count(capsys):
    code, out, _ = run(capsys, "enumerate", "2143")
    assert code == 0
    assert out == "3\n"


def test_enumerate_json_round_trip(capsys):
    code, out, _ = run(capsys, "enumerate", "1432", "--json")
    assert code == 0
    dreams = [PipeDream.from_json(obj) for obj in json.loads(out)]
    assert tuple(dreams) == cached_poset(Permutation.parse("1432")).elements


@pytest.mark.parametrize("perm", ["1327654", "12438765"])
def test_enumerate_json_streams_the_bytes_of_one_dump(capsys, perm):
    # the listing is written element by element, with no list of dicts
    # and no whole string, and must match a compact dump of the list
    code, out, _ = run(capsys, "enumerate", perm, "--json")
    assert code == 0
    elements = cached_poset(Permutation.parse(perm)).elements
    assert out == json.dumps([d.to_json() for d in elements], separators=(",", ":")) + "\n"


def test_enumerate_seed_check(capsys):
    # enumerate has no --seed-check; seed_dream has tests of its own
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "2143", "--seed-check"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_enumerate_flag_conflict(capsys):
    code, _, err = run(capsys, "enumerate", "2143", "--count", "--json")
    assert code == 2
    assert "error:" in err


def test_comma_notation(capsys):
    code, out, _ = run(capsys, "enumerate", "2,1,4,3")
    assert code == 0
    assert out == "3\n"


def test_bad_permutation(capsys):
    code, _, err = run(capsys, "enumerate", "99")
    assert code == 2
    assert "error:" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])  # missing the permutation
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["enumerate", "verify"])
def test_out_of_memory_exits_2_without_a_traceback(capsys, monkeypatch, command):
    # a build that runs out of memory is not a failed check (exit 1) but
    # a run that could not be made: exit 2, one line on stderr
    from chutelat import poset

    def build(w):
        raise MemoryError

    monkeypatch.setattr(poset, "enumerate_poset", build)
    cached_poset.cache_clear()
    code, out, err = run(capsys, command, "1432")
    cached_poset.cache_clear()
    assert code == 2
    assert out == ""
    assert err == f"error: out of memory in {command}\n"


def test_hasse_writes_dot(capsys, tmp_path):
    target = tmp_path / "out.dot"
    code, out, _ = run(capsys, "hasse", "2143", "--dot", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("digraph chutelat {")
    assert '1 -> 0 [label="(3,4)"]' in text
    assert text.endswith("}\n")


def test_verify_report(capsys):
    code, out, _ = run(capsys, "verify", "1432")
    assert code == 0
    report = json.loads(out)
    assert report["w"] == "1432"
    assert [c["status"] for c in report["checks"]] == ["pass"] * 6


def test_verify_reports_a_failed_vector_read_as_a_violation(capsys, monkeypatch):
    # an inverse-move scan that keeps only the lower flip bit, the cross
    # each undone move removes, reaches dreams short of a crossing; their
    # Lehmer vector read fails inside the build, which is a violation
    # with a witness (exit 1), not a usage error (exit 2)
    scan = chute.inverse_move_scan
    monkeypatch.setattr(
        chute, "inverse_move_scan",
        lambda n, mask, pipes: [(mv, flip & -flip) for mv, flip in scan(n, mask, pipes)],
    )
    cached_poset.cache_clear()
    code, out, err = run(capsys, "verify", "1432")
    assert code == 1
    assert err == ""
    checks = json.loads(out)["checks"]
    assert [c["status"] for c in checks] == ["fail"] * 6
    failure = checks[0]["witness"]
    assert failure["message"] == (
        "not column-injective for 1432: (2,3) is an inversion of 1432 but holds 0"
    )
    assert failure["witness"] == {
        "w": "1432",
        "dream": {"n": 4, "rows": ["BBBE", "CBE", "CE", "E"]},
        "source": {"n": 4, "rows": ["BBBE", "CCE", "CE", "E"]},
        "move": {"rect": [1, 2, 2, 3], "pipes": [2, 3]},
    }
    assert all(c["witness"] == checks[0]["witness"] for c in checks)


def test_verify_checks_subset(capsys):
    code, out, _ = run(capsys, "verify", "2143", "--checks", "isomorphism,lattice")
    assert code == 0
    assert [c["name"] for c in json.loads(out)["checks"]] == ["isomorphism", "lattice"]


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "2143", "--checks", "bogus")
    assert code == 2
    assert "unknown checks" in err


def test_verify_empty_checks_exits_2(capsys):
    # an empty list is not the absent option, which runs every check
    code, out, err = run(capsys, "verify", "2143", "--checks", "")
    assert code == 2
    assert out == ""
    assert err == "error: --checks names no check\n"


@pytest.mark.parametrize("checks, message", [
    (",lattice", "check 1 of the list is empty"),
    ("lattice,", "check 2 of the list is empty"),
    ("lattice,sd,lattice", "check lattice is listed twice"),
])
def test_verify_empty_or_repeated_check_exits_2(capsys, checks, message):
    code, out, err = run(capsys, "verify", "2143", "--checks", checks)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_zero_budget(capsys):
    code, out, _ = run(capsys, "verify", "361542", "--budget-ms", "0")
    assert code == 0
    assert all(c["status"] == "skipped" for c in json.loads(out)["checks"])


def test_verify_negative_budget_exits_2(capsys):
    code, out, err = run(capsys, "verify", "2143", "--budget-ms", "-5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("value", ["abc", "1.5", "10ms"])
def test_verify_non_integer_budget_env_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("CHUTELAT_BUDGET_MS", value)
    code, out, err = run(capsys, "verify", "132")
    assert code == 2
    assert out == ""
    assert err == f"error: CHUTELAT_BUDGET_MS must be an integer number of ms, got {value!r}\n"


def test_schubert(capsys):
    code, out, _ = run(capsys, "schubert", "321")
    assert code == 0
    assert out == "x1^2 x2\n"


def test_schubert_oracle_check(capsys):
    code, out, _ = run(capsys, "schubert", "1432", "--oracle-check")
    assert code == 0
    assert out.splitlines() == [
        "x1^2 x2 + x1^2 x3 + x1 x2^2 + x1 x2 x3 + x2^2 x3",
        "oracle: equal",
    ]


def test_path_steps(capsys, tmp_path):
    p = cached_poset(Permutation.parse("2143"))
    src = dream_file(tmp_path, "lo.json", p.elements[2])
    dst = dream_file(tmp_path, "hi.json", p.elements[0])
    code, out, _ = run(capsys, "path", "2143", "--from", src, "--to", dst)
    assert code == 0
    assert json.loads(out) == [
        {"box": [3, 4], "bset": [[3, 4]]},
        {"box": [3, 4], "bset": [[3, 4]]},
    ]


def test_path_incomparable(capsys, tmp_path):
    p = cached_poset(Permutation.parse("1432"))
    src = dream_file(tmp_path, "a.json", p.elements[1])
    dst = dream_file(tmp_path, "b.json", p.elements[2])
    code, out, _ = run(capsys, "path", "1432", "--from", src, "--to", dst)
    assert code == 0
    assert out == "incomparable\n"


def test_path_other_value_error_exits_2(capsys, tmp_path, monkeypatch):
    # only the Incomparable type prints "incomparable"; a plain ValueError
    # exits 2 whatever its text says
    def fail(t_from, t_to):
        raise ValueError("tableaux are incomparable")

    monkeypatch.setattr(cli_module, "chute_path", fail)
    p = cached_poset(Permutation.parse("2143"))
    src = dream_file(tmp_path, "lo.json", p.elements[2])
    dst = dream_file(tmp_path, "hi.json", p.elements[0])
    code, out, err = run(capsys, "path", "2143", "--from", src, "--to", dst)
    assert code == 2
    assert out == ""
    assert err == "error: tableaux are incomparable\n"


def test_path_from_above_exits_2(capsys, tmp_path):
    # max >= min on 2143, so the pair is comparable: there is no upward
    # path from the top to the bottom, and saying "incomparable" was wrong
    p = cached_poset(Permutation.parse("2143"))
    src = dream_file(tmp_path, "top.json", p.elements[0])
    dst = dream_file(tmp_path, "bottom.json", p.elements[2])
    code, out, err = run(capsys, "path", "2143", "--from", src, "--to", dst)
    assert code == 2
    assert out == ""
    assert err == "error: the start lies strictly above the target; a path only goes up\n"


def test_path_wrong_fiber(capsys, tmp_path):
    p = cached_poset(Permutation.parse("2143"))
    src = dream_file(tmp_path, "a.json", p.elements[0])
    code, _, err = run(capsys, "path", "1234", "--from", src, "--to", src)
    assert code == 2
    assert "does not belong" in err


def test_render(capsys, tmp_path):
    path = dream_file(tmp_path, "d.json", PipeDream.from_crosses(3, {(1, 1)}))
    code, out, _ = run(capsys, "render", path)
    assert code == 0
    assert out == "+))\n))\n)\n"


@pytest.mark.parametrize("blob", [
    "{}", "[1]", '{"n": 1, "rows": [1]}',
    '{"n": true, "rows": ["E"]}', '{"n": 1.0, "rows": ["E"]}',
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000"),
])
def test_render_malformed_dream_exits_2(capsys, tmp_path, blob):
    path = tmp_path / "bad.json"
    path.write_text(blob)
    code, out, err = run(capsys, "render", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_info(capsys):
    code, out, _ = run(capsys, "info", "361542")
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "w": "361542",
        "n": 6,
        "inversions": 9,
        "code": [2, 4, 0, 2, 1, 0],
        "pd_size": 21,
    }


def test_info_skips_large_enumeration(capsys):
    code, out, _ = run(capsys, "info", "12345678")
    assert code == 0
    assert json.loads(out)["pd_size"] is None


def test_repeat_invocations_identical_bytes():
    # the child imports the package this process imported, also when only
    # pytest's own pythonpath setting put it on the path
    src = str(Path(chutelat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "chutelat", "enumerate", "1432", "--json"]
    a = subprocess.run(cmd, capture_output=True, env=env)
    b = subprocess.run(cmd, capture_output=True, env=env)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    cmd = [sys.executable, "-m", "chutelat", "schubert", "2143"]
    a = subprocess.run(cmd, capture_output=True, env=env)
    b = subprocess.run(cmd, capture_output=True, env=env)
    assert a.stdout == b.stdout != b""
