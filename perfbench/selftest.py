"""Quick self-test of the benchmark harness on the 21-element fiber of 361542.

    python3 perfbench/selftest.py

Exercises the output gate (clean and deliberately corrupted inputs), the
tracer (self times, span parents, uninstall, cache_info passthrough) and
the JSON output of ``run.py`` for both ``--trace`` values, and checks that
``run.py`` refuses to run without the program's sources.  Takes a few
seconds; exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import chutelat  # noqa: E402
from chutelat import chute, poset, verify  # noqa: E402

import child  # noqa: E402
from tracer import Tracer  # noqa: E402

W = chutelat.Permutation.parse("361542")
STEPS = child.WORKLOADS["tiny"].steps


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"selftest FAILED: {what}")
        sys.exit(1)
    print(f"ok  {what}")


def pins():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    return expected["fibers"], expected["workloads"]["tiny"]


def run_gate(results, fiber_pins, wl_pins) -> child.Ledger:
    ledger = child.Ledger()
    child.gate(chutelat, STEPS, [W], results, fiber_pins, wl_pins, ledger)
    return ledger


def test_gate() -> None:
    fiber_pins, wl_pins = pins()
    api = child.Api(chutelat)
    res = child.run_steps(api, W, STEPS)
    clean = run_gate([res], fiber_pins, wl_pins)
    expect(not clean.failures and clean.attempted == 13, "gate passes the real outputs (13 operations)")

    bad_listing = dict(res, listing_sha256="0" * 64)
    ledger = run_gate([bad_listing], fiber_pins, wl_pins)
    expect(len(ledger.failures) == 1 and "listing_sha256" in ledger.failures[0],
           "gate catches a wrong listing digest")

    bad_schubert = dict(res, schubert_equal=False)
    ledger = run_gate([bad_schubert], fiber_pins, wl_pins)
    expect(len(ledger.failures) == 1, "gate catches a Schubert mismatch")

    checks = list(res["report"].checks)
    checks[1] = verify.CheckResult("lattice", "fail", {"note": "x"}, 0)
    bad_report = dict(res, report=verify.VerificationReport(W, tuple(checks)))
    ledger = run_gate([bad_report], fiber_pins, wl_pins)
    expect(len(ledger.failures) == 2, "gate catches a failed check and the report digest")

    ledger = run_gate([{"error": "boom"}], fiber_pins, wl_pins)
    expect(len(ledger.failures) == child.ops_per_perm(STEPS) + 1,
           "a crashed permutation fails each of its operations and the size total")

    ledger = run_gate([res], fiber_pins, dict(wl_pins, elements=22))
    expect(len(ledger.failures) == 1, "gate catches a wrong total fiber size")


def test_tracer() -> None:
    originals = (chute.find_moves, chute.trace, poset.ChutePoset.meet_idx, verify.cached_poset,
                 dict(verify._CHECKERS), poset.enumerate_poset)
    chutelat.cached_poset.cache_clear()
    tracer, built = Tracer(), []
    child.install_layer_spans(tracer, built)
    api = child.Api(chutelat, tracer)
    expect(verify.cached_poset.cache_info() == poset.cached_poset.cache_info(),
           "a wrapped lru_cache still answers cache_info")
    t0 = child._clock()
    child.run_steps(api, W, STEPS)
    run_s = child._clock() - t0
    tracer.uninstall()
    after = (chute.find_moves, chute.trace, poset.ChutePoset.meet_idx, verify.cached_poset,
             dict(verify._CHECKERS), poset.enumerate_poset)
    expect(after == originals, "uninstall restores every wrapped function")
    summary = tracer.summary()
    expect(summary["chute.find_moves"]["calls"] > 0 and built == [21],
           "chute spans are recorded and the one 21-element fiber is counted as built")
    names = [tracer.names[k] for k in tracer.span_name]
    expect(any(names[k] == "pipedream.trace" and p >= 0 and names[p] == "chute.find_moves"
               for k, p in enumerate(tracer.span_parent)),
           "trace calls made by chute are spans of the pipedream layer")
    self_total = sum(rec["self_s"] for rec in summary.values())
    top = [k for k, p in enumerate(tracer.span_parent) if p == -1]
    top_total = sum(tracer.span_end[k] - tracer.span_start[k] for k in top)
    expect(abs(self_total - top_total) < 1e-6, "self times add up to the top-level spans")
    expect(0 < top_total <= run_s, "top-level spans fit inside the timed region")
    expect(all(p < k for k, p in enumerate(tracer.span_parent)),
           "every parent span opens before its children")
    expect(all(e >= s for s, e in zip(tracer.span_start, tracer.span_end)),
           "every span closes")


def run_bench(root: str, *args: str):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


def test_output() -> None:
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run_bench(ROOT, "--workload", "tiny", "--seed", "5", "--seconds", "1", "--trace", trace)
        expect(proc.returncode == 0, f"run.py --trace {trace} exits 0")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}
               and result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"--trace {trace} prints a correct result line")
        units = {m["name"]: m["unit"] for m in bench[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == units, f"--trace {trace} prints exactly the {section} metrics with their units")

    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench_path, bare)
    proc = run_bench(bare, "--workload", "verify-mid", "--seed", "1", "--seconds", "10", "--trace", "0")
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the sources run.py exits nonzero and prints no result")


if __name__ == "__main__":
    test_gate()
    test_tracer()
    test_output()
    print("selftest passed")
