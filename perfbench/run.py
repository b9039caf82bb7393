"""chutelat benchmark: one workload run, each pass in a fresh interpreter.

    python3 perfbench/run.py --workload verify-mid|enumerate-n8|sweep-s6|all
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
``--trace 0`` starts a few set-up-only children, then untraced passes
until ``--seconds`` of passes have run (at least one), and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics; the difference between the two
``run_s`` is the tracing overhead.  Every metric is printed by name with
its unit, and the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 1 when any
output check fails or an exact counter drifts, and 2 when the benchmark
cannot run at all (no ``src/chutelat`` beside it, a child that crashed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

from child import CHECKS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

BENCH_WORKLOADS = ("verify-mid", "enumerate-n8", "sweep-s6")
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0  # every run must end within 180 s
# Counters that must repeat bit for bit between passes and runs of one
# workload and seed.  Those read from cache_info() depend on the visiting
# order, hence on the seed.
EXACT_COUNTERS = (
    "poset.elements", "poset.move_edges", "poset.cover_edges",
    "poset.single_moves_all_covers", "poset.bitset_bytes_computed",
    "poset.cached_poset.hits", "poset.cached_poset.misses",
    "pipedream.trace.hits", "pipedream.trace.misses",
)
TRACED_COUNTERS = (
    "chute.find_moves.calls", "chute.find_inverse_moves.calls", "chute.apply.calls",
    "poset.built_elements", "poset.meet_join.calls", "poset.classify_polygon.calls",
    "tableaux.lehmer_form.calls",
)


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Budget:
    def __init__(self):
        self.start = time.perf_counter()

    def left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.start)


def child_env() -> dict:
    env = dict(os.environ)
    # the default 10-minute verify budget applies, whatever the caller set
    env.pop("CHUTELAT_BUDGET_MS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(budget: Budget, workload: str, seed: int, mode: str, trace_out: str | None = None) -> dict:
    timeout = budget.left()
    if timeout <= 0:
        raise HarnessError("out of time before the pass could start")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    t_spawn = time.perf_counter()
    cmd += ["--t-spawn", repr(t_spawn)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} pass of {workload} did not finish in time") from None
    wall = time.perf_counter() - t_spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise HarnessError(f"{mode} pass of {workload} exited {proc.returncode}:\n{tail}")
    out = json.loads(lines[-1])
    out["wall_s"] = wall
    return out


def nearest_rank(sorted_values: list, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def source_digest() -> str:
    """sha256 over the names and bytes of the files under ``src/chutelat``."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "chutelat")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def check_drift(workload: str, seed: int, passes: list, traced: dict | None) -> list[str]:
    """Compare the exact counters across this run's passes and with the
    last run of the same workload and seed on the same sources in this
    checkout.  A change to the program that moves a counter on purpose
    starts a record of its own instead of being flagged."""
    drift = []
    first = passes[0]["counters"]
    for p in passes[1:]:
        for k in EXACT_COUNTERS:
            if p["counters"][k] != first[k]:
                drift.append(f"{k}: {first[k]} then {p['counters'][k]} within one run")
    now = {k: first[k] for k in EXACT_COUNTERS}
    if traced is not None:
        now.update({k: traced[k] for k in TRACED_COUNTERS})
    path = os.path.join(OUT_DIR, "counters.json")
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except FileNotFoundError:
        record = {}
    key = f"{workload}/seed={seed}/src={source_digest()}"
    before = record.get(key, {})
    for k, v in now.items():
        if k in before and before[k] != v:
            drift.append(f"{k}: {before[k]} in an earlier run, {v} now")
    record[key] = {**before, **now}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return drift


def end_to_end(budget: Budget, workload: str, seed: int, seconds: int):
    setups = [spawn(budget, workload, seed, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []
    measured = 0.0
    while not passes or measured < seconds:
        if passes and passes[-1]["wall_s"] > budget.left() - 5:
            break
        passes.append(spawn(budget, workload, seed, "plain"))
        measured += passes[-1]["run_s"]
    setups += [p["setup_s"] for p in passes]
    # every pass visits the same permutations in the same order
    perm_ms = sorted(statistics.median(times) * 1000.0
                     for times in zip(*(p["perm_s"] for p in passes)))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "perm_ms_p98": (nearest_rank(perm_ms, 0.98), "ms"),
    }
    notes = [f"{len(passes)} pass(es), {len(setups)} set-ups, {len(perm_ms)} permutations",
             "pass run_s: " + ", ".join(f"{p['run_s']:.3f}" for p in passes)]
    return metrics, passes, None, notes


def per_layer(budget: Budget, workload: str, seed: int):
    plain = spawn(budget, workload, seed, "plain")
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"spans-{workload}")
    traced = spawn(budget, workload, seed, "traced", trace_out=stem)
    spans = traced["spans"]

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    def both(a, b, field):
        return get(a, field) + get(b, field)

    c = traced["counters"]
    built = traced["built_elements"]
    layers = {}
    for name, rec in spans.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + rec["self_s"]
    m = {
        "chute.find_moves.calls": (get("chute.find_moves", "calls"), "count"),
        "chute.find_moves.s": (get("chute.find_moves", "s"), "s"),
        "chute.find_moves.calls_per_element": (
            get("chute.find_moves", "calls") / built if built else 0.0, "calls/element"),
        "chute.find_inverse_moves.calls": (get("chute.find_inverse_moves", "calls"), "count"),
        "chute.find_inverse_moves.s": (get("chute.find_inverse_moves", "s"), "s"),
        "chute.apply.calls": (both("chute.apply", "chute.inverse_apply", "calls"), "count"),
        "chute.apply.s": (both("chute.apply", "chute.inverse_apply", "s"), "s"),
        "chute.moves_per_element": (c["poset.move_edges"] / c["poset.elements"], "moves/element"),
    }
    for layer in ("chute", "poset", "pipedream", "tableaux", "verify", "schubert"):
        m[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    m.update({
        "poset.enumerate_poset.s": (get("poset.enumerate_poset", "s"), "s"),
        "poset.bfs.self_s": (get("poset.enumerate_poset", "self_s"), "s"),
        "poset.init.self_s": (get("poset.init", "self_s"), "s"),
        "poset.built_elements": (built, "count"),
        "poset.bitset_bytes_computed": (c["poset.bitset_bytes_computed"], "bytes"),
        "poset.meet_join.calls": (both("poset.meet_idx", "poset.join_idx", "calls"), "count"),
        "poset.meet_join.s": (both("poset.meet_idx", "poset.join_idx", "s"), "s"),
        "poset.classify_polygon.calls": (get("poset.classify_polygon", "calls"), "count"),
        "poset.classify_polygon.s": (get("poset.classify_polygon", "s"), "s"),
        "poset.cached_poset.hits": (c["poset.cached_poset.hits"], "count"),
        "poset.cached_poset.misses": (c["poset.cached_poset.misses"], "count"),
        "pipedream.trace.hits": (c["pipedream.trace.hits"], "count"),
        "pipedream.trace.misses": (c["pipedream.trace.misses"], "count"),
        "pipedream.trace.hit_ratio": (
            c["pipedream.trace.hits"] / max(1, c["pipedream.trace.hits"] + c["pipedream.trace.misses"]),
            "ratio"),
        "pipedream.theta.s": (get("pipedream.theta", "s"), "s"),
        "pipedream.transpose.s": (get("pipedream.transpose", "s"), "s"),
        "tableaux.lehmer_form.calls": (get("tableaux.lehmer_form", "calls"), "count"),
        "tableaux.lehmer_form.s": (get("tableaux.lehmer_form", "s"), "s"),
    })
    # triforce is skipped by its n <= 4 guard on every workload, so it has
    # no timing to report
    for check in CHECKS[:-1]:
        m[f"verify.{check}.ms"] = (plain["check_ms"][check], "ms")
        m[f"verify.{check}.self_s"] = (get(f"verify.{check}", "self_s"), "s")
    # The sweep's per-permutation times are multi-modal (fiber sizes), and
    # their median falls where few samples lie, so it moves from run to run
    # far more than run_s does; it is reported here, not as a bounded metric.
    perm_ms = sorted(s * 1000.0 for s in plain["perm_s"])
    m["perm_ms_p50"] = (statistics.median(perm_ms), "ms")
    m.update({
        "schubert.from_pipedreams.s": (get("schubert.from_pipedreams", "s"), "s"),
        "schubert.oracle.s": (get("schubert.oracle", "s"), "s"),
        "poset.elements": (c["poset.elements"], "count"),
        "poset.move_edges": (c["poset.move_edges"], "count"),
        "poset.cover_edges": (c["poset.cover_edges"], "count"),
        "poset.single_moves_all_covers": (c["poset.single_moves_all_covers"], "count"),
        "trace.run_s": (traced["run_s"], "s"),
        "trace.overhead_s": (traced["run_s"] - plain["run_s"], "s"),
        "trace.unattributed_s": (traced["run_s"] - sum(layers.values()), "s"),
        "trace.spans": (traced["span_count"], "count"),
    })
    counts = {k: m[k][0] for k in TRACED_COUNTERS}
    notes = [f"untraced run_s {plain['run_s']:.4f} s, traced {traced['run_s']:.4f} s, "
             f"spans written to {os.path.relpath(stem, ROOT)}.bin"]
    return m, [plain, traced], counts, notes


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    budget = Budget()
    if trace:
        metrics, passes, counts, notes = per_layer(budget, workload, seed)
    else:
        metrics, passes, counts, notes = end_to_end(budget, workload, seed, seconds)
    failures = [f for p in passes for f in p["failures"]]
    drift = check_drift(workload, seed, passes, counts)
    if drift:
        failures.append("counter drift: " + "; ".join(drift))
    attempted = sum(p["attempted"] for p in passes) + 1  # the drift check
    failed = len(failures)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    for note in notes:
        print(f"  {note}")
    for f, times in Counter(failures).most_common(20):
        print(f"  FAILED {f}" + (f" ({times} passes)" if times > 1 else ""))
    print(f"  operations: {attempted} attempted, {failed} failed "
          f"(fail_frac {failed / attempted:.6f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "chutelat", "__init__.py")):
        print(f"error: no chutelat sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = BENCH_WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except HarnessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
