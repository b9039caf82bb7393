"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode setup|plain|traced
                               --t-spawn T [--trace-out STEM]

``--t-spawn`` is the parent's ``time.perf_counter()`` just before it
started this process (a system-wide monotonic clock on Linux), so
``setup_s`` covers interpreter start, ``import chutelat`` and building the
inputs.  ``setup`` mode stops there.  ``plain`` and ``traced`` then time
the workload's public calls, check the outputs against the pinned
digests in ``expected.json`` and print one JSON line with timings, exact
counters, operation counts and, when traced, span totals.

Needs ``src`` on ``PYTHONPATH``; ``run.py`` sets that up.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import sys
import time
import traceback

from tracer import Tracer

_clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
CHECKS = ("isomorphism", "lattice", "sd", "polygonal", "transpose", "triforce")
# triforce builds the fiber of a degree-2n permutation, so verify guards it
# to n <= 4; on every workload here it reports this skip, which is expected.
GUARD_SKIP = "triforce check guarded to n <= 4"


class Workload:
    """Fixed inputs plus the steps each permutation goes through:
    ``checks`` (run_checks with all six checks), ``digest`` (enumerate and
    hash the canonical JSON listing and the DOT Hasse diagram) and
    ``schubert`` (pipe-dream sum against the divided-difference oracle).
    ``perms`` is a list of one-line words, or n for all of S_n in an order
    shuffled by the seed."""

    def __init__(self, perms, steps):
        self._perms = perms
        self.steps = steps

    def inputs(self, seed: int, Permutation) -> list:
        words = self._perms
        if isinstance(words, int):
            words = ["".join(map(str, p)) for p in itertools.permutations(range(1, words + 1))]
            random.Random(seed).shuffle(words)
        return [Permutation.parse(s) for s in words]


# The sweep's seed only shuffles the visiting order, which changes how the
# trace LRU cache and the inverse fibers built by ``transpose`` are reused.
WORKLOADS = {
    "verify-mid": Workload(["1327654"], ("checks",)),
    "enumerate-n8": Workload(["12438765"], ("digest",)),
    "sweep-s6": Workload(6, ("checks", "schubert")),
    # 21 elements; used by selftest.py only.
    "tiny": Workload(["361542"], ("checks", "digest", "schubert")),
}


class Api:
    """The public entry points a workload calls, traced when a tracer is
    given.  Everything inside them is reached through module attributes
    that ``install_layer_spans`` wraps."""

    def __init__(self, chutelat, tracer=None):
        def entry(name, fn):
            return tracer.traced(name, fn) if tracer else fn

        self.run_checks = entry("verify.run_checks", chutelat.run_checks)
        self.cached_poset = entry("poset.cached_poset", chutelat.cached_poset)
        self.to_dot = entry("poset.to_dot", chutelat.to_dot)
        self.from_pipedreams = entry("schubert.from_pipedreams", chutelat.schubert_from_pipedreams)
        self.oracle = entry("schubert.oracle", chutelat.schubert_oracle)


def install_layer_spans(tracer, built_sizes: list) -> None:
    """Wrap each module's functions where its callers look them up, and
    append the size of every poset ``enumerate_poset`` builds to
    ``built_sizes``."""
    from chutelat import chute, poset, schubert, verify

    def counting(enumerate_poset):
        def enumerate_and_count(w):
            built = enumerate_poset(w)
            built_sizes.append(built.size)
            return built
        return enumerate_and_count

    tracer.replace(poset, "enumerate_poset", counting)

    for attr in ("find_moves", "find_inverse_moves", "apply", "inverse_apply"):
        tracer.wrap(chute, attr, f"chute.{attr}")
    # chute and poset each import theta and trace from pipedream; both
    # copies are wrapped, so pipedream's time lands in its own layer
    # whichever module calls it
    for module in (chute, poset):
        tracer.wrap(module, "theta", "pipedream.theta")
        tracer.wrap(module, "trace", "pipedream.trace")
    tracer.wrap(poset, "lehmer_form", "tableaux.lehmer_form")
    tracer.wrap(poset, "enumerate_poset", "poset.enumerate_poset")
    tracer.wrap(poset.ChutePoset, "__init__", "poset.init")
    tracer.wrap(poset.ChutePoset, "meet_idx", "poset.meet_idx")
    tracer.wrap(poset.ChutePoset, "join_idx", "poset.join_idx")
    tracer.wrap(verify, "cached_poset", "poset.cached_poset")
    tracer.wrap(verify, "classify_polygon", "poset.classify_polygon")
    tracer.wrap(verify, "transpose", "pipedream.transpose")
    tracer.wrap(schubert, "cached_poset", "poset.cached_poset")
    for name in CHECKS:
        tracer.wrap(verify._CHECKERS, name, f"verify.{name}")


def listing_text(poset) -> str:
    """Bytes of ``chutelat enumerate W --json``."""
    return json.dumps([d.to_json() for d in poset.elements], separators=(",", ":")) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_steps(api, w, steps) -> dict:
    out = {}
    if "checks" in steps:
        out["report"] = api.run_checks(w)
    if "digest" in steps:
        poset = api.cached_poset(w)
        out["listing_sha256"] = sha256(listing_text(poset))
        out["dot_sha256"] = sha256(api.to_dot(poset))
    if "schubert" in steps:
        out["schubert_equal"] = api.from_pipedreams(w) == api.oracle(w)
    return out


def stripped_report(report) -> dict:
    obj = report.to_json()
    for c in obj["checks"]:
        del c["ms"]
    return obj


class Ledger:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def ops_per_perm(steps) -> int:
    return (len(CHECKS) if "checks" in steps else 0) + ("digest" in steps) + ("schubert" in steps)


def gate(chutelat, steps, perms, results, fiber_pins, pins, ledger: Ledger) -> dict:
    """Check every output, count each check as one operation, and return
    the structural counters of the workload's fibers."""
    from chutelat.poset import single_moves_all_covers

    counters = dict.fromkeys(
        ("poset.elements", "poset.move_edges", "poset.cover_edges",
         "poset.single_moves_all_covers", "poset.bitset_bytes_computed"), 0)
    stripped = {}
    for w, res in zip(perms, results):
        if "error" in res:
            for _ in range(ops_per_perm(steps)):
                ledger.check(False, f"{w}: {res['error']}")
            continue
        if "report" in res:
            for c in res["report"].checks:
                expected_skip = c.name == "triforce" and c.status == "skipped" \
                    and c.witness == {"reason": GUARD_SKIP}
                ledger.check(c.status == "pass" or expected_skip, f"{w} {c.name}: {c.status} {c.witness}")
            stripped[str(w)] = stripped_report(res["report"])
        if "schubert_equal" in res:
            ledger.check(res["schubert_equal"], f"{w}: Schubert polynomials differ")
        poset = chutelat.cached_poset(w)
        size = poset.size
        ledger.check(size == chutelat.schubert_oracle(w).evaluate_ones(),
                     f"{w}: fiber size {size} is not the oracle count")
        fiber = fiber_pins.get(str(w))
        if "listing_sha256" in res:
            ledger.check(fiber is not None, f"{w}: enumerated, but no digests are pinned")
        if fiber is not None:
            for key, text in (("listing_sha256", lambda: listing_text(poset)),
                              ("dot_sha256", lambda: chutelat.to_dot(poset))):
                got = res.get(key) or sha256(text())
                ledger.check(got == fiber[key], f"{w}: {key} {got} != pinned {fiber[key]}")
        counters["poset.elements"] += size
        counters["poset.move_edges"] += sum(len(poset.moves_from(d)) for d in poset.elements)
        counters["poset.cover_edges"] += sum(len(poset.covers_up_idx(k)) for k in range(size))
        counters["poset.single_moves_all_covers"] += int(single_moves_all_covers(poset))
        counters["poset.bitset_bytes_computed"] += 2 * size * ((size + 7) // 8)
    ledger.check(counters["poset.elements"] == pins["elements"],
                 f"total fiber size {counters['poset.elements']} != pinned {pins['elements']}")
    if stripped:
        blob = "\n".join(json.dumps(stripped[k], sort_keys=True) for k in sorted(stripped))
        got = sha256(blob)
        ledger.check(got == pins["reports_sha256"],
                     f"reports_sha256 {got} != pinned {pins['reports_sha256']}")
    return counters


def check_ms(results) -> dict:
    """The ``ms`` fields of the verify reports, summed per check."""
    ms = dict.fromkeys(CHECKS, 0)
    for res in results:
        for c in res["report"].checks if "report" in res else ():
            ms[c.name] += c.ms
    return ms


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    ap.add_argument("--t-spawn", type=float, required=True, dest="t_spawn")
    ap.add_argument("--trace-out", dest="trace_out")
    args = ap.parse_args(argv)

    import chutelat

    wl = WORKLOADS[args.workload]
    perms = wl.inputs(args.seed, chutelat.Permutation)
    setup_s = _clock() - args.t_spawn
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer, built_sizes = None, []
    if args.mode == "traced":
        tracer = Tracer()
        install_layer_spans(tracer, built_sizes)
    api = Api(chutelat, tracer)
    trace_cache = chutelat.trace.cache_info()
    poset_cache = chutelat.cached_poset.cache_info()

    results, perm_s = [], []
    t0 = _clock()
    for w in perms:
        a = _clock()
        try:
            results.append(run_steps(api, w, wl.steps))
        except Exception:  # a crash is a failed operation, not the end of the pass
            results.append({"error": traceback.format_exc(limit=3).strip().splitlines()[-1]})
        perm_s.append(_clock() - a)
    run_s = _clock() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    trace_after = chutelat.trace.cache_info()
    poset_after = chutelat.cached_poset.cache_info()

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    ledger = Ledger()
    counters = gate(chutelat, wl.steps, perms, results, expected["fibers"],
                    expected["workloads"][args.workload], ledger)
    counters.update({
        "poset.cached_poset.hits": poset_after.hits - poset_cache.hits,
        "poset.cached_poset.misses": poset_after.misses - poset_cache.misses,
        "pipedream.trace.hits": trace_after.hits - trace_cache.hits,
        "pipedream.trace.misses": trace_after.misses - trace_cache.misses,
    })
    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "perm_s": perm_s,
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "counters": counters,
        "check_ms": check_ms(results),
    }
    if tracer is not None:
        out["spans"] = tracer.summary()
        out["span_count"] = len(tracer.span_start)
        out["built_elements"] = sum(built_sizes)
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
