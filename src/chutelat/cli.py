"""Command-line surface.

Exit status 0 means success (all checks pass, query answered), 1 means a
theorem violation or failed check (its witness is printed first), 2 means
a usage error or running out of memory.  Identical invocations print
identical bytes, except for the measured millisecond fields inside
verification reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import Incomparable, TheoremViolation
from .perm import Permutation
from .pipedream import PipeDream, theta, trace
from .poset import cached_poset, chute_path, to_dot
from .schubert import schubert_from_pipedreams, schubert_oracle
from .verify import run_checks

__all__ = ["main"]

INFO_SIZE_LIMIT = 7  # fibers are enumerated on demand only up to this n


def _load_dream(path: str) -> PipeDream:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return PipeDream.from_json(json.load(fh))
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chutelat",
        description="Reduced pipe dreams, chute-move lattices, and their checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list or count the fiber of a permutation")
    p.add_argument("perm")
    p.add_argument("--count", action="store_true", help="print the element count (default)")
    p.add_argument("--json", action="store_true", help="print the full element list as JSON")

    p = sub.add_parser("hasse", help="write the Hasse diagram as DOT")
    p.add_argument("perm")
    p.add_argument("--dot", required=True, metavar="FILE")

    p = sub.add_parser("verify", help="run theorem checks, print a JSON report")
    p.add_argument("perm")
    p.add_argument("--checks", metavar="CSV")
    p.add_argument("--budget-ms", type=int, dest="budget_ms")

    p = sub.add_parser("schubert", help="print the Schubert polynomial")
    p.add_argument("perm")
    p.add_argument("--oracle-check", action="store_true", dest="oracle_check")

    p = sub.add_parser("path", help="explicit increment path between two dreams")
    p.add_argument("perm")
    p.add_argument("--from", required=True, dest="src", metavar="DREAM_JSON")
    p.add_argument("--to", required=True, dest="dst", metavar="DREAM_JSON")

    p = sub.add_parser("render", help="ASCII picture of a dream")
    p.add_argument("file", metavar="DREAM_JSON")
    p.add_argument("--ascii", action="store_true", help="explicit ASCII output (the default)")

    p = sub.add_parser("info", help="basic facts about a permutation")
    p.add_argument("perm")
    return parser


def _cmd_enumerate(args) -> int:
    w = Permutation.parse(args.perm)
    if args.count and args.json:
        raise ValueError("--count and --json are mutually exclusive")
    poset = cached_poset(w)
    if args.json:
        # streamed, the bytes of one compact dump; no fiber is empty
        encode, sep = json.JSONEncoder(separators=(",", ":")).encode, "["
        for d in poset.elements:
            sys.stdout.write(sep + encode(d.to_json()))
            sep = ","
        print("]")
    else:
        print(poset.size)
    return 0


def _cmd_hasse(args) -> int:
    w = Permutation.parse(args.perm)
    dot = to_dot(cached_poset(w))
    with open(args.dot, "w", encoding="utf-8") as fh:
        fh.write(dot)
    return 0


def _cmd_verify(args) -> int:
    w = Permutation.parse(args.perm)
    if args.checks == "":
        raise ValueError("--checks names no check")
    names = tuple(args.checks.split(",")) if args.checks else None
    report = run_checks(w, names, args.budget_ms)
    print(json.dumps(report.to_json(), indent=2))
    return 0 if report.passed else 1


def _cmd_schubert(args) -> int:
    w = Permutation.parse(args.perm)
    poly = schubert_from_pipedreams(w)
    print(poly)
    if args.oracle_check:
        oracle = schubert_oracle(w)
        if poly == oracle:
            print("oracle: equal")
        else:
            print("oracle: DIFFERENT")
            print(oracle)
            return 1
    return 0


def _cmd_path(args) -> int:
    w = Permutation.parse(args.perm)
    d_from = _load_dream(args.src)
    d_to = _load_dream(args.dst)
    thetas = []
    for d in (d_from, d_to):
        # wiring and theta back to back, so each dream is routed once
        if trace(d).wiring != w:
            raise ValueError(f"dream does not belong to {w}")
        thetas.append(theta(d))
    try:
        steps = chute_path(*thetas)
    except Incomparable:
        print("incomparable")
        return 0
    print(json.dumps([s.to_json() for s in steps], separators=(",", ":")))
    return 0


def _cmd_render(args) -> int:
    print(_load_dream(args.file).render_ascii())
    return 0


def _cmd_info(args) -> int:
    w = Permutation.parse(args.perm)
    size = cached_poset(w).size if w.n <= INFO_SIZE_LIMIT else None
    obj = {
        "w": str(w),
        "n": w.n,
        "inversions": w.length(),
        "code": list(w.lehmer_code()),
        "pd_size": size,
    }
    print(json.dumps(obj, indent=2))
    return 0


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "hasse": _cmd_hasse,
    "verify": _cmd_verify,
    "schubert": _cmd_schubert,
    "path": _cmd_path,
    "render": _cmd_render,
    "info": _cmd_info,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except TheoremViolation as exc:
        print(json.dumps({"violation": str(exc), "witness": exc.witness}))
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
