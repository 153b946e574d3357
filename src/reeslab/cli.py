"""Command-line interface.

Exit codes: 0 = run completed (whatever the verdict), 1 = input error,
2 = internal invariant violation, 3 = search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import context_for
from .cohomology import cohomology_dims, factorization_search
from .decision import (
    SearchBounds,
    VERSION,
    decide,
    reference_example_suite,
    scan_family,
)
from .errors import BudgetExceeded, InputError, InternalError
from .fields import FieldSpec
from .geometry import cone_tables, normalize_triangle, parse_rat, period_data, read_triangle_file


class _UsageError(InputError):
    """A bad flag or flag value; main reports it as "error: ..." (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _triangle_dict(tri) -> dict:
    v1, v2, v3 = tri.vertices
    return {
        "v1": [str(v1[0]), str(v1[1])],
        "v2": [str(v2[0]), str(v2[1])],
        "v3": [str(v3[0]), str(v3[1])],
        "width": str(tri.width),
        "ubar": str(tri.ubar),
        "sbar": "inf" if tri.sbar is None else str(tri.sbar),
        "tbar": "-inf" if tri.tbar is None else str(tri.tbar),
    }


def _load_triangle(path):
    return normalize_triangle(read_triangle_file(path))


def _bounds(args) -> SearchBounds:
    return SearchBounds(r_max=args.rmax, j_max=args.jmax, m_max=args.mmax,
                        branch_budget=args.budget)


def _add_bounds_flags(sub):
    default = SearchBounds()
    sub.add_argument("--rmax", type=int, default=default.r_max)
    sub.add_argument("--jmax", type=int, default=default.j_max)
    sub.add_argument("--mmax", type=int, default=default.m_max)
    sub.add_argument("--budget", type=int, default=default.branch_budget)


def build_parser() -> _Parser:
    parser = _Parser(prog="reeslab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="decide finite generation for a triangle file")
    p.add_argument("--input", required=True)
    p.add_argument("--char", type=int, required=True)
    _add_bounds_flags(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("scan", help="scan the one-parameter family")
    p.add_argument("--from", dest="start", default="2")
    p.add_argument("--to", dest="stop", default="3")
    p.add_argument("--step", default="1/24")
    p.add_argument("--char", type=int, required=True)

    p = sub.add_parser("cohomology", help="dimensions of one restriction window")
    p.add_argument("--input", required=True)
    p.add_argument("--char", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("factorize", help="search a unit factorization at one m")
    p.add_argument("--input", required=True)
    p.add_argument("--char", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=int, default=SearchBounds().branch_budget)
    p.add_argument("--json", action="store_true")

    sub.add_parser("verify-example", help="re-derive the worked example's data")
    return parser


def _cmd_analyze(args) -> int:
    tri = _load_triangle(args.input)
    verdict = decide(tri, FieldSpec(args.char), _bounds(args))
    report = {
        "triangle": _triangle_dict(tri),
        "char": args.char,
        "verdict": verdict.status,
        "witness": verdict.witness,
        "emu": verdict.emu,
        "probes": verdict.probes,
        "bounds": verdict.bounds,
        "version": VERSION,
    }
    if args.json:
        print(canonical_json(report))
    else:
        print(f"verdict: {verdict.status}")
        if verdict.witness:
            print(f"witness: {verdict.witness}")
        if verdict.emu:
            print(f"column counts: {verdict.emu['column_counts']} "
                  f"(sorted {verdict.emu['sorted_counts']})")
        print(f"probes run: {len(verdict.probes)}")
    return 0


def _cmd_scan(args) -> int:
    start = parse_rat(args.start)
    stop = parse_rat(args.stop)
    step = parse_rat(args.step)
    if step <= 0 or stop < start:
        raise _UsageError("need step > 0 and to >= from")
    values = []
    g = start
    while g <= stop:
        values.append(g)
        g += step
    rows = scan_family(values, FieldSpec(args.char))
    width = max(len(str(r.g)) for r in rows)
    for row in rows:
        print(f"g = {str(row.g):<{width}}  {row.status}")
    return 0 if all(row.error is None for row in rows) else 2


def _cmd_cohomology(args) -> int:
    tri = _load_triangle(args.input)
    ctx = context_for(tri, FieldSpec(args.char))
    rep = cohomology_dims(ctx, cone_tables(tri), period_data(tri), args.m, args.l)
    if args.json:
        print(canonical_json(rep.to_dict()))
    else:
        print(f"window [{rep.m}, {rep.l}) over characteristic {args.char}")
        print(f"h0 = {rep.h0}, h1 = {rep.h1}, rank = {rep.matrix.rank}, "
              f"chi = {rep.chi}")
        print(f"overlaps: {rep.matrix.overlaps}")
        print(f"pivot gaps: {rep.matrix.pivot_gaps}")
    return 0


def _cmd_factorize(args) -> int:
    tri = _load_triangle(args.input)
    ctx = context_for(tri, FieldSpec(args.char))
    out = factorization_search(ctx, cone_tables(tri), period_data(tri), args.m,
                               branch_budget=args.budget)
    if args.json:
        print(canonical_json(out.to_dict()))
    else:
        print(f"m = {out.m}, level {out.level}: "
              f"{'success' if out.success else 'no factorization'}")
        if out.obstruction:
            lvl, res = out.obstruction
            print(f"obstruction at level {lvl}: {sorted(res)}")
        if out.success:
            print(f"unit supports: {len(out.unit_a.support())} x-terms, "
                  f"{len(out.unit_b.support())} terms")
    return 0


def _cmd_verify_example(args) -> int:
    items = reference_example_suite()
    for item in items:
        mark = "PASS" if item.passed else "FAIL"
        detail = f"  ({item.detail})" if (item.detail and not item.passed) else ""
        print(f"{mark}  {item.name}{detail}")
    if all(i.passed for i in items):
        print("ALL PASS")
        return 0
    print(f"FAILURES: {sum(1 for i in items if not i.passed)}")
    return 2


_COMMANDS = {
    "analyze": _cmd_analyze,
    "scan": _cmd_scan,
    "cohomology": _cmd_cohomology,
    "factorize": _cmd_factorize,
    "verify-example": _cmd_verify_example,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
