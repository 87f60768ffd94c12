"""Command-line interface.

Three commands: ``analyze`` a group file (permutation or matrix format),
``verify`` the built-in expectations (the named scenarios or the corpus
property sweep), and ``construct`` a family member, writing it in the
canonical text format.

Exit status: 0 when everything asked for passed, 1 when an expectation
failed, 2 for usage, parse, or constraint errors.  Output is deterministic:
repeated runs with the same arguments emit identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .derange import analyze
from .errors import ToolkitError
from .families import FAMILY_ARITY, FamilyParams, build_family
from .fileio import dump_group, load_group, load_matrix_group, load_perm_group
from .permgrp import ENUMERATION_CAP, PermGroup
from .suite import (
    corpus_failures,
    matrix_record,
    run_corpus_suite,
    run_paper_suite,
)

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_USAGE = 2

DEFAULT_MAX_DEGREE = 100_000
MAX_ORDER_HELP = (
    "refuse to enumerate a group past this order: a matrix group, or the "
    "point stabilizer of a permutation group's derangement subgroup "
    f"(default {ENUMERATION_CAP})"
)


def _emit_record(record: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(record, indent=2))
        return
    for key, value in record.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for ck, cv in value.items():
                mark = "pass" if cv else "FAIL"
                print(f"  {ck:<24} {mark}")
        else:
            print(f"{key:<14} {value}")


def _record(group, max_order: int | None) -> dict:
    """The analysis record, enumerating nothing past max_order."""
    if isinstance(group, PermGroup):
        return analyze(group, max_order).to_record()
    group.digit_stack(max_order)
    return matrix_record(group)


def _cmd_analyze(args) -> int:
    text = Path(args.path).read_text()
    if args.kind == "perm":
        group = load_perm_group(text)
    elif args.kind == "mat":
        group = load_matrix_group(text)
    else:
        group = load_group(text)
    if isinstance(group, PermGroup):
        if group.degree > args.max_degree:
            print(
                f"error: degree {group.degree} exceeds --max-degree {args.max_degree}",
                file=sys.stderr,
            )
            return EXIT_USAGE
    _emit_record(_record(group, args.max_order), args.json)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # each suite refuses the other suite's flags rather than ignoring them
    paper_only = {"--only": args.only, "--inject-fault": args.inject_fault}
    corpus_only = {"--max-order": args.max_order is not None, "--max-degree": args.max_degree is not None}
    foreign = corpus_only if args.suite == "paper" else paper_only
    misplaced = [flag for flag, given in foreign.items() if given]
    if misplaced:
        print(f"error: verify {args.suite} does not take {', '.join(misplaced)}", file=sys.stderr)
        return EXIT_USAGE
    if args.suite == "paper":
        reports = run_paper_suite(
            workers=args.workers,
            inject_fault=args.inject_fault,
            only=tuple(args.only or ()),
        )
        ok = all(r.passed for r in reports)
        if args.json:
            payload = {
                "suite": "paper",
                "pass": ok,
                "results": [r.to_record() for r in reports],
            }
            print(json.dumps(payload, indent=2))
        else:
            for r in reports:
                print(f"{'PASS' if r.passed else 'FAIL'} {r.scenario_id}: {r.description}")
                for field, expected, actual in r.failures:
                    print(f"     {field}: expected {expected!r}, got {actual!r}")
            passed = sum(r.passed for r in reports)
            print(f"{passed}/{len(reports)} scenarios passed")
        return EXIT_OK if ok else EXIT_EXPECTATION

    records = run_corpus_suite(
        workers=args.workers, max_order=args.max_order, max_degree=args.max_degree
    )
    failures = {
        r["name"]: corpus_failures(r) for r in records if not r.get("skipped")
    }
    ok = not any(failures.values())
    if args.json:
        payload = {"suite": "corpus", "pass": ok, "results": records}
        print(json.dumps(payload, indent=2))
    else:
        skipped = 0
        for r in records:
            if r.get("skipped"):
                print(f"SKIP {r['name']}")
                skipped += 1
            elif failures[r["name"]]:
                print(f"FAIL {r['name']}: {', '.join(failures[r['name']])}")
            else:
                print(f"PASS {r['name']} (degree {r['degree']}, order {r['order']})")
        tested = len(records) - skipped
        passed = sum(1 for bad in failures.values() if not bad)
        tail = f", {skipped} skipped" if skipped else ""
        print(f"{passed}/{tested} groups passed{tail}")
    return EXIT_OK if ok else EXIT_EXPECTATION


def _default_output(params: FamilyParams) -> str:
    return "-".join([params.name, *map(str, params.values)]) + ".group"


def _cmd_construct(args) -> int:
    params = FamilyParams(args.family, tuple(args.params))
    built = build_family(params)
    label = " ".join([params.name, *map(str, params.values)])
    text = dump_group(built, comment=label)
    out = Path(args.output) if args.output else Path(_default_output(params))
    out.write_text(text)
    print(f"wrote {out}")
    if args.analyze:
        _emit_record(_record(built, args.max_order), args.json)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derangements",
        description="analyze which part of a transitive group its "
        "fixed-point-free elements generate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a group file")
    p_analyze.add_argument("path", help="group file in the canonical text format")
    p_analyze.add_argument(
        "--kind",
        choices=("auto", "perm", "mat"),
        default="auto",
        help="file format; auto dispatches on the header keyword",
    )
    p_analyze.add_argument("--json", action="store_true", help="emit JSON")
    p_analyze.add_argument(
        "--max-order",
        type=int,
        metavar="N",
        help=MAX_ORDER_HELP,
    )
    p_analyze.add_argument(
        "--max-degree",
        type=int,
        default=DEFAULT_MAX_DEGREE,
        metavar="N",
        help="refuse degrees past this limit",
    )
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="run the built-in expectations")
    p_verify.add_argument("suite", choices=("paper", "corpus"))
    p_verify.add_argument("--json", action="store_true", help="emit JSON")
    p_verify.add_argument(
        "--workers", type=int, default=1, metavar="N", help="parallel scenario runs"
    )
    p_verify.add_argument(
        "--max-order", type=int, default=None, metavar="N",
        help="skip corpus groups above this order",
    )
    p_verify.add_argument(
        "--max-degree", type=int, default=None, metavar="N",
        help="skip corpus groups above this degree",
    )
    p_verify.add_argument(
        "--only", action="append", metavar="ID",
        help="restrict the scenario suite to the named scenario (repeatable)",
    )
    p_verify.add_argument(
        "--inject-fault",
        action="store_true",
        help="paper self-test: replace the derangement subgroup by its point "
        "stabilizer so the membership check must fail and the exit status "
        "must be nonzero",
    )
    p_verify.set_defaults(fn=_cmd_verify)

    p_construct = sub.add_parser(
        "construct", help="build a named family member and write its file"
    )
    p_construct.add_argument("family", help=f"one of: {', '.join(sorted(FAMILY_ARITY))}")
    p_construct.add_argument("params", type=int, nargs="*", help="family parameters")
    p_construct.add_argument(
        "--output", metavar="PATH", help="output file (default: <family>-<params>.group)"
    )
    p_construct.add_argument(
        "--analyze", action="store_true", help="analyze the constructed group too"
    )
    p_construct.add_argument("--json", action="store_true", help="emit JSON")
    p_construct.add_argument(
        "--max-order", type=int, metavar="N", help=MAX_ORDER_HELP,
    )
    p_construct.set_defaults(fn=_cmd_construct)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
