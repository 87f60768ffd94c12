"""Command-line interface.

Three commands: ``analyze`` a group file (permutation or matrix format),
``verify paper`` or ``verify corpus``, the built-in expectations (the named
scenarios or the corpus property sweep), and ``construct`` a family member,
writing it in the canonical text format.  Each verify suite is a subcommand
that owns its flags, so the other suite's flags are refused, not ignored.

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
from .errors import DegreeTooLarge, ToolkitError
from .families import DEGREE_CAP, FAMILY_ARITY, FamilyParams, build_family
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


_LOADERS = {"auto": load_group, "perm": load_perm_group, "mat": load_matrix_group}


def _cmd_analyze(args) -> int:
    group = _LOADERS[args.kind](Path(args.path).read_text())
    if isinstance(group, PermGroup) and group.degree > args.max_degree:
        raise DegreeTooLarge(f"degree {group.degree} exceeds --max-degree {args.max_degree}")
    _emit_record(_record(group, args.max_order), args.json)
    return EXIT_OK


def _cmd_verify_paper(args) -> int:
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


def _cmd_verify_corpus(args) -> int:
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


def _cmd_construct(args) -> int:
    params = FamilyParams(args.family, tuple(args.params))
    built = build_family(params)
    words = [params.name, *map(str, params.values)]
    out = Path(args.output or "-".join(words) + ".group")
    out.write_text(dump_group(built, comment=" ".join(words)))
    print(f"wrote {out}")
    if args.analyze:
        _emit_record(_record(built, args.max_order), args.json)
    return EXIT_OK


def _positive(text: str) -> int:
    """argparse type for --workers, --max-order and --max-degree: an integer >= 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derangements",
        description="analyze which part of a transitive group its "
        "fixed-point-free elements generate",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    as_json = argparse.ArgumentParser(add_help=False)  # --json, for every command
    as_json.add_argument("--json", action="store_true", help="emit JSON")
    max_order = argparse.ArgumentParser(add_help=False)  # for analyze and construct
    max_order.add_argument(
        "--max-order", type=_positive, metavar="N",
        help="refuse to enumerate a group past this order: a matrix group, or the "
        "point stabilizer of a permutation group's derangement subgroup "
        f"(default {ENUMERATION_CAP})",
    )

    p_analyze = sub.add_parser(
        "analyze", parents=[as_json, max_order], help="analyze a group file"
    )
    p_analyze.add_argument("path", help="group file in the canonical text format")
    p_analyze.add_argument(
        "--kind",
        choices=tuple(_LOADERS),
        default="auto",
        help="file format; auto dispatches on the header keyword",
    )
    p_analyze.add_argument(
        "--max-degree",
        type=_positive,
        default=DEGREE_CAP,
        metavar="N",
        help="refuse degrees past this limit",
    )
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="run the built-in expectations")
    suites = p_verify.add_subparsers(dest="suite", required=True)
    p_paper = suites.add_parser(
        "paper", parents=[as_json], help="the named scenarios with pinned values"
    )
    p_corpus = suites.add_parser(
        "corpus", parents=[as_json], help="the property sweep over the corpus"
    )
    for p_suite in (p_paper, p_corpus):
        p_suite.add_argument(
            "--workers", type=_positive, default=1, metavar="N", help="parallel worker processes"
        )
    p_paper.add_argument(
        "--only", action="append", metavar="ID",
        help="restrict the scenario suite to the named scenario (repeatable)",
    )
    p_paper.add_argument(
        "--inject-fault",
        action="store_true",
        help="self-test: replace the derangement subgroup by its point "
        "stabilizer so the membership check must fail and the exit status "
        "must be nonzero",
    )
    p_paper.set_defaults(fn=_cmd_verify_paper)
    p_corpus.add_argument(
        "--max-order", type=_positive, metavar="N", help="skip corpus groups above this order"
    )
    p_corpus.add_argument(
        "--max-degree", type=_positive, metavar="N", help="skip corpus groups above this degree"
    )
    p_corpus.set_defaults(fn=_cmd_verify_corpus)

    p_construct = sub.add_parser(
        "construct", parents=[as_json, max_order],
        help="build a named family member and write its file",
    )
    p_construct.add_argument("family", help=f"one of: {', '.join(sorted(FAMILY_ARITY))}")
    p_construct.add_argument("params", type=int, nargs="*", help="family parameters")
    p_construct.add_argument(
        "--output", metavar="PATH", help="output file (default: <family>-<params>.group)"
    )
    p_construct.add_argument(
        "--analyze", action="store_true", help="analyze the constructed group too"
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
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
