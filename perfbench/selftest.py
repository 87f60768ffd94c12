"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. seeds: two seeds disguise a small pool differently, yet give the same
   records, equal to the references.
2. tracing: records are identical with the layer wrappers installed and
   not, and uninstalling restores every patched name.
3. bridge: an affine entry's record is checked against the matrix
   record of its H, computed by the code under test.
4. faults: a wrong reference record, or an op that raises, makes the
   benchmark report failed ops and exit nonzero (as ``verify paper
   --inject-fault`` does for the toolkit).
5. bare: without the package source next to it the benchmark exits
   nonzero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pools
import tracing
from derangements.permgrp import PermGroup

SMALL = (
    ("perm-wide", "affine-scalars-5-3"),
    ("perm-deep", "wreath-sym-4-2"),
    ("matrix", "central-klein"),
    ("matrix", "dihedral-25-26"),
    ("matrix", "dihedral-family-7"),
)


def _entry(workload: str, name: str) -> pools.Entry:
    return next(e for e in pools.POOLS[workload] if e.name == name)


def _texts(seed: int) -> dict[str, str]:
    out = {}
    for workload, name in SMALL:
        entry = _entry(workload, name)
        group = pools.disguise(entry.construct(), pools.entry_rng(workload, seed, name))
        out[name] = pools.fileio.dump_group(group)
    return out


def test_seeds(refs: dict) -> None:
    a, b = _texts(11), _texts(12)
    for workload, name in SMALL:
        assert a[name] != b[name], f"{name}: seeds 11 and 12 gave the same input"
        kind = _entry(workload, name).kind
        rec_a, rec_b = pools.record_of(kind, a[name]), pools.record_of(kind, b[name])
        assert rec_a == rec_b == refs["records"][name], f"{name}: records differ across seeds"


def test_tracing(refs: dict) -> None:
    texts = _texts(13)
    plain = {name: pools.record_of(_entry(w, name).kind, texts[name]) for w, name in SMALL}
    original = PermGroup.__dict__["__contains__"], pools.derange.analyze
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = {name: pools.record_of(_entry(w, name).kind, texts[name]) for w, name in SMALL}
    finally:
        tracer.uninstall()
    assert traced == plain, "tracing changed a record"
    assert (PermGroup.__dict__["__contains__"], pools.derange.analyze) == original, "wrappers not restored"
    names = {rec[0] for rec in tracer.spans}
    assert {"fileio.load", "derange.analyze", "matgrp.eigenvalue_one"} <= names, names
    assert tracer.counts["gf.field_op.calls"] > 0 and tracer.counts["permgrp.membership.calls"] > 0


def test_bridge(refs: dict) -> None:
    entry = _entry("perm-wide", "affine-scalars-5-3")
    h = pools.suite.matrix_record(pools.BRIDGE_GROUPS[entry.bridge]())
    record = refs["records"][entry.name]
    assert pools.check_record(entry, record, refs, {entry.bridge: h}) == [], "true bridge rejected"
    wrong = dict(h, index=h["index"] + 1)
    problems = pools.check_record(entry, record, refs, {entry.bridge: wrong})
    assert len(problems) == 2, f"wrong H record not caught: {problems}"


def _run(args, cwd=pools.ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=180)
    return proc.returncode, proc.stdout


def test_faults(refs: dict) -> None:
    for workload, fault in (("perm-deep", "record"), ("perm-deep", "raise"), ("verify-corpus", "record")):
        code, out = _run(["--workload", workload, "--seed", "1", "--seconds", "0",
                          "--trace", "0", "--inject-fault", fault])
        result = json.loads(out.strip().splitlines()[-1])
        assert code != 0, f"{workload}/{fault}: exit status 0"
        assert not result["correct"] and result["failed"] > 0, f"{workload}/{fault}: {result}"
        assert "FAILED" in out, f"{workload}/{fault}: failed op not named"


def test_bare(refs: dict) -> None:
    bare = pools.ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(pools.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(pools.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, out = _run(["--workload", "perm-deep", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0 and not out.strip(), f"bare checkout: exit {code}, stdout {out!r}"


def main() -> int:
    refs = pools.load_references()
    failed = 0
    for test in (test_seeds, test_tracing, test_bridge, test_faults, test_bare):
        try:
            test(refs)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"PASS {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
