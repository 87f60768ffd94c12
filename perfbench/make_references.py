"""Generate ``references.json``: the expected output of every benchmark op.

    python3 perfbench/make_references.py

Run once against the code the benchmark is defined on; later runs compare
against the file, so any change in an analysis record or in the bytes of
``derangements verify corpus --json`` counts as a failed op.

Before writing, it checks what the records must satisfy:
  * the record of each entry is the same undisguised and under two seeds;
  * pinned values of every paper scenario that covers a pool entry;
  * the paper's invariants: index * |D| = |G|, the index divides n - 1,
    all seven checks pass, (index + 1)^2 <= n for imprimitive groups,
    ``index_ok`` on the matrix side, and each affine entry's index and
    quotient equal those of its matrix group H;
  * two runs of the corpus command give the same bytes and exit 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pools
from derangements import fileio, suite
from derangements.permgrp import PermGroup

CHECK_SEEDS = (1, 2)


def _fail(message: str) -> None:
    raise SystemExit(f"reference check failed: {message}")


def entry_records() -> tuple[dict, dict]:
    """(records by entry name, primitivity of each permutation entry)."""
    records, primitive = {}, {}
    for workload, entries in pools.POOLS.items():
        for entry in entries:
            group = entry.construct()
            record = pools.record_of(entry.kind, fileio.dump_group(group))
            for seed in CHECK_SEEDS:
                disguised = pools.disguise(group, pools.entry_rng(workload, seed, entry.name))
                if pools.record_of(entry.kind, fileio.dump_group(disguised)) != record:
                    _fail(f"{entry.name}: seed {seed} changes the record")
            records[entry.name] = record
            if isinstance(group, PermGroup):
                primitive[entry.name] = group.is_primitive()
            print(f"{workload:<10} {entry.name:<28} {json.dumps(record)}", flush=True)
    return records, primitive


def check_invariants(records: dict, primitive: dict, bridges: dict) -> None:
    for workload, entries in pools.POOLS.items():
        for entry in entries:
            r = records[entry.name]
            if entry.kind == "mat":
                if not r["index_ok"] or r["index"] * r["r_order"] != r["order"]:
                    _fail(f"{entry.name}: matrix index facts")
                continue
            n, index = r["degree"], r["index"]
            if index * r["d_order"] != r["order"]:
                _fail(f"{entry.name}: index * |D| != |G|")
            if (n - 1) % index:
                _fail(f"{entry.name}: index does not divide n - 1")
            if len(r["checks"]) != 7 or not all(r["checks"].values()) or not r["all_checks"]:
                _fail(f"{entry.name}: a structural check failed")
            if not primitive[entry.name] and (index + 1) ** 2 > n:
                _fail(f"{entry.name}: imprimitive but (index + 1)^2 > n")
            if entry.bridge:
                h = bridges[entry.bridge]
                if (index, r["quotient_name"]) != (h["index"], h["quotient_name"]):
                    _fail(f"{entry.name}: disagrees with its matrix group {entry.bridge}")


def check_scenarios(records: dict, bridges: dict) -> int:
    """Compare against PAPER_SCENARIOS wherever a scenario builds a pool
    entry; returns the number of pinned values compared."""
    by_params = {e.params: e for es in pools.POOLS.values() for e in es if e.params}
    compared = 0
    for sc in suite.PAPER_SCENARIOS:
        entry = by_params.get(sc.params)
        if entry is None:
            continue
        ours_record = records[entry.name]
        for exp in sc.expected:
            side, _, field = exp.field.rpartition(".")
            if field in ("index_match", "quotient_match"):
                key = "index" if field == "index_match" else "quotient_name"
                ours = ours_record[key] == bridges[entry.bridge][key]
            else:
                record = records[sc.mat_id] if side == "mat" else ours_record
                if field not in record:
                    continue
                ours = record[field]
            if ours != exp.value:
                _fail(f"{entry.name}: scenario {sc.id} pins {exp.field} = {exp.value!r}, got {ours!r}")
            compared += 1
    return compared


def corpus_reference() -> dict:
    outputs = set()
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "derangements.cli", *pools.CORPUS_ARGV],
            capture_output=True, env=dict(os.environ, PYTHONPATH=str(pools.SRC)), cwd=pools.ROOT,
            check=False,
        )
        if proc.returncode != 0:
            _fail(f"corpus command exited {proc.returncode}")
        outputs.add(proc.stdout)
    if len(outputs) != 1:
        _fail("two corpus runs gave different bytes")
    out = outputs.pop()
    return {"sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out), "exit": 0}


def main() -> int:
    records, primitive = entry_records()
    bridges = {name: suite.matrix_record(build()) for name, build in pools.BRIDGE_GROUPS.items()}
    check_invariants(records, primitive, bridges)
    compared = check_scenarios(records, bridges)
    refs = {"records": records, "bridges": bridges, "corpus": corpus_reference()}
    pools.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {pools.REFERENCES.name}: {len(records)} records, {len(bridges)} bridges, "
          f"{compared} pinned scenario values matched")
    return 0


if __name__ == "__main__":
    sys.exit(main())
