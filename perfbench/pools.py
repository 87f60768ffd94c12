"""Workload pools, the seeded input generator and the per-op work.

Each pool entry is built through the public ``families`` / ``matgrp``
constructors, then disguised by the seed: permutation groups get their
points relabelled by a seeded permutation, matrix groups get their
generators conjugated by a seeded invertible matrix.  Every field of an
analysis record is invariant under both changes, so one reference record
per entry serves every seed.  The code under test only ever sees the
canonical text the disguised group dumps to.

Run as a script, this module is the benchmark's set-up step for one
workload: it imports the package, builds, disguises and dumps the pool,
warms the fingerprint catalog, and prints ``{entry: text}`` as JSON.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from derangements import derange, families, fileio, matgrp, suite  # noqa: E402
from derangements.families import FamilyParams  # noqa: E402
from derangements.gf import field, prime_power_decompose  # noqa: E402
from derangements.matgrp import FFMatrix, MatrixGroup  # noqa: E402
from derangements.permgrp import PermGroup, Permutation, alternating_group, dihedral_group  # noqa: E402

REFERENCES = Path(__file__).resolve().parent / "references.json"
CORPUS = "verify-corpus"
CORPUS_ARGV = ("verify", "corpus", "--json", "--workers", "1")


@dataclass(frozen=True)
class Entry:
    """One pool member.  ``params`` is set when the entry is a named family
    (so it can be matched against the paper scenarios); otherwise ``build``
    constructs it.  ``bridge`` names the matrix group H of an affine T:H
    entry, whose eigenvalue-1 index and quotient the entry must reproduce."""

    name: str
    kind: str  # "perm" | "mat"
    why: str
    params: FamilyParams | None = None
    build: Callable[[], object] | None = None
    bridge: str | None = None

    def construct(self):
        return families.build_family(self.params) if self.params else self.build()


def _fam(name: str, *values: int) -> FamilyParams:
    return FamilyParams(name, values)


def _gf(q: int):
    return field(*prime_power_decompose(q))


# Matrix groups H of the affine entries.  references.json holds their
# matrix records; a run analyzes each H again, outside the timed region.
BRIDGE_GROUPS: dict[str, Callable[[], MatrixGroup]] = {
    "scalars-7-3": lambda: matgrp.scalar_matrix_group(_gf(7), 3),
    "scalars-5-3": lambda: matgrp.scalar_matrix_group(_gf(5), 3),
    "scalars-3-5": lambda: matgrp.scalar_matrix_group(_gf(3), 5),
    "scalars-127-1": lambda: matgrp.scalar_matrix_group(_gf(127), 1),
}

POOLS: dict[str, tuple[Entry, ...]] = {
    "perm-wide": (
        Entry("affine-scalars-7-3", "perm", "degree 343 Frobenius group: the widest entry; chain builds and 342 block seeds dominate", _fam("affine-scalars", 7, 3), bridge="scalars-7-3"),
        Entry("affine-scalars-5-3", "perm", "degree 125 Frobenius group: the cheap end of the affine family", _fam("affine-scalars", 5, 3), bridge="scalars-5-3"),
        Entry("affine-scalars-3-5", "perm", "degree 243, order 486: imprimitive, so block_systems finds systems among its 242 seeds; chain work with almost no scan", _fam("affine-scalars", 3, 5), bridge="scalars-3-5"),
        Entry("frobenius-complement-5-2-3", "perm", "degree 125 non-Frobenius group whose D is not the translations; pinned by a paper scenario", _fam("frobenius-complement", 5, 2, 3)),
        Entry("agl1-127", "perm", "degree 127, index 126: the extreme index n-1 and a 126-point coset action", _fam("agl1", 127), bridge="scalars-127-1"),
        Entry("semilinear-9", "perm", "degree 81 primitive group meeting the square-root bound; slowest corpus entry after pgammal28", _fam("semilinear", 9)),
        Entry("semilinear-8", "perm", "degree 64 semilinear group in characteristic 2", _fam("semilinear", 8)),
    ),
    "perm-deep": (
        Entry("sym-8", "perm", "order 40320 on 8 points: the longest derangement scan and rank character sum", _fam("symmetric", 8)),
        Entry("alt-8", "perm", "order 20160 on 8 points: even half of the same scan", _fam("alternating", 8)),
        Entry("affine-gl2-5", "perm", "order 12000 on 25 points: many multi-fixers to certify by sifting", _fam("affine-gl2", 5)),
        Entry("sym-7", "perm", "order 5040 on 7 points: a mid-size scan", _fam("symmetric", 7)),
        Entry("pgammal28", "perm", "order 1512 on 28 points, index 3; pinned by a paper scenario", _fam("pgammal28")),
        Entry("wreath-sym-4-2", "perm", "imprimitive product action on 16 points, rank 3", _fam("wreath-sym", 4, 2)),
        Entry("affine-gl2-4", "perm", "order 2880 on 16 points over a field of order 4", _fam("affine-gl2", 4)),
    ),
    "matrix": (
        Entry("central-a4", "mat", "order 528 in GL(4,23), quotient A4: the costly irreducibility spin; paper scenario", _fam("central-a4")),
        Entry("central-a5", "mat", "order 6960 in GL(4,59), quotient A5: the largest closure; paper scenario", _fam("central-a5")),
        Entry("dihedral-family-7", "mat", "order 96 in GL(4,7), quotient D8; paper scenario", _fam("dihedral-family", 7)),
        Entry("dihedral-family-19", "mat", "order 720 in GL(4,19), quotient D20: a dihedral quotient outside the warm catalog", _fam("dihedral-family", 19)),
        Entry("central-klein", "mat", "order 48 in GL(4,5), quotient C2xC2: matrix side of the paper's bridge-klein scenario", _fam("central-klein")),
        Entry("gl2-5", "mat", "all of GL(2,5): eigenvalue-1 elements generate everything, index 1", build=lambda: matgrp.general_linear_gl2(_gf(5))),
        Entry("dihedral-25-26", "mat", "dihedral order 52 over GF(25): every entry operation goes through gf", build=lambda: matgrp.dihedral_gl2(_gf(25), 26)),
        Entry("dihedral-27-28", "mat", "dihedral order 56 over GF(27): prime-power field, odd characteristic 3", build=lambda: matgrp.dihedral_gl2(_gf(27), 28)),
        Entry("scalars-27-2", "mat", "scalars in GL(2,27): reducible, trivial R, cyclic quotient C26 over a prime-power field", build=lambda: matgrp.scalar_matrix_group(_gf(27), 2)),
        Entry("scalars-8-3", "mat", "scalars in GL(3,8): characteristic 2, dimension 3, quotient C7", build=lambda: matgrp.scalar_matrix_group(_gf(8), 3)),
    ),
    CORPUS: (),
}

WORKLOADS = tuple(POOLS)

# Whole passes a run makes at --seconds 16; other values scale the count
# in proportion, at least one pass, and a traced run makes half of them
# untraced and half traced.  The count does not follow the clock, so every
# run of a workload, on either side of a comparison, takes the same number
# of samples and reports op_tail_s at the same percentile.
PASSES = {"perm-wide": 5, "perm-deep": 7, "matrix": 3, CORPUS: 2}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


# ---------------------------------------------------------------------------
# seeded disguise


def entry_rng(workload: str, seed: int, name: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{name}")


def relabel(group: PermGroup, rng: random.Random) -> PermGroup:
    """The same group with point x renamed sigma(x) for a seeded sigma."""
    n = group.degree
    sigma = list(range(n))
    rng.shuffle(sigma)
    gens = []
    for g in group.generators:
        images = [0] * n
        for x, y in enumerate(g.images):
            images[sigma[x]] = sigma[y]
        gens.append(Permutation(images))
    return PermGroup(n, gens)


def conjugate(group: MatrixGroup, rng: random.Random) -> MatrixGroup:
    """The same group conjugated by a seeded invertible matrix A."""
    spec, d = group.spec, group.d
    while True:
        a = FFMatrix(spec, [[rng.randrange(spec.order) for _ in range(d)] for _ in range(d)])
        if a.det():
            break
    a_inv = a.inverse()
    return MatrixGroup(spec, d, [a_inv * g * a for g in group.generators])


def disguise(group, rng: random.Random):
    return relabel(group, rng) if isinstance(group, PermGroup) else conjugate(group, rng)


def warm_catalog(refs: dict, names) -> None:
    """Fill the module-level fingerprint caches the pool's quotients need,
    so the first op of a run pays no more than the others."""
    derange.identify_quotient(alternating_group(4))
    for name in names:
        label = refs["records"][name]["quotient_name"]
        if label.startswith("D"):
            derange.identify_quotient(dihedral_group(int(label[1:]) // 2))


def build_texts(workload: str, seed: int, refs: dict) -> dict[str, str]:
    """Canonical text of every disguised pool entry, in pool order."""
    texts = {}
    for entry in POOLS[workload]:
        group = disguise(entry.construct(), entry_rng(workload, seed, entry.name))
        texts[entry.name] = fileio.dump_group(group)
    warm_catalog(refs, texts)
    return texts


# ---------------------------------------------------------------------------
# the op and its check


def record_of(kind: str, text: str) -> dict:
    """The timed work of one op: parse, then analyze.  Names are looked up
    on the modules at call time, so the tracer's wrappers see them."""
    group = fileio.load_group(text)
    if kind == "perm":
        report = derange.analyze(group)
        record = report.to_record()
        record["all_checks"] = report.all_checks_pass()
        return record
    return suite.matrix_record(group)


def bridge_records(workload: str) -> dict[str, dict]:
    """The matrix record of H for every affine entry of the pool, from the
    code under test."""
    names = {entry.bridge for entry in POOLS[workload] if entry.bridge}
    return {name: suite.matrix_record(BRIDGE_GROUPS[name]()) for name in sorted(names)}


def check_record(entry: Entry, record: dict, refs: dict, bridges: dict) -> list[str]:
    """Reasons this record is wrong; empty when it matches the reference
    and, for an affine entry T:H, H's matrix record (from ``bridges``)
    matches its reference and gives the same index and quotient."""
    problems = []
    expected = refs["records"][entry.name]
    if record != expected:
        diff = sorted(k for k in set(record) | set(expected) if record.get(k) != expected.get(k))
        problems.append(f"record differs from reference in {', '.join(diff)}")
    if entry.bridge:
        h = bridges[entry.bridge]
        if h != refs["bridges"][entry.bridge]:
            problems.append(f"matrix record of {entry.bridge} differs from reference")
        if (record.get("index"), record.get("quotient_name")) != (h["index"], h["quotient_name"]):
            problems.append(f"bridge to {entry.bridge} disagrees")
    return problems


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    refs = load_references()
    if workload == CORPUS:
        import derangements.cli  # noqa: F401  (set-up is the package import)

        texts = {}
    else:
        texts = build_texts(workload, seed, refs)
    sys.stdout.write(json.dumps(texts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
