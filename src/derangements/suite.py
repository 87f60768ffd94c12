"""Built-in verification scenarios and the transitive-group corpus.

A Scenario names a construction and pins exact expected values for fields
of its analysis record.  ``run_paper_suite`` builds every scenario,
analyzes it, and compares field by field; ``run_corpus_suite`` sweeps a
fixed list of transitive groups (degree at most 125) through the full set
of structural properties: the four core subgroup checks, index
divisibility and the stabilizer facts, the imprimitivity bound, exact
coset fixed-point averages, derangement abundance, two-derangement
coverage for Frobenius actions, and independent order and rank
cross-checks.  One walk over D's tail and upper products gives every
coset average and D's fixed-point tally; G's tally likewise.

All records are plain JSON-safe dicts with deterministic key and entry
order, so repeated runs emit identical bytes.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import partial

from .derange import (
    AnalysisReport,
    _faulted_analysis,
    analyze,
    fingerprint,
    identify_fingerprint,
    two_derangement_coverage,
)
from .errors import ConstraintViolated
from .families import (
    FamilyParams,
    _pgl_2_8,
    affine_group,
    build_family,
    central_product_examples,
    direct_product_action,
)
from .gf import field
from .matgrp import (
    MatrixGroup,
    eigenvalue_one_subgroup,
    general_linear_gl2,
    index_bound_check,
    is_irreducible,
    quotient_perm_group,
    scalar_matrix_group,
)
from .permgrp import (
    PermGroup,
    alternating_group,
    bruteforce_closure,
    coset_average_fixed_points,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)

BRUTEFORCE_ORDER_CAP = 10_000
COSET_REP_COUNT = 10


# ---------------------------------------------------------------------------
# scenario definitions


@dataclass(frozen=True)
class Expectation:
    """One expected record field: dotted path, exact expected value, and a
    short note saying which fact the value pins down."""

    field: str
    value: object
    note: str = ""


@dataclass(frozen=True)
class Scenario:
    """A named construction plus the exact record values it must produce.

    kind is "perm" (permutation analysis), "mat" (eigenvalue-1 analysis of
    a matrix group), or "bridge" (both sides built independently and their
    index and quotient compared).
    """

    id: str
    description: str
    kind: str
    params: FamilyParams
    expected: tuple[Expectation, ...]
    extras: tuple[str, ...] = ()
    mat_id: str | None = None  # matrix side of a bridge scenario


# matrix-side builders for bridge scenarios (not all are CLI families)
_MAT_BUILDERS = {
    "scalars-3-2": lambda: scalar_matrix_group(field(3, 1), 2),
    "gl2-3": lambda: general_linear_gl2(field(3, 1)),
    "central-klein": lambda: central_product_examples("klein"),
}


def _e(field_path: str, value, note: str = "") -> Expectation:
    return Expectation(field_path, value, note)


def _semilinear_scenario(q: int) -> Scenario:
    n = q * q
    return Scenario(
        id=f"semilinear-{q}",
        description=f"semilinear maps a*x^e + c on the field of {n} elements",
        kind="perm",
        params=FamilyParams("semilinear", (q,)),
        expected=(
            _e("degree", n, "acts on the q^2 field elements"),
            _e("order", 2 * n * (n - 1), "2 q^2 (q^2 - 1) maps"),
            _e("index", q - 1, "index of the derangement-generated subgroup"),
            _e("frobenius", False, "field automorphism fixes a subfield"),
            _e("quotient_name", f"C{q - 1}", "cyclic quotient"),
            _e("primitive", True, "no invariant partition"),
            _e("bound_equality", True, "(index+1)^2 equals the degree"),
            _e("all_checks", True),
        ),
        extras=("primitive", "bound_equality"),
    )


def _agl1_scenario(q: int) -> Scenario:
    return Scenario(
        id=f"agl1-{q}",
        description=f"affine maps a*x + b on {q} points",
        kind="perm",
        params=FamilyParams("agl1", (q,)),
        expected=(
            _e("degree", q),
            _e("order", q * (q - 1)),
            _e("d_order", q, "derangements generate the translations"),
            _e("index", q - 1, "index equals degree - 1, the extreme case"),
            _e("frobenius", True, "only the identity fixes two points"),
            _e("quotient_name", f"C{q - 1}"),
            _e("all_checks", True),
        ),
        extras=("coverage",) if q == 5 else (),
    )


def _paper_scenarios() -> tuple[Scenario, ...]:
    scenarios = [
        _semilinear_scenario(3),
        _semilinear_scenario(4),
        _semilinear_scenario(5),
        _agl1_scenario(5),
        _agl1_scenario(7),
        _agl1_scenario(8),
        Scenario(
            id="affine-scalars-9",
            description="translations of a 9-element plane extended by negation",
            kind="perm",
            params=FamilyParams("affine-scalars", (3, 2)),
            expected=(
                _e("degree", 9),
                _e("order", 18),
                _e("d_order", 9, "derangements generate the translations"),
                _e("index", 2),
                _e("frobenius", True),
                _e("primitive", False, "lines through 0 form blocks"),
                _e("bound_equality", True, "(2+1)^2 = 9 meets the bound exactly"),
                _e("quotient_name", "C2"),
                _e("all_checks", True),
            ),
            extras=("primitive", "bound_equality"),
        ),
        Scenario(
            id="pgammal28",
            description="order-1512 extension of a simple group of order 504, "
            "acting on 28 cosets",
            kind="perm",
            params=FamilyParams("pgammal28", ()),
            expected=(
                _e("degree", 28),
                _e("order", 1512),
                _e("d_order", 504, "derangements generate the simple socle"),
                _e("index", 3, "cubing field automorphism survives"),
                _e("quotient_name", "C3"),
                _e("socle_match", True, "subgroup matches an independent model "
                   "of the simple group of order 504"),
                _e("all_checks", True),
            ),
            extras=("socle_match",),
        ),
        Scenario(
            id="bridge-scalars-3",
            description="negation on a 9-element plane: affine action vs "
            "matrix eigenvalue-1 analysis",
            kind="bridge",
            params=FamilyParams("affine-scalars", (3, 2)),
            mat_id="scalars-3-2",
            expected=(
                _e("perm.index", 2),
                _e("mat.index", 2),
                _e("index_match", True, "affine index equals matrix index"),
                _e("quotient_match", True, "same quotient on both sides"),
                _e("perm.quotient_name", "C2"),
            ),
        ),
        Scenario(
            id="bridge-gl2-3",
            description="full 2x2 matrix group over 3 elements: affine action "
            "vs matrix analysis",
            kind="bridge",
            params=FamilyParams("affine-gl2", (3,)),
            mat_id="gl2-3",
            expected=(
                _e("perm.order", 432),
                _e("perm.index", 1, "transvections fix vectors, index collapses"),
                _e("mat.index", 1),
                _e("index_match", True),
                _e("quotient_match", True),
                _e("perm.quotient_name", "C1"),
            ),
        ),
        Scenario(
            id="bridge-klein",
            description="central product with Klein four quotient over 625 "
            "points: affine action vs matrix analysis",
            kind="bridge",
            params=FamilyParams("affine-klein", ()),
            mat_id="central-klein",
            expected=(
                _e("perm.degree", 625),
                _e("perm.order", 30000),
                _e("perm.index", 4),
                _e("mat.order", 48),
                _e("mat.index", 4),
                _e("index_match", True),
                _e("quotient_match", True),
                _e("perm.quotient_name", "C2xC2", "non-cyclic quotient"),
                _e("mat.irreducible", True),
            ),
        ),
        Scenario(
            id="central-a4",
            description="central product realizing an alternating quotient "
            "of order 12",
            kind="mat",
            params=FamilyParams("central-a4", ()),
            expected=(
                _e("order", 528),
                _e("r_order", 44),
                _e("index", 12),
                _e("quotient_name", "A4"),
                _e("irreducible", True),
                _e("index_ok", True),
            ),
        ),
        Scenario(
            id="central-a5",
            description="central product realizing an alternating quotient "
            "of order 60",
            kind="mat",
            params=FamilyParams("central-a5", ()),
            expected=(
                _e("order", 6960),
                _e("r_order", 116),
                _e("index", 60),
                _e("quotient_name", "A5"),
                _e("irreducible", True),
                _e("index_ok", True),
            ),
        ),
        Scenario(
            id="dihedral-family-7",
            description="irreducible 4-dimensional group over 7 elements with "
            "dihedral quotient of order 8",
            kind="mat",
            params=FamilyParams("dihedral-family", (7,)),
            expected=(
                _e("order", 96),
                _e("r_order", 12),
                _e("index", 8),
                _e("quotient_name", "D8"),
                _e("irreducible", True),
                _e("index_ok", True),
            ),
        ),
        Scenario(
            id="dihedral-family-11",
            description="irreducible 4-dimensional group over 11 elements with "
            "dihedral quotient of order 12",
            kind="mat",
            params=FamilyParams("dihedral-family", (11,)),
            expected=(
                _e("order", 240),
                _e("r_order", 20),
                _e("index", 12),
                _e("quotient_name", "D12"),
                _e("irreducible", True),
                _e("index_ok", True),
            ),
        ),
        Scenario(
            id="frobenius-complement-5-2-3",
            description="rank-3 power of a 5-point cycle extended by a "
            "multiplier of order 4 and a coordinate rotation",
            kind="perm",
            params=FamilyParams("frobenius-complement", (5, 2, 3)),
            expected=(
                _e("degree", 125),
                _e("order", 1500),
                _e("d_order", 375, "base translations joined by the rotation"),
                _e("index", 4),
                _e("frobenius", False, "the rotation fixes diagonal points"),
                _e("quotient_name", "C4"),
                _e("all_checks", True),
            ),
        ),
        Scenario(
            id="coverage-s2",
            description="two points: the swap cannot be a product of two "
            "derangements",
            kind="perm",
            params=FamilyParams("symmetric", (2,)),
            expected=(
                _e("covered", False, "products of two derangements miss the swap"),
                _e("coverage_witnesses", 1),
            ),
            extras=("coverage",),
        ),
        Scenario(
            id="coverage-a5",
            description="even permutations of 5 points: everything in the "
            "group is a product of two derangements",
            kind="perm",
            params=FamilyParams("alternating", (5,)),
            expected=(
                _e("index", 1),
                _e("covered", True),
                _e("coverage_witnesses", 0),
            ),
            extras=("coverage",),
        ),
    ]
    return tuple(scenarios)


# ---------------------------------------------------------------------------
# record builders


def _resolve(record: dict, dotted: str):
    """The value at a dotted path, or "<missing>" when the path is absent."""
    cur = record
    for part in dotted.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return "<missing>"
        cur = cur[part]
    return cur


def _report_record(report: AnalysisReport) -> dict:
    record = report.to_record()
    record["all_checks"] = report.all_checks_pass()
    return record


def _perm_record(group: PermGroup, extras: tuple[str, ...]) -> dict:
    report = analyze(group)
    record = _report_record(report)
    if "primitive" in extras:
        record["primitive"] = group.is_primitive()
    if "bound_equality" in extras:
        record["bound_equality"] = (report.index + 1) ** 2 == report.degree
    if "socle_match" in extras:
        record["socle_match"] = fingerprint(report.subgroup) == fingerprint(_pgl_2_8())
    if "coverage" in extras:
        covered, witnesses = two_derangement_coverage(group)
        record["covered"] = covered
        record["coverage_witnesses"] = len(witnesses)
    return record


def _faulted_perm_record(group: PermGroup, extras: tuple[str, ...]) -> dict:
    """The record with D replaced by its point stabilizer before the checks.
    The membership check must fail, which exercises the failure path end
    to end."""
    record = _report_record(_faulted_analysis(group))
    for key in extras:
        record.setdefault(key, None)
    return record


def _matrix_profile(group: MatrixGroup):
    sub = eigenvalue_one_subgroup(group)
    bound = index_bound_check(group)
    quotient = quotient_perm_group(group)
    fp = fingerprint(quotient)
    record = {
        "field": group.spec.order,
        "dimension": group.d,
        "order": group.order(),
        "r_order": sub.order(),
        "index": bound.index,
        "index_ok": bound.index_ok,
        "semiregular": bound.semiregular,
        "irreducible": is_irreducible(group),
        "quotient_name": identify_fingerprint(fp),
    }
    return record, fp


def matrix_record(group: MatrixGroup) -> dict:
    """Eigenvalue-1 analysis of a matrix group as a flat JSON-safe dict."""
    record, _ = _matrix_profile(group)
    return record


def _bridge_record(perm_group: PermGroup, mat_group: MatrixGroup) -> dict:
    report = analyze(perm_group)
    mat, mat_fp = _matrix_profile(mat_group)
    return {
        "perm": _report_record(report),
        "mat": mat,
        "index_match": report.index == mat["index"],
        "quotient_match": report.quotient == mat_fp,
    }


# ---------------------------------------------------------------------------
# scenario runner


@dataclass(frozen=True)
class RunReport:
    """Outcome of one scenario: the record produced, plus every expectation
    that failed as (field, expected, actual)."""

    scenario_id: str
    description: str
    record: dict
    failures: tuple[tuple[str, object, object], ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_record(self) -> dict:
        return {
            "id": self.scenario_id,
            "description": self.description,
            "pass": self.passed,
            "failures": [
                {"field": f, "expected": e, "actual": a} for f, e, a in self.failures
            ],
            "record": self.record,
        }


PAPER_SCENARIOS: tuple[Scenario, ...] = _paper_scenarios()
_SCENARIOS_BY_ID = {sc.id: sc for sc in PAPER_SCENARIOS}


def run_scenario(scenario: Scenario, inject_fault: bool = False) -> RunReport:
    built = build_family(scenario.params)
    if scenario.kind == "perm":
        maker = _faulted_perm_record if inject_fault else _perm_record
        record = maker(built, scenario.extras)
    elif scenario.kind == "mat":
        record = matrix_record(built)
    elif scenario.kind == "bridge":
        record = _bridge_record(built, _MAT_BUILDERS[scenario.mat_id]())
    else:
        raise ValueError(f"unknown scenario kind {scenario.kind!r}")
    failures = []
    for exp in scenario.expected:
        actual = _resolve(record, exp.field)
        if actual != exp.value:
            failures.append((exp.field, exp.value, actual))
    return RunReport(scenario.id, scenario.description, record, tuple(failures))


def _fan_out(fn, calls: list[tuple], workers: int) -> list:
    """fn(*args) for each args in calls, in order: serially below 2
    workers, else across a pool of that many processes, spawned rather
    than forked from a process that may hold threads."""
    if workers < 2:
        return [fn(*args) for args in calls]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, *zip(*calls)))


def run_paper_suite(
    workers: int = 1,
    inject_fault: bool = False,
    only: tuple[str, ...] = (),
) -> list[RunReport]:
    """Run the built-in scenarios in definition order.

    With inject_fault=True each permutation scenario replaces D by its
    point stabilizer D_0 before the checks.  D is transitive, so D_0 misses
    a derangement and the membership check must fail; this is a self-test
    of the failure path.  ``only`` restricts to the named
    scenario ids, preserving definition order.
    """
    unknown = sorted(set(only) - _SCENARIOS_BY_ID.keys())
    if unknown:
        raise ConstraintViolated(f"unknown scenario id(s): {', '.join(unknown)}")
    chosen = [(sc, inject_fault) for sc in PAPER_SCENARIOS if not only or sc.id in only]
    return _fan_out(run_scenario, chosen, workers)


# ---------------------------------------------------------------------------
# the corpus


def _corpus_builders() -> dict:
    """Name -> zero-argument builder, in fixed emission order."""
    builders = {}
    for n in range(2, 13):
        builders[f"cyclic-{n}"] = partial(cyclic_group, n)
    for n in range(2, 8):
        builders[f"sym-{n}"] = partial(symmetric_group, n)
    for n in range(3, 8):
        builders[f"alt-{n}"] = partial(alternating_group, n)
    for m in range(3, 11):
        builders[f"dihedral-{m}"] = partial(dihedral_group, m)
    for q in (3, 4, 5, 7, 8, 9, 11, 13):
        builders[f"agl1-{q}"] = partial(_family, "agl1", q)
    builders["affine-scalars-3-2"] = partial(_family, "affine-scalars", 3, 2)
    builders["affine-scalars-5-2"] = partial(_family, "affine-scalars", 5, 2)
    builders["affine-gl2-3"] = partial(_family, "affine-gl2", 3)
    builders["affine-gl2-4"] = partial(_family, "affine-gl2", 4)
    builders["affine-sl2-3"] = _affine_sl2_3
    for q in (3, 4, 5, 7, 8, 9):
        builders[f"semilinear-{q}"] = partial(_family, "semilinear", q)
    builders["wreath-sym-2-2"] = partial(_family, "wreath-sym", 2, 2)
    builders["wreath-sym-3-2"] = partial(_family, "wreath-sym", 3, 2)
    builders["wreath-cyclic-3-2"] = partial(_family, "wreath-cyclic", 3, 2)
    builders["wreath-cyclic-5-2"] = partial(_family, "wreath-cyclic", 5, 2)
    builders["wreath-cyclic-2-3"] = partial(_family, "wreath-cyclic", 2, 3)
    builders["pgammal28"] = partial(_family, "pgammal28")
    builders["frobenius-complement-5-2-3"] = partial(_family, "frobenius-complement", 5, 2, 3)
    builders["frobenius-complement-7-2-2"] = partial(_family, "frobenius-complement", 7, 2, 2)
    builders["product-c2-c2"] = partial(_product, partial(cyclic_group, 2), partial(cyclic_group, 2))
    builders["product-c2-s3"] = partial(_product, partial(cyclic_group, 2), partial(symmetric_group, 3))
    builders["product-s3-s3"] = partial(_product, partial(symmetric_group, 3), partial(symmetric_group, 3))
    builders["product-a4-c2"] = partial(_product, partial(alternating_group, 4), partial(cyclic_group, 2))
    return builders


def _family(name: str, *values: int) -> PermGroup:
    return build_family(FamilyParams(name, tuple(values)))


def _affine_sl2_3() -> PermGroup:
    from .matgrp import special_linear_gl2

    return affine_group(special_linear_gl2(field(3, 1)))


def _product(a, b) -> PermGroup:
    return direct_product_action(a(), b())


def corpus_names() -> list[str]:
    return list(_corpus_builders())


def corpus_group(name: str) -> PermGroup:
    return _corpus_builders()[name]()


def corpus_record(name: str, group: PermGroup | None = None) -> dict:
    """All corpus-wide properties for one group, as a JSON-safe dict."""
    if group is None:
        group = corpus_group(name)
    report = analyze(group)
    record = {"name": name}
    record.update(_report_record(report))
    record["primitive"] = group.is_primitive()
    record["sqrt_bound"] = (report.index + 1) ** 2 <= report.degree
    record["abundance"] = report.derangement_count * report.degree >= report.order

    rng = random.Random(f"coset-reps:{name}")  # any representatives work: seeded draws from G
    reps = [group.random_element(rng) for _ in range(COSET_REP_COUNT)]
    d_tally: Counter = Counter()
    record["coset_average_one"] = all(
        a == 1 for a in coset_average_fixed_points(reps, report.subgroup, d_tally)
    )

    if report.frobenius and report.d_order >= 3:
        covered, _ = two_derangement_coverage(group)
        record["frobenius_coverage"] = covered
    else:
        record["frobenius_coverage"] = None

    if report.order <= BRUTEFORCE_ORDER_CAP:
        closure = bruteforce_closure(group.degree, group.generators, cap=report.order + 1)
        record["order_crosscheck"] = len(closure) == report.order
    else:
        record["order_crosscheck"] = None

    # the character formula sum(fix(g)^2) == rank * |G|, for G and for D (its
    # tally from the coset pass); the pass over G is the oracle for the certified
    # derangement count and for the stabilizer facts: by transitivity the
    # elements fixing one point number n times those of G_0 fixing point 0 alone
    tally = group.fixed_point_tally()
    assert tally[0] == report.derangement_count, "certified count disagrees with the scan"
    assert report.checks["stabilizer_generated"] == (
        report.index == 1 or 2 * tally[1] >= report.order
    ), "stabilizer facts disagree with the scan"
    squares = [sum(k * k * c for k, c in t.items()) for t in (tally, d_tally)]
    record["rank_crosscheck"] = squares[0] == report.rank_g * report.order and (
        report.rank_n is None or squares[1] == report.rank_n * report.d_order
    )
    return record


def corpus_failures(record: dict) -> list[str]:
    """Names of the required properties this corpus entry violated."""
    bad = [f"checks.{k}" for k, v in record["checks"].items() if not v]
    if not (record["primitive"] or record["sqrt_bound"]):
        bad.append("sqrt_bound")
    if not record["abundance"]:
        bad.append("abundance")
    if not record["coset_average_one"]:
        bad.append("coset_average_one")
    if record["frobenius_coverage"] is False:
        bad.append("frobenius_coverage")
    if record["order_crosscheck"] is False:
        bad.append("order_crosscheck")
    if not record["rank_crosscheck"]:
        bad.append("rank_crosscheck")
    return bad


def _corpus_entry(name: str, max_order: int | None, max_degree: int | None) -> dict:
    """The record of one corpus group, built in the process that records
    it, or a skip marker when it exceeds max_order or max_degree."""
    group = corpus_group(name)
    if (max_degree is not None and group.degree > max_degree) or (
        max_order is not None and group.order() > max_order
    ):
        return {"name": name, "skipped": True}
    return corpus_record(name, group)


def run_corpus_suite(
    workers: int = 1,
    max_order: int | None = None,
    max_degree: int | None = None,
) -> list[dict]:
    """Records for every corpus group, in fixed order.  Groups exceeding
    max_order or max_degree are emitted as skip markers."""
    calls = [(name, max_order, max_degree) for name in corpus_names()]
    return _fan_out(_corpus_entry, calls, workers)
