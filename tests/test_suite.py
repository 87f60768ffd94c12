"""Scenario table integrity, runner behavior, and corpus properties."""

import dataclasses
import json
import random
from collections import Counter

import pytest

from derangements import suite
from derangements.errors import ConstraintViolated
from derangements.families import FAMILY_ARITY
from derangements.gf import field
from derangements.families import FamilyParams, build_family
from derangements.fileio import dump_group, load_group
from derangements import matgrp
from derangements.matgrp import (
    FFMatrix,
    dihedral_gl2,
    eigenvalue_one_subgroup,
    general_linear_gl2,
    scalar_matrix_group,
)
from derangements.derange import analyze
from derangements.permgrp import PermGroup, Permutation, coset_average_fixed_points, count_fixed
from derangements.suite import (
    COSET_REP_COUNT,
    _MAT_BUILDERS,
    _faulted_perm_record,
    PAPER_SCENARIOS,
    Expectation,
    RunReport,
    Scenario,
    corpus_failures,
    corpus_group,
    corpus_names,
    corpus_record,
    matrix_record,
    run_corpus_suite,
    run_paper_suite,
    run_scenario,
)
from test_properties import _coset_average_loop


def corpus_ok(record: dict) -> bool:
    """Did this corpus entry satisfy every property that must hold?"""
    return not corpus_failures(record)


def _coset_reps(name: str, group: PermGroup) -> list[Permutation]:
    """corpus_record's coset representatives: COSET_REP_COUNT uniform draws
    from G's chain, seeded by the group's name."""
    rng = random.Random(f"coset-reps:{name}")
    return [group.random_element(rng) for _ in range(COSET_REP_COUNT)]


def test_matrix_record_works_on_positions(monkeypatch):
    """matrix_record of central-a5 (order 6 960 in GL(4,59)), loaded from
    its text, makes fewer than 100 FFMatrix objects: no stage decodes the
    element stack."""
    group = load_group(dump_group(build_family(FamilyParams("central-a5", ()))))
    made = []
    init, raw = FFMatrix.__init__, FFMatrix._raw.__func__

    def counted_init(self, *args):
        made.append(1)
        init(self, *args)

    def counted_raw(cls, *args):
        made.append(1)
        return raw(cls, *args)

    monkeypatch.setattr(FFMatrix, "__init__", counted_init)
    monkeypatch.setattr(FFMatrix, "_raw", classmethod(counted_raw))
    record = matrix_record(group)
    assert (record["order"], record["index"]) == (6960, 60)
    assert len(made) < 100


@pytest.mark.parametrize(
    "build",
    [lambda: dihedral_gl2(field(3, 3), 28), lambda: build_family(FamilyParams("central-a5", ()))],
    ids=["dihedral-27-28", "central-a5"],
)
def test_matrix_record_converts_each_generator_once(monkeypatch, build):
    """matrix_record of a group loaded from its text makes one digit
    matrix per generator of H and of R(H), plus one per inverse of H's
    generators for R's normality check."""
    text = dump_group(build())
    matrix_record(load_group(text))  # builds the quotient catalog's groups
    group = load_group(text)
    calls = []
    digit_matrix = matgrp._digit_matrix
    monkeypatch.setattr(matgrp, "_digit_matrix", lambda m: calls.append(m) or digit_matrix(m))
    matrix_record(group)
    made = len(calls)  # before R(H) is built again for the bound
    assert 0 < made <= 2 * len(group.generators) + len(eigenvalue_one_subgroup(group).generators)


CHEAP_IDS = ("semilinear-3", "agl1-5", "affine-scalars-9", "coverage-s2")


def test_scenario_table_is_well_formed():
    ids = [sc.id for sc in PAPER_SCENARIOS]
    assert len(ids) == len(set(ids))
    for sc in PAPER_SCENARIOS:
        assert sc.kind in ("perm", "mat", "bridge")
        assert sc.params.name in FAMILY_ARITY
        assert len(sc.params.values) == FAMILY_ARITY[sc.params.name]
        if sc.kind == "bridge":
            assert sc.mat_id in _MAT_BUILDERS
        else:
            assert sc.mat_id is None
        assert sc.expected, "a scenario with nothing to pin checks nothing"


def test_cheap_scenarios_pass():
    reports = run_paper_suite(only=CHEAP_IDS)
    assert [r.scenario_id for r in reports] == list(CHEAP_IDS)
    for r in reports:
        assert r.passed, (r.scenario_id, r.failures)


def test_scenario_records_are_json_safe():
    reports = run_paper_suite(only=CHEAP_IDS)
    for r in reports:
        text = json.dumps(r.to_record())
        assert json.loads(text) == r.to_record()


def test_fault_injection_fails_membership_check():
    reports = run_paper_suite(inject_fault=True, only=("agl1-5",))
    (r,) = reports
    assert not r.passed
    assert r.record["checks"]["captures_multi_fixers"] is False
    assert any(f == "all_checks" for f, _, _ in r.failures)


@pytest.mark.parametrize(
    "scenario_id", ["semilinear-3", "semilinear-5", "frobenius-complement-5-2-3"]
)
def test_fault_record_is_invariant_under_relabelling(scenario_id):
    sc = next(s for s in PAPER_SCENARIOS if s.id == scenario_id)
    group = build_family(sc.params)
    points = list(range(group.degree))
    random.Random(f"relabel:{scenario_id}").shuffle(points)
    sigma = Permutation(points)
    relabelled = PermGroup(group.degree, [g.conjugate_by(sigma) for g in group.generators])
    record = _faulted_perm_record(group, sc.extras)
    assert record["checks"]["captures_multi_fixers"] is False
    assert _faulted_perm_record(relabelled, sc.extras) == record


def test_failed_expectation_reports_field_and_values():
    sc = Scenario(
        id="probe",
        description="deliberately wrong pins",
        kind="perm",
        params=next(s for s in PAPER_SCENARIOS if s.id == "agl1-5").params,
        expected=(
            Expectation("order", 21, "wrong on purpose"),
            Expectation("no.such.field", 1),
        ),
    )
    r = run_scenario(sc)
    assert not r.passed
    fields = {f for f, _, _ in r.failures}
    assert fields == {"order", "no.such.field"}
    rec = r.to_record()
    missing = [f for f in rec["failures"] if f["field"] == "no.such.field"]
    assert missing[0]["actual"] == "<missing>"
    assert [f["expected"] for f in rec["failures"] if f["field"] == "order"] == [21]


def test_worker_pool_matches_sequential():
    seq = run_paper_suite(only=CHEAP_IDS)
    par = run_paper_suite(workers=2, only=CHEAP_IDS)
    assert [r.scenario_id for r in par] == [r.scenario_id for r in seq]
    for a, b in zip(seq, par):
        assert a.record == b.record
        assert a.failures == b.failures


def test_matrix_record_scalar_group():
    rec = matrix_record(scalar_matrix_group(field(5, 1), 2))
    assert rec["order"] == 4
    assert rec["r_order"] == 1
    assert rec["index"] == 4
    assert rec["quotient_name"] == "C4"
    assert rec["irreducible"] is False  # scalars leave every line invariant
    assert rec["index_ok"] is True
    assert rec["semiregular"] is True


@pytest.mark.parametrize("p, f, order", [(7, 1, 2016), (3, 2, 5760)])
def test_matrix_record_general_linear(p, f, order):
    """GL(2,7) and GL(2,9): every element is a product of transvections, so
    R(H) is all of H and the quotient is trivial."""
    rec = matrix_record(general_linear_gl2(field(p, f)))
    assert rec["order"] == order
    assert rec["r_order"] == order
    assert rec["index"] == 1
    assert rec["irreducible"] is True
    assert rec["quotient_name"] == "C1"


def test_corpus_shape():
    names = corpus_names()
    assert len(names) == len(set(names))
    assert 55 <= len(names) <= 70
    for name in names:
        g = corpus_group(name)
        assert g.degree <= 125, name
        assert g.is_transitive(), name
        assert g.order() <= 2_000_000, name


def test_corpus_record_fields():
    rec = corpus_record("agl1-5")
    assert rec["name"] == "agl1-5"
    assert rec["index"] == 4 and rec["frobenius"] is True
    assert rec["frobenius_coverage"] is True
    assert rec["order_crosscheck"] is True
    assert rec["rank_crosscheck"] is True
    assert rec["coset_average_one"] is True
    assert corpus_ok(rec)


def test_corpus_record_checks_the_certified_count(monkeypatch):
    """The pass over G for the rank cross-check also counts derangements,
    and a certified count that disagrees with it stops the record."""
    real = suite.analyze

    def off_by_one(group):
        report = real(group)
        return dataclasses.replace(report, derangement_count=report.derangement_count + 1)

    monkeypatch.setattr(suite, "analyze", off_by_one)
    with pytest.raises(AssertionError, match="certified count"):
        corpus_record("agl1-5")


def test_corpus_record_checks_the_stabilizer_facts(monkeypatch):
    """The same pass over G counts the elements fixing one point, and a
    stabilizer_generated check that disagrees with it stops the record."""
    real = suite.analyze

    def flipped(group):
        report = real(group)
        checks = dict(report.checks, stabilizer_generated=not report.checks["stabilizer_generated"])
        return dataclasses.replace(report, checks=checks)

    monkeypatch.setattr(suite, "analyze", flipped)
    with pytest.raises(AssertionError, match="stabilizer facts"):
        corpus_record("agl1-5")


def test_corpus_coset_averages_match_the_per_representative_loop():
    """The one pass over D gives each representative's average, as the
    per-representative loop does, and D's fixed-point tally."""
    for name in corpus_names():
        group = corpus_group(name)
        d = analyze(group).subgroup
        reps = _coset_reps(name, group)
        fixed = Counter()
        averages = coset_average_fixed_points(reps, d, fixed)
        assert averages == [_coset_average_loop(t, d) for t in reps], name
        assert fixed == Counter(count_fixed(g.images) for g in d.iter_elements()), name


def test_corpus_failures_name_a_wrong_coset_average(monkeypatch):
    real = suite.coset_average_fixed_points

    def off_by_one(reps, group, fixed=None):
        return [a + 1 for a in real(reps, group, fixed)]

    monkeypatch.setattr(suite, "coset_average_fixed_points", off_by_one)
    rec = corpus_record("agl1-5")
    assert corpus_failures(rec) == ["coset_average_one"]


def test_corpus_record_tiny_regular_group():
    # index 1 at degree 2: the divisibility regime, not the root bound
    rec = corpus_record("cyclic-2")
    assert rec["index"] == 1 and rec["primitive"] is True
    assert rec["checks"]["index_bound"] is True
    assert corpus_ok(rec)


def test_corpus_record_rejects_unknown_name():
    with pytest.raises(KeyError):
        corpus_group("no-such-group")


def test_corpus_suite_filters_and_order():
    records = run_corpus_suite(max_degree=9, max_order=100)
    assert [r["name"] for r in records] == corpus_names()
    by_name = {r["name"]: r for r in records}
    assert by_name["pgammal28"] == {"name": "pgammal28", "skipped": True}
    assert by_name["sym-7"] == {"name": "sym-7", "skipped": True}
    small = by_name["cyclic-5"]
    assert small.get("skipped") is None and corpus_ok(small)
    # deterministic: a second run emits identical records
    assert run_corpus_suite(max_degree=9, max_order=100) == records


def test_corpus_worker_pool_matches_serial():
    serial = run_corpus_suite(max_order=1000, max_degree=12)
    assert sum(1 for r in serial if r.get("skipped")) > 0
    skipped = {r["name"] for r in serial if r.get("skipped")}
    assert {"pgammal28", "sym-7"} <= skipped  # past the degree, past the order
    assert run_corpus_suite(workers=2, max_order=1000, max_degree=12) == serial


def test_unknown_scenario_id_is_refused():
    with pytest.raises(ConstraintViolated, match="agl1-55"):
        run_paper_suite(only=("agl1-55",))


def test_coset_representatives_are_deterministic_and_valid(monkeypatch):
    """corpus_record's representatives, drawn from G's chain, are the same
    on two fresh builds of the group, are _coset_reps's, and lie in G."""
    seen, real = [], suite.coset_average_fixed_points

    def recording(reps, group, fixed=None):
        seen.append(reps)
        return real(reps, group, fixed)

    monkeypatch.setattr(suite, "coset_average_fixed_points", recording)
    corpus_record("sym-4")
    corpus_record("sym-4")
    words, again = seen
    g = corpus_group("sym-4")
    assert [w.images for w in words] == [w.images for w in again]
    assert [w.images for w in words] == [w.images for w in _coset_reps("sym-4", g)]
    assert len(words) == 10
    for w in words:
        assert w in g
