"""Derangement subgroup analysis against hand-checked small groups."""

from fractions import Fraction

import pytest

from derangements import derange, suite
from derangements.derange import (
    AnalysisReport,
    analyze,
    bound_check,
    derangement_set,
    derangement_subgroup,
    fingerprint,
    identify_quotient,
    index_consequences,
    is_frobenius,
    two_derangement_coverage,
    _faulted_analysis,
)
from derangements.errors import CapExceeded, ConstraintViolated, IndexTooLarge, NotTransitive
from derangements.permgrp import (
    PermGroup,
    Permutation,
    alternating_group,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)
from derangements.families import FamilyParams, build_family
from test_properties import _coset_quotient, _old_derangement_generated


def agl_1_5() -> PermGroup:
    # x -> x + 1 and x -> 2x on GF(5); sharply 2-transitive, order 20
    return PermGroup(5, [Permutation((1, 2, 3, 4, 0)), Permutation((0, 2, 4, 1, 3))])


def affine_scaling_9() -> PermGroup:
    # translations of GF(3)^2 plus negation: order 18, degree 9
    # point x + 3y  <->  vector (x, y)
    shift_x = Permutation(tuple((x + 1) % 3 + 3 * y for y in range(3) for x in range(3)))
    # careful: enumerate points in index order
    pts = [(i % 3, i // 3) for i in range(9)]
    idx = {p: i for i, p in enumerate(pts)}
    tx = Permutation(tuple(idx[((x + 1) % 3, y)] for x, y in pts))
    ty = Permutation(tuple(idx[(x, (y + 1) % 3)] for x, y in pts))
    neg = Permutation(tuple(idx[((-x) % 3, (-y) % 3)] for x, y in pts))
    assert shift_x == tx
    return PermGroup(9, [tx, ty, neg])


def test_derangement_set_s3():
    ds = derangement_set(symmetric_group(3))
    assert sorted(p.images for p in ds) == [(1, 2, 0), (2, 0, 1)]


def test_derangement_set_s4_shapes():
    ds = derangement_set(symmetric_group(4))
    assert len(ds) == 9
    shapes = sorted(tuple(sorted(len(c) for c in p.cycles())) for p in ds)
    assert shapes.count((2, 2)) == 3 and shapes.count((4,)) == 6


def test_derangement_set_regular():
    assert len(derangement_set(cyclic_group(5))) == 4


def test_derangement_subgroup_s3():
    d = derangement_subgroup(symmetric_group(3))
    assert d.order() == 3
    assert d.same_group_as(alternating_group(3))


def test_derangement_subgroup_s4_full():
    g = symmetric_group(4)
    d = derangement_subgroup(g)
    assert d.order() == 24


def test_derangement_subgroup_agl15():
    g = agl_1_5()
    assert g.order() == 20
    d = derangement_subgroup(g)
    assert d.order() == 5
    assert sorted(p.order() for p in d.iter_elements()) == [1, 5, 5, 5, 5]


def test_derangement_subgroup_needs_transitive():
    fix_last = PermGroup(4, [Permutation((1, 0, 2, 3))])
    with pytest.raises(NotTransitive):
        derangement_subgroup(fix_last)


def test_subgroup_checks_agl15():
    rep = analyze(agl_1_5())
    assert rep.all_checks_pass()
    assert rep.index == 4
    assert rep.rank_g == 2 and rep.rank_n == 5
    assert (rep.rank_n - 1) == (rep.rank_g - 1) * rep.index


def test_subgroup_checks_candidate_detects_gap():
    g = agl_1_5()
    rep = _faulted_analysis(g)  # D_0 is trivial here
    assert rep.d_order == 1 and rep.index == 20
    assert not rep.checks["subgroup_transitive"]
    assert not rep.checks["captures_multi_fixers"]  # the 5-cycles are not in D_0
    # every element fixing two or more points lies in D, so a candidate
    # captures them exactly when it contains D
    d = derange._certified_scan(g).subgroup
    assert not d.is_subgroup_of(PermGroup(5, ()))
    assert not d.is_subgroup_of(g.stabilizer(0))
    assert d.is_subgroup_of(d)


def test_subgroup_checks_candidate_must_be_subgroup():
    """A group not containing D never passes as D."""
    g = agl_1_5()
    swap = PermGroup(5, [Permutation((1, 0, 2, 3, 4))])
    assert not derange._certified_scan(g).subgroup.is_subgroup_of(swap)


def test_quotient_index_cap_is_checked_before_the_block_action(monkeypatch):
    """An index above the cap raises IndexTooLarge, naming index and cap,
    before any block action is built; an index at the cap passes."""
    monkeypatch.setattr(derange, "FINGERPRINT_CAP", 4)
    assert analyze(agl_1_5()).quotient_name == "C4"
    monkeypatch.setattr(derange, "FINGERPRINT_CAP", 3)

    def refuse(*args):
        raise AssertionError("block action built past the index cap")

    monkeypatch.setattr(derange, "block_action", refuse)
    with pytest.raises(IndexTooLarge, match="^index 4 exceeds cap 3$"):
        analyze(agl_1_5())


def test_index_consequences_agl15():
    g = agl_1_5()
    rep = analyze(g)
    assert rep.index == 4
    assert rep.checks["index_divides"]  # 4 | 4
    # G_0 = {x -> ax}: the three non-identity scalings fix 0 alone
    scan = derange._certified_scan(g)
    assert scan.fix_only_zero == 3
    assert index_consequences(g, scan) is True
    assert rep.checks["stabilizer_generated"]


def test_index_consequences_index_one():
    g = symmetric_group(4)
    rep = analyze(g)
    assert rep.index == 1 and rep.checks["index_divides"] and rep.checks["stabilizer_generated"]
    # the stabilizer facts are only promised for index > 1: in G_0 = S_3
    # only the two 3-cycles fix point 0 alone
    scan = derange._certified_scan(g)
    assert scan.fix_only_zero == 2
    assert index_consequences(g, scan) is False


def test_is_frobenius():
    flag, kernel = is_frobenius(agl_1_5())
    assert flag and kernel.order() == 5
    flag, kernel = is_frobenius(symmetric_group(4))
    assert not flag and kernel is None
    # regular actions are not Frobenius: the stabilizer is trivial
    flag, kernel = is_frobenius(cyclic_group(5))
    assert not flag


def test_bound_check_regimes():
    frob = analyze(agl_1_5())
    assert frob.regime == "frobenius" and frob.checks["index_bound"]
    assert (frob.degree - 1) % frob.index == 0
    assert (frob.index + 1) ** 2 > frob.degree  # 25 > 5, only divisibility applies
    prim = analyze(symmetric_group(4))
    assert prim.regime == "primitive" and prim.index == 1 and prim.checks["index_bound"]
    assert symmetric_group(4).is_primitive()

    v9 = affine_scaling_9()
    assert v9.order() == 18
    rep = analyze(v9)
    assert rep.regime == "frobenius"
    assert rep.index == 2 and rep.degree == 9
    assert (rep.index + 1) ** 2 == rep.degree  # equality case
    assert not v9.is_primitive()

    # tiny regular groups: primitive regime only demands divisibility
    tiny = analyze(cyclic_group(2))
    assert tiny.regime == "primitive" and tiny.index == 1
    assert tiny.checks["index_bound"] and (tiny.index + 1) ** 2 > tiny.degree

    imprim = analyze(cyclic_group(4))
    assert imprim.regime == "imprimitive" and not cyclic_group(4).is_primitive()
    assert imprim.checks["index_bound"]
    assert (imprim.index + 1) ** 2 <= imprim.degree  # (1+1)^2 <= 4, just barely

    # each regime fails on its own bound
    assert bound_check(cyclic_group(4), 2, False) == ("imprimitive", False)  # 9 > 4
    assert bound_check(agl_1_5(), 3, True) == ("frobenius", False)  # 3 does not divide 4
    assert bound_check(symmetric_group(4), 2, False) == ("primitive", False)  # 2 does not divide 3


def test_two_derangement_coverage_small():
    covered, witnesses = two_derangement_coverage(symmetric_group(2))
    assert not covered
    assert [w.images for w in witnesses] == [(1, 0)]
    covered, witnesses = two_derangement_coverage(cyclic_group(3))
    assert covered and witnesses == []
    covered, _ = two_derangement_coverage(alternating_group(5))
    assert covered
    covered, _ = two_derangement_coverage(agl_1_5())
    assert covered


def test_two_derangement_coverage_grows_the_scanned_subgroup(monkeypatch):
    """Coverage builds D from its own derangement list, with no second
    certified scan, and walks the same elements as the scanned D."""
    groups = [symmetric_group(2), alternating_group(5), agl_1_5(), symmetric_group(4)]
    expected = [list(derangement_subgroup(g).iter_elements()) for g in groups]

    def no_scan(*args, **kwargs):
        raise AssertionError("coverage ran a certified scan")

    monkeypatch.setattr(derange, "_certified_scan", no_scan)
    for g, elements in zip(groups, expected):
        _, witnesses = two_derangement_coverage(g)
        products = {a * b for a in derangement_set(g) for b in derangement_set(g)}
        assert witnesses == [e for e in elements if e not in products]
    with pytest.raises(NotTransitive):
        two_derangement_coverage(PermGroup(4, [Permutation((1, 0, 3, 2))]))


def test_two_derangement_coverage_pins_the_growth_order(monkeypatch):
    """Coverage extends D by the same derangements, in the same order, as
    the exhaustive derangement loop, and its checks raise in the order
    empty list, work cap, transitivity."""
    groups = [symmetric_group(4), alternating_group(5), suite.corpus_group("affine-sl2-3")]
    for g in groups:
        g.order()
    grown = []
    original = PermGroup.extended

    def recording(self, p):
        grown.append(p)
        return original(self, p)

    monkeypatch.setattr(PermGroup, "extended", recording)
    for g in groups:
        grown.clear()
        _old_derangement_generated(g)
        scanned = list(grown)
        grown.clear()
        two_derangement_coverage(g)
        assert len(scanned) >= 2 and grown == scanned
    with pytest.raises(ConstraintViolated):
        two_derangement_coverage(PermGroup(3, [Permutation((1, 0, 2))]))
    intransitive = PermGroup(4, [Permutation((1, 0, 3, 2)), Permutation((1, 0, 2, 3))])
    with pytest.raises(CapExceeded):
        two_derangement_coverage(intransitive, work_cap=0)
    with pytest.raises(NotTransitive):
        two_derangement_coverage(intransitive)


def test_fingerprint_c6():
    fp = fingerprint(cyclic_group(6))
    assert fp.order == 6 and fp.center_order == 6 and fp.derived_order == 1


def test_identify_small_groups():
    assert identify_quotient(PermGroup(1, ())) == "C1"
    assert identify_quotient(cyclic_group(2)) == "C2"
    assert identify_quotient(cyclic_group(7)) == "C7"
    v4 = PermGroup(4, [Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))])
    assert identify_quotient(v4) == "C2xC2"
    assert identify_quotient(symmetric_group(3)) == "S3"
    assert identify_quotient(dihedral_group(4)) == "D8"
    assert identify_quotient(dihedral_group(6)) == "D12"
    assert identify_quotient(alternating_group(4)) == "A4"
    assert identify_quotient(alternating_group(5)) == "A5"
    assert identify_quotient(symmetric_group(4)) == "unrecognized"
    c3xc3 = PermGroup(6, [Permutation((1, 2, 0, 3, 4, 5)), Permutation((0, 1, 2, 4, 5, 3))])
    assert identify_quotient(c3xc3) == "unrecognized"


def test_identify_named_regular_models():
    from derangements.gf import field
    from derangements.matgrp import quaternion_gl2, regular_perm_group, special_linear_gl2

    assert identify_quotient(regular_perm_group(quaternion_gl2(field(5, 1)))) == "Q8"
    assert identify_quotient(regular_perm_group(special_linear_gl2(field(3, 1)))) == "SL(2,3)"


def test_identify_is_representation_independent():
    s4 = symmetric_group(4)
    v4 = PermGroup(4, [Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))])
    on_cosets = _coset_quotient(s4, v4)  # degree 6 model of S3
    assert on_cosets.degree == 6
    assert identify_quotient(on_cosets) == "S3"
    a4_regular = _coset_quotient(alternating_group(4), PermGroup(4, ()))
    assert a4_regular.degree == 12
    assert identify_quotient(a4_regular) == "A4"


def test_analyze_agl15_report():
    rep = analyze(agl_1_5())
    assert rep.degree == 5 and rep.order == 20
    assert rep.derangement_count == 4 and rep.d_order == 5 and rep.index == 4
    assert rep.rank_g == 2 and rep.rank_n == 5
    assert rep.frobenius
    assert rep.quotient_name == "C4"
    assert rep.all_checks_pass()
    record = rep.to_record()
    assert list(record) == [
        "degree",
        "order",
        "derangements",
        "d_order",
        "index",
        "rank_g",
        "rank_n",
        "frobenius",
        "quotient_name",
        "checks",
    ]
    assert record["checks"] == {
        "subgroup_transitive": True,
        "captures_multi_fixers": True,
        "rank_identity": True,
        "orbit_semiregular": True,
        "index_divides": True,
        "stabilizer_generated": True,
        "index_bound": True,
    }


def test_analyze_s4():
    rep = analyze(symmetric_group(4))
    assert rep.index == 1 and rep.quotient_name == "C1"
    assert not rep.frobenius
    assert rep.regime == "primitive"
    assert rep.all_checks_pass()


def test_analyze_affine_scaling_equality_case():
    rep = analyze(affine_scaling_9())
    assert rep.index == 2
    assert rep.quotient_name == "C2"
    assert rep.frobenius
    assert rep.all_checks_pass()


def test_analyze_derangement_abundance():
    for g in (symmetric_group(4), symmetric_group(5), agl_1_5(), dihedral_group(6)):
        rep = analyze(g)
        assert rep.derangement_count * rep.degree >= rep.order


def test_regular_nonabelian_socle_forces_equality():
    # the full group generated by right translations and conjugations of A5,
    # acting on the 60 group elements; the translation copy is a regular
    # nonabelian minimal normal subgroup, so the derangements generate
    # everything
    a5 = alternating_group(5)
    elems = a5.elements()
    idx = {g.images: i for i, g in enumerate(elems)}
    right = [
        Permutation(tuple(idx[(e * g).images] for e in elems)) for g in a5.generators
    ]
    conj = [
        Permutation(tuple(idx[(g.inverse() * e * g).images] for e in elems))
        for g in a5.generators
    ]
    group = PermGroup(60, right + conj)
    assert group.order() == 3600
    rep = analyze(group)
    assert rep.index == 1
    assert rep.rank_g == 5  # orbits of the diagonal = conjugacy classes of A5
    assert rep.all_checks_pass()


ALL_PASS = dict.fromkeys(derange.CHECK_KEYS, True)


def test_analyze_smallest_groups():
    """Degree 1 has no derangements and the trivial D certifies before any
    draw; C2's one derangement is the whole of D."""
    assert analyze(PermGroup(1, ())).to_record() == {
        "degree": 1, "order": 1, "derangements": 0, "d_order": 1, "index": 1,
        "rank_g": 1, "rank_n": 1, "frobenius": False, "quotient_name": "C1",
        "checks": ALL_PASS,
    }
    assert analyze(cyclic_group(2)).to_record() == {
        "degree": 2, "order": 2, "derangements": 1, "d_order": 2, "index": 1,
        "rank_g": 2, "rank_n": 2, "frobenius": False, "quotient_name": "C1",
        "checks": ALL_PASS,
    }


def test_certified_subgroup_does_not_depend_on_the_seed(monkeypatch):
    """Two seeds draw different generators for D, and give the same record
    on every (transitive) corpus group of order at most 20 000."""
    groups = [suite.corpus_group(name) for name in suite.corpus_names()]
    groups = [g for g in groups if g.order() <= 20_000]
    assert len(groups) >= 50
    runs = []
    for seed in (0, 1):
        monkeypatch.setattr(derange, "DRAW_SEED", seed)
        runs.append([analyze(g) for g in groups])
    drawn_differently = 0
    for a, b in zip(*runs):
        assert a.to_record() == b.to_record()
        assert a.subgroup.same_group_as(b.subgroup)
        drawn_differently += a.subgroup.generators != b.subgroup.generators
    assert drawn_differently >= len(groups) // 2


def test_analyze_enumerates_only_point_stabilizers(monkeypatch):
    """No step of analyze, faulted or not, walks a group larger than D_0
    (for the count and the stabilizer facts) or G/D (for the
    fingerprint); in particular G_0 is never enumerated."""
    derange._named_catalog()
    walked = []
    original = PermGroup._iter_element_tuples

    def recording(self):
        walked.append(self.order())
        return original(self)

    monkeypatch.setattr(PermGroup, "_iter_element_tuples", recording)
    for name in suite.corpus_names():
        g = suite.corpus_group(name)
        d = derangement_subgroup(g)
        bound = max(d.stabilizer(0).order(), g.order() // d.order())
        walked.clear()
        analyze(g)
        _faulted_analysis(g)
        assert walked and max(walked) <= bound, name


@pytest.mark.parametrize("name,values", [("agl1", (7,)), ("affine-scalars", (5, 3))])
def test_analyze_skips_primitivity_for_frobenius_groups(name, values):
    """A Frobenius group's regime is "frobenius" whatever its block systems,
    so analyze does not compute them, and its report is the one it gives
    when they are already known."""
    built = build_family(FamilyParams(name, values))
    group = PermGroup(built.degree, built.generators)
    report = analyze(group)
    assert report.frobenius and report.regime == "frobenius"
    assert group._block_systems is None
    primed = PermGroup(built.degree, built.generators)
    primed.is_primitive()
    assert primed._block_systems is not None
    assert analyze(primed) == report
    assert analyze(primed).to_record() == report.to_record()


def test_derangement_count_matches_set():
    for g in (symmetric_group(5), agl_1_5()):
        assert analyze(g).derangement_count == len(derangement_set(g))


def test_report_carries_subgroup_outside_the_record():
    g = affine_scaling_9()
    rep = analyze(g)
    assert rep.subgroup.same_group_as(derangement_subgroup(g))
    assert "subgroup" not in rep.to_record()
    assert "PermGroup" not in repr(rep)
    # the subgroup does not take part in comparison
    other = analyze(affine_scaling_9())
    assert other.subgroup is not rep.subgroup and other == rep
