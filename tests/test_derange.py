"""Derangement subgroup analysis against hand-checked small groups."""

from collections import Counter
from fractions import Fraction
import itertools
import random
from math import factorial, gcd, isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from derangements import derange, fileio, permgrp, suite
from derangements.derange import (
    AnalysisReport,
    analyze,
    bound_check,
    derangement_subgroup,
    fingerprint,
    identify_fingerprint,
    identify_quotient,
    index_consequences,
    is_frobenius,
    two_derangement_coverage,
    _faulted_analysis,
)
from derangements.errors import CapExceeded, ConstraintViolated, NotTransitive
from derangements.permgrp import (
    PermGroup,
    Permutation,
    alternating_group,
    count_fixed,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)
from derangements.families import FamilyParams, affine_group, build_family
from derangements.gf import field
from derangements.matgrp import quaternion_gl2, quotient_perm_group, special_linear_gl2
from test_matgrp import _closure_python
from test_permgrp import conjugations_formed, without_regular_normal
from test_properties import _coset_quotient, _level_data, _level_state, _probes, same_group


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


def derangement_set(group: PermGroup) -> list[Permutation]:
    """The test oracle: every fixed-point-free element, by an exhaustive
    walk of the whole group, in enumeration order."""
    return [p for p in group.iter_elements() if count_fixed(p.images) == 0]


def _in_certified_subgroup(group: PermGroup, derangements: list[Permutation]) -> bool:
    d = derangement_subgroup(group)
    return analyze(group).derangement_count == len(derangements) and all(p in d for p in derangements)


def test_derangement_set_s3():
    g = symmetric_group(3)
    ds = derangement_set(g)
    assert sorted(p.images for p in ds) == [(1, 2, 0), (2, 0, 1)]
    assert _in_certified_subgroup(g, ds)


def test_derangement_set_s4_shapes():
    g = symmetric_group(4)
    ds = derangement_set(g)
    assert len(ds) == 9
    shapes = sorted(tuple(sorted(len(c) for c in p.cycles())) for p in ds)
    assert shapes.count((2, 2)) == 3 and shapes.count((4,)) == 6
    assert _in_certified_subgroup(g, ds)


def test_derangement_set_regular():
    g = cyclic_group(5)
    assert len(derangement_set(g)) == 4
    assert _in_certified_subgroup(g, derangement_set(g))


def test_derangement_subgroup_s3():
    d = derangement_subgroup(symmetric_group(3))
    assert d.order() == 3
    assert same_group(d, alternating_group(3))


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
    assert not d.is_subgroup_of(g.stabilizer())
    assert d.is_subgroup_of(d)


def test_subgroup_checks_candidate_must_be_subgroup():
    """A group not containing D never passes as D."""
    g = agl_1_5()
    swap = PermGroup(5, [Permutation((1, 0, 2, 3, 4))])
    assert not derange._certified_scan(g).subgroup.is_subgroup_of(swap)


def test_analyze_refuses_a_provably_over_cap_stabilizer_before_d_grows(monkeypatch):
    """|G_0 : D_0| = |G : D| is at most n - 1, so |D_0| >= |G_0|/(n - 1):
    for S_30 that is 28!, past the cap before any normal closure is taken."""

    def fail(self, *args):
        raise AssertionError("D grew although its stabilizer is provably over the cap")

    monkeypatch.setattr(PermGroup, "_normal_closure_of", fail)
    with pytest.raises(CapExceeded, match="exceeds cap"):
        analyze(symmetric_group(30))


def test_giants_are_refused_before_any_chain():
    """A giant's order is known, so |G_0| = |G|/n refuses it with no chain
    built; the floor is quoted by its bit length, since 1998! has more
    digits than an int may print."""
    cap = permgrp.ENUMERATION_CAP
    for build in (symmetric_group, alternating_group):
        giant = build(200)
        with pytest.raises(CapExceeded, match=f"exceeds cap {cap}$"):
            derange._certified_scan(giant)
        assert giant._levels is None
    bits = factorial(1998).bit_length() - 1
    with pytest.raises(CapExceeded, match=rf"^point stabilizer order at least 2\^{bits} exceeds cap {cap}$"):
        derange._certified_scan(symmetric_group(2000))


def test_a_carried_d_order_is_refused_before_any_chain(monkeypatch):
    """AGL(2,49)'s generators all lie in D, so D is G and carries its order:
    |D_0| = |D|/n = |GL(2,49)| is past the cap, and the scan refuses it with
    no chain grown."""

    def fail(*args):
        raise AssertionError("a chain was grown for a carried order past the cap")

    monkeypatch.setattr(permgrp, "_grow", fail)
    group = build_family(FamilyParams("affine-gl2", (49,)))
    with pytest.raises(CapExceeded, match="^point stabilizer order 5644800 exceeds cap 2000000$"):
        analyze(group)
    assert group._levels is None


# D's growths from R, the translations or the rotations: a Frobenius
# kernel R is certified with no draw
GROWTHS_OVER_R = {
    "frobenius-complement-7-2-2": 1,
    "frobenius-complement-5-2-3": 1,
    "affine-scalars-5-2": 0,
    "affine-scalars-3-2": 0,
    "dihedral-9": 0,
}


@pytest.mark.parametrize("name", list(GROWTHS_OVER_R))
def test_d_grows_forming_each_conjugate_once(monkeypatch, name):
    """D is normal before each growth, so over all the normal closures that
    grow it, each (conjugator, generator) pair is formed at most once.
    D starts from R and grows GROWTHS_OVER_R[name] times; grown from {1},
    with no R found, it grows at least twice."""
    formed, original = conjugations_formed(monkeypatch), PermGroup._normal_closure_of

    def growths_and_pairs():
        growths, grown = [], Counter()

        def growing(self, *args):
            before = Counter(formed)
            growths.append(args)
            try:
                return original(self, *args)
            finally:
                grown.update(formed - before)

        with monkeypatch.context() as counting:
            counting.setattr(PermGroup, "_normal_closure_of", growing)
            derange._certified_scan(suite.corpus_group(name))
        return len(growths), max(grown.values(), default=1)

    assert growths_and_pairs() == (GROWTHS_OVER_R[name], 1)
    without_regular_normal(monkeypatch)
    count, most = growths_and_pairs()
    assert count >= 2 and most == 1


def _pool(monkeypatch, workload, seed):
    """The benchmark's groups of a permutation workload, relabelled for the
    seed and read back from their text, as a benchmark run analyzes them."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import pools

    texts = pools.build_texts(workload, seed, pools.load_references())
    return [fileio.load_group(text) for text in texts.values()]


def test_generators_prove_d_is_g_exactly_where_the_draws_reach_g(monkeypatch):
    """On every transitive corpus group, every permutation and bridge paper
    scenario and every perm-wide and perm-deep group at seed 1, G's
    generators prove D = G exactly when the draws, forced on, grow D to G:
    on the 36 corpus groups and the 6 perm-deep groups of index 1.  Where
    they do, D is G and no normal closure is taken."""
    corpus = [g for g in map(suite.corpus_group, suite.corpus_names()) if g.is_transitive()]
    paper = [build_family(sc.params) for sc in suite.PAPER_SCENARIOS if sc.kind in ("perm", "bridge")]
    wide, deep = _pool(monkeypatch, "perm-wide", 1), _pool(monkeypatch, "perm-deep", 1)
    groups = corpus + paper + wide + deep
    proved = [derange._generators_in_d(g) for g in groups]
    assert sum(proved[: len(corpus)]) == 36 and sum(proved[-len(deep) :]) == 6
    assert not any(proved[len(corpus) + len(paper) : -len(deep)])
    with monkeypatch.context() as draws:
        draws.setattr(derange, "_generators_in_d", lambda group: False)
        assert proved == [derangement_subgroup(g).order() == g.order() for g in groups]

    def fail(self, *args):
        raise AssertionError("D grew although G's generators prove D = G")

    monkeypatch.setattr(PermGroup, "_normal_closure_of", fail)
    assert all(derangement_subgroup(g) is g for g, p in zip(groups, proved) if p)


def test_every_element_fixing_none_or_two_points_lies_in_d():
    """What the generator certificate rests on, by brute force: in each
    transitive corpus group of order at most 2 000, the closure of the
    derangements is D and holds every element fixing no point or two or
    more."""
    checked = 0
    for name in suite.corpus_names():
        g = suite.corpus_group(name)
        if not g.is_transitive() or g.order() > 2_000:
            continue
        elements = g.elements()
        moving = [x for x in elements if not count_fixed(x.images)]
        closure = set(map(tuple, permgrp.bruteforce_closure(g.degree, moving).tolist()))
        assert len(closure) == derangement_subgroup(g).order(), name
        assert all(x.images in closure for x in elements if count_fixed(x.images) != 1), name
        checked += 1
    assert checked >= 50


def _grown_from_scratch(group):
    """group's generators, their chain grown by ``_grow`` alone from the
    empty chain, with no abelian regular normal subgroup looked for."""
    plain = PermGroup(group.degree, group.generators)
    plain._levels = []
    permgrp._grow(plain._levels, plain.generators, plain.degree)
    return plain


def _assert_as_grown_from_scratch(group, rng):
    """group's chain has the bases, basic orbits and order of the chain
    grown from scratch, and the same members among seeded probes; the
    certified scans find the same D, with the same bases and basic orbits,
    whether it starts from R or from {1}."""
    plain = _grown_from_scratch(group)
    assert _level_data(group._chain()) == _level_data(plain._chain())
    assert group.order() == plain.order()
    for x in _probes(group, rng) + _probes(plain, rng):
        assert (x in group) == (x in plain)
    d, plain_d = (derange._certified_scan(g).subgroup for g in (group, plain))
    assert same_group(d, plain_d) and same_group(plain_d, d)
    assert _level_data(d._chain()) == _level_data(plain_d._chain())


def test_chains_over_r_match_chains_grown_from_scratch(monkeypatch):
    """On every transitive corpus group, every permutation and bridge
    paper group and every perm-wide and perm-deep group at seed 1, the
    chain and D are those grown from scratch.  R is found on 51 corpus
    groups, 12 paper groups, all 7 perm-wide groups and 2 perm-deep
    groups; in each, level 0 holds R's n elements, G's generators fixing
    no point are among them, and its generators fix no point.  They are
    exactly G's generators fixing no point when these reach every point
    (over prime fields); over GF(p^f), f > 1, x + 1 or the unit
    translations reach only p^d points, and conjugates of them join."""
    rng = random.Random(43)
    corpus = [g for g in map(suite.corpus_group, suite.corpus_names()) if g.is_transitive()]
    paper = [build_family(sc.params) for sc in suite.PAPER_SCENARIOS if sc.kind in ("perm", "bridge")]
    wide, deep = _pool(monkeypatch, "perm-wide", 1), _pool(monkeypatch, "perm-deep", 1)
    for group in corpus + paper + wide + deep:
        _assert_as_grown_from_scratch(group, rng)
        if group._regular is not None:
            level, moving = group._chain()[0], [g for g in group.generators if not count_fixed(g.images)]
            assert group._regular._chain() == [level] and len(level.orbit) == group.degree
            assert all(level.transversal[a(0)] == a.images for a in moving)
            assert not any(map(count_fixed, level.gens))
            spanned = PermGroup(group.degree, moving).is_transitive()
            assert (level.gens == [a.images for a in moving]) == spanned
    found = [sum(g._regular is not None for g in groups) for groups in (corpus, paper, wide, deep)]
    assert found == [51, 12, 7, 2]


def _eager_walk(walks, degree):
    """(orbit, transversal) of a level at 0 as the levels never verified
    were listed before they became trees: for each list of labels in turn,
    each point in orbit order by each label, a new point's image tuple
    composed at once from its parent's."""
    orbit, transversal = [0], {0: tuple(range(degree))}
    for labels in walks:
        for pt in orbit:
            for g in labels:
                if g[pt] not in transversal:
                    transversal[g[pt]] = permgrp._compose(transversal[pt], g)
                    orbit.append(g[pt])
    return orbit, transversal


def _assert_reads_match(level, walks, degree, rng):
    """A tree level has the eager walk's orbit and has formed only the
    walk's tuples; every read, [] and get at points in a seeded order, in,
    and then values(), gives the walk's tuple, in its order."""
    orbit, transversal = _eager_walk(walks, degree)
    tree = level.transversal
    assert level.orbit == orbit
    assert all(transversal[pt] == u for pt, u in tree.formed.items())
    points = rng.sample(orbit, min(len(orbit), 12))
    for i, pt in enumerate(points):
        assert pt in tree and (tree[pt] if i % 2 else tree.get(pt)) == transversal[pt]
    assert degree not in tree and tree.get(degree) is None
    assert tree.values() == list(transversal.values())


def test_r_levels_read_as_the_eager_walk_lists_them(monkeypatch):
    """On every transitive corpus group with R and every perm-wide and
    perm-deep group at seed 1 that has one, R's level is a _Tree labelled
    by R's basis: its orbit is the one the basis walks, each in turn, and
    every read gives the tuple that walk composes."""
    rng = random.Random(541)
    corpus = [g for g in map(suite.corpus_group, suite.corpus_names()) if g.is_transitive()]
    groups = corpus + _pool(monkeypatch, "perm-wide", 1) + _pool(monkeypatch, "perm-deep", 1)
    with_r = [g for g in groups if g._chain() and g._regular is not None]
    assert len(with_r) == 51 + 7 + 2
    # building the chains formed under a third of R's tuples
    assert 3 * sum(len(g._chain()[0].transversal.formed) for g in with_r) < sum(g.degree for g in with_r)
    for group in with_r:
        level = group._chain()[0]
        _assert_reads_match(level, [[a] for a in level.gens], group.degree, rng)


def test_analyze_forms_few_of_r_s_tuples():
    """analyze of affine-scalars 7 3, read from its text, forms fewer than
    40 of R's 343 tuples: the reads of R's level are few, and each forms
    only the path down to it from the nearest formed point."""
    group = fileio.load_group(fileio.dump_group(build_family(FamilyParams("affine-scalars", (7, 3)))))
    analyze(group)
    level = group._chain()[0]
    assert group._regular is not None and len(level.orbit) == 343
    assert len(level.transversal.formed) < 40


@pytest.mark.parametrize("family", [FamilyParams("agl1", (256,)), FamilyParams("semilinear", (16,))])
def test_r_over_a_prime_power_field_is_found_by_closing_a_under_conjugation(monkeypatch, family):
    """Read from text, agl1 256 and semilinear 16 have one generator fixing
    no point, x + 1, which reaches only 2 points; its conjugates by the
    generators fixing a point span the translations.  R is found, level 0
    holds all n points, and the chain has the bases and basic orbits of the
    one grown from scratch.  D starts from R: in agl1 256 it is R, with no
    draw; semilinear 16 has derangements x -> x^16 + c outside R, and D,
    of order 8 704, grows over R's level."""
    text = fileio.dump_group(build_family(family))
    group = fileio.load_group(text)
    assert not PermGroup(group.degree, [g for g in group.generators if not count_fixed(g.images)]).is_transitive()
    over_r = family.name == "agl1"

    def no_draw(self, rng):
        raise AssertionError("D was drawn although it is R")

    with monkeypatch.context() as drawing:
        if over_r:
            drawing.setattr(PermGroup, "random_element", no_draw)
        d = derange._certified_scan(group).subgroup
    assert group._regular is not None and len(group._chain()[0].orbit) == group.degree
    assert d is group._regular if over_r else d._regular is group._regular and d.order() == 8704
    without_regular_normal(monkeypatch)
    plain = fileio.load_group(text)
    assert _level_data(group._chain()) == _level_data(plain._chain())
    assert plain._regular is None and group.order() == plain.order()


def _regular_representation(group):
    """group acting on its elements, numbered in its enumeration order, by
    right multiplication: a regular action."""
    elements = [x.images for x in group.elements()]
    index = {x: i for i, x in enumerate(elements)}
    images = [[index[permgrp._compose(x, g.images)] for x in elements] for g in group.generators]
    return PermGroup(len(elements), images)


def test_groups_with_no_abelian_regular_normal_r_among_their_generators_decline():
    """The detection declines, and the chain is the one grown from scratch
    down to its transversals, when the generators fixing no point do not
    commute (a nonabelian regular group), do not reach every point
    (commuting derangements on two orbits, with and without a transposition
    joining them), or are not normalized by every generator (S_n from its
    n-cycle and (0 1), the 7-cycle with a 3-cycle).  Closing them under
    conjugation does not help when a conjugate reaches a point already
    reached but lies outside their span (the 6-cycle with (1 4): A is
    transitive and abelian, yet not normal), or reaches a new point but
    fails to commute with them ((0 1 2)(3 4 5) with (1 3))."""
    cycles = Permutation.from_cycles
    declining = [
        _regular_representation(symmetric_group(3)),
        _regular_representation(dihedral_group(4)),
        PermGroup(6, [cycles(6, [(0, 1, 2), (3, 4, 5)]), cycles(6, [(0, 1, 2), (3, 5, 4)])]),
        PermGroup(6, [cycles(6, [(0, 1, 2), (3, 4, 5)]), cycles(6, [(0, 1, 2), (3, 5, 4)]), cycles(6, [(2, 3)])]),
        PermGroup(7, [cycles(7, [tuple(range(7))]), cycles(7, [(0, 1, 2)])]),
        PermGroup(6, [cycles(6, [tuple(range(6))]), cycles(6, [(1, 4)])]),
        PermGroup(6, [cycles(6, [(0, 1, 2), (3, 4, 5)]), cycles(6, [(1, 3)])]),
        *(PermGroup(n, symmetric_group(n).generators) for n in range(4, 9)),
    ]
    rng = random.Random(43)
    for group in declining:
        assert _level_state(group._chain()) == _level_state(_grown_from_scratch(group)._chain())
        assert group._regular is None, group
        if group.is_transitive():
            _assert_as_grown_from_scratch(group, rng)


@st.composite
def _relabelled_affine_groups(draw):
    """A transitive group of affine maps x -> x*M + v of GF(p)^d, d <= 2 and
    p^d <= 25, on the vectors numbered by their digits and relabelled by a
    drawn permutation: the unit translations, then one to three maps with
    M invertible (the identity for a translation) and v drawn.  Returns the
    group and whether every generator fixing no point is a translation."""
    p, d = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2)]))
    n = p**d
    vectors = [[(x // p**i) % p for i in range(d)] for x in range(n)]
    sigma = draw(st.permutations(list(range(n))))
    identity = [[int(i == j) for j in range(d)] for i in range(d)]

    def relabelled(matrix, shift):
        mapped = [[(sum(v[j] * matrix[j][i] for j in range(d)) + shift[i]) % p for i in range(d)] for v in vectors]
        images = [sum(w[i] * p**i for i in range(d)) for w in mapped]
        out = [0] * n
        for x, y in enumerate(images):
            out[sigma[x]] = sigma[y]
        return Permutation(out), matrix == identity

    entries = st.lists(st.lists(st.integers(0, p - 1), min_size=d, max_size=d), min_size=d, max_size=d)
    invertible = entries.filter(lambda m: (m[0][0] if d == 1 else m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p)
    shifts = st.lists(st.integers(0, p - 1), min_size=d, max_size=d)
    maps = [relabelled(identity, row) for row in identity]
    maps += [relabelled(m, v) for m, v in draw(st.lists(st.tuples(invertible, shifts), min_size=1, max_size=3))]
    group = PermGroup(n, [g for g, _ in maps])
    return group, all(translation for g, translation in maps if not count_fixed(g.images))


@settings(max_examples=40, deadline=None)
@given(_relabelled_affine_groups(), st.integers(0, 2**16))
def test_relabelled_affine_chains_match_chains_grown_from_scratch(drawn, seed):
    """R is found exactly when every generator fixing no point is a
    translation (a fixed-point-free x*M + v with M not 1 does not commute
    with the unit translations), and then R is the p^d translations;
    either way the chain and D are those grown from scratch."""
    group, translations = drawn
    group._chain()
    assert (group._regular is not None) == translations
    if translations:
        assert group._regular.order() == group.degree
    _assert_as_grown_from_scratch(group, random.Random(seed))


def test_perm_wide_scans_form_few_schreier_tuples(monkeypatch):
    """Image tuples formed through _getter by the certified scans of the
    perm-wide pool at seed 1, each group's chain built beforehand.  Every
    perm-wide group has an abelian regular normal R, and D starts from it,
    growing below 0 only: 189 are formed.  Grown from {1}, with no R found,
    3 459."""
    real_getter, formed = permgrp._getter, []

    def getter(a):
        get = real_getter(a)
        return lambda b: formed.append(None) or get(b)

    def tuples_formed(groups):
        del formed[:]
        with monkeypatch.context() as counting:
            counting.setattr(permgrp, "_getter", getter)
            for group in groups:
                derange._certified_scan(group)
        return len(formed)

    def formed_in_scans():
        groups = _pool(monkeypatch, "perm-wide", 1)
        for group in groups:
            group._chain()
        return tuples_formed(groups)

    assert formed_in_scans() == 189
    without_regular_normal(monkeypatch)
    assert formed_in_scans() == 3459


def test_scans_sift_each_candidate_once(monkeypatch):
    """Level-0 sifts and PermGroup constructions in the certified scans of
    the perm-wide and perm-deep pools at seed 1, each group's chain built
    beforehand.  A drawn derangement or a conjugate is sifted once, by the
    growth that decides whether it joins, and a normal closure builds one
    group however many generators join it.  A membership test before each
    growth, and a group per joined generator, made 222 sifts and 43 groups
    on perm-wide, 19 and 11 on perm-deep.  D starts from R where G's chain
    found it, every perm-wide group; grown from {1}, with no R found, the
    scans made 201 sifts and 38 groups on perm-wide."""
    real_sift, real_init, work = permgrp._sift, PermGroup.__init__, Counter()

    def sift(levels, start, *args):
        work["sifts"] += start == 0
        return real_sift(levels, start, *args)

    def init(self, *args):
        work["groups"] += 1
        real_init(self, *args)

    def scan_work(workload):
        pool = _pool(monkeypatch, workload, 1)
        for group in pool:
            group._chain()
        work.clear()
        with monkeypatch.context() as counting:
            counting.setattr(permgrp, "_sift", sift)
            counting.setattr(PermGroup, "__init__", init)
            for group in pool:
                derange._certified_scan(group)
        return dict(work)

    assert scan_work("perm-wide") == {"sifts": 139, "groups": 20}
    assert scan_work("perm-deep") == {"sifts": 17, "groups": 10}
    without_regular_normal(monkeypatch)
    assert scan_work("perm-wide") == {"sifts": 201, "groups": 38}
    assert scan_work("perm-deep") == {"sifts": 17, "groups": 10}


def test_the_chain_budget_bounds_the_quotient_index(monkeypatch):
    """A transitive group's chain has n^2 entries at its first level, so
    CHAIN_SLOTS admits no degree past isqrt(CHAIN_SLOTS), and no index
    |G : D| <= n - 1 reaches that.  With the budget lowered to 100,
    AGL(1,5) is still analyzed, and AGL(1,11) (index 10) is refused by its
    chain's CapExceeded before any block action is built."""
    monkeypatch.setattr(permgrp, "CHAIN_SLOTS", 100)
    assert analyze(agl_1_5()).quotient_name == "C4"

    def refuse(*args):
        raise AssertionError("block action built past the chain budget")

    monkeypatch.setattr(derange, "_block_action", refuse)
    group = build_family(FamilyParams("agl1", (11,)))
    assert group.is_transitive() and group.degree > isqrt(permgrp.CHAIN_SLOTS)
    with pytest.raises(CapExceeded, match="^stabilizer chain of degree 11 exceeds 100 transversal entries$"):
        analyze(group)


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


def _frobenius_by_suborbits(group):
    """The Frobenius test the scan's count replaced: not regular, and G_0
    semiregular on its orbits other than {0}, the suborbit test on the
    trivial subgroup."""
    trivial = PermGroup(group.degree, ())
    return group.order() > group.degree and derange._regular_on_suborbits(group, trivial)


def test_frobenius_from_the_scan_matches_the_suborbit_test(monkeypatch):
    """On every transitive corpus group, every permutation and bridge paper
    scenario and every perm-wide and perm-deep group at seed 1, the scan's
    count of G_0 fixing point 0 alone decides Frobenius as the suborbit
    test on the trivial subgroup did, and builds no group to do it.  Of
    those 89 groups, 25 are Frobenius: 16 corpus, 5 paper and 4 pool groups."""
    corpus = [g for g in map(suite.corpus_group, suite.corpus_names()) if g.is_transitive()]
    paper = [build_family(sc.params) for sc in suite.PAPER_SCENARIOS if sc.kind in ("perm", "bridge")]
    groups = corpus + paper + _pool(monkeypatch, "perm-wide", 1) + _pool(monkeypatch, "perm-deep", 1)
    cases = [(g, derange._certified_scan(g), _frobenius_by_suborbits(g)) for g in groups]
    assert len(cases) == 89 and sum(old for _, _, old in cases) == 25

    def no_group(self, *args):
        raise AssertionError("the Frobenius test built a group")

    monkeypatch.setattr(PermGroup, "__init__", no_group)
    assert [derange._frobenius(g, scan) for g, scan, _ in cases] == [old for _, _, old in cases]


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


def test_two_derangement_coverage_walks_the_scanned_subgroup():
    """The witnesses are the elements of the certified D missed by the
    products of two derangements, in D's enumeration order."""
    groups = [symmetric_group(2), alternating_group(5), agl_1_5(), symmetric_group(4)]
    for g in groups:
        elements = list(derangement_subgroup(g).iter_elements())
        _, witnesses = two_derangement_coverage(g)
        products = {a * b for a in derangement_set(g) for b in derangement_set(g)}
        assert witnesses == [e for e in elements if e not in products]
    with pytest.raises(NotTransitive):
        two_derangement_coverage(PermGroup(4, [Permutation((1, 0, 3, 2))]))


def test_two_derangement_coverage_check_order(monkeypatch):
    """Coverage refuses, before it lists anything, in the order: not
    transitive, no derangements, work cap on the certified count; then the
    walk of D keeps the enumeration limit."""
    intransitive = PermGroup(4, [Permutation((1, 0, 3, 2)), Permutation((1, 0, 2, 3))])
    monkeypatch.setattr(derange, "PRODUCT_WORK_CAP", 0)
    with pytest.raises(NotTransitive):
        two_derangement_coverage(PermGroup(3, [Permutation((1, 0, 2))]))
    with pytest.raises(NotTransitive):
        two_derangement_coverage(intransitive)
    with pytest.raises(ConstraintViolated, match="no derangements"):
        two_derangement_coverage(PermGroup(1, ()))
    monkeypatch.setattr(permgrp, "ENUMERATION_CAP", 59)
    with pytest.raises(CapExceeded, match=r"^24\^2 products exceed the work cap$"):
        two_derangement_coverage(alternating_group(5))
    monkeypatch.setattr(derange, "PRODUCT_WORK_CAP", 24**2)
    with pytest.raises(CapExceeded, match="group order 60 exceeds cap 59"):
        two_derangement_coverage(alternating_group(5))
    monkeypatch.setattr(permgrp, "ENUMERATION_CAP", 60)
    assert two_derangement_coverage(alternating_group(5)) == (True, [])


def test_two_derangement_coverage_refuses_s9_without_walking_it(monkeypatch):
    """S_9 has 133 496 derangements: the certified count is refused by the
    work cap, and no group as large as S_9 is enumerated on the way."""
    g = symmetric_group(9)
    g.order()
    walked = []
    original = PermGroup._enumeration_split

    def recording(self):
        walked.append(self.order())
        return original(self)

    monkeypatch.setattr(PermGroup, "_enumeration_split", recording)
    with pytest.raises(CapExceeded, match=r"^133496\^2 products exceed the work cap$"):
        two_derangement_coverage(g)
    assert walked and max(walked) < g.order()


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


def _regular_model(group):
    """The right-regular action of a matrix group on its own elements, from
    the Python closure: one FFMatrix product per element and generator."""
    elements = _closure_python(group)
    position = {m.rows: i for i, m in enumerate(elements)}
    gens = [Permutation([position[(m * g).rows] for m in elements]) for g in group.generators]
    return PermGroup(len(elements), gens)


def test_identify_named_regular_models():
    # the catalog fingerprints these groups as affine point stabilizers
    assert identify_quotient(_regular_model(quaternion_gl2(field(5, 1)))) == "Q8"
    assert identify_quotient(_regular_model(special_linear_gl2(field(3, 1)))) == "SL(2,3)"


def test_named_fingerprints_match_their_constructions():
    """The catalog's constants are the fingerprints of the groups they name;
    the linear ones are taken as the point stabilizers of their affine
    groups: h acting on vectors."""
    gf3, gf5 = field(3, 1), field(5, 1)
    built = {
        "Q8": affine_group(quaternion_gl2(gf5)).stabilizer(),
        "A4": alternating_group(4),
        "A5": alternating_group(5),
        "SL(2,3)": affine_group(special_linear_gl2(gf3)).stabilizer(),
        "SL(2,5)": affine_group(special_linear_gl2(gf5)).stabilizer(),
    }
    assert {name: fingerprint(g) for name, g in built.items()} == derange.NAMED_FINGERPRINTS


def test_dihedral_fingerprint_formula_matches_the_group():
    for m in range(3, 131):
        assert derange._dihedral_fingerprint(m) == fingerprint(dihedral_group(m)), m


def test_identification_enumerates_no_group(monkeypatch):
    a4, d194 = fingerprint(alternating_group(4)), fingerprint(dihedral_group(97))

    def fail(self):
        raise AssertionError("naming a fingerprint enumerated a group")

    monkeypatch.setattr(PermGroup, "_enumeration_split", fail)
    assert identify_fingerprint(a4) == "A4"
    assert identify_fingerprint(d194) == "D194"


def test_fingerprint_at_point_zero_matches_the_walk_on_every_quotient(monkeypatch):
    """G/D of every transitive corpus group, permutation and bridge paper
    group and perm-wide and perm-deep group at seed 1, and H/R(H) of every
    matrix pool group and matrix or bridge side of a paper scenario: each
    is regular, and its fingerprint read at point 0 is the walk's, with no
    element listed by the walk and no cycle decomposed.  Of the 106, only
    the 8 nonabelian ones get a chain, the one level listing them by their
    images of 0: H/R(H) for A4, A5, D8 and D12 of the paper, then A4, A5,
    D8 and D20 of the matrix pool."""
    paper = [(build_family(sc.params), sc) for sc in suite.PAPER_SCENARIOS]
    perm = [g for g in map(suite.corpus_group, suite.corpus_names()) if g.is_transitive()]
    perm += [g for g, sc in paper if sc.kind in ("perm", "bridge")]
    perm += _pool(monkeypatch, "perm-wide", 1) + _pool(monkeypatch, "perm-deep", 1)
    mat = [g if sc.kind == "mat" else suite._MAT_BUILDERS[sc.mat_id]() for g, sc in paper if sc.kind != "perm"]
    mat += _pool(monkeypatch, "matrix", 1)
    quotients = [derange._quotient(g, derangement_subgroup(g)) for g in perm]
    quotients += [quotient_perm_group(h) for h in mat]
    assert len(quotients) == 106 and all(q.degree == q.order() for q in quotients)

    def refuse(*args, **kwargs):
        raise AssertionError("the reading at point 0 walked or decomposed")

    monkeypatch.setattr(PermGroup, "elements", refuse)
    monkeypatch.setattr(Permutation, "cycles", refuse)
    at_zero = [fingerprint(q) for q in quotients]
    monkeypatch.undo()
    chained = [q for q in quotients if q._levels]
    assert all(len(q._levels) == 1 and q._regular is None for q in chained)
    assert at_zero == [derange._walked_fingerprint(q) for q in quotients]
    nonabelian = [fp.order for fp in at_zero if fp.center_order < fp.order]
    assert [q.order() for q in chained] == nonabelian == [12, 60, 8, 12, 12, 60, 8, 20]


def _regular_on_points(n, *images):
    """The group of the image lists, regular on n points, as the block
    action on singletons forms it: its order n carried, no chain built."""
    return permgrp._block_action([[x] for x in range(n)], images, n)


def _dihedral_regular(m):
    """D_2m acting on r^i s^j, point i + m*j, by right multiplication:
    r^i s^j r = r^(i + (-1)^j) s^j and r^i s^j s = r^i s^(j + 1)."""
    r = [(x + 1) % m if x < m else m + (x - 1) % m for x in range(2 * m)]
    s = [(x + m) % (2 * m) for x in range(2 * m)]
    return _regular_on_points(2 * m, r, s)


def _cyclic_fingerprint(n):
    """C_n has phi(d) elements of order d for each d | n."""
    phi = {d: sum(gcd(d, i) == 1 for i in range(1, d + 1)) for d in range(1, n + 1) if n % d == 0}
    return derange.GroupFingerprint(n, tuple(phi.items()), n, 1)


def _c2_c6_c60():
    """(the coordinate shifts, the fingerprint) of C2xC6xC60 on its 720
    elements, whose orders are the lcm of their coordinates' orders."""
    radix = (2, 6, 60)
    points = list(itertools.product(*map(range, radix)))
    index = {x: i for i, x in enumerate(points)}
    shifts = [[index[x[:k] + ((x[k] + 1) % r,) + x[k + 1 :]] for x in points] for k, r in enumerate(radix)]
    orders = Counter(lcm(*(r // gcd(r, c) for r, c in zip(radix, x))) for x in points)
    return shifts, derange.GroupFingerprint(720, tuple(sorted(orders.items())), 720, 1)


def test_fingerprint_of_large_regular_groups_matches_closed_forms():
    """C_n and C2xC6xC60 match their closed forms; the dihedral regular
    representations match ``_dihedral_fingerprint`` up to order 2000.  The
    walk, which takes seconds on C_3000, checks the orders up to 300."""
    for n in (1, 2, 12, 300, 1023, 2047, 4000):
        group = _regular_on_points(n, (*range(1, n), 0))
        assert fingerprint(group) == _cyclic_fingerprint(n), n
        if n <= 300:
            assert fingerprint(group) == derange._walked_fingerprint(group), n
    shifts, abelian = _c2_c6_c60()
    assert fingerprint(_regular_on_points(720, *shifts)) == abelian
    for m in (3, 4, 5, 6, 12, 97, 150, 512, 1000):
        group = _dihedral_regular(m)
        assert fingerprint(group) == derange._dihedral_fingerprint(m), m
        if m <= 150:
            assert fingerprint(group) == derange._walked_fingerprint(group), m


def test_abelian_transitive_groups_are_fingerprinted_with_no_chain(monkeypatch):
    """A transitive group whose generators commute is regular of order n,
    so no chain is built to learn its order: C_3000 from its n-cycle, C_2047
    and C_4000 read back from their text, and C2xC6xC60 from its shifts,
    none carrying its order."""
    groups = {n: fileio.load_group(fileio.dump_group(cyclic_group(n))) for n in (2047, 4000)}
    groups[3000] = cyclic_group(3000)
    shifts, abelian = _c2_c6_c60()

    def no_chain(self):
        raise AssertionError("a stabilizer chain was built")

    monkeypatch.setattr(PermGroup, "_chain", no_chain)
    for n, group in groups.items():
        assert fingerprint(group) == _cyclic_fingerprint(n), n
    assert fingerprint(PermGroup(720, shifts)) == abelian


def _regular_groups():
    """The dihedral regular representations and A5, H/R(H) of the matrix
    pool: nonabelian, regular, their order n carried, no chain built."""
    a5 = quotient_perm_group(build_family(FamilyParams("central-a5", ())))
    return [_dihedral_regular(m) for m in (3, 4, 12, 97)] + [a5]


def test_nonabelian_groups_carrying_order_n_grow_one_level_at_zero(monkeypatch):
    """A transitive group carrying its order n is regular: it has no
    abelian R (``_regular_normal`` declines), and its chain is one level
    based at 0, a _Tree walked breadth-first by the generators in their
    order, with no ``_grow``, ``_verify`` or ``_sift`` call; its reads give
    the tuples that the verification listed."""
    rng = random.Random(54)
    for group in _regular_groups():
        gens = [g.images for g in group.generators]
        assert group._levels is None and group._order == group.degree
        assert permgrp._regular_normal(group.generators, group.degree) == (None, group.generators)
        with monkeypatch.context() as building:
            for name in ("_grow", "_verify", "_sift"):
                building.setattr(permgrp, name, lambda *args: pytest.fail("a regular group's chain was grown"))
            (level,) = group._chain()
        assert group._regular is None and level.transversal.formed == {0: tuple(range(group.degree))}
        assert level.gens == gens and level.origins == [-1] * len(gens)
        _assert_reads_match(level, [gens], group.degree, rng)
    assert identify_quotient(_regular_groups()[-1]) == "A5"


def test_regular_groups_carrying_order_n_fingerprint_as_walked():
    """The fingerprint read off the tree level of a group carrying order n
    is the one walked over the elements of the same generators' group,
    which carries no order, so its chain is grown and verified."""
    for group in _regular_groups():
        plain = PermGroup(group.degree, group.generators)
        assert fingerprint(group) == derange._walked_fingerprint(plain), group.degree
        assert type(plain._levels[0].transversal) is dict


def test_groups_that_are_not_regular_keep_the_walk(monkeypatch):
    """A4 on 4 points, the dihedral groups on m points and D of pgammal28
    (PSL(2,8) on 28 points, order 504) are walked, to the same values."""
    walked = []
    walk = derange._walked_fingerprint
    monkeypatch.setattr(derange, "_walked_fingerprint", lambda group: walked.append(group.degree) or walk(group))
    assert identify_quotient(alternating_group(4)) == "A4"
    for m in (3, 4, 7, 12):
        assert fingerprint(dihedral_group(m)) == derange._dihedral_fingerprint(m)
    d = analyze(build_family(FamilyParams("pgammal28", ()))).subgroup
    psl28 = derange.GroupFingerprint(504, ((1, 1), (2, 63), (3, 56), (7, 216), (9, 168)), 1, 504)
    assert fingerprint(d) == psl28 == fingerprint(suite._pgl_2_8())
    assert walked == [4, 3, 4, 7, 12, 28, 9]


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
    """Two seeds give the same record on every (transitive) corpus group
    of order at most 20 000.  Where D = G its generators prove it and D
    carries G's generators under both seeds; where D is the abelian regular
    normal R that G's chain is built over, it is R under both, with no
    draw; elsewhere D is drawn, and the two seeds draw different
    generators for at least half of the rest."""
    groups = [suite.corpus_group(name) for name in suite.corpus_names()]
    groups = [g for g in groups if g.order() <= 20_000]
    assert len(groups) >= 50
    runs = []
    for seed in (0, 1):
        monkeypatch.setattr(derange, "DRAW_SEED", seed)
        runs.append([analyze(g) for g in groups])
    over_r, drawn, drawn_differently = 0, 0, 0
    for g, a, b in zip(groups, *runs):
        assert a.to_record() == b.to_record()
        assert same_group(a.subgroup, b.subgroup)
        if a.index == 1:
            assert a.subgroup.generators == b.subgroup.generators == g.generators
        elif a.subgroup is g._regular:
            assert b.subgroup is g._regular
            over_r += 1
        else:
            drawn += 1
            drawn_differently += a.subgroup.generators != b.subgroup.generators
    assert (over_r, drawn) == (15, 10) and 2 * drawn_differently >= drawn


def test_analyze_enumerates_only_point_stabilizers(monkeypatch):
    """No step of analyze, faulted or not, walks a group larger than D_0
    (for the count and the stabilizer facts) or G/D (for the
    fingerprint); in particular G_0 is never enumerated."""
    walked = []
    original = PermGroup._enumeration_split

    def recording(self):
        walked.append(self.order())
        return original(self)

    monkeypatch.setattr(PermGroup, "_enumeration_split", recording)
    for name in suite.corpus_names():
        g = suite.corpus_group(name)
        d = derangement_subgroup(g)
        bound = max(d.stabilizer().order(), g.order() // d.order())
        walked.clear()
        analyze(g)
        _faulted_analysis(g)
        assert walked and max(walked) <= bound, name


@pytest.mark.parametrize("name,values", [("agl1", (7,)), ("affine-scalars", (5, 3))])
def test_analyze_skips_primitivity_for_frobenius_groups(name, values):
    """A Frobenius group's regime is "frobenius" whether or not it is
    primitive, so analyze does not decide primitivity, and its report is
    the one it gives when primitivity is already known."""
    built = build_family(FamilyParams(name, values))
    group = PermGroup(built.degree, built.generators)
    report = analyze(group)
    assert report.frobenius and report.regime == "frobenius"
    assert group._primitive is None
    primed = PermGroup(built.degree, built.generators)
    primed.is_primitive()
    assert primed._primitive is not None
    assert analyze(primed) == report
    assert analyze(primed).to_record() == report.to_record()


def test_derangement_count_matches_set():
    for g in (symmetric_group(5), agl_1_5()):
        assert analyze(g).derangement_count == len(derangement_set(g))


def test_report_carries_subgroup_outside_the_record():
    g = affine_scaling_9()
    rep = analyze(g)
    assert same_group(rep.subgroup, derangement_subgroup(g))
    assert "subgroup" not in rep.to_record()
    assert "PermGroup" not in repr(rep)
    # the subgroup does not take part in comparison
    other = analyze(affine_scaling_9())
    assert other.subgroup is not rep.subgroup and other == rep
