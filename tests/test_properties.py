"""Property tests for the algebraic laws the whole pipeline leans on."""

import random
from fractions import Fraction
from itertools import zip_longest
from math import gcd

from hypothesis import given, settings, strategies as st

from derangements.derange import (
    _certified_scan,
    _quotient,
    _regular_on_suborbits,
    analyze,
    fingerprint,
    index_consequences,
)
from derangements.families import build_family
from derangements.fileio import dump_perm_group, load_perm_group
from derangements.gf import field
from derangements.permgrp import (
    PermGroup,
    Permutation,
    _Level,
    _compose,
    _place,
    _sift,
    alternating_group,
    bruteforce_closure,
    coset_average_fixed_points,
    count_fixed,
    cyclic_group,
    symmetric_group,
)
from derangements.suite import PAPER_SCENARIOS, corpus_group, corpus_names

FIELDS = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]


def _perm(n):
    return st.permutations(list(range(n))).map(lambda xs: Permutation(tuple(xs)))


def _three_perms():
    return st.integers(min_value=2, max_value=7).flatmap(
        lambda n: st.tuples(_perm(n), _perm(n), _perm(n))
    )


@settings(max_examples=60, deadline=None)
@given(_three_perms())
def test_permutation_algebra(abc):
    a, b, c = abc
    assert ((a * b) * c).images == (a * (b * c)).images
    assert (a * a.inverse()).is_identity()
    assert ((a * b).inverse()).images == (b.inverse() * a.inverse()).images
    # the composition convention: apply left factor first
    for x in range(a.degree):
        assert (a * b)(x) == b(a(x))


@settings(max_examples=60, deadline=None)
@given(_three_perms())
def test_conjugation_preserves_fixed_points(abc):
    a, _, h = abc
    assert count_fixed(a.conjugate_by(h).images) == count_fixed(a.images)


def _coset_average_loop(t, group):
    """The per-representative loop the one-pass pair tally replaced: the
    exact average of fix(t*g) over the elements g of the group."""
    total = sum((t * g).fixed_point_count() for g in group.iter_elements())
    return Fraction(total, group.order())


@settings(max_examples=40, deadline=None)
@given(_three_perms())
def test_average_fixed_points_over_own_coset_is_orbit_count(abc):
    a, b, c = abc
    group = PermGroup(a.degree, [a, b])
    orbit_count = len(group.orbits())
    reps = [a, b, a * b, b * a, a * a * b]
    # c usually lies outside the group, where the average need not be the
    # orbit count; the loop is the oracle there
    averages = coset_average_fixed_points(reps + [c], group)
    assert averages[:-1] == [orbit_count] * len(reps)
    assert averages == [_coset_average_loop(t, group) for t in reps + [c]]


@settings(max_examples=40, deadline=None)
@given(_three_perms())
def test_perm_file_round_trip(abc):
    a, b, _ = abc
    group = PermGroup(a.degree, [a, b])
    back = load_perm_group(dump_perm_group(group))
    assert back.degree == group.degree
    assert [g.images for g in back.generators] == [g.images for g in group.generators]
    assert back.order() == group.order()


def _generator(n):
    # a full random permutation, or a short cycle on random points, so that
    # small groups with bases far from 0, 1, 2, ... come up often
    cycle = st.lists(
        st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=4, unique=True
    ).map(lambda pts: Permutation.from_cycles(n, [pts]))
    return st.one_of(_perm(n), cycle) if n > 1 else _perm(n)


def _generator_sets():
    return st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(
            st.lists(_generator(n), min_size=1, max_size=4),
            st.lists(_perm(n), min_size=3, max_size=3),
        )
    )


def _map_compose(a, b):
    """'apply a, then b' through map, so that the oracles below do not share
    the product they check."""
    return tuple(map(b.__getitem__, a))


def _map_invert(a):
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def _old_iter_element_tuples(group):
    """The recursive enumerator the split-chain one replaced: at each level,
    in sorted orbit order, the transversal element composed onto the
    product of the levels above it."""
    levels = group._chain()
    sorted_orbits = [sorted(lvl.orbit) for lvl in levels]

    def rec(i, prefix):
        if i == len(levels):
            yield prefix
            return
        transversal = levels[i].transversal
        for pt in sorted_orbits[i]:
            yield from rec(i + 1, _map_compose(transversal[pt], prefix))

    yield from rec(0, tuple(range(group.degree)))


def _same_enumeration(group):
    pairs = zip_longest(group._iter_element_tuples(), _old_iter_element_tuples(group))
    return all(new == old for new, old in pairs)


def test_enumeration_order_matches_the_recursive_enumerator():
    # the degree-1 group has no chain levels, and a one-level chain is all
    # tail; the corpus groups, their D and D_0 give every other split
    groups = [PermGroup(1, ()), cyclic_group(500)]
    for name in corpus_names():
        group = corpus_group(name)
        d = analyze(group).subgroup
        groups += [group, d, d.stabilizer(0)]
    for group in groups:
        assert _same_enumeration(group), group


@settings(max_examples=80, deadline=None)
@given(_generator_sets())
def test_enumeration_order_matches_on_random_groups(data):
    gens, _ = data
    n = gens[0].degree
    group = PermGroup(n, gens)
    # a stabilizer of the last point has a chain pinned away from point 0
    for g in (group, group.stabilizer(n - 1)):
        assert _same_enumeration(g)


def _old_recompute_orbit(levels, i, degree):
    lvl = levels[i]
    gens = [g for l in levels[i:] for g in l.gens]
    lvl.transversal = {lvl.base: tuple(range(degree))}
    lvl.orbit = [lvl.base]
    for pt in lvl.orbit:
        for g in gens:
            if g[pt] not in lvl.transversal:
                lvl.transversal[g[pt]] = _map_compose(lvl.transversal[pt], g)
                lvl.orbit.append(g[pt])


def _old_sift(levels, start, images):
    """The sift the carried-product one replaced: the residue is multiplied
    by an inverted transversal element at every level it moves."""
    for lvl in levels[start:]:
        pt = images[lvl.base]
        if pt == lvl.base:
            continue
        u = lvl.transversal.get(pt)
        if u is None:
            return images
        images = _map_compose(images, _map_invert(u))
    return images


def _old_schreier_sims(levels, dirty, degree):
    """Schreier-Sims as before the carried-product sift: each nontrivial
    Schreier generator u*g*t^-1 is formed, then sifted."""
    i = dirty
    while i >= 0:
        _old_recompute_orbit(levels, i, degree)
        transversal = levels[i].transversal
        gens_here = [g for l in levels[i:] for g in l.gens]
        landed = None
        for pt in levels[i].orbit:
            for g in gens_here:
                ug = _map_compose(transversal[pt], g)
                target = transversal[g[pt]]
                if ug == target:
                    continue
                residue = _old_sift(levels, i + 1, _map_compose(ug, _map_invert(target)))
                if residue != tuple(range(degree)):
                    landed = _place(levels, i + 1, residue, degree)
                    break
            if landed is not None:
                break
        i = i - 1 if landed is None else landed


def _old_chain(degree, generators, pinned=None):
    """The chain a group builds for its generators, by the old routines."""
    levels = [] if pinned is None else [_Level(pinned, degree)]
    for g in generators:
        if g.is_identity():
            continue
        if pinned is not None and g.images[pinned] != pinned:
            levels[0].gens.append(g.images)
        else:
            _place(levels, 0 if pinned is None else 1, g.images, degree)
    _old_schreier_sims(levels, len(levels) - 1, degree)
    return levels


def _old_grown_chain(degree, generators):
    """The chain ``extended`` grows from the trivial group, one generator
    at a time, by the old routines."""
    levels = []
    for g in generators:
        residue = _old_sift(levels, 0, g.images)
        if residue != tuple(range(degree)):
            _old_schreier_sims(levels, _place(levels, 0, residue, degree), degree)
    return levels


def _old_stabilizer_chain(levels, degree, generators, point):
    if levels and levels[0].base == point:
        return levels[1:]
    return _old_chain(degree, generators, point)[1:]


def _level_data(levels):
    return [(lvl.base, lvl.gens, lvl.orbit, lvl.transversal) for lvl in levels]


def _assert_chain_matches(group, oracle, probes):
    """The group's chain equals the oracle chain level by level, and each
    probe's membership and sifted residue agree with the old sift."""
    levels = group._chain()
    assert _level_data(levels) == _level_data(oracle), group
    identity = tuple(range(group.degree))
    for x in probes:
        old = _old_sift(oracle, 0, x.images)
        assert (x in group) == (old == identity)
        assert _sift(levels, 0, x.images, identity) == (None if old == identity else old)


def _probes(group, rng, count=4):
    """Members drawn from the chain, and random elements of S_n, which
    mostly leave some level's orbit while being sifted."""
    n = group.degree
    members = [group.random_element(rng) for _ in range(count)]
    return members + [Permutation(rng.sample(range(n), n)) for _ in range(count)]


@settings(max_examples=80, deadline=None)
@given(_generator_sets())
def test_chain_matches_the_old_schreier_sims(data):
    gens, probes = data
    n = gens[0].degree
    rng = random.Random(n)
    group = PermGroup(n, gens)
    _assert_chain_matches(group, _old_chain(n, group.generators), probes + _probes(group, rng))
    grown = PermGroup(n, ())
    for g in gens:
        grown = grown.extended(g)
    oracle = _old_grown_chain(n, grown.generators)
    _assert_chain_matches(grown, oracle, probes + _probes(grown, rng))
    for point in (0, n - 1):
        stab = grown.stabilizer(point)
        stab_oracle = _old_stabilizer_chain(oracle, n, grown.generators, point)
        _assert_chain_matches(stab, stab_oracle, probes + _probes(stab, rng))


def test_chain_matches_the_old_schreier_sims_on_corpus_and_giants():
    rng = random.Random(15)
    for n in range(1, 13):
        for group in (symmetric_group(n), alternating_group(n)):
            _assert_chain_matches(group, _old_chain(n, group.generators), _probes(group, rng))
    for name in corpus_names():
        group = corpus_group(name)
        n = group.degree
        _assert_chain_matches(group, _old_chain(n, group.generators), _probes(group, rng))
        # D is grown by extended from the trivial group, one generator at a time
        d = analyze(group).subgroup
        oracle = _old_grown_chain(n, d.generators)
        _assert_chain_matches(d, oracle, _probes(d, rng))
        d0, d0_oracle = d.stabilizer(0), _old_stabilizer_chain(oracle, n, d.generators, 0)
        _assert_chain_matches(d0, d0_oracle, _probes(d0, rng) + _probes(d, rng))


def _bases(group):
    return [lvl.base for lvl in group._chain()]


@settings(max_examples=80, deadline=None)
@given(_generator_sets())
def test_extended_chain_matches_scratch_and_bruteforce(data):
    gens, probes = data
    n = gens[0].degree
    grown = PermGroup(n, ())
    for g in gens:
        grown = grown.extended(g)
    scratch = PermGroup(n, gens)
    assert grown.generators == scratch.generators
    assert grown.order() == scratch.order()
    for group in (grown, scratch):
        bases = _bases(group)
        assert all(a < b for a, b in zip(bases, bases[1:]))
    words = [gens[0] * gens[-1], gens[-1] * gens[0].inverse()]
    for x in probes + words:
        assert (x in grown) == (x in scratch)
    assert all(w in grown for w in words)
    # extending by a member adds a generator but not an element
    assert grown.extended(words[0]).order() == grown.order()
    if scratch.order() <= 5040:
        closure = bruteforce_closure(n, gens)
        assert scratch.order() == len(closure)
        for x in probes:
            assert (x in grown) == (x.images in closure)
            # the reference's greedy coset representative is the least
            # element of the coset
            rep = _coset_min_rep(grown, x)
            assert rep.images == min(tuple(x.images[h[i]] for i in range(n)) for h in closure)


def _affine(n):
    # x -> a*x + b on Z_n; with the n-cycle these give affine groups, where
    # the derangements generate a subgroup of index above 1
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    return st.tuples(st.sampled_from(units), st.integers(0, n - 1)).map(
        lambda ab: Permutation(tuple((ab[0] * x + ab[1]) % n for x in range(n)))
    )


def _transitive_generator_sets():
    # the n-cycle keeps the group transitive; up to three more generators
    # take it anywhere from a cyclic group to S_n, and all are relabelled by
    # a random permutation
    return st.integers(min_value=2, max_value=7).flatmap(
        lambda n: st.tuples(
            _perm(n),
            st.lists(_affine(n), max_size=2),
            st.lists(_generator(n), max_size=1),
        )
    )


def _old_derangement_generated(group):
    """The exhaustive derangement loop that the certified draws replaced:
    (count, D), with D extended by each derangement not yet in it, in
    enumeration order."""
    sub = PermGroup(group.degree, ())
    count = 0
    for raw in group._iter_element_tuples():
        if count_fixed(raw) == 0:
            count += 1
            p = Permutation._raw(raw)
            if p not in sub:
                sub = sub.extended(p)
    return count, sub


def _old_captures(group, candidate):
    """The per-element candidate loop that the single scan replaced."""
    return all(
        count_fixed(raw) == 1 or Permutation._raw(raw) in candidate
        for raw in group._iter_element_tuples()
    )


def _old_orbit_semiregular(group, sub):
    """The element loop that the suborbit-length test replaced: each
    element of G_0 outside N_0 = (sub)_0 has to displace every N_0-orbit
    other than {0}."""
    g0 = group.stabilizer(0)
    n0 = sub.stabilizer(0)
    # label each point with the least point of its N_0-orbit; orbits()
    # lists the orbits sorted, in order of their least points
    labels = [0] * group.degree
    for orbit in n0.orbits():
        for x in orbit:
            labels[x] = orbit[0]
    targets = [orbit[0] for orbit in n0.orbits()[1:]]
    for g in g0.iter_elements():
        if g in n0:
            continue
        im = g.images
        for x in targets:
            if labels[im[x]] == labels[x]:
                return False
    return True


def _closure_order(n, elements):
    """Order of the group the elements generate, by brute-force closure;
    an element already in the closure so far is not added as a generator."""
    closure = {tuple(range(n))}
    gens = []
    for e in elements:
        if e not in closure:
            gens.append(Permutation(e))
            closure = bruteforce_closure(n, gens)
    return len(closure)


@settings(max_examples=60, deadline=None)
@given(_transitive_generator_sets())
def test_single_scan_matches_bruteforce_and_old_loops(data):
    sigma, affine, other = data
    n = sigma.degree
    cycle = Permutation.from_cycles(n, [tuple(range(n))])
    group = PermGroup(n, [g.conjugate_by(sigma) for g in [cycle] + affine + other])
    elements = bruteforce_closure(n, group.generators)
    assert len(elements) == group.order()

    # the derangement count and D, against the closure of the derangements
    # and against the exhaustive loop the draws replaced
    derangements = [e for e in elements if count_fixed(e) == 0]
    scan = _certified_scan(group)
    count, oracle = _old_derangement_generated(group)
    assert scan.derangement_count == count == len(derangements)
    assert scan.subgroup.same_group_as(oracle)
    assert scan.subgroup.order() == _closure_order(n, derangements)
    assert all(Permutation(e) in scan.subgroup for e in derangements)

    # the point-0 stabilizer facts, by brute force: the elements fixing 0
    # and nothing else are at least half of G_0, and they generate G_0
    g0_order = sum(1 for e in elements if e[0] == 0)
    only_zero = [e for e in elements if e[0] == 0 and count_fixed(e) == 1]
    half = 2 * len(only_zero) >= g0_order
    whole = _closure_order(n, only_zero) == g0_order
    assert not half or whole
    assert scan.fix_only_zero == len(only_zero)
    assert index_consequences(group, scan) == (half and whole)

    d = scan.subgroup
    cyclic = PermGroup(n, [group.generators[0]])
    candidates = (group, d, d.stabilizer(0), group.stabilizer(0), cyclic, PermGroup(n, ()))
    for candidate in candidates:
        assert d.is_subgroup_of(candidate) == _old_captures(group, candidate)

    # the suborbit-length test against both element loops it replaced, on
    # the transitive normal closures of the drawn generators
    closures = [group.normal_closure([g]) for g in group.generators]
    for sub in closures:
        if sub.is_transitive():
            new = _regular_on_suborbits(group, sub)
            assert new == _old_captures(group, sub) == _old_orbit_semiregular(group, sub)

    # Frobenius: not regular, and no non-identity element fixes two points
    frobenius = len(elements) > n and all(
        count_fixed(e) <= 1 for e in elements if e != tuple(range(n))
    )
    assert analyze(group).frobenius == frobenius


def _coset_min_rep(group, g):
    """Lexicographically least element of the right coset group*g: at each
    chain level the undecided image positions start at the base point, and
    the candidates for it are the images of the level orbit, so the least
    one is picked and the descent goes on.  Correct because bases
    increase."""
    w = g.images
    for lvl in group._chain():
        best = min(lvl.orbit, key=w.__getitem__)
        if best != lvl.base:
            w = _compose(lvl.transversal[best], w)
    return Permutation._raw(w)


def _coset_quotient(group, normal):
    """The reference for the block-action quotients: G/N acting on the
    right cosets of the normal subgroup N, each named by its least element,
    in the order a breadth-first walk from N discovers them."""
    index = group.order() // normal.order()
    reps = [_coset_min_rep(normal, group.identity())]
    lookup = {reps[0].images: 0}
    for rep in reps:
        for g in group.generators:
            nxt = _coset_min_rep(normal, rep * g)
            if nxt.images not in lookup:
                lookup[nxt.images] = len(reps)
                reps.append(nxt)
    gens = [
        Permutation([lookup[_coset_min_rep(normal, rep * g).images] for rep in reps])
        for g in group.generators
    ]
    image = PermGroup(len(reps), gens)
    assert len(reps) == index and image.order() == index
    return image


def _assert_quotient_matches_cosets(group):
    """G/D from the block action is regular of degree |G : D| and has the
    fingerprint of the coset action; returns the index."""
    d = analyze(group).subgroup
    index = group.order() // d.order()
    quotient = _quotient(group, d)
    assert quotient.degree == index
    assert quotient.is_transitive() and quotient.order() == index
    assert fingerprint(quotient) == fingerprint(_coset_quotient(group, d))
    return index


def test_quotient_matches_the_coset_action_on_corpus_and_paper():
    perm_scenarios = [sc for sc in PAPER_SCENARIOS if sc.kind in ("perm", "bridge")]
    groups = [corpus_group(name) for name in corpus_names()]
    groups += [build_family(sc.params) for sc in perm_scenarios]
    indices = [_assert_quotient_matches_cosets(group) for group in groups]
    assert len(indices) == len(corpus_names()) + len(perm_scenarios)
    assert 1 in indices and max(indices) >= 12


@settings(max_examples=60, deadline=None)
@given(_transitive_generator_sets())
def test_quotient_matches_the_coset_action_on_random_groups(data):
    sigma, affine, other = data
    n = sigma.degree
    cycle = Permutation.from_cycles(n, [tuple(range(n))])
    _assert_quotient_matches_cosets(
        PermGroup(n, [g.conjugate_by(sigma) for g in [cycle] + affine + other])
    )


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.data(),
)
def test_field_laws(pf, data):
    spec = field(*pf)
    n = spec.order
    a = data.draw(st.integers(min_value=0, max_value=n - 1))
    b = data.draw(st.integers(min_value=0, max_value=n - 1))
    c = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert spec.add_e(spec.add_e(a, b), c) == spec.add_e(a, spec.add_e(b, c))
    assert spec.mul_e(spec.mul_e(a, b), c) == spec.mul_e(a, spec.mul_e(b, c))
    assert spec.add_e(a, b) == spec.add_e(b, a)
    assert spec.mul_e(a, b) == spec.mul_e(b, a)
    assert spec.mul_e(a, spec.add_e(b, c)) == spec.add_e(
        spec.mul_e(a, b), spec.mul_e(a, c)
    )
    assert spec.add_e(a, spec.neg_e(a)) == 0
    if a != 0:
        assert spec.mul_e(a, spec.inv_e(a)) == 1
    # the p-power map is additive in characteristic p
    p = spec.p
    assert spec.pow_e(spec.add_e(a, b), p) == spec.add_e(
        spec.pow_e(a, p), spec.pow_e(b, p)
    )
