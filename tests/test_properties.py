"""Property tests for the algebraic laws the whole pipeline leans on."""

import random
from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from math import gcd, prod
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings, strategies as st

from derangements import permgrp
from derangements.derange import (
    _certified_scan,
    _quotient,
    _regular_on_suborbits,
    analyze,
    fingerprint,
    index_consequences,
)
from derangements.families import FamilyParams, build_family
from derangements.fileio import dump_perm_group, load_perm_group
from derangements.gf import field
from derangements.permgrp import (
    PermGroup,
    Permutation,
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


def same_group(a: PermGroup, b: PermGroup) -> bool:
    """Equal degree and order, and a inside b."""
    return a.degree == b.degree and a.order() == b.order() and a.is_subgroup_of(b)


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
    """The per-representative loop the one-pass block count replaced: the
    exact average of fix(t*g) over the elements g of the group."""
    total = sum(count_fixed((t * g).images) for g in group.iter_elements())
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


def _generator_sets(max_degree=9):
    return st.integers(min_value=1, max_value=max_degree).flatmap(
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
    pairs = zip_longest((g.images for g in group.iter_elements()), _old_iter_element_tuples(group))
    return all(new == old for new, old in pairs)


def test_enumeration_order_matches_the_recursive_enumerator():
    # the degree-1 group has no chain levels, and a one-level chain is all
    # tail; S_3 wr S_3 (order 1296) is degree 9, which the random groups
    # below leave out; the corpus groups, their D and D_0 give every other
    # split
    wreath = [[(0, 1, 2)], [(0, 1)], [(0, 3, 6), (1, 4, 7), (2, 5, 8)], [(0, 3), (1, 4), (2, 5)]]
    wreath = PermGroup(9, [Permutation.from_cycles(9, cycles) for cycles in wreath])
    assert wreath.order() == 1296
    groups = [PermGroup(1, ()), cyclic_group(500), wreath, wreath.stabilizer()]
    for name in corpus_names():
        group = corpus_group(name)
        d = analyze(group).subgroup
        groups += [group, d, d.stabilizer()]
    for group in groups:
        assert _same_enumeration(group), group


# degree at most 8: on S_9 the recursive oracle alone takes most of the
# per-test time limit
@settings(max_examples=80, deadline=None)
@given(_generator_sets(max_degree=8))
def test_enumeration_order_matches_on_random_groups(data):
    gens, _ = data
    n = gens[0].degree
    group = PermGroup(n, gens)
    for g in (group, group.stabilizer()):
        assert _same_enumeration(g)


def _assert_block_tallies_match_the_loops(group, reps):
    """The numpy chunked paths against the per-element loops they replaced,
    at the default bound, one upper product per chunk, and three tails: the
    tail is C-contiguous, the blocks hold the recursive enumerator's stream
    row for row (not iter_elements', which reads the blocks), in the
    smallest dtype holding the points and at most max(BLOCK_ENTRIES, tail
    entries) entries each, the fixed-point tally is the Counter of
    count_fixed over it, and the coset averages and their ``fixed`` Counter
    are the per-representative loop's and that Counter."""
    stream = list(_old_iter_element_tuples(group))
    tail, chunks = group._enumeration_split()
    assert tail.flags.c_contiguous and tail.shape[1] == group.degree
    assert len(tail) * sum(map(len, chunks)) == len(stream)
    dtype = np.min_scalar_type(group.degree - 1)
    rows = np.array(stream, dtype=dtype)
    tally = Counter(map(count_fixed, stream))
    averages = [_coset_average_loop(t, group) for t in reps]
    for entries in (permgrp.BLOCK_ENTRIES, 1, 3 * tail.size):
        with patch.object(permgrp, "BLOCK_ENTRIES", entries):
            blocks = list(group._element_blocks())
            assert all(b.size <= max(entries, tail.size) and b.dtype == dtype for b in blocks)
            assert np.array_equal(np.concatenate(blocks), rows)
            blocked = group.fixed_point_tally()
            assert blocked == tally
            assert all(type(k) is int and type(c) is int and c for k, c in blocked.items())
            fixed = Counter()
            assert coset_average_fixed_points(reps, group, fixed) == averages
            assert fixed == tally


def test_block_tallies_match_the_loops_on_corpus_and_edge_chains():
    # the degree-1 and degree-5 trivial groups have no chain levels, a
    # one-level chain is all tail, and S_6 streams 120 upper products past a
    # tail of 6; the corpus gives every other split
    rng = random.Random(11)
    one_level, multi_level = cyclic_group(50), symmetric_group(6)
    assert sum(map(len, one_level._enumeration_split()[1])) == 1
    assert sum(map(len, multi_level._enumeration_split()[1])) == 120
    groups = [PermGroup(1, ()), PermGroup(5, ()), one_level, multi_level]
    groups += [corpus_group(name) for name in corpus_names()]
    for group in groups:
        images = list(range(group.degree))
        rng.shuffle(images)
        reps = [Permutation(images), group.identity(), *group.generators[:1]]
        _assert_block_tallies_match_the_loops(group, reps)
    # degree 9, which the random groups below leave out: the loop oracle
    # takes about a second per representative on S_9
    nine = symmetric_group(9)
    _assert_block_tallies_match_the_loops(nine, [Permutation.from_cycles(9, [(0, 4, 8)])])


# degree at most 8: on S_9 the loop oracle alone, over up to seven
# representatives and the stabilizer, can pass the per-test time limit
@settings(max_examples=80, deadline=None)
@given(_generator_sets(max_degree=8))
def test_block_tallies_match_the_loops_on_random_groups(data):
    gens, reps = data
    group = PermGroup(gens[0].degree, gens)
    for g in (group, group.stabilizer()):
        _assert_block_tallies_match_the_loops(g, reps + gens)


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
                    landed = _place(levels, i + 1, residue, degree, -1)
                    break
            if landed is not None:
                break
        i = i - 1 if landed is None else landed


def _old_chain(degree, generators):
    """The chain a group builds for its generators, by the old routines."""
    levels = []
    for g in generators:
        if not g.is_identity():
            _place(levels, 0, g.images, degree, -1)
    _old_schreier_sims(levels, len(levels) - 1, degree)
    return levels


def _extended(group, g):
    """The group generated by group's generators and g, g kept even when
    a member; its chain is a copy of group's, grown by g on all points."""
    grown = PermGroup(group.degree, group.generators + (g,))
    grown._levels = [lvl.copy() for lvl in group._chain()]
    permgrp._grow(grown._levels, (g,), group.degree)
    return grown


def _old_grown_chain(degree, generators):
    """The chain ``_extended`` grows from the trivial group, one generator
    at a time, by the old routines."""
    levels = []
    for g in generators:
        residue = _old_sift(levels, 0, g.images)
        if residue != tuple(range(degree)):
            _old_schreier_sims(levels, _place(levels, 0, residue, degree, -1), degree)
    return levels


def _old_stabilizer_chain(levels):
    """The chain of the stabilizer of point 0: the levels below the first
    when it is based at 0, else the group's own."""
    return levels[1:] if levels and levels[0].base == 0 else levels


def _level_data(levels):
    return [(lvl.base, sorted(lvl.orbit)) for lvl in levels]


def _assert_chain_matches(group, oracle, probes):
    """The group's chain has the oracle chain's bases and basic orbits level
    by level, and so its order; strong generators and transversals may
    differ.  Each probe's membership agrees with the old sift, and the sift
    finds a residue exactly when the old one is not the identity."""
    levels = group._chain()
    assert _level_data(levels) == _level_data(oracle), group
    assert group.order() == prod(len(lvl.orbit) for lvl in oracle)
    identity = tuple(range(group.degree))
    for x in probes:
        old = _old_sift(oracle, 0, x.images)
        assert (x in group) == (old == identity)
        assert (_sift(levels, 0, x.images, identity) is None) == (old == identity)


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
        grown = _extended(grown, g)
    oracle = _old_grown_chain(n, grown.generators)
    _assert_chain_matches(grown, oracle, probes + _probes(grown, rng))
    stab = grown.stabilizer()
    _assert_chain_matches(stab, _old_stabilizer_chain(oracle), probes + _probes(stab, rng))


def test_chain_matches_the_old_schreier_sims_on_corpus_and_giants():
    rng = random.Random(15)
    for n in range(1, 13):
        for group in (symmetric_group(n), alternating_group(n)):
            _assert_chain_matches(group, _old_chain(n, group.generators), _probes(group, rng))
    # from their generators, where residues land several levels down and
    # levels are inserted, so a level is verified again many times
    for n in (16, 24, 30):
        for group in (symmetric_group(n), alternating_group(n)):
            group = PermGroup(n, group.generators)
            _assert_chain_matches(group, _old_chain(n, group.generators), _probes(group, rng))
    for name in corpus_names():
        group = corpus_group(name)
        n = group.degree
        _assert_chain_matches(group, _old_chain(n, group.generators), _probes(group, rng))
        # D is grown by _normal_closure_of from the trivial group, one generator at a time
        d = analyze(group).subgroup
        oracle = _old_grown_chain(n, d.generators)
        _assert_chain_matches(d, oracle, _probes(d, rng))
        d0, d0_oracle = d.stabilizer(), _old_stabilizer_chain(oracle)
        _assert_chain_matches(d0, d0_oracle, _probes(d0, rng) + _probes(d, rng))


def _bases(group):
    return [lvl.base for lvl in group._chain()]


def _bases_increase(group):
    bases = _bases(group)
    return all(a < b for a, b in zip(bases, bases[1:]))


def test_bases_strictly_increase_on_corpus_chains():
    # every chain is grown by one routine, and a stabilizer is a chain's tail
    for name in corpus_names():
        group = corpus_group(name)
        d = analyze(group).subgroup
        for g in (group, group.stabilizer(), d, d.stabilizer()):
            assert _bases_increase(g), name



def _level_state(levels):
    """Everything a chain holds, level by level, in its order."""
    return [(lvl.base, lvl.orbit, lvl.gens, lvl.origins, list(lvl.transversal.items())) for lvl in levels]


def test_membership_and_extension_stay_exact_for_elements_agreeing_at_g_base():
    """x agrees with an element y of D (or of D_0) at G's base points and
    swaps two other points after it, so x lies outside G, yet it sifts
    through every level.  Membership and ``_extended`` stay exact: x is in
    neither, and each extends by x to the chain the old Schreier-Sims grows
    for the same generators, though D is G's R or grown over it, and R's
    level was never verified."""
    rng = random.Random(35)
    for params in (FamilyParams("agl1", (5,)), FamilyParams("affine-gl2", (3,))):
        group = build_family(params)
        n, base = group.degree, _bases(group)
        d = _certified_scan(group).subgroup
        assert group._regular is not None and group._regular in (d, d._regular)
        for sub in (d, d.stabilizer()):
            y = sub.random_element(rng)
            p, q = sorted(set(range(n)) - {y(b) for b in base})[:2]
            x = y * Permutation.from_cycles(n, [(p, q)])
            assert [x(b) for b in base] == [y(b) for b in base]
            assert x not in group and x not in sub
            grown = _extended(sub, x)
            _assert_chain_matches(grown, _old_grown_chain(n, grown.generators), [x, y] + _probes(grown, rng))
            assert grown.order() == PermGroup(n, grown.generators).order()

@settings(max_examples=80, deadline=None)
@given(_generator_sets())
def test_extended_chain_matches_scratch_and_bruteforce(data):
    gens, probes = data
    n = gens[0].degree
    grown = PermGroup(n, ())
    for g in gens:
        grown = _extended(grown, g)
    scratch = PermGroup(n, gens)
    assert grown.generators == scratch.generators
    assert grown.order() == scratch.order()
    for group in (grown, scratch, grown.stabilizer(), scratch.stabilizer()):
        assert _bases_increase(group)
    words = [gens[0] * gens[-1], gens[-1] * gens[0].inverse()]
    for x in probes + words:
        assert (x in grown) == (x in scratch)
    assert all(w in grown for w in words)
    # growing by a member lands no residue and adds no element
    levels = [lvl.copy() for lvl in grown._chain()]
    assert not permgrp._grow(levels, (words[0],), n)
    assert prod(len(lvl.orbit) for lvl in levels) == grown.order()
    if scratch.order() <= 5040:
        rows = bruteforce_closure(n, gens)
        closure = _closure_set(rows)
        assert scratch.order() == len(closure) == len(rows)
        for x in probes:
            assert (x in grown) == (x.images in closure)
            # the reference's greedy coset representative is the least
            # element of the coset
            rep = _coset_min_rep(grown, x)
            assert rep.images == min(tuple(x.images[h[i]] for i in range(n)) for h in closure)


def test_normal_closure_ignores_seeds_already_in_it():
    """On each corpus group of order at most 5 040, seeds that are already
    members when offered (the identity, repeats, and words in earlier
    seeds) leave the normal closure as the distinct non-members alone make
    it, and none of them joins its generators.  Its order is that of the
    brute-force closure of its generators, which holds the seeds and is
    normal, so it is the normal closure."""
    rng = random.Random(38)
    checked = 0
    for name in corpus_names():
        group = corpus_group(name)
        if group.order() > 5040:
            continue
        n, identity = group.degree, group.identity()
        a, b = group.random_element(rng), group.random_element(rng)
        fresh = [x for x in (a,) if not x.is_identity()]
        if b.images not in _closure_set(bruteforce_closure(n, fresh)):
            fresh.append(b)
        members = [identity, a * a, a.inverse(), a * b, b * a.inverse()]
        seeds = [identity, a, a, a * a, b, a.inverse(), b, a * b, identity, b * a.inverse()]
        mixed, alone = group.normal_closure(seeds), group.normal_closure(fresh)
        assert mixed.generators == alone.generators and mixed.order() == alone.order(), name
        rows = bruteforce_closure(n, mixed.generators)
        closure = _closure_set(rows)
        assert mixed.order() == len(rows) == len(closure), name
        assert all(x.images in closure for x in seeds), name
        assert all(k.conjugate_by(g).images in closure for g in group.generators for k in mixed.generators)
        joined = {k.images for k in mixed.generators}
        assert not any(x.images in joined for x in members if x not in fresh), name
        checked += 1
    assert checked >= 50

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
    for p in group.iter_elements():
        if count_fixed(p.images) == 0:
            count += 1
            if p not in sub:
                sub = _extended(sub, p)
    return count, sub


def _old_captures(group, candidate):
    """The per-element candidate loop that the single scan replaced."""
    return all(count_fixed(g.images) == 1 or g in candidate for g in group.iter_elements())


def _old_orbit_semiregular(group, sub):
    """The element loop that the suborbit-length test replaced: each
    element of G_0 outside N_0 = (sub)_0 has to displace every N_0-orbit
    other than {0}."""
    g0 = group.stabilizer()
    n0 = sub.stabilizer()
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


def _closure_set(closure):
    """The rows of a bruteforce_closure array, as a set of image tuples."""
    return set(map(tuple, closure.tolist()))


def _closure_order(n, elements):
    """Order of the group the elements generate, by brute-force closure;
    an element already in the closure so far is not added as a generator."""
    closure = {tuple(range(n))}
    gens = []
    for e in elements:
        if e not in closure:
            gens.append(Permutation(e))
            rows = bruteforce_closure(n, gens)
            closure = _closure_set(rows)
            assert len(closure) == len(rows)
    return len(closure)


@settings(max_examples=60, deadline=None)
@given(_transitive_generator_sets())
def test_single_scan_matches_bruteforce_and_old_loops(data):
    sigma, affine, other = data
    n = sigma.degree
    cycle = Permutation.from_cycles(n, [tuple(range(n))])
    group = PermGroup(n, [g.conjugate_by(sigma) for g in [cycle] + affine + other])
    rows = bruteforce_closure(n, group.generators)
    elements = _closure_set(rows)
    assert len(elements) == len(rows) == group.order()

    # the derangement count and D, against the closure of the derangements
    # and against the exhaustive loop the draws replaced
    derangements = [e for e in elements if count_fixed(e) == 0]
    scan = _certified_scan(group)
    count, oracle = _old_derangement_generated(group)
    assert scan.derangement_count == count == len(derangements)
    assert same_group(scan.subgroup, oracle)
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
    candidates = (group, d, d.stabilizer(), group.stabilizer(), cyclic, PermGroup(n, ()))
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
    """G/D from the block action is regular of degree |G : D|, the order it
    carries is the one a chain built from its generators finds, and it has
    the fingerprint of the coset action; returns the index."""
    d = analyze(group).subgroup
    index = group.order() // d.order()
    quotient = _quotient(group, d)
    assert quotient.degree == index
    assert quotient.order() == index == PermGroup(index, quotient.generators).order()
    assert quotient.is_transitive()
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
