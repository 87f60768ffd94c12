"""Stabilizer-chain correctness against brute-force closures, block
actions, and three searches kept as references: the every-seed block-system
scan for primitivity, the coset quotient, and the closure as a walk over
image tuples, which the numpy closure replaced."""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings

from derangements import permgrp
from derangements.derange import analyze
from derangements.errors import (
    CapExceeded,
    ConstraintViolated,
    DegreeMismatch,
    NotNormal,
    NotSubgroup,
    NotTransitive,
)
from derangements.families import FamilyParams, build_family
from derangements.permgrp import (
    PermGroup,
    Permutation,
    _block_action,
    _products,
    alternating_group,
    bruteforce_closure,
    coset_average_fixed_points,
    count_fixed,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)
from derangements.suite import corpus_group, corpus_names
from test_properties import (
    _closure_set,
    _coset_average_loop,
    _coset_min_rep,
    _coset_quotient,
    _transitive_generator_sets,
)


def test_permutation_basics():
    g = Permutation.from_cycles(5, [(0, 1, 2), (3, 4)])
    assert g(0) == 1 and g(2) == 0 and g(3) == 4
    assert g.order() == 6
    assert (g * g.inverse()).is_identity()
    assert g ** 6 == Permutation.identity(5)
    assert g ** -1 == g.inverse()
    assert g.cycles() == [(0, 1, 2), (3, 4)]
    assert repr(g) == "(0 1 2)(3 4)"


def test_permutation_composition_is_left_to_right():
    a = Permutation.from_cycles(3, [(0, 1)])
    b = Permutation.from_cycles(3, [(1, 2)])
    # apply a first: 0 -> 1 -> 2
    assert (a * b)(0) == 2
    assert (b * a)(0) == 1
    # degrees 1 and 2: a product of one-point tuples is still a tuple
    assert (Permutation.identity(1) * Permutation.identity(1)).images == (0,)
    assert (Permutation((1, 0)) ** 3).images == (1, 0)


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(DegreeMismatch):
        Permutation([1, 0]) * Permutation([0, 1, 2])


def test_group_refuses_a_generator_of_another_degree():
    with pytest.raises(DegreeMismatch, match="generator degree 2 in group of degree 3"):
        PermGroup(3, [Permutation([1, 0])])


def test_permutation_refuses_non_integer_images():
    """Images that are not integers raise ValueError at construction, even
    when they sort equal to 0..n-1: [1.0, 0.0, 2.0] built, and its first
    product raised a bare TypeError.  So do cycle points, which raised a
    bare TypeError.  numpy integers are taken and stored as int."""
    for images in ([1.0, 0.0, 2.0], ["1", "0"], [0.5, 0]):
        with pytest.raises(ValueError, match="entries must be integers"):
            Permutation(images)
    with pytest.raises(ValueError, match="entries must be integers"):
        Permutation.from_cycles(3, [(0.0, 1.0)])
    assert Permutation.from_cycles(3, [np.array([0, 2])]).images == (2, 1, 0)
    with pytest.raises(ValueError):
        PermGroup(3, [[1.0, 0.0, 2.0]])
    g = Permutation(np.array([1, 0, 2], dtype=np.int64))
    assert g.images == (1, 0, 2) and all(type(x) is int for x in g.images)
    assert PermGroup(3, [np.array([1, 2, 0], dtype=np.uint8)]).order() == 3


@pytest.mark.parametrize("cycles", [[(1, -2)], [(0, 0)], [(0, 5)]], ids=str)
def test_from_cycles_rejects_bad_points(cycles):
    """A point outside 0..n-1, or one repeated, raises the ValueError that
    Permutation raises: (1 -2) and (0 0) returned the identity, and (0 5)
    raised a bare IndexError.  A point repeated across cycles is refused
    too, and a valid cycle set still builds."""
    with pytest.raises(ValueError, match="not disjoint cycles of 0..2"):
        Permutation.from_cycles(3, cycles)
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, [(0, 1), (1, 2)])
    assert Permutation.from_cycles(5, iter([[3, 4], (0, 2, 1)])).images == (2, 0, 1, 4, 3)


def test_conjugate_by():
    g = Permutation.from_cycles(4, [(0, 1)])
    h = Permutation.from_cycles(4, [(0, 2)])
    # relabelling through h sends the cycle (0 1) to (2 1)
    assert g.conjugate_by(h) == Permutation.from_cycles(4, [(1, 2)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_symmetric_group_order_and_membership(n):
    g = symmetric_group(n)
    assert g.order() == [1, 1, 2, 6, 24, 120, 720][n]
    for images in permutations(range(min(n, 4))):
        full = Permutation(tuple(images) + tuple(range(min(n, 4), n)))
        assert full in g


def test_membership_in_cyclic_group_of_degree_two():
    c2 = cyclic_group(2)
    assert Permutation((1, 0)) in c2 and Permutation((0, 1)) in c2
    assert Permutation((1, 0)) not in PermGroup(2, ())
    with pytest.raises(DegreeMismatch):
        Permutation((0, 1, 2)) in c2


@pytest.mark.parametrize("n,order", [(3, 3), (4, 12), (5, 60), (6, 360), (7, 2520)])
def test_alternating_group_orders(n, order):
    assert alternating_group(n).order() == order


def test_chain_order_matches_bruteforce_on_random_subgroups():
    rng = random.Random(20260814)
    for _ in range(25):
        n = rng.randrange(3, 7)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(Permutation(images))
        group = PermGroup(n, gens)
        rows = bruteforce_closure(n, gens)
        closure = _closure_set(rows)
        assert group.order() == len(closure) == len(rows)
        assert {p.images for p in group.iter_elements()} == closure
        outside = [
            Permutation(imgs) for imgs in permutations(range(n)) if imgs not in closure
        ]
        for other in outside[:5]:
            assert other not in group


def without_regular_normal(monkeypatch):
    """Chains built from now on are grown by ``_grow`` alone from the empty
    chain, as before an abelian regular normal subgroup was looked for."""
    monkeypatch.setattr(permgrp, "_regular_normal", lambda generators, degree: (None, generators))


def _schreier_generators_formed(monkeypatch, make):
    """How many Schreier generators u*s the chains built by make() and by
    its group's first structural query (a carried order builds none) form:
    Schreier-Sims forms each as _getter(u)(s).  Each one is checked to be
    no tree edge: the image of u's point under s already has a transversal
    element on the level whose transversal holds u.  A _getter(u) whose u
    is no level's transversal element forms no Schreier generator (the
    conjugates of ``_regular_normal``) and is not counted."""
    chains, formed = [], []
    real_grow, real_getter = permgrp._grow, permgrp._getter

    def grow(levels, generators, degree, top=0):
        chains.append(levels)
        return real_grow(levels, generators, degree, top)

    def getter(u):
        get = real_getter(u)

        def form(s):
            lvl = next((l for c in chains for l in c if l.transversal.get(u[l.base]) is u), None)
            if lvl is None:
                return get(s)
            assert s[u[lvl.base]] in lvl.transversal, "a tree edge was formed"
            formed.append(s)
            return get(s)

        return form

    with monkeypatch.context() as counting:
        counting.setattr(permgrp, "_grow", grow)
        counting.setattr(permgrp, "_getter", getter)
        group = make()
        group.stabilizer()  # a first structural query builds the chain
    return len(formed), group


def test_schreier_sims_forms_each_schreier_generator_once(monkeypatch):
    # a verification of a level forms each pair of its orbit and Schreier
    # set that is no tree edge once, and a level is verified again after a
    # residue it placed lands deeper; the parent of the rewrite, forming
    # every pair at every restart, formed 18 636 for A_30 and 1 378 for
    # affine-scalars 7 3
    # A_30 from its generators, as alternating_group(30) knows its order
    # without a chain; neither generator fixes no point
    a30_gens = alternating_group(30).generators
    formed, a30 = _schreier_generators_formed(monkeypatch, lambda: PermGroup(30, a30_gens))
    assert formed == 2206 and a30.order() == factorial(30) // 2
    # over its translations, affine-scalars 7 3 forms only G_0's pairs, and
    # an n-cycle, its own R, forms none
    family = FamilyParams("affine-scalars", (7, 3))
    formed, affine = _schreier_generators_formed(monkeypatch, lambda: build_family(family))
    assert formed == 1 and affine.order() == 343 * 6
    for n in (2, 7, 50):
        assert _schreier_generators_formed(monkeypatch, lambda: cyclic_group(n))[0] == 0
    # grown by _grow alone: at most 1 031, and an n-cycle's one orbit has
    # n - 1 tree edges and one pair closing it
    without_regular_normal(monkeypatch)
    formed, affine = _schreier_generators_formed(monkeypatch, lambda: build_family(family))
    assert formed <= 1031 and affine.order() == 343 * 6
    for n in (2, 7, 50):
        assert _schreier_generators_formed(monkeypatch, lambda: cyclic_group(n))[0] == 1


@pytest.mark.parametrize("query", ["analyze", "stabilizer", "in"])
def test_a_wrong_carried_order_raises_when_the_chain_is_built(query):
    """order() returns a carried order with no chain built; the chain,
    built by any structural query, must agree with it."""
    group = PermGroup(3, symmetric_group(3).generators, order=5)
    assert group.order() == 5 and group._levels is None
    run = {"analyze": analyze, "stabilizer": PermGroup.stabilizer, "in": lambda g: g.identity() in g}[query]
    with pytest.raises(ConstraintViolated, match="the chain has order 6, the group carries 5"):
        run(group)
    assert group._levels is None
    right = PermGroup(3, symmetric_group(3).generators, order=6)
    assert right.stabilizer().order() == 2 and right.order() == 6


def test_bruteforce_closure_cap_is_the_closure_size():
    gens = symmetric_group(4).generators
    assert len(bruteforce_closure(4, gens, cap=24)) == 24
    with pytest.raises(CapExceeded):
        bruteforce_closure(4, gens, cap=23)
    assert _closure_set(bruteforce_closure(1, [Permutation.identity(1)])) == {(0,)}


def _bruteforce_closure_tuples(degree, generators, cap=100_000):
    """The closure as a breadth-first walk over image tuples, one product
    and one hash at a time: the reference for the numpy rounds.  A dict
    keyed by the elements keeps the order they were found in."""
    elems = dict.fromkeys([tuple(range(degree))])
    frontier = [tuple(range(degree))]
    gens = [g.images for g in generators]
    while frontier:
        nxt = []
        for prod in _products(frontier, gens):
            if prod not in elems:
                if len(elems) >= cap:
                    raise CapExceeded(f"closure exceeded {cap} elements")
                elems[prod] = None
                nxt.append(prod)
        frontier = nxt
    return elems


def _assert_closure_matches_tuples(degree, gens, dtype):
    """Same rows in the same breadth-first order, none repeated, in the
    narrowest unsigned dtype that holds degree - 1; the cap is exactly the
    order."""
    rows = bruteforce_closure(degree, gens)
    oracle = _bruteforce_closure_tuples(degree, gens)
    assert rows.dtype == dtype and rows.shape == (len(oracle), degree)
    assert _closure_set(rows) == set(oracle)
    assert list(map(tuple, rows.tolist())) == list(oracle)
    assert len(bruteforce_closure(degree, gens, cap=len(oracle))) == len(oracle)
    with pytest.raises(CapExceeded):
        bruteforce_closure(degree, gens, cap=len(oracle) - 1)


def test_bruteforce_closure_matches_the_tuple_walk():
    rng = random.Random(20261019)
    for _ in range(30):
        n = rng.randrange(2, 9)
        gens = [Permutation(rng.sample(range(n), n)) for _ in range(rng.randrange(1, 4))]
        if PermGroup(n, gens).order() <= 5040:
            _assert_closure_matches_tuples(n, gens, np.uint8)
    for group in (symmetric_group(5), dihedral_group(256), cyclic_group(255)):
        _assert_closure_matches_tuples(group.degree, group.generators, np.uint8)


def _counted_closure(group, cap, stepped):
    """closure of the group's rows, the row count of each call of step
    appended to stepped."""
    images = np.array([g.images for g in group.generators], dtype=np.intp).ravel()

    def step(frontier):
        stepped.append(len(frontier))
        return frontier.take(images, axis=1)

    return permgrp.closure(np.arange(group.degree, dtype=np.uint8)[None], step, cap)


def test_closure_steps_at_most_one_chunk_of_frontier_rows(monkeypatch):
    """closure steps a frontier BLOCK_ENTRIES // 9 = 7 281 rows of S_9 at a
    time and checks the cap after each chunk, so a round over the cap holds
    one chunk of products, not the whole frontier's: S_9's widest round has
    27 766 rows.  With BLOCK_ENTRIES at 42, chunks of 7 rows of S_6, its
    rows come in the tuple walk's order, and the cap is still exactly the
    order."""
    stepped = []
    assert len(_counted_closure(symmetric_group(9), factorial(9), stepped)[0]) == factorial(9)
    assert max(stepped) == 7281
    monkeypatch.setattr(permgrp, "BLOCK_ENTRIES", 42)
    stepped.clear()
    rows, position = _counted_closure(symmetric_group(6), 720, stepped)
    assert max(stepped) == 7 and len(stepped) > 720 // 7
    assert list(map(tuple, rows.tolist())) == list(_bruteforce_closure_tuples(6, symmetric_group(6).generators))
    assert list(position.values()) == list(range(720))
    with pytest.raises(CapExceeded, match="^closure exceeds cap 719$"):
        _counted_closure(symmetric_group(6), 719, stepped)
    assert max(stepped) == 7


def test_bruteforce_closure_edge_degrees_and_dtypes():
    assert bruteforce_closure(1, []).tolist() == [[0]]
    _assert_closure_matches_tuples(1, [Permutation.identity(1)], np.uint8)
    assert bruteforce_closure(5, []).tolist() == [[0, 1, 2, 3, 4]]
    with pytest.raises(CapExceeded):
        bruteforce_closure(5, [], cap=0)
    _assert_closure_matches_tuples(257, cyclic_group(257).generators, np.uint16)
    _assert_closure_matches_tuples(300, dihedral_group(300).generators, np.uint16)
    swap = Permutation(i ^ 1 for i in range(70_000))
    _assert_closure_matches_tuples(70_000, [swap], np.uint32)
    with pytest.raises(DegreeMismatch):
        bruteforce_closure(4, [Permutation.identity(5)])


def test_bruteforce_closure_reads_no_chain(monkeypatch):
    """The closure checks chain orders, so it must not build or sift one."""
    gens = symmetric_group(5).generators

    def no_chain(*args, **kwargs):
        raise AssertionError("the closure used the stabilizer chain")

    monkeypatch.setattr(permgrp, "_grow", no_chain)
    monkeypatch.setattr(permgrp, "_sift", no_chain)
    rows = bruteforce_closure(5, gens)
    assert rows.shape == (120, 5) and len(_closure_set(rows)) == 120


def test_iter_elements_deterministic_and_starts_with_identity():
    g = symmetric_group(5)
    first = list(g.iter_elements())
    second = list(g.iter_elements())
    assert first == second
    assert first[0].is_identity()
    assert len(first) == len(set(first)) == 120
    assert PermGroup(1, ()).elements() == [Permutation.identity(1)]
    assert [g.images for g in cyclic_group(2).elements()] == [(0, 1), (1, 0)]


def test_enumeration_streams():
    # S_9 has 362 880 elements, about 45 MB as a list; the enumeration holds
    # the chain, a tail of at most its transversal count, one product per
    # upper level and one element block
    group = symmetric_group(9)
    group.order()
    tracemalloc.start()
    try:
        count = sum(1 for _ in group.iter_elements())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 362_880
    assert peak < 4 * 2**20


def test_analyze_of_a_large_cyclic_group_forms_few_tuples():
    # C_8000's one level is R's, a tree: analyze forms 3 of its 8 000
    # tuples, where listing them all took 512 MB
    group = cyclic_group(8000)
    tracemalloc.start()
    try:
        report = analyze(group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.subgroup.order() == 8000 and len(group._chain()[0].transversal.formed) == 3
    assert peak < 64 * 2**20


def test_fixed_point_tally_takes_many_upper_products_per_block():
    # S_7's tail is the 24 products of its three deepest levels; one upper
    # product per chunk made 210 chunks
    group = symmetric_group(7)
    tail, chunks = group._enumeration_split()
    assert tail.shape == (24, 7) and 1 <= len(list(chunks)) <= 2
    tally = group.fixed_point_tally()
    assert tally[0] == 1854 and sum(tally.values()) == 5040


def test_fixed_point_tally_of_a_one_level_chain_holds_one_tail():
    # C_3000's one level is the whole tail, 9 000 000 entries: as uint16 the
    # tail and its comparison with the one inverted upper product fit in
    # 40 MB, where a Python tuple tail and its int64 copy peaked at 146 MB;
    # the level's tuples, formed on first read, are formed beforehand
    group = cyclic_group(3000)
    group._chain()[0].transversal.values()
    tracemalloc.start()
    try:
        tally = group.fixed_point_tally()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tally == Counter({0: 2999, 3000: 1})
    assert peak < 40 * 2**20


def test_chain_slots_refuse_a_chain_before_it_passes_the_budget(monkeypatch):
    """C_300's chain is one level of 300 points, 90 000 transversal entries,
    and S_6's five levels hold 6 + 5 + 4 + 3 + 2 points of 6 entries: each
    is built with CHAIN_SLOTS at its size and refused one entry below, the
    group left without a chain; a refused chain is not kept."""
    for gens, n, slots in ((cyclic_group(300).generators, 300, 90_000), (symmetric_group(6).generators, 6, 120)):
        monkeypatch.setattr(permgrp, "CHAIN_SLOTS", slots - 1)
        group = PermGroup(n, gens)
        with pytest.raises(CapExceeded, match=f"^stabilizer chain of degree {n} exceeds {slots - 1} transversal entries$"):
            group.order()
        assert group._levels is None
        monkeypatch.setattr(permgrp, "CHAIN_SLOTS", slots)
        assert group.order() == (300 if n == 300 else 720)
        assert sum(len(lvl.orbit) for lvl in group._chain()) * n == slots


def test_chain_slots_count_r_while_the_point_stabilizer_grows(monkeypatch):
    """affine-scalars 3 2 is built over its translations R: level 0 holds
    R's 9 elements and G_0 = {1, -1} one level of 2 points, 11 points of 9
    entries.  Built with CHAIN_SLOTS at 99 and refused at 98, while G_0's
    level grows beside R's, the group left without a chain.  C_300 above is
    its own R, refused while R's elements are listed."""
    gens = build_family(FamilyParams("affine-scalars", (3, 2))).generators
    monkeypatch.setattr(permgrp, "CHAIN_SLOTS", 98)
    group = PermGroup(9, gens)
    with pytest.raises(CapExceeded, match="^stabilizer chain of degree 9 exceeds 98 transversal entries$"):
        group.order()
    assert group._levels is None
    monkeypatch.setattr(permgrp, "CHAIN_SLOTS", 99)
    assert group.order() == 18 and group._regular is not None
    assert [len(lvl.orbit) for lvl in group._chain()] == [9, 2]


@pytest.mark.parametrize("build", [symmetric_group, alternating_group, cyclic_group])
@pytest.mark.parametrize("n", [0, -1])
def test_standard_groups_refuse_degrees_below_1(build, n):
    with pytest.raises(ConstraintViolated, match=f"^degree must be at least 1, got {n}$"):
        build(n)
    assert build(1).degree == 1 and build(1).order() == 1


def test_orbits_and_transitivity():
    g = PermGroup(6, [Permutation.from_cycles(6, [(0, 1, 2)]), Permutation.from_cycles(6, [(3, 4)])])
    assert g.orbits() == [[0, 1, 2], [3, 4], [5]]
    assert not g.is_transitive()
    assert symmetric_group(4).is_transitive()


def test_transitivity_is_read_off_a_built_chain(monkeypatch):
    """With a chain built, no orbit search runs, and the verdict is the
    orbit search's: on the corpus, on groups fixing 0 or moving only
    points above 0, and on the trivial groups of degree 1 and 2."""
    groups = [corpus_group(name) for name in corpus_names()] + [
        PermGroup(1, ()),
        PermGroup(2, ()),
        cyclic_group(2),
        PermGroup(5, [Permutation.from_cycles(5, [(1, 2, 3, 4)])]),
        PermGroup(6, [Permutation.from_cycles(6, [(0, 1, 2)]), Permutation.from_cycles(6, [(3, 4)])]),
    ]
    expected = [len(PermGroup(g.degree, g.generators).orbits()) == 1 for g in groups]
    assert True in expected and False in expected
    for g in groups:
        g._chain()

    def no_search(self):
        raise AssertionError("an orbit search ran with a chain built")

    monkeypatch.setattr(PermGroup, "orbits", no_search)
    assert [g.is_transitive() for g in groups] == expected


def test_stabilizer_orders():
    s5 = symmetric_group(5)
    stab = s5.stabilizer()
    assert stab.order() == 24
    assert all(g(0) == 0 for g in stab.generators)
    d = dihedral_group(7)
    assert d.stabilizer().order() == 2


@pytest.mark.parametrize(
    "group,expected",
    [
        (symmetric_group(5), 2),
        (dihedral_group(7), 4),
        (dihedral_group(8), 5),
        (cyclic_group(6), 6),
    ],
)
def test_rank(group, expected):
    # regular actions have rank equal to the degree; dihedral groups on m
    # points have 1 + floor(m/2) suborbits
    assert group.rank() == expected


def test_rank_matches_character_sum_on_corpus():
    # sum(fix(g)^2) counts the pairs (g, (x, y)) with g fixing x and y, so
    # it is |G| times the number of orbits on ordered pairs, the rank
    for name in corpus_names():
        group = corpus_group(name)
        total = sum(count_fixed(g.images) ** 2 for g in group.iter_elements())
        assert total == group.rank() * group.order(), name


def test_count_fixed_matches_the_per_point_loop():
    for name in corpus_names():
        group = corpus_group(name)
        if group.order() <= 1000:
            for g in group.iter_elements():
                assert count_fixed(g.images) == sum(1 for i, x in enumerate(g.images) if i == x)
    assert count_fixed((0,)) == 1 and count_fixed(()) == 0


def test_rank_requires_transitive():
    g = PermGroup(4, [Permutation.from_cycles(4, [(0, 1)])])
    with pytest.raises(NotTransitive):
        g.rank()


def _bruteforce_stabilizer(group):
    return PermGroup(group.degree, [g for g in group.iter_elements() if g(0) == 0])


@pytest.mark.parametrize(
    "group",
    [
        symmetric_group(6),
        dihedral_group(9),
        PermGroup(7, [Permutation.from_cycles(7, [(1, 2, 3)]), Permutation.from_cycles(7, [(4, 5), (2, 6)])]),
        PermGroup(6, [Permutation.from_cycles(6, [(0, 1, 2, 3)]), Permutation.from_cycles(6, [(2, 4), (3, 5)])]),
    ],
    ids=["s6", "d9", "fixes-0", "c4-and-swaps"],
)
def test_stabilizer_reused_level_matches_rebuilt(group):
    chain = group._chain()
    stab = group.stabilizer()
    if chain[0].base == 0:
        # the stabilizer shares the group's levels below the first
        assert stab._levels[0] is chain[1]
    else:
        # the group fixes 0, so it is its own stabilizer
        assert group.orbits()[0] == [0]
        assert stab is group
    rebuilt = PermGroup(group.degree, stab.generators)
    brute = _bruteforce_stabilizer(group)
    assert stab.order() == rebuilt.order() == brute.order()
    assert stab.orbits() == rebuilt.orbits() == brute.orbits()
    assert all(g in stab for g in brute.generators)


def _minimal_block_assignment(group, beta):
    """Finest G-congruence merging 0 and beta, as block numbers in order of
    first appearance; None when it is all of the domain.  Union-find
    refinement, processing each merge against every generator once."""
    parent = list(range(group.degree))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = sorted((find(a), find(b)))
        parent[rb] = ra

    union(0, beta)
    pending = [(0, beta)]
    while pending:
        a, b = pending.pop()
        for g in group.generators:
            ra, rb = find(g.images[a]), find(g.images[b])
            if ra != rb:
                union(ra, rb)
                pending.append((ra, rb))
    roots = [find(x) for x in range(group.degree)]
    if len(set(roots)) == 1:
        return None
    relabel = {}
    return tuple(relabel.setdefault(r, len(relabel)) for r in roots)


def _block_systems_every_seed(group):
    """The distinct minimal block systems over every seed beta in 1..n-1:
    the block-system search that primitivity no longer needs, kept as the
    reference for is_primitive."""
    out = []
    for beta in range(1, group.degree):
        assignment = _minimal_block_assignment(group, beta)
        if assignment is not None and assignment not in out:
            out.append(assignment)
    return out


def _primitive_every_seed(group):
    return group.is_transitive() and not _block_systems_every_seed(group)


def _shape(assignment):
    """(number of blocks, block size); every block has the same size."""
    sizes = Counter(assignment)
    assert len(set(sizes.values())) == 1
    return len(sizes), sizes[0]


def test_is_primitive_matches_every_seed_scan_on_corpus():
    names = corpus_names()
    for name in names:
        group = corpus_group(name)
        assert group.is_primitive() == _primitive_every_seed(group), name
    assert len(names) >= 60


@settings(max_examples=80, deadline=None)
@given(_transitive_generator_sets())
def test_is_primitive_matches_every_seed_scan_on_random_groups(data):
    sigma, affine, other = data
    n = sigma.degree
    cycle = Permutation.from_cycles(n, [tuple(range(n))])
    group = PermGroup(n, [g.conjugate_by(sigma) for g in [cycle] + affine + other])
    assert group.is_primitive() == _primitive_every_seed(group)


def test_is_primitive_computed_once(monkeypatch):
    g = cyclic_group(12)
    assert g.is_primitive() is False
    assert g._primitive is False

    def refuse(self):
        raise AssertionError("the cached answer should be read")

    monkeypatch.setattr(PermGroup, "orbits", refuse)
    monkeypatch.setattr(PermGroup, "stabilizer", refuse)
    assert g.is_primitive() is False


def test_intransitive_group_is_not_primitive():
    # decided before any chain level is read: the trivial group has none
    assert PermGroup(3, ()).is_primitive() is False


def test_block_systems_cyclic_six():
    g = cyclic_group(6)
    systems = _block_systems_every_seed(g)
    assert sorted(map(_shape, systems)) == [(2, 3), (3, 2)]
    for s in systems:
        assert s[0] == 0
    assert g.is_primitive() is False


def test_block_systems_dihedral_four():
    g = dihedral_group(4)
    systems = _block_systems_every_seed(g)
    assert systems == [(0, 1, 0, 1)]
    assert g.is_primitive() is False


@pytest.mark.parametrize(
    "group", [symmetric_group(4), alternating_group(5), cyclic_group(5), PermGroup(1, ())]
)
def test_primitive_groups(group):
    assert group.is_primitive() is True


def test_coset_min_rep_agrees_with_bruteforce():
    """The quotient reference's coset representative is the least element
    of the coset."""
    s4 = symmetric_group(4)
    v4 = PermGroup(
        4,
        [
            Permutation.from_cycles(4, [(0, 1), (2, 3)]),
            Permutation.from_cycles(4, [(0, 2), (1, 3)]),
        ],
    )
    for g in s4.iter_elements():
        rep = _coset_min_rep(v4, g)
        coset = sorted((h * g).images for h in v4.iter_elements())
        assert rep.images == coset[0]
        assert rep * g.inverse() in v4 or g * rep.inverse() in v4


def test_coset_min_rep_is_constant_on_cosets():
    a4 = alternating_group(4)
    sub = PermGroup(4, [Permutation.from_cycles(4, [(0, 1, 2)])])
    reps = {_coset_min_rep(sub, g).images for g in a4.iter_elements()}
    assert len(reps) == a4.order() // sub.order()


def test_quotient_s4_by_v4_is_s3():
    s4 = symmetric_group(4)
    v4 = PermGroup(
        4,
        [
            Permutation.from_cycles(4, [(0, 1), (2, 3)]),
            Permutation.from_cycles(4, [(0, 2), (1, 3)]),
        ],
    )
    q = _coset_quotient(s4, v4)
    assert q.order() == 6
    orders = sorted(g.order() for g in q.iter_elements())
    assert orders == [1, 2, 2, 2, 3, 3]


def test_block_action_on_orbits_of_a_normal_subgroup():
    """D_8 = <r, s>, r = (0 1 2 3) and s = (1 3), on the orbits {0, 2} and
    {1, 3} of its normal subgroup <r^2, s> of index 2 acts as C2, with the
    order carried and no chain built; a map that splits a block is
    refused."""
    d8 = dihedral_group(4)
    images = [g.images for g in d8.generators]
    on_pairs = _block_action([[0, 2], [1, 3]], images, 2)
    assert on_pairs.degree == 2 and on_pairs.order() == 2 and on_pairs._levels is None
    assert PermGroup(2, on_pairs.generators).order() == 2
    with pytest.raises(NotNormal):
        _block_action([[0, 1], [2, 3]], images, 2)


def test_quotient_rejects_non_normal():
    """S_4 does not permute the orbits {0, 1}, {2}, {3} of the non-normal
    subgroup generated by (0 1)."""
    s4 = symmetric_group(4)
    with pytest.raises(NotNormal):
        _block_action([[0, 1], [2], [3]], [g.images for g in s4.generators], 3)


def test_normal_closure_in_s4():
    s4 = symmetric_group(4)
    double = Permutation.from_cycles(4, [(0, 1), (2, 3)])
    v4 = s4.normal_closure([double])
    assert v4.order() == 4
    three = Permutation.from_cycles(4, [(0, 1, 2)])
    assert s4.normal_closure([three]).order() == 12


def test_normal_closure_refuses_seeds_outside_the_group():
    """A closure grown over the group's R (agl1 37 has one) keeps R's level
    unverified, which holds only for candidates that normalize R, members
    of the group.  So growth has no public entry but normal_closure, which
    refuses a seed outside the group."""
    group = build_family(FamilyParams("agl1", (37,)))
    with pytest.raises(NotSubgroup):
        group.normal_closure([Permutation.from_cycles(37, [(2, 3)])])
    assert not hasattr(PermGroup, "normal_closure_of") and not hasattr(PermGroup, "extended")


def conjugations_formed(monkeypatch) -> Counter:
    """Counts, by (conjugator, generator) images, the conjugates formed by
    every map that Permutation.conjugator returns from now on."""
    formed, original = Counter(), Permutation.conjugator

    def counting(self):
        conjugate = original(self)

        def formed_once(k):
            formed[self.images, k.images] += 1
            return conjugate(k)

        return formed_once

    monkeypatch.setattr(Permutation, "conjugator", counting)
    return formed


@pytest.mark.parametrize(
    "group,seed,order",
    [
        (symmetric_group(4), [(0, 1), (2, 3)], 4),
        (symmetric_group(6), [(0, 1, 2)], 360),
        (dihedral_group(8), [(0, 2, 4, 6), (1, 3, 5, 7)], 4),
        (alternating_group(7), [(0, 1), (2, 3)], 2520),
    ],
)
def test_normal_closure_forms_each_conjugate_once(monkeypatch, group, seed, order):
    # a pass-until-unchanged loop formed every pair again on each pass
    formed = conjugations_formed(monkeypatch)
    closure = group.normal_closure([Permutation.from_cycles(group.degree, seed)])
    assert formed and max(formed.values()) == 1
    assert closure.order() == order
    assert all(k.conjugate_by(g) in closure for g in group.generators for k in closure.generators)


def test_normal_closure_of_members_is_the_closure_itself(monkeypatch):
    """Candidates already in a normal closure land no residue when sifted,
    so the closure comes back as it is and no conjugate is formed: V_4 in
    S_4, and the translations in agl1 37, whose subgroups grow on its base
    of 2 points."""
    rng = random.Random(38)
    agl = build_family(FamilyParams("agl1", (37,)))
    for group, seed in ((symmetric_group(4), [(0, 1), (2, 3)]), (agl, [tuple(range(37))])):
        closure = group.normal_closure([Permutation.from_cycles(group.degree, seed)])
        assert closure.order() == group.degree
        members = [closure.random_element(rng) for _ in range(3)] + [group.identity()]
        formed = conjugations_formed(monkeypatch)
        for x in members:
            assert group._normal_closure_of(closure, x) is closure
        assert group._normal_closure_of(closure, *members, closure.generators[0]) is closure
        assert not formed
        monkeypatch.undo()


@pytest.mark.parametrize(
    "group",
    [symmetric_group(4), alternating_group(5), dihedral_group(6), cyclic_group(7)],
)
def test_coset_average_is_one_for_transitive(group):
    rng = random.Random(7)
    images = list(range(group.degree))
    reps = []
    for _ in range(3):
        rng.shuffle(images)
        reps.append(Permutation(images))
    assert coset_average_fixed_points(reps, group) == [Fraction(1)] * 3


def test_coset_average_counts_orbits_when_intransitive():
    g = PermGroup(5, [Permutation.from_cycles(5, [(0, 1, 2)])])
    t = Permutation.identity(5)
    # orbits {0,1,2}, {3}, {4}
    assert coset_average_fixed_points([t], g) == [Fraction(3)]
    # outside the group: (3 4) fixes 0, 1 and 2, its two other coset
    # elements fix nothing
    swap = Permutation.from_cycles(5, [(3, 4)])
    assert coset_average_fixed_points([swap, t], g) == [Fraction(1), Fraction(3)]


@pytest.mark.parametrize(
    "group",
    [
        PermGroup(6, [Permutation.from_cycles(6, [(0, 1, 2)]), Permutation.from_cycles(6, [(3, 4)])]),
        PermGroup(7, [Permutation.from_cycles(7, [(0, 1), (2, 3, 4)])]),
        PermGroup(8, [Permutation.from_cycles(8, [(0, 1, 2, 3)]), Permutation.from_cycles(8, [(0, 2)])]),
    ],
)
def test_coset_averages_match_the_per_representative_loop(group):
    rng = random.Random(5)
    inside = list(group.iter_elements())[::2]
    images = list(range(group.degree))
    outside = []
    while len(outside) < 6:
        rng.shuffle(images)
        if Permutation(images) not in group:
            outside.append(Permutation(images))
    averages = coset_average_fixed_points(inside + outside, group)
    assert averages == [_coset_average_loop(t, group) for t in inside + outside]
    assert averages[: len(inside)] == [len(group.orbits())] * len(inside)
    with pytest.raises(DegreeMismatch):
        coset_average_fixed_points([Permutation.identity(group.degree + 1)], group)


def test_coset_averages_need_no_pair_table():
    # C_3000's one level is its whole tail, 9 000 000 uint16 entries; the
    # averages compare it with the one inverted upper product, gathered by
    # t^-1, and form no element (an n x n int64 table of (point, image)
    # counts peaks at 241 MB); the level's tuples, formed on first read, are
    # formed beforehand
    group = cyclic_group(3000)
    group._chain()[0].transversal.values()
    tracemalloc.start()
    try:
        averages = coset_average_fixed_points([group.identity()], group)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert averages == [Fraction(1)]
    assert peak < 40 * 2**20


def test_coset_averages_of_no_representatives():
    fixed = Counter()
    assert coset_average_fixed_points([], symmetric_group(4), fixed) == []
    assert fixed == symmetric_group(4).fixed_point_tally()


def test_dihedral_group_structure():
    d = dihedral_group(6)
    assert d.order() == 12
    assert d.is_transitive()
    orders = sorted(g.order() for g in d.iter_elements())
    assert orders == [1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 6, 6]
