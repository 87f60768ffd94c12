"""Stabilizer-chain correctness against brute-force closures, plus block
systems, block actions and the coset quotient kept as a reference."""

import random
import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest

from derangements.errors import CapExceeded, DegreeMismatch, NotNormal, NotTransitive
from derangements.permgrp import (
    BlockSystem,
    PermGroup,
    Permutation,
    alternating_group,
    block_action,
    bruteforce_closure,
    coset_average_fixed_points,
    count_fixed,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)
from derangements.suite import corpus_group, corpus_names
from test_properties import _coset_average_loop, _coset_min_rep, _coset_quotient


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
        closure = bruteforce_closure(n, gens)
        assert group.order() == len(closure)
        assert {p.images for p in group.iter_elements()} == closure
        outside = [
            Permutation(imgs) for imgs in permutations(range(n)) if imgs not in closure
        ]
        for other in outside[:5]:
            assert other not in group


def test_bruteforce_closure_cap_is_the_closure_size():
    gens = symmetric_group(4).generators
    assert len(bruteforce_closure(4, gens, cap=24)) == 24
    with pytest.raises(CapExceeded):
        bruteforce_closure(4, gens, cap=23)
    assert bruteforce_closure(1, [Permutation.identity(1)]) == {(0,)}


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
    # the chain, a tail of at most its transversal count, and one product
    # per upper level
    group = symmetric_group(9)
    group.order()
    tracemalloc.start()
    try:
        count = sum(1 for _ in group._iter_element_tuples())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 362_880
    assert peak < 4 * 2**20


def test_orbits_and_transitivity():
    g = PermGroup(6, [Permutation.from_cycles(6, [(0, 1, 2)]), Permutation.from_cycles(6, [(3, 4)])])
    assert g.orbits() == [[0, 1, 2], [3, 4], [5]]
    assert not g.is_transitive()
    assert symmetric_group(4).is_transitive()


def test_stabilizer_orders():
    s5 = symmetric_group(5)
    stab = s5.stabilizer(0)
    assert stab.order() == 24
    assert all(g(0) == 0 for g in stab.generators)
    assert s5.stabilizer(3).order() == 24
    d = dihedral_group(7)
    assert d.stabilizer(0).order() == 2


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
        total = sum(count_fixed(raw) ** 2 for raw in group._iter_element_tuples())
        assert total == group.rank() * group.order(), name


def test_rank_requires_transitive():
    g = PermGroup(4, [Permutation.from_cycles(4, [(0, 1)])])
    with pytest.raises(NotTransitive):
        g.rank()


def _bruteforce_stabilizer(group, point):
    return PermGroup(group.degree, [g for g in group.iter_elements() if g(point) == point])


@pytest.mark.parametrize(
    "group",
    [
        symmetric_group(6),
        dihedral_group(9),
        PermGroup(7, [Permutation.from_cycles(7, [(1, 2, 3)]), Permutation.from_cycles(7, [(4, 5), (2, 6)])]),
    ],
    ids=["s6", "d9", "fixes-0"],
)
def test_stabilizer_reused_level_matches_rebuilt(group):
    chain = group._chain()
    stab = group.stabilizer(0)
    if chain[0].base == 0:
        # the stabilizer shares the group's levels below the first
        assert stab._levels[0] is chain[1]
    else:
        # the group fixes 0, so the stabilizer comes from a pinned rebuild
        assert group.orbits()[0] == [0]
        assert stab.order() == group.order()
    rebuilt = PermGroup(group.degree, stab.generators)
    brute = _bruteforce_stabilizer(group, 0)
    assert stab.order() == rebuilt.order() == brute.order()
    assert stab.orbits() == rebuilt.orbits() == brute.orbits()
    assert all(g in stab for g in brute.generators)


def test_stabilizer_of_later_point_matches_bruteforce():
    group = PermGroup(6, [Permutation.from_cycles(6, [(0, 1, 2, 3)]), Permutation.from_cycles(6, [(2, 4), (3, 5)])])
    for point in range(6):
        stab = group.stabilizer(point)
        brute = _bruteforce_stabilizer(group, point)
        assert stab.order() == brute.order()
        assert stab.orbits() == brute.orbits()
        assert all(g(point) == point for g in stab.generators)


def _block_systems_every_seed(group):
    """The scan over every seed beta in 1..n-1, kept as the oracle for the
    one-seed-per-suborbit search."""
    seen = set()
    out = []
    for beta in range(1, group.degree):
        assignment = group.minimal_block_assignment(beta)
        if assignment is None or assignment in seen:
            continue
        seen.add(assignment)
        out.append(BlockSystem.from_assignment(assignment))
    return out


def test_block_systems_match_every_seed_scan_on_corpus():
    checked = 0
    for name in corpus_names():
        group = corpus_group(name)
        if group.degree > 30:
            continue
        assert group.block_systems() == _block_systems_every_seed(group), name
        checked += 1
    assert checked >= 50


def test_block_systems_computed_once():
    g = cyclic_group(12)
    first = g.block_systems()
    assert g.block_systems() is first
    assert not g.is_primitive()


def test_block_systems_cyclic_six():
    g = cyclic_group(6)
    systems = g.block_systems()
    shapes = sorted((s.num_blocks, s.block_size) for s in systems)
    assert shapes == [(2, 3), (3, 2)]
    for s in systems:
        assert s.assignment[0] == 0
    assert not g.is_primitive()


def test_block_systems_dihedral_four():
    g = dihedral_group(4)
    systems = g.block_systems()
    assert len(systems) == 1
    assert sorted(map(tuple, systems[0].blocks())) == [(0, 2), (1, 3)]


@pytest.mark.parametrize("group", [symmetric_group(4), alternating_group(5), cyclic_group(5)])
def test_primitive_groups(group):
    assert group.is_primitive()


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
    """D_8 on the orbits {0, 2} and {1, 3} of its rotation by two acts as
    C2, and the orbits of the trivial group give back the natural action;
    a map that splits a block is refused."""
    d8 = dihedral_group(4)
    images = [g.images for g in d8.generators]
    on_pairs = block_action({0: 0, 2: 0, 1: 1, 3: 1}, images)
    assert on_pairs.degree == 2 and on_pairs.order() == 2
    assert block_action({x: x for x in range(4)}, images).generators == d8.generators
    with pytest.raises(NotNormal):
        block_action({0: 0, 1: 0, 2: 1, 3: 1}, images)


def test_quotient_rejects_non_normal():
    """S_4 does not permute the orbits {0, 1}, {2}, {3} of the non-normal
    subgroup generated by (0 1)."""
    s4 = symmetric_group(4)
    with pytest.raises(NotNormal):
        block_action({0: 0, 1: 0, 2: 1, 3: 2}, [g.images for g in s4.generators])


def test_normal_closure_in_s4():
    s4 = symmetric_group(4)
    double = Permutation.from_cycles(4, [(0, 1), (2, 3)])
    v4 = s4.normal_closure([double])
    assert v4.order() == 4
    three = Permutation.from_cycles(4, [(0, 1, 2)])
    assert s4.normal_closure([three]).order() == 12


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


def test_dihedral_group_structure():
    d = dihedral_group(6)
    assert d.order() == 12
    assert d.is_transitive()
    orders = sorted(g.order() for g in d.iter_elements())
    assert orders == [1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 6, 6]
