"""Matrix arithmetic, closures, the eigenvalue-1 subgroup, irreducibility,
products, and the GL(2,q) embeddings.  The batched digit-matrix stages are
checked against pure-Python oracles kept here: the breadth-first closure
by FFMatrix products, the decoded stack with one order loop per element,
the vector of an index by its base-q digits, the echelon eigenvalue-1
test, the per-element coset walk (for the quotient on sub-orbit blocks and
the index check), the q^d vector walk that decided semiregularity before
the eigenvalue-1 flags did and the outside mask that decided it before
eigenvalue-1 counts and then key lookups did, root hooking, which
labelled the quotient's blocks before ``PermGroup.orbits`` and then the
walk of e_0*R(H)'s translates did, with the gather and the scatter label
propagations that it replaced, the spin, and
the projective-point sweep that decided irreducibility before the MeatAxe
did.  SL(2,3)'s closed-form generator is checked against the linear solve
it replaced."""

import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from derangements import derange, matgrp, permgrp, suite
from derangements.cli import main
from derangements.errors import (
    CapExceeded,
    ConstraintViolated,
    DegreeMismatch,
    FieldMismatch,
    NotNormal,
)
from derangements.families import FamilyParams, build_family, central_product_examples, dihedral_quotient_family
from derangements.fileio import dump_matrix_group
from derangements.gf import _digits, _value, field, prime_power_decompose
from derangements.matgrp import (
    FFMatrix,
    IndexBoundReport,
    MatrixGroup,
    binary_icosahedral_gl2,
    binary_tetrahedral_gl2,
    central_product,
    dihedral_gl2,
    echelonize,
    eigenvalue_one_subgroup,
    general_linear_gl2,
    index_bound_check,
    irreducibility,
    is_irreducible,
    kronecker,
    quaternion_gl2,
    quotient_perm_group,
    scalar_matrix_group,
    special_linear_gl2,
    _decode,
    _digit_matrix,
    _fixes_a_vector,
    _quadratic_plane,
    _spin,
)
from derangements.permgrp import PermGroup, Permutation
from derangements.suite import _MAT_BUILDERS, PAPER_SCENARIOS, matrix_record

GF5 = field(5, 1)
GF3 = field(3, 1)


# reference implementations: one Python loop per vector, one field operation
# per entry --------------------------------------------------------------------


def has_eigenvalue_one(m):
    """True iff (M - I) is singular, i.e. some nonzero row vector is fixed:
    the batched elimination on a one-matrix stack."""
    return bool(_fixes_a_vector(_digit_matrix(m)[None], m.spec.p)[0])


def index_to_vector(spec, d, idx):
    """The vector with index idx in GF(q)^d: its base-q digits."""
    out = []
    for _ in range(d):
        out.append(idx % spec.order)
        idx //= spec.order
    return tuple(out)


def vector_to_index(spec, v):
    """Index of v in GF(q)^d: sum_j v_j q^j."""
    idx = 0
    for e in reversed(v):
        idx = idx * spec.order + e
    return idx


def _elements(group):
    """Every element as an FFMatrix, in the order of the digit stack."""
    return _decode(group.spec, group.d, group.digit_stack())


def _order_python(m):
    """Multiplicative order by one FFMatrix product per power."""
    power, k = m, 1
    while not power.is_identity():
        power, k = power * m, k + 1
    return k


def solve_homogeneous(spec, rows):
    """Basis of {x : sum_j rows[i][j]*x[j] = 0 for all i} from the echelon
    form, one vector per free column."""
    reduced, pivots = echelonize(spec, rows)
    n = len(rows[0])
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        v = [0] * n
        v[j] = 1
        for r, pc in enumerate(pivots):
            v[pc] = spec.neg_e(reduced[r][j])
        basis.append(tuple(v))
    return basis


def _tetrahedral_w_solved(spec):
    """The order-3 generator of SL(2,3) solved linearly: the null space of
    i*W = W*j and j*W = W*(i*j), scaled by the unique cube root (q not 1
    mod 3) that makes W^3 = I."""
    a, b = quaternion_gl2(spec).generators
    ab = a * b
    # entries w_{rc} -> unknown 2r + c
    rows = []
    for left, right in ((a, b), (b, ab)):
        for i in range(2):
            for j in range(2):
                coeff = [0, 0, 0, 0]
                for k in range(2):
                    coeff[2 * k + j] = spec.add_e(coeff[2 * k + j], left.rows[i][k])
                    coeff[2 * i + k] = spec.sub_e(coeff[2 * i + k], right.rows[k][j])
                rows.append(coeff)
    basis = solve_homogeneous(spec, rows)
    w = FFMatrix(spec, [basis[0][0:2], basis[0][2:4]])
    cube = w * w * w
    lam = cube.rows[0][0]
    assert cube == FFMatrix.scalar(spec, 2, lam)
    root = next(e for e in range(1, spec.order) if spec.pow_e(e, 3) == lam)
    return FFMatrix.scalar(spec, 2, spec.inv_e(root)) * w


def _orbit_labels_python(group):
    """Orbit label per vector index under the group; label = smallest index
    in the orbit.  Index 0 (zero vector) keeps label 0."""
    spec, d = group.spec, group.d
    n = spec.order**d
    labels = [-1] * n
    labels[0] = 0
    for start in range(1, n):
        if labels[start] >= 0:
            continue
        orbit = [start]
        labels[start] = start
        qpos = 0
        while qpos < len(orbit):
            idx = orbit[qpos]
            qpos += 1
            v = index_to_vector(spec, d, idx)
            for g in group.generators:
                img = vector_to_index(spec, g.apply_row(v))
                if labels[img] < 0:
                    labels[img] = start
                    orbit.append(img)
    return labels


def _index_bound_python(group, sub):
    """index_bound_check with the orbit-semiregularity test as a Python loop
    over coset representatives and orbit minima."""
    spec, d = group.spec, group.d
    index = group.order() // sub.order()
    bound = spec.order**d - 1
    labels = _orbit_labels_python(sub)
    rep_positions = sorted(set(labels[1:]))
    semiregular = True
    for h in _right_cosets_python(group, sub)[0][1:]:
        for pos in rep_positions:
            img = vector_to_index(spec, h.apply_row(index_to_vector(spec, d, pos)))
            if labels[img] == labels[pos]:
                semiregular = False
                break
        if not semiregular:
            break
    return IndexBoundReport(index, bound, index <= bound, semiregular)


def _orbit_labels(group):
    """Orbit label per vector index: the least index in its orbit, by root
    hooking on the images of all q^d vectors.  Index 0 (the zero vector)
    keeps label 0."""
    n = group.spec.order**group.d
    digits = _digits(np.arange(n), group.spec.p, group.d * group.spec.f)
    images = [_image_indices(group.spec, m, digits) for m in group.generator_digits()]
    return _propagate_min_labels(n, images)


def _index_bound_walk(group, sub):
    """index_bound_check as the q^d vector walk: label sub's orbits, then
    H's orbits on those.  H permutes the sub-orbits in one H-orbit
    transitively, so H/sub is semiregular when each holds |H : sub|."""
    spec, d = group.spec, group.d
    index = group.order() // sub.order()
    n = spec.order**d
    labels = _orbit_labels(sub)
    minima = np.flatnonzero(labels == np.arange(n))[1:]
    digits = _digits(minima, spec.p, d * spec.f)
    moves = [
        np.searchsorted(minima, labels[_image_indices(spec, m, digits)])
        for m in group.generator_digits()
    ]
    classes = _propagate_min_labels(len(minima), moves)
    semiregular = bool((np.bincount(classes)[classes] == index).all())
    return IndexBoundReport(index, n - 1, index <= n - 1, semiregular)


def _semiregular_outside(group, sub):
    """The semiregularity test the eigenvalue-1 counts replaced: mark sub's
    positions in H's stack, looked up by key in H's dict, then no element
    of H outside sub may have eigenvalue 1.  It flags H's stack itself, a
    block of max(1, BLOCK_ENTRIES // k^2) matrices at a time."""
    stack = group.digit_stack()
    step = max(1, permgrp.BLOCK_ENTRIES // stack[0].size)
    fixes = np.concatenate([_fixes_a_vector(stack[lo:lo + step], group.spec.p) for lo in range(0, len(stack), step)])
    outside = np.ones(group.order(), dtype=bool)
    outside[[group._position[key] for key in group._keys(sub.digit_stack())]] = False
    return not fixes[outside].any()


def _canonicalize(spec, v):
    lead = next(e for e in v if e)
    if lead == 1:
        return v
    inv = spec.inv_e(lead)
    return tuple(spec.mul_e(inv, e) for e in v)


def _irreducibility_python(group):
    """The projective-point sweep: the breadth-first orbit of each
    unvisited projective point in index order; the span of the first orbit
    of rank < d is the witness."""
    spec, d = group.spec, group.d
    if d == 1:
        return True, None
    n = spec.order**d
    visited = set()
    for idx in range(1, n):
        v = index_to_vector(spec, d, idx)
        k = 0
        while not v[k]:
            k += 1
        if v[k] != 1 or v in visited:
            continue
        visited.add(v)
        orbit = [v]
        span = []
        rank = 0
        qpos = 0
        while qpos < len(orbit):
            u = orbit[qpos]
            qpos += 1
            if rank < d:
                span, pivots = echelonize(spec, span + [list(u)])
                rank = len(pivots)
            for g in group.generators:
                w = _canonicalize(spec, g.apply_row(u))
                if w not in visited:
                    visited.add(w)
                    orbit.append(w)
        if rank < d:
            return False, [tuple(r) for r in span]
    return True, None


def _spin_python(spec, gens, v):
    """Echelon basis of the span of v's orbit, by one echelon form of the
    span plus each new image."""
    span, _ = echelonize(spec, [v])
    frontier = [v]
    while frontier and len(span) < len(v):
        u = frontier.pop()
        for g in gens:
            w = g.apply_row(u)
            grown, _ = echelonize(spec, span + [list(w)])
            if len(grown) > len(span):
                span = grown
                frontier.append(w)
    return span


def _image_indices(spec, m, digits):
    """Indices of the images of the vectors with these digit rows under the
    digit matrix m."""
    return _value(digits @ m % spec.p, spec.p)


def _propagate_min_labels(n, images):
    """Least point of each point's orbit under the maps i -> images[g][i],
    each a permutation of range(n), by root hooking (Shiloach and Vishkin
    1982): hook the larger root of each edge onto the smaller, jump every
    point to its root, and stop when no edge joins two roots."""
    labels = np.arange(n, dtype=np.int64)
    while True:
        hooked = False
        for img in images:
            ends = labels[img]
            if (ends != labels).any():
                np.minimum.at(labels, np.maximum(labels, ends), np.minimum(labels, ends))
                hooked = True
        if not hooked:
            return labels
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]


def _hooked_quotient(group, sub):
    """(blocks, generators) of H/sub, as root hooking made them for
    sub = R(H): the points are e_0's orbit, as positions among its
    sorted vector indices; a block is a class of sub's labels, numbered by
    its least point; a generator maps block b to the block of the image of
    b's least point."""
    spec, d = group.spec, group.d
    images = np.sort(group.digit_stack()[:, 0] @ spec.p ** np.arange(d * spec.f))
    points = images[np.append(True, images[1:] != images[:-1])]
    digits = _digits(points, spec.p, d * spec.f)
    sub_moves, moves = (
        [np.searchsorted(points, _image_indices(spec, m, digits)) for m in grp.generator_digits()]
        for grp in (sub, group)
    )
    labels = _propagate_min_labels(len(points), sub_moves)
    minima = np.flatnonzero(labels == np.arange(len(points)))
    block = np.searchsorted(minima, labels)
    blocks = [np.flatnonzero(block == b).tolist() for b in range(len(minima))]
    generators = [Permutation(block[m[minima]].tolist()) for m in moves]
    return blocks, PermGroup(len(minima), generators).generators


def _assert_quotient_matches_hooking(group, sub):
    """quotient_perm_group(group), for sub = R(H), acts on as many blocks as
    root hooking labels, and its generators are the hooked ones."""
    quotient = quotient_perm_group(group)
    blocks, generators = _hooked_quotient(group, sub)
    assert (quotient.degree, quotient.generators) == (len(blocks), generators)


def _propagate_min_labels_gather(n, images):
    """Orbit minima by label propagation: a label reaches the image of its
    point by a gather through the inverse permutation, a few steps per pass
    along each cycle."""
    labels = np.arange(n, dtype=np.int64)
    inverses = [np.empty_like(img) for img in images]
    for img, inverse in zip(images, inverses):
        inverse[img] = labels
    while True:
        before = labels.copy()
        for img, inverse in zip(images, inverses):
            labels = np.minimum(labels, labels[inverse])
            labels = np.minimum(labels, labels[img])
        for _ in range(3):
            labels = np.minimum(labels, labels[labels])
        if np.array_equal(labels, before):
            return labels


def _propagate_min_labels_scatter(n, images):
    """Orbit minima by label propagation with an unbuffered np.minimum.at
    scatter along each map, then a gather."""
    labels = np.arange(n, dtype=np.int64)
    while True:
        before = labels.copy()
        for img in images:
            np.minimum.at(labels, img, labels)
            labels = np.minimum(labels, labels[img])
        for _ in range(3):
            labels = np.minimum(labels, labels[labels])
        if np.array_equal(labels, before):
            return labels


def _closure_python(group):
    """Breadth-first closure from the identity, one FFMatrix product per
    (element, generator) pair, in queue order."""
    identity = FFMatrix.identity(group.spec, group.d)
    out = [identity]
    seen = {identity.rows}
    q = 0
    while q < len(out):
        m = out[q]
        q += 1
        for g in group.generators:
            prod = m * g
            if prod.rows not in seen:
                seen.add(prod.rows)
                out.append(prod)
    return out


def _has_eigenvalue_one_python(m):
    """M - I has rank below d, by one echelon form over GF(q)."""
    spec = m.spec
    rows = [
        [spec.sub_e(e, 1 if i == j else 0) for j, e in enumerate(row)]
        for i, row in enumerate(m.rows)
    ]
    return len(echelonize(spec, rows)[1]) < m.d


def _eigenvalue_one_generators_python(group):
    """R(H)'s generators: the scan of eigenvalue_one_subgroup over the
    Python closure with the echelon test."""
    gens = []
    keys = {FFMatrix.identity(group.spec, group.d).rows}
    for m in _closure_python(group):
        if m.rows not in keys and _has_eigenvalue_one_python(m):
            gens.append(m)
            keys = {x.rows for x in _closure_python(MatrixGroup(group.spec, group.d, gens))}
    return gens


def _right_cosets_python(group, sub):
    """The coset walk with one FFMatrix product per element of each coset."""
    sub_elements = _closure_python(sub)
    coset_of = {}
    reps = []
    for m in _closure_python(group):
        if m.rows in coset_of:
            continue
        for s in sub_elements:
            coset_of[(s * m).rows] = len(reps)
        reps.append(m)
    return reps, coset_of


def _normal_and_holds_e0_stabilizer(group, sub):
    """(sub is normal in the group, sub holds every element fixing e_0),
    by brute force over the Python closures."""
    keys = {m.rows for m in _closure_python(sub)}
    e0 = (1,) + (0,) * (group.d - 1)
    normal = all((g.inverse() * k * g).rows in keys for g in group.generators for k in sub.generators)
    return normal, all(m.rows in keys for m in _closure_python(group) if m.apply_row(e0) == e0)


def _assert_batched_paths_match(group):
    """Element order, eigenvalue-1 flags, R(H)'s generators and elements
    equal the Python oracles'; R(H) is normal and holds the stabilizer of
    e_0, and the quotient action on its orbits, and the index check on at
    most 1000 vectors, equal the oracles' too."""
    elements = _elements(group)
    assert elements == _closure_python(group)
    flags = [has_eigenvalue_one(m) for m in elements]
    assert flags == [_has_eigenvalue_one_python(m) for m in elements]
    sub = eigenvalue_one_subgroup(group)
    assert list(sub.generators) == _eigenvalue_one_generators_python(group)
    assert {m.rows for m in _elements(sub)} == {m.rows for m in _closure_python(sub)}
    assert _normal_and_holds_e0_stabilizer(group, sub) == (True, True)
    if group.spec.order**group.d <= 1000:
        assert index_bound_check(group) == _index_bound_python(group, sub)
    assert quotient_perm_group(group).generators == _action_oracle(group, sub)
    _assert_quotient_matches_hooking(group, sub)


def _action_oracle(group, sub):
    """For a normal sub holding the stabilizer of e_0, the generators of
    H/sub, as quotient_perm_group forms them for sub = R(H), from one
    FFMatrix product per point
    and generator.  The quotient acts on the right cosets, each carried to a
    block by R*h -> e_0*h*R and numbered as its block, by the least vector
    index in it."""
    reps, coset_of = _right_cosets_python(group, sub)
    e0 = (1,) + (0,) * (group.d - 1)
    sub_elements = _closure_python(sub)
    least = [min(vector_to_index(group.spec, (h * s).apply_row(e0)) for s in sub_elements) for h in reps]
    block = {x: b for b, x in enumerate(sorted(least))}
    assert len(block) == len(reps)
    quotient = []
    for g in group.generators:
        images = [0] * len(reps)
        for i, h in enumerate(reps):
            images[block[least[i]]] = block[least[coset_of[(h * g).rows]]]
        quotient.append(Permutation(images))
    return PermGroup(len(reps), quotient).generators


def _random_invertible(rng, spec, d):
    while True:
        m = FFMatrix(spec, [[rng.randrange(spec.order) for _ in range(d)] for _ in range(d)])
        if m.det():
            return m


def test_matrix_product_is_apply_left_then_right():
    m = FFMatrix(GF5, [[0, 1], [1, 0]])
    n = FFMatrix(GF5, [[2, 0], [0, 3]])
    v = (1, 2)
    via_product = (m * n).apply_row(v)
    stepwise = n.apply_row(m.apply_row(v))
    assert via_product == stepwise == (4, 3)


def test_matrix_inverse_det():
    m = FFMatrix(GF5, [[1, 2], [3, 4]])
    assert m.det() == (1 * 4 - 2 * 3) % 5
    assert (m * m.inverse()).is_identity()
    with pytest.raises(ZeroDivisionError):
        FFMatrix(GF5, [[1, 2], [2, 4]]).inverse()
    # every 2x2 matrix over GF(4): singular ones raise, the rest invert
    gf4 = field(2, 2)
    for a, b, c, d in itertools.product(range(4), repeat=4):
        m = FFMatrix(gf4, [[a, b], [c, d]])
        if m.det() == 0:
            with pytest.raises(ZeroDivisionError):
                m.inverse()
        else:
            assert (m * m.inverse()).is_identity() and (m.inverse() * m).is_identity()


def _leibniz_det(m):
    """The permutation expansion of the determinant, one field op per term."""
    spec, total = m.spec, 0
    for perm in itertools.permutations(range(m.d)):
        term = 1
        for i, j in enumerate(perm):
            term = spec.mul_e(term, m.rows[i][j])
        odd = sum(perm[i] > perm[j] for i in range(m.d) for j in range(i + 1, m.d)) % 2
        total = spec.add_e(total, spec.neg_e(term) if odd else term)
    return total


def test_det_matches_leibniz_expansion():
    """det() read off the Gauss-Jordan pass: every 2x2 matrix over GF(4)
    and GF(5), and seeded random 3x3 and 4x4 ones over GF(7), GF(9) and
    GF(8), singular ones included."""
    for spec in (field(2, 2), GF5):
        for entries in itertools.product(range(spec.order), repeat=4):
            m = FFMatrix(spec, [entries[:2], entries[2:]])
            assert m.det() == _leibniz_det(m), m
    rng = random.Random(5)
    for spec in (field(7, 1), field(3, 2), field(2, 3)):
        for d in (3, 4):
            for _ in range(40):
                rows = [[rng.randrange(spec.order) for _ in range(d)] for _ in range(d)]
                if rng.random() < 0.25:
                    rows[-1] = list(rows[0])  # singular
                m = FFMatrix(spec, rows)
                assert m.det() == _leibniz_det(m), m


def test_rank_nullspace_solve():
    rows = [[1, 2, 3], [2, 4, 1], [0, 1, 1]]
    assert len(echelonize(GF5, rows)[1]) == 2
    # left null space {v : v*M = 0}: the homogeneous solutions of M^T
    left = solve_homogeneous(GF5, [list(col) for col in zip(*rows)])
    for v in left:
        image = [sum(a * b for a, b in zip(v, col)) % 5 for col in zip(*rows)]
        assert image == [0, 0, 0]
    assert len(left) == 1
    sols = solve_homogeneous(GF5, [[1, 1, 0], [0, 1, 1]])
    assert len(sols) == 1
    x = sols[0]
    assert (x[0] + x[1]) % 5 == 0 and (x[1] + x[2]) % 5 == 0


def test_has_eigenvalue_one():
    assert has_eigenvalue_one(FFMatrix.identity(GF5, 2))
    assert not has_eigenvalue_one(FFMatrix.scalar(GF5, 2, 2))
    assert has_eigenvalue_one(FFMatrix(GF5, [[0, 1], [1, 0]]))  # fixes (1,1)


def test_membership_checks_field_and_dimension():
    """As for generators: another field is a FieldMismatch, another
    dimension a DegreeMismatch (a ValueError)."""
    gl = general_linear_gl2(GF5)
    assert FFMatrix.scalar(GF5, 2, 2) in gl
    assert FFMatrix(GF5, [[1, 1], [1, 1]]) not in gl
    with pytest.raises(FieldMismatch):
        FFMatrix(GF3, [[2, 0], [0, 2]]) in gl
    with pytest.raises(ValueError):
        FFMatrix.identity(GF5, 2) in MatrixGroup(GF5, 3, [])


def test_dimension_mismatches_raise_degree_mismatch():
    """A product of a 2x2 and a 3x3 matrix, membership of a 2x2 matrix in
    a group of 3x3 ones, and a 2x2 generator of such a group raise
    DegreeMismatch, as permutations of different degrees do; both raised a
    bare ValueError."""
    two, three = FFMatrix.identity(GF5, 2), FFMatrix.identity(GF5, 3)
    with pytest.raises(DegreeMismatch, match="dimension 2 vs 3"):
        two * three
    with pytest.raises(DegreeMismatch, match=r"matrix dimension 2 in GL\(3"):
        two in MatrixGroup(GF5, 3, [])
    with pytest.raises(DegreeMismatch, match=r"matrix dimension 2 in GL\(3"):
        MatrixGroup(GF5, 3, [two])
    assert issubclass(DegreeMismatch, ValueError)


def test_enumeration_identity_only():
    g = MatrixGroup(GF5, 2, [FFMatrix.identity(GF5, 2)])
    assert g.order() == 1


def test_enumeration_quaternion_example():
    g = MatrixGroup(GF5, 2, [FFMatrix(GF5, [[0, 4], [1, 0]]), FFMatrix(GF5, [[2, 0], [0, 3]])])
    assert g.order() == 8
    assert g.element_order_histogram() == {1: 1, 2: 1, 4: 6}


@pytest.mark.parametrize(
    "build",
    [
        lambda: quaternion_gl2(GF5),
        lambda: quaternion_gl2(field(3, 2)),
        lambda: binary_tetrahedral_gl2(field(7, 1)),
        lambda: binary_icosahedral_gl2(field(19, 1)),
        lambda: general_linear_gl2(field(2, 2)),
        lambda: general_linear_gl2(field(2, 3)),
        lambda: dihedral_gl2(field(5, 2), 26),
        lambda: dihedral_gl2(field(3, 3), 28),
        lambda: scalar_matrix_group(field(2, 3), 3),
        lambda: central_product_examples("klein"),
    ],
    ids=["q8-5", "q8-9", "sl23-7", "sl25-19", "gl2-4", "gl2-8", "dihedral-25-26", "dihedral-27-28",
         "scalars-8-3", "central-klein"],
)
def test_order_histogram_and_scalars_match_the_per_element_oracles(build):
    """The batched powers of the stack and the scalar rows read off its
    entry codes, against one Python order loop and one scalar test per
    decoded element."""
    group = build()
    elements = _elements(group)
    assert group.element_order_histogram() == Counter(map(_order_python, elements))
    scalars = [m.rows[0][0] for m in elements if m == FFMatrix.scalar(group.spec, group.d, m.rows[0][0])]
    assert group.scalar_values() == sorted(scalars)


@pytest.mark.parametrize("q, d", [(5, 2), (4, 3), (9, 2), (8, 2)])
def test_index_codes_match_index_to_vector(q, d):
    """The batched index -> coordinate codes conversion, over all of
    GF(q)^d: an index's d*f base-p digits, f per coordinate, have the
    coordinates' codes as their values."""
    spec = field(*prime_power_decompose(q))
    digits = _digits(np.arange(q**d), spec.p, d * spec.f)
    codes = _value(digits.reshape(-1, d, spec.f), spec.p)
    assert codes.tolist() == [list(index_to_vector(spec, d, i)) for i in range(q**d)]


def test_enumeration_cap():
    g = MatrixGroup(GF5, 2, [FFMatrix(GF5, [[1, 1], [0, 1]]), FFMatrix(GF5, [[0, 1], [4, 0]])])
    with pytest.raises(CapExceeded):
        g.digit_stack(cap=10)


def test_enumeration_cap_is_exact_and_checked_when_cached():
    gl = general_linear_gl2(GF3)
    assert gl.order() == 48
    with pytest.raises(CapExceeded):
        gl.digit_stack(cap=10)
    # the last breadth-first level takes the closure from 41 to 48 elements
    with pytest.raises(CapExceeded):
        gl.digit_stack(cap=47)
    assert len(gl.digit_stack(cap=48)) == 48
    with pytest.raises(CapExceeded):
        MatrixGroup(GF3, 2, gl.generators).digit_stack(cap=47)
    fresh = MatrixGroup(GF3, 2, gl.generators)
    assert np.array_equal(fresh.digit_stack(cap=48), gl.digit_stack())


def test_a_carried_order_past_the_cap_closes_nothing(monkeypatch):
    """GL(2,5) carries its order 480, so a cap of 479, or an enumeration
    limit of 479 when no cap is given, refuses it before any closure, with
    the closure's message."""

    def fail(*args):
        raise AssertionError("a stack was closed past a carried order")

    monkeypatch.setattr(permgrp, "closure", fail)
    gl = general_linear_gl2(GF5)
    with pytest.raises(CapExceeded, match="^closure exceeds cap 479$"):
        gl.digit_stack(cap=479)
    monkeypatch.setattr(permgrp, "ENUMERATION_CAP", 479)
    with pytest.raises(CapExceeded, match="^closure exceeds cap 479$"):
        gl.digit_stack()
    assert gl._stack is None and gl.order() == 480


@pytest.mark.parametrize("p, m, dtype", [(257, 8, np.uint16), (65537, 16, np.uint32)])
def test_closure_keys_past_one_byte(p, m, dtype):
    """Digit matrices over GF(257) and GF(65537) are keyed by their bytes in
    uint16 and uint32; the stack lists the Python closure's elements in its
    order, and the cap raises exactly at order - 1."""
    spec = field(p, 1)
    group = dihedral_gl2(spec, m)
    assert len(group._keys(group.digit_stack()[:1])[0]) == 4 * np.dtype(dtype).itemsize
    assert _elements(group) == _closure_python(group)
    with pytest.raises(CapExceeded, match=f"exceeds cap {2 * m - 1}"):
        MatrixGroup(spec, 2, group.generators).digit_stack(cap=2 * m - 1)
    assert np.array_equal(MatrixGroup(spec, 2, group.generators).digit_stack(cap=2 * m), group.digit_stack())


def test_eigenvalue_one_subgroup_is_built_once_and_checked_normal(monkeypatch):
    """R(H) is cached on H.  Its normality check looks each g^-1*k*g up in
    R's key dict: with eigenvalue-1 flags that mark only the element at
    stack position 5 of central-a4, which maps to an element of order 3 in
    H/R(H) = A4, the subgroup it generates is not normal, and NotNormal is
    raised."""
    group = central_product_examples("a4")
    assert eigenvalue_one_subgroup(group) is eigenvalue_one_subgroup(group)
    fresh = MatrixGroup(group.spec, group.d, group.generators)
    monkeypatch.setattr(matgrp, "_fixes_a_vector", lambda stack, p: np.arange(len(stack)) == 5)
    with pytest.raises(NotNormal):
        eigenvalue_one_subgroup(fresh)


def test_matrix_record_checks_normality_once(monkeypatch):
    """matrix_record on central-a4 keys the conjugates g^-1*k*g (g a
    generator of H, k one of R(H)) once, in R(H)'s one build: the index
    check and the quotient read R(H) from H.  Each of the three used to
    run the check again."""
    built = central_product_examples("a4")
    oracle = MatrixGroup(built.spec, built.d, built.generators)
    r = eigenvalue_one_subgroup(oracle)
    conjugates = [_digit_matrix(g.inverse() * k * g) for g in oracle.generators for k in r.generators]
    expected = oracle._keys(np.array(conjugates))
    group = MatrixGroup(built.spec, built.d, built.generators)
    keyed, real = [], MatrixGroup._keys
    monkeypatch.setattr(MatrixGroup, "_keys", lambda self, stack: keyed.append(real(self, stack)) or keyed[-1])
    record = matrix_record(group)
    assert sum(keys == expected for keys in keyed) == 1
    assert record["r_order"] == 44 and record["index"] == 12


def test_matrix_refuses_non_integer_entries():
    """An entry that is not an integer raises ValueError at construction:
    int() truncated 1.7 to 1, so [[1.7, 0], [0, 1]] became the identity.
    numpy integers are taken and stored as int."""
    for rows in ([[1.7, 0], [0, 1]], [[1.0, 0], [0, 1]], [["1", 0], [0, 1]]):
        with pytest.raises(ValueError, match="entries must be integers"):
            FFMatrix(GF5, rows)
    m = FFMatrix(GF5, np.array([[1, 2], [0, 1]], dtype=np.int64))
    assert m.rows == ((1, 2), (0, 1)) and all(type(e) is int for row in m.rows for e in row)
    assert MatrixGroup(GF5, 2, [np.array([[1, 1], [0, 1]], dtype=np.uint8)]).order() == 5


def test_matrix_refuses_a_non_square_shape_and_entries_out_of_range():
    with pytest.raises(ValueError, match="matrix must be square"):
        FFMatrix(GF5, [[1, 0]])
    with pytest.raises(ValueError, match="out of range"):
        FFMatrix(GF5, [[5, 0], [0, 1]])


def test_products_across_fields_are_refused():
    with pytest.raises(FieldMismatch):
        FFMatrix.identity(GF5, 2) * FFMatrix.identity(GF3, 2)
    with pytest.raises(FieldMismatch):
        central_product(quaternion_gl2(GF5), quaternion_gl2(GF3))


def test_named_subgroups_refuse_parameters_outside_their_range():
    with pytest.raises(ConstraintViolated, match="odd characteristic"):
        quaternion_gl2(field(2, 1))
    with pytest.raises(ConstraintViolated, match="at least 3"):
        dihedral_gl2(GF5, 2)


def test_matrix_record_does_not_import_numpy_ma():
    """np.unique imports numpy.ma on first use (22.5 ms); the eigenvalue-1
    subgroup's closure dedups by key dict instead."""
    script = (
        "import sys\n"
        "from derangements.families import central_product_examples\n"
        "from derangements.suite import matrix_record\n"
        "matrix_record(central_product_examples('a4'))\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr

def test_gl23_order_and_eigenvalue_subgroup():
    g = general_linear_gl2(GF3)
    assert g.order() == 48
    r = eigenvalue_one_subgroup(g)
    assert r.order() == 48
    assert g.order() // r.order() == 1


def test_eigenvalue_one_subgroup_shares_the_stack_only_when_full():
    """R(GL(2,3)) = GL(2,3) holds H's own stack, not a copy.  A proper R,
    R(central-klein), holds its own stack and key dict, and its elements
    are those of the Python closure of its generators."""
    gl = general_linear_gl2(GF3)
    assert eigenvalue_one_subgroup(gl).digit_stack() is gl.digit_stack()
    klein = central_product_examples("klein")
    r = eigenvalue_one_subgroup(klein)
    assert r.order() < klein.order()
    assert r.digit_stack() is not klein.digit_stack() and r._position is not klein._position
    assert set(r._position) == set(r._keys(r.digit_stack())) and len(r._position) == r.order()
    assert {m.rows for m in _elements(r)} == {m.rows for m in _closure_python(r)}


def test_scalar_group_eigenvalue_subgroup_trivial():
    h = scalar_matrix_group(GF5, 2)
    assert h.order() == 4
    r = eigenvalue_one_subgroup(h)
    assert r.order() == 1
    assert h.order() // r.order() == 4
    # no non-identity scalar fixes a nonzero vector
    assert r.generators == ()
    assert not any(has_eigenvalue_one(m) for m in _elements(h)[1:])
    report = index_bound_check(h)
    assert report.index == 4 and report.bound == 24
    assert report.index_ok and report.semiregular


def test_semiregular_false_with_transvections():
    """A transvection of GL(2,3) fixes e_0 outside the centre {+-I}, so
    the oracles find GL(2,3)/{+-I} not semiregular on the centre's orbits.
    Over GF(5), sub = <diag(1, g)> is all of H_{e_0} for H = <diag(g, 1),
    diag(1, g)>, but H_{e_1} = <diag(g, 1)> lies outside sub, so H/sub is
    not semiregular either.  R(H) holds every such element: it is all of
    GL(2,3) and all of H, and the index check reads semiregular, as the
    oracles do on R(H)."""
    g = general_linear_gl2(GF3)
    transvection = FFMatrix(GF3, [[1, 1], [0, 1]])
    centre = MatrixGroup(GF3, 2, [FFMatrix.scalar(GF3, 2, GF3.neg_e(1))])
    assert has_eigenvalue_one(transvection) and transvection in g
    assert transvection not in centre
    assert _index_bound_python(g, centre).semiregular is False
    assert _semiregular_outside(g, centre) is False
    x = GF5.primitive_element()
    h = MatrixGroup(GF5, 2, [[[x, 0], [0, 1]], [[1, 0], [0, x]]])
    sub = MatrixGroup(GF5, 2, [[[1, 0], [0, x]]])
    assert _index_bound_python(h, sub).semiregular is False
    assert _semiregular_outside(h, sub) is False
    for group in (g, h):
        r = eigenvalue_one_subgroup(group)
        assert r.order() == group.order()
        report = index_bound_check(group)
        assert report.semiregular is True
        assert report == _index_bound_python(group, r)
        assert _semiregular_outside(group, r) is True


def _assert_witness(group, witness):
    """The witness is a proper nonzero subspace in reduced echelon form,
    invariant under every generator."""
    spec, rows = group.spec, [list(r) for r in witness]
    assert 0 < len(rows) < group.d
    assert echelonize(spec, rows)[0] == rows
    for g in group.generators:
        assert echelonize(spec, rows + [list(g.apply_row(r)) for r in rows])[0] == rows


def _assert_decided(group):
    """irreducibility gives the sweep's verdict, and a witness exactly when
    the group is reducible; returns the verdict."""
    flag, witness = irreducibility(group)
    assert flag == _irreducibility_python(group)[0]
    if flag:
        assert witness is None
    else:
        _assert_witness(group, witness)
    return flag


def test_irreducibility_diagonal_witness():
    h = MatrixGroup(GF5, 2, [FFMatrix(GF5, [[2, 0], [0, 3]])])
    flag, witness = irreducibility(h)
    assert not flag
    assert witness == [(1, 0)]


def test_irreducibility_torus_plus_swap():
    h = dihedral_gl2(GF5, 4)
    assert is_irreducible(h)


def _differential_groups():
    """Groups over prime and prime-power fields: named ones, plus seeded
    random generator sets of at most 300 elements."""
    rng = random.Random(20)
    for p, f in ((2, 1), (3, 1), (5, 1), (13, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3)):
        spec = field(p, f)
        yield scalar_matrix_group(spec, 2)
        yield MatrixGroup(spec, 2, [FFMatrix(spec, [[1, 1], [0, 1]])])
        if spec.order % 2:
            yield quaternion_gl2(spec)
        if spec.order <= 9:
            yield general_linear_gl2(spec)
        for d in (2, 3):
            if spec.order**d > 1000:
                continue
            for ngens in (1, 2):
                group = MatrixGroup(spec, d, [_random_invertible(rng, spec, d) for _ in range(ngens)])
                try:
                    group.digit_stack(cap=300)
                except CapExceeded:
                    continue
                yield group


def _singer_cycle(p, d):
    """Multiplication by the least primitive element of GF(p^d) as a d x d
    matrix over GF(p): its digit matrix.  It has no eigenvalue in GF(p)."""
    big = field(p, d)
    return FFMatrix(field(p, 1), _digit_matrix(FFMatrix(big, [[big.primitive_element()]])).tolist())


def _transvections(spec, d):
    """The elementary transvections I + E_ij, i != j; over GF(p) they
    generate SL(d,p), and each fixes a hyperplane."""
    return [
        FFMatrix(spec, [[int(r == c or (r, c) == (i, j)) for c in range(d)] for r in range(d)])
        for i in range(d)
        for j in range(d)
        if i != j
    ]


def _transposed_spin_only():
    """U = <e_0, e_1> is the one proper invariant subspace: B = [[0, 1],
    [3, 0]] acts on it irreducibly (x^2 + 2 has no root mod 5), g = [[B,
    0], [c, 1]] has the factor x - 1 of least degree, and its eigenvector
    (4, 1, 1) lies outside U.  The transvection t moves that vector by e_0,
    so it spins to V, and only the transposed spin finds U."""
    g = FFMatrix(GF5, [[0, 1, 0], [3, 0, 0], [1, 2, 1]])
    t = FFMatrix(GF5, [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    return MatrixGroup(GF5, 3, [g, t])


def _singer_plane(spec):
    """Multiplication by the least primitive element of GF(q^2), as a 2 x 2
    matrix over GF(q)."""
    big, matrix = _quadratic_plane(spec)
    return matrix(lambda w: big.mul_e(w, big.primitive_element()))


# name -> (irreducible, build)
_MEATAXE_GROUPS = {
    # irreducible, but not absolutely: no generator has an eigenvalue in GF(q)
    "singer-2-5": (True, lambda: MatrixGroup(GF5, 2, [_singer_cycle(5, 2)])),
    "singer-2-9": (True, lambda: MatrixGroup(field(3, 2), 2, [_singer_plane(field(3, 2))])),
    "singer-4-3": (True, lambda: MatrixGroup(GF3, 4, [_singer_cycle(3, 4)])),
    # every generator eigenspace has dimension d - 1
    "sl3-3": (True, lambda: MatrixGroup(GF3, 3, _transvections(GF3, 3))),
    "sl3-4": (True, lambda: MatrixGroup(field(2, 2), 3, _transvections(field(2, 2), 3))),
    "sl4-2": (True, lambda: MatrixGroup(field(2, 1), 4, _transvections(field(2, 1), 4))),
    # every subspace is invariant
    "trivial-2": (False, lambda: MatrixGroup(GF5, 2, [FFMatrix.identity(GF5, 2)])),
    "trivial-4": (False, lambda: MatrixGroup(GF3, 4, [FFMatrix.identity(GF3, 4)])),
    # V is the sum of two isomorphic irreducible modules
    "sl2-3-tensor-identity": (False, lambda: MatrixGroup(
        GF3, 4, [kronecker(g, FFMatrix.identity(GF3, 2)) for g in special_linear_gl2(GF3).generators]
    )),
    "transposed-spin-only": (False, _transposed_spin_only),
}


@pytest.mark.parametrize("name", list(_MEATAXE_GROUPS))
def test_decision_on_groups_generator_eigenspaces_miss(name):
    """Groups that Norton's criterion on a generator eigenspace could not
    decide: Singer cycles, SL(d,q) from transvections, the trivial group,
    a tensor A (x) I, and a reducible group whose points of N all spin to V.
    Each gets the sweep's verdict and, when reducible, a sound witness."""
    irreducible, build = _MEATAXE_GROUPS[name]
    group = build()
    assert _assert_decided(group) == irreducible
    if name == "transposed-spin-only":
        g = group.generators[0]
        assert g.apply_row((4, 1, 1)) == (4, 1, 1)
        assert len(_spin(GF5, 3, group.generators, [4, 1, 1])) == 3
        assert irreducibility(group)[1] == [(1, 0, 0), (0, 1, 0)]


def test_one_generator_group_over_gf256_matches_the_sweep():
    """The one-generator group in GL(2,2^16) whose verdict took the sweep
    about 20 s, built the same way over GF(2^8): its generator is the first
    invertible matrix drawn by random.Random(5).  Its 257 projective points
    keep the oracle fast."""
    spec = field(2, 8)
    _assert_decided(MatrixGroup(spec, 2, [_random_invertible(random.Random(5), spec, 2)]))


def test_irreducibility_paths_agree():
    """The numpy digit-vector paths against the Python loops, over GF(4),
    GF(8), GF(9), GF(25) and GF(27) as well as prime fields; the closure,
    eigenvalue-1 and coset oracles on the groups of order at most 1000."""
    seen = set()
    for group in _differential_groups():
        seen.add((group.spec.order, is_irreducible(group)))
        if group.order() <= 1000:
            _assert_batched_paths_match(group)
        sub = eigenvalue_one_subgroup(group)
        assert _orbit_labels(sub).tolist() == _orbit_labels_python(sub)
        report = index_bound_check(group)
        assert report == _index_bound_python(group, sub) == _index_bound_walk(group, sub)
    assert {q for q, _ in seen} >= {4, 8, 9, 25, 27}
    assert {flag for _, flag in seen} == {True, False}


def test_every_group_is_decided_and_spins_match():
    """Every differential group is decided, irreducible or not, with the
    sweep's verdict and a sound witness.  The spin under the generators and
    under their transposes equals the spin that re-echelonizes the whole
    span per image."""
    rng = random.Random(23)
    verdicts = Counter()
    for group in _differential_groups():
        spec, d = group.spec, group.d
        verdicts[_assert_decided(group)] += 1
        transposes = [FFMatrix(spec, zip(*g.rows)) for g in group.generators]
        for _ in range(3):
            v = index_to_vector(spec, d, rng.randrange(spec.order**d))
            for gens in (group.generators, transposes):
                assert _spin(spec, d, gens, v) == _spin_python(spec, gens, v)
    assert verdicts[True] > 0 and verdicts[False] > 0


def _no_labels(*args):
    raise AssertionError("orbit labels were computed")


_POOL_GROUPS = {
    "central-a4": lambda: central_product_examples("a4"),
    "central-a5": lambda: central_product_examples("a5"),
    "central-klein": lambda: central_product_examples("klein"),
    "dihedral-family-7": lambda: dihedral_quotient_family(7),
    "dihedral-family-19": lambda: dihedral_quotient_family(19),
    "gl2-5": lambda: general_linear_gl2(GF5),
    "dihedral-25-26": lambda: dihedral_gl2(field(5, 2), 26),
    "dihedral-27-28": lambda: dihedral_gl2(field(3, 3), 28),
}


@pytest.mark.parametrize("name", list(_POOL_GROUPS))
def test_pool_groups_are_irreducible_without_orbit_labels(name, monkeypatch):
    """Every group of the matrix benchmark pool but the scalar ones is
    irreducible, and a fresh copy (no cached verdict) is decided without
    PermGroup.orbits."""
    built = _POOL_GROUPS[name]()
    group = MatrixGroup(built.spec, built.d, built.generators)
    monkeypatch.setattr(PermGroup, "orbits", _no_labels)
    assert irreducibility(group) == (True, None)


_WALKED_POOL_GROUPS = {name: build for name, build in _POOL_GROUPS.items() if name != "central-a5"} | {
    "scalars-27-2": lambda: scalar_matrix_group(field(3, 3), 2),
    "scalars-8-3": lambda: scalar_matrix_group(field(2, 3), 3),
}


@pytest.mark.parametrize("name", list(_WALKED_POOL_GROUPS))
def test_pool_index_bounds_match_the_vector_walk(name):
    """Every group of the matrix benchmark pool with q^d within
    SEMIREGULAR_VECTOR_CAP (all but central-a5) gets the q^d vector walk's
    report over R(H), and the Python loop's on at most 1000 vectors."""
    group = _WALKED_POOL_GROUPS[name]()
    sub = eigenvalue_one_subgroup(group)
    assert group.spec.order**group.d <= matgrp.SEMIREGULAR_VECTOR_CAP
    report = index_bound_check(group)
    assert report == _index_bound_walk(group, sub)
    if group.spec.order**group.d <= 1000:
        assert report == _index_bound_python(group, sub)


def test_index_bound_check_walks_no_vectors(monkeypatch):
    """central-a4 (279 841 vectors) and the GL(2,31) Singer cycle get the
    walk's reports from the eigenvalue-1 flags, with no vector labelled:
    without PermGroup.orbits.  Their
    R(H) is proper, and the check looks H's eigenvalue-1 keys up in its
    dict, without running the elimination again."""
    cases = [
        (central_product_examples("a4"), IndexBoundReport(12, 279840, True, True)),
        (MatrixGroup(field(31, 1), 2, [_singer_cycle(31, 2)]), IndexBoundReport(960, 960, True, True)),
    ]
    monkeypatch.setattr(PermGroup, "orbits", _no_labels)
    subs = []
    for built, expected in cases:
        group = MatrixGroup(built.spec, built.d, built.generators)
        subs.append((group, eigenvalue_one_subgroup(group), expected))

    def refuse(*args):
        raise AssertionError("R(H)'s elements were eliminated again")

    monkeypatch.setattr(matgrp, "_fixes_a_vector", refuse)
    for group, sub, expected in subs:
        assert sub.order() < group.order()
        assert index_bound_check(group) == expected


def test_matrix_record_flags_eigenvalue_one_once(monkeypatch):
    """matrix_record on central-a4 runs the eigenvalue-1 elimination once,
    over all 528 elements: R(H) is proper, so eigenvalue_one_subgroup's scan
    flags every block and keeps the flags on H, and index_bound_check reads
    them (before the kept flags, the second call redid the 484 elements
    outside R(H))."""
    built = central_product_examples("a4")
    group = MatrixGroup(built.spec, built.d, built.generators)
    calls, _ = _counting_blocks(monkeypatch)
    record = matrix_record(group)
    assert calls == [528]
    assert record["index"] == 12 and record["semiregular"] is True


def test_index_bound_check_locates_nothing_when_sub_is_the_group():
    """R(H) = H for GL(2,5) and GL(2,4): no element lies outside sub, which
    holds H's own stack and key dict, and the report is the walk's."""
    cases = []
    for spec in (GF5, field(2, 2)):
        group = general_linear_gl2(spec)
        sub = eigenvalue_one_subgroup(group)
        assert sub.order() == group.order()
        assert sub.digit_stack() is group.digit_stack() and sub._position is group._position
        cases.append((group, sub, _index_bound_walk(group, sub)))
    for group, sub, walked in cases:
        assert index_bound_check(group) == walked
        assert walked.index == 1 and walked.semiregular is True


def test_semiregularity_from_counts_matches_the_outside_mask(monkeypatch):
    """On the matrix benchmark pool, the paper's matrix groups, GL(2,3) and
    GL(2,4), looking H's eigenvalue-1 keys up in R(H)'s dict (and, before
    that, equal eigenvalue-1 counts of H and R(H)) decides semiregularity
    as the outside mask did.  The vector cap is lifted, since the lookup
    labels no vector."""
    paper = [build_family(sc.params) for sc in suite.PAPER_SCENARIOS if sc.kind == "mat"]
    paper += [suite._MAT_BUILDERS[sc.mat_id]() for sc in suite.PAPER_SCENARIOS if sc.kind == "bridge"]
    groups = [build() for build in _WALKED_POOL_GROUPS.values()] + [central_product_examples("a5")]
    groups += paper + [general_linear_gl2(GF3), general_linear_gl2(field(2, 2))]
    monkeypatch.setattr(matgrp, "SEMIREGULAR_VECTOR_CAP", float("inf"))
    decided = Counter()
    for group in groups:
        semiregular = index_bound_check(group).semiregular
        assert semiregular is _semiregular_outside(group, eigenvalue_one_subgroup(group)), group
        decided[semiregular] += 1
    assert decided == {True: len(groups)}


def test_semiregular_is_none_past_the_vector_cap():
    """central-a5 has 59^4 vectors, past SEMIREGULAR_VECTOR_CAP, so its
    report leaves semiregular None, as its pinned record does."""
    group = central_product_examples("a5")
    assert 59**4 > matgrp.SEMIREGULAR_VECTOR_CAP
    assert index_bound_check(group) == IndexBoundReport(60, 59**4 - 1, True, None)


def test_irreducibility_never_labels_orbits(monkeypatch):
    """Every group above that generator eigenspaces miss gets its known
    verdict, and every differential group the sweep's, without
    PermGroup.orbits."""
    expected = [(build(), flag) for flag, build in _MEATAXE_GROUPS.values()]
    expected += [(group, _irreducibility_python(group)[0]) for group in _differential_groups()]
    monkeypatch.setattr(PermGroup, "orbits", _no_labels)
    for built, flag in expected:
        assert irreducibility(MatrixGroup(built.spec, built.d, built.generators))[0] == flag


def test_a_random_draw_spares_central_a5_the_fallback(monkeypatch):
    """No generator of central-a5 gives a theta with dim N = deg f, and its
    first random group-algebra element does: the decision spins a
    generator's point, the draw's point and w, not the 60 points of the
    least generator N."""
    built = central_product_examples("a5")
    group = MatrixGroup(built.spec, built.d, built.generators)
    spins = []
    monkeypatch.setattr(matgrp, "_spin", lambda *args: spins.append(args) or _spin(*args))
    assert irreducibility(group) == (True, None)
    assert len(spins) == 3


@pytest.mark.parametrize("repeated", ["identity", "first-generator"])
def test_all_of_p_n_decides_for_any_singular_theta(repeated, monkeypatch):
    """With every a the same, no draw can help: the decision spins w and
    every point of P(N), for N = V (theta = 0) or a generator's N, and
    still gives the sweep's verdict on every differential group and every
    group above that generator eigenspaces miss."""
    groups = [build() for _, build in _MEATAXE_GROUPS.values()] + list(_differential_groups())

    def same(group, rng):
        if repeated == "identity" or not group.generators:
            return itertools.repeat(FFMatrix.identity(group.spec, group.d))
        return itertools.repeat(group.generators[0])

    monkeypatch.setattr(matgrp, "_algebra_elements", same)
    for group in groups:
        _assert_decided(MatrixGroup(group.spec, group.d, group.generators))


def test_block_triangular_and_scalar_witnesses():
    """Block upper-triangular generators keep the span of the last two
    coordinates, and a scalar group keeps every subspace; both witnesses
    are the sweep's."""
    spec = field(7, 1)
    rng = random.Random(7)
    gens = []
    for _ in range(2):
        a, b = _random_invertible(rng, spec, 1), _random_invertible(rng, spec, 2)
        top = [a.rows[0][0], rng.randrange(7), rng.randrange(7)]
        gens.append(FFMatrix(spec, [top, [0, *b.rows[0]], [0, *b.rows[1]]]))
    reducible = MatrixGroup(spec, 3, gens)
    scalars = scalar_matrix_group(field(3, 2), 3)
    for group in (reducible, scalars):
        assert not _assert_decided(group)
        assert irreducibility(group) == _irreducibility_python(group)
    assert irreducibility(reducible)[1] == [(0, 1, 0), (0, 0, 1)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), max_size=3))))
@example((1, []))
@example((1, [[0]]))
@example((5, []))
def test_label_hooking_matches_the_gather_and_the_scatter(case):
    """PermGroup.orbits, each orbit labelled by its least point, finds the
    orbit minima that root hooking, the gather through inverse permutations
    and the unbuffered scatter find, with no maps too (the scalar groups'
    R(H) has no generator): every label is at most its point and is its
    own label."""
    n, perms = case
    images = [np.array(perm, dtype=np.int64) for perm in perms]
    labels = _propagate_min_labels(n, images)
    assert labels.tolist() == _propagate_min_labels_gather(n, images).tolist()
    assert labels.tolist() == _propagate_min_labels_scatter(n, images).tolist()
    least = list(range(n))
    for orbit in PermGroup(n, perms).orbits():
        for x in orbit:
            least[x] = orbit[0]
    assert labels.tolist() == least
    assert (labels <= np.arange(n)).all()
    assert (labels[labels] == labels).all()


def test_labels_of_a_long_cycle():
    """One random cycle on 100 000 points is one orbit, to root hooking
    and to PermGroup.orbits.  Its diameter is no cost to either; the
    gather, a few steps per pass, took over a minute."""
    n = 100_000
    order = np.random.default_rng(27).permutation(n)
    img = np.empty(n, dtype=np.int64)
    img[order] = np.roll(order, -1)
    assert (_propagate_min_labels(n, [img]) == 0).all()
    assert PermGroup(n, [img.tolist()]).orbits() == [list(range(n))]


def test_singer_cycle_index_bound():
    """A Singer cycle of GL(2,31) moves the 960 nonzero vectors in one
    cycle, and only the identity fixes one, so R(H) is trivial and H/R(H)
    is regular on its orbits."""
    group = MatrixGroup(field(31, 1), 2, [_singer_cycle(31, 2)])
    sub = eigenvalue_one_subgroup(group)
    report = index_bound_check(group)
    assert report == IndexBoundReport(index=960, bound=960, index_ok=True, semiregular=True)
    assert report == _index_bound_walk(group, sub)
    assert _orbit_labels(group).tolist() == _orbit_labels_python(group)


def test_over_cap_quotient_is_refused_before_a_chain(monkeypatch, tmp_path, capsys):
    """A Singer cycle of GL(2,101) has R(H) = 1 and index 10 200, past the
    fingerprint cap.  quotient_perm_group refuses it from |H : R(H)|
    before any quotient is formed, from the library and from a dumped
    file."""
    group = MatrixGroup(field(101, 1), 2, [_singer_cycle(101, 2)])
    called, real = [], suite.quotient_perm_group
    monkeypatch.setattr(suite, "quotient_perm_group", lambda *args: called.append(args) or real(*args))

    def no_quotient(*args):
        raise AssertionError("a quotient was formed")

    monkeypatch.setattr(matgrp, "PermGroup", no_quotient)
    with pytest.raises(CapExceeded, match="got 10200$"):
        matrix_record(group)
    path = tmp_path / "singer-101.group"
    path.write_text(dump_matrix_group(group))
    assert main(["analyze", str(path)]) == 2
    assert "got 10200" in capsys.readouterr().err
    assert len(called) == 2


def test_quotient_past_the_chain_budget_is_refused_by_the_fingerprint_cap(monkeypatch, tmp_path, capsys):
    """A Singer cycle of GL(2,97) has R(H) = 1 and index 9 408, within the
    old fingerprint cap of 10 000, so its regular quotient's chain of
    9 408^2 entries was built until CHAIN_SLOTS refused it (2.4 s, 547
    MB).  DEGREE_CAP is the largest order whose chain fits, 8 192, and it
    refuses the record and the dumped file with no chain built."""
    assert derange.DEGREE_CAP == math.isqrt(permgrp.CHAIN_SLOTS) == 8192

    def no_chain(self):
        raise AssertionError("a stabilizer chain was built")

    monkeypatch.setattr(PermGroup, "_chain", no_chain)
    group = MatrixGroup(field(97, 1), 2, [_singer_cycle(97, 2)])
    with pytest.raises(CapExceeded, match="fingerprint needs order <= 8192, got 9408$"):
        matrix_record(group)
    path = tmp_path / "singer-97.group"
    path.write_text(dump_matrix_group(group))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == "error: fingerprint needs order <= 8192, got 9408\n"


def test_quotient_blocks_and_generators_match_root_hooking():
    """For every group of the matrix benchmark pool and the matrix and
    bridge sides of the paper scenarios, H/R(H), walked over the
    translates of e_0*R(H), acts on as many blocks as root hooking's labels
    have classes on e_0's orbit, and its generators are those the hooking
    labels give; so every quotient, fingerprint and pin stays."""
    groups = [build() for build in {**_POOL_GROUPS, **_WALKED_POOL_GROUPS}.values()]
    groups += [build_family(sc.params) for sc in PAPER_SCENARIOS if sc.kind == "mat"]
    groups += [_MAT_BUILDERS[sc.mat_id]() for sc in PAPER_SCENARIOS if sc.kind == "bridge"]
    for group in groups:
        _assert_quotient_matches_hooking(group, eigenvalue_one_subgroup(group))


def test_quotients_carry_the_order_a_chain_finds():
    """H/R(H), for every group of the matrix benchmark pool and the matrix
    side of every paper scenario, carries the order its block count proves,
    with no chain built; a chain built from its generators finds the same."""
    groups = [build() for build in {**_POOL_GROUPS, **_WALKED_POOL_GROUPS}.values()]
    groups += [build_family(sc.params) for sc in PAPER_SCENARIOS if sc.kind == "mat"]
    groups += [_MAT_BUILDERS[sc.mat_id]() for sc in PAPER_SCENARIOS if sc.kind == "bridge"]
    for group in groups:
        sub = eigenvalue_one_subgroup(group)
        quotient = quotient_perm_group(group)
        assert quotient._levels is None
        assert quotient.order() == group.order() // sub.order()
        assert quotient.order() == PermGroup(quotient.degree, quotient.generators).order()


_DIFFERENTIAL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2), (3, 3)]


def _small_order_matrix(rng, spec, d, a):
    """A random invertible matrix of order at most 12, or else the
    conjugate by a of a random signed permutation matrix."""
    m = _random_invertible(rng, spec, d)
    power = m
    for _ in range(12):
        if power.is_identity():
            return m
        power = power * m
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice((1, spec.neg_e(1))) for _ in range(d)]
    shape = FFMatrix(spec, [[signs[i] if perm[i] == j else 0 for j in range(d)] for i in range(d)])
    return (a.inverse() * shape) * a


@st.composite
def _small_matrix_groups(draw):
    """A group of order at most 400 over GF(2) to GF(27) in dimension 1
    to 4, generated by up to three matrices of order at most 12 (the last
    ones are dropped while the closure exceeds 400).  The signed
    permutation matrices share one conjugator, so they generate a
    conjugate of a monomial group."""
    p, f = draw(st.sampled_from(_DIFFERENTIAL_FIELDS))
    spec = field(p, f)
    d = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    a = _random_invertible(rng, spec, d)
    gens = [_small_order_matrix(rng, spec, d, a) for _ in range(draw(st.integers(1, 3)))]
    while True:
        group = MatrixGroup(spec, d, gens)
        try:
            group.digit_stack(cap=400)
            break
        except CapExceeded:
            gens.pop()
    return group


@settings(max_examples=100, deadline=None)
@given(_small_matrix_groups())
def test_batched_matrix_paths_match_python_oracles(group):
    """Closure order, eigenvalue-1 flags, R(H)'s generators and elements,
    right cosets and the quotient action equal the Python oracles' over
    prime and prime-power fields."""
    _assert_batched_paths_match(group)


def test_irreducibility_is_cached():
    h = dihedral_gl2(GF5, 4)
    first = irreducibility(h)
    assert h._irreducibility is not None
    assert irreducibility(h) == first
    reducible = MatrixGroup(GF5, 2, [FFMatrix(GF5, [[2, 0], [0, 3]])])
    witness = irreducibility(reducible)[1]
    witness.append((0, 1))
    assert irreducibility(reducible) == (False, [(1, 0)])


@st.composite
def _random_matrix_groups(draw):
    p, f, d = draw(st.sampled_from([(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 2, 2)]))
    spec = field(p, f)
    entries = st.lists(st.integers(0, spec.order - 1), min_size=d, max_size=d)
    gens = [FFMatrix(spec, draw(st.lists(entries, min_size=d, max_size=d))) for _ in range(draw(st.integers(1, 3)))]
    assume(all(g.det() for g in gens))
    return MatrixGroup(spec, d, gens)


@settings(max_examples=40, deadline=None)
@given(_random_matrix_groups())
def test_eigenvalue_one_subgroup_contains_every_fixer(group):
    try:
        group.digit_stack(cap=1000)
    except CapExceeded:
        assume(False)
    elements = _elements(group)
    sub = eigenvalue_one_subgroup(group)
    assert all(has_eigenvalue_one(g) for g in sub.generators)
    assert all(m in sub for m in elements if has_eigenvalue_one(m))
    # R(H) shares H's store exactly when it is H, and holds nothing outside its closure
    assert (sub.digit_stack() is group.digit_stack()) == (sub.order() == group.order())
    inside = {m.rows for m in _closure_python(sub)}
    assert not any(m in sub for m in elements if m.rows not in inside)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_eigenvalue_one_subgroup_of_gl2_shares_the_stack(monkeypatch, q):
    """R(GL(2,q)) = GL(2,q) shares its stack.  R is closed three times,
    under cap |H|//2, so never to |H| rows: trivial, then <t> and <t, s>
    for H's first two generators.  For GL(2,3) that last closure passes
    |H|/2; from q = 4 on, H's third generator joins R's and completes
    them, with no closure.  H carries its order, so its own stack is closed
    first, outside the count."""
    group = general_linear_gl2(field(*prime_power_decompose(q)))
    group.digit_stack()
    caps, real = [], permgrp.closure

    def capped(start, step, cap):
        caps.append(cap)
        return real(start, step, cap)

    monkeypatch.setattr(permgrp, "closure", capped)
    sub = eigenvalue_one_subgroup(group)
    assert sub.digit_stack() is group.digit_stack() and sub._position is group._position
    assert caps == [group.order() // 2] * 3
    assert sub.generators == group.generators[: 2 if q == 3 else 3]


def test_irreducibility_cap():
    spec = field(2, 1)
    big = MatrixGroup(spec, 25, [FFMatrix.identity(spec, 25)])
    with pytest.raises(CapExceeded):
        irreducibility(big)


def test_kronecker_identity_and_scalars():
    i2 = FFMatrix.identity(GF5, 2)
    assert kronecker(i2, i2) == FFMatrix.identity(GF5, 4)
    prod = kronecker(FFMatrix.scalar(GF5, 2, 2), FFMatrix.scalar(GF5, 2, 3))
    assert prod == FFMatrix.identity(GF5, 4)  # 2*3 = 6 = 1 mod 5


def test_kronecker_block_layout():
    a = FFMatrix(GF5, [[2, 0], [0, 3]])
    b = FFMatrix(GF5, [[0, 1], [1, 0]])
    expected = FFMatrix(
        GF5,
        [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0]],
    )
    assert kronecker(a, b) == expected


def test_kronecker_mixed_fields_rejected():
    with pytest.raises(FieldMismatch):
        kronecker(FFMatrix.identity(GF5, 2), FFMatrix.identity(GF3, 2))


def test_kronecker_eigenvalue_product():
    # x has eigenvalue 2, y has eigenvalue 3 = 2^-1 mod 5, so the product
    # picks up eigenvalue 1
    x = FFMatrix(GF5, [[2, 0], [0, 4]])
    y = FFMatrix(GF5, [[3, 0], [0, 2]])
    assert not has_eigenvalue_one(x) and not has_eigenvalue_one(y)
    assert has_eigenvalue_one(kronecker(x, y))


def test_central_product_of_minus_identity():
    neg = MatrixGroup(GF5, 2, [FFMatrix.scalar(GF5, 2, 4)])
    prod = central_product(neg, neg)
    assert prod.order() == 2


def test_central_product_requires_minus_identity():
    plus = MatrixGroup(GF5, 2, [FFMatrix.identity(GF5, 2)])
    with pytest.raises(ConstraintViolated):
        central_product(plus, plus)


def test_central_product_dihedral_quaternion():
    d12 = dihedral_gl2(GF5, 6)
    q8 = quaternion_gl2(GF5)
    h = central_product(d12, q8)
    assert h.order() == 48  # 12*8/2, sharing only the scalars +-I
    assert is_irreducible(h)


def test_quaternion_search_is_deterministic():
    q8 = quaternion_gl2(GF5)
    assert q8.generators[0] == FFMatrix(GF5, [[0, 1], [4, 0]])
    assert q8.generators[1] == FFMatrix(GF5, [[0, 2], [2, 0]])


def _first_anticommuting_roots(spec):
    """Brute-force oracle: scan 2x2 matrices in row-major encoded order for
    the first square root of -I, then the first root anticommuting with it."""
    minus = FFMatrix.scalar(spec, 2, spec.neg_e(1))
    first = None
    for e in itertools.product(range(spec.order), repeat=4):
        m = FFMatrix(spec, [e[0:2], e[2:4]])
        if m * m != minus:
            continue
        if first is None:
            first = m
        elif first * m == m * first * minus:
            return first, m
    raise AssertionError("no anticommuting pair of roots of -I")


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_quaternion_generators_match_search(q):
    spec = field(3, 2) if q == 9 else field(q, 1)
    assert quaternion_gl2(spec).generators == _first_anticommuting_roots(spec)


def test_binary_tetrahedral():
    group = binary_tetrahedral_gl2(field(23, 1))
    assert group.order() == 24
    assert group.spec.order == 23


@pytest.mark.parametrize("q", [3, 5, 9, 11, 17, 23, 27, 29, 41, 47, 53, 59, 125])
def test_binary_tetrahedral_matches_solved_generator(q):
    spec = field(*prime_power_decompose(q))
    i, j, w = binary_tetrahedral_gl2(spec).generators
    assert w == _tetrahedral_w_solved(spec)
    # w cycles i -> j -> ij by conjugation
    assert w.inverse() * i * w == j and w.inverse() * j * w == i * j


@pytest.mark.parametrize("q", [7, 13, 19, 25, 31])
def test_binary_tetrahedral_without_unique_cube_roots(q):
    """For q = 1 mod 3 the cube-root scaling of the solved generator is
    not unique; the closed form needs none."""
    group = binary_tetrahedral_gl2(field(*prime_power_decompose(q)))
    assert group.order() == 24
    assert group.element_order_histogram() == {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}
    assert group.generators[:2] == quaternion_gl2(group.spec).generators


@pytest.mark.parametrize("q", [9, 19, 29, 49, 59, 79, 89])
def test_binary_icosahedral(q):
    """<w, u> from the Hurwitz unit w of order 3 and the unit u of order 10."""
    group = binary_icosahedral_gl2(field(*prime_power_decompose(q)))
    assert group.order() == 120
    assert [MatrixGroup(group.spec, 2, [g]).order() for g in group.generators] == [3, 10]
    if q == 59:
        assert [g.rows for g in group.generators] == [((41, 41), (40, 17)), ((37, 51), (51, 48))]


def test_binary_icosahedral_needs_q_minus_one_mod_ten():
    for p, f in [(2, 2), (7, 1)]:  # q = 4 is -1 mod 5, but GF(16)* has no order-10 element
        with pytest.raises(ConstraintViolated):
            binary_icosahedral_gl2(field(p, f))


def test_dihedral_split_and_nonsplit():
    d44 = dihedral_gl2(field(23, 1), 22)
    assert d44.order() == 44
    assert d44.contains_minus_identity()
    d12 = dihedral_gl2(GF5, 6)
    assert d12.order() == 12
    assert d12.contains_minus_identity()
    with pytest.raises(ConstraintViolated):
        dihedral_gl2(GF5, 7)  # 7 divides neither 4 nor 6


def test_special_linear_orders():
    assert special_linear_gl2(GF3).order() == 24
    assert special_linear_gl2(GF5).order() == 120


def test_special_linear_refuses_a_prime_power_field_under_optimization():
    """SL(2,q) has natural generators here for prime q only.  A bare assert
    guarded that, so under python -O special_linear_gl2(field(2, 2))
    returned a group of order 6 as SL(2,4); it raises ConstraintViolated
    with or without -O."""
    with pytest.raises(ConstraintViolated, match="prime fields"):
        special_linear_gl2(field(2, 2))
    script = (
        "from derangements.errors import ConstraintViolated\n"
        "from derangements.gf import field\n"
        "from derangements.matgrp import special_linear_gl2\n"
        "try:\n"
        "    special_linear_gl2(field(2, 2))\n"
        "except ConstraintViolated:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("query", ["digit_stack", "in", "element_order_histogram"])
def test_a_wrong_carried_order_raises_when_the_stack_is_closed(query):
    """order() returns a carried order with no stack built; the stack, closed
    by any query that reads it, must agree with it."""
    group = MatrixGroup(GF3, 2, general_linear_gl2(GF3).generators, order=47)
    assert group.order() == 47 and group._stack is None
    run = {
        "digit_stack": MatrixGroup.digit_stack,
        "in": lambda g: FFMatrix.identity(GF3, 2) in g,
        "element_order_histogram": MatrixGroup.element_order_histogram,
    }[query]
    with pytest.raises(ConstraintViolated, match="the stack has order 48, the group carries 47"):
        run(group)
    assert group._stack is None


def test_a_wrong_carried_order_raises_under_optimization():
    """The checks are raises, not asserts, so python -O keeps them."""
    script = (
        "import sys\n"
        "from derangements.errors import ConstraintViolated\n"
        "from derangements.gf import field\n"
        "from derangements.matgrp import MatrixGroup, general_linear_gl2\n"
        "from derangements.permgrp import PermGroup, symmetric_group\n"
        "assert not __debug__ and sys.flags.optimize\n"
        "gl = general_linear_gl2(field(3, 1))\n"
        "for build in (lambda: PermGroup(3, symmetric_group(3).generators, order=5).stabilizer(),\n"
        "              lambda: MatrixGroup(gl.spec, 2, gl.generators, order=47).digit_stack()):\n"
        "    try:\n"
        "        build()\n"
        "    except ConstraintViolated:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_gl2_and_its_affine_group_carry_their_orders_unbuilt(monkeypatch):
    """GL(2,27) carries (q^2 - 1)(q^2 - q) with no stack, and affine-gl2 27
    reads q^2 * |GL(2,27)| from it with no stack or chain built."""
    gl = general_linear_gl2(field(3, 3))
    assert gl._stack is None and gl.order() == 511056 and gl._stack is None

    def refuse(*args, **kwargs):
        raise AssertionError("a stack or chain was built")

    monkeypatch.setattr(permgrp, "closure", refuse)
    monkeypatch.setattr(permgrp, "_grow", refuse)
    group = build_family(FamilyParams("affine-gl2", (27,)))
    assert group.order() == 729 * 511056 and group._levels is None


QUADRATIC_BASES = [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]


def test_quadratic_extension_contracts():
    """Over GF(q) for q = 3, 4, 5, 7, 9, 25, 27: u -> matrix(.u) is a
    homomorphism, the Frobenius matrix is a non-identity involution, and
    it conjugates matrix(.u) to matrix(.u^q)."""
    for p, f in QUADRATIC_BASES:
        base = field(p, f)
        q = base.order
        big, matrix = _quadratic_plane(base)
        assert big is field(p, 2 * f)
        mult = {u: matrix(lambda w, u=u: big.mul_e(w, u)) for u in range(1, big.order)}
        frob = matrix(lambda w: big.pow_e(w, q))
        assert (frob * frob).is_identity()
        assert not frob.is_identity()
        assert mult[1].is_identity()
        rng = random.Random(q)
        for u in range(1, big.order):
            for v in rng.sample(range(1, big.order), 4):
                assert mult[u] * mult[v] == mult[big.mul_e(u, v)]
            assert (frob.inverse() * mult[u]) * frob == mult[big.pow_e(u, q)]


def test_quadratic_extension_element_orders():
    """The torus element g^((q^2-1)/m) gives a rotation of order m for
    every m | q^2-1, and matrix(.u) has the order of u."""
    for p, f in QUADRATIC_BASES:
        base = field(p, f)
        q = base.order
        big, matrix = _quadratic_plane(base)
        g = big.primitive_element()
        for m in (m for m in range(2, q * q) if (q * q - 1) % m == 0):
            u = big.pow_e(g, (q * q - 1) // m)
            assert big.multiplicative_order_e(u) == m
            assert _order_python(matrix(lambda w: big.mul_e(w, u))) == m


def test_quadratic_extension_over_gf9():
    """The embedding of GF(q) for f > 1 (GF(9), GF(25), GF(27)): the
    Frobenius-fixed elements of GF(q^2) act as the scalars c*I, and x -> c
    is a field isomorphism onto the codes of GF(q)."""
    for p, f in [(3, 2), (5, 2), (3, 3)]:
        base = field(p, f)
        q = base.order
        big, matrix = _quadratic_plane(base)
        fixed = [x for x in range(big.order) if big.pow_e(x, q) == x]
        assert len(fixed) == q
        image = {}
        for x in fixed:
            m = matrix(lambda w: big.mul_e(w, x))
            assert m == FFMatrix.scalar(base, 2, m.rows[0][0])
            image[x] = m.rows[0][0]
        assert sorted(image.values()) == list(range(q))
        for x, y in itertools.product(fixed, repeat=2):
            assert image[big.add_e(x, y)] == base.add_e(image[x], image[y])
            assert image[big.mul_e(x, y)] == base.mul_e(image[x], image[y])


def test_quotient_perm_group():
    """R(GL(2,3)) is GL(2,3) (transvections and diag(1, -1) generate it),
    so the quotient is trivial.  The scalars of GL(2,5) fix no vector, and
    the quotient by R(H) = 1 is C4 acting regularly.  SL(2,3) in GL(2,5)
    has no element of order 5, so only the identity fixes a vector, and
    its quotient by R(H) = 1 is regular on the 24 nonzero vectors."""
    gl = general_linear_gl2(GF3)
    assert quotient_perm_group(gl).order() == 1
    assert index_bound_check(gl) == IndexBoundReport(1, 8, True, True)
    scalars = scalar_matrix_group(GF5, 2)
    q = quotient_perm_group(scalars)
    assert q.degree == 4 and q.order() == 4 and q.is_transitive()
    tetrahedral = binary_tetrahedral_gl2(GF5)
    q = quotient_perm_group(tetrahedral)
    assert q.degree == 24 and q.order() == 24 and PermGroup(24, q.generators).order() == 24


def test_quotient_walk_refuses_a_subgroup_that_is_not_normal():
    """Handed <swap> as R(H) of dihedral_gl2(GF5, 4), the walk finds that
    it fixes the block {e_0, e_1} but not its translate {2e_0, 3e_1} by the
    rotation diag(2, 3), so <swap> is not normal."""
    dihedral = dihedral_gl2(GF5, 4)
    swap = FFMatrix(GF5, [[0, 1], [1, 0]])
    assert swap in dihedral
    dihedral._eigenvalue_one = MatrixGroup(GF5, 2, [swap])
    with pytest.raises(NotNormal):
        quotient_perm_group(dihedral)


def test_quotient_walk_refuses_a_subgroup_missing_the_stabilizer():
    """Handed the trivial group as R(H) of GL(2,3), which misses H_{e_0},
    the walk finds 8 translates of {e_0}, the nonzero vectors, not
    |H : 1| = 48."""
    gl = general_linear_gl2(GF3)
    gl._eigenvalue_one = MatrixGroup(GF3, 2, [])
    with pytest.raises(ConstraintViolated):
        quotient_perm_group(gl)


def _counting_blocks(monkeypatch):
    """Patch _fixes_a_vector to record the length of each stack it is
    handed; returns that list and the real function."""
    calls, real = [], matgrp._fixes_a_vector

    def counted(stack, p):
        calls.append(len(stack))
        return real(stack, p)

    monkeypatch.setattr(matgrp, "_fixes_a_vector", counted)
    return calls, real


def test_fixes_a_vector_in_blocks(monkeypatch):
    """R(H)'s scan hands the elimination blocks of BLOCK_ENTRIES // k^2
    matrices.  central-klein's R(H) is proper, so the scan reads all of its
    stack, 9 blocks and a short last one, and the flags H keeps are the
    per-matrix test's."""
    built = central_product_examples("klein")
    group = MatrixGroup(built.spec, built.d, built.generators)
    expected = [has_eigenvalue_one(m) for m in _elements(group)]
    assert _fixes_a_vector(group.digit_stack(), 5).tolist() == expected
    assert expected == [_has_eigenvalue_one_python(m) for m in _elements(group)]
    # GF(5)^4's digit matrices are 4 x 4, so 5 * 16 entries are 5 matrices
    monkeypatch.setattr(permgrp, "BLOCK_ENTRIES", 5 * 16)
    calls, _ = _counting_blocks(monkeypatch)
    assert eigenvalue_one_subgroup(group).order() == 12 < group.order() == 48
    assert calls == [5] * 9 + [3]
    assert group._fixes.tolist() == expected


def test_the_scan_flags_only_the_blocks_it_reads(monkeypatch):
    """GL(2,4) and GL(2,5) prove R(H) = H at stack row 3, where R(H)'s
    generators hold H's: the scan flags only the blocks holding rows 0 to
    3, H keeps no flags, and the record is the one with default blocks.
    central-klein and scalars-27-2 have R(H) < H: the scan reads every
    block, and H keeps the flags of its whole stack."""
    records = {spec: matrix_record(general_linear_gl2(spec)) for spec in (field(2, 2), GF5)}
    monkeypatch.setattr(permgrp, "BLOCK_ENTRIES", 5 * 16)
    calls, real = _counting_blocks(monkeypatch)
    for spec, record in records.items():
        group = general_linear_gl2(spec)
        step = max(1, permgrp.BLOCK_ENTRIES // (2 * spec.f) ** 2)
        del calls[:]
        assert matrix_record(group) == record
        assert calls == [step] * -(-4 // step) and sum(calls) < group.order()
        assert group._fixes is None
    for build in (_POOL_GROUPS["central-klein"], _WALKED_POOL_GROUPS["scalars-27-2"]):
        group = build()
        del calls[:]
        r = eigenvalue_one_subgroup(group)
        assert r.order() < group.order() and sum(calls) == group.order()
        assert group._fixes.tolist() == real(group.digit_stack(), group.spec.p).tolist()


def test_vector_index_round_trip():
    spec = field(3, 2)
    for idx in range(spec.order**2):
        v = index_to_vector(spec, 2, idx)
        assert vector_to_index(spec, v) == idx


def test_echelonize_canonical():
    rows, pivots = echelonize(GF5, [[0, 2, 4], [1, 1, 1], [1, 3, 0]])
    assert pivots == [0, 1]
    assert rows[0][0] == 1 and rows[1][1] == 1 and rows[1][0] == 0 and rows[0][1] == 0
