"""Matrix arithmetic, closures, the eigenvalue-1 subgroup, irreducibility,
products, and the GL(2,q) embeddings.  The batched digit-matrix stages are
checked against pure-Python oracles kept here: the breadth-first closure
by FFMatrix products, the echelon eigenvalue-1 test, the per-element coset
walk (for the quotient on sub-orbit blocks and the index check), the
searchsorted projective rank and the spin.  SL(2,3)'s closed-form
generator is checked against the linear solve it replaced."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from derangements import matgrp
from derangements.errors import CapExceeded, ConstraintViolated, FieldMismatch, NotNormal
from derangements.gf import field, prime_power_decompose
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
    has_eigenvalue_one,
    index_bound_check,
    index_to_vector,
    irreducibility,
    is_irreducible,
    kronecker,
    quaternion_gl2,
    quotient_perm_group,
    regular_perm_group,
    scalar_matrix_group,
    special_linear_gl2,
    _fixes_a_vector,
    _orbit_labels,
    _projective_rank,
    _quadratic_plane,
)
from derangements.permgrp import PermGroup, Permutation

GF5 = field(5, 1)
GF3 = field(3, 1)


# reference implementations: one Python loop per vector, one field operation
# per entry --------------------------------------------------------------------


def vector_to_index(spec, v):
    """Index of v in GF(q)^d: sum_j v_j q^j."""
    idx = 0
    for e in reversed(v):
        idx = idx * spec.order + e
    return idx


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
    assert cube.is_scalar()
    lam = cube.rows[0][0]
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


def _canonicalize(spec, v):
    lead = next(e for e in v if e)
    if lead == 1:
        return v
    inv = spec.inv_e(lead)
    return tuple(spec.mul_e(inv, e) for e in v)


def _irreducibility_python(group):
    """Breadth-first orbit of each unvisited projective point in index
    order; the span of the first orbit of rank < d is the witness."""
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


def _projective_points(q, d):
    """Indices of the vectors with first nonzero coordinate 1, ascending."""
    qpow = q ** np.arange(d, dtype=np.int64)
    return np.sort(
        np.concatenate([qpow[j] + q * qpow[j] * np.arange(q ** (d - 1 - j)) for j in range(d)])
    )


def _normal_and_holds_e0_stabilizer(group, sub):
    """(sub is normal in the group, sub holds every element fixing e_0),
    by brute force over the Python closures."""
    keys = {m.rows for m in _closure_python(sub)}
    e0 = (1,) + (0,) * (group.d - 1)
    normal = all((g.inverse() * k * g).rows in keys for g in group.generators for k in sub.generators)
    return normal, all(m.rows in keys for m in _closure_python(group) if m.apply_row(e0) == e0)


def _assert_batched_paths_match(group, extra_sub=None):
    """Element order, eigenvalue-1 flags, R(H)'s generators and elements
    equal the Python oracles'; so do the quotient actions on R(H) and on
    extra_sub when it is normal and holds the stabilizer of e_0, while any
    other extra_sub is refused, and the index check for a normal one on at
    most 1000 vectors."""
    elements = group.elements()
    assert elements == _closure_python(group)
    flags = [has_eigenvalue_one(m) for m in elements]
    assert flags == [_has_eigenvalue_one_python(m) for m in elements]
    sub = eigenvalue_one_subgroup(group)
    assert list(sub.generators) == _eigenvalue_one_generators_python(group)
    assert {m.rows for m in sub.elements()} == {m.rows for m in _closure_python(sub)}
    for s in (sub, extra_sub):
        if s is None:
            continue
        normal, holds_e0 = _normal_and_holds_e0_stabilizer(group, s)
        if normal and group.spec.order**group.d <= 1000:
            assert index_bound_check(group, s) == _index_bound_python(group, s)
        if normal and holds_e0:
            assert quotient_perm_group(group, s).generators == _action_oracle(group, s)[1]
        else:
            with pytest.raises((ConstraintViolated, NotNormal)):
                quotient_perm_group(group, s)


def _action_oracle(group, sub):
    """The generators of regular_perm_group(group) and, for a normal sub
    holding the stabilizer of e_0, of quotient_perm_group(group, sub), from
    one FFMatrix product per point and generator.  The quotient acts on the
    right cosets, each carried to a block by R*h -> e_0*h*R and numbered as
    its block, by the least vector index in it."""
    elements = _closure_python(group)
    position = {m.rows: i for i, m in enumerate(elements)}
    reps, coset_of = _right_cosets_python(group, sub)
    e0 = (1,) + (0,) * (group.d - 1)
    sub_elements = _closure_python(sub)
    least = [min(vector_to_index(group.spec, (h * s).apply_row(e0)) for s in sub_elements) for h in reps]
    block = {x: b for b, x in enumerate(sorted(least))}
    assert len(block) == len(reps)
    regular = [Permutation([position[(m * g).rows] for m in elements]) for g in group.generators]
    quotient = []
    for g in group.generators:
        images = [0] * len(reps)
        for i, h in enumerate(reps):
            images[block[least[i]]] = block[least[coset_of[(h * g).rows]]]
        quotient.append(Permutation(images))
    return PermGroup(len(elements), regular).generators, PermGroup(len(reps), quotient).generators


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


def test_matrix_inverse_det_pow():
    m = FFMatrix(GF5, [[1, 2], [3, 4]])
    assert m.det() == (1 * 4 - 2 * 3) % 5
    assert (m * m.inverse()).is_identity()
    assert m ** 3 == m * m * m
    assert m ** -1 == m.inverse()
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


def test_rank_nullspace_solve():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
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
    dimension a ValueError."""
    gl = general_linear_gl2(GF5)
    assert FFMatrix.scalar(GF5, 2, 2) in gl
    assert FFMatrix(GF5, [[1, 1], [1, 1]]) not in gl
    with pytest.raises(FieldMismatch):
        FFMatrix(GF3, [[2, 0], [0, 2]]) in gl
    with pytest.raises(ValueError):
        FFMatrix.identity(GF5, 2) in MatrixGroup(GF5, 3, [])


def test_enumeration_identity_only():
    g = MatrixGroup(GF5, 2, [FFMatrix.identity(GF5, 2)])
    assert g.order() == 1


def test_enumeration_quaternion_example():
    g = MatrixGroup(GF5, 2, [FFMatrix(GF5, [[0, 4], [1, 0]]), FFMatrix(GF5, [[2, 0], [0, 3]])])
    assert g.order() == 8
    assert g.element_order_histogram() == {1: 1, 2: 1, 4: 6}


def test_enumeration_cap():
    g = MatrixGroup(GF5, 2, [FFMatrix(GF5, [[1, 1], [0, 1]]), FFMatrix(GF5, [[0, 1], [4, 0]])])
    with pytest.raises(CapExceeded):
        g.elements(cap=10)


def test_enumeration_cap_is_exact_and_checked_when_cached():
    gl = general_linear_gl2(GF3)
    assert len(gl.elements()) == 48
    with pytest.raises(CapExceeded):
        gl.elements(cap=10)
    with pytest.raises(CapExceeded):
        gl.elements(cap=47)
    assert len(gl.elements(cap=48)) == 48
    with pytest.raises(CapExceeded):
        MatrixGroup(GF3, 2, gl.generators).elements(cap=47)
    assert MatrixGroup(GF3, 2, gl.generators).elements(cap=48) == gl.elements()


def test_gl23_order_and_eigenvalue_subgroup():
    g = general_linear_gl2(GF3)
    assert g.order() == 48
    r = eigenvalue_one_subgroup(g)
    assert r.order() == 48
    assert g.order() // r.order() == 1


def test_scalar_group_eigenvalue_subgroup_trivial():
    h = scalar_matrix_group(GF5, 2)
    assert h.order() == 4
    r = eigenvalue_one_subgroup(h)
    assert r.order() == 1
    assert h.order() // r.order() == 4
    # no non-identity scalar fixes a nonzero vector
    assert r.generators == ()
    assert not any(has_eigenvalue_one(m) for m in h.elements()[1:])
    report = index_bound_check(h, r)
    assert report.index == 4 and report.bound == 24
    assert report.index_ok and report.semiregular
    assert bool(report)


def test_semiregular_false_with_transvections():
    g = general_linear_gl2(GF3)
    transvection = FFMatrix(GF3, [[1, 1], [0, 1]])
    assert has_eigenvalue_one(transvection) and transvection in g
    assert eigenvalue_one_subgroup(g).generators


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
                    group.elements(cap=300)
                except CapExceeded:
                    continue
                yield group


def test_irreducibility_paths_agree():
    """The numpy digit-vector paths against the Python loops, over GF(4),
    GF(8), GF(9), GF(25) and GF(27) as well as prime fields; the closure,
    eigenvalue-1 and coset oracles on the groups of order at most 1000."""
    seen = set()
    for group in _differential_groups():
        seen.add((group.spec.order, is_irreducible(group)))
        assert irreducibility(group) == _irreducibility_python(group)
        if group.order() <= 1000:
            _assert_batched_paths_match(group, MatrixGroup(group.spec, group.d, group.generators[:1]))
        sub = eigenvalue_one_subgroup(group)
        assert _orbit_labels(sub).tolist() == _orbit_labels_python(sub)
        assert index_bound_check(group, sub) == _index_bound_python(group, sub)
    assert {q for q, _ in seen} >= {4, 8, 9, 25, 27}
    assert {flag for _, flag in seen} == {True, False}


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
    """(group, subgroup, rng): a group of order at most 400 over GF(2) to
    GF(27) in dimension 1 to 4, generated by up to three matrices of
    order at most 12 (the last ones are dropped while the closure exceeds
    400), and the subgroup generated by a prefix of its generators.  The
    signed permutation matrices share one conjugator, so they generate a
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
            group.elements(cap=400)
            break
        except CapExceeded:
            gens.pop()
    return group, MatrixGroup(spec, d, gens[: draw(st.integers(0, len(gens)))]), rng


@settings(max_examples=100, deadline=None)
@given(_small_matrix_groups())
def test_batched_matrix_paths_match_python_oracles(drawn):
    """Closure order, eigenvalue-1 flags, R(H)'s generators and elements,
    right cosets, the regular and quotient actions and projective ranks
    equal the Python oracles' over prime and prime-power fields."""
    group, sub, rng = drawn
    _assert_batched_paths_match(group, sub)
    r = eigenvalue_one_subgroup(group)
    regular, quotient = _action_oracle(group, r)
    assert regular_perm_group(group).generators == regular
    assert quotient_perm_group(group, r).generators == quotient
    q, d = group.spec.order, group.d
    points = _projective_points(q, d)
    shuffled = points[np.array(rng.sample(range(len(points)), len(points)), dtype=np.int64)]
    assert _projective_rank(shuffled, q, d).tolist() == np.searchsorted(points, shuffled).tolist()


def test_projective_rank_matches_searchsorted():
    for (p, f), d in itertools.product(_DIFFERENTIAL_FIELDS, range(1, 5)):
        q = p**f
        points = _projective_points(q, d)
        reverse = points[::-1]
        assert _projective_rank(reverse, q, d).tolist() == np.searchsorted(points, reverse).tolist()


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
        elements = group.elements(cap=1000)
    except CapExceeded:
        assume(False)
    sub = eigenvalue_one_subgroup(group)
    assert all(has_eigenvalue_one(g) for g in sub.generators)
    assert all(m in sub for m in elements if has_eigenvalue_one(m))


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


def test_binary_icosahedral():
    group = binary_icosahedral_gl2(field(59, 1))
    assert group.order() == 120
    assert binary_icosahedral_gl2(field(3, 2)).order() == 120
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
            assert matrix(lambda w: big.mul_e(w, u)).multiplicative_order() == m


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


def test_regular_perm_group():
    q8 = quaternion_gl2(GF5)
    reg = regular_perm_group(q8)
    assert reg.degree == 8 and reg.order() == 8
    assert sorted(g.order() for g in reg.iter_elements()) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_quotient_perm_group():
    """GL(2,3)/SL(2,3) is refused: diag(1, -1) fixes e_0 outside SL(2,3),
    and its coset fixes e_0's SL(2,3)-orbit, so the index check reports
    no semiregularity.  The scalars of GL(2,5) fix no vector, and the
    quotient by R(H) = 1 is C4 acting regularly.  SL(2,3) in GL(2,5) fixes
    no vector either, and does not permute the orbits of the non-normal
    subgroup generated by its element of order 3."""
    gl = general_linear_gl2(GF3)
    sl = special_linear_gl2(GF3)
    with pytest.raises(ConstraintViolated):
        quotient_perm_group(gl, sl)
    report = index_bound_check(gl, sl)
    assert report.index == 2 and report.semiregular is False
    scalars = scalar_matrix_group(GF5, 2)
    q = quotient_perm_group(scalars, eigenvalue_one_subgroup(scalars))
    assert q.degree == 4 and q.order() == 4 and q.is_transitive()
    tetrahedral = binary_tetrahedral_gl2(GF5)
    with pytest.raises(NotNormal):
        quotient_perm_group(tetrahedral, MatrixGroup(GF5, 2, tetrahedral.generators[2:]))


def test_fixes_a_vector_in_blocks(monkeypatch):
    """A stack longer than one elimination block, with a short last block,
    gets the flags of the per-matrix test."""
    gl = general_linear_gl2(field(2, 2))
    expected = [has_eigenvalue_one(m) for m in gl.elements()]
    assert _fixes_a_vector(gl.digit_stack(), 2).tolist() == expected
    monkeypatch.setattr(matgrp, "FIXES_BLOCK", 7)
    assert gl.order() % 7
    assert _fixes_a_vector(gl.digit_stack(), 2).tolist() == expected
    assert expected == [_has_eigenvalue_one_python(m) for m in gl.elements()]


def test_vector_index_round_trip():
    spec = field(3, 2)
    for idx in range(spec.order**2):
        v = index_to_vector(spec, 2, idx)
        assert vector_to_index(spec, v) == idx


def test_echelonize_canonical():
    rows, pivots = echelonize(GF5, [[0, 2, 4], [1, 1, 1], [1, 3, 0]])
    assert pivots == [0, 1]
    assert rows[0][0] == 1 and rows[1][1] == 1 and rows[1][0] == 0 and rows[0][1] == 0
