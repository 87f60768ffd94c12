"""Constructors for the group families the analysis is exercised on.

Affine groups built from a matrix group plus translations, semilinear
one-dimensional groups, PGammaL(2,8) on the 28 conjugate pairs of GF(64)
outside GF(8), wreath and direct products, Frobenius-complement quotient
examples, and the central-product matrix families with prescribed
quotients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .errors import ConstraintViolated, DegreeTooLarge
from .gf import FieldSpec, _digits, _is_prime, _value, field, prime_power_decompose
from .matgrp import (
    MatrixGroup,
    _quadratic_plane,
    binary_icosahedral_gl2,
    binary_tetrahedral_gl2,
    central_product,
    dihedral_gl2,
    general_linear_gl2,
    quaternion_gl2,
    scalar_matrix_group,
)
from .permgrp import (
    DEGREE_CAP,
    PermGroup,
    Permutation,
    alternating_group,
    cyclic_group,
    dihedral_group,
    symmetric_group,
)


def _degree(m: int, k: int = 1) -> int:
    """The degree m^k of a permutation domain; DegreeTooLarge past
    DEGREE_CAP, checked before anything of that size is built (for m >= 2,
    a k past the cap's bit length passes it before m^k is formed)."""
    if m > DEGREE_CAP or m > 1 and (k > DEGREE_CAP.bit_length() or m**k > DEGREE_CAP):
        power = f"{m}^{k}" if k > 1 else m
        raise DegreeTooLarge(f"degree {power} exceeds {DEGREE_CAP}")
    return m**k


def _gf(q: int, d: int = 1) -> FieldSpec:
    """GF(q) for a prime power q, refused before it is built when the affine
    degree q^d passes DEGREE_CAP."""
    _degree(q, d)
    return field(*prime_power_decompose(q))


def affine_group(h: MatrixGroup) -> PermGroup:
    """Translations of the vector space joined with a linear group acting on
    row vectors; a transitive group on the q^d vectors, carrying the order
    q^d * |h|, which its chain checks when built: the translations form a
    regular normal subgroup, and h, a group of linear maps, is the
    stabilizer of the zero vector.  Every
    generator maps the points' digit rows, then takes their values: a
    translation adds a unit row (1 at column i*f) mod p, an h generator
    multiplies by its digit matrix."""
    spec, k = h.spec, h.d * h.spec.f
    degree = _degree(spec.order, h.d)
    digits = _digits(np.arange(degree), spec.p, k)
    units = np.eye(k, dtype=np.int64)[:: spec.f]
    moved = chain((digits + unit for unit in units), (digits @ m for m in h.generator_digits()))
    gens = (Permutation(_value(x % spec.p, spec.p).tolist()) for x in moved)
    return PermGroup(degree, gens, order=degree * h.order())


def semilinear_example(q: int) -> PermGroup:
    """Maps x -> a*x^e + c on the field of q^2 elements, where a is nonzero
    and e is 1 or q.  Generated by x+1, gx, and x^q; order 2q^2(q^2-1)."""
    p, f = prime_power_decompose(q)
    degree = _degree(q, 2)
    big = field(p, 2 * f)
    g = big.primitive_element()
    shift = Permutation(tuple(big.add_e(x, 1) for x in range(degree)))
    scale = Permutation(tuple(big.mul_e(x, g) for x in range(degree)))
    frob = Permutation(tuple(big.pow_e(x, q) for x in range(degree)))
    return PermGroup(degree, [shift, scale, frob], order=2 * degree * (degree - 1))


def _pgl_2_8() -> PermGroup:
    """PGL(2,8), the simple group of order 504, on the projective line: the
    8 field elements plus a point at infinity (8), moved by the
    fractional-linear maps x+1, gx, 1/x."""
    gf8 = field(2, 3)
    inf = 8
    g = gf8.primitive_element()

    def onto(fn) -> Permutation:
        return Permutation(tuple(fn(x) for x in range(9)))

    shift = onto(lambda x: gf8.add_e(x, 1) if x != inf else inf)
    scale = onto(lambda x: gf8.mul_e(x, g) if x != inf else inf)
    invert = onto(lambda x: inf if x == 0 else (0 if x == inf else gf8.inv_e(x)))
    return PermGroup(9, [shift, scale, invert], order=504)


def pgammal_28() -> PermGroup:
    """PGammaL(2,8), order 1512, on the 28 pairs {z, z^8} of GF(64) minus
    GF(8), each labelled by its smaller code, in ascending order.  Its
    generators x+1, cx, 1/x, x^2 (c = w^9 generates GF(8)*, w primitive)
    commute with z -> z^8.  A pair stabilizer, of order 54, is the
    normalizer of a Sylow 3-subgroup."""
    big = field(2, 6)
    c = big.pow_e(big.primitive_element(), 9)
    pairs = [z for z in range(64) if z < big.pow_e(z, 8)]
    label = {w: i for i, z in enumerate(pairs) for w in (z, big.pow_e(z, 8))}
    maps = (partial(big.add_e, 1), partial(big.mul_e, c), big.inv_e, partial(big.pow_e, k=2))
    return PermGroup(28, [Permutation(tuple(label[fn(z)] for z in pairs)) for fn in maps], order=1512)


def _wreath_generators(h: PermGroup, k: int) -> list[Permutation]:
    """Generators of h wreath a k-cycle in product action on degree-m^k
    tuples: each generator of h on each coordinate, then the coordinate
    rotation when k > 1.  Coordinate i of a point is its base-m digit i."""
    points = np.arange(h.degree**k)
    digits = _digits(points, h.degree, k)
    gens = [
        Permutation((points + (np.take(g.images, digits[:, i]) - digits[:, i]) * h.degree**i).tolist())
        for i in range(k)
        for g in h.generators
    ]
    if k > 1:
        gens.append(Permutation(_value(np.roll(digits, 1, axis=1), h.degree).tolist()))
    return gens


def wreath_product_action(h: PermGroup, k: int) -> PermGroup:
    """h wreath a k-cycle in product action on degree-m^k tuples, m >= 2."""
    if h.degree < 2:
        raise ConstraintViolated("the base group must act on at least 2 points")
    return PermGroup(_degree(h.degree, k), _wreath_generators(h, k), order=h.order() ** k * k)


def direct_product_action(a: PermGroup, b: PermGroup) -> PermGroup:
    """a x b acting coordinatewise on pairs (point of a, point of b)."""
    na, nb = a.degree, b.degree
    images = [np.add.outer(na * np.arange(nb), g.images) for g in a.generators]
    images += [np.add.outer(na * np.array(g.images), np.arange(na)) for g in b.generators]
    return PermGroup(na * nb, [Permutation(x.ravel().tolist()) for x in images], order=a.order() * b.order())


def cyclic_multiplier_group(m: int, a: int) -> PermGroup:
    """The subgroup of automorphisms of Z_m generated by x -> a*x."""
    if math.gcd(a % m, m) != 1:
        raise ConstraintViolated(f"{a} is not invertible mod {m}")
    return PermGroup(m, [Permutation(tuple((a * x) % m for x in range(m)))])


def frobenius_complement_example(n_order: int, h: PermGroup, q: int) -> PermGroup:
    """q copies of a regular cyclic group, extended by h acting diagonally
    and by the coordinate rotation: a transitive non-Frobenius group whose
    derangement-generated subgroup has h as its quotient.

    h must consist of automorphisms of Z_{n_order} fixing no nonzero point,
    and q must be a prime not dividing |h|.
    """
    m = n_order
    if q > DEGREE_CAP.bit_length():  # before q is tested for primality
        raise ConstraintViolated(f"q = {q} is too large: 2^q exceeds the degree cap {DEGREE_CAP}")
    failures = []
    if m < 2:
        failures.append("kernel order must be at least 2")
    if not _is_prime(q):
        failures.append(f"q = {q} is not prime")
    if h.degree != m:
        failures.append(f"h acts on {h.degree} points, expected {m}")
    elif h.order() > 1:
        if math.gcd(q, h.order()) != 1:
            failures.append(f"gcd(q, |h|) = {math.gcd(q, h.order())} is not 1")
        for g in h.generators:
            diffs = {(g.images[(x + 1) % m] - g.images[x]) % m for x in range(m)}
            if g.images[0] != 0 or len(diffs) != 1:
                failures.append("h must act by automorphisms of the cyclic kernel")
                break
        else:
            # h fixes {0}, and no other point is fixed by a non-identity
            # element exactly when every other orbit has |h| points
            if any(len(orbit) != h.order() for orbit in h.orbits()[1:]):
                failures.append("h must fix only the zero point")
    degree = m**q
    if degree > DEGREE_CAP:
        failures.append(f"degree {degree} exceeds {DEGREE_CAP}")
    if failures:
        raise ConstraintViolated("; ".join(failures))

    *shifts, rotation = _wreath_generators(cyclic_group(m), q)
    digits = _digits(np.arange(degree), m, q)
    diagonal = [Permutation(_value(np.take(g.images, digits), m).tolist()) for g in h.generators]
    return PermGroup(degree, shifts + diagonal + [rotation], order=degree * h.order() * q)


def dihedral_quotient_family(q: int) -> MatrixGroup:
    """A central product in GL(4,q) whose eigenvalue-1 quotient is dihedral
    of order q+1; defined for prime powers q = 3 mod 4, q >= 7."""
    if q % 4 != 3:
        raise ConstraintViolated(f"q = {q} is not 3 mod 4")
    if q < 7:
        raise ConstraintViolated("q must be at least 7")
    spec = field(*prime_power_decompose(q))
    x_part = dihedral_gl2(spec, q - 1)
    big, matrix = _quadratic_plane(spec)
    g = big.primitive_element()
    u, v = big.pow_e(g, q - 1), big.pow_e(g, (q - 1) // 2)  # orders q+1, 2(q+1)
    rot = matrix(lambda w: big.mul_e(w, u))
    refl = matrix(lambda w: big.pow_e(big.mul_e(w, v), q))
    y_part = MatrixGroup(spec, 2, [rot, refl], order=2 * (q + 1))
    return central_product(x_part, y_part)


def central_product_examples(name: str) -> MatrixGroup:
    """Three irreducible central products in GL(4,q) with prescribed
    eigenvalue-1 quotients: klein (order 48 over GF(5)), a4 (order 528 over
    GF(23)), a5 (order 6960 over GF(59))."""
    if name == "klein":
        spec = field(5, 1)
        return central_product(dihedral_gl2(spec, 6), quaternion_gl2(spec))
    if name == "a4":
        spec = field(23, 1)
        return central_product(dihedral_gl2(spec, 22), binary_tetrahedral_gl2(spec))
    if name == "a5":
        spec = field(59, 1)
        return central_product(dihedral_gl2(spec, 58), binary_icosahedral_gl2(spec))
    raise ConstraintViolated(f"unknown central product example {name!r}")


# ---------------------------------------------------------------------------
# named construction registry (CLI entry point)


@dataclass(frozen=True)
class FamilyParams:
    """A family name plus its integer parameters, as given on a command
    line; validation happens inside the family constructors."""

    name: str
    values: tuple[int, ...] = ()


# name -> (number of parameters, builder).  The builders look constructors up
# by name when called, so a rebound module global (a tracer's wrapper) is used.
# A degree, or a field order with its dimension, is checked before anything is built.
_FAMILIES = {
    "symmetric": (1, lambda n: symmetric_group(_degree(n))),
    "alternating": (1, lambda n: alternating_group(_degree(n))),
    "cyclic": (1, lambda n: cyclic_group(_degree(n))),
    "dihedral": (1, lambda n: dihedral_group(_degree(n))),
    "agl1": (1, lambda q: affine_group(scalar_matrix_group(_gf(q), 1))),
    "affine-scalars": (2, lambda q, d: affine_group(scalar_matrix_group(_gf(q, d), d))),
    "affine-gl2": (1, lambda q: affine_group(general_linear_gl2(_gf(q, 2)))),
    "affine-klein": (0, lambda: affine_group(central_product_examples("klein"))),
    "semilinear": (1, lambda q: semilinear_example(q)),
    "pgammal28": (0, lambda: pgammal_28()),
    "wreath-sym": (2, lambda n, k: wreath_product_action(symmetric_group(_degree(n)), k)),
    "wreath-cyclic": (2, lambda n, k: wreath_product_action(cyclic_group(_degree(n)), k)),
    "frobenius-complement": (
        3,
        lambda m, a, q: frobenius_complement_example(m, cyclic_multiplier_group(_degree(m), a), q),
    ),
    "central-klein": (0, lambda: central_product_examples("klein")),
    "central-a4": (0, lambda: central_product_examples("a4")),
    "central-a5": (0, lambda: central_product_examples("a5")),
    "dihedral-family": (1, lambda q: dihedral_quotient_family(q)),
}
FAMILY_ARITY = {name: arity for name, (arity, _) in _FAMILIES.items()}


def build_family(params: FamilyParams):
    """Construct a family member by name; returns a PermGroup or a
    MatrixGroup depending on the family."""
    name, vals = params.name, params.values
    if name not in FAMILY_ARITY:
        known = ", ".join(sorted(FAMILY_ARITY))
        raise ConstraintViolated(f"unknown family {name!r}; known: {known}")
    if len(vals) != FAMILY_ARITY[name]:
        raise ConstraintViolated(
            f"family {name!r} takes {FAMILY_ARITY[name]} parameter(s), got {len(vals)}"
        )
    if any(v < 1 for v in vals):
        raise ConstraintViolated(f"family {name!r} takes parameters of at least 1, got {vals}")
    return _FAMILIES[name][1](*vals)
