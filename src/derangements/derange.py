"""Analysis of the subgroup generated by fixed-point-free elements.

A transitive permutation group always contains elements that move every
point, and the subgroup D they generate is normal, transitive, and of index
dividing n - 1; every element outside it fixes exactly one point.  So a
generator fixing none or two or more points lies in D, and so does one
whose product with an element of D does: when that takes in every
generator, D = G.  Else permgrp grows D, from an abelian regular normal R
that G's chain is built over or else from {1}, as the normal closure of
seeded random derangements until a certificate shows that no element fixing
two points lies outside it (normality plus suborbit lengths).  This module
counts the derangements from D's point stabilizer, measures its index,
runs the structural checks around it (rank identity, semiregular quotient
actions, index bounds), and names the quotient by its fingerprint, from
constants and formulas: G/D is G_0 acting regularly on the D_0-orbits in
one of its orbits.  No call enumerates the whole group: ``analyze``
enumerates D_0, and G/D, one chain level based at 0, only when it is
nonabelian; two-derangement coverage walks D for its derangements.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from . import permgrp
from .errors import CapExceeded, ConstraintViolated, NotTransitive
from .permgrp import DEGREE_CAP, PermGroup, _Level, _block_action, _compose, _products, _walk, count_fixed

PRODUCT_WORK_CAP = 4_000_000
DRAW_SEED = 0


# ---------------------------------------------------------------------------
# fingerprints and quotient identification


@dataclass(frozen=True)
class GroupFingerprint:
    """Cheap isomorphism invariants used to recognize small groups.

    element_orders is a sorted tuple of (order, count) pairs; the counts sum
    to the group order.  Finite abelian groups with the same element-order
    counts are isomorphic, so no further abelian invariant is kept.
    """

    order: int
    element_orders: tuple[tuple[int, int], ...]
    center_order: int
    derived_order: int

    def __post_init__(self):
        assert sum(c for _, c in self.element_orders) == self.order


def fingerprint(group: PermGroup) -> GroupFingerprint:
    """A transitive group that is abelian or of order n is regular, read at point
    0, where elements that agree are equal, and a subgroup's order is its orbit of
    0 (Dixon-Mortimer 1996, 4.2A).  Abelian (its generators g commute): x^k = 1 for
    as many x as <g^k>, semiregular, has orbits, n over its orbit of 0, inverted
    over the divisors of the exponent (Mobius); no chain is built.  Else its chain,
    one tree level at 0 walked by its generators, lists it when read: x has the
    order of its cycle through 0 and is central when x*g and g*x agree at 0.  Others are walked."""
    gens = [g.images for g in group.generators]
    abelian = all(_compose(a, b) == _compose(b, a) for a, b in combinations(gens, 2))
    order = group.degree if abelian and group.is_transitive() else group.order()
    if order > DEGREE_CAP:
        raise CapExceeded(f"fingerprint needs order <= {DEGREE_CAP}, got {order}")
    if order != group.degree or not group.is_transitive():
        return _walked_fingerprint(group)
    if abelian:
        exponent, exact = lcm(1, *map(_order_at_zero, gens)), {}
        for k in (k for k in range(1, exponent + 1) if exponent % k == 0):
            orbit = _walk(_Level(0, order, tree=True), [(g**k).images for g in group.generators], order).orbit
            exact[k] = order // len(orbit) - sum(c for d, c in exact.items() if k % d == 0)
        return GroupFingerprint(order, tuple(exact.items()), order, 1)
    elements = group._chain()[0].transversal.values()
    hist = Counter(map(_order_at_zero, elements))
    center = sum(all(g[x[0]] == x[g[0]] for g in gens) for x in elements)
    return GroupFingerprint(order, tuple(sorted(hist.items())), center, _derived_order(group))


def _order_at_zero(images: tuple[int, ...]) -> int:
    """The length of the cycle through 0: the order, in a regular group."""
    k, x = 1, images[0]
    while x:
        k, x = k + 1, images[x]
    return k


def _derived_order(group: PermGroup) -> int:
    return group.normal_closure(a.inverse() * b.inverse() * a * b for a, b in combinations(group.generators, 2)).order()


def _walked_fingerprint(group: PermGroup) -> GroupFingerprint:
    """The fingerprint from every element: groups that are not regular, and the oracle."""
    elems = group.elements()
    hist = Counter(g.order() for g in elems)
    center = sum(all(g * h == h * g for h in group.generators) for g in elems)
    return GroupFingerprint(group.order(), tuple(sorted(hist.items())), center, _derived_order(group))


def _dihedral_fingerprint(m: int) -> GroupFingerprint:
    """D_2m's fingerprint, m >= 3: r^i has order m/gcd(m, i), the m
    reflections order 2, the centre is <r^(m/2)> for even m and 1 for odd
    m, and the derived group is <r^2>."""
    hist = Counter(m // gcd(m, i) for i in range(m))
    hist[2] += m
    return GroupFingerprint(2 * m, tuple(sorted(hist.items())), 2 - m % 2, m // gcd(m, 2))


NAMED_FINGERPRINTS = {
    "Q8": GroupFingerprint(8, ((1, 1), (2, 1), (4, 6)), 2, 2),
    "A4": GroupFingerprint(12, ((1, 1), (2, 3), (3, 8)), 1, 4),
    "A5": GroupFingerprint(60, ((1, 1), (2, 15), (3, 20), (5, 24)), 1, 60),
    "SL(2,3)": GroupFingerprint(24, ((1, 1), (2, 1), (3, 8), (4, 6), (6, 8)), 2, 8),
    "SL(2,5)": GroupFingerprint(120, ((1, 1), (2, 1), (3, 20), (4, 30), (5, 24), (6, 20), (10, 24)), 2, 120),
}


def identify_fingerprint(fp: GroupFingerprint) -> str:
    """Match against cyclic groups, C2xC2, S3, dihedral groups, and the
    named catalog, by constants and formulas alone; else unrecognized."""
    order = fp.order
    if order == 1:
        return "C1"
    hist = dict(fp.element_orders)
    if hist.get(order):
        return f"C{order}"
    if fp.center_order == order:
        return "C2xC2" if order == 4 else "unrecognized"
    if order == 6:
        return "S3"
    for label, known in NAMED_FINGERPRINTS.items():
        if fp == known:
            return label
    if order % 2 == 0 and order >= 8 and fp == _dihedral_fingerprint(order // 2):
        return f"D{order}"
    return "unrecognized"


def identify_quotient(group: PermGroup) -> str:
    return identify_fingerprint(fingerprint(group))


# ---------------------------------------------------------------------------
# the derangement-generated subgroup


@dataclass
class _Scan:
    """D with the derangement count, and the number of elements of the
    point stabilizer G_0 that fix point 0 alone."""

    derangement_count: int
    subgroup: PermGroup
    fix_only_zero: int


def _regular_on_suborbits(group: PermGroup, sub: PermGroup) -> bool:
    """Is G_0/N_0 semiregular on the N_0-orbits other than {0}?  Here G_0
    fixes point 0 and N_0 = (sub)_0 is normal in it.  G_0 permutes the
    N_0-orbits in each of its orbits transitively, and a transitive action
    of G_0/N_0 is semiregular exactly when it has |G_0 : N_0| points.  For
    sub normal in the group this holds exactly when every element fixing
    two or more points lies in sub."""
    g0 = group.stabilizer()
    n0 = sub.stabilizer()
    index = g0.order() // n0.order()
    length = {x: len(orbit) for orbit in n0.orbits() for x in orbit}
    return all(len(delta) == index * length[delta[0]] for delta in g0.orbits()[1:])


def _generators_in_d(group: PermGroup) -> bool:
    """Whether K, grown from {1} by each generator g with g*k fixing no
    point or two or more for some k in K, takes in every generator of G."""
    shown, rest = [group.identity()], list(group.generators)
    while joins := [g for g in rest if any(count_fixed((g * k).images) != 1 for k in shown)]:
        shown += joins
        rest = [g for g in rest if g not in joins]
    return not rest


def _certified_scan(group: PermGroup, cap: int | None = None) -> _Scan:
    """D for a transitive group, with its certificate.  Every element of G
    outside D fixes exactly one point, so when K grows from {1} to hold
    every generator of G (``_generators_in_d``), each lies in D, as g*k and
    k do: D is G, normal in itself with its chain verified, and nothing is
    drawn.  Else D grows, from R when G's chain is built over it
    (``_regular_normal``: R is normal, its elements but 1 derangements) or
    else from {1}, by seeded uniform draws until it is transitive and
    normal and its suborbit lengths show every element fixing two or more
    points lies in it.  Each coset outside D then averages one fixed point
    with none fixing two, so D holds every derangement; until then
    some derangement lies outside D, and D grows to the normal closure with
    each one drawn; one already in D leaves it as it is, as the one sift
    that would grow it shows (``_normal_closure_of``).  Randomness only
    proposes D, where the generators do not settle it, so D and the count
    are the same for every seed.  The count, |D| - n * sum(1/fix(x) for x
    in D_0), enumerates D_0 alone, under cap (ENUMERATION_CAP when None).
    |G_0 : D_0| = |G : D| is at most n - 1, so a cap below |G_0|/(n - 1)
    is refused before D grows.  |G_0| and |D_0| are read as |G|/n and |D|/n,
    so a group that carries its order (every family member with a formula)
    is refused before any chain is built; the chain checks that order when
    it is.  Every element of G_0 outside D_0 fixes point 0 alone, so the
    same tally of D_0 counts the elements of G_0 that do."""
    if not group.is_transitive():
        raise NotTransitive("derangement subgroup needs a transitive action")
    cap = permgrp.ENUMERATION_CAP if cap is None else cap
    floor = -(-(group.order() // group.degree) // max(group.degree - 1, 1))
    if floor > cap:
        raise CapExceeded(f"point stabilizer order at least 2^{floor.bit_length() - 1} exceeds cap {cap}")
    d = group  # normal in itself, its chain verified
    if not _generators_in_d(group):
        rng = random.Random(DRAW_SEED)
        group._chain()  # sets group._regular
        d = group._regular or PermGroup(group.degree, ())
        draws = (x for x in iter(lambda: group.random_element(rng), None) if not count_fixed(x.images))
        while not (d.is_transitive() and _regular_on_suborbits(group, d)):
            d = group._normal_closure_of(d, next(draws))
        conjugators = [g.conjugator() for g in group.generators]  # each g inverted once
        assert all(
            conjugate(k) in d for conjugate in conjugators for k in d.generators
        ), "derangements must generate a normal subgroup"
    d0_order = d.order() // group.degree  # D is transitive
    if d0_order > cap:
        raise CapExceeded(f"point stabilizer order {d0_order} exceeds cap {cap}")
    tally = d.stabilizer().fixed_point_tally()
    count = d.order() - group.degree * sum(Fraction(c, k) for k, c in tally.items())
    assert count.denominator == 1, "derangement count must be an integer"
    fix_only_zero = group.stabilizer().order() - d0_order + tally[1]
    return _Scan(int(count), d, fix_only_zero)


def _frobenius(group: PermGroup, scan: _Scan) -> bool:
    """No non-identity element fixes two points and the action is not
    regular: |G_0| > 1 and the scan counts |G_0| - 1 elements fixing point
    0 alone.  Then the derangements and the identity form the kernel."""
    stabilizer_order = group.stabilizer().order()
    frob = stabilizer_order > 1 and scan.fix_only_zero == stabilizer_order - 1
    if frob:
        assert scan.subgroup.order() == scan.derangement_count + 1, (
            "kernel must consist of the derangements and the identity"
        )
    return frob


def derangement_subgroup(group: PermGroup) -> PermGroup:
    """The subgroup generated by all fixed-point-free elements."""
    return _certified_scan(group).subgroup


# ---------------------------------------------------------------------------
# structural checks


def index_consequences(group: PermGroup, scan: _Scan) -> bool:
    """The two stabilizer facts that hold whenever the index exceeds 1: at
    least half of the point stabilizer G_0 fixes only point 0, and those
    elements generate G_0.  Only the first is tested.  When it fails, the
    check fails whatever the second says; when it holds, so does the
    second: the set S of those elements misses the identity (n >= 2), so
    |S| >= |G_0|/2 gives |<S>| > |G_0|/2, and <S> = G_0."""
    return 2 * scan.fix_only_zero >= group.stabilizer().order()


def is_frobenius(group: PermGroup):
    """(flag, kernel): flag is true when no non-identity element fixes two
    or more points, read off the scan's count (``_frobenius``); regular
    actions, with trivial point stabilizers, are excluded.  When true, the
    derangements and the identity are verified to form a subgroup: the kernel."""
    scan = _certified_scan(group)
    return (True, scan.subgroup) if _frobenius(group, scan) else (False, None)


def bound_check(group: PermGroup, index: int, frobenius: bool) -> tuple[str, bool]:
    """(regime, ok): which index bound applies and whether it holds.

    Imprimitive groups must satisfy (index+1)^2 <= degree, that is
    index <= sqrt(n) - 1, checked in exact integer arithmetic.  Frobenius
    and primitive groups only promise that the index divides degree - 1."""
    n = group.degree
    if frobenius:
        regime = "frobenius"
    elif group.is_primitive():
        regime = "primitive"
    else:
        regime = "imprimitive"
    ok = (index + 1) ** 2 <= n if regime == "imprimitive" else (n - 1) % index == 0
    return regime, ok


def two_derangement_coverage(group: PermGroup):
    """Can every element of the derangement-generated subgroup be written
    as a product of two derangements?  Returns (covered, witnesses) where
    the witnesses are the elements missed by the product set, in D's
    enumeration order.  D and the derangement count come from the
    certified scan, and every derangement lies in D, so the one walk is
    over D, under ENUMERATION_CAP; the count is checked against
    PRODUCT_WORK_CAP before anything is listed."""
    scan = _certified_scan(group)
    count = scan.derangement_count
    if not count:
        raise ConstraintViolated("group has no derangements to multiply")
    if count**2 > PRODUCT_WORK_CAP:
        raise CapExceeded(f"{count}^2 products exceed the work cap")
    elements = scan.subgroup.elements()
    dset = [p.images for p in elements if not count_fixed(p.images)]
    assert len(dset) == count, "the walk of D must find the certified derangements"
    products = set(_products(dset, dset))
    witnesses = [p for p in elements if p.images not in products]
    return len(witnesses) == 0, witnesses


# ---------------------------------------------------------------------------
# the full report

CHECK_KEYS = (
    "subgroup_transitive",
    "captures_multi_fixers",
    "rank_identity",
    "orbit_semiregular",
    "index_divides",
    "stabilizer_generated",
    "index_bound",
)


@dataclass(frozen=True)
class AnalysisReport:
    """The record of one analysis.  subgroup is the group the checks ran
    against (D itself, unless a fault was injected); it is carried for
    follow-up checks and is not part of the record."""

    degree: int
    order: int
    derangement_count: int
    d_order: int
    index: int
    rank_g: int
    rank_n: int | None
    frobenius: bool
    quotient: GroupFingerprint | None
    quotient_name: str
    regime: str
    checks: dict
    subgroup: PermGroup = dataclasses.field(compare=False, repr=False)

    def __post_init__(self):
        assert self.index * self.d_order == self.order

    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def to_record(self) -> dict:
        return {
            "degree": self.degree,
            "order": self.order,
            "derangements": self.derangement_count,
            "d_order": self.d_order,
            "index": self.index,
            "rank_g": self.rank_g,
            "rank_n": self.rank_n,
            "frobenius": self.frobenius,
            "quotient_name": self.quotient_name,
            "checks": dict(self.checks),
        }


def _report(
    group: PermGroup,
    scan: _Scan,
    sub: PermGroup,
    quotient: GroupFingerprint | None,
) -> AnalysisReport:
    """Every check of the group against sub, from one certified scan of the
    group; the one place the checks are computed and mapped onto
    CHECK_KEYS.  quotient is the fingerprint of G/sub, or None when sub is
    not claimed to be normal.  The certificate puts every element fixing
    two points in D, so sub captures them iff D <= sub.  sub is D or D_0,
    so (sub)_0 = D_0 is normal in G_0, as the suborbit test needs."""
    transitive = sub.is_transitive()
    index = group.order() // sub.order()
    rank_g = group.rank()
    rank_n = sub.rank() if transitive else None
    frob = _frobenius(group, scan)
    regime, bound_ok = bound_check(group, index, frob)
    results = (
        transitive,
        scan.subgroup.is_subgroup_of(sub),
        transitive and (rank_n - 1) == (rank_g - 1) * index,
        _regular_on_suborbits(group, sub),
        (group.degree - 1) % index == 0,
        index == 1 or index_consequences(group, scan),
        bound_ok,
    )
    return AnalysisReport(
        degree=group.degree,
        order=group.order(),
        derangement_count=scan.derangement_count,
        d_order=sub.order(),
        index=index,
        rank_g=rank_g,
        rank_n=rank_n,
        frobenius=frob,
        quotient=quotient,
        quotient_name="unrecognized" if quotient is None else identify_fingerprint(quotient),
        regime=regime,
        checks=dict(zip(CHECK_KEYS, results, strict=True)),
        subgroup=sub,
    )


def _quotient(group: PermGroup, sub: PermGroup) -> PermGroup:
    """G/D as G_0 acting on the D_0-orbits in its first orbit other than
    {0}: G/D is G_0/D_0 as D is transitive, and the certificate puts index
    of them there, the order ``_block_action`` carries.  G's chain, n^2
    entries or more, fits CHAIN_SLOTS, so the index is below n <= DEGREE_CAP."""
    index = group.order() // sub.order()
    if index == 1:
        return PermGroup(1, ())
    g0 = group.stabilizer()
    delta = set(g0.orbits()[1])
    blocks = [orbit for orbit in sub.stabilizer().orbits() if orbit[0] in delta]
    return _block_action(blocks, [g.images for g in g0.generators], index)


def analyze(group: PermGroup, cap: int | None = None) -> AnalysisReport:
    """Full pipeline: compute the derangement-generated subgroup, run every
    check, and identify the quotient.  cap bounds |D_0|, the one group it
    enumerates (ENUMERATION_CAP when None)."""
    scan = _certified_scan(group, cap)
    sub = scan.subgroup
    return _report(group, scan, sub, fingerprint(_quotient(group, sub)))


def _faulted_analysis(group: PermGroup) -> AnalysisReport:
    """analyze with D replaced by its point stabilizer D_0, a fault the
    checks must catch.  D is transitive, so D_0 is a proper subgroup that
    misses a derangement.  D_0 need not be normal, so no quotient is
    identified.  D is normal in the transitive group, so its point
    stabilizers are conjugate and the report depends on the group alone."""
    scan = _certified_scan(group)
    d0 = scan.subgroup.stabilizer()
    return _report(group, scan, d0, None)
