"""Analysis of the subgroup generated by fixed-point-free elements.

A transitive permutation group always contains elements that move every
point, and the subgroup they generate turns out to be normal, transitive,
and of index dividing n - 1; every element outside it fixes exactly one
point.  This module grows that subgroup from seeded random draws until
a certificate shows that no element fixing two points lies outside it
(normality plus suborbit lengths), counts the derangements from its point
stabilizer, measures its index, runs the structural checks around it (rank
identity, semiregular quotient actions, index bounds), and identifies the
quotient group by fingerprint against a small catalog: G/D is G_0 acting
regularly on the D_0-orbits in one of its orbits.  No step of ``analyze``
enumerates the whole group: it enumerates D_0, and G/D for its
fingerprint.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CapExceeded, ConstraintViolated, IndexTooLarge, NotTransitive
from .gf import field
from .matgrp import quaternion_gl2, regular_perm_group, special_linear_gl2
from .permgrp import (
    ENUMERATION_CAP,
    PermGroup,
    Permutation,
    _products,
    alternating_group,
    block_action,
    count_fixed,
    dihedral_group,
)

FINGERPRINT_CAP = 10_000
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


def fingerprint(group: PermGroup, cap: int = FINGERPRINT_CAP) -> GroupFingerprint:
    order = group.order()
    if order > cap:
        raise CapExceeded(f"fingerprint needs order <= {cap}, got {order}")
    elems = group.elements()
    hist = Counter(g.order() for g in elems)
    gens = list(group.generators) or [group.identity()]
    center = sum(1 for g in elems if all(g * h == h * g for h in gens))
    commutators = [a.inverse() * b.inverse() * a * b for a in gens for b in gens]
    derived = group.normal_closure(commutators).order()
    return GroupFingerprint(order, tuple(sorted(hist.items())), center, derived)


@lru_cache(maxsize=64)
def _dihedral_fingerprint(m: int) -> GroupFingerprint:
    return fingerprint(dihedral_group(m))


@lru_cache(maxsize=1)
def _named_catalog() -> dict:
    gf3 = field(3, 1)
    gf5 = field(5, 1)
    catalog = {
        "Q8": fingerprint(regular_perm_group(quaternion_gl2(gf5))),
        "A4": fingerprint(alternating_group(4)),
        "A5": fingerprint(alternating_group(5)),
        "SL(2,3)": fingerprint(regular_perm_group(special_linear_gl2(gf3))),
        "SL(2,5)": fingerprint(regular_perm_group(special_linear_gl2(gf5))),
    }
    # every named entry must be distinguishable from the dihedral group of
    # the same order, and from each other
    fps = list(catalog.values())
    fps.extend(_dihedral_fingerprint(o // 2) for o in (8, 12, 24, 60, 120))
    assert len(set(fps)) == len(fps), "catalog fingerprints must be pairwise distinct"
    return catalog


def identify_fingerprint(fp: GroupFingerprint) -> str:
    """Match against cyclic groups, C2xC2, S3, dihedral groups, and the
    named catalog; anything else is reported unrecognized."""
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
    for label, known in _named_catalog().items():
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
    two or more points lies in sub; for trivial sub, when none but 1 does."""
    g0 = group.stabilizer(0)
    n0 = sub.stabilizer(0)
    index = g0.order() // n0.order()
    length = {x: len(orbit) for orbit in n0.orbits() for x in orbit}
    return all(len(delta) == index * length[delta[0]] for delta in g0.orbits()[1:])


def _certified_scan(group: PermGroup, cap: int = ENUMERATION_CAP) -> _Scan:
    """D for a transitive group, from seeded uniform draws, with its
    certificate: D is transitive and normal, and its suborbit lengths show
    every element fixing two or more points lies in it.  Each coset outside
    D then averages one fixed point with none fixing two, so D holds every
    derangement; until then some derangement lies outside D, and D grows to
    the normal closure with the first one drawn.  Randomness only proposes
    D, so D and the count are the same for every seed.  The count,
    |D| - n * sum(1/fix(x) for x in D_0), enumerates D_0 alone, under cap.
    Every element of G_0 outside D_0 fixes point 0 alone, so the same tally
    of D_0 counts the elements of G_0 that do."""
    if not group.is_transitive():
        raise NotTransitive("derangement subgroup needs a transitive action")
    rng = random.Random(DRAW_SEED)
    d = PermGroup(group.degree, ())
    while not (d.is_transitive() and _regular_on_suborbits(group, d)):
        x = group.random_element(rng)
        while count_fixed(x.images) or x in d:
            x = group.random_element(rng)
        d = group.normal_closure_of(d.extended(x))
    assert all(
        k.conjugate_by(g) in d for g in group.generators for k in d.generators
    ), "derangements must generate a normal subgroup"
    d0 = d.stabilizer(0)
    if d0.order() > cap:
        raise CapExceeded(f"point stabilizer order {d0.order()} exceeds cap {cap}")
    tally = Counter(count_fixed(raw) for raw in d0._iter_element_tuples())
    count = d.order() - group.degree * sum(Fraction(c, k) for k, c in tally.items())
    assert count.denominator == 1, "derangement count must be an integer"
    fix_only_zero = group.stabilizer(0).order() - d0.order() + tally[1]
    return _Scan(int(count), d, fix_only_zero)


def _frobenius(group: PermGroup, scan: _Scan) -> bool:
    """No non-identity element fixes two points and the action is not
    regular; then the derangements and the identity form the kernel."""
    trivial = PermGroup(group.degree, ())
    frob = group.order() > group.degree and _regular_on_suborbits(group, trivial)
    if frob:
        assert scan.subgroup.order() == scan.derangement_count + 1, (
            "kernel must consist of the derangements and the identity"
        )
    return frob


def derangement_set(group: PermGroup, cap: int = ENUMERATION_CAP) -> list[Permutation]:
    """All fixed-point-free elements, in enumeration order."""
    if group.order() > cap:
        raise CapExceeded(f"group order {group.order()} exceeds cap {cap}")
    return [
        Permutation._raw(t)
        for t in group._iter_element_tuples()
        if count_fixed(t) == 0
    ]


def derangement_subgroup(group: PermGroup, cap: int = ENUMERATION_CAP) -> PermGroup:
    """The subgroup generated by all fixed-point-free elements."""
    return _certified_scan(group, cap).subgroup


# ---------------------------------------------------------------------------
# structural checks


def index_consequences(group: PermGroup, scan: _Scan) -> bool:
    """The two stabilizer facts that hold whenever the index exceeds 1: at
    least half of the point stabilizer G_0 fixes only point 0, and those
    elements generate G_0.  Only the first is tested.  When it fails, the
    check fails whatever the second says; when it holds, so does the
    second: the set S of those elements misses the identity (n >= 2), so
    |S| >= |G_0|/2 gives |<S>| > |G_0|/2, and <S> = G_0."""
    return 2 * scan.fix_only_zero >= group.stabilizer(0).order()


def is_frobenius(group: PermGroup, cap: int = ENUMERATION_CAP):
    """(flag, kernel): flag is true when no non-identity element fixes two
    or more points.  Regular actions are excluded by definition (their point
    stabilizers are trivial).  When true, the derangements together with the
    identity are verified to form a subgroup: the kernel."""
    scan = _certified_scan(group, cap)
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


def two_derangement_coverage(
    group: PermGroup, cap: int = ENUMERATION_CAP, work_cap: int = PRODUCT_WORK_CAP
):
    """Can every element of the derangement-generated subgroup be written
    as a product of two derangements?  Returns (covered, witnesses) where
    the witnesses are the elements missed by the product set.  The
    subgroup is grown from the derangement list in its order, extended by
    each derangement not yet in it.  Unlike analyze, this enumerates the
    whole group, under cap."""
    derangements = derangement_set(group, cap)
    dset = [p.images for p in derangements]
    if not dset:
        raise ConstraintViolated("group has no derangements to multiply")
    if len(dset) ** 2 > work_cap:
        raise CapExceeded(f"{len(dset)}^2 products exceed the work cap")
    if not group.is_transitive():
        raise NotTransitive("derangement subgroup needs a transitive action")
    products = set(_products(dset, dset))
    sub = PermGroup(group.degree, ())
    for p in derangements:
        if p not in sub:
            sub = sub.extended(p)
    witnesses = [g for g in sub.iter_elements() if g.images not in products]
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
    {0}: G/D is G_0/D_0 as D is transitive, and the certificate makes that
    action regular.  It is formed only to be fingerprinted, so an index
    above FINGERPRINT_CAP is refused before anything is built."""
    index = group.order() // sub.order()
    if index > FINGERPRINT_CAP:
        raise IndexTooLarge(f"index {index} exceeds cap {FINGERPRINT_CAP}")
    if index == 1:
        return PermGroup(1, ())
    g0 = group.stabilizer(0)
    delta = set(g0.orbits()[1])
    blocks = [orbit for orbit in sub.stabilizer(0).orbits() if orbit[0] in delta]
    block_of = {x: b for b, orbit in enumerate(blocks) for x in orbit}
    quotient = block_action(block_of, [g.images for g in g0.generators])
    assert quotient.order() == index, "G_0 must act regularly on the D_0-orbits"
    return quotient


def analyze(group: PermGroup, cap: int = ENUMERATION_CAP) -> AnalysisReport:
    """Full pipeline: compute the derangement-generated subgroup, run every
    check, and identify the quotient."""
    scan = _certified_scan(group, cap)
    sub = scan.subgroup
    return _report(group, scan, sub, fingerprint(_quotient(group, sub)))


def _faulted_analysis(group: PermGroup, cap: int = ENUMERATION_CAP) -> AnalysisReport:
    """analyze with D replaced by its point stabilizer D_0, a fault the
    checks must catch.  D is transitive, so D_0 is a proper subgroup that
    misses a derangement.  D_0 need not be normal, so no quotient is
    identified.  D is normal in the transitive group, so its point
    stabilizers are conjugate and the report depends on the group alone."""
    scan = _certified_scan(group, cap)
    d0 = scan.subgroup.stabilizer(0)
    return _report(group, scan, d0, None)
