"""Permutation groups on {0, ..., n-1} with a deterministic stabilizer chain.

Composition is left-to-right: (g * h)(x) = h(g(x)).  One routine,
``_grow``, grows every chain, on the first structural query or, in
``_normal_closure_of``, one copy a candidate at a time: it sifts the new
generators in and runs Schreier-Sims once: each verification of a level
forms each Schreier generator at most once, by two rules proved in
``_grow`` (tree edges are skipped; a level's Schreier set leaves out the
residues produced at or below it), and a level is verified again after a
residue it produced lands deeper.  A first query grows from
the empty chain or, when the generators fixing no point and their
conjugates generate an abelian regular normal subgroup R
(``_regular_normal``), by one element of G_0 per generator below a first
level holding R's elements, never verified, as in a closure of G grown
from G's R; a transitive group carrying order n is regular, one level at
0 walked by its generators, with nothing sifted.  A level never verified
is a Schreier tree (``_Tree``) that forms a point's element, the only
one it can have, when first read.  Subgroups of G grow only by
``_normal_closure_of``, each candidate sifted once; ``normal_closure``
checks its seeds lie in G.
Strong generators and transversals depend on the order of work; bases and
basic orbits do not.  Every strong generator sits at the level based at
the smallest point it moves, so bases are strictly increasing and each
level group fixes every point below its base point.  The one point
stabilizer is that of point 0, the levels below the first; no chain is
built for the stabilizer of any other point.  Levels are never changed
once a group holds them, so chains are safe to share.  A sift inverts
nothing: it carries the product of the transversal elements it uses and
compares it with the sifted element, and products run in C.  G/D is the
regular action on the orbits of a normal subgroup, their count the order
(``_block_action``); matgrp walks H/R(H)'s blocks itself.  No block system
is searched for: primitivity is maximality of the point stabilizer, read
off the chain.  Elements are upper products times a tail, the deepest
levels' products, one array: fixed points compare it with inverted chunks
of upper products, forming no element (``_fix_counts``), and element
blocks gather chunks by it, at most BLOCK_ENTRIES entries unless the tail
is larger.  One breadth-first closure, ``closure``, keys rows by their
bytes for ``bruteforce_closure`` and for matgrp's digit stacks.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import chain, islice
from math import factorial, isqrt, lcm, prod
from operator import eq, index, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    CapExceeded,
    ConstraintViolated,
    DegreeMismatch,
    NotNormal,
    NotSubgroup,
    NotTransitive,
)

ENUMERATION_CAP = 2_000_000  # the one enumeration limit, read when a call runs
BLOCK_ENTRIES = 1 << 16  # image entries per element block beyond a larger tail, and per closure chunk
CHAIN_SLOTS = 1 << 26  # transversal entries (orbit points x n, summed over a chain's levels)
DEGREE_CAP = isqrt(CHAIN_SLOTS)  # most points, or order of a fingerprinted regular group: n^2 entries


def _getter(a: tuple[int, ...]):
    """C callable taking b to 'apply a, then b'.  An itemgetter of one index
    returns a scalar, so degree 1 (where a is the identity) takes tuple."""
    return itemgetter(*a) if len(a) > 1 else tuple


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of 'apply a, then b'; _getter(a)(b), inlined."""
    return itemgetter(*a)(b) if len(a) > 1 else b


def _invert(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def _integers(values: Iterable) -> tuple[int, ...]:
    """The values as ints, numpy integers included; ValueError for any other, 1.0 too."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError("entries must be integers") from None


def count_fixed(images: Sequence[int]) -> int:
    return sum(map(eq, images, range(len(images))))


def _products(outer: Iterable[tuple[int, ...]], inner: list[tuple[int, ...]]):
    """'apply b, then a' for a in outer, streamed and outermost, and b in inner."""
    getters = [_getter(b) for b in inner]
    return (get(a) for a in outer for get in getters)


class Permutation:
    """Immutable permutation stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = _integers(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")
        self.images = images

    @classmethod
    def _raw(cls, images: tuple[int, ...]) -> "Permutation":
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._raw(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        cycles = [_integers(cyc) for cyc in cycles]
        points = [a for cyc in cycles for a in cyc]
        if len(set(points)) < len(points) or not all(0 <= a < n for a in points):
            raise ValueError(f"not disjoint cycles of 0..{n - 1}: {cycles}")
        images = list(range(n))
        for cyc in cycles:
            for i, a in enumerate(cyc):
                images[a] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise DegreeMismatch("degrees differ")
        return Permutation._raw(_compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation._raw(_invert(self.images))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(len(self.images))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate_by(self, h: "Permutation") -> "Permutation":
        """h^-1 * self * h."""
        return h.conjugator()(self)

    def conjugator(self) -> Callable[["Permutation"], "Permutation"]:
        """The map k -> self^-1 * k * self, with self inverted once."""
        first, images = _getter(_invert(self.images)), self.images
        return lambda k: Permutation._raw(_compose(first(k.images), images))

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return lcm(1, *map(len, self.cycles()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


class _Level:
    __slots__ = ("base", "gens", "origins", "transversal", "orbit")

    def __init__(self, base: int, degree: int, tree: bool = False):
        self.base = base
        self.gens: list[tuple[int, ...]] = []
        self.origins: list[int] = []  # per generator: base of the level that made it, or -1
        self.transversal = _Tree(base, degree) if tree else {base: tuple(range(degree))}
        self.orbit: list[int] = [base]

    def copy(self) -> "_Level":
        """A level with its own gens and origins lists; the transversal and
        orbit are shared: only ever replaced, and a _Tree forms on read the one tuple each point can have."""
        lvl = _Level.__new__(_Level)
        lvl.base, lvl.gens, lvl.origins = self.base, list(self.gens), list(self.origins)
        lvl.transversal, lvl.orbit = self.transversal, self.orbit
        return lvl


class _Tree:
    """A transversal never verified, as a Schreier tree: edges maps a point to
    its parent and the label taking the parent to it, and a point's tuple is
    formed on first read, down from its nearest formed ancestor, and kept.
    Every read sees the whole orbit: [], get, in, values() (in orbit order)."""

    def __init__(self, base: int, degree: int):
        self.edges, self.formed = {base: None}, {base: tuple(range(degree))}

    def __getitem__(self, pt: int) -> tuple[int, ...]:
        path, formed = [], self.formed
        while pt not in formed:
            path.append(pt)
            pt = self.edges[pt][0]
        u = formed[pt]
        for pt in reversed(path):
            u = formed[pt] = _compose(u, self.edges[pt][1])
        return u

    def __contains__(self, pt: int) -> bool:
        return pt in self.edges

    def get(self, pt: int, default=None):
        return self[pt] if pt in self.edges else default

    def values(self) -> list[tuple[int, ...]]:
        formed = self.formed
        for pt, edge in self.edges.items():  # a parent comes before its children
            if pt not in formed:
                formed[pt] = _compose(formed[edge[0]], edge[1])
        return [formed[pt] for pt in self.edges]


def _walk(level: _Level, labels: list[tuple[int, ...]], degree: int) -> _Level:
    """The _Tree level, labels added to its generators and its orbit walked by them
    breadth-first; CapExceeded before a point past CHAIN_SLOTS chain entries."""
    level.gens, level.origins = level.gens + labels, level.origins + [-1] * len(labels)
    edges, orbit = level.transversal.edges, level.orbit
    for pt in orbit:
        for g in labels:
            if g[pt] not in edges:
                if len(orbit) >= CHAIN_SLOTS // degree:
                    raise CapExceeded(f"stabilizer chain of degree {degree} exceeds {CHAIN_SLOTS} transversal entries")
                edges[g[pt]] = pt, g
                orbit.append(g[pt])
    return level


def _smallest_moved(images: tuple[int, ...]) -> int:
    for i, x in enumerate(images):
        if i != x:
            return i
    raise ValueError("identity moves nothing")


def _sift(levels: list[_Level], start: int, images: tuple[int, ...], w: tuple[int, ...]):
    """Sift images*w^-1 through levels[start:] without inverting per level:
    W, w composed after the transversal elements used, is carried, so the
    residue images*W^-1 maps base b to W.index(images[b]) and is trivial
    exactly when images == W.  Returns None for a trivial residue, else the
    residue (one inversion)."""
    for lvl in levels[start:]:
        b = lvl.base
        if images[b] == w[b]:
            continue
        u = lvl.transversal.get(w.index(images[b]))
        if u is None:
            break
        w = _compose(u, w)
    return None if images == w else _compose(images, _invert(w))


def _place(levels: list[_Level], start: int, images: tuple[int, ...], degree: int, origin: int) -> int:
    """Add a strong generator, produced while verifying the level based at
    origin (-1: placed from outside), to the level among levels[start:]
    based at the smallest point it moves, inserting that level in base order
    when it is missing.  Returns the level's index."""
    m = _smallest_moved(images)
    j = start
    while j < len(levels) and levels[j].base < m:
        j += 1
    if j == len(levels) or levels[j].base != m:
        levels.insert(j, _Level(m, degree))
    levels[j].gens.append(images)
    levels[j].origins.append(origin)
    return j


def _verify(levels: list[_Level], i: int, degree: int) -> int | None:
    """Verify levels[i], its deeper levels verified: build its orbit and
    transversal breadth-first from its Schreier set and, in the same pass,
    sift u*g*t^-1, carrying t, for each pair (point, g) that is not a tree
    edge and whose u*g differs from t; the first nontrivial residue ends the
    scan, placed with its origin this level's base, and its index returned
    (else None).  CapExceeded before a point past CHAIN_SLOTS chain entries."""
    lvl = levels[i]
    gens = [g for l in levels[i:] for g, o in zip(l.gens, l.origins) if o < lvl.base]
    lvl.transversal = transversal = {lvl.base: tuple(range(degree))}
    lvl.orbit = orbit = [lvl.base]
    room = CHAIN_SLOTS // degree - sum(len(l.orbit) for l in levels if l is not lvl)
    for pt in orbit:
        u = transversal[pt]
        form = _getter(u)
        for g in gens:
            target = transversal.get(g[pt])
            if target is None:
                if len(orbit) >= room:
                    raise CapExceeded(f"stabilizer chain of degree {degree} exceeds {CHAIN_SLOTS} transversal entries")
                transversal[g[pt]] = _compose(u, g)
                orbit.append(g[pt])
            elif (ug := form(g)) != target:
                residue = _sift(levels, i + 1, ug, target)
                if residue is not None:
                    return _place(levels, i + 1, residue, degree, lvl.base)
    return None


def _grow(levels: list[_Level], generators: Iterable[Permutation], degree: int, top: int = 0) -> bool:
    """Grow a verified chain (or the empty one) by the generators, and say
    whether it grew: each is sifted and a residue placed with no origin
    (-1), so it joins every Schreier set down to its level; on the empty
    chain, where a level's transversal holds only its base, each lands on
    the level of the smallest point it moves.  Then the levels from the
    deepest one landed on up to top are verified, deepest first
    (deterministic Schreier-Sims); levels above top are kept as verified.
    A verification forms each Schreier generator at most once, by two rules.
    (1) A tree edge (pt, g), g(pt) first reached from pt, has u_pt*g =
    u_g(pt) and is never formed.  (2) A level's Schreier set and orbit
    search leave out every residue produced at that level or below it: by
    induction on creation order, such a residue is a product of set members
    and deeper transversal elements, so the set generates the same group
    and gives the same orbit.  A residue of level i lands on a deeper level
    k and changes only levels i+1, ..., k: they are verified again, k
    first, and then level i from its first pair."""
    identity = tuple(range(degree))
    landed = []
    for g in generators:
        residue = _sift(levels, 0, g.images, identity)
        if residue is not None:
            landed.append(levels[_place(levels, 0, residue, degree, -1)])
    i = max(map(levels.index, landed), default=top - 1)
    while i >= top:
        placed = _verify(levels, i, degree)
        i = i - 1 if placed is None else placed
    return bool(landed)


def _regular_normal(generators: tuple[Permutation, ...], degree: int):
    """(R, G_0's generators) when the generators fixing no point, A, have an
    abelian regular normal closure R, else (None, the generators).  A
    worklist walks A, then the conjugates by each generator s fixing a point
    of each element that joins.  One whose image of 0 is reached is skipped;
    a new one must commute with the basis so far, and joins it, its powers
    extending the orbit of 0 in place.  With all n points reached, the
    abelian R = <basis> is transitive, so regular (Dixon-Mortimer, Thm 4.2A):
    an element lies in R when it is R's element at its image of 0, and every
    element walked must be, so R holds A and is normal.  R's level, a _Tree
    labelled by the basis, holds R's elements at 0 and needs no verifying:
    G = R*G_0, and a Schreier generator of (x, s) lies in Rs n G_0 = {h_s},
    h_s = t*s with t in R, t(0) = s^-1(0), one per generator s fixing a point."""
    moving = [g for g in generators if not count_fixed(g.images)]
    if not moving:
        return None, generators
    fixing = [s for s in generators if count_fixed(s.images)]
    conjugators, level, walked = [s.conjugator() for s in fixing], _Level(0, degree, tree=True), list(moving)
    for a in walked:  # also walks the conjugates appended meanwhile
        if a.images[0] in level.transversal:
            continue
        if any(_compose(a.images, b) != _compose(b, a.images) for b in level.gens):
            return None, generators
        _walk(level, [a.images], degree)
        walked += [conjugate(a) for conjugate in conjugators]
    if len(level.orbit) < degree or any(level.transversal[w.images[0]] != w.images for w in walked):
        return None, generators
    r = PermGroup(degree, map(Permutation._raw, level.gens))
    r._levels = [level]
    return r, [Permutation._raw(_compose(level.transversal[s.images.index(0)], s.images)) for s in fixing]


class PermGroup:
    """Group generated by a list of permutations of a common degree.  An
    order the caller has proved may be passed as ``order``: ``order()``
    returns it with no chain built, and the chain, when built, must agree
    with it (ConstraintViolated naming both); a transitive group carrying
    order n is regular by it, and its one-level chain is read from that."""

    def __init__(self, degree: int, generators: Iterable = (), *, order: int | None = None):
        if degree < 1:
            raise ConstraintViolated(f"degree must be at least 1, got {degree}")
        self.degree = degree
        gens: list[Permutation] = []
        seen = set()
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree} in group of degree {degree}"
                )
            if g.is_identity() or g.images in seen:
                continue
            seen.add(g.images)
            gens.append(g)
        self.generators = tuple(gens)
        self._levels: list[_Level] | None = None
        self._regular: PermGroup | None = None  # abelian R when the chain's first level is R's (None in R)
        self._order = order
        self._orbits: list[list[int]] | None = None
        self._stabilizer: PermGroup | None = None
        self._primitive: bool | None = None

    # chain and membership -------------------------------------------------

    def _chain(self) -> list[_Level]:
        """Over R when ``_regular_normal`` finds it; else a transitive group
        carrying order n is regular, one _Tree level walked by its generators."""
        if self._levels is None:
            self._regular, gens = _regular_normal(self.generators, self.degree)
            levels = list(self._regular._levels) if self._regular else []
            if not levels and gens and self._order == self.degree and self.is_transitive():
                levels = [_walk(_Level(0, self.degree, tree=True), [g.images for g in gens], self.degree)]
            else:
                _grow(levels, gens, self.degree, top=len(levels))
            if self._order not in (None, found := prod(len(lvl.orbit) for lvl in levels)):
                raise ConstraintViolated(f"the chain has order {found}, the group carries {self._order}")
            self._levels = levels
        return self._levels

    def order(self) -> int:
        if self._order is None:
            self._order = prod(len(lvl.orbit) for lvl in self._chain())
        return self._order

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __contains__(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise DegreeMismatch("degrees differ")
        return _sift(self._chain(), 0, g.images, tuple(range(self.degree))) is None

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and all(
            g in other for g in self.generators
        )

    # orbit structure -------------------------------------------------------

    def orbits(self) -> list[list[int]]:
        if self._orbits is None:
            seen, out = [False] * self.degree, []
            gens = [g.images for g in self.generators]
            for start in range(self.degree):
                if seen[start]:
                    continue
                orb = [start]
                seen[start] = True
                for pt in orb:
                    for images in gens:
                        img = images[pt]
                        if not seen[img]:
                            seen[img] = True
                            orb.append(img)
                out.append(sorted(orb))
            self._orbits = out
        return self._orbits

    def is_transitive(self) -> bool:
        """With a chain built: whether its first orbit, that of 0 when 0 is
        moved, has all n points (the empty chain's orbit is {0})."""
        if self._levels is None:
            return len(self.orbits()) == 1
        return (len(self._levels[0].orbit) if self._levels else 1) == self.degree

    def stabilizer(self) -> "PermGroup":
        """The stabilizer of point 0.  A group that moves 0 has its first
        level based at 0, and the levels below it are the stabilizer's
        chain; a group that fixes 0 is its own stabilizer."""
        chain = self._chain()
        if not chain or chain[0].base != 0:
            return self
        if self._stabilizer is None:
            gens = [Permutation._raw(g) for lvl in chain[1:] for g in lvl.gens]
            self._stabilizer = PermGroup(self.degree, gens)
            self._stabilizer._levels = chain[1:]
        return self._stabilizer

    def rank(self) -> int:
        """Number of suborbits (orbits of a point stabilizer).  The corpus
        suite cross-checks it against the character formula
        sum(fix(g)^2) == rank * |G|."""
        if not self.is_transitive():
            raise NotTransitive("rank needs a transitive group")
        return len(self.stabilizer().orbits())

    def is_primitive(self) -> bool:
        """Whether the group is transitive and preserves no nontrivial
        partition, computed once.  Blocks through 0 correspond to the groups
        between G_0 and G, so a transitive G is primitive exactly when G_0
        is maximal (Dixon-Mortimer, Permutation Groups, Cor 1.5A).
        <G_0, g> depends only on the suborbit holding g(0), and it is G
        exactly when it is transitive; the chain's first level holds one such
        g per suborbit, the transversal element of its least point."""
        if self._primitive is None:
            self._primitive = self.is_transitive()
            if self._primitive:
                stab = self.stabilizer()
                # orbits() lists {0} first, then the suborbits by least point
                reps = (self._chain()[0].transversal[s[0]] for s in stab.orbits()[1:])
                self._primitive = all(
                    PermGroup(self.degree, stab.generators + (Permutation._raw(u),)).is_transitive()
                    for u in reps
                )
        return self._primitive

    # element enumeration ----------------------------------------------------

    def _enumeration_split(self):
        """(tail, chunks): each element 'apply u_k-1, ..., then u_0', u_i over
        level i's transversal in sorted orbit order, is once 'apply t, then
        u', t a row of the C-ordered tail array, the products of as many of
        the deepest levels as keep it within the chain's own transversal
        count (the deepest always fits), and u an upper product (outermost),
        streamed in chunks of at most max(1, BLOCK_ENTRIES // tail.size), all
        in the smallest dtype holding the points."""
        rows = [[u for _, u in sorted(zip(lvl.orbit, lvl.transversal.values()))] for lvl in self._chain()]
        store, n, dtype = sum(map(len, rows)), self.degree, np.min_scalar_type(self.degree - 1)
        tail = np.arange(n, dtype=dtype)[None]
        while rows and len(tail) * len(rows[-1]) <= store:
            tail = np.take(np.array(rows.pop(), dtype=dtype), tail, axis=1).reshape(-1, n)
        upper, step = iter(reduce(_products, rows, [tuple(range(n))])), max(1, BLOCK_ENTRIES // tail.size)
        chunks = iter(lambda: list(islice(upper, step)), [])
        return tail, (np.array(chunk, dtype=dtype) for chunk in chunks)

    def _element_blocks(self) -> Iterator[np.ndarray]:
        """Every element once, the identity first, as rows of image arrays
        of at most max(BLOCK_ENTRIES, tail.size) entries: a chunk of upper
        products gathered by the tail, row (u, t) being t then u."""
        tail, chunks = self._enumeration_split()
        return (chunk[:, tail].reshape(-1, self.degree) for chunk in chunks)

    def fixed_point_tally(self) -> Counter:
        """fix -> the number of elements with that many fixed points."""
        return _counter(_fix_counts(self, [])[1])

    def random_element(self, rng: random.Random) -> Permutation:
        """A uniform random element: one uniform transversal element per
        chain level, composed as the enumeration composes them."""
        images = tuple(range(self.degree))
        for lvl in self._chain():
            images = _compose(lvl.transversal[rng.choice(lvl.orbit)], images)
        return Permutation._raw(images)

    def iter_elements(self) -> Iterator[Permutation]:
        """Stream every element exactly once, the rows of the element
        blocks in their order, starting with the identity, each row's tuple
        zipped from the block's columns."""
        rows = (zip(*b.T.tolist()) for b in self._element_blocks())
        return map(Permutation._raw, chain.from_iterable(rows))

    def elements(self) -> list[Permutation]:
        if self.order() > ENUMERATION_CAP:
            raise CapExceeded(f"group order {self.order()} exceeds cap {ENUMERATION_CAP}")
        return list(self.iter_elements())

    def normal_closure(self, seeds: Iterable[Permutation]) -> "PermGroup":
        """The normal closure of seeds of this group, else NotSubgroup."""
        seeds = list(seeds)
        if not all(s in self for s in seeds):
            raise NotSubgroup("seed lies outside the group")
        return self._normal_closure_of(PermGroup(self.degree, ()), *seeds)

    def _normal_closure_of(self, closure: "PermGroup", *new: Permutation) -> "PermGroup":
        """The normal closure of closure and new, for closure normal in this
        group and new in it: one copy of closure's chain grows by new, then
        by the conjugates of the generators it gains, each of this group's
        generators inverted once.  A candidate is sifted once, by ``_grow``,
        and joins the generators when a residue lands.  A worklist forms each
        (conjugator, generator) pair once, walking the list as it grows;
        closure's own have their conjugates in it.  closure itself is
        returned when nothing joins.  A closure over this group's R
        (``_regular_normal``) keeps R's level unverified: candidates lie in
        this group, which normalizes R, so the closure is R times its part fixing 0."""
        conjugators = [g.conjugator() for g in self.generators]
        levels, closed = [lvl.copy() for lvl in closure._chain()], len(closure.generators)
        r = self._regular
        top = int(r is not None and (closure is r or closure._regular is r))
        gens = list(closure.generators) + [x for x in new if _grow(levels, (x,), self.degree, top)]
        for k in islice(gens, closed, None):  # also walks what joins meanwhile
            for conjugate in conjugators:
                c = conjugate(k)
                if _grow(levels, (c,), self.degree, top):
                    gens.append(c)
        if len(gens) == closed:
            return closure
        grown = PermGroup(self.degree, gens)
        grown._levels, grown._regular = levels, r if top else None
        return grown

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


def _block_action(blocks: Sequence[Sequence[int]], images: Iterable[Sequence[int]], order: int) -> PermGroup:
    """The action Q of a group G, given by its generators' image lists, on
    the blocks, numbered in their order, carrying |Q| = order; a block is
    anchored at its first point.  The blocks must be the orbits of a
    subgroup K of G inside one orbit of G, |G : K| = order of them.  G
    permutes them (NotNormal when a map splits a block) and K fixes each,
    so |Q| <= |G : K|; G is transitive on them, so |Q| >= order.  Hence Q
    is regular, with kernel K, and no chain is built to learn its order."""
    assert len(blocks) == order, "the blocks must number the quotient's order"
    block_of = {x: b for b, block in enumerate(blocks) for x in block}
    gens = []
    for img in images:
        perm = [block_of[img[block[0]]] for block in blocks]
        moved = map(block_of.__getitem__, map(img.__getitem__, block_of))
        if list(map(perm.__getitem__, block_of.values())) != list(moved):
            raise NotNormal("the maps do not permute the blocks")
        gens.append(Permutation._raw(tuple(perm)))
    return PermGroup(order, gens, order=order)


def _counter(counts: np.ndarray) -> Counter:
    return Counter({k: c for k, c in enumerate(counts.tolist()) if c})


def _fix_counts(group: PermGroup, inverses: Sequence[np.ndarray]) -> tuple[list[int], np.ndarray]:
    """(hits, counts): hits[i] sums fix(t*g) over the elements g of group,
    for t^-1 = inverses[i], and counts[k] counts the elements fixing k
    points.  For g = 'apply s, then u', s a tail row and u an upper product,
    fix(g) = #{y : s(y) = u^-1(y)} and fix(t*g) = #{y : s(y) = u^-1(t^-1(y))}:
    each chunk of upper products is inverted once, and no element is formed."""
    tail, chunks = group._enumeration_split()
    n = group.degree
    hits, counts = [0] * len(inverses), np.zeros(n + 1, dtype=np.int64)
    for chunk in chunks:
        inv = np.empty_like(chunk)
        inv[np.arange(len(chunk))[:, None], chunk] = np.arange(n, dtype=chunk.dtype)
        counts += np.bincount((tail == inv[:, None]).sum(axis=2).ravel(), minlength=n + 1)
        for i, t in enumerate(inverses):
            hits[i] += int(np.count_nonzero(tail == inv.take(t, axis=1)[:, None]))
    return hits, counts


def coset_average_fixed_points(
    reps: Sequence[Permutation], group: PermGroup, fixed: Counter | None = None
) -> list[Fraction]:
    """Exact average number of fixed points over t*G for each t in reps: 1
    for transitive groups, the orbit count for intransitive ones.  One pass
    of ``_fix_counts`` sums fix(t*g) over G for every t: the same exact sum
    over the same elements, not the orbit-counting formula.  A Counter
    passed as ``fixed`` also tallies fix(g) over G."""
    if any(t.degree != group.degree for t in reps):
        raise DegreeMismatch("degrees differ")
    hits, counts = _fix_counts(group, [np.argsort(t.images) for t in reps])
    if fixed is not None:
        fixed.update(_counter(counts))
    return [Fraction(h, group.order()) for h in hits]


def _row_keys(rows: np.ndarray, width: int) -> list[bytes]:
    """The bytes of each run of width entries of a C-contiguous array."""
    return rows.reshape(-1, width).view(np.dtype((np.void, width * rows.itemsize))).ravel().tolist()


def closure(start: np.ndarray, step: Callable[[np.ndarray], np.ndarray], cap: int):
    """(rows, key -> position) of the breadth-first closure of start's
    distinct rows, in the smallest unsigned dtype holding the entries, under
    step: a frontier's products, frontier-major and generator-minor.  A row's
    key is its bytes; each round keeps the first occurrence of each new key,
    in order.  CapExceeded when the closure has more than cap rows, checked
    each time max(1, BLOCK_ENTRIES // width) frontier rows have been stepped."""
    shape, dtype, width = start.shape[1:], start.dtype, start[0].size
    frontier, rounds, chunk = start, [start], max(1, BLOCK_ENTRIES // width)
    position = dict(zip(_row_keys(start, width), range(len(start))))
    while len(frontier):
        new = []
        for lo in range(0, len(frontier), chunk):
            products = step(frontier[lo : lo + chunk]).astype(dtype, copy=False)
            fresh = [key for key in dict.fromkeys(_row_keys(products, width)) if key not in position]
            if len(position) + len(fresh) > cap:
                raise CapExceeded(f"closure exceeds cap {cap}")
            position.update(zip(fresh, range(len(position), len(position) + len(fresh))))
            new += fresh
        frontier = np.frombuffer(b"".join(new), dtype=dtype).reshape(-1, *shape)
        rounds.append(frontier)
    return np.concatenate(rounds), position


def bruteforce_closure(degree: int, generators: Sequence[Permutation], cap: int = 100_000) -> np.ndarray:
    """Independent multiplication closure, used to cross-check chain orders:
    the (order, degree) array of the group's image rows by ``closure`` from
    the identity, a round one numpy gather of the frontier by every
    generator; CapExceeded past cap elements.  Only the generators' images
    are read, never a chain."""
    if any(g.degree != degree for g in generators):
        raise DegreeMismatch("degrees differ")
    gens = np.array([g.images for g in generators], dtype=np.intp).ravel()
    start = np.arange(degree, dtype=np.min_scalar_type(degree - 1))[None]
    return closure(start, lambda frontier: frontier.take(gens, axis=1), cap)[0]


# standard groups ------------------------------------------------------------


def symmetric_group(n: int) -> PermGroup:
    """S_n from (0 1) and (0 1 ... n-1), carrying its order n!."""
    if n < 3:
        return cyclic_group(n)
    return PermGroup(n, [Permutation.from_cycles(n, c) for c in ([(0, 1)], [tuple(range(n))])], order=factorial(n))


def alternating_group(n: int) -> PermGroup:
    """A_n from (0 1 2) and an even long cycle, carrying its order n!/2."""
    if n < 3:
        return PermGroup(n, [])
    three = Permutation.from_cycles(n, [(0, 1, 2)])
    if n % 2:
        big = Permutation.from_cycles(n, [tuple(range(n))])
    else:
        big = Permutation.from_cycles(n, [tuple(range(1, n))])
    return PermGroup(n, [three, big], order=factorial(n) // 2)


def cyclic_group(n: int) -> PermGroup:
    return PermGroup(n, [Permutation.from_cycles(n, [tuple(range(n))])])


def dihedral_group(m: int) -> PermGroup:
    """Dihedral group of order 2m acting on m points (m >= 3)."""
    if m < 3:
        raise ConstraintViolated("dihedral action needs at least 3 points")
    rot = Permutation.from_cycles(m, [tuple(range(m))])
    ref = Permutation([(-i) % m for i in range(m)])
    return PermGroup(m, [rot, ref])
