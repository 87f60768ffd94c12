"""Permutation groups on {0, ..., n-1} with a deterministic stabilizer chain.

Composition is left-to-right: (g * h)(x) = h(g(x)).  One Schreier-Sims
routine both builds a chain and extends one.  Every strong generator sits
at the level based at the smallest point it moves, so bases are strictly
increasing and each level group fixes every point below its base point.
A chain is built on the first structural query; ``extended`` grows a copy
of it by one generator, and the stabilizer of the first base point shares
its levels.  Levels are never changed once a group holds them, so chains
are safe to share.  A sift inverts nothing: it carries the product of the
transversal elements it uses and compares it with the sifted element, and
products run in C.  Quotients are taken as actions on blocks, the orbits
of a normal subgroup (``block_action``).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add, itemgetter
from typing import Iterable, Iterator, Sequence

from .errors import (
    CapExceeded,
    DegreeMismatch,
    NotNormal,
    NotSubgroup,
    NotTransitive,
)

ENUMERATION_CAP = 2_000_000


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


def count_fixed(images: Sequence[int]) -> int:
    return sum(1 for i, x in enumerate(images) if i == x)


def _products(outer: Iterable[tuple[int, ...]], inner: list[tuple[int, ...]]):
    """'apply b, then a' for a in outer, streamed and outermost, and b in inner."""
    getters = [_getter(b) for b in inner]
    return (get(a) for a in outer for get in getters)


def _identity_tuple(images: tuple[int, ...]) -> bool:
    return images == tuple(range(len(images)))


class Permutation:
    """Immutable permutation stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
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
        return Permutation._raw(
            _compose(_compose(_invert(h.images), self.images), h.images)
        )

    def is_identity(self) -> bool:
        return _identity_tuple(self.images)

    def fixed_point_count(self) -> int:
        return count_fixed(self.images)

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
    __slots__ = ("base", "gens", "transversal", "orbit")

    def __init__(self, base: int, degree: int):
        self.base = base
        self.gens: list[tuple[int, ...]] = []
        self.transversal: dict[int, tuple[int, ...]] = {base: tuple(range(degree))}
        self.orbit: list[int] = [base]

    def copy(self) -> "_Level":
        """A level with its own gens list; the transversal and orbit are
        shared, since they are only ever replaced, never mutated in place."""
        lvl = _Level.__new__(_Level)
        lvl.base, lvl.gens = self.base, list(self.gens)
        lvl.transversal, lvl.orbit = self.transversal, self.orbit
        return lvl


def _smallest_moved(images: tuple[int, ...]) -> int:
    for i, x in enumerate(images):
        if i != x:
            return i
    raise ValueError("identity moves nothing")


def _recompute_orbit(levels: list[_Level], i: int, degree: int) -> None:
    lvl = levels[i]
    gens = [g for l in levels[i:] for g in l.gens]
    lvl.transversal = {lvl.base: tuple(range(degree))}
    lvl.orbit = [lvl.base]
    queue = 0
    while queue < len(lvl.orbit):
        pt = lvl.orbit[queue]
        queue += 1
        u = lvl.transversal[pt]
        for g in gens:
            img = g[pt]
            if img not in lvl.transversal:
                lvl.transversal[img] = _compose(u, g)
                lvl.orbit.append(img)


def _sift(levels: list[_Level], start: int, images: tuple[int, ...], w: tuple[int, ...]):
    """Sift images*w^-1 through levels[start:] without inverting per level:
    W, w composed after the transversal elements used, is carried, so the
    residue images*W^-1 maps base b to W.index(images[b]) and is trivial
    exactly when images == W.  Returns None for a trivial residue, else the
    residue, formed with one inversion."""
    for lvl in levels[start:]:
        b = lvl.base
        if images[b] == w[b]:
            continue
        u = lvl.transversal.get(w.index(images[b]))
        if u is None:
            break
        w = _compose(u, w)
    return None if images == w else _compose(images, _invert(w))


def _place(levels: list[_Level], start: int, images: tuple[int, ...], degree: int) -> int:
    """Add a strong generator to the level among levels[start:] based at the
    smallest point it moves, inserting that level in base order when it is
    missing.  Returns the level's index."""
    m = _smallest_moved(images)
    j = start
    while j < len(levels) and levels[j].base < m:
        j += 1
    if j == len(levels) or levels[j].base != m:
        levels.insert(j, _Level(m, degree))
    levels[j].gens.append(images)
    return j


def _schreier_sims(levels: list[_Level], dirty: int, degree: int) -> None:
    """Verify levels[dirty], ..., levels[0], deepest first (deterministic
    Schreier-Sims).  A Schreier generator u*g*t^-1 is trivial exactly when
    u*g equals the transversal element t, so it is only sifted, carrying t,
    when that tuple comparison fails.  A residue that does not sift becomes
    a strong generator, and verification restarts at the level it lands on;
    deeper levels keep their groups and stay verified."""
    i = dirty
    while i >= 0:
        _recompute_orbit(levels, i, degree)
        transversal = levels[i].transversal
        gens_here = [g for l in levels[i:] for g in l.gens]
        landed = None
        for pt in levels[i].orbit:
            u = _getter(transversal[pt])
            for g in gens_here:
                ug = u(g)
                target = transversal[g[pt]]
                if ug == target:
                    continue
                residue = _sift(levels, i + 1, ug, target)
                if residue is not None:
                    landed = _place(levels, i + 1, residue, degree)
                    break
            if landed is not None:
                break
        i = i - 1 if landed is None else landed


def _build_chain(degree: int, generators, pinned: int | None = None) -> list[_Level]:
    """A verified chain for the generators.  With ``pinned``, the first
    level is based at that point whatever it is, and the remaining levels
    form a chain of its stabilizer."""
    levels = [] if pinned is None else [_Level(pinned, degree)]
    for g in generators:
        images = g.images
        if _identity_tuple(images):
            continue
        if pinned is not None and images[pinned] != pinned:
            levels[0].gens.append(images)
        else:
            _place(levels, 0 if pinned is None else 1, images, degree)
    _schreier_sims(levels, len(levels) - 1, degree)
    return levels


class PermGroup:
    """Group generated by a list of permutations of a common degree."""

    def __init__(self, degree: int, generators: Iterable = ()):
        if degree < 1:
            raise ValueError("degree must be at least 1")
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
        self._order: int | None = None
        self._orbits: list[list[int]] | None = None
        self._stabilizers: dict[int, PermGroup] = {}
        self._block_systems: list[BlockSystem] | None = None

    # chain and membership -------------------------------------------------

    def _chain(self) -> list[_Level]:
        if self._levels is None:
            self._levels = _build_chain(self.degree, self.generators)
        return self._levels

    def extended(self, g: Permutation) -> "PermGroup":
        """The group generated by these generators and g.  Its chain is a
        copy of this one, grown from the level where g's sifted residue
        lands instead of being rebuilt."""
        grown = PermGroup(self.degree, self.generators + (g,))
        levels = [lvl.copy() for lvl in self._chain()]
        residue = _sift(levels, 0, g.images, tuple(range(self.degree)))
        if residue is not None:
            _schreier_sims(levels, _place(levels, 0, residue, self.degree), self.degree)
        grown._levels = levels
        return grown

    def order(self) -> int:
        if self._order is None:
            n = 1
            for lvl in self._chain():
                n *= len(lvl.orbit)
            self._order = n
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

    def same_group_as(self, other: "PermGroup") -> bool:
        return (
            self.degree == other.degree
            and self.order() == other.order()
            and self.is_subgroup_of(other)
        )

    # orbit structure -------------------------------------------------------

    def orbits(self) -> list[list[int]]:
        if self._orbits is None:
            seen = [False] * self.degree
            out = []
            for start in range(self.degree):
                if seen[start]:
                    continue
                orb = [start]
                seen[start] = True
                q = 0
                while q < len(orb):
                    pt = orb[q]
                    q += 1
                    for g in self.generators:
                        img = g.images[pt]
                        if not seen[img]:
                            seen[img] = True
                            orb.append(img)
                out.append(sorted(orb))
            self._orbits = out
        return self._orbits

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def stabilizer(self, point: int) -> "PermGroup":
        """Point stabilizer.  When the chain's first base is the point (point
        0 of any group that moves it), the remaining levels are already the
        stabilizer's chain; otherwise a chain is built with the point pinned
        first."""
        if point not in self._stabilizers:
            chain = self._chain()
            if not chain or chain[0].base != point:
                chain = _build_chain(self.degree, self.generators, point)
            gens = [Permutation._raw(g) for lvl in chain[1:] for g in lvl.gens]
            stab = PermGroup(self.degree, gens)
            stab._levels = chain[1:]
            assert stab.order() * len(chain[0].orbit) == self.order()
            self._stabilizers[point] = stab
        return self._stabilizers[point]

    def rank(self) -> int:
        """Number of suborbits (orbits of a point stabilizer).  The corpus
        suite cross-checks it against the character formula
        sum(fix(g)^2) == rank * |G|."""
        if not self.is_transitive():
            raise NotTransitive("rank needs a transitive group")
        return len(self.stabilizer(0).orbits())

    # block systems ----------------------------------------------------------

    def minimal_block_assignment(self, beta: int) -> tuple[int, ...] | None:
        """Finest G-congruence merging 0 and beta; None when it is all of the
        domain.  Union-find refinement, processing each merge against every
        generator once."""
        parent = list(range(self.degree))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: int, b: int) -> bool:
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            if ra > rb:
                ra, rb = rb, ra
            parent[rb] = ra
            return True

        union(0, beta)
        pending = [(0, beta)]
        while pending:
            a, b = pending.pop()
            for g in self.generators:
                ga, gb = g.images[a], g.images[b]
                if find(ga) != find(gb):
                    ra, rb = find(ga), find(gb)
                    union(ra, rb)
                    pending.append((ra, rb))
        roots = [find(x) for x in range(self.degree)]
        if all(r == roots[0] for r in roots):
            return None
        relabel: dict[int, int] = {}
        out = []
        for r in roots:
            if r not in relabel:
                relabel[r] = len(relabel)
            out.append(relabel[r])
        return tuple(out)

    def block_systems(self) -> list["BlockSystem"]:
        """All distinct minimal nontrivial block systems, computed once.

        The finest congruence merging 0 and beta is also the finest merging
        0 and h(beta) for any h fixing 0, so it depends only on the suborbit
        of beta.  One seed per suborbit, its least point, in increasing
        order, finds the systems in the order a scan of every beta would."""
        if self._block_systems is None:
            if not self.is_transitive():
                raise NotTransitive("block systems need a transitive group")
            seen = set()
            out = []
            # orbits() lists {0} first, then the suborbits by least point
            for suborbit in self.stabilizer(0).orbits()[1:]:
                assignment = self.minimal_block_assignment(suborbit[0])
                if assignment is None or assignment in seen:
                    continue
                seen.add(assignment)
                out.append(BlockSystem.from_assignment(assignment))
            self._block_systems = out
        return self._block_systems

    def is_primitive(self) -> bool:
        return self.is_transitive() and not self.block_systems()

    # element enumeration ----------------------------------------------------

    def _iter_element_tuples(self) -> Iterator[tuple[int, ...]]:
        """Every element once, as 'apply u_k-1, ..., then u_0' with u_i
        running over level i's transversal in sorted orbit order, u_0
        outermost.  The tail lists the products of the deepest levels once:
        as many as keep it within the number of transversal elements the
        chain stores (the deepest always fits), so the extra memory is
        bounded by the chain's own.  The upper levels' products stream past
        it, each composed with the whole tail in C; by associativity the
        order is the level-by-level one."""
        rows = [[lvl.transversal[pt] for pt in sorted(lvl.orbit)] for lvl in self._chain()]
        store, identity = sum(map(len, rows)), tuple(range(self.degree))
        tail = [identity]
        while rows and len(tail) * len(rows[-1]) <= store:
            tail = list(_products(rows.pop(), tail))
        return _products(reduce(_products, rows, [identity]), tail)

    def random_element(self, rng: random.Random) -> Permutation:
        """A uniform random element: one uniform transversal element per
        chain level, composed as the enumeration composes them."""
        images = tuple(range(self.degree))
        for lvl in self._chain():
            images = _compose(lvl.transversal[rng.choice(lvl.orbit)], images)
        return Permutation._raw(images)

    def iter_elements(self) -> Iterator[Permutation]:
        """Stream every element exactly once, in a deterministic
        transversal-product order starting with the identity."""
        return map(Permutation._raw, self._iter_element_tuples())

    def elements(self, cap: int = ENUMERATION_CAP) -> list[Permutation]:
        if self.order() > cap:
            raise CapExceeded(f"group order {self.order()} exceeds cap {cap}")
        return list(self.iter_elements())

    def normal_closure(self, seeds: Iterable[Permutation]) -> "PermGroup":
        seeds = list(seeds)
        for s in seeds:
            if s not in self:
                raise NotSubgroup("seed lies outside the group")
        return self.normal_closure_of(PermGroup(self.degree, seeds))

    def normal_closure_of(self, closure: "PermGroup") -> "PermGroup":
        """The normal closure of a subgroup of this group, grown from it by
        ``extended`` with the conjugates of its generators."""
        changed = True
        while changed:
            changed = False
            for g in self.generators:
                for k in closure.generators:
                    c = k.conjugate_by(g)
                    if c not in closure:
                        closure = closure.extended(c)
                        changed = True
        return closure

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


@dataclass(frozen=True)
class BlockSystem:
    """A G-invariant partition into blocks of equal size."""

    assignment: tuple[int, ...]
    num_blocks: int
    block_size: int

    @classmethod
    def from_assignment(cls, assignment: tuple[int, ...]) -> "BlockSystem":
        num = max(assignment) + 1
        sizes = [0] * num
        for b in assignment:
            sizes[b] += 1
        assert len(set(sizes)) == 1, "blocks of a congruence must share a size"
        return cls(assignment, num, sizes[0])

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for pt, b in enumerate(self.assignment):
            out[b].append(pt)
        return out


def block_action(block_of: dict[int, int], images: Iterable[Sequence[int]]) -> PermGroup:
    """The action on blocks 0, 1, ... of maps given by their image lists:
    point x lies in block block_of[x].  A group permutes the orbits of a
    normal subgroup, so NotNormal is raised when a map splits a block."""
    anchor = {b: x for x, b in block_of.items()}
    gens = []
    for img in images:
        perm = [block_of[img[anchor[b]]] for b in range(len(anchor))]
        moved = map(block_of.__getitem__, map(img.__getitem__, block_of))
        if list(map(perm.__getitem__, block_of.values())) != list(moved):
            raise NotNormal("the maps do not permute the blocks")
        gens.append(Permutation(perm))
    return PermGroup(len(anchor), gens)


def coset_average_fixed_points(
    reps: Sequence[Permutation], group: PermGroup, fixed: Counter | None = None
) -> list[Fraction]:
    """Exact average number of fixed points over t*G for each t in reps: 1
    for transitive groups, the orbit count for intransitive ones.  The sum
    of fix(t*g) over G is the sum over points x of #{g : g(t(x)) = x}, so
    one pass over G tallies how many elements map y to z (key y*n + z), and
    each average is read off in O(n).  That is the same exact sum over the
    same elements, not the orbit-counting formula.  A Counter passed as
    ``fixed`` also tallies fix(g) over that pass."""
    n = group.degree
    if any(t.degree != n for t in reps):
        raise DegreeMismatch("degrees differ")
    offsets, pairs, fixed = range(0, n * n, n), Counter(), Counter() if fixed is None else fixed
    for g in group._iter_element_tuples():
        pairs.update(map(add, offsets, g))
        fixed[count_fixed(g)] += 1
    return [Fraction(sum(pairs[y * n + x] for x, y in enumerate(t.images)), group.order()) for t in reps]


def bruteforce_closure(degree: int, generators: Sequence[Permutation], cap: int = 100_000) -> set[tuple[int, ...]]:
    """Independent multiplication closure, used to cross-check chain orders."""
    elems = {tuple(range(degree))}
    frontier = [tuple(range(degree))]
    gens = [g.images for g in generators]
    while frontier:
        nxt = []
        for prod in _products(frontier, gens):
            if prod not in elems:
                if len(elems) >= cap:
                    raise CapExceeded(f"closure exceeded {cap} elements")
                elems.add(prod)
                nxt.append(prod)
        frontier = nxt
    return elems


# standard groups ------------------------------------------------------------


def symmetric_group(n: int) -> PermGroup:
    if n == 1:
        return PermGroup(1, [])
    gens = [Permutation.from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    return PermGroup(n, gens)


def alternating_group(n: int) -> PermGroup:
    if n < 3:
        return PermGroup(max(n, 1), [])
    three = Permutation.from_cycles(n, [(0, 1, 2)])
    if n % 2:
        big = Permutation.from_cycles(n, [tuple(range(n))])
    else:
        big = Permutation.from_cycles(n, [tuple(range(1, n))])
    return PermGroup(n, [three, big])


def cyclic_group(n: int) -> PermGroup:
    if n == 1:
        return PermGroup(1, [])
    return PermGroup(n, [Permutation.from_cycles(n, [tuple(range(n))])])


def dihedral_group(m: int) -> PermGroup:
    """Dihedral group of order 2m acting on m points (m >= 3)."""
    if m < 3:
        raise ValueError("dihedral action needs at least 3 points")
    rot = Permutation.from_cycles(m, [tuple(range(m))])
    ref = Permutation([(-i) % m for i in range(m)])
    return PermGroup(m, [rot, ref])
