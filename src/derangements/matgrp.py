"""Matrix groups over GF(q): enumeration, the eigenvalue-1 subgroup, exact
irreducibility by spinning, Kronecker/central products, and named subgroups
of GL(2,q), the non-split torus ones read off GF(q^2) = field(p, 2f) as a
GF(q)-plane.

Matrices act on row vectors (v -> v*M), so the product M*N means "apply M,
then N" and coincides with the ordinary matrix product.  Entries are the
integer codes of gf.FieldSpec.  Deterministic throughout: searches scan
matrices in row-major encoded order.

A vector's index in GF(q)^d is the index of its base-p digit vector in
GF(p)^(d*f), on which each matrix acts as a (d*f)x(d*f) digit matrix over
GF(p); M -> digit(M) is a homomorphism.  A group's one element store is
the stack of its digit matrices in breadth-first order (batched products
of the frontier and the generators), with a dict from entry codes to
positions; positions are the element handle, and elements() decodes
FFMatrix objects only on request.  One batched elimination mod p decides
eigenvalue 1, and the eigenvalue-1 subgroup is a mask over positions.  A
quotient H/R is H acting on the R-orbits in the orbit of e_0, read off
row 0 of the stack.  Work on vectors maps whole arrays of indices;
projective points are put in canonical form with log/exp tables of GF(q)
and ranked in closed form.  No size or field threshold picks a code path;
SPIN_WORK_CAP and SEMIREGULAR_VECTOR_CAP bound the work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceeded, ConstraintViolated, FieldMismatch
from .gf import FieldSpec, field
from .permgrp import PermGroup, Permutation, block_action

MAT_ENUMERATION_CAP = 2_000_000
SPIN_WORK_CAP = 1_000_000
SEMIREGULAR_VECTOR_CAP = 300_000
FIXES_BLOCK = 8192  # digit matrices per eigenvalue-1 elimination


class FFMatrix:
    """Immutable square matrix; rows of encoded field integers."""

    __slots__ = ("spec", "d", "rows")

    def __init__(self, spec: FieldSpec, rows: Iterable[Iterable[int]]):
        rows = tuple(tuple(int(e) for e in row) for row in rows)
        d = len(rows)
        for row in rows:
            if len(row) != d:
                raise ValueError("matrix must be square")
            for e in row:
                if not 0 <= e < spec.order:
                    raise ValueError(f"entry {e} out of range for {spec}")
        self.spec = spec
        self.d = d
        self.rows = rows

    @classmethod
    def identity(cls, spec: FieldSpec, d: int) -> "FFMatrix":
        return cls(spec, [[1 if i == j else 0 for j in range(d)] for i in range(d)])

    @classmethod
    def scalar(cls, spec: FieldSpec, d: int, value: int) -> "FFMatrix":
        return cls(spec, [[value if i == j else 0 for j in range(d)] for i in range(d)])

    def __mul__(self, other: "FFMatrix") -> "FFMatrix":
        if self.spec is not other.spec:
            raise FieldMismatch(f"{self.spec} vs {other.spec}")
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        return FFMatrix._raw(self.spec, self.d, tuple(map(other.apply_row, self.rows)))

    @classmethod
    def _raw(cls, spec, d, rows) -> "FFMatrix":
        m = object.__new__(cls)
        m.spec = spec
        m.d = d
        m.rows = rows
        return m

    def __pow__(self, k: int) -> "FFMatrix":
        if k < 0:
            return self.inverse() ** (-k)
        result = FFMatrix.identity(self.spec, self.d)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def apply_row(self, v: Sequence[int]) -> tuple[int, ...]:
        """Image of the row vector v (encoded ints) under this matrix."""
        mul, add = self.spec.mul_e, self.spec.add_e
        return tuple(reduce(add, map(mul, v, col)) for col in zip(*self.rows))

    def det(self) -> int:
        spec = self.spec
        m = [list(row) for row in self.rows]
        det = 1
        for col in range(self.d):
            pivot = next((r for r in range(col, self.d) if m[r][col]), None)
            if pivot is None:
                return 0
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = spec.neg_e(det)
            det = spec.mul_e(det, m[col][col])
            inv = spec.inv_e(m[col][col])
            for r in range(col + 1, self.d):
                if m[r][col]:
                    factor = spec.mul_e(m[r][col], inv)
                    m[r] = [
                        spec.sub_e(m[r][j], spec.mul_e(factor, m[col][j]))
                        for j in range(self.d)
                    ]
        return det

    def inverse(self) -> "FFMatrix":
        """The right half of the reduced echelon form of [M | I]."""
        d = self.d
        m = [list(row) + [1 if i == j else 0 for j in range(d)] for i, row in enumerate(self.rows)]
        reduced, pivots = echelonize(self.spec, m)
        if pivots != list(range(d)):
            raise ZeroDivisionError("matrix is singular")
        return FFMatrix(self.spec, [r[d:] for r in reduced])

    def is_identity(self) -> bool:
        return all(
            e == (1 if i == j else 0)
            for i, row in enumerate(self.rows)
            for j, e in enumerate(row)
        )

    def is_scalar(self) -> bool:
        diag = self.rows[0][0]
        return diag != 0 and all(
            e == (diag if i == j else 0)
            for i, row in enumerate(self.rows)
            for j, e in enumerate(row)
        )

    def multiplicative_order(self, cap: int = 10_000) -> int:
        power = self
        for k in range(1, cap + 1):
            if power.is_identity():
                return k
            power = power * self
        raise CapExceeded(f"element order exceeds {cap}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FFMatrix)
            and self.spec is other.spec
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((id(self.spec), self.rows))

    def __repr__(self) -> str:
        return f"FFMatrix({self.spec}, {[list(r) for r in self.rows]})"


def echelonize(spec: FieldSpec, rows: Iterable[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over the field; returns (rows, pivot columns).

    Zero rows are dropped; the result is the canonical basis of the row
    space.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = spec.inv_e(m[row][col])
        m[row] = [spec.mul_e(inv, e) for e in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                factor = m[r][col]
                m[r] = [
                    spec.sub_e(e, spec.mul_e(factor, pe)) for e, pe in zip(m[r], m[row])
                ]
        pivots.append(col)
        row += 1
    return m[:row], pivots


def has_eigenvalue_one(m: FFMatrix) -> bool:
    """True iff (M - I) is singular, i.e. some nonzero row vector is fixed."""
    return bool(_fixes_a_vector(_digit_matrix(m)[None], m.spec.p)[0])


def _fixes_a_vector(stack: np.ndarray, p: int) -> np.ndarray:
    """Per digit matrix of the stack, whether it fixes a nonzero vector.

    A GF(q)-linear map is injective iff it is injective as a GF(p)-linear
    map, so M has eigenvalue 1 iff digit(M) - I is singular mod p.  One
    elimination runs on the whole stack: per column the first nonzero
    entry at or below the diagonal is swapped up, and each row below it is
    replaced by pivot*row - entry*pivot_row, which keeps the rank.  Blocks
    of FIXES_BLOCK matrices bound the copies and temporaries."""
    if len(stack) > FIXES_BLOCK:
        blocks = range(0, len(stack), FIXES_BLOCK)
        return np.concatenate([_fixes_a_vector(stack[i:i + FIXES_BLOCK], p) for i in blocks])
    n, k, _ = stack.shape
    a = stack - np.eye(k, dtype=np.int64)
    a %= p
    singular = np.zeros(n, dtype=bool)
    at = np.arange(n)
    for c in range(k):
        row = c + (a[:, c:, c] != 0).argmax(axis=1)
        pivot_row = a[at, row]
        a[at, row] = a[:, c]
        singular |= pivot_row[:, c] == 0
        below = a[:, c + 1:]
        column = below[:, :, c:c + 1].copy()
        below *= pivot_row[:, c, None, None]
        below -= column * pivot_row[:, None]
        below %= p
    return singular


class MatrixGroup:
    """Group generated by invertible matrices over one field."""

    def __init__(self, spec: FieldSpec, d: int, generators: Iterable[FFMatrix]):
        self.spec = spec
        self.d = d
        gens = []
        for g in generators:
            if not isinstance(g, FFMatrix):
                g = FFMatrix(spec, g)
            self._check(g)
            if g.det() == 0:
                raise ValueError("singular generator")
            if not g.is_identity() and g.rows not in (h.rows for h in gens):
                gens.append(g)
        self.generators = tuple(gens)
        self._stack: np.ndarray | None = None  # digit matrices, breadth-first
        self._position: dict[bytes, int] | None = None  # entry-code bytes -> position
        self._elements: list[FFMatrix] | None = None  # decoded on request
        self._irreducibility: tuple | None = None

    def _check(self, m: FFMatrix) -> None:
        if m.spec is not self.spec:
            raise FieldMismatch(f"matrix over {m.spec}, group over {self.spec}")
        if m.d != self.d:
            raise ValueError(f"matrix dimension {m.d} in GL({self.d},...)")

    def digit_stack(self, cap: int = MAT_ENUMERATION_CAP) -> np.ndarray:
        """The digit matrices of all elements, in breadth-first order from
        the identity; raises CapExceeded when the order exceeds cap."""
        if self._stack is None:
            spec, d = self.spec, self.d
            p, k = spec.p, d * spec.f
            gens = np.array([_digit_matrix(g) for g in self.generators], dtype=np.int64)
            frontier = np.eye(k, dtype=np.int64)[None]
            position = dict.fromkeys(_entry_keys(spec, d, frontier), 0)
            levels = []
            while len(frontier):
                if len(position) > cap:
                    raise CapExceeded(f"matrix closure exceeds cap {cap}")
                levels.append(frontier)
                products = (frontier[:, None] @ gens.reshape(1, -1, k, k) % p).reshape(-1, k, k)
                fresh = []
                for i, key in enumerate(_entry_keys(spec, d, products)):
                    if key not in position:
                        position[key] = len(position)
                        fresh.append(i)
                frontier = products[fresh]
            self._stack = np.concatenate(levels)
            self._position = position
        if len(self._stack) > cap:
            raise CapExceeded(f"matrix closure exceeds cap {cap}")
        return self._stack

    def _positions(self) -> dict[bytes, int]:
        """Entry-code bytes of each element -> its position in the stack."""
        stack = self.digit_stack()
        if self._position is None:
            keys = _entry_keys(self.spec, self.d, stack)
            self._position = dict(zip(keys, range(len(keys))))
        return self._position

    def _locate(self, stack: np.ndarray) -> np.ndarray:
        """Position of each digit matrix of the stack (reduced mod p); a
        KeyError for one outside the group."""
        keys = _entry_keys(self.spec, self.d, stack)
        return np.fromiter(map(self._positions().__getitem__, keys), dtype=np.int64, count=len(keys))

    def elements(self, cap: int = MAT_ENUMERATION_CAP) -> list[FFMatrix]:
        """All elements in the order of digit_stack(), decoded on the first
        call and cached; raises CapExceeded when the order exceeds cap."""
        stack = self.digit_stack(cap)
        if self._elements is None:
            self._elements = _decode(self.spec, self.d, stack)
        return self._elements

    def order(self) -> int:
        return len(self.digit_stack())

    def __contains__(self, m: FFMatrix) -> bool:
        self._check(m)
        return _entry_keys(self.spec, self.d, _digit_matrix(m)[None])[0] in self._positions()

    def element_order_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for m in self.elements():
            k = m.multiplicative_order(cap=self.order())
            hist[k] = hist.get(k, 0) + 1
        return hist

    def scalar_values(self) -> list[int]:
        """Encodings of all lambda with lambda*I in the group, ascending."""
        return sorted(m.rows[0][0] for m in self.elements() if m.is_scalar())

    def contains_minus_identity(self) -> bool:
        return FFMatrix.scalar(self.spec, self.d, self.spec.neg_e(1)) in self

    def __repr__(self) -> str:
        return f"MatrixGroup(GL({self.d},{self.spec.order}), ngens={len(self.generators)})"


def eigenvalue_one_subgroup(group: MatrixGroup) -> MatrixGroup:
    """Subgroup generated by all elements fixing some nonzero vector.

    The elements are scanned in enumeration order, and one becomes a
    generator only when it has eigenvalue 1 and is not yet in the subgroup
    generated so far; so every eigenvalue-1 element ends up inside, and the
    generating set stays small.  The subgroup is a mask over the group's
    positions, grown by a new generator g from the last one: its elements
    times g, then each new element times every generator.  The eigenvalue-1
    elements form a conjugation-closed set (conjugation preserves
    eigenvalues), so the result is normal; normality is still verified by
    conjugating the generators with the parent's generators.
    """
    spec, p = group.spec, group.spec.p
    stack = group.digit_stack()
    inside = np.zeros(len(stack), dtype=bool)
    inside[0] = True  # the identity
    gens: list[int] = []

    def grow(products: np.ndarray) -> np.ndarray:
        found = np.unique(group._locate(products % p))
        found = found[~inside[found]]
        inside[found] = True
        return found

    for i in np.flatnonzero(_fixes_a_vector(stack, p)).tolist():
        if not inside[i]:
            gens.append(i)
            new = grow(stack[inside] @ stack[i])
            while len(new):
                new = grow(stack[new][:, None] @ stack[gens])
    sub = MatrixGroup(spec, group.d, _decode(spec, group.d, stack[gens]))
    sub._stack = stack[inside]
    assert group.order() % sub.order() == 0
    for g in group.generators:
        conjugates = _digit_matrix(g.inverse()) @ stack[gens] % p @ _digit_matrix(g)
        if not inside[group._locate(conjugates % p)].all():
            raise AssertionError("eigenvalue-1 subgroup failed normality check")
    return sub


# vector indexing ------------------------------------------------------------
#
# The index of v in GF(q)^d is sum_j v_j q^j, and with v_j = sum_i c_ji p^i it
# is also the index of the base-p digit vector (c_ji) in GF(p)^(d*f).  A
# GF(q)-matrix acts GF(p)-linearly on those digits, so one integer matrix
# product over GF(p) maps a whole array of indices, whatever the field.


def index_to_vector(spec: FieldSpec, d: int, idx: int) -> tuple[int, ...]:
    out = []
    for _ in range(d):
        out.append(idx % spec.order)
        idx //= spec.order
    return tuple(out)


def _index_digits(spec: FieldSpec, d: int, idx: np.ndarray) -> np.ndarray:
    """Base-p digits of each index, one row per index, d*f columns."""
    weights = spec.p ** np.arange(d * spec.f, dtype=np.int64)
    return (idx[:, None] // weights) % spec.p


def _digit_matrix(m: FFMatrix) -> np.ndarray:
    """m as a (d*f)x(d*f) matrix over GF(p): row j*f + i holds the digits
    of x^i times row j of m, f digits per entry."""
    spec, f = m.spec, m.spec.f
    rows = [[spec.mul_e(spec.p**i, e) for e in row] for row in m.rows for i in range(f)]
    digits = np.array(rows, dtype=np.int64)[:, :, None] // spec.p ** np.arange(f, dtype=np.int64)
    return (digits % spec.p).reshape(m.d * f, m.d * f)


def _codes(spec: FieldSpec, d: int, digits: np.ndarray) -> np.ndarray:
    """GF(q) codes of d base-p digit groups of f along the last axis."""
    grouped = digits.reshape(*digits.shape[:-1], d, spec.f)
    return grouped @ spec.p ** np.arange(spec.f, dtype=np.int64)


def _decode(spec: FieldSpec, d: int, stack: np.ndarray) -> list[FFMatrix]:
    """FFMatrix per digit matrix of the stack: digit row j*f holds row j."""
    entries = _codes(spec, d, stack[:, :: spec.f]).tolist()
    return [FFMatrix._raw(spec, d, tuple(map(tuple, rows))) for rows in entries]


def _entry_keys(spec: FieldSpec, d: int, stack: np.ndarray) -> list[bytes]:
    """One hashable key per digit matrix of the stack, of any leading
    shape: its entry codes."""
    entries = _codes(spec, d, stack[..., :: spec.f, :])
    return entries.reshape(-1, d * d).view(np.dtype((np.void, 8 * d * d))).ravel().tolist()


def _image_indices(spec: FieldSpec, m: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """Indices of the images of the vectors with these digit rows under m."""
    weights = spec.p ** np.arange(len(m), dtype=np.int64)
    return ((digits @ m) % spec.p) @ weights


def _propagate_min_labels(n: int, images: list[np.ndarray]) -> np.ndarray:
    """Least point of each point's orbit under the maps i -> images[g][i]."""
    labels = np.arange(n, dtype=np.int64)
    while True:
        before = labels.copy()
        for img in images:
            np.minimum.at(labels, img, labels)
            labels = np.minimum(labels, labels[img])
        # pointer-jump within discovered label chains
        for _ in range(3):
            labels = np.minimum(labels, labels[labels])
        if np.array_equal(labels, before):
            return labels


def _orbit_labels(group: MatrixGroup) -> np.ndarray:
    """Orbit label per vector index: the least index in its orbit.  Index 0
    (the zero vector) keeps label 0."""
    n = group.spec.order**group.d
    digits = _index_digits(group.spec, group.d, np.arange(n, dtype=np.int64))
    images = [_image_indices(group.spec, _digit_matrix(g), digits) for g in group.generators]
    return _propagate_min_labels(n, images)


@dataclass(frozen=True)
class IndexBoundReport:
    """Outcome of the eigenvalue-1 index bound and orbit-semiregularity
    checks.  semiregular is None when the vector count exceeded the cap and
    the orbit part was skipped."""

    index: int
    bound: int
    index_ok: bool
    semiregular: bool | None

    def __bool__(self) -> bool:
        return self.index_ok and self.semiregular is not False


def index_bound_check(
    group: MatrixGroup,
    sub: MatrixGroup | None = None,
    vector_cap: int = SEMIREGULAR_VECTOR_CAP,
) -> IndexBoundReport:
    """Check |H : eigenvalue-1 subgroup| <= q^d - 1, and that H/sub acts
    semiregularly on the orbits of the normal subgroup sub on nonzero
    vectors: it permutes those in one H-orbit transitively, so it is
    semiregular when each H-orbit holds |H : sub| of them.  The orbits
    come from the digit-vector path over GF(p) for every field; the only
    limit is vector_cap on q^d."""
    spec, d = group.spec, group.d
    if sub is None:
        sub = eigenvalue_one_subgroup(group)
    index = group.order() // sub.order()
    bound = spec.order**d - 1
    n = spec.order**d
    if n > vector_cap:
        return IndexBoundReport(index, bound, index <= bound, None)
    labels = _orbit_labels(sub)
    minima = np.flatnonzero(labels == np.arange(n))[1:]
    digits = _index_digits(spec, d, minima)
    moves = [
        np.searchsorted(minima, labels[_image_indices(spec, _digit_matrix(g), digits)])
        for g in group.generators
    ]
    classes = _propagate_min_labels(len(minima), moves)
    semiregular = bool((np.bincount(classes)[classes] == index).all())
    return IndexBoundReport(index, bound, index <= bound, semiregular)


# irreducibility -------------------------------------------------------------


def _spin(group: MatrixGroup, v: Sequence[int]) -> list[list[int]]:
    """Echelon basis of the smallest invariant subspace containing v: the
    span of v's orbit."""
    spec, d = group.spec, group.d
    span, _ = echelonize(spec, [v])
    frontier = [v]
    while frontier and len(span) < d:
        u = frontier.pop()
        for g in group.generators:
            w = g.apply_row(u)
            grown, _ = echelonize(spec, span + [list(w)])
            if len(grown) > len(span):
                span = grown
                frontier.append(w)
    return span


def _check_spin_work(q: int, d: int) -> None:
    """CapExceeded unless the spin's work d*(q^d - 1)/(q - 1) on GF(q)^d
    fits SPIN_WORK_CAP.  The work is at least 2^(d-1), so q^d is only
    formed for small d."""
    if d > SPIN_WORK_CAP.bit_length() or d * ((q**d - 1) // (q - 1)) > SPIN_WORK_CAP:
        raise CapExceeded(f"spinning GF({q})^{d} exceeds the work cap {SPIN_WORK_CAP}")


def _spin_orbits(group: MatrixGroup) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    spec, d = group.spec, group.d
    if d == 1:
        return True, None
    q = spec.order
    _check_spin_work(q, d)
    qpow = q ** np.arange(d, dtype=np.int64)
    # projective points: the vectors whose first nonzero coordinate is 1
    points = np.sort(
        np.concatenate(
            [qpow[j] + q * qpow[j] * np.arange(q ** (d - 1 - j)) for j in range(d)]
        )
    )
    digits = _index_digits(spec, d, points)
    log, exp = (np.array(t, dtype=np.int64) for t in spec.log_exp())
    images = []
    for g in group.generators:
        coords = _codes(spec, d, digits @ _digit_matrix(g) % spec.p)
        lead = coords[np.arange(len(coords)), (coords != 0).argmax(axis=1)]
        scaled = log[coords]
        scaled -= log[lead][:, None]
        scaled %= q - 1
        zero = coords == 0
        del coords, lead
        scaled = exp[scaled]
        scaled[zero] = 0
        images.append(_projective_rank(scaled @ qpow, q, d))
        del scaled, zero
    labels = _propagate_min_labels(len(points), images)
    for start in points[labels == np.arange(len(points))]:
        span = _spin(group, index_to_vector(spec, d, int(start)))
        if len(span) < d:
            return False, tuple(tuple(r) for r in span)
    return True, None


def _projective_rank(x: np.ndarray, q: int, d: int) -> np.ndarray:
    """Position of each projective point index x among all of them in
    ascending order.  The points led by coordinate j are q^j + q^(j+1)*t for
    t < q^(d-1-j), and ceil((x - q^j) / q^(j+1)) = -floor((q^j - x) /
    q^(j+1)) of them, clipped to that range, lie below x.  Summed in place,
    with one scratch array."""
    rank = np.zeros_like(x)
    below = np.empty_like(x)
    for j in range(d):
        np.floor_divide(np.subtract(q**j, x, out=below), q ** (j + 1), out=below)
        rank -= np.clip(below, -(q ** (d - 1 - j)), 0, out=below)
    return rank


def irreducibility(group: MatrixGroup) -> tuple[bool, list[tuple[int, ...]] | None]:
    """(True, None) when no proper nonzero invariant subspace exists, else
    (False, echelon basis of one).

    Exhaustive over projective points: each point's orbit spans the smallest
    invariant subspace through it, so one spin per orbit is exact.  The
    points are the vectors with first nonzero coordinate 1; a generator's
    images come from the digit-vector path and are put back in that form by
    dividing by the leading coordinate with log/exp tables of GF(q).  Orbits
    are taken in order of their least index, and the witness is the span of
    the first one of rank < d.  The same path serves every field and size;
    SPIN_WORK_CAP bounds it.  The result is cached on the group."""
    if group._irreducibility is None:
        group._irreducibility = _spin_orbits(group)
    flag, witness = group._irreducibility
    return flag, None if witness is None else list(witness)


def is_irreducible(group: MatrixGroup) -> bool:
    return irreducibility(group)[0]


# products and embeddings ------------------------------------------------------


def kronecker(a: FFMatrix, b: FFMatrix) -> FFMatrix:
    """Kronecker product; index (i,k) of the product space is i*d_B + k, so
    (v (x) w) * (A (x) B) = (v*A) (x) (w*B) in row convention."""
    if a.spec is not b.spec:
        raise FieldMismatch(f"{a.spec} vs {b.spec}")
    spec = a.spec
    da, db = a.d, b.d
    rows = []
    for i in range(da):
        for k in range(db):
            row = []
            for j in range(da):
                for l in range(db):
                    row.append(spec.mul_e(a.rows[i][j], b.rows[k][l]))
            rows.append(row)
    return FFMatrix(spec, rows)


def central_product(x: MatrixGroup, y: MatrixGroup) -> MatrixGroup:
    """Group generated by {a (x) I} and {I (x) b}: the central product of the
    factors over their shared scalars.  Both factors must contain -I; the
    order formula |X||Y|/|shared scalars| is asserted against enumeration."""
    if x.spec is not y.spec:
        raise FieldMismatch(f"{x.spec} vs {y.spec}")
    spec = x.spec
    if not (x.contains_minus_identity() and y.contains_minus_identity()):
        raise ConstraintViolated("central product factors must contain -I")
    ix = FFMatrix.identity(spec, x.d)
    iy = FFMatrix.identity(spec, y.d)
    gens = [kronecker(g, iy) for g in x.generators] + [
        kronecker(ix, g) for g in y.generators
    ]
    prod = MatrixGroup(spec, x.d * y.d, gens)
    y_scalars = set(y.scalar_values())
    shared = [lam for lam in x.scalar_values() if spec.inv_e(lam) in y_scalars]
    assert prod.order() * len(shared) == x.order() * y.order(), (
        "central product order disagrees with the scalar-overlap formula"
    )
    return prod


def _quadratic_plane(spec: FieldSpec):
    """GF(q^2) = field(p, 2f) as a plane over GF(q) with basis {1, t}, t the
    code p.  GF(q) embeds through the least root r of spec.modulus (the code
    sum c_i p^i goes to sum c_i r^i), so each w is a + b*t for one pair of
    GF(q) codes.  Returns (big, matrix): matrix(fn) is the 2x2 matrix over
    spec of a GF(q)-linear map fn of big, rows the coordinates of fn(1) and
    fn(t)."""
    p, f, q = spec.p, spec.f, spec.order
    big = field(p, 2 * f)

    def value(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = big.add_e(big.mul_e(acc, x), c)
        return acc

    r = next(x for x in range(big.order) if value(spec.modulus, x) == 0)
    emb = [value([c // p**i % p for i in range(f)], r) for c in range(q)]
    coords = {big.add_e(emb[a], big.mul_e(emb[b], p)): (a, b) for a in range(q) for b in range(q)}

    def matrix(fn) -> FFMatrix:
        return FFMatrix(spec, [coords[fn(1)], coords[fn(p)]])

    return big, matrix


# permutation views -------------------------------------------------------------


def regular_perm_group(group: MatrixGroup) -> PermGroup:
    """Right-regular permutation action on the group's own elements."""
    stack, p = group.digit_stack(), group.spec.p
    gens = [
        Permutation(group._locate(stack @ _digit_matrix(g) % p).tolist())
        for g in group.generators
    ]
    out = PermGroup(max(len(stack), 1), gens)
    assert out.order() == group.order()
    return out


def quotient_perm_group(group: MatrixGroup, sub: MatrixGroup) -> PermGroup:
    """H/sub as H acting on the sub-orbits in the orbit of e_0 = (1, 0, ...,
    0), read off row 0 of the stack.  For sub normal and holding the
    stabilizer H_{e_0}, as R(H) does, h and h' share a coset exactly when
    e_0*h and e_0*h' share a sub-orbit, so the action is regular.  Else
    ConstraintViolated (sub misses part of H_{e_0}) or NotNormal."""
    spec, d = group.spec, group.d
    images = np.sort(group.digit_stack()[:, 0] @ spec.p ** np.arange(d * spec.f))
    points = images[np.append(True, images[1:] != images[:-1])]
    digits = _index_digits(spec, d, points)
    sub_moves, moves = (
        [np.searchsorted(points, _image_indices(spec, _digit_matrix(g), digits)) for g in gens]
        for gens in (sub.generators, group.generators)
    )
    labels = _propagate_min_labels(len(points), sub_moves)
    minima = np.flatnonzero(labels == np.arange(len(points)))
    if len(minima) * sub.order() != group.order():
        raise ConstraintViolated("the subgroup must hold the stabilizer of e_0")
    block_of = dict(enumerate(np.searchsorted(minima, labels).tolist()))
    out = block_action(block_of, (m.tolist() for m in moves))
    assert out.order() == len(minima), "H/sub must act regularly on the sub-orbits"
    return out


# named constructions ------------------------------------------------------------


def quaternion_gl2(spec: FieldSpec) -> MatrixGroup:
    """The order-8 quaternion subgroup of GL(2,q), q odd, generated by the
    two least anticommuting square roots of -I in row-major encoded order:
    i = [[0, 1], [-1, 0]] (a root with e00 = 0 has e11 = 0, e01*e10 = -1)
    and j = [[a, b], [b, -a]], the form of every root anticommuting with i,
    with (a, b) the least pair such that a^2 + b^2 = -1."""
    if spec.p == 2:
        raise ConstraintViolated("quaternion subgroup needs odd characteristic")
    q, neg_one = spec.order, spec.neg_e(1)
    a, b = next(
        (a, b)
        for a in range(q)
        for b in range(q)
        if spec.add_e(spec.mul_e(a, a), spec.mul_e(b, b)) == neg_one
    )
    i = FFMatrix(spec, [[0, 1], [neg_one, 0]])
    j = FFMatrix(spec, [[a, b], [b, spec.neg_e(a)]])
    group = MatrixGroup(spec, 2, [i, j])
    assert group.order() == 8
    assert group.element_order_histogram() == {1: 1, 2: 1, 4: 6}
    return group


def special_linear_gl2(spec: FieldSpec) -> MatrixGroup:
    """Natural SL(2,p) for prime p: a transvection and the rotation by the
    antidiagonal square root of -I generate it."""
    assert spec.f == 1, "natural SL(2,q) generators implemented for prime fields"
    p = spec.p
    gens = [
        FFMatrix(spec, [[1, 1], [0, 1]]),
        FFMatrix(spec, [[0, 1], [spec.neg_e(1), 0]]),
    ]
    group = MatrixGroup(spec, 2, gens)
    assert group.order() == p * (p * p - 1)
    return group


def general_linear_gl2(spec: FieldSpec) -> MatrixGroup:
    """All of GL(2,q): transvection + swap + a determinant-spanning torus."""
    g = spec.primitive_element()
    gens = [
        FFMatrix(spec, [[1, 1], [0, 1]]),
        FFMatrix(spec, [[0, 1], [1, 0]]),
        FFMatrix(spec, [[g, 0], [0, 1]]),
    ]
    group = MatrixGroup(spec, 2, gens)
    q = spec.order
    assert group.order() == (q * q - 1) * (q * q - q)
    return group


def scalar_matrix_group(spec: FieldSpec, d: int) -> MatrixGroup:
    """The full scalar group {lambda*I}, cyclic of order q-1."""
    g = spec.primitive_element()
    group = MatrixGroup(spec, d, [FFMatrix.scalar(spec, d, g)])
    assert group.order() == spec.order - 1
    return group


def dihedral_gl2(spec: FieldSpec, m: int) -> MatrixGroup:
    """Dihedral group of order 2m in GL(2,q) with rotation of order m: the
    split torus + swap when m | q-1, else the nonsplit torus + Frobenius
    when m | q+1."""
    if m < 3:
        raise ConstraintViolated("dihedral rotation order must be at least 3")
    q = spec.order
    if (q - 1) % m == 0:
        u = next(e for e in range(2, q) if spec.multiplicative_order_e(e) == m)
        rot = FFMatrix(spec, [[u, 0], [0, spec.inv_e(u)]])
        ref = FFMatrix(spec, [[0, 1], [1, 0]])
    elif (q + 1) % m == 0:
        big, matrix = _quadratic_plane(spec)
        u = big.pow_e(big.primitive_element(), (q * q - 1) // m)
        rot = matrix(lambda w: big.mul_e(w, u))
        ref = matrix(lambda w: big.pow_e(w, q))
    else:
        raise ConstraintViolated(f"order-{m} rotation needs m | q-1 or m | q+1")
    assert rot.multiplicative_order() == m
    assert (ref * ref).is_identity()
    assert ((ref.inverse() * rot) * ref) == rot.inverse()
    group = MatrixGroup(spec, 2, [rot, ref])
    assert group.order() == 2 * m
    return group


def binary_tetrahedral_gl2(spec: FieldSpec) -> MatrixGroup:
    """SL(2,3) as a subgroup of GL(2,q), q odd: the quaternion group {±1,
    ±i, ±j, ±ij} extended by the Hurwitz unit w = (-1 + i + j + ij)/2,
    which has order 3 and cycles i, j, ij by conjugation."""
    i, j = quaternion_gl2(spec).generators
    add, half = spec.add_e, spec.inv_e(2)
    terms = (FFMatrix.scalar(spec, 2, spec.neg_e(1)), i, j, i * j)
    w = FFMatrix(
        spec,
        [
            [spec.mul_e(half, add(add(a, b), add(c, d))) for a, b, c, d in zip(*rows)]
            for rows in zip(*(t.rows for t in terms))
        ],
    )
    group = MatrixGroup(spec, 2, [i, j, w])
    assert group.order() == 24
    assert group.element_order_histogram() == {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}
    return group


def binary_icosahedral_gl2(spec: FieldSpec) -> MatrixGroup:
    """SL(2,5) as a subgroup of GL(2,q) for q = -1 mod 10: generated by the
    multiplication matrix of an order-10 element of GF(q^2) and the smallest
    trace-1 determinant-1 matrix s with trace(s*t) = 0 (which forces the
    binary icosahedral relations s^3 = t^5 = (st)^2 = -I)."""
    q = spec.order
    if (q + 1) % 10:
        raise ConstraintViolated("needs an order-10 torus element: q = -1 mod 10")
    big, matrix = _quadratic_plane(spec)
    u = big.pow_e(big.primitive_element(), (q * q - 1) // 10)
    t = matrix(lambda w: big.mul_e(w, u))
    assert t.det() == 1
    mul, add, sub = spec.mul_e, spec.add_e, spec.sub_e
    (t00, t01), (t10, t11) = t.rows
    # scan trace-1 det-1 matrices s = [[a,b],[c,1-a]] in row-major order;
    # trace(s*t) = 0 then forces s^3 = t^5 = (st)^2 = -I, which presents
    # the binary icosahedral group, so the first hit generates it
    for a in range(q):
        e = sub(1, a)
        ae = mul(a, e)
        for b in range(q):
            for c in range(q):
                if sub(ae, mul(b, c)) != 1:
                    continue
                trace_st = add(
                    add(mul(a, t00), mul(b, t10)), add(mul(c, t01), mul(e, t11))
                )
                if trace_st:
                    continue
                s = FFMatrix(spec, [[a, b], [c, e]])
                group = MatrixGroup(spec, 2, [s, t])
                assert group.order() == 120
                assert group.element_order_histogram() == {
                    1: 1,
                    2: 1,
                    3: 20,
                    4: 30,
                    5: 24,
                    6: 20,
                    10: 24,
                }
                return group
    raise AssertionError("SL(2,5) exists in GL(2,q) whenever 5 divides q+1")
