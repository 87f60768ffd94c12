"""Matrix groups over GF(q): enumeration, the eigenvalue-1 subgroup, exact
irreducibility, Kronecker/central products, and named subgroups
of GL(2,q), the non-split torus ones read off GF(q^2) = field(p, 2f) as a
GF(q)-plane.

Matrices act on row vectors (v -> v*M), so the product M*N means "apply M,
then N" and coincides with the ordinary matrix product.  Entries are the
integer codes of gf.FieldSpec.  Deterministic throughout: searches scan
matrices in row-major encoded order.

A vector's index in GF(q)^d is the value of its d*f base-p digits (gf's
convention), on which each matrix acts as a (d*f)x(d*f) digit matrix over
GF(p); M -> digit(M) is a homomorphism, and a group converts each of its
generators once (``generator_digits``).  A group's one element store is the
stack of its digit matrices in ``permgrp.closure``'s breadth-first order,
keyed by their bytes in the smallest dtype holding p - 1; element orders
come from batched powers of the stack and scalars from its entry codes.
One batched elimination mod p decides eigenvalue 1, a block of the stack
at a time as the scan for the eigenvalue-1 subgroup R reaches it.  R,
checked normal once per group, has its own closure unless it is H; the
index check and H/R take H alone.  H/R is H acting on the translates of
e_0*R, read off row 0 of R's stack and walked a block at a time, each keyed
by its sorted vector indices.  Work on vectors maps whole arrays of indices.
Irreducibility has one decision, the MeatAxe: spins from the null space of
f(a), for a in the group algebra and f an irreducible factor of e_0's
minimal polynomial under a, prove either answer.  H/R is semiregular on the
R-orbits of nonzero vectors iff R holds every eigenvalue-1 element.
permgrp.ENUMERATION_CAP and SPIN_WORK_CAP bound the work;
SEMIREGULAR_VECTOR_CAP only marks where semiregularity reads None.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from functools import partial, reduce
from itertools import compress, islice, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import permgrp
from .errors import CapExceeded, ConstraintViolated, DegreeMismatch, FieldMismatch, NotNormal
from .gf import FieldSpec, _digits, _least_factor, _poly_mod, _poly_trim, _value, field
from .permgrp import PermGroup, Permutation, _integers

SPIN_WORK_CAP = 1_000_000
SEMIREGULAR_VECTOR_CAP = 300_000  # q^d past which semiregular is None; it bounds no work


class FFMatrix:
    """Immutable square matrix; rows of encoded field integers."""

    __slots__ = ("spec", "d", "rows")

    def __init__(self, spec: FieldSpec, rows: Iterable[Iterable[int]]):
        rows = tuple(map(_integers, rows))
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
            raise DegreeMismatch(f"dimension {self.d} vs {other.d}")
        return FFMatrix._raw(self.spec, self.d, tuple(map(other.apply_row, self.rows)))

    @classmethod
    def _raw(cls, spec, d, rows) -> "FFMatrix":
        m = object.__new__(cls)
        m.spec = spec
        m.d = d
        m.rows = rows
        return m

    def apply_row(self, v: Sequence[int]) -> tuple[int, ...]:
        """Image of the row vector v (encoded ints) under this matrix."""
        mul, add = self.spec.mul_e, self.spec.add_e
        return tuple(reduce(add, map(mul, v, col)) for col in zip(*self.rows))

    def det(self) -> int:
        """The row-swap signs times the pivots of the reduced echelon pass."""
        return _gauss_jordan(self.spec, self.rows)[2]

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
    return _gauss_jordan(spec, rows)[:2]


def _gauss_jordan(spec: FieldSpec, rows: Iterable[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """echelonize's (rows, pivot columns), plus the product of the pivots
    and the row-swap signs: the determinant of a square input, 0 when some
    column has no pivot."""
    add, mul, m = spec.add_e, spec.mul_e, [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    row = 0
    det = 1
    for col in range(ncols):
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot is None:
            det = 0
            continue
        if pivot != row:
            m[row], m[pivot] = m[pivot], m[row]
            det = spec.neg_e(det)
        det = mul(det, m[row][col])
        inv = spec.inv_e(m[row][col])
        # rows from `row` down are zero left of col, so only the rest changes
        m[row][col:] = tail = [mul(inv, e) for e in m[row][col:]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                minus = spec.neg_e(m[r][col])
                m[r][col:] = [add(e, mul(minus, pe)) for e, pe in zip(m[r][col:], tail)]
        pivots.append(col)
        row += 1
    return m[:row], pivots, det


def _fixes_a_vector(stack: np.ndarray, p: int) -> np.ndarray:
    """Per digit matrix of the stack, whether it fixes a nonzero vector.

    A GF(q)-linear map is injective iff it is injective as a GF(p)-linear
    map, so M has eigenvalue 1 iff digit(M) - I is singular mod p.  One
    elimination runs on the whole stack, a block its caller bounds: per
    column the first nonzero entry at or below the diagonal is swapped up,
    and each row below it is replaced by pivot*row - entry*pivot_row, which
    keeps the rank."""
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
    """Group generated by invertible matrices over one field.  An order the
    caller has proved may be passed as ``order``: ``order()`` returns it
    with no stack built, and the stack, when closed, must agree with it
    (ConstraintViolated naming both)."""

    def __init__(self, spec: FieldSpec, d: int, generators: Iterable[FFMatrix], *, order: int | None = None):
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
        self._order = order
        self._stack: np.ndarray | None = None  # digit matrices, breadth-first
        self._position: dict[bytes, int] | None = None  # closure key -> position, set with the stack
        self._irreducibility: tuple | None = None
        self._eigenvalue_one: MatrixGroup | None = None  # R(H), built once
        self._digits: np.ndarray | None = None  # the generators' digit matrices
        self._fixes: np.ndarray | None = None  # per stack row, eigenvalue 1 or not; set when R(H) < H

    def _check(self, m: FFMatrix) -> None:
        if m.spec is not self.spec:
            raise FieldMismatch(f"matrix over {m.spec}, group over {self.spec}")
        if m.d != self.d:
            raise DegreeMismatch(f"matrix dimension {m.d} in GL({self.d},...)")

    def generator_digits(self) -> np.ndarray:
        """The digit matrices of the generators, built once."""
        if self._digits is None:
            k = self.d * self.spec.f
            self._digits = np.array([_digit_matrix(g) for g in self.generators], dtype=np.int64).reshape(-1, k, k)
        return self._digits

    def digit_stack(self, cap: int | None = None) -> np.ndarray:
        """The digit matrices of all elements, in ``permgrp.closure``'s
        breadth-first order from the identity; CapExceeded when the order
        exceeds cap, built, cached or carried (checked before any closure).
        With no cap, ENUMERATION_CAP bounds a closure or a carried order."""
        if self._stack is None:
            limit = permgrp.ENUMERATION_CAP if cap is None else cap
            if self._order is not None and self._order > limit:
                raise CapExceeded(f"closure exceeds cap {limit}")
            p, k = self.spec.p, self.d * self.spec.f
            gens = self.generator_digits()[None]
            start = np.eye(k, dtype=np.min_scalar_type(p - 1))[None]
            rows, position = permgrp.closure(start, lambda frontier: frontier[:, None] @ gens % p, limit)
            if self._order not in (None, len(rows)):
                raise ConstraintViolated(f"the stack has order {len(rows)}, the group carries {self._order}")
            self._stack, self._position = rows.astype(np.int64), position
        elif cap is not None and len(self._stack) > cap:
            raise CapExceeded(f"closure exceeds cap {cap}")
        return self._stack

    def _keys(self, stack: np.ndarray) -> list[bytes]:
        """The closure's key of each digit matrix of the stack (reduced mod
        p), of any leading shape: its bytes in the smallest dtype holding p - 1."""
        small = stack.astype(np.min_scalar_type(self.spec.p - 1))
        return permgrp._row_keys(small, stack.shape[-1] ** 2)

    def order(self) -> int:
        return len(self.digit_stack()) if self._order is None else self._order

    def __contains__(self, m: FFMatrix) -> bool:
        self._check(m)
        self.digit_stack()  # sets the key dict
        return self._keys(_digit_matrix(m))[0] in self._position

    def element_order_histogram(self) -> dict[int, int]:
        """Element order -> count: the k-th powers of the whole stack, one
        batched product per k, until every element has met the identity
        (stack[0])."""
        stack, p = self.digit_stack(), self.spec.p
        orders = np.zeros(len(stack), dtype=np.int64)
        power, k = stack, 1
        while not orders.all():
            orders[(orders == 0) & (power == stack[0]).all(axis=(1, 2))] = k
            power, k = power @ stack % p, k + 1
        return dict(Counter(orders.tolist()))

    def scalar_values(self) -> list[int]:
        """Encodings of all lambda with lambda*I in the group, ascending."""
        spec, d = self.spec, self.d
        entries = _value(self.digit_stack()[:, :: spec.f].reshape(-1, d, d, spec.f), spec.p)
        scalar = (entries == entries[:, :1, :1] * np.eye(d, dtype=np.int64)).all(axis=(1, 2))
        return sorted(entries[scalar, 0, 0].tolist())

    def contains_minus_identity(self) -> bool:
        return FFMatrix.scalar(self.spec, self.d, self.spec.neg_e(1)) in self

    def __repr__(self) -> str:
        return f"MatrixGroup(GL({self.d},{self.spec.order}), ngens={len(self.generators)})"


def eigenvalue_one_subgroup(group: MatrixGroup) -> MatrixGroup:
    """R(H), the subgroup generated by all elements fixing some nonzero
    vector, built once per group and cached on it.

    The eigenvalue-1 elements are scanned in stack order; one whose key is
    not in the dict of the subgroup so far joins its generators, rows of
    H's stack, and ``digit_stack`` closes it again under cap |H|//2.  It is
    H, sharing H's stack and key dict, once its generators hold H's (rows 1
    to n) or its closure passes |H|/2 (Lagrange); else H keeps the flags.
    Conjugation preserves eigenvalues, so R(H) is normal; NotNormal unless
    the key of each g^-1*k*g (g a generator of H, k of R(H)) is in its dict.
    """
    if group._eigenvalue_one is not None:
        return group._eigenvalue_one
    spec, p = group.spec, group.spec.p
    stack, position, blocks = group.digit_stack(), group._position, []
    sub, gens, cap = MatrixGroup(spec, group.d, ()), [], len(stack) // 2

    def flags() -> Iterator[bool]:  # a block eliminated when the scan reaches its first row
        step = max(1, permgrp.BLOCK_ENTRIES // stack[0].size)
        for lo in range(0, len(stack), step):
            blocks.append(_fixes_a_vector(stack[lo:lo + step], p))
            yield from blocks[-1].tolist()

    with suppress(CapExceeded):  # a proper subgroup has at most |H|/2 elements
        sub.digit_stack(cap)
        for key, i in compress(position.items(), flags()):
            if key not in sub._position:
                gens.append(i)
                sub._stack, sub._digits = None, stack[gens]
                if set(range(1, len(group.generators) + 1)).issubset(gens):  # R holds H's generators
                    break
                sub.digit_stack(cap)
    if sub._stack is None:  # R = H
        sub._stack, sub._position = stack, position
    else:  # the scan read every block
        group._fixes = np.concatenate(blocks)
    inverses = np.array([_digit_matrix(g.inverse()) for g in group.generators], dtype=np.int64)
    conjugates = inverses.reshape(-1, 1, *stack.shape[1:]) @ sub._digits % p @ group.generator_digits()[:, None] % p
    if not all(map(sub._position.__contains__, group._keys(conjugates))):
        raise NotNormal("the eigenvalue-1 subgroup is not normal in the group")
    sub.generators = tuple(_decode(spec, group.d, sub._digits))
    group._eigenvalue_one = sub
    return sub


def _digit_matrix(m: FFMatrix) -> np.ndarray:
    """m as a (d*f)x(d*f) matrix over GF(p): row j*f + i holds the digits
    of x^i times row j of m, f digits per entry."""
    spec, f = m.spec, m.spec.f
    rows = [[spec.mul_e(spec.p**i, e) for e in row] for row in m.rows for i in range(f)]
    return _digits(rows, spec.p, f).reshape(m.d * f, m.d * f)


def _decode(spec: FieldSpec, d: int, stack: np.ndarray) -> list[FFMatrix]:
    """FFMatrix per digit matrix of the stack: digit row j*f holds row j."""
    entries = _value(stack[:, :: spec.f].reshape(-1, d, d, spec.f), spec.p).tolist()
    return [FFMatrix._raw(spec, d, tuple(map(tuple, rows))) for rows in entries]


@dataclass(frozen=True)
class IndexBoundReport:
    """Outcome of the eigenvalue-1 index bound and orbit-semiregularity
    checks.  semiregular is None when q^d exceeds SEMIREGULAR_VECTOR_CAP,
    which marks where records leave it unset and bounds no work."""

    index: int
    bound: int
    index_ok: bool
    semiregular: bool | None


def index_bound_check(group: MatrixGroup) -> IndexBoundReport:
    """Check |H : R(H)| <= q^d - 1, and that H/R(H) acts semiregularly on
    the R(H)-orbits of nonzero vectors: v*R(H) has stabilizer H_v*R(H), so
    iff R(H) holds every eigenvalue-1 element of H: at index 1 by definition,
    else by looking up the keys flagged by R(H)'s scan in R(H)'s dict.  It
    certifies ``eigenvalue_one_subgroup`` and reads only True or None."""
    r = eigenvalue_one_subgroup(group)
    index, bound = group.order() // r.order(), group.spec.order**group.d - 1
    if bound >= SEMIREGULAR_VECTOR_CAP:
        return IndexBoundReport(index, bound, index <= bound, None)
    semiregular = index == 1 or all(map(r._position.__contains__, compress(group._position, group._fixes.tolist())))
    return IndexBoundReport(index, bound, index <= bound, semiregular)


# irreducibility -------------------------------------------------------------


def _spin(spec: FieldSpec, d: int, gens: Sequence[FFMatrix], v: Sequence[int]) -> list[list[int]]:
    """Reduced echelon basis of the span of v's orbit under gens.  A vector is
    reduced by the rows kept so far (each zero at earlier pivots); a nonzero
    rest is kept, scaled, and its images pushed, each formed when popped."""
    add, mul, rows, frontier = spec.add_e, spec.mul_e, {}, [lambda: v]  # rows: pivot column -> row
    while frontier and len(rows) < d:
        w = frontier.pop()()
        for col, row in rows.items():
            if w[col]:
                minus = spec.neg_e(w[col])
                w = [add(e, mul(minus, pe)) for e, pe in zip(w, row)]
        col = next((c for c, e in enumerate(w) if e), None)
        if col is not None:
            inv = spec.inv_e(w[col])
            rows[col] = w = [mul(inv, e) for e in w]
            frontier += [partial(g.apply_row, w) for g in gens]
    return echelonize(spec, rows.values())[0]


def _left_null_space(spec: FieldSpec, rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Reduced echelon basis of {v : v*M = 0} for the matrix M with these
    rows: the right halves of the zero-led rows of the reduced echelon form
    of [M | I]."""
    n, width = len(rows), len(rows[0])
    reduced, pivots = echelonize(spec, [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)])
    return [r[width:] for r, col in zip(reduced, pivots) if col >= width]


def _check_spin_work(q: int, d: int) -> None:
    """CapExceeded unless the spin's work d*(q^d - 1)/(q - 1) on GF(q)^d
    fits SPIN_WORK_CAP.  The work is at least 2^(d-1), so q^d is only
    formed for small d."""
    if d > SPIN_WORK_CAP.bit_length() or d * ((q**d - 1) // (q - 1)) > SPIN_WORK_CAP:
        raise CapExceeded(f"spinning GF({q})^{d} exceeds the work cap {SPIN_WORK_CAP}")


def _algebra_elements(group: MatrixGroup, rng: random.Random) -> Iterator[FFMatrix]:
    """The generators in order (the identity when there are none), then
    seeded random elements x + c*y of the group algebra, for x and y words
    of length at most 3 in those and c in GF(q)."""
    spec, d = group.spec, group.d
    words = group.generators or (FFMatrix.identity(spec, d),)
    yield from words
    while True:
        x, y = (reduce(FFMatrix.__mul__, rng.choices(words, k=rng.randint(1, 3))) for _ in range(2))
        c = rng.randrange(spec.order)
        rows = (tuple(map(spec.add_e, r, (spec.mul_e(c, e) for e in s))) for r, s in zip(x.rows, y.rows))
        yield FFMatrix._raw(spec, d, tuple(rows))


def _singular(a: FFMatrix, rng: random.Random) -> tuple[tuple[int, ...], list[list[int]]]:
    """(f, f(a)) for an irreducible factor f of least degree of e_0's minimal
    polynomial under a, a divisor of a's: the last row of the reduced echelon
    left null space of e_0*a^d, ..., e_0*a, e_0.  f(a) by Horner's rule."""
    spec, d = a.spec, a.d
    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    krylov = [identity[0]]
    for _ in range(d):
        krylov.append(list(a.apply_row(krylov[-1])))
    f = _least_factor(_poly_trim(_left_null_space(spec, krylov[::-1])[-1][::-1]), spec, rng)
    theta = identity  # f is monic
    for c in reversed(f[:-1]):
        theta = [[spec.add_e(x, spec.mul_e(c, y)) for x, y in zip(a.apply_row(t), e)] for t, e in zip(theta, identity)]
    return f, theta


def _points(spec: FieldSpec, basis: list[list[int]]) -> Iterator[list[int]]:
    """One vector per point of the projective space of the span of the
    basis rows: c*basis for each c led by a 1, the first row first."""
    for j in range(len(basis)):
        for tail in product(range(spec.order), repeat=len(basis) - 1 - j):
            c = (0,) * j + (1,) + tail
            yield [reduce(spec.add_e, map(spec.mul_e, c, col)) for col in zip(*basis)]


def _decide(group: MatrixGroup) -> tuple[bool, tuple[tuple[int, ...], ...] | None]:
    """The MeatAxe (Parker; Holt and Rees) on theta = f(a), a from
    _algebra_elements.  A proper invariant U meets N = {v : v*theta = 0}, so
    a point of N spins inside U, or else U*theta = U, so each w with
    theta*w^T = 0 is orthogonal to U and spins inside its complement under
    the transposes: w and all of P(N) decide.  If dim N = deg f, N is a line
    over GF(q)[x]/(f), so U meets N only if it holds N: one point suffices.
    The first point of each least N is spun at once.  The tries of a stop at
    such an a, or when their count reaches the bit length of the least |P(N)|."""
    spec, d, gens, q = group.spec, group.d, group.generators, group.spec.order
    _check_spin_work(q, d)
    rng, best = random.Random(0), None
    for tries, a in enumerate(_algebra_elements(group, rng), 1):
        f, theta = _singular(a, rng)
        null = _left_null_space(spec, theta)
        one_point = len(null) == len(f) - 1
        if best is None or one_point or len(null) < len(best[2]):
            span = _spin(spec, d, gens, null[0])  # the first point of the best N
            if len(span) < d:
                return False, tuple(map(tuple, span))
            best = one_point, theta, null
        if one_point or tries >= ((q ** len(best[2]) - 1) // (q - 1)).bit_length():
            break
    one_point, theta, null = best
    transposes = [FFMatrix._raw(spec, d, tuple(zip(*g.rows))) for g in gens]
    dual = _spin(spec, d, transposes, _left_null_space(spec, list(zip(*theta)))[0])
    if len(dual) < d:  # its annihilator is invariant under the generators
        return False, tuple(map(tuple, _left_null_space(spec, list(zip(*dual)))))
    for v in islice(_points(spec, null), 1, 1 if one_point else None):
        span = _spin(spec, d, gens, v)
        if len(span) < d:
            return False, tuple(map(tuple, span))
    return True, None


def irreducibility(group: MatrixGroup) -> tuple[bool, list[tuple[int, ...]] | None]:
    """(True, None) when no proper nonzero invariant subspace exists, else
    (False, the reduced echelon basis of one), decided by _decide within
    SPIN_WORK_CAP.  The witness is a point's span or, when the transposed
    spin is proper, that spin's annihilator.  The result is cached."""
    if group._irreducibility is None:
        group._irreducibility = _decide(group)
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
    factors over their shared scalars.  Both factors must contain -I.  It
    carries the order |X||Y|/|shared scalars|: a (x) I = I (x) b only for
    a = b = lambda*I, and the stack checks it when closed."""
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
    y_scalars = set(y.scalar_values())
    shared = [lam for lam in x.scalar_values() if spec.inv_e(lam) in y_scalars]
    return MatrixGroup(spec, x.d * y.d, gens, order=x.order() * y.order() // len(shared))


def _quadratic_plane(spec: FieldSpec):
    """GF(q^2) = field(p, 2f) as a plane over GF(q) with basis {1, t}, t the
    code p.  GF(q) embeds through the least root r of spec.modulus (the code
    sum c_i p^i goes to sum c_i r^i), so each w is a + b*t for one pair of
    GF(q) codes.  Returns (big, matrix): matrix(fn) is the 2x2 matrix over
    spec of a GF(q)-linear map fn of big, rows the coordinates of fn(1) and
    fn(t)."""
    p, f, q = spec.p, spec.f, spec.order
    big = field(p, 2 * f)
    # the value of a polynomial at x is its remainder modulo t - x
    r = next(x for x in range(big.order) if not _poly_mod(spec.modulus, (big.neg_e(x), 1), big))
    emb = [(_poly_mod(c, (big.neg_e(r), 1), big) or (0,))[0] for c in _digits(range(q), p, f).tolist()]
    coords = {big.add_e(emb[a], big.mul_e(emb[b], p)): (a, b) for a in range(q) for b in range(q)}

    def matrix(fn) -> FFMatrix:
        return FFMatrix(spec, [coords[fn(1)], coords[fn(p)]])

    return big, matrix


# permutation views -------------------------------------------------------------


def quotient_perm_group(group: MatrixGroup) -> PermGroup:
    """H/R(H) as H acting on the translates of B = e_0*R(H), e_0 = (1, 0,
    ..., 0), B read off row 0 of R(H)'s stack.  A walk takes each block's
    images under the generators of H and R(H) in one product and keys each
    image by the big-endian bytes of its sorted vector indices, injective on
    sets; blocks are numbered by key, so by least vector index.  NotNormal
    unless R(H) fixes every block, so R(H) <= H_B; ConstraintViolated unless
    they number |H : R(H)|, so H_B = R(H), the kernel, and the action is
    regular of that order.  An index past DEGREE_CAP is refused before the
    walk, with the CapExceeded that ``fingerprint`` raises."""
    r = eigenvalue_one_subgroup(group)
    p, k = group.spec.p, group.d * group.spec.f
    index = group.order() // r.order()
    if index > permgrp.DEGREE_CAP:
        raise CapExceeded(f"fingerprint needs order <= {permgrp.DEGREE_CAP}, got {index}")
    points = np.sort(_value(r.digit_stack()[:, 0], p))
    queue = [points[np.append(True, points[1:] != points[:-1])].astype(">i8").tobytes()]
    gens, n = np.concatenate([group.generator_digits(), r.generator_digits()]), len(group.generators)
    images = dict.fromkeys(queue)  # block key -> the keys of its images under H's generators
    for own in queue:  # walks the blocks as they are found
        block = np.frombuffer(own, ">i8")
        moved = np.sort(_value(_digits(block, p, k) @ gens % p, p)).astype(">i8")
        keys = permgrp._row_keys(moved, len(block))
        if any(key != own for key in keys[n:]):
            raise NotNormal("R(H) must fix every translate of e_0*R(H)")
        images[own] = keys[:n]
        for key in keys[:n]:
            if key not in images:
                images[key] = None
                queue.append(key)
    if len(images) != index:
        raise ConstraintViolated("the translates of e_0*R(H) must number |H : R(H)|")
    number = dict(zip(sorted(images), range(index)))
    moves = zip(*(images[key] for key in number))  # per generator of H, the image key of each block
    return PermGroup(index, [Permutation._raw(tuple(map(number.__getitem__, move))) for move in moves], order=index)


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
    group = MatrixGroup(spec, 2, [i, j], order=8)
    assert group.element_order_histogram() == {1: 1, 2: 1, 4: 6}
    return group


def special_linear_gl2(spec: FieldSpec) -> MatrixGroup:
    """Natural SL(2,p) for prime p: a transvection and the rotation by the
    antidiagonal square root of -I generate it."""
    if spec.f != 1:
        raise ConstraintViolated("natural SL(2,q) generators implemented for prime fields")
    p = spec.p
    gens = [
        FFMatrix(spec, [[1, 1], [0, 1]]),
        FFMatrix(spec, [[0, 1], [spec.neg_e(1), 0]]),
    ]
    return MatrixGroup(spec, 2, gens, order=p * (p * p - 1))


def general_linear_gl2(spec: FieldSpec) -> MatrixGroup:
    """All of GL(2,q), of order (q^2 - 1)(q^2 - q), from the transvection t =
    [[1, 1], [0, 1]], the swap s and the torus element h = diag(w, 1), w
    primitive.  h^-k t h^k = [[1, w^-k], [0, 1]], and the powers of w span
    GF(q) additively, so products of these give every upper transvection;
    s conjugates them to the lower ones, and the two kinds generate SL(2,q).
    det(h) = w generates GF(q)*, so the group is GL(2,q)."""
    g, q = spec.primitive_element(), spec.order
    gens = [
        FFMatrix(spec, [[1, 1], [0, 1]]),
        FFMatrix(spec, [[0, 1], [1, 0]]),
        FFMatrix(spec, [[g, 0], [0, 1]]),
    ]
    return MatrixGroup(spec, 2, gens, order=(q * q - 1) * (q * q - q))


def scalar_matrix_group(spec: FieldSpec, d: int) -> MatrixGroup:
    """The full scalar group {lambda*I}, cyclic of order q-1."""
    g = spec.primitive_element()
    return MatrixGroup(spec, d, [FFMatrix.scalar(spec, d, g)], order=spec.order - 1)


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
    assert MatrixGroup(spec, 2, [rot]).order() == m
    assert (ref * ref).is_identity()
    assert ((ref.inverse() * rot) * ref) == rot.inverse()
    return MatrixGroup(spec, 2, [rot, ref], order=2 * m)


def _quaternion_unit(spec: FieldSpec, i: FFMatrix, j: FFMatrix, coeffs: Sequence[int]) -> FFMatrix:
    """(a + b*i + c*j + e*ij)/2 for coeffs (a, b, c, e): the halved coeffs
    times the matrix whose rows are the entries of 1, i, j, ij."""
    half = spec.inv_e(2)
    basis = FFMatrix(spec, [sum(m.rows, ()) for m in (FFMatrix.identity(spec, 2), i, j, i * j)])
    a, b, c, e = basis.apply_row([spec.mul_e(half, k) for k in coeffs])
    return FFMatrix(spec, [[a, b], [c, e]])


def binary_tetrahedral_gl2(spec: FieldSpec) -> MatrixGroup:
    """SL(2,3) as a subgroup of GL(2,q), q odd: the quaternion group {±1,
    ±i, ±j, ±ij} extended by the Hurwitz unit w = (-1 + i + j + ij)/2,
    which has order 3 and cycles i, j, ij by conjugation."""
    i, j = quaternion_gl2(spec).generators
    w = _quaternion_unit(spec, i, j, (spec.neg_e(1), 1, 1, 1))
    group = MatrixGroup(spec, 2, [i, j, w], order=24)
    assert group.element_order_histogram() == {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}
    return group


def binary_icosahedral_gl2(spec: FieldSpec) -> MatrixGroup:
    """SL(2,5) in GL(2,q), q = -1 mod 10: the binary icosahedral group of
    unit quaternions, generated by the Hurwitz unit w = (-1 + i + j + ij)/2
    and u = (phi + phi^-1*j + ij)/2 (Conway and Smith, On Quaternions and
    Octonions, 2003, ch. 3), phi the least root of x^2 = x + 1.  5 is a
    square in GF(q), as f is even or p = -1 mod 5, so phi exists."""
    q = spec.order
    if (q + 1) % 10:
        raise ConstraintViolated("SL(2,5) in GL(2,q) needs q = -1 mod 10")
    i, j, w = binary_tetrahedral_gl2(spec).generators
    phi = next(x for x in range(q) if spec.mul_e(x, x) == spec.add_e(x, 1))
    u = _quaternion_unit(spec, i, j, (phi, 0, spec.sub_e(phi, 1), 1))
    group = MatrixGroup(spec, 2, [w, u], order=120)
    assert group.element_order_histogram() == {1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24}
    return group
