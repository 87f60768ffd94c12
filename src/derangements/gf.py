"""Exact arithmetic in small finite fields GF(p^f).

An element is an integer code 0 <= e < p**f, the one representation: e =
sum(coeffs[i] * p**i) for its coefficient vector over GF(p) in the
polynomial basis 1, t, ..., t^(f-1) modulo a fixed monic irreducible
polynomial.  The modulus for a given (p, f) is deterministic: the monic
irreducible t^f + sum c_i t^i of degree f with the least code sum c_i p^i,
so the top non-leading coefficient compares first (GF(25) takes t^2 + 2,
not t^2 + t + 1).  GF(p^1) uses the modulus t, i.e. plain arithmetic mod
p on the codes.  Each field also provides its least primitive element and
log/exp tables to that base, built once.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import ConstraintViolated, NotPrime, TooLarge, ZeroElement

ORDER_CAP = 1 << 20


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# Polynomials over GF(p) are tuples of ints, low degree first, no trailing zeros
# (except the zero polynomial, which is the empty tuple).


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    # m must be monic
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for i, mi in enumerate(m):
                r[shift + i] = (r[shift + i] - lead * mi) % p
        r.pop()
    return _poly_trim(r)


def _poly_divides(d: Sequence[int], a: Sequence[int], p: int) -> bool:
    return not _poly_mod(a, d, p)


def _monic_polys(degree: int, p: int) -> Iterator[tuple[int, ...]]:
    """All monic polynomials of the given degree, in increasing code
    sum c_i p^i of their lower coefficients: c_(degree-1) varies slowest."""
    total = p**degree
    for e in range(total):
        coeffs = []
        v = e
        for _ in range(degree):
            coeffs.append(v % p)
            v //= p
        yield tuple(coeffs) + (1,)


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for cand in _monic_polys(d, p):
            if _poly_divides(cand, poly, p):
                return False
    return True


def _smallest_irreducible(p: int, f: int) -> tuple[int, ...]:
    if f == 1:
        return (0, 1)  # the polynomial t: reduction mod t is arithmetic mod p
    for cand in _monic_polys(f, p):
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError(f"no irreducible of degree {f} over GF({p})")


class FieldSpec:
    """A concrete finite field GF(p^f) with a fixed modulus.

    Instances are interned: ``field(p, f)`` always returns the same object,
    so identity comparison is safe.  Immutable and safe to share.
    """

    __slots__ = (
        "p",
        "f",
        "order",
        "modulus",
        "_order_factors",
        "_enc_tables",
        "_primitive",
        "_log_exp",
    )

    def __init__(self, p: int, f: int, modulus: tuple[int, ...]):
        self.p = p
        self.f = f
        self.order = p**f
        self.modulus = modulus
        self._order_factors = _prime_factors(self.order - 1)
        self._enc_tables = None
        self._primitive = None
        self._log_exp = None

    def __repr__(self) -> str:
        return f"GF({self.order})"

    def multiplicative_order_e(self, x: int) -> int:
        """Order of the code x in GF(q)*; ZeroElement for 0."""
        if x == 0:
            raise ZeroElement(f"zero has no multiplicative order in {self}")
        order = self.order - 1
        for r in self._order_factors:
            while order % r == 0 and self.pow_e(x, order // r) == 1:
                order //= r
        return order

    def primitive_element(self) -> int:
        """Code of the multiplicative generator with the smallest code; 1 for
        GF(2), whose multiplicative group is trivial."""
        if self._primitive is None:
            full = self.order - 1
            self._primitive = next(
                (e for e in range(2, self.order) if self.multiplicative_order_e(e) == full), 1
            )
        return self._primitive

    def log_exp(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(log, exp) of GF(q)* to the base of primitive_element(), built once
        per field; log[0] is unused."""
        if self._log_exp is None:
            g = self.primitive_element()
            exp = [1]
            for _ in range(self.order - 2):
                exp.append(self.mul_e(exp[-1], g))
            log = [0] * self.order
            for i, e in enumerate(exp):
                log[e] = i
            self._log_exp = (tuple(log), tuple(exp))
        return self._log_exp

    # coefficient-tuple arithmetic behind the integer codes for f > 1

    def _add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _neg(self, a: tuple[int, ...]) -> tuple[int, ...]:
        p = self.p
        return tuple((-x) % p for x in a)

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        prod = _poly_mul(a, b, self.p)
        red = _poly_mod(prod, self.modulus, self.p)
        return red + (0,) * (self.f - len(red))

    def _tables(self):
        """Coefficient tuple of every code, indexed by code: the code's base-p
        digits, least significant first."""
        if self._enc_tables is None:
            digits = itertools.product(range(self.p), repeat=self.f)
            self._enc_tables = [d[::-1] for d in digits]
        return self._enc_tables

    def _enc(self, coeffs: tuple[int, ...]) -> int:
        e = 0
        for c in reversed(coeffs):
            e = e * self.p + c
        return e

    def add_e(self, x: int, y: int) -> int:
        if self.f == 1:
            return (x + y) % self.p
        t = self._tables()
        return self._enc(self._add(t[x], t[y]))

    def sub_e(self, x: int, y: int) -> int:
        if self.f == 1:
            return (x - y) % self.p
        t = self._tables()
        return self._enc(self._sub(t[x], t[y]))

    def neg_e(self, x: int) -> int:
        if self.f == 1:
            return (-x) % self.p
        t = self._tables()
        return self._enc(self._neg(t[x]))

    def mul_e(self, x: int, y: int) -> int:
        if self.f == 1:
            return (x * y) % self.p
        t = self._tables()
        return self._enc(self._mul(t[x], t[y]))

    def pow_e(self, x: int, k: int) -> int:
        if k < 0:
            return self.pow_e(self.inv_e(x), -k)
        if self.f == 1:
            return pow(x, k, self.p)
        result = 1
        base = x
        while k:
            if k & 1:
                result = self.mul_e(result, base)
            base = self.mul_e(base, base)
            k >>= 1
        return result

    def inv_e(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError(f"inverse of zero in {self}")
        if self.f == 1:
            return pow(x, self.p - 2, self.p)
        return self.pow_e(x, self.order - 2)


def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def prime_power_decompose(q: int) -> tuple[int, int]:
    """Split q into (p, f) with q = p**f, p prime; ConstraintViolated otherwise."""
    if q < 2:
        raise ConstraintViolated(f"{q} is not a prime power")
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q
    f = 0
    rest = q
    while rest % p == 0:
        rest //= p
        f += 1
    if rest != 1:
        raise ConstraintViolated(f"{q} is not a prime power")
    return p, f


@lru_cache(maxsize=None)
def field(p: int, f: int) -> FieldSpec:
    """Construct (or fetch the interned) GF(p^f).

    Raises NotPrime for composite p and TooLarge when p**f > 2**20.
    """
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if f < 1:
        raise ValueError(f"extension degree must be >= 1, got {f}")
    if p**f > ORDER_CAP:
        raise TooLarge(f"GF({p}^{f}) exceeds the {ORDER_CAP}-element cap")
    return FieldSpec(p, f, _smallest_irreducible(p, f))
