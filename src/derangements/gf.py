"""Exact arithmetic in finite fields GF(p^f) of order at most ORDER_CAP.

An element is an integer code 0 <= e < p**f, the one representation: e =
sum(coeffs[i] * p**i) for its coefficient vector over GF(p) in the
polynomial basis 1, t, ..., t^(f-1) modulo a fixed monic irreducible
polynomial.  The modulus for a given (p, f) is deterministic: the monic
irreducible t^f + sum c_i t^i of degree f with the least code sum c_i p^i,
so the top non-leading coefficient compares first (GF(25) takes t^2 + 2,
not t^2 + t + 1).  GF(p^1) uses the modulus t, so its codes are the
residues mod p.

The package has one digit convention: ``_digits`` puts base-b digits along
a last axis, least significant first, and ``_value`` reads them back.  A
code's f base-p digits are its coefficients; the index of v in GF(q)^d is
the value of its d*f base-p digits, f per entry in order.

Every field, prime or not, has one arithmetic: tables built once when the
field is made, to the base g of its least primitive element.  exp[i] = g^i,
log inverts it, and the Zech logarithm zech[k] = log(1 + g^k) (None where
1 + g^k = 0) turns addition into x + y = g^(log x + zech[log y - log x]).
Each operation is a few list reads; the order of x is (q - 1) / gcd(log x,
q - 1), and -1 is g^log(-1).  Polynomial arithmetic over any field serves
the modulus search, the search for g and the MeatAxe's factor search; exp
is built by doubling the GF(p)-linear map x -> x*g, taken over all codes at
once with numpy.  The tables hold about 4q list entries, so ORDER_CAP
bounds their memory (about 150 MB at q = 2^20).
"""

from __future__ import annotations

import math
import random
from functools import lru_cache, reduce
from itertools import zip_longest
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .errors import ConstraintViolated, NotPrime, TooLarge, ZeroElement
from .permgrp import BLOCK_ENTRIES

ORDER_CAP = 1 << 20


def _digits(values, base: int, width: int) -> np.ndarray:
    """Base-b digits of each value along a new last axis, least significant first."""
    return np.asarray(values, dtype=np.int64)[..., None] // base ** np.arange(width, dtype=np.int64) % base


def _value(digits: np.ndarray, base: int) -> np.ndarray:
    """The values of base-b digits along the last axis: ``_digits`` inverted."""
    return digits @ base ** np.arange(digits.shape[-1], dtype=np.int64)


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == (n,)


# Polynomials are tuples of field codes, low degree first, no trailing zeros
# (the zero polynomial is the empty tuple).  The arithmetic takes the field k
# as any object with order, add_e, mul_e, neg_e and inv_e: a FieldSpec, or
# _residues(p) for the searches that run before GF(p^f)'s tables exist.


def _residues(p: int) -> SimpleNamespace:
    """GF(p) as the integers mod p."""
    add, mul = (lambda x, y: (x + y) % p), (lambda x, y: x * y % p)
    return SimpleNamespace(order=p, add_e=add, mul_e=mul, neg_e=lambda x: -x % p, inv_e=lambda x: pow(x, -1, p))


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_add(a: Sequence[int], b: Sequence[int], k) -> tuple[int, ...]:
    return _poly_trim([k.add_e(x, y) for x, y in zip_longest(a, b, fillvalue=0)])


def _poly_mul(a: Sequence[int], b: Sequence[int], k) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = k.add_e(out[i + j], k.mul_e(ai, bj))
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], k) -> tuple[int, ...]:
    # m must be monic
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        if lead:
            shift, minus = len(r) - 1 - dm, k.neg_e(lead)
            for i, mi in enumerate(m):
                r[shift + i] = k.add_e(r[shift + i], k.mul_e(minus, mi))
        r.pop()
    return _poly_trim(r)


def _poly_pow(a: Sequence[int], e: int, m: Sequence[int], k) -> tuple[int, ...]:
    """a^e modulo the monic m, by square-and-multiply."""
    result: tuple[int, ...] = (1,)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, a, k), m, k)
        a = _poly_mod(_poly_mul(a, a, k), m, k)
        e >>= 1
    return result


def _poly_gcd(a: Sequence[int], b: Sequence[int], k) -> tuple[int, ...]:
    """The monic gcd of a and b, by Euclid; a itself when b = 0."""
    while b:
        inv = k.inv_e(b[-1])
        monic = tuple(k.mul_e(inv, c) for c in b)
        a, b = monic, _poly_mod(a, monic, k)
    return tuple(a)


def _distinct_degree(m: Sequence[int], k) -> tuple[int, tuple[int, ...]]:
    """(i, g) for the least i with g = gcd(x^(q^i) - x, m) != 1, m monic over
    k: g is the product of m's distinct irreducible factors of degree i, the
    least degree of any.  Past deg m / 2 only m is left: i = deg m, m prime."""
    h = (0, 1)
    for i in range(1, (len(m) - 1) // 2 + 1):
        h = _poly_pow(h, k.order, m, k)
        g = _poly_gcd(m, _poly_add(h, (0, k.neg_e(1)), k), k)
        if len(g) > 1:
            return i, g
    return len(m) - 1, tuple(m)


def _least_factor(m: Sequence[int], k: FieldSpec, rng: random.Random) -> tuple[int, ...]:
    """A monic irreducible factor of least degree of the monic m over k.
    While the product g of those factors has more than one, a seeded
    random r splits it (Cantor and Zassenhaus): gcd(g, s) for s = r^((q^i -
    1)/2) - 1, or for even q the trace s = r + r^2 + ... + r^(q^i/2), is
    the product of the factors modulo which s is 0."""
    (i, g), q = _distinct_degree(m, k), k.order
    while len(g) > i + 1:
        r = _poly_trim([rng.randrange(q) for _ in range(len(g) - 1)])
        if q % 2:
            s = _poly_add(_poly_pow(r, (q**i - 1) // 2, g, k), (k.neg_e(1),), k)
        else:
            s = reduce(lambda s, j: _poly_add(s, _poly_pow(r, 2**j, g, k), k), range(k.f * i), ())
        split = _poly_gcd(g, s, k)
        if 1 < len(split) < len(g):
            g = split
    return g


def _smallest_irreducible(p: int, f: int) -> tuple[int, ...]:
    """The irreducible monic of degree f with the least code sum c_i p^i of
    its lower coefficients: c_(f-1) varies slowest."""
    residues, monic = _residues(p), (tuple(_digits(e, p, f).tolist()) + (1,) for e in range(p**f))
    return next(m for m in monic if _distinct_degree(m, residues)[0] == f)


def _least_primitive(p: int, f: int, modulus: tuple[int, ...]) -> int:
    """The least code of order p^f - 1, by polynomial powers; 1 for GF(2)."""
    n, residues = p**f - 1, _residues(p)
    factors = _prime_factors(n)
    for e in range(2, n + 1):
        x = _poly_trim(_digits(e, p, f).tolist())  # the polynomial of the code e
        if all(_poly_pow(x, n // r, modulus, residues) != (1,) for r in factors):
            return e
    return 1


class FieldSpec:
    """A concrete finite field GF(p^f) with a fixed modulus and its tables.

    Instances are interned: ``field(p, f)`` always returns the same object,
    so identity comparison is safe.  Immutable and safe to share.
    """

    __slots__ = (
        "p",
        "f",
        "order",
        "modulus",
        "_log",
        "_exp",
        "_zech",
    )

    def __init__(self, p: int, f: int, modulus: tuple[int, ...]):
        self.p = p
        self.f = f
        self.order = q = p**f
        self.modulus = modulus
        n = q - 1
        g = _least_primitive(p, f, modulus)
        # x -> x*g is GF(p)-linear on digit vectors: row i holds t^i * g
        rows, power = [], _poly_trim(_digits(g, p, f).tolist())
        for _ in range(f):
            rows.append(power + (0,) * (f - len(power)))
            power = _poly_mod((0,) + power, modulus, _residues(p))
        times_g = np.array(rows, dtype=np.int64)
        block = max(1, BLOCK_ENTRIES // f)  # codes per digit product: at most BLOCK_ENTRIES digits
        blocks = np.split(np.arange(q, dtype=np.int64), range(block, q, block))
        step = np.concatenate([_value(_digits(b, p, f) @ times_g % p, p) for b in blocks])
        exp = np.ones(1, dtype=np.int64)
        while len(exp) < n:  # exp holds g^0 .. g^(L-1) and step multiplies by g^L
            exp = np.concatenate((exp, step[exp]))
            step = step[step]
        exp = exp[:n]
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(n)
        self._log = log.tolist()
        self._exp = exp.tolist() * 2  # g^i for 0 <= i < 2(q - 1), so sums of logs need no mod
        # zech[k] = log(1 + g^k): adding 1 raises the lowest digit of g^k
        self._zech = log[exp - exp % p + (exp + 1) % p].tolist()
        self._zech[self._log[p - 1]] = None  # 1 + g^k = 0: g^k = -1, whose code is p - 1

    def __repr__(self) -> str:
        return f"GF({self.order})"

    def multiplicative_order_e(self, x: int) -> int:
        """Order of the code x in GF(q)*: (q - 1) / gcd(log x, q - 1);
        ZeroElement for 0."""
        if x == 0:
            raise ZeroElement(f"zero has no multiplicative order in {self}")
        n = self.order - 1
        return n // math.gcd(self._log[x], n)

    def primitive_element(self) -> int:
        """Code of the multiplicative generator with the smallest code; 1 for
        GF(2), whose multiplicative group is trivial."""
        return self._exp[1]

    def add_e(self, x: int, y: int) -> int:
        if x == 0:
            return y
        if y == 0:
            return x
        log = self._log
        lx = log[x]
        # x + y = x * (1 + g^(log y - log x)); a negative index wraps mod q - 1
        z = self._zech[log[y] - lx]
        return 0 if z is None else self._exp[lx + z]

    def sub_e(self, x: int, y: int) -> int:
        return self.add_e(x, self.neg_e(y))

    def neg_e(self, x: int) -> int:
        return self._exp[self._log[x] + self._log[self.p - 1]] if x else 0

    def mul_e(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def pow_e(self, x: int, k: int) -> int:
        if x == 0:
            if k < 0:
                raise ZeroDivisionError(f"inverse of zero in {self}")
            return 0 if k else 1
        return self._exp[self._log[x] * k % (self.order - 1)]

    def inv_e(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError(f"inverse of zero in {self}")
        return self._exp[-self._log[x]]


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
    """Split q into (p, f) with q = p**f, p prime; ConstraintViolated
    otherwise, and TooLarge past ORDER_CAP before any trial division."""
    if q > ORDER_CAP:
        raise TooLarge(f"GF({q}) exceeds the {ORDER_CAP}-element cap")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ConstraintViolated(f"{q} is not a prime power")
    p, f = factors[0], 1
    while p**f < q:
        f += 1
    return p, f


@lru_cache(maxsize=None)
def field(p: int, f: int) -> FieldSpec:
    """Construct (or fetch the interned) GF(p^f), tables included.

    Raises ConstraintViolated for f < 1, TooLarge when p or p**f passes
    ORDER_CAP (before p is tested or p**f formed: p >= 2 and f past the
    cap's bit length already pass it), and NotPrime for composite p.
    """
    if f < 1:
        raise ConstraintViolated(f"extension degree must be >= 1, got {f}")
    if p > ORDER_CAP or p > 1 and (f > ORDER_CAP.bit_length() or p**f > ORDER_CAP):
        raise TooLarge(f"GF({p}^{f}) exceeds the {ORDER_CAP}-element cap")
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return FieldSpec(p, f, _smallest_irreducible(p, f))
