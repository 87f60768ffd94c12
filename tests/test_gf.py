"""Field construction, integer-code arithmetic, and the deterministic
modulus rule."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from derangements import gf
from derangements.errors import NotPrime, TooLarge, ZeroElement
from derangements.gf import _least_factor, _poly_mod, _poly_mul, field


def brute_smallest_irreducible(p: int, f: int) -> tuple[int, ...]:
    """Independent oracle: scan monic degree-f polys in low-first lex order,
    rejecting any with a root or a monic divisor of degree <= f//2 found by
    direct polynomial evaluation/multiplication."""

    def poly_eval(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc

    def all_products_of_degree(d):
        # every monic product a*b with deg a + deg b = f, deg a = d
        out = set()
        for ea in range(p**d):
            a = []
            v = ea
            for _ in range(d):
                a.append(v % p)
                v //= p
            a.append(1)
            for eb in range(p ** (f - d)):
                b = []
                v = eb
                for _ in range(f - d):
                    b.append(v % p)
                    v //= p
                b.append(1)
                prod = [0] * (f + 1)
                for i, ai in enumerate(a):
                    for j, bj in enumerate(b):
                        prod[i + j] = (prod[i + j] + ai * bj) % p
                out.add(tuple(prod))
        return out

    reducible = set()
    for d in range(1, f // 2 + 1):
        reducible |= all_products_of_degree(d)
    for e in range(p**f):
        coeffs = []
        v = e
        for _ in range(f):
            coeffs.append(v % p)
            v //= p
        cand = tuple(coeffs) + (1,)
        if f == 1:
            return cand if e == 0 else None  # convention: modulus t for prime fields
        if any(poly_eval(cand, x) == 0 for x in range(p)) and f <= 3:
            continue  # degree <= 3: a root is the only way to be reducible
        if cand in reducible:
            continue
        return cand
    raise AssertionError("no irreducible found")


def _digits(e: int, p: int, f: int) -> list[int]:
    out = []
    for _ in range(f):
        out.append(e % p)
        e //= p
    return out


def _code(coeffs, p: int) -> int:
    return sum(c * p**i for i, c in enumerate(coeffs))


def oracle_mul(k, x: int, y: int) -> int:
    """Independent oracle: decode both codes to coefficient lists, multiply
    the polynomials, reduce the product by long division by k.modulus (monic
    of degree f; no reduction for f = 1, where GF(p) is plain mod p)."""
    p, f = k.p, k.f
    a, b = _digits(x, p, f), _digits(y, p, f)
    prod = [0] * (2 * f - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for top in range(len(prod) - 1, f - 1, -1):
        lead = prod[top]
        for i, mi in enumerate(k.modulus):
            prod[top - f + i] = (prod[top - f + i] - lead * mi) % p
    return _code(prod[:f], p)


def oracle_add(k, x: int, y: int, sign: int = 1) -> int:
    p, f = k.p, k.f
    return _code(
        [(a + sign * b) % p for a, b in zip(_digits(x, p, f), _digits(y, p, f))], p
    )


def all_prime_powers_up_to(limit):
    out = []
    for p in range(2, limit + 1):
        if not all(p % d for d in range(2, p)):
            continue
        q = p
        f = 1
        while q <= limit:
            out.append((p, f))
            q *= p
            f += 1
    return sorted(out, key=lambda pf: pf[0] ** pf[1])


FIELDS_UP_TO_81 = all_prime_powers_up_to(81)


@pytest.mark.parametrize(
    "p,f", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2), (11, 2)]
)
def test_modulus_matches_bruteforce_oracle(p, f):
    assert field(p, f).modulus == brute_smallest_irreducible(p, f)


def test_gf9_modulus_is_t_squared_plus_one():
    # all monic quadratics over GF(3) lexically before t^2+1 have a root
    k = field(3, 2)
    assert k.modulus == (1, 0, 1)
    t = 0 + 1 * 3  # the code of coefficients (0, 1)
    assert k.mul_e(t, t) == 2  # t^2 = -1


def test_prime_field_is_plain_mod_p():
    k = field(7, 1)
    assert k.modulus == (0, 1)
    assert k.add_e(5, 4) == 2
    assert k.mul_e(5, 4) == 6


def test_field_make_rejects_bad_parameters():
    with pytest.raises(NotPrime):
        field(6, 1)
    with pytest.raises(NotPrime):
        field(1, 1)
    with pytest.raises(TooLarge):
        field(2, 21)
    with pytest.raises(ValueError):
        field(3, 0)


def test_field_interned():
    assert field(5, 2) is field(5, 2)


def test_division_and_zero_errors():
    for k in (field(3, 2), field(7, 1)):
        with pytest.raises(ZeroDivisionError):
            k.inv_e(0)
        with pytest.raises(ZeroDivisionError):
            k.pow_e(0, -1)
        with pytest.raises(ZeroElement):
            k.multiplicative_order_e(0)
        assert k.mul_e(5, k.inv_e(5)) == 1


def test_element_order_examples():
    k = field(3, 2)
    assert k.multiplicative_order_e(3) == 4  # t^2 = -1
    assert k.multiplicative_order_e(1) == 1
    assert k.multiplicative_order_e(k.primitive_element()) == 8


def test_power_of_group_order_is_identity():
    for p, f in [(2, 3), (3, 2), (5, 1), (7, 1), (2, 4)]:
        k = field(p, f)
        q = k.order
        for a in range(1, q):
            assert k.pow_e(a, q - 1) == 1
            assert k.mul_e(k.inv_e(a), a) == 1


def test_integer_ops_match_polynomial_oracle_up_to_81():
    """add_e, sub_e, neg_e, mul_e, inv_e and pow_e on every code of every
    field of order <= 81, against the oracle."""
    for p, f in FIELDS_UP_TO_81:
        k = field(p, f)
        q = k.order
        for x in range(q):
            assert k.neg_e(x) == oracle_add(k, 0, x, -1), (q, x)
            for y in range(q):
                assert k.add_e(x, y) == oracle_add(k, x, y), (q, x, y)
                assert k.sub_e(x, y) == oracle_add(k, x, y, -1), (q, x, y)
                assert k.mul_e(x, y) == oracle_mul(k, x, y), (q, x, y)
            if x:
                inv = next(y for y in range(1, q) if oracle_mul(k, x, y) == 1)
                assert k.inv_e(x) == inv, (q, x)
            for base, sign in ((x, 1), (k.inv_e(x), -1)) if x else ((x, 1),):
                acc = 1
                for e in range(q + 1):
                    assert k.pow_e(x, sign * e) == acc, (q, x, sign * e)
                    acc = oracle_mul(k, acc, base)


def _brute_order(k, x: int) -> int:
    acc, n = x, 1
    while acc != 1:
        acc, n = oracle_mul(k, acc, x), n + 1
    return n


def test_multiplicative_order_matches_power_loop():
    for p, f in FIELDS_UP_TO_81:
        k = field(p, f)
        for x in range(1, k.order):
            assert k.multiplicative_order_e(x) == _brute_order(k, x), (k, x)


# pinned codes of primitive_element(), unchanged from the former
# tuple-coefficient element API
PRIMITIVE_BY_ORDER = {
    2: 1, 3: 2, 4: 2, 5: 2, 7: 3, 8: 2, 9: 4, 11: 2, 13: 2, 16: 2, 17: 3,
    19: 2, 23: 5, 25: 6, 27: 3, 29: 2, 31: 3, 32: 2, 37: 2, 41: 6, 43: 3,
    47: 5, 49: 9, 53: 2, 59: 2, 61: 2, 64: 2, 67: 2, 71: 7, 73: 5, 79: 3,
    81: 3,
}


def test_primitive_element_is_least_generator():
    for p, f in FIELDS_UP_TO_81:
        k = field(p, f)
        q = k.order
        least = next((x for x in range(2, q) if _brute_order(k, x) == q - 1), 1)
        assert k.primitive_element() == least == PRIMITIVE_BY_ORDER[q], q
    assert sorted(PRIMITIVE_BY_ORDER) == [p**f for p, f in FIELDS_UP_TO_81]


def test_log_exp_tables_invert():
    """exp lists g^i twice over, for i < q - 1, from g^0 = 1, and inverts
    log on every nonzero code."""
    for p, f in FIELDS_UP_TO_81:
        k = field(p, f)
        log, exp = k._log, k._exp
        assert len(exp) == 2 * (k.order - 1) and exp[0] == 1, k
        assert exp[: k.order - 1] == exp[k.order - 1:], k
        for x in range(1, k.order):
            assert exp[log[x]] == x, (k, x)


def _tables(k):
    n = k.order
    add = np.array([[k.add_e(a, b) for b in range(n)] for a in range(n)], dtype=np.int32)
    mul = np.array([[k.mul_e(a, b) for b in range(n)] for a in range(n)], dtype=np.int32)
    return add, mul


def test_field_axioms_exhaustive_up_to_81():
    """Associativity, commutativity, distributivity on exhaustive triples."""
    for p, f in FIELDS_UP_TO_81:
        k = field(p, f)
        add, mul = _tables(k)
        n = k.order
        assert np.array_equal(add, add.T), (p, f)
        assert np.array_equal(mul, mul.T), (p, f)
        # (a+b)+c == a+(b+c) and (a*b)*c == a*(b*c), all n^3 triples at once
        assert np.array_equal(add[add, :], add[:, add]), (p, f)
        assert np.array_equal(mul[mul, :], mul[:, mul]), (p, f)
        # a*(b+c) == a*b + a*c
        idx = np.arange(n)
        lhs = mul[idx[:, None, None], add[None, :, :]]
        rhs = add[mul[idx[:, None, None], idx[None, :, None]],
                  mul[idx[:, None, None], idx[None, None, :]]]
        assert np.array_equal(lhs, rhs), (p, f)
        # identities and inverses
        assert np.array_equal(add[0], idx) and np.array_equal(mul[1], idx)
        assert sorted(add[i].tolist().index(0) for i in range(n)) == list(range(n))
        for i in range(1, n):
            assert 1 in mul[i], (p, f, i)


# past order 81, where the exhaustive tests stop: seeded samples against the
# same oracles
LARGE_FIELDS = [(2, 16), (3, 7), (257, 2)]


def _oracle_pow(k, x: int, e: int) -> int:
    acc = 1
    while e:
        if e & 1:
            acc = oracle_mul(k, acc, x)
        x, e = oracle_mul(k, x, x), e >> 1
    return acc


@pytest.mark.parametrize("p,f", LARGE_FIELDS)
def test_table_ops_match_oracle_past_81(p, f):
    k = field(p, f)
    q = k.order
    rng = random.Random(q)
    for _ in range(2000):
        x, y = rng.randrange(q), rng.randrange(q)
        assert k.add_e(x, y) == oracle_add(k, x, y), (q, x, y)
        assert k.sub_e(x, y) == oracle_add(k, x, y, -1), (q, x, y)
        assert k.mul_e(x, y) == oracle_mul(k, x, y), (q, x, y)
    for x in rng.sample(range(1, q), 2):
        order = _brute_order(k, x)
        assert k.multiplicative_order_e(x) == order, (q, x)
        assert k.pow_e(x, order) == 1 and k.pow_e(x, -order) == 1, (q, x)
        for e in rng.sample(range(-q, q), 20):
            expected = _oracle_pow(k, x, e % order)
            assert k.pow_e(x, e) == expected, (q, x, e)


@pytest.mark.parametrize("p,f", [(3, 4), (2, 6)])
def test_negation_reaches_the_zech_zero(p, f):
    """x + (-x) and x - x read the Zech entry where 1 + g^k = 0."""
    k = field(p, f)
    for x in range(k.order):
        assert k.add_e(x, k.neg_e(x)) == 0 == k.sub_e(x, x), (k, x)


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)])
def test_least_factor_matches_trial_division(p, f):
    """The factor search over GF(q) on seeded products of one to three
    random monic polynomials of degree at most 3: it returns a monic
    divisor of m, and no monic polynomial of lower degree divides m (so the
    divisor is irreducible), by trial division over all of them."""
    k = field(p, f)
    rng = random.Random(k.order)
    for _ in range(25):
        m = (1,)
        for _ in range(rng.randint(1, 3)):
            m = _poly_mul(m, tuple(rng.randrange(k.order) for _ in range(rng.randint(1, 3))) + (1,), k)
        g = _least_factor(m, k, rng)
        assert g[-1] == 1 and _poly_mod(m, g, k) == (), (k, m, g)
        for degree in range(1, len(g) - 1):
            monic = (c + (1,) for c in itertools.product(range(k.order), repeat=degree))
            assert all(_poly_mod(m, c, k) for c in monic), (k, m, g)


@pytest.mark.parametrize(
    "base, width",
    [(2, 1), (7, 1), (2, 11), (3, 4), (5, 4), (4, 3), (10, 3), (2, 16), (211, 2)],
)
def test_digits_and_value_match_the_divmod_loop(base, width):
    """gf's one digit convention against the divmod loop: field codes (base
    p, f digits), vector indices (base p, d*f digits) and product-domain
    points (base m, k coordinates).  _digits puts the loop's digits, least
    significant first, along a new last axis, for an array of any shape and
    for one int; _value gives the values back."""
    values = np.arange(base**width)
    digits = gf._digits(values, base, width)
    assert digits.shape == (len(values), width)
    assert digits.tolist() == [_digits(int(v), base, width) for v in values]
    assert np.array_equal(gf._value(digits, base), values)
    grid = values[: len(values) // base * base].reshape(-1, base)
    assert np.array_equal(gf._digits(grid, base, width), digits[: grid.size].reshape(*grid.shape, width))
    assert np.array_equal(gf._value(gf._digits(grid, base, width), base), grid)
    last = int(values[-1])
    assert gf._digits(last, base, width).tolist() == _digits(last, base, width)
    assert int(gf._value(gf._digits(last, base, width), base)) == last
