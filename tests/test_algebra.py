from __future__ import annotations

import math
import random

import pytest
import sympy

from finquot.algebra import (
    dz,
    factorize,
    is_prime,
    mobius,
    next_prime,
    power,
    primes,
    smallest_prime_not_dividing,
)
from finquot.fields import finite_field
from finquot.multipoly import MultiPoly
from finquot.unipoly import UniPoly


def test_is_prime_small_table():
    want = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == want


def test_is_prime_pseudoprimes_rejected():
    assert not is_prime(341)
    assert not is_prime(561)
    assert not is_prime(1)
    assert not is_prime(-7)


def test_is_prime_large():
    assert is_prime((1 << 61) - 1)
    assert not is_prime((1 << 61) - 3)


def test_primes_stream():
    it = primes()
    assert [next(it) for _ in range(10)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(31) == 37
    assert next_prime(100) == 101


def test_factorize():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}


def test_factorize_reconstructs():
    for n in range(1, 500):
        fac = factorize(n)
        assert math.prod(p**e for p, e in fac.items()) == n
        assert all(is_prime(p) for p in fac)


def test_factorize_matches_sympy():
    for n in range(1, 10_001):
        assert factorize(n) == sympy.factorint(n), n
    rng = random.Random(1_000_003)
    for _ in range(12):
        p = sympy.nextprime(10**6 + rng.randrange(10**4))
        q = p if rng.random() < 0.25 else sympy.nextprime(10**6 + rng.randrange(10**4))
        n = p * q * rng.choice((1, 2, 12))
        assert factorize(n) == sympy.factorint(n), n


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(6) == 1
    assert mobius(30) == -1
    assert mobius(12) == 0


def test_mobius_rejects_nonpositive():
    with pytest.raises(ValueError):
        mobius(0)
    with pytest.raises(ValueError):
        mobius(-3)


def test_mobius_multiplicative():
    for a in range(1, 101):
        for b in range(a, 101):
            if math.gcd(a, b) == 1:
                assert mobius(a * b) == mobius(a) * mobius(b)


def test_smallest_prime_not_dividing_examples():
    assert smallest_prime_not_dividing(1) == 2
    assert smallest_prime_not_dividing(6) == 5
    assert smallest_prime_not_dividing(6, {5}) == 7
    assert smallest_prime_not_dividing(-6) == 5
    assert smallest_prime_not_dividing(2 * 3 * 5 * 7) == 11


def test_smallest_prime_not_dividing_rejects_zero():
    with pytest.raises(ValueError):
        smallest_prime_not_dividing(0)


def test_smallest_prime_not_dividing_is_minimal():
    rng = random.Random(7)
    for _ in range(200):
        i = rng.randrange(1, 10**9)
        excluded = frozenset(rng.sample([2, 3, 5, 7], rng.randrange(3)))
        p = smallest_prime_not_dividing(i, excluded)
        assert is_prime(p) and i % p != 0 and p not in excluded
        for q in range(2, p):
            if is_prime(q) and q not in excluded:
                assert i % q == 0


def test_dz_examples():
    assert dz(1) == 2
    assert dz(6) == 4
    assert dz(12) == 5
    assert dz(-6) == 4


def test_dz_rejects_zero():
    with pytest.raises(ValueError):
        dz(0)


def test_dz_minimality():
    for i in range(1, 3000):
        m = dz(i)
        assert m >= 2 and i % m != 0
        assert all(i % k == 0 for k in range(2, m))


def test_dz_at_lcm_points():
    # lcm(1..m) is divisible by everything up to m, so dz jumps past m
    for m in range(2, 12):
        acc = math.lcm(*range(1, m + 1))
        assert dz(acc) > m
    assert dz(60) == 7
    assert dz(420) == 8


def test_negative_powers_are_refused():
    # the old extension-field loop never returned here: e >>= 1 keeps -1 at -1
    with pytest.raises(ValueError, match="^negative power$"):
        power(2, -1, lambda a, b: a * b % 7, 1)
    for field in (finite_field(3, UniPoly(3, (1, 0, 1))), finite_field(7, None)):
        with pytest.raises(ValueError, match="^negative power$"):
            field.pow(2, -1)
    with pytest.raises(ValueError, match="^negative power$"):
        MultiPoly.variable(0, 1, 0) ** -1
    with pytest.raises(ValueError, match="^negative power$"):
        UniPoly(3, (0, 1)).powmod(-1, UniPoly(3, (1, 0, 1)))
