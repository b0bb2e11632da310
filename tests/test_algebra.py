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
from finquot.unipoly import UniPoly, _powmod


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


# psi_k: the least strong pseudoprime to the first k prime bases (OEIS A014233)
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
)
PSI_13 = 3317044064679887385961981


def test_is_prime_matches_sympy_at_strong_pseudoprimes():
    # psi_12 passes the 12 bases 2..37; base 41 makes the test complete below psi_13
    assert PSI[-1] == 399165290221 * 798330580441
    for psi in PSI:
        for n in (psi - 2, psi, psi + 2):
            assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_matches_sympy_on_a_seeded_sample():
    rng = random.Random(20170101)
    for bits in (21, 40, 64, 72, 80):
        for _ in range(60):
            n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
            assert is_prime(n) == sympy.isprime(n), n
    for _ in range(200):
        n = rng.randrange(PSI[-1], PSI_13) | 1
        assert is_prime(n) == sympy.isprime(n), n
    # products of two primes near the top of the range
    for _ in range(20):
        p = sympy.nextprime(rng.randrange(10**11, 10**12))
        q = sympy.nextprime(rng.randrange(10**11, 10**12))
        assert not is_prime(p * q)


def test_is_prime_refuses_past_the_proven_range():
    assert is_prime(PSI_13 - 2) == sympy.isprime(PSI_13 - 2)
    for n in (PSI_13, PSI_13 + 2):
        with pytest.raises(ValueError, match="exceeds the deterministic primality range"):
            is_prime(n)


def test_polynomials_refuse_psi_12_as_characteristic():
    with pytest.raises(ValueError, match=f"^{PSI[-1]} is not prime$"):
        UniPoly(PSI[-1], (0, 1))


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
        _powmod((0, 1), -1, (1, 0, 1), 3)
