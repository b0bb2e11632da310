"""Integer number theory (deterministic primality, Mobius, divisibility minima)
and the one square-and-multiply loop, `power`, that every ring here uses.

Everything here is exact and deterministic.  Primality uses trial division for
small inputs and a fixed-base strong-pseudoprime test whose witness set is
proven complete below 3.317e24; inputs beyond that range raise instead of
falling back to a probabilistic answer.
"""

from __future__ import annotations

import itertools
from typing import Iterator

_TRIAL_LIMIT = 1 << 20
# Witness set proven deterministic for n < 3_317_044_064_679_887_385_961_981
# (Sorenson & Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministically decide primality of n >= 0."""
    if n < 2:
        return False
    if n < _TRIAL_LIMIT:
        if n in (2, 3):
            return True
        if n % 2 == 0:
            return False
        d = 3
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} exceeds the deterministic primality range")
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    # Strong pseudoprime test to the fixed bases.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def power(x, e: int, mul, one):
    """x**e by square and multiply, for any associative product mul with
    identity one; a negative e raises ValueError("negative power")."""
    if e < 0:
        raise ValueError("negative power")
    acc = one
    while e:
        if e & 1:
            acc = mul(acc, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return acc


_KNOWN_PRIMES: set[int] = set()


def check_prime(p: int) -> None:
    """Raise ValueError("<p> is not prime") unless p is prime.

    Primes that pass are remembered, so the polynomial constructors that
    call this on every instance pay one set lookup.
    """
    if p not in _KNOWN_PRIMES:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        _KNOWN_PRIMES.add(p)


def primes() -> Iterator[int]:
    """Yield the primes in increasing order."""
    yield 2
    for n in itertools.count(3, 2):
        if is_prime(n):
            yield n


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    for p in primes():
        if p > n:
            return p
    raise AssertionError("unreachable")


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization of n >= 1 into {prime: multiplicity}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius(d: int) -> int:
    """Mobius function: 1 at 1, (-1)^k on squarefree products of k primes, else 0."""
    if d < 1:
        raise ValueError("mobius expects d >= 1")
    k = 0
    for _, mult in factorize(d).items():
        if mult > 1:
            return 0
        k += 1
    return -1 if k % 2 else 1


def smallest_prime_not_dividing(i: int, excluded: frozenset[int] | set[int] = frozenset()) -> int:
    """Smallest prime p with p not dividing i and p not in excluded; i must be nonzero."""
    if i == 0:
        raise ValueError("every prime divides 0")
    i = abs(i)
    for p in primes():
        if p not in excluded and i % p != 0:
            return p
    raise AssertionError("unreachable")


def dz(i: int) -> int:
    """Divisibility of the integers: the least m >= 2 that does not divide i.

    This is the index of the smallest subgroup mZ of Z missing i; composite
    moduli are allowed, unlike the prime witnesses used for matrix groups.
    """
    if i == 0:
        raise ValueError("every modulus divides 0")
    i = abs(i)
    m = 2
    while i % m == 0:
        m += 1
    return m
