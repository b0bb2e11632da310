"""Univariate polynomials over F_p, with lowest-degree-first coefficients.

UniPoly is the validated, hashable record of a modulus or an irreducible: a
prime characteristic and canonical residues in [0, p) with no trailing zero
(the zero polynomial is the empty tuple, of degree -1).  It keeps no
arithmetic.  All F_p[x] arithmetic runs on plain coefficient tuples through
one kernel: _mulmod is the product modulo a monic h, and with b = (1,) the
remainder; _powmod powers through algebra.power; _gcd is Euclid's algorithm
on the remainder.  Field tables, Field.encode, the witness modulus test and
Rabin's irreducibility test all go through it.  A substituted polynomial,
whose degree can be enormous, stays a sparse dict (MultiPoly.substitute_sparse).
Enumeration of monic irreducibles walks coefficient tuples (constant term
first) in lexicographic order, which fixes the "first irreducible" used by
witness construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import check_prime, factorize, mobius, power
from .errors import BudgetExceeded, FinquotError

IRREDUCIBLE_ENUM_BUDGET = 1 << 20


@dataclass(frozen=True)
class UniPoly:
    """A polynomial in one variable over F_p, for a prime p."""

    char: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        check_prime(self.char)
        cs = tuple(c % self.char for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def render(self, name: str = "x") -> str:
        """Human form, highest degree first, e.g. '2*x^3 + x + 1'."""
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                var = name if e == 1 else f"{name}^{e}"
                parts.append(var if c == 1 else f"{c}*{var}")
        return " + ".join(parts)


def _mulmod(a: tuple[int, ...], b: tuple[int, ...], h: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a * b mod h over F_p on lowest-first coefficient tuples, for a monic h of
    degree n: n residues in [0, p), trailing zeros kept.  The coefficients of a
    and b may be any ints; b = (1,) gives the remainder of a."""
    n = len(h) - 1
    prod = [0] * (len(a) + len(b) + n)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            prod[i + j] += c * d
    for i in range(len(prod) - 1, n - 1, -1):
        c = prod[i] % p
        if c:
            for j in range(n):
                prod[i - n + j] -= c * h[j]
    return tuple(c % p for c in prod[:n])


def _powmod(a: tuple[int, ...], e: int, h: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a**e mod a monic h over F_p, in _mulmod's form for e >= 1 and (1,),
    unreduced, for e = 0; a negative e raises ValueError("negative power")."""
    return power(a, e, lambda u, v: _mulmod(u, v, h, p), (1,))


def _monic(a: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a scaled to leading coefficient 1, trailing zeros dropped first; () stays ()."""
    a = UniPoly(p, a).coeffs
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def _gcd(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """The monic gcd over F_p of two coefficient tuples; () if both are zero."""
    a, b = _monic(a, p), _monic(b, p)
    while b:
        a, b = b, _monic(_mulmod(a, (1,), b, p), p)
    return a


def gauss_irreducible_count(p: int, ell: int) -> int:
    """Number of monic irreducibles of degree ell over F_p: (1/ell) * sum mu(d) p^(ell/d)."""
    check_prime(p)
    if ell < 1:
        raise ValueError("degree must be >= 1")
    total = sum(mobius(d) * p ** (ell // d) for d in range(1, ell + 1) if ell % d == 0)
    if total % ell:
        raise FinquotError(f"Gauss count sum {total} is not divisible by {ell}")
    return total // ell


def is_irreducible(f: UniPoly) -> bool:
    """Rabin's deterministic irreducibility test over F_p: f of degree n is
    irreducible iff x^(p^n) = x mod f and gcd(f, x^(p^(n/q)) - x) = 1 for
    every prime q dividing n."""
    n = f.degree
    if n < 1:
        return False
    p = f.char
    h = _monic(f.coeffs, p)
    x = _mulmod((0, 1), (1,), h, p)
    for q in factorize(n):
        y = _powmod(x, p ** (n // q), h, p)
        if _gcd(h, tuple(c - d for c, d in zip(y, x)), p) != (1,):
            return False
    return _powmod(x, p**n, h, p) == x


def enumerate_irreducibles(p: int, ell: int):
    """Yield the monic irreducibles of degree ell over F_p in lexicographic order.

    Order is lexicographic on the coefficient tuple (a_0, ..., a_{ell-1}) below
    the leading 1, so for (p, ell) = (3, 1) the sequence is x, x+1, x+2.
    Raises BudgetExceeded when p^ell exceeds IRREDUCIBLE_ENUM_BUDGET.
    """
    check_prime(p)
    if ell < 1:
        raise ValueError("degree must be >= 1")
    if p**ell > IRREDUCIBLE_ENUM_BUDGET:
        raise BudgetExceeded(
            f"enumerating degree-{ell} polynomials over F_{p} needs budget {p ** ell}",
            required=p**ell,
        )
    for digits in itertools.product(range(p), repeat=ell):
        f = UniPoly(p, digits + (1,))
        if is_irreducible(f):
            yield f
