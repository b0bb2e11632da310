"""Univariate polynomials over F_p, with lowest-degree-first coefficients.

The zero polynomial is the empty coefficient tuple and has degree -1, and
coefficients are canonical residues in [0, p).  These are the moduli and
irreducibles of the witness construction; a substituted polynomial, whose
degree can be enormous, stays a sparse dict (MultiPoly.substitute_sparse).
The irreducibility test is Rabin's deterministic criterion; enumeration of monic
irreducibles walks coefficient tuples (constant term first) in lexicographic
order, which fixes the "first irreducible" used by witness construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import check_prime, factorize, mobius, power
from .errors import BudgetExceeded, FinquotError

IRREDUCIBLE_ENUM_BUDGET = 1 << 20


@dataclass(frozen=True)
class UniPoly:
    """A polynomial in one variable over F_p; field operations need p prime."""

    char: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        check_prime(self.char)
        cs = tuple(c % self.char for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def zero(cls, char: int) -> "UniPoly":
        return cls(char, ())

    @classmethod
    def const(cls, char: int, c: int) -> "UniPoly":
        return cls(char, (c,))

    @classmethod
    def x(cls, char: int) -> "UniPoly":
        return cls(char, (0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return UniPoly(self.char, tuple(cs))

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.char, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return UniPoly.zero(self.char)
        cs = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    cs[i + j] += a * b
        return UniPoly(self.char, tuple(cs))

    def scale(self, c: int) -> "UniPoly":
        return UniPoly(self.char, tuple(c * a for a in self.coeffs))

    def monic(self) -> "UniPoly":
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        return self.scale(pow(self.coeffs[-1], -1, self.char))

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        self._check(other)
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.char
        inv = pow(other.coeffs[-1], -1, p)
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly.zero(p), self
        quo = [0] * (dq + 1)
        for i in range(dq, -1, -1):
            c = rem[i + len(other.coeffs) - 1] * inv % p
            if c:
                quo[i] = c
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = (rem[i + j] - c * b) % p
        return UniPoly(p, tuple(quo)), UniPoly(p, tuple(rem))

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd over F_p."""
        a, b = self, other
        while b.coeffs:
            a, b = b, a % b
        return a.monic() if a.coeffs else a

    def powmod(self, e: int, mod: "UniPoly") -> "UniPoly":
        """self**e mod `mod` over F_p, for e >= 0, powered on tuples mod monic(mod)."""
        p, h = self.char, mod.monic()
        base = (self % h).coeffs
        return UniPoly(p, power(base, e, lambda a, b: _mulmod(a, b, h.coeffs, p), (1,)))

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

    def _check(self, other: "UniPoly") -> None:
        if self.char != other.char:
            raise ValueError("characteristic mismatch")


def _mulmod(a: tuple[int, ...], b: tuple[int, ...], h: tuple[int, ...], p: int) -> tuple[int, ...]:
    """a * b mod h over F_p on lowest-first coefficient tuples, for a monic h of
    degree n: n residues in [0, p), trailing zeros kept."""
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
    """Rabin's deterministic irreducibility test over F_p."""
    n = f.degree
    if n < 1:
        return False
    p = f.char
    f = f.monic()
    x = UniPoly.x(p)
    for q in factorize(n):
        h = x.powmod(p ** (n // q), f) - x
        if f.gcd(h).degree != 0:
            return False
    return x.powmod(p**n, f) == (x % f)


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
