"""Finite fields F_q with elements encoded as plain ints in [0, q).

A prime field (modulus None) encodes an element as its least nonnegative
residue mod p.  An extension F_p[x]/(h) encodes c_0 + c_1 x + ... +
c_{d-1} x^(d-1) as the base-p integer c_0 + c_1 p + ... + c_{d-1} p^(d-1)
(_pack, the one packing) and does its arithmetic by q x q tables, filled
from the digit tuples by the F_p[x] kernel unipoly._mulmod and by digit-wise
addition mod p; encode reduces through the same kernel.  In both, 0 and 1
encode zero and one, and an integer n embeds as n mod p.  finite_field()
builds one Field per (p, modulus) and caches it, so tables are built once
per process.

Matrices over F_q are flat row-major tuples of encoded elements, so image
orders and word images run on machine integers.  Every product goes through
Field.product(m): for m = 2 an unrolled kernel (plain `% p` arithmetic over
a prime field, table lookups over an extension field), for other sizes the
generic Field.mat_mul, which is also the reference the tests compare the
kernel against.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import check_prime, power
from .unipoly import UniPoly, _mulmod, is_irreducible


class Field:
    """Arithmetic on the encoded elements of F_p (modulus None) or F_p[x]/(modulus)."""

    def __init__(self, p: int, modulus: UniPoly | None):
        check_prime(p)
        self.p = p
        self.modulus = modulus
        if modulus is None:
            self.q = p
            self.add = lambda a, b: (a + b) % p
            self.mul = lambda a, b: a * b % p

            def mul2(a, b):
                a0, a1, a2, a3 = a
                b0, b1, b2, b3 = b
                return (
                    (a0 * b0 + a1 * b2) % p,
                    (a0 * b1 + a1 * b3) % p,
                    (a2 * b0 + a3 * b2) % p,
                    (a2 * b1 + a3 * b3) % p,
                )

            self.mul2 = mul2
            return
        if modulus.char != p:
            raise ValueError("modulus characteristic mismatch")
        if not modulus.is_monic() or not is_irreducible(modulus):
            raise ValueError("modulus must be monic irreducible over F_p")
        q = self.q = p**modulus.degree
        h, digits = modulus.coeffs, [self.coeffs(v) for v in range(q)]
        # cells index one shared int per element, not a fresh int per cell
        elements = list(range(q))
        mul_table = [[0] * q for _ in range(q)]
        add_table = [[0] * q for _ in range(q)]
        for a, da in enumerate(digits):
            for b in range(a, q):
                db = digits[b]
                mul_table[a][b] = mul_table[b][a] = elements[_pack(_mulmod(da, db, h, p), p)]
                add_table[a][b] = add_table[b][a] = elements[_pack([(c + d) % p for c, d in zip(da, db)], p)]
        self.add = lambda a, b: add_table[a][b]
        self.mul = lambda a, b: mul_table[a][b]

        def mul2(a, b):
            a0, a1, a2, a3 = a
            b0, b1, b2, b3 = b
            m0, m1, m2, m3 = mul_table[a0], mul_table[a1], mul_table[a2], mul_table[a3]
            return (
                add_table[m0[b0]][m1[b2]],
                add_table[m0[b1]][m1[b3]],
                add_table[m2[b0]][m3[b2]],
                add_table[m2[b1]][m3[b3]],
            )

        self.mul2 = mul2

    def encode(self, value) -> int:
        """The encoding of an int (prime field) or a coefficient sequence, lowest
        first (extension field); both may be non-canonical."""
        if self.modulus is None:
            return value % self.p
        return _pack(_mulmod(tuple(value), (1,), self.modulus.coeffs, self.p), self.p)

    def coeffs(self, v: int) -> tuple[int, ...]:
        """The deg(modulus) coefficients, lowest first, of an extension-field element."""
        out = []
        for _ in range(self.modulus.degree):
            v, c = divmod(v, self.p)
            out.append(c)
        return tuple(out)

    def pow(self, v: int, e: int) -> int:
        """v**e for e >= 0; a negative e raises ValueError."""
        if self.modulus is None and e >= 0:
            return pow(v, e, self.p)
        return power(v, e, self.mul, 1)

    def inv(self, v: int) -> int:
        """v^-1: the builtin pow over a prime field, v^(q-2) over an extension field."""
        if v == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.modulus is None:
            return pow(v, -1, self.p)
        return self.pow(v, self.q - 2)

    def render(self, v: int) -> str:
        """'F7(3)' over a prime field, 'F3^2(x + 1)' over an extension field."""
        if self.modulus is None:
            return f"F{self.p}({v})"
        return f"F{self.p}^{self.modulus.degree}({UniPoly(self.p, self.coeffs(v)).render()})"

    def identity(self, m: int) -> tuple[int, ...]:
        return tuple(1 if i == j else 0 for i in range(m) for j in range(m))

    def mat_mul(self, a: tuple[int, ...], b: tuple[int, ...], m: int) -> tuple[int, ...]:
        mul, add = self.mul, self.add
        out = []
        for i in range(m):
            row = i * m
            for j in range(m):
                acc = 0
                for k in range(m):
                    acc = add(acc, mul(a[row + k], b[k * m + j]))
                out.append(acc)
        return tuple(out)

    def product(self, m: int):
        """The product of two m x m matrices, as a function of (a, b)."""
        if m == 2:
            return self.mul2
        return lambda a, b: self.mat_mul(a, b, m)


def _pack(digits, p: int) -> int:
    """The base-p integer whose digits, lowest first, are the given residues."""
    v = 0
    for c in reversed(digits):
        v = v * p + c
    return v


@lru_cache(maxsize=None)
def finite_field(p: int, modulus: UniPoly | None) -> Field:
    """The Field for (p, modulus), built on first use; raises ValueError unless
    p is prime and the modulus, if any, is monic irreducible over F_p."""
    return Field(p, modulus)
