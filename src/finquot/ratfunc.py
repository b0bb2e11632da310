"""Rational functions and square matrices over them, with canonical forms.

A RatFunc is a reduced fraction of MultiPoly values: the gcd (including
integer content in characteristic 0) is divided out, and the denominator's
graded-lex leading coefficient is normalized positive (char 0) or to 1
(char p).  Equal fractions therefore have equal canonical forms, which makes
exact identity detection and hashing sound during group enumeration.

A denominator of exactly the constant 1 is canonical as it stands (the gcd
with 1 is 1, and 1 is its own canonical associate), so a polynomial entry
costs no gcd, no denominator product and no exact division.
"""

from __future__ import annotations

from dataclasses import dataclass

from .multipoly import MultiPoly, lead_unit, mp_divexact, mp_gcd


@dataclass(frozen=True)
class RatFunc:
    num: MultiPoly
    den: MultiPoly

    def __post_init__(self):
        num, den = self.num, self.den
        num._check(den)
        if den.is_one():
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = MultiPoly.const(num.char, num.nvars, 1)
        else:
            g = mp_gcd(num, den)
            if not g.is_const() or g.const_value() != 1:
                num = mp_divexact(num, g)
                den = mp_divexact(den, g)
            u = lead_unit(den)
            if u != 1:
                num, den = num.scale(u), den.scale(u)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def of_poly(cls, f: MultiPoly) -> "RatFunc":
        return cls(f, MultiPoly.const(f.char, f.nvars, 1))

    @classmethod
    def const(cls, char: int, nvars: int, c: int) -> "RatFunc":
        return cls.of_poly(MultiPoly.const(char, nvars, c))

    @property
    def char(self) -> int:
        return self.num.char

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_one()

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.num.is_zero():
            return self
        if other.num.is_zero():
            return other
        den = other.den if self.den.is_one() else self.den if other.den.is_one() else self.den * other.den
        return RatFunc(self.num * other.num, den)

    def inverse(self) -> "RatFunc":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def render(self, names=None) -> str:
        if self.is_poly():
            return self.num.render(names)
        num = self.num.render(names)
        den = self.den.render(names)
        if len(self.num.terms) > 1:
            num = f"({num})"
        if len(self.den.terms) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"RatFunc({self.render()})"


class FieldMatrix:
    """A square matrix over RatFunc; immutable tuple-of-rows storage."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        m = len(rows)
        if any(len(r) != m for r in rows):
            raise ValueError("matrix must be square")
        self.rows = rows

    @classmethod
    def identity(cls, char: int, nvars: int, m: int) -> "FieldMatrix":
        one = RatFunc.const(char, nvars, 1)
        zero = RatFunc.const(char, nvars, 0)
        return cls(tuple(tuple(one if i == j else zero for j in range(m)) for i in range(m)))

    @property
    def size(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __mul__(self, other: "FieldMatrix") -> "FieldMatrix":
        m = self.size
        if other.size != m:
            raise ValueError("size mismatch")
        out = []
        for i in range(m):
            row = []
            for j in range(m):
                acc = self.rows[i][0] * other.rows[0][j]
                for k in range(1, m):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(tuple(row))
        return FieldMatrix(tuple(out))

    def is_identity(self) -> bool:
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if i == j:
                    if not (v.num.is_const() and v.num.const_value() == 1 and v.den.const_value() == 1):
                        return False
                elif not v.is_zero():
                    return False
        return True

    def _minor(self, i: int, j: int) -> "FieldMatrix":
        """The matrix with row i and column j deleted."""
        return FieldMatrix(
            tuple(tuple(v for c, v in enumerate(row) if c != j) for r, row in enumerate(self.rows) if r != i)
        )

    def det(self) -> RatFunc:
        """Cofactor expansion; fine for the small matrix sizes used here."""
        m = self.size
        if m == 1:
            return self.rows[0][0]
        acc = None
        for j in range(m):
            entry = self.rows[0][j]
            if entry.is_zero():
                continue
            term = entry * self._minor(0, j).det()
            if j % 2:
                term = -term
            acc = term if acc is None else acc + term
        return acc if acc is not None else RatFunc.const(self.char, self.nvars, 0)

    def inverse(self) -> "FieldMatrix":
        """Adjugate over determinant."""
        m = self.size
        d = self.det()
        if d.is_zero():
            raise ZeroDivisionError("matrix is singular")
        if m == 1:
            return FieldMatrix(((d.inverse(),),))
        cof = []
        for i in range(m):
            row = []
            for j in range(m):
                c = self._minor(i, j).det()
                if (i + j) % 2:
                    c = -c
                row.append(c)
            cof.append(tuple(row))
        inv_d = d.inverse()
        return FieldMatrix(tuple(tuple(cof[j][i] * inv_d for j in range(m)) for i in range(m)))

    @property
    def char(self) -> int:
        return self.rows[0][0].char

    @property
    def nvars(self) -> int:
        return self.rows[0][0].nvars

    def render(self, names=None) -> str:
        """Row-major bracket form with canonical entry text."""
        return "[" + ", ".join("[" + ", ".join(v.render(names) for v in row) + "]" for row in self.rows) + "]"

    def __repr__(self) -> str:
        return f"FieldMatrix({self.render()})"