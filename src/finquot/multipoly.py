"""Sparse multivariate polynomials over Z or F_p, exact throughout.

Terms map exponent vectors (one slot per variable) to nonzero coefficients.
The module's centerpiece is `substitution_exponents`: given nonzero f in s
variables of total degree d, it chooses exponents n_1..n_s in {0, ..., d^(2s)}
such that f(x^(n_1), ..., x^(n_s)) is a nonzero univariate polynomial.

The choice follows a degree recursion: factor f = (h0 + x1*h1) * x1^k with h0
free of x1 and nonzero.  If k > 0, recurse on the smaller-degree cofactor.
Otherwise recurse on h0 in the remaining variables and set n1 = d^(2s).  The
recursion is total:

- d >= 2: every x1*h1 term lands in degree at least d^(2s), strictly above
  the h0 part's at most d * d^(2s-2) = d^(2s-1), so the h0 part, nonzero by
  induction, survives.
- d = 1: f is linear, and the image a + b*x has a != 0.  Each level gives its
  variable n = 1 and passes the rest on, until what is left is a nonzero
  constant c (a = c), a single term c*x_j (the k > 0 shift: n_j = 0, a = c),
  or c0 + c*x_j at s = 1, where n_j = 0 if c0 + c != 0 (a = c0 + c) and
  n_j = 1 otherwise (then c0 = -c != 0 and a = c0).

Every exponent is at most d^(2s), so the bound holds by construction.
"""

from __future__ import annotations

import math

from .algebra import check_prime, power
from .errors import FinquotError


def grlex_key(exps: tuple[int, ...]) -> tuple:
    """Graded lexicographic sort key: total degree first, then the vector."""
    return (sum(exps), exps)


class MultiPoly:
    """Immutable sparse polynomial in `nvars` variables over Z or F_p."""

    __slots__ = ("char", "nvars", "terms")

    def __init__(self, char: int, nvars: int, terms: dict[tuple[int, ...], int]):
        if char:
            check_prime(char)
        clean: dict[tuple[int, ...], int] = {}
        for exps, c in terms.items():
            if len(exps) != nvars:
                raise ValueError("exponent vector arity mismatch")
            if char:
                c %= char
            if c:
                clean[exps] = c
        self.char = char
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def zero(cls, char: int, nvars: int) -> "MultiPoly":
        return cls(char, nvars, {})

    @classmethod
    def const(cls, char: int, nvars: int, c: int) -> "MultiPoly":
        return cls(char, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, char: int, nvars: int, i: int) -> "MultiPoly":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(char, nvars, {exps: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return False
        return (self.char, self.nvars, self.terms) == (other.char, other.nvars, other.terms)

    def __hash__(self) -> int:
        return hash((self.char, self.nvars, frozenset(self.terms.items())))

    def _check(self, other: "MultiPoly") -> None:
        if self.char != other.char or self.nvars != other.nvars:
            raise ValueError("ring mismatch")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, 0) + c
        return MultiPoly(self.char, self.nvars, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.char, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return MultiPoly(self.char, self.nvars, terms)

    def __pow__(self, e: int) -> "MultiPoly":
        return power(self, e, MultiPoly.__mul__, MultiPoly.const(self.char, self.nvars, 1))

    def scale(self, c: int) -> "MultiPoly":
        return MultiPoly(self.char, self.nvars, {e: c * v for e, v in self.terms.items()})

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_const(self) -> bool:
        return all(not any(e) for e in self.terms)

    def is_one(self) -> bool:
        """Whether this is exactly the constant 1: one term, zero exponents, coefficient 1."""
        return len(self.terms) == 1 and self.terms.get((0,) * self.nvars) == 1

    def const_value(self) -> int:
        if not self.terms:
            return 0
        [(e, c)] = self.terms.items()
        if any(e):
            raise ValueError("not a constant")
        return c

    def substitute_sparse(self, exponents: tuple[int, ...] | list[int]) -> dict[int, int]:
        """Coefficients of f(x^(n_1), ..., x^(n_s)) as a degree -> value map.

        Sparse on purpose: the recursion bound d^(2s) can be astronomically
        larger than the term count, so a dense vector is not an option.
        Zero coefficients are dropped; in char p values are reduced.
        """
        if len(exponents) != self.nvars:
            raise ValueError("exponent count mismatch")
        out: dict[int, int] = {}
        for exps, c in self.terms.items():
            d = sum(n * e for n, e in zip(exponents, exps))
            v = out.get(d, 0) + c
            if self.char:
                v %= self.char
            if v:
                out[d] = v
            else:
                out.pop(d, None)
        return out

    def evaluate(self, point, field):
        """Evaluate at encoded elements of a fields.Field; returns an encoded element."""
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        acc = 0
        for exps, c in self.terms.items():
            term = c % field.p
            for v, e in zip(point, exps):
                if e:
                    term = field.mul(term, field.pow(v, e))
            acc = field.add(acc, term)
        return acc

    def render(self, names: list[str] | tuple[str, ...] | None = None) -> str:
        """Canonical text, terms in descending graded-lex order, e.g. '3*t^2 - 1'."""
        if not self.terms:
            return "0"
        names = list(names) if names else [f"x{i + 1}" for i in range(self.nvars)]
        if len(names) != self.nvars:
            raise ValueError("name count mismatch")
        parts = []
        for exps in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[exps]
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            else:
                if mag != 1:
                    factors.insert(0, str(mag))
                body = "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self.char}, {self.render()})"


def substitution_exponents(f: MultiPoly) -> tuple[int, ...]:
    """Exponents n_i <= d^(2s) making substitute_sparse(f) nonzero."""
    if f.is_zero():
        raise ValueError("zero polynomial has no nonzero substitution")
    exps = tuple(_recursion_exponents(f))
    if not f.substitute_sparse(exps):
        raise FinquotError("degree recursion produced a zero substitution")
    return exps


def _recursion_exponents(f: MultiPoly) -> list[int]:
    s = f.nvars
    d = f.total_degree()
    if d <= 0 or s == 0:
        return [0] * s
    if s == 1:
        # Smallest n in {0, 1}: n = 0 works exactly when the coefficient sum
        # is nonzero; n = 1 keeps f itself, nonzero by assumption.
        return [0] if f.substitute_sparse((0,)) else [1]
    k = min(e[0] for e in f.terms)
    if k > 0:
        shifted = MultiPoly(f.char, s, {(e[0] - k, *e[1:]): c for e, c in f.terms.items()})
        return _recursion_exponents(shifted)
    h0 = MultiPoly(f.char, s - 1, {e[1:]: c for e, c in f.terms.items() if e[0] == 0})
    return [d ** (2 * s), *_recursion_exponents(h0)]


# Exact gcd and division, recursive in the last variable (primitive PRS).
# Complete at desk scale, so rational-function canonical forms are canonical.


def _to_main(f: MultiPoly) -> list[MultiPoly]:
    """Coefficients of f as polynomials in the other variables, by last-var degree."""
    split: dict[int, dict[tuple[int, ...], int]] = {}
    for e, c in f.terms.items():
        split.setdefault(e[-1], {})[e[:-1]] = c
    top = max(split, default=-1)
    return [MultiPoly(f.char, f.nvars - 1, split.get(i, {})) for i in range(top + 1)]

def _from_main(coeffs: list[MultiPoly], char: int, nvars: int) -> MultiPoly:
    terms: dict[tuple[int, ...], int] = {}
    for i, cp in enumerate(coeffs):
        for e, c in cp.terms.items():
            terms[(*e, i)] = c
    return MultiPoly(char, nvars, terms)

def _strip(coeffs: list[MultiPoly]) -> list[MultiPoly]:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs

def _list_content(coeffs: list[MultiPoly], char: int, nvars: int) -> MultiPoly:
    cont = MultiPoly.zero(char, nvars)
    for c in coeffs:
        if not c.is_zero():
            cont = mp_gcd(cont, c)
    return cont

def mp_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact gcd over Z (content included, positive grlex lead) or F_p (monic lead)."""
    if f.is_zero():
        return _normalize_lead(g)
    if g.is_zero():
        return _normalize_lead(f)
    f._check(g)
    char, s = f.char, f.nvars
    if f.is_const() or g.is_const():
        if char:
            return MultiPoly.const(char, s, 1)
        c = math.gcd(_content_int(f), _content_int(g))
        return MultiPoly.const(char, s, c)
    a, b = _to_main(f), _to_main(g)
    cont_a = _list_content(a, char, s - 1)
    cont_b = _list_content(b, char, s - 1)
    a = [mp_divexact(c, cont_a) for c in a]
    b = [mp_divexact(c, cont_b) for c in b]
    d = mp_gcd(cont_a, cont_b)
    # Primitive polynomial remainder sequence in the last variable.
    while b:
        r = _pseudo_rem(a, b)
        cont_r = _list_content(r, char, s - 1)
        if not cont_r.is_zero():
            r = [mp_divexact(c, cont_r) for c in r]
        a, b = b, r
    return _normalize_lead(_lift_last(d, s) * _from_main(a, char, s))


def _lift_last(f: MultiPoly, nvars: int) -> MultiPoly:
    """Reinterpret an (nvars-1)-variable polynomial inside nvars variables."""
    return MultiPoly(f.char, nvars, {(*e, 0): c for e, c in f.terms.items()})


def _content_int(f: MultiPoly) -> int:
    return math.gcd(*f.terms.values())


def _pseudo_rem(a: list[MultiPoly], b: list[MultiPoly]) -> list[MultiPoly]:
    """Pseudo-remainder of a by b in the main variable (coefficients scaled by lc(b))."""
    lc = b[-1]
    db = len(b) - 1
    r = list(a)
    _strip(r)
    while len(r) - 1 >= db:
        top = r[-1]
        shift = len(r) - 1 - db
        r = [lc * c for c in r]
        for j in range(len(b)):
            r[shift + j] = r[shift + j] - top * b[j]
        r.pop()
        _strip(r)
    return r


def mp_divexact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact division f / g; raises ValueError when g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return f
    f._check(g)
    char, s = f.char, f.nvars
    if g.is_const():
        c = g.const_value()
        if char:
            return f.scale(pow(c, -1, char))
        terms = {}
        for e, v in f.terms.items():
            q, r = divmod(v, c)
            if r:
                raise ValueError("inexact content division")
            terms[e] = q
        return MultiPoly(char, s, terms)
    a, b = _to_main(f), _to_main(g)
    db = len(b) - 1
    q = [MultiPoly.zero(char, s - 1)] * (len(a) - len(b) + 1)
    r = list(a)
    _strip(r)
    while len(r) - 1 >= db:
        c = mp_divexact(r[-1], b[-1])
        shift = len(r) - 1 - db
        q[shift] = c
        for j in range(len(b)):
            r[shift + j] = r[shift + j] - c * b[j]
        if not r[-1].is_zero():
            raise ValueError("inexact polynomial division")
        r.pop()
        _strip(r)
    if r:
        raise ValueError("inexact polynomial division")
    return _from_main(q, char, s)


def lead_unit(f: MultiPoly) -> int:
    """The unit u whose multiple f.scale(u) is f's canonical associate: its
    grlex lead coefficient is positive (char 0) or 1 (char p).  f is nonzero."""
    lead = f.terms[max(f.terms, key=grlex_key)]
    if f.char:
        return pow(lead, -1, f.char)
    return -1 if lead < 0 else 1


def _normalize_lead(f: MultiPoly) -> MultiPoly:
    """Canonical associate of f (see lead_unit); zero stays zero."""
    if f.is_zero():
        return f
    u = lead_unit(f)
    return f if u == 1 else f.scale(u)
