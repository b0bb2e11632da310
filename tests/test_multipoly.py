from __future__ import annotations

import itertools
import math
import random

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finquot import multipoly
from finquot.errors import FinquotError
from finquot.fields import finite_field
from finquot.multipoly import MultiPoly, grlex_key, lead_unit, mp_divexact, mp_gcd, substitution_exponents
from finquot.unipoly import UniPoly


def var(i, char=0, nvars=2):
    return MultiPoly.variable(char, nvars, i)


def const(c, char=0, nvars=2):
    return MultiPoly.const(char, nvars, c)


def random_poly(rng, char, nvars, max_terms=5, max_exp=3, max_coeff=6):
    while True:
        terms = {}
        for _ in range(rng.randrange(1, max_terms + 1)):
            mono = tuple(rng.randrange(max_exp + 1) for _ in range(nvars))
            terms[mono] = rng.randrange(-max_coeff, max_coeff + 1) or 1
        f = MultiPoly(char, nvars, terms)
        if not f.is_zero():
            return f


def test_construction_drops_zero_terms():
    f = MultiPoly(0, 2, {(1, 0): 0, (0, 1): 3})
    assert f.terms == {(0, 1): 3}
    assert MultiPoly(3, 1, {(2,): 6}).is_zero()


@pytest.mark.parametrize("char", [1, 4, 9, 561, -3])
def test_construction_refuses_characteristic_that_is_not_zero_or_prime(char):
    with pytest.raises(ValueError, match=f"^{char} is not prime$"):
        MultiPoly(char, 1, {(1,): 1})
    assert MultiPoly(0, 1, {(1,): 1}).char == 0
    assert MultiPoly(7, 1, {(1,): 1}).char == 7


def test_basic_identities():
    x1, x2 = var(0), var(1)
    assert (x1 - x2) + x2 == x1
    assert (x1 * x2).terms == {(1, 1): 1}
    assert x1 * (x2 + const(1)) == x1 * x2 + x1


def test_frobenius_char2():
    x1 = var(0, char=2, nvars=1)
    one = const(1, char=2, nvars=1)
    assert (x1 + one) * (x1 + one) == x1 * x1 + one


def test_total_degree():
    assert MultiPoly.zero(0, 2).total_degree() == -1
    assert const(5).total_degree() == 0
    f = MultiPoly(0, 2, {(2, 1): 1, (1, 0): 1})
    assert f.total_degree() == 3


def test_evaluate():
    f = var(0) * var(1) - const(1)
    assert f.evaluate([2, 3], finite_field(101, None)) == 5
    assert f.evaluate([2, 3], finite_field(5, None)) == 0
    g = MultiPoly(3, 1, {(2,): 1})
    assert g.evaluate([2], finite_field(3, None)) == 1
    f9 = finite_field(3, UniPoly(3, (1, 0, 1)))  # x^2 = -1
    assert g.evaluate([f9.encode((0, 1))], f9) == f9.encode((-1,))


def test_substitute_sparse_examples():
    x1, x2 = var(0), var(1)
    assert (x1 - x2).substitute_sparse((1, 0)) == {0: -1, 1: 1}
    f = MultiPoly(0, 2, {(2, 1): 3, (0, 0): -2})
    assert f.substitute_sparse((0, 0)) == {0: sum(f.terms.values())}  # f(1, 1)
    assert (x1 * x2).substitute_sparse((2, 3)) == {5: 1}
    assert (x1 - x2).substitute_sparse((1, 1)) == {}


def _to_sympy(f, syms):
    return sum(c * sympy.prod(s**e for s, e in zip(syms, exps)) for exps, c in f.terms.items())


def test_substitute_sparse_matches_sympy():
    rng = random.Random(23)
    x = sympy.Symbol("x")
    for char in (0, 2, 5):
        for _ in range(60):
            nvars = rng.randrange(1, 4)
            f = random_poly(rng, char, nvars)
            exps = tuple(rng.randrange(6) for _ in range(nvars))
            syms = sympy.symbols(f"y1:{nvars + 1}")
            expr = sympy.expand(_to_sympy(f, syms).subs({s: x**n for s, n in zip(syms, exps)}))
            want = _reduced({m[0]: int(c) for m, c in sympy.Poly(expr, x).terms()}, char)
            assert f.substitute_sparse(exps) == want


def _reduced(terms, char):
    if char:
        terms = {d: c % char for d, c in terms.items()}
    return {d: c for d, c in terms.items() if c}


def _sparse_add(a, b, char):
    out = dict(a)
    for d, c in b.items():
        out[d] = out.get(d, 0) + c
    return _reduced(out, char)


def _sparse_mul(a, b, char):
    out = {}
    for da, ca in a.items():
        for db, cb in b.items():
            out[da + db] = out.get(da + db, 0) + ca * cb
    return _reduced(out, char)


def test_substitution_is_ring_hom():
    rng = random.Random(29)
    for _ in range(40):
        char = rng.choice((0, 2, 3))
        f = random_poly(rng, char, 2)
        g = random_poly(rng, char, 2)
        exps = (rng.randrange(5), rng.randrange(5))
        sf, sg = f.substitute_sparse(exps), g.substitute_sparse(exps)
        assert (f + g).substitute_sparse(exps) == _sparse_add(sf, sg, char)
        assert (f * g).substitute_sparse(exps) == _sparse_mul(sf, sg, char)


def test_exponent_choice_for_constants():
    assert substitution_exponents(const(5)) == (0, 0)
    assert substitution_exponents(MultiPoly.const(3, 0, 2)) == ()


def test_exponent_choice_rejects_zero():
    with pytest.raises(ValueError):
        substitution_exponents(MultiPoly.zero(0, 2))


def test_exponent_choice_difference_of_variables():
    n1, n2 = substitution_exponents(var(0) - var(1))
    assert n1 != n2
    assert (var(0) - var(1)).substitute_sparse((n1, n2))


def test_exponent_choice_bound_example():
    f = var(0) * var(1) - const(1)  # degree 2, s = 2, bound 2^4 = 16
    assert all(0 <= n <= 16 for n in substitution_exponents(f))


def _assert_recursion_holds(f):
    exps = substitution_exponents(f)
    assert f.substitute_sparse(exps), f
    bound = max(f.total_degree(), 1) ** (2 * f.nvars)
    assert all(0 <= n <= bound for n in exps), (f, exps)


def test_exponent_choice_seeded_sweep():
    rng = random.Random(31)
    for _ in range(200):
        char = rng.choice((0, 0, 2, 3))
        s = rng.randrange(1, 4)
        _assert_recursion_holds(random_poly(rng, char, s, max_terms=6, max_exp=5))


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_exponent_choice_every_linear_polynomial(char):
    # d = 1 is where the degree argument is not strict; the recursion still
    # keeps a nonzero constant coefficient (see the multipoly docstring)
    for s in (1, 2, 3):
        for coeffs in itertools.product(range(-2, 3), repeat=s + 1):
            terms = {(0,) * s: coeffs[0]}
            for i, c in enumerate(coeffs[1:]):
                terms[tuple(int(j == i) for j in range(s))] = c
            f = MultiPoly(char, s, terms)
            if not f.is_zero():
                _assert_recursion_holds(f)


@st.composite
def _small_polys(draw):
    """Nonzero f in 1..4 variables of total degree at most 4 over Q, F_2, F_3 or F_5."""
    char = draw(st.sampled_from((0, 2, 3, 5)))
    s = draw(st.integers(1, 4))
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        left, exps = 4, []
        for _ in range(s):
            exps.append(draw(st.integers(0, left)))
            left -= exps[-1]
        terms[tuple(exps)] = draw(st.integers(-9, 9))
    f = MultiPoly(char, s, terms)
    assume(not f.is_zero())
    return f


@settings(max_examples=300, deadline=None, database=None)
@given(_small_polys())
def test_exponent_choice_property(f):
    _assert_recursion_holds(f)


def test_exponent_choice_refuses_a_zero_substitution(monkeypatch):
    monkeypatch.setattr(multipoly, "_recursion_exponents", lambda f: [0] * f.nvars)
    with pytest.raises(FinquotError, match="zero substitution"):
        substitution_exponents(var(0) - var(1))


def test_mp_gcd_and_divexact():
    x, y = var(0), var(1)
    a = x * x - y * y
    b = x - y
    g = mp_gcd(a, b)
    assert g.terms in ({(1, 0): 1, (0, 1): -1}, {(1, 0): -1, (0, 1): 1})
    assert mp_divexact(a, b) * b == a
    assert mp_gcd(x * y, x).terms == {(1, 0): 1}


def test_mp_gcd_char_p():
    x = var(0, char=3, nvars=1)
    one = const(1, char=3, nvars=1)
    f = (x + one) * (x + one) * x
    g = (x + one) * x * x
    h = mp_gcd(f, g)
    assert mp_divexact(f, h).total_degree() == 1
    assert mp_divexact(g, h).total_degree() == 1


def test_mp_gcd_matches_sympy_up_to_unit():
    rng = random.Random(41)
    syms = sympy.symbols("y1:3")
    for char in (0, 0, 2, 3, 5):
        for _ in range(12):
            common = random_poly(rng, char, 2, max_terms=3, max_exp=2)
            f = random_poly(rng, char, 2, max_terms=3, max_exp=2) * common
            g = random_poly(rng, char, 2, max_terms=3, max_exp=2) * common
            if f.is_zero() or g.is_zero():
                continue
            opts = {"modulus": char} if char else {}
            ours = sympy.Poly(_to_sympy(mp_gcd(f, g), syms), *syms, **opts)
            theirs = sympy.gcd(
                sympy.Poly(_to_sympy(f, syms), *syms, **opts),
                sympy.Poly(_to_sympy(g, syms), *syms, **opts),
            )
            if char:
                assert ours.monic() == theirs.monic()
            else:
                assert ours in (theirs, -theirs)


def test_zero_variable_gcd_and_divexact():
    # with no variables every polynomial is a constant, handled by the constant branches
    for a, b in itertools.product(range(-12, 13), repeat=2):
        assert mp_gcd(const(a, nvars=0), const(b, nvars=0)) == const(math.gcd(a, b), nvars=0)
        if b:
            q, r = divmod(a, b)
            if r:
                with pytest.raises(ValueError, match="^inexact .* division$"):
                    mp_divexact(const(a, nvars=0), const(b, nvars=0))
            else:
                assert mp_divexact(const(a, nvars=0), const(b, nvars=0)) == const(q, nvars=0)

    def five(c):
        return const(c, char=5, nvars=0)

    for a, b in itertools.product(range(5), repeat=2):
        assert mp_gcd(five(a), five(b)) == five(1 if a or b else 0)
        if b:
            [q] = [q for q in range(5) if q * b % 5 == a]
            assert mp_divexact(five(a), five(b)) == five(q)


def test_lead_unit_gives_canonical_lead():
    rng = random.Random(43)
    for char in (0, 2, 3, 5):
        for nvars in (1, 2, 3):
            for _ in range(20):
                f = random_poly(rng, char, nvars)
                u = lead_unit(f)
                g = f.scale(u)
                lead = g.terms[max(g.terms, key=grlex_key)]
                if char:
                    assert lead == 1 and 0 < u < char
                else:
                    assert lead > 0 and u in (1, -1)


def test_equality_and_hash_ignore_insertion_order():
    terms = [((2, 0), 3), ((0, 1), -1), ((1, 1), 5), ((0, 0), 7)]
    f = MultiPoly(0, 2, dict(terms))
    g = MultiPoly(0, 2, dict(reversed(terms)))
    assert list(f.terms) != list(g.terms)
    assert f == g and hash(f) == hash(g)
    assert len({f, g}) == 1
    assert MultiPoly(0, 2, {(1, 0): 1}) != MultiPoly(5, 2, {(1, 0): 1})
    assert MultiPoly.zero(0, 1) != MultiPoly.zero(0, 2)
    assert MultiPoly.const(3, 1, 1) != MultiPoly.const(3, 1, 2)
    assert f != f.scale(2)


def test_render():
    x1, x2 = var(0), var(1)
    f = x1 * x1 * x2 - const(3)
    assert f.render(("t", "u")) == "t^2*u - 3"
    assert MultiPoly.zero(0, 2).render(("t", "u")) == "0"
