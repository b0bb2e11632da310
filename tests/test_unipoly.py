from __future__ import annotations

import itertools
import random

import pytest
import sympy

from finquot.algebra import power
from finquot.errors import BudgetExceeded
from finquot.fields import finite_field
from finquot.multipoly import MultiPoly
from finquot.unipoly import (
    UniPoly,
    _mulmod,
    enumerate_irreducibles,
    gauss_irreducible_count,
    is_irreducible,
)


def poly(char, *coeffs):
    return UniPoly(char, tuple(coeffs))


def test_construction_normalizes():
    assert poly(5, 6, 7).coeffs == (1, 2)
    assert poly(2, 0).is_zero()
    assert poly(2, 0).degree == -1
    assert poly(3, 4).degree == 0


@pytest.mark.parametrize("char", [0, 1, -3])
def test_construction_refuses_char_below_two(char):
    with pytest.raises(ValueError, match=f"^{char} is not prime$"):
        poly(char, 1, 1)


@pytest.mark.parametrize("char", [4, 6, 9, 15, 561])
def test_construction_refuses_composite_char(char):
    with pytest.raises(ValueError, match=f"^{char} is not prime$"):
        poly(char, 1, 1)


def test_composite_char_gcd_and_irreducibility_refused_at_once():
    # these never returned when a composite characteristic was accepted
    with pytest.raises(ValueError, match="^4 is not prime$"):
        poly(4, 1, 2).gcd(poly(4, 2, 2))
    with pytest.raises(ValueError, match="^4 is not prime$"):
        is_irreducible(poly(4, 1, 1, 1))


def test_arithmetic_matches_int_convolution():
    rng = random.Random(11)
    for char in (2, 3, 7):
        for _ in range(60):
            a = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 6))]
            b = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 6))]
            conv = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
            assert poly(char, *a) * poly(char, *b) == poly(char, *conv)
            s = [x + y for x, y in zip(a, b)] + list(a[len(b):]) + list(b[len(a):])
            assert poly(char, *a) + poly(char, *b) == poly(char, *s)


def test_frobenius_square_char2():
    # (x + 1)^2 = x^2 + 1 over F_2
    f = poly(2, 1, 1)
    assert f * f == poly(2, 1, 0, 1)


def test_divmod_invariant():
    rng = random.Random(13)
    for p in (2, 3, 5):
        for _ in range(80):
            a = poly(p, *[rng.randrange(p) for _ in range(rng.randrange(1, 8))])
            b = poly(p, *[rng.randrange(p) for _ in range(rng.randrange(1, 5))])
            if b.is_zero():
                continue
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.degree < b.degree


def test_gcd_char_p():
    # x^2 + x = x(x + 1), x^2 + 1 = (x + 1)^2 over F_2
    g = poly(2, 0, 1, 1).gcd(poly(2, 1, 0, 1))
    assert g == poly(2, 1, 1)
    assert poly(3, 0, 1).gcd(poly(3, 0, 0, 1)) == poly(3, 0, 1)


def _naive_power(x, e, mul, one):
    acc = one
    for _ in range(e):
        acc = mul(acc, x)
    return acc


def test_powmod():
    # x^3 = 1 mod x^2 + x + 1 over F_2
    x = poly(2, 0, 1)
    m = poly(2, 1, 1, 1)
    assert x.powmod(3, m) == poly(2, 1)
    assert x.powmod(8, m) == x.powmod(2, m)
    rng = random.Random(17)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        base = poly(p, *[rng.randrange(p) for _ in range(3)])
        mod = poly(p, *([rng.randrange(p) for _ in range(3)] + [1]))
        e = rng.randrange(1, 40)
        assert base.powmod(e, mod) == _naive_power(base, e, lambda a, b: (a * b).divmod(mod)[1], poly(p, 1))
    # algebra.power, the one square-and-multiply, against the same naive loop
    for n in (2, 9, 10, 97):
        mul = lambda a, b, n=n: a * b % n
        for v in range(n):
            for e in range(n + 2):
                assert power(v, e, mul, 1) == _naive_power(v, e, mul, 1) == pow(v, e, n)
    big = 10**6 + 3
    mul = lambda a, b: a * b % 1009
    assert power(3, big, mul, 1) == _naive_power(3, big, mul, 1)
    for char in (0, 3):
        for nvars in (0, 1, 2):
            one = MultiPoly.const(char, nvars, 1)
            for _ in range(4):
                monomials = [tuple(rng.randrange(3) for _ in range(nvars)) for _ in range(rng.randrange(1, 4))]
                f = MultiPoly(char, nvars, {m: rng.randrange(-4, 5) for m in monomials})
                for e in range(6):
                    naive = _naive_power(f, e, MultiPoly.__mul__, one)
                    assert f**e == power(f, e, MultiPoly.__mul__, one) == naive
        # a monomial's power is known in closed form, even for e > 10^6
        f = MultiPoly(char, 2, {(1, 0): 2})
        assert f**big == MultiPoly(char, 2, {(big, 0): pow(2, big, char) if char else 2**big})
    for p, modulus in ((2, UniPoly(2, (1, 1, 1))), (3, UniPoly(3, (1, 0, 1))), (7, None)):
        field = finite_field(p, modulus)
        q = field.q
        for v in range(q):
            for e in range(q + 2):
                naive = _naive_power(v, e, field.mul, 1)
                assert field.pow(v, e) == power(v, e, field.mul, 1) == naive
            # Lagrange: v^(q-1) = 1 for v != 0, so v^big = v^(big mod (q - 1))
            expected = _naive_power(v, big % (q - 1), field.mul, 1) if v else 0
            assert field.pow(v, big) == power(v, big, field.mul, 1) == expected


def test_irreducibility_examples():
    assert is_irreducible(poly(2, 1, 1, 1))  # x^2 + x + 1
    assert not is_irreducible(poly(2, 1, 0, 1))  # x^2 + 1 = (x+1)^2
    assert is_irreducible(poly(3, 0, 1))  # x
    assert is_irreducible(poly(2, 1, 0, 1, 0, 0, 1))  # x^5 + x^2 + 1
    assert not is_irreducible(poly(2, 1))
    assert not is_irreducible(poly(3, 0))


def test_irreducibility_rejects_char_zero():
    with pytest.raises(ValueError):
        is_irreducible(poly(0, 1, 1))


def test_irreducibility_against_factor_search():
    # brute force: a poly of degree <= 4 is irreducible iff no factor of degree <= 2
    for p in (2, 3):
        for code in range(1, p**4):
            coeffs = []
            c = code
            for _ in range(4):
                coeffs.append(c % p)
                c //= p
            coeffs.append(1)
            f = poly(p, *coeffs)
            has_factor = False
            for dcode in range(p, p**3):
                dc = []
                c = dcode
                for _ in range(3):
                    dc.append(c % p)
                    c //= p
                d = poly(p, *dc)
                if 1 <= d.degree < f.degree and (f % d).is_zero():
                    has_factor = True
                    break
            assert is_irreducible(f) == (not has_factor)


def _old_powmod(base, e, mod):
    """The UniPoly powering rule that powmod replaced."""
    return power(base % mod, e, lambda a, b: a * b % mod, UniPoly.const(base.char, 1))


def test_powmod_matches_the_old_rule():
    # non-monic and constant moduli included; e = 0 gives 1 unreduced, as before
    rng = random.Random(23)
    for p in (2, 3, 5, 7):
        for _ in range(60):
            base = poly(p, *[rng.randrange(p) for _ in range(rng.randrange(0, 7))])
            mod = poly(p, *[rng.randrange(p) for _ in range(rng.randrange(0, 5))] + [rng.randrange(1, p)])
            for e in (0, 1, 2, rng.randrange(3, 50), rng.randrange(10**6, 10**9)):
                assert base.powmod(e, mod) == _old_powmod(base, e, mod), (base, e, mod)
    assert poly(3, 0, 1).powmod(0, poly(3, 2)) == poly(3, 1)
    with pytest.raises(ZeroDivisionError):
        poly(3, 0, 1).powmod(2, poly(3))


def test_mulmod_matches_unipoly_product():
    rng = random.Random(29)
    for p in (2, 3, 5, 7):
        for _ in range(80):
            h = poly(p, *[rng.randrange(p) for _ in range(rng.randrange(0, 5))], 1)
            a, b = (poly(p, *[rng.randrange(p) for _ in range(rng.randrange(0, 7))]) for _ in range(2))
            assert UniPoly(p, _mulmod(a.coeffs, b.coeffs, h.coeffs, p)) == a * b % h


X = sympy.Symbol("x")


def _sympy_poly(f):
    return sympy.Poly(list(reversed(f.coeffs)) or [0], X, modulus=f.char)


def _from_sympy(g, p):
    return UniPoly(p, tuple(int(c) for c in reversed(g.all_coeffs())))


def test_irreducibility_matches_sympy():
    # every monic polynomial of degree 1..4 over F_2, F_3 and F_5
    checked = 0
    for p in (2, 3, 5):
        for deg in range(1, 5):
            for tail in itertools.product(range(p), repeat=deg):
                f = UniPoly(p, tail + (1,))
                assert is_irreducible(f) == _sympy_poly(f).is_irreducible, f
                checked += 1
    assert checked == 930


def test_divmod_and_gcd_match_sympy():
    rng = random.Random(19)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            a = poly(p, *[rng.randrange(p) for _ in range(rng.randrange(1, 9))])
            b = poly(p, *[rng.randrange(p) for _ in range(rng.randrange(1, 6))])
            if b.is_zero():
                continue
            q, r = a.divmod(b)
            sq, sr = sympy.div(_sympy_poly(a), _sympy_poly(b))
            assert (q, r) == (_from_sympy(sq, p), _from_sympy(sr, p))
            assert a.gcd(b) == _from_sympy(sympy.gcd(_sympy_poly(a), _sympy_poly(b)).monic(), p)


def test_gauss_count_examples():
    assert gauss_irreducible_count(2, 1) == 2
    assert gauss_irreducible_count(2, 2) == 1
    assert gauss_irreducible_count(2, 3) == 2
    assert gauss_irreducible_count(2, 4) == 3
    assert gauss_irreducible_count(3, 1) == 3


def test_gauss_count_and_enumeration_refuse_composite_p():
    with pytest.raises(ValueError, match="^4 is not prime$"):
        gauss_irreducible_count(4, 2)
    with pytest.raises(ValueError, match="^4 is not prime$"):
        next(enumerate_irreducibles(4, 1))


def test_gauss_count_matches_enumeration():
    for p in (2, 3):
        for ell in range(1, 5):
            assert gauss_irreducible_count(p, ell) == len(list(enumerate_irreducibles(p, ell)))


def test_gauss_count_lower_bound():
    # I_ell(p) >= p^(ell/2) whenever p^(ell/2) >= 4*ell
    for p in (2, 3, 5, 7, 11):
        for ell in range(1, 9):
            half = p ** (ell / 2)
            if half >= 4 * ell:
                assert gauss_irreducible_count(p, ell) >= half


def _odometer_irreducibles(p: int, ell: int):
    """The coefficient walk enumerate_irreducibles used before itertools.product."""
    digits = [0] * ell
    while True:
        f = UniPoly(p, tuple(digits) + (1,))
        if is_irreducible(f):
            yield f
        i = ell - 1
        while i >= 0 and digits[i] == p - 1:
            digits[i] = 0
            i -= 1
        if i < 0:
            return
        digits[i] += 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_enumerate_matches_odometer(p):
    ell = 1
    while p**ell <= 2401:
        assert list(enumerate_irreducibles(p, ell)) == list(_odometer_irreducibles(p, ell)), ell
        ell += 1


def test_enumerate_examples():
    assert list(enumerate_irreducibles(2, 2)) == [poly(2, 1, 1, 1)]
    assert list(enumerate_irreducibles(3, 1)) == [poly(3, 0, 1), poly(3, 1, 1), poly(3, 2, 1)]


def test_enumerate_output_is_monic_irreducible_sorted():
    for p, ell in ((2, 5), (3, 3), (5, 2)):
        out = list(enumerate_irreducibles(p, ell))
        assert all(f.is_monic() and f.degree == ell and is_irreducible(f) for f in out)
        assert out == sorted(out, key=lambda f: f.coeffs[:-1])
        assert len(out) == len(set(out))


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded) as err:
        next(iter(enumerate_irreducibles(2, 25)))
    assert err.value.required == 2**25
