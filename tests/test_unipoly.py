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
    _gcd,
    _monic,
    _mulmod,
    _powmod,
    enumerate_irreducibles,
    gauss_irreducible_count,
    is_irreducible,
)


def poly(char, *coeffs):
    return UniPoly(char, tuple(coeffs))


def _dense_mul(a, b):
    """The int convolution of two lowest-first coefficient sequences."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _dense_rem(a, h, p):
    """a mod h over F_p by schoolbook long division, for any h whose last
    coefficient is a unit: deg h residues, trailing zeros kept."""
    n, inv = len(h) - 1, pow(h[-1], -1, p)
    rem = [c % p for c in a] + [0] * n
    for i in range(len(rem) - 1, n - 1, -1):
        c = rem[i] * inv % p
        for j, d in enumerate(h):
            rem[i - n + j] = (rem[i - n + j] - c * d) % p
    return tuple(rem[:n])


def _random_monic(rng, p, degrees):
    return tuple(rng.randrange(p) for _ in range(rng.choice(degrees))) + (1,)


def test_construction_normalizes():
    assert poly(5, 6, 7).coeffs == (1, 2)
    assert poly(2, 0).coeffs == ()
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
        _gcd((1, 2), (2, 2), 4)
    with pytest.raises(ValueError, match="^4 is not prime$"):
        is_irreducible(poly(4, 1, 1, 1))


def test_arithmetic_matches_int_convolution():
    # modulo a monic h of degree 12 nothing is reduced, so _mulmod is the
    # convolution mod p; the remainder (b = (1,)) is additive
    rng = random.Random(11)
    for char in (2, 3, 7):
        for _ in range(60):
            a = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 6))]
            b = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 6))]
            big = _random_monic(rng, char, [12])
            conv = _dense_mul(a, b)
            assert _mulmod(a, b, big, char) == tuple(c % char for c in conv) + (0,) * (12 - len(conv))
            h = _random_monic(rng, char, [1, 2, 3])
            s = [x + y for x, y in zip(a, b)] + list(a[len(b):]) + list(b[len(a):])
            ra, rb = _mulmod(a, (1,), h, char), _mulmod(b, (1,), h, char)
            assert _mulmod(s, (1,), h, char) == tuple((x + y) % char for x, y in zip(ra, rb))


def test_frobenius_square_char2():
    # (x + 1)^2 = x^2 + 1 over F_2, and squaring sends x^i to x^(2i)
    big = (0,) * 16 + (1,)
    assert _mulmod((1, 1), (1, 1), big, 2) == (1, 0, 1) + (0,) * 13
    rng = random.Random(7)
    for _ in range(30):
        a = tuple(rng.randrange(2) for _ in range(8))
        spread = tuple(a[i // 2] if i % 2 == 0 else 0 for i in range(16))
        assert _mulmod(a, a, big, 2) == spread


def test_divmod_invariant():
    # the remainder by b is the remainder by monic(b): deg b residues r with
    # b | a - r, and r is its own remainder
    rng = random.Random(13)
    for p in (2, 3, 5):
        for _ in range(80):
            a = [rng.randrange(p) for _ in range(rng.randrange(1, 8))]
            b = poly(p, *[rng.randrange(p) for _ in range(rng.randrange(1, 5))]).coeffs
            if not b:
                continue
            h = _monic(b, p)
            r = _mulmod(a, (1,), h, p)
            assert len(r) == len(b) - 1
            diff = a + [0] * len(r)
            for i, c in enumerate(r):
                diff[i] -= c
            assert not any(_dense_rem(diff, b, p))
            assert _mulmod(r, (1,), h, p) == r == _dense_rem(a, b, p)


def test_gcd_char_p():
    # x^2 + x = x(x + 1), x^2 + 1 = (x + 1)^2 over F_2
    assert _gcd((0, 1, 1), (1, 0, 1), 2) == (1, 1)
    assert _gcd((0, 1), (0, 0, 1), 3) == (0, 1)
    assert _gcd((0, 2), (0, 0, 2, 0), 3) == (0, 1)  # non-monic, trailing zero
    assert _gcd((2, 1), (), 3) == _gcd((), (4, 2), 3) == (2, 1)
    assert _gcd((), (), 3) == ()


def _naive_power(x, e, mul, one):
    acc = one
    for _ in range(e):
        acc = mul(acc, x)
    return acc


def test_powmod():
    # x^3 = 1 mod x^2 + x + 1 over F_2
    x, m = (0, 1), (1, 1, 1)
    assert _powmod(x, 3, m, 2) == (1, 0)
    assert _powmod(x, 8, m, 2) == _powmod(x, 2, m, 2)
    rng = random.Random(17)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        base = tuple(rng.randrange(p) for _ in range(3))
        mod = _random_monic(rng, p, [3])
        e = rng.randrange(0, 40)
        dense = lambda a, b: _dense_rem(_dense_mul(a, b), mod, p)
        assert _powmod(base, e, mod, p) == _naive_power(base, e, dense, (1,))
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
                if 1 <= d.degree < f.degree and not any(_dense_rem(f.coeffs, d.coeffs, p)):
                    has_factor = True
                    break
            assert is_irreducible(f) == (not has_factor)


def _old_powmod(base, e, mod, p):
    """The powering rule _powmod replaced, on the dense oracle: square and
    multiply on long-division remainders, from an unreduced 1."""
    dense = lambda a, b: _dense_rem(_dense_mul(a, b), mod, p)
    return power(_dense_rem(base, mod, p), e, dense, (1,))


def test_powmod_matches_the_old_rule():
    # monic moduli of degree 0 to 4, e up to 10^9; e = 0 gives 1 unreduced,
    # as before; a naive loop of products checks the small e
    rng = random.Random(23)
    for p in (2, 3, 5, 7):
        for _ in range(60):
            base = tuple(rng.randrange(-p, p) for _ in range(rng.randrange(0, 7)))
            mod = _random_monic(rng, p, [0, 1, 2, 3, 4])
            for e in (0, 1, 2, rng.randrange(3, 50), rng.randrange(10**6, 10**9)):
                assert _powmod(base, e, mod, p) == _old_powmod(base, e, mod, p), (base, e, mod)
            e = rng.randrange(0, 12)
            dense = lambda a, b: _dense_rem(_dense_mul(a, b), mod, p)
            assert _powmod(base, e, mod, p) == _naive_power(base, e, dense, (1,))
    assert _powmod((0, 1), 0, (2, 1), 3) == _powmod((0, 1), 0, (1,), 3) == (1,)
    assert _powmod((0, 1), 5, (1,), 3) == ()
    with pytest.raises(ValueError, match="^negative power$"):
        _powmod((0, 1), -1, (1, 0, 1), 3)


def test_mulmod_matches_unipoly_product():
    # sympy's GF(p) rem(a * b, h) is the oracle, for monic h of degree 0 to 4
    # and factors with out-of-range and negative coefficients
    rng = random.Random(29)
    for p in (2, 3, 5, 7):
        for _ in range(80):
            h = _random_monic(rng, p, [0, 1, 2, 3, 4])
            a, b = ([rng.randrange(-2 * p, 2 * p) for _ in range(rng.randrange(0, 7))] for _ in range(2))
            prod = sympy.rem(_sympy_poly(_dense_mul(a, b), p), _sympy_poly(h, p))
            assert _mulmod(a, b, h, p) == _from_sympy(prod, p, len(h) - 1)


X = sympy.Symbol("x")


def _sympy_poly(coeffs, p):
    return sympy.Poly(list(reversed(coeffs)) or [0], X, modulus=p)


def _from_sympy(g, p, n=None):
    """A sympy GF(p) poly as a lowest-first tuple, padded to n coefficients if given."""
    cs = UniPoly(p, tuple(int(c) for c in reversed(g.all_coeffs()))).coeffs
    return cs if n is None else cs + (0,) * (n - len(cs))


def test_irreducibility_matches_sympy():
    # every monic polynomial of degree 1..4 over F_2, F_3 and F_5
    checked = 0
    for p in (2, 3, 5):
        for deg in range(1, 5):
            for tail in itertools.product(range(p), repeat=deg):
                f = UniPoly(p, tail + (1,))
                assert is_irreducible(f) == _sympy_poly(f.coeffs, p).is_irreducible, f
                checked += 1
    assert checked == 930


def test_divmod_and_gcd_match_sympy():
    # the remainder by monic(b) and the gcd, for non-monic b
    rng = random.Random(19)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            a = [rng.randrange(p) for _ in range(rng.randrange(1, 9))]
            b = [rng.randrange(p) for _ in range(rng.randrange(1, 6))]
            if not any(b):
                continue
            h = _monic(b, p)
            sa, sb = _sympy_poly(a, p), _sympy_poly(b, p)
            assert _mulmod(a, (1,), h, p) == _from_sympy(sympy.rem(sa, sb), p, len(h) - 1)
            assert _gcd(a, b, p) == _from_sympy(sympy.gcd(sa, sb).monic(), p)


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
