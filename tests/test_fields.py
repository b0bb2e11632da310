from __future__ import annotations

import itertools
import random

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_mul, gf_rem

from finquot.fields import finite_field
from finquot.unipoly import UniPoly, enumerate_irreducibles


def _neg(field, a):
    """-a, as a times the element -1, which p - 1 encodes in both encodings."""
    return field.mul(field.p - 1, a)


def test_prime_field_matches_int_arithmetic():
    rng = random.Random(3)
    for p in (2, 3, 5, 7, 11, 101):
        field = finite_field(p, None)
        for _ in range(50):
            a, b = rng.randrange(p), rng.randrange(p)
            assert field.add(a, b) == (a + b) % p
            assert field.add(a, _neg(field, b)) == (a - b) % p
            assert field.mul(a, b) == (a * b) % p
            assert _neg(field, a) == (-a) % p
            assert field.pow(a, 3) == pow(a, 3, p)
            assert field.encode(a + 7 * p) == field.encode(a - p) == a


def test_prime_field_inverse():
    for p in (2, 3, 5, 7, 13):
        field = finite_field(p, None)
        for a in range(1, p):
            assert field.mul(a, field.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        finite_field(5, None).inv(0)


def test_prime_field_inverse_is_builtin_and_fermat():
    # the Fermat power v^(p-2) is the rule Field.inv used before
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        field = finite_field(p, None)
        for v in range(1, p):
            assert field.inv(v) == pow(v, -1, p) == pow(v, p - 2, p)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        finite_field(6, None)
    with pytest.raises(ValueError):
        finite_field(1, None)


F4 = UniPoly(2, (1, 1, 1))  # x^2 + x + 1


def test_f4_arithmetic():
    field = finite_field(2, F4)
    w, one = field.encode((0, 1)), 1
    add, mul = field.add, field.mul
    assert mul(w, w) == add(w, one)          # w^2 = w + 1
    assert field.pow(w, 3) == one            # multiplicative order 3
    assert mul(add(w, one), add(w, one)) == w
    assert add(mul(w, w), w) == one          # the trace-like identity w^2 + w = 1


def test_extension_reduces_on_construction():
    field = finite_field(2, F4)
    w2 = field.encode((0, 0, 1))  # x^2 mod (x^2+x+1) = x + 1
    assert field.coeffs(w2) == (1, 1)
    assert field.coeffs(field.encode((3, 5))) == (1, 1)


def test_f9_inverses_exhaustive():
    field = finite_field(3, UniPoly(3, (1, 0, 1)))  # x^2 + 1 is irreducible over F_3
    count = 0
    for c0, c1 in itertools.product(range(3), repeat=2):
        a = field.encode((c0, c1))
        if a == 0:
            with pytest.raises(ZeroDivisionError):
                field.inv(a)
            continue
        assert field.mul(a, field.inv(a)) == 1
        count += 1
    assert count == 8


def test_extension_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        finite_field(2, UniPoly(2, (1, 0, 1)))  # x^2 + 1 = (x+1)^2
    with pytest.raises(ValueError):
        finite_field(3, UniPoly(3, (1, 0, 2)))  # not monic
    with pytest.raises(ValueError):
        finite_field(4, UniPoly(2, (1, 1, 1)))  # composite characteristic


def test_extension_field_size():
    assert finite_field(2, F4).q == 4
    assert finite_field(3, UniPoly(3, (1, 2, 0, 1))).q == 27


def test_fields_are_built_once():
    assert finite_field(2, F4) is finite_field(2, UniPoly(2, (1, 1, 1)))
    assert finite_field(7, None) is finite_field(7, None)
    assert finite_field(7, None) is not finite_field(7, UniPoly(7, (0, 1)))


def test_render():
    assert finite_field(7, None).render(3) == "F7(3)"
    f9 = finite_field(3, UniPoly(3, (1, 0, 1)))
    assert f9.render(f9.encode((1, 1))) == "F3^2(x + 1)"
    assert f9.render(0) == "F3^2(0)"
    f3 = finite_field(3, UniPoly(3, (1, 1)))  # degree-1 modulus: x = -1 = 2
    assert f3.render(f3.encode((0, 1))) == "F3^1(2)"


def test_extension_frobenius_is_additive():
    # a -> a^p is a field automorphism; spot check additivity on F_8
    field = finite_field(2, UniPoly(2, (1, 1, 0, 1)))
    for a in range(8):
        for b in range(8):
            assert field.pow(field.add(a, b), 2) == field.add(field.pow(a, 2), field.pow(b, 2))


def _sympy_element(field, digits):
    """sympy's dense GF(p) form (highest first, no leading zero) of a digit tuple."""
    out = [c % field.p for c in reversed(digits)]
    while out and out[0] == 0:
        out.pop(0)
    return out


@pytest.mark.parametrize("p,degree", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2)])
def test_tables_match_sympy_gf(p, degree):
    # F_4, F_8, F_9, F_16, F_25, F_27, F_49: every table cell against sympy's
    # GF(p) arithmetic, rem(a * b, h) and a + b, for the first two moduli
    for modulus in itertools.islice(enumerate_irreducibles(p, degree), 2):
        field = finite_field(p, modulus)
        h = _sympy_element(field, modulus.coeffs)
        elements = [_sympy_element(field, field.coeffs(v)) for v in range(field.q)]
        code = {tuple(e): v for v, e in enumerate(elements)}
        assert len(code) == field.q
        for a, ea in enumerate(elements):
            for b, eb in enumerate(elements):
                assert field.mul(a, b) == code[tuple(gf_rem(gf_mul(ea, eb, p, ZZ), h, p, ZZ))]
                assert field.add(a, b) == code[tuple(gf_add(ea, eb, p, ZZ))]


@pytest.mark.parametrize("p,degree", [(2, 2), (3, 2), (2, 3), (5, 2), (3, 3)])
def test_encode_maps_non_canonical_input_to_the_canonical_element(p, degree):
    # longer than deg h, negative coefficients, the empty list: sympy's
    # rem(value, h) over GF(p) names the element
    rng = random.Random(41 * p + degree)
    modulus = next(enumerate_irreducibles(p, degree))
    field = finite_field(p, modulus)
    h = _sympy_element(field, modulus.coeffs)
    code = {tuple(_sympy_element(field, field.coeffs(v))): v for v in range(field.q)}
    assert field.encode([]) == field.encode(()) == 0
    assert field.encode([p, -p, 2 * p]) == 0
    for _ in range(200):
        value = [rng.randrange(-3 * p, 3 * p) for _ in range(rng.randrange(0, 3 * degree + 2))]
        expected = code[tuple(gf_rem(_sympy_element(field, value), h, p, ZZ))]
        assert field.encode(value) == field.encode(tuple(value)) == expected
    # a canonical digit tuple encodes to itself
    for v in range(field.q):
        assert field.encode(field.coeffs(v)) == v
