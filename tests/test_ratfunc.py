from __future__ import annotations

import random

import pytest

from finquot.multipoly import MultiPoly
from finquot.ratfunc import FieldMatrix, RatFunc


def t_var(char=0):
    return MultiPoly.variable(char, 1, 0)


def c_poly(c, char=0):
    return MultiPoly.const(char, 1, c)


def test_cancellation_to_canonical_form():
    t, one = t_var(), c_poly(1)
    r = RatFunc(t * t - one, t - one)
    assert r.is_poly()
    assert r.num == t + one
    assert r.den == one


def test_denominator_sign_normalized_char0():
    t = t_var()
    r = RatFunc(t, c_poly(-2))
    assert r.den == c_poly(2)
    assert r.num == MultiPoly(0, 1, {(1,): -1})


def test_denominator_monic_char_p():
    r = RatFunc(c_poly(1, char=3), MultiPoly(3, 1, {(1,): 2}))
    assert r.den == t_var(char=3)
    assert r.num == c_poly(2, char=3)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(t_var(), MultiPoly.zero(0, 1))


def test_canonicalization_idempotent():
    rng = random.Random(41)
    for _ in range(60):
        char = rng.choice((0, 2, 5))
        num = MultiPoly(char, 1, {(rng.randrange(4),): rng.randrange(-4, 5) or 1
                                  for _ in range(rng.randrange(1, 4))})
        den = MultiPoly(char, 1, {(rng.randrange(3),): rng.randrange(-4, 5) or 1
                                  for _ in range(rng.randrange(1, 3))})
        if den.is_zero():
            continue
        r = RatFunc(num, den)
        again = RatFunc(r.num, r.den)
        assert again.num == r.num and again.den == r.den


def test_arithmetic():
    t, one = t_var(), c_poly(1)
    inv_t = RatFunc(one, t)
    assert (inv_t + RatFunc.of_poly(t)).num == t * t + one
    assert (inv_t * RatFunc.of_poly(t)) == RatFunc.const(0, 1, 1)
    assert (RatFunc.of_poly(t) - RatFunc.of_poly(t)).is_zero()
    assert inv_t.inverse() == RatFunc.of_poly(t)
    with pytest.raises(ZeroDivisionError):
        RatFunc.const(0, 1, 0).inverse()


def test_multivariate_gcd_cancellation():
    x = MultiPoly.variable(0, 2, 0)
    y = MultiPoly.variable(0, 2, 1)
    r = RatFunc(x * x - y * y, x - y)
    assert r.is_poly()
    assert r.num == x + y


def test_render():
    t, one = t_var(), c_poly(1)
    assert RatFunc(t, t * t + one).render(("t",)) == "t/(t^2 + 1)"
    assert RatFunc.of_poly(t + one).render(("t",)) == "t + 1"


def id2(char=0, nvars=1):
    return FieldMatrix.identity(char, nvars, 2)


def test_matrix_identity_and_mul():
    t = RatFunc.of_poly(t_var())
    one = RatFunc.const(0, 1, 1)
    zero = RatFunc.const(0, 1, 0)
    a = FieldMatrix(((one, t), (zero, one)))
    assert (a * id2()) == a
    assert (id2() * a) == a
    assert not a.is_identity()
    assert id2().is_identity()


def test_matrix_inverse_of_elementary():
    t = RatFunc.of_poly(t_var())
    one = RatFunc.const(0, 1, 1)
    zero = RatFunc.const(0, 1, 0)
    a = FieldMatrix(((one, t), (zero, one)))
    inv = a.inverse()
    assert (a * inv).is_identity()
    assert inv.rows[0][1].num == MultiPoly(0, 1, {(1,): -1})


def test_matrix_det_and_singular():
    t = RatFunc.of_poly(t_var())
    one = RatFunc.const(0, 1, 1)
    a = FieldMatrix(((t, one), (one, one)))
    assert a.det() == RatFunc.of_poly(t_var() - c_poly(1))
    singular = FieldMatrix(((one, one), (one, one)))
    assert singular.det().is_zero()
    with pytest.raises(ZeroDivisionError):
        singular.inverse()


def test_matrix_inverse_random():
    rng = random.Random(43)
    one = RatFunc.const(0, 1, 1)
    for _ in range(25):
        rows = tuple(
            tuple(RatFunc.of_poly(MultiPoly(0, 1, {(rng.randrange(2),): rng.randrange(-3, 4)}))
                  for _ in range(2))
            for _ in range(2)
        )
        m = FieldMatrix(rows)
        if m.det().is_zero():
            continue
        assert (m * m.inverse()).is_identity()
        assert (m.inverse() * m).is_identity()
