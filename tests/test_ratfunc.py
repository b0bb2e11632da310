from __future__ import annotations

import random
from functools import reduce

import pytest

from finquot import groups, ratfunc
from finquot.groups import (
    GroupSpec,
    ball_enumerate,
    cyclic_group,
    diagonal_group,
    inverse_label,
    sanov_group,
    scaled_difference,
    word_evaluate,
)
from finquot.multipoly import MultiPoly, lead_unit, mp_divexact, mp_gcd
from finquot.parsing import parse_entry
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


def test_matrix_must_be_square():
    one = RatFunc.const(0, 1, 1)
    with pytest.raises(ValueError, match="^matrix must be square$"):
        FieldMatrix(((one, one), (one,)))
    with pytest.raises(ValueError, match="^matrix must be square$"):
        FieldMatrix(((one, one),))


def test_matrix_inverse_1x1():
    t1 = RatFunc.of_poly(t_var() + c_poly(1))
    inv = FieldMatrix(((t1,),)).inverse()
    assert inv.rows[0][0] == t1.inverse()
    assert (FieldMatrix(((t1,),)) * inv).is_identity()


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


# Oracle for the denominator-1 fast path: the canonicalisation rule without
# it (always gcd, exact division and lead unit), and the arithmetic built on
# that rule alone.


def _raw(num, den):
    """A RatFunc holding num/den as given, without running __post_init__."""
    r = object.__new__(RatFunc)
    object.__setattr__(r, "num", num)
    object.__setattr__(r, "den", den)
    return r


def _reference(num, den):
    if num.is_zero():
        return _raw(num, MultiPoly.const(num.char, num.nvars, 1))
    g = mp_gcd(num, den)
    num, den = mp_divexact(num, g), mp_divexact(den, g)
    u = lead_unit(den)
    return _raw(num.scale(u), den.scale(u))


def _ref_mul(a, b):
    return _reference(a.num * b.num, a.den * b.den)


def _ref_add(a, b):
    return _reference(a.num * b.den + b.num * a.den, a.den * b.den)


def _ref_neg(a):
    return _reference(-a.num, a.den)


def _ref_matmul(x, y):
    m = x.size
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = _ref_mul(x.rows[i][0], y.rows[0][j])
            for k in range(1, m):
                acc = _ref_add(acc, _ref_mul(x.rows[i][k], y.rows[k][j]))
            row.append(acc)
        rows.append(tuple(row))
    return FieldMatrix(rows)


def _ref_word(spec, letters):
    return reduce(lambda acc, label: _ref_matmul(acc, spec.matrix(label)), letters[1:], spec.matrix(letters[0]))


def _denominators(char, nvars):
    """1, -1, 2, a constant other than 1 mod p, and t and t + u where there are variables."""
    c = lambda v: MultiPoly.const(char, nvars, v)
    dens = [c(1), c(-1), c(2), c({0: 3, 3: 2, 5: 3}[char])]
    if nvars:
        dens.append(MultiPoly.variable(char, nvars, 0))
    if nvars == 2:
        dens.append(MultiPoly.variable(char, nvars, 0) + MultiPoly.variable(char, nvars, 1))
    return dens


def _random_fraction(rng, char, nvars):
    """num/den through the constructor, checked against the reference rule;
    about a quarter of the numerators are zero."""
    terms = {tuple(rng.randrange(3) for _ in range(nvars)): rng.randrange(-3, 4) for _ in range(rng.randrange(4))}
    num = MultiPoly(char, nvars, terms)
    den = rng.choice(_denominators(char, nvars))
    r = RatFunc(num, den)
    _assert_same(r, _reference(num, den))
    return r


def _assert_same(got, want):
    assert (got.num, got.den) == (want.num, want.den)
    assert got == want and hash(got) == hash(want)


@pytest.mark.parametrize("char", [0, 3, 5])
@pytest.mark.parametrize("nvars", [0, 1, 2])
def test_arithmetic_matches_the_reference_rule(char, nvars):
    rng = random.Random(1000 * char + nvars)
    for _ in range(60):
        a, b = _random_fraction(rng, char, nvars), _random_fraction(rng, char, nvars)
        _assert_same(a * b, _ref_mul(a, b))
        _assert_same(a + b, _ref_add(a, b))
        _assert_same(a - b, _ref_add(a, _ref_neg(b)))
        _assert_same(-a, _ref_neg(a))
    for m in (2, 3):
        for _ in range(6):
            x, y = (FieldMatrix([[_random_fraction(rng, char, nvars) for _ in range(m)] for _ in range(m)])
                    for _ in range(2))
            got, want = x * y, _ref_matmul(x, y)
            assert got.rows == want.rows
            assert got == want and hash(got) == hash(want)


def _spec_3x3():
    """A 3 x 3 group over Q(t, u) with the denominators t + u and u."""
    variables = ("t", "u")
    entry = lambda text: parse_entry(text, 0, variables)
    a = FieldMatrix([[entry(v) for v in row] for row in (("1", "t", "0"), ("0", "1", "1/(t + u)"), ("0", "0", "1"))])
    b = FieldMatrix([[entry(v) for v in row] for row in (("u", "0", "0"), ("0", "1", "0"), ("1", "0", "1"))])
    return GroupSpec(0, variables, {"a": a, "b": b})


@pytest.mark.parametrize(
    "make,radius",
    [
        (lambda: sanov_group(0), 4),
        (lambda: sanov_group(3), 5),
        (cyclic_group, 10),
        (diagonal_group, 6),
        (_spec_3x3, 3),
    ],
    ids=["sanov-r4", "sanov_f3-r5", "cyclic-r10", "diagonal-r6", "3x3-r3"],
)
def test_word_evaluate_matches_the_reference_product(make, radius):
    spec = make()
    ident = spec.identity()
    for label in spec.generators:
        assert _ref_matmul(spec.matrix(label), spec.matrix(inverse_label(label))) == ident
    for el in ball_enumerate(spec, radius):
        want = _ref_word(spec, el.word.letters)
        for got in (word_evaluate(spec, el.word), el.matrix):
            assert got.rows == want.rows
            assert got == want and hash(got) == hash(want)


def _count_calls(monkeypatch):
    """Count ratfunc's gcds and groups' exact divisions from here on."""
    calls = {"mp_gcd": 0, "mp_divexact": 0}
    for module, name in ((ratfunc, "mp_gcd"), (groups, "mp_divexact")):
        def counting(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_polynomial_entries_run_no_gcd_and_no_exact_division(sanov, monkeypatch):
    word = sanov.word("a^60 b^60 a^-60 b^-60")
    calls = _count_calls(monkeypatch)
    scaled_difference(sanov, word, word_evaluate(sanov, word))
    for el in ball_enumerate(sanov, 4):
        scaled_difference(sanov, el.word, el.matrix)
    assert calls == {"mp_gcd": 0, "mp_divexact": 0}


def test_rational_entries_keep_the_general_path(diagonal, monkeypatch):
    word = diagonal.word("a^24")
    calls = _count_calls(monkeypatch)
    scaled_difference(diagonal, word, word_evaluate(diagonal, word))
    assert calls["mp_gcd"] > 0 and calls["mp_divexact"] > 0
