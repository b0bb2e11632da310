from __future__ import annotations

import random

import pytest

from finquot.errors import EntryParseError
from finquot.multipoly import MultiPoly
from finquot.parsing import parse_entry
from finquot.ratfunc import RatFunc

T = ("t",)


def test_literals_and_arithmetic():
    assert parse_entry("1", 0, T) == RatFunc.const(0, 1, 1)
    assert parse_entry("2^3", 0, T) == RatFunc.const(0, 1, 8)
    assert parse_entry("t - t", 0, T).is_zero()
    assert parse_entry(" t * ( t + 1 ) ", 0, T).render(T) == "t^2 + t"
    assert parse_entry("-t^2", 0, T).render(T) == "-t^2"


def test_rational_entry():
    r = parse_entry("(3*t^2 - 1)/(2*t)", 0, T)
    assert r.num == MultiPoly(0, 1, {(2,): 3, (0,): -1})
    assert r.den == MultiPoly(0, 1, {(1,): 2})


def test_char_p_reduction():
    assert parse_entry("4*t", 3, T).render(T) == "t"
    assert parse_entry("t + 3", 3, T).render(T) == "t"


def test_multivariate():
    r = parse_entry("t1*t2 - 1", 0, ("t1", "t2"))
    assert r.num == MultiPoly(0, 2, {(1, 1): 1, (0, 0): -1})


def test_whitespace_insensitive():
    a = parse_entry("t^2+2*t+1", 0, T)
    b = parse_entry("  t^2 + 2 * t + 1 ", 0, T)
    assert a == b


def test_exponent_binds_tighter_than_product():
    assert parse_entry("2*t^2", 0, T).num == MultiPoly(0, 1, {(2,): 2})
    assert parse_entry("(2*t)^2", 0, T).num == MultiPoly(0, 1, {(2,): 4})


def test_parse_errors_carry_byte_offsets():
    cases = [
        ("", "expected a value", 0),
        ("q + 1", "unknown variable 'q'", 0),
        ("1/0", "zero denominator", 1),
        ("t^x", "expected integer exponent", 2),
        ("(t + 1", "expected ')'", 6),
        ("t) ", "trailing input", 1),
        ("2 + + 3", "expected a value", 4),
        ("t $ 2", "unexpected character", 2),
        ("3 t", "trailing input", 2),
    ]
    for text, message, offset in cases:
        with pytest.raises(EntryParseError) as err:
            parse_entry(text, 0, T)
        assert err.value.offset == offset
        assert message in str(err.value)


def test_render_parse_round_trip():
    rng = random.Random(71)
    for _ in range(120):
        char = rng.choice((0, 2, 5))
        nvars = rng.randrange(1, 3)
        names = ("t", "u")[:nvars]
        num = MultiPoly(char, nvars, {
            tuple(rng.randrange(4) for _ in range(nvars)): rng.randrange(-5, 6) or 1
            for _ in range(rng.randrange(1, 4))
        })
        den = MultiPoly(char, nvars, {
            tuple(rng.randrange(3) for _ in range(nvars)): rng.randrange(-5, 6) or 1
            for _ in range(rng.randrange(1, 3))
        })
        if den.is_zero():
            continue
        r = RatFunc(num, den)
        assert parse_entry(r.render(names), char, names) == r


def test_nesting_limit_reports_the_opening_parenthesis():
    from finquot.parsing import MAX_NESTING

    deepest = "(" * MAX_NESTING + "t + 1" + ")" * MAX_NESTING
    assert parse_entry(deepest, 0, T) == parse_entry("t + 1", 0, T)
    text = "1 + " + "(" * (MAX_NESTING + 1) + "t" + ")" * (MAX_NESTING + 1)
    with pytest.raises(EntryParseError, match=f"nested deeper than {MAX_NESTING}") as info:
        parse_entry(text, 0, T)
    assert info.value.offset == 4 + MAX_NESTING
    assert text[info.value.offset] == "("
