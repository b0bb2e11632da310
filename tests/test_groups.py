from __future__ import annotations

import random

import pytest

from finquot.errors import BudgetExceeded
from finquot.groups import (
    NAMED_GROUPS,
    GroupSpec,
    ball_enumerate,
    compute_phi,
    scaled_difference,
    word_evaluate,
)
from finquot.multipoly import MultiPoly
from finquot.ratfunc import FieldMatrix, RatFunc
from finquot.serialize import spec_from_data


def test_word_parsing(sanov):
    w = sanov.word("a b^-1 a^2")
    assert w.letters == ("a", "b^-1", "a", "a")
    assert w.length == 4
    assert w.render() == "a b^-1 a a"
    assert sanov.word("a^-2").letters == ("a^-1", "a^-1")


def test_word_parsing_errors(sanov):
    with pytest.raises(ValueError):
        sanov.word("c")
    with pytest.raises(ValueError):
        sanov.word("")
    with pytest.raises(ValueError):
        sanov.word("a^0")


def test_generator_inverses_present(sanov, sanov3, cyclic, diagonal):
    for spec in (sanov, sanov3, cyclic, diagonal):
        for label, mat in spec.generators.items():
            if label.endswith("^-1"):
                continue
            inv = spec.generators[label + "^-1"]
            assert (mat * inv).is_identity()
        # each label is inserted just before its inverse
        labels = list(spec.generators)
        assert labels[1::2] == [label + "^-1" for label in labels[0::2]]


@pytest.mark.parametrize("char", [4, 1, -3, False, True])
def test_group_spec_refuses_bad_characteristic(char):
    one = MultiPoly.const(0, 0, 1)
    with pytest.raises(ValueError, match="^characteristic must be 0 or a prime$"):
        GroupSpec(char, (), {"a": FieldMatrix(((RatFunc.of_poly(one),),))})


def test_group_spec_refuses_singular_generator():
    one, zero = (RatFunc.const(0, 0, c) for c in (1, 0))
    generators = {"a": FieldMatrix(((one, one), (zero, one))), "b": FieldMatrix(((one, one), (zero, zero)))}
    with pytest.raises(ValueError, match="^generator 'b' is singular$"):
        GroupSpec(0, (), generators)


def test_group_spec_refusals():
    one1, one0 = RatFunc.const(0, 1, 1), RatFunc.const(0, 0, 1)
    one3 = RatFunc.const(3, 0, 1)
    with pytest.raises(ValueError, match="^at least one generator required$"):
        GroupSpec(0, (), {})
    with pytest.raises(ValueError, match="^generators must share one size$"):
        GroupSpec(0, (), {"a": FieldMatrix(((one0,),)), "b": FieldMatrix.identity(0, 0, 2)})
    with pytest.raises(ValueError, match="^bad generator label '2a'$"):
        GroupSpec(0, (), {"2a": FieldMatrix(((one0,),))})
    with pytest.raises(ValueError, match="^generator 'a' has wrong coefficient domain$"):
        GroupSpec(0, ("t",), {"a": FieldMatrix(((one0,),))})
    with pytest.raises(ValueError, match="^generator 'b' has wrong coefficient domain$"):
        GroupSpec(0, ("t",), {"a": FieldMatrix(((one1,),)), "b": FieldMatrix(((one3,),))})


def test_word_evaluate_sanov(sanov):
    m = word_evaluate(sanov, sanov.word("a b"))
    names = sanov.variables
    assert [[c.render(names) for c in row] for row in m.rows] == [
        ["t^2 + 1", "t"],
        ["t", "1"],
    ]
    assert word_evaluate(sanov, sanov.word("a a^-1")).is_identity()


def test_word_evaluate_is_multiplicative(sanov):
    rng = random.Random(47)
    letters = [l for l in sanov.generators]
    for _ in range(20):
        u = [rng.choice(letters) for _ in range(rng.randrange(1, 5))]
        v = [rng.choice(letters) for _ in range(rng.randrange(1, 5))]
        mu = word_evaluate(sanov, sanov.word(" ".join(u)))
        mv = word_evaluate(sanov, sanov.word(" ".join(v)))
        muv = word_evaluate(sanov, sanov.word(" ".join(u + v)))
        assert mu * mv == muv


def test_compute_phi_polynomial_entries():
    t = MultiPoly.variable(0, 1, 0)
    one = MultiPoly.const(0, 1, 1)
    P = RatFunc.of_poly
    mat = FieldMatrix(((P(t), P(one)), (P(one), P(one))))
    phi, excluded = compute_phi([mat], 0, 1)
    assert phi == one
    assert excluded == frozenset()


def test_compute_phi_rational_entries():
    t = MultiPoly.variable(0, 1, 0)
    one = MultiPoly.const(0, 1, 1)
    two = MultiPoly.const(0, 1, 2)
    P = RatFunc.of_poly
    m = FieldMatrix(((RatFunc(one, t), P(one)), (P(one), P(one))))
    phi, excluded = compute_phi([m], 0, 1)
    assert phi == t
    assert excluded == frozenset()
    m2 = FieldMatrix(((RatFunc(t, two), P(one)), (P(one), P(one))))
    phi2, excluded2 = compute_phi([m2], 0, 1)
    assert phi2 == two
    assert excluded2 == frozenset({2})


def test_scaled_difference_identity_word_is_zero(sanov):
    sd = scaled_difference(sanov, sanov.word("a a^-1"))
    assert all(c.is_zero() for row in sd for c in row)


def test_scaled_difference_equals_difference_when_phi_is_one(sanov):
    # sanov has polynomial generators, so phi = 1 and the scaling is trivial
    assert sanov.phi == MultiPoly.const(0, 1, 1)
    w = sanov.word("a b")
    sd = scaled_difference(sanov, w)
    m = word_evaluate(sanov, w)
    for i in range(2):
        for j in range(2):
            want = m.rows[i][j].num
            if i == j:
                want = want - MultiPoly.const(0, 1, 1)
            assert sd[i][j] == want


def test_scaled_difference_diagonal(diagonal):
    sd = scaled_difference(diagonal, diagonal.word("a"))
    names = diagonal.variables
    assert [[c.render(names) for c in row] for row in sd] == [
        ["t^2 - t", "0"],
        ["0", "-t + 1"],
    ]


def _scaled_difference_by_ratfunc(spec, word, gamma):
    """phi^len(w) * (gamma - I) in RatFunc arithmetic, each entry reduced to
    a fraction with denominator 1: the reference for scaled_difference."""
    scale = RatFunc.of_poly(spec.phi**word.length)
    one = RatFunc.const(spec.char, spec.nvars, 1)
    out = []
    for i, row in enumerate(gamma.rows):
        cells = []
        for j, entry in enumerate(row):
            cell = scale * (entry - one if i == j else entry)
            assert cell.den == MultiPoly.const(spec.char, spec.nvars, 1)
            cells.append(cell.num)
        out.append(tuple(cells))
    return tuple(out)


def _assert_routes_agree(spec, word, gamma=None):
    if gamma is None:
        gamma = word_evaluate(spec, word)
    assert scaled_difference(spec, word, gamma) == _scaled_difference_by_ratfunc(spec, word, gamma)


@pytest.mark.parametrize("name,radius", [(name, 4) for name in sorted(NAMED_GROUPS)] + [("diagonal", 6)])
def test_scaled_difference_matches_ratfunc_route_over_ball(name, radius):
    spec = NAMED_GROUPS[name]()
    ball = ball_enumerate(spec, radius)
    if name == "diagonal":
        assert sum(1 for el in ball if el.word.letters[0] == "a^-1") == radius
    for el in ball:
        _assert_routes_agree(spec, el.word, el.matrix)


@pytest.mark.parametrize("text", ["a^2520", "a^-2520"])
def test_scaled_difference_matches_ratfunc_route_long_power(diagonal, text):
    _assert_routes_agree(diagonal, diagonal.word(text))


@pytest.mark.parametrize(
    "data",
    [
        {
            "characteristic": 0,
            "variables": ["t", "u"],
            "generators": {"a": [["1", "1/(t+u)"], ["0", "1"]], "b": [["u", "1"], ["0", "t"]]},
        },
        {
            "characteristic": 3,
            "variables": ["t"],
            "generators": {"a": [["1", "1/t"], ["0", "1"]], "b": [["1", "0"], ["t", "1"]]},
        },
    ],
    ids=["Q(t,u)", "F3(t)"],
)
def test_scaled_difference_matches_ratfunc_route_with_denominators(data):
    spec, _ = spec_from_data(data)
    assert not spec.phi.is_const()
    for el in ball_enumerate(spec, 3):
        _assert_routes_agree(spec, el.word, el.matrix)


def test_scaled_difference_refuses_uncleared_denominator(sanov):
    # sanov has phi = 1, so an entry 1/t cannot clear
    t = MultiPoly.variable(0, 1, 0)
    one = MultiPoly.const(0, 1, 1)
    P = RatFunc.of_poly
    gamma = FieldMatrix(((P(one), RatFunc(one, t)), (P(t), P(one))))
    with pytest.raises(ValueError):
        scaled_difference(sanov, sanov.word("a"), gamma)


def test_ball_sizes_free_group(sanov):
    # B(n) in the rank-2 free group has 2 * (3^n - 1) nontrivial elements
    assert len(ball_enumerate(sanov, 1)) == 4
    assert len(ball_enumerate(sanov, 2)) == 16
    assert len(ball_enumerate(sanov, 3)) == 52


def test_ball_sizes_char3(sanov3):
    # free product Z/3 * Z/3: 2^(n+2) - 4 nontrivial elements up to radius n
    for n in range(1, 5):
        assert len(ball_enumerate(sanov3, n)) == 2 ** (n + 2) - 4


def test_ball_sizes_cyclic(cyclic):
    assert len(ball_enumerate(cyclic, 3)) == 6
    assert len(ball_enumerate(cyclic, 10)) == 20


def test_ball_elements_are_distinct_and_sorted(sanov3):
    ball = ball_enumerate(sanov3, 4)
    names = sanov3.variables
    seen = {e.matrix.render(names) for e in ball}
    assert len(seen) == len(ball)
    lengths = [e.word.length for e in ball]
    assert lengths == sorted(lengths)
    assert all(not e.matrix.is_identity() for e in ball)
    for e in ball:
        assert word_evaluate(sanov3, e.word) == e.matrix


def test_ball_words_are_geodesic(sanov):
    # every representative has minimal length: nothing of length < k collides
    by_matrix = {}
    for e in ball_enumerate(sanov, 4):
        key = e.matrix.render(sanov.variables)
        assert key not in by_matrix
        by_matrix[key] = e.word.length


def test_ball_budget():
    from finquot.groups import sanov_group

    with pytest.raises(BudgetExceeded):
        ball_enumerate(sanov_group(0), 8, budget=100)


def test_ball_rejects_bad_radius(sanov):
    with pytest.raises(ValueError):
        ball_enumerate(sanov, 0)
