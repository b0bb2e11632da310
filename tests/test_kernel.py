"""The unrolled 2x2 field kernel and the closure built on it, checked
against the generic Field.mat_mul they replace."""

from __future__ import annotations

import random

import pytest

from finquot.algebra import is_prime
from finquot.fields import finite_field
from finquot.groups import GroupSpec
from finquot.multipoly import MultiPoly
from finquot.ratfunc import FieldMatrix, RatFunc
from finquot.unipoly import enumerate_irreducibles
from finquot.witness import FieldHom, closure_order, image_order, separate, verify_witness


def _field(p: int, degree: int = 1):
    if degree == 1:
        return finite_field(p, None)
    return finite_field(p, next(iter(enumerate_irreducibles(p, degree))))


# Every field the default reduction scanners use: primes up to 31 for char 0,
# F_3^j (j <= 3) for sanov_f3, plus F_4 and F_8.
FIELDS = [(p, 1) for p in range(2, 32) if is_prime(p)] + [(3, 2), (3, 3), (2, 2), (2, 3)]


def _reference_closure(gens, field, m, budget):
    ident = field.identity(m)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for elem in frontier:
            for g in gens:
                cand = field.mat_mul(elem, g, m)
                if cand not in seen:
                    seen.add(cand)
                    if len(seen) > budget:
                        return len(seen), False
                    nxt.append(cand)
        frontier = nxt
    return len(seen), True


@pytest.mark.parametrize("p,degree", FIELDS)
def test_kernel_matches_mat_mul(p, degree):
    field = _field(p, degree)
    assert field.q == p**degree
    rng = random.Random(field.q)
    for _ in range(300):
        a = tuple(rng.randrange(field.q) for _ in range(4))
        b = tuple(rng.randrange(field.q) for _ in range(4))
        assert field.product(2)(a, b) == field.mat_mul(a, b, 2)


@pytest.mark.parametrize("p,degree", [(2, 1), (7, 1), (31, 1), (2, 2), (3, 2), (3, 3)])
def test_closure_matches_reference(p, degree):
    # opposite unipotents with parameter c: SL(2, F_p(c^2)) or a subgroup
    field = _field(p, degree)
    c = field.q - 1
    gens = [(1, c, 0, 1), (1, 0, c, 1)]
    got = closure_order(gens, field, 2, 200_000)
    assert got == _reference_closure(gens, field, 2, 200_000)
    assert got[1]


def test_closure_budget_cut_matches_reference():
    field = _field(31)
    gens = [(1, 1, 0, 1), (1, 0, 1, 1)]
    got = closure_order(gens, field, 2, 1000)
    assert got == _reference_closure(gens, field, 2, 1000) == (1001, False)
    field27 = _field(3, 3)
    gens27 = [(1, 3, 0, 1), (1, 0, 3, 1)]
    got = closure_order(gens27, field27, 2, 5000)
    assert got == _reference_closure(gens27, field27, 2, 5000) == (5001, False)


def test_closure_3x3_matches_reference():
    field = _field(3)
    gens = [(1, 1, 0, 0, 1, 0, 0, 0, 1), (1, 0, 0, 0, 1, 1, 0, 0, 1), (2, 0, 0, 0, 1, 0, 0, 0, 1)]
    got = closure_order(gens, field, 3, 10_000)
    assert got == _reference_closure(gens, field, 3, 10_000) == (54, True)


def test_default_scanner_totals(sanov_scanner, sanov3_scanner):
    assert len(sanov_scanner.homs) == 160
    assert sum(h.order for h in sanov_scanner.homs) == 2_085_473
    assert len(sanov3_scanner.homs) == 14
    assert sum(h.order for h in sanov3_scanner.homs) == 157_561


def _heisenberg():
    t = RatFunc.of_poly(MultiPoly.variable(0, 1, 0))
    one, zero = RatFunc.const(0, 1, 1), RatFunc.const(0, 1, 0)
    x = FieldMatrix(((one, t, zero), (zero, one, zero), (zero, zero, one)))
    y = FieldMatrix(((one, zero, zero), (zero, one, t), (zero, zero, one)))
    return GroupSpec(0, ("t",), {"x": x, "y": y})


def test_heisenberg_commutator_through_generic_path():
    spec = _heisenberg()
    assert spec.size == 3
    rec = separate(spec, spec.word("x y x^-1 y^-1"), order_budget=10_000)
    assert rec.field_size == 2
    assert rec.entry == (0, 2)
    assert (rec.image_order, rec.image_order_exact) == (8, True)
    assert verify_witness(spec, rec) == (True, "ok")
    assert image_order(spec, rec.hom) == (8, True)
    assert image_order(spec, FieldHom(3, None, (1,), (1,))) == (27, True)
