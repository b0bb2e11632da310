"""The unrolled 2x2 field kernel, checked against the generic Field.mat_mul
it replaces, and the stabilizer-chain image order on lines, checked against
the element closure and against the chain on vectors that it replaces."""

from __future__ import annotations

import random

import pytest

from finquot.algebra import is_prime
from finquot.fields import finite_field
from finquot.groups import GroupSpec, inverse_label
from finquot.multipoly import MultiPoly
from finquot.ratfunc import FieldMatrix, RatFunc
from finquot.unipoly import enumerate_irreducibles
from finquot.witness import (
    ORDER_BUDGET,
    FieldHom,
    image_order,
    separate,
    stabilizer_chain_order,
    verify_witness,
)


def _field(p: int, degree: int = 1):
    if degree == 1:
        return finite_field(p, None)
    return finite_field(p, next(iter(enumerate_irreducibles(p, degree))))


# Every field the default reduction scanners use: primes up to 31 for char 0,
# F_3^j (j <= 3) for sanov_f3, plus F_4 and F_8.
FIELDS = [(p, 1) for p in range(2, 32) if is_prime(p)] + [(3, 2), (3, 3), (2, 2), (2, 3)]


def _neg(field, c):
    """-c, as c times the element -1, which p - 1 encodes in both encodings."""
    return field.mul(field.p - 1, c)


def closure_order(gens, field, m, budget):
    """Size of the generated group by breadth-first closure under the generators;
    the oracle for stabilizer_chain_order, exact iff the size is at most budget."""
    mul = field.product(m)
    ident = field.identity(m)
    seen = {ident}
    mark = seen.add
    frontier = [ident]
    while frontier:
        nxt = []
        push = nxt.append
        for elem in frontier:
            for g in gens:
                cand = mul(elem, g)
                if cand not in seen:
                    mark(cand)
                    if len(seen) > budget:
                        return len(seen), False
                    push(cand)
        frontier = nxt
    return len(seen), True


def vector_chain_order(pairs, field, m, budget):
    """The Schreier-Sims chain on row vectors with the base e_0, ..., e_{m-1}:
    the second oracle for stabilizer_chain_order, which acts on lines."""
    mul = field.product(m)
    ident = field.identity(m)
    base = [ident[k * m:(k + 1) * m] for k in range(m)]
    strong = [list(pairs)] + [[] for _ in range(m - 1)]
    trans = [{base[k]: (ident, ident)} for k in range(m)]
    orbits = [[base[k]] for k in range(m)]
    paired = [[0] for _ in range(m)]
    size = 1

    def sift(h, k):
        used = []
        for j in range(k, m):
            point = h[j * m:(j + 1) * m]
            if point == base[j]:
                continue
            entry = trans[j].get(point)
            if entry is None:
                return h, j, used
            if j < m - 1:
                h = mul(h, entry[1])
                used.append(entry[0])
        return h, m, used

    def complete(k):
        nonlocal size
        gens, table, orbit, done = strong[k], trans[k], orbits[k], paired[k]
        i = 0
        while i < len(orbit):
            u, u_inv = table[orbit[i]]
            while done[i] < len(gens):
                s, s_inv = gens[done[i]]
                done[i] += 1
                us = mul(u, s)
                point = us[k * m:(k + 1) * m]
                entry = table.get(point)
                if entry is None:
                    table[point] = (us, mul(s_inv, u_inv))
                    orbit.append(point)
                    done.append(0)
                    size = size // (len(orbit) - 1) * len(orbit)
                    if size > budget:
                        return False
                    continue
                if k == m - 1:
                    continue
                h, j, used = sift(mul(us, entry[1]), k + 1)
                if j == m:
                    continue
                h_inv = mul(entry[0], mul(s_inv, u_inv))
                for v in used:
                    h_inv = mul(v, h_inv)
                for level in range(k + 1, j + 1):
                    strong[level].append((h, h_inv))
                for level in range(j, k, -1):
                    if not complete(level):
                        return False
            i += 1
        return True

    exact = complete(0)
    return size, exact


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


def _elementary(rng, field, m, upper):
    """A random elementary matrix and its inverse: a diagonal scaling or a row
    addition, the latter above the diagonal when upper."""
    cells, inv = list(field.identity(m)), list(field.identity(m))
    i = rng.randrange(m - 1 if upper else m)
    if rng.random() < 0.3:
        a = rng.randrange(1, field.q)
        cells[i * m + i], inv[i * m + i] = a, field.inv(a)
    else:
        j = rng.choice([j for j in range(m) if (j > i if upper else j != i)])
        c = rng.randrange(1, field.q)
        cells[i * m + j], inv[i * m + j] = c, _neg(field, c)
    return tuple(cells), tuple(inv)


def _random_pair(rng, field, m, upper=False):
    """A random invertible (upper triangular when upper) matrix and its inverse."""
    mul = field.product(m)
    g = g_inv = field.identity(m)
    for _ in range(3 * m):
        e, e_inv = _elementary(rng, field, m, upper)
        g, g_inv = mul(g, e), mul(e_inv, g_inv)
    return g, g_inv


def _generator_sets(field, m):
    """Seeded (g, g^-1) generator lists: a cyclic group, a triangular group, an
    m-specific family, and two random generators where the closure stays cheap."""
    rng = random.Random(10 * field.q + m)
    sets = [[_random_pair(rng, field, m)], [_random_pair(rng, field, m, upper=True) for _ in range(2)]]
    if m == 2:
        c = rng.randrange(1, field.q)
        minus = _neg(field, c)
        sets.append([((1, c, 0, 1), (1, minus, 0, 1)), ((1, 0, c, 1), (1, 0, minus, 1))])
    else:
        shift = tuple(int(j == (i + 1) % m) for i in range(m) for j in range(m))
        unshift = tuple(int(i == (j + 1) % m) for i in range(m) for j in range(m))
        a = min(2, field.q - 1)
        scale = (a,) + field.identity(m)[1:]
        sets.append([(shift, unshift), (scale, (field.inv(a),) + scale[1:])])
    if field.q ** (m * m) <= 10**6:
        sets.append([_random_pair(rng, field, m) for _ in range(2)])
    return sets


@pytest.mark.parametrize(
    "p,degree,m", [(p, degree, 2) for p, degree in FIELDS] + [(2, 1, 3), (3, 1, 3), (5, 1, 3)]
)
def test_stabilizer_chain_matches_closure(p, degree, m):
    field = _field(p, degree)
    mul, ident = field.product(m), field.identity(m)
    for pairs in _generator_sets(field, m):
        assert all(mul(g, g_inv) == ident for g, g_inv in pairs)
        order, exact = closure_order([g for g, _ in pairs], field, m, ORDER_BUDGET)
        got = stabilizer_chain_order(pairs, field, m, ORDER_BUDGET)
        assert got[1] == exact
        if not exact:
            assert got[0] > ORDER_BUDGET
            continue
        assert got == (order, True)
        assert stabilizer_chain_order(pairs, field, m, order) == (order, True)
        if order > 1:
            lower, flag = stabilizer_chain_order(pairs, field, m, order - 1)
            assert not flag and lower == order


def _check_against_vector_chain(pairs, field, m):
    """Both chains give the same order and flag at ORDER_BUDGET, and at budget
    order - 1 the line chain stops at exactly the order."""
    order, exact = vector_chain_order(pairs, field, m, ORDER_BUDGET)
    got = stabilizer_chain_order(pairs, field, m, ORDER_BUDGET)
    assert got[1] == exact
    if not exact:
        assert got[0] > ORDER_BUDGET
        return None
    assert got == (order, True)
    if order > 1:
        assert stabilizer_chain_order(pairs, field, m, order - 1) == (order, False)
    return order


@pytest.mark.parametrize(
    "p,degree,m", [(p, degree, 2) for p, degree in FIELDS] + [(2, 1, 3), (3, 1, 3), (5, 1, 3)]
)
def test_line_chain_matches_vector_chain(p, degree, m):
    field = _field(p, degree)
    for pairs in _generator_sets(field, m):
        _check_against_vector_chain(pairs, field, m)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("m", [1, 3])
def test_line_chain_on_random_pairs(p, m):
    # for m = 1 both line levels are trivial and only the level of e_0 counts
    field = _field(p)
    rng = random.Random(100 * p + m)
    for count in (1, 2, 2, 3):
        if m == 1:
            units = [rng.randrange(1, field.q) for _ in range(count)]
            pairs = [((a,), (field.inv(a),)) for a in units]
        else:
            pairs = [_random_pair(rng, field, m) for _ in range(count)]
        order = _check_against_vector_chain(pairs, field, m)
        if m == 1 or field.q ** (m * m) <= 10**6:
            assert (order, True) == closure_order([g for g, _ in pairs], field, m, ORDER_BUDGET)


def test_line_chain_on_every_scan_hom(sanov, sanov3, sanov_scanner, sanov3_scanner):
    for spec, scanner in ((sanov, sanov_scanner), (sanov3, sanov3_scanner)):
        for hom in scanner.homs:
            ims = hom.images
            pairs = [(ims[label], ims[inverse_label(label)]) for label in spec.base_labels]
            assert _check_against_vector_chain(pairs, hom.field, spec.size) == hom.order


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
