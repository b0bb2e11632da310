"""The per-call hom memo and the ball without backtracking, each against the
code it replaced: the torus key against brute force over all diagonal
conjugators, the memoized profile against a fresh separate per element and a
stabilizer chain per scan hom, the irreducible prefix against
enumerate_irreducibles, and ball_enumerate against the loop that also tries
the inverse of the last letter."""

from __future__ import annotations

import itertools
import random

import pytest
from test_kernel import _heisenberg

import finquot.profiler
import finquot.unipoly
import finquot.witness
from finquot.errors import BudgetExceeded
from finquot.fields import finite_field
from finquot.groups import NAMED_GROUPS, BallElement, GroupSpec, Word, ball_enumerate, inverse_label, sanov_group
from finquot.multipoly import MultiPoly
from finquot.profiler import ReductionBudget, ReductionScanner, farb_profile
from finquot.ratfunc import FieldMatrix, RatFunc
from finquot.unipoly import enumerate_irreducibles
from finquot.witness import (
    FieldHom,
    HomMemo,
    gl_order_bound,
    image_order,
    separate,
    stabilizer_chain_order,
    torus_key,
)

FIELDS_UP_TO_9 = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def _field(p, degree):
    return finite_field(p, None if degree == 1 else next(enumerate_irreducibles(p, degree)))


def _conjugate(field, d, g, m):
    """D g D^-1 for D = diag(d), entrywise d_i g_ij d_j^-1."""
    d_inv = [field.inv(v) for v in d]
    return tuple(field.mul(field.mul(d[i], g[i * m + j]), d_inv[j]) for i in range(m) for j in range(m))


def _orbit(field, base, m):
    units = range(1, field.q)
    return {tuple(_conjugate(field, d, g, m) for g in base) for d in itertools.product(units, repeat=m)}


@pytest.mark.parametrize("p,degree", FIELDS_UP_TO_9)
@pytest.mark.parametrize("ngens", [1, 2])
def test_torus_key_is_a_complete_invariant_for_m_2(p, degree, ngens):
    # on a set closed under diagonal conjugation, the key classes are exactly
    # the orbits: constant on each orbit, different across orbits
    field = _field(p, degree)
    q = field.q
    rng = random.Random(q * 10 + ngens)
    diagonals = [tuple(rng.randrange(q) for _ in range(2 * ngens)) for _ in range(3 - ngens)]
    for diag in diagonals:
        tuples = []
        for off in itertools.product(range(q), repeat=2 * ngens):
            tuples.append(tuple(
                (diag[2 * k], off[2 * k], off[2 * k + 1], diag[2 * k + 1]) for k in range(ngens)
            ))
        orbit_of = {}
        for base in tuples:
            if base not in orbit_of:
                orbit = frozenset(_orbit(field, base, 2))
                orbit_of.update((member, orbit) for member in orbit)
        keys = {}
        for base in tuples:
            keys.setdefault(torus_key(base, field, 2), set()).add(base)
        assert {frozenset(cls) for cls in keys.values()} == set(orbit_of.values())


def _det3(g, p):
    a, b, c, d, e, f, h, i, j = g
    return (a * (e * j - f * i) - b * (d * j - f * h) + c * (d * i - e * h)) % p


def _random_gl3(rng, field):
    while True:
        g = tuple(rng.choice((0, 0, *range(field.q))) for _ in range(9))
        if _det3(g, field.p):
            return g


def _inverse(field, g, m):
    """g^-1 as the last power before the identity."""
    mul, ident = field.product(m), field.identity(m)
    prev, cur = ident, g
    while cur != ident:
        prev, cur = cur, mul(cur, g)
    return prev


@pytest.mark.parametrize("p", [2, 3])
def test_torus_key_and_chain_order_agree_across_conjugates_for_m_3(p):
    field = finite_field(p, None)
    rng = random.Random(p)
    for _ in range(12):
        base = [_random_gl3(rng, field) for _ in range(rng.choice((1, 2)))]
        pairs = [(g, _inverse(field, g, 3)) for g in base]
        key = torus_key(base, field, 3)
        order = stabilizer_chain_order(pairs, field, 3, 10**6)
        assert order[1]
        for _ in range(4):
            d = tuple(rng.randrange(1, p) for _ in range(3))
            conj = [_conjugate(field, d, g, 3) for g in base]
            conj_pairs = [(_conjugate(field, d, g, 3), _conjugate(field, d, h, 3)) for g, h in pairs]
            assert torus_key(conj, field, 3) == key
            assert stabilizer_chain_order(conj_pairs, field, 3, 10**6) == order


def _chain_order(spec, images, field, budget):
    """image_order before the memo: one stabilizer chain on the images."""
    pairs = [(images[label], images[inverse_label(label)]) for label in spec.base_labels]
    order, exact = stabilizer_chain_order(pairs, field, spec.size, budget)
    return (order, True) if exact else (gl_order_bound(field.q, spec.size), False)


# the 3 x 3 Heisenberg scan stops at 13: each oracle chain there is a generic 3 x 3 product
PROFILE_CASES = {
    "sanov": (NAMED_GROUPS["sanov"], 3, ReductionBudget()),
    "sanov_f3": (NAMED_GROUPS["sanov_f3"], 6, ReductionBudget()),
    "cyclic": (NAMED_GROUPS["cyclic"], 8, ReductionBudget()),
    "heisenberg": (_heisenberg, 3, ReductionBudget(max_prime=13)),
}


@pytest.mark.parametrize("case", PROFILE_CASES)
def test_memoized_profile_matches_fresh_separate(case, monkeypatch):
    make, radius, budget = PROFILE_CASES[case]
    spec = make()
    records = {}
    scanners = []
    real_separate, real_scanner = finquot.profiler.separate, finquot.profiler.ReductionScanner

    def recording_separate(spec, word, **kwargs):
        assert kwargs["memo"] is not None
        rec = real_separate(spec, word, **kwargs)
        records[word] = rec
        return rec

    def recording_scanner(*args):
        scanners.append(real_scanner(*args))
        return scanners[-1]

    monkeypatch.setattr(finquot.profiler, "separate", recording_separate)
    monkeypatch.setattr(finquot.profiler, "ReductionScanner", recording_scanner)
    farb_profile(spec, radius, budget)
    monkeypatch.undo()

    ball = ball_enumerate(spec, radius)
    assert list(records) == [el.word for el in ball]
    for el in ball:
        rec = records[el.word]
        fresh = separate(spec, el.word, order_budget=budget.order_budget)
        assert (rec.hom, rec.image_order, rec.image_order_exact) == (
            fresh.hom, fresh.image_order, fresh.image_order_exact
        )
        oracle = _chain_order(spec, rec.hom.generator_images(spec), rec.hom.field, budget.order_budget)
        assert (rec.image_order, rec.image_order_exact) == oracle
    [scanner] = scanners
    for scan in scanner.homs:
        order, exact = _chain_order(spec, scan.images, scan.field, budget.order_budget)
        assert scan.order == (order if exact else None), scan.label


def test_scanner_without_memo_matches_one_chain_per_hom(sanov):
    budget = ReductionBudget(max_prime=7)
    scanner = ReductionScanner(sanov, budget)
    shared = ReductionScanner(sanov, budget, HomMemo(sanov, budget.order_budget))
    assert [(h.label, h.order) for h in scanner.homs] == [(h.label, h.order) for h in shared.homs]
    for scan in scanner.homs:
        order, exact = _chain_order(sanov, scan.images, scan.field, budget.order_budget)
        assert scan.order == (order if exact else None)


def test_memo_refuses_another_spec_or_budget(sanov, sanov3):
    memo = HomMemo(sanov, 1000)
    with pytest.raises(ValueError, match="memo is bound to another spec or order budget"):
        separate(sanov3, sanov3.word("a b"), order_budget=1000, memo=memo)
    with pytest.raises(ValueError, match="memo is bound to another spec or order budget"):
        ReductionScanner(sanov, ReductionBudget(order_budget=999), memo)
    with pytest.raises(ValueError, match="memo is bound to another spec or order budget"):
        image_order(sanov, FieldHom(5, None, (1,), ()), 999, memo)
    rec = separate(sanov, sanov.word("a b"), order_budget=1000, memo=memo)
    assert (rec.image_order, rec.image_order_exact) == image_order(sanov, rec.hom, 1000)


def test_memo_keeps_fields_apart(sanov3):
    # t -> 8 in F_9 and t -> 10 in F_27 have equal torus keys as integers, but
    # the first image has order 120 (SL(2, 5)) and the second is SL(2, 27)
    f9, f27 = (next(enumerate_irreducibles(3, degree)) for degree in (2, 3))
    homs = [FieldHom(3, f9, (8,), ()), FieldHom(3, f27, (10,), ())]
    for order in (homs, homs[::-1]):
        memo = HomMemo(sanov3, 200_000)
        keys = {torus_key([memo.images(h)[l] for l in sanov3.base_labels], h.field, 2) for h in order}
        assert len(keys) == 1
        assert [memo.order(h) for h in order] == [image_order(sanov3, h, 200_000) for h in order]
    assert [image_order(sanov3, h, 200_000) for h in homs] == [(120, True), (19656, True)]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_irreducible_prefix_under_interleaved_reads(p, ell, monkeypatch):
    want = list(enumerate_irreducibles(p, ell))
    tests = []
    real = finquot.unipoly.is_irreducible

    def counting(f):
        tests.append(f)
        return real(f)

    monkeypatch.setattr(finquot.unipoly, "is_irreducible", counting)
    memo = HomMemo(sanov_group(p), None)
    first, second = memo.irreducibles(p, ell), memo.irreducibles(p, ell)
    got_first = list(itertools.islice(first, 2))
    got_second = list(itertools.islice(second, 3))
    got_first += list(itertools.islice(first, 1))
    # a reader that stops early leaves the rest for the next one
    assert list(itertools.islice(memo.irreducibles(p, ell), 1)) == want[:1]
    got_second += list(second)
    got_first += list(first)
    assert got_first == want and got_second == want
    assert list(memo.irreducibles(p, ell)) == want
    # one Rabin test per candidate: every monic of degree ell
    assert len(tests) == len(set(tests)) == p**ell


def test_irreducible_prefix_refuses_past_the_budget_on_every_read():
    memo = HomMemo(sanov_group(2), None)
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            next(memo.irreducibles(2, 21))


def test_profile_charp_witness_tests_each_candidate_once(sanov3, monkeypatch):
    tests = []
    real = finquot.unipoly.is_irreducible

    def counting(f):
        tests.append(f)
        return real(f)

    monkeypatch.setattr(finquot.unipoly, "is_irreducible", counting)
    farb_profile(sanov3, 6)
    assert tests and len(tests) == len(set(tests))


def _ball_with_backtracking(spec, n, budget):
    """ball_enumerate before it skipped the inverse of the last letter."""
    labels = sorted(spec.generators)
    ident = spec.identity()
    seen = {ident}
    out = []
    frontier = [((), ident)]
    for _ in range(n):
        nxt = []
        for letters, mat in frontier:
            for label in labels:
                cand = mat * spec.generators[label]
                if cand in seen:
                    continue
                seen.add(cand)
                if len(seen) - 1 > budget:
                    raise BudgetExceeded(
                        f"ball enumeration exceeded budget {budget} (radius {n}, {len(out)} elements found)",
                        required=len(seen) - 1,
                    )
                nxt.append(((*letters, label), cand))
                out.append(BallElement(Word((*letters, label)), cand))
        frontier = nxt
        if not frontier:
            break
    out.sort(key=lambda el: (el.word.length, el.matrix.render(spec.variables)))
    return out


def _three_by_three():
    """a upper unipotent in t, b lower unipotent, c diagonal with 1/t: over Q(t)."""
    x = MultiPoly.variable(0, 1, 0)
    t, t_inv = RatFunc.of_poly(x), RatFunc(MultiPoly.const(0, 1, 1), x)
    one, zero = RatFunc.const(0, 1, 1), RatFunc.const(0, 1, 0)
    a = FieldMatrix(((one, t, zero), (zero, one, one), (zero, zero, one)))
    b = FieldMatrix(((one, zero, zero), (zero, one, zero), (t, zero, one)))
    c = FieldMatrix(((t, zero, zero), (zero, one, zero), (zero, zero, t_inv)))
    return GroupSpec(0, ("t",), {"a": a, "b": b, "c": c})


BALL_CASES = {
    "sanov": (NAMED_GROUPS["sanov"], 5),
    "sanov_f3": (NAMED_GROUPS["sanov_f3"], 7),
    "cyclic": (NAMED_GROUPS["cyclic"], 12),
    "diagonal": (NAMED_GROUPS["diagonal"], 12),
    "three_by_three": (_three_by_three, 3),
}


@pytest.mark.parametrize("case", BALL_CASES)
def test_ball_without_backtracking_matches_the_backtracking_loop(case):
    make, radius = BALL_CASES[case]
    spec = make()
    new = ball_enumerate(spec, radius)
    old = _ball_with_backtracking(spec, radius, 200_000)
    assert [(el.word, el.matrix) for el in new] == [(el.word, el.matrix) for el in old]


@pytest.mark.parametrize("case", BALL_CASES)
def test_ball_budget_miss_unchanged(case):
    make, radius = BALL_CASES[case]
    spec = make()
    budget = len(ball_enumerate(spec, radius)) - 1
    with pytest.raises(BudgetExceeded) as new:
        ball_enumerate(spec, radius, budget)
    with pytest.raises(BudgetExceeded) as old:
        _ball_with_backtracking(spec, radius, budget)
    assert (str(new.value), new.value.required) == (str(old.value), old.value.required)


@pytest.mark.parametrize("case", ["sanov", "sanov_f3"])
def test_no_state_survives_a_profile_call(case, monkeypatch):
    make, radius, budget = PROFILE_CASES[case]
    spec = make()
    chains = []
    real = finquot.witness.stabilizer_chain_order

    def counting(*args):
        chains.append(args)
        return real(*args)

    monkeypatch.setattr(finquot.witness, "stabilizer_chain_order", counting)
    first = farb_profile(spec, radius, budget)
    runs = len(chains)
    second = farb_profile(spec, radius, budget)
    assert runs > 0
    assert len(chains) == 2 * runs
    assert first == second
