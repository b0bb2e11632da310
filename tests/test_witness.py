from __future__ import annotations

import dataclasses
import random

import pytest
import sympy

from finquot.errors import FinquotError, IdentityWordError
from finquot.fields import finite_field
from finquot.groups import GroupSpec
from finquot.multipoly import MultiPoly
from finquot.profiler import ReductionBudget
from finquot.ratfunc import FieldMatrix, RatFunc
from finquot.unipoly import UniPoly, gauss_irreducible_count
from finquot.algebra import power
from finquot.witness import (
    ORDER_BUDGET,
    FieldHom,
    _sparse_mod,
    chain_prime_bound,
    charp_witness,
    charzero_witness,
    image_order,
    polynomial_witness,
    separate,
    verify_witness,
)


def random_poly(rng, char, nvars):
    while True:
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            mono = tuple(rng.randrange(4) for _ in range(nvars))
            terms[mono] = rng.randrange(-6, 7) or 1
        f = MultiPoly(char, nvars, terms)
        if not f.is_zero():
            return f


def test_charzero_difference_of_variables():
    x1 = MultiPoly.variable(0, 2, 0)
    x2 = MultiPoly.variable(0, 2, 1)
    hom = charzero_witness(x1 - x2)
    assert hom.char == 2
    assert hom.exponents == (1, 0)
    assert hom.ell == 2
    assert hom.images == (0, 1)
    assert hom.apply(x1 - x2) != 0


def test_charzero_constant():
    hom = charzero_witness(MultiPoly.const(0, 1, 7))
    assert hom.char == 2
    assert hom.ell == 1
    assert hom.apply(MultiPoly.const(0, 1, 7)) != 0


def test_charzero_respects_excluded_primes():
    f = MultiPoly(0, 1, {(1,): 2})  # 2*x1, with 2 excluded the target is 3
    hom = charzero_witness(f, excluded=frozenset({2}))
    assert hom.char == 3
    assert hom.apply(f) == 2


def test_charzero_images_are_powers_of_ell():
    rng = random.Random(53)
    for _ in range(120):
        f = random_poly(rng, 0, rng.randrange(1, 4))
        excluded = frozenset(rng.sample([2, 3, 5], rng.randrange(2)))
        hom = charzero_witness(f, excluded)
        assert hom.char not in excluded
        assert hom.apply(f) != 0
        for img, n in zip(hom.images, hom.exponents):
            assert img == pow(hom.ell, n, hom.char)


def test_charzero_prime_within_chain_bound():
    # the target prime never exceeds the bound from the substituted values
    rng = random.Random(59)
    for _ in range(120):
        f = random_poly(rng, 0, rng.randrange(1, 3))
        hom = charzero_witness(f)
        g = f.substitute_sparse(hom.exponents)
        r, a = max(g), max(abs(c) for c in g.values())
        assert hom.char <= chain_prime_bound((r + 1) * hom.ell**r * a)


def test_charp_single_variable():
    f = MultiPoly.variable(2, 1, 0)
    hom = charp_witness(f)
    assert hom.char == 2
    assert hom.modulus.degree == 1
    assert hom.field_size == 2
    assert hom.apply(f) != 0


def test_charp_avoids_small_field_roots():
    # x1^2 + x1 kills both elements of F_2, so the witness needs F_4
    f = MultiPoly(2, 1, {(2,): 1, (1,): 1})
    hom = charp_witness(f)
    assert hom.modulus == UniPoly(2, (1, 1, 1))
    assert hom.field_size == 4
    assert hom.ell == 2
    img = hom.apply(f)
    assert hom.field.coeffs(img) == (1, 0)  # w^2 + w = 1 in F_4


def test_charp_constant():
    f = MultiPoly.const(3, 1, 2)
    hom = charp_witness(f)
    assert hom.char == 3 and hom.field_size == 3
    assert hom.field.coeffs(hom.apply(f)) == (2,)


def test_charp_degree_within_count_bound():
    # l* never exceeds the first l where irreducibles outnumber deg(g)/l
    rng = random.Random(61)
    for _ in range(80):
        p = rng.choice((2, 3, 5))
        f = random_poly(rng, p, rng.randrange(1, 3))
        hom = charp_witness(f)
        assert hom.apply(f) != 0
        g = f.substitute_sparse(hom.exponents)
        cap = 1
        while gauss_irreducible_count(p, cap) <= max(g) / cap:
            cap += 1
        assert hom.modulus.degree <= cap


def _old_sparse_mod(g, h):
    """The per-monomial UniPoly sum that _sparse_mod replaced."""
    x = UniPoly.x(h.char)
    acc = UniPoly.zero(h.char)
    for d, c in g.items():
        acc = acc + power(x % h, d, lambda a, b: a * b % h, UniPoly.const(h.char, 1)).scale(c)
    return {i: c for i, c in enumerate(acc.coeffs) if c}


def _sympy_rem(g, h):
    x = sympy.Symbol("x")
    p = h.char
    top = max(g)
    dense = [g.get(d, 0) for d in range(top, -1, -1)]
    r = sympy.rem(sympy.Poly(dense, x, modulus=p), sympy.Poly(list(reversed(h.coeffs)), x, modulus=p))
    return {i: int(c) % p for i, c in enumerate(reversed(r.all_coeffs())) if int(c) % p}


def test_sparse_mod_matches_old_sum_and_sympy():
    # seeded sparse g with up to four terms; h of degree 1..4, monic or not
    rng = random.Random(31)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            h = UniPoly(p, tuple(rng.randrange(p) for _ in range(rng.randrange(1, 5))) + (rng.randrange(1, p),))
            small = {rng.randrange(300): rng.randrange(-2 * p, 2 * p) or 1 for _ in range(rng.randrange(1, 5))}
            assert _sparse_mod(small, h) == _old_sparse_mod(small, h) == _sympy_rem(small, h), (small, h)
            big = {rng.randrange(10**6, 10**12): rng.randrange(1, p) for _ in range(rng.randrange(1, 5))}
            big[rng.randrange(7)] = rng.randrange(1, p)
            assert _sparse_mod(big, h) == _old_sparse_mod(big, h), (big, h)
    # h | g: x^2 + x = x (x + 1) over F_2
    assert _sparse_mod({2: 1, 1: 1}, UniPoly(2, (1, 1))) == {}


def test_polynomial_witness_dispatch():
    h0 = polynomial_witness(MultiPoly.variable(0, 1, 0))
    assert h0.modulus is None
    hp = polynomial_witness(MultiPoly.variable(3, 1, 0))
    assert hp.char == 3 and hp.modulus is not None
    with pytest.raises(ValueError):
        polynomial_witness(MultiPoly.zero(0, 1))


def test_separate_sanov_generator(sanov):
    rec = separate(sanov, sanov.word("a"), order_budget=10_000)
    assert rec.entry == (0, 1)
    assert rec.field_size == 2
    assert rec.gl_bound == 16
    assert rec.hom.char == 2
    assert rec.hom.images == (1,)
    assert rec.image_order == 6  # SL(2, F_2)
    assert rec.image_order_exact
    assert rec.verified
    ok, reason = verify_witness(sanov, rec)
    assert ok and reason == "ok"


def test_separate_diagonal_generator(diagonal):
    rec = separate(diagonal, diagonal.word("a"))
    assert rec.entry == (1, 1)
    assert rec.field_size == 3
    assert rec.hom.images == (2,)  # any value outside {0, 1} works
    assert rec.image_order is None  # no order budget requested
    assert rec.verified
    ok, _ = verify_witness(diagonal, rec)
    assert ok


def test_separate_identity_word_raises(sanov):
    with pytest.raises(IdentityWordError):
        separate(sanov, sanov.word("a a^-1"))
    with pytest.raises(IdentityWordError):
        separate(sanov, sanov.word("a b b^-1 a^-1"))


def test_separate_char3(sanov3):
    rec = separate(sanov3, sanov3.word("a b"), order_budget=50_000)
    assert rec.hom.char == 3
    assert rec.verified
    assert rec.image_order_exact
    ok, reason = verify_witness(sanov3, rec)
    assert ok and reason == "ok"


def test_separate_char_p_constant_group():
    # zero-variable char-p spec: the reduction is the identity on entries
    one = MultiPoly.const(3, 0, 1)
    zero = MultiPoly.const(3, 0, 0)
    P = RatFunc.of_poly
    mat = FieldMatrix(((P(one), P(one)), (P(zero), P(one))))
    g = GroupSpec(3, (), {"a": mat})
    rec = separate(g, g.word("a"), order_budget=100)
    assert rec.field_size == 3
    assert rec.image_order == 3
    assert rec.verified
    ok, _ = verify_witness(g, rec)
    assert ok


def test_verify_rejects_tampering(sanov):
    rec = separate(sanov, sanov.word("a b"))
    assert verify_witness(sanov, rec) == (True, "ok")
    bad = dataclasses.replace(rec, field_size=rec.field_size + 1)
    assert verify_witness(sanov, bad) == (False, "field-size-mismatch")
    bad = dataclasses.replace(rec, gl_bound=rec.gl_bound + 1)
    assert verify_witness(sanov, bad) == (False, "gl-bound-mismatch")
    bad = dataclasses.replace(rec, word_length=rec.word_length + 1)
    assert verify_witness(sanov, bad) == (False, "length-mismatch")
    bad = dataclasses.replace(rec, word=sanov.word("a a^-1"), word_length=2)
    assert verify_witness(sanov, bad) == (False, "word-collapses")


def test_verify_refuses_forged_entry_and_verified_flag(sanov):
    rec = separate(sanov, sanov.word("a b a^-1 b^-1"), order_budget=ORDER_BUDGET)
    assert verify_witness(sanov, rec) == (True, "ok")
    for entry in [(5, 5), (0, 2), (-1, 0), (0,), (0, 0, 0), (True, 0), (0.0, 1), [0, 1], ("0", "1")]:
        assert verify_witness(sanov, dataclasses.replace(rec, entry=entry)) == (False, "entry-out-of-range")
    # the word's image has a 1 at (0, 0), so that cell does not survive the hom
    assert verify_witness(sanov, dataclasses.replace(rec, entry=(0, 0))) == (False, "entry-unmoved")
    for verified in (False, None, 1, "true"):
        assert verify_witness(sanov, dataclasses.replace(rec, verified=verified)) == (False, "not-verified")


def test_verify_refuses_images_not_derived_from_exponents_and_ell(sanov, sanov3):
    for spec in (sanov, sanov3):
        rec = separate(spec, spec.word("a b a^-1 b^-1"))
        hom = rec.hom
        moved = tuple(hom.field.add(v, 1) for v in hom.images)
        for bad in (
            dataclasses.replace(hom, images=moved),
            dataclasses.replace(hom, ell=None),
            dataclasses.replace(hom, ell=0),
            dataclasses.replace(hom, exponents=(-1,)),
            dataclasses.replace(hom, exponents=hom.exponents * 2),
        ):
            assert verify_witness(spec, dataclasses.replace(rec, hom=bad)) == (False, "hom-derivation-mismatch")
    # over an extension field, ell must be the modulus degree
    f9 = finite_field(3, UniPoly(3, (1, 0, 1)))
    hom = FieldHom(3, f9.modulus, (f9.encode((0, 1)),), (1,), ell=1)
    rec = dataclasses.replace(separate(sanov, sanov.word("a b")), hom=hom, field_size=9, gl_bound=9**4)
    assert verify_witness(sanov, rec) == (False, "hom-derivation-mismatch")


def test_verify_refuses_forged_image_orders(sanov):
    rec = separate(sanov, sanov.word("a b a^-1 b^-1"), order_budget=ORDER_BUDGET)
    order = rec.image_order
    assert rec.image_order_exact and 1 < order < rec.gl_bound
    inexact = dataclasses.replace(rec, image_order=rec.gl_bound, image_order_exact=False)
    assert verify_witness(sanov, inexact) == (True, "ok")
    for claim in (order, rec.gl_bound - 1, None):
        bad = dataclasses.replace(rec, image_order=claim, image_order_exact=False)
        assert verify_witness(sanov, bad) == (False, "inexact-order-not-gl-bound")
    for claim in (1, order - 1, order + 1, 2 * order, rec.gl_bound, 0, -order, True, str(order), None):
        bad = dataclasses.replace(rec, image_order=claim)
        assert verify_witness(sanov, bad) == (False, "image-order-mismatch"), claim
    for flag in (None, 1, "true"):
        bad = dataclasses.replace(rec, image_order_exact=flag)
        assert verify_witness(sanov, bad) == (False, "image-order-mismatch"), flag
    # the ROADMAP's forged commutator certificate
    forged = dataclasses.replace(rec, entry=(5, 5), image_order=1, image_order_exact=True, verified=False)
    assert verify_witness(sanov, forged) == (False, "entry-out-of-range")


def test_verify_accepts_orders_made_with_small_budgets(sanov):
    rec = separate(sanov, sanov.word("a b a^-1 b^-1"), order_budget=ORDER_BUDGET)
    order = rec.image_order
    tight = separate(sanov, sanov.word("a b a^-1 b^-1"), order_budget=order)
    assert (tight.image_order, tight.image_order_exact) == (order, True)
    assert verify_witness(sanov, tight) == (True, "ok")
    capped = separate(sanov, sanov.word("a b a^-1 b^-1"), order_budget=order - 1)
    assert (capped.image_order, capped.image_order_exact) == (capped.gl_bound, False)
    assert verify_witness(sanov, capped) == (True, "ok")
    unasked = separate(sanov, sanov.word("a b a^-1 b^-1"))
    assert (unasked.image_order, unasked.image_order_exact) == (None, None)
    assert verify_witness(sanov, unasked) == (True, "ok")


def test_verify_rejects_hom_of_other_characteristic(sanov3):
    rec = separate(sanov3, sanov3.word("a b"))
    f5 = FieldHom(5, None, (2,), rec.hom.exponents)
    bad = dataclasses.replace(rec, hom=f5, field_size=5, gl_bound=5**4)
    assert verify_witness(sanov3, bad) == (False, "characteristic-mismatch")


def test_verify_accepts_any_field_for_characteristic_zero(sanov):
    # Z[t] maps into every finite field, so t -> x in F_9 is a true certificate
    f9 = finite_field(3, UniPoly(3, (1, 0, 1)))
    hom = FieldHom(3, f9.modulus, (f9.encode((0, 1)),), (1,), ell=2)
    rec = separate(sanov, sanov.word("a b"))
    cert = dataclasses.replace(rec, hom=hom, field_size=9, gl_bound=9**4)
    assert verify_witness(sanov, cert) == (True, "ok")


def test_verify_rejects_singular_generator_image(sanov, monkeypatch):
    rec = separate(sanov, sanov.word("a b"))
    true_images = FieldHom.generator_images

    def singular_a(self, spec):
        return {**true_images(self, spec), "a": (1, 1, 1, 1)}

    monkeypatch.setattr(FieldHom, "generator_images", singular_a)
    assert verify_witness(sanov, rec) == (False, "singular-generator")


def test_verify_rejects_denominator_killing_hom(diagonal):
    rec = separate(diagonal, diagonal.word("a"))
    killer = FieldHom(rec.hom.char, None, tuple(0 for _ in rec.hom.images), rec.hom.exponents)
    bad = dataclasses.replace(rec, hom=killer)
    ok, reason = verify_witness(diagonal, bad)
    assert not ok
    assert reason == "denominator-killed"


def test_verify_rejects_wrong_arity(sanov):
    rec = separate(sanov, sanov.word("a"))
    wide = FieldHom(rec.hom.char, None, rec.hom.images * 2, rec.hom.exponents)
    bad = dataclasses.replace(rec, hom=wide)
    assert verify_witness(sanov, bad) == (False, "image-arity-mismatch")


def test_image_order_examples(sanov, cyclic):
    hom = FieldHom(2, None, (1,), (0,))
    assert image_order(sanov, hom) == (6, True)
    killer = FieldHom(2, None, (0,), (0,))
    assert image_order(sanov, killer) == (1, True)
    hom5 = FieldHom(5, None, (), ())  # cyclic is a zero-variable spec
    assert image_order(cyclic, hom5) == (5, True)


def test_image_order_budget(sanov):
    hom = FieldHom(7, None, (1,), (0,))
    exact_order, exact = image_order(sanov, hom)
    assert exact and exact_order == 336  # SL(2, F_7)
    capped, flag = image_order(sanov, hom, budget=10)
    assert not flag
    assert capped == 7**4


def test_image_order_default_is_the_reduction_budget(sanov):
    # |SL(2, F_53)| = 148,824 fits the one default order budget
    assert ReductionBudget().order_budget >= 148_824
    assert image_order(sanov, FieldHom(53, None, (1,), ())) == (148_824, True)


def test_chain_prime_bound():
    assert chain_prime_bound(1) == 2
    assert chain_prime_bound(5) == 3
    assert chain_prime_bound(6) == 5
    assert chain_prime_bound(1, frozenset({2})) == 3
    assert chain_prime_bound(720) == 11
    # the product of admissible primes up to the bound always clears the value
    import math

    from finquot.algebra import is_prime

    for value in (1, 2, 10, 100, 10**6):
        p = chain_prime_bound(value)
        prod = math.prod(q for q in range(2, p + 1) if is_prime(q))
        assert prod > value


def test_separated_records_round_trip_verification(sanov, sanov3):
    rng = random.Random(67)
    for spec in (sanov, sanov3):
        letters = list(spec.generators)
        done = 0
        while done < 12:
            text = " ".join(rng.choice(letters) for _ in range(rng.randrange(1, 7)))
            try:
                rec = separate(spec, spec.word(text))
            except IdentityWordError:
                continue
            ok, reason = verify_witness(spec, rec)
            assert ok, (text, reason)
            assert rec.gl_bound == rec.field_size ** 4
            done += 1


def _word_image_to_identity(letters, images, field, m):
    return field.identity(m)


def test_separate_raises_when_word_image_collapses(sanov, monkeypatch, capsys):
    import json

    from finquot import witness
    from finquot.cli import main

    monkeypatch.setattr(witness, "word_image", _word_image_to_identity)
    with pytest.raises(FinquotError, match="failed to move the word off the identity"):
        separate(sanov, sanov.word("a b"))
    assert main(["witness", "sanov", "--word", "a b"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "FinquotError"


# The "cannot happen" guards of the two witness constructions, each reached by
# breaking the one fact it guards.


def test_charzero_witness_refuses_a_substitution_that_vanishes_everywhere(monkeypatch):
    # a zero coefficient, which substitute_sparse always drops, vanishes at every point
    monkeypatch.setattr(MultiPoly, "substitute_sparse", lambda self, exponents: {1: 0})
    with pytest.raises(FinquotError, match="^a degree-r polynomial cannot vanish at r\\+1 points$"):
        charzero_witness(MultiPoly.variable(0, 1, 0))


def test_charzero_witness_refuses_a_value_past_the_evaluation_bound(monkeypatch):
    # a negative degree, which no substitution produces, lets 5 + 1^-3 outgrow (0+1) * 1^0 * 5
    monkeypatch.setattr(MultiPoly, "substitute_sparse", lambda self, exponents: {0: 5, -3: 1})
    with pytest.raises(FinquotError, match="^evaluation bound violated$"):
        charzero_witness(MultiPoly.variable(0, 1, 0))


@pytest.mark.parametrize("char", [0, 3])
def test_witnesses_refuse_a_hom_that_kills_f(char, monkeypatch):
    construct = charp_witness if char else charzero_witness
    monkeypatch.setattr(FieldHom, "apply", lambda self, f: 0)
    with pytest.raises(FinquotError, match="^witness construction failed to preserve f$"):
        construct(MultiPoly.variable(char, 1, 0) + MultiPoly.const(char, 1, 1))


def test_charp_witness_refuses_a_scan_past_the_factor_count_bound():
    # with no irreducible of any degree on offer, the scan runs past deg(g) + 1
    with pytest.raises(FinquotError, match="^degree scan must terminate by the factor-count bound$"):
        charp_witness(MultiPoly.variable(3, 1, 0), irreducibles=lambda p, ell: ())


_OPTIMIZED_CHECKS = """
import sys
from finquot import profiler, unipoly, witness
from finquot.errors import FinquotError
from finquot.groups import cyclic_group, sanov_group
from finquot.multipoly import MultiPoly

raised = []
real_word_image = witness.word_image
witness.word_image = lambda letters, images, field, m: field.identity(m)
spec = sanov_group(0)
try:
    witness.separate(spec, spec.word("a b"))
except FinquotError:
    raised.append("separate")
witness.word_image = real_word_image
profiler.ReductionScanner.min_order = lambda self, word: (10**9, True)
try:
    profiler.farb_profile(cyclic_group(), 2)
except FinquotError:
    raised.append("sandwich")
witness.smallest_prime_not_dividing = lambda value, excluded: 2  # a prime that kills f = 2
try:
    witness.charzero_witness(MultiPoly.const(0, 1, 2))
except FinquotError:
    raised.append("charzero")
witness._sparse_mod = lambda g, h: {0: 1}  # accept h = x, which kills f = x^2 + x
try:
    witness.charp_witness(MultiPoly(2, 1, {(2,): 1, (1,): 1}))
except FinquotError:
    raised.append("charp")
unipoly.mobius = lambda d: 1  # 2^3 + 2^1 is not divisible by 3
try:
    unipoly.gauss_irreducible_count(2, 3)
except FinquotError:
    raised.append("gauss")
print(sys.flags.optimize, ",".join(raised))
"""


def test_checks_survive_python_optimize():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import finquot

    src = str(Path(finquot.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECKS], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "separate,sandwich,charzero,charp,gauss"]
