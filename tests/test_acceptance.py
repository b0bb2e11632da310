"""End-to-end acceptance battery.

Each test covers one acceptance criterion, prints a single pass/fail line,
and enforces the stated tolerance and time limit.  The heavy shared inputs
(radius-8 balls and their witness records for the two fixed groups) are
computed once per module.
"""
from __future__ import annotations

import json
import math
import random
import time

import pytest

from finquot.cli import main
from finquot.groups import ball_enumerate, sanov_group, scaled_difference
from finquot.multipoly import MultiPoly, substitution_exponents
from finquot.profiler import (
    ReductionBudget,
    ReductionScanner,
    divisor_sum,
    farb_z,
    inequality_audit,
    subgroup_growth_catalog,
)
from finquot.unipoly import enumerate_irreducibles, gauss_irreducible_count
from finquot.witness import (
    chain_prime_bound,
    image_order,
    separate,
    verify_witness,
)

RADIUS = 8
SANDWICH_RADIUS = 6


def report(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus(sanov, sanov3):
    out = {}
    for name, spec in (("sanov", sanov), ("sanov3", sanov3)):
        ball = ball_enumerate(spec, RADIUS)
        records = {e.word.letters: separate(spec, e.word, gamma=e.matrix) for e in ball}
        out[name] = (spec, ball, records)
    return out


def random_poly(rng, char, nvars, max_deg):
    while True:
        terms = {}
        for _ in range(rng.randrange(1, 7)):
            exps = [0] * nvars
            budget = max_deg
            for k in range(nvars):
                exps[k] = rng.randrange(budget + 1)
                budget -= exps[k]
            terms[tuple(exps)] = rng.randrange(-9, 10) or 1
        f = MultiPoly(char, nvars, terms)
        if not f.is_zero():
            return f


def test_criterion_01_substitution_battery():
    started = time.perf_counter()
    rng = random.Random(20260814)
    nonzero = 0
    for _ in range(200):
        char = rng.choice((0, 0, 2, 3))
        s = rng.randrange(1, 4)
        f = random_poly(rng, char, s, max_deg=5)
        exponents = substitution_exponents(f)
        if f.substitute_sparse(exponents):
            nonzero += 1
        d = max(f.total_degree(), 1)
        assert all(n <= d ** (2 * s) for n in exponents)
    elapsed = time.perf_counter() - started
    report(1, nonzero == 200 and elapsed < 10.0,
           f"200/200 nonzero substitutions, exponents within d^(2s), {elapsed:.2f}s < 10s")


def test_criterion_02_gauss_counts_match_enumeration():
    started = time.perf_counter()
    mismatches = []
    for p in (2, 3, 5):
        for ell in range(1, 7):
            formula = gauss_irreducible_count(p, ell)
            enumerated = sum(1 for _ in enumerate_irreducibles(p, ell))
            if formula != enumerated:
                mismatches.append((p, ell, formula, enumerated))
    elapsed = time.perf_counter() - started
    report(2, not mismatches and elapsed < 30.0,
           f"divisor-sum counts equal enumeration for p in (2,3,5), ell <= 6, {elapsed:.2f}s < 30s")


def test_criterion_03_integer_profile_band():
    started = time.perf_counter()
    # incremental walk over the lcm thresholds doubles as an oracle
    mstar, nxt = 1, 2
    prev = 0
    monotone = True
    for n in range(1, 10**6 + 1):
        while n >= nxt:
            mstar += 1
            nxt = math.lcm(nxt, mstar + 1)
        value = mstar + 1
        if value < prev:
            monotone = False
            break
        prev = value
    banded = all(0.5 <= farb_z(n) / math.log(n) <= 3.0 for n in (10**3, 10**4, 10**5, 10**6))
    spots = all(farb_z(n) == want for n, want in
                ((1, 2), (2, 3), (6, 4), (12, 5), (59, 5), (60, 7), (419, 7), (420, 8),
                 (10**3, 9), (10**6, 17)))
    elapsed = time.perf_counter() - started
    report(3, monotone and banded and spots and elapsed < 60.0,
           f"farb_z nondecreasing to 1e6, ratio to ln n in [0.5, 3.0], {elapsed:.2f}s < 60s")


def test_criterion_04_every_short_word_separates(corpus):
    checked = 0
    for spec, ball, records in corpus.values():
        for element in ball:
            rec = records[element.word.letters]
            ok, reason = verify_witness(spec, rec)
            assert rec.verified and ok, (element.word.render(), reason)
            assert rec.hom.apply(spec.phi) != 0
            checked += 1
    report(4, checked == len(corpus["sanov"][1]) + len(corpus["sanov3"][1]),
           f"all {checked} nontrivial words of length <= {RADIUS} verified in both groups")


def _fit_slope(points):
    xs = [math.log(r) for r, _ in points]
    ys = [math.log(v) for _, v in points]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum((x - xbar) ** 2 for x in xs)


def test_criterion_05_field_size_growth(corpus):
    # char 0: slope bound (2s+2) M^2 + 1/2 with s = 1, M = 2
    spec, ball, records = corpus["sanov"]
    per_radius = {}
    for element in ball:
        rec = records[element.word.letters]
        r = len(element.word.letters)
        per_radius[r] = max(per_radius.get(r, 0), rec.gl_bound)
    slope0 = _fit_slope(sorted(per_radius.items()))
    bound0 = (2 * 1 + 2) * spec.size**2 + 0.5

    # every witness prime obeys the explicit chain bound from its certificate
    chained = 0
    for element in ball:
        rec = records[element.word.letters]
        sd = scaled_difference(spec, element.word, element.matrix)
        f = sd[rec.entry[0]][rec.entry[1]]
        g = f.substitute_sparse(rec.hom.exponents)
        r = max(g)
        cap = chain_prime_bound(
            (r + 1) * rec.hom.ell**r * max(abs(c) for c in g.values()),
            spec.excluded_primes,
        )
        assert rec.field_size <= cap and rec.gl_bound <= cap ** spec.size**2
        chained += 1

    # char p: slope bound C M^2 log p + 1/2 with C fitted once on this corpus
    spec3, ball3, records3 = corpus["sanov3"]
    per_radius3 = {}
    for element in ball3:
        rec = records3[element.word.letters]
        r = len(element.word.letters)
        per_radius3[r] = max(per_radius3.get(r, 0), rec.gl_bound)
    slope3 = _fit_slope(sorted(per_radius3.items()))
    fitted_c = 0.75
    bound3 = fitted_c * spec3.size**2 * math.log(3) + 0.5

    report(5, slope0 <= bound0 and slope3 <= bound3,
           f"log-log slopes {slope0:.2f} <= {bound0} (char 0) and {slope3:.2f} <= {bound3:.2f} "
           f"(char 3, C={fitted_c}); {chained} chain bounds hold")


def test_criterion_06_reduction_sandwich(corpus):
    budget = ReductionBudget(max_prime=31, max_degree=3)
    order_cache = {}

    def witness_order(spec, hom):
        key = (id(spec), hom.char, tuple(hom.modulus.coeffs) if hom.modulus else None, hom.images)
        if key not in order_cache:
            order, exact = image_order(spec, hom)
            assert exact
            order_cache[key] = order
        return order_cache[key]

    checked = 0
    for spec, ball, records in corpus.values():
        scanner = ReductionScanner(spec, budget)
        for element in ball:
            if len(element.word.letters) > SANDWICH_RADIUS:
                continue
            rec = records[element.word.letters]
            minimum, exhaustive = scanner.min_order(element.word)
            order = witness_order(spec, rec.hom)
            assert minimum <= order <= rec.gl_bound, element.word.render()
            assert exhaustive, element.word.render()
            checked += 1
    report(6, checked > 0,
           f"min_order <= image order <= gl_bound with exhaustive scans on {checked} words "
           f"of length <= {SANDWICH_RADIUS} (p <= 31, degree <= 3)")


def _growth_degree_bounds(spec, word, gamma=None) -> tuple[int, int]:
    """(max |coefficient|, max total degree) over scaled_difference entries."""
    scaled = scaled_difference(spec, word, gamma)
    coeff = max((abs(c) for row in scaled for e in row for c in e.terms.values()), default=0)
    degree = max((e.total_degree() for row in scaled for e in row), default=-1)
    return coeff, degree


def test_growth_degree_bounds(sanov):
    assert _growth_degree_bounds(sanov, sanov.word("a a^-1")) == (0, -1)
    coeff, degree = _growth_degree_bounds(sanov, sanov.word("a b"))
    assert (coeff, degree) == (1, 2)


def test_criterion_07_degree_and_coefficient_growth(corpus):
    checked = 0
    for spec, ball, records in corpus.values():
        entry_degree = max(
            max(cell.num.total_degree(), cell.den.total_degree())
            for mat in spec.generators.values()
            for row in mat.rows
            for cell in row
        )
        c1 = entry_degree + spec.phi.total_degree()
        alpha = 1 + spec.size * max(
            abs(c)
            for mat in spec.generators.values()
            for row in mat.rows
            for cell in row
            for f in (cell.num, cell.den)
            for c in f.terms.values()
        )
        for element in ball:
            coeff, degree = _growth_degree_bounds(spec, element.word, element.matrix)
            n = len(element.word.letters)
            assert degree <= c1 * n, element.word.render()
            if spec.char == 0:
                assert coeff <= alpha**n, element.word.render()
            checked += 1
    report(7, checked > 0,
           f"degree <= C1*n and char-0 coefficients <= alpha^n across {checked} words")


def _sublattice_count(m: int) -> int:
    """Index-m sublattices of Z^2 by direct Hermite-form enumeration."""
    count = 0
    for d in range(1, m + 1):
        if m % d:
            continue
        count += d  # [[a, b], [0, d]] with a = m // d, 0 <= b < d
    return count


def test_sublattice_count_matches_divisor_sum():
    for m in range(1, 60):
        assert _sublattice_count(m) == divisor_sum(m)


def test_criterion_08_pigeonhole_audit():
    audit = inequality_audit(10_000)
    catalog_ok = all(
        subgroup_growth_catalog("Z2", n) == sum(_sublattice_count(m) for m in range(1, n + 1))
        for n in range(1, 51)
    )
    report(8, audit.all_pass and catalog_ok,
           f"2n+1 <= F(n)^F(n) for n <= 1e4 (min ratio {audit.min_ratio:.3f} at n={audit.min_ratio_at}); "
           f"Z^2 catalog equals Hermite-form enumeration to n = 50")


def test_criterion_09_threshold_floor():
    ratios = {n: math.log(farb_z(n)) ** 2 / math.log(math.log(n)) for n in (16, 10**2, 10**4, 10**6)}
    report(9, all(r >= 0.4 for r in ratios.values()),
           "threshold ratios " + ", ".join(f"{n}: {r:.2f}" for n, r in sorted(ratios.items())) + " all >= 0.4")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    pairs = []
    for stem, argv in (
        ("witness", ["witness", "sanov_f3", "--word", "a b a b^-1"]),
        ("profile", ["profile", "cyclic", "--radius", "6"]),
    ):
        outputs = []
        for k in (1, 2):
            path = tmp_path / f"{stem}{k}.out"
            assert main(argv + ["--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        pairs.append(outputs[0] == outputs[1])
    capsys.readouterr()
    report(10, all(pairs), "repeated witness and profile runs are byte-identical")
