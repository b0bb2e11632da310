from __future__ import annotations

import itertools
import math

import pytest
import sympy

from finquot.algebra import dz, is_prime, next_prime, smallest_prime_not_dividing
from finquot.errors import BudgetExceeded, NotFoundWithinBudget
from finquot.groups import ball_enumerate, sanov_group
from finquot.profiler import (
    AuditReport,
    ReductionBudget,
    ReductionScanner,
    divisor_sum,
    farb_profile,
    farb_z,
    inequality_audit,
    subgroup_growth_catalog,
    threshold_check,
    word_growth,
)
from finquot.parsing import parse_entry
from finquot.profiler import _is_constant_unipotent, _opposite_unipotent_param, _quotient_floor
from finquot.ratfunc import FieldMatrix
from finquot.serialize import profile_to_csv, spec_from_data, threshold_samples_from_csv
from finquot.witness import FieldHom, image_order


def test_farb_z_examples():
    assert farb_z(1) == 2
    assert farb_z(2) == 3
    assert farb_z(6) == 4
    assert farb_z(12) == 5
    assert farb_z(59) == 5
    assert farb_z(60) == 7  # lcm(1..5) = lcm(1..6) = 60
    assert farb_z(420) == 8


def test_farb_z_rejects_nonpositive():
    with pytest.raises(ValueError):
        farb_z(0)


def test_farb_z_is_running_max_of_dz():
    best = 0
    for n in range(1, 2001):
        best = max(best, dz(n))
        assert farb_z(n) == best


def test_farb_z_nondecreasing_and_banded():
    prev = 0
    for n in range(1, 5001):
        cur = farb_z(n)
        assert cur >= prev
        prev = cur
    for n in (10**3, 10**4, 10**5, 10**6):
        assert 0.5 <= farb_z(n) / math.log(n) <= 3.0


def test_d_reduction_sanov_generator(sanov, sanov_scanner):
    assert sanov_scanner.min_order(sanov.word("a")) == (6, True)
    small = ReductionBudget(max_prime=7, max_degree=1, order_budget=50_000)
    assert ReductionScanner(sanov, small).min_order(sanov.word("a")) == (6, True)


def test_d_reduction_cyclic_powers(cyclic, cyclic_scanner):
    # the n-th power of a unipotent integer matrix dies mod p exactly when p | n
    for k in range(1, 13):
        order, exhaustive = cyclic_scanner.min_order(cyclic.word(f"a^{k}"))
        want = 2
        while k % want == 0 or not is_prime(want):
            want += 1
        assert order == want
        assert exhaustive


def test_d_reduction_rejects_identity(sanov, sanov_scanner):
    # every hom kills a a^-1, so no reduction separates it
    with pytest.raises(NotFoundWithinBudget):
        sanov_scanner.min_order(sanov.word("a a^-1"))


def test_d_reduction_not_found(diagonal):
    # mod 2 the only surviving parameter value is t = 1, which kills diag(t, 1/t)
    tiny = ReductionBudget(max_prime=2, max_degree=1, order_budget=1000)
    with pytest.raises(NotFoundWithinBudget):
        ReductionScanner(diagonal, tiny).min_order(diagonal.word("a"))


def test_d_reduction_order_budget_exhaustion(sanov):
    # a^2 dies mod 2; the next quotient is SL(2,3) of order 24 over the cap
    cramped = ReductionBudget(max_prime=5, max_degree=1, order_budget=20)
    with pytest.raises(BudgetExceeded):
        ReductionScanner(sanov, cramped).min_order(sanov.word("a^2"))


def test_scanner_char0_order_histogram(sanov_scanner):
    # two opposite unipotents over F_p generate SL(2,p) whenever the
    # parameter is nonzero, so each prime contributes p-1 copies of
    # p(p^2-1) plus one trivial hom at parameter zero
    hist = {}
    for hom in sanov_scanner.homs:
        hist[hom.order] = hist.get(hom.order, 0) + 1
    want = {1: 11}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        want[p * (p * p - 1)] = p - 1
    assert hist == want
    assert len(sanov_scanner.homs) == 160


def test_scanner_char3_order_table(sanov3_scanner):
    # degree 1: parameter 0 plus two copies of SL(2,3); degree 2: one orbit
    # with square in F_3 (SL(2,3) again) and the two golden-trace orbits
    # (icosahedral, order 120); degree 3: eight orbits giving SL(2,27)
    orders = sorted(h.order for h in sanov3_scanner.homs)
    assert orders == [1, 24, 24, 24, 120, 120] + [19656] * 8


def test_scanner_cyclic_orders(cyclic_scanner):
    orders = sorted(h.order for h in cyclic_scanner.homs)
    assert orders == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_scanner_floors(sanov_scanner, sanov3_scanner, cyclic_scanner):
    assert sanov_scanner.floor == 37 * 38  # Sylow count at the next prime
    assert sanov3_scanner.floor == 720  # |SL(2, 9)|
    assert cyclic_scanner.floor == 37


@pytest.mark.parametrize("rows,floor", [([["1", "3"], ["0", "1"]], next_prime(31)), ([["2", "1"], ["1", "1"]], 2)])
def test_quotient_floor_single_constant_generator(rows, floor):
    spec, _ = spec_from_data({"characteristic": 0, "variables": [], "generators": {"a": rows}})
    assert _quotient_floor(spec, ReductionBudget()) == floor


def _unipotent_by_powering(mat) -> bool:
    """The general rule _is_constant_unipotent replaced: constant entries and
    (mat - I)^m = 0 for an m x m matrix."""
    m = mat.size
    for row in mat.rows:
        for cell in row:
            if not (cell.is_poly() and cell.num.is_const()):
                return False
    diff = [
        [cell.num.const_value() - (i == j) for j, cell in enumerate(row)]
        for i, row in enumerate(mat.rows)
    ]
    power = diff
    for _ in range(m - 1):
        power = [[sum(power[i][k] * diff[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    return not any(any(row) for row in power)


def _matrix(entries):
    cells = [parse_entry(str(e), 0, ["t"]) for e in entries]
    return FieldMatrix([cells[:2], cells[2:]])


def test_constant_unipotent_matches_powering_on_small_integer_matrices():
    found = 0
    for entries in itertools.product(range(-3, 4), repeat=4):
        mat = _matrix(entries)
        assert _is_constant_unipotent(mat) == _unipotent_by_powering(mat), entries
        found += _is_constant_unipotent(mat)
    assert found > 10  # [[1, b], [0, 1]], [[1, 0], [c, 1]], [[2, 1], [-1, 0]], ...


@pytest.mark.parametrize(
    "entries",
    [("1", "t", "0", "1"), ("1", "1/t", "0", "1"), ("1", "1/2", "0", "1"), ("t", "0", "0", "1/t"), ("1", "0", "t-t", "1")],
)
def test_constant_unipotent_matches_powering_on_non_constant_cells(entries):
    mat = _matrix(entries)
    assert _is_constant_unipotent(mat) == _unipotent_by_powering(mat)


def test_golden_quartic_splits_into_quadratics_over_odd_primes():
    # the icosahedral parameters are roots of X^4 + 3X^2 + 1; no factor of
    # degree above 2 means they all lie inside any budget with max_degree >= 2
    x = sympy.symbols("x")
    for p in sympy.primerange(3, 1000):
        _, factors = sympy.Poly(x**4 + 3 * x**2 + 1, x, modulus=p).factor_list()
        assert max(f.degree() for f, _ in factors) <= 2, p


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("max_degree", [2, 3, 4, 5])
def test_quotient_floor_opposite_pair_is_sl2_order(p, max_degree):
    m = (max_degree + 2) // 2
    floor = _quotient_floor(sanov_group(p), ReductionBudget(max_degree=max_degree))
    assert floor == p**m * (p ** (2 * m) - 1)


def _pair_spec(char, a, b):
    spec, _ = spec_from_data({"characteristic": char, "variables": ["t"], "generators": {"a": a, "b": b}})
    return spec


def test_quotient_floor_is_two_outside_the_odd_f_equals_t_case():
    assert _quotient_floor(sanov_group(2), ReductionBudget()) == 2
    squared = _pair_spec(3, [["1", "t^2"], ["0", "1"]], [["1", "0"], ["t^2", "1"]])
    assert _quotient_floor(squared, ReductionBudget()) == 2


@pytest.mark.parametrize(
    "a,b",
    [
        ([["2", "t"], ["0", "1"]], [["1", "0"], ["t", "1"]]),  # a diagonal entry is not 1
        ([["1", "t"], ["t", "1"]], [["1", "0"], ["t", "1"]]),  # both corners nonzero
        ([["1", "t"], ["0", "1"]], [["1", "t"], ["0", "1"]]),  # both generators upper
        ([["1", "t"], ["0", "1"]], [["1", "0"], ["t+1", "1"]]),  # different f
    ],
)
def test_opposite_unipotent_param_refuses(a, b):
    spec = _pair_spec(5, a, b)
    assert _opposite_unipotent_param([spec.generators[l] for l in spec.base_labels]) is None
    assert _quotient_floor(spec, ReductionBudget()) == 2


def test_profile_of_a_finite_group_stops_growing():
    # a rotation of order 4: the ball stops at {a, a^-1, a^2}
    rotation = {"characteristic": 0, "variables": [], "generators": {"a": [["0", "-1"], ["1", "0"]]}}
    profile = farb_profile(spec_from_data(rotation)[0], 4)
    assert [r.ball_size for r in profile.rows] == [2, 3, 3, 3]


def test_profile_cyclic_matches_farb_z(cyclic):
    profile = farb_profile(cyclic, 5)
    assert [r.max_d_reduction for r in profile.rows] == [farb_z(n) for n in range(1, 6)]
    assert [r.ball_size for r in profile.rows] == [2, 4, 6, 8, 10]
    assert all(r.exhaustive for r in profile.rows)
    assert all(r.budget_misses == 0 for r in profile.rows)


def test_profile_cyclic_prime_gap_at_six(cyclic):
    # dz(6) = 4 needs the non-prime modulus 4; field quotients give 5
    profile = farb_profile(cyclic, 6)
    assert profile.rows[-1].max_d_reduction == 5
    assert farb_z(6) == 4
    assert farb_z(6) <= profile.rows[-1].max_d_reduction


def test_profile_cyclic_closed_form_to_radius_60(cyclic):
    # a^k survives in F_p exactly when p does not divide k, so the cyclic
    # profile is the running maximum of the least prime not dividing k; it
    # covers field quotients only: max_d_reduction is 5 at radii 6-11, where
    # farb_z gives 4 (Z/4 separates a^6)
    profile = farb_profile(cyclic, 60)
    closed = list(itertools.accumulate((smallest_prime_not_dividing(k) for k in range(1, 61)), max))
    assert [r.max_d_reduction for r in profile.rows] == closed
    assert all(r.exhaustive and r.budget_misses == 0 for r in profile.rows)
    assert [profile.row(n).max_d_reduction for n in range(6, 12)] == [5] * 6
    assert [farb_z(n) for n in range(6, 12)] == [4] * 6


def test_profile_sanov_small(sanov):
    profile = farb_profile(sanov, 2)
    rows = profile.rows
    assert [r.radius for r in rows] == [1, 2]
    assert [r.ball_size for r in rows] == [4, 16]
    assert rows[0].max_d_reduction == 6
    assert rows[1].max_d_reduction == 24  # a^2 dies mod 2, lives in SL(2,3)
    assert rows[0].max_gl_bound == 16
    assert all(r.exhaustive for r in rows)
    for prev, cur in zip(rows, rows[1:]):
        assert cur.max_gl_bound >= prev.max_gl_bound
        assert cur.max_image_order >= prev.max_image_order
        assert cur.max_d_reduction >= prev.max_d_reduction


def test_profile_row_sandwich(sanov3):
    profile = farb_profile(sanov3, 3)
    for row in profile.rows:
        assert row.max_d_reduction <= row.max_image_order <= row.max_gl_bound


def test_word_growth(sanov, sanov3, cyclic):
    assert word_growth(cyclic, 4) == [1, 3, 5, 7, 9]
    assert word_growth(sanov, 3) == [1, 5, 17, 53]
    assert word_growth(sanov3, 4) == [1, 5, 13, 29, 61]


def test_divisor_sum():
    assert divisor_sum(1) == 1
    assert divisor_sum(6) == 12
    assert divisor_sum(12) == 28
    for m in range(1, 200):
        assert divisor_sum(m) == sum(d for d in range(1, m + 1) if m % d == 0)


def test_subgroup_growth_catalog():
    assert [subgroup_growth_catalog("Z", n) for n in (1, 2, 5)] == [1, 2, 5]
    assert [subgroup_growth_catalog("Z2", n) for n in (1, 2, 3, 4, 5)] == [1, 4, 8, 15, 21]
    with pytest.raises(ValueError):
        subgroup_growth_catalog("Z3", 2)


def test_inequality_audit():
    report = inequality_audit(10_000)
    assert report.all_pass
    assert report.failures == ()
    assert report.min_ratio_at == 1
    assert abs(report.min_ratio - 3 / 4) < 1e-12 or report.min_ratio >= 1


def _audit_loop(n_max, keep=lambda n: True):
    """The per-n loop that inequality_audit replaced: yields its report for
    every N <= n_max that keep accepts, in one pass."""
    failures = []
    min_ratio, min_at = math.inf, 0
    f, m, next_l = 2, 1, 2
    for n in range(1, n_max + 1):
        while next_l <= n:
            m += 1
            next_l = math.lcm(next_l, m + 1)
            f = m + 1
        w = 2 * n + 1
        bound = f**f
        if w > bound:
            failures.append(n)
        ratio = bound / w
        if ratio < min_ratio:
            min_ratio, min_at = ratio, n
        if keep(n):
            yield AuditReport(n, not failures, tuple(failures), min_ratio, min_at)


def test_inequality_audit_matches_the_per_n_loop():
    checked = 0
    for expected in _audit_loop(10_000):
        assert inequality_audit(expected.n_max) == expected
        checked += 1
    assert checked == 10_000
    [expected] = _audit_loop(10**6, keep=lambda n: n == 10**6)
    assert inequality_audit(10**6) == expected


def test_inequality_audit_lists_failures_as_interval_suffixes(monkeypatch):
    # no failure exists, since lcm(1..k) < 3^k; an lcm that grows faster keeps
    # F(n) = 3 on [2, 59], where 2n+1 > 27 from n = 14 on
    monkeypatch.setattr(math, "lcm", lambda a, b: 10 * a * b)
    for expected in _audit_loop(3000):
        assert inequality_audit(expected.n_max) == expected
    report = inequality_audit(100)
    assert (report.all_pass, report.failures) == (False, tuple(range(14, 60)))


def test_inequality_audit_past_every_float():
    # 172^172 / w no longer fits a float, so the ratios are compared exactly
    report = inequality_audit(10**100)
    assert (report.all_pass, report.failures, report.min_ratio_at) == (True, (), 1)
    assert report.min_ratio == 4 / 3


def test_threshold_check(cyclic):
    samples = [(n, farb_z(n)) for n in (16, 100, 10_000)]
    report = threshold_check(samples)
    assert report.min_ratio > 0.4
    assert report.min_ratio_at in (16, 100, 10_000)
    profile = farb_profile(cyclic, 16)
    prof_report = threshold_check(threshold_samples_from_csv(profile_to_csv(profile)))
    assert prof_report.rows[-1].n == 16
    with pytest.raises(ValueError):
        threshold_check([(8, 3)])


@pytest.mark.parametrize("value", [0, -2])
def test_threshold_check_refuses_value_below_one(value):
    with pytest.raises(ValueError, match=f"threshold values must be >= 1, got {value} at n=16"):
        threshold_check([(100, 7), (16, value)])


def test_profile_sandwich_violation_raises(cyclic, monkeypatch):
    from finquot import profiler
    from finquot.errors import FinquotError

    monkeypatch.setattr(profiler.ReductionScanner, "min_order", lambda self, word: (10**9, True))
    with pytest.raises(FinquotError, match="reduction sandwich violated"):
        farb_profile(cyclic, 2)


def test_scanner_orders_when_homs_share_generator_images():
    # t -> c and t -> -c give the same images, so 41 homs share 24 closures
    spec, _ = spec_from_data({
        "characteristic": 0,
        "variables": ["t"],
        "generators": {"a": [["1", "t^2"], ["0", "1"]], "b": [["1", "0"], ["t^2", "1"]]},
    })
    budget = ReductionBudget(max_prime=13)
    scanner = ReductionScanner(spec, budget)
    assert len(scanner.homs) == 41
    shared = {(h.field.q, tuple(h.images[l] for l in spec.base_labels)) for h in scanner.homs}
    assert len(shared) == 24
    expected = {}
    for p in (2, 3, 5, 7, 11, 13):
        for t in range(p):
            order, exact = image_order(spec, FieldHom(p, None, (t,), ()), budget.order_budget)
            expected[f"p={p},t={(t,)}"] = order if exact else None
    assert {h.label: h.order for h in scanner.homs} == expected
    for text, order in (("a", 6), ("a b", 6), ("a^4 b^-2", 24)):
        assert scanner.min_order(spec.word(text)) == (order, True)


@pytest.mark.parametrize("key", ["max_prime", "max_degree", "order_budget", "ball_budget"])
@pytest.mark.parametrize("value", [True, 0, -1, "x"])
def test_reduction_budget_refuses_bad_values(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be a positive integer, got "):
        ReductionBudget(**{key: value})
