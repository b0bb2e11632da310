"""Divisibility profiles: exact F for the integers, brute-force reduction
minima for matrix groups, word growth, the subgroup-growth catalog, and the
pigeonhole / threshold audits.

The reduction oracle enumerates every homomorphism into finite fields within
an explicit budget, computes exact image orders by a Schreier-Sims
stabilizer chain, and certifies the returned minimum as exhaustive only when
a documented structural floor rules out smaller images beyond the budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

from .algebra import factorize, next_prime, primes
from .errors import BudgetExceeded, FinquotError, NotFoundWithinBudget
from .fields import Field, finite_field
from .groups import BALL_BUDGET, GroupSpec, Word, ball_enumerate
from .multipoly import MultiPoly
from .witness import ORDER_BUDGET, FieldHom, HomMemo, separate, word_image


def farb_z(n: int) -> int:
    """Exact max of dz(i) for 1 <= i <= n.

    Equals m* + 1 where m* is the largest m with lcm(1..m) <= n: the value
    m*+1 is attained at i = lcm(1..m*) (m*+1 cannot divide it, or m* was not
    maximal), and no i <= n does better because dz(i) = m forces
    lcm(2..m-1) | i.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m, acc = 1, 1
    while True:
        nxt = math.lcm(acc, m + 1)
        if nxt > n:
            return m + 1
        m, acc = m + 1, nxt


def is_budget_value(value) -> bool:
    """The one value rule for every budget: a positive int, not a bool."""
    return type(value) is int and value > 0


@dataclass(frozen=True)
class ReductionBudget:
    """Search limits for the reduction oracle and the profiler.

    max_prime bounds target primes in characteristic 0; max_degree bounds
    extension degrees over the base prime in characteristic p; order_budget
    caps the image orders that count as exact; ball_budget caps the
    number of ball elements a profile enumerates.  The fields are the only
    list of budget names; every value must satisfy is_budget_value.
    """

    max_prime: int = 31
    max_degree: int = 3
    order_budget: int = ORDER_BUDGET
    ball_budget: int = BALL_BUDGET

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_budget_value(value):
                raise ValueError(f"{f.name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class _ScanHom:
    """One reduction homomorphism with precomputed image data.

    order is None when the image order exceeds the order budget; such a
    hom can never claim a minimum but still matters for error reporting.
    """

    label: str
    field: Field
    order: int | None
    images: dict


class ReductionScanner:
    """All reduction homomorphisms for one group within one budget.

    Holds the homs sorted by image order so that the first survivor of a
    word scan is its reduction minimum.  The images, orders and moduli come
    from memo, bound to spec and budget.order_budget (a fresh one if None).
    """

    def __init__(self, spec: GroupSpec, budget: ReductionBudget, memo: HomMemo | None = None):
        memo = HomMemo.bind(spec, budget.order_budget, memo)
        self.size = spec.size
        self.budget = budget
        self.floor = _quotient_floor(spec, budget)
        fields = _scan_fields(spec, budget, memo)
        self.field_sizes = frozenset(field.q for field in fields)
        homs = self._scan_homs(spec, fields, memo)
        self.homs = sorted(homs, key=lambda h: (h.order if h.order is not None else math.inf, h.label))

    def _scan_homs(self, spec: GroupSpec, fields: list[Field], memo: HomMemo):
        """One hom per kernel: images up to simultaneous Frobenius conjugacy.

        Two variable assignments with the same minimal polynomial data induce
        the same kernel on the coordinate ring, hence isomorphic images, so a
        single orbit representative per field suffices.  An orbit shorter
        than the field's degree lands in a proper subfield, counted there.
        """
        for field in fields:
            p, q = field.p, field.q
            key, degree = ("p", 1) if field.modulus is None else ("q", field.modulus.degree)
            frob = [field.pow(v, p) for v in range(q)]
            seen = set()
            for tup in itertools.product(range(q), repeat=spec.nvars):
                if tup in seen:
                    continue
                orbit = {tup}
                cur = tuple(frob[v] for v in tup)
                while cur not in orbit:
                    orbit.add(cur)
                    cur = tuple(frob[v] for v in cur)
                seen.update(orbit)
                hom = FieldHom(p, field.modulus, tup, ())
                if len(orbit) != degree or hom.apply(spec.phi) == 0:
                    continue
                order, exact = memo.order(hom)
                yield _ScanHom(f"{key}={q},t={tup}", field, order if exact else None, memo.images(hom))

    def min_order(self, word: Word) -> tuple[int, bool]:
        """Smallest in-budget image order under which the word survives.

        The second component certifies exhaustiveness: True means no
        homomorphism outside the budget can have a smaller nontrivial image,
        by the structural floor documented in _quotient_floor.
        """
        size = self.size
        for scan in self.homs:
            field = scan.field
            if word_image(word.letters, scan.images, field, size) != field.identity(size):
                if scan.order is None:
                    raise BudgetExceeded(
                        "image order exceeds the closure budget",
                        required=self.budget.order_budget + 1,
                    )
                return scan.order, scan.order <= self.floor
        raise NotFoundWithinBudget(
            f"no reduction within budget separates {word.render()!r}"
        )


def _scan_fields(spec: GroupSpec, budget: ReductionBudget, memo: HomMemo) -> list[Field]:
    """The target fields of the reduction scan.

    Characteristic 0: F_p for every prime p <= max_prime that phi does not
    invert.  Characteristic p: F_p[x]/(h) for the first monic irreducible h
    of each degree up to max_degree.
    """
    if spec.char == 0:
        return [
            finite_field(p, None)
            for p in itertools.takewhile(lambda p: p <= budget.max_prime, primes())
            if p not in spec.excluded_primes
        ]
    p = spec.char
    return [
        finite_field(p, next(memo.irreducibles(p, j)))
        for j in range(1, budget.max_degree + 1)
    ]


def _quotient_floor(spec: GroupSpec, budget: ReductionBudget) -> int:
    """A proven lower bound on nontrivial image orders outside the budget.

    Legs, most specific first; each is a classical structural fact, so the
    exhaustiveness certificate never depends on the scan itself:

    * Opposite unipotent pair (size 2, generators [[1,f],[0,1]] and
      [[1,0],[f,1]] with the same f).  Any homomorphism keeping the word
      alive keeps both generators alive (same parameter value), so the image
      has two distinct Sylow p-subgroups for the target characteristic p;
      Sylow's theorem forces at least p+1 of them and |G| >= p(p+1).  In
      characteristic 0 with primes <= P searched, p >= nextprime(P).
    * Same shape, source characteristic p odd with f = t and extension
      degrees <= D searched: an unseen kernel needs t -> c of degree
      j > D.  Conjugating by diag(c, 1) turns the pair into e12(c^2),
      e21(1), and by Dickson's two-unipotent theorem the group is
      SL(2, F_p(c^2)) except at golden traces: (c^2+2)^2 = (c^2+2) + 1,
      where it is the icosahedral SL(2,5) of order 120.  Exceptional c are
      roots of X^4 + 3X^2 + 1 = (X^2+sX+1)(X^2-sX+1) if s^2 = -1, or
      (X^2+sX-1)(X^2-sX-1) if s^2 = -5, or (X^2-r)(X^2-1/r) if r+1/r = -3
      (5 a square); over odd p one holds, as (-1)(-5) = 5.  So golden c have
      degree <= 2 <= D, and out-of-budget images have order at least
      |SL(2, p^ceil((D+1)/2))| since [F_p(c^2) : F_p] >= (D+1)/2.
    * Single constant unipotent generator over characteristic 0: images are
      unipotent, so nontrivial image orders are powers of the target prime,
      at least nextprime(P).
    * Otherwise 2 (any nontrivial group has order >= 2).
    """
    base = [spec.generators[l] for l in spec.base_labels]
    if spec.size == 2 and len(base) == 2:
        f = _opposite_unipotent_param(base)
        if f is not None:
            if spec.char == 0:
                q = next_prime(budget.max_prime)
                return q * (q + 1)
            p = spec.char
            if p % 2 and f.terms == {(1,): 1} and budget.max_degree >= 2:
                m = (budget.max_degree + 2) // 2
                return p**m * (p ** (2 * m) - 1)
            return 2
    if spec.size == 2 and len(base) == 1 and spec.char == 0:
        if _is_constant_unipotent(base[0]):
            return next_prime(budget.max_prime)
    return 2


def _opposite_unipotent_param(base: list) -> MultiPoly | None:
    """The common off-diagonal polynomial f, if the generators are
    [[1,f],[0,1]] and [[1,0],[f,1]] in either order; None otherwise."""
    params = []
    for mat in base:
        rows = mat.rows
        if not (_is_one(rows[0][0]) and _is_one(rows[1][1])):
            return None
        upper, lower = rows[0][1], rows[1][0]
        if not (upper.is_poly() and lower.is_poly()):
            return None
        if upper.is_zero() == lower.is_zero():
            return None
        corner = upper if not upper.is_zero() else lower
        params.append((not upper.is_zero(), corner.num))
    (u1, f1), (u2, f2) = params
    if u1 == u2 or f1 != f2:
        return None
    return f1


def _is_one(cell) -> bool:
    return cell.is_poly() and cell.num.is_one()


def _is_constant_unipotent(mat) -> bool:
    """Whether a characteristic-0 2 x 2 matrix has constant entries and
    (mat - I)^2 = 0, which by Cayley-Hamilton on mat - I means trace 2 and
    determinant 1."""
    cells = [cell for row in mat.rows for cell in row]
    if not all(cell.is_poly() and cell.num.is_const() for cell in cells):
        return False
    a, b, c, d = (cell.num.const_value() for cell in cells)
    return a + d == 2 and a * d - b * c == 1


@dataclass(frozen=True)
class ProfileRow:
    radius: int
    ball_size: int
    max_gl_bound: int
    max_image_order: int
    max_d_reduction: int
    exhaustive: bool
    budget_misses: int = 0


@dataclass(frozen=True)
class FarbProfile:
    rows: tuple[ProfileRow, ...]

    def row(self, radius: int) -> ProfileRow:
        return self.rows[radius - 1]


def farb_profile(spec: GroupSpec, n: int, budget: ReductionBudget = ReductionBudget()) -> FarbProfile:
    """Per-radius maxima of the witness bound, image order and reduction
    minimum over the punctured ball, cumulative in the radius.

    Elements whose reduction minimum falls outside the budget are counted in
    budget_misses and clear the exhaustive flag; the witness bound is still
    recorded for them.  A ball past budget.ball_budget raises BudgetExceeded.

    The call makes one HomMemo and shares it between its scanner and every
    separate, so each generator image, each torus class's image order and
    each candidate modulus is computed once; nothing outlives the call.
    """
    memo = HomMemo(spec, budget.order_budget)
    scanner = ReductionScanner(spec, budget, memo)
    max_glb = max_io = max_dr = misses = 0
    exhaustive = True
    by_radius: dict[int, list] = {}
    for el in ball_enumerate(spec, n, budget.ball_budget):
        by_radius.setdefault(el.word.length, []).append(el)
    rows = []
    count = 0
    for radius in range(1, n + 1):
        for el in by_radius.get(radius, ()):
            rec = separate(spec, el.word, gamma=el.matrix, order_budget=budget.order_budget, memo=memo)
            max_glb = max(max_glb, rec.gl_bound)
            if rec.image_order_exact:
                max_io = max(max_io, rec.image_order)
            try:
                dmin, exh = scanner.min_order(el.word)
            except (NotFoundWithinBudget, BudgetExceeded):
                misses += 1
                exhaustive = False
                continue
            if rec.image_order_exact and rec.field_size in scanner.field_sizes:
                if not dmin <= rec.image_order <= rec.gl_bound:
                    raise FinquotError(
                        f"reduction sandwich violated for {el.word.render()!r}:"
                        f" {dmin} <= {rec.image_order} <= {rec.gl_bound} fails"
                    )
            max_dr = max(max_dr, dmin)
            exhaustive = exhaustive and exh
        count += len(by_radius.get(radius, ()))
        rows.append(
            ProfileRow(
                radius=radius,
                ball_size=count,
                max_gl_bound=max_glb,
                max_image_order=max_io,
                max_d_reduction=max_dr,
                exhaustive=exhaustive,
                budget_misses=misses,
            )
        )
    return FarbProfile(rows=tuple(rows))


def word_growth(spec: GroupSpec, n: int) -> list[int]:
    """Cumulative element counts including the identity, radii 0..n."""
    fresh = [0] * (n + 1)
    for el in ball_enumerate(spec, n):
        fresh[el.word.length] += 1
    return list(itertools.accumulate(fresh[1:], initial=1))


def divisor_sum(m: int) -> int:
    total = 1
    for p, k in factorize(m).items():
        total *= (p ** (k + 1) - 1) // (p - 1)
    return total


def subgroup_growth_catalog(group_id: str, n: int) -> int:
    """s(n) for the catalog groups: Z has one subgroup per index, Z^2 has
    sigma(m) sublattices of index m."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if group_id == "Z":
        return n
    if group_id == "Z2":
        return sum(divisor_sum(m) for m in range(1, n + 1))
    raise ValueError(f"unknown catalog group {group_id!r}")


@dataclass(frozen=True)
class AuditReport:
    n_max: int
    all_pass: bool
    failures: tuple[int, ...]
    min_ratio: float
    min_ratio_at: int


def inequality_audit(n_max: int) -> AuditReport:
    """Pigeonhole instantiation for the integers: 2n+1 <= F(n)^F(n).

    The exponent is s(F(n)) with s(k) = k for the infinite cyclic group.
    F(n) = k on lcm(1..k-1) <= n < lcm(1..k), where 2n+1 grows and k^k does
    not, so an interval's failures are a suffix of it and its slack k^k / (2n+1)
    is least at its last n <= n_max: O(log n_max) ends, compared exactly, and
    only the reported minimum slack is a float.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    failures = []
    best_bound, best_w, min_at = 0, 1, 0
    lo, f, acc = 1, 2, 2  # F = f on lo <= n < acc = lcm(1..f)
    while lo <= n_max:
        hi = min(acc - 1, n_max)
        if lo <= hi:
            bound, w = f**f, 2 * hi + 1
            # 2n+1 > bound iff n >= (bound + 1) // 2
            failures.extend(range(max(lo, (bound + 1) // 2), hi + 1))
            if not min_at or bound * best_w < best_bound * w:
                best_bound, best_w, min_at = bound, w, hi
        lo, f, acc = acc, f + 1, math.lcm(acc, f + 1)
    return AuditReport(
        n_max=n_max,
        all_pass=not failures,
        failures=tuple(failures),
        min_ratio=best_bound / best_w,
        min_ratio_at=min_at,
    )


@dataclass(frozen=True)
class ThresholdRow:
    n: int
    value: int
    ratio: float


@dataclass(frozen=True)
class ThresholdReport:
    rows: tuple[ThresholdRow, ...]
    min_ratio: float
    min_ratio_at: int


THRESHOLD_MIN_N = 16


def threshold_check(samples: list[tuple[int, int]]) -> ThresholdReport:
    """(log F(n))^2 / log log n over (n, F(n)) pairs.

    Every n must be at least THRESHOLD_MIN_N and every value at least 1.
    Reports only; callers decide what ratio is acceptable.
    """
    rows = []
    for n, value in samples:
        if n < THRESHOLD_MIN_N:
            raise ValueError(f"threshold samples need n >= {THRESHOLD_MIN_N}")
        if value < 1:
            raise ValueError(f"threshold values must be >= 1, got {value} at n={n}")
        ratio = math.log(value) ** 2 / math.log(math.log(n))
        rows.append(ThresholdRow(n=n, value=value, ratio=ratio))
    if not rows:
        raise ValueError("no samples")
    best = min(rows, key=lambda r: r.ratio)
    return ThresholdReport(rows=tuple(rows), min_ratio=best.ratio, min_ratio_at=best.n)
