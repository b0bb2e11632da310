"""Finitely generated matrix groups over function fields.

A GroupSpec bundles labeled generators (closed under inverse), the
denominator-clearing polynomial phi, and the primes phi inverts.  On top of
that sit exact word evaluation, the scaled difference phi^len(w) * (w - I)
whose entries are honest polynomials, and breadth-first ball enumeration
with exact dedup by canonical matrix form.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce

from .algebra import factorize, is_prime
from .errors import BudgetExceeded
from .multipoly import MultiPoly, mp_divexact, mp_gcd
from .ratfunc import FieldMatrix, RatFunc

BALL_BUDGET = 200_000

_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_TOKEN_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?\Z")

INVERSE_SUFFIX = "^-1"


@dataclass(frozen=True)
class Word:
    """A word in the generator alphabet; inverse letters carry the ^-1 suffix."""

    letters: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.letters)

    def render(self) -> str:
        return " ".join(self.letters)

    def __repr__(self) -> str:
        return f"Word({self.render()!r})"


def inverse_label(label: str) -> str:
    """The label of the inverse letter: a <-> a^-1."""
    return label.removesuffix(INVERSE_SUFFIX) if label.endswith(INVERSE_SUFFIX) else label + INVERSE_SUFFIX


def parse_word(text: str, alphabet) -> Word:
    """Expand 'a b^-1 a^2' into letters; every base label must be known."""
    letters: list[str] = []
    tokens = text.split()
    if not tokens:
        raise ValueError("empty word")
    for tok in tokens:
        m = _TOKEN_RE.match(tok)
        if not m:
            raise ValueError(f"bad word token {tok!r}")
        base, exp = m.group(1), int(m.group(2)) if m.group(2) is not None else 1
        if base not in alphabet:
            raise ValueError(f"unknown generator {base!r}")
        if exp >= 0:
            letters.extend([base] * exp)
        else:
            letters.extend([inverse_label(base)] * (-exp))
    if not letters:
        raise ValueError("word reduces to no letters (zero exponent)")
    return Word(tuple(letters))


def check_characteristic(char) -> None:
    """Raise ValueError unless char is an int (not a bool) that is 0 or a prime."""
    if type(char) is not int or (char != 0 and not is_prime(char)):
        raise ValueError("characteristic must be 0 or a prime")


def compute_phi(matrices, char: int, nvars: int) -> tuple[MultiPoly, frozenset[int]]:
    """Least common multiple of all entry denominators, plus the primes it inverts.

    phi * entry is a polynomial for every entry of every given matrix, and in
    characteristic 0 the excluded set is exactly the primes dividing some
    denominator's integer content (those are units after clearing and can
    never serve as witness targets).
    """
    phi = MultiPoly.const(char, nvars, 1)
    for mat in matrices:
        for row in mat.rows:
            for entry in row:
                if not entry.is_poly():
                    phi = mp_divexact(phi * entry.den, mp_gcd(phi, entry.den))
    if char == 0:
        content = math.gcd(*phi.terms.values())
        excluded = frozenset(factorize(content)) if content > 1 else frozenset()
    else:
        excluded = frozenset()
    return phi, excluded


class GroupSpec:
    """Immutable description of a matrix group over Q(T) or F_p(T).

    generators maps every label and its inverse label to a matrix;
    base_labels holds the given labels alone, sorted.
    """

    __slots__ = ("char", "variables", "size", "generators", "base_labels", "phi", "excluded_primes")

    def __init__(self, char: int, variables: tuple[str, ...], generators: dict[str, FieldMatrix]):
        check_characteristic(char)
        if not generators:
            raise ValueError("at least one generator required")
        variables = tuple(variables)
        sizes = {g.size for g in generators.values()}
        if len(sizes) != 1:
            raise ValueError("generators must share one size")
        for label in generators:
            if not _LABEL_RE.match(label):
                raise ValueError(f"bad generator label {label!r}")
        alphabet: dict[str, FieldMatrix] = {}
        for label, mat in sorted(generators.items()):
            if mat.char != char or mat.nvars != len(variables):
                raise ValueError(f"generator {label!r} has wrong coefficient domain")
            try:
                inverse = mat.inverse()
            except ZeroDivisionError:
                raise ValueError(f"generator {label!r} is singular") from None
            alphabet[label] = mat
            alphabet[inverse_label(label)] = inverse
        self.char = char
        self.variables = variables
        self.size = sizes.pop()
        self.generators = alphabet
        self.base_labels = tuple(sorted(generators))
        self.phi, self.excluded_primes = compute_phi(alphabet.values(), char, len(variables))

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def matrix(self, label: str) -> FieldMatrix:
        try:
            return self.generators[label]
        except KeyError:
            raise ValueError(f"unknown generator {label!r}") from None

    def identity(self) -> FieldMatrix:
        return FieldMatrix.identity(self.char, self.nvars, self.size)

    def word(self, text: str) -> Word:
        return parse_word(text, self.generators)


def word_evaluate(spec: GroupSpec, word: Word) -> FieldMatrix:
    if not word.letters:
        raise ValueError("empty word")
    return reduce(lambda acc, l: acc * spec.matrix(l), word.letters[1:], spec.matrix(word.letters[0]))


def scaled_difference(spec: GroupSpec, word: Word, gamma: FieldMatrix | None = None):
    """phi^len(w) * (w - I) as a matrix of polynomials (tuple of tuples).

    Entry (i, j) is phi^len(w) * (num - [i = j] * den) divided exactly by
    den, for gamma's canonical fraction num/den.  That every entry clears
    to a polynomial is the load-bearing fact here; mp_divexact raises
    ValueError if it ever failed.  A phi of 1 skips the power and a den of 1
    the division.
    """
    if gamma is None:
        gamma = word_evaluate(spec, word)
    scale = None if spec.phi.is_one() else spec.phi ** word.length

    def clear(e, diagonal):
        f = e.num - e.den if diagonal else e.num
        f = f if scale is None else scale * f
        return f if e.den.is_one() else mp_divexact(f, e.den)

    return tuple(tuple(clear(e, i == j) for j, e in enumerate(row)) for i, row in enumerate(gamma.rows))


@dataclass(frozen=True)
class BallElement:
    word: Word
    matrix: FieldMatrix


def ball_enumerate(spec: GroupSpec, n: int, budget: int = BALL_BUDGET) -> list[BallElement]:
    """All nontrivial elements of word length <= n, each with a shortest word.

    Breadth-first over the alphabet in sorted label order, dedup by exact
    canonical matrix form.  A word is never extended by the inverse of its
    last letter: that product is the parent, which is already seen.  Output
    is sorted by (length, canonical text) so the order is reproducible.
    Raises BudgetExceeded past `budget` distinct elements, reporting how
    many had been found.
    """
    if n < 1:
        raise ValueError("radius must be >= 1")
    labels = sorted(spec.generators)
    ident = spec.identity()
    seen: set[FieldMatrix] = {ident}
    out: list[BallElement] = []
    frontier: list[tuple[tuple[str, ...], FieldMatrix]] = [((), ident)]
    for _ in range(n):
        nxt: list[tuple[tuple[str, ...], FieldMatrix]] = []
        for letters, mat in frontier:
            back = inverse_label(letters[-1]) if letters else None
            for label in labels:
                if label == back:
                    continue
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
    names = spec.variables
    out.sort(key=lambda el: (el.word.length, el.matrix.render(names)))
    return out


# Worked examples used across tests, demos and the command line.


def _mat(char: int, nvars: int, entries) -> FieldMatrix:
    rows = []
    for row in entries:
        cells = []
        for e in row:
            if isinstance(e, RatFunc):
                cells.append(e)
            elif isinstance(e, MultiPoly):
                cells.append(RatFunc.of_poly(e))
            else:
                cells.append(RatFunc.const(char, nvars, e))
        rows.append(tuple(cells))
    return FieldMatrix(tuple(rows))


def sanov_group(char: int = 0) -> GroupSpec:
    """a = [[1, t], [0, 1]], b = [[1, 0], [t, 1]] over Q(t) or F_p(t).

    Over Q(t) this pair generates a free group of rank 2.
    """
    t = MultiPoly.variable(char, 1, 0)
    a = _mat(char, 1, ((1, t), (0, 1)))
    b = _mat(char, 1, ((1, 0), (t, 1)))
    return GroupSpec(char, ("t",), {"a": a, "b": b})


def cyclic_group() -> GroupSpec:
    """The infinite cyclic group generated by [[1, 1], [0, 1]] over Q."""
    a = _mat(0, 0, ((1, 1), (0, 1)))
    return GroupSpec(0, (), {"a": a})


def diagonal_group() -> GroupSpec:
    """a = [[t, 0], [0, 1/t]] over Q(t); phi = t with no excluded primes."""
    t = MultiPoly.variable(0, 1, 0)
    one = MultiPoly.const(0, 1, 1)
    a = _mat(0, 1, ((t, 0), (0, RatFunc(one, t))))
    return GroupSpec(0, ("t",), {"a": a})


NAMED_GROUPS = {
    "sanov": lambda: sanov_group(0),
    "sanov_f3": lambda: sanov_group(3),
    "cyclic": cyclic_group,
    "diagonal": diagonal_group,
}