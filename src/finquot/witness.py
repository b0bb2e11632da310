"""Constructive finite-field witnesses for nontrivial group elements.

Given a nonzero polynomial, charzero_witness / charp_witness build a ring
homomorphism into a finite field under which the polynomial survives.
separate() lifts that to groups: it picks a nonzero entry of the scaled
difference phi^len(w) * (w - I), folds phi in so denominators stay units,
finds a witness homomorphism, and checks that the induced matrix map keeps
the word away from the identity.  Everything returned is re-checkable by
verify_witness without rerunning the search.

A HomMemo holds the hom-level results of one command (generator images,
image orders per torus class, and the monic irreducibles tried so far), so
that a profile computes each of them once; nothing in it outlives the memo.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .algebra import primes, smallest_prime_not_dividing
from .errors import FinquotError, IdentityWordError
from .fields import Field, finite_field
from .groups import GroupSpec, Word, inverse_label, scaled_difference, word_evaluate
from .multipoly import MultiPoly, substitution_exponents
from .ratfunc import FieldMatrix
from .unipoly import UniPoly, _monic, _mulmod, _powmod, enumerate_irreducibles

ORDER_BUDGET = 200_000


@dataclass(frozen=True)
class FieldHom:
    """A homomorphism from the coefficient ring into a finite field.

    Characteristic-0 sources map into the prime field Z/p (modulus None);
    characteristic-p sources map into F_p[x]/(modulus).  images are the
    variables' images, encoded as in fields.Field.  exponents and ell record
    how derive() built the images, enough to audit the construction.
    """

    char: int
    modulus: UniPoly | None
    images: tuple[int, ...]
    exponents: tuple[int, ...]
    ell: int | None = None

    @classmethod
    def derive(cls, char: int, modulus: UniPoly | None, exponents: tuple[int, ...], ell: int) -> FieldHom:
        """The hom sending x_i to ell^(n_i) mod p (modulus None) or to x^(n_i)
        mod modulus, for the power-substitution exponents n_i."""
        field = finite_field(char, modulus)
        base = ell if modulus is None else field.encode((0, 1))
        return cls(char, modulus, tuple(field.pow(base, n) for n in exponents), exponents, ell)

    @property
    def field(self) -> Field:
        return finite_field(self.char, self.modulus)

    @property
    def field_size(self) -> int:
        return self.field.q

    def apply(self, f: MultiPoly) -> int:
        """Encoded image of a polynomial; source arity must match the image tuple."""
        return f.evaluate(self.images, self.field)

    def apply_matrix(self, mat: FieldMatrix) -> tuple[int, ...]:
        """Entrywise image of a matrix of rational functions, flat and row-major.

        Denominators must map to units, or Field.inv raises; separate()
        precludes that by folding phi into the witness target.
        """
        field = self.field
        cells = []
        for row in mat.rows:
            for entry in row:
                value = entry.num.evaluate(self.images, field)
                if not entry.is_poly():
                    value = field.mul(value, field.inv(entry.den.evaluate(self.images, field)))
                cells.append(value)
        return tuple(cells)

    def generator_images(self, spec: GroupSpec) -> dict[str, tuple[int, ...]]:
        """apply_matrix of every generator and inverse, keyed by label."""
        return {label: self.apply_matrix(mat) for label, mat in spec.generators.items()}

    def describe(self) -> str:
        field = self.field
        ims = ", ".join(field.render(v) for v in self.images)
        return f"F_{field.q}[{ims}]"


@dataclass(frozen=True)
class WitnessRecord:
    """A self-contained certificate that a word survives in a finite quotient."""

    word: Word
    word_length: int
    entry: tuple[int, int]
    hom: FieldHom
    field_size: int
    gl_bound: int
    image_order: int | None
    image_order_exact: bool | None
    verified: bool


class HomMemo:
    """Hom-level results for one spec and one order budget, each computed once.

    One farb_profile call makes one memo and hands it to its scanner and to
    every separate; a call given no memo makes a fresh one, so this is the
    only path.  It holds three tables, and nothing in them outlives the memo:

    * the generator images of each hom, keyed by (char, modulus, images), so
      a witness hom and the scan hom with the same images share them;
    * the image order of each torus class (torus_key), built only when an
      order is asked for;
    * per (p, ell), the prefix of enumerate_irreducibles read so far, so
      each candidate modulus gets one Rabin test.
    """

    def __init__(self, spec: GroupSpec, order_budget: int | None):
        self.spec = spec
        self.order_budget = order_budget
        self._images = {}
        self._orders = {}
        self._irreducibles = {}

    @classmethod
    def bind(cls, spec: GroupSpec, order_budget: int | None, memo: HomMemo | None) -> HomMemo:
        """memo, or a fresh memo if it is None; refuses one made for another
        spec or order budget."""
        if memo is None:
            return cls(spec, order_budget)
        if memo.spec is not spec or memo.order_budget != order_budget:
            raise ValueError("memo is bound to another spec or order budget")
        return memo

    def images(self, hom: FieldHom) -> dict[str, tuple[int, ...]]:
        """hom.generator_images(spec), once per hom."""
        key = (hom.char, hom.modulus, hom.images)
        ims = self._images.get(key)
        if ims is None:
            ims = self._images[key] = hom.generator_images(self.spec)
        return ims

    def order(self, hom: FieldHom) -> tuple[int, bool]:
        """image_order at the memo's budget, once per torus class."""
        ims = self.images(hom)
        base = [ims[label] for label in self.spec.base_labels]
        key = (hom.char, hom.modulus, torus_key(base, hom.field, self.spec.size))
        result = self._orders.get(key)
        if result is None:
            result = self._orders[key] = image_order(self.spec, hom, self.order_budget, self)
        return result

    def irreducibles(self, p: int, ell: int):
        """enumerate_irreducibles(p, ell): the prefix read so far, then the
        same generator resumed, so readers may interleave."""
        key = (p, ell)
        if key not in self._irreducibles:
            self._irreducibles[key] = ([], enumerate_irreducibles(p, ell))
        found, source = self._irreducibles[key]
        for i in itertools.count():
            if i == len(found):
                try:
                    found.append(next(source))
                except StopIteration:
                    return
                except BaseException:
                    # a failed generator cannot resume; the next reader starts afresh
                    del self._irreducibles[key]
                    raise
            yield found[i]


def torus_key(base, field: Field, m: int) -> tuple[tuple[int, ...], ...]:
    """The base-generator images conjugated by the diagonal D that sets every
    entry of a spanning forest of their off-diagonal support to 1.

    The forest takes the nonzero off-diagonal positions, generators in order
    and positions row-major, and keeps each that joins two components; D
    rescales the far component as each edge joins.  Conjugating by a diagonal matrix moves no nonzero
    position, so it keeps the forest; and D is unique up to one scalar per
    component, which cancels, since no nonzero entry joins two components.
    So two image tuples have the same key iff a diagonal matrix conjugates
    one into the other, and then their image groups have the same order.
    """
    comp, d = list(range(m)), [1] * m
    mul = field.mul
    for g in base:
        for i, j in itertools.permutations(range(m), 2):
            v = g[i * m + j]
            if v and comp[i] != comp[j]:
                # scale j's component so that d_i * v * d_j^-1 = 1
                old, scale = comp[j], mul(mul(d[i], v), field.inv(d[j]))
                for k in range(m):
                    if comp[k] == old:
                        comp[k], d[k] = comp[i], mul(d[k], scale)
    d_inv = [field.inv(v) for v in d]
    return tuple(
        tuple(mul(mul(d[i], g[i * m + j]), d_inv[j]) for i in range(m) for j in range(m)) for g in base
    )


def charzero_witness(f: MultiPoly, excluded: frozenset[int] = frozenset()) -> FieldHom:
    """A prime p and residues under which the integer polynomial f survives.

    Substitute x_i -> x^(n_i) keeping f nonzero, evaluate the result at the
    first point ell in 1..deg+1 where it is nonzero, and take the smallest
    admissible prime not dividing that value.  The variable images are then
    ell^(n_i) mod p, and f maps to the chosen nonzero value mod p.
    """
    if f.char != 0:
        raise ValueError("characteristic-0 input required")
    if f.is_zero():
        raise ValueError("zero polynomial has no witness")
    exponents = substitution_exponents(f)
    g = f.substitute_sparse(exponents)
    r = max(g)
    big_a = max(abs(c) for c in g.values())
    ell, value = 0, 0
    for cand in range(1, r + 2):
        value = sum(c * cand**d for d, c in g.items())
        if value:
            ell = cand
            break
    if not ell:
        raise FinquotError("a degree-r polynomial cannot vanish at r+1 points")
    if abs(value) > (r + 1) * ell**r * big_a:
        raise FinquotError("evaluation bound violated")
    hom = FieldHom.derive(smallest_prime_not_dividing(value, excluded), None, exponents, ell)
    if hom.apply(f) == 0:
        raise FinquotError("witness construction failed to preserve f")
    return hom


def charp_witness(f: MultiPoly, irreducibles=enumerate_irreducibles) -> FieldHom:
    """An extension field F_p[x]/(h) and images under which f survives.

    After the power substitution, the result g has at most deg(g)/ell monic
    irreducible factors of degree ell, so scanning degrees upward finds an
    irreducible non-divisor h; the variable images x^(n_i) mod h then keep
    f nonzero.  The scan is by lexicographic order within each degree, as
    irreducibles(p, ell) yields them (enumerate_irreducibles, or a HomMemo's
    prefix of it).
    """
    p = f.char
    if not p:
        raise ValueError("positive characteristic input required")
    if f.is_zero():
        raise ValueError("zero polynomial has no witness")
    exponents = substitution_exponents(f)
    g = f.substitute_sparse(exponents)
    deg_g = max(g)
    modulus = None
    ell = 0
    while modulus is None:
        ell += 1
        if ell > deg_g + 1:
            raise FinquotError("degree scan must terminate by the factor-count bound")
        for h in irreducibles(p, ell):
            if _sparse_mod(g, h):
                modulus = h
                break
    hom = FieldHom.derive(p, modulus, exponents, ell)
    if hom.apply(f) == 0:
        raise FinquotError("witness construction failed to preserve f")
    return hom


def _sparse_mod(g: dict[int, int], h: UniPoly) -> dict[int, int]:
    """g mod h for sparse g and deg h > 0, as the sum of c * (x^d mod h) on tuples,
    never dense in the degree of g; empty dict means h | g."""
    p = h.char
    hc = h.coeffs if h.is_monic() else _monic(h.coeffs, p)
    x = _mulmod((0, 1), (1,), hc, p)
    acc = [0] * h.degree
    for d, c in g.items():
        for i, a in enumerate(_powmod(x, d, hc, p)):
            acc[i] += c * a
    return {i: c % p for i, c in enumerate(acc) if c % p}


def polynomial_witness(
    f: MultiPoly, excluded: frozenset[int] = frozenset(), irreducibles=enumerate_irreducibles
) -> FieldHom:
    return charp_witness(f, irreducibles) if f.char else charzero_witness(f, excluded)


def separate(
    spec: GroupSpec,
    word: Word,
    gamma: FieldMatrix | None = None,
    order_budget: int | None = None,
    memo: HomMemo | None = None,
) -> WitnessRecord:
    """A finite quotient of the group in which the given word survives.

    Raises IdentityWordError when the word is trivial (checked exactly).
    With order_budget set, the record carries image_order's result: the
    exact order of the image group, or the GL bound as non-exact past it.
    memo, bound to spec and order_budget, shares hom-level work between
    calls; without one, the call makes its own.
    """
    memo = HomMemo.bind(spec, order_budget, memo)
    if gamma is None:
        gamma = word_evaluate(spec, word)
    if gamma.is_identity():
        raise IdentityWordError(f"word {word.render()!r} is the identity")
    scaled = scaled_difference(spec, word, gamma)
    cells = [
        ((i, j), scaled[i][j])
        for i in range(spec.size)
        for j in range(spec.size)
        if not scaled[i][j].is_zero()
    ]
    (i, j), cell = min(cells, key=lambda pair: (pair[1].total_degree(), pair[0]))
    target = spec.phi * cell
    hom = polynomial_witness(target, spec.excluded_primes, memo.irreducibles)

    field = hom.field
    ims = memo.images(hom)
    verified = word_image(word.letters, ims, field, spec.size) != field.identity(spec.size)
    if not verified:
        raise FinquotError("witness homomorphism failed to move the word off the identity")

    order = exact = None
    if order_budget is not None:
        order, exact = memo.order(hom)
    return WitnessRecord(
        word=word,
        word_length=word.length,
        entry=(i, j),
        hom=hom,
        field_size=hom.field_size,
        gl_bound=gl_order_bound(hom.field_size, spec.size),
        image_order=order,
        image_order_exact=exact,
        verified=verified,
    )


def verify_witness(spec: GroupSpec, record: WitnessRecord) -> tuple[bool, str]:
    """Independent certificate check; returns (ok, reason).

    Re-derives nothing from the search: checks that the target field has the
    spec's characteristic (a characteristic-0 spec maps into any finite
    field), field-size consistency, that the entry is a cell of the matrix,
    that the record claims verified, that phi, which every generator
    denominator divides, stays a unit, that the images are the ones
    FieldHom.derive builds for both searches (with ell = deg h over an
    extension field), that each generator's image times its inverse's image
    is the identity, that the word's image W differs from the identity at
    the claimed entry, and the image-order claim: none, the GL bound as
    inexact, or an exact order that image_order reproduces with the claimed
    order as its budget, so the recomputation costs no more than the claim.
    """
    hom = record.hom
    m = spec.size
    if spec.char and hom.char != spec.char:
        return False, "characteristic-mismatch"
    if hom.field_size != record.field_size:
        return False, "field-size-mismatch"
    if record.gl_bound != gl_order_bound(record.field_size, m):
        return False, "gl-bound-mismatch"
    entry = record.entry
    if not (
        isinstance(entry, tuple) and len(entry) == 2 and all(type(v) is int and 0 <= v < m for v in entry)
    ):
        return False, "entry-out-of-range"
    if record.verified is not True:
        return False, "not-verified"
    if len(hom.images) != spec.nvars:
        return False, "image-arity-mismatch"
    if hom.apply(spec.phi) == 0:
        return False, "denominator-killed"
    field = hom.field
    ell, exps = hom.ell, hom.exponents
    if not (
        type(ell) is int and ell > 0 and all(type(n) is int and n >= 0 for n in exps)
        and (hom.modulus is None or ell == hom.modulus.degree)
        and FieldHom.derive(hom.char, hom.modulus, exps, ell).images == hom.images
    ):
        return False, "hom-derivation-mismatch"
    ims = hom.generator_images(spec)
    mul, ident = field.product(m), field.identity(m)
    # image(g) * image(g^-1) = I makes both images invertible
    for label in spec.base_labels:
        if mul(ims[label], ims[inverse_label(label)]) != ident:
            return False, "singular-generator"
    letters = record.word.letters
    if record.word_length != len(letters):
        return False, "length-mismatch"
    if any(l not in ims for l in letters):
        return False, "unknown-letter"
    prod = word_image(letters, ims, field, m)
    if prod == ident:
        return False, "word-collapses"
    # hom maps the cell of phi^|w| * (w - I) to hom(phi)^|w| * (W - I)[entry],
    # and hom(phi) != 0, so the claimed cell survives iff W moves that entry
    cell = entry[0] * m + entry[1]
    if prod[cell] == ident[cell]:
        return False, "entry-unmoved"
    order, exact = record.image_order, record.image_order_exact
    if exact is False:
        if order != record.gl_bound:
            return False, "inexact-order-not-gl-bound"
    elif exact is True:
        if not (type(order) is int and order > 0 and image_order(spec, hom, order) == (order, True)):
            return False, "image-order-mismatch"
    elif exact is not None or order is not None:
        return False, "image-order-mismatch"
    return True, "ok"


def image_order(
    spec: GroupSpec, hom: FieldHom, budget: int = ORDER_BUDGET, memo: HomMemo | None = None
) -> tuple[int, bool]:
    """Exact order of the image group by a stabilizer chain, or (gl_bound, False)
    when the order exceeds budget.  The generator images come from memo."""
    ims = HomMemo.bind(spec, budget, memo).images(hom)
    pairs = [(ims[l], ims[inverse_label(l)]) for l in spec.base_labels]
    order, exact = stabilizer_chain_order(pairs, hom.field, spec.size, budget)
    if not exact:
        return gl_order_bound(hom.field_size, spec.size), False
    return order, True


def gl_order_bound(q: int, m: int) -> int:
    """q^(m^2), the bound on |GL_m(F_q)| that every record carries."""
    return q ** (m * m)


def word_image(letters, images, field: Field, m: int) -> tuple[int, ...]:
    """The product of the images of the letters, left to right."""
    mul = field.product(m)
    prod = field.identity(m)
    for letter in letters:
        prod = mul(prod, images[letter])
    return prod


def stabilizer_chain_order(pairs, field: Field, m: int, budget: int) -> tuple[int, bool]:
    """Order of the group generated by (g, g^-1) pairs of m x m matrices, by a
    deterministic Schreier-Sims stabilizer chain (Sims 1970; Butler 1976).

    The group acts on row vectors with the standard base for matrix groups
    (Murray & O'Brien 1995): the lines [e_0], ..., [e_{m-1}]; the line of
    (1, ..., 1), whose stabilizer in the diagonal matrices is the scalars; and
    the vector e_0, whose stabilizer in the scalars is trivial.  A line is its
    vector scaled to a first nonzero coordinate of 1; the image of base point k
    under g is row k of g (the sum of the rows for (1, ..., 1)), so scaled.
    Level k holds the strong generators that fix base points 0..k-1, the orbit
    of base point k under them, and a transversal mapping each orbit point to
    a pair (u, u^-1) with u carrying the base point to it.  Every (orbit point,
    strong generator) pair is handled once: it extends the orbit or yields a
    Schreier generator, which is sifted through the deeper levels; a residue
    that does not sift becomes a strong generator of the levels k+1..j whose
    base points it fixes.  Transversal entries never change, so a pair that
    sifted once stays sifted, and once every pair is handled the order is the
    product of the orbit lengths.  That product is a lower bound on the order
    throughout, so the result is (order, True) iff the order is at most budget,
    and (a lower bound above budget, False) otherwise.
    """
    mul, add, scale, inv = field.product(m), field.add, field.mul, field.inv
    ident = field.identity(m)
    top = m + 1  # the level of the vector e_0

    def image(h, k):
        """The image of base point k under h."""
        if k == top:
            return h[:m]
        if k < m:
            v = h[k * m:(k + 1) * m]
        else:
            v = h[:m]
            for i in range(m, m * m, m):
                v = tuple(map(add, v, h[i:i + m]))
        lead = next(filter(None, v))
        return v if lead == 1 else tuple(map(scale, itertools.repeat(inv(lead), m), v))

    levels = range(m + 2)
    base = [image(ident, k) for k in levels]
    strong = [list(pairs)] + [[] for _ in range(top)]
    trans = [{base[k]: (ident, ident)} for k in levels]
    orbits = [[base[k]] for k in levels]
    # paired[k][i]: how many of strong[k] orbit point i has been paired with
    paired = [[0] for _ in levels]
    size = 1

    def sift(h, k):
        """(residue, level it fails at, transversal elements divided out); level m + 2 if h sifts."""
        used = []
        for j in range(k, m + 2):
            point = image(h, j)
            if point == base[j]:
                continue
            entry = trans[j].get(point)
            if entry is None:
                return h, j, used
            if j < top:
                h = mul(h, entry[1])
                used.append(entry[0])
        return h, m + 2, used

    def complete(k):
        """Handle every pair at level k; False as soon as the orbit product passes budget."""
        nonlocal size
        gens, table, orbit, done = strong[k], trans[k], orbits[k], paired[k]
        i = 0
        while i < len(orbit):
            u, u_inv = table[orbit[i]]
            while done[i] < len(gens):
                s, s_inv = gens[done[i]]
                done[i] += 1
                us = mul(u, s)
                point = image(us, k)
                entry = table.get(point)
                if entry is None:
                    table[point] = (us, mul(s_inv, u_inv))
                    orbit.append(point)
                    done.append(0)
                    size = size // (len(orbit) - 1) * len(orbit)
                    if size > budget:
                        return False
                    continue
                if k == top:
                    continue  # the stabilizer of the whole base is trivial
                h, j, used = sift(mul(us, entry[1]), k + 1)
                if j == m + 2:
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


def chain_prime_bound(value_bound: int, excluded: frozenset[int] = frozenset()) -> int:
    """Smallest prime P so the product of admissible primes up to P exceeds the bound.

    If the product of non-excluded primes up to P exceeds |i|, some admissible
    prime up to P fails to divide i, so the witness prime is at most P.
    """
    admissible, factors = itertools.tee(p for p in primes() if p not in excluded)
    products = itertools.accumulate(factors, operator.mul)
    return next(p for p, prod in zip(admissible, products) if prod > value_bound)
