"""Constructive finite-field witnesses for nontrivial group elements.

Given a nonzero polynomial, charzero_witness / charp_witness build a ring
homomorphism into a finite field under which the polynomial survives.
separate() lifts that to groups: it picks a nonzero entry of the scaled
difference phi^len(w) * (w - I), folds phi in so denominators stay units,
finds a witness homomorphism, and checks that the induced matrix map keeps
the word away from the identity.  Everything returned is re-checkable by
verify_witness without rerunning the search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import primes, smallest_prime_not_dividing
from .errors import FinquotError, IdentityWordError
from .fields import Field, finite_field
from .groups import GroupSpec, Word, inverse_label, scaled_difference, word_evaluate
from .multipoly import MultiPoly, substitution_exponents
from .ratfunc import FieldMatrix
from .unipoly import UniPoly, enumerate_irreducibles

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


def charp_witness(f: MultiPoly) -> FieldHom:
    """An extension field F_p[x]/(h) and images under which f survives.

    After the power substitution, the result g has at most deg(g)/ell monic
    irreducible factors of degree ell, so scanning degrees upward finds an
    irreducible non-divisor h; the variable images x^(n_i) mod h then keep
    f nonzero.  The scan is by lexicographic order within each degree.
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
        for h in enumerate_irreducibles(p, ell):
            if _sparse_mod(g, h):
                modulus = h
                break
    hom = FieldHom.derive(p, modulus, exponents, ell)
    if hom.apply(f) == 0:
        raise FinquotError("witness construction failed to preserve f")
    return hom


def _sparse_mod(g: dict[int, int], h: UniPoly) -> dict[int, int]:
    """g mod h for sparse g, via per-monomial powmod; empty dict means h | g."""
    x = UniPoly.x(h.char)
    acc = UniPoly.zero(h.char)
    for d, c in g.items():
        acc = acc + x.powmod(d, h).scale(c)
    return {i: c for i, c in enumerate(acc.coeffs) if c}


def polynomial_witness(f: MultiPoly, excluded: frozenset[int] = frozenset()) -> FieldHom:
    return charp_witness(f) if f.char else charzero_witness(f, excluded)


def separate(
    spec: GroupSpec,
    word: Word,
    gamma: FieldMatrix | None = None,
    order_budget: int | None = None,
) -> WitnessRecord:
    """A finite quotient of the group in which the given word survives.

    Raises IdentityWordError when the word is trivial (checked exactly).
    With order_budget set, the record carries image_order's result: the
    exact order of the image group, or the GL bound as non-exact past it.
    """
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
    hom = polynomial_witness(target, spec.excluded_primes)

    field = hom.field
    ims = hom.generator_images(spec)
    verified = word_image(word.letters, ims, field, spec.size) != field.identity(spec.size)
    if not verified:
        raise FinquotError("witness homomorphism failed to move the word off the identity")

    order = exact = None
    if order_budget is not None:
        order, exact = image_order(spec, hom, order_budget)
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


def image_order(spec: GroupSpec, hom: FieldHom, budget: int = ORDER_BUDGET) -> tuple[int, bool]:
    """Exact order of the image group by a stabilizer chain, or (gl_bound, False)
    when the order exceeds budget."""
    ims = hom.generator_images(spec)
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

    The group acts on row vectors with the standard basis as its base: the
    image of e_k under g is row k of g.  Level k holds the strong generators
    that fix e_0..e_{k-1}, the orbit of e_k under them, and a transversal
    mapping each orbit point to a pair (u, u^-1) with e_k u = point.  Every
    (orbit point, strong generator) pair is handled once: it extends the
    orbit or yields a Schreier generator, which is sifted through the deeper
    levels; a residue that does not sift becomes a strong generator of the
    levels k+1..j whose base points it fixes.  Transversal entries never
    change, so a pair that sifted once stays sifted, and once every pair is
    handled the order is the product of the orbit lengths.  That product is
    a lower bound on the order throughout, so the result is (order, True)
    iff the order is at most budget, and (a lower bound above budget, False)
    otherwise.
    """
    mul = field.product(m)
    ident = field.identity(m)
    base = [ident[k * m:(k + 1) * m] for k in range(m)]
    strong = [list(pairs)] + [[] for _ in range(m - 1)]
    trans = [{base[k]: (ident, ident)} for k in range(m)]
    orbits = [[base[k]] for k in range(m)]
    # paired[k][i]: how many of strong[k] orbit point i has been paired with
    paired = [[0] for _ in range(m)]
    size = 1

    def sift(h, k):
        """(residue, level it fails at, transversal elements divided out); level m if h sifts."""
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
        """Handle every pair at level k; False as soon as the orbit product passes budget."""
        nonlocal size
        gens, table, orbit, done = strong[k], trans[k], orbits[k], paired[k]
        lo, hi = k * m, (k + 1) * m
        i = 0
        while i < len(orbit):
            u, u_inv = table[orbit[i]]
            while done[i] < len(gens):
                s, s_inv = gens[done[i]]
                done[i] += 1
                us = mul(u, s)
                point = us[lo:hi]
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
                    continue  # the stabilizer of the whole basis is trivial
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


def chain_prime_bound(value_bound: int, excluded: frozenset[int] = frozenset()) -> int:
    """Smallest prime P so the product of admissible primes up to P exceeds the bound.

    If the product of non-excluded primes up to P exceeds |i|, some admissible
    prime up to P fails to divide i, so the witness prime is at most P.
    """
    prod = 1
    for p in primes():
        if p in excluded:
            continue
        prod *= p
        if prod > value_bound:
            return p
    raise AssertionError("unreachable")