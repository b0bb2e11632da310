"""Separating a single polynomial: the heart of every witness.

Given a nonzero multivariate polynomial, we want a homomorphism to a small
finite field under which it stays nonzero.  Characteristic 0 goes through a
power substitution, an integer evaluation, and the least prime not dividing
that value; characteristic p swaps the prime search for a search over monic
irreducibles.  Both searches are constructive and the sizes are bounded a
priori by chain_prime_bound and the irreducible-count formula.
"""
from __future__ import annotations

from finquot import MultiPoly, chain_prime_bound, charp_witness, charzero_witness
from finquot.multipoly import substitution_exponents

# x1*x2 - 1 over the integers, in two variables
x1 = MultiPoly.variable(0, 2, 0)
x2 = MultiPoly.variable(0, 2, 1)
f = x1 * x2 - MultiPoly.const(0, 2, 1)
print(f"f = {f.render(['x1', 'x2'])}  (char 0)")

exponents = substitution_exponents(f)
print(f"  power substitution x_i -> x^n_i with n = {exponents} (recursion)")

hom = charzero_witness(f)
print(f"  witness: {hom.describe()}, evaluation point ell = {hom.ell}")
print(f"  image of f: {hom.field.render(hom.apply(f))}  (nonzero, as promised)")

# exclude the prime the first witness found and ask again
excluded = frozenset({hom.char})
hom2 = charzero_witness(f, excluded)
print(f"  excluding p = {hom.char}: next witness lands in {hom2.describe()}")

# the a-priori cap on the prime: product of admissible primes must beat the value bound
g = f.substitute_sparse(exponents)
bound = (max(g) + 1) * hom.ell ** max(g) * max(abs(c) for c in g.values())
print(f"  chain bound: p <= {chain_prime_bound(bound)} (value bound {bound})")

# same story in characteristic 2, where primes are replaced by irreducibles
y = MultiPoly.variable(2, 1, 0)
h = y * y + y  # x^2 + x = x(x+1) vanishes at every F_2 point
print(f"\nh = {h.render(['y'])}  (char 2); h vanishes on all of F_2 itself")
homp = charp_witness(h)
print(f"  witness modulus: {homp.modulus.render()} -> field of size {homp.field_size}")
print(f"  image of h: {homp.field.render(homp.apply(h))}")
