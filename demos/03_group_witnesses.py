"""End to end: separate a group element from the identity in a finite quotient.

The running example is the Sanov pair over Q(t): the unipotent matrices
[[1,t],[0,1]] and [[1,0],[t,1]], which generate a free group of rank 2.
For any nontrivial word w we produce a finite field F_q, images of the
generators in GL(2, F_q), and the nonzero matrix entry that certifies w
does not collapse.  verify_witness re-checks the certificate from scratch.
"""
from __future__ import annotations

from finquot import image_order, sanov_group, separate, verify_witness, word_evaluate

spec = sanov_group()
word = spec.word("a b a^-1 b^-1")
gamma = word_evaluate(spec, word)
print(f"group: Sanov pair over Q(t); word: {word.render()} (length {word.length})")
print("matrix value of the word:")
for row in gamma.rows:
    print("  [" + ", ".join(cell.render(spec.variables) for cell in row) + "]")

record = separate(spec, word, order_budget=200_000)
hom = record.hom
print(f"\nwitness entry: {record.entry}, target field: F_{record.field_size}")
print(f"generator images: t -> ({hom.field.render(hom.images[0])},)")
print(f"ambient bound |GL_2(F_{record.field_size})| <= {record.gl_bound}")
if record.image_order_exact:
    print(f"actual image order: {record.image_order} (exact, by stabilizer chain)")

ok, reason = verify_witness(spec, record)
print(f"independent verification: {reason}")

# the same homomorphism, asked directly for the order of its image
order, exact = image_order(spec, hom)
print(f"image_order agrees: {order} (exact={exact})")

# tamper with the certificate and watch verification fail
from dataclasses import replace

bad = replace(record, field_size=record.field_size + 1)
ok, reason = verify_witness(spec, bad)
print(f"tampered field size -> verification says: {reason}")

bad = replace(record, word=spec.word("a a^-1"), word_length=2)
ok, reason = verify_witness(spec, bad)
print(f"swapped-in trivial word -> verification says: {reason}")
