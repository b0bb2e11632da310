"""Exact finite-quotient witnesses and divisibility profiles for finitely
generated matrix groups over function fields."""

from .algebra import dz, factorize, is_prime, next_prime, smallest_prime_not_dividing
from .errors import (
    BudgetExceeded,
    EntryParseError,
    FinquotError,
    IdentityWordError,
    NotFoundWithinBudget,
    SpecFileError,
)
from .groups import (
    GroupSpec,
    Word,
    ball_enumerate,
    cyclic_group,
    diagonal_group,
    sanov_group,
    word_evaluate,
)
from .multipoly import MultiPoly, substitution_exponents
from .parsing import parse_entry
from .profiler import (
    FarbProfile,
    ReductionBudget,
    farb_profile,
    farb_z,
    inequality_audit,
    subgroup_growth_catalog,
    threshold_check,
    word_growth,
)
from .ratfunc import FieldMatrix, RatFunc
from .serialize import (
    load_spec_file,
    load_witness_file,
    profile_to_csv,
    resolve_spec,
    spec_fingerprint,
)
from .unipoly import UniPoly, enumerate_irreducibles, gauss_irreducible_count
from .witness import (
    FieldHom,
    WitnessRecord,
    charp_witness,
    charzero_witness,
    chain_prime_bound,
    image_order,
    polynomial_witness,
    separate,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "EntryParseError",
    "FarbProfile",
    "FieldHom",
    "FieldMatrix",
    "FinquotError",
    "GroupSpec",
    "IdentityWordError",
    "MultiPoly",
    "NotFoundWithinBudget",
    "RatFunc",
    "ReductionBudget",
    "SpecFileError",
    "UniPoly",
    "WitnessRecord",
    "Word",
    "ball_enumerate",
    "chain_prime_bound",
    "charp_witness",
    "charzero_witness",
    "cyclic_group",
    "diagonal_group",
    "dz",
    "enumerate_irreducibles",
    "factorize",
    "farb_profile",
    "farb_z",
    "gauss_irreducible_count",
    "image_order",
    "inequality_audit",
    "is_prime",
    "load_spec_file",
    "load_witness_file",
    "next_prime",
    "parse_entry",
    "polynomial_witness",
    "profile_to_csv",
    "resolve_spec",
    "sanov_group",
    "separate",
    "smallest_prime_not_dividing",
    "spec_fingerprint",
    "subgroup_growth_catalog",
    "substitution_exponents",
    "threshold_check",
    "verify_witness",
    "word_evaluate",
    "word_growth",
]
