"""Command-line surface.

All outputs are deterministic: canonical JSON for witnesses, a fixed CSV
schema for profiles, and key=value text for audit reports.  Domain errors
exit 1 with a machine-readable JSON record on stderr; usage errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

from .algebra import dz
from .errors import FinquotError
from .groups import sanov_group, cyclic_group
from .multipoly import MultiPoly, substitution_exponents
from .profiler import ReductionBudget, farb_profile, farb_z, inequality_audit, threshold_check
from .serialize import (
    BUDGET_KEYS,
    canonical_json,
    check_budgets,
    load_witness_file,
    merge_budget,
    profile_to_csv,
    resolve_spec,
    threshold_samples_from_csv,
    witness_to_data,
)
from .unipoly import gauss_irreducible_count
from .witness import separate, verify_witness

BUDGET_ENV = "FINQUOT_BUDGETS"

# Python's default limit on the digits of an int converted to str
PRINT_DIGITS = 4300


def _env_budgets() -> dict:
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return {}
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FinquotError(f"{BUDGET_ENV} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FinquotError(f"{BUDGET_ENV} nests too deeply to read") from exc
    return check_budgets(data, BUDGET_ENV)


def _budgets(file_budgets: dict, args) -> ReductionBudget:
    """Later sources win: defaults, the spec file's budgets (checked on load),
    FINQUOT_BUDGETS, then flags."""
    flags = {key: getattr(args, key) for key in BUDGET_KEYS if getattr(args, key, None) is not None}
    return merge_budget(file_budgets, _env_budgets(), check_budgets(flags, "command-line flags"))


def _error_record(exc: BaseException) -> str:
    record = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, FinquotError):
        record["detail"] = exc.detail()
    return canonical_json(record)


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_witness(args) -> int:
    spec, file_budgets, fp = resolve_spec(args.spec)
    budget = _budgets(file_budgets, args)
    word = spec.word(args.word)
    record = separate(spec, word, order_budget=budget.order_budget)
    _emit(canonical_json(witness_to_data(record, fp)) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    spec, _, fp = resolve_spec(args.spec)
    record, recorded_fp = load_witness_file(args.witness_file)
    if recorded_fp != fp:
        print("spec-fingerprint-mismatch")
        return 1
    ok, reason = verify_witness(spec, record)
    print(reason)
    return 0 if ok else 1


def _cmd_profile(args) -> int:
    spec, file_budgets, _ = resolve_spec(args.spec)
    profile = farb_profile(spec, args.radius, _budgets(file_budgets, args))
    _emit(profile_to_csv(profile), args.out)
    return 0


def _cmd_dz(args) -> int:
    print(dz(args.i))
    return 0


def _cmd_farb_z(args) -> int:
    print(farb_z(args.n))
    return 0


def _cmd_gauss_count(args) -> int:
    # the count is at most p^ell, so every count this lets through prints;
    # gauss_irreducible_count refuses p < 2 as not prime
    if args.p > 1 and args.ell * math.log10(args.p) > PRINT_DIGITS:
        raise FinquotError(f"p^ell = {args.p}^{args.ell} exceeds the {PRINT_DIGITS}-digit print limit")
    print(gauss_irreducible_count(args.p, args.ell))
    return 0


def _cmd_audit_z(args) -> int:
    report = inequality_audit(args.max)
    print(f"audit group=Z n_max={report.n_max}")
    print(f"all_pass={'true' if report.all_pass else 'false'}")
    if report.failures:
        print("failures=" + ",".join(str(n) for n in report.failures))
    print(f"min_ratio={report.min_ratio:.6f} at_n={report.min_ratio_at}")
    return 0 if report.all_pass else 1


def _cmd_threshold(args) -> int:
    try:
        with open(args.csv, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FinquotError(f"cannot read {args.csv}: {exc}") from exc
    samples = threshold_samples_from_csv(text)
    try:
        report = threshold_check(samples)
    except ValueError as exc:
        raise FinquotError(str(exc)) from exc
    for row in report.rows:
        print(f"n={row.n} value={row.value} ratio={row.ratio:.6f}")
    print(f"min_ratio={report.min_ratio:.6f} at_n={report.min_ratio_at}")
    return 0


def _random_poly(rng: random.Random, char: int) -> MultiPoly:
    nvars = rng.randint(1, 3)
    f = MultiPoly.const(char, nvars, 0)
    for _ in range(rng.randint(1, 5)):
        exps = tuple(rng.randint(0, 3) for _ in range(nvars))
        coeff = rng.randint(1, 6) * rng.choice((1, -1))
        term = MultiPoly.const(char, nvars, coeff)
        for i, e in enumerate(exps):
            term = term * MultiPoly.variable(char, nvars, i) ** e
        f = f + term
    return f


def _require(ok: bool, what: str):
    if not ok:
        raise FinquotError(f"selftest check failed: {what}")


def _cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    checks = 0

    _require(dz(12) == 5 and farb_z(6) == 4 and gauss_irreducible_count(2, 3) == 2, "integer invariants")
    checks += 1

    for _ in range(25):
        f = _random_poly(rng, rng.choice((0, 2, 3, 5)))
        if f.is_zero():
            continue
        exponents = substitution_exponents(f)
        _require(bool(f.substitute_sparse(exponents)), "substitution keeps a polynomial nonzero")
        checks += 1

    sv = sanov_group()
    rec = separate(sv, sv.word("a"), order_budget=10_000)
    ok, reason = verify_witness(sv, rec)
    _require(ok and rec.image_order == 6, f"sanov witness for 'a': {reason}")
    checks += 1

    sv3 = sanov_group(3)
    rec3 = separate(sv3, sv3.word("a b"), order_budget=10_000)
    ok, reason = verify_witness(sv3, rec3)
    _require(ok, f"sanov_f3 witness for 'a b': {reason}")
    checks += 1

    prof = farb_profile(cyclic_group(), 4)
    _require([row.max_d_reduction for row in prof.rows] == [farb_z(k) for k in range(1, 5)], "cyclic profile")
    checks += 1

    print(f"selftest passed ({checks} checks, seed={args.seed})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finquot",
        description="Finite quotient witnesses and divisibility profiles "
        "for matrix groups over function fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", help="compute and write a survival certificate")
    p.add_argument("spec", help="spec file path or built-in group name")
    p.add_argument("--word", required=True, help='word, e.g. "a b^-1 a^2"')
    p.add_argument("--order-budget", type=int, default=None)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="check a witness file against a spec")
    p.add_argument("spec")
    p.add_argument("witness_file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("profile", help="CSV divisibility profile over the ball")
    p.add_argument("spec")
    p.add_argument("--radius", type=int, required=True)
    for key in BUDGET_KEYS:
        p.add_argument("--" + key.replace("_", "-"), type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("dz", help="least m >= 2 not dividing i")
    p.add_argument("i", type=int)
    p.set_defaults(func=_cmd_dz)

    p = sub.add_parser("farb-z", help="max of dz over 1..n")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_farb_z)

    p = sub.add_parser("gauss-count", help="number of monic irreducibles of one degree")
    p.add_argument("p", type=int)
    p.add_argument("ell", type=int)
    p.set_defaults(func=_cmd_gauss_count)

    p = sub.add_parser("audit-z", help="pigeonhole inequality audit for the integers")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(func=_cmd_audit_z)

    p = sub.add_parser("threshold", help="growth-threshold trend report from CSV")
    p.add_argument("csv")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("selftest", help="deterministic end-to-end battery")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FinquotError, ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(_error_record(exc) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
