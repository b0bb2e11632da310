"""Canonical serialization: spec files, witness files, CSV profiles.

Everything is emitted through one canonical JSON form (sorted keys, compact
separators, no floats) so outputs are byte-identical across runs and
platforms, and fingerprints are stable under reformatting of input files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

from .errors import EntryParseError, SpecFileError
from .fields import finite_field
from .groups import NAMED_GROUPS, GroupSpec, Word, check_characteristic
from .parsing import parse_entry
from .profiler import THRESHOLD_MIN_N, FarbProfile, ReductionBudget, is_budget_value
from .ratfunc import FieldMatrix
from .unipoly import UniPoly
from .witness import FieldHom, WitnessRecord

PROFILE_HEADER = "n,ball_size,max_gl_bound,max_image_order,max_d_reduction,exhaustive_flag"

BUDGET_KEYS = tuple(f.name for f in dataclasses.fields(ReductionBudget))


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def fingerprint(data) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def spec_to_data(spec: GroupSpec) -> dict:
    """Canonical spec-file content for the group itself (no budgets).

    Entries are re-rendered, so two files differing only in formatting map
    to the same data and hence the same fingerprint.
    """
    return {
        "characteristic": spec.char,
        "variables": list(spec.variables),
        "generators": {
            label: [
                [cell.render(spec.variables) for cell in row]
                for row in spec.generators[label].rows
            ]
            for label in spec.base_labels
        },
    }


def spec_fingerprint(spec: GroupSpec) -> str:
    return fingerprint(spec_to_data(spec))


def _check(cond: bool, message: str):
    if not cond:
        raise SpecFileError(message)


def spec_from_data(data) -> tuple[GroupSpec, dict]:
    """Build a group and budget overrides from spec-file data."""
    _check(isinstance(data, dict), "spec file must be a JSON object")
    unknown = set(data) - {"characteristic", "variables", "generators", "budgets"}
    _check(not unknown, f"unknown spec fields: {sorted(unknown)}")
    char = data.get("characteristic")
    try:
        check_characteristic(char)
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc
    variables = data.get("variables", [])
    _check(
        isinstance(variables, list) and all(isinstance(v, str) for v in variables),
        "variables must be a list of names",
    )
    gens = data.get("generators")
    _check(isinstance(gens, dict) and gens, "generators must be a non-empty object")
    matrices = {}
    for label, rows in sorted(gens.items()):
        _check(isinstance(rows, list) and rows, f"generator {label!r} must be a non-empty array")
        m = len(rows)
        parsed_rows = []
        for i, row in enumerate(rows):
            _check(
                isinstance(row, list) and len(row) == m,
                f"generator {label!r} must be a square array",
            )
            parsed = []
            for j, text in enumerate(row):
                _check(isinstance(text, str), f"entry ({i},{j}) of {label!r} must be a string")
                try:
                    parsed.append(parse_entry(text, char, variables))
                except EntryParseError as exc:
                    raise SpecFileError(f"generator {label!r} entry ({i},{j}): {exc}") from exc
            parsed_rows.append(tuple(parsed))
        matrices[label] = FieldMatrix(tuple(parsed_rows))
    budgets = check_budgets(data.get("budgets", {}), "budgets")
    try:
        spec = GroupSpec(char, tuple(variables), matrices)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFileError(str(exc)) from exc
    return spec, budgets


def check_budgets(overrides, source: str) -> dict:
    """The one rule for every budget source (spec file, environment, flags):
    a JSON object of known keys whose values are positive ints, not bools."""
    _check(isinstance(overrides, dict), f"{source} must be a JSON object")
    unknown = set(overrides) - set(BUDGET_KEYS)
    _check(not unknown, f"unknown budget fields in {source}: {sorted(unknown)}")
    for key, value in overrides.items():
        _check(is_budget_value(value), f"{key} in {source} must be a positive integer, got {value!r}")
    return dict(overrides)


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path} is not valid JSON: {exc}") from exc


def load_spec_file(path: str) -> tuple[GroupSpec, dict, str]:
    spec, budgets = spec_from_data(_read_json(path))
    return spec, budgets, spec_fingerprint(spec)


def resolve_spec(name_or_path: str) -> tuple[GroupSpec, dict, str]:
    """A spec file path, or one of the built-in group names."""
    if os.path.exists(name_or_path):
        return load_spec_file(name_or_path)
    maker = NAMED_GROUPS.get(name_or_path)
    if maker is None:
        known = ", ".join(sorted(NAMED_GROUPS))
        raise SpecFileError(f"no spec file {name_or_path!r} (built-ins: {known})")
    spec = maker()
    return spec, {}, spec_fingerprint(spec)


def merge_budget(*overrides: dict) -> ReductionBudget:
    """Later sources win: defaults, then each override dict in turn.  A value
    of None leaves the key unset; ReductionBudget refuses unknown keys and
    bad values."""
    merged = {key: value for source in overrides for key, value in source.items() if value is not None}
    return ReductionBudget(**merged)


def _hom_to_data(hom: FieldHom) -> dict:
    if hom.modulus is None:
        images = list(hom.images)
        modulus = None
    else:
        images = [list(hom.field.coeffs(v)) for v in hom.images]
        modulus = list(hom.modulus.coeffs)
    return {
        "char": hom.char,
        "modulus": modulus,
        "images": images,
        "exponents": list(hom.exponents),
        "ell": hom.ell,
    }


def _has_shape(value, shape) -> bool:
    """Whether a JSON value is of type shape (never bool for int) or, for [shape], a list of it."""
    if isinstance(shape, list):
        return isinstance(value, list) and all(_has_shape(v, shape[0]) for v in value)
    return type(value) is shape


def _hom_from_data(data) -> FieldHom:
    """Checks the field (prime char, monic irreducible modulus) and the shape of
    exponents and ell, and brings the images to canonical form."""
    char, modulus, images = data["char"], data["modulus"], data["images"]
    exponents, ell = data["exponents"], data["ell"]
    image = int if modulus is None else [int]
    if not (_has_shape(char, int) and _has_shape(images, [image])
            and (modulus is None or _has_shape(modulus, [int]))):
        raise TypeError("hom needs an int char, a null or int-list modulus, and int or int-list images")
    if not (_has_shape(exponents, [int]) and len(exponents) == len(images) and min(exponents, default=0) >= 0
            and _has_shape(ell, int) and ell > 0):
        raise TypeError("hom needs one non-negative int exponent per image and a positive int ell")
    modulus = None if modulus is None else UniPoly(char, tuple(modulus))
    field = finite_field(char, modulus)
    images = tuple(field.encode(v) for v in images)
    return FieldHom(char, modulus, images, tuple(exponents), ell)


def witness_to_data(record: WitnessRecord, spec_fp: str) -> dict:
    return {
        "spec_fingerprint": spec_fp,
        "word": list(record.word.letters),
        "word_length": record.word_length,
        "entry": list(record.entry),
        "hom": _hom_to_data(record.hom),
        "field_size": record.field_size,
        "gl_bound": record.gl_bound,
        "image_order": record.image_order,
        "image_order_exact": record.image_order_exact,
        "verified": record.verified,
    }


def witness_from_data(data) -> tuple[WitnessRecord, str]:
    _check(isinstance(data, dict), "witness file must be a JSON object")
    names = [f.name for f in dataclasses.fields(WitnessRecord)]
    missing = {"spec_fingerprint", *names} - set(data)
    _check(not missing, f"witness file missing fields: {sorted(missing)}")
    raw = WitnessRecord(**{name: data[name] for name in names})
    try:
        ints = (raw.word_length, raw.field_size, raw.gl_bound)
        if not (_has_shape(raw.word, [str]) and all(_has_shape(v, int) for v in ints)):
            raise TypeError("word must be a list of strings; word_length, field_size and gl_bound ints")
        record = dataclasses.replace(
            raw, word=Word(tuple(raw.word)), entry=tuple(raw.entry), hom=_hom_from_data(raw.hom)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFileError(f"malformed witness file: {exc}") from exc
    return record, data["spec_fingerprint"]


def load_witness_file(path: str) -> tuple[WitnessRecord, str]:
    return witness_from_data(_read_json(path))


def profile_to_csv(profile: FarbProfile) -> str:
    lines = [PROFILE_HEADER]
    for row in profile.rows:
        lines.append(
            f"{row.radius},{row.ball_size},{row.max_gl_bound},"
            f"{row.max_image_order},{row.max_d_reduction},"
            f"{'true' if row.exhaustive else 'false'}"
        )
    return "\n".join(lines) + "\n"


def _is_int(text: str) -> bool:
    """Whether int() reads text, as it reads every data field."""
    try:
        int(text)
    except ValueError:
        return False
    return True


def threshold_samples_from_csv(text: str) -> list[tuple[int, int]]:
    """(n, F) pairs from either a profile CSV or a two-column n,value CSV.

    A profile CSV, told apart by its header, starts at radius 1; its rows
    with n below THRESHOLD_MIN_N are dropped, and its value is the
    max_d_reduction column.  Every row has exactly the header's columns.
    A two-column CSV may start with a header of two column names, neither
    an integer; any other first line that is not a data row is refused.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise SpecFileError("empty CSV")
    header = lines[0]
    profile = header == PROFILE_HEADER
    if profile:
        columns, value_col = header.count(",") + 1, 4
        shape = f"{columns} columns per profile row"
    else:
        columns, value_col = 2, 1
        shape = "two columns per row"
    start = 1 if profile else 0
    first = header.split(",")
    if not profile and not _is_int(first[0]):
        if len(first) != 2 or _is_int(first[1]):
            raise SpecFileError(f"need a header of two column names or {shape}, got {header!r}")
        start = 1
    out = []
    for line in lines[start:]:
        parts = line.split(",")
        if len(parts) != columns:
            raise SpecFileError(f"need {shape}, got {line!r}")
        n, value = int(parts[0]), int(parts[value_col])
        if not profile or n >= THRESHOLD_MIN_N:
            out.append((n, value))
    if not out and not profile:
        raise SpecFileError("no data rows in CSV")
    return out
