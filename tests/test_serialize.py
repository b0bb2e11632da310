from __future__ import annotations

import json
import os

import pytest

from finquot.cli import main
from finquot.errors import BudgetExceeded, SpecFileError
from finquot.groups import cyclic_group, sanov_group
from finquot.profiler import farb_profile
from finquot.serialize import (
    PROFILE_HEADER,
    canonical_json,
    load_spec_file,
    load_witness_file,
    merge_budget,
    profile_to_csv,
    resolve_spec,
    spec_fingerprint,
    spec_from_data,
    spec_to_data,
    threshold_samples_from_csv,
    witness_from_data,
    witness_to_data,
)
from finquot.witness import ORDER_BUDGET, separate, verify_witness

SANOV_DATA = {
    "characteristic": 0,
    "variables": ["t"],
    "generators": {
        "a": [["1", "t"], ["0", "1"]],
        "b": [["1", "0"], ["t", "1"]],
    },
}


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b == '{"a":[2,3],"b":1}'


def test_spec_round_trip(sanov):
    data = spec_to_data(sanov)
    assert data == SANOV_DATA
    rebuilt, budgets = spec_from_data(data)
    assert budgets == {}
    assert rebuilt.char == 0
    assert rebuilt.variables == ("t",)
    assert spec_fingerprint(rebuilt) == spec_fingerprint(sanov)
    for label in ("a", "b"):
        assert rebuilt.generators[label] == sanov.generators[label]


def test_fingerprint_ignores_entry_spelling(sanov):
    # entries canonicalize before hashing, so formatting differences vanish
    data = json.loads(json.dumps(SANOV_DATA))
    data["generators"]["a"][0][1] = " t + 0 "
    data["generators"]["a"][0][0] = "(1)"
    rebuilt, _ = spec_from_data(data)
    assert spec_fingerprint(rebuilt) == spec_fingerprint(sanov)


def test_fingerprint_sensitive_to_content(sanov):
    data = json.loads(json.dumps(SANOV_DATA))
    data["generators"]["a"][0][1] = "t + 1"
    rebuilt, _ = spec_from_data(data)
    assert spec_fingerprint(rebuilt) != spec_fingerprint(sanov)


def test_spec_from_data_validates():
    with pytest.raises(SpecFileError):
        spec_from_data({"variables": ["t"], "generators": {}})
    for char in (4, False, True):
        with pytest.raises(SpecFileError, match="^characteristic must be 0 or a prime$"):
            spec_from_data({**SANOV_DATA, "characteristic": char})
    bad = json.loads(json.dumps(SANOV_DATA))
    bad["generators"]["a"][0][1] = "q"
    with pytest.raises(SpecFileError):
        spec_from_data(bad)
    ragged = json.loads(json.dumps(SANOV_DATA))
    ragged["generators"]["a"] = [["1", "t"], ["0"]]
    with pytest.raises(SpecFileError):
        spec_from_data(ragged)
    singular = json.loads(json.dumps(SANOV_DATA))
    singular["generators"]["a"] = [["1", "1"], ["1", "1"]]
    with pytest.raises(SpecFileError):
        spec_from_data(singular)
    for budgets in ({"max_prime": True}, {"order_budget": 0}, {"max_degree": "3"}, {"bogus": 3}, [3]):
        with pytest.raises(SpecFileError):
            spec_from_data({**SANOV_DATA, "budgets": budgets})


def test_spec_file_budgets(tmp_path):
    data = dict(SANOV_DATA)
    data["budgets"] = {"max_prime": 11, "order_budget": 5000}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(data))
    spec, budgets, fp = load_spec_file(str(path))
    assert budgets == {"max_prime": 11, "order_budget": 5000}
    assert fp == spec_fingerprint(spec)
    # budgets do not participate in the fingerprint
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(SANOV_DATA))
    _, _, fp_bare = load_spec_file(str(bare))
    assert fp_bare == fp


def test_resolve_spec_names_and_paths(tmp_path, sanov):
    spec, budgets, fp = resolve_spec("sanov")
    assert fp == spec_fingerprint(sanov)
    for name in ("sanov_f3", "cyclic", "diagonal"):
        resolve_spec(name)
    with pytest.raises(SpecFileError) as err:
        resolve_spec("no-such-group")
    assert "built-ins" in str(err.value)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(SANOV_DATA))
    spec2, _, fp2 = resolve_spec(str(path))
    assert fp2 == fp


def test_merge_budget_precedence():
    merged = merge_budget({"max_prime": 7}, {"order_budget": 50}, {"max_prime": None})
    assert merged.max_prime == 7
    assert merged.max_degree == 3
    assert merged.order_budget == 50
    later = merge_budget({"max_prime": 7}, {"max_prime": 13})
    assert later.max_prime == 13
    assert merge_budget({}).max_prime == 31


def test_merge_budget_ball_budget_reaches_the_profile():
    # cyclic has 6 nontrivial elements within radius 3
    with pytest.raises(BudgetExceeded):
        farb_profile(cyclic_group(), 3, merge_budget({"ball_budget": 2}))
    assert farb_profile(cyclic_group(), 3, merge_budget({"ball_budget": 6})).row(3).ball_size == 6


def test_merge_budget_refuses_unknown_keys_and_bad_values():
    with pytest.raises(TypeError):
        merge_budget({"bogus": 1})
    with pytest.raises(ValueError):
        merge_budget({"max_prime": 7}, {"max_prime": "x"})


def test_witness_round_trip(tmp_path, sanov):
    rec = separate(sanov, sanov.word("a b"), order_budget=10_000)
    fp = spec_fingerprint(sanov)
    data = witness_to_data(rec, fp)
    assert data["spec_fingerprint"] == fp
    assert data["word"] == ["a", "b"]
    back, back_fp = witness_from_data(data)
    assert back == rec and back_fp == fp
    path = tmp_path / "w.json"
    path.write_text(canonical_json(data) + "\n", encoding="utf-8")
    loaded, loaded_fp = load_witness_file(str(path))
    assert loaded == rec and loaded_fp == fp
    ok, reason = verify_witness(sanov, loaded)
    assert ok and reason == "ok"


def test_witness_round_trip_extension_field(tmp_path, sanov3):
    rec = separate(sanov3, sanov3.word("a b a b^-1"))
    fp = spec_fingerprint(sanov3)
    path = tmp_path / "w3.json"
    path.write_text(canonical_json(witness_to_data(rec, fp)) + "\n", encoding="utf-8")
    loaded, _ = load_witness_file(str(path))
    assert loaded == rec
    assert verify_witness(sanov3, loaded) == (True, "ok")


def test_witness_data_requires_fields(sanov):
    rec = separate(sanov, sanov.word("a"))
    data = witness_to_data(rec, spec_fingerprint(sanov))
    del data["gl_bound"]
    with pytest.raises(SpecFileError):
        witness_from_data(data)


def test_witness_files_are_deterministic(tmp_path, sanov):
    rec = separate(sanov, sanov.word("a b"), order_budget=ORDER_BUDGET)
    fp = spec_fingerprint(sanov)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (p1, p2):
        assert main(["witness", "sanov", "--word", "a b", "--out", str(path)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text(encoding="utf-8") == canonical_json(witness_to_data(rec, fp)) + "\n"


def test_profile_csv(cyclic):
    profile = farb_profile(cyclic, 3)
    text = profile_to_csv(profile)
    lines = text.strip().split("\n")
    assert lines[0] == PROFILE_HEADER
    assert lines[1] == "1,2,16,2,2,true"
    assert len(lines) == 4
    assert all(line.endswith(("true", "false")) for line in lines[1:])


def test_threshold_samples_from_csv(cyclic):
    assert threshold_samples_from_csv("n,F\n16,5\n100,7\n") == [(16, 5), (100, 7)]
    assert threshold_samples_from_csv("16,5\n100,7\n") == [(16, 5), (100, 7)]
    # a profile starts at radius 1; only its rows with n >= 16 are samples
    profile = farb_profile(cyclic, 18)
    samples = threshold_samples_from_csv(profile_to_csv(profile))
    assert samples == [(row.radius, row.max_d_reduction) for row in profile.rows if row.radius >= 16]
    assert [n for n, _ in samples] == [16, 17, 18]
    assert threshold_samples_from_csv(profile_to_csv(farb_profile(cyclic, 3))) == []
    with pytest.raises(SpecFileError):
        threshold_samples_from_csv("16\n")


def test_builtin_fingerprints_pinned():
    prefixes = {
        "sanov": "2738911951f0d134",
        "sanov_f3": "f7e4a86000f648ef",
        "cyclic": "c1886082e29ccc89",
        "diagonal": "fa79780fcf54f978",
    }
    assert {name: resolve_spec(name)[2][:16] for name in prefixes} == prefixes
