from __future__ import annotations

import json

import pytest

from finquot.cli import main
from finquot.groups import sanov_group
from finquot.serialize import PROFILE_HEADER, spec_fingerprint


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dz_and_farb_z(capsys):
    assert run(capsys, "dz", "12") == (0, "5\n", "")
    assert run(capsys, "farb-z", "6") == (0, "4\n", "")
    assert run(capsys, "farb-z", "60") == (0, "7\n", "")


def test_gauss_count(capsys):
    assert run(capsys, "gauss-count", "2", "4") == (0, "3\n", "")
    code, out, err = run(capsys, "gauss-count", "4", "2")
    assert (code, out, json.loads(err)) == (1, "", {"error": "ValueError", "message": "4 is not prime"})


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441, a strong pseudoprime to the bases 2..37


def test_gauss_count_refuses_psi_12(capsys):
    record = _refused(*run(capsys, "gauss-count", str(PSI_12), "1"))
    assert record == {"error": "ValueError", "message": f"{PSI_12} is not prime"}


def test_spec_file_refuses_psi_12_characteristic(tmp_path, capsys):
    path = tmp_path / "sanov.json"
    generators = {"a": [["1", "t"], ["0", "1"]], "b": [["1", "0"], ["t", "1"]]}
    path.write_text(json.dumps({"characteristic": PSI_12, "variables": ["t"], "generators": generators}))
    record = _refused(*run(capsys, "witness", str(path), "--word", "a b"))
    assert (record["error"], record["message"]) == ("SpecFileError", "characteristic must be 0 or a prime")


def test_gauss_count_refuses_counts_past_the_print_limit(capsys, monkeypatch):
    # 14280 * log10(2) < 4300 < 15000 * log10(2)
    code, out, err = run(capsys, "gauss-count", "2", "14280")
    assert (code, err) == (0, "")
    assert 4200 < len(out.strip()) <= 4300
    record = _refused(*run(capsys, "gauss-count", "2", "15000"))
    assert record == {
        "error": "FinquotError",
        "message": "p^ell = 2^15000 exceeds the 4300-digit print limit",
        "detail": {},
    }

    def never(p, ell):
        raise AssertionError("the count was computed")

    monkeypatch.setattr("finquot.cli.gauss_irreducible_count", never)
    record = _refused(*run(capsys, "gauss-count", "2", "30000000"))
    assert record["message"] == "p^ell = 2^30000000 exceeds the 4300-digit print limit"


def test_domain_error_record(capsys):
    code, out, err = run(capsys, "dz", "0")
    assert code == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "ValueError"
    assert "divides 0" in record["message"]


def test_unknown_spec_error_record(capsys):
    code, out, err = run(capsys, "witness", "no-such-group", "--word", "a")
    assert code == 1
    record = json.loads(err)
    assert "built-ins" in record["detail"] or "built-ins" in record["message"]


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["witness", "sanov"])  # --word is required
    assert exc.value.code == 2


def test_witness_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "w.json"
    code, _, err = run(capsys, "witness", "sanov", "--word", "a b^-1", "--out", str(out))
    assert code == 0 and err == ""
    payload = json.loads(out.read_text())
    assert payload["spec_fingerprint"] == spec_fingerprint(sanov_group(0))
    assert payload["verified"] is True
    code, verdict, _ = run(capsys, "verify", "sanov", str(out))
    assert code == 0
    assert verdict.strip() == "ok"


def test_verify_catches_tampering(tmp_path, capsys):
    out = tmp_path / "w.json"
    run(capsys, "witness", "sanov", "--word", "a b", "--out", str(out))
    payload = json.loads(out.read_text())
    payload["field_size"] += 1
    out.write_text(json.dumps(payload))
    code, verdict, _ = run(capsys, "verify", "sanov", str(out))
    assert code == 1
    assert verdict.strip() == "field-size-mismatch"


def test_verify_catches_spec_swap(tmp_path, capsys):
    out = tmp_path / "w.json"
    run(capsys, "witness", "sanov", "--word", "a b", "--out", str(out))
    code, verdict, _ = run(capsys, "verify", "sanov_f3", str(out))
    assert code == 1
    assert verdict.strip() == "spec-fingerprint-mismatch"


def test_witness_identity_word_is_domain_error(capsys):
    code, out, err = run(capsys, "witness", "sanov", "--word", "a a^-1")
    assert code == 1
    assert json.loads(err)["error"]


def test_witness_stdout_deterministic(capsys):
    _, first, _ = run(capsys, "witness", "sanov_f3", "--word", "a b a")
    _, second, _ = run(capsys, "witness", "sanov_f3", "--word", "a b a")
    assert first == second


def test_profile_csv_output(tmp_path, capsys):
    code, out, _ = run(capsys, "profile", "cyclic", "--radius", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == PROFILE_HEADER
    assert lines[1] == "1,2,16,2,2,true"
    assert len(lines) == 6
    path = tmp_path / "p.csv"
    code, _, _ = run(capsys, "profile", "cyclic", "--radius", "5", "--out", str(path))
    assert code == 0
    assert path.read_text() == out


def test_profile_deterministic(capsys):
    _, first, _ = run(capsys, "profile", "sanov", "--radius", "2")
    _, second, _ = run(capsys, "profile", "sanov", "--radius", "2")
    assert first == second


def test_profile_budget_flags(capsys):
    code, out, _ = run(capsys, "profile", "cyclic", "--radius", "6")
    assert code == 0
    full = out.strip().split("\n")[-1].split(",")
    assert full[4] == "5" and full[5] == "true"
    # a^6 dies mod 2 and mod 3, so capping the primes at 3 leaves a miss
    code, out, _ = run(capsys, "profile", "cyclic", "--radius", "6", "--max-prime", "3")
    assert code == 0
    capped = out.strip().split("\n")[-1].split(",")
    assert capped[4] == "3" and capped[5] == "false"


def test_budget_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FINQUOT_BUDGETS", json.dumps({"max_prime": 3}))
    code, out, _ = run(capsys, "profile", "cyclic", "--radius", "6")
    assert code == 0
    assert out.strip().split("\n")[-1].split(",")[4:] == ["3", "false"]
    monkeypatch.setenv("FINQUOT_BUDGETS", "not json")
    code, _, err = run(capsys, "profile", "cyclic", "--radius", "3")
    assert code == 1
    assert json.loads(err)["error"]


def test_spec_file_refuses_bool_characteristic(tmp_path, capsys):
    # false once loaded as characteristic 0, with another fingerprint than sanov's
    path = tmp_path / "sanov.json"
    generators = {"a": [["1", "t"], ["0", "1"]], "b": [["1", "0"], ["t", "1"]]}
    path.write_text(json.dumps({"characteristic": False, "variables": ["t"], "generators": generators}))
    code, out, err = run(capsys, "witness", str(path), "--word", "a b")
    assert (code, out) == (1, "")
    record = json.loads(err)
    assert (record["error"], record["message"]) == ("SpecFileError", "characteristic must be 0 or a prime")


def test_spec_file_budgets_flow_through(tmp_path, capsys):
    spec = {
        "characteristic": 0,
        "variables": [],
        "generators": {"a": [["1", "1"], ["0", "1"]]},
        "budgets": {"max_prime": 3},
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "profile", str(path), "--radius", "6")
    assert code == 0
    assert out.strip().split("\n")[-1].split(",")[4:] == ["3", "false"]
    # flags outrank the file
    code, out, _ = run(capsys, "profile", str(path), "--radius", "6", "--max-prime", "31")
    assert code == 0
    assert out.strip().split("\n")[-1].split(",")[4:] == ["5", "true"]


def test_audit_z(capsys):
    code, out, _ = run(capsys, "audit-z", "--max", "1000")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "audit group=Z n_max=1000"
    assert lines[1] == "all_pass=true"
    assert lines[2].startswith("min_ratio=1.333333 at_n=1")


def test_threshold_command(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text("n,F\n16,5\n100,7\n10000,11\n")
    code, out, _ = run(capsys, "threshold", str(path))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("n=16 ")
    assert all("ratio=" in line for line in lines[:-1])
    assert lines[-1].startswith("min_ratio=")


@pytest.mark.parametrize("value", ["0", "-2"])
def test_threshold_refuses_value_below_one(tmp_path, capsys, value):
    path = tmp_path / "samples.csv"
    path.write_text(f"n,F\n100,7\n16,{value}\n")
    record = _refused(*run(capsys, "threshold", str(path)))
    assert record == {
        "error": "FinquotError",
        "message": f"threshold values must be >= 1, got {value} at n=16",
        "detail": {},
    }


def test_threshold_accepts_profile_csv(tmp_path, capsys):
    # profile output starts at radius 1; rows below the cutoff are skipped
    path = tmp_path / "profile.csv"
    code, _, _ = run(capsys, "profile", "cyclic", "--radius", "18", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "threshold", str(path))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("n=16 ")
    assert len(lines) == 4  # radii 16..18 plus the summary line

    short = tmp_path / "short.csv"
    code, _, _ = run(capsys, "profile", "cyclic", "--radius", "4", "--out", str(short))
    assert code == 0
    code, _, err = run(capsys, "threshold", str(short))
    assert code == 1
    assert "no samples" in err


def test_threshold_profile_csv_after_blank_line(tmp_path, capsys):
    # the header is found after blank lines, so the cutoff still applies
    path = tmp_path / "profile.csv"
    code, _, _ = run(capsys, "profile", "cyclic", "--radius", "18", "--out", str(path))
    assert code == 0
    plain = run(capsys, "threshold", str(path))
    assert plain[0] == 0
    path.write_text("\n" + path.read_text())
    assert run(capsys, "threshold", str(path)) == plain


def test_threshold_refuses_extra_column(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text("16,5,9\n17,6\n")
    record = _refused(*run(capsys, "threshold", str(path)))
    assert record["error"] == "SpecFileError"
    assert record["message"] == "need two columns per row, got '16,5,9'"


@pytest.mark.parametrize("first", ["n,F,G", "x,5", "x", "n,F,"])
def test_threshold_refuses_a_bad_first_line(tmp_path, capsys, first):
    # a header is two column names, neither an integer; these were dropped unchecked
    path = tmp_path / "samples.csv"
    path.write_text(f"{first}\n16,5\n")
    record = _refused(*run(capsys, "threshold", str(path)))
    assert record == {
        "error": "SpecFileError",
        "message": f"need a header of two column names or two columns per row, got {first!r}",
        "detail": {},
    }


@pytest.mark.parametrize("first", ["n,F", "n,value", "-,x"])
def test_threshold_accepts_a_header_of_two_names(tmp_path, capsys, first):
    path = tmp_path / "samples.csv"
    path.write_text(f"{first}\n16,5\n")
    code, out, _ = run(capsys, "threshold", str(path))
    assert code == 0
    assert out.splitlines()[0].startswith("n=16 value=5 ")


def test_threshold_refuses_short_profile_row(tmp_path, capsys):
    path = tmp_path / "profile.csv"
    path.write_text(PROFILE_HEADER + "\n16,5\n")
    record = _refused(*run(capsys, "threshold", str(path)))
    assert record["error"] == "SpecFileError"
    assert record["message"] == "need 6 columns per profile row, got '16,5'"


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "11")
    assert code == 0
    assert "selftest passed" in out
    assert "seed=11" in out


def test_budget_env_outranks_spec_file(tmp_path, capsys, monkeypatch):
    # README order: defaults, then the spec file, then FINQUOT_BUDGETS, then flags
    spec = {
        "characteristic": 0,
        "variables": [],
        "generators": {"a": [["1", "1"], ["0", "1"]]},
        "budgets": {"max_prime": 31},
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "profile", str(path), "--radius", "6")
    assert code == 0
    assert out.strip().split("\n")[-1] == "6,12,625,5,5,true"
    monkeypatch.setenv("FINQUOT_BUDGETS", json.dumps({"max_prime": 3}))
    code, out, _ = run(capsys, "profile", str(path), "--radius", "6")
    assert code == 0
    assert out.strip().split("\n")[-1].split(",")[4:] == ["3", "false"]
    code, out, _ = run(capsys, "profile", str(path), "--radius", "6", "--max-prime", "5")
    assert code == 0
    assert out.strip().split("\n")[-1].split(",")[4:] == ["5", "true"]


_BROKEN_SELFTEST = """
import sys
from finquot import cli
cli.farb_z = lambda n: 0
sys.exit(cli.main(["selftest"]))
"""


def test_selftest_failure_survives_python_optimize():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import finquot

    src = str(Path(finquot.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_SELFTEST], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 1
    assert "passed" not in proc.stdout
    record = json.loads(proc.stderr)
    assert record["error"] == "FinquotError"
    assert "selftest check failed" in record["message"]


def _witness_data(capsys, spec, word):
    code, out, _ = run(capsys, "witness", spec, "--word", word)
    assert code == 0
    return json.loads(out)


def _verify_data(tmp_path, capsys, spec, data):
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(data))
    return run(capsys, "verify", spec, str(path))


@pytest.mark.parametrize(
    "mended,reason",
    [((), "entry-out-of-range"), (("entry",), "not-verified"), (("entry", "verified"), "image-order-mismatch")],
)
def test_verify_refuses_forged_commutator_certificate(tmp_path, capsys, mended, reason):
    honest = _witness_data(capsys, "sanov", "a b a^-1 b^-1")
    data = dict(honest, entry=[5, 5], image_order=1, image_order_exact=True, verified=False)
    data.update({key: honest[key] for key in mended})
    assert _verify_data(tmp_path, capsys, "sanov", data) == (1, f"{reason}\n", "")


@pytest.mark.parametrize("spec,word", [("sanov", "a b"), ("cyclic", "a^3")])
@pytest.mark.parametrize("char", [4, 1, 9])
def test_verify_refuses_composite_characteristic(tmp_path, capsys, spec, word, char):
    data = _witness_data(capsys, spec, word)
    data["hom"]["char"] = char
    data["field_size"] = char
    data["gl_bound"] = char**4
    code, out, err = _verify_data(tmp_path, capsys, spec, data)
    assert code == 1
    assert out == ""
    assert "is not prime" in json.loads(err)["message"]


def test_verify_refuses_hom_of_other_characteristic(tmp_path, capsys):
    # t -> 2 in F_5 does not extend to F_3[t], because 3 maps to 3 != 0
    data = _witness_data(capsys, "sanov_f3", "a b")
    data["hom"].update({"char": 5, "modulus": None, "images": [2]})
    data["field_size"] = 5
    data["gl_bound"] = 5**4
    assert _verify_data(tmp_path, capsys, "sanov_f3", data) == (1, "characteristic-mismatch\n", "")


@pytest.mark.parametrize("char", [1, -3])
def test_verify_refuses_modulus_under_non_prime_characteristic(tmp_path, capsys, char):
    data = _witness_data(capsys, "sanov_f3", "a b")
    data["hom"]["char"] = char
    code, out, err = _verify_data(tmp_path, capsys, "sanov_f3", data)
    assert _refused(code, out, err)["message"] == f"malformed witness file: {char} is not prime"


@pytest.mark.parametrize(
    "spec,modulus",
    [("sanov", [1, 0, 1]), ("sanov_f3", [1, 2]), ("sanov_f3", [1, 0, 2])],
    ids=["reducible", "non-monic-linear", "non-monic-quadratic"],
)
def test_verify_refuses_bad_modulus(tmp_path, capsys, spec, modulus):
    data = _witness_data(capsys, spec, "a b")
    data["hom"]["modulus"] = modulus
    data["hom"]["images"] = [[0, 1]]
    code, out, err = _verify_data(tmp_path, capsys, spec, data)
    assert code == 1
    assert out == ""
    assert "monic irreducible" in json.loads(err)["message"]


@pytest.mark.parametrize(
    "spec,word,images",
    [
        ("diagonal", "a a a a", [9]),  # 2 in F_7
        ("diagonal", "a a a a", [-5]),
        ("sanov_f3", "b a^-1 b^-1 a^-1 b", [[1, 1, 1]]),  # 1 + x + x^2 = x mod x^2 + 1
        ("sanov_f3", "b a^-1 b^-1 a^-1 b", [[3, 4]]),
    ],
)
def test_verify_accepts_non_canonical_images(tmp_path, capsys, spec, word, images):
    data = _witness_data(capsys, spec, word)
    assert data["hom"]["images"] in ([2], [[0, 1]])
    data["hom"]["images"] = images
    assert _verify_data(tmp_path, capsys, spec, data) == (0, "ok\n", "")


def _refused(code, out, err):
    assert code == 1 and out == ""
    return json.loads(err)


@pytest.mark.parametrize(
    "env,needle",
    [
        ('{"max_prime":"x"}', "max_prime in FINQUOT_BUDGETS must be a positive integer"),
        ('{"max_prime":true}', "max_prime in FINQUOT_BUDGETS must be a positive integer"),
        ('{"ball_budget":0}', "ball_budget in FINQUOT_BUDGETS must be a positive integer"),
        ('{"bogus":3}', "unknown budget fields in FINQUOT_BUDGETS: ['bogus']"),
        ("[3]", "FINQUOT_BUDGETS must be a JSON object"),
    ],
)
def test_budget_env_values_are_checked(capsys, monkeypatch, env, needle):
    monkeypatch.setenv("FINQUOT_BUDGETS", env)
    record = _refused(*run(capsys, "profile", "cyclic", "--radius", "2"))
    assert record["error"] == "SpecFileError"
    assert needle in record["message"]
    record = _refused(*run(capsys, "witness", "cyclic", "--word", "a"))
    assert needle in record["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("profile", "cyclic", "--radius", "2", "--max-prime", "-3"),
        ("profile", "cyclic", "--radius", "2", "--ball-budget", "0"),
        ("witness", "cyclic", "--word", "a", "--order-budget", "0"),
    ],
)
def test_budget_flags_are_checked(capsys, argv):
    record = _refused(*run(capsys, *argv))
    assert record["error"] == "SpecFileError"
    assert "in command-line flags must be a positive integer" in record["message"]


def test_spec_file_budget_bool_is_refused(tmp_path, capsys):
    spec = {
        "characteristic": 0,
        "variables": [],
        "generators": {"a": [["1", "1"], ["0", "1"]]},
        "budgets": {"max_prime": True},
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(spec))
    record = _refused(*run(capsys, "profile", str(path), "--radius", "2"))
    assert record["message"] == "max_prime in budgets must be a positive integer, got True"


def test_ball_budget_sources_in_order(tmp_path, capsys, monkeypatch):
    # cyclic has 2n elements at radius n: a budget of 5 fails at radius 3
    spec = {
        "characteristic": 0,
        "variables": [],
        "generators": {"a": [["1", "1"], ["0", "1"]]},
        "budgets": {"ball_budget": 5},
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(spec))
    assert run(capsys, "profile", str(path), "--radius", "3")[0] == 1
    monkeypatch.setenv("FINQUOT_BUDGETS", '{"ball_budget":6}')
    assert run(capsys, "profile", str(path), "--radius", "3")[0] == 0
    assert run(capsys, "profile", str(path), "--radius", "3", "--ball-budget", "5")[0] == 1


def test_verify_unreadable_witness_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    record = _refused(*run(capsys, "verify", "sanov", str(missing)))
    assert record["error"] == "SpecFileError"
    assert record["message"].startswith(f"cannot read {missing}: ")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    record = _refused(*run(capsys, "verify", "sanov", str(garbled)))
    assert record["error"] == "SpecFileError"
    assert record["message"].startswith(f"{garbled} is not valid JSON: ")


@pytest.mark.parametrize(
    "spec,fields,hom_fields",
    [
        ("sanov", {"word": [["a"], "b"]}, {}),
        ("sanov", {"word": [{"a": 1}, "b"]}, {}),
        ("sanov", {}, {"images": [1.5]}),
        ("sanov_f3", {"field_size": 3.0, "gl_bound": 81.0}, {"char": 3.0}),
        ("sanov_f3", {}, {"char": 3.0}),
        ("sanov", {"word_length": True}, {}),
        ("sanov_f3", {}, {"modulus": [0.0, 1]}),
        ("sanov_f3", {}, {"images": [1]}),
        ("sanov", {}, {"images": [[1]]}),
        ("sanov", {}, {"ell": "zz"}),
        ("sanov", {}, {"ell": 0}),
        ("sanov", {}, {"ell": True}),
        ("sanov", {}, {"exponents": [-5]}),
        ("sanov", {}, {"exponents": [1.0]}),
        ("sanov", {}, {"exponents": [0, 0]}),
    ],
    ids=[
        "list-letter", "dict-letter", "float-image", "float-char-and-sizes", "float-char",
        "bool-length", "float-modulus", "int-image-over-extension", "list-image-over-prime-field",
        "string-ell", "zero-ell", "bool-ell", "negative-exponent", "float-exponent", "extra-exponent",
    ],
)
def test_verify_refuses_badly_typed_fields(tmp_path, capsys, spec, fields, hom_fields):
    data = _witness_data(capsys, spec, "a b")
    data.update(fields)
    data["hom"].update(hom_fields)
    record = _refused(*_verify_data(tmp_path, capsys, spec, data))
    assert record["error"] == "SpecFileError"
    assert record["message"].startswith("malformed witness file: ")


def test_verify_refuses_unknown_letter(tmp_path, capsys):
    data = _witness_data(capsys, "sanov", "a b")
    data["word"] = ["a", "c"]
    assert _verify_data(tmp_path, capsys, "sanov", data) == (1, "unknown-letter\n", "")


def test_witness_refuses_bad_word_token(capsys):
    record = _refused(*run(capsys, "witness", "sanov", "--word", "a^"))
    assert record == {"error": "ValueError", "message": "bad word token 'a^'"}


def test_threshold_missing_csv(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    record = _refused(*run(capsys, "threshold", str(missing)))
    assert record["error"] == "FinquotError"
    assert record["message"].startswith(f"cannot read {missing}: ")
