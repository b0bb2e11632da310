"""Byte pins on what the command line prints for certificates and profiles.

Each digest covers the exit code, stdout and stderr of `finquot witness`
for every word of a ball at the default order budget, or of one
`finquot profile` run.  A change meant to alter one of these outputs
records the new digest and says why in CHANGES.md.  The six `diagonal`
words a^-1 .. a^-6 pin the error record of the FieldMatrix.is_identity
defect (a non-constant denominator read as a constant); fixing that
defect changes the `diagonal` digest.
"""

from __future__ import annotations

import hashlib

import pytest

from finquot.cli import main
from finquot.groups import NAMED_GROUPS, ball_enumerate

WITNESS_BALLS = {
    ("sanov", 3): "7fdb5ac1ad68825be0f85916e6d028942f6bf89e0c4d789b989e67e3fbd1d204",
    ("sanov_f3", 3): "811b5f78e975e93120a9feaf520b0bb94b4ce405d85680b0be94500affd9a2eb",
    ("cyclic", 6): "2b6c7888ed14aeaec57ce0daf9861c25e20d95a017f96d4f63a311e5af8d31e4",
    ("diagonal", 6): "e493d2d68ec96807a261e572d3d7ad5dff5445cc04b92a4db5f798f33785338f",
}

PROFILES = {
    ("cyclic", "--radius", "8"): "726eed3e8c6ed6cc77089b6ac18d6b72339e1ded340592ccd72cd742facff713",
    ("sanov_f3", "--radius", "4"): "5967b32ca7db6b48f33cd7ed52a315219dd1a07eee6eb76b2cd2a69751e79206",
    ("sanov", "--radius", "2", "--max-prime", "13"): (
        "4258cd3848478dcccf0a8b6b79635f585e62ecd7982f7283eeaae8c4b134411f"
    ),
}


def _cli_bytes(capsys, argv) -> bytes:
    code = main(list(argv))
    captured = capsys.readouterr()
    return f"{code}\n{captured.out}{captured.err}".encode("utf-8")


@pytest.fixture(autouse=True)
def _no_env_budgets(monkeypatch):
    monkeypatch.delenv("FINQUOT_BUDGETS", raising=False)


@pytest.mark.parametrize("name,radius", sorted(WITNESS_BALLS))
def test_witness_bytes_over_ball(capsys, name, radius):
    digest = hashlib.sha256()
    for el in ball_enumerate(NAMED_GROUPS[name](), radius):
        word = el.word.render()
        digest.update(word.encode("utf-8") + b"\n")
        digest.update(_cli_bytes(capsys, ("witness", name, "--word", word)))
    assert digest.hexdigest() == WITNESS_BALLS[name, radius]


@pytest.mark.parametrize("argv", sorted(PROFILES), ids=" ".join)
def test_profile_csv_bytes(capsys, argv):
    digest = hashlib.sha256(_cli_bytes(capsys, ("profile", *argv)))
    assert digest.hexdigest() == PROFILES[argv]
