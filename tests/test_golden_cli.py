"""Byte-identical CLI output: replay the invocations of golden_cli.json
in-process and compare each stdout digest and exit code with the recorded one.

The digests were recorded at the commit named in the file.  A change that
means to alter one of these outputs re-records that entry and says so.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from subword.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=[" ".join(c["argv"]) for c in GOLDEN["cases"]]
)
def test_cli_output_matches_golden(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(case["argv"]))
    assert code == case["exit"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == case["stdout_sha256"]
