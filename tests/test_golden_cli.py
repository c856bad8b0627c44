"""Byte-identical CLI output: replay the invocations of golden_cli.json
in-process and through the process entry (``python -m subword.cli``), and
compare each stdout digest and exit code with the recorded one.

The digests were recorded at the commit named in the file.  A change that
means to alter one of these outputs re-records that entry and says so.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subword
from subword.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())
CASES = pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=[" ".join(c["argv"]) for c in GOLDEN["cases"]]
)


@CASES
def test_cli_output_matches_golden(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(case["argv"]))
    assert code == case["exit"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == case["stdout_sha256"]


@CASES
def test_child_output_matches_golden(case):
    src = str(Path(subword.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "subword.cli", *case["argv"]],
        env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8"),
        capture_output=True, timeout=30,
    )
    assert proc.returncode == case["exit"]
    assert hashlib.sha256(proc.stdout).hexdigest() == case["stdout_sha256"]
