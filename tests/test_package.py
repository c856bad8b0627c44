import os
import subprocess
import sys
import types
from pathlib import Path

import subword


def test_all_names_resolve_and_are_not_modules():
    for name in subword.__all__:
        assert not isinstance(getattr(subword, name), types.ModuleType), name


def test_cli_import_does_not_load_numpy():
    src = str(Path(subword.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, subword.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
