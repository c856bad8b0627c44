import json
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


def test_traced_replay_reaches_patched_names(tmp_path):
    # perfbench/replay.py wraps engine methods by name; a renamed or deleted
    # one would only surface in the benchmark's traced run.
    root = Path(subword.__file__).resolve().parents[2]
    ops = tmp_path / "ops.json"
    ops.write_text(json.dumps([
        ["mobius", "--poset", "lambda", "--u", "1", "--w", "333", "--method", "all"],
        ["critical-chains", "--poset", "fig3", "--u", "2", "--w", "29"],
        ["verify", "--posets", "lambda", "--max-w", "1"],
    ]))
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run(
        [sys.executable, str(root / "perfbench" / "replay.py"), str(ops), str(result),
         "--trace", "1"],
        env=env, capture_output=True, text=True, check=True,
    )
    data = json.loads(result.read_text())
    assert [op["code"] for op in data["ops"]] == [0, 0, 0]
    metrics = data["metrics"]
    for name in ("morse.cover_moves.calls", "morse.is_si.calls", "morse.chains_examined"):
        assert metrics[name] > 0, name
