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


# Imports a target, or runs `subword.cli.main(argv)`, then prints on its last
# line the loaded modules named "subword*", "numpy*" or "dataclasses".
_LOADED_MODULES = """
import json, sys
argv = sys.argv[1:]
if argv[0] == "import":
    __import__(argv[1])
else:
    from subword.cli import main
    assert main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith(("subword", "numpy")) or m == "dataclasses")))
"""


def _loaded_modules(*argv):
    src = str(Path(subword.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_cli_import_does_not_load_numpy():
    # Each subcommand imports only the route it runs; nothing loads numpy or
    # dataclasses (whose import pulls in inspect, ast and dis).
    assert _loaded_modules("import", "subword") == {"subword"}
    assert _loaded_modules("import", "subword.cli") == {
        "subword", "subword.cli", "subword.errors", "subword.poset", "subword.words",
    }
    words = ["--poset", "lambda", "--u", "1", "--w", "33"]
    loaded = {
        "mobius": _loaded_modules("mobius", *words),
        "chebyshev": _loaded_modules("chebyshev", "--s", "2", "--max-n", "3"),
        "interval": _loaded_modules("interval", *words),
        "morse": _loaded_modules("mobius", *words, "--method", "all"),
        "critical-chains": _loaded_modules("critical-chains", *words),
        "homotopy": _loaded_modules("homotopy", *words),
        "verify": _loaded_modules("verify", "--posets", "lambda", "--max-w", "1"),
    }
    for name in ("mobius", "chebyshev"):
        assert not loaded[name] & {"subword.morse", "subword.verify"}, name
    assert "subword.mobius" not in loaded["interval"]
    assert "subword.morse" in loaded["morse"] and "subword.verify" in loaded["verify"]
    for name, modules in loaded.items():
        assert not any(m == "dataclasses" or m.startswith("numpy") for m in modules), name


def test_traced_replay_reaches_patched_names(tmp_path):
    # perfbench/replay.py wraps engine methods by name; a renamed or deleted
    # one would only surface in the benchmark's traced run.
    root = Path(subword.__file__).resolve().parents[2]
    ops = tmp_path / "ops.json"
    ops.write_text(json.dumps([
        ["mobius", "--poset", "lambda", "--u", "1", "--w", "333", "--method", "all"],
        ["critical-chains", "--poset", "fig3", "--u", "2", "--w", "29"],
        ["verify", "--posets", "lambda", "--max-w", "1"],
        ["interval", "--poset", "lambda", "--u", "1", "--w", "33"],
        ["chebyshev", "--s", "2", "--max-n", "3"],
    ]))
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run(
        [sys.executable, str(root / "perfbench" / "replay.py"), str(ops), str(result),
         "--trace", "1"],
        env=env, capture_output=True, text=True, check=True,
    )
    data = json.loads(result.read_text())
    assert [op["code"] for op in data["ops"]] == [0] * 5
    metrics = data["metrics"]
    # the subcommands import their routes lazily; the wrappers must reach them
    for name in ("morse.cover_moves.calls", "morse.is_si.calls", "morse.chains_examined",
                 "mobius.mobius_main.calls", "words.build_interval.calls",
                 "chebyshev.verify_chebyshev.calls", "verify.oracle_equivalence.checks"):
        assert metrics[name] > 0, name
