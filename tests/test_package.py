import ast
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
# line the loaded modules named "subword*", "numpy*", "dataclasses" or "json".
# It imports no such module itself, so json shows only where the program loads it.
_LOADED_MODULES = """
import sys
argv = sys.argv[1:]
if argv[0] == "import":
    __import__(argv[1])
else:
    from subword.cli import main
    assert main(argv) == 0
print(sorted(m for m in sys.modules
             if m.startswith(("subword", "numpy")) or m in ("dataclasses", "json")))
"""


def _loaded_modules(*argv):
    src = str(Path(subword.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return {m.removeprefix("subword.") for m in ast.literal_eval(out.stdout.splitlines()[-1])}


def test_cli_import_does_not_load_numpy():
    # Each subcommand loads only the route it runs, json only where JSON is
    # read or written, and nothing loads numpy or dataclasses (whose import
    # pulls in inspect, ast and dis).  The formula and chebyshev routes load
    # no interval, specialization, Morse or verify module.
    cli = {"subword", "cli", "errors", "poset", "words"}
    words = ["--poset", "lambda", "--u", "1", "--w", "33"]
    expected = [
        (["import", "subword"], {"subword"}),
        (["import", "subword.cli"], cli),
        (["mobius", *words], cli | {"mobius"}),
        (["chebyshev", "--s", "2", "--max-n", "3"], cli | {"mobius", "chebyshev"}),
        (["mobius", *words, "--method", "oracle"], cli | {"mobius", "interval"}),
        (["mobius", *words, "--method", "all"], cli | {"mobius", "interval", "morse"}),
        (["mobius", *words, "--format", "json"], cli | {"mobius", "json"}),
        (["interval", *words], cli | {"commands", "interval"}),
        (["interval", *words, "--format", "json"], cli | {"commands", "interval", "json"}),
        (["critical-chains", *words], cli | {"commands", "morse"}),
        (["homotopy", *words], cli | {"commands", "homotopy", "mobius"}),
        (
            ["verify", "--posets", "lambda", "--max-w", "1"],
            cli | {"commands", "verify", "chebyshev", "interval", "mobius", "morse",
                   "specializations"},
        ),
    ]
    for argv, modules in expected:
        assert _loaded_modules(*argv) == modules, argv


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


def test_readme_library_example_runs():
    # README's `## Library` block runs as written, and each expression with a
    # trailing comment evaluates to the literal in that comment
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        tail = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if isinstance(stmt, ast.Expr) and tail.startswith("#"):
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert got == ast.literal_eval(tail[1:].strip()), ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked == 4


def test_readme_quotes_the_formula_route_line_count():
    # README's start-up note gives the lines a formula call compiles; it must
    # follow every edit to the modules that route loads
    package = Path(subword.__file__).resolve().parent
    modules = _loaded_modules("mobius", "--poset", "lambda", "--u", "1", "--w", "33")
    files = [package / ("__init__.py" if m == "subword" else f"{m}.py") for m in modules]
    total = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files)
    readme = (package.parents[1] / "README.md").read_text(encoding="utf-8")
    assert f"compiles {total} lines of `src/subword`" in readme
