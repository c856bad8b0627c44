import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subword
from subword import cli
from subword.cli import COMMANDS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mobius_all_agree(capsys):
    code, out, _ = run(
        capsys, "mobius", "--poset", "lambda", "--u", "11", "--w", "333",
        "--method", "all",
    )
    assert code == 0
    assert "mu(11, 333) = 5  (formula)" in out
    assert "mu(11, 333) = 5  (oracle)" in out
    assert "mu(11, 333) = 5  (morse)" in out
    assert "agreement: ok" in out


def test_mobius_trivial(capsys):
    code, out, _ = run(capsys, "mobius", "--poset", "lambda", "--u", "11", "--w", "11")
    assert code == 0 and "= 1" in out


def test_mobius_fig3(capsys):
    code, out, _ = run(
        capsys, "mobius", "--poset", "fig3", "--u", "2", "--w", "29",
        "--method", "all",
    )
    assert code == 0 and "mu(2, 29) = 0" in out


def test_mobius_json(capsys):
    code, out, _ = run(
        capsys, "mobius", "--poset", "lambda", "--u", "11", "--w", "333",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["values"] == {"formula": 5}


def test_mobius_verbose_embeddings(capsys):
    code, out, _ = run(
        capsys, "mobius", "--poset", "lambda", "--u", "11", "--w", "333",
        "--verbose",
    )
    assert code == 0
    assert "embedding 110: 2" in out and "embedding 011: 1" in out


def test_interval_counts(capsys):
    code, out, _ = run(
        capsys, "interval", "--poset", "lambda", "--u", "", "--w", "33333"
    )
    assert code == 0 and out.strip() == "nodes=364, edges=1904"
    code, out, _ = run(
        capsys, "interval", "--poset", "lambda", "--u", "11", "--w", "333"
    )
    assert code == 0 and out.startswith("nodes=24")
    code, out, _ = run(
        capsys, "interval", "--poset", "lambda", "--u", "13", "--w", "13"
    )
    assert code == 0 and out.strip() == "nodes=1, edges=0"


def test_interval_exports(capsys):
    code, out, _ = run(
        capsys, "interval", "--poset", "lambda", "--u", "11", "--w", "333",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 24
    code, out, _ = run(
        capsys, "interval", "--poset", "lambda", "--u", "11", "--w", "333",
        "--format", "dot",
    )
    assert code == 0 and out.startswith("digraph")


def test_critical_chains_output(capsys):
    code, out, _ = run(
        capsys, "critical-chains", "--poset", "fig3", "--u", "2", "--w", "29"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[-1] == "critical chains: 4, mobius sum: 0"
    assert sum("d=0" in l for l in lines) == 2
    assert sum("d=1" in l for l in lines) == 2


def test_critical_chains_trivial_interval(capsys):
    code, out, _ = run(
        capsys, "critical-chains", "--poset", "lambda", "--u", "11", "--w", "11"
    )
    assert code == 0 and out == "critical chains: 0, mobius sum: 1\n"


@pytest.mark.parametrize("name", ["lambda:0", "chain:-3"])
def test_out_of_range_builtin_size_exits_2(capsys, name):
    # the built-in's own reason, not the generic unreadable-file message
    code, out, err = run(capsys, "mobius", "--poset", name, "--u", "", "--w", "")
    least = 1 if name.startswith("lambda") else 0
    assert code == 2 and out == ""
    assert err == f"error: bad poset name {name!r}: size must be at least {least}\n"


def test_missing_poset_file_keeps_the_generic_message(capsys, tmp_path):
    path = str(tmp_path / "foo.json")
    code, out, err = run(capsys, "mobius", "--poset", path, "--u", "", "--w", "")
    assert code == 2 and out == ""
    assert err == (
        f"error: poset source {path!r} is neither a built-in name nor a readable file\n"
    )


def test_chebyshev_table(capsys):
    code, out, _ = run(capsys, "chebyshev", "--s", "2", "--max-n", "6")
    assert code == 0
    assert "false" not in out


def test_homotopy(capsys):
    code, out, _ = run(
        capsys, "homotopy", "--poset", "lambda", "--u", "11", "--w", "333"
    )
    assert code == 0 and out.strip() == "wedge of 5 spheres, dim 2"


def test_verify_small(capsys):
    code, out, _ = run(
        capsys, "verify", "--posets", "lambda,antichain:2", "--max-w", "2",
        "--lemma-max-w", "2", "--chebyshev-max-j", "3",
    )
    assert code == 0
    assert "FAIL" not in out
    for name in (
        "oracle-equivalence",
        "morse-agreement",
        "specialization-coherence",
        "chebyshev",
        "lemma-suite",
        "product-lemma",
        "inclusion-exclusion",
    ):
        assert name in out


def test_exit_code_input_error(capsys):
    code, _, err = run(capsys, "mobius", "--poset", "lambda", "--u", "11", "--w", "444")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "mobius", "--poset", "nope:9", "--u", "1", "--w", "1")
    assert code == 2


def test_exit_code_resource_cap(capsys):
    code, _, err = run(
        capsys, "interval", "--poset", "lambda", "--u", "", "--w", "33333",
        "--max-nodes", "5",
    )
    assert code == 3 and "cap" in err


def test_homotopy_parses_caps_but_builds_nothing(capsys):
    # homotopy reads ranks letter by letter, so no interval cap can trip;
    # a bad cap value is still an input error.
    argv = ["homotopy", "--poset", "lambda", "--u", "1", "--w", "33333"]
    for caps in ([], ["--max-nodes", "5"], ["--max-word-len", "4"]):
        assert run(capsys, *argv, *caps) == (0, "wedge of 48 spheres, dim 7\n", "")
    code, out, err = run(capsys, *argv, "--max-nodes", "-5")
    assert code == 2 and out == "" and "caps must be positive" in err


def test_homotopy_of_a_word_past_the_interval_caps(capsys):
    code, out, _ = run(
        capsys, "homotopy", "--poset", "lambda", "--u", "1", "--w", "3333333333333"
    )
    assert code == 0 and out == "wedge of 28672 spheres, dim 23\n"


def test_non_utf8_poset_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "poset.json"
    path.write_bytes(b'{"elements": ["\xff"], "covers": []}')
    code, out, err = run(capsys, "mobius", "--poset", str(path), "--u", "", "--w", "")
    assert code == 2 and out == ""
    assert err.startswith(f"error: poset file {str(path)!r} is not UTF-8 text")


def test_poset_file_with_an_unspellable_name_exits_2(capsys, tmp_path):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"elements": ["a,b", "c"], "covers": []}), encoding="utf-8")
    code, out, err = run(capsys, "mobius", "--poset", str(path), "--u", "", "--w", "c")
    assert code == 2 and out == ""
    assert err.startswith("error: element name 'a,b' cannot be written in a word")


@pytest.mark.parametrize("command", ["interval", "mobius", "homotopy"])
def test_negative_word_length_cap_rejected(capsys, command):
    code, out, err = run(
        capsys, command, "--poset", "lambda", "--u", "1", "--w", "333",
        "--max-word-len", "-1",
    )
    assert code == 2 and out == "" and "word-length cap" in err


def test_env_var_cap(capsys, monkeypatch):
    monkeypatch.setenv("SUBWORD_MAX_NODES", "5")
    code, _, _ = run(capsys, "interval", "--poset", "lambda", "--u", "", "--w", "33333")
    assert code == 3
    monkeypatch.setenv("SUBWORD_MAX_NODES", "not-a-number")
    code, _, err = run(capsys, "interval", "--poset", "lambda", "--u", "", "--w", "33")
    assert code == 2


def test_deterministic_output(capsys):
    argv = ["critical-chains", "--poset", "fig3", "--u", "2", "--w", "29"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_custom_poset_file(capsys, tmp_path, lam):
    path = tmp_path / "lambda.json"
    path.write_text(lam.to_json())
    code, out, _ = run(
        capsys, "mobius", "--poset", str(path), "--u", "11", "--w", "333"
    )
    assert code == 0 and "= 5" in out


def test_readme_poset_json_example(capsys, tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "poset.json"
    path.write_text(example, encoding="utf-8")
    code, out, _ = run(capsys, "mobius", "--poset", str(path), "--u", "a", "--w", "c")
    assert code == 0 and out == "mu(a, c) = -1  (formula)\n"


@pytest.mark.parametrize(
    "flags, env",
    [(["--max-nodes", "-5"], None), (["--max-word-len", "-1"], None), ([], "abc")],
)
def test_critical_chains_rejects_bad_caps(capsys, monkeypatch, flags, env):
    if env is not None:
        monkeypatch.setenv("SUBWORD_MAX_NODES", env)
    code, out, err = run(
        capsys, "critical-chains", "--poset", "lambda", "--u", "1", "--w", "333", *flags
    )
    assert code == 2 and out == "" and err.startswith("error: ")


def _cli(*argv, env=None, max_mib=None):
    """Run the CLI in a child process that must exit within 5 s; with
    max_mib, under that address-space limit (skipped where there is none)."""
    src = str(Path(subword.__file__).resolve().parents[1])
    limit = None
    if max_mib is not None:
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("no address-space limit on this platform")
        cap = max_mib * 2**20
        limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    return subprocess.run(
        [sys.executable, "-m", "subword.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src, **(env or {})),
        capture_output=True, text=True, timeout=5, preexec_fn=limit,
    )


# [1, 3^11] has thousands of strictly decreasing chains, so a cap of 10 must
# trip on the 11th, long before the walk ends.
LONG = ["--poset", "lambda", "--u", "1", "--w", "33333333333"]


@pytest.mark.parametrize(
    "argv, env",
    [
        (["critical-chains", *LONG, "--max-chains", "10"], None),
        (["critical-chains", *LONG], {"SUBWORD_MAX_CHAINS": "10"}),
        (["mobius", "--method", "morse", *LONG, "--max-chains", "10"], None),
    ],
)
def test_morse_routes_enforce_the_chain_cap(argv, env):
    proc = _cli(*argv, env=env)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "error: interval has more than 10 strictly decreasing chains\n"


@pytest.mark.parametrize("command", [["mobius", "--method", "morse"], ["critical-chains"]])
def test_morse_routes_apply_the_word_length_cap(capsys, command):
    code, out, err = run(
        capsys, *command, "--poset", "lambda", "--u", "1", "--w", "3333", "--max-word-len", "3"
    )
    assert (code, out) == (3, "") and "word-length cap 3" in err


def test_formula_overflow_exits_2(capsys):
    # C(60, 30) embeddings: only the position DP reaches the i64 check in time
    code, out, err = run(
        capsys, "mobius", "--poset", "lambda", "--u", "1" * 30, "--w", "3" * 60
    )
    assert code == 2 and out == "" and "overflowed 64-bit range" in err


def test_formula_prefix_may_overflow_where_u_does_not(capsys):
    # mu(1^30, 3^60) overflows i64 on the way, mu(1^59, 3^60) = -119 does not
    code, out, err = run(
        capsys, "mobius", "--poset", "lambda", "--u", "1" * 59, "--w", "3" * 60
    )
    assert code == 0 and err == "" and out.endswith("= -119  (formula)\n")


def test_verbose_terms_check_only_their_products(capsys):
    # [1, 3^64 11]: 65 terms are 0 and one is -2^63, so every term fits in
    # i64, although a partial product reaches +2^63 before a factor 0 or -1
    lam = subword.builtin_poset("lambda")
    w = subword.parse_word(lam, "3" * 64 + "11")
    report = subword.mobius_main(lam, (0,), w)
    terms = [c for _, c in report.per_embedding]
    assert len(terms) == 66 and sum(terms) == report.value == -(2**63)
    code, out, err = run(
        capsys, "mobius", "--poset", "lambda", "--u", "1", "--w", "3" * 64 + "11", "--verbose"
    )
    assert code == 0 and err == ""
    assert sum(line.startswith("  embedding ") for line in out.splitlines()) == 66


def test_verbose_places_a_long_u_without_recursion(capsys):
    # [1^1000, 3^1000] has exactly one embedding
    code, out, err = run(
        capsys, "mobius", "--poset", "lambda", "--u", "1" * 1000, "--w", "3" * 1000, "--verbose"
    )
    assert code == 0 and err == ""
    assert sum(line.startswith("  embedding ") for line in out.splitlines()) == 1


# chain:3 [1, 3^120]: each maximal chain takes 359 steps, so a walk that
# recursed per step would end in RecursionError (exit 1) before the cap
DEEP = ["--poset", "chain:3", "--u", "1", "--w", "3" * 120, "--max-word-len", "120"]


@pytest.mark.parametrize("command", [["critical-chains"], ["mobius", "--method", "morse"]])
def test_morse_routes_walk_chains_deeper_than_the_recursion_limit(command):
    proc = _cli(*command, *DEEP, "--max-chains", "1")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "error: interval has more than 1 strictly decreasing chains\n"


# fig3 [2, 15 9^60]: no strictly decreasing chain reaches 2, while the
# decreasing prefixes from w multiply by about 7 per letter
NO_CHAIN = ["--poset", "fig3", "--u", "2", "--w", "15" + "9" * 60, "--max-word-len", "80"]


@pytest.mark.parametrize(
    "command, last",
    [
        (["critical-chains"], "critical chains: 0, mobius sum: 0"),
        (["mobius", "--method", "morse"], "= 0  (morse)"),
    ],
)
def test_morse_routes_enter_no_dead_end_under_400_mib(command, last):
    proc = _cli(*command, *NO_CHAIN, "--max-chains", "1", max_mib=400)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.endswith(last + "\n")


def test_critical_chains_of_3_to_the_12_answer_under_56_mib():
    # lambda [1, 3^12]: 13,312 critical chains of the 24,576 walked; copying
    # and decomposing every walked chain ran out of memory under this limit
    proc = _cli("critical-chains", "--poset", "lambda", "--u", "1", "--w", "3" * 12,
                max_mib=56)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.endswith("\ncritical chains: 13312, mobius sum: -13312\n")


def test_running_out_of_memory_exits_3():
    # the oracle holds the whole diagram of [empty, 3^8], about 290 MiB
    proc = _cli("mobius", "--poset", "lambda", "--u", "-", "--w", "3" * 8, "--method", "oracle",
                max_mib=250)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "error: out of memory\n")


def test_mobius0_of_a_poset_whose_ids_are_not_a_linear_extension(tmp_path):
    # a 600-element chain listed top first: the sum over [e599, e0] in id
    # order would read each term before its own terms were memoized
    names = [f"e{i}" for i in range(600)]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"elements": names, "covers": list(zip(names[1:], names))}))
    reversed_chain = _cli("mobius", "--poset", str(path), "--u", "e599", "--w", "e0")
    chain = _cli("mobius", "--poset", "chain:600", "--u", "1", "--w", "600")
    assert reversed_chain.returncode == chain.returncode == 0
    assert reversed_chain.stdout == chain.stdout.replace("(1, 600)", "(e599, e0)")


@pytest.mark.parametrize(
    "flags",
    [
        ["--posets", "lambda", "--max-w", "-1"],
        ["--posets", "lambda", "--lemma-max-w", "-1"],
        ["--posets", "lambda", "--chebyshev-max-j", "-1"],
        ["--posets", "random:-2"],
        ["--posets", ","],
    ],
)
def test_verify_rejects_specs_that_check_nothing(capsys, flags):
    code, out, err = run(capsys, "verify", *flags)
    assert code == 2 and out == "" and err.startswith("error: ")


NODE_CAP = "error: interval would exceed the 5-node cap\n"
CHAIN_CAP = "error: interval has more than 3 strictly decreasing chains\n"


@pytest.mark.parametrize(
    "caps, env, message",
    [
        (["--max-nodes", "5"], None, NODE_CAP),
        ([], {"SUBWORD_MAX_NODES": "5"}, NODE_CAP),
        (["--max-chains", "3"], None, CHAIN_CAP),
        ([], {"SUBWORD_MAX_CHAINS": "3"}, CHAIN_CAP),
    ],
)
def test_verify_enforces_the_caps(caps, env, message):
    proc = _cli("verify", "--posets", "lambda", "--max-w", "3", *caps, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", message)


def test_verify_reports_the_first_cap_the_sweep_reaches():
    # both caps trip; the chain cap trips first, on a word the node cap allows
    proc = _cli("verify", "--posets", "lambda", "--max-w", "3",
                "--max-nodes", "20", "--max-chains", "2")
    message = "error: interval has more than 2 strictly decreasing chains\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", message)


def test_verify_sweeps_to_the_larger_word_bound(capsys):
    # the lemma suites read words longer than --max-w; recorded before the sweep
    code, out, err = run(capsys, "verify", "--posets", "lambda", "--max-w", "1",
                         "--lemma-max-w", "3")
    assert (code, err) == (0, "")
    assert out == (
        "oracle-equivalence             9 checks  pass\n"
        "morse-agreement                9 checks  pass\n"
        "specialization-coherence       0 checks  pass\n"
        "chebyshev                     74 checks  pass\n"
        "lemma-suite                14804 checks  pass\n"
        "product-lemma                 20 checks  pass\n"
        "inclusion-exclusion         1544 checks  pass\n"
    )


@pytest.mark.parametrize(
    "flags, env",
    [
        (["--max-nodes", "-5"], None),
        (["--max-chains", "0"], None),
        ([], {"SUBWORD_MAX_NODES": "abc"}),
        ([], {"SUBWORD_MAX_CHAINS": "1.5"}),
    ],
)
def test_verify_rejects_bad_caps(capsys, monkeypatch, flags, env):
    for name, value in (env or {}).items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, "verify", "--posets", "lambda", "--max-w", "1", *flags)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_verify_caps_large_enough_change_nothing(capsys):
    argv = ["verify", "--posets", "lambda", "--max-w", "2"]
    assert run(capsys, *argv, "--max-nodes", "13", "--max-chains", "40") == run(capsys, *argv)


def _outcome(argv):
    """Exit code, stdout and stderr of main(argv), argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


WORDS = ["--poset", "lambda", "--u", "1", "--w", "33"]
PARITY = [
    ["--help"],
    [],
    ["bogus"],
    *([name, "--help"] for name in COMMANDS),
    ["mobius"],
    ["verify", "--max-w"],
    ["mobius", *WORDS, "--method", "bad"],
    ["mobius", *WORDS, "stray"],
    ["interval", *WORDS, "--format", "svg"],
    ["chebyshev", "--s", "x"],
]


@pytest.mark.parametrize("argv", PARITY, ids=[" ".join(a) or "(none)" for a in PARITY])
def test_lazy_parser_matches_the_full_one(argv, monkeypatch):
    # main builds only the named subcommand's parser; every byte and exit code
    # must be what the parser with all six subcommands gives
    lazy = _outcome(argv)
    assert lazy[0] != 0 or argv[-1] == "--help"
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert _outcome(argv) == lazy
