import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
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


def test_mobius_verbose_does_not_combine_with_json(capsys):
    # the per-embedding terms are text lines; JSON output once dropped them silently
    code, out, err = run(
        capsys, "mobius", "--poset", "lambda", "--u", "1", "--w", "33",
        "--verbose", "--format", "json",
    )
    assert (code, out) == (2, "") and err.startswith("error: --verbose")


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


@pytest.mark.parametrize("u, w", [("3", "1"), ("111", "3")])
@pytest.mark.parametrize("method", ["formula", "oracle", "morse", "all", "critical-chains"])
def test_mobius_is_zero_off_intervals_on_every_route(capsys, method, u, w):
    # u is not <= w: every Mobius route answers 0, while interval and
    # homotopy, which describe [u, w] itself, are input errors
    pair = ["--poset", "lambda", "--u", u, "--w", w]
    if method == "critical-chains":
        expect = "critical chains: 0, mobius sum: 0\n"
        assert run(capsys, "critical-chains", *pair) == (0, expect, "")
    else:
        routes = ("formula", "oracle", "morse") if method == "all" else (method,)
        expect = "".join(f"mu({u}, {w}) = 0  ({r})\n" for r in routes)
        expect += "agreement: ok\n" if method == "all" else ""
        assert run(capsys, "mobius", *pair, "--method", method) == (0, expect, "")
    for command in ("interval", "homotopy"):
        code, out, err = run(capsys, command, *pair)
        assert code == 2 and out == "" and "requires u" in err


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


# The caps each subcommand takes: those it applies, and no other.
TAKES = {
    "mobius": ("--max-nodes", "--max-chains", "--max-word-len"),
    "interval": ("--max-nodes", "--max-word-len"),
    "critical-chains": ("--max-chains", "--max-word-len"),
    "chebyshev": (),
    "homotopy": (),
    "verify": ("--max-nodes", "--max-chains"),
}
CAP_OPTIONS = ("--max-nodes", "--max-chains", "--max-word-len")


def _argv(command, *flags):
    return [command, *(WORDS if command not in ("chebyshev", "verify") else []), *flags]


@pytest.mark.parametrize(
    "command, cap", [(c, cap) for c in COMMANDS for cap in CAP_OPTIONS if cap not in TAKES[c]]
)
def test_caps_a_subcommand_does_not_apply_are_unknown_options(command, cap):
    # homotopy reads ranks letter by letter and chebyshev builds no interval,
    # so neither takes a cap; the others take only the caps they apply
    code, out, err = _outcome(_argv(command, cap, "5"))
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: subword {command} [-h]")
    assert err.endswith(f"error: unrecognized arguments: {cap} 5\n")


@pytest.mark.parametrize(
    "command, cap", [(c, cap) for c in COMMANDS for cap in TAKES[c]]
)
def test_every_cap_taken_rejects_a_bad_value(capsys, command, cap):
    value, message = ("-1", "the word-length cap must not be negative") \
        if cap == "--max-word-len" else ("0", "caps must be positive")
    assert run(capsys, *_argv(command, cap, value)) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("command", ["interval", "mobius", "critical-chains"])
def test_negative_word_length_cap_rejected(capsys, command):
    code, out, err = run(
        capsys, command, "--poset", "lambda", "--u", "1", "--w", "333",
        "--max-word-len", "-1",
    )
    assert code == 2 and out == "" and "word-length cap" in err


def test_caps_come_from_the_command_line_alone(capsys, monkeypatch):
    # the environment sets no cap: the 364-node interval is built in full
    monkeypatch.setenv("SUBWORD_MAX_NODES", "5")
    code, out, err = run(capsys, "interval", "--poset", "lambda", "--u", "", "--w", "33333")
    assert (code, out, err) == (0, "nodes=364, edges=1904\n", "")


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


@pytest.mark.parametrize("flags", [["--max-chains", "0"], ["--max-word-len", "-1"]])
def test_critical_chains_rejects_bad_caps(capsys, flags):
    code, out, err = run(
        capsys, "critical-chains", "--poset", "lambda", "--u", "1", "--w", "333", *flags
    )
    assert code == 2 and out == "" and err.startswith("error: ")


def _cli(*argv, max_mib=None):
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
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=5, preexec_fn=limit,
    )


# [1, 3^11] has thousands of strictly decreasing chains, so a cap of 10 must
# trip on the 11th, long before the walk ends.
LONG = ["--poset", "lambda", "--u", "1", "--w", "33333333333"]


@pytest.mark.parametrize(
    "argv",
    [
        ["critical-chains", *LONG, "--max-chains", "10"],
        ["mobius", "--method", "morse", *LONG, "--max-chains", "10"],
    ],
)
def test_morse_routes_enforce_the_chain_cap(argv):
    proc = _cli(*argv)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "error: interval has more than 10 strictly decreasing chains\n"


@pytest.mark.parametrize(
    "command",
    [
        ["mobius", "--method", "morse"],
        ["critical-chains"],
        ["interval"],
        ["mobius", "--method", "oracle"],
        ["mobius", "--method", "all"],
    ],
)
def test_morse_routes_apply_the_word_length_cap(capsys, command):
    # the CLI alone caps |w|, on every route that builds an interval or walks
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


def test_mobius_verbose_streams_its_terms_under_48_mib():
    # lambda [1^8, 3^20] has C(20, 8) = 125,970 embeddings; listing them all
    # before printing the first ran out of memory under this limit
    proc = _cli("mobius", "--poset", "lambda", "--u", "1" * 8, "--w", "3" * 20, "--verbose",
                max_mib=48)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == f"mu({'1' * 8}, {'3' * 20}) = 361181184  (formula)"
    assert len(lines) == 1 + 125970
    assert all(line.startswith("  embedding ") for line in lines[1:])


def test_running_out_of_memory_exits_3():
    # the oracle on [empty, 3^10] (88,573 nodes, within the node cap) needs
    # about 600 MiB: one mask of up to N bits per node
    proc = _cli("mobius", "--poset", "lambda", "--u", "-", "--w", "3" * 10, "--method", "oracle",
                max_mib=250)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "error: out of memory\n")


def test_a_deep_capped_walk_reports_its_cap_under_300_mib():
    # chain:3 [1, 3^120]: each cached cover move once kept its own copy of
    # the embedding, and critical-chains kept every chain until it printed;
    # the child peaked at 399 MiB and ran out of memory under this limit.  It
    # takes about 3 s, so it has a longer timeout than _cli's
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no address-space limit on this platform")
    cap = 300 * 2**20
    proc = subprocess.run(
        [sys.executable, "-m", "subword.cli", "critical-chains", "--poset", "chain:3", "--u", "1",
         "--w", "3" * 120, "--max-word-len", "120", "--max-chains", "10"],
        env=dict(os.environ, PYTHONPATH=str(Path(subword.__file__).resolve().parents[1])),
        capture_output=True, text=True, timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "error: interval has more than 10 strictly decreasing chains\n"
    )


def test_a_long_chain_answers_under_450000_kib():
    # chain:4000 [1, 4000]: mu0 once recursed through a memo of every pair of
    # [0, 4000], and the up-sets were built as sets, then copied to frozensets;
    # the child took over 12 s and 678 MiB and ran out of memory under this limit
    proc = _cli("mobius", "--poset", "chain:4000", "--u", "1", "--w", "4000", max_mib=439)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "mu(1, 4000) = 0  (formula)\n", "")


def test_oracle_of_3_to_the_8_answers_under_100_mib():
    # lambda [empty, 3^8] has 9,841 nodes; a Python set of node ids per node
    # ran out of memory under this limit
    proc = _cli("mobius", "--poset", "lambda", "--u", "-", "--w", "3" * 8, "--method", "oracle",
                max_mib=100)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "mu(∅, 33333333) = 128  (oracle)\n"


def test_a_wide_poset_builds_without_a_quadratic_scan():
    # the linear extension behind the labels once scanned every ready id for
    # the least, 2 * 10^8 steps here, and the call took over 6 s
    start = time.perf_counter()
    proc = _cli("mobius", "--poset", "antichain:20000", "--u", "1", "--w", "12")
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "mu(1, 12) = 0  (formula)\n", "")
    assert elapsed < 2, elapsed


# The child runs the module as ``python -m subword.cli`` would, after an
# atexit probe that reports how many objects the collector holds frozen.
FREEZE_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))
sys.argv[1:] = ["mobius", "--poset", "lambda", "--u", "11", "--w", "333"]
runpy.run_module("subword.cli", run_name="__main__", alter_sys=True)
"""


def test_process_entry_freezes_the_collector_and_main_does_not(capsys):
    src = str(Path(subword.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", FREEZE_PROBE], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=5,
    )
    assert (proc.returncode, proc.stdout) == (0, "mu(11, 333) = 5  (formula)\n")
    assert int(proc.stderr) > 0
    frozen = gc.get_freeze_count()
    assert run(capsys, "mobius", "--poset", "lambda", "--u", "11", "--w", "333")[0] == 0
    assert gc.get_freeze_count() == frozen


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
    "caps, message", [(["--max-nodes", "5"], NODE_CAP), (["--max-chains", "3"], CHAIN_CAP)]
)
def test_verify_enforces_the_caps(caps, message):
    proc = _cli("verify", "--posets", "lambda", "--max-w", "3", *caps)
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


@pytest.mark.parametrize("flag, checks", [("--max-w", 105), ("--lemma-max-w", 10)])
def test_verify_applies_no_word_length_cap(capsys, flag, checks):
    # verify takes no --max-word-len, so words past the default cap of 12 are swept
    code, out, err = run(capsys, "verify", "--posets", "chain:1", flag, "13")
    assert (code, err) == (0, "")
    assert out.startswith(f"{'oracle-equivalence':<24}  {checks:>6} checks  pass\n")


@pytest.mark.parametrize("flags", [["--max-nodes", "-5"], ["--max-chains", "0"]])
def test_verify_rejects_bad_caps(capsys, flags):
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


@pytest.mark.parametrize("command", COMMANDS)
def test_unknown_option_gets_the_subcommand_usage(command):
    # the named subcommand's usage, not the top-level one, and exit 2
    words = WORDS if command not in ("chebyshev", "verify") else []
    code, out, err = _outcome([command, *words, "--bogus", "1"])
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: subword {command} [-h]")
    assert err.endswith(f"subword {command}: error: unrecognized arguments: --bogus 1\n")
