import json
from pathlib import Path

import pytest

from subword.cli import main


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


def test_homotopy_honours_caps(capsys):
    argv = ["homotopy", "--poset", "lambda", "--u", "1", "--w", "33333"]
    code, out, err = run(capsys, *argv, "--max-nodes", "5")
    assert code == 3 and "5-node cap" in err and out == ""
    code, _, err = run(capsys, *argv, "--max-word-len", "4")
    assert code == 3 and "word-length cap 4" in err
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.strip() == "wedge of 48 spheres, dim 7"


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
