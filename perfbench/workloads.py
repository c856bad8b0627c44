"""The three workloads: seeded operation lists, each operation with its check.

Every operation is one `subword` command line that must exit 0.  Its check
compares the output with a reference computed here, before any timing, by
code that shares nothing with the route the command exercises (see
reference.py); formula values of lambda:s ladders are checked against the
generalized Chebyshev coefficient.  A check returns None when the output is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref
from subword.chebyshev import tomie_T

_MU_LINE = re.compile(r"^mu\((.*), (.*)\) = (-?\d+)  \((\w+)\)$")


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[str], str | None]


def build(workload: str, seed: int, tmpdir: Path) -> list[Op]:
    """The operation list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng, tmpdir)
    rng.shuffle(ops)
    return ops


# -- output checks ------------------------------------------------------------


def _mu_values(out: str, fmt: str) -> dict[str, int]:
    if fmt == "json":
        return json.loads(out)["values"]
    found = {}
    for line in out.splitlines():
        m = _MU_LINE.match(line)
        if m:
            found[m.group(4)] = int(m.group(3))
    return found


def _check_mobius(methods: tuple[str, ...], value: int, fmt: str = "text",
                  embeddings: int | None = None) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        got = _mu_values(out, fmt)
        if set(got) != set(methods):
            return f"methods {sorted(got)} printed, expected {sorted(methods)}"
        wrong = {m: v for m, v in got.items() if v != value}
        if wrong:
            return f"values {wrong}, reference {value}"
        if fmt == "text" and len(methods) > 1 and "agreement: ok" not in out:
            return "no agreement line"
        if embeddings is not None:
            terms = [int(line.rsplit(":", 1)[1]) for line in out.splitlines()
                     if line.startswith("  embedding ")]
            if len(terms) != embeddings or sum(terms) != value:
                return (f"{len(terms)} embedding terms summing to {sum(terms)}, "
                        f"reference {embeddings} terms summing to {value}")
        return None

    return check


def _check_interval(p: ref.Poset, iv: ref.Interval, fmt: str) -> Callable[[str], str | None]:
    nodes = len(iv.nodes)
    edges = len(iv.edges)

    def check(out: str) -> str | None:
        if fmt == "text":
            got = out.strip()
            want = f"nodes={nodes}, edges={edges}"
            return None if got == want else f"printed {got!r}, reference {want!r}"
        data = json.loads(out)
        names = data["nodes"]
        got_edges = {(names[a], names[b]) for a, b in data["edges"]}
        want_edges = {(p.fmt(a), p.fmt(b)) for a, b in iv.edges}
        if sorted(names) != sorted(p.fmt(v) for v in iv.nodes):
            return f"{len(names)} nodes, reference {nodes}"
        if got_edges != want_edges or len(data["edges"]) != edges:
            return f"{len(data['edges'])} edges, reference {edges}"
        return None

    return check


def _check_critical(value: int) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        lines = out.splitlines()
        m = re.match(r"critical chains: (\d+), mobius sum: (-?\d+)$", lines[-1])
        if not m:
            return f"unparsed last line {lines[-1]!r}"
        if int(m.group(1)) != len(lines) - 1 or int(m.group(2)) != value:
            return f"{m.group(0)!r} over {len(lines) - 1} chains, reference mu {value}"
        return None

    return check


def _check_chebyshev(s: int, max_n: int) -> Callable[[str], str | None]:
    rows = {(i, n - i): tomie_T(s, n).coeff(n - 2 * i)
            for n in range(max_n + 1) for i in range(n // 2 + 1)}
    last = f"T^{s}_{max_n} coefficients: {list(tomie_T(s, max_n).coefficients)}"

    def check(out: str) -> str | None:
        lines = out.splitlines()
        seen = {}
        for line in lines[1:-1]:
            i, j, _, mu, coeff, equal = line.split()
            seen[int(i), int(j)] = (int(mu), int(coeff), equal)
        want = {k: (c, c, "true") for k, c in rows.items()}
        if seen != want:
            bad = sorted(k for k in set(seen) | set(want) if seen.get(k) != want.get(k))
            return f"rows {bad[:3]} disagree with tomie_T"
        return None if lines[-1] == last else f"last line {lines[-1]!r}"

    return check


def _check_verify(counts: dict[str, int]) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        got = {}
        for line in out.splitlines():
            name, n, _, status = line.split()
            if status != "pass":
                return f"suite {name} {status}"
            got[name] = int(n)
        return None if got == counts else f"check counts {got}, expected {counts}"

    return check


# -- formula-ladder -----------------------------------------------------------


def _formula_ladder(rng: random.Random, tmpdir: Path) -> list[Op]:
    """mu(1^i, top^2i) over lambda and lambda:3 up to a rung of about two
    seconds, seeded random posets, and Chebyshev tables."""
    ops = []
    for s, rungs in ((2, range(2, 10)), (3, range(3, 9))):
        p = ref.lambda_s(s)
        top = p.names[-1]
        for i in rungs:
            u, w = "1" * i, top * (2 * i)
            value = tomie_T(s, 3 * i).coeff(i)
            argv = ["mobius", "--poset", f"lambda:{s}", "--u", u, "--w", w]
            if (s, i) == (2, 6):
                argv.append("--verbose")
                check = _check_mobius(("formula",), value,
                                      embeddings=ref.embedding_count(p, p.parse(u), p.parse(w)))
            elif (s, i) == (3, 6):
                argv += ["--format", "json"]
                check = _check_mobius(("formula",), value, "json")
            else:
                check = _check_mobius(("formula",), value)
            ops.append(Op(f"formula lambda:{s} 1^{i},{top}^{2 * i}", argv, check))
    for k in range(4):
        p, (u, w), path = _random_instance(rng, _formula_instance, tmpdir / f"formula{k}.json")
        ops.append(Op(
            f"formula rand{k} {p.fmt(u)},{p.fmt(w)}",
            ["mobius", "--poset", str(path), "--u", p.fmt(u), "--w", p.fmt(w)],
            _check_mobius(("formula",), ref.formula(p, u, w)),
        ))
    for s, max_n in ((1, 16), (2, 18), (3, 16)):
        ops.append(Op(f"chebyshev s={s} n<={max_n}",
                      ["chebyshev", "--s", str(s), "--max-n", str(max_n)],
                      _check_chebyshev(s, max_n)))
    return ops


def _formula_instance(rng: random.Random, p: ref.Poset):
    """u <= w with |w| = 18 and between 10000 and 12000 embeddings, or None.

    Letters of w favour elements with large down-sets, so that u has room."""
    n = len(p.names)
    down = [sum(p.leq(a, b) for a in range(n)) for b in range(n)]
    w = tuple(rng.choices(range(n), weights=[d * d for d in down], k=18))
    keep = sorted(rng.sample(range(18), rng.randint(4, 9)))
    u = tuple(rng.choice([a for a in range(n) if p.leq(a, w[j])]) for j in keep)
    return (u, w) if 10000 <= ref.embedding_count(p, u, w) <= 12000 else None


def _random_instance(rng: random.Random, draw, path: Path):
    """A random poset with an instance `draw` accepts, the poset saved as JSON."""
    while True:
        p = ref.random_poset(rng)
        for _ in range(50):
            found = draw(rng, p)
            if found is not None:
                path.write_text(json.dumps(p.to_json()), encoding="utf-8")
                return p, found, path


# -- large-intervals ----------------------------------------------------------


def _large_intervals(rng: random.Random, tmpdir: Path) -> list[Op]:
    """Single large intervals: diagram builds, exports, oracle and Morse routes,
    and critical chains."""
    lam = ref.lambda_s(2)
    ops = []

    def label(pname, u, w):
        return f"{Path(pname).stem} [{u},{w}]"

    def interval(poset, pname, u, w, fmt):
        iv = ref.interval(poset, u, w)
        argv = ["interval", "--poset", pname, "--u", poset.fmt(u), "--w", poset.fmt(w)]
        if fmt != "text":
            argv += ["--format", fmt]
        ops.append(Op(f"interval {label(pname, poset.fmt(u), poset.fmt(w))} {fmt}", argv,
                      _check_interval(poset, iv, fmt)))

    def mobius(poset, pname, u, w, method):
        argv = ["mobius", "--poset", pname, "--u", poset.fmt(u), "--w", poset.fmt(w),
                "--method", method]
        methods = ("formula", "oracle", "morse") if method == "all" else (method,)
        ops.append(Op(f"mobius {method} {label(pname, poset.fmt(u), poset.fmt(w))}", argv,
                      _check_mobius(methods, ref.formula(poset, u, w))))

    def critical(poset, pname, u, w):
        argv = ["critical-chains", "--poset", pname, "--u", poset.fmt(u), "--w", poset.fmt(w)]
        ops.append(Op(f"critical-chains {label(pname, poset.fmt(u), poset.fmt(w))}", argv,
                      _check_critical(ref.formula(poset, u, w))))

    L = lam.parse
    interval(lam, "lambda", (), L("233333"), "text")
    interval(lam, "lambda", (), L("33333"), "json")
    mobius(lam, "lambda", L("1"), L("333333"), "morse")
    mobius(lam, "lambda", L("1"), L("33333"), "all")
    mobius(lam, "lambda", L("11"), L("33333"), "oracle")
    for k in (3, 4, 5):
        critical(lam, "lambda", L("1"), L("3" * k))
    critical(ref.FIG3, "fig3", ref.FIG3.parse("2"), ref.FIG3.parse("29"))
    critical(ref.FIG3, "fig3", ref.FIG3.parse("1"), ref.FIG3.parse("99"))
    for k in range(2):
        p, (u, w), path = _random_instance(rng, _interval_instance, tmpdir / f"interval{k}.json")
        interval(p, str(path), u, w, "json")
        mobius(p, str(path), u, w, "all")
    return ops


def _interval_instance(rng: random.Random, p: ref.Poset):
    """u <= w whose interval has between 170 and 210 elements, or None."""
    w = tuple(rng.randrange(len(p.names)) for _ in range(rng.randint(3, 7)))
    u = tuple(w[j] for j in sorted(rng.sample(range(len(w)), rng.randint(0, 2))))
    iv = ref.interval(p, u, w, max_nodes=210)
    return (u, w) if iv is not None and len(iv.nodes) >= 170 else None


# -- known defects -------------------------------------------------------------


def known_defects() -> list[Op]:
    """Intervals that `build_interval` gets wrong: both have a pair with 256
    elements strictly between, which the uint8 cover count wraps to 0, so it
    reports 1382 and 1177 edges for Hasse diagrams of 1380 and 1176.  They are
    kept out of the workloads, whose operations must all succeed, and run by
    `run.py defects` instead."""
    lam = ref.lambda_s(2)
    ops = []
    for u, w in (((), lam.parse("1123233")), (lam.parse("11"), lam.parse("1123233"))):
        ops.append(Op(f"interval lambda [{lam.fmt(u)},{lam.fmt(w)}] text",
                      ["interval", "--poset", "lambda", "--u", lam.fmt(u), "--w", lam.fmt(w)],
                      _check_interval(lam, ref.interval(lam, u, w), "text")))
    return ops


# -- verify-sweep -------------------------------------------------------------

# Suite check counts of `subword verify --posets <spec> --max-w <m>`; the
# suites enumerate fixed interval sets, so these numbers never vary.
VERIFY_SPECS = json.loads((Path(__file__).parent / "verify_counts.json").read_text())


def _verify_sweep(rng: random.Random, tmpdir: Path) -> list[Op]:
    """Many `subword verify` invocations over fixed poset specs; the seed only
    orders them."""
    ops = []
    for entry in VERIFY_SPECS:
        argv = ["verify", "--posets", entry["posets"], "--max-w", str(entry["max_w"])]
        ops.append(Op(f"verify {entry['posets']} w<={entry['max_w']}", argv,
                      _check_verify(entry["checks"])))
    return ops


_BUILDERS = {
    "formula-ladder": _formula_ladder,
    "large-intervals": _large_intervals,
    "verify-sweep": _verify_sweep,
}
WORKLOADS = tuple(_BUILDERS)
