"""Command-line interface.

Subcommands: mobius, interval, critical-chains, chebyshev, homotopy, verify.
Exit codes: 0 success, 1 verification failure, 2 input error, 3 resource cap
exceeded.

Caps: ``--max-nodes`` (else SUBWORD_MAX_NODES) and ``--max-word-len`` bound
the intervals that interval, homotopy and the oracle route of mobius build;
the formula and Morse routes of mobius and critical-chains apply neither yet.
``--max-chains`` (else SUBWORD_MAX_CHAINS) is parsed and checked for sign by
mobius, interval and homotopy, but no subcommand enforces it yet.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .chebyshev import tomie_T, verify_chebyshev
from .errors import (
    DomainError,
    InputError,
    ResourceLimitError,
    SubwordError,
    UnsupportedPosetError,
    VerificationError,
)
from .mobius import homotopy_type, mobius_main, mobius_oracle_from_diagram
from .morse import MorseEngine
from .poset import FinitePoset, load_poset
from .verify import DEFAULT_POSET_SPEC, run_all
from .words import (
    DEFAULT_MAX_CHAINS,
    DEFAULT_MAX_NODES,
    DEFAULT_MAX_WORD_LEN,
    Word,
    build_interval,
    format_embedding,
    format_word,
    parse_word,
)


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{name} must be an integer, got {raw!r}") from exc


def _add_poset_args(parser: argparse.ArgumentParser, with_words: bool = True) -> None:
    parser.add_argument(
        "--poset", required=True, help="built-in name or poset JSON file path"
    )
    if with_words:
        parser.add_argument("--u", required=True, help="bottom word")
        parser.add_argument("--w", required=True, help="top word")
    parser.add_argument(
        "--max-nodes", type=int, default=None, help="interval node cap"
    )
    parser.add_argument(
        "--max-chains", type=int, default=None, help="maximal-chain cap"
    )
    parser.add_argument(
        "--max-word-len", type=int, default=DEFAULT_MAX_WORD_LEN, help="word length cap"
    )


def _caps(args: argparse.Namespace) -> tuple[int, int]:
    max_nodes = args.max_nodes
    if max_nodes is None:
        max_nodes = _env_int("SUBWORD_MAX_NODES", DEFAULT_MAX_NODES)
    max_chains = args.max_chains
    if max_chains is None:
        max_chains = _env_int("SUBWORD_MAX_CHAINS", DEFAULT_MAX_CHAINS)
    if max_nodes <= 0 or max_chains <= 0:
        raise InputError("caps must be positive")
    if args.max_word_len < 0:
        raise InputError("the word-length cap must not be negative")
    return max_nodes, max_chains


def _load(args: argparse.Namespace) -> tuple[FinitePoset, Word, Word]:
    poset = load_poset(args.poset)
    return poset, parse_word(poset, args.u), parse_word(poset, args.w)


def cmd_mobius(args: argparse.Namespace) -> int:
    poset, u, w = _load(args)
    max_nodes, _ = _caps(args)
    values: dict[str, int] = {}
    report = None
    if args.method in ("formula", "all"):
        report = mobius_main(poset, u, w)
        values["formula"] = report.value
    if args.method in ("oracle", "all"):
        diagram = build_interval(
            poset, u, w, max_nodes=max_nodes, max_word_len=args.max_word_len
        )
        values["oracle"] = mobius_oracle_from_diagram(diagram)
    if args.method in ("morse", "all"):
        values["morse"] = MorseEngine(poset).mobius_morse(u, w)
    pair = f"mu({format_word(poset, u)}, {format_word(poset, w)})"
    if args.format == "json":
        print(json.dumps({"u": format_word(poset, u), "w": format_word(poset, w),
                          "values": values}))
    else:
        for method, value in values.items():
            print(f"{pair} = {value}  ({method})")
        if report is not None and args.verbose:
            for eta, c in report.per_embedding:
                print(f"  embedding {format_embedding(poset, eta)}: {c}")
    if len(set(values.values())) > 1:
        diff = ", ".join(f"{m}={v}" for m, v in values.items())
        raise VerificationError(f"methods disagree on {pair}: {diff}")
    if args.method == "all" and args.format == "text":
        print("agreement: ok")
    return 0


def cmd_interval(args: argparse.Namespace) -> int:
    poset, u, w = _load(args)
    max_nodes, _ = _caps(args)
    diagram = build_interval(
        poset, u, w, max_nodes=max_nodes, max_word_len=args.max_word_len
    )
    if args.format == "text":
        print(f"nodes={diagram.node_count()}, edges={diagram.edge_count()}")
    else:
        print(diagram.export(args.format))
    return 0


def cmd_critical_chains(args: argparse.Namespace) -> int:
    poset, u, w = _load(args)
    decs = MorseEngine(poset).critical_chains(u, w)
    for dec in decs:
        js = " ".join(f"[{a},{b}]" for a, b in dec.j_intervals) or "-"
        print(
            f"{dec.chain.describe()}  J: {js}  d={dec.critical_dimension} "
            f"sign={dec.sign():+d}"
        )
    total = sum(dec.sign() for dec in decs)
    print(f"critical chains: {len(decs)}, mobius sum: {total}")
    return 0


def cmd_chebyshev(args: argparse.Namespace) -> int:
    if args.s < 1 or args.max_n < 0:
        raise InputError("chebyshev requires --s >= 1 and --max-n >= 0")
    rows = []
    all_equal = True
    for n in range(args.max_n + 1):
        for i in range(n // 2 + 1):
            j = n - i
            check = verify_chebyshev(i, j, args.s)
            rows.append(check)
            all_equal = all_equal and check.equal
    print(f"{'i':>3} {'j':>3} {'n':>3} {'mu':>12} {'coeff':>12}  equal")
    for c in rows:
        print(f"{c.i:>3} {c.j:>3} {c.i + c.j:>3} {c.mu:>12} {c.coeff:>12}  {str(c.equal).lower()}")
    print(f"T^{args.s}_{args.max_n} coefficients: "
          f"{list(tomie_T(args.s, args.max_n).coefficients)}")
    if not all_equal:
        raise VerificationError("chebyshev coefficient mismatch")
    return 0


def cmd_homotopy(args: argparse.Namespace) -> int:
    poset, u, w = _load(args)
    max_nodes, _ = _caps(args)
    report = homotopy_type(poset, u, w, max_nodes, args.max_word_len)
    print(report.describe())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(
        poset_spec=args.posets,
        max_w=args.max_w,
        lemma_max_w=args.lemma_max_w,
        chebyshev_max_j=args.chebyshev_max_j,
    )
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {r.checks:>6} checks  {status}")
        for counterexample in r.failures[:5]:
            print(f"  counterexample: {counterexample}")
        if len(r.failures) > 5:
            print(f"  ... {len(r.failures) - 5} more failures")
        failed = failed or not r.passed
    if failed:
        raise VerificationError("verification suites failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subword",
        description="Mobius functions and critical chains of generalized subword order",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mobius", help="compute mu(u, w)")
    _add_poset_args(p)
    p.add_argument(
        "--method",
        choices=("formula", "oracle", "morse", "all"),
        default="formula",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--verbose", action="store_true", help="show per-embedding terms")
    p.set_defaults(func=cmd_mobius)

    p = sub.add_parser("interval", help="build and export the interval diagram")
    _add_poset_args(p)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("critical-chains", help="list the critical chains of [u, w]")
    _add_poset_args(p)
    p.set_defaults(func=cmd_critical_chains)

    p = sub.add_parser("chebyshev", help="coefficient/Mobius comparison table")
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--max-n", type=int, default=6)
    p.set_defaults(func=cmd_chebyshev)

    p = sub.add_parser("homotopy", help="wedge-of-spheres report for [u, w]")
    _add_poset_args(p)
    p.set_defaults(func=cmd_homotopy)

    p = sub.add_parser("verify", help="run the cross-method verification suites")
    p.add_argument("--posets", default=DEFAULT_POSET_SPEC,
                   help="comma-separated poset names; random:N adds seeded posets")
    p.add_argument("--max-w", type=int, default=3)
    p.add_argument("--lemma-max-w", type=int, default=2)
    p.add_argument("--chebyshev-max-j", type=int, default=5)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, DomainError, UnsupportedPosetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SubwordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
