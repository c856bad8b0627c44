"""The subcommands off the formula route: interval, critical-chains, homotopy
and verify, each with its options and its handler.  :func:`cli.main` loads
this module only to parse or run one of them (or to list all six), and each
handler imports the route it runs."""

from __future__ import annotations

import argparse

from .cli import add_cap_args, add_poset_args, caps, load_args
from .errors import VerificationError
from .poset import DEFAULT_POSET_SPEC
from .words import check_word_len


def add_command(sub, name: str) -> None:
    """Add the subparser of one of this module's subcommands."""
    if name == "interval":
        p = sub.add_parser("interval", help="build and export the interval diagram")
        add_poset_args(p)
        p.add_argument("--format", choices=("text", "json", "dot"), default="text")
        p.set_defaults(func=cmd_interval)
    elif name == "critical-chains":
        p = sub.add_parser("critical-chains", help="list the critical chains of [u, w]")
        add_poset_args(p)
        p.set_defaults(func=cmd_critical_chains)
    elif name == "homotopy":
        p = sub.add_parser("homotopy", help="wedge-of-spheres report for [u, w]")
        add_poset_args(p)
        p.set_defaults(func=cmd_homotopy)
    else:
        p = sub.add_parser("verify", help="run the cross-method verification suites")
        p.add_argument("--posets", default=DEFAULT_POSET_SPEC,
                       help="comma-separated poset names; random:N adds seeded posets")
        p.add_argument("--max-w", type=int, default=3)
        p.add_argument("--lemma-max-w", type=int, default=2)
        p.add_argument("--chebyshev-max-j", type=int, default=5)
        add_cap_args(p)
        p.set_defaults(func=cmd_verify)


def cmd_interval(args: argparse.Namespace) -> int:
    from .interval import build_interval

    poset, u, w = load_args(args)
    max_nodes, _ = caps(args)
    diagram = build_interval(
        poset, u, w, max_nodes=max_nodes, max_word_len=args.max_word_len
    )
    if args.format == "text":
        print(f"nodes={diagram.node_count()}, edges={diagram.edge_count()}")
    else:
        print(diagram.export(args.format))
    return 0


def cmd_critical_chains(args: argparse.Namespace) -> int:
    from .morse import MorseEngine

    poset, u, w = load_args(args)
    _, max_chains = caps(args)
    check_word_len(w, args.max_word_len)
    decs = MorseEngine(poset).critical_chains(u, w, max_chains)
    for dec in decs:
        js = " ".join(f"[{a},{b}]" for a, b in dec.j_intervals) or "-"
        print(
            f"{dec.chain.describe()}  J: {js}  d={dec.critical_dimension} "
            f"sign={dec.sign():+d}"
        )
    total = 1 if u == w else sum(dec.sign() for dec in decs)
    print(f"critical chains: {len(decs)}, mobius sum: {total}")
    return 0


def cmd_homotopy(args: argparse.Namespace) -> int:
    from .homotopy import homotopy_type

    poset, u, w = load_args(args)
    caps(args)
    print(homotopy_type(poset, u, w).describe())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_all

    max_nodes, max_chains = caps(args)
    results = run_all(
        poset_spec=args.posets,
        max_w=args.max_w,
        lemma_max_w=args.lemma_max_w,
        chebyshev_max_j=args.chebyshev_max_j,
        max_nodes=max_nodes,
        max_chains=max_chains,
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

