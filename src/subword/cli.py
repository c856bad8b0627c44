"""Command-line interface.

Subcommands: mobius, interval, critical-chains, chebyshev, homotopy, verify.
Exit codes: 0 success, 1 verification failure, 2 input error, 3 resource cap
exceeded.

Start-up: this module loads ``errors``, ``poset`` and ``words`` and builds
the parser of the named subcommand alone (all six for ``--help``, for no
subcommand and for an unknown one).  ``mobius`` and ``chebyshev`` run here:
the formula route adds only ``mobius`` (and ``chebyshev``), ``--method
oracle`` adds ``interval`` and ``morse``/``all`` add ``morse``.  The other
four subcommands run in ``commands``, which loads their routes.  ``json`` is
loaded only where JSON is read or written.

Caps: ``--max-nodes`` (else SUBWORD_MAX_NODES) bounds the intervals that
interval and the oracle route of mobius build; homotopy and the formula route
build none.  ``--max-word-len`` bounds |w| for those builds and for the Morse
routes, critical-chains and mobius --method morse/all, and ``--max-chains``
(else SUBWORD_MAX_CHAINS) bounds the strictly decreasing chains those Morse
routes examine.  verify applies the node cap to each [empty, w] it builds,
whose nodes its formula and Morse tables read, and the chain cap to every
Morse walk.  Every subcommand that takes the caps rejects a bad value of any
of them with exit 2.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import InputError, ResourceLimitError, SubwordError, VerificationError
from .poset import FinitePoset, load_poset
from .words import (
    DEFAULT_MAX_CHAINS,
    DEFAULT_MAX_NODES,
    DEFAULT_MAX_WORD_LEN,
    Word,
    check_word_len,
    format_embedding,
    format_word,
    parse_word,
)

COMMANDS = ("mobius", "interval", "critical-chains", "chebyshev", "homotopy", "verify")


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{name} must be an integer, got {raw!r}") from exc


def caps(args: argparse.Namespace) -> tuple[int, int]:
    """The node and chain caps from the options, else the environment."""
    max_nodes = args.max_nodes
    if max_nodes is None:
        max_nodes = _env_int("SUBWORD_MAX_NODES", DEFAULT_MAX_NODES)
    max_chains = args.max_chains
    if max_chains is None:
        max_chains = _env_int("SUBWORD_MAX_CHAINS", DEFAULT_MAX_CHAINS)
    if max_nodes <= 0 or max_chains <= 0:
        raise InputError("caps must be positive")
    if getattr(args, "max_word_len", 0) < 0:  # verify takes no word-length cap
        raise InputError("the word-length cap must not be negative")
    return max_nodes, max_chains


def load_args(args: argparse.Namespace) -> tuple[FinitePoset, Word, Word]:
    """The poset and the words that --poset, --u and --w name."""
    poset = load_poset(args.poset)
    return poset, parse_word(poset, args.u), parse_word(poset, args.w)


def cmd_mobius(args: argparse.Namespace) -> int:
    from .mobius import mobius_main

    poset, u, w = load_args(args)
    max_nodes, max_chains = caps(args)
    values: dict[str, int] = {}
    report = None
    if args.method in ("formula", "all"):
        report = mobius_main(poset, u, w)
        values["formula"] = report.value
    if args.method in ("oracle", "all"):
        from .interval import mobius_oracle

        values["oracle"] = mobius_oracle(
            poset, u, w, max_nodes=max_nodes, max_word_len=args.max_word_len
        )
    if args.method in ("morse", "all"):
        from .morse import MorseEngine

        check_word_len(w, args.max_word_len)
        values["morse"] = MorseEngine(poset).mobius_morse(u, w, max_chains)
    pair = f"mu({format_word(poset, u)}, {format_word(poset, w)})"
    if args.format == "json":
        import json

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


def cmd_chebyshev(args: argparse.Namespace) -> int:
    from .chebyshev import tomie_T, verify_chebyshev

    if args.s < 1 or args.max_n < 0:
        raise InputError("chebyshev requires --s >= 1 and --max-n >= 0")
    rows = [verify_chebyshev(i, n - i, args.s)
            for n in range(args.max_n + 1) for i in range(n // 2 + 1)]
    print(f"{'i':>3} {'j':>3} {'n':>3} {'mu':>12} {'coeff':>12}  equal")
    for c in rows:
        print(f"{c.i:>3} {c.j:>3} {c.i + c.j:>3} {c.mu:>12} {c.coeff:>12}  {str(c.equal).lower()}")
    print(f"T^{args.s}_{args.max_n} coefficients: "
          f"{list(tomie_T(args.s, args.max_n).coefficients)}")
    if not all(c.equal for c in rows):
        raise VerificationError("chebyshev coefficient mismatch")
    return 0


def add_poset_args(parser: argparse.ArgumentParser) -> None:
    """--poset, --u, --w, the caps and --max-word-len."""
    parser.add_argument(
        "--poset", required=True, help="built-in name or poset JSON file path"
    )
    parser.add_argument("--u", required=True, help="bottom word")
    parser.add_argument("--w", required=True, help="top word")
    add_cap_args(parser)
    parser.add_argument(
        "--max-word-len", type=int, default=DEFAULT_MAX_WORD_LEN, help="word length cap"
    )


def add_cap_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-nodes", type=int, default=None, help="interval node cap")
    parser.add_argument("--max-chains", type=int, default=None, help="maximal-chain cap")


def _add_command(sub, name: str) -> None:
    if name == "mobius":
        p = sub.add_parser("mobius", help="compute mu(u, w)")
        add_poset_args(p)
        p.add_argument(
            "--method", choices=("formula", "oracle", "morse", "all"), default="formula"
        )
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--verbose", action="store_true", help="show per-embedding terms")
        p.set_defaults(func=cmd_mobius)
    elif name == "chebyshev":
        p = sub.add_parser("chebyshev", help="coefficient/Mobius comparison table")
        p.add_argument("--s", type=int, default=2)
        p.add_argument("--max-n", type=int, default=6)
        p.set_defaults(func=cmd_chebyshev)
    else:
        from .commands import add_command

        add_command(sub, name)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with all six subcommands, or with ``command``'s alone.

    Only a known subcommand is built alone, so no error can name the choices
    missing from it; usage lines still list all six.
    """
    parser = argparse.ArgumentParser(
        prog="subword",
        description="Mobius functions and critical chains of generalized subword order",
    )
    # With all six, the choices spell the metavar and the action's name in
    # errors ("argument command: ..."), as argparse does by default.
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        _add_command(sub, name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except SubwordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # Under ``python -m subword.cli`` this module is ``__main__``; register it
    # under its own name too, so that ``commands`` imports it instead of
    # compiling and running it a second time.
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
