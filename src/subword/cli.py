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

Exit: the ``subword`` script and ``python -m subword.cli`` enter through
:func:`run`, which freezes the collector after :func:`main` returns, so the
interpreter's exit-time collections skip every object the call made.
``main`` never freezes: tests and the benchmark replay call it many times in
one process.

Caps: the command line alone sets them; the environment is not read.  Each
subcommand takes only the caps it applies: mobius all three, interval
``--max-nodes`` and ``--max-word-len``, critical-chains ``--max-chains`` and
``--max-word-len``, verify ``--max-nodes`` and ``--max-chains``; homotopy and
chebyshev take none, and reject one as an unknown option with their own usage
line.  ``--max-nodes`` bounds the intervals that interval, the oracle route of
mobius and verify build, ``--max-chains`` the strictly decreasing chains that
the Morse routes examine, and ``--max-word-len`` |w| on every route that
builds or walks; no library function takes a word-length cap.  :func:`main`
checks the parsed caps once, before the handler runs: a bad value of any is
exit 2.
"""

from __future__ import annotations

import argparse
import gc
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


def load_args(args: argparse.Namespace) -> tuple[FinitePoset, Word, Word]:
    """The poset and the words that --poset, --u and --w name."""
    poset = load_poset(args.poset)
    return poset, parse_word(poset, args.u), parse_word(poset, args.w)


def cmd_mobius(args: argparse.Namespace) -> int:
    from .mobius import mobius_main

    if args.verbose and args.format == "json":
        raise InputError("--verbose prints text terms, so it does not combine with --format json")
    poset, u, w = load_args(args)
    values: dict[str, int] = {}
    report = None
    if args.method in ("formula", "all"):
        report = mobius_main(poset, u, w)
        values["formula"] = report.value
    if args.method != "formula":
        check_word_len(w, args.max_word_len)
    if args.method in ("oracle", "all"):
        from .interval import mobius_oracle

        values["oracle"] = mobius_oracle(poset, u, w, max_nodes=args.max_nodes)
    if args.method in ("morse", "all"):
        from .morse import MorseEngine

        values["morse"] = MorseEngine(poset).mobius_morse(u, w, args.max_chains)
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


def add_poset_args(parser: argparse.ArgumentParser, *caps: str) -> None:
    """--poset, --u, --w and the caps named, as :func:`add_caps` adds them."""
    parser.add_argument(
        "--poset", required=True, help="built-in name or poset JSON file path"
    )
    parser.add_argument("--u", required=True, help="bottom word")
    parser.add_argument("--w", required=True, help="top word")
    add_caps(parser, *caps)


CAPS = {
    "--max-nodes": (DEFAULT_MAX_NODES, "interval node cap"),
    "--max-chains": (DEFAULT_MAX_CHAINS, "maximal-chain cap"),
    "--max-word-len": (DEFAULT_MAX_WORD_LEN, "word length cap"),
}


def add_caps(parser: argparse.ArgumentParser, *options: str) -> None:
    """The caps named, of :data:`CAPS`: those the subcommand applies, and no other."""
    for option in options:
        default, text = CAPS[option]
        parser.add_argument(option, type=int, default=default, help=text)


def _add_command(sub, name: str) -> None:
    if name == "mobius":
        p = sub.add_parser("mobius", help="compute mu(u, w)")
        add_poset_args(p, *CAPS)
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
        sub.choices[name].set_defaults(parser=sub.choices[name])
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args, extras = parser.parse_known_args(argv)
    if extras:  # as parse_args reports them, but with the subcommand's usage
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:  # each cap a subcommand takes is checked here, once, before it runs
        if getattr(args, "max_nodes", 1) <= 0 or getattr(args, "max_chains", 1) <= 0:
            raise InputError("caps must be positive")
        if getattr(args, "max_word_len", 0) < 0:
            raise InputError("the word-length cap must not be negative")
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


def run() -> int:
    """The process entry: :func:`main` on ``sys.argv``, then ``gc.freeze()``.

    The freeze moves every object the call made to the permanent generation,
    which the exit-time collections skip; stdout and stderr are still flushed
    and atexit handlers still run.  Only a process about to end calls this.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    # Under ``python -m subword.cli`` this module is ``__main__``; register it
    # under its own name too, so that ``commands`` imports it instead of
    # compiling and running it a second time.
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(run())
