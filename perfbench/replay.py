"""In-process replay of a workload's command lines through `subword.cli.main`.

Usage: python3 perfbench/replay.py OPS.json RESULT.json --trace 0|1 [--spans SPANS.json]

OPS.json holds a list of argv lists.  Each is run in turn with stdout and
stderr captured and a per-operation time limit.  With --trace 1, wrappers are
installed around the public functions of each module first: spans (name,
start, end, parent, operation) at layer boundaries, and plain counters for the
hot calls.  The program itself is not modified.  RESULT.json receives each
operation's exit code, output and seconds, the replay's wall time, and with
tracing the per-layer metrics; the spans are written to SPANS.json at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import signal
import sys
import time
from collections import Counter, defaultdict

OP_LIMIT_S = 30.0

VERIFY_SUITES = (
    "oracle_equivalence",
    "morse_agreement",
    "specializations",
    "chebyshev",
    "lemmas",
    "product_lemma",
    "inclusion_exclusion",
)


class OpTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so no program handler eats it."""


class Tracer:
    """Spans and counters for one replay."""

    def __init__(self):
        self.counts: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, time covered by child spans]
        self._ids = itertools.count()
        self.op = -1

    def span(self, name, fn, on_result=None):
        counts, self_s, spans, stack, ids = (
            self.counts, self.self_s, self.spans, self._stack, self._ids)
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            frame = [next(ids), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self_s[name] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
                spans.append((frame[0], name, start, end, parent, self.op))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, name, fn, on_result=None):
        counts = self.counts

        if on_result is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                on_result(result)
                return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every subword module."""
        import subword.cli  # noqa: F401  (loads every module)
        from subword import chebyshev, mobius, poset, verify, words
        from subword.morse import MorseEngine

        c = self.counts

        def add(key, amount):
            c[key] += amount

        def rebind(module, attr, wrap):
            """Replace module.attr in every subword module that holds it."""
            original = getattr(module, attr)
            wrapped = wrap(original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("subword") and \
                        getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)

        def patch(cls, attr, wrap):
            setattr(cls, attr, wrap(getattr(cls, attr)))

        patch(poset.FinitePoset, "leq", lambda f: self.counter("poset.leq.calls", f))
        patch(poset.FinitePoset, "check_element",
              lambda f: self.counter("poset.check_element.calls", f))
        patch(poset.AugmentedPoset, "mobius0", lambda f: self.counter("poset.mobius0.calls", f))
        patch(poset.AugmentedPoset, "__init__",
              lambda f: self.counter("poset.augmented_init.calls", f))

        rebind(words, "check_word", lambda f: self.counter("words.check_word.calls", f))
        rebind(words, "is_leq_words", lambda f: self.counter("words.is_leq_words.calls", f))
        rebind(words, "embeddings", lambda f: self.span(
            "words.embeddings", f, lambda r: add("words.embeddings.items", len(r))))

        def diagram_size(d):
            add("words.build_interval.nodes", d.node_count())
            add("words.build_interval.edges", d.edge_count())

        rebind(words, "build_interval",
               lambda f: self.span("words.build_interval", f, diagram_size))
        patch(words.IntervalDiagram, "mobius_bottom_to",
              lambda f: self.span("words.mobius_recursion", f))
        patch(words.IntervalDiagram, "mobius_to_top",
              lambda f: self.span("words.mobius_recursion", f))
        patch(words.IntervalDiagram, "export", lambda f: self.span("words.export", f))

        rebind(mobius, "mobius_main", lambda f: self.span("mobius.mobius_main", f))
        rebind(mobius, "contribution", lambda f: self.counter("mobius.contribution.calls", f))

        patch(MorseEngine, "critical_chains", lambda f: self.span("morse.critical_chains", f))
        patch(MorseEngine, "mobius_morse", lambda f: self.span("morse.mobius_morse", f))
        patch(MorseEngine, "mobius_morse_below",
              lambda f: self.span("morse.mobius_morse_below", f))
        patch(MorseEngine, "cover_moves", lambda f: self.counter("morse.cover_moves.calls", f))
        patch(MorseEngine, "is_si", lambda f: self.counter(
            "morse.is_si.calls", f, lambda r: add("morse.is_si.true", int(r))))
        patch(MorseEngine, "decomposition_direct", lambda f: self.counter(
            "morse.chains_examined", f,
            lambda r: add("morse.critical_found", int(r.is_critical))))

        rebind(chebyshev, "verify_chebyshev",
               lambda f: self.span("chebyshev.verify_chebyshev", f))
        rebind(chebyshev, "tomie_T", lambda f: self.span("chebyshev.tomie_T", f))

        for suite in VERIFY_SUITES:
            name = f"verify.{suite}"
            rebind(verify, f"run_{suite}", lambda f, name=name: self.span(
                name, f, lambda r: add(name + ".checks", r.checks)))

        rebind(subword.cli, "main", lambda f: self.span("cli.main", f))

    def metrics(self) -> dict[str, float]:
        c, s = self.counts, self.self_s
        out: dict[str, float] = {}
        for name in ("poset.leq", "poset.check_element", "poset.mobius0",
                     "poset.augmented_init", "words.check_word", "words.is_leq_words",
                     "words.embeddings", "words.build_interval", "words.mobius_recursion",
                     "mobius.mobius_main", "mobius.contribution", "morse.critical_chains",
                     "morse.cover_moves", "morse.is_si", "chebyshev.verify_chebyshev",
                     "cli.main"):
            out[name + ".calls"] = c[name + ".calls"]
        for name in ("words.embeddings", "words.build_interval", "words.mobius_recursion",
                     "words.export", "mobius.mobius_main", "morse.critical_chains",
                     "morse.mobius_morse", "morse.mobius_morse_below",
                     "chebyshev.verify_chebyshev", "chebyshev.tomie_T", "cli.main"):
            out[name + ".self_s"] = s[name]
        for name in ("words.embeddings.items", "words.build_interval.nodes",
                     "words.build_interval.edges", "morse.chains_examined",
                     "morse.critical_found"):
            out[name] = c[name]
        out["morse.si_hit_ratio"] = _ratio(c["morse.is_si.true"], c["morse.is_si.calls"])
        out["morse.critical_ratio"] = _ratio(c["morse.critical_found"],
                                             c["morse.chains_examined"])
        for suite in VERIFY_SUITES:
            out[f"verify.{suite}.self_s"] = s[f"verify.{suite}"]
            out[f"verify.{suite}.checks"] = c[f"verify.{suite}.checks"]
        out["cli.stdout_bytes"] = c["cli.stdout_bytes"]
        return out


def _ratio(hits: int, attempts: int) -> float:
    """hits / attempts, and 0 when nothing was attempted."""
    return hits / attempts if attempts else 0.0


def _alarm(signum, frame):
    raise OpTimeout


def replay(argvs: list[list[str]], tracer: Tracer | None) -> list[dict]:
    import subword.cli

    signal.signal(signal.SIGALRM, _alarm)
    results = []
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = subword.cli.main(list(argv))
        except OpTimeout:
            code = None
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, not a failed replay
            code = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        text = out.getvalue()
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += len(text.encode("utf-8"))
        results.append({"code": code, "stdout": text, "stderr": err.getvalue(),
                         "seconds": seconds})
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ops")
    parser.add_argument("result")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    with open(args.ops, encoding="utf-8") as fh:
        argvs = json.load(fh)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    ops = replay(argvs, tracer)
    result = {"wall_s": sum(op["seconds"] for op in ops), "ops": ops}
    if tracer is not None:
        result["metrics"] = tracer.metrics()
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                           "spans": tracer.spans}, fh)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
