"""Benchmark of the `subword` command-line program.

Run one workload:

    python3 perfbench/run.py --workload formula-ladder --seed 1 --seconds 40 --trace 0

  --trace 0  drives the CLI as a user does: one child process per operation,
             in a closed loop with one client and one child at a time, and
             prints the end-to-end metrics.
  --trace 1  replays the same command lines in-process through
             `subword.cli.main`, once untraced and once with per-module
             wrappers, and prints the per-layer metrics.
  --workload all runs the three workloads in turn.
  --out FILE also saves the full result with its run metadata.

Compare two result sets saved with --out (directories or files):

    python3 perfbench/run.py compare PARENT CHANGE

Run the operations of known program defects, kept out of the workloads
because their outputs are wrong; exits 1 while any of them fails:

    python3 perfbench/run.py defects

Every output is checked against a reference outside the timed and traced
regions.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Run from the root of a source
checkout: the program is imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"  # scratch files of a run, git-ignored

MIN_PASSES = 2  # passes of the operation list in every run
SETUP_PROBES = 3  # imports timed for setup_s before each pass, spread over the run
OP_LIMIT_S = 30.0  # an operation still running after this is killed and failed
RUN_LIMIT_S = 150.0  # no operation starts later than this into a run


def child_env() -> dict[str, str]:
    """The program under test comes first on the path of every child."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0")


def run_child(argv: list[str], stdout: Path, stderr: Path, limit: float):
    """Run one child to its end.  Returns (exit code or None when killed at
    the time limit, seconds from spawn to exit, peak RSS in KiB)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(),
                         file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], max(limit, 0.0))
        if not exited:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
    except BaseException:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        os.close(pidfd)
    return (os.waitstatus_to_exitcode(status) if exited else None), seconds, usage.ru_maxrss


def tail_percentile(ops_per_pass: int) -> int:
    """The highest whole percentile with at least ten samples beyond it in
    MIN_PASSES passes; fixed by the list length, so every run uses the same.
    It is taken within each pass and the median over passes reported, so the
    operation it lands on does not shift with the number of passes."""
    return math.floor(100 * (1 - 10 / (ops_per_pass * MIN_PASSES)))


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def judge(op, code: int | None, stdout: str, stderr: str, limit: float) -> str | None:
    """Why an operation failed, or None when its output checks out."""
    if code is None:
        return f"killed at the {limit:.0f} s time limit"
    if code != 0:
        lines = stderr.strip().splitlines()
        return f"exit code {code}: {lines[-1] if lines else 'no stderr'}"
    try:
        return op.check(stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"


def record_failure(failures: dict[str, list], name: str, reason: str) -> None:
    """Count a failed operation; the first reason seen is kept."""
    failures.setdefault(name, [0, reason])[0] += 1


def measure(ops, seconds: float, tmp: Path) -> dict:
    """Closed loop over the operation list, pass after pass, for `seconds`."""
    out, err = tmp / "stdout", tmp / "stderr"
    start = time.perf_counter()

    def import_seconds() -> float:
        limit = min(OP_LIMIT_S, start + RUN_LIMIT_S - time.perf_counter())
        code, dt, _ = run_child(["-c", "import subword.cli"], out, err, limit)
        if code != 0:
            raise SystemExit(f"perfbench: importing subword.cli failed: {err.read_text()}")
        return dt

    import_seconds()  # writes bytecode
    setup: list[float] = []
    samples: list[list[float]] = [[] for _ in ops]
    pass_sums: list[float] = []
    pct = tail_percentile(len(ops))
    tails: list[float] = []
    failures: dict[str, list] = {}
    peak_kib = 0
    attempted = 0
    begin = time.perf_counter()
    while len(pass_sums) < MIN_PASSES or \
            time.perf_counter() - begin + pass_sums[-1] <= seconds:
        setup += [import_seconds() for _ in range(SETUP_PROBES)]
        total = 0.0
        latencies = []
        for i, op in enumerate(ops):
            attempted += 1
            limit = min(OP_LIMIT_S, start + RUN_LIMIT_S - time.perf_counter())
            if limit <= 0:
                record_failure(failures, op.name, "not started: run time limit reached")
                continue
            code, dt, kib = run_child(["-m", "subword.cli", *op.argv], out, err, limit)
            samples[i].append(dt)
            latencies.append(dt)
            total += dt
            peak_kib = max(peak_kib, kib)
            reason = judge(op, code, out.read_text(encoding="utf-8"),
                           err.read_text(encoding="utf-8", errors="replace"), limit)
            if reason is not None:
                record_failure(failures, op.name, reason)
        pass_sums.append(total)
        if latencies:
            tails.append(nearest_rank(latencies, pct))
        if time.perf_counter() - start > RUN_LIMIT_S:
            break

    pooled = [x for xs in samples for x in xs]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(statistics.median(xs) for xs in samples if xs),
        "op_p50_s": statistics.median(pooled),
        "op_tail_s": statistics.median(tails),
        "peak_rss_mb": peak_kib / 1024,
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "samples": {"setup_s": len(setup), "passes": len(pass_sums), "ops": len(pooled),
                    "tail_percentile": pct},
        "op_seconds": {op.name: xs for op, xs in zip(ops, samples)},
    }


def trace_replay(ops, tmp: Path, workload: str) -> dict:
    """Untraced then traced in-process replay of the list, once each, in fresh
    interpreters; --seconds does not apply."""
    ops_file = tmp / "ops.json"
    ops_file.write_text(json.dumps([op.argv for op in ops]), encoding="utf-8")
    start = time.perf_counter()
    results = {}
    for trace in (0, 1):
        result_file = tmp / f"replay{trace}.json"
        argv = [str(ROOT / "perfbench" / "replay.py"), str(ops_file), str(result_file),
                "--trace", str(trace)]
        if trace:
            argv += ["--spans", str(STATE / f"spans-{workload}.json")]
        limit = start + RUN_LIMIT_S - time.perf_counter()
        code, _, _ = run_child(argv, tmp / "stdout", tmp / "stderr", limit)
        if code != 0:
            raise SystemExit(f"perfbench: replay --trace {trace} ended with {code}: "
                             f"{(tmp / 'stderr').read_text()[-2000:]}")
        results[trace] = json.loads(result_file.read_text(encoding="utf-8"))

    traced = results[1]
    failures: dict[str, list] = {}
    for op, got in zip(ops, traced["ops"]):
        reason = judge(op, got["code"], got["stdout"], got["stderr"], OP_LIMIT_S)
        if reason is not None:
            record_failure(failures, op.name, reason)
    metrics = dict(traced["metrics"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.untraced_wall_s"] = results[0]["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - results[0]["wall_s"]
    return {"metrics": metrics, "attempted": len(ops), "failures": failures,
            "samples": {"ops": len(ops)}}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload: str, seed: int, seconds: int, trace: int, samples: dict) -> dict:
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": src_lines, "samples": samples}


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import workloads

    tmp = STATE / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        ops = workloads.build(workload, seed, tmp)
        outcome = trace_replay(ops, tmp, workload) if trace else measure(ops, seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    units = declared_metrics(trace)
    if set(units) != set(outcome["metrics"]):
        raise SystemExit("perfbench: measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(outcome['metrics']))}")
    failed = sum(n for n, _ in outcome["failures"].values())
    return {
        "meta": metadata(workload, seed, seconds, trace, outcome["samples"]),
        "failures": outcome["failures"],
        "op_seconds": outcome.get("op_seconds", {}),
        "result": {
            "correct": failed == 0,
            "attempted": outcome["attempted"],
            "failed": failed,
            "metrics": {name: {"value": outcome["metrics"][name], "unit": units[name]}
                        for name in units},
        },
    }


def run_defects() -> int:
    """Run each known-defect operation once through the CLI and say whether
    its output is still wrong; 1 while any of them fails."""
    import workloads

    tmp = STATE / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    failed = 0
    try:
        for op in workloads.known_defects():
            code, _, _ = run_child(["-m", "subword.cli", *op.argv], tmp / "stdout",
                                   tmp / "stderr", OP_LIMIT_S)
            reason = judge(op, code, (tmp / "stdout").read_text(encoding="utf-8"),
                           (tmp / "stderr").read_text(encoding="utf-8", errors="replace"),
                           OP_LIMIT_S)
            failed += reason is not None
            print(f"{op.name}: {'ok' if reason is None else 'FAILED, ' + reason}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failed else 0


def report(record: dict) -> None:
    meta, result = record["meta"], record["result"]
    s = meta["samples"]
    print(f"workload {meta['workload']}  seed {meta['seed']}  trace {meta['trace']}  "
          f"operations attempted {result['attempted']}")
    for name, m in result["metrics"].items():
        if meta["trace"]:
            note = ""
        elif name == "setup_s":
            note = f"median of {s['setup_s']} imports"
        elif name == "wall_s":
            note = f"sum of per-operation medians of {s['passes']} passes"
        elif name == "op_tail_s":
            note = (f"median over {s['passes']} passes of p{s['tail_percentile']}, "
                    f"{s['ops']} operations")
        else:
            note = f"{'median' if name == 'op_p50_s' else 'max'} of {s['ops']} operations"
        value = f"{m['value']:,}" if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {name:<36} {value:>14} {m['unit']:<6} {note}")
    print(f"  {'fail_ratio':<36} {result['failed'] / result['attempted']:>14.6g} ratio  "
          f"{result['failed']} failed of {result['attempted']} attempted")
    for name, (count, reason) in sorted(record["failures"].items()):
        print(f"  FAILED {name} (x{count}): {reason}")
    print("meta " + json.dumps(meta))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so children get reaped
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:], ROOT / "BENCHMARK.json")
    if not (SRC / "subword" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'subword'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if argv[:1] == ["defects"]:
        return run_defects()
    parser = argparse.ArgumentParser(description="subword CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also save the full result as JSON")
    args = parser.parse_args(argv)
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    records = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    for record in records:
        report(record)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(records if len(records) > 1 else records[0]))
    results = [r["result"] for r in records]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
