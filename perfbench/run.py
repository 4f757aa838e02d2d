"""Benchmark of the `tracecodes` CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

Run it from the root of a source checkout; the CLI runs from `src/` with no
install step, so the run fails at once where `src/tracecodes` is missing.

With `--trace 0` each pass runs the workload's invocations in fresh
`python -m tracecodes.cli ... --format json` processes, one after another
(a closed loop with one client and the CLI's default flags), and gates
every exit code and answer against `reference.json`.  It reports the
medians over passes of wall time, CPU time of all CLI processes including
their worker processes, and the largest max-RSS of any of them; `setup_s`
is the median wall time of fresh interpreters, two after every pass, that
import `tracecodes.cli` and build `GF2m` for the workload's largest field
degree.  `attempted` counts the CLI invocations and set-up interpreters,
and `failed` those that crashed, timed out, or gave a wrong exit code or
answer; their ratio is printed as `failed_frac`.

With `--trace 1` untraced passes alternate with traced passes (see
`traced.py`) and it reports the median self time of each layer, the
layers' work counts, the traced pass's unaccounted remainder and the
tracing overhead.  Spans are written to `.perfbench/` when the run ends.

Passes start while the time left allows one more of median length.  The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import answers
import traced
from workloads import WORKLOADS, Argv, largest_m, pass_order

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
SETUP_PER_PASS = 2
RUN_LIMIT_S = 170  # hard stop for one run: starts no pass that would end later
MIN_TIMEOUT_S = 5


@dataclass
class Process:
    exit: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    maxrss_mb: float
    timed_out: bool


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_process(cmd: list[str], timeout: float) -> Process:
    """Run cmd to completion in its own process group; resource use from wait4.

    wait4 reports the child's CPU time and peak RSS including the worker
    processes it waited for; on timeout the whole group is killed.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    timed_out = threading.Event()

    def kill() -> None:
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(timeout, kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        watchdog.cancel()
        watchdog.join()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, so Popen must not wait
    return Process(
        exit=proc.returncode,
        stdout=out.decode(errors="replace"),
        stderr=b"".join(err).decode(errors="replace"),
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024,  # KiB on Linux
        timed_out=timed_out.is_set(),
    )


def run_cli(argv: Argv, timeout: float) -> Process:
    return run_process([sys.executable, "-m", "tracecodes.cli", *argv, "--format", "json"], timeout)


@dataclass
class Pass:
    wall: float
    cpu: float
    maxrss_mb: float
    attempted: int
    failures: list[str]


def untraced_pass(order: list[Argv], reference: dict, deadline: float, runner=run_cli) -> Pass:
    """Time the invocations back to back; gate their outputs after the clock stops.

    Each failed invocation adds one entry to `failures`, whatever went wrong.
    """
    start = time.perf_counter()
    procs = [(argv, runner(argv, max(MIN_TIMEOUT_S, deadline - time.perf_counter()))) for argv in order]
    wall = time.perf_counter() - start
    failures = []
    for argv, proc in procs:
        if proc.timed_out:
            failures.append(f"{answers.invocation_key(argv)}: timed out")
        elif diffs := answers.check(reference, argv, proc.exit, proc.stdout):
            failures.append("; ".join(diffs) + (f"; stderr: {proc.stderr.strip()[-300:]}" if proc.stderr else ""))
    return Pass(
        wall=wall,
        cpu=sum(p.cpu for _, p in procs),
        maxrss_mb=max(p.maxrss_mb for _, p in procs),
        attempted=len(procs),
        failures=failures,
    )


def set_up(m: int, deadline: float) -> Process:
    """A fresh interpreter importing the CLI and building GF(2^m), as every invocation does."""
    code = f"import tracecodes.cli\nfrom tracecodes import GF2m\nGF2m({m})"
    return run_process([sys.executable, "-c", code], max(MIN_TIMEOUT_S, deadline - time.perf_counter()))


def tail(values: list[float]) -> str:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"no percentile has 10 samples beyond it at n={n}"
    p = 100 * (n - 10) // n
    q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return f"p{p} {q:.4f}"


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cli_default_jobs": os.cpu_count() or 1,  # what `--jobs` defaults to in the CLI
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "loadavg_start": os.getloadavg(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False, runner=run_cli) -> dict:
    """One run of one workload; returns the result object and prints a summary table."""
    workload = WORKLOADS[name]
    argvs = workload.argvs(smoke)
    reference = answers.load_reference()
    rng = random.Random(seed)
    m = largest_m(argvs)
    deadline = time.perf_counter() + RUN_LIMIT_S
    setup, failures = [], []

    def timed_set_up(keep: bool) -> None:
        proc = set_up(m, deadline)
        if proc.exit != 0 or proc.timed_out:
            failures.append(f"set-up interpreter exited {proc.exit}: {proc.stderr.strip()[-300:]}")
        elif keep:
            setup.append(proc.wall)

    timed_set_up(keep=False)  # compiles bytecode once, as an installed package would have
    if trace:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        api = traced.Api()

    plain: list[Pass] = []
    tracers = []
    cycles = []
    loop_start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        order = pass_order(argvs, rng)
        plain.append(untraced_pass(order, reference, deadline, runner))
        if trace:
            tracers.append(traced.traced_pass(api, reference, order, seed))
            failures += tracers[-1][2]
        # set-up samples are spread over the run so they see the same machine as the passes
        for _ in range(SETUP_PER_PASS):
            timed_set_up(keep=True)
        now = time.perf_counter()
        cycles.append(now - cycle_start)
        est = statistics.median(cycles)
        if now - loop_start + est > seconds or now + est > deadline:
            break

    attempted = 1 + SETUP_PER_PASS * len(plain) + (1 + trace) * sum(p.attempted for p in plain)
    failures += [f for p in plain for f in p.failures]
    failed = len(failures)
    walls = [p.wall for p in plain]
    print(f"{name}: seed {seed}, {len(plain)} untraced passes of {len(argvs)} invocations,"
          f" closed loop, 1 client, CLI defaults")
    if trace:
        per_pass = [traced.layer_metrics(t, wall) for t, wall, _ in tracers]
        metrics = {
            key: metric(statistics.median(p[key] for p in per_pass), "count" if key in traced.COUNTS else "s")
            for key in per_pass[0]
        }
        if "cli.output_bytes" in metrics:
            metrics["cli.output_bytes"]["unit"] = "bytes"
        overhead = statistics.median(w for _, w, _ in tracers) - statistics.median(walls)
        metrics["trace.overhead_s"] = metric(overhead, "s")
        absent = sorted(set().union(*(t.absent for t, _, _ in tracers)))
        print(f"  {len(tracers)} traced passes; absent spans: {', '.join(absent) or 'none'}")
        for key, val in metrics.items():
            print(f"  {key:34s} {val['value']:>14.6g} {val['unit']}")
        SPANS_DIR.mkdir(exist_ok=True)
        (SPANS_DIR / f"spans-{name}-seed{seed}.jsonl").write_text(
            "\n".join(traced.spans_jsonl(t, i) for i, (t, _, _) in enumerate(tracers)) + "\n"
        )
    else:
        metrics = {
            "wall_s": metric(statistics.median(walls), "s"),
            "cpu_s": metric(statistics.median(p.cpu for p in plain), "s"),
            "peak_rss_mb": metric(statistics.median(p.maxrss_mb for p in plain), "MB"),
            "setup_s": metric(statistics.median(setup) if setup else 0.0, "s"),
        }
        notes = {
            "wall_s": f"median of {len(walls)} passes, {min(walls):.3f}..{max(walls):.3f}; {tail(walls)}",
            "cpu_s": "median over passes, user + system, all CLI processes",
            "peak_rss_mb": "median over passes of the largest max-RSS of any CLI process",
            "setup_s": f"median of {len(setup)} fresh interpreters, GF2m({m})",
        }
        for key, val in metrics.items():
            print(f"  {key:12s} {val['value']:>10.4f} {val['unit']:3s}  {notes[key]}")
    print(f"  {'failed_frac':12s} {failed / attempted:>10.4f} -    {failed} of {attempted} CLI invocations and set-up interpreters")
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tracecodes" / "cli.py").is_file():
        print(f"error: no tracecodes sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment(args)}))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
