"""resichain benchmark: end-to-end numbers, or per-layer numbers from a traced run.

    python3 bench/run.py --workload {sweep,closure,cli,all} --seed N
        [--seconds S] [--trace 0|1]

Workloads (bench/workloads.py has the details):
  sweep    criterion 2's spans: one-sided amalgam search in a class pool;
  closure  HS-closures of generator sets and their amalgamation verdicts;
  cli      passes of 100 sequential ``python3 -m resichain.cli`` calls.

Everything is closed-loop: one client, one operation at a time. Each
workload runs in fresh interpreters, so import and cache warm-up are paid
as a gate run or a CLI user pays them.

--trace 0 prints the end-to-end metrics. ``setup_s`` is the median over
three fresh interpreters of the time from start until the inputs are
ready; the last of the three then runs operations for S seconds. Times
are scaled to a reference machine speed (workloads.Speedometer).

--trace 1 runs a fixed, seed-determined list of operations twice, each in
a fresh interpreter: once plain and once under bench/tracer.py. It prints
per-layer call counts, self times and outcome ratios, and the ratio of the
two runs' operation times. Layers a workload does not reach read 0.

Every operation's output is checked after the timed phase. The last line
of output is one JSON object: correct, attempted, failed and metrics.
``correct`` is false when an operation fails that is not one of the cli
workload's known-defect inputs, or when the inputs themselves are wrong.
The exit code is nonzero, with no result line, when the benchmark cannot
run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import SPAN_NAMES, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep", "closure", "cli")
CLI_VERBS = (
    "make", "check", "decompose", "residual", "congruences", "quotient", "embed",
    "homs", "words", "as-op", "pcondition", "enumerate", "verify", "amalgamate",
    "classify", "ap",
)
SETUP_RUNS = 3
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(workload, mode, args, work: Path, deadline: float, spans=None):
    """Start workloads.py in a fresh interpreter (its own process group);
    return (seconds until it reported ready, its result or None)."""
    work.mkdir(parents=True)
    cmd = [
        sys.executable, str(BENCH / "workloads.py"), workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--work", str(work),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), _kill_group, (proc,))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            _kill_group(proc)
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not ready.startswith('{"ready"'):
        raise BenchError(f"{workload} {mode} run ended with code {proc.returncode}")
    setup_s *= json.loads(ready)["scale"]
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.splitlines()[-1])["result"]


def _p90(values):
    return statistics.quantiles(values, n=10)[8]


def end_to_end(workload, args, work: Path, deadline: float):
    setups = []
    for k in range(SETUP_RUNS - 1):
        setup_s, _ = run_child(workload, "setup", args, work / f"setup{k}", deadline)
        setups.append(setup_s)
    setup_s, res = run_child(workload, "timed", args, work / "timed", deadline)
    setups.append(setup_s)
    ms = [s * 1e3 for s in res["latencies_s"]]
    metrics = {
        "ops_per_s": (res["attempted"] / sum(res["latencies_s"]), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (_p90(ms), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    res["notes"] = [f"unscaled ops_per_s {res['attempted'] / res['raw_total_s']:.6g} 1/s"]
    return res, metrics


def per_layer(workload, args, work: Path, deadline: float):
    _, plain = run_child(workload, "fixed", args, work / "plain", deadline)
    spans = work / "spans"
    if workload == "cli":
        spans.mkdir(parents=True)
    _, traced = run_child(workload, "fixed", args, work / "traced", deadline, spans=spans)
    paths = sorted(spans.iterdir()) if workload == "cli" else [spans]
    summary = summarize(paths)
    calls, self_s, outcomes = summary["calls"], summary["self_s"], summary["outcomes"]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    emb = "morphisms.enumerate_embeddings"
    metrics[f"{emb}.empty_ratio"] = (
        ratio(outcomes[emb].get("empty", 0), calls[emb]), "ratio")
    metrics["amalgamation.find_amalgam.candidates_scanned"] = (traced["candidates_scanned"], "count")
    metrics["amalgamation.find_amalgam.hit_ratio"] = (
        ratio(traced["certificates"], traced["candidates_scanned"]), "ratio")
    comp = "amalgamation.amalgamate_components"
    metrics[f"{comp}.mismatch_ratio"] = (
        ratio(outcomes[comp].get("ShapeMismatch", 0), calls[comp]), "ratio")
    metrics["trace_overhead_ratio"] = (
        sum(traced["latencies_s"]) / sum(plain["latencies_s"]), "ratio")

    cli_ms = {verb: 0.0 for verb in CLI_VERBS}
    by_verb = {}
    for verb, lat in zip(plain["verbs"], plain["latencies_s"]):
        by_verb.setdefault(verb, []).append(lat * 1e3)
    cli_ms.update({verb: statistics.median(v) for verb, v in by_verb.items()})
    metrics["cli.interpreter_ms"] = (plain["startup_ms"].get("interpreter_ms", 0.0), "ms")
    metrics["cli.import_ms"] = (plain["startup_ms"].get("import_ms", 0.0), "ms")
    for verb in CLI_VERBS:
        metrics[f"cli.{verb}.ms_p50"] = (cli_ms[verb], "ms")
    problems = plain["problems"] + traced["problems"]
    unexpected = plain["unexpected_failures"] + traced["unexpected_failures"]
    res = {**traced, "problems": problems, "unexpected_failures": unexpected}
    return res, metrics


def run_workload(workload, args) -> None:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    try:
        measure = per_layer if args.trace else end_to_end
        res, metrics = measure(workload, args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    for problem in res["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"workload {workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for note in res.get("notes", ()):
        print(note)
    failed_ratio = res["failed"] / res["attempted"]
    print(f"failed_ratio {failed_ratio:.6g} ratio ({res['failed']} of {res['attempted']})")
    print(json.dumps({
        "correct": res["unexpected_failures"] == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its workload processes (run_child's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # one client on one CPU: the speed samples then see the same core as
    # the operations, CLI child processes included
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    if not (ROOT / "src" / "resichain" / "__init__.py").is_file():
        print(f"no resichain package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            run_workload(workload, args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
