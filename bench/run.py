"""End-to-end and per-layer benchmark of the permroots CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload count-mix --seed 1 --seconds 30 --trace 0

The seed generates one round of CLI commands for the workload (see
workloads.py).  The round is run again and again, each time in a fresh
single-threaded worker process that empties the program's caches before
every command (so each starts as a CLI invocation does), until --seconds
have passed and at least TIMED_ROUNDS rounds are done; a round that has
started is finished.  Every command's output is checked by the independent
routes in checks.py, outside the timed region.

With --trace 0 the last line of stdout is the end-to-end result; with
--trace 1 untraced and traced rounds alternate, the last line holds the
per-layer metrics, and the spans go to bench/results/.  Exit status is 0
whenever a result line is printed; its "correct" field says whether every
command exited 0 with an output that passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from math import factorial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_SAMPLES = 5  # at the start; one more before every round
WORKER_TIMEOUT_S = 150
TIMED_ROUNDS = 20  # a command is timed by its runs in this many rounds, spread over the run
TAIL_MIN_ROUND = 100  # rounds this long report p90 as the tail (>= 10 beyond it)
# Median time of the worker's calibration loop on the reference host (see
# README.md); timings are reported at that host's speed.
CALIBRATION_REFERENCE_S = 0.0020


class BenchError(Exception):
    """The benchmark could not run: the program does not import, or a worker died."""


def worker_env() -> dict[str, str]:
    """The program from this checkout's src, without -O, and with a bytecode
    cache as an installed package has one."""
    cleared = ("PYTHONOPTIMIZE", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in cleared}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(env: dict[str, str]) -> float:
    """Seconds from spawning a cold interpreter until ``import
    permroots.cli`` returns in it."""
    code = "import time, permroots.cli; print(time.monotonic_ns())"
    start = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import permroots.cli: {proc.stderr.strip()[-500:]}")
    return (int(proc.stdout) - start) / 1e9


class Checker:
    """Checks outputs, remembering verdicts: a round repeats the same
    commands, and an identical output of the same argv gets the same
    verdict."""

    def __init__(self):
        self.verdicts: dict[tuple, str | None] = {}

    def verdict(self, argv: list[str], code: int, out: str, err: str) -> str | None:
        key = (tuple(argv), code, err, hashlib.sha256(out.encode()).digest())
        if key not in self.verdicts:
            self.verdicts[key] = checks.check(argv, code, out, err)
        return self.verdicts[key]


def items(argv: list[str], out: str) -> int:
    """Units of work a correct command delivered: a query answer, a root
    line, a table row or verified degree, or a permutation the oracle
    scanned."""
    cmd = argv[0]
    if cmd == "roots":
        return out.count("\n")
    if cmd == "table":
        lo, _, hi = checks.option(argv, "--n").partition("..")
        return int(hi or lo) - int(lo) + 1
    if cmd in ("prob", "verify"):
        return int(checks.option(argv, "--blocks", default="8")) * int(checks.option(argv, "-q"))
    if cmd == "selftest":
        ms = checks.option(argv, "-m", default="2,3,4").split(",")
        return len(ms) * sum(factorial(n) for n in range(int(checks.option(argv, "--max-n", default="5")) + 1))
    return 1


def run_round(commands: list[list[str]], env: dict[str, str], trace: bool, checker: Checker) -> dict:
    outdir = RESULTS / f"tmp-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    spec = {"commands": commands, "outdir": str(outdir), "trace": trace}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")], input=json.dumps(spec), env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return judge(commands, json.loads(proc.stdout), checker)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def judge(commands: list[list[str]], report: dict, checker: Checker) -> dict:
    """Check every output of a worker's report.  Each result gets its
    `failure` (None, or the reason) and the items it delivered: none when
    it failed."""
    for argv, result in zip(commands, report["results"]):
        out = Path(result["out"]).read_text(encoding="utf-8")
        result["failure"] = checker.verdict(argv, result["code"], out, result["err"])
        result["items"] = 0 if result["failure"] else items(argv, out)
    report["wall_s"] = sum(r["wall_s"] for r in report["results"])
    return report


def run_rounds(commands, env, seconds: float, traced: bool, checker: Checker):
    """Rounds until `seconds` have passed.  Untraced, the run goes on until
    at least TIMED_ROUNDS rounds are done; with `traced`, untraced and traced
    rounds alternate and there are as many of each.  A set-up sample
    precedes every round, so that set-up is sampled across the run and not
    only at its start."""
    measure_setup(env)  # compiles the bytecode cache, as a user's first run would
    setup = [measure_setup(env) for _ in range(SETUP_SAMPLES - 1)]
    plain, traces = [], []
    start = time.monotonic()
    while True:
        setup.append(measure_setup(env))
        if traced and len(traces) < len(plain):
            traces.append(run_round(commands, env, True, checker))
        else:
            plain.append(run_round(commands, env, False, checker))
        enough = (len(traces) == len(plain)) if traced else (len(plain) >= TIMED_ROUNDS)
        if enough and time.monotonic() - start >= seconds:
            return setup, plain, traces


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed_rounds(rounds: list) -> list:
    """TIMED_ROUNDS of the rounds, spread evenly from the first to the last."""
    if len(rounds) <= TIMED_ROUNDS:
        return rounds
    step = (len(rounds) - 1) / (TIMED_ROUNDS - 1)
    return [rounds[round(i * step)] for i in range(TIMED_ROUNDS)]


def end_to_end(rounds: list[dict], setup: list[float]) -> dict:
    """Every round runs the same commands.  Each run of a command is timed
    in units of the calibration loop run just before it in the same
    process, which runs no permroots code: a host phase that slows the
    command slows the loop as much, and the ratio divides it out.  A
    command's time is the median of that ratio over its successful runs
    among TIMED_ROUNDS rounds spread evenly over the whole run, times
    CALIBRATION_REFERENCE_S; that is, its time on the reference host.  A
    fixed number of rounds and a median keep the figure from depending on
    how many rounds fit into the run.  Throughput, median and tail are then
    taken across the commands of the round.  A command that never
    succeeded is left out, unless none did: then every run is timed (and
    the run is not correct)."""
    per_command = [list(runs) for runs in zip(*(rnd["results"] for rnd in timed_rounds(rounds)))]
    succeeded = [[r for r in runs if r["failure"] is None] for runs in per_command]
    if any(succeeded):
        per_command = [runs for runs in succeeded if runs]

    def scaled(runs: list[dict], key: str) -> float:
        return statistics.median(r[key] / r["calibration_s"] for r in runs) * CALIBRATION_REFERENCE_S

    walls = [scaled(runs, "wall_s") for runs in per_command]
    firsts = [scaled(runs, "first_s") for runs in per_command]
    items = sum(runs[0]["items"] for runs in per_command)
    tail = percentile_90(walls) if len(walls) >= TAIL_MIN_ROUND else statistics.median(walls)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rnd["peak_rss_kb"] for rnd in rounds) / 1024, "MB"),
        "items_per_s": (items / sum(walls), "1/s"),
        "cmd_p50_ms": (statistics.median(walls) * 1000, "ms"),
        "cmd_tail_ms": (tail * 1000, "ms"),
        "first_out_ms": (statistics.median(firsts) * 1000, "ms"),
    }


def result_line(rounds: list[dict], metrics: dict) -> dict:
    """The run is correct when every command of every round succeeded, in
    an interpreter that kept its assertions."""
    results = [r for rnd in rounds for r in rnd["results"]]
    failed = sum(r["failure"] is not None for r in results)
    optimized = any(rnd["optimize"] for rnd in rounds)
    return {
        "correct": failed == 0 and not optimized,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "per_value")):
        return "ratio"
    return "count"


def per_layer(traces: list[dict]) -> dict:
    names = traces[0]["trace"]["metrics"]
    return {
        name: (statistics.median(t["trace"]["metrics"][name] for t in traces), per_layer_unit(name))
        for name in names
    }


def machine(seed: int, workload: str, seconds: int, trace: bool) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "permroots" / "cli.py").is_file():
        print(f"error: no src/permroots under {ROOT}; run from a permroots checkout", file=sys.stderr)
        return 2
    meta = machine(args.seed, args.workload, args.seconds, bool(args.trace))
    print("meta " + json.dumps(meta, sort_keys=True))
    commands = WORKLOADS[args.workload](args.seed)
    env = worker_env()
    checker = Checker()
    try:
        setup, plain, traces = run_rounds(commands, env, args.seconds, bool(args.trace), checker)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = plain + traces
    failures = [(argv_, r["failure"]) for rnd in rounds for argv_, r in zip(commands, rnd["results"]) if r["failure"]]
    calibration = statistics.median(r["calibration_s"] for rnd in timed_rounds(plain) for r in rnd["results"])
    print(f"rounds {len(plain)} untraced + {len(traces)} traced, {len(commands) * len(rounds)} commands, "
          f"{len(failures)} failed; median calibration loop {calibration * 1000:.3f} ms")
    for argv_, reason in failures[:5]:
        print(f"FAILED {' '.join(argv_)[:120]}: {reason[:300]}", file=sys.stderr)

    if args.trace:
        untraced_s = statistics.median(rnd["wall_s"] for rnd in plain)
        traced_s = statistics.median(rnd["wall_s"] for rnd in traces)
        overhead = traced_s / untraced_s - 1
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        dump = {
            "meta": meta,
            "untraced_round_s": [rnd["wall_s"] for rnd in plain],
            "traced_round_s": [rnd["wall_s"] for rnd in traces],
            "overhead": overhead,
            "round_metrics": [rnd["trace"]["metrics"] for rnd in traces],
            "first_traced_round": traces[0]["trace"],
        }
        path.write_text(json.dumps(dump))
        print(
            f"trace overhead {overhead:+.1%} (median round {traced_s:.3f} s traced, "
            f"{untraced_s:.3f} s untraced); spans and counts in {path.relative_to(ROOT)}"
        )
        metrics = per_layer(traces)
    else:
        metrics = end_to_end(plain, setup)
    print(json.dumps(result_line(rounds, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
