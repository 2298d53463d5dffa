"""Run one round of CLI commands in this fresh process and report timings.

Reads a JSON spec on stdin: {"commands": [argv, ...], "outdir": path,
"trace": bool}.  Each argv goes through ``permroots.cli.main`` with stdout
written to its own file in outdir and stderr captured.  The program's
caches are emptied and its garbage is collected before every command, so
that each starts as a CLI invocation does and its cost does not depend on
the commands before it.  Then a fixed calibration loop is timed, and then
the command.

Writes one JSON object on stdout: per command the exit code, stderr, wall
time, time to the first stdout write (its wall time when it wrote nothing)
and the time of the calibration loop just before it; the process's peak
resident memory after the last command; and, when tracing, the trace.

Run by run.py with PYTHONPATH pointing at the checkout's src directory.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import checks  # beside this script, first on sys.path


class FirstWrite:
    """A stdout stand-in that notes when the first text was written."""

    def __init__(self, stream):
        self._stream = stream
        self.first = None

    def write(self, text: str) -> int:
        if self.first is None:
            self.first = perf_counter()
            self.write = self._stream.write  # later prints skip this hook
        return self._stream.write(text)

    def __getattr__(self, attr):
        return getattr(self._stream, attr)


def run_command(main, argv: list[str], path: str) -> dict:
    err = io.StringIO()
    with open(path, "w", encoding="utf-8") as stream:
        sink = FirstWrite(stream)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = main(argv)
            except Exception:  # reported as a failed command, not a crash
                traceback.print_exc()
                code = -1
            stream.flush()
            end = perf_counter()
    return {
        "code": code,
        "err": err.getvalue(),
        "wall_s": end - start,
        "first_s": (end if sink.first is None else sink.first) - start,
        "out": path,
    }


def calibration_s() -> float:
    """Time of a fixed pure-Python loop like the program's own work: the
    benchmark's integer root counts over all cycle types of size <= 9.  It
    runs no permroots code, so it measures how fast the host runs this
    process right now."""
    start = perf_counter()
    for n in range(10):
        for t in checks.partitions(n):
            checks.root_count(t, 12)
            checks.root_count(t, 60)
    return perf_counter() - start


def peak_rss_kb() -> int:
    """High-water resident set of this process's own address space.

    VmHWM starts afresh at exec; ru_maxrss would also carry the parent's
    resident size over from the fork."""
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cache_clearers() -> list:
    """cache_clear of every lru_cache in the loaded permroots modules."""
    cached = {
        id(value): value
        for name, module in list(sys.modules.items())
        if name == "permroots" or name.startswith("permroots.")
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    }
    return [value.cache_clear for value in cached.values()]


def main() -> int:
    spec = json.load(sys.stdin)
    import permroots.cli as cli

    clearers = cache_clearers()  # before tracing wraps the cached functions
    # Objects from start-up are never garbage; frozen, they leave the
    # collection before each command next to nothing to scan.
    gc.freeze()
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    for i, argv in enumerate(spec["commands"]):
        for clear in clearers:
            clear()
        gc.collect()  # each command starts with no garbage, as a fresh process does
        calibration = calibration_s()
        results.append(run_command(cli.main, argv, os.path.join(spec["outdir"], f"{i}.out")))
        results[-1]["calibration_s"] = calibration
    report = {
        "results": results,
        "peak_rss_kb": peak_rss_kb(),
        "optimize": sys.flags.optimize,
        "trace": tracer.dump() if tracer else None,
    }
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
