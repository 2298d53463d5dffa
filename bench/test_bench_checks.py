"""The benchmark's independent check routes, menus and failure paths."""

import json
import shutil
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

import checks
import run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_involution_numbers():
    assert [checks.root_count({1: n}, 2) for n in range(10)] == [
        1, 1, 2, 4, 10, 26, 76, 232, 764, 2620,
    ]


def test_r_values_m2():
    assert checks.r_values(8, 2) == [1, 1, 1, 3, 12, 60, 270, 1890, 14280]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 12, 60])
def test_counts_times_class_sizes_cover_the_group(m):
    for n in range(9):
        types = list(checks.partitions(n))
        assert sum(checks.class_size(t) for t in types) == factorial(n)
        assert sum(checks.root_count(t, m) * checks.class_size(t) for t in types) == factorial(n)
        assert all(checks.exists(t, m) == (checks.root_count(t, m) > 0) for t in types)


def test_r_values_match_class_sum():
    for m in (2, 3, 4, 6, 12):
        r = checks.r_values(10, m)
        for n in range(11):
            assert r[n] == sum(checks.class_size(t) for t in checks.partitions(n) if checks.exists(t, m))


def test_power_and_type_of():
    tau = [2, 3, 4, 1, 6, 5]  # (1 2 3 4)(5 6)
    assert checks.power(tau, 2) == [3, 4, 1, 2, 5, 6]
    assert checks.power(tau, 4) == list(range(1, 7))
    assert checks.type_of(tau) == {4: 1, 2: 1}


def cli_output(capsys, argv):
    from permroots.cli import main

    code = main(argv)
    captured = capsys.readouterr()
    assert checks.check(argv, code, captured.out, captured.err) is None
    return captured.out


def test_flags_wrong_count(capsys):
    argv = ["count", "-m", "2", "--type", "1^4", "-v"]
    out = cli_output(capsys, argv)
    assert out.startswith("10\n")
    assert checks.check(argv, 0, out.replace("10\n", "11\n", 1), "")
    assert checks.check(argv, 0, out.replace("solutions=3", "solutions=4"), "")


def test_flags_wrong_existence_witness(capsys):
    argv = ["exists", "-m", "4", "--perm", "2 1 4 3 5"]
    out = cli_output(capsys, argv)
    assert checks.check(argv, 0, out.replace("no", "yes", 1), "")


def test_flags_dropped_and_duplicated_roots(capsys):
    argv = ["roots", "--all", "-m", "2", "--perm", "3 4 1 2 5 6"]
    lines = cli_output(capsys, argv).splitlines()
    assert len(lines) == checks.root_count({2: 2, 1: 2}, 2)
    dropped = "\n".join(lines[:-1]) + "\n"
    duplicated = "\n".join(lines[:-1] + lines[:1]) + "\n"
    assert "root lines" in checks.check(argv, 0, dropped, "")
    assert "duplicate" in checks.check(argv, 0, duplicated, "")
    wrong = lines[:]
    wrong[0] = " ".join(reversed(wrong[0].split()))
    if wrong[0] not in lines:
        assert checks.check(argv, 0, "\n".join(wrong) + "\n", "")


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_flags_wrong_p_den(capsys, fmt):
    argv = ["table", "-m", "2", "--n", "3..8", "--format", fmt]
    out = cli_output(capsys, argv)
    assert "48" in out
    assert checks.check(argv, 0, out.replace("48", "49"), "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_flags_wrong_probability_block(capsys, fmt):
    argv = ["verify", "-q", "3", "-r", "1", "--blocks", "3", "--format", fmt]
    out = cli_output(capsys, argv)
    assert out.count("2/3") == 3
    assert checks.check(argv, 0, out.replace("2/3", "1/3", 1), "")


def test_selftest_and_exit_codes(capsys):
    argv = ["selftest", "--max-n", "3", "-m", "2"]
    out = cli_output(capsys, argv)
    assert checks.check(argv, 0, out.replace("selftest passed\n", ""), "")
    assert checks.check(argv, 5, out, "internal check failed")
    assert checks.check(argv, 0, out, "warning")


def worker_report(tmp_path, outputs):
    """A worker's report of one round, from (code, stdout) per command;
    command i took i + 1 ms."""
    results = []
    for i, (code, out) in enumerate(outputs):
        path = tmp_path / f"{i}.out"
        path.write_text(out)
        results.append({
            "code": code, "err": "", "wall_s": (i + 1) / 1000, "first_s": 0.0005, "out": str(path),
            "calibration_s": run.CALIBRATION_REFERENCE_S,
        })
    return {"results": results, "peak_rss_kb": 1024, "optimize": 0, "trace": None}


@pytest.mark.parametrize("code", [5, -1])
def test_a_failed_command_makes_the_run_incorrect_and_is_not_timed(tmp_path, capsys, code):
    commands = [["count", "-m", "2", "--type", "1^4"], ["selftest", "--max-n", "3", "-m", "2"]]
    good = cli_output(capsys, commands[0])
    rnd = run.judge(commands, worker_report(tmp_path, [(0, good), (code, "")]), run.Checker())
    metrics = run.end_to_end([rnd], [0.1])
    result = run.result_line([rnd], metrics)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    assert result["metrics"]["cmd_p50_ms"]["value"] == pytest.approx(1.0)
    assert result["metrics"]["items_per_s"]["value"] == pytest.approx(1000)


def test_a_run_where_every_command_fails_still_has_a_result(tmp_path):
    commands = [["selftest", "--max-n", "3", "-m", "2"]] * 2
    rnd = run.judge(commands, worker_report(tmp_path, [(5, ""), (5, "")]), run.Checker())
    result = run.result_line([rnd], run.end_to_end([rnd], [0.1]))
    assert (result["correct"], result["failed"]) == (False, 2)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    assert result["metrics"]["items_per_s"]["value"] == 0


def test_a_command_is_timed_by_a_fixed_number_of_rounds_spread_over_the_run(tmp_path):
    commands = [["count", "-m", "2", "--type", "1^4"]]
    n = 3 * (run.TIMED_ROUNDS - 1) + 1
    chosen = {3 * i for i in range(run.TIMED_ROUNDS)}
    assert max(chosen) == n - 1
    rounds = []
    for i in range(n):
        report = worker_report(tmp_path, [(0, "10\n")])
        report["results"][0]["wall_s"] = 0.9 if i in chosen else 0.1
        rounds.append(run.judge(commands, report, run.Checker()))
    assert run.end_to_end(rounds, [0.1])["cmd_p50_ms"][0] == pytest.approx(900)


def test_timings_are_scaled_by_the_calibration_loop_before_each_run(tmp_path):
    commands = [["count", "-m", "2", "--type", "1^4"]]
    rounds = []
    # The host ran the first two rounds at half the reference speed: the
    # command and its calibration both took twice as long.
    for wall, calibration in ((2, 2), (2, 2), (1, 1)):
        report = worker_report(tmp_path, [(0, "10\n")])
        report["results"][0]["wall_s"] = wall / 1000
        report["results"][0]["calibration_s"] = calibration * run.CALIBRATION_REFERENCE_S
        rounds.append(run.judge(commands, report, run.Checker()))
    metrics = run.end_to_end(rounds, [0.1])
    assert metrics["cmd_p50_ms"][0] == pytest.approx(1.0)
    assert metrics["items_per_s"][0] == pytest.approx(1000)


def test_root_menu_counts():
    for m, text, count in workloads.ROOT_TYPES:
        assert m in (2, 3, 4, 6, 12)
        assert checks.root_count(checks.parse_type(text), m) == count
        assert 10**3 <= count <= 10**5


def test_heavy_queries_keep_their_verdict():
    rootless = [core for m, core in workloads.HEAVY_COUNTS if not checks.exists(checks.parse_type(core), m)]
    assert len(rootless) == 7
    rng = workloads.random.Random(0)
    for i, (m, core) in enumerate(workloads.HEAVY_COUNTS):
        argv = workloads._heavy_query(m, core, i % 3 == 0, rng)
        assert checks.exists(checks.input_type(argv), m) == checks.exists(checks.parse_type(core), m)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_depend_on_the_seed_only(name):
    make = workloads.WORKLOADS[name]
    assert make(7) == make(7)
    assert len({repr(make(seed)) for seed in range(6)}) > 1


def test_traced_worker_counts(tmp_path):
    spec = {
        "commands": [["count", "-m", "2", "--type", "1^4"], ["roots", "--all", "-m", "2", "--type", "1^4"]],
        "outdir": str(tmp_path),
        "trace": True,
    }
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")], input=json.dumps(spec), capture_output=True,
        text=True, env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [r["code"] for r in report["results"]] == [0, 0]
    metrics = report["trace"]["metrics"]
    assert metrics["cli.main.calls"] == 2
    assert metrics["counting.root_count.calls"] == 2
    # (4,0) (2,1) (0,2) for each count, and again while constructing the roots
    assert metrics["gsets.iter_epsilons.yielded"] == 9
    assert metrics["perm.enumerate_roots.yielded"] == 10
    spans = report["trace"]["spans"]
    ids = {span[0] for span in spans}
    assert all(parent == 0 or parent in ids for *_, parent in spans)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_reports_every_listed_metric(tmp_path, trace):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "selftest-oracle", "--seed", "3",
         "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[0].removeprefix("meta "))
    assert {"cpu_model", "nproc", "python", "git_sha", "seed"} <= set(meta)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    traces = list((tmp_path / "bench" / "results").glob("trace-*.json"))
    assert len(traces) == (trace == "1")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "count-mix", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
