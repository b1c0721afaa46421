"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q

Checks that every workload runs and passes its gate, that every metric named
in BENCHMARK.json is emitted with its unit, that a run whose config the CLI
rejects or whose child process dies without a result is counted as failed
instead of crashing the harness, and that the benchmark refuses to run
without the program's sources.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402
import tracer  # noqa: E402

MANIFEST = bench.MANIFEST

# the benchmark's workloads in the same shapes, shrunk to run in seconds
TINY = {
    "ensemble": lambda seed: bench.ensemble(seed, n_traj=500, steps=50, lags=10),
    "kramers": lambda seed: bench.kramers(seed, n=32, steps=20, record_every=5),
    "compare": lambda seed: bench.compare(seed, n_traj=2000, times=(0.025, 0.05)),
    "decohere": lambda seed: bench.decohere(seed, steps=20, record_every=5),
}


@pytest.fixture
def tiny_main(monkeypatch, capsys):
    """Runs the benchmark's main() on the tiny workloads; returns the result line."""
    monkeypatch.setattr(bench, "WORKLOADS", TINY)

    def run_main(*args):
        assert bench.main(list(args)) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    return run_main


def test_tiny_workloads_match_the_benchmark():
    assert set(TINY) == set(bench.WORKLOADS) == {w["name"] for w in MANIFEST["workloads"]}


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_workload_emits_every_metric(tiny_main, trace, section):
    result = tiny_main("--workload", "all", "--seed", "3", "--seconds", "1",
                       "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == bench.MIN_REPS * len(MANIFEST["workloads"])
    expected = {f"{wl['name']}.{m['name']}": m["unit"]
                for wl in MANIFEST["workloads"] for m in MANIFEST[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_single_workload_prints_unprefixed_metrics(tiny_main):
    result = tiny_main("--workload", "kramers", "--seed", "4", "--seconds", "1",
                       "--trace", "0")
    assert set(result["metrics"]) == {m["name"] for m in MANIFEST["end_to_end"]}
    assert result["metrics"]["pass_frac"]["value"] == 1.0


def test_times_are_scaled_to_the_reference_speed():
    wl = TINY["kramers"](1)
    # a repetition with the kernel at twice its nominal time ran on a host at
    # half speed: its times are halved
    rep = {"wall_s": 4.0, "setup_s": 2.0, "solve_s": 1.0, "peak_rss_mb": 50.0,
           "problems": [], "ref_s": [1.5 * bench.reference.NOMINAL_S,
                                     2.5 * bench.reference.NOMINAL_S]}
    metrics = bench.end_to_end_metrics(wl, [rep])
    assert metrics["wall_s"][0] == pytest.approx(2.0)
    assert metrics["setup_s"][0] == pytest.approx(1.0)
    assert metrics["solve_s"][0] == pytest.approx(0.5)
    assert metrics["work_rate"][0] == pytest.approx(wl.points / 0.5)
    assert metrics["peak_rss_mb"][0] == 50.0


def test_rejected_config_is_counted_as_failed():
    good = TINY["decohere"](5)
    bad = dataclasses.replace(good, config={**good.config, "run.no_such_key": 1})
    logged = []
    result = bench.run([bad], 5, 0.0, False, logged.append)
    assert result["attempted"] == bench.MIN_REPS
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert result["metrics"]["pass_frac"]["value"] == 0.0
    assert any("exit code 2" in line for line in logged)


@pytest.mark.parametrize("trace", [False, True])
def test_child_without_result_is_counted_as_failed(trace):
    # an unknown subcommand makes cli.main raise SystemExit before any solve,
    # so the child process writes no result at all
    bad = dataclasses.replace(TINY["decohere"](6), command="no-such-command")
    logged = []
    result = bench.run([bad], 6, 0.0, trace, logged.append)
    assert result["attempted"] == bench.MIN_REPS
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in MANIFEST[section]}
    json.dumps(result, allow_nan=False)  # unmeasured values are null, not NaN
    if not trace:
        assert result["metrics"]["pass_frac"]["value"] == 0.0
        assert result["metrics"]["solve_s"]["value"] is None
    assert any("child wrote no result" in line for line in logged)


def test_refuses_to_run_without_sources():
    bare = os.path.join(bench.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--workload", "ensemble", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_child_spans(tmp_path):
    tr = tracer.Tracer("t")

    def inner():
        sum(range(20000))

    def outer():
        for _ in range(3):
            tr.call("inner", inner)

    tr.call("outer", outer)
    path = str(tmp_path / "spans.jsonl")
    tr.write(path)
    summary = tracer.summarize(path)
    assert summary["inner"]["calls"] == 3 and summary["outer"]["calls"] == 1
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["s"] - summary["inner"]["s"], abs=1e-12)
    assert summary["inner"]["self_s"] == summary["inner"]["s"]
