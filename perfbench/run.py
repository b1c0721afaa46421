#!/usr/bin/env python3
"""bathdyn benchmark: the CLI workloads timed end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A workload is one fixed CLI run (``simulate`` or ``decohere``) whose config
is generated from --seed; the seed becomes ``run.seed`` where the command
reads one and otherwise jitters the initial state. One run of the benchmark
repeats the workload in fresh interpreters, one at a time (a closed loop with
one client), until --seconds have passed and at least MIN_REPS times. Every
repetition passes through the correctness gate and stays in the sample;
figures are medians over the repetitions. The harness and its repetitions
run on one CPU, and each repetition's times are scaled to the host's nominal
speed by a reference kernel timed on that CPU around it (reference.py).

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics from the traced ones;
``trace.overhead_s`` is the traced minus the untraced median solve time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A result file with
provenance and every repetition is written to perfbench/_work/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import reference  # noqa: E402  (benchmark-local modules beside this file)
import tracer  # noqa: E402

MIN_REPS = 4
MAX_REPS = 500
REP_TIMEOUT_S = 60.0
NPROC = os.cpu_count()
# The harness, the reference kernel and every repetition run on this one CPU,
# so that the kernel sees the same contention from the host's other tenants
# as the repetition it scales (reference.py). BLAS pools get one thread.
CPU = max(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
HIST_AREA_TOL = 1e-9
# Smoluchowski substeps per Langevin step on the compare grid: the ceiling
# of run.dt over smoluchowski_dt_max (12 at 512 cells on [-2, 4]). It is part
# of the workload's size, so a solver that needs fewer substeps shows a
# higher work_rate.
COMPARE_SUBSTEPS = 12
# per-layer metric "<span>.<field>": the fields computed for each span
SPAN_FIELDS = ("calls", "s", "self_s", "p50_us", "p99_us")


@dataclass(frozen=True)
class Workload:
    """One CLI run: subcommand, config, work done and the outputs it must write."""

    name: str
    command: str
    config: dict
    points: int  # state points advanced by one run: numerator of work_rate
    outputs: dict  # file name -> (CSV header, or None for JSON-lines; row count)

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())


def _rows_recorded(steps: int, every: int) -> int:
    """Rows of a series recorded at step 0, every `every` steps, and the last."""
    return 1 + steps // every + (1 if steps % every else 0)


def ensemble(seed: int, n_traj: int, steps: int, lags: int) -> Workload:
    config = {
        "sim.kind": "ensemble", "run.mode": "inertial",
        "potential.kind": "double_well", "bath.gamma": 2.0, "bath.k_bt": 0.5,
        "run.dt": 0.01, "run.steps": steps, "run.n_traj": n_traj, "run.seed": seed,
        "run.x0": 1.0, "run.sigma_x": 0.3, "run.sigma_v": 0.5,
        "output.autocorr_lags": lags,
    }
    outputs = {
        "moments.csv": (("key", "value"), 12),
        "histogram.csv": (("bin_left", "bin_right", "density"), 64),
        "autocorr.csv": (("lag", "t_lag", "value"), lags + 1),
    }
    return Workload("ensemble", "simulate", config, n_traj * steps, outputs)


def kramers(seed: int, n: int, steps: int, record_every: int) -> Workload:
    x0 = -1.0 + 0.1 * random.Random(seed).uniform(-1.0, 1.0)
    config = {
        "sim.kind": "kramers", "potential.kind": "double_well",
        "bath.gamma": 1.0, "bath.k_bt": 0.5,
        "grid.x_min": -4.0, "grid.x_max": 4.0, "grid.nx": n,
        "grid.v_min": -4.0, "grid.v_max": 4.0, "grid.nv": n,
        "fp.ordering": "momenta_left", "fp.dt": 0.0, "fp.x0": repr(x0),
        "fp.steps": steps, "fp.record_every": record_every,
    }
    outputs = {
        "mass.csv": (("step", "t", "mass"), _rows_recorded(steps, record_every)),
        "field.csv": (("x", "v", "P"), n * n),
    }
    return Workload("kramers", "simulate", config, n * n * steps, outputs)


def compare(seed: int, n_traj: int, times: tuple) -> Workload:
    dt, nx = 0.005, 512
    steps = round(max(times) / dt)
    config = {
        "sim.kind": "compare", "potential.kind": "harmonic",
        "bath.gamma": 4.0, "bath.k_bt": 0.5,
        "grid.x_min": -2.0, "grid.x_max": 4.0, "grid.nx": nx,
        "compare.times": ",".join(repr(t) for t in times),
        "run.dt": dt, "run.n_traj": n_traj, "run.seed": seed, "run.x0": 1.0,
    }
    outputs = {
        "compare.jsonl": (None, len(times)),
        "moments.csv": (("key", "value"), 7),
    }
    points = n_traj * steps + nx * steps * COMPARE_SUBSTEPS
    return Workload("compare", "simulate", config, points, outputs)


def decohere(seed: int, steps: int, record_every: int) -> Workload:
    separation = 4.0 + 0.2 * random.Random(seed).uniform(-1.0, 1.0)
    nx, ny = 101, 81
    config = {
        "state.kind": "superposition", "state.separation": repr(separation),
        "grid.nx": nx, "grid.ny": ny,
        "run.steps": steps, "run.record_every": record_every,
    }
    outputs = {
        "decay.csv": (("step", "t", "amplitude", "trace_re", "trace_im", "herm_dev"),
                      _rows_recorded(steps, record_every)),
        "rho_final.csv": (("x", "y", "re", "im"), nx * ny),
        "wigner_final.csv": (("x", "p", "w"), nx * ny),
    }
    return Workload("decohere", "decohere", config, nx * ny * steps, outputs)


# Why each workload exists, and the name and unit of every metric, are
# recorded in BENCHMARK.json; this file only computes the values.
WORKLOADS = {
    "ensemble": lambda seed: ensemble(seed, n_traj=16000, steps=400, lags=100),
    "kramers": lambda seed: kramers(seed, n=128, steps=400, record_every=20),
    "compare": lambda seed: compare(seed, n_traj=20000, times=(0.125, 0.25, 0.5)),
    "decohere": lambda seed: decohere(seed, steps=200, record_every=5),
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    MANIFEST = json.load(_fh)


def _with_units(section: str, values: dict) -> dict:
    """name -> (value, unit) for every metric BENCHMARK.json lists in `section`."""
    missing = [m["name"] for m in MANIFEST[section] if m["name"] not in values]
    if missing:
        raise ValueError(f"BENCHMARK.json lists metrics that are not computed: "
                         f"{', '.join(missing)}")
    return {m["name"]: (values[m["name"]], m["unit"]) for m in MANIFEST[section]}


# ---------------------------------------------------------------------------
# correctness gate


def _read_table(path: str, header):
    """Rows of a CSV (numbers parsed, `key` column kept as text) or JSON-lines."""
    with open(path, newline="") as fh:
        if header is None:
            rows = [json.loads(line) for line in fh if line.strip()]
            values = [v for row in rows for v in row.values()]
        else:
            reader = csv.reader(fh)
            if tuple(next(reader, ())) != header:
                raise ValueError(f"header is not {','.join(header)}")
            rows = []
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(f"row of {len(row)} fields")
                rows.append([v if col == "key" else float(v)
                             for col, v in zip(header, row)])
            values = [v for row in rows for v in row]
    if not all(math.isfinite(v) for v in values if isinstance(v, float)):
        raise ValueError("non-finite value")
    return rows


def check_outputs(wl: Workload, out_dir: str) -> tuple[list, dict]:
    """Problems found in one run's outputs (empty when it passes), and its tables."""
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        return [f"manifest.json: {exc}"], {}
    problems = [f"check {rec.get('name')} failed" for rec in manifest
                if rec.get("record") == "check" and rec.get("pass") is not True]
    listed = {rec.get("path") for rec in manifest if rec.get("record") == "output"}
    tables = {}
    for name, (header, n_rows) in wl.outputs.items():
        if name not in listed:
            problems.append(f"{name} not listed in manifest.json")
        try:
            rows = _read_table(os.path.join(out_dir, name), header)
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        if len(rows) != n_rows:
            problems.append(f"{name}: {len(rows)} rows, expected {n_rows}")
        tables[name] = rows
    if wl.name == "ensemble" and "moments.csv" in tables and "histogram.csv" in tables:
        # the ensemble writes no manifest checks of its own
        moments = dict(tables["moments.csv"])
        if moments.get("n_diverged") != 0.0:
            problems.append(f"n_diverged = {moments.get('n_diverged')}")
        area = math.fsum((right - left) * dens
                         for left, right, dens in tables["histogram.csv"])
        if not abs(area - 1.0) <= HIST_AREA_TOL:
            problems.append(f"histogram integrates to {area!r}")
    return problems, tables


# ---------------------------------------------------------------------------
# one repetition


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # the warm-up import writes bytecode caches that every timed run reuses,
    # as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def parse_importtime(text: str) -> dict:
    """Module -> (cumulative seconds, nesting depth) from `python -X importtime`."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        out[name.strip()] = (int(parts[1]) * 1e-6, depth)
    return out


def run_rep(wl: Workload, rep_dir: str, traced: bool, run_id: str, env: dict) -> dict:
    os.makedirs(rep_dir)
    cfg_path = os.path.join(rep_dir, "workload.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(wl.config_text())
    out_dir = os.path.join(rep_dir, "out")
    result_path = os.path.join(rep_dir, "child.json")
    spans_path = os.path.join(rep_dir, "spans.jsonl") if traced else "-"
    stderr_path = os.path.join(rep_dir, "stderr.txt")
    cmd = [sys.executable, *(("-X", "importtime") if traced else ()), CHILD,
           result_path, spans_path, run_id,
           wl.command, "--config", cfg_path, "--out", out_dir]
    with open(os.path.join(rep_dir, "stdout.txt"), "w") as out_fh, \
            open(stderr_path, "w") as err_fh:
        t_spawn = _now()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out_fh, stderr=err_fh)
        try:
            rc = proc.wait(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rc = None
        finally:  # also on interrupt: never leave the child running
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall_s = _now() - t_spawn
    rep = {"run_id": run_id, "traced": traced, "rc": rc, "wall_s": wall_s}
    problems = [] if rc == 0 else [f"exit code {rc}"]
    try:
        with open(result_path) as fh:
            child = json.load(fh)
    except (OSError, ValueError):
        problems.append("child wrote no result")
        child = None
    if child is not None:
        if not child["bathdyn_file"].startswith(SRC + os.sep):
            problems.append(f"bathdyn imported from {child['bathdyn_file']}")
        rep["setup_s"] = child["t_imported"] - t_spawn
        rep["solve_s"] = child["solve_s"]
        rep["peak_rss_mb"] = child["peak_rss_mb"]
    tables = {}
    if rc == 0:
        gate_problems, tables = check_outputs(wl, out_dir)
        problems += gate_problems
    moments = dict(tables.get("moments.csv", ()))
    rep["diverged"] = moments.get("n_diverged", 0.0)
    rep["output_bytes"] = sum(entry.stat().st_size for entry in os.scandir(out_dir)
                              if entry.is_file()) if os.path.isdir(out_dir) else 0
    if traced and child is not None and os.path.exists(spans_path):
        rep["layers"] = tracer.summarize(spans_path)
        with open(stderr_path) as fh:
            rep["imports"] = parse_importtime(fh.read())
    rep["problems"] = problems
    shutil.rmtree(out_dir, ignore_errors=True)  # outputs are checked; keep disk use flat
    return rep


# ---------------------------------------------------------------------------
# one benchmark run


def measure(wl: Workload, seconds: float, trace: bool, seed: int, log) -> list:
    """Repeat the workload until `seconds` have passed (and MIN_REPS times)."""
    work_dir = os.path.join(WORK, wl.name)
    shutil.rmtree(work_dir, ignore_errors=True)
    env = child_env()
    reps: list = []
    iter_s: list = []
    start = _now()
    while len(reps) < MAX_REPS:
        if len(reps) >= MIN_REPS and _now() - start + statistics.median(iter_s) > seconds:
            break
        t0 = _now()
        traced = trace and len(reps) % 2 == 1
        run_id = f"{wl.name}-seed{seed}-rep{len(reps)}"
        ref_before = reference.samples_s()
        rep = run_rep(wl, os.path.join(work_dir, f"rep{len(reps)}"), traced, run_id, env)
        rep["ref_s"] = ref_before + reference.samples_s()
        reps.append(rep)
        iter_s.append(_now() - t0)
        log(f"{run_id} {'traced' if traced else 'plain'}: wall {rep['wall_s']:.4f} s, "
            f"setup {rep.get('setup_s', math.nan):.4f} s, "
            f"solve {rep.get('solve_s', math.nan):.4f} s, "
            f"reference {statistics.median(rep['ref_s']):.4f} s, exit {rep['rc']}, "
            + ("ok" if not rep["problems"] else "FAILED: " + "; ".join(rep["problems"])))
    return reps


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 when nothing was recorded."""
    values = sorted(values)
    if not values:
        return 0.0
    return values[max(0, math.ceil(q / 100.0 * len(values)) - 1)]


def _at_nominal_speed(rep: dict, key: str) -> float:
    """rep[key] scaled by the reference kernel timed around the repetition."""
    return rep[key] * reference.NOMINAL_S / statistics.median(rep["ref_s"])


def end_to_end_metrics(wl: Workload, reps: list) -> dict:
    timed = [r for r in reps if "solve_s" in r]
    passed = sum(1 for r in reps if not r["problems"])
    return _with_units("end_to_end", {
        "wall_s": _median(_at_nominal_speed(r, "wall_s") for r in reps),
        "setup_s": _median(_at_nominal_speed(r, "setup_s") for r in timed),
        "solve_s": _median(_at_nominal_speed(r, "solve_s") for r in timed),
        "work_rate": _median(wl.points / _at_nominal_speed(r, "solve_s") for r in timed),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in timed),
        "pass_frac": passed / len(reps),
    })


def _span_metric(traced: list, name: str) -> float:
    """`<span>.<field>` over the traced repetitions; spans are named in tracer.py."""
    span, field = name.rsplit(".", 1)
    if field in ("p50_us", "p99_us"):
        pooled = [d * 1e6 for r in traced
                  for d in r["layers"].get(span, {}).get("durations_s", ())]
        return _percentile(pooled, 50.0 if field == "p50_us" else 99.0)
    return _median(r["layers"].get(span, {}).get(field, 0) for r in traced)


def layer_metrics(reps: list) -> dict:
    traced = [r for r in reps if "layers" in r]
    plain = [r for r in reps if not r["traced"] and "solve_s" in r]
    values = {
        "langevin.diverged": _median(r["diverged"] for r in traced),
        "cli.output_bytes": _median(r["output_bytes"] for r in traced),
        "setup.import_s": _median(
            sum(cum for mod, (cum, depth) in r["imports"].items()
                if depth == 0 and mod.split(".")[0] == "bathdyn")
            for r in traced),
        "setup.import.bathdyn.determinants_s": _median(
            r["imports"].get("bathdyn.determinants", (0.0, 0))[0] for r in traced),
        "trace.overhead_s": (_median(r["solve_s"] for r in traced)
                             - _median(r["solve_s"] for r in plain)),
    }
    for metric in MANIFEST["per_layer"]:
        name = metric["name"]
        span, field = name.rsplit(".", 1)
        if name not in values and field in SPAN_FIELDS \
                and (span in tracer.FUNCTIONS or span in tracer.METHODS):
            values[name] = _span_metric(traced, name)
    return _with_units("per_layer", values)


# ---------------------------------------------------------------------------
# provenance and output


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", f"--git-dir={os.path.join(ROOT, '.git')}",
                              "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, workloads: list) -> dict:
    env = child_env()
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": NPROC,
        "pinned_cpu": CPU,
        "reference_nominal_s": reference.NOMINAL_S,
        "cpu_model": _cpu_model(),
        "blas_thread_caps": {var: env[var] for var in BLAS_THREAD_VARS},
        "seed": seed,
        "config_sha256": {wl.name: hashlib.sha256(wl.config_text().encode()).hexdigest()
                          for wl in workloads},
    }


def _fmt_metrics(metrics: dict) -> dict:
    """Metrics as printed; a value no repetition measured is null."""
    return {name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()}


def run(workloads: list, seed: int, seconds: float, trace: bool, log) -> dict:
    """Measure each workload in turn; returns the result object that is printed."""
    os.sched_setaffinity(0, {CPU})
    metrics: dict = {}
    attempted = failed = 0
    unmeasured = []
    per_workload = {}
    for wl in workloads:
        reps = measure(wl, seconds, trace, seed, log)
        wl_metrics = layer_metrics(reps) if trace else end_to_end_metrics(wl, reps)
        # every repetition failed before it could measure these
        unmeasured += [f"{wl.name}.{name}" for name, (value, _) in wl_metrics.items()
                       if not math.isfinite(value)]
        for rep in reps:  # per-call durations are summarized; keep the record small
            for entry in rep.get("layers", {}).values():
                del entry["durations_s"]
        n_failed = sum(1 for r in reps if r["problems"])
        log(f"{wl.name}: {len(reps)} repetitions, failed_frac {n_failed / len(reps):.4g} "
            f"({n_failed}/{len(reps)})")
        for name, (value, unit) in wl_metrics.items():
            log(f"  {name:<44} {value:.6g} {unit}")
        prefix = f"{wl.name}." if len(workloads) > 1 else ""
        metrics.update({prefix + k: v for k, v in wl_metrics.items()})
        attempted += len(reps)
        failed += n_failed
        per_workload[wl.name] = {"failed_frac": n_failed / len(reps), "reps": reps,
                                 "metrics": _fmt_metrics(wl_metrics)}
    if unmeasured:
        log(f"not measured: {', '.join(unmeasured)}")
    result = {"correct": failed == 0 and not unmeasured, "attempted": attempted,
              "failed": failed, "metrics": _fmt_metrics(metrics)}
    record = {"result": result, "provenance": provenance(seed, workloads),
              "trace": trace, "seconds": seconds,
              "workloads": per_workload}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    names = "-".join(wl.name for wl in workloads)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(WORK, "results", f"{names}-seed{seed}-trace{int(trace)}-{stamp}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    log(f"result file: {os.path.relpath(path, ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bathdyn", "cli.py")):
        print(f"benchmark: no bathdyn sources under {SRC}", file=sys.stderr)
        return 1
    # compile and cache the package once: users do not pay that on every run
    warm = subprocess.run([sys.executable, "-c", "import bathdyn.cli"], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"benchmark: cannot import bathdyn.cli:\n{warm.stderr}", file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = run([WORKLOADS[name](args.seed) for name in names], args.seed,
                 args.seconds, bool(args.trace), lambda text: print(text, flush=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
