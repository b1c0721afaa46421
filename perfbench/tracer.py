"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions that the CLI and the solver layers call
into. A function is replaced at every module reference to it, so a call made
through ``from .fokker_planck import kramers_dt_max`` in ``bathdyn.cli`` is
recorded as well as the one made inside ``fokker_planck``. Nothing under
``src/`` is edited: the wrapping happens in the benchmark's child process
after ``bathdyn.cli`` is imported.

Spans (id, parent, name, start, end) are kept in memory and written as
JSON-lines when the run ends. ``summarize`` turns a span file into per-name
call counts, total time, self time (duration minus direct children) and the
per-call durations.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# span name -> (module, attribute): a function wrapped at every reference
FUNCTIONS = {
    "noise.derive_rng": ("bathdyn.noise", "derive_rng"),
    "langevin.run_ensemble": ("bathdyn.langevin", "run_ensemble"),
    "fokker_planck.kramers_step": ("bathdyn.fokker_planck", "kramers_step"),
    "fokker_planck.kramers_dt_max": ("bathdyn.fokker_planck", "kramers_dt_max"),
    "fokker_planck.smoluchowski_step": ("bathdyn.fokker_planck", "smoluchowski_step"),
    "fokker_planck.smoluchowski_dt_max": ("bathdyn.fokker_planck", "smoluchowski_dt_max"),
    "fokker_planck.compare_langevin_fp": ("bathdyn.fokker_planck", "compare_langevin_fp"),
    "decoherence.master_step": ("bathdyn.decoherence", "master_step"),
    "decoherence.interference_amplitude": ("bathdyn.decoherence", "interference_amplitude"),
    "decoherence.wigner_transform": ("bathdyn.decoherence", "wigner_transform"),
    "cli.write_csv": ("bathdyn.cli", "write_csv"),
}

# span name -> (module, class, method): wrapped on the class and on every
# subclass that defines the method
METHODS = {
    "potentials.grad": ("bathdyn.potentials", "Potential", "grad"),
    "cli.manifest_write": ("bathdyn.cli", "Manifest", "write"),
}

ROOT_SPAN = "cli.main"


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self._spans: list = []
        self._stack: list = [None]

    def call(self, name: str, fn, *args, **kwargs):
        sid = len(self._spans)
        self._spans.append(None)  # reserve the id; filled in on exit
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._spans[sid] = (sid, parent, name, start, end)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every target; raises if one no longer exists."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "bathdyn" or key.startswith("bathdyn.")]
        for name, (mod_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[mod_name], attr)
            traced = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        for name, (mod_name, cls_name, attr) in METHODS.items():
            base = getattr(sys.modules[mod_name], cls_name)
            for cls in [base, *base.__subclasses__()]:
                if attr in vars(cls):
                    setattr(cls, attr, self._wrap(name, vars(cls)[attr]))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self._spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start_ns": start, "end_ns": end}))
                fh.write("\n")


def summarize(path: str) -> dict:
    """name -> {"calls", "s", "self_s", "durations_s"} for one span file."""
    with open(path) as fh:
        spans = [json.loads(line) for line in fh if line.strip()]
    dur = {s["id"]: (s["end_ns"] - s["start_ns"]) * 1e-9 for s in spans}
    child_time: dict = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + dur[s["id"]]
    out: dict = {}
    for s in spans:
        d = dur[s["id"]]
        entry = out.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                           "durations_s": []})
        entry["calls"] += 1
        entry["s"] += d
        entry["self_s"] += d - child_time.get(s["id"], 0.0)
        entry["durations_s"].append(d)
    return out
