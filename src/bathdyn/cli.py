"""Command-line front end: config parsing, subcommands, CSV/JSON-lines output.

Configs are flat key=value text files with dotted section keys
(``bath.gamma=2.0``). Every run writes its tables as CSV with floats at 17
significant digits (so reruns diff cleanly) plus a ``manifest.json`` of
JSON-lines records written atomically at the end; the output directory is
created by the first write. Exit codes: 0 success, 1 failed check or
failure of the run, 2 configuration error (see ``main``). A run that fails
with 1 or 2 on an error still writes its manifest, ending in an ``error``
record with the exit code and the line printed to stderr.

``main`` owns a run's lifecycle: it loads the config, hands it and the
``Manifest`` to the subcommand, ``cmd_x(cfg, man)``, which reads its
keys, does its work and records its outputs and checks, and then writes the
manifest and turns the checks or the error into the exit code.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys
from itertools import chain

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    as_choice,
    as_float,
    as_float_list,
    as_int,
    load_config,
)
from .decoherence import (
    _EDGE_TOL,
    _HERM_TOL,
    MasterOperator,
    _check_dy,
    _odd_padded,
    _ridge_amplitude,
    decoherence_params,
    gaussian_pure_state,
    superposition_state,
    wigner_transform,
)
from .fokker_planck import (
    _MASS_TOL,
    KramersOperator,
    Ordering,
    PhaseGrid,
    SmoluchowskiOperator,
    _compare_steps,
    compare_langevin_fp,
    gaussian_field_1d,
    gaussian_field_2d,
)
from .kernels import (
    BathParams,
    Drude,
    Ohmic,
    ParameterError,
    _quantum_terms,
    friction_kernel_time,
    noise_kernel_freq,
    noise_kernel_time,
    spectral_density,
)
from .langevin import _MODES, SimConfig, StabilityError, _chunk_size, run_ensemble
from .potentials import DoubleWell, Harmonic, Polynomial


# ---------------------------------------------------------------------------
# output helpers


# cell types that "%.17g" and "%d" write: floats, and integers in full
_FLOAT_TYPES = frozenset({float, *(np.dtype(c).type for c in "efd")})
_INT_TYPES = frozenset({int, *(np.dtype(c).type for c in np.typecodes["AllInteger"])})
_QUOTED = frozenset(',"\r\n')  # a text cell holding one of these would be quoted
_BATCH_ROWS = 1024  # rows formatted at once: bounds the text held in memory


def _spec(col) -> str:
    """The %-format of one column: "%.17g" for floats, "%d" for integers, and
    "%s" for nonempty text that csv.writer writes unquoted. A column of any
    other cells (bools, empty or quoted text, or a mix of kinds) raises
    TypeError."""
    kinds = set(map(type, col))
    if kinds <= _FLOAT_TYPES:
        return "%.17g"
    if kinds <= _INT_TYPES:
        return "%d"
    if kinds == {str} and all(cell and _QUOTED.isdisjoint(cell) for cell in col):
        return "%s"
    raise TypeError("CSV columns must hold floats, integers or unquoted nonempty text "
                    f"(got {sorted(kind.__name__ for kind in kinds)})")


def write_csv(path, header, columns) -> None:
    """CSV table with a header row from columns of equal length (sequences or
    1-D arrays) of one kind each, as _spec formats them: floats at 17
    significant digits, integers in full, or unquoted text. Rows are
    formatted _BATCH_ROWS at a time from slices of the columns through one
    %-format string, so only one batch of cells and text is held beside the
    columns. Raises ValueError when the columns differ in length."""
    columns = list(columns)
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for start in range(0, n_rows, _BATCH_ROWS):
            batch = [col[start:start + _BATCH_ROWS] for col in columns]
            batch = [b.tolist() if isinstance(b, np.ndarray) else b for b in batch]
            line = ",".join(map(_spec, batch)) + "\n"
            fh.write((line * len(batch[0])) % tuple(chain.from_iterable(zip(*batch))))


def write_product_csv(path, header, a, b, *fields) -> None:
    """CSV table over the product grid of a and b, i outer: rows (a[i],
    b[j], f[i, j], ...) for each float field f of shape (len(a), len(b)),
    every cell at 17 significant digits; a field of any other dtype raises
    TypeError. The bytes are those of write_csv on a repeated per b, b
    tiled per a and each field raveled, but each cell of a and b is
    formatted once: the rows of one a[i] fill a line template per b[j] in
    one %-format, so one a row of text is held at a time."""
    a_cells, b_cells = (["%.17g" % v for v in np.asarray(c, dtype=float).tolist()]
                        for c in (a, b))
    fields = [np.asarray(f).reshape(len(a_cells), len(b_cells)) for f in fields]
    if any(f.dtype.kind != "f" for f in fields):
        raise TypeError("product table fields must be floats")
    cells = ",%.17g" * len(fields) + "\n"
    lines = ["", *("," + c + cells for c in b_cells)]
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for i, a_cell in enumerate(a_cells):
            row = chain.from_iterable(zip(*(f[i].tolist() for f in fields)))
            fh.write(a_cell.join(lines) % tuple(row))


_MOMENT_KEYS = ("n_traj", "n_diverged", "steps", "dt", "mean_x", "var_x", "se_x")
_MOMENT_KEYS_V = ("mean_v", "var_v", "se_v", "cov_xv", "se_cov_xv")


def _write_moments(man: Manifest, stats) -> None:
    """moments.csv of an EnsembleStats, (key, value) rows of the counts and x
    moments, then the v moments when the run kept velocities, every value a
    float; and the run's none_diverged verdict: a trajectory that diverged
    fails the run. A moment of survivors that is not finite, but for the
    covariance of one survivor, has overflowed: a RuntimeError, raised before
    the table is written."""
    man.phase = "stats"
    keys = list(_MOMENT_KEYS)
    if stats.final_v is not None:
        keys += _MOMENT_KEYS_V
    values = [float(getattr(stats, k)) for k in keys]
    survivors = stats.n_traj - stats.n_diverged
    for key, value in zip(keys, values):
        if survivors and not math.isfinite(value) and not (survivors == 1 and "cov" in key):
            raise RuntimeError(f"{key} of the {survivors} surviving trajectories is not finite "
                               f"(got {value:g})")
    man.csv("moments.csv", ("key", "value"), (keys, values))
    ok = stats.n_diverged == 0
    man.check("none_diverged", ok, f"check no trajectory diverged: {_tag(ok)} "
              f"({stats.n_diverged} of {stats.n_traj})", n_diverged=stats.n_diverged,
              n_traj=stats.n_traj)


def write_jsonl(path, records) -> None:
    """One JSON object per line, keys sorted for stable diffs."""
    with open(path, "w", newline="") as fh:
        for rec in records:
            # numpy scalars and arrays go through json's hook as Python values
            fh.write(json.dumps(rec, sort_keys=True, default=lambda v: v.tolist()) + "\n")


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


class Manifest:
    """Run metadata accumulator and owner of the run's output files and
    progress lines (none when quiet); written atomically as JSON-lines.
    phase names the part of the run under way, which a failed run's error
    record carries: build until a command sets step or stats, and write
    while an output file is written."""

    def __init__(self, command: str, out_dir: str, quiet: bool = False):
        self.command = command
        self.out_dir = out_dir
        self.quiet = quiet
        self.started = _utc_now()
        self.outputs: list[str] = []
        self.records: list[dict] = []  # check and error records, in order
        self.phase = "build"

    def _path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(self.out_dir, name)

    def _write(self, name: str, write, *args) -> None:
        """write(path, *args) of output `name` in the write phase, after which
        the output is listed and the phase restored."""
        phase, self.phase = self.phase, "write"
        write(self._path(name), *args)
        self.phase = phase
        self.outputs.append(name)

    def csv(self, name: str, header, columns) -> None:
        self._write(name, write_csv, header, columns)

    def product_csv(self, name: str, header, a, b, *fields) -> None:
        self._write(name, write_product_csv, header, a, b, *fields)

    def jsonl(self, name: str, records) -> None:
        self._write(name, write_jsonl, records)

    def say(self, line: str) -> None:
        """Print a progress line unless quiet. A reader that closed stdout
        (``| head``) ends the progress lines, not the run: stdout is pointed
        at os.devnull, where later lines and the exit flush go."""
        if not self.quiet:
            try:
                print(line, flush=True)
            except BrokenPipeError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())

    def check(self, name: str, passed: bool, line: str | None = None, **extra) -> None:
        """Record a verdict, after printing its line if one is given."""
        if line is not None:
            self.say(line)
        self.records.append({"record": "check", "name": name, "pass": bool(passed), **extra})

    @property
    def all_passed(self) -> bool:
        return all(r["pass"] for r in self.records if r["record"] == "check")

    def write(self, resolved: dict) -> None:
        records = [
            {
                "record": "run",
                "command": self.command,
                "version": __version__,
                "started": self.started,
                "finished": _utc_now(),
            },
            {"record": "config", "values": dict(sorted(resolved.items()))},
        ]
        records += [{"record": "output", "path": name} for name in self.outputs]
        records += self.records
        final = self._path("manifest.json")
        tmp = final + ".tmp"
        write_jsonl(tmp, records)
        os.replace(tmp, final)


# RunConfig.get rules, (test, text); every test is False on NaN
_FINITE = (math.isfinite, "finite")
_FINITE_POSITIVE = (lambda v: 0.0 < v < math.inf, "finite and > 0")


# the config values of fp.ordering and decohere.ordering
_ORDERING = as_choice(*(o.value for o in Ordering))


def _at_least(n: int) -> tuple:
    return (lambda v: v >= n, f">= {n}")


# bytes of float64 values that one size rule admits: a stated bound, not this
# host's memory, so a config's exit code does not depend on the machine. It
# admits 131,072 steps of step noise at any run.n_traj, 40 times the benchmark
# ensemble's buffer, and 67,108,864 trajectories of an ensemble, 671 times the
# largest run of the benchmark and of checks.py (criterion 6's 100,000)
_SIZE_LIMIT = 1 << 30


def _size_rule(key: str, what: str, doubles: int) -> tuple[bool, str, str]:
    """(ok, key, text) of one cfg.require call: the rule that holds a run's
    `doubles` float64 values, `what` they are, within _SIZE_LIMIT before the
    first allocation it guards."""
    return 8 * doubles <= _SIZE_LIMIT, key, (
        f"keep {what} x 8 bytes, within {_SIZE_LIMIT:,} bytes (got {8 * doubles:,})")


# the config key of each refused parameter whose value the command derives
# from that key; any other ParameterError names the last key its run read
# whose last dotted part is the parameter's name
_ALIASES = {"t_grid": "grid.nt", "t_min": "grid.t_max", "omega": "grid.w_max",
            "n_bins": "compare.bins"}


def _tag(passed) -> str:
    return "pass" if passed else "FAIL"


def _budget_check(man: Manifest, quantity: str, ordering: Ordering, sink_rate: float,
                  start: float, end: float, t: float, bound: float, **fields) -> None:
    """Record the exact budget verdict of a run whose sink is uniform: the
    final mass or trace, end, equals start exp(-sink_rate t) within bound,
    strictly. sink_rate is the rate the physics gives the ordering, not the
    operator's own sink, so a wrong sink fails the check; momenta-left has
    rate 0, where the drift is |end - start| bit for bit and the check keeps
    its name, mass_conserved or trace_constant. A symmetric run's check is
    <quantity>_follows_sink and records sink_rate. The record carries the
    drift and the given fields; the trace check prints its line, as each
    decohere check does."""
    drift = abs(end - start * math.exp(-sink_rate * t))
    ok = drift < bound
    if ordering is Ordering.MOMENTA_LEFT:
        name, rule = {"mass": "mass_conserved", "trace": "trace_constant"}[quantity], "constant"
    else:
        name, rule = f"{quantity}_follows_sink", f"follows exp(-{sink_rate:.6g} t)"
        fields["sink_rate"] = sink_rate
    line = (f"check trace {rule} within 1e-8: {_tag(ok)} (drift {drift:.3g})"
            if quantity == "trace" else None)
    man.check(name, ok, line, drift=drift, **fields)


def _bath_from(cfg: RunConfig, names, **defaults) -> BathParams:
    """BathParams from the bath.<name> key of each of names, read in turn with
    the calling command's defaults, or 1 (0 for hbar); a field whose key the
    run does not read keeps its default, on which none of its outputs depends."""
    values = {"mass": 1.0, "gamma": 1.0, "k_bt": 1.0, "hbar": 0.0, **defaults}
    for name in names:
        values[name] = cfg.get(f"bath.{name}", as_float, values[name])
    return BathParams(**values)


def _potential_from(cfg: RunConfig, mass: float, allow_none: bool = False):
    choices = ["harmonic", "double_well", "polynomial"]
    default = "harmonic"
    if allow_none:
        choices.append("none")
        default = "none"
    kind = cfg.get("potential.kind", as_choice(*choices), default)
    if kind == "harmonic":
        return Harmonic(mass=mass, omega0=cfg.get("potential.omega0", as_float, 1.0))
    if kind == "double_well":
        return DoubleWell(a=cfg.get("potential.a", as_float, -1.0),
                          b=cfg.get("potential.b", as_float, 0.25))
    if kind == "polynomial":
        return Polynomial(coeffs=cfg.get("potential.coeffs", as_float_list))
    return None


# ---------------------------------------------------------------------------
# kernels


def cmd_kernels(cfg: RunConfig, man: Manifest) -> None:
    drude = cfg.get("bath.model", as_choice("ohmic", "drude"), "ohmic") == "drude"
    hbar = cfg.get("bath.hbar", as_float, 0.0)
    # the Ohmic tables take no mass, and the classical K no temperature
    params = _bath_from(cfg, ("mass",) * drude + ("gamma",) + ("k_bt",) * (hbar > 0), hbar=hbar)
    mass, gamma = params.mass, params.gamma
    nw = cfg.get("grid.nw", as_int, 2001, _at_least(2))
    # omega, K, its shape and argument, and xcoth's output and three
    # temporaries, with two eighths of masks (tracemalloc read 7.05)
    cfg.require(*_size_rule("grid.nw", f"the frequency table, {nw} points x 8 arrays", 8 * nw))
    if drude:
        nt = cfg.get("grid.nt", as_int, 16385, _at_least(2))
        # the time grid, its half-length friction grid, |t|, the kernel values
        # and three temporaries of its formula (tracemalloc read 5.5)
        cfg.require(*_size_rule("grid.nt", f"the time tables, {nt} points x 7 arrays", 7 * nt))
        omega_d = cfg.get("bath.omega_d", as_float)
        model = Drude(gamma=gamma, omega_d=omega_d)
        w_max = cfg.get("grid.w_max", as_float, 5.0 * omega_d, _FINITE_POSITIVE)
        t_max = cfg.get("grid.t_max", as_float, 16.0 / omega_d, _FINITE_POSITIVE)
    else:  # no time table
        model = Ohmic(gamma=gamma)
        w_max = cfg.get("grid.w_max", as_float, 10.0 * gamma, _FINITE_POSITIVE)
    if drude and hbar > 0:
        # the quantum kernel log-diverges at t = 0; an even count of
        # half-offset samples straddles it symmetrically
        n_even = nt + nt % 2
        t_grid = -t_max + (np.arange(n_even) + 0.5) * (2.0 * t_max / n_even)
        t_min = float(np.min(np.abs(t_grid)))  # about t_max / n_even
        # nu1^3, the log term at t_min, the pole band and the series cap
        _quantum_terms(omega_d, 2.0 * math.pi * params.k_bt / hbar, t_min)
    elif drude:
        t_grid = np.linspace(-t_max, t_max, nt + 1 - nt % 2)
    cfg.finish()

    omega = np.linspace(-w_max, w_max, nw)
    man.csv("noise_freq.csv", ("omega", "K"),
            (omega, noise_kernel_freq(params, model, omega)))

    k0 = float(noise_kernel_freq(params, model, 0.0))
    ok0 = k0 == 1.0
    man.check("k0_exact_unit", ok0, f"check K(0) == 1 exactly: {_tag(ok0)} (K0 = {k0:.17g})",
              computed=k0, target=1.0)

    if drude:
        man.csv("spectral_density.csv", ("omega", "sigma"),
                (omega, spectral_density(model, mass, omega)))
        tg = np.linspace(0.0, t_max, (nt + 1) // 2)
        man.csv("friction_time.csv", ("t", "gamma_t"),
                (tg, friction_kernel_time(model, mass, tg)))
        samples = noise_kernel_time(params, model, t_grid)
        man.csv("noise_time.csv", ("t", "K_t"), (samples.t_grid, samples.values))
        if hbar == 0.0:
            ok_area = abs(samples.area - 1.0) <= 1e-6
            man.check("k_area_unit", ok_area, "check |area(K) - 1| <= 1e-6: "
                      f"{_tag(ok_area)} (area = {samples.area:.17g})",
                      computed=samples.area, target=1.0, tol=1e-6)
        else:
            man.say(f"K trapezoid area = {samples.area:.17g} "
                    "(quantum kernel: no unit-area contract)")


# ---------------------------------------------------------------------------
# det-check


def cmd_det_check(cfg: RunConfig, man: Manifest) -> None:
    g = cfg.get("det.gamma", as_float, 2.0,  # the rate cases take 100 g^2
                (lambda v: v > 0.0 and 100.0 * v * v < math.inf, "> 0 with 100 g^2 finite"))
    t_total = cfg.get("det.t", as_float, 1.0, _FINITE_POSITIVE)
    n = cfg.get("det.n", as_int, 10000, _at_least(4))
    # the operators' node samples, the Riccati solution, a factor's diagonal
    # and its temporaries (tracemalloc read 5.13 arrays of det.n)
    cfg.require(*_size_rule("det.n", f"the determinant tables, {n + 1} nodes x 6 arrays",
                            6 * (n + 1)))
    cfg.finish()
    cfg.require(g * t_total < math.log(sys.float_info.max), "det.gamma * det.t",
                f"keep exp(g t) finite (got {g * t_total:g})")

    from .checks import det_cases

    man.phase = "step"
    cases = det_cases(g, t_total, n)
    man.jsonl("det_checks.jsonl", cases)
    for case in cases:
        man.check(case["case"], case["pass"], f"{case['case']}: {_tag(case['pass'])} "
                  f"(computed = {case['computed']:.12g}, target = {case['target']:.12g})",
                  computed=case["computed"], target=case["target"])


# ---------------------------------------------------------------------------
# simulate


# each sim.kind that reads a grid: (default grid.nx, float64 arrays of the
# grid's shape that its run holds at its peak, counted from the buffers)
# - smoluchowski, 11: the start, the last mark's field, the step buffer, the
#   next mark's buffer, the weights bl and br, the kernel's scaled bl and br,
#   flux and increment, and a symmetric run's sink (tracemalloc read 11.0);
# - compare, 8 and one per compare time (_grid's `fields`): the start, the
#   next mark's buffer, the weights, the kernel's four arrays, and each
#   time's field, all kept to the end (12.1 at four times);
# - kramers, 17: the four fields, the speeds and v weights bl and br, the
#   kernel's scaled speeds, bl and br, its diff, half slope, two fluxes and
#   two increments, and its monotone mask, an eighth (16.2)
_GRID = {"smoluchowski": (256, 11), "compare": (512, 8), "kramers": (128, 17)}
# doubles' worth of Python objects that one recorded row holds to the end of
# a grid or decohere run: its mark, the row's tuple and values, and its share
# of the columns (tracemalloc read 31 per mass.csv row, 51 per decay.csv row)
_ROW = 52


def _grid(cfg: RunConfig, kind: str, fields: int = 0) -> PhaseGrid:
    """The grid.* keys of one sim.kind, x only, or (x, v) for kramers, as the
    PhaseGrid that checks them, once the run's arrays of the grid's shape,
    _GRID's count and `fields` more, fit the size limit."""
    nx_default, arrays = _GRID[kind]
    x_min = cfg.get("grid.x_min", as_float, -4.0)
    x_max = cfg.get("grid.x_max", as_float, 4.0)
    nx = cfg.get("grid.nx", as_int, nx_default)
    if kind != "kramers":
        cfg.require(*_size_rule("grid.nx", f"the grid, {nx} cells x {arrays + fields} arrays",
                                (arrays + fields) * nx))
        return PhaseGrid(x_min, x_max, nx)
    v_min = cfg.get("grid.v_min", as_float, -4.0)
    v_max = cfg.get("grid.v_max", as_float, 4.0)
    nv = cfg.get("grid.nv", as_int, 128)
    cfg.require(*_size_rule("grid.nx * grid.nv",
                            f"the grid, {nx} x {nv} cells x {arrays} arrays", arrays * nx * nv))
    return PhaseGrid(x_min, x_max, nx, v_min, v_max, nv)


def _run_ensemble_cmd(cfg, params, potential, man) -> None:
    mode = cfg.get("run.mode", as_choice(*_MODES), "overdamped")
    # an overdamped trajectory has no velocity
    velocity = ({"v0": cfg.get("run.v0", as_float, 0.0),
                 "sigma_v": cfg.get("run.sigma_v", as_float, 0.0)} if mode == "inertial" else {})
    config = SimConfig(
        potential=potential,
        params=params,
        dt=cfg.get("run.dt", as_float, 0.01),
        steps=cfg.get("run.steps", as_int, 1000),
        n_traj=cfg.get("run.n_traj", as_int, 1000),
        master_seed=cfg.get("run.seed", as_int, 1234),
        x0=cfg.get("run.x0", as_float, 0.0),
        sigma_x=cfg.get("run.sigma_x", as_float, 0.0),
        **velocity,
    )
    bins = cfg.get("output.bins", as_int, 64, _at_least(1))
    # the histogram's edges, counts, widths, total x widths and density, and
    # np.histogram's bincount (tracemalloc read 5.1 arrays of output.bins)
    cfg.require(*_size_rule("output.bins", f"the histogram, {bins} bins x 6 arrays", 6 * bins))
    lags = cfg.get("output.autocorr_lags", as_int, 0)  # run_ensemble tests it first
    chunk = _chunk_size(config.n_traj, config.steps)  # the step noise is steps x chunk
    cfg.require(*_size_rule("run.steps", f"the step noise, run.steps = {config.steps} x "
                            f"{chunk} trajectories per chunk", config.steps * chunk))
    cfg.require(*_size_rule("run.n_traj", f"the per-trajectory arrays, 2 x {config.n_traj} "
                            "trajectories", 2 * config.n_traj))  # the final x and v
    cfg.finish()
    man.phase = "step"
    stats = run_ensemble(config, mode, histogram_bins=bins, autocorr_lags=lags)
    _write_moments(man, stats)
    edges = stats.hist_edges
    man.csv("histogram.csv", ("bin_left", "bin_right", "density"),
            (edges[:-1], edges[1:], stats.hist_density))
    if lags > 0 and stats.autocorr is not None:
        lag = np.arange(lags + 1)
        man.csv("autocorr.csv", ("lag", "t_lag", "value"),
                (lag, lag * config.dt, stats.autocorr))
    man.say(f"ensemble ({mode}): {stats.n_traj} trajectories, "
            f"{stats.n_diverged} diverged, mean_x = {stats.mean_x:.6g}, "
            f"var_x = {stats.var_x:.6g}")


def _run_fp_cmd(cfg, kind, params, potential, man) -> None:
    ordering = Ordering(cfg.get("fp.ordering", _ORDERING, "momenta_left"))
    x0 = cfg.get("fp.x0", as_float, 0.0)
    sigma_x = cfg.get("fp.sigma_x", as_float, 0.5, _FINITE_POSITIVE)
    steps = cfg.get("fp.steps", as_int, 1000, _at_least(1))
    record_every = cfg.get("fp.record_every", as_int, 100, _at_least(1))
    rows = -(-steps // record_every) + 1  # step 0 and each mark
    cfg.require(*_size_rule("fp.record_every", f"the mass records, {rows} rows x {_ROW} values",
                            _ROW * rows))
    dt = cfg.get("fp.dt", as_float, 0.0, _FINITE)
    grid = _grid(cfg, kind)
    # the start's centre must lie strictly inside the grid's span
    cfg.require(grid.x_min < x0 < grid.x_max, "fp.x0",
                f"lie inside the x grid ({grid.x_min:g}, {grid.x_max:g}) (got {x0:g})")
    if grid.is_2d:
        v0 = cfg.get("fp.v0", as_float, 0.0)
        cfg.require(grid.v_min < v0 < grid.v_max, "fp.v0",
                    f"lie inside the v grid ({grid.v_min:g}, {grid.v_max:g}) (got {v0:g})")
        sigma_v = cfg.get("fp.sigma_v", as_float, 0.5, _FINITE_POSITIVE)
    cfg.finish()
    field = (gaussian_field_2d(grid, x0, sigma_x, v0, sigma_v) if grid.is_2d
             else gaussian_field_1d(grid, x0, sigma_x))
    op = (KramersOperator if grid.is_2d else SmoluchowskiOperator)(grid, potential, params)
    if dt <= 0.0:
        dt = 0.5 * op.dt_max  # fp.dt <= 0 requests an automatic stable step

    field0 = field
    man.phase = "step"
    marks = [*range(record_every, steps, record_every), steps]
    mass_rows = [(0, 0.0, field.mass)]
    for mark, field in zip(marks, op.records(field0, ordering, dt, marks)):
        mass_rows.append((mark, mark * dt, field.mass))
    man.csv("mass.csv", ("step", "t", "mass"), zip(*mass_rows))
    if grid.is_2d:
        man.product_csv("field.csv", ("x", "v", "P"), grid.x_centers, grid.v_centers,
                        field.values)
    else:
        man.csv("field.csv", ("x", "P"), (grid.x_centers, field.values))

    man.phase = "stats"
    mean, var = field.moments()
    man.say(f"{kind} ({ordering.value}): {steps} steps of dt = {dt:.6g}, "
            f"final mass = {field.mass:.12g}, mean = {mean:.6g}, var = {var:.6g}")
    rate = 0.0 if ordering is Ordering.MOMENTA_LEFT else params.gamma / 2.0
    if ordering is Ordering.SYMMETRIC and not grid.is_2d:
        # V'' / 2 M gamma: a uniform sink, with a closed budget, only where V'' is
        hess = np.asarray(potential.hess(grid.x_centers))
        rate = hess.max() / (2.0 * params.mass * params.gamma) if np.ptp(hess) == 0 else None
    if rate is not None:
        _budget_check(man, "mass", ordering, float(rate), field0.mass, field.mass, steps * dt,
                      _MASS_TOL, tol=_MASS_TOL)


def _run_compare_cmd(cfg, params, potential, man) -> None:
    times = cfg.get("compare.times", as_float_list)
    grid = _grid(cfg, "compare", fields=len(times))
    names = [f"l1_within_budget_t_{t:g}" for t in times]
    cfg.require(len(set(names)) == len(names), "compare.times",
                "differ in %g form, which names the checks")
    bins = cfg.get("compare.bins", as_int, 64)
    dt = cfg.get("run.dt", as_float, 0.005)
    x0 = cfg.get("run.x0", as_float, 0.0)
    # compare_langevin_fp's own tests, before the run's length is taken from them
    steps = max(1, *_compare_steps(grid, times, dt, x0, bins))
    config = SimConfig(
        potential=potential, params=params, dt=dt, steps=steps, x0=x0,
        n_traj=cfg.get("run.n_traj", as_int, 20000),
        master_seed=cfg.get("run.seed", as_int, 1234),
        sigma_x=cfg.get("run.sigma_x", as_float, 0.0),
    )
    # the step noise is steps x chunk; the final x and v and a snapshot per time
    chunk, arrays = _chunk_size(config.n_traj, steps), 2 + len(times)
    cfg.require(*_size_rule("compare.times", "the step noise, max(compare.times) / run.dt = "
                            f"{steps} steps x {chunk} trajectories per chunk", steps * chunk))
    cfg.require(*_size_rule("run.n_traj", f"the per-trajectory arrays, {arrays} x "
                            f"{config.n_traj} trajectories", arrays * config.n_traj))
    cfg.finish()
    man.phase = "step"
    records, stats = compare_langevin_fp(config, grid, times, n_bins=bins)
    man.jsonl("compare.jsonl", [r.as_dict() for r in records])
    _write_moments(man, stats)
    for name, rec in zip(names, records):
        budget = 3.0 * (rec.stat_err + rec.disc_err)
        man.check(name, rec.l1 < budget, f"t = {rec.t:g}: L1 = {rec.l1:.4g} (budget "
                  f"{budget:.4g}), mean {rec.ens_mean:.4g} vs {rec.fp_mean:.4g}",
                  l1=rec.l1, budget=budget)


def cmd_simulate(cfg: RunConfig, man: Manifest) -> None:
    kind = cfg.get("sim.kind", as_choice("ensemble", "smoluchowski", "kramers", "compare"))
    params = _bath_from(cfg, ("mass", "gamma", "k_bt"))  # the classical limit: no hbar
    potential = _potential_from(cfg, params.mass)
    if kind == "ensemble":
        _run_ensemble_cmd(cfg, params, potential, man)
    elif kind == "compare":
        _run_compare_cmd(cfg, params, potential, man)
    else:
        _run_fp_cmd(cfg, kind, params, potential, man)


# ---------------------------------------------------------------------------
# decohere


def cmd_decohere(cfg: RunConfig, man: Manifest) -> None:
    params = _bath_from(cfg, ("mass", "gamma", "k_bt", "hbar"), mass=20.0, gamma=6.25e-3,
                        hbar=1.0)
    dec = decoherence_params(params)  # it tests hbar^2 and Lambda
    hbar, lam = params.hbar, dec.lam
    potential = _potential_from(cfg, params.mass, allow_none=True)
    superposed = cfg.get("state.kind", as_choice("gaussian", "superposition"),
                         "superposition") == "superposition"
    sigma = cfg.get("state.sigma", as_float, 0.3)
    if superposed:
        separation = cfg.get("state.separation", as_float, 4.0)
    nx = cfg.get("grid.nx", as_int, 101, _at_least(1))
    dx = cfg.get("grid.dx", as_float, 0.08)
    # rho's y grid is centred on its y = 0 row
    ny = cfg.get("grid.ny", as_int, 81, (lambda v: v >= 1 and v % 2 == 1, "odd and >= 1"))
    # 16 arrays of the padded FFT grid: the start, the last mark's field and
    # the next one's (complex, 2 each), the phase, the kinetic substep's six
    # buffers, friction's change, the potential's factor and a temporary of a
    # mark's checks (tracemalloc read 14.9). _odd_padded tries odd lengths in
    # turn, so it pads only a grid that fits unpadded: padding grows a side
    cells = nx * ny if 16 * 8 * nx * ny > _SIZE_LIMIT else _odd_padded(nx) * _odd_padded(ny)
    cfg.require(*_size_rule("grid.nx * grid.ny", f"the padded FFT grid, {cells} cells x 16 "
                            "arrays", 16 * cells))
    dy = cfg.get("grid.dy", as_float, 0.2)
    _check_dy(dy, dec.l_e)
    dt = cfg.get("run.dt", as_float, 0.002, _FINITE_POSITIVE)
    steps = cfg.get("run.steps", as_int, 50, _at_least(1))
    record_every = cfg.get("run.record_every", as_int, 5, _at_least(1))
    rows = -(-steps // record_every) + 1  # step 0 and each mark
    cfg.require(*_size_rule("run.record_every", f"the decay records, {rows} rows x {_ROW} "
                            "values", _ROW * rows))
    ordering = Ordering(cfg.get("decohere.ordering", _ORDERING, "momenta_left"))
    cfg.finish()

    # the state functions test grid.dx, state.sigma and the packet centres first
    if superposed:
        # a superposition's decay slope is judged against Lambda d^2
        lam_d2 = lam * (separation * separation)
        cfg.require(0.0 < lam_d2 < math.inf, "state.separation",
                    f"give a finite Lambda d^2 > 0 (got {lam_d2:g})")
        rho = superposition_state(nx, dx, ny, dy, separation=separation, sigma=sigma)
    else:
        rho = gaussian_pure_state(nx, dx, ny, dy, sigma=sigma)

    edges = []  # the edge measure of each recorded field

    def decay_row(step: int, field) -> tuple:
        herm = field.herm_deviation()
        edges.append(field.edge_measure())
        tr = field.trace()
        amp = _ridge_amplitude(field, hbar)
        return (step, field.t, amp, tr.real, tr.imag, herm)

    marks = [*range(record_every, steps, record_every), steps]
    fields = MasterOperator(rho, potential, params).records(rho, ordering, dt, marks)
    man.phase = "step"
    decay_rows = [decay_row(0, rho)]
    for mark, rho in zip(marks, fields):
        decay_rows.append(decay_row(mark, rho))
    decay = list(zip(*decay_rows))
    man.csv("decay.csv", ("step", "t", "amplitude", "trace_re", "trace_im", "herm_dev"),
            decay)
    man.product_csv("rho_final.csv", ("x", "y", "re", "im"), rho.x_grid, rho.y_grid,
                    rho.values.real, rho.values.imag)
    man.phase = "stats"
    wig, p_grid = wigner_transform(rho, hbar)
    man.product_csv("wigner_final.csv", ("x", "p", "w"), rho.x_grid, p_grid, wig)

    _, ts, amps, tr_re, _, herm = decay
    edge_max = max(edges)
    ok_fit = edge_max <= _EDGE_TOL
    man.check("grid_fits", ok_fit, f"check grid fits, edge measure <= {_EDGE_TOL:g}: "
              f"{_tag(ok_fit)} (start {edges[0]:.3g}, max {edge_max:.3g})",
              edge_start=edges[0], edge_max=edge_max, threshold=_EDGE_TOL)
    herm_max = max(herm)
    ok_herm = herm_max <= _HERM_TOL
    man.check("hermitian", ok_herm, f"check hermiticity <= 1e-8: {_tag(ok_herm)} "
              f"(max deviation {herm_max:.3g})", max_deviation=herm_max, tol=_HERM_TOL)

    tr0, tr_end, t_end = tr_re[0], tr_re[-1], ts[-1]
    rate = 0.0 if ordering is Ordering.MOMENTA_LEFT else params.gamma / 2.0
    measured = {"rate": -math.log(tr_end / tr0) / t_end} if rate else {}  # a figure, no verdict
    _budget_check(man, "trace", ordering, rate, tr0, tr_end, t_end, 1e-8 * abs(tr0), tr0=tr0,
                  rel_tol=1e-8, **measured)

    if superposed:
        # a fit that cannot be taken (times so short that polyfit's scaling
        # underflows, or a vanished amplitude) is a numerical failure
        try:
            with np.errstate(all="raise", under="ignore"):
                slope = float(np.polyfit(ts, np.log(amps), 1)[0])
        except (FloatingPointError, np.linalg.LinAlgError) as exc:
            raise RuntimeError(f"decay_slope fit of log amplitude against t failed: {exc}") from exc
        ratio = -slope / lam_d2
        ok_slope = abs(ratio - 1.0) <= 0.05
        man.check("decay_slope", ok_slope, f"check decay slope vs Lambda d^2 = {lam_d2:.6g}: "
                  f"{_tag(ok_slope)} (slope {slope:.6g}, ratio {ratio:.4f})",
                  slope=slope, target=-lam_d2, ratio=ratio, tol=0.05)


# ---------------------------------------------------------------------------
# paper-checks


def cmd_paper_checks(cfg: RunConfig, man: Manifest) -> None:
    cfg.finish()
    from .checks import run_all

    results = run_all()
    for res in results:
        man.check(f"criterion_{res.index}", res.passed, f"[{_tag(res.passed).upper()}] "
                  f"{res.index}. {res.name}: {res.detail} ({res.elapsed_s:.2f}s)",
                  detail=res.detail, elapsed_s=res.elapsed_s)
    man.jsonl("checks.jsonl", [{"index": res.index, "name": res.name, "pass": res.passed,
                                "detail": res.detail} for res in results])


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {"kernels": cmd_kernels, "det-check": cmd_det_check, "simulate": cmd_simulate,
             "decohere": cmd_decohere, "paper-checks": cmd_paper_checks}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bathdyn", description=(
        "Dissipative-dynamics toolkit: bath kernel tables and their unit checks (kernels), "
        "the sliced-determinant identities (det-check), Langevin ensembles and grid solvers "
        "(simulate), density-matrix decoherence (decohere) and the acceptance suite "
        "(paper-checks)."))
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--out", default=".", help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None, help="override the config's run.seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code. 0: every check passed.
    1: a check failed, or the run failed: a StabilityError or RuntimeError,
    or any other ValueError raised once the config was read whole, whose
    error record also names the manifest's phase. 2: a configuration error:
    a ConfigError, an OSError, a ValueError raised while the config was
    read, or a library refusal that names its parameter (ParameterError),
    wherever it was raised, reported as "<key> must <text>" with the
    parameter's key: its _ALIASES entry, or else the last key the run read
    whose last dotted part is the parameter's name."""
    args = _build_parser().parse_args(argv)
    man, cfg = Manifest(args.command, args.out, args.quiet), RunConfig({})
    try:
        cfg = RunConfig(load_config(args.config) if args.config else {},
                        {"run.seed": args.seed})
        _COMMANDS[args.command](cfg, man)
        man.write(cfg.resolved)
        return 0 if man.all_passed else 1
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        if isinstance(exc, ParameterError):  # a library refusal names its parameter
            key = _ALIASES.get(exc.name) or next(
                (k for k in reversed(cfg.resolved) if k.rsplit(".", 1)[-1] == exc.name), exc.name)
            exc = ConfigError(f"{key} must {exc.text}")
        # a StabilityError is a ValueError, but a numerical abort like a
        # RuntimeError; any other ValueError is a configuration error until the
        # config is read whole, and after that a failure of the run's phase
        aborted = isinstance(exc, (StabilityError, RuntimeError))
        phased = not aborted and isinstance(exc, ValueError) and cfg.finished
        code = 1 if aborted or phased else 2
        message = f"{'error' if code == 1 else 'config error'}: {exc}"
        print(message, file=sys.stderr)
        man.records.append({"record": "error", "exit_code": code, "message": message,
                            **({"phase": man.phase} if phased else {})})
        try:
            man.write(cfg.resolved)
        except OSError:
            pass  # best effort: the exit code and the stderr line stand
        return code


if __name__ == "__main__":
    sys.exit(main())
