"""Experiment orchestration: configuration, runners, and data artifacts.

Each experiment kind maps a validated :class:`ExperimentConfig` to a set
of CSV/JSON files plus a machine-readable summary with built-in checks.
Numbers are printed with 17 significant digits and orderings are fixed,
so identical configurations produce byte-identical output.  The worker
pool size is taken from the ``ISINGSWEEP_WORKERS`` environment variable
(default 1, serial).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .chain import (
    ChainSpec,
    CouplingConstant,
    excitation_matrix_element,
    ground_energy,
    mode_epsilon,
    momentum_grid,
)
from .decoherence import (
    BathSpectrum,
    accumulated_phase,
    amplitude_bound,
    amplitude_numeric,
    amplitude_saddle_point,
    amplitude_suppressed_estimate,
    saddle_points,
    scaling_fit,
)
from .dynamics import MIN_RTOL, integrate_modes
from .oracle import (
    sigma_x_elements,
    stepwise_gap_profile,
    uniform_hamiltonian,
    uniform_min_even_gap,
)
from .schedules import Schedule, make_schedule, runtime_for_adiabaticity

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "config_hash",
    "run_experiment",
    "emit_figure_data",
    "table1_cells",
    "write_csv",
    "write_json",
    "parallel_map",
]

EXPERIMENT_KINDS = ("spectrum", "dynamics", "decoherence", "scaling", "stepwise", "oracle-check")
_SCHEDULE_KINDS = ("linear", "gap-adapted-1", "gap-adapted-2")
_BATH_KINDS = ("monochromatic", "ohmic", "flat")


class ConfigError(ValueError):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite int or float; JSON booleans and strings are not numbers."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _check_real(d: dict, key: str, least: float, strict: bool = True, path: str = "config") -> None:
    """Reject ``d[key]`` unless it is a finite number above (or, not strict, at least) ``least``."""
    if key not in d:
        return
    val = d[key]
    if not (_is_real(val) and (val > least if strict else val >= least)):
        bound = f"> {least}" if strict else f">= {least}"
        raise ConfigError(f"{path}.{key}: must be a finite number {bound}, got {val!r}")


def _check_bath_params(kind: str, params: dict) -> None:
    """The parameters ``BathSpectrum`` needs for ``kind``, each a valid number."""
    path = "config.bath_params"
    needed = {"monochromatic": ("omega0",), "ohmic": ("omega_c",),
              "flat": ("omega_min", "omega_max")}[kind]
    for key in needed:
        if key not in params:
            raise ConfigError(f"{path}.{key}: required for a {kind} bath")
        _check_real(params, key, 0.0 if key == "omega_c" else -math.inf, path=path)
    if kind == "ohmic" and params.get("support_max") is not None:
        _check_real(params, "support_max", 0.0, path=path)
    if kind == "flat" and not params["omega_max"] > params["omega_min"]:
        raise ConfigError(
            f"{path}.omega_max: must exceed omega_min = {params['omega_min']!r}, "
            f"got {params['omega_max']!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    chain_sizes: tuple = (8,)
    lattice_spacing: float = 1.0
    schedule_kind: str = "linear"
    total_time: float | None = None       # explicit T; otherwise from epsilon_adiab
    epsilon_adiab: float = 0.25
    coupling: float = 0.01
    bath_kind: str = "ohmic"
    bath_params: tuple = (("omega_c", 0.5),)
    omega_grid: tuple | None = None
    k_modes: int = 4
    t_scan: tuple | None = None
    g_grid_points: int = 201
    time_points: int = 401
    amplitude_rtol: float = 1e-6
    ode_rtol: float = 1e-10
    n_omega_nodes: int = 33
    output_dir: str = "out"
    seed: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        known = set(cls.__dataclass_fields__)
        for key in d:
            if key not in known:
                raise ConfigError(f"config.{key}: unknown field")
        kind = d.get("kind")
        if kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"config.kind: must be one of {EXPERIMENT_KINDS}, got {kind!r}")
        sizes = d.get("chain_sizes", (8,))
        if not isinstance(sizes, (list, tuple)) or not sizes:
            raise ConfigError("config.chain_sizes: must be a non-empty list")
        for i, n in enumerate(sizes):
            if not _is_int(n) or n < 2 or n % 2:
                raise ConfigError(f"config.chain_sizes[{i}]: n must be an even integer >= 2, got {n!r}")
            if n > 14 and kind in ("oracle-check", "stepwise"):
                raise ConfigError(f"config.chain_sizes[{i}]: n={n} exceeds the dense cap 14")
        d["chain_sizes"] = tuple(sizes)
        if d.get("schedule_kind", "linear") not in _SCHEDULE_KINDS:
            raise ConfigError(
                f"config.schedule_kind: must be one of {_SCHEDULE_KINDS}, got {d['schedule_kind']!r}")
        if d.get("total_time") is not None:
            _check_real(d, "total_time", 0.0)
        for key in ("epsilon_adiab", "lattice_spacing", "amplitude_rtol"):
            _check_real(d, key, 0.0)
        if "coupling" in d and not (_is_real(d["coupling"]) and d["coupling"] > 0):
            raise ConfigError(f"config.coupling: lambda must be a positive number, got {d['coupling']!r}")
        _check_real(d, "ode_rtol", MIN_RTOL, strict=False)
        for key, least in (("g_grid_points", 2), ("time_points", 2), ("k_modes", 1),
                           ("n_omega_nodes", 1), ("seed", 0)):
            if key in d and not (_is_int(d[key]) and d[key] >= least):
                raise ConfigError(f"config.{key}: must be an integer >= {least}, got {d[key]!r}")
        bath_kind = d.get("bath_kind", "ohmic")
        if bath_kind not in _BATH_KINDS:
            raise ConfigError(f"config.bath_kind: must be one of {_BATH_KINDS}, got {bath_kind!r}")
        bp = d.get("bath_params", cls.bath_params)
        try:
            params = dict(bp)
        except (TypeError, ValueError):
            raise ConfigError(f"config.bath_params: must map names to numbers, got {bp!r}") from None
        _check_bath_params(bath_kind, params)
        d["bath_params"] = tuple(sorted(params.items()))
        for key, positive in (("omega_grid", False), ("t_scan", True)):
            vals = d.get(key)
            if vals is None:
                continue
            if not isinstance(vals, (list, tuple)) or not all(
                    _is_real(v) and (v > 0 or not positive) for v in vals):
                what = "positive" if positive else "finite"
                raise ConfigError(f"config.{key}: must be a list of {what} numbers, got {vals!r}")
            d[key] = tuple(float(v) for v in vals)
        return cls(**d)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["chain_sizes"] = list(self.chain_sizes)
        d["bath_params"] = dict(self.bath_params)
        d["omega_grid"] = list(self.omega_grid) if self.omega_grid is not None else None
        d["t_scan"] = list(self.t_scan) if self.t_scan is not None else None
        return d

    def schedule_for(self, n: int, total_time: float | None = None) -> Schedule:
        spec = ChainSpec(n, self.lattice_spacing)
        T = total_time or self.total_time or runtime_for_adiabaticity(
            self.schedule_kind, n, self.epsilon_adiab, self.lattice_spacing)
        return make_schedule(self.schedule_kind, T, spec)

    def bath(self) -> BathSpectrum:
        coupling = CouplingConstant(self.coupling)
        p = dict(self.bath_params)
        if self.bath_kind == "monochromatic":
            return BathSpectrum.monochromatic(p["omega0"], coupling)
        if self.bath_kind == "ohmic":
            return BathSpectrum.ohmic(p["omega_c"], coupling, p.get("support_max"))
        return BathSpectrum.flat(p["omega_min"], p["omega_max"], coupling)


def config_hash(config: ExperimentConfig) -> str:
    payload = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path, header, rows) -> str:
    import csv

    path = Path(path)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])
    return str(path)


def write_json(path, obj) -> str:
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
    return str(path)


def parallel_map(fn, items):
    """Ordered map honoring the ISINGSWEEP_WORKERS environment variable."""
    raw = os.environ.get("ISINGSWEEP_WORKERS", "1")
    message = f"ISINGSWEEP_WORKERS must be an integer >= 1, got {raw!r}"
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(message) from None
    if workers < 1:
        raise ValueError(message)
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ----------------------------------------------------------------------
# Scaling-table preset ("table1" artifacts): six cells spanning the
# three schedules and the two frequency regimes, each fitted over an
# n-sweep and an omega-sweep.  The measured quantity removes the
# predicted prefactor (lam, ka, and any logarithmic factor with its
# natural argument) so that a pure power law remains.
# ----------------------------------------------------------------------

_T1_SIZES = (8, 16, 32, 64, 128)
_T1_OMEGA_SADDLE = tuple(np.geomspace(0.35, 1.4, 7))
_T1_OMEGA_BOUND = tuple(np.geomspace(0.3, 1.2, 7))
_T1_OMEGA_FIXED_SADDLE = 1.3
_T1_OMEGA_FIXED_BOUND = 0.5
_T1_N_FIXED = 64


def table1_cells() -> list[dict]:
    """The six scaling cells with their expected power-law exponents.

    Saddle column (omega >> 2ka): the tracked mode is the fundamental
    (ka*n = pi); measured value is the interference-free envelope of
    |amplitude| divided by lam*ka.  Bound column (omega ~ 2ka): the
    tracked mode resonates with omega (ka ~ omega/2); measured value is
    the phase-free bound divided by lam and by the cell's stated
    logarithmic factor, taken with its natural argument (8/omega is the
    initial-gap to ka ratio, n*omega counts modes below the resonance).
    """
    return [
        {"name": "linear-saddle", "schedule": "linear", "column": "saddle",
         "n_exponent": 1.0, "omega_exponent": -1.0},
        {"name": "adapted1-saddle", "schedule": "gap-adapted-1", "column": "saddle",
         "n_exponent": 0.5, "omega_exponent": -1.5},
        {"name": "adapted2-saddle", "schedule": "gap-adapted-2", "column": "saddle",
         "n_exponent": 0.0, "omega_exponent": -2.0},
        {"name": "linear-bound", "schedule": "linear", "column": "bound",
         "n_exponent": 2.0, "omega_exponent": 1.0},
        {"name": "adapted1-bound", "schedule": "gap-adapted-1", "column": "bound",
         "n_exponent": 1.0, "omega_exponent": 0.0},
        {"name": "adapted2-bound", "schedule": "gap-adapted-2", "column": "bound",
         "n_exponent": 1.0, "omega_exponent": 0.0},
    ]


def _resonant_mode(spec: ChainSpec, omega: float) -> float:
    grid = momentum_grid(spec)
    kpos = grid[grid > 0]
    return float(kpos[np.argmin(np.abs(2.0 * kpos * spec.a - omega))])


def _saddle_envelope(spec, kind, n, k, omega, lam, eps_adiab, rtol):
    """|amplitude| envelope from two run times half an interference period apart.

    The two saddle contributions beat against each other as a function
    of T; sampling T and T(1 + pi/|dPhi|) and averaging the squared
    magnitudes removes the cross term exactly.
    """
    T1 = runtime_for_adiabaticity(kind, n, eps_adiab, spec.a)
    s1 = make_schedule(kind, T1, spec)
    gm, gp = saddle_points(spec, k, omega)
    dphi = accumulated_phase(spec, s1, k, omega, gp) - accumulated_phase(spec, s1, k, omega, gm)
    s2 = make_schedule(kind, T1 * (1.0 + np.pi / abs(dphi)), spec)
    a1 = amplitude_numeric(spec, s1, k, omega, lam, rtol=rtol)
    a2 = amplitude_numeric(spec, s2, k, omega, lam, rtol=rtol)
    return math.sqrt(0.5 * (abs(a1) ** 2 + abs(a2) ** 2))


def _t1_point(task):
    """One Table-1 measurement (module-level for process pools)."""
    cell, sweep, value, lam, eps_adiab, rtol, a = task
    kind = cell["schedule"]
    if sweep == "n":
        n = int(value)
        omega = _T1_OMEGA_FIXED_SADDLE if cell["column"] == "saddle" else _T1_OMEGA_FIXED_BOUND
    else:
        n = _T1_N_FIXED
        omega = float(value)
    spec = ChainSpec(n, a)
    if cell["column"] == "saddle":
        k = spec.smallest_momentum
        raw = _saddle_envelope(spec, kind, n, k, omega, lam, eps_adiab, rtol)
        return value, raw, raw / (lam * k * spec.a)
    k = _resonant_mode(spec, omega)
    T = runtime_for_adiabaticity(kind, n, eps_adiab, spec.a)
    sched = make_schedule(kind, T, spec)
    raw = amplitude_bound(spec, sched, k, omega, lam)
    om_eff = 2.0 * k * spec.a
    if cell["name"] == "linear-bound":
        div = (om_eff if sweep == "n" else 1.0) * math.log(8.0 / om_eff)
    elif cell["name"] == "adapted1-bound":
        div = math.log(n * om_eff)
    else:
        div = 1.0
    return value, raw, raw / (lam * div)


def run_table1(out_dir: Path, lam: float, eps_adiab: float, rtol: float, a: float = 1.0):
    files = []
    fits = {}
    checks = {}
    for cell in table1_cells():
        rows = []
        for sweep in ("n", "omega"):
            if sweep == "n":
                values = _T1_SIZES
            else:
                values = _T1_OMEGA_SADDLE if cell["column"] == "saddle" else _T1_OMEGA_BOUND
            tasks = [(cell, sweep, v, lam, eps_adiab, rtol, a) for v in values]
            pts = parallel_map(_t1_point, tasks)
            xs = np.array([p[0] for p in pts], dtype=float)
            ys = np.array([p[2] for p in pts], dtype=float)
            fit = scaling_fit(xs, ys)
            expected = cell["n_exponent"] if sweep == "n" else cell["omega_exponent"]
            key = f"{cell['name']}-{sweep}"
            fits[key] = {
                "target": key, "exponent": fit.exponent, "stderr": fit.stderr,
                "points": fit.n_points, "expected": expected,
                "pass": bool(abs(fit.exponent - expected) <= 0.2),
            }
            checks[key] = fits[key]["pass"]
            rows += [(sweep, float(p[0]), float(p[1]), float(p[2])) for p in pts]
        files.append(write_csv(out_dir / f"table1_{cell['name']}.csv",
                               ["sweep", "value", "raw", "normalized"], rows))
    files.append(write_json(out_dir / "table1_fits.json", fits))
    return files, fits, checks


# ----------------------------------------------------------------------
# Experiment runners
# ----------------------------------------------------------------------


def _channel_gaps(spec: ChainSpec, g_values: np.ndarray, n_channels: int) -> np.ndarray:
    grid = momentum_grid(spec)
    kpos = np.sort(grid[grid > 0])[:n_channels]
    return 2.0 * mode_epsilon(kpos[:, None] * spec.a, g_values[None, :])


def _run_spectrum(config: ExperimentConfig, out: Path):
    files, checks = [], {}
    g_values = np.linspace(0.0, 1.0, config.g_grid_points)
    for n in config.chain_sizes:
        spec = ChainSpec(n, config.lattice_spacing)
        m = min(6, n // 2)
        gaps = _channel_gaps(spec, g_values, m)
        header = ["g"] + [f"dE_{i + 1}" for i in range(m)]
        rows = [(float(g),) + tuple(float(x) for x in gaps[:, i]) for i, g in enumerate(g_values)]
        files.append(write_csv(out / f"spectrum_n{n}.csv", header, rows))
        half_step = 0.5 / (config.g_grid_points - 1)
        dips = [abs(g_values[np.argmin(gaps[j])] - 0.5) <= half_step + 1e-9 for j in range(m)]
        checks[f"n{n}_gap_min_at_critical_point"] = bool(all(dips))
    return files, checks, {}


def _run_dynamics(config: ExperimentConfig, out: Path):
    files, checks = [], {}
    for n in config.chain_sizes:
        spec = ChainSpec(n, config.lattice_spacing)
        sched = config.schedule_for(n)
        t_grid = np.linspace(0.0, sched.total_time, config.time_points)
        traj = integrate_modes(spec, sched, t_grid, rtol=config.ode_rtol)
        path = out / f"dynamics_n{n}.csv"
        traj.to_csv(path)
        files.append(str(path))
        checks[f"n{n}_norm_drift_ok"] = bool(traj.max_norm_drift <= 10.0 * config.ode_rtol)
    return files, checks, {}


def _run_decoherence(config: ExperimentConfig, out: Path):
    if not config.omega_grid:
        # bath-averaged mode: total excitation probability per size
        return _run_total_probability(config, out)
    files, checks = [], {}
    rows = []
    lam = config.coupling
    bound_ok = True
    saddle_ok = True
    for n in config.chain_sizes:
        spec = ChainSpec(n, config.lattice_spacing)
        sched = config.schedule_for(n)
        T = sched.total_time
        grid = momentum_grid(spec)
        kpos = np.sort(grid[grid > 0])[: config.k_modes]
        for k in kpos:
            ka = k * spec.a
            for omega in config.omega_grid:
                a_num = amplitude_numeric(spec, sched, float(k), float(omega), lam,
                                          rtol=config.amplitude_rtol)
                b = amplitude_bound(spec, sched, float(k), float(omega), lam)
                bound_ok &= abs(a_num) <= b * (1.0 + 1e-9)
                rows.append((n, sched.kind, T, float(k), float(omega), "numeric",
                             a_num.real, a_num.imag, abs(a_num), ""))
                rows.append((n, sched.kind, T, float(k), float(omega), "bound",
                             b, 0.0, b, ""))
                if omega > 2.0 * abs(ka):
                    sp = amplitude_saddle_point(spec, sched, float(k), float(omega), lam)
                    rows.append((n, sched.kind, T, float(k), float(omega), "saddle-point",
                                 sp.value.real, sp.value.imag, abs(sp.value), str(sp.valid)))
                    if sp.valid and abs(a_num) > 0:
                        saddle_ok &= 0.8 <= abs(sp.value) / abs(a_num) <= 1.25
                elif omega < 2.0 * abs(ka) and sched.kind == "linear":
                    est = amplitude_suppressed_estimate(spec, sched, float(k), float(omega), lam)
                    rows.append((n, sched.kind, T, float(k), float(omega), "suppressed",
                                 est, 0.0, est, ""))
    files.append(write_csv(
        out / "amplitudes.csv",
        ["n", "schedule", "T", "k", "omega", "method", "re", "im", "abs", "valid"],
        rows,
    ))
    checks["bound_dominates_numeric"] = bool(bound_ok)
    checks["saddle_within_envelope_band"] = bool(saddle_ok)

    if config.t_scan:
        n = config.chain_sizes[0]
        spec = ChainSpec(n, config.lattice_spacing)
        # first sub-gap (k, omega) pair from the configured grid
        pair = None
        grid = momentum_grid(spec)
        for k in np.sort(grid[grid > 0]):
            for w in config.omega_grid:
                if w < 2.0 * abs(k * spec.a):
                    pair = (float(k), float(w))
                    break
            if pair:
                break
        if pair is None:
            raise ConfigError("config.t_scan: no sub-gap (k, omega) pair in the grid")
        k, w = pair
        ka = k * spec.a
        scan_rows = []
        for T in config.t_scan:
            sched = config.schedule_for(n, total_time=T)
            a_num = amplitude_numeric(spec, sched, k, w, lam, rtol=config.amplitude_rtol)
            scan_rows.append((float(T), math.log(abs(a_num)), -(ka * ka) / 2.0))
        files.append(write_csv(out / "suppression_scan.csv",
                               ["T", "ln_abs_amplitude", "predicted_slope"], scan_rows))
    return files, checks, {}


def _run_total_probability(config: ExperimentConfig, out: Path):
    """Bath-averaged total excitation probability over the size list."""
    from .decoherence import total_excitation_probability

    bath = config.bath()
    rows = []
    warnings_seen = []
    for n in config.chain_sizes:
        spec = ChainSpec(n, config.lattice_spacing)
        sched = config.schedule_for(n)
        res = total_excitation_probability(spec, sched, bath,
                                           n_omega=config.n_omega_nodes,
                                           rtol=config.amplitude_rtol)
        methods = [m for ms in res.methods.values() for m in ms]
        rows.append((n, sched.kind, sched.total_time, res.p_total,
                     methods.count("numeric"), methods.count("bound")))
        warnings_seen += res.warnings
    files = [write_csv(out / "total_probability.csv",
                       ["n", "schedule", "T", "p_total", "numeric_terms", "bound_terms"],
                       rows)]
    checks = {}
    if len(rows) >= 2:
        p = [r[3] for r in rows]
        checks["p_total_increases_with_n"] = bool(all(b > a for a, b in zip(p, p[1:])))
    return files, checks, {"response_warnings": warnings_seen}


def _run_scaling(config: ExperimentConfig, out: Path):
    files, fits, checks = run_table1(out, config.coupling, config.epsilon_adiab,
                                     config.amplitude_rtol, config.lattice_spacing)
    return files, checks, {"fits": fits}


def _run_stepwise(config: ExperimentConfig, out: Path):
    files, checks = [], {}
    rows, mins, uniform_rows = [], [], []
    for n in config.chain_sizes:
        prof = stepwise_gap_profile(n)
        for i, step in enumerate(prof.steps):
            for j, s in enumerate(prof.s_values):
                rows.append((n, int(step), float(s), float(prof.gaps[i, j])))
        mins.append((n, prof.min_gap))
        uniform_rows.append((n, uniform_min_even_gap(n)))
    files.append(write_csv(out / "stepwise_gaps.csv", ["n", "step", "s", "gap"], rows))
    files.append(write_csv(out / "stepwise_min_gaps.csv", ["n", "min_gap"], mins))
    files.append(write_csv(out / "uniform_min_gaps.csv", ["n", "min_even_gap"], uniform_rows))
    gap_vals = np.array([m[1] for m in mins])
    checks["stepwise_gap_n_independent_10pct"] = bool(
        (gap_vals.max() - gap_vals.min()) / gap_vals.max() <= 0.10)
    extra = {"stepwise_min_gaps": {str(n): g for n, g in mins}}
    if len(uniform_rows) >= 4:
        fit = scaling_fit([r[0] for r in uniform_rows], [r[1] for r in uniform_rows])
        checks["uniform_gap_inverse_n"] = bool(abs(fit.exponent + 1.0) <= 0.15)
        extra["uniform_gap_fit"] = {"exponent": fit.exponent, "stderr": fit.stderr}
    return files, checks, extra


def _run_oracle_check(config: ExperimentConfig, out: Path):
    files, checks = [], {}
    report = []
    g_values = (0.0, 0.25, 0.5, 0.75, 1.0)
    ok_energy = ok_gaps = ok_elements = ok_zero = True
    for n in config.chain_sizes:
        spec = ChainSpec(n, config.lattice_spacing)
        grid = momentum_grid(spec)
        kpos = np.sort(grid[grid > 0])
        files.append(_dump_spectrum(out / f"dense_spectrum_n{n}.csv", n, g=0.5))
        for g in g_values:
            H = uniform_hamiltonian(n, g)
            w, elems = sigma_x_elements(H, sector="even")
            e0_f = ground_energy(spec, g)
            err = abs(w[0] - e0_f)
            ok_energy &= err <= 1e-10
            report.append({"quantity": "ground_energy", "n": n, "g": g,
                           "fermionic": e0_f, "dense": float(w[0]), "abs_error": float(err)})
            channel_levels = np.zeros(len(w), dtype=bool)
            for k in kpos:
                gap_f = 2.0 * mode_epsilon(k * spec.a, g)
                target = w[0] + gap_f
                sel = np.abs(w - target) <= 1e-8
                gap_err = float(np.min(np.abs(w - target)))
                ok_gaps &= gap_err <= 1e-10
                channel_levels |= sel
                m_f = abs(excitation_matrix_element(spec, float(k), g)) if g > 0 else 0.0
                m_d = float(np.sqrt(np.sum(np.abs(elems[sel]) ** 2))) if sel.any() else 0.0
                # clustered channels (e.g. every pair gap is 4 at g = 1)
                # are compared collectively below
                if sel.any() and not _shares_cluster(w, target, kpos, spec, g):
                    err_m = abs(m_f - m_d)
                    ok_elements &= err_m <= 1e-8
                    report.append({"quantity": "matrix_element", "n": n, "g": g, "k": float(k),
                                   "fermionic": float(m_f), "dense": m_d,
                                   "abs_error": float(err_m)})
                report.append({"quantity": "pair_gap", "n": n, "g": g, "k": float(k),
                               "fermionic": float(gap_f),
                               "dense": float(w[np.argmin(np.abs(w - target))] - w[0]),
                               "abs_error": gap_err})
            if g in (0.0, 1.0):
                # degenerate cluster: compare the collective projection norm
                target = w[0] + 4.0
                sel = np.abs(w - target) <= 1e-8
                m_d = float(np.sqrt(np.sum(np.abs(elems[sel]) ** 2)))
                m_f = math.sqrt(sum(abs(excitation_matrix_element(spec, float(k), g)) ** 2
                                    for k in kpos)) if g > 0 else 0.0
                ok_elements &= abs(m_f - m_d) <= 1e-8
                report.append({"quantity": "matrix_element_cluster", "n": n, "g": g,
                               "fermionic": m_f, "dense": m_d, "abs_error": abs(m_f - m_d)})
            off = ~channel_levels
            off[0] = False
            max_off = float(np.max(np.abs(elems[off]))) if off.any() else 0.0
            ok_zero &= max_off <= 1e-10
            report.append({"quantity": "non_channel_elements_max", "n": n, "g": g,
                           "fermionic": 0.0, "dense": max_off, "abs_error": max_off})
    checks["ground_energy_1e-10"] = bool(ok_energy)
    checks["pair_gaps_in_spectrum_1e-10"] = bool(ok_gaps)
    checks["matrix_elements_1e-8"] = bool(ok_elements)
    checks["non_channel_elements_zero_1e-10"] = bool(ok_zero)
    files.append(write_json(out / "oracle_report.json", report))
    return files, checks, {}


def _shares_cluster(w, target, kpos, spec, g) -> bool:
    """True when another pair channel is degenerate with this one."""
    gaps = np.sort(2.0 * mode_epsilon(kpos * spec.a, g))
    diffs = np.abs(gaps - (target - w[0]))
    return int(np.sum(diffs <= 1e-8)) > 1


def _dump_spectrum(path: Path, n: int, g: float) -> str:
    """Parity-resolved dense spectrum as (index, energy, parity) rows."""
    from .oracle import spectrum as dense_spectrum

    H = uniform_hamiltonian(n, g)
    levels = [(float(e), "even") for e in dense_spectrum(H, "even")]
    levels += [(float(e), "odd") for e in dense_spectrum(H, "odd")]
    levels.sort(key=lambda r: (r[0], r[1]))
    return write_csv(path, ["index", "energy", "parity"],
                     [(i, e, p) for i, (e, p) in enumerate(levels)])


_RUNNERS = {
    "spectrum": _run_spectrum,
    "dynamics": _run_dynamics,
    "decoherence": _run_decoherence,
    "scaling": _run_scaling,
    "stepwise": _run_stepwise,
    "oracle-check": _run_oracle_check,
}


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute one experiment; write artifacts and a summary, return the summary."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = _RUNNERS[config.kind]
    files, checks, extra = runner(config, out)
    if config.kind == "spectrum":
        files += emit_figure_data("fig1", out, omega_line=(config.omega_grid or (0.5,))[0])
    elif config.kind == "scaling":
        files += emit_figure_data("table1", out)
    elif config.kind == "decoherence" and config.t_scan and config.omega_grid:
        files += emit_figure_data("suppression", out)
    summary = {
        "kind": config.kind,
        "inputs_hash": config_hash(config),
        "config": config.to_dict(),
        "outputs": sorted(str(f) for f in files),
        "checks": checks,
        "all_checks_pass": bool(all(checks.values())) if checks else True,
        "seed": config.seed,
    }
    summary.update(extra)
    write_json(out / "summary.json", summary)
    return summary


def emit_figure_data(kind: str, results_dir, omega_line: float = 0.5) -> list:
    """Plot-ready files distilled from existing experiment outputs."""
    out = Path(results_dir)
    if kind == "fig1":
        candidates = sorted(out.glob("spectrum_n*.csv"),
                            key=lambda p: int(p.stem.split("n")[-1]))
        if not candidates:
            raise FileNotFoundError(f"no spectrum_n*.csv under {out}; run the spectrum experiment first")
        src = candidates[-1]
        import csv as _csv

        with open(src) as fh:
            reader = _csv.reader(fh)
            header = next(reader)
            rows = [[float(x) for x in row] for row in reader]
        new_rows = [tuple(r) + (omega_line,) for r in rows]
        return [write_csv(out / "fig1_excitation_spectrum.csv",
                          header + ["omega"], new_rows)]
    if kind == "table1":
        fits_file = out / "table1_fits.json"
        if not fits_file.exists():
            raise FileNotFoundError(f"{fits_file} missing; run the scaling experiment first")
        fits = json.loads(fits_file.read_text())
        rows = [(key, f["expected"], f["exponent"], f["stderr"], f["points"], f["pass"])
                for key, f in sorted(fits.items())]
        return [write_csv(out / "table1_summary.csv",
                          ["cell", "expected_exponent", "fitted_exponent", "stderr",
                           "points", "pass"], rows)]
    if kind == "suppression":
        src = out / "suppression_scan.csv"
        if not src.exists():
            raise FileNotFoundError(f"{src} missing; run the decoherence experiment with t_scan first")
        import csv as _csv

        with open(src) as fh:
            reader = _csv.reader(fh)
            next(reader)
            rows = [tuple(float(x) for x in row) for row in reader]
        return [write_csv(out / "suppression.csv",
                          ["T", "ln_abs_amplitude", "predicted_slope"], rows)]
    raise ValueError(f"unknown figure kind {kind!r}; expected fig1/table1/suppression")
