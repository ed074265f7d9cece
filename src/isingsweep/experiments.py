"""Experiment orchestration: configuration, runners, and data artifacts.

Each experiment kind maps a validated :class:`ExperimentConfig` to a set
of CSV/JSON files plus a machine-readable summary with built-in checks.
Numbers are printed with 17 significant digits and orderings are fixed,
so identical configurations produce byte-identical output.  Every
runner is serial and writes each file it owns once, in one pass.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .chain import (
    ChainSpec,
    CouplingConstant,
    channel_momenta,
    check_number,
    excitation_matrix_element,
    fundamental_gap,
    ground_energy,
    mode_epsilon,
)
from .decoherence import (
    AMPLITUDE,
    NORM,
    PHASE,
    BathSpectrum,
    _bath_bounds,
    _check_bath,
    _crossing,
    _crossing_phase,
    _pass,
    _saddle,
    saddle_points,
    scaling_fit,
)
from .dynamics import MIN_RTOL, integrate_modes
from .oracle import _DENSE_CAP, sigma_x_elements, stepwise_gap_profile, uniform_hamiltonian
from .schedules import Schedule, _check_kind, runtime_for_adiabaticity

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "run_experiment",
    "table1_cells",
    "write_csv",
    "write_json",
]

_G_POINTS = 201  # sweep values g of each spectrum curve
_K_MODES = 4     # lowest channels of the amplitude table


class ConfigError(ValueError):
    pass


def _config_check(prefix: str, check, *args):
    """Run a package ``check``; its ValueError, which starts with the input's name, becomes a
    ConfigError that starts with ``prefix``, the path of the config field."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _subgap_pair(spec: ChainSpec, omega_grid):
    """The first (k, omega), k ascending, with omega below the channel's minimum gap, or None."""
    for k in channel_momenta(spec).tolist():
        for w in omega_grid:
            if w < 2.0 * mode_epsilon(k, 0.5):
                return k, w
    return None


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    chain_sizes: tuple = (8,)
    schedule_kind: str = "linear"
    total_time: float | None = None       # explicit T; otherwise from epsilon_adiab
    epsilon_adiab: float = 0.25
    coupling: float = 0.01
    bath_kind: str = "ohmic"
    bath_params: tuple = (("omega_c", 0.5), ("support_max", 1.9))
    omega_grid: tuple | None = None
    t_scan: tuple | None = None
    time_points: int = 401
    amplitude_rtol: float = 1e-6
    ode_rtol: float = 1e-10
    output_dir: str = "out"

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config of the fields in ``d``, each judged by the check of the package function
        that takes it, named by its field; values are stored as given."""
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
            _config_check(f"config.chain_sizes[{i}]: ", ChainSpec, n)
            if n > _DENSE_CAP and kind == "oracle-check":
                raise ConfigError(f"config.chain_sizes[{i}]: n={n} exceeds the dense cap {_DENSE_CAP}")
            if n in sizes[:i]:
                raise ConfigError(f"config.chain_sizes[{i}]: n={n} repeats")
        d["chain_sizes"] = tuple(sizes)
        if "output_dir" in d and not (isinstance(d["output_dir"], str) and d["output_dir"]):
            raise ConfigError(f"config.output_dir: must be a non-empty string, got {d['output_dir']!r}")
        _config_check("config.", _check_kind, d.get("schedule_kind", "linear"), "schedule_kind")
        if d.get("total_time") is None:  # null or absent: T follows from epsilon_adiab
            d.pop("total_time", None)
        # the least value of each number-valued field, as the package function taking it has
        # it; amplitude_rtol must be positive, though the quadrature's budget also admits 0
        for key, least, inclusive in (("total_time", 0.0, False), ("epsilon_adiab", 0.0, False),
                                      ("coupling", 0.0, False), ("amplitude_rtol", 0.0, False),
                                      ("ode_rtol", MIN_RTOL, True)):
            if key in d:
                _config_check("config.", check_number, key, d[key], least, inclusive)
        points = d.get("time_points", cls.time_points)
        if not (isinstance(points, int) and not isinstance(points, bool) and points >= 2):
            raise ConfigError(f"config.time_points: must be an integer >= 2, got {points!r}")
        bath_kind = d.get("bath_kind", "ohmic")
        _config_check("config.", _bath_bounds, bath_kind, "bath_kind")
        bp = d.get("bath_params", cls.bath_params)
        try:
            params = dict(bp)
        except (TypeError, ValueError):
            raise ConfigError(f"config.bath_params: must map names to numbers, got {bp!r}") from None
        _config_check("config.bath_params.", _check_bath, bath_kind, params)
        d["bath_params"] = tuple(sorted(params.items()))
        # a frequency may be any finite number, a run time of the scan is a total_time
        for key, least in (("omega_grid", -math.inf), ("t_scan", 0.0)):
            vals = d.get(key)
            if vals is None:
                continue
            if not isinstance(vals, (list, tuple)) or not vals:
                raise ConfigError(f"config.{key}: must be a non-empty list, got {vals!r}")
            for v in vals:
                _config_check("config.", check_number, key, v, least)
            d[key] = tuple(float(v) for v in vals)
            for i, v in enumerate(d[key]):
                if v in d[key][:i]:
                    raise ConfigError(f"config.{key}[{i}]: {v!r} repeats")
        scan = kind == "decoherence" and d.get("omega_grid") and d.get("t_scan")
        if scan and _subgap_pair(ChainSpec(d["chain_sizes"][0]), d["omega_grid"]) is None:
            raise ConfigError("config.t_scan: no sub-gap (k, omega) pair in the grid")
        return cls(**d)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["chain_sizes"] = list(self.chain_sizes)
        d["bath_params"] = dict(self.bath_params)
        d["omega_grid"] = list(self.omega_grid) if self.omega_grid is not None else None
        d["t_scan"] = list(self.t_scan) if self.t_scan is not None else None
        return d

    def schedule_for(self, n: int, total_time: float | None = None) -> Schedule:
        T = total_time or self.total_time or runtime_for_adiabaticity(
            self.schedule_kind, n, self.epsilon_adiab)
        return Schedule(self.schedule_kind, T, ChainSpec(n))

    def bath(self) -> BathSpectrum:
        return BathSpectrum(self.bath_kind, dict(self.bath_params), CouplingConstant(self.coupling))


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path, header, rows=(), blocks=()) -> str:
    """Write ``header``, then ``rows`` and ``blocks``; floats as %.17g, lines ended by \\r\\n.

    ``rows`` is an iterable of tuples, formatted value by value.  Each block
    is ``(lead, values)``: strings of leading fields that the caller has
    formatted, each ending in a comma, and a 2-D float array with a row per
    string, formatted by one template.  Same bytes, each repeated value
    formatted once and a block at a time.
    """
    path = Path(path)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])
        for lead, values in blocks:
            line = ",".join(["%.17g"] * values.shape[1]) + "\r\n"
            fh.writelines([head + line % tuple(row) for head, row in zip(lead, values.tolist())])
    return str(path)


def write_json(path, obj) -> str:
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
    return str(path)


# ----------------------------------------------------------------------
# Scaling-table preset ("table1" artifacts): six cells spanning the
# three schedules and the two frequency regimes, each fitted over an
# n-sweep and an omega-sweep.  The measured quantity removes the
# predicted prefactor (lam, ka, and any logarithmic factor with its
# natural argument) so that a pure power law remains.
# ----------------------------------------------------------------------

_T1_SIZES = (8, 16, 32, 64, 128)
# per column: the omega of the n sweep, and the omega sweep
_T1_OMEGAS = {"saddle": (1.3, tuple(np.geomspace(0.35, 1.4, 7))),
              "bound": (0.5, tuple(np.geomspace(0.3, 1.2, 7)))}
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


def _t1_points(eps_adiab: float) -> list:
    """Every Table-1 point in row order: (cell, sweep, value, spec, k, omega, schedule);
    the points of one (kind, n) share one schedule."""
    points, schedules = [], {}
    for cell in table1_cells():
        saddle, kind = cell["column"] == "saddle", cell["schedule"]
        fixed, omegas = _T1_OMEGAS[cell["column"]]
        grid = [("n", n, n, fixed) for n in _T1_SIZES] + [
            ("omega", w, _T1_N_FIXED, float(w)) for w in omegas]
        for sweep, value, n, omega in grid:
            spec = ChainSpec(n)
            kpos = channel_momenta(spec)
            # the fundamental mode, or in a bound cell the mode resonating with omega
            k = float(kpos[0 if saddle else np.argmin(np.abs(2.0 * kpos - omega))])
            if (kind, n) not in schedules:
                schedules[kind, n] = Schedule(kind, runtime_for_adiabaticity(kind, n, eps_adiab),
                                              spec)
            points.append((cell, sweep, value, spec, k, omega, schedules[kind, n]))
    return points


def run_table1(out_dir: Path, lam: float, eps_adiab: float, rtol: float):
    """The six scaling cells in two quadrature passes.

    A bound point's raw value is lam times its channel norm, a saddle
    point's the envelope sqrt((|A(T)|^2 + |A(T')|^2) / 2), T' = T (1 + pi/|dPhi|)
    with dPhi the phase between the two saddles, free of their cross term.
    Pass 1 integrates the norm of each distinct (schedule, k), and for
    each saddle point the crossing phase Phi(1/2) of its channel and the
    phase at its lower saddle g_-: the phase is even about the crossing,
    so dPhi = 2 (Phi(1/2) - Phi(g_-)).  dg/dt is proportional to 1/T for
    every kind, so the norm at T' is that at T times T'/T; pass 2
    integrates every amplitude, at T and at T', each taking Phi(1/2) from
    its own folded integral.  Returns files, fits, checks and the counts
    of each pass.
    """
    points = _t1_points(eps_adiab)
    saddle = [p for p in points if p[0]["column"] == "saddle"]
    counts = {}
    norms = [(sched, k, 0.0, NORM, 1.0) for *_, k, _, sched in points]
    values, channels = _pass(norms + [_crossing(sched, k) for *_, k, _, sched in saddle] + [
        (sched, k, omega, PHASE, saddle_points(spec, k, omega)[0])
        for *_, spec, k, omega, sched in saddle], rtol, passes=counts)
    halves, lows = np.split(values[len(norms):].real, 2)
    terms = []
    for (cell, *_, spec, k, omega, sched), half, lo in zip(saddle, halves.tolist(), lows.tolist()):
        dphi = 2.0 * (_crossing_phase(half, sched, omega) - lo)
        longer = Schedule(cell["schedule"], sched.total_time * (1.0 + np.pi / abs(dphi)), spec)
        channels[longer, k, 1.0] = channels[sched, k, 1.0] * (longer.total_time / sched.total_time)
        terms += [(sched, k, omega, AMPLITUDE, 1.0), (longer, k, omega, AMPLITUDE, 1.0)]
    amplitudes = _pass(terms, rtol, channels, counts)[0].tolist()
    envelopes = iter([math.sqrt(0.5 * (abs(-1j * lam * a1) ** 2 + abs(-1j * lam * a2) ** 2))
                      for a1, a2 in zip(amplitudes[::2], amplitudes[1::2])])
    rows = {}
    for cell, sweep, value, spec, k, omega, sched in points:
        om_eff = 2.0 * k  # a bound cell divides by its stated logarithmic factor
        div = {"linear-bound": (om_eff if sweep == "n" else 1.0) * math.log(8.0 / om_eff),
               "adapted1-bound": math.log(spec.n * om_eff),
               "adapted2-bound": 1.0}.get(cell["name"], k)
        raw = next(envelopes) if cell["column"] == "saddle" else lam * channels[sched, k, 1.0]
        rows.setdefault(cell["name"], []).append((sweep, float(value), raw, raw / (lam * div)))
    files, fits = [], {}
    for cell in table1_cells():
        for sweep in ("n", "omega"):
            fit = scaling_fit(*zip(*[r[1::2] for r in rows[cell["name"]] if r[0] == sweep]))
            expected = cell["n_exponent"] if sweep == "n" else cell["omega_exponent"]
            key = f"{cell['name']}-{sweep}"
            fits[key] = {"target": key, "exponent": fit.exponent, "stderr": fit.stderr,
                         "points": fit.n_points, "expected": expected,
                         "pass": bool(abs(fit.exponent - expected) <= 0.2)}
        files.append(write_csv(out_dir / f"table1_{cell['name']}.csv",
                               ["sweep", "value", "raw", "normalized"], rows[cell["name"]]))
    files.append(write_json(out_dir / "table1_fits.json", fits))
    files.append(write_csv(
        out_dir / "table1_summary.csv",
        ["cell", "expected_exponent", "fitted_exponent", "stderr", "points", "pass"],
        [(key, f["expected"], f["exponent"], f["stderr"], f["points"], f["pass"])
         for key, f in sorted(fits.items())]))
    return files, fits, {key: f["pass"] for key, f in fits.items()}, counts


# ----------------------------------------------------------------------
# Experiment runners
# ----------------------------------------------------------------------


def _channel_gaps(spec: ChainSpec, g_values: np.ndarray, n_channels: int) -> np.ndarray:
    kpos = channel_momenta(spec)[:n_channels]
    return 2.0 * mode_epsilon(kpos[:, None], g_values[None, :])


def _run_spectrum(config: ExperimentConfig, out: Path):
    files, checks = [], {}
    g_values = np.linspace(0.0, 1.0, _G_POINTS)
    for n in config.chain_sizes:
        spec = ChainSpec(n)
        m = min(6, n // 2)
        gaps = _channel_gaps(spec, g_values, m)
        header = ["g"] + [f"dE_{i + 1}" for i in range(m)]
        rows = [(float(g),) + tuple(float(x) for x in gaps[:, i]) for i, g in enumerate(g_values)]
        files.append(write_csv(out / f"spectrum_n{n}.csv", header, rows))
        half_step = 0.5 / (_G_POINTS - 1)
        dips = [abs(g_values[np.argmin(gaps[j])] - 0.5) <= half_step + 1e-9 for j in range(m)]
        checks[f"n{n}_gap_min_at_critical_point"] = bool(all(dips))
        if n == max(config.chain_sizes):
            # figure 1: the largest chain's gap curves with a constant frequency line
            omega_line = (config.omega_grid or (0.5,))[0]
            fig1 = (header + ["omega"], [row + (omega_line,) for row in rows])
    files.append(write_csv(out / "fig1_excitation_spectrum.csv", *fig1))
    return files, checks, {}


def _run_dynamics(config: ExperimentConfig, out: Path):
    files, checks, diagnostics = [], {}, {}
    for n in config.chain_sizes:
        spec = ChainSpec(n)
        sched = config.schedule_for(n)
        t_grid = np.linspace(0.0, sched.total_time, config.time_points)
        traj = integrate_modes(spec, sched, t_grid, rtol=config.ode_rtol)
        # long format, one row per (time, mode), time-major, a block per time
        k_text = ["%.17g," % k for k in traj.k.tolist()]
        values = np.stack([traj.u.real, traj.u.imag, traj.v.real, traj.v.imag, traj.p], axis=-1)
        tg_text = ["%.17g,%.17g," % tg for tg in zip(traj.t.tolist(), traj.g.tolist())]
        blocks = (([tg + k for k in k_text], values[:, i]) for i, tg in enumerate(tg_text))
        files.append(write_csv(out / f"dynamics_n{n}.csv",
                               ["t", "g", "k", "re_u", "im_u", "re_v", "im_v", "p_k"],
                               blocks=blocks))
        checks[f"n{n}_norm_drift_ok"] = bool(traj.max_norm_drift <= 10.0 * config.ode_rtol)
        diagnostics[str(n)] = {"magnus_steps": traj.magnus_steps,
                               "doublings": traj.magnus_steps.bit_length() - 1,
                               "doubling_delta": traj.doubling_delta,
                               "max_norm_drift": traj.max_norm_drift}
    return files, checks, {"diagnostics": diagnostics}


def _run_decoherence(config: ExperimentConfig, out: Path):
    """The amplitude table of the 4 lowest channels of every size, and the suppression scan
    of one sub-gap (k, omega) of the first size, in two quadrature passes (no frequency
    grid: the bath-averaged total).  Pass 1 integrates the norm of each distinct
    (schedule, k), for the bound rows and the amplitudes' floors, with the phases of every
    saddle-point row; pass 2 every amplitude of the table and the scan, each taking its
    crossing phase Phi(1/2) from its own folded integral.
    """
    if not config.omega_grid:
        return _run_total_probability(config, out)
    lam = CouplingConstant(config.coupling).lam  # warns when first order breaks down
    omegas = [float(w) for w in config.omega_grid]
    cells, scan = [], []  # (n, schedule, k, omega)
    for n in config.chain_sizes:
        sched = config.schedule_for(n)
        cells += [(n, sched, k, w) for k in channel_momenta(ChainSpec(n))[:_K_MODES].tolist()
                  for w in omegas]
    if config.t_scan:
        n = config.chain_sizes[0]
        k, w = _subgap_pair(ChainSpec(n), config.omega_grid)
        scan = [(n, config.schedule_for(n, total_time=T), k, w) for T in config.t_scan]
    # saddle points exist only up to the largest channel gap 4
    saddles = [_saddle(ChainSpec(n), sched, k, w) if 2.0 * k < w <= 4.0 else ((), None)
               for n, sched, k, w in cells]
    passes = {}
    rtol = config.amplitude_rtol
    norms = [(sched, k, 0.0, NORM, 1.0) for _, sched, k, _ in cells + scan]
    values, channels = _pass(norms + [term for terms, _ in saddles for term in terms], rtol,
                             passes=passes)
    phases = iter(values[len(norms):].real.tolist())
    amplitudes = (-1j * lam * _pass([(sched, k, w, AMPLITUDE, 1.0) for _, sched, k, w
                                     in cells + scan], rtol, channels, passes)[0]).tolist()
    rows, bound_ok, saddle_ok = [], True, True
    for (n, sched, k, omega), a_num, (terms, saddle) in zip(cells, amplitudes, saddles):
        b = lam * channels[sched, k, 1.0]
        bound_ok &= abs(a_num) <= b * (1.0 + 1e-9)
        cell = (n, sched.kind, sched.total_time, k, omega)
        rows += [cell + ("numeric", a_num.real, a_num.imag, abs(a_num), ""),
                 cell + ("bound", b, 0.0, b, "")]
        if saddle:
            sp = saddle([next(phases) for _ in terms], lam)
            rows.append(cell + ("saddle-point", sp.value.real, sp.value.imag, abs(sp.value),
                                str(sp.valid)))
            if sp.valid and abs(a_num) > 0:
                saddle_ok &= 0.8 <= abs(sp.value) / abs(a_num) <= 1.25
    files = [write_csv(out / "amplitudes.csv",
                       ["n", "schedule", "T", "k", "omega", "method", "re", "im", "abs", "valid"],
                       rows)]
    checks = {"bound_dominates_numeric": bool(bound_ok),
              "saddle_within_envelope_band": bool(saddle_ok)}
    if scan:
        files.append(write_csv(out / "suppression.csv", ["T", "ln_abs_amplitude"],
                               [(sched.total_time, math.log(abs(a))) for (_, sched, _, _), a
                                in zip(scan, amplitudes[len(cells):])]))
    return files, checks, {"diagnostics": passes}


def _run_total_probability(config: ExperimentConfig, out: Path):
    """Bath-averaged total excitation probability over the size list."""
    # Bound at call time, not at import: bench/sample.py records each
    # size's total by replacing decoherence.total_excitation_probability.
    from .decoherence import total_excitation_probability

    bath = config.bath()
    rows = []
    warnings_seen = []
    diagnostics = {}
    for n in config.chain_sizes:
        spec = ChainSpec(n)
        sched = config.schedule_for(n)
        res = total_excitation_probability(spec, sched, bath, rtol=config.amplitude_rtol)
        rows.append((n, sched.kind, sched.total_time, res.p_total))
        warnings_seen += res.warnings
        diagnostics[str(n)] = res.counts
    files = [write_csv(out / "total_probability.csv", ["n", "schedule", "T", "p_total"], rows)]
    checks = {}
    if len(rows) >= 2:
        p = [r[3] for r in sorted(rows)]  # in ascending n, whatever the size order
        checks["p_total_increases_with_n"] = bool(all(b > a for a, b in zip(p, p[1:])))
    return files, checks, {"response_warnings": warnings_seen, "diagnostics": diagnostics}


def _run_scaling(config: ExperimentConfig, out: Path):
    files, fits, checks, diagnostics = run_table1(out, CouplingConstant(config.coupling).lam,
                                                  config.epsilon_adiab, config.amplitude_rtol)
    return files, checks, {"fits": fits, "diagnostics": diagnostics}


def _run_stepwise(config: ExperimentConfig, out: Path):
    checks, mins, uniform_rows = {}, [], []

    def blocks():  # each size's profile is written as it is made, one block
        for n in config.chain_sizes:
            prof = stepwise_gap_profile(n)
            mins.append((n, prof.min_gap))
            # the uniform ring's smallest even gap, 4 sin(pi/2n) at g = 1/2
            uniform_rows.append((n, float(fundamental_gap(ChainSpec(n), 0.5))))
            s_text = ["%.17g," % s for s in prof.s_values.tolist()]
            yield ([f"{n},{step}," + s for step in prof.steps.tolist() for s in s_text],
                   prof.gaps.reshape(-1, 1))

    files = [write_csv(out / "stepwise_gaps.csv", ["n", "step", "s", "gap"], blocks=blocks()),
             write_csv(out / "stepwise_min_gaps.csv", ["n", "min_gap"], mins),
             write_csv(out / "uniform_min_gaps.csv", ["n", "min_even_gap"], uniform_rows)]
    # n = 2 has only step 1, whose minimum is 4/sqrt(5); every n >= 3 reaches sqrt(2) on
    # its later steps, so only those sizes are compared (n = 2's minimum stays recorded)
    later = [gap for n, gap in mins if n >= 3]
    checks["stepwise_gap_n_independent_10pct"] = bool(
        not later or (max(later) - min(later)) / max(later) <= 0.10)
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
        spec = ChainSpec(n)
        kpos = channel_momenta(spec)
        files.append(_dump_spectrum(out / f"dense_spectrum_n{n}.csv", n, g=0.5))
        for g in g_values:
            w, elems = sigma_x_elements(uniform_hamiltonian(n, g, sector="even"))
            e0_f = ground_energy(spec, g)
            err = abs(w[0] - e0_f)
            ok_energy &= err <= 1e-10
            report.append({"quantity": "ground_energy", "n": n, "g": g,
                           "fermionic": e0_f, "dense": float(w[0]), "abs_error": float(err)})
            gaps = 2.0 * mode_epsilon(kpos, g)
            channel_levels = np.zeros(len(w), dtype=bool)
            for k, gap_f in zip(kpos, gaps):
                dist = np.abs(w - (w[0] + gap_f))
                channel_levels |= dist <= 1e-8
                gap_err = float(np.min(dist))
                ok_gaps &= gap_err <= 1e-10
                report.append({"quantity": "pair_gap", "n": n, "g": g, "k": float(k),
                               "fermionic": float(gap_f),
                               "dense": float(w[np.argmin(dist)] - w[0]),
                               "abs_error": gap_err})
            # Channels whose gaps agree (every pair gap is 4 at g = 0 and 1)
            # share their levels, so each group is compared by its
            # projection norm sqrt(sum |M_k|^2).
            m_f = np.abs([excitation_matrix_element(spec, float(k), g) for k in kpos])
            grouped = np.zeros(len(kpos), dtype=bool)
            for i, gap_f in enumerate(gaps):
                if grouped[i]:
                    continue
                group = ~grouped & (np.abs(gaps - gap_f) <= 1e-8)
                grouped |= group
                sel = np.abs(w - (w[0] + gap_f)) <= 1e-8
                m_d = float(np.sqrt(np.sum(np.abs(elems[sel]) ** 2)))
                m_g = float(np.sqrt(np.sum(m_f[group] ** 2)))
                ok_elements &= abs(m_g - m_d) <= 1e-8
                if group.sum() == 1:
                    entry = {"quantity": "matrix_element", "n": n, "g": g, "k": float(kpos[i])}
                else:
                    entry = {"quantity": "matrix_element_cluster", "n": n, "g": g}
                report.append({**entry, "fermionic": m_g, "dense": m_d,
                               "abs_error": abs(m_g - m_d)})
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


def _dump_spectrum(path: Path, n: int, g: float) -> str:
    """Parity-resolved dense spectrum as (index, energy, parity) rows."""
    levels = [(float(e), sector) for sector in ("even", "odd")
              for e in np.linalg.eigvalsh(uniform_hamiltonian(n, g, sector=sector).matrix)]
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
EXPERIMENT_KINDS = tuple(_RUNNERS)


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute one experiment; write artifacts and a summary, return the summary."""
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"config.output_dir: cannot create {config.output_dir!r}: {exc.strerror}") from None
    runner = _RUNNERS[config.kind]
    files, checks, extra = runner(config, out)
    summary = {
        "kind": config.kind,
        "config": config.to_dict(),
        "outputs": sorted(str(f) for f in files),
        "checks": checks,
        "all_checks_pass": bool(all(checks.values())) if checks else True,
    }
    summary.update(extra)
    write_json(out / "summary.json", summary)
    return summary
