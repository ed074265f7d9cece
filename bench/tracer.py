"""Outside-in tracer for the isingsweep layers.

Wraps public functions of the package's modules from outside, without
touching ``src/``.  Every wrapped call is timed and counted; calls of
low-frequency functions also leave a span (name, start, end, parent
span, execution id).  Functions called more than about 10^4 times per
run (the chain mode functions and the schedule queries) are aggregated
into counters only.  Spans stay in memory until :meth:`Tracer.dump`.

Self time is a call's duration minus the time covered by wrapped calls
made inside it, so each layer's ``self_s`` excludes the layers it calls.

A wrapped name is patched in its home module and at every import site
inside the package (``from .quadrature import oscillatory_integral``
binds a second reference).  A name that no longer exists is recorded
as absent, not as an error, so the trace stays valid while the package
is refactored.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, name, mode): the module is the layer.  Mode "span" keeps one
# span per call, "count" aggregates.  A dotted name is a method patched on its class.
# Third-party functions (solve_ivp) are patched only in the named
# module, so the schedule tabulation and the mode integration count
# their right-hand-side calls separately.
WRAPPED = [
    ("quadrature", "oscillatory_integral", "span"),
    ("decoherence", "amplitude_numeric", "span"),
    ("decoherence", "amplitude_bound", "span"),
    ("decoherence", "amplitude_saddle_point", "span"),
    ("decoherence", "amplitude_suppressed_estimate", "span"),
    ("decoherence", "evaluate_channel", "span"),
    ("decoherence", "total_excitation_probability", "span"),
    ("decoherence", "saddle_points", "span"),
    ("decoherence", "accumulated_phase", "span"),
    ("decoherence", "scaling_fit", "span"),
    ("schedules", "make_schedule", "span"),
    ("schedules", "runtime_for_adiabaticity", "span"),
    ("schedules", "solve_ivp", "span"),
    ("schedules", "stepwise_hamiltonian_weights", "count"),
    ("schedules", "LinearSchedule.g_of_t", "count"),
    ("schedules", "LinearSchedule.g_dot", "count"),
    ("schedules", "LinearSchedule.velocity_of_g", "count"),
    ("schedules", "LinearSchedule.time_of_g", "count"),
    ("schedules", "GapAdaptedSchedule.g_of_t", "count"),
    ("schedules", "GapAdaptedSchedule.g_dot", "count"),
    ("schedules", "GapAdaptedSchedule.velocity_of_g", "count"),
    ("schedules", "GapAdaptedSchedule.time_of_g", "count"),
    ("dynamics", "integrate_modes", "span"),
    ("dynamics", "solve_ivp", "span"),
    ("dynamics", "instantaneous_pair", "count"),
    ("dynamics", "ModeTrajectory.to_csv", "span"),
    ("oracle", "even_gap", "span"),
    ("oracle", "stepwise_gap_profile", "span"),
    ("oracle", "uniform_min_even_gap", "span"),
    ("chain", "momentum_grid", "count"),
    ("chain", "mode_alpha", "count"),
    ("chain", "mode_beta", "count"),
    ("chain", "mode_epsilon", "count"),
    ("chain", "mode_epsilon_dg", "count"),
    ("chain", "mode_coefficients", "count"),
    ("chain", "fundamental_gap", "count"),
    ("chain", "ground_energy", "count"),
    ("chain", "excitation_matrix_element", "count"),
    ("experiments", "run_experiment", "span"),
    ("experiments", "parallel_map", "span"),
    ("experiments", "write_csv", "span"),
    ("experiments", "write_json", "span"),
    ("cli", "config_from_args", "span"),
]

_SCHEDULE_QUERIES = ("g_of_t", "g_dot", "velocity_of_g", "time_of_g")
_WRITERS = ("experiments.write_csv", "experiments.write_json", "dynamics.ModeTrajectory.to_csv")


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "outer_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0   # inclusive, summed over every call
        self.self_s = 0.0    # minus time covered by wrapped callees
        self.outer_s = 0.0   # inclusive, only calls not nested in the same group


class Tracer:
    """Collects spans and counters for one workload execution."""

    def __init__(self, execution_id: str):
        self.execution_id = execution_id
        self.stats: dict[str, _Stat] = {}
        self.spans: list[list] = []     # [id, parent, name, start, end, execution]
        self.absent: list[str] = []
        self.extra = {
            "panels": 0, "evaluations": 0, "quad_errors": 0, "quad_in_amplitude": 0,
            "tabulation_nfev": 0, "mode_nfev": 0, "fallbacks": 0, "channels": 0,
            "modes": 0, "max_norm_drift": 0.0,
        }
        self.even_gap_by_n: dict[int, list] = {}   # n -> [calls, seconds]
        self._stack: list[list] = []    # frames: [child_s, span_id, group]
        self._group_depth: dict[str, int] = {}
        self._next_id = 0

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Patch every name in WRAPPED into the imported isingsweep package."""
        for module in {w[0] for w in WRAPPED}:
            try:
                importlib.import_module(f"isingsweep.{module}")
            except ModuleNotFoundError:
                pass
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "isingsweep" or name.startswith("isingsweep.")}
        for module, name, mode in WRAPPED:
            key = f"{module}.{name}"
            home = package.get(f"isingsweep.{module}")
            owner, attr = home, name
            if home is not None and "." in name:
                cls_name, attr = name.split(".", 1)
                owner = getattr(home, cls_name, None)
                original = vars(owner).get(attr) if owner is not None else None
            else:
                original = getattr(home, name, None) if home is not None else None
            if not callable(original):
                self.absent.append(key)
                continue
            wrapper = self._wrap(original, key, mode)
            setattr(owner, attr, wrapper)
            if owner is home and getattr(original, "__module__", "").startswith("isingsweep"):
                for mod in package.values():
                    if mod is not home and getattr(mod, name, None) is original:
                        setattr(mod, name, wrapper)

    def _wrap(self, fn, key, mode):
        stat = self.stats.setdefault(key, _Stat())
        group = "schedules.query" if key.split(".")[-1] in _SCHEDULE_QUERIES else key
        observe = self._observer(key)
        keep_span = mode == "span"
        stack = self._stack
        depth = self._group_depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = None
            if keep_span:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id, group]
            outer = depth.get(group, 0) == 0
            depth[group] = depth.get(group, 0) + 1
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                if key == "quadrature.oscillatory_integral" and type(exc).__name__ == "QuadratureError":
                    self.extra["quad_errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                depth[group] -= 1
                dur = end - start
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[0]
                if outer:
                    stat.outer_s += dur
                if stack:
                    stack[-1][0] += dur
                if keep_span:
                    self.spans.append([span_id, self._parent_span(), key, start, end,
                                       self.execution_id])
                if observe is not None and result is not None:
                    observe(args, kwargs, result, dur)

        return wrapper

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def _observer(self, key):
        x = self.extra

        def quad(args, kwargs, res, dur):
            x["panels"] += res.panels
            x["evaluations"] += res.evaluations
            if self._stack and self._stack[-1][2] == "decoherence.amplitude_numeric":
                x["quad_in_amplitude"] += 1

        def tabulation(args, kwargs, res, dur):
            x["tabulation_nfev"] += int(res.nfev)

        def mode_ode(args, kwargs, res, dur):
            x["mode_nfev"] += int(res.nfev)

        def channel(args, kwargs, res, dur):
            x["fallbacks"] += res.method == "bound"

        def total(args, kwargs, res, dur):
            x["channels"] += len(res.channel_amplitudes)

        def modes(args, kwargs, res, dur):
            x["modes"] += len(res.k)
            x["max_norm_drift"] = max(x["max_norm_drift"], float(res.max_norm_drift))

        def gap(args, kwargs, res, dur):
            n = args[0] if args else kwargs["n"]
            entry = self.even_gap_by_n.setdefault(int(n), [0, 0.0])
            entry[0] += 1
            entry[1] += dur

        return {
            "quadrature.oscillatory_integral": quad,
            "schedules.solve_ivp": tabulation,
            "dynamics.solve_ivp": mode_ode,
            "decoherence.evaluate_channel": channel,
            "decoherence.total_excitation_probability": total,
            "dynamics.integrate_modes": modes,
            "oracle.even_gap": gap,
        }.get(key)

    # -- root span and results ----------------------------------------

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` under a root span, as if it were wrapped."""
        return self._wrap(fn, name, "span")(*args)

    def _sum(self, keys, field):
        return sum(getattr(self.stats[k], field) for k in keys if k in self.stats)

    def metrics(self, bytes_written: int) -> dict:
        """Per-layer metrics of this execution (unit-free numbers)."""
        st = self.stats
        x = self.extra

        def get(key, field="total_s"):
            return getattr(st[key], field) if key in st else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        chain_keys = [f"chain.{name}" for module, name, _ in WRAPPED if module == "chain"]
        quad_calls = get("quadrature.oscillatory_integral", "calls")
        quad_self = get("quadrature.oscillatory_integral", "self_s")
        amplitudes = get("decoherence.amplitude_numeric", "calls")
        queries = [k for k in st if k.startswith("schedules.") and k.split(".")[-1] in _SCHEDULE_QUERIES]
        integrate_s = get("dynamics.integrate_modes")
        m = {
            "quadrature.calls": quad_calls,
            "quadrature.self_s": quad_self,
            "quadrature.panels": x["panels"],
            "quadrature.evaluations": x["evaluations"],
            "quadrature.panels_per_call": ratio(x["panels"], quad_calls),
            "quadrature.us_per_panel": 1e6 * ratio(quad_self, x["panels"]),
            "quadrature.errors": x["quad_errors"],
            "decoherence.amplitudes": amplitudes,
            "decoherence.amplitude_self_s": get("decoherence.amplitude_numeric", "self_s"),
            "decoherence.integrals_per_amplitude": ratio(x["quad_in_amplitude"], amplitudes),
            "decoherence.fallback_frac": ratio(x["fallbacks"], get("decoherence.evaluate_channel", "calls")),
            "decoherence.bound_s": get("decoherence.amplitude_bound"),
            "decoherence.saddle_s": get("decoherence.amplitude_saddle_point"),
            "decoherence.s_per_channel": ratio(get("decoherence.total_excitation_probability"),
                                               x["channels"]),
            "schedules.constructions": get("schedules.make_schedule", "calls"),
            "schedules.construction_s": get("schedules.make_schedule"),
            "schedules.tabulation_rhs_evals": x["tabulation_nfev"],
            "schedules.runtime_s": get("schedules.runtime_for_adiabaticity"),
            "schedules.queries": self._sum(queries, "calls"),
            "schedules.query_s": self._sum(queries, "outer_s"),
            "dynamics.modes": x["modes"],
            "dynamics.integrate_s": integrate_s,
            "dynamics.rhs_evals": x["mode_nfev"],
            "dynamics.us_per_rhs_eval": 1e6 * ratio(integrate_s, x["mode_nfev"]),
            "dynamics.max_norm_drift": x["max_norm_drift"],
            "oracle.even_gap_calls": get("oracle.even_gap", "calls"),
        }
        for n in (4, 6, 8, 10, 12):
            calls, secs = self.even_gap_by_n.get(n, (0, 0.0))
            m[f"oracle.even_gap_ms.n{n}"] = 1e3 * ratio(secs, calls)
        m.update({
            "oracle.profile_s": get("oracle.stepwise_gap_profile"),
            "oracle.uniform_min_s": get("oracle.uniform_min_even_gap"),
            "chain.calls": self._sum(chain_keys, "calls"),
            "chain.self_s": self._sum(chain_keys, "self_s"),
            "experiments.run_self_s": get("experiments.run_experiment", "self_s"),
            "experiments.bytes_written": bytes_written,
            "experiments.write_s": self._sum(_WRITERS, "total_s"),
            "cli.config_s": get("cli.config_from_args"),
        })
        return m

    def dump(self) -> dict:
        """Spans and raw counters, for writing out once the run has ended."""
        return {
            "execution_id": self.execution_id,
            "spans": self.spans,
            "span_fields": ["id", "parent", "name", "start", "end", "execution"],
            "stats": {k: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                      for k, s in sorted(self.stats.items())},
            "absent": self.absent,
        }
