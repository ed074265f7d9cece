import csv
import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from isingsweep import decoherence, oracle
from isingsweep.chain import (
    ChainSpec,
    CouplingConstant,
    channel_momenta,
    fundamental_gap,
)
from isingsweep.cli import main
from isingsweep.decoherence import (
    _BATH_PARAMS,
    BathSpectrum,
    accumulated_phase,
    amplitude_bound,
    amplitude_numeric,
    amplitude_saddle_point,
    saddle_points,
)
from isingsweep.dynamics import integrate_modes
from isingsweep.experiments import (
    _T1_N_FIXED,
    ConfigError,
    ExperimentConfig,
    run_experiment,
    run_table1,
    table1_cells,
    write_csv,
)
from isingsweep.quadrature import QuadratureError
from isingsweep.schedules import Schedule, runtime_for_adiabaticity


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="config.kind"):
        ExperimentConfig.from_dict({"kind": "nope"})
    with pytest.raises(ConfigError, match=r"config.chain_sizes\[0\]"):
        ExperimentConfig.from_dict({"kind": "spectrum", "chain_sizes": [7]})
    with pytest.raises(ConfigError, match="config.total_time"):
        ExperimentConfig.from_dict({"kind": "spectrum", "total_time": -5.0})
    with pytest.raises(ConfigError, match=r"^config.coupling: must be a finite number > 0.0, "
                                          r"got 0.0$"):
        ExperimentConfig.from_dict({"kind": "spectrum", "coupling": 0.0})
    with pytest.raises(ConfigError, match="unknown field"):
        ExperimentConfig.from_dict({"kind": "spectrum", "bogus": 1})
    with pytest.raises(ConfigError, match="dense cap"):
        ExperimentConfig.from_dict({"kind": "oracle-check", "chain_sizes": [16]})
    # the step-wise profile is free-fermion, so the dense cap does not apply
    assert ExperimentConfig.from_dict({"kind": "stepwise", "chain_sizes": [16, 32]})


_FIELD_VALUES = [[], {}, [1], [[1, 2]], {"a": 1}, True, "x", None, 1.5, -1, float("nan")]


@pytest.mark.parametrize("field", sorted(ExperimentConfig.__dataclass_fields__))
def test_config_field_of_any_json_type_fails_cleanly(field):
    # whatever JSON value a config file gives a field, from_dict accepts
    # it or raises ConfigError, which the CLI turns into exit status 2
    for kind in ("decoherence", "stepwise"):
        for value in _FIELD_VALUES:
            try:
                ExperimentConfig.from_dict({"kind": kind, field: value})
            except ConfigError:
                pass


@pytest.mark.parametrize("argv", [["decoherence", "--n", "8", "--omega", "0.8"], ["scaling"]],
                         ids=["amplitude-table", "scaling"])
def test_large_coupling_warns_in_every_mode(tmp_path, argv):
    # lambda = 0.5 breaks first-order response whichever runner reads it
    with pytest.warns(UserWarning, match="coupling lambda=0.5 is large"):
        main(argv + ["--coupling", "0.5", "--out", str(tmp_path)])


def test_config_round_trip_lossless():
    cfg = ExperimentConfig.from_dict({
        "kind": "decoherence", "chain_sizes": [8], "omega_grid": [0.5, 1.0],
        "bath_params": {"omega_c": 0.4},
    })
    clone = ExperimentConfig.from_dict(cfg.to_dict())
    assert clone == cfg


def test_spectrum_experiment_and_fig1(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "spectrum", "chain_sizes": [8, 16], "output_dir": str(tmp_path),
    })
    summary = run_experiment(cfg)
    assert summary["all_checks_pass"]
    assert (tmp_path / "spectrum_n16.csv").exists()
    assert (tmp_path / "fig1_excitation_spectrum.csv").exists()
    header = (tmp_path / "fig1_excitation_spectrum.csv").read_text().splitlines()[0]
    assert header.split(",")[-1] == "omega"
    saved = json.loads((tmp_path / "summary.json").read_text())
    assert sorted(saved) == ["all_checks_pass", "checks", "config", "kind", "outputs"]
    assert saved["config"] == cfg.to_dict()


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        run_experiment(ExperimentConfig.from_dict({
            "kind": "spectrum", "chain_sizes": [8], "output_dir": str(out),
        }))
    assert (out1 / "spectrum_n8.csv").read_bytes() == (out2 / "spectrum_n8.csv").read_bytes()
    assert (out1 / "fig1_excitation_spectrum.csv").read_bytes() == \
        (out2 / "fig1_excitation_spectrum.csv").read_bytes()
    # the config identifies the inputs; where the outputs go is not one
    inputs = [{**json.loads((out / "summary.json").read_text())["config"], "output_dir": None}
              for out in (out1, out2)]
    assert inputs[0] == inputs[1]
    diagnostics = []
    for out in (out1, out2):
        summary = run_experiment(ExperimentConfig.from_dict({
            "kind": "dynamics", "chain_sizes": [4], "total_time": 5.0, "time_points": 3,
            "output_dir": str(out / "dyn"),
        }))
        diagnostics.append(json.dumps(summary["diagnostics"]))
    assert diagnostics[0] == diagnostics[1]
    assert (out1 / "dyn" / "dynamics_n4.csv").read_bytes() == \
        (out2 / "dyn" / "dynamics_n4.csv").read_bytes()
    # the scaling table's two batched passes: same bytes, same counts
    diagnostics = []
    for out in (out1, out2):
        summary = run_experiment(ExperimentConfig.from_dict({
            "kind": "scaling", "coupling": 1e-3, "output_dir": str(out / "t1")}))
        diagnostics.append(json.dumps(summary["diagnostics"]))
    assert diagnostics[0] == diagnostics[1]
    passes = json.loads(diagnostics[0])
    assert sorted(passes) == ["pass_1", "pass_2"]
    assert all(d["quadrature_panels"] >= d["integrals"] for d in passes.values())
    # pass 1 holds only zero-phase norms and phases, which need no Levin solve
    assert [d["quadrature_levin_solves"] == 0 for d in passes.values()] == [True, False]
    assert all(d["quadrature_levin_solves"] <= d["quadrature_evaluations"] // 33
               for d in passes.values())
    tables = sorted((out1 / "t1").glob("table1_*.csv"))
    assert len(tables) == 7
    for path in tables:
        assert path.read_bytes() == (out2 / "t1" / path.name).read_bytes(), path.name
    # the step-wise profiles, written a block at a time: same bytes; being closed-form,
    # they have no solver counts to record
    for out in (out1, out2):
        summary = run_experiment(ExperimentConfig.from_dict({
            "kind": "stepwise", "chain_sizes": [4, 6], "output_dir": str(out / "sw")}))
        assert "diagnostics" not in summary
    # the uniform minimum is the closed form 4 sin(pi/2n), written unrounded
    assert (out1 / "sw" / "uniform_min_gaps.csv").read_text().splitlines()[1:] == [
        "%d,%.17g" % (n, fundamental_gap(ChainSpec(n), 0.5)) for n in (4, 6)]
    for name in ("stepwise_gaps.csv", "stepwise_min_gaps.csv", "uniform_min_gaps.csv"):
        assert (out1 / "sw" / name).read_bytes() == (out2 / "sw" / name).read_bytes(), name
    # the dense oracle's spectra and report
    for out in (out1, out2):
        run_experiment(ExperimentConfig.from_dict({
            "kind": "oracle-check", "chain_sizes": [2, 4], "output_dir": str(out / "oc")}))
    for name in ("dense_spectrum_n2.csv", "dense_spectrum_n4.csv", "oracle_report.json"):
        assert (out1 / "oc" / name).read_bytes() == (out2 / "oc" / name).read_bytes(), name


def test_table1_in_two_batches_matches_public_calls(tmp_path, monkeypatch):
    # one oscillatory_batch call per pass: the 36 distinct channel norms with
    # the 72 saddle phases, then the 72 amplitudes; the raw value of one point
    # per cell, the omega sweep at its largest omega, is that of the public
    # solo calls
    lam, eps_adiab, rtol = 1e-3, 0.25, 1e-6
    calls = []
    inner = decoherence.oscillatory_batch

    def counting(*args, **kwargs):
        calls.append(len(args[2]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(decoherence, "oscillatory_batch", counting)
    _, fits, _, diagnostics = run_table1(tmp_path, lam, eps_adiab, rtol)
    monkeypatch.undo()
    assert calls == [108, 72]
    assert [d["integrals"] for d in diagnostics.values()] == calls
    assert all(f["pass"] for f in fits.values())
    spec = ChainSpec(_T1_N_FIXED)
    for cell in table1_cells():
        kind = cell["schedule"]
        with open(tmp_path / f"table1_{cell['name']}.csv", newline="") as fh:
            row = [r for r in csv.DictReader(fh) if r["sweep"] == "omega"][-1]
        omega = float(row["value"])
        first = Schedule(kind, runtime_for_adiabaticity(kind, spec.n, eps_adiab), spec)
        if cell["column"] == "saddle":
            k = spec.smallest_momentum
            lo, hi = (accumulated_phase(spec, first, k, omega, g)
                      for g in saddle_points(spec, k, omega))
            longer = Schedule(kind, first.total_time * (1.0 + np.pi / abs(hi - lo)), spec)
            a1, a2 = (amplitude_numeric(spec, sched, k, omega, lam, rtol=rtol)
                      for sched in (first, longer))
            expected = np.sqrt(0.5 * (abs(a1) ** 2 + abs(a2) ** 2))
        else:
            kpos = channel_momenta(spec)
            k = kpos[np.argmin(np.abs(2.0 * kpos - omega))]
            expected = amplitude_bound(spec, first, k, lam)
        assert float(row["raw"]) == pytest.approx(expected, rel=1e-12, abs=0.0), cell["name"]


def test_fig1_comes_from_this_run(tmp_path):
    # a larger chain's spectrum left in the directory by an earlier run
    # must not end up in this run's figure
    for n in (64, 8):
        summary = run_experiment(ExperimentConfig.from_dict({
            "kind": "spectrum", "chain_sizes": [n], "omega_grid": [0.7],
            "output_dir": str(tmp_path),
        }))
    fig1 = (tmp_path / "fig1_excitation_spectrum.csv").read_text().splitlines()
    spectrum = (tmp_path / "spectrum_n8.csv").read_text().splitlines()
    assert fig1[0] == "g,dE_1,dE_2,dE_3,dE_4,omega"
    assert fig1 == [spectrum[0] + ",omega"] + [row + ",0.69999999999999996" for row in spectrum[1:]]
    assert not any("spectrum_n64" in f for f in summary["outputs"])


def test_dynamics_experiment_csv(tmp_path):
    config = ExperimentConfig.from_dict({
        "kind": "dynamics", "chain_sizes": [4], "total_time": 5.0, "time_points": 3,
        "output_dir": str(tmp_path),
    })
    summary = run_experiment(config)
    assert summary["all_checks_pass"]
    path = tmp_path / "dynamics_n4.csv"
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,g,k,re_u,im_u,re_v,im_v,p_k"
    assert len(rows) == 1 + 3 * 2  # header + times * positive modes

    # the values are the trajectory's, time-major, and read back exactly
    spec = ChainSpec(4)
    sched = config.schedule_for(4)
    traj = integrate_modes(spec, sched, np.linspace(0.0, 5.0, 3), rtol=config.ode_rtol)
    got = np.array([[float(x) for x in r.split(",")] for r in rows[1:]]).reshape(3, 2, 8)
    for ti in range(3):
        for ki in range(2):
            u, v = traj.u[ki, ti], traj.v[ki, ti]
            assert got[ti, ki].tolist() == [traj.t[ti], traj.g[ti], traj.k[ki], u.real, u.imag,
                                            v.real, v.imag, traj.p[ki, ti]]
    # the array path writes the bytes the per-value path writes
    written = path.read_bytes()
    write_csv(path, rows[0].split(","), [tuple(row) for row in got.reshape(-1, 8).tolist()])
    assert path.read_bytes() == written

    diag = summary["diagnostics"]["4"]
    assert diag == {"magnus_steps": traj.magnus_steps, "doublings": diag["doublings"],
                    "doubling_delta": traj.doubling_delta,
                    "max_norm_drift": traj.max_norm_drift}
    assert traj.magnus_steps == 2 ** diag["doublings"]
    assert traj.doubling_delta <= config.ode_rtol


def test_stepwise_csv_text(tmp_path):
    # integer n and step, then s and the gap of each path point as %.17g
    assert main(["stepwise", "--n", "4", "--out", str(tmp_path)]) == 0
    prof = oracle.stepwise_gap_profile(4)
    assert prof.steps.tolist() == [1, 2, 3]
    assert prof.s_values.tolist() == np.linspace(0.0, 1.0, 50).tolist()
    lines = ["n,step,s,gap"] + [f"4,{step},{s:.17g},{gap:.17g}"
                                for step, row in zip(prof.steps.tolist(), prof.gaps.tolist())
                                for s, gap in zip(prof.s_values.tolist(), row)]
    text = (tmp_path / "stepwise_gaps.csv").read_bytes().decode()
    assert text == "".join(line + "\r\n" for line in lines)
    assert text.splitlines()[1].startswith("4,1,0,")


def test_stepwise_check_compares_sizes_with_later_steps(tmp_path, monkeypatch):
    # n = 2 has only step 1, whose minimum is 4/sqrt(5); every n >= 3 reaches sqrt(2)
    assert main(["stepwise", "--n", "2", "4", "6", "8", "--out", str(tmp_path / "ok")]) == 0
    summary = json.loads((tmp_path / "ok" / "summary.json").read_text())
    assert summary["checks"]["stepwise_gap_n_independent_10pct"]
    mins = summary["stepwise_min_gaps"]
    assert mins["2"] == oracle.stepwise_gap_profile(2).min_gap
    assert abs(mins["2"] - 4.0 / np.sqrt(5.0)) < 1e-3
    assert all(abs(mins[n] - np.sqrt(2.0)) < 1e-3 for n in ("4", "6", "8"))
    # the 10% bound still holds among n >= 3: n = 6 scaled by 0.89 fails it, by 0.91 not
    exact = oracle.stepwise_gap_profile
    for scale, rc in ((0.89, 1), (0.91, 0)):
        monkeypatch.setattr("isingsweep.experiments.stepwise_gap_profile", lambda n: replace(
            exact(n), gaps=exact(n).gaps * (scale if n == 6 else 1.0)))
        out = tmp_path / str(scale)
        assert main(["stepwise", "--n", "2", "4", "6", "8", "--out", str(out)]) == rc
        checks = json.loads((out / "summary.json").read_text())["checks"]
        assert checks["stepwise_gap_n_independent_10pct"] is (rc == 0)


def test_oracle_check_experiment(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "oracle-check", "chain_sizes": [2, 4], "output_dir": str(tmp_path),
    })
    summary = run_experiment(cfg)
    assert summary["all_checks_pass"]
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    assert any(r["quantity"] == "ground_energy" for r in report)
    assert all(r["abs_error"] <= 1e-8 for r in report if r["quantity"] == "matrix_element")


def test_oracle_check_builds_parity_blocks_only(tmp_path, monkeypatch):
    # every dense matrix the check diagonalizes is a 2^(n-1) parity block,
    # never the 2^n matrix
    build, sectors = oracle.build_hamiltonian, []

    def spy(*args, **kwargs):
        bound = inspect.signature(build).bind(*args, **kwargs)
        sectors.append(bound.arguments.get("sector", "full"))
        return build(*args, **kwargs)

    monkeypatch.setattr(oracle, "build_hamiltonian", spy)
    summary = run_experiment(ExperimentConfig.from_dict({
        "kind": "oracle-check", "chain_sizes": [4], "output_dir": str(tmp_path)}))
    assert summary["all_checks_pass"]
    # five g values of the even block, and the even and odd spectrum dump
    assert sorted(sectors) == ["even"] * 6 + ["odd"]
    rows = (tmp_path / "dense_spectrum_n4.csv").read_text().splitlines()[1:]
    assert len(rows) == 16


def test_decoherence_experiment_with_suppression_scan(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "decoherence", "chain_sizes": [8], "omega_grid": [0.3, 0.9],
        "coupling": 1e-3, "total_time": 50.0, "t_scan": [30.0, 60.0],
        "output_dir": str(tmp_path),
    })
    summary = run_experiment(cfg)
    assert summary["checks"]["bound_dominates_numeric"]
    lines = (tmp_path / "amplitudes.csv").read_text().splitlines()
    assert lines[0] == "n,schedule,T,k,omega,method,re,im,abs,valid"
    assert (tmp_path / "suppression.csv").exists()
    assert (tmp_path / "suppression.csv").read_text().splitlines()[0] == "T,ln_abs_amplitude"


def test_amplitude_table_records_quadrature_counts(tmp_path):
    # per pass, as in the scaling table: the 8 channel norms and 8 crossing phases
    # with the 6 phases at a lower saddle, then the 24 amplitudes (2 sizes x 4
    # channels x 3 frequencies);
    # identical across reruns and saved in summary.json
    summaries = [run_experiment(ExperimentConfig.from_dict({
        "kind": "decoherence", "chain_sizes": [8, 16], "omega_grid": [0.3, 0.8, 2.2],
        "coupling": 1e-3, "output_dir": str(out)})) for out in (tmp_path / "a", tmp_path / "b")]
    diagnostics = summaries[0]["diagnostics"]
    assert diagnostics == summaries[1]["diagnostics"]
    assert sorted(diagnostics) == ["pass_1", "pass_2"]
    for d in diagnostics.values():
        assert sorted(d) == ["integrals", "quadrature_evaluations", "quadrature_levels",
                             "quadrature_levin_solves", "quadrature_panels"]
        assert d["quadrature_panels"] >= d["integrals"]
        assert d["quadrature_levin_solves"] <= d["quadrature_evaluations"] // 33
    assert [d["integrals"] for d in diagnostics.values()] == [22, 24]
    # the zero-phase norms and phases need no Levin solve
    assert diagnostics["pass_1"]["quadrature_levin_solves"] == 0
    # each amplitude starts as one panel, the half [1/2, 1] of its folded sweep; every
    # split evaluates two new ones of 33 nodes
    d = diagnostics["pass_2"]
    assert d["quadrature_evaluations"] == 33 * (2 * d["quadrature_panels"] - d["integrals"])
    assert d["quadrature_levin_solves"] > 0
    saved = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert saved["diagnostics"] == diagnostics


# the runs that took 10, 19 and 16 quadrature batches with a norm and an amplitude batch
# per size, a batch per saddle-point row and two per scan time
_PLAN_RUNS = {
    "two-sizes": {"chain_sizes": [8, 16], "omega_grid": [0.3, 0.8, 2.2]},
    "three-sizes": {"chain_sizes": [8, 16, 32], "omega_grid": [0.3, 0.8, 2.2]},
    "scan": {"chain_sizes": [8], "omega_grid": [0.3], "total_time": 50.0,
             "t_scan": [20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]},
}


@pytest.mark.parametrize("run", sorted(_PLAN_RUNS))
def test_amplitude_table_in_two_batches_matches_public_calls(tmp_path, monkeypatch, run):
    # one oscillatory_batch call per pass, whatever the sizes, rows and scan
    # times; every row is the value of its public call
    lam = 1e-3
    config = ExperimentConfig.from_dict({"kind": "decoherence", "coupling": lam,
                                         "output_dir": str(tmp_path), **_PLAN_RUNS[run]})
    calls = []
    inner = decoherence.oscillatory_batch

    def counting(*args, **kwargs):
        calls.append(len(args[2]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(decoherence, "oscillatory_batch", counting)
    summary = run_experiment(config)
    monkeypatch.undo()
    assert len(calls) == 2
    assert [d["integrals"] for d in summary["diagnostics"].values()] == calls
    with open(tmp_path / "amplitudes.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["method"] for r in rows} == {"numeric", "bound", "saddle-point"} - (
        {"saddle-point"} if run == "scan" else set())
    for r in rows:
        n, k, omega = int(r["n"]), float(r["k"]), float(r["omega"])
        spec, sched = ChainSpec(n), config.schedule_for(n)
        value = complex(float(r["re"]), float(r["im"]))
        if r["method"] == "numeric":
            expected = amplitude_numeric(spec, sched, k, omega, lam, rtol=config.amplitude_rtol)
            assert abs(value - expected) <= 1e-12 * abs(expected)
        elif r["method"] == "bound":
            assert value == pytest.approx(amplitude_bound(spec, sched, k, lam), rel=1e-15, abs=0)
        else:
            sp = amplitude_saddle_point(spec, sched, k, omega, lam)
            assert abs(value - sp.value) <= 1e-12 * abs(sp.value)
            assert r["valid"] == str(sp.valid)
    if config.t_scan:
        # omega = 0.3 is below the minimum gap of the lowest n = 8 channel
        spec = ChainSpec(8)
        k = channel_momenta(spec)[0]
        with open(tmp_path / "suppression.csv", newline="") as fh:
            scan = [(float(r["T"]), float(r["ln_abs_amplitude"])) for r in csv.DictReader(fh)]
        assert [T for T, _ in scan] == list(config.t_scan)
        for T, ln_abs in scan:
            a = amplitude_numeric(spec, Schedule("linear", T, spec), k, 0.3, lam)
            assert abs(ln_abs - np.log(abs(a))) <= 1e-12  # |A| to 1e-12 relative


def test_gap_adapted_amplitude_table_at_n_2048(tmp_path):
    # the saddle phases of n = 2048 converge once 1 - 2g is formed without
    # cancellation at the crossing
    assert main(["decoherence", "--n", "2048", "--schedule", "gap-adapted-2", "--omega", "3.5",
                 "--coupling", "1e-3", "--out", str(tmp_path)]) == 0


def test_decoherence_subgap_rows_use_the_exact_minimum_gap(tmp_path):
    # at n = 8, omega = 2.3 is sub-gap for 5pi/8 (minimum gap 3.326) but
    # not for 3pi/8 (minimum gap 2.222 < omega < 2k = 2.356): that channel
    # gets numeric and bound rows only, and the scan tracks 5pi/8
    cfg = ExperimentConfig.from_dict({
        "kind": "decoherence", "chain_sizes": [8], "omega_grid": [2.3],
        "coupling": 1e-3, "total_time": 100.0, "t_scan": [40.0, 80.0],
        "output_dir": str(tmp_path),
    })
    run_experiment(cfg)
    rows = [r.split(",") for r in (tmp_path / "amplitudes.csv").read_text().splitlines()[1:]]
    methods = {}
    for r in rows:
        methods.setdefault(round(float(r[3]) * 8 / np.pi), []).append(r[5])
    assert methods == {1: ["numeric", "bound", "saddle-point"], 3: ["numeric", "bound"],
                       5: ["numeric", "bound"], 7: ["numeric", "bound"]}
    spec = ChainSpec(8)
    k = channel_momenta(spec)[2]
    scan = [float(r.split(",")[1])
            for r in (tmp_path / "suppression.csv").read_text().splitlines()[1:]]
    expected = [np.log(abs(amplitude_numeric(spec, Schedule("linear", T, spec), k, 2.3,
                                             1e-3, rtol=1e-6))) for T in (40.0, 80.0)]
    assert scan == pytest.approx(expected, rel=1e-12)


def test_amplitude_table_above_the_largest_channel_gap(tmp_path):
    # saddle points exist only up to omega = 4: omega = 5 gets numeric and bound rows
    assert main(["decoherence", "--n", "8", "--omega", "5.0", "3.9", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "amplitudes.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    methods = {}
    for r in rows:
        methods.setdefault(float(r["omega"]), []).append(r["method"])
    assert methods[5.0] == ["numeric", "bound"] * 4
    assert methods[3.9].count("saddle-point") == 2  # the channels with 2k < 3.9


def test_t_scan_without_subgap_pair_fails_before_any_amplitude(tmp_path, capsys):
    # omega = 3.95 is above the minimum gap of every n = 8 channel
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"t_scan": [30, 60]}))
    out = tmp_path / "o"
    rc = main(["decoherence", "--config", str(cfg_file), "--n", "8", "--omega", "3.95",
               "--out", str(out)])
    assert rc == 2
    assert "config.t_scan:" in capsys.readouterr().err
    assert not (out / "amplitudes.csv").exists()


def test_decoherence_bath_averaged_mode(tmp_path):
    # without an omega grid the experiment integrates over the bath and
    # reports the total excitation probability per size
    cfg = ExperimentConfig.from_dict({
        "kind": "decoherence", "chain_sizes": [4, 8], "coupling": 1e-3,
        "bath_kind": "monochromatic", "bath_params": {"omega0": 0.9},
        "total_time": 40.0, "output_dir": str(tmp_path),
    })
    summary = run_experiment(cfg)
    rows = (tmp_path / "total_probability.csv").read_text().splitlines()
    assert rows[0] == "n,schedule,T,p_total,numeric_terms,bound_terms"
    assert len(rows) == 3
    assert "p_total_increases_with_n" in summary["checks"]


def test_bath_mode_diagnostics_are_deterministic(tmp_path):
    # per size: quadrature panels, evaluations, Levin solves and levels and
    # the term counts, identical across reruns and free of wall times
    summaries = []
    for out in (tmp_path / "a", tmp_path / "b"):
        summaries.append(run_experiment(ExperimentConfig.from_dict({
            "kind": "decoherence", "chain_sizes": [4, 8], "coupling": 1e-2,
            "total_time": 40.0, "output_dir": str(out),
        })))
    diagnostics = summaries[0]["diagnostics"]
    assert diagnostics == summaries[1]["diagnostics"]
    assert sorted(diagnostics) == ["4", "8"]
    for n, d in diagnostics.items():
        terms = 33 * int(n) // 2
        assert (d["numeric_terms"], d["bound_terms"]) == (terms, 0)
        # each amplitude starts as one panel; every split adds one panel
        # and evaluates two new ones of 33 nodes
        assert d["quadrature_evaluations"] == 33 * (2 * d["quadrature_panels"] - terms)
        assert 1 <= d["quadrature_levels"] <= 48
        # one Levin system per fast-oscillating panel evaluated
        assert 0 < d["quadrature_levin_solves"] <= d["quadrature_evaluations"] // 33
    saved = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert saved["diagnostics"] == diagnostics


def test_default_bath_is_cold():
    # the default ohmic support stays below the initial gap 2, so the
    # bath-averaged command without bath_params runs without the cold-bath warning
    cfg = ExperimentConfig.from_dict({"kind": "decoherence"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bath = cfg.bath()
    assert bath.params == {"omega_c": 0.5, "support_max": 1.9}


def test_bath_params_validated():
    with pytest.raises(ConfigError, match="bath_params.omega0"):
        ExperimentConfig.from_dict({"kind": "decoherence", "bath_kind": "monochromatic"})
    with pytest.raises(ConfigError, match="bath_params.omega_min"):
        ExperimentConfig.from_dict({"kind": "decoherence", "bath_kind": "flat",
                                    "bath_params": {"omega_max": 1.0}})
    with pytest.raises(ConfigError, match="config.bath_params.omega_max:"):
        ExperimentConfig.from_dict({"kind": "decoherence", "bath_kind": "flat",
                                    "bath_params": {"omega_min": 1.0, "omega_max": 0.5}})
    with pytest.raises(ConfigError, match="config.bath_params:"):
        ExperimentConfig.from_dict({"kind": "decoherence", "bath_params": "omega_c"})
    with pytest.raises(ConfigError, match="config.bath_params.suport_max: unknown parameter "
                                          "for a ohmic bath"):
        ExperimentConfig.from_dict({"kind": "decoherence",
                                    "bath_params": {"omega_c": 0.5, "suport_max": 1.9}})
    with pytest.raises(ConfigError, match="config.bath_params.omega_c: unknown parameter "
                                          "for a flat bath"):
        ExperimentConfig.from_dict({"kind": "decoherence", "bath_kind": "flat", "bath_params":
                                    {"omega_min": 0.5, "omega_max": 1.0, "omega_c": 0.5}})


@pytest.mark.parametrize("kind, params, name", [
    ("ohmic", {"omega_c": 0.5, "support_max": -1.0}, "support_max"),
    ("ohmic", {"omega_c": 0.5, "support_max": float("inf")}, "support_max"),
    ("ohmic", {"omega_c": 0.0}, "omega_c"),
    ("monochromatic", {"omega0": float("nan")}, "omega0"),
    ("flat", {"omega_min": 1.0, "omega_max": 0.5}, "omega_max"),
    ("flat", {"omega_min": 0.5, "omega_max": 1.0, "omega_c": 0.5}, "omega_c"),
])
def test_bath_check_shared_by_config_and_constructor(kind, params, name):
    # no all-zero or NaN weights and no unchecked line: the constructor names the
    # parameter, and the config says the same behind the field's path
    with pytest.raises(ValueError, match=f"^{name}: ") as direct:
        BathSpectrum(kind, params, CouplingConstant(0.01))
    with pytest.raises(ConfigError) as config:
        ExperimentConfig.from_dict({"kind": "decoherence", "bath_kind": kind,
                                    "bath_params": params})
    assert str(config.value) == f"config.bath_params.{direct.value}"


# each number-valued config field: the package entry point taking it, the name that
# entry point gives it, and a finite value out of its range
_NUMBER_INPUTS = {
    "total_time": (lambda v: Schedule("linear", v), "total_time", 0.0),
    "epsilon_adiab": (lambda v: runtime_for_adiabaticity("linear", 8, v), "epsilon_adiab", -0.25),
    "coupling": (CouplingConstant, "lam", -0.01),
    "ode_rtol": (lambda v: integrate_modes(ChainSpec(4), Schedule("linear", 1.0), [0.0, 1.0],
                                           rtol=v), "rtol", 1e-13),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True, "1", None],
                         ids=["nan", "inf", "-inf", "bool", "string", "out-of-range"])
@pytest.mark.parametrize("field", sorted(_NUMBER_INPUTS))
def test_number_check_shared_by_config_and_entry_point(field, value):
    # one rule for every number: the entry point names its parameter, and the config
    # says the same behind the field's path
    call, name, out_of_range = _NUMBER_INPUTS[field]
    value = out_of_range if value is None else value
    with pytest.raises(ValueError, match=f"^{name}: must be a finite number ") as direct:
        call(value)
    with pytest.raises(ConfigError) as config:
        ExperimentConfig.from_dict({"kind": "dynamics", field: value})
    assert str(config.value) == f"config.{field}" + str(direct.value)[len(name):]


BATH_RUNS = {"monochromatic": {"omega0": 0.9}, "ohmic": {"omega_c": 0.4, "support_max": 1.9},
             "flat": {"omega_min": 0.3, "omega_max": 1.5}}


@pytest.mark.parametrize("kind", sorted(_BATH_PARAMS))
def test_every_bath_kind_runs_from_a_config_file(tmp_path, capsys, kind):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"chain_sizes": [8], "bath_kind": kind,
                                    "bath_params": BATH_RUNS[kind]}))
    assert main(["decoherence", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 0
    assert "[PASS] no_bound_fallback" in capsys.readouterr().out
    (row,) = (tmp_path / "o" / "total_probability.csv").read_text().splitlines()[1:]
    *_, p_total, numeric, bound = row.split(",")
    nodes = 1 if kind == "monochromatic" else 33
    assert 0.0 < float(p_total) < 1.0 and (int(numeric), int(bound)) == (4 * nodes, 0)


def test_table1_preset_shape():
    cells = table1_cells()
    assert len(cells) == 6
    assert {c["column"] for c in cells} == {"saddle", "bound"}
    lookup = {c["name"]: c for c in cells}
    assert lookup["linear-saddle"]["omega_exponent"] == -1.0
    assert lookup["linear-saddle"]["n_exponent"] == 1.0
    assert lookup["adapted2-bound"]["n_exponent"] == 1.0


def test_csv_writer_17_digits(tmp_path):
    path = write_csv(tmp_path / "x.csv", ["a"], [(1 / 3,)])
    assert "0.33333333333333331" in open(path).read()


def test_cli_runs_and_reports(tmp_path, capsys):
    rc = main(["spectrum", "--n", "8", "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "summary.json" in out


def test_cli_one_parser_for_every_kind(tmp_path, capsys):
    with pytest.raises(SystemExit) as done:
        main(["stepwise", "--help"])
    assert done.value.code == 0
    assert "--config" in capsys.readouterr().out
    with pytest.raises(SystemExit) as done:
        main(["nope"])
    assert done.value.code == 2
    assert "argument kind: invalid choice: 'nope'" in capsys.readouterr().err
    # options may come before the kind
    assert main(["--out", str(tmp_path / "o"), "spectrum", "--n", "4"]) == 0
    assert (tmp_path / "o" / "spectrum_n4.csv").exists()


def test_cli_rejects_bad_config(tmp_path, capsys):
    rc = main(["spectrum", "--n", "7", "--out", str(tmp_path)])
    assert rc == 2
    assert "even integer" in capsys.readouterr().err
    # a repeated size would fail the growth check and write its files twice
    rc = main(["spectrum", "--n", "8", "8", "--out", str(tmp_path)])
    assert rc == 2
    assert "config.chain_sizes[1]: n=8 repeats" in capsys.readouterr().err


@pytest.mark.parametrize("field, values, message", [
    ("omega_grid", [0.3, 0.3], "config.omega_grid[1]: 0.3 repeats"),
    ("t_scan", [30, 30.0], "config.t_scan[1]: 30.0 repeats")], ids=["omega_grid", "t_scan"])
def test_cli_rejects_repeated_frequency_or_scan_time(tmp_path, capsys, field, values, message):
    # a repeated entry, judged after the float conversion, would write its rows twice
    entry = {"kind": "decoherence", "omega_grid": [0.3, 0.8], field: values}
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig.from_dict(entry)
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({**entry, "output_dir": str(tmp_path / "o")}))
    assert main(["decoherence", "--config", str(cfg_file)]) == 2
    assert message in capsys.readouterr().err


# lattice_spacing, seed, g_grid_points, n_omega_nodes and k_modes are no longer
# fields, so they are rejected as unknown
@pytest.mark.parametrize("field, value", [
    ("time_points", 1), ("g_grid_points", 1), ("ode_rtol", 1e-13), ("amplitude_rtol", 0.0),
    ("lattice_spacing", 0.0), ("n_omega_nodes", 0), ("k_modes", 0), ("k_modes", 2.5),
    ("epsilon_adiab", "0.25"), ("coupling", "0.01"), ("total_time", "40"),
    ("lattice_spacing", "1.0"), ("amplitude_rtol", "1e-6"), ("ode_rtol", "1e-10"),
    ("epsilon_adiab", True), ("k_modes", True), ("seed", True), ("omega_grid", ["x"]),
    ("omega_grid", "0.5"), ("t_scan", ["x"]),
    ("bath_params.omega_c", -1), ("bath_params.omega_c", "0.5"),
    ("output_dir", 5), ("output_dir", ["a"]), ("output_dir", ""),
    ("omega_grid", []), ("t_scan", []), ("schedule_kind", ["linear"]), ("bath_kind", "cold"),
])
def test_cli_rejects_bad_numeric_field(tmp_path, capsys, field, value):
    # a dotted field names one bath parameter
    name, _, param = field.partition(".")
    entry = {name: {param: value}} if param else {field: value}
    with pytest.raises(ConfigError, match=f"config.{field}:"):
        ExperimentConfig.from_dict({"kind": "dynamics", **entry})
    cfg_file = tmp_path / "c.json"
    # the output directory comes from the file, so that a bad one is not overridden
    cfg_file.write_text(json.dumps({"chain_sizes": [4], "output_dir": str(tmp_path / "o"),
                                    **entry}))
    rc = main(["spectrum", "--config", str(cfg_file)])
    assert rc == 2
    assert f"config.{field}:" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", [["8"], [8.0], "8"])
def test_cli_rejects_non_integer_chain_sizes(tmp_path, capsys, sizes):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"chain_sizes": sizes}))
    rc = main(["spectrum", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config.chain_sizes" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, '{"chain_sizes": [4]', "[4]"],
                         ids=["missing", "malformed", "not-an-object"])
def test_cli_rejects_bad_config_file(tmp_path, capsys, content):
    cfg_file = tmp_path / "c.json"
    if content is not None:
        cfg_file.write_text(content)
    rc = main(["spectrum", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"--config {cfg_file}:" in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_cli_rejects_output_dir_it_cannot_create(tmp_path, capsys, under):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    rc = main(["spectrum", "--n", "4", "--out", str(taken / "o" if under else taken)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.output_dir:") and "Traceback" not in err


def test_bath_mode_bound_fallback_fails_a_check(tmp_path, monkeypatch, capsys):
    # the phase-free bound inflates P_total, so a run that fell back to it fails
    argv = ["decoherence", "--n", "8", "--T", "30", "--coupling", "1e-2", "--out"]
    assert main(argv + [str(tmp_path / "clean")]) == 0
    clean = json.loads((tmp_path / "clean" / "summary.json").read_text())
    assert clean["checks"]["no_bound_fallback"]
    inner = decoherence.oscillatory_batch

    def one_fails(*args, **kwargs):
        outcomes = inner(*args, **kwargs)
        if len(outcomes) > 8:  # the amplitudes, not the four channel norms and crossing phases
            outcomes[5] = QuadratureError("forced")
        return outcomes

    monkeypatch.setattr(decoherence, "oscillatory_batch", one_fails)
    assert main(argv + [str(tmp_path / "fell")]) == 1
    fell = json.loads((tmp_path / "fell" / "summary.json").read_text())
    assert fell["checks"] == {"no_bound_fallback": False}
    assert fell["diagnostics"]["8"]["bound_terms"] == 1
    assert "[FAIL] no_bound_fallback" in capsys.readouterr().out
    # the growth check compares sizes in ascending n, whatever order they are given in
    monkeypatch.undo()
    # each size's total passes through decoherence.total_excitation_probability as
    # looked up at run time, where the bath benchmark replaces it to record the totals
    inner_total, recorded = decoherence.total_excitation_probability, []

    def capture(spec, *args, **kwargs):
        res = inner_total(spec, *args, **kwargs)
        recorded.append((spec.n, res.p_total))
        return res

    monkeypatch.setattr(decoherence, "total_excitation_probability", capture)
    argv = ["decoherence", "--n", "16", "8", "--bath", "ohmic", "--coupling", "1e-2", "--out"]
    assert main(argv + [str(tmp_path / "descending")]) == 0
    rows = (tmp_path / "descending" / "total_probability.csv").read_text().splitlines()[1:]
    assert recorded == [(int(n), float(p)) for n, _, _, p in (r.split(",")[:4] for r in rows)]
    assert [n for n, _ in recorded] == [16, 8] and recorded[0][1] > recorded[1][1]
    assert "[PASS] p_total_increases_with_n" in capsys.readouterr().out


def test_cli_config_file_with_overrides(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"chain_sizes": [4], "time_points": 21}))
    rc = main(["spectrum", "--config", str(cfg_file), "--n", "6",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["config"]["chain_sizes"] == [6]       # flag wins
    assert summary["config"]["time_points"] == 21        # file field kept


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_import_loads_no_scipy(tmp_path):
    # scipy serves only the dense Schroedinger reference and the tests, and
    # no run loads OpenSSL through hashlib
    probe = "\n".join([
        "import sys, isingsweep, isingsweep.cli",
        "runs = [('dynamics',), ('stepwise',), ('decoherence', '--T', '20')]",
        "rcs = [isingsweep.cli.main([kind, '--n', '4', *flags, '--out', sys.argv[1] + kind])",
        "       for kind, *flags in runs]",
        "print(rcs, sorted(m for m in sys.modules",
        "                  if m.split('.')[0] in ('scipy', 'hashlib', '_hashlib')))"])
    done = subprocess.run([sys.executable, "-c", probe, f"{tmp_path}/"], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_python_dash_m_entry_point(tmp_path):
    env = _src_env()

    def run(*args):
        return subprocess.run([sys.executable, "-m", "isingsweep", *args],
                              env=env, capture_output=True, text=True, timeout=120)

    shown = run("--help")
    assert shown.returncode == 0
    assert shown.stdout.startswith("usage: isingsweep")
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"coupling": "0.01"}))
    rejected = run("spectrum", "--config", str(cfg_file), "--out", str(tmp_path / "o"))
    assert rejected.returncode == 2  # main's status, not the interpreter's
    assert "config.coupling:" in rejected.stderr
