import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isingsweep.cli import main
from isingsweep.experiments import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    emit_figure_data,
    run_experiment,
    table1_cells,
    write_csv,
)


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="config.kind"):
        ExperimentConfig.from_dict({"kind": "nope"})
    with pytest.raises(ConfigError, match=r"config.chain_sizes\[0\]"):
        ExperimentConfig.from_dict({"kind": "spectrum", "chain_sizes": [7]})
    with pytest.raises(ConfigError, match="config.total_time"):
        ExperimentConfig.from_dict({"kind": "spectrum", "total_time": -5.0})
    with pytest.raises(ConfigError, match="lambda"):
        ExperimentConfig.from_dict({"kind": "spectrum", "coupling": 0.0})
    with pytest.raises(ConfigError, match="unknown field"):
        ExperimentConfig.from_dict({"kind": "spectrum", "bogus": 1})
    with pytest.raises(ConfigError, match="dense cap"):
        ExperimentConfig.from_dict({"kind": "oracle-check", "chain_sizes": [16]})


def test_config_round_trip_lossless():
    cfg = ExperimentConfig.from_dict({
        "kind": "decoherence", "chain_sizes": [8], "omega_grid": [0.5, 1.0],
        "bath_params": {"omega_c": 0.4}, "seed": 3,
    })
    clone = ExperimentConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    assert config_hash(clone) == config_hash(cfg)


def test_spectrum_experiment_and_fig1(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "spectrum", "chain_sizes": [8, 16], "g_grid_points": 51,
        "output_dir": str(tmp_path),
    })
    summary = run_experiment(cfg)
    assert summary["all_checks_pass"]
    assert (tmp_path / "spectrum_n16.csv").exists()
    assert (tmp_path / "fig1_excitation_spectrum.csv").exists()
    header = (tmp_path / "fig1_excitation_spectrum.csv").read_text().splitlines()[0]
    assert header.split(",")[-1] == "omega"
    saved = json.loads((tmp_path / "summary.json").read_text())
    assert saved["inputs_hash"] == config_hash(cfg)


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        run_experiment(ExperimentConfig.from_dict({
            "kind": "spectrum", "chain_sizes": [8], "g_grid_points": 21,
            "output_dir": str(out),
        }))
    assert (out1 / "spectrum_n8.csv").read_bytes() == (out2 / "spectrum_n8.csv").read_bytes()
    assert (out1 / "fig1_excitation_spectrum.csv").read_bytes() == \
        (out2 / "fig1_excitation_spectrum.csv").read_bytes()


def test_oracle_check_experiment(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "oracle-check", "chain_sizes": [2, 4], "output_dir": str(tmp_path),
    })
    summary = run_experiment(cfg)
    assert summary["all_checks_pass"]
    report = json.loads((tmp_path / "oracle_report.json").read_text())
    assert any(r["quantity"] == "ground_energy" for r in report)
    assert all(r["abs_error"] <= 1e-8 for r in report if r["quantity"] == "matrix_element")


def test_decoherence_experiment_with_suppression_scan(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "decoherence", "chain_sizes": [8], "omega_grid": [0.3, 0.9],
        "coupling": 1e-3, "total_time": 50.0, "t_scan": [30.0, 60.0],
        "output_dir": str(tmp_path), "k_modes": 2,
    })
    summary = run_experiment(cfg)
    assert summary["checks"]["bound_dominates_numeric"]
    lines = (tmp_path / "amplitudes.csv").read_text().splitlines()
    assert lines[0] == "n,schedule,T,k,omega,method,re,im,abs,valid"
    assert (tmp_path / "suppression.csv").exists()
    rows = (tmp_path / "suppression.csv").read_text().splitlines()[1:]
    # predicted slope column is the constant -(ka)^2/2 for the first sub-gap channel
    ka = np.pi / 8
    for row in rows:
        assert float(row.split(",")[-1]) == pytest.approx(-(ka**2) / 2)


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


def test_emit_figure_data_missing_upstream(tmp_path):
    with pytest.raises(FileNotFoundError, match="spectrum"):
        emit_figure_data("fig1", tmp_path)
    with pytest.raises(FileNotFoundError, match="scaling"):
        emit_figure_data("table1", tmp_path)
    with pytest.raises(ValueError, match="figure kind"):
        emit_figure_data("fig7", tmp_path)


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


def test_parallel_map_worker_pool(monkeypatch):
    from isingsweep.experiments import parallel_map

    serial = parallel_map(abs, [-1, 2, -3])
    monkeypatch.setenv("ISINGSWEEP_WORKERS", "2")
    assert parallel_map(abs, [-1, 2, -3]) == serial == [1, 2, 3]
    for bad in ("two", "0", "-3", "1.5", ""):
        monkeypatch.setenv("ISINGSWEEP_WORKERS", bad)
        with pytest.raises(ValueError, match=f"ISINGSWEEP_WORKERS.*{bad!r}"):
            parallel_map(abs, [-1, 2, -3])


def test_worker_pool_bitwise_deterministic(monkeypatch):
    # real scaling-cell workload: pooled execution must reproduce the
    # serial results exactly, in order
    from isingsweep.experiments import _t1_point, parallel_map, table1_cells

    cell = next(c for c in table1_cells() if c["name"] == "adapted2-bound")
    tasks = [(cell, "n", v, 1e-3, 0.25, 1e-6, 1.0) for v in (8, 16, 32)]
    serial = parallel_map(_t1_point, tasks)
    monkeypatch.setenv("ISINGSWEEP_WORKERS", "2")
    pooled = parallel_map(_t1_point, tasks)
    assert pooled == serial


def test_cli_runs_and_reports(tmp_path, capsys):
    rc = main(["spectrum", "--n", "8", "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "summary.json" in out


def test_cli_rejects_bad_config(tmp_path, capsys):
    rc = main(["spectrum", "--n", "7", "--out", str(tmp_path)])
    assert rc == 2
    assert "even integer" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("time_points", 1), ("g_grid_points", 1), ("ode_rtol", 1e-13), ("amplitude_rtol", 0.0),
    ("lattice_spacing", 0.0), ("n_omega_nodes", 0), ("k_modes", 0), ("k_modes", 2.5),
    ("epsilon_adiab", "0.25"), ("coupling", "0.01"), ("total_time", "40"),
    ("lattice_spacing", "1.0"), ("amplitude_rtol", "1e-6"), ("ode_rtol", "1e-10"),
    ("epsilon_adiab", True), ("k_modes", True), ("seed", True), ("omega_grid", ["x"]),
    ("omega_grid", "0.5"), ("t_scan", ["x"]),
    ("bath_params.omega_c", -1), ("bath_params.omega_c", "0.5"),
])
def test_cli_rejects_bad_numeric_field(tmp_path, capsys, field, value):
    # a dotted field names one bath parameter
    name, _, param = field.partition(".")
    entry = {name: {param: value}} if param else {field: value}
    with pytest.raises(ConfigError, match=f"config.{field}:"):
        ExperimentConfig.from_dict({"kind": "dynamics", **entry})
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"chain_sizes": [4], **entry}))
    rc = main(["spectrum", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"config.{field}:" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", [["8"], [8.0], "8"])
def test_cli_rejects_non_integer_chain_sizes(tmp_path, capsys, sizes):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"chain_sizes": sizes}))
    rc = main(["spectrum", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config.chain_sizes" in capsys.readouterr().err


def test_cli_config_file_with_overrides(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"chain_sizes": [4], "g_grid_points": 21}))
    rc = main(["spectrum", "--config", str(cfg_file), "--n", "6",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["config"]["chain_sizes"] == [6]       # flag wins
    assert summary["config"]["g_grid_points"] == 21      # file field kept


def test_python_dash_m_entry_point(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

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
