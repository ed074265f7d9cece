"""Regenerate bench/reference.json, the stored values of the correctness gates.

usage (from the root of a checkout):  python3 bench/make_reference.py

Runs the default-seed configs of ``table1``, ``modes`` and ``stepwise``
once and stores:

- ``table1``: the 72 raw Table-1 values;
- ``modes``: the final excitation probability p_k of each of the 24 modes;
- ``stepwise``: per n, the even-sector gap at the profile's minimising
  (step, s), recomputed by a dense ``eigvalsh`` of the full even-sector
  matrix (the profile itself switches to Lanczos at n = 12).

``bath`` has no stored values on purpose; see README.md.  Regenerate
only when a change is shown to make these numbers more accurate, and
say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import workloads as W


def _run(config: dict, out: Path) -> None:
    from isingsweep import cli

    path = out / "config.json"
    path.write_text(json.dumps(dict(config, output_dir=str(out))))
    if cli.main([config["kind"], "--config", str(path)]) not in (0, 1):
        raise SystemExit(f"{config['kind']} run failed")


def _dense_profile_minima(out: Path) -> dict:
    import csv

    import numpy as np
    from isingsweep.oracle import even_sector_matrix
    from isingsweep.schedules import StepWisePath, stepwise_hamiltonian_weights

    with open(out / "stepwise_gaps.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    minima = {}
    for n in sorted({r["n"] for r in rows}, key=int):
        best = min((r for r in rows if r["n"] == n), key=lambda r: float(r["gap"]))
        h, J = stepwise_hamiltonian_weights(StepWisePath(int(n), int(best["step"]), float(best["s"])))
        w = np.linalg.eigvalsh(even_sector_matrix(int(n), h, J, periodic=False))
        minima[n] = float(w[1] - w[0])
    return minima


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    os.environ.update({"ISINGSWEEP_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1"})
    reference = {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=Path.cwd()) as tmp:
        for name, read in (("table1", W.read_table1), ("modes", W.read_modes),
                           ("stepwise", None)):
            config = W.WORKLOADS[name].config(W.DEFAULT_SEED)
            out = Path(tmp) / name
            out.mkdir()
            _run(config, out)
            if name == "modes":
                values = {k: m["p_final"] for k, m in read(out).items()}
            elif name == "stepwise":
                values = {"profile_min": _dense_profile_minima(out)}
            else:
                values = read(out)
            reference[name] = {"config": config, "values": values}
    W.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {W.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
