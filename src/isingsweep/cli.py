"""Command-line driver.

One subcommand per experiment kind; each accepts ``--config FILE`` (JSON)
with flag overrides.  Exit status is nonzero when any built-in check
fails or the configuration is invalid.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import EXPERIMENT_KINDS, ConfigError, ExperimentConfig, run_experiment


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--n", type=int, nargs="+", dest="chain_sizes", help="chain sizes")
    p.add_argument("--T", type=float, dest="total_time", help="explicit run time")
    p.add_argument("--schedule", dest="schedule_kind",
                   choices=["linear", "gap-adapted-1", "gap-adapted-2"])
    p.add_argument("--epsilon-adiab", type=float, dest="epsilon_adiab",
                   help="adiabaticity target fixing T when --T is absent")
    p.add_argument("--omega", type=float, nargs="+", dest="omega_grid", help="frequency grid")
    p.add_argument("--bath", dest="bath_kind", choices=["monochromatic", "ohmic", "flat"])
    p.add_argument("--coupling", type=float, help="bath coupling lambda")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="output_dir", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingsweep",
        description="Adiabatic sweeps of the transverse-field Ising chain: "
                    "spectra, mode dynamics, bath-induced excitation amplitudes, "
                    "scaling fits, and dense-diagonalization cross-checks.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        _add_common(p)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    base: dict = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
    base["kind"] = args.kind
    for key in ("chain_sizes", "total_time", "schedule_kind", "epsilon_adiab",
                "omega_grid", "bath_kind", "coupling", "seed", "output_dir"):
        val = getattr(args, key, None)
        if val is not None:
            base[key] = tuple(val) if isinstance(val, list) else val
    return ExperimentConfig.from_dict(base)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = run_experiment(config)
    for name, ok in summary["checks"].items():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    print(f"outputs: {len(summary['outputs'])} files in {config.output_dir}")
    print(f"summary: {config.output_dir}/summary.json")
    return 0 if summary["all_checks_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
