"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 5a (the
sub-gap decay constant) is implemented exactly as specified and fails:
the asserted slope -(ka)^2/2 is a coarse order-of-magnitude constant,
while the true decay rate of the response integral is smaller by about
pi/4 (see the sharp-rate diagnostic below and notes in the repository
root README about the suppression scan).
"""

import time

import numpy as np

from isingsweep.chain import ChainSpec, CouplingConstant, mode_alpha, mode_beta, mode_epsilon
from isingsweep.decoherence import (
    BathSpectrum,
    accumulated_phase,
    amplitude_bound,
    amplitude_numeric,
    scaling_fit,
    total_excitation_probability,
)
from isingsweep.dynamics import adiabatic_overlap, integrate_modes
from isingsweep.experiments import ExperimentConfig, run_experiment, run_table1
from isingsweep.oracle import (
    CompositeBosonPath,
    embed_sector_vector,
    schrodinger_evolve,
    stepwise_gap_profile,
    uniform_hamiltonian,
    uniform_min_even_gap,
    uniform_path,
)
from isingsweep.schedules import LinearSchedule, make_schedule, runtime_for_adiabaticity


def _report(label: str, ok: bool, detail: str = "") -> bool:
    print(f"[{label}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_1_oracle_equivalence(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig.from_dict({
        "kind": "oracle-check", "chain_sizes": [2, 4, 8, 10],
        "output_dir": str(tmp_path),
    })
    summary = run_experiment(cfg)
    elapsed = time.time() - t0
    ok = summary["all_checks_pass"] and elapsed < 120.0
    assert _report(
        "criterion 1: fermionic vs dense oracle",
        ok,
        f"checks={summary['checks']} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_normalization_suite():
    # (a) norm conservation under integration
    spec = ChainSpec(6)
    rtol = 1e-10
    traj = integrate_modes(spec, LinearSchedule(40.0), np.linspace(0, 40.0, 9), rtol=rtol)
    ok_norm = traj.max_norm_drift <= 10 * rtol
    # (b) epsilon^2 = alpha^2 + beta^2 to 1e-12 relative
    rng = np.random.default_rng(0)
    ok_identity = True
    for _ in range(200):
        ka = rng.uniform(-np.pi, np.pi)
        g = rng.uniform(0.0, 1.0)
        e2 = mode_epsilon(ka, g) ** 2
        ok_identity &= abs(e2 - mode_alpha(ka, g) ** 2 - mode_beta(ka, g) ** 2) <= 1e-12 * e2
    # (c) minimum of epsilon over g at g = 1/2 with value 2|sin(ka/2)|;
    # scan a grid containing the critical point (the quadratic minimum
    # is flat below ~1e-8 in double precision, so only a grid with a
    # node at 1/2 can pin the location to 1e-9)
    ok_min = True
    g_grid = np.linspace(0.0, 1.0, 10001)
    for ka in (np.pi / 8, 3 * np.pi / 8, 7 * np.pi / 8):
        located = g_grid[np.argmin(mode_epsilon(ka, g_grid))]
        ok_min &= abs(located - 0.5) <= 1e-9
        ok_min &= abs(mode_epsilon(ka, 0.5) - 2 * abs(np.sin(ka / 2))) <= 1e-12
        h = 1e-6  # strict local minimum on both sides
        ok_min &= mode_epsilon(ka, 0.5 - h) > mode_epsilon(ka, 0.5) < mode_epsilon(ka, 0.5 + h)
    assert _report(
        "criterion 2: normalization and consistency",
        ok_norm and ok_identity and ok_min,
        f"drift={traj.max_norm_drift:.2e}",
    )


def test_criterion_3_decoherence_oracle():
    # single-boson composite evolution at n=4, lambda=1e-3, across the
    # saddle-point (omega > 2ka = 1.571) and sub-gap regimes
    t0 = time.time()
    n, lam, g_f = 4, 1e-3, 0.95
    spec = ChainSpec(n)
    k = np.pi / 4

    def dense_amplitude(omega0, T):
        sched = LinearSchedule(T)
        w0, V0 = np.linalg.eigh(uniform_hamiltonian(n, 0.0, sector="even").matrix)
        gs0 = embed_sector_vector(V0[:, 0], n, "even")
        path = CompositeBosonPath(uniform_path(n, sched), omega0, lam, n_quanta=2)
        psi0 = path.boson_state(gs0.astype(complex), occupancy=1)
        psi = schrodinger_evolve(path, psi0, g_f * T, rtol=1e-11)
        wf, Vf = np.linalg.eigh(uniform_hamiltonian(n, g_f, sector="even").matrix)
        target = wf[0] + 2 * mode_epsilon(k, g_f)
        s_idx = int(np.argmin(np.abs(wf - target)))
        s_full = embed_sector_vector(Vf[:, s_idx], n, "even")
        return abs(path.project(psi, s_full.astype(complex), occupancy=0))

    ok = True
    details = []
    for omega0, T in [(2.2, 60.0), (2.6, 40.0), (0.9, 60.0), (1.8, 80.0)]:
        a_dense = dense_amplitude(omega0, T)
        a_resp = abs(amplitude_numeric(spec, LinearSchedule(T), k, omega0, lam,
                                       g_upper=g_f))
        rel = abs(a_dense - a_resp) / a_resp
        ok &= rel <= 0.05
        details.append(f"(w={omega0},T={T}): {rel:.3%}")
    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    assert _report("criterion 3: single-boson oracle vs response amplitude", ok,
                   "; ".join(details) + f" elapsed={elapsed:.1f}s")


def test_criterion_4_table1_exponents(tmp_path):
    t0 = time.time()
    files, fits, checks, _ = run_table1(tmp_path, lam=1e-3, eps_adiab=0.25, rtol=1e-6)
    elapsed = time.time() - t0
    ok = all(checks.values()) and elapsed < 1800.0
    lines = [f"{k}: {v['exponent']:+.3f} (expect {v['expected']:+.2f})"
             for k, v in sorted(fits.items())]
    assert _report("criterion 4: six-cell scaling table", ok,
                   "; ".join(lines) + f" elapsed={elapsed:.0f}s")


def test_criterion_5a_subgap_decay_constant():
    # Literal criterion: ln|amplitude| vs T has slope -(ka)^2/2 within
    # 15% over a 4x range of T in the sub-gap regime.  The measured
    # decay constant of the faithfully evaluated integral is smaller;
    # see test_suppression_sharp_rate_diagnostic for the constant it
    # does follow, and the decisions ledger for the analysis.
    spec = ChainSpec(8)
    k = np.pi / 8
    omega = 0.1  # far below 2|ka| = 0.785
    lam = 1e-3
    Ts = np.array([30.0, 60.0, 90.0, 120.0])
    vals = [abs(amplitude_numeric(spec, LinearSchedule(T), k, omega, lam, rtol=1e-8))
            for T in Ts]
    slope = np.polyfit(Ts, np.log(vals), 1)[0]
    target = -(k * k) / 2.0
    rel = abs(slope - target) / abs(target)
    assert _report(
        "criterion 5a: sub-gap slope -(ka)^2/2 within 15%",
        rel <= 0.15,
        f"measured={slope:+.5f} target={target:+.5f} deviation={rel:.1%} "
        f"(sharp complex-saddle rate for these parameters is -0.05104; "
        f"the -(ka)^2/2 constant is a coarse order estimate)",
    )


def test_suppression_sharp_rate_diagnostic():
    # Companion to criterion 5a: after subtracting the T-independent
    # end-of-sweep boundary term, the decay constant matches the
    # complex-saddle rate  (s^2/c) asin(c y*/s) - omega y*/4  with
    # y* = sqrt(s^2 - omega^2/16)/c, the same rate that governs the
    # Landau-Zener decay of the closed-sweep excitation probability.
    spec = ChainSpec(8)
    k = np.pi / 8
    omega, lam = 0.1, 1e-3
    s, c = np.sin(k / 2), np.cos(k / 2)
    y_star = np.sqrt(s * s - (omega / 4.0) ** 2) / c
    kappa = (s * s / c) * np.arcsin(c * y_star / s) - omega * y_star / 4.0

    def subtracted(T):
        sched = LinearSchedule(float(T))
        a = amplitude_numeric(spec, sched, k, omega, lam, rtol=1e-8)
        phi1 = accumulated_phase(spec, sched, k, omega, 1.0)
        m1 = 4j * np.sin(k) / mode_epsilon(k, 1.0)
        dphi_t = -omega + 2 * mode_epsilon(k, 1.0)
        boundary = -1j * lam * m1 * np.exp(1j * phi1) / (1j * dphi_t)
        return abs(a - boundary)

    Ts = np.array([60.0, 80.0, 100.0, 120.0, 140.0])
    slope = np.polyfit(Ts, np.log([subtracted(T) for T in Ts]), 1)[0]
    ratio = slope / (-kappa)
    assert _report("suppression diagnostic: sharp complex-saddle rate", 0.80 <= ratio <= 1.05,
                   f"measured={slope:+.5f} sharp={-kappa:+.5f} ratio={ratio:.3f}")


def test_criterion_5b_negative_frequency_suppression():
    spec = ChainSpec(8)
    k = np.pi / 8
    lam = 1e-3
    sched = LinearSchedule(120.0)
    a_neg = abs(amplitude_numeric(spec, sched, k, -0.3, lam))
    bound = amplitude_bound(spec, sched, k, lam)
    assert _report("criterion 5b: negative-frequency amplitudes 10x below the bound",
                   a_neg * 10.0 <= bound, f"|A(-0.3)|={a_neg:.3e} bound={bound:.3e}")


def test_criterion_6_growth_with_system_size():
    t0 = time.time()
    bath = BathSpectrum.ohmic(0.5, CouplingConstant(0.01), support_max=1.9)
    ok = True
    details = []
    for kind in ("linear", "gap-adapted-1", "gap-adapted-2"):
        values = []
        for n in (8, 16, 32, 64):
            spec = ChainSpec(n)
            T = runtime_for_adiabaticity(kind, n, 0.25)
            sched = make_schedule(kind, T, spec)
            res = total_excitation_probability(spec, sched, bath, n_omega=21, rtol=1e-5)
            values.append(res.p_total)
        increasing = all(b > a for a, b in zip(values, values[1:]))
        ok &= increasing
        details.append(f"{kind}: {'<'.join(f'{v:.2e}' for v in values)}")
    assert _report("criterion 6: total excitation probability grows with n", ok,
                   "; ".join(details) + f" elapsed={time.time() - t0:.0f}s")


def test_criterion_7_stepwise_gap(tmp_path):
    t0 = time.time()
    sizes = (4, 6, 8, 10, 12)
    mins = np.array([stepwise_gap_profile(n).min_gap for n in sizes])
    spread = (mins.max() - mins.min()) / mins.max()
    uniform = np.array([uniform_min_even_gap(n) for n in sizes])
    fit = scaling_fit(np.array(sizes, dtype=float), uniform)
    elapsed = time.time() - t0
    ok = spread <= 0.10 and abs(fit.exponent + 1.0) <= 0.15 and elapsed < 300.0
    assert _report(
        "criterion 7: step-wise gap is size independent, uniform gap is 1/n",
        ok,
        f"stepwise min gaps={np.round(mins, 6).tolist()} spread={spread:.2%} "
        f"uniform exponent={fit.exponent:+.3f} elapsed={elapsed:.0f}s",
    )


def test_criterion_8_adiabatic_solution_agreement():
    ok = True
    details = []
    for kind in ("linear", "gap-adapted-2"):
        spec = ChainSpec(4)
        T = runtime_for_adiabaticity(kind, 4, 1e-3)
        sched = make_schedule(kind, T, spec)
        traj = integrate_modes(spec, sched, np.linspace(0.0, T, 5), rtol=1e-10)
        ov = adiabatic_overlap(traj)[:, -1]
        ok &= np.all(ov >= 1 - 1e-4)
        details.append(f"{kind}: min overlap deficit={np.max(1 - ov):.2e}")
    assert _report("criterion 8: closed-form vs integrated pair overlap", ok,
                   "; ".join(details))
