"""Adiabatic sweeps of the transverse-field Ising chain.

Quasiparticle mode dynamics, weak-bath excitation amplitudes with
scaling analysis, sweep schedules including the step-wise spatial
path, and dense-diagonalization ground truth for all of it.
"""

from .chain import (
    ChainSpec,
    CouplingConstant,
    excitation_matrix_element,
    fundamental_gap,
    ground_energy,
    momentum_grid,
)
from .decoherence import (
    BathSpectrum,
    SaddlePointAmplitude,
    ScalingFit,
    TotalExcitationResult,
    amplitude_bound,
    amplitude_numeric,
    amplitude_saddle_point,
    scaling_fit,
    total_excitation_probability,
)
from .dynamics import (
    ModeTrajectory,
    adiabatic_overlap,
    integrate_modes,
)
from .quadrature import OscillatoryResult, QuadratureError, oscillatory_integral
from .schedules import (
    Schedule,
    StepWisePath,
    StepWiseSweep,
    runtime_for_adiabaticity,
    stepwise_hamiltonian_weights,
)

__version__ = "0.1.0"
