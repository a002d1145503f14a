"""pulseguard: qubit memory under fast-signal control, plus shortcut-to-adiabaticity sweeps.

Simulates a two-level system coupled to an Ornstein-Uhlenbeck bath under
frequency-modulating control signals (regular, jittered, chaotic, and shot-noise
pulse trains), via an exact convolutionless kernel and a second-order
master-equation bound, and solves the finite-time avoided-crossing passage
through an equivalent Volterra equation for the adiabatic amplitude.
"""

__version__ = "0.1.0"

from .numerics import NumericOverflowError, TimeGrid, volterra_solve
from .bath import BathSpec
from .ensemble import ensemble_mean
from .signals import (
    ChaoticSpec,
    JitterSpec,
    PulseTrainSpec,
    SampledSignal,
    ShotNoiseSpec,
    SignalFamily,
    effective_frequency,
    sample_family,
    substream,
)
from .qsd import (
    DEFAULT_STATES,
    FidelityCurve,
    KernelCurve,
    qsd_fidelity,
    solve_kernel_quadrature,
    solve_kernel_riccati,
)
from .me2 import accumulated_phase, me2_fidelity
from .adiabatic import (
    Psi0Curve,
    SweepSpec,
    solve_psi0,
    tdse_oracle,
)
from .runner import (
    ConfigError,
    ExperimentConfig,
    ResultTable,
    emit_csv,
    emit_plot,
    load_config,
    read_embedded_config,
    run_experiment,
)

__all__ = [
    "__version__",
    "NumericOverflowError",
    "TimeGrid",
    "volterra_solve",
    "BathSpec",
    "ensemble_mean",
    "ChaoticSpec",
    "JitterSpec",
    "PulseTrainSpec",
    "SampledSignal",
    "ShotNoiseSpec",
    "SignalFamily",
    "effective_frequency",
    "sample_family",
    "substream",
    "DEFAULT_STATES",
    "FidelityCurve",
    "KernelCurve",
    "qsd_fidelity",
    "solve_kernel_quadrature",
    "solve_kernel_riccati",
    "accumulated_phase",
    "me2_fidelity",
    "Psi0Curve",
    "SweepSpec",
    "solve_psi0",
    "tdse_oracle",
    "ConfigError",
    "ExperimentConfig",
    "ResultTable",
    "emit_csv",
    "emit_plot",
    "load_config",
    "read_embedded_config",
    "run_experiment",
]
