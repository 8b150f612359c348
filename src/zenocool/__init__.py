"""Measurement-based subspace cooling of qudit spin systems.

Repeated unitary evolution plus post-selected rank-k measurement on a
regulator qudit drives infinite-temperature targets into the equal mixture
of their k lowest local-energy eigenstates.  The package provides the exact
simulator on the total-Sz sectors, open-system (local master equation)
evolution, a deterministic sweep harness with a CLI, and in `oracles` the
closed-form fidelities and dense reference routines it is checked against.
"""

__version__ = "0.1.0"

from .evolution import BathSpec, LindbladPropagator
from .hamiltonians import (
    BBHSpec,
    HamiltonianSpec,
    SpinStarSpec,
    SystemLayout,
    XXZSpec,
)
from .oracles import (
    dissipator,
    embed_operator,
    fidelity_bbh_rank1_d3,
    fidelity_xx_rank1,
    liouvillian,
    oracle_check,
    partial_trace,
    uhlmann_fidelity,
)
from .protocol import (
    ExtinctionError,
    ProtocolConfig,
    TrajectoryRecord,
    ZenoSpectrum,
    zeno_run,
    zeno_spectrum,
)
from .qudit import (
    DensityMatrix,
    SpinOperatorSet,
    energy_order,
    low_lying_mixture,
    spin_operators,
    thermal_state,
)
from .sweeps import (
    ConfigError,
    SweepSpec,
    classify_regions,
    load_config,
    run_sweep,
    write_results,
)

__all__ = [
    "BBHSpec", "BathSpec", "ConfigError", "DensityMatrix", "ExtinctionError",
    "HamiltonianSpec", "LindbladPropagator",
    "ProtocolConfig", "SpinOperatorSet", "SpinStarSpec",
    "SweepSpec", "SystemLayout", "TrajectoryRecord", "XXZSpec", "ZenoSpectrum",
    "classify_regions", "dissipator", "embed_operator", "energy_order",
    "fidelity_bbh_rank1_d3", "fidelity_xx_rank1",
    "liouvillian", "load_config",
    "low_lying_mixture", "oracle_check", "partial_trace",
    "run_sweep", "spin_operators",
    "thermal_state", "uhlmann_fidelity", "write_results",
    "zeno_run", "zeno_spectrum",
]
