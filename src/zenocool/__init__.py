"""Measurement-based subspace cooling of qudit spin systems.

Repeated unitary evolution plus post-selected rank-k measurement on a
regulator qudit drives infinite-temperature targets into the equal mixture
of their k lowest local-energy eigenstates.  The package provides the exact
dense simulator, the closed-form validation oracles, open-system (local
master equation) evolution, and a deterministic sweep harness with a CLI.
"""

__version__ = "0.1.0"

from .evolution import (
    BathSpec,
    LindbladPropagator,
    dissipator,
    liouvillian,
)
from .hamiltonians import (
    BBHSpec,
    HamiltonianSpec,
    SpinStarSpec,
    SystemLayout,
    XXZSpec,
    build_bbh,
    build_spin_star,
    build_xxz,
)
from .oracles import fidelity_bbh_rank1_d3, fidelity_xx_rank1
from .protocol import (
    ExtinctionError,
    ProtocolConfig,
    TrajectoryRecord,
    ZenoSpectrum,
    delta_p,
    zeno_run,
    zeno_spectrum,
)
from .qudit import (
    DensityMatrix,
    SpinOperatorSet,
    embed_operator,
    energy_order,
    low_lying_mixture,
    partial_trace,
    spin_operators,
    tensor_product,
    thermal_state,
    uhlmann_fidelity,
)
from .sweeps import (
    ConfigError,
    SweepSpec,
    classify_regions,
    load_config,
    oracle_check,
    run_config,
    run_sweep,
    write_results,
)

__all__ = [
    "BBHSpec", "BathSpec", "ConfigError", "DensityMatrix", "ExtinctionError",
    "HamiltonianSpec", "LindbladPropagator",
    "ProtocolConfig", "SpinOperatorSet", "SpinStarSpec",
    "SweepSpec", "SystemLayout", "TrajectoryRecord", "XXZSpec", "ZenoSpectrum",
    "build_bbh", "build_spin_star", "build_xxz",
    "classify_regions", "delta_p", "dissipator", "embed_operator", "energy_order",
    "fidelity_bbh_rank1_d3", "fidelity_xx_rank1",
    "liouvillian", "load_config",
    "low_lying_mixture", "oracle_check", "partial_trace",
    "run_config", "run_sweep", "spin_operators",
    "tensor_product", "thermal_state", "uhlmann_fidelity", "write_results",
    "zeno_run", "zeno_spectrum",
]
