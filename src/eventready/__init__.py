"""Exact few-photon linear-optics simulator for event-ready entangled pairs.

Four diagonal photons interfere pairwise at polarizing beamsplitters; the
two inner outputs undergo a 45-degree-oriented fusion with polarization-
resolved detection, heralding a Bell pair on the outer arms.  The package
simulates the full bosonic state exactly, models partial wavepacket
overlap with temporal bins, and reproduces the interference, correlation,
and CHSH observables of the scheme.
"""

from ._version import __version__
from .analysis import (
    BELL_STATES,
    ChshReport,
    analyzer_probabilities,
    chsh_S,
    concurrence,
    correlation_E,
    fidelity,
    fit_delay_fringe,
    fit_sinusoid,
    group_herald_outcomes,
    heralded_polarization_dm,
    joint_visibility,
    outcome_distribution,
    sample_counts,
    visibility,
)
from .circuit import Circuit, check_unitarity, compile_circuit, run
from .config import ConfigError, ExperimentConfig, parse_config, schema_json
from .distinguishability import (
    OverlapModel,
    bins_for_reference_overlap,
    overlap_from_delay,
)
from .elements import (
    beamsplitter,
    bin_mixer,
    compose,
    delay,
    hwp,
    pbs,
    phase_shift,
    polarizer,
    rpbs,
)
from .fock import (
    FockError,
    ModeTransform,
    PhotonSpec,
    PureState,
    apply_mode_unitary,
    basis_state,
    inner_product,
    partial_trace_to_polarization,
    prepare_product_state,
    superpose,
    vacuum,
)
from .modes import H, V, ModeId, ModeRegistry
from .presets import (
    PRESET_NAMES,
    PresetResult,
    build_preset_config,
    evaluate_config,
    run_preset,
    scan,
)

__all__ = [
    "__version__",
    "BELL_STATES",
    "ChshReport",
    "Circuit",
    "ConfigError",
    "ExperimentConfig",
    "FockError",
    "H",
    "ModeId",
    "ModeRegistry",
    "ModeTransform",
    "OverlapModel",
    "PRESET_NAMES",
    "PhotonSpec",
    "PresetResult",
    "PureState",
    "V",
    "analyzer_probabilities",
    "apply_mode_unitary",
    "basis_state",
    "beamsplitter",
    "bin_mixer",
    "bins_for_reference_overlap",
    "build_preset_config",
    "check_unitarity",
    "chsh_S",
    "compile_circuit",
    "compose",
    "concurrence",
    "correlation_E",
    "delay",
    "evaluate_config",
    "fidelity",
    "fit_delay_fringe",
    "fit_sinusoid",
    "group_herald_outcomes",
    "heralded_polarization_dm",
    "hwp",
    "inner_product",
    "joint_visibility",
    "outcome_distribution",
    "overlap_from_delay",
    "parse_config",
    "partial_trace_to_polarization",
    "pbs",
    "phase_shift",
    "polarizer",
    "prepare_product_state",
    "rpbs",
    "run",
    "run_preset",
    "sample_counts",
    "scan",
    "schema_json",
    "superpose",
    "vacuum",
    "visibility",
]
