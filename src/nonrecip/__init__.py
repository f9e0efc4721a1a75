"""Scattering simulator and pump tuner for three-mode parametric circuits.

Three resonant modes coupled pairwise by parametric pumps (photon gain at the
sum frequency, photon conversion at the difference frequency) realize
reconfigurable non-reciprocal networks: three conversions make a circulator
whose sense is set by the signed sum of the pump phases, two gains plus one
conversion make a phase-preserving directional amplifier.  This package
computes the frequency-dependent scattering matrix of any such pump
configuration, derives the usual figures of merit (match, isolation,
bandwidth, noise), and tunes pump parameters to the closed-form working
points of circulator or directional-amplifier objectives.
"""

from .errors import (
    AmbiguousMinimumError,
    DeviceValidationError,
    DomainError,
    DuplicatePairError,
    EmptyBandError,
    FrustratedConjugationError,
    GainAboveThresholdError,
    SingularMatrixError,
    TopologyError,
)
from .model import (
    ModeSpec,
    ProcessKind,
    PumpedCoupling,
    ValidatedDevice,
    check_pump_closure,
    total_pump_phase,
    validate_device,
    with_coupling,
    with_total_phase,
)
from .cmt import (
    SweepResult,
    build_dynamics_matrix,
    conversion_coefficient,
    directionality_threshold,
    gain_coefficient,
    rho_for_conversion,
    rho_for_gain,
    sbb_closed_form,
    scattering_at,
    sweep,
)
from .metrics import (
    CirculationSense,
    added_noise,
    amp_db,
    circulation_sense,
    circulator_bandwidth,
    gain_bandwidth_3db,
    nvr,
    role_map,
    symplectic_defect,
    to_db,
)
from .tuner import (
    Objective,
    ObjectiveKind,
    PhaseCalibration,
    TuneResult,
    calibrate_phase_offset,
    conversion_sweep,
    tune,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousMinimumError",
    "CirculationSense",
    "DeviceValidationError",
    "DomainError",
    "DuplicatePairError",
    "EmptyBandError",
    "FrustratedConjugationError",
    "GainAboveThresholdError",
    "ModeSpec",
    "Objective",
    "ObjectiveKind",
    "PhaseCalibration",
    "ProcessKind",
    "PumpedCoupling",
    "SingularMatrixError",
    "SweepResult",
    "TopologyError",
    "TuneResult",
    "ValidatedDevice",
    "added_noise",
    "amp_db",
    "build_dynamics_matrix",
    "calibrate_phase_offset",
    "check_pump_closure",
    "circulation_sense",
    "circulator_bandwidth",
    "conversion_coefficient",
    "conversion_sweep",
    "directionality_threshold",
    "gain_bandwidth_3db",
    "gain_coefficient",
    "nvr",
    "rho_for_conversion",
    "rho_for_gain",
    "role_map",
    "sbb_closed_form",
    "scattering_at",
    "sweep",
    "symplectic_defect",
    "to_db",
    "total_pump_phase",
    "tune",
    "validate_device",
    "with_coupling",
    "with_total_phase",
]
