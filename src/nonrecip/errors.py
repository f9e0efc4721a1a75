"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument lies outside the mathematical domain of an operation."""


class DeviceValidationError(ValueError):
    """A device description violates a structural invariant."""


class DuplicatePairError(DeviceValidationError):
    """More than one pumped process declared on the same mode pair."""


class GainAboveThresholdError(DeviceValidationError):
    """Gain coupling at or beyond the parametric self-oscillation point (rho >= 1)."""


class FrustratedConjugationError(DeviceValidationError):
    """No consistent conjugation assignment exists for the coupling graph."""


class SingularMatrixError(ArithmeticError):
    """Dynamics matrix is singular: the device sits on a parametric oscillation point."""

    def __init__(self, delta):
        self.delta = delta
        super().__init__(f"dynamics matrix singular at delta={delta:g} Hz")


class EmptyBandError(RuntimeError):
    """No frequency band around zero detuning satisfies the requested criteria."""


class TopologyError(RuntimeError):
    """Device coupling topology does not match the requested operation."""


class AmbiguousMinimumError(RuntimeError):
    """Phase calibration with a coupling at rho = 0: the objective is flat in the pump phase."""
