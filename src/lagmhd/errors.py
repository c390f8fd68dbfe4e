"""Shared exception types."""


class PressureDivergenceError(RuntimeError):
    """Pressure fixed point expands instead of contracting (deformation too large)."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = list(residuals) if residuals is not None else []


class NotConvergedError(RuntimeError):
    """Iteration hit its cap before reaching the requested tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NonTransversalError(RuntimeError):
    """A b0-trajectory failed to traverse the support slab (field not transversal)."""


class ConstructionFailedError(RuntimeError):
    """Initial-map construction preconditions violated."""


class ConfigError(ValueError):
    """Bad run configuration; carries a line number when parsed from text."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CheckpointFormatError(RuntimeError):
    """Checkpoint file is malformed, truncated, or of an unknown version."""


class OracleQuadratureError(RuntimeError):
    """Continuous-wavevector quadrature failed; carries the offending region."""

    def __init__(self, message, region=None):
        super().__init__(message)
        self.region = region


class InitialDataError(ValueError):
    """Initial data violates a run precondition (volume constraint, smallness)."""
