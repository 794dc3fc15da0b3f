"""Exception types shared across the solver."""

from __future__ import annotations

from fractions import Fraction


class QmctError(Exception):
    """Base class for all solver errors."""


class ValidationError(QmctError):
    """An instance failed structural validation and cannot be solved."""

    def __init__(self, message: str, violations: tuple = ()):
        super().__init__(message)
        self.violations = violations


class InfeasibleError(QmctError):
    """Supplies cannot be routed to demands.

    ``certificate`` carries a machine-readable proof, e.g. a deficient
    terminal subset for transportation problems or a saturated cut for
    flow problems.
    """

    def __init__(self, message: str, certificate: dict | None = None):
        super().__init__(message)
        self.certificate = certificate or {}


class HorizonLimitError(QmctError):
    """A time expansion would exceed the configured layer limit."""

    def __init__(self, message: str, requested: int, limit: int):
        super().__init__(message)
        self.requested = requested
        self.limit = limit


class InternalCheckError(QmctError):
    """An internal consistency assertion failed; indicates a solver bug."""


def too_small(horizon: int, missing: int, flow_scale: int) -> InfeasibleError:
    """The error for a horizon at which ``missing`` units at ``flow_scale`` cannot arrive."""
    deficit = Fraction(missing, flow_scale)
    return InfeasibleError(
        f"horizon {horizon} too small: {deficit} units cannot arrive in time",
        certificate={"horizon": horizon, "deficit": deficit},
    )


def layer_guard(horizon: int, max_layers: int | None) -> None:
    """Raise :class:`HorizonLimitError` for an expansion over ``max_layers`` layers,
    and :class:`ValueError` for a negative ``max_layers``, a bad argument rather
    than a limit exceeded: entry points call ``layer_guard(0, ..)`` before any work."""
    if max_layers is not None and max_layers < 0:
        raise ValueError(f"max_layers must be at least 0, got {max_layers}")
    if max_layers is not None and horizon > max_layers:
        raise HorizonLimitError(
            f"expansion with {horizon} layers exceeds the limit of {max_layers}",
            requested=horizon,
            limit=max_layers,
        )
