"""Exception types shared across the toolkit.

Every error raised deliberately by this package derives from
:class:`BeamkitError` so callers can catch one base class at the boundary.
Subclasses split along the lines a caller can act on: bad configuration,
bad input data, failed numerical procedure, or an I/O format problem.
"""

from __future__ import annotations

__all__ = [
    "BeamkitError",
    "ConfigError",
    "ConfigMismatchError",
    "ValidationError",
    "EmptySignalError",
    "GeometryError",
    "GenerationError",
    "DegenerateSteeringError",
    "SolverError",
    "WavFormatError",
    "CheckpointError",
    "ManifestSchemaError",
    "DivergenceError",
    "NonFiniteError",
]


class BeamkitError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(BeamkitError, ValueError):
    """A configuration value is missing, malformed, or out of range."""


class ConfigMismatchError(ConfigError):
    """Two configurations that must agree do not (e.g. checkpoint vs. run)."""


class ValidationError(BeamkitError, ValueError):
    """An input array or argument violates a documented precondition."""


class EmptySignalError(ValidationError):
    """A signal with zero samples (or zero energy where energy is required)."""


class GeometryError(ValidationError):
    """A room, array, or source placement is physically inconsistent."""


class GenerationError(BeamkitError, RuntimeError):
    """Randomized scene sampling exhausted its rejection budget."""


class DegenerateSteeringError(BeamkitError, RuntimeError):
    """A steering-vector estimate could not be resolved (e.g. zero matrix)."""


class SolverError(BeamkitError, RuntimeError):
    """A linear solve or iterative routine failed to produce a usable result."""


class WavFormatError(BeamkitError, ValueError):
    """A WAV file has an unsupported encoding, layout, or header."""


class CheckpointError(BeamkitError, ValueError):
    """A checkpoint file is malformed or has an unsupported version."""


class ManifestSchemaError(BeamkitError, ValueError):
    """A corpus manifest is missing fields or has an unsupported schema version."""


class NonFiniteError(BeamkitError, FloatingPointError):
    """A tensor operation produced NaN or Inf."""


class DivergenceError(BeamkitError, RuntimeError):
    """Training produced a non-finite loss.

    Attributes
    ----------
    epoch : int
        1-based epoch index at which the non-finite loss appeared.
    batch : int
        1-based batch index within that epoch, or 0 when the validation
        pass produced it.
    """

    def __init__(self, epoch: int, batch: int, message: str | None = None):
        self.epoch = epoch
        self.batch = batch
        if message is None:
            message = f"non-finite loss at epoch {epoch}, batch {batch}"
        super().__init__(message)
