"""Exception types raised by the public operations."""


class SmraError(Exception):
    """Base class for all package errors."""


class ValidationFailure(SmraError):
    """Bad inputs, shapes, or configuration. CLI maps these to exit code 1."""


class RuntimeFailure(SmraError):
    """Numerical breakdown at run time. CLI maps these to exit code 2."""


# -- numerics -----------------------------------------------------------------

class NonFiniteProbe(RuntimeFailure):
    """Loss evaluated to NaN/Inf at a finite-difference probe point."""


class NonFiniteActivation(RuntimeFailure):
    """A forward pass produced NaN/Inf activations."""


class CorruptArtifact(ValidationFailure):
    """A stored tensor file is malformed: bad magic, unsupported version,
    truncated header or payload, or trailing bytes."""


# -- toyvae -------------------------------------------------------------------

class BadFrameCount(ValidationFailure):
    """Video frame count is not congruent to 1 mod 4."""


class BadResolution(ValidationFailure):
    """Height/width not divisible by the spatial packing factor."""


class BadChannelCount(ValidationFailure):
    """Latent channel count inconsistent with the packing factors."""


class WindowTooLarge(ValidationFailure):
    """Sliding-window size exceeds the latent frame count."""


# -- dit ----------------------------------------------------------------------

class EmptyPrompt(ValidationFailure):
    pass


class ShapeError(ValidationFailure):
    pass


# -- lora ---------------------------------------------------------------------

class BadRole(ValidationFailure):
    pass


class BadLayerType(ValidationFailure):
    pass


class IncompatibleSets(ValidationFailure):
    """Adapter sets built for different model configurations."""


# -- flowmatch / mora ---------------------------------------------------------

class BadMask(ValidationFailure):
    """Mask contains values other than 0 and 1."""


class TooFewFrames(ValidationFailure):
    pass


# -- sura ---------------------------------------------------------------------

class TokenCountMismatch(ValidationFailure):
    pass


# -- data ---------------------------------------------------------------------

class BadSpec(ValidationFailure):
    """Generator spec places the object outside the frame or is malformed."""


# -- eval / pipeline ----------------------------------------------------------

class EmptyEvalSet(ValidationFailure):
    pass


class MissingMask(ValidationFailure):
    pass


class TrainingDiverged(RuntimeFailure):
    """Training loss became non-finite."""


# -- cli ----------------------------------------------------------------------

class BadConfig(ValidationFailure):
    """Unknown keys or invalid values in a CLI config document."""
