"""Exception types shared across the library."""


class VTVError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatchError(VTVError):
    """Operands have incompatible shapes."""


class ChannelMismatchError(VTVError):
    """A feature stack does not match the filter bank's channel count."""


class SingularSymbolError(VTVError):
    """A frequency-domain solve hit a near-zero denominator bin."""


class NonFiniteError(VTVError):
    """An iterate contains NaN or Inf, typically a sign of divergent parameters."""


class ConfigError(VTVError):
    """Invalid solver or run configuration."""
