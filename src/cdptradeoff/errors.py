"""Exception types shared across the package."""


class CdpError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(CdpError, ValueError):
    """Objects over incompatible alphabets (or of wrong shape) were combined."""


class InvalidDistributionError(CdpError, ValueError):
    """A mass function or stochastic matrix violates its invariants."""


class InvalidMixtureError(CdpError, ValueError):
    """Two mixtures cannot be blended: mismatched priors or alphabets."""


class SizeError(CdpError, ValueError):
    """A lattice-oracle search would examine more kernels than its cap allows."""


class ConfigError(CdpError, ValueError):
    """A run configuration is malformed; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
