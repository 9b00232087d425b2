"""Exception types shared across the package."""


class PeerKDError(Exception):
    """Base class for all package errors."""


class ShapeError(PeerKDError, ValueError):
    """Tensor dimensions do not satisfy an operation's contract."""


class ConfigError(PeerKDError, ValueError):
    """Invalid run configuration, arch spec, or hyperparameter."""


class DataError(PeerKDError, ValueError):
    """Invalid dataset content (e.g. label out of range)."""


class FormatError(PeerKDError, ValueError):
    """Malformed on-disk file (IDX, checkpoint). Message names the byte offset."""


class ContractError(PeerKDError, ValueError):
    """Caller violated a documented value-range contract."""


class UsageError(PeerKDError, RuntimeError):
    """API misuse (e.g. backward from a non-scalar)."""


class NonFiniteError(PeerKDError, ArithmeticError):
    """A loss or recorded metric became NaN or infinite."""
