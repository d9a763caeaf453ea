"""Exception taxonomy shared by every module.

The CLI maps every class but ContractError onto a process exit code, so
raising the right class matters: ConfigError -> 1, DataError -> 2,
ArtifactError -> 3 and NumericError -> 4. A ContractError is a caller's
bug and has no exit code.
"""


class FiscalForgeError(Exception):
    """Base class for all package-raised errors."""


class ConfigError(FiscalForgeError):
    """Malformed CLI usage or run-config file (unknown keys, bad types)."""


class DataError(FiscalForgeError):
    """Unusable input data: missing file, malformed CSV, degenerate column."""


class ContractError(FiscalForgeError, ValueError):
    """A caller's bug: an argument out of domain, mismatched shapes, a call out of order."""


class NumericError(FiscalForgeError, ArithmeticError):
    """Non-finite value produced where a finite one is required."""


class ArtifactError(FiscalForgeError):
    """Checkpoint or other stored artifact is corrupt or incompatible."""
