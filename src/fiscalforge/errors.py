"""Exception taxonomy shared by every module.

Each class that has a process exit code declares it, with the label the
CLI prints before the message on stderr: ConfigError -> 1 (usage
error), DataError -> 2 (data error), ArtifactError -> 3 (artifact
error) and NumericError -> 4 (numeric failure). A ContractError is a
caller's bug and has no exit code, so raising the right class matters.
"""


class FiscalForgeError(Exception):
    """Base class for all package-raised errors."""

    exit_code = label = None


class ConfigError(FiscalForgeError):
    """Malformed CLI usage or run-config file (unknown keys, bad types)."""

    exit_code, label = 1, "usage error"


class DataError(FiscalForgeError):
    """Unusable input data: missing file, malformed CSV, degenerate column."""

    exit_code, label = 2, "data error"


class ContractError(FiscalForgeError, ValueError):
    """A caller's bug: an argument out of domain, mismatched shapes, a call out of order."""


class NumericError(FiscalForgeError, ArithmeticError):
    """Non-finite value produced where a finite one is required."""

    exit_code, label = 4, "numeric failure"


class ArtifactError(FiscalForgeError):
    """A stored artifact is corrupt or incompatible, or an output cannot be written."""

    exit_code, label = 3, "artifact error"
