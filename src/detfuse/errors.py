"""Exception hierarchy shared across the package.

The CLI maps each class onto one exit code: ParseError to 2, ContractError
to 4 (an OSError is 3).
"""


class DetfuseError(Exception):
    """Base class for all package-specific errors."""


class ParseError(DetfuseError, ValueError):
    """A file (detection records, annotations, manifest, PPM) failed to parse."""


class ContractError(DetfuseError, ValueError):
    """An input violated a documented precondition (e.g. mixed image ids)."""
