"""Shared exception types.

Every semantic failure raises one of these rather than a bare assert, so
callers (and the CLI) can distinguish bad input from a broken invariant.
"""


class ToolkitError(Exception):
    """Base class for all package-specific errors."""


class NotPrime(ToolkitError, ValueError):
    """Field characteristic is not a prime."""


class TooLarge(ToolkitError, ValueError):
    """Requested object exceeds a documented size cap."""


class FieldMismatch(ToolkitError, ValueError):
    """Operands live in different fields."""


class ZeroElement(ToolkitError, ValueError):
    """Operation undefined for the zero element (e.g. multiplicative order)."""


class CapExceeded(ToolkitError, RuntimeError):
    """Enumeration or search blew past its element cap."""


class DegreeMismatch(ToolkitError, ValueError):
    """Permutations or matrices of different degree were combined."""


class NotTransitive(ToolkitError, ValueError):
    """Operation requires a transitive group."""


class NotSubgroup(ToolkitError, ValueError):
    """Claimed subgroup has an element outside the ambient group."""


class NotNormal(ToolkitError, ValueError):
    """Claimed normal subgroup is not normalized by the ambient group."""


class DegreeTooLarge(ToolkitError, ValueError):
    """Permutation domain beyond the documented degree cap."""


class ConstraintViolated(ToolkitError, ValueError):
    """Family constructor preconditions failed; message lists the failures."""


class ParseError(ToolkitError, ValueError):
    """Malformed group file; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
