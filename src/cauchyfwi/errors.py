"""Exception hierarchy shared across the package; each class names the
category the command line reports it under, and subclasses inherit it.
There is one class per category, plus BoundsViolationError, which the line
search tells apart.  Arguments that no command can produce, such as a
non-finite speed handed to helmholtz.assemble, raise ValueError instead."""


class CauchyFwiError(Exception):
    """Base class for all package-specific failures."""

    category = "runtime"


class BoundsViolationError(CauchyFwiError):
    """An evaluated wave speed left the admissible interval; the message
    names the first offending node and its value."""


class SolverBreakdownError(CauchyFwiError):
    """Sparse factorization or triangular solve failed."""

    category = "solver"


class GeometryError(CauchyFwiError):
    """Acquisition or partition geometry that does not fit the grid or the
    data: misaligned receivers, a source on the free surface, an
    untileable or rank-deficient partition, or noise on an all-zero trace."""

    category = "geometry"


class DataFormatError(CauchyFwiError):
    """A malformed input file or an unusable export request; byte_offset,
    when given, locates the problem in the file."""

    category = "io"

    def __init__(self, message, byte_offset=None):
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


class ConfigError(CauchyFwiError):
    """Run configuration failed validation; problems lists every failure."""

    category = "config"

    def __init__(self, message, problems=None):
        self.problems = list(problems) if problems else []
        if self.problems:
            message = message + "\n" + "\n".join("  - " + p for p in self.problems)
        super().__init__(message)
