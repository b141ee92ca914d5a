"""Exception hierarchy shared across the package; each class names the
category the command line reports it under, and subclasses inherit it."""


class CauchyFwiError(Exception):
    """Base class for all package-specific failures."""

    category = "runtime"


class InvalidPartitionError(CauchyFwiError):
    """Partition request cannot be honored on the given grid."""

    category = "geometry"


class BoundsViolationError(CauchyFwiError):
    """An evaluated wave speed left the admissible interval.

    Carries the flat index and value of the first offending node so the
    caller (typically a line search) can report or reject the trial model.
    """

    def __init__(self, message, node=None, value=None):
        super().__init__(message)
        self.node = node
        self.value = value


class RankDeficiencyError(CauchyFwiError):
    """A subdomain has too few non-collinear nodes for an affine fit."""

    def __init__(self, message, subdomain=None):
        super().__init__(message)
        self.subdomain = subdomain


class AssemblyError(CauchyFwiError):
    """Operator assembly rejected its inputs."""

    category = "solver"


class SolverBreakdownError(CauchyFwiError):
    """Sparse factorization or triangular solve failed."""

    category = "solver"


class InvalidSourceError(CauchyFwiError):
    """Point source snapped to a node on the pressure-free surface."""

    category = "geometry"


class AlignmentError(CauchyFwiError):
    """Receiver surface or sample layer does not coincide with grid nodes."""

    category = "geometry"


class GeometryError(CauchyFwiError):
    """Inconsistent acquisition geometry (receiver/source mismatch)."""

    category = "geometry"


class UndefinedSnrError(CauchyFwiError):
    """Noise injection requested on an all-zero trace."""

    category = "geometry"


class DataFormatError(CauchyFwiError):
    """Cauchy data file is malformed; byte_offset locates the problem."""

    category = "io"

    def __init__(self, message, byte_offset=None):
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


class ModelFormatError(CauchyFwiError):
    """Model or partition file is malformed."""

    category = "io"


class ConfigError(CauchyFwiError):
    """Run configuration failed validation; problems lists every failure."""

    category = "config"

    def __init__(self, message, problems=None):
        self.problems = list(problems) if problems else []
        if self.problems:
            message = message + "\n" + "\n".join("  - " + p for p in self.problems)
        super().__init__(message)


class ExportError(CauchyFwiError):
    """Unsupported export format or non-exportable field."""

    category = "io"
