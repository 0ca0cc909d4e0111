"""Exception types shared across the package."""


class MatchtopError(Exception):
    """Base class for all errors raised by this package."""


class LoopEdgeError(MatchtopError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(MatchtopError):
    """The same unordered vertex pair appears twice."""


class VertexOutOfRangeError(MatchtopError):
    """An edge endpoint is outside [0, vertex_count)."""


class InvalidParameterError(MatchtopError):
    """A named-family constructor was called with a bad parameter."""


class NotAMatchingError(MatchtopError):
    """A set of edge indices contains two incident edges."""


class TooLargeError(MatchtopError):
    """Input exceeds the exact-canonicalization size cap."""


class FormatError(MatchtopError):
    """Malformed graph6 or edge-list input.

    ``line`` is the 1-based offending line for edge-list text, or None.
    """

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class VoidComplexError(MatchtopError):
    """A complex was given no facets.  Every complex has the empty face, so
    there is no void complex; the facet list ``[()]`` gives {∅}."""


class FaceNotInComplexError(MatchtopError):
    """The given vertex set is not a face of the complex."""


class BadSubsetError(MatchtopError):
    """The given labels are not a subset of the complex's vertex labels."""


class GuardExceededError(MatchtopError):
    """A search budget exceeds the runtime guard and --force was not given."""
