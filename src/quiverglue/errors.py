"""Exception hierarchy shared by all quiverglue modules."""

from __future__ import annotations


class QuiverglueError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(QuiverglueError):
    """Matrix or block dimensions are incompatible."""


class NonIntegerEntries(QuiverglueError):
    """A matrix was given with entries that are not integers."""


class NotFiniteDimensional(QuiverglueError):
    """Path basis saturation did not terminate below the length cap."""


class MalformedRelation(QuiverglueError):
    """A relation is not an admissible equal-length path combination."""


class AlgebraMismatch(QuiverglueError):
    """Modules or morphisms over different algebras were combined."""


class UnknownVertex(QuiverglueError):
    """A vertex name is not declared in the quiver."""


class FieldTooSmall(QuiverglueError):
    """The prime modulus does not exceed the total module dimension."""


class NotTilting(QuiverglueError):
    """An operation required a verified (co)tilting module and got none."""


class NotSurjective(QuiverglueError):
    """A right approximation failed to be surjective (projectives missing)."""


class KernelNotInV(QuiverglueError):
    """A precover kernel fell outside the complementary class."""


class UniverseInconsistent(QuiverglueError):
    """Two independent subcategory computations disagree on the universe."""


class ExactnessMissing(QuiverglueError):
    """A gluing operation requires exactness certificates that do not hold."""


class NotTriangular(QuiverglueError):
    """The vertex partition admits a path from the a-side to the c-side."""


class PreconditionFailed(QuiverglueError):
    """A documented operation precondition was violated."""


class ParseError(QuiverglueError):
    """Text input is malformed; carries line information when available."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownName(QuiverglueError):
    """A referenced name (arrow, vertex, module, algebra) does not resolve."""
