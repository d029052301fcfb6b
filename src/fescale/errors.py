"""Exception types shared across the solver modules."""


class FescaleError(Exception):
    """Base class for all solver errors.

    Subclasses whose constructor takes other than the message define
    ``__reduce__``, so an error sent back through a worker process's pipe
    keeps its type and attributes.
    """


class StructuralError(FescaleError):
    """A matrix or vector violates a structural precondition (shape, symmetry)."""


class SingularMatrixError(FescaleError):
    """Factorization found the matrix singular to working precision.

    Attributes
    ----------
    pivot_index : int
        The first row that is numerically dependent on the rows before it.
    pivot_value : float
        That row's distance from the span of the rows before it.
    """

    def __init__(self, pivot_index, pivot_value=0.0):
        self.pivot_index = int(pivot_index)
        self.pivot_value = float(pivot_value)
        super().__init__(
            f"singular matrix: pivot {self.pivot_value:.3e} at row {self.pivot_index}"
        )

    def __reduce__(self):
        return type(self), (self.pivot_index, self.pivot_value)


class MeshQualityError(FescaleError):
    """An element has a non-positive Jacobian determinant."""

    def __init__(self, element, detj):
        self.element = int(element)
        self.detj = float(detj)
        super().__init__(f"element {element}: non-positive Jacobian det {detj:.3e}")

    def __reduce__(self):
        return type(self), (self.element, self.detj)


class GeometryError(FescaleError):
    """Periodic pairing of RVE boundary nodes failed."""


class ConfigError(FescaleError):
    """A run configuration failed validation."""
