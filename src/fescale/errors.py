"""Exception types shared across the solver modules."""


class FescaleError(Exception):
    """Base class for all solver errors.

    Subclasses whose constructor takes other than the message define
    ``__reduce__``, so an error pickled back from a worker process keeps its
    type and attributes.
    """


class StructuralError(FescaleError):
    """A matrix or vector violates a structural precondition (shape, symmetry)."""


class SingularMatrixError(FescaleError):
    """Factorization hit a pivot below tolerance.

    Attributes
    ----------
    pivot_index : int
        Row index (in the original, unpermuted numbering) of the failing pivot.
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


class MicroDivergenceError(FescaleError):
    """A micro Newton loop exhausted its iteration budget.

    The caller is expected to cut the load increment.
    """

    def __init__(self, rve_index, iterations, residual):
        self.rve_index = int(rve_index)
        self.iterations = int(iterations)
        self.residual = float(residual)
        super().__init__(
            f"micro problem {rve_index} did not converge in {iterations} iterations "
            f"(residual {residual:.3e})"
        )

    def __reduce__(self):
        return type(self), (self.rve_index, self.iterations, self.residual)


class ConfigError(FescaleError):
    """A run configuration failed validation."""
