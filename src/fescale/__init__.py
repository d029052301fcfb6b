"""Two-scale FE2 solver: staggered and monolithic static-condensation schemes."""

from fescale.errors import (
    ConfigError,
    FescaleError,
    GeometryError,
    MeshQualityError,
    SingularMatrixError,
    StructuralError,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "FescaleError",
    "GeometryError",
    "MeshQualityError",
    "SingularMatrixError",
    "StructuralError",
]
