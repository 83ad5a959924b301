"""Exception types shared across the package."""


class QReduceError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(QReduceError):
    """Shapes or dimensions are incompatible with the requested operation."""


class StructureError(QReduceError):
    """An operator violates a required structural identity (unitarity,
    anti-selfadjointness, anticommutation, ...)."""


class NotInImage(QReduceError):
    """A complex matrix does not satisfy the block symmetry of the
    quaternionic embedding."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"block-symmetry residual {residual:.3e}")


class NotAntiSelfAdjoint(StructureError):
    """Operator is not anti-selfadjoint within tolerance."""


class DoesNotCommute(QReduceError):
    """Two operators fail to commute within tolerance."""

    def __init__(self, residual: float, message: str = ""):
        self.residual = residual
        super().__init__(message or f"commutator residual {residual:.3e}")


class InternalInconsistency(QReduceError):
    """A structural invariant that should hold by theory failed numerically;
    usually signals a tolerance pathology in the input."""


class NotComplexInduced(QReduceError):
    """The algebra does not carry a compatible complex structure."""


class NormalizationError(QReduceError):
    """A vector or quaternion that must be normalized is not."""
