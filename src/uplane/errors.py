"""Exception hierarchy for the uplane library.

Domain errors derive from UPlaneError; input/schema problems derive from
SchemaError so the CLI can map them to a distinct exit code.
"""


class UPlaneError(Exception):
    """Base class for all domain errors raised by this library."""


class SingularCurve(UPlaneError):
    """The Weierstrass curve is singular (discriminant vanishes)."""


class SingularFiber(SingularCurve):
    """The fiber of a family at the requested base point is singular."""


class DegreeMismatch(UPlaneError):
    """A polynomial degree is inconsistent with the declared family data."""


class BadNf(UPlaneError):
    """Flavor count outside {0, 1, 2, 3, 4}."""


class AgmBranchFailure(UPlaneError):
    """No AGM branch/basis candidate satisfied the modular-discriminant check."""


class ConvergenceFailure(UPlaneError):
    """A lattice/series acceleration failed to reach its tail bound."""


class OddStructure(UPlaneError):
    """Operation requires an even spin structure but (1,1) was given."""


class NotSingular(UPlaneError):
    """Fiber classification requested at a point where the discriminant is nonzero."""


class NonMinimal(UPlaneError):
    """Vanishing orders (ord g2 >= 4, ord g3 >= 6) indicate a non-minimal model."""


class IdenticallySingular(UPlaneError):
    """The discriminant vanishes identically; every fiber is singular."""


class EulerMismatch(UPlaneError):
    """Fiber Euler numbers do not sum to 12 for a rational elliptic surface."""


class StencilCrossesSingularity(UPlaneError):
    """A finite-difference stencil point fell on (or too near) a singular fiber."""


class DivisionByZero(UPlaneError):
    """Anomaly ratio undefined: scalar curvature vanishes at a non-isotrivial point."""


class LoopTooCloseToSingularity(UPlaneError):
    """Integration contour passes within tolerance of a discriminant zero."""


class NonIntegerWinding(UPlaneError):
    """Numerically integrated winding failed to converge to an integer."""


class CrossCheckFailed(UPlaneError):
    """Two independent routes to one quantity disagree beyond the tolerance.

    Carries both route values and the tolerance, so a failure reports what
    each route produced rather than only that they differ.
    """

    def __init__(self, quantity: str, value, reference, tol: float):
        self.quantity = quantity
        self.value = value
        self.reference = reference
        self.tol = tol
        super().__init__(
            f"{quantity}: {value!r} disagrees with {reference!r} (tolerance {tol:g})"
        )


class SchemaError(Exception):
    """Family file does not conform to the JSON schema (not a domain error)."""
