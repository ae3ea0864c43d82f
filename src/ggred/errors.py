"""Exception hierarchy shared by all ggred modules."""


class GgredError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GgredError):
    """A point lies outside (or too close to the boundary of) a chart domain."""


class EvaluationError(GgredError):
    """A field evaluation produced non-finite output."""


class MathDomainError(EvaluationError):
    """A math function was called outside its domain: at node ``node`` of a
    batch point, or (``node`` None) on floats."""

    def __init__(self, msg: str, node: int | None = None):
        super().__init__(msg if node is None else f"{msg} at node {node}")
        self.node = node


class SingularMetricError(GgredError):
    """The metric is singular or not positive definite at the requested point."""


class DegreeError(GgredError):
    """Incompatible form degrees for an exterior-calculus operation."""


class RankError(GgredError):
    """A frame, distribution or differential does not have the expected rank."""


class LiftError(GgredError):
    """A horizontal lift is degenerate or the lifted frame is not usable."""


class TangencyError(GgredError):
    """A field that must be tangent to the zero locus is not."""


class OddDimensionError(GgredError):
    """An even number of fermionic directions is required."""


class AsymmetryError(GgredError):
    """A matrix that must be antisymmetric is not."""


class UnknownGeneratorError(GgredError):
    """A Berezin integral referenced a generator outside the algebra."""


class SingularBodyError(GgredError):
    """The numeric body of a quadratic coefficient block is not invertible."""


class FrameMismatchError(GgredError):
    """Zero-mode bases are inconsistent with the point data they accompany."""


class ReductionConditionError(GgredError):
    """The invariance condition required for reduction fails at the point."""


class ConfigError(GgredError):
    """A scenario configuration is malformed."""


class ScenarioError(GgredError):
    """Scenario setup violated one of its declared invariants."""
