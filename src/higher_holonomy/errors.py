"""Exception types shared across the package."""


class HolonomyError(Exception):
    """Base class for all package errors; `report`, when set, is the check
    report behind the failure."""

    def __init__(self, message="", report=None):
        super().__init__(message)
        self.report = report


class NumericalError(HolonomyError):
    """Non-finite values, singular matrices, or integrator blowup."""


class DomainError(HolonomyError):
    """Evaluation outside the valid parameter or spatial domain."""


class CompositionError(HolonomyError):
    """Endpoints or boundary paths do not match within tolerance, or a
    crossed module fails the axioms its composition laws rest on."""


class TargetMatchingError(CompositionError):
    """A 2-morphism value (g, h, g') misses t(h) g = g' beyond its matching
    tolerance; for a transported bigon the integration is too coarse or the
    pair is invalid."""


class MembershipError(HolonomyError):
    """A matrix fails its group or algebra membership test; `form` names the
    connection form ("A" or "B") whose values left their algebra, if any."""

    def __init__(self, message, form=None):
        super().__init__(message)
        self.form = form


class FakeCurvatureError(HolonomyError):
    """Connection pair violates dA + [A wedge A] = t_* B beyond tolerance."""


class ExpressionError(HolonomyError):
    """Malformed scalar field expression."""


class ConfigError(HolonomyError):
    """Invalid CLI configuration; carries a JSON-pointer-style location."""

    def __init__(self, message, pointer=""):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer
