"""Exception hierarchy shared by all szdet modules."""


class SZDetError(Exception):
    """Base class for all library errors."""


class PoleError(SZDetError):
    """Evaluation requested exactly at a pole."""


class ZeroError(SZDetError):
    """log requested at a zero of the function; carries the vanishing order."""

    def __init__(self, message: str, order: int):
        super().__init__(message)
        self.order = order


class PrecisionError(SZDetError):
    """Requested precision unattainable at the configured series order."""


class DomainError(SZDetError):
    """Argument outside the function's domain (e.g. on a branch cut)."""


class BranchError(SZDetError):
    """A constituent of a fractional power landed on the cut (-inf, 0]."""


class SingularityError(SZDetError):
    """Evaluation point too close to a zero/pole of the assembled function."""


class SignatureError(SZDetError):
    """Signature does not describe a hyperbolic orbifold (vol <= 0, bad data)."""


class NonIntegerError(SZDetError):
    """A quantity that must be an integer evaluated too far from one."""


class ConvergenceError(SZDetError):
    """Series evaluated outside its open half-plane of convergence."""


class CutoffError(SZDetError):
    """Norm cutoff below N(3) or past the traces a geodesic source counts."""


class ProviderDomainError(SZDetError):
    """A continuation provider cannot evaluate at the requested point."""
