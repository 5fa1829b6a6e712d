"""Error types shared across the package.

Every raise carries enough context in the message to reproduce the call.
"""


class PreconditionViolation(ValueError):
    """An argument violates a documented precondition (bad shape, out of range)."""


class FormulaMismatch(ArithmeticError):
    """Two routes that must agree to round-off produced different values."""


class CriteriaDisagree(ArithmeticError):
    """Two membership criteria that are provably equivalent classified a point
    differently, with both margins outside the guard band.  Indicates a bug,
    not a borderline input."""


class OptimizerNoConverge(RuntimeError):
    """A numeric search exhausted its budget without meeting its tolerance."""


class UnknownSuite(KeyError):
    """Requested verification suite name is not in the registry."""
