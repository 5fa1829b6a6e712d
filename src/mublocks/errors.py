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


class DenominatorNearZero(ArithmeticError):
    """A denominator came within the hard floor of zero; the evaluation point
    is essentially on the singular set.  Only the numeric reference routes
    of the test oracles raise it; the package keeps it for their callers."""


class InfeasibleConstraint(ValueError):
    """A linear/affine constraint set is empty.  Only the numeric affine
    min-norm of the test oracles raises it; mu's closed forms report an
    empty constraint set as status Infeasible instead."""


class UnknownSuite(KeyError):
    """Requested verification suite name is not in the registry."""
