"""The tetrablock: image of the 2x2 operator ball under A -> (a11, a22, det A).

Two interior criteria are known:

    (A)  |x1|^2 + |x2 - conj(x1) x3| + |x1 x2 - x3|  <  1
    (B)  1 - |x1|^2 - |x2|^2 + |x3|^2  >  2 |x1 x2 - x3|  and  |x3| < 1,
         with the extra leg |x1| + |x2| < 2 when x1 x2 = x3.

The |x3| < 1 leg of (B) matters: the quadratic inequality alone flips back to
positive far outside the domain (already at (0, 0, 2), since the left side
grows like |x3|^2).  With it, the x1 x2 = x3 proviso is actually redundant
(the spurious branch |x1|, |x2| > 1 forces |x3| > 1) but is kept as stated.

(A) strict characterizes the open domain exactly; its non-strict form does NOT
characterize the closure (e.g. (1, 5, 5) satisfies it with |x3| = 5).  But x is
in the closed tetrablock iff (x1, x2, x3, 0) is in the closed image domain of
(a11, a22, det, a12 + a21), whose three legs at s = 0 are 1 - |x1 x2 - x3|^2,
1 - |x3| and the Gram determinant Q(x1, x2, x3, 0).  tetra_classify reports
min((A)-slack, legs), sign-faithful in all three regions, via the kernel
_tetra_margin, which the hexablock also calls: one pass, bitwise the composed
min(_slack_a, _closure_margin).  _tetra_dual holds those, (A) against (B) and
the legs, and returns that margin, for the suites' legs too.

Distinguished boundary: x1 = conj(x2) x3, |x3| = 1, |x2| <= 1 -- the triples
(u11, u22, det U) of 2x2 unitaries.
"""

from __future__ import annotations

from .errors import PreconditionViolation
from .matrix2 import Matrix2, gram_det_from_coords
from .verdict import (DEFAULT_TOL, MembershipVerdict, checked_point, checked_tol,
                      classify_point, guarded_margin, margin_domain, raise_if_split)

_EQ_TOL = 1e-12     # x1 x2 = x3 band of criterion (B)'s extra leg
_PARAM_TOL = 1e-12  # slack of be_point's |x3| = 1 and |x2| <= 1 preconditions
_NAMES = ("x1", "x2", "x3")


def pi_tetra(a: Matrix2) -> tuple[complex, complex, complex]:
    return (a.a11, a.a22, a.det)


def _slack_a(x1: complex, x2: complex, x3: complex) -> float:
    return 1.0 - (abs(x1) ** 2 + abs(x2 - x1.conjugate() * x3) + abs(x1 * x2 - x3))


def _closure_margin(x1: complex, x2: complex, x3: complex) -> float:
    """min of the three four-coordinate legs at (x1, x2, x3, 0)."""
    return min(1.0 - abs(x1 * x2 - x3) ** 2, 1.0 - abs(x3),
               gram_det_from_coords(x1, x2, x3, 0j))


def _slack_b(x1: complex, x2: complex, x3: complex) -> float:
    gap = abs(x1 * x2 - x3)
    cb = min((1.0 - abs(x1) ** 2 - abs(x2) ** 2 + abs(x3) ** 2) - 2.0 * gap, 1.0 - abs(x3))
    return min(cb, 2.0 - abs(x1) - abs(x2)) if gap <= _EQ_TOL else cb


def tetra_margins(x1: complex, x2: complex, x3: complex) -> tuple[float, float]:
    """Signed slacks of criteria (A) and (B), each -inf past the floats."""
    return guarded_margin(_slack_a, x1, x2, x3), guarded_margin(_slack_b, x1, x2, x3)


def _tetra_margin(x1: complex, x2: complex, x3: complex) -> float:
    """min of the (A)-slack and the closure legs: tetra_classify's margin, in
    one pass; bitwise min(_slack_a, _closure_margin), squares and NaNs alike."""
    w = x1 * x2 - x3
    n1, aw, a3 = abs(x1) ** 2, abs(w), abs(x3)
    gram = 1.0 - abs(x2) ** 2 - n1 + a3 ** 2 - abs(4.0 * w) / 2.0   # Q(x1, x2, x3, 0)
    return min(1.0 - (n1 + abs(x2 - x1.conjugate() * x3) + aw),
               min(1.0 - aw ** 2, 1.0 - a3, gram))


def tetra_classify(pt, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Three-state verdict; margin = min of the (A)-slack and the closure legs."""
    return classify_point(_DOMAIN, checked_point(pt, _NAMES), tol)


def tetra_dual_check(pt, tol: float = DEFAULT_TOL) -> None:
    """Hold the (A)-slack against (B) and against the closure legs at pt;
    raises CriteriaDisagree when either pair splits outside the guard band."""
    _tetra_dual(checked_point(pt, _NAMES), checked_tol(tol))


def _tetra_dual(x: tuple, tol: float) -> float:
    """tetra_dual_check on checked coordinates; returns tetra_classify's margin."""
    ca, cb = tetra_margins(*x)
    closure = guarded_margin(_closure_margin, *x)
    raise_if_split("tetrablock criteria", x, ca, cb, tol)
    raise_if_split("tetrablock interior test and closure legs", x, ca, closure, tol)
    return min(ca, closure)


def be_test(pt, tol: float = DEFAULT_TOL) -> bool:
    """Distinguished-boundary test: x1 = conj(x2) x3, |x3| = 1, |x2| <= 1."""
    return _be(*checked_point(pt, _NAMES), checked_tol(tol))


def _be(x1: complex, x2: complex, x3: complex, tol: float) -> bool:
    return (abs(x1 - x2.conjugate() * x3) <= tol
            and abs(abs(x3) - 1.0) <= tol
            and abs(x2) <= 1.0 + tol)


_DOMAIN = margin_domain(_NAMES, _tetra_margin, _be)


def be_point(x2: complex, x3: complex) -> tuple[complex, complex, complex]:
    """Parametrize the distinguished boundary by (x2, x3), |x2| <= 1, |x3| = 1."""
    x2 = complex(x2)
    x3 = complex(x3)
    if not abs(abs(x3) - 1.0) <= _PARAM_TOL:
        raise PreconditionViolation(f"|x3| must be 1, got {abs(x3)!r}")
    if not abs(x2) <= 1.0 + _PARAM_TOL:
        raise PreconditionViolation(f"|x2| must be <= 1, got {abs(x2)!r}")
    return (x2.conjugate() * x3, x2, x3)
