"""The symmetrized bidisc: image of the open bidisc under (z, w) -> (z+w, zw).

Points are pairs (s, p) = (sum, product).  Two independent interior criteria
are known:

    (A)  |s - conj(s) p| < 1 - |p|^2
    (B)  2 |s - conj(s) p| + |s^2 - 4 p| < 4 - |s|^2

and the closure is the non-strict version.  g2_classify evaluates (A) only,
through the kernel _g2_margin, which the pentablock and F also call for
their bidisc leg; _g2_dual holds that margin against (B) and returns it to
g2_dual_check and the suites' bidisc legs, never to a classifier.  (A) alone
does not close up correctly on |p| = 1 (it degenerates to the line
s = conj(s) p, which admits arbitrarily large |s|), so the reported margin
carries the extra leg 2 - |s|:

    margin = min((1 - |p|^2) - |s - conj(s) p|, 2 - |s|).

For |p| < 1 the first term already forces |s| <= 1 + |p| < 2 when nonnegative,
so the second leg only bites on the torus |p| = 1 -- exactly where it must.

The distinguished (Shilov) boundary is the set |p| = 1, s = conj(s) p,
|s| <= 2; equivalently the closure points with |p| = 1.
"""

from __future__ import annotations

from .errors import PreconditionViolation
from .matrix2 import _quadratic_roots
from .verdict import (DEFAULT_TOL, Domain, MembershipVerdict, checked_point, classify_point,
                      guarded_margin, margin_cell, raise_if_split)

_NAMES = ("s", "p")
_PARAM_TOL = 1e-12   # slack of bgamma_point's |p| = 1 and |beta| <= 1 preconditions


def _slack_b(s: complex, p: complex) -> float:
    return (4.0 - abs(s) ** 2) - (2.0 * abs(s - s.conjugate() * p) + abs(s * s - 4.0 * p))


def _g2_margin(s: complex, p: complex) -> float:
    """Criterion (A) slack capped by 2 - |s|: g2_classify's margin."""
    return min((1.0 - abs(p) ** 2) - abs(s - s.conjugate() * p), 2.0 - abs(s))


def g2_classify(pt, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Three-state verdict; margin = criterion (A) slack capped by 2 - |s|."""
    return classify_point(_DOMAIN, checked_point(pt, _NAMES), tol)


def g2_dual_check(pt, tol: float = DEFAULT_TOL) -> None:
    """Hold the g2_classify margin against criterion (B) at pt; raises
    CriteriaDisagree when they differ in sign outside the guard band."""
    _g2_dual(checked_point(pt, _NAMES), tol)


def _g2_dual(x: tuple, tol: float) -> float:
    """g2_dual_check on checked coordinates; returns g2_classify's margin."""
    margin = guarded_margin(_g2_margin, *x)
    raise_if_split("bidisc criteria", x, margin, guarded_margin(_slack_b, *x), tol)
    return margin


def g2_roots(pt) -> tuple[complex, complex]:
    """The two roots of t^2 - s t + p, ordered lexicographically by (Re, Im),
    computed without cancellation (matrix2._quadratic_roots): the smaller
    keeps the relative precision of the larger however far apart they are."""
    return _g2_roots(*checked_point(pt, _NAMES))


def _g2_roots(s: complex, p: complex) -> tuple[complex, complex]:
    l1, l2 = _quadratic_roots(1.0, -s, p)
    if (l1.real, l1.imag) > (l2.real, l2.imag):
        l1, l2 = l2, l1
    return l1, l2


def bgamma_test(pt, tol: float = DEFAULT_TOL) -> bool:
    """Distinguished-boundary test: |p| = 1, s = conj(s) p, |s| <= 2."""
    return _bgamma(*checked_point(pt, _NAMES), tol)


def _bgamma(s: complex, p: complex, tol: float) -> bool:
    return (abs(abs(p) - 1.0) <= tol
            and abs(s - s.conjugate() * p) <= tol
            and abs(s) <= 2.0 + tol)


_DOMAIN = Domain(_NAMES, margin_cell(_g2_margin), _bgamma)


def bgamma_point(beta: complex, p: complex) -> tuple[complex, complex]:
    """Parametrize the distinguished boundary: (beta + conj(beta) p, p), |p| = 1.

    Needs |beta| <= 1; used by samplers and tests.
    """
    beta = complex(beta)
    p = complex(p)
    if not abs(abs(p) - 1.0) <= _PARAM_TOL:
        raise PreconditionViolation(f"|p| must be 1, got {abs(p)!r}")
    if not abs(beta) <= 1.0 + _PARAM_TOL:
        raise PreconditionViolation(f"|beta| must be <= 1, got {abs(beta)!r}")
    return (beta + beta.conjugate() * p, p)


def g2_point(z: complex, w: complex) -> tuple[complex, complex]:
    """Symmetrization map: (z, w) -> (z + w, z w)."""
    z = complex(z)
    w = complex(w)
    return (z + w, z * w)
