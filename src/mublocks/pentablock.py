"""The pentablock: image of the open 2x2 operator ball under
A -> (a21, tr A, det A), written (a, s, p).

For (s, p) in the open symmetrized bidisc with roots (l1, l2), membership is

    |a|  <  |1 - conj(l2) l1| / 2 + sqrt((1 - |l1|^2)(1 - |l2|^2)) / 2,

the critical radius of Agler-Lykova-Young.  This root form is the only rule
penta_classify evaluates, next to the bidisc kernel bidisc._g2_margin for
(s, p).  So the domain is the Hartogs domain over the bidisc with fibre
radius _penta_radius, built by verdict.fibred_domain as the hexablock is:
its margin is min(bidisc margin, radius - |a|).  penta_classify runs the
record's cell, penta_sup and _penta_dual read its base kernel, and mublocks
slice runs that once per row where its inner axis is a.  The equivalent
supremum form

    sup_{|z|<1} |a (1 - |z|^2) / (1 - s z + p z^2)| < 1

is linear in |a|, and its value is |a| divided by the critical radius, which
is how penta_sup evaluates it.  The same source also states the radius
without roots, through beta = (s - conj(s) p) / (1 - |p|^2); _penta_dual
holds the root form against it and returns the classifier's margin to
penta_dual_check and the suites' pentablock legs, never to a classifier.
The numeric supremum (grid, radial scans, Nelder-Mead) is kept as a test
oracle.  The closure test used here is the non-strict root form together
with (s, p) in the closed bidisc domain -- the source material characterizes
only the open domain, so the closure rule is a convention validated by
sampling images of closed-ball matrices.

Distinguished boundary: (s, p) on the bidisc distinguished boundary and
|a|^2 + |s|^2/4 = 1.
"""

from __future__ import annotations

import math

from .bidisc import _NAMES as _G2_NAMES, _bgamma, _g2_margin, _g2_roots
from .errors import CriteriaDisagree, PreconditionViolation
from .optimize import nelder_mead  # unused here; perfbench/tracing.py wraps it
from .verdict import (BAND_FACTOR, DEFAULT_TOL, MembershipVerdict, _fibre_slack,
                      checked_point, checked_tol, classify_point, fibred_domain)

_NAMES = ("a", "s", "p")
_DUAL_FLOOR = 1e-7   # least tol of penta_dual_check's guard band, against round-off


def penta_radius(s: complex, p: complex) -> float:
    """The critical |a|: |1 - conj(l2) l1|/2 + sqrt((1-|l1|^2)(1-|l2|^2))/2.

    Meaningful for (s, p) in the closed bidisc domain (both root moduli <= 1);
    callers guard that.  The product under the root is clamped at 0 against
    round-off on the boundary.
    """
    return _penta_radius(*checked_point((s, p), _G2_NAMES))


def _penta_radius(s: complex, p: complex) -> float:
    l1, l2 = _g2_roots(s, p)
    t1 = abs(1.0 - l2.conjugate() * l1) / 2.0
    g = (1.0 - abs(l1) ** 2) * (1.0 - abs(l2) ** 2)
    return t1 + math.sqrt(max(g, 0.0)) / 2.0


def penta_sup(pt) -> float:
    """sup over the open unit disc of |a (1 - |z|^2) / (1 - s z + p z^2)|.

    Closed form: the supremum is linear in |a| and equals
    |a| / penta_radius(s, p) -- exactly 0 when a = 0, and inf where the
    critical radius vanishes (both roots at one point of the circle).
    """
    a, s, p = checked_point(pt, _NAMES)
    radius = _DOMAIN.base((s, p), DEFAULT_TOL)[1]
    if radius is None:
        raise PreconditionViolation(
            f"(s, p) must lie in the closed bidisc domain, got ({s!r}, {p!r})")
    if a == 0:
        return 0.0
    return abs(a) / radius if radius > 0.0 else math.inf


def _beta_sup(a: complex, s: complex, p: complex) -> float:
    """|a| / K(s, p) with the critical radius in its root-free form

        K = |1 - s conj(beta) / (2 (1 + sqrt(1 - |beta|^2)))|,
        beta = (s - conj(s) p) / (1 - |p|^2).

    It needs |p| < 1, which the open bidisc guarantees.  The value under the
    root is clamped at 0 against round-off, as in penta_radius."""
    beta = (s - s.conjugate() * p) / (1.0 - abs(p) ** 2)
    root = math.sqrt(max(1.0 - abs(beta) ** 2, 0.0))
    return abs(a) / abs(1.0 - 0.5 * s * beta.conjugate() / (1.0 + root))


def penta_dual_check(pt, tol: float = DEFAULT_TOL) -> float | None:
    """Hold the critical-radius rule against the beta closed form at pt.

    Runs only where both routes carry information: (s, p) interior to the
    bidisc and the critical-radius slack outside the guard band
    BAND_FACTOR * max(tol, _DUAL_FLOOR).  Returns the beta form's supremum
    |a| / K when the check ran, None when the guard skipped it, and raises
    CriteriaDisagree when the routes put pt on opposite sides of the boundary.
    """
    return _penta_dual(checked_point(pt, _NAMES), checked_tol(tol))[1]


def _penta_dual(x: tuple, tol: float) -> tuple[float, float | None]:
    """(penta_classify's margin, penta_dual_check's answer) at checked x."""
    a, s, p = x
    g2_margin, radius = _DOMAIN.base((s, p), tol)
    if radius is None:
        return g2_margin, None
    slack = _fibre_slack(a, radius)
    margin = min(g2_margin, slack)
    if (not g2_margin > tol or abs(slack) <= BAND_FACTOR * max(tol, _DUAL_FLOOR)
            or slack == -math.inf):
        return margin, None
    sup = _beta_sup(a, s, p)
    if (sup < 1.0) != (slack > 0.0):
        raise CriteriaDisagree(
            f"pentablock dual routes disagree at {x!r}: "
            f"critical-radius slack {slack!r} vs beta-form sup {sup!r}")
    return margin, sup


def penta_classify(pt, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Three-state verdict for the pentablock by the critical-radius rule;
    the supremum form is penta_dual_check's cross-check."""
    return classify_point(_DOMAIN, checked_point(pt, _NAMES), tol)


def bp_test(pt, tol: float = DEFAULT_TOL) -> bool:
    """Distinguished-boundary test: (s, p) on the bidisc distinguished
    boundary and |a|^2 + |s|^2/4 = 1."""
    return _bp(*checked_point(pt, _NAMES), checked_tol(tol))


def _bp(a: complex, s: complex, p: complex, tol: float) -> bool:
    return _bgamma(s, p, tol) and abs(abs(a) ** 2 + abs(s) ** 2 / 4.0 - 1.0) <= tol


_DOMAIN = fibred_domain(_NAMES, _g2_margin, _penta_radius, _bp)
