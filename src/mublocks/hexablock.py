"""The hexablock: a Hartogs-type domain in C x (tetrablock) defined by

    sup_{z1, z2 in D} | a sqrt((1-|z1|^2)(1-|z2|^2)) / (1 - x1 z1 - x2 z2 + x3 z1 z2) | < 1,

together with the "normed" variant: the image of the open 2x2 operator ball
under A -> (a21, a11, a22, det A).

The supremum has a closed form.  Writing alpha(z1) = 1 - x1 z1 and
beta(z1) = x2 - x3 z1, the inner supremum over z2 of (1-|z2|^2)/|alpha -
beta z2|^2 equals 1/(|alpha|^2 - |beta|^2) (maximize the phase, then the
radius r2 = |beta|/|alpha|).  The outer problem over z1 reduces on rays to

    maximize g(r) = (1 - r^2) / (c - 2 m r + d r^2),
    c = 1 - |x2|^2,  d = |x1|^2 - |x3|^2,  m = |x1 - conj(x2) x3|,

whose critical equation m r^2 - (c+d) r + m = 0 has one root r* in [0, 1).
There g = r* / (m - d r*) = 2 / den, so r* is never formed:

    sup = |a| sqrt(2 / den),   den = (c - d) + sqrt((c + d)^2 - 4 m^2).

Interior x gives c - d > 2 |x1 x2 - x3| >= 0, so den > 0.  H is the Hartogs
domain over the tetrablock with fibre radius R = sqrt(den / 2), 0 where den
<= 0 at or past its boundary, built by verdict.fibred_domain from
_tetra_margin and _fibre_radius: margin min(t, R - |a|), t the tetrablock
margin.  R is continuous on the closed tetrablock, so over a base on its
boundary the closure's fibre is the disc |a| <= R; R is 0 at (1, 0, 0) and 1
at (0, 0, 1).  R >= t, so the margin at a = 0 is t (0 where rounding puts t
a few ulps above R = 0).  psi_sup reads the record's base kernel: |a| / R.
The test oracles keep the product-grid psi_sup_grid, the critical-radius
psi_sup_critical_radius and the k form psi_sup_closed_reference.

The normed variant hn is the image of the open operator ball.  For a != 0,
B = [[x1, t], [a, x2]] with t = (x1 x2 - x3)/a is the unique matrix over the
point, so its margin is 1 - sigma1(B), from matrix2's singular-value kernel
(-inf where t is not finite).  At a = 0 the matrices over the point are
[[x1, t], [0, x2]] with x3 = x1 x2 (within _EQ_TOL, else -inf), of least
norm max(|x1|, |x2|) at t = 0, so the margin is 1 - max(|x1|, |x2|).  hn
has a Domain record like every classifier: its cell is margin_code of that
margin, except that the a = 0 sheet, which has empty interior, never reads
Interior; its Shilov kernel is |x3| = 1 on the closure boundary.
"""

from __future__ import annotations

import cmath
import math

from .errors import PreconditionViolation
from .matrix2 import Matrix2, _singular_values
from .optimize import nelder_mead  # unused here; perfbench/tracing.py wraps it
from .tetrablock import _tetra_margin, tetra_classify  # tetra_classify: perfbench reads it
from .verdict import (DEFAULT_TOL, Domain, MembershipVerdict, checked_point, checked_tol,
                      classify_point, fibred_domain, margin_code)

_EQ_TOL = 1e-12  # exact-equality band for x3 = x1 x2 in the a = 0 slice
_NAMES = ("a", "x1", "x2", "x3")


def pi_hexa(b: Matrix2) -> tuple[complex, complex, complex, complex]:
    """Coordinate projection (b21, b11, b22, det B)."""
    return (b.a21, b.a11, b.a22, b.det)


def psi_sup(pt) -> float:
    """Supremum of |psi| over the open bidisc, in closed form: |a| / R.

    Exactly 0 when a = 0; exactly |a| at x = 0; linear in |a| throughout.
    """
    a, x1, x2, x3 = checked_point(pt, _NAMES)
    t_margin, radius = _DOMAIN.base((x1, x2, x3), DEFAULT_TOL)
    if margin_code(t_margin, DEFAULT_TOL):
        raise PreconditionViolation(
            f"(x1, x2, x3) must be interior in the tetrablock, got {pt!r}")
    return abs(a) / radius


def _fibre_radius(x1: complex, x2: complex, x3: complex) -> float:
    """R = sqrt(den / 2), the fibre radius over x; 0 where den <= 0."""
    c, d = 1.0 - abs(x2) ** 2, abs(x1) ** 2 - abs(x3) ** 2
    m = abs(x1 - x2.conjugate() * x3)
    den = (c - d) + math.sqrt(max((c + d) ** 2 - 4.0 * m * m, 0.0))
    return math.sqrt(den / 2.0) if den > 0.0 else 0.0


def hexa_classify(pt, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Three-state verdict for the hexablock.

    Margin: min(tetrablock margin, R - |a|), the tetrablock margin alone
    below -tol; over a base within tol of the tetrablock boundary, R is its
    closed form there (module docstring).
    """
    return classify_point(_DOMAIN, checked_point(pt, _NAMES), tol)


def hn_classify(pt, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Three-state verdict for the normed variant; margin 1 - the least norm
    of a matrix over the point (module docstring).  A point of the a = 0
    sheet reads ClosureBoundary even where its margin is above tol, so the
    image of the open ball is {margin > tol} and its interior is_interior."""
    return classify_point(_HN_DOMAIN, checked_point(pt, _NAMES), tol)


def _hn_margin(a: complex, x1: complex, x2: complex, x3: complex) -> float:
    """1 - the least norm of a matrix over the point, -inf where there is none."""
    if a == 0:
        return 1.0 - max(abs(x1), abs(x2)) if abs(x3 - x1 * x2) <= _EQ_TOL else -math.inf
    t = (x1 * x2 - x3) / a
    return 1.0 - _singular_values(x1, t, a, x2)[0] if cmath.isfinite(t) else -math.inf


def _hn_cell(x: tuple, tol: float) -> tuple[int, float]:
    """margin_code of the guarded _hn_margin; code 0 reads 1 at a = 0."""
    try:   # guarded_margin, inlined as in margin_domain
        margin = _hn_margin(*x)
    except OverflowError:
        margin = -math.inf
    code = margin_code(margin, tol)
    return (1 if code == 0 and x[0] == 0 else code), margin


def _hn_shilov(a: complex, x1: complex, x2: complex, x3: complex, tol: float) -> bool:
    return abs(abs(x3) - 1.0) <= tol


def shilov_h_test(pt, tol: float = DEFAULT_TOL) -> bool:
    """Distinguished-boundary test: in the closed normed variant with |x3| = 1."""
    return _shilov_h(*checked_point(pt, _NAMES), checked_tol(tol))


def _shilov_h(a: complex, x1: complex, x2: complex, x3: complex, tol: float) -> bool:
    return _hn_cell((a, x1, x2, x3), tol)[0] != 2 and _hn_shilov(a, x1, x2, x3, tol)


_DOMAIN = fibred_domain(_NAMES, _tetra_margin, _fibre_radius, _shilov_h)
_HN_DOMAIN = Domain(_NAMES, _hn_cell, _hn_shilov)
