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

Interior x gives c - d > 2 |x1 x2 - x3| >= 0, so den > 0; the form is inf
only where den <= 0 at or past the tetrablock boundary.  The domain is
fibred over the tetrablock, so its margin is two kernels: the base kernel
_hexa_base(x, tol), the guarded tetrablock._tetra_margin and, where it is not
below -tol, the fibre factor k = sqrt(2 / den); and the fibre cell
_hexa_fibre(a, base, tol), which holds |a| k against 1.  R = 1/k is
continuous on the closed tetrablock, so over a base on its boundary the
closure's fibre is the disc |a| <= R; R is 0 at (1, 0, 0) and 1 at (0, 0, 1).
hexa_classify runs both kernels, as do mublocks check and slice (slice runs
the base once per row where its inner axis is a), and psi_sup reads k.  The
test oracles keep the product-grid psi_sup_grid, the critical-radius
psi_sup_critical_radius and psi_sup_closed, |a| k.

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
                      classify_point, fibred_domain, guarded_margin, margin_code)

_EQ_TOL = 1e-12  # exact-equality band for x3 = x1 x2 in the a = 0 slice
_NAMES = ("a", "x1", "x2", "x3")


def pi_hexa(b: Matrix2) -> tuple[complex, complex, complex, complex]:
    """Coordinate projection (b21, b11, b22, det B)."""
    return (b.a21, b.a11, b.a22, b.det)


def psi_sup(pt) -> float:
    """Supremum of |psi| over the open bidisc, in closed form.

    Exactly 0 when a = 0; exactly |a| at x = 0; linear in |a| throughout.
    """
    a, x1, x2, x3 = checked_point(pt, _NAMES)
    t_margin, k = _hexa_base(x1, x2, x3, DEFAULT_TOL)
    if margin_code(t_margin, DEFAULT_TOL):
        raise PreconditionViolation(
            f"(x1, x2, x3) must be interior in the tetrablock, got {pt!r}")
    return 0.0 if a == 0 else abs(a) * k


def _fibre_factor(x1: complex, x2: complex, x3: complex) -> float:
    """k = sqrt(2 / den) for x interior to the tetrablock; inf where den <= 0."""
    c, d = 1.0 - abs(x2) ** 2, abs(x1) ** 2 - abs(x3) ** 2
    m = abs(x1 - x2.conjugate() * x3)
    den = (c - d) + math.sqrt(max((c + d) ** 2 - 4.0 * m * m, 0.0))
    return math.sqrt(2.0 / den) if den > 0.0 else math.inf


def _hexa_base(x1: complex, x2: complex, x3: complex, tol: float) -> tuple:
    """The base kernel: the tetrablock margin of x under the overflow guard
    and, where it is not below -tol, the fibre factor k (else None)."""
    t_margin = guarded_margin(_tetra_margin, x1, x2, x3)
    return t_margin, None if t_margin < -tol else _fibre_factor(x1, x2, x3)


def _hexa_fibre(a: complex, base: tuple, tol: float) -> tuple[int, float]:
    """The fibre cell over base = (t_margin, k): t_margin at a = 0 or without
    k, else min(t_margin, 1 - |a| k), -1 where |a| k is inf."""
    t_margin, k = base
    try:
        if a == 0 or k is None:
            margin = t_margin
        else:
            sup = abs(a) * k
            margin = -1.0 if sup == math.inf else min(t_margin, 1.0 - sup)
    except OverflowError:
        margin = -math.inf
    return margin_code(margin, tol), margin


def hexa_classify(pt, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Three-state verdict for the hexablock.

    Margin: min(tetrablock margin, 1 - |a| k), the tetrablock margin alone
    at a = 0 or below -tol; over a base within tol of the tetrablock
    boundary, k is its closed form there (module docstring).
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
    try:   # guarded_margin, inlined as in margin_cell
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


_DOMAIN = fibred_domain(_NAMES, _hexa_base, _hexa_fibre, _shilov_h)
_HN_DOMAIN = Domain(_NAMES, _hn_cell, _hn_shilov)
