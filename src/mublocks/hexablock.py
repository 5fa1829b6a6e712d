"""The hexablock: a Hartogs-type domain in C x (tetrablock) defined by

    sup_{z1, z2 in D} | a sqrt((1-|z1|^2)(1-|z2|^2)) / (1 - x1 z1 - x2 z2 + x3 z1 z2) | < 1,

together with the "normed" variant: the image of the open 2x2 operator ball
under A -> (a21, a11, a22, det A).

The supremum has a closed form.  Writing alpha(z1) = 1 - x1 z1 and
beta(z1) = x2 - x3 z1, the inner supremum over z2 of (1-|z2|^2)/|alpha -
beta z2|^2 equals 1/(|alpha|^2 - |beta|^2) (maximize the phase, then the
radius r2 = |beta|/|alpha|).  The outer problem over z1 reduces on rays to

    maximize (1 - r^2) / (c - 2 m r + d r^2),
    c = 1 - |x2|^2,  d = |x1|^2 - |x3|^2,  m = |x1 - conj(x2) x3|,

whose critical equation m r^2 - (c+d) r + m = 0 has exactly one root in
[0, 1), namely r* = 2m / ((c+d) + sqrt((c+d)^2 - 4 m^2)); membership of x in
the tetrablock guarantees c > 0 and c + d - 2m > 0, so the formula is total.
hexa_classify evaluates it after its own tetrablock verdict, so each call
classifies the tetrablock part once.  The product-grid optimizer psi_sup_grid,
the independent numeric route the tests compare against, lives with the test
oracles.

The normed variant reduces to the four-coordinate domain: for a != 0,
(a, x1, x2, x3) is in it iff (x1, x2, x3, a + (x1 x2 - x3)/a) is interior
there (the matrix [[x1, (x1 x2 - x3)/a], [a, x2]] is the unique matrix over
the point); for a = 0 the exact rule is x3 = x1 x2 with both |x1|, |x2|
small enough.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .domain_f import f_classify
from .errors import PreconditionViolation
from .matrix2 import Matrix2, gram_report, operator_norm
from .optimize import nelder_mead  # unused here; perfbench/tracing.py wraps it
from .tetrablock import tetra_classify
from .verdict import (DEFAULT_TOL, MembershipVerdict, Region, classify_margin,
                      verdict_from_margin)

_EQ_TOL = 1e-12  # exact-equality band for x3 = x1 x2 in the a = 0 slice


def _check_quad(pt) -> tuple[complex, complex, complex, complex]:
    if len(pt) != 4:
        raise PreconditionViolation(f"expected (a, x1, x2, x3), got {pt!r}")
    return complex(pt[0]), complex(pt[1]), complex(pt[2]), complex(pt[3])


def pi_hexa(b: Matrix2) -> tuple[complex, complex, complex, complex]:
    """Coordinate projection (b21, b11, b22, det B)."""
    return (b.a21, b.a11, b.a22, b.det)


def _sup_coeffs(x1: complex, x2: complex, x3: complex) -> tuple[float, float, float]:
    c = 1.0 - abs(x2) ** 2
    d = abs(x1) ** 2 - abs(x3) ** 2
    m = abs(x1 - x2.conjugate() * x3)
    return c, d, m


def psi_sup(pt, tol: float = 1e-8) -> float:
    """Supremum of |psi| over the open bidisc (closed form; tol unused).

    Exactly 0 when a = 0; exactly |a| at x = 0; linear in |a| throughout.
    """
    a, x1, x2, x3 = _check_quad(pt)
    if not tetra_classify((x1, x2, x3)).is_interior:
        raise PreconditionViolation(
            f"(x1, x2, x3) must be interior in the tetrablock, got {pt!r}")
    if a == 0:
        return 0.0
    return _psi_sup_closed(a, x1, x2, x3)


def _psi_sup_closed(a: complex, x1: complex, x2: complex, x3: complex) -> float:
    """The closed form of psi_sup for a != 0 and x interior to the
    tetrablock, which the caller has checked."""
    c, d, m = _sup_coeffs(x1, x2, x3)
    if m == 0.0:
        return abs(a) / math.sqrt(c)
    disc = max((c + d) ** 2 - 4.0 * m * m, 0.0)
    rstar = 2.0 * m / ((c + d) + math.sqrt(disc))
    dmin = c - 2.0 * m * rstar + d * rstar * rstar
    if dmin <= 1e-300:
        return float("inf")
    return abs(a) * math.sqrt(max(1.0 - rstar * rstar, 0.0) / dmin)


def hexa_classify(pt, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Three-state verdict for the hexablock.

    Margin: min(tetrablock margin, 1 - sup).  On the a = 0 slice the rule is
    exactly the tetrablock verdict (no optimization).  When the tetrablock
    part sits inside the tol band the supremum is ill-defined; the verdict is
    then Outside if |a| > 1 + tol (the sup dominates |psi(0,0)| = |a|), and
    otherwise ClosureBoundary flagged indeterminate.
    """
    a, x1, x2, x3 = _check_quad(pt)
    tv = tetra_classify((x1, x2, x3), tol)
    if a == 0:
        return verdict_from_margin(tv.margin, tol,
                                   shilov=(shilov_h_test(pt, tol)
                                           if tv.region is Region.CLOSURE_BOUNDARY
                                           else None))
    if tv.region is Region.OUTSIDE:
        return verdict_from_margin(tv.margin, tol)
    if tv.region is Region.CLOSURE_BOUNDARY:
        if abs(a) > 1.0 + tol:
            return verdict_from_margin(min(tv.margin, 1.0 - abs(a)), tol)
        margin = min(tv.margin, max(-tol, min(tol, 1.0 - abs(a))))
        return MembershipVerdict(region=Region.CLOSURE_BOUNDARY, margin=margin,
                                 tol=tol, shilov=shilov_h_test(pt, tol),
                                 indeterminate=True)
    sup = _psi_sup_closed(a, x1, x2, x3)
    margin = tv.margin if sup == float("inf") else min(tv.margin, 1.0 - sup)
    if sup == float("inf"):
        margin = -1.0
    region = classify_margin(margin, tol)
    shilov = shilov_h_test(pt, tol) if region is Region.CLOSURE_BOUNDARY else None
    return verdict_from_margin(margin, tol, shilov=shilov)


def hexa_slice_a0(x1: complex, x2: complex, x3: complex,
                  tol: float = DEFAULT_TOL) -> bool:
    """Membership of (0, x1, x2, x3) in the open hexablock.

    The a = 0 slice is exactly the open tetrablock, so this is the
    no-optimization fast path of hexa_classify.
    """
    return hexa_classify((0.0, x1, x2, x3), tol).is_interior


@dataclass(frozen=True)
class HnVerdict:
    in_open: bool
    in_closure: bool
    in_interior_of_hn: bool


def hn_classify(pt, tol: float = DEFAULT_TOL) -> HnVerdict:
    """Membership in the normed variant (image of the open/closed ball).

    a != 0: reduce to the four-coordinate domain via the unique matrix
    [[x1, (x1 x2 - x3)/a], [a, x2]] over the point.  a = 0: exact slice rule.
    The interior of the closure-free set is its a != 0 part.
    """
    a, x1, x2, x3 = _check_quad(pt)
    in_closure = _hn_in_closure(a, x1, x2, x3, tol)
    if a == 0:
        in_open = (abs(x3 - x1 * x2) <= _EQ_TOL
                   and tetra_classify((x1, x2, x3), tol).is_interior)
        return HnVerdict(in_open=in_open, in_closure=in_closure,
                         in_interior_of_hn=False)
    t = (x1 * x2 - x3) / a
    if not cmath.isfinite(t):
        return HnVerdict(in_open=False, in_closure=False, in_interior_of_hn=False)
    in_open = f_classify((x1, x2, x3, a + t), tol).is_interior
    return HnVerdict(in_open=in_open, in_closure=in_closure,
                     in_interior_of_hn=in_open)


def _hn_in_closure(a: complex, x1: complex, x2: complex, x3: complex,
                   tol: float) -> bool:
    """hn_classify's in_closure alone, without its in_open verdict."""
    if a == 0:
        return (abs(x3 - x1 * x2) <= _EQ_TOL
                and max(abs(x1), abs(x2)) <= 1.0 + tol)
    t = (x1 * x2 - x3) / a
    return cmath.isfinite(t) and _norm_at_most_one(Matrix2(x1, t, a, x2), tol)


def _norm_at_most_one(b: Matrix2, tol: float) -> bool:
    """||B|| <= 1 up to tol.

    Outside the band 1 +- 1e-6 the closed-form norm decides.  Inside it the
    verdict is positivity of I - B*B up to tol, read from its trace and
    determinant, which are polynomial in the entries.  The band verdict is
    not that of comparing the norm with 1 + tol: it can differ when the top
    singular value lies within about tol of 1 + tol.
    """
    nrm = operator_norm(b)
    if nrm > 1.0 + 1e-6:
        return False
    if nrm <= 1.0 - 1e-6:
        return True
    g = gram_report(b)
    return g.trace_gram >= -2.0 * tol and g.det_gram >= -tol


def shilov_h_test(pt, tol: float = DEFAULT_TOL) -> bool:
    """Distinguished-boundary test: in the closed normed variant with |x3| = 1."""
    a, x1, x2, x3 = _check_quad(pt)
    return (_hn_in_closure(a, x1, x2, x3, tol)
            and abs(abs(x3) - 1.0) <= tol)
