"""The four-coordinate image domain of the open 2x2 operator ball under

    A  ->  (a11, a22, det A, a12 + a21)   =: (x, a, p, s).

Membership has an exact algebraic characterization: with

    Q(x, a, p, s) = 1 - |a|^2 - |x|^2 + |p|^2 - |s|^2/2 - |s^2 - 4(ax-p)|/2

(the Gram determinant of any matrix over the point), the point lies in the
open domain iff (s, ax-p) is in the open symmetrized bidisc, |p| < 1 and
Q > 0; the closure replaces all three by their non-strict forms.  The matrix
route -- reconstruct B from the quadratic t^2 - s t + (ax - p) and test its
norm -- is a separate oracle, which the suites and the tests compare with it.

The domain is (1,1,2,1)-quasi-balanced, which gives the scaling lemma, the
Minkowski gauge (the norm of the matrix over the point, since scaling the
point by t scales that matrix by t), and the swap symmetry

    (x, a, p, s)  <->  (lambda1, lambda2, -p, a + x),

where lambda_i are the roots of t^2 - s t + (ax - p).

Distinguished boundary (three equivalent descriptions, all implemented):

    * parametrized: (e^{it}(x3+ix4), -e^{it}(x3-ix4), -e^{2it}, 2 e^{it} x2)
      over t real and (x2,x3,x4) in the closed unit 3-ball;
    * ball form: (conj(z), -eta z, -eta, w + conj(w) eta) with |z|^2+|w|^2 <= 1
      and |eta| = 1;
    * closed form: (x, a, p) on the distinguished boundary of the tetrablock,
      s + conj(s) p = 0, and |x|^2 + |s|^2/4 <= 1.

The closed form comes from eliminating w in s = w - conj(w) p: writing
p = e^{2it}, solvability forces Re(e^{-it} s) = 0, i.e. s + conj(s) p = 0,
and the solution set is w = s/2 + mu e^{it} (mu real), so the least |w| is
|s|/2.  The parametrization is a 2-to-1 cover; antipodal parameters give the
same point, and nothing else collides.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import namedtuple
from dataclasses import dataclass

from .bidisc import _g2_margin, _g2_roots
from .errors import PreconditionViolation
from .matrix2 import (CheckedRecord, Matrix2, _complex_gauss, gram_det_from_coords,
                      operator_norm)
from .tetrablock import _be
from .verdict import (DEFAULT_TOL, Domain, MembershipVerdict, checked_point, classify_point,
                      margin_cell)

# Bounding box for random sampling: the closure projects into the closed
# bidisc/tetrablock/pentablock hulls, so |x|, |a| <= 1, |p| <= 1, |s| <= 2;
# the box is padded to keep outside-dense noise in play.
SAMPLE_BOX = (2.5, 2.5, 1.5, 2.5)  # |x|, |a|, |p|, |s|
_NAMES = ("x", "a", "p", "s")
_PARAM_TOL = 1e-12   # slack of the boundary parameters' ball and |eta| = 1 checks
_DIRECTION_FLOOR = 1e-12   # least norm of a Gaussian draw made a unit direction


def pi_f(b: Matrix2) -> tuple[complex, complex, complex, complex]:
    """Coordinate projection (b11, b22, det B, b12 + b21)."""
    return (b.a11, b.a22, b.det, b.a12 + b.a21)


def q_value(pt) -> float:
    """The Gram-determinant invariant Q of a point (exact arithmetic)."""
    x, a, p, s = checked_point(pt, _NAMES)
    return gram_det_from_coords(x, a, p, s)


def _f_margin(x: complex, a: complex, p: complex, s: complex) -> float:
    """The min of the three slacks: the bidisc margin of (s, ax-p) (kernel
    bidisc._g2_margin), 1 - |p| and Q; shared with hexablock.hn_classify."""
    return min(_g2_margin(s, a * x - p), 1.0 - abs(p),
               gram_det_from_coords(x, a, p, s))


def f_classify(pt, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Three-state membership verdict; margin = _f_margin."""
    return classify_point(_DOMAIN, checked_point(pt, _NAMES), tol)


def f_matrix_witness(pt) -> Matrix2:
    """A matrix over the point: off-diagonal entries are the roots of
    t^2 - s t + (ax - p).  The only other matrix over the point is the
    transpose, which has the same norm."""
    return _witness(*checked_point(pt, _NAMES))


def _witness(x: complex, a: complex, p: complex, s: complex) -> Matrix2:
    b12, b21 = _g2_roots(s, a * x - p)
    return Matrix2(x, b12, b21, a)


def _oracle_margin(*x: complex) -> float:
    return 1.0 - operator_norm(_witness(*x))


def f_classify_matrix_oracle(pt, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Independent verdict via reconstruction: margin = 1 - ||B||."""
    return classify_point(_ORACLE, checked_point(pt, _NAMES), tol)


def f_scale(pt, r: float):
    """Quasi-balanced inward scaling (r x, r a, r^2 p, r s), 0 < r < 1.

    Sends the closure into the open domain.
    """
    if not (isinstance(r, (int, float)) and 0.0 < r < 1.0):
        raise PreconditionViolation(f"scale factor must lie in (0, 1), got {r!r}")
    x, a, p, s = checked_point(pt, _NAMES)
    return (r * x, r * a, r * r * p, r * s)


def f_rescale_by(pt, t: float):
    """(x/t, a/t, p/t^2, s/t) -- the gauge direction, for finite t with t^2 != 0."""
    if not (math.isfinite(t) and t * t != 0.0):
        raise PreconditionViolation(f"rescale factor t must be finite, t*t != 0: {t!r}")
    x, a, p, s = checked_point(pt, _NAMES)
    return (x / t, a / t, p / (t * t), s / t)


def minkowski_gauge(pt) -> float:
    """inf{t > 0 : (x/t, a/t, p/t^2, s/t) interior} = ||B||, B the matrix
    over the point: the scaled point is the projection of B/t, whose only
    other preimage B^T/t has the same norm, so it is interior iff t > ||B||.
    0 at the origin; < 1 iff interior; 1 on distinguished-boundary points."""
    return operator_norm(f_matrix_witness(pt))


def f_swap(pt):
    """(x, a, p, s) -> (lambda1, lambda2, -p, a + x); preserves membership."""
    x, a, p, s = checked_point(pt, _NAMES)
    l1, l2 = _g2_roots(s, a * x - p)
    return (l1, l2, -p, a + x)


class FRelations(CheckedRecord, namedtuple("_Projections", "g2 tetra penta")):
    __slots__ = ()


def f_relations(pt) -> FRelations:
    """The three coordinate projections carried by an interior point:
    (s, ax-p) in the bidisc domain, (x, a, p) in the tetrablock,
    (a, s, -p) in the pentablock."""
    x, a, p, s = checked_point(pt, _NAMES)
    return FRelations(g2=(s, a * x - p), tetra=(x, a, p), penta=(a, s, -p))


def f_slice_s_zero(x1, x2, x3) -> bool:
    """Is (x1, x2, x3, 0) interior?  (Equivalent to tetrablock membership of
    (x1, x2, x3); the equivalence is property-tested, not enforced here.)"""
    return f_classify((complex(x1), complex(x2), complex(x3), 0.0)).is_interior


def f_slice_xa_zero(p, s) -> bool:
    """Is (0, 0, p, s) interior?  (Equivalent to (s, -p) in the open bidisc
    domain, which the prop211_slice suite checks.)"""
    return f_classify((0.0, 0.0, complex(p), complex(s))).is_interior


# ---------------------------------------------------------------------------
# Distinguished boundary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShilovParamF:
    theta: float
    x2: float
    x3: float
    x4: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise PreconditionViolation(f"theta must be finite, got {self.theta!r}")
        r2 = self.x2 ** 2 + self.x3 ** 2 + self.x4 ** 2
        if not r2 <= 1.0 + _PARAM_TOL:
            raise PreconditionViolation(
                f"(x2, x3, x4) must lie in the closed unit 3-ball, |.|^2 = {r2!r}")


@dataclass(frozen=True)
class BallParamF:
    z: complex
    w: complex
    eta: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "w", complex(self.w))
        object.__setattr__(self, "eta", complex(self.eta))
        if not abs(self.z) ** 2 + abs(self.w) ** 2 <= 1.0 + _PARAM_TOL:
            raise PreconditionViolation("(z, w) must lie in the closed unit 2-ball")
        if not abs(abs(self.eta) - 1.0) <= _PARAM_TOL:
            raise PreconditionViolation(f"|eta| must be 1, got {abs(self.eta)!r}")


def shilov_f_test(pt, tol: float = DEFAULT_TOL) -> bool:
    """Closed-form distinguished-boundary test:

        (x, a, p) on the tetrablock distinguished boundary,
        s + conj(s) p = 0,  and  |x|^2 + |s|^2/4 <= 1.
    """
    return _shilov_f(*checked_point(pt, _NAMES), tol)


def _shilov_f(x: complex, a: complex, p: complex, s: complex, tol: float) -> bool:
    return (_be(x, a, p, tol)
            and abs(s + s.conjugate() * p) <= tol
            and abs(x) ** 2 + abs(s) ** 2 / 4.0 <= 1.0 + tol)


_DOMAIN = Domain(_NAMES, margin_cell(_f_margin), _shilov_f)
_ORACLE = Domain(_NAMES, margin_cell(_oracle_margin), _shilov_f)


def _shilov_point_from_omega(omega: complex, x2: float, x3: float, x4: float):
    """Boundary parametrization with omega = e^{i theta} passed explicitly.

    Negating all four arguments reproduces the same point bitwise (products of
    negated pairs are exact in IEEE arithmetic), which is what makes the
    two-to-one identification testable as exact equality.
    """
    return (omega * complex(x3, x4),
            -omega * complex(x3, -x4),
            -(omega * omega),
            2.0 * omega * x2)


def shilov_f_param(q: ShilovParamF):
    """(e^{it}(x3+ix4), -e^{it}(x3-ix4), -e^{2it}, 2 e^{it} x2)."""
    omega = cmath.exp(1j * q.theta)
    return _shilov_point_from_omega(omega, q.x2, q.x3, q.x4)


def shilov_f_from_ball(q: BallParamF):
    """(conj(z), -eta z, -eta, w + conj(w) eta)."""
    return (q.z.conjugate(),
            -q.eta * q.z,
            -q.eta,
            q.w + q.w.conjugate() * q.eta)


def shilov_f_double_cover(q: ShilovParamF, tol: float = DEFAULT_TOL) -> bool:
    """Check the two-to-one structure at q: the antipodal parameter gives the
    identical point (exact), while a nearby non-antipodal parameter gives a
    point farther than tol away."""
    omega = cmath.exp(1j * q.theta)
    p1 = _shilov_point_from_omega(omega, q.x2, q.x3, q.x4)
    p2 = _shilov_point_from_omega(-omega, -q.x2, -q.x3, -q.x4)
    exact = max(abs(u - v) for u, v in zip(p1, p2)) == 0.0

    shrink = 0.97
    dx = (0.011, -0.017, 0.013)
    qp = ShilovParamF(q.theta + 0.05,
                      shrink * q.x2 + dx[0],
                      shrink * q.x3 + dx[1],
                      shrink * q.x4 + dx[2])
    p3 = shilov_f_param(qp)
    distinct = max(abs(u - v) for u, v in zip(p1, p3)) > tol
    return exact and distinct


def sample_shilov_param_f(rng: random.Random) -> ShilovParamF:
    """Uniform-ish sample of the boundary parameters (angle x closed 3-ball)."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    while True:
        g01 = _complex_gauss(rng)   # the first two of three rng.gauss draws
        g0, g1, g2 = g01.real, g01.imag, rng.gauss(0.0, 1.0)
        # sum(), not +, keeps the bits on 3.12, whose float sum() is compensated
        nrm = math.sqrt(sum((g0 * g0, g1 * g1, g2 * g2)))
        if nrm >= _DIRECTION_FLOOR:
            break
    r = rng.random() ** (1.0 / 3.0)
    return ShilovParamF(theta, r * g0 / nrm, r * g1 / nrm, r * g2 / nrm)


def sample_point_f(rng: random.Random):
    """Uniform box noise over the sampling box (outside-dense)."""
    bx, ba, bp, bs = SAMPLE_BOX

    def cdisc(radius: float) -> complex:
        return complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))

    return (cdisc(bx), cdisc(ba), cdisc(bp), cdisc(bs))
