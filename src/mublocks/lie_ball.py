"""The Lie ball (Cartan type IV domain), the 2-proper squaring map on the
first coordinate, and the explicit linear-fractional-free biholomorphism onto
the four-coordinate matrix-image domain.

Two equivalent defining inequalities are known:

    (A)  sum |z_j|^2 < 1   and   2 sum |z_j|^2 - |sum z_j^2|^2 < 1
    (B)  sqrt((sum |z_j|^2)^2 - |sum z_j^2|^2)  <  1 - sum |z_j|^2

(B) squares to (A) given sum |z_j|^2 < 1.  lie_ball_classify evaluates (A);
_lie_ball_dual holds it against (B) for lie_ball_dual_check and thm32.

The distinguished boundary of the squared image (n = 4) is parametrized by

    (e^{2 i t} x1^2, e^{i t} x2, e^{i t} x3, e^{i t} x4),
    x real, x1^2 + x2^2 + x3^2 + x4^2 = 1,

and the map

    f(w) = (w3 + i w4, -w3 + i w4, -w2^2 - w3^2 - w4^2 - w1, 2 w2)

carries it onto the distinguished boundary of the target domain.  Each such
point t proposes its own parameter (omega^2 = -t3, x2 = Re(t4 / 2 omega),
x3 + i x4 = t1 / omega), and the thm32 suite checks the match by evaluating
f forward there.  nearest_transport_distance measures any target against the
whole transported set: in closed form where the free optimum over the unit
3-ball is feasible, else by a scan of the angle.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

from .errors import PreconditionViolation
from .optimize import nelder_mead  # unused here; perfbench/tracing.py wraps it
from .verdict import (DEFAULT_TOL, MembershipVerdict, checked_point, checked_tol,
                      classify_point, guarded_margin, margin_domain, raise_if_split)

_SPHERE_TOL = 1e-12     # | |x|^2 - 1 | allowed of a ShilovParamL4's real unit vector
_NEWTON_RTOL = 1e-15    # _ball_minimizer stops at a step below this share of lam + 2


@functools.cache
def _names(n: int) -> tuple[str, ...]:
    return tuple(f"z{k}" for k in range(1, n + 1))


def _coords(z) -> tuple[complex, ...]:
    if len(z) < 2:
        raise PreconditionViolation(f"expected (z1, z2, ...), got {z!r}")
    return checked_point(z, _names(len(z)))


def _moduli(zs) -> tuple[float, float]:  # sum |z_j|^2, |sum z_j^2| of _coords, any n
    norm2 = sq = 0   # one loop of plain +: no generators, and no 3.12 compensated sum()
    for v in zs:     # _slack_b's only: _lie_ball_margin runs this loop itself
        norm2 += abs(v) ** 2
        sq += v * v
    return norm2, abs(sq)


def _lie_ball_margin(*zs: complex) -> float:
    norm2 = sq = 0   # _moduli's loop, inline: one call and one tuple less per cell
    for v in zs:
        norm2 += abs(v) ** 2
        sq += v * v
    bullet = abs(sq)
    return min(1.0 - norm2, 1.0 - (2.0 * norm2 - bullet * bullet))


_DOMAIN = margin_domain(_names(4), _lie_ball_margin)   # the CLI's l4: C^4


def _slack_b(*zs: complex) -> float:
    norm2, bullet = _moduli(zs)
    return (1.0 - norm2) - math.sqrt(max(norm2 * norm2 - bullet * bullet, 0.0))


def lie_ball_classify(z, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Three-state verdict for the Lie ball in C^n (n >= 2); margin =
    min(1 - sum|z|^2, 1 - (2 sum|z|^2 - |z bullet z|^2))."""
    return classify_point(_DOMAIN, _coords(z), tol)


def lie_ball_dual_check(z, tol: float = DEFAULT_TOL) -> None:
    """Hold the lie_ball_classify margin against criterion (B) at z; raises
    CriteriaDisagree when they differ in sign outside the guard band."""
    _lie_ball_dual(_coords(z), checked_tol(tol))


def _lie_ball_dual(zs: tuple, tol: float) -> float:
    """lie_ball_dual_check on checked coordinates; returns lie_ball_classify's margin."""
    margin = guarded_margin(_lie_ball_margin, *zs)
    raise_if_split("Lie-ball criteria", zs, margin, guarded_margin(_slack_b, *zs), tol)
    return margin


def lambda_map(z):
    """(z1, z2, ..., zn) -> (z1^2, z2, ..., zn); identifies +-z1 exactly."""
    zs = _coords(z)
    return (zs[0] * zs[0],) + zs[1:]


def biholo_f(w):
    """(w3 + i w4, -w3 + i w4, -w2^2 - w3^2 - w4^2 - w1, 2 w2)."""
    w1, w2, w3, w4 = checked_point(w, _names(4))
    return (w3 + 1j * w4,
            -w3 + 1j * w4,
            -w2 * w2 - w3 * w3 - w4 * w4 - w1,
            2.0 * w2)


@dataclass(frozen=True)
class ShilovParamL4:
    theta: float
    x: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        xs = tuple(float(v) for v in self.x)
        object.__setattr__(self, "x", xs)
        if len(xs) != 4:
            raise PreconditionViolation(f"x must have 4 entries, got {self.x!r}")
        if not math.isfinite(self.theta):
            raise PreconditionViolation(f"theta must be finite, got {self.theta!r}")
        r2 = sum(v * v for v in xs)
        if not abs(r2 - 1.0) <= _SPHERE_TOL:
            raise PreconditionViolation(
                f"x must lie on the unit 3-sphere, |x|^2 = {r2!r}")


def shilov_l4_param(q: ShilovParamL4):
    """(e^{2 i t} x1^2, e^{i t} x2, e^{i t} x3, e^{i t} x4)."""
    w = cmath.exp(1j * q.theta)
    x1, x2, x3, x4 = q.x
    return (w * w * x1 * x1, w * x2, w * x3, w * x4)


def shilov_l4_lattice(n: int = 10_000):
    """Deterministic Fibonacci-type lattice on the boundary parameters.

    Hopf coordinates on S^3 (stratified in sin^2) crossed with three
    Kronecker rotations for the angles.  Returns float tuples
    (theta, x1, x2, x3, x4), each of length n, with x rows unit-normalized.
    """
    rows = []
    for k in range(n):
        eta = math.asin(math.sqrt((k + 0.5) / n))
        xi1, xi2 = (2.0 * math.pi * (k * (math.sqrt(m) - 1.0) % 1.0) for m in (2.0, 3.0))
        x = (math.cos(eta) * math.cos(xi1), math.cos(eta) * math.sin(xi1),
             math.sin(eta) * math.cos(xi2), math.sin(eta) * math.sin(xi2))
        nrm = math.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3])
        rows.append((2.0 * math.pi * (k * (math.sqrt(5.0) - 1.0) / 2.0 % 1.0),
                     *(v / nrm for v in x)))
    return tuple(zip(*rows)) if rows else ((),) * 5


def transported_lattice(n: int = 10_000):
    """biholo_f of the squared lattice: (params, points), params the lattice
    (theta, x1..x4), points its n boundary points of the target domain."""
    params = theta, _, x2, x3, x4 = shilov_l4_lattice(n)
    return params, tuple(_point(cmath.exp(1j * t), *y) for t, *y in zip(theta, x2, x3, x4))


def _point(w: complex, y2: float, y3: float, y4: float) -> tuple:
    """(w (y3 + i y4), -w (y3 - i y4), -w^2, 2 w y2): a transported point."""
    return (w * complex(y3, y4), -w * complex(y3, -y4), -(w * w), 2.0 * w * y2)


def _centre(w: complex, t) -> tuple[float, float, float]:
    """(Re T/2, Re c, Im c), c = (A + conj B)/2: the free minimizer y at w."""
    c = 0.5 * (w.conjugate() * t[0] - w * t[1].conjugate())
    return (0.5 * w.conjugate() * t[3]).real, c.real, c.imag


def _ball_minimizer(g2: float, g3: float, g4: float) -> tuple[float, float, float]:
    """argmin over |y| <= 1 of sum_i h_i (y_i - g_i)^2, h = (4, 2, 2).
    Outside the ball y = h g / (h + lam): Newton on the concave, increasing
    1/||y(lam)|| - 1 climbs from lam = 0 without overshoot (h > 0: no hard case)."""
    if g2 * g2 + g3 * g3 + g4 * g4 <= 1.0:
        return g2, g3, g4
    a, b, c = 4.0 * g2, 2.0 * g3, 2.0 * g4
    a2, bc2 = a * a, b * b + c * c   # h3 = h4: y3 and y4 share a denominator
    lam = 0.0
    for _ in range(50):
        d4, d2 = 4.0 + lam, 2.0 + lam
        u, v = a2 / (d4 * d4), bc2 / (d2 * d2)
        step = (u + v) * (math.sqrt(u + v) - 1.0) / (u / d4 + v / d2)
        lam += step
        if not step > _NEWTON_RTOL * (lam + 2.0):
            break
    return a / (4.0 + lam), b / (2.0 + lam), c / (2.0 + lam)


def _residual2(w: complex, t) -> float:
    """Squared distance from t to the nearest transported point at angle w, measured
    from that point: the expanded quadratic cancels to ~1e-12 on boundary targets."""
    p = _point(w, *_ball_minimizer(*_centre(w, t)))
    return (abs(p[0] - t[0]) ** 2 + abs(p[1] - t[1]) ** 2
            + abs(p[2] - t[2]) ** 2 + abs(p[3] - t[3]) ** 2)


def _scan_distance(t) -> float:
    """The distance by a 1024-angle scan, then ten 16x zooms on its best 3
    local minima.  (-w, -y) gives the point of (w, y), so the residual has
    period pi, and the best 3 minima are the best 2 on [0, pi) and a copy of
    one: only [0, pi) is scanned, and its best 2 are zoomed."""
    n = 512   # the angles of [0, pi) in the 1024-angle scan
    theta = [k * (math.pi / n) for k in range(n)]
    r2 = [_residual2(cmath.exp(1j * th), t) for th in theta]
    local = [k for k in range(n) if r2[k] <= r2[k - 1] and r2[k] <= r2[(k + 1) % n]]
    cells = [theta[k] for k in sorted(local, key=r2.__getitem__)[:2]]
    for level in range(1, 11):
        scale = math.pi / n / 16.0 ** level
        best = [min((_residual2(cmath.exp(1j * th), t), th)
                    for th in [cell + scale * k for k in range(-16, 17)]) for cell in cells]
        cells = [th for _, th in best]
    return math.sqrt(min(best)[0])


_FAR = 2.0 ** 511   # _ball_minimizer squares terms up to 2 |t|: the search stops here
_SQRT_MAX = math.sqrt(sys.float_info.max)


def nearest_transport_distance(target) -> float:
    """Distance from `target` (4 finite complex numbers) to the transported
    set {(w (y3 + i y4), -w (y3 - i y4), -w^2, 2 w y2): |w| = 1, |y| <= 1}.

    With A = conj(w) t1, B = -conj(w) t2, T = conj(w) t4 the squared distance
    is 4 (y2 - Re T/2)^2 + 2 |y3 + i y4 - (A + conj B)/2|^2 + c(w): at fixed w
    a trust-region subproblem (More and Sorensen 1983).  Over y in R^3 its
    minimum is C + Re(K w^2), C constant, K = 2 conj(t3) - conj(t4)^2/2 +
    conj(t1 t2); over the ball it is at least that at every angle.  So where
    K != 0 and the free centre at w^2 = -conj(K)/|K| lies in the unit ball,
    that angle is optimal: one residual, measured from the point there (C - |K|
    cancels on boundary targets).  Elsewhere _scan_distance searches the angle.

    The set lies within sqrt 5 of the origin, so beyond |t| = 2^511, where
    that is far below an ulp, the distance is |t|; beyond the square root of
    the largest float its square overflows, and PreconditionViolation names
    the target.
    """
    t = tuple(complex(v) for v in target)
    if len(t) != 4 or not all(map(cmath.isfinite, t)):
        raise PreconditionViolation(f"target must be 4 finite coordinates, got {target!r}")
    t1, t2, t3, t4 = t
    n = math.hypot(t1.real, t1.imag, t2.real, t2.imag, t3.real, t3.imag, t4.real, t4.imag)
    if n > _FAR:
        if n > _SQRT_MAX:
            raise PreconditionViolation(
                f"the squared distance from {target!r} passes the largest float")
        return n
    k = 2.0 * t3.conjugate() - 0.5 * (t4 * t4).conjugate() + (t1 * t2).conjugate()
    if k:
        w = cmath.sqrt(-k.conjugate() / abs(k))
        if sum(v * v for v in _centre(w, t)) <= 1.0:
            return math.sqrt(_residual2(w, t))
    return _scan_distance(t)
