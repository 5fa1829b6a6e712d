"""The Lie ball (Cartan type IV domain), the 2-proper squaring map on the
first coordinate, and the explicit linear-fractional-free biholomorphism onto
the four-coordinate matrix-image domain.

Two equivalent defining inequalities are known:

    (A)  sum |z_j|^2 < 1   and   2 sum |z_j|^2 - |sum z_j^2|^2 < 1
    (B)  sqrt((sum |z_j|^2)^2 - |sum z_j^2|^2)  <  1 - sum |z_j|^2

(B) squares to (A) given sum |z_j|^2 < 1.  lie_ball_classify evaluates (A);
lie_ball_dual_check holds it against (B) for the suites and the tests.

The distinguished boundary of the squared image (n = 4) is parametrized by

    (e^{2 i t} x1^2, e^{i t} x2, e^{i t} x3, e^{i t} x4),
    x real, x1^2 + x2^2 + x3^2 + x4^2 = 1,

and the map

    f(w) = (w3 + i w4, -w3 + i w4, -w2^2 - w3^2 - w4^2 - w1, 2 w2)

carries it onto the distinguished boundary of the target domain.  Each such
point t proposes its own parameter (omega^2 = -t3, x2 = Re(t4 / 2 omega),
x3 + i x4 = t1 / omega), and the thm32 suite checks the match by evaluating
f forward there.  nearest_transport_distance measures any target against the
whole transported set, by a trust-region subproblem over the unit 3-ball.  It
and the lattice import numpy when called; importing this module does not.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import PreconditionViolation
from .optimize import nelder_mead  # unused here; perfbench/tracing.py wraps it
from .verdict import (DEFAULT_TOL, Domain, MembershipVerdict, checked_point, classify_point,
                      guarded_margin, margin_cell, raise_if_split)


@functools.cache
def _names(n: int) -> tuple[str, ...]:
    return tuple(f"z{k}" for k in range(1, n + 1))


def _coords(z) -> tuple[complex, ...]:
    if len(z) < 2:
        raise PreconditionViolation(f"expected (z1, z2, ...), got {z!r}")
    return checked_point(z, _names(len(z)))


def _moduli(zs) -> tuple[float, float]:  # sum |z_j|^2, |sum z_j^2| of _coords
    return sum(abs(v) ** 2 for v in zs), abs(sum(v * v for v in zs))


def _lie_ball_margin(*zs: complex) -> float:
    norm2, bullet = _moduli(zs)
    return min(1.0 - norm2, 1.0 - (2.0 * norm2 - bullet * bullet))


_DOMAIN = Domain(_names(4), margin_cell(_lie_ball_margin))   # the CLI's l4: C^4


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
    zs = _coords(z)
    raise_if_split("Lie-ball criteria", z, guarded_margin(_lie_ball_margin, *zs),
                   guarded_margin(_slack_b, *zs), tol)


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
        if not abs(r2 - 1.0) <= 1e-12:
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
    Kronecker rotations for the angles.  Returns float arrays
    (theta, x1, x2, x3, x4), each of length n, with x rows unit-normalized.
    """
    import numpy as np
    k = np.arange(n, dtype=float)
    u = (k + 0.5) / n
    eta = np.arcsin(np.sqrt(u))
    xi1 = 2.0 * np.pi * np.mod(k * (math.sqrt(2.0) - 1.0), 1.0)
    xi2 = 2.0 * np.pi * np.mod(k * (math.sqrt(3.0) - 1.0), 1.0)
    theta = 2.0 * np.pi * np.mod(k * (math.sqrt(5.0) - 1.0) / 2.0, 1.0)
    x1 = np.cos(eta) * np.cos(xi1)
    x2 = np.cos(eta) * np.sin(xi1)
    x3 = np.sin(eta) * np.cos(xi2)
    x4 = np.sin(eta) * np.sin(xi2)
    nrm = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4)
    return theta, x1 / nrm, x2 / nrm, x3 / nrm, x4 / nrm


def transported_lattice(n: int = 10_000):
    """biholo_f of the squared lattice, vectorized.

    Returns (params, points): params is the (theta, x1..x4) tuple of arrays,
    points is an (n, 4) complex array of boundary points of the target
    domain.
    """
    import numpy as np
    theta, x1, x2, x3, x4 = shilov_l4_lattice(n)
    return (theta, x1, x2, x3, x4), _transported(np.exp(1j * theta), x2, x3, x4)


def _transported(w, y2, y3, y4):
    """(w (y3 + i y4), -w (y3 - i y4), -w^2, 2 w y2) on a new last axis.

    The named factors keep w on the left of every product.  numpy reuses a
    temporary right operand of 256 KiB or more as the output and then
    multiplies in swapped order, and a complex product with fused
    multiply-adds is not commutative bit for bit."""
    import numpy as np
    u, v = y3 + 1j * y4, y3 - 1j * y4
    return np.stack((w * u, -w * v, -(w * w), 2.0 * w * y2), axis=-1)


_H = (4.0, 2.0, 2.0)   # curvatures of the rotated distance in y
_SCAN, _CELLS, _LEVELS = 1024, 3, 10  # angle scan, minima zoomed, 16x zooms
_ZOOM = tuple(k / 16.0 for k in range(-16, 17))  # tuples, as _H: no numpy at import


def _ball_minimizer(g):
    """argmin over |y| <= 1 of sum_i h_i (y_i - g_i)^2 for (..., 3) centres g.
    Outside the ball y = h g / (h + lam): Newton on the concave, increasing
    1/||y(lam)|| - 1 climbs from lam = 0 without overshoot (h > 0: no hard case)."""
    import numpy as np
    outside = (g * g).sum(axis=-1) > 1.0
    if not outside.any():
        return g
    y = g.copy()
    hg = _H * g[outside]
    lam = np.zeros((len(hg), 1))
    for _ in range(50):
        q = hg / (_H + lam)
        n2 = (q * q).sum(axis=-1, keepdims=True)
        step = n2 * (np.sqrt(n2) - 1.0) / (q * q / (_H + lam)).sum(axis=-1, keepdims=True)
        lam = lam + step
        if not (step > 1e-15 * (lam + 2.0)).any():
            break
    y[outside] = hg / (_H + lam)
    return y


def _residual2(theta, tgt):
    """Squared distance from tgt (4,) to the nearest transported point at
    each angle, measured from that point itself: the expanded quadratic
    cancels to ~1e-12 on boundary targets."""
    import numpy as np
    w = np.exp(1j * theta)
    c = 0.5 * (w.conj() * tgt[0] - w * tgt[1].conjugate())
    y = _ball_minimizer(np.stack(((0.5 * w.conj() * tgt[3]).real, c.real, c.imag), -1))
    return (np.abs(_transported(w, y[..., 0], y[..., 1], y[..., 2]) - tgt) ** 2).sum(-1)


def nearest_transport_distance(target) -> float:
    """Distance from `target` (4 finite complex numbers) to the transported
    set {(w (y3 + i y4), -w (y3 - i y4), -w^2, 2 w y2): |w| = 1, |y| <= 1}.

    With A = conj(w) t1, B = -conj(w) t2, T = conj(w) t4 the squared distance
    is 4 (y2 - Re T/2)^2 + 2 |y3 + i y4 - (A + conj B)/2|^2 + c(w): at fixed w
    a trust-region subproblem with a one-variable secular equation (More and
    Sorensen, SIAM J. Sci. Stat. Comput. 4 (1983)), so only w is searched:
    a 1024-point scan, then ten 16x zooms on its best 3 local minima.
    """
    import numpy as np
    tgt = np.asarray([complex(v) for v in target])
    if len(tgt) != 4 or not np.isfinite(tgt).all():
        raise PreconditionViolation(f"target must be 4 finite coordinates, got {target!r}")
    theta = np.linspace(0.0, 2.0 * math.pi, _SCAN, endpoint=False)
    r2 = _residual2(theta, tgt)
    local = np.flatnonzero((r2 <= np.roll(r2, 1)) & (r2 <= np.roll(r2, -1)))
    cells = theta[local[np.argsort(r2[local])[:_CELLS]]]
    for level in range(_LEVELS):
        grid = cells[:, None] + np.multiply(2.0 * math.pi / _SCAN / 16.0 ** level, _ZOOM)
        r2 = _residual2(grid, tgt)
        cells = grid[np.arange(len(cells)), np.argmin(r2, axis=1)]
    return math.sqrt(float(r2.min()))
