"""Independent oracles the tests compare the package against.

Everything here is deliberately dumb: power iteration instead of the closed
form, root finding through numpy's companion matrix, dense grids and
Nelder-Mead suprema instead of closed forms, completion search instead of
Gram margins.  Slow is fine; the point is that none of this shares code with
the implementation under test.
"""

from __future__ import annotations

import cmath
import decimal
import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from mublocks.bidisc import _g2_margin, g2_classify, g2_dual_check, g2_roots
from mublocks.domain_f import ShilovParamF, f_classify, f_rescale_by
from mublocks.errors import CriteriaDisagree, OptimizerNoConverge, PreconditionViolation
from mublocks.hexablock import _fibre_radius, pi_hexa
from mublocks.lie_ball import lie_ball_classify, transported_lattice
from mublocks.matrix2 import (Matrix2, _singular_values, contraction_from_rng,
                              gram_det_from_coords, gram_report, operator_norm,
                              unitary_from_rng)
from mublocks.mu import _FEASIBLE_TOL, _dot, _orthonormal
from mublocks.optimize import nelder_mead
from mublocks.pentablock import _beta_sup, _penta_radius, penta_classify, penta_dual_check
from mublocks.tetrablock import (_closure_margin, _slack_a, _tetra_margin, be_test, tetra_classify,
                                 tetra_dual_check)
from mublocks.verdict import (BAND_FACTOR, DEFAULT_TOL, MembershipVerdict, Region,
                              checked_point, classify_margin, guarded_margin, margin_code)


# ---------------------------------------------------------------------------
# Helpers that no package route calls, kept for the tests that pin them.


class DenominatorNearZero(ArithmeticError):
    """A denominator came within the hard floor of zero; the evaluation point
    is essentially on the singular set (psi_eval)."""


class InfeasibleConstraint(ValueError):
    """A linear/affine constraint set is empty (min_norm_on_affine_nm); mu's
    closed forms report an empty constraint set as status Infeasible instead."""


def verdict_from_margin(margin: float, tol: float = DEFAULT_TOL, *,
                        shilov: bool | None = None) -> MembershipVerdict:
    return MembershipVerdict(classify_margin(margin, tol), margin, tol, shilov)


def g2_point(z: complex, w: complex) -> tuple[complex, complex]:
    """Symmetrization map: (z, w) -> (z + w, z w)."""
    z = complex(z)
    w = complex(w)
    return (z + w, z * w)


def random_unitary(seed: int) -> Matrix2:
    return unitary_from_rng(random.Random(seed))


def random_contraction(seed: int) -> Matrix2:
    return contraction_from_rng(random.Random(seed))


def contraction_test(b: Matrix2, strict: bool = True) -> bool:
    """Norm test via the sign of det(I - B*B).

    Valid only under a determinant precondition: for |det B| < 1,
    ||B|| < 1  iff  det(I - B*B) > 0; for |det B| <= 1, ||B|| <= 1 iff
    det(I - B*B) >= 0.  Violating the precondition raises rather than
    returning a wrong answer.
    """
    dp = abs(b.det)
    if strict:
        if not dp < 1.0:
            raise PreconditionViolation(
                f"strict contraction test needs |det B| < 1, got {dp!r}")
        return gram_report(b).det_gram > 0.0
    if not dp <= 1.0:
        raise PreconditionViolation(
            f"non-strict contraction test needs |det B| <= 1, got {dp!r}")
    return gram_report(b).det_gram >= 0.0


def psi_sup_closed(a: complex, x1: complex, x2: complex, x3: complex) -> float:
    """The hexablock supremum |a| / R through the package's fibre radius R,
    for a != 0 and x interior to the tetrablock; inf where R is 0."""
    radius = _fibre_radius(x1, x2, x3)
    return abs(a) / radius if radius > 0.0 else math.inf


def _check_quad(pt):
    """Four complex coordinates, NaN and infinities let through."""
    return tuple(map(complex, pt))


def power_norm(m: Matrix2) -> float:
    """Operator norm via power iteration on M* M (pure python).

    Each step applies the current power H of M* M to the iterate and then
    squares H, so after k steps the iterate has seen (M* M)^(2^k - 1).  Each
    start stops once its Rayleigh quotient stops moving: plain iteration
    gains only a factor (s2/s1)^2 per step, so no fixed step count suffices
    when the singular values cluster.  Three starts, one of which always
    carries at least half of the top eigenvector.
    """
    a, b, c, d = m.a11, m.a12, m.a21, m.a22
    g11 = abs(a) ** 2 + abs(c) ** 2
    g12 = a.conjugate() * b + c.conjugate() * d
    g22 = abs(b) ** 2 + abs(d) ** 2
    best = 0.0
    for v1, v2 in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8j)):
        h11, h12, h22 = g11, g12, g22
        lam = -1.0
        for _ in range(200):
            w1 = g11 * v1 + g12 * v2
            w2 = g12.conjugate() * v1 + g22 * v2
            q = (v1.conjugate() * w1 + v2.conjugate() * w2).real
            if abs(q - lam) <= 1e-14 * q:
                break
            lam = q
            w1 = h11 * v1 + h12 * v2
            w2 = h12.conjugate() * v1 + h22 * v2
            n = math.sqrt(abs(w1) ** 2 + abs(w2) ** 2)
            if n == 0.0:
                break
            v1, v2 = w1 / n, w2 / n
            # square H and rescale it; |h12| <= max(h11, h22) since H >= 0
            h11, h12, h22 = (h11 * h11 + abs(h12) ** 2, h12 * (h11 + h22),
                             abs(h12) ** 2 + h22 * h22)
            top = max(h11, h22)
            h11, h12, h22 = h11 / top, h12 / top, h22 / top
        best = max(best, q)
    return math.sqrt(max(best, 0.0))


def svd_norm(m: Matrix2) -> float:
    return float(np.linalg.norm(np.array(m.rows(), dtype=complex), 2))


def svd_values(m: Matrix2) -> tuple[float, float]:
    s = np.linalg.svd(np.array(m.rows(), dtype=complex), compute_uv=False)
    return float(s[0]), float(s[1])


def eig_radius(m: Matrix2) -> float:
    w = np.linalg.eigvals(np.array(m.rows(), dtype=complex))
    return float(np.max(np.abs(w)))


def quad_roots(s: complex, p: complex) -> tuple[complex, complex]:
    """Roots of t^2 - s t + p via the companion matrix (no formula reuse)."""
    w = np.roots([1.0, -complex(s), complex(p)])
    return complex(w[0]), complex(w[1])


def spectral_radius_reference(m: Matrix2) -> float:
    """The discriminant form of the spectral radius, max |(t +- root)/2|
    with root = sqrt(t^2 - 4 det), which cancels where the eigenvalues are
    close relative to their size; matrix2.spectral_radius keeps their gap
    (spectral_radius_gap_reference)."""
    t = m.trace
    d = m.det
    root = cmath.sqrt(t * t - 4.0 * d)
    return max(abs((t + root) / 2.0), abs((t - root) / 2.0))


def spectral_radius_gap_reference(m: Matrix2) -> float:
    """The half-gap discriminant form of the spectral radius, max |h +-
    root| with h = (a11 + a22)/2, d = (a11 - a22)/2 and root = sqrt(d^2 +
    a12 a21), written out in one expression."""
    h, d = (m.a11 + m.a22) / 2.0, (m.a11 - m.a22) / 2.0
    root = cmath.sqrt(d * d + m.a12 * m.a21)
    return max(abs(h + root), abs(h - root))


def constraint_coeffs_reference(a: Matrix2, basis):
    """mu's constraint coefficients through Matrix2 products, as
    mu._constraint_coeffs computed them before it read raw entries:
    det(I - A X(c)) = 1 + sum_i lin[i] c_i + sum_{i<=j} quad[(i,j)] c_i c_j."""
    k = len(basis)
    lin = [-(a @ b).trace for b in basis]
    da = a.det
    quad = {}
    for i in range(k):
        bi = basis[i]
        quad[(i, i)] = da * bi.det
        for j in range(i + 1, k):
            bj = basis[j]
            mixed = (bi.a11 * bj.a22 + bj.a11 * bi.a22
                     - bi.a12 * bj.a21 - bj.a12 * bi.a21)
            quad[(i, j)] = da * mixed
    return lin, quad


def det_residual_reference(a: Matrix2, x: Matrix2) -> float:
    """|det(I - A X)| through Matrix2 products, as mu._det_residual
    computed it before it read raw entries."""
    m = Matrix2.identity() - (a @ x)
    return abs(m.det)


def roots_max_modulus(s: complex, p: complex) -> float:
    z1, z2 = quad_roots(s, p)
    return max(abs(z1), abs(z2))


def symmetrized_slack_a(z: complex, w: complex) -> float:
    """Criterion (A) slack (1 - |p|^2) - |s - conj(s) p| at (s, p) = (z + w,
    z w), expanded in the roots: s - conj(s) p = z (1 - |w|^2) + w (1 - |z|^2).
    """
    return (1.0 - abs(z * w) ** 2
            - abs(z * (1.0 - abs(w) ** 2) + w * (1.0 - abs(z) ** 2)))


def gamma_region(s: complex, p: complex, tol: float = 1e-9) -> str:
    """Interior / ClosureBoundary / Outside for the symmetrized bidisc,
    straight from the defining root moduli."""
    r = roots_max_modulus(s, p)
    if r < 1.0 - tol:
        return "Interior"
    if r > 1.0 + tol:
        return "Outside"
    return "ClosureBoundary"


# ---------------------------------------------------------------------------
# pentablock: dense-grid supremum (lower bound converging from below)


def penta_grid_sup(a: complex, s: complex, p: complex,
                   n_r: int = 400, n_phi: int = 512) -> float:
    """sup over the disc of |a|(1-|z|^2)/|1 - s z + p z^2| on a polar grid.

    Pure grid, no refinement: a lower bound for the true supremum that is
    tight for points whose maximizer is not pinched against the circle.
    """
    rr = (np.arange(n_r) + 0.5) / n_r
    ph = 2.0 * np.pi * np.arange(n_phi) / n_phi
    zz = rr[:, None] * np.exp(1j * ph)[None, :]
    den = np.abs(1.0 - s * zz + p * zz * zz)
    num = abs(a) * (1.0 - rr * rr)[:, None]
    vals = np.where(den > 1e-300, num / np.maximum(den, 1e-300), 0.0)
    return float(vals.max())


def penta_sup_points() -> list[tuple[complex, complex, complex]]:
    """50 seeded points (a, z1 + z2, z1 z2); in 15 of them |z1| lies within
    1e-6 of the unit circle, where the maximizer of the supremum hides in a
    radial spike."""
    rng = random.Random(57)
    points = []
    for i in range(50):
        r1 = 1.0 - 10.0 ** rng.uniform(-9.0, -6.0) if i % 10 < 3 \
            else rng.uniform(0.0, 0.95)
        z1 = cmath.rect(r1, rng.uniform(0.0, 2.0 * math.pi))
        z2 = cmath.rect(rng.uniform(0.0, 0.95), rng.uniform(0.0, 2.0 * math.pi))
        a = cmath.rect(rng.uniform(0.1, 2.0), rng.uniform(0.0, 2.0 * math.pi))
        points.append((a, z1 + z2, z1 * z2))
    return points


def penta_sup_numeric(pt, tol: float = 1e-8) -> float:
    """sup over the open unit disc of |a (1 - |z|^2) / (1 - s z + p z^2)|.

    The numeric route that penta_sup's closed form |a| / penta_radius(s, p)
    replaced, kept as its reference.  Strategy: vectorized 64 x 128 polar
    grid, plus radial scans along the directions conj(root)/|root| where the
    denominator degenerates (near the bidisc boundary the maximizer hides in
    an angular spike narrower than any fixed grid), then Nelder-Mead
    refinement from the best starts.
    """
    a, s, p = checked_point(pt, ("a", "s", "p"))
    if g2_classify((s, p)).region is Region.OUTSIDE:
        raise PreconditionViolation(
            f"(s, p) must lie in the closed bidisc domain, got ({s!r}, {p!r})")
    if a == 0:
        return 0.0

    am = abs(a)

    def val(r: float, phi: float) -> float:
        z = complex(r * math.cos(phi), r * math.sin(phi))
        den = abs(1.0 - s * z + p * z * z)
        if den < 1e-300:
            return 0.0
        return am * (1.0 - r * r) / den

    def neg_cartesian(q) -> float:
        zr, zi = q
        r2 = zr * zr + zi * zi
        if r2 >= 1.0:
            return 0.0  # objective vanishes on the circle; flat outside
        z = complex(zr, zi)
        den = abs(1.0 - s * z + p * z * z)
        if den < 1e-300:
            return 0.0
        return -am * (1.0 - r2) / den

    # stage 1: product grid (radii at cell midpoints reach 0.992)
    n_r, n_phi = 64, 128
    rr = (np.arange(n_r) + 0.5) / n_r
    ph = 2.0 * np.pi * np.arange(n_phi) / n_phi
    zz = rr[:, None] * np.exp(1j * ph)[None, :]
    den = np.abs(1.0 - s * zz + p * zz * zz)
    num = am * (1.0 - rr * rr)[:, None]
    vals = np.where(den > 1e-300, num / np.maximum(den, 1e-300), 0.0)
    flat = int(np.argmax(vals))
    i0, j0 = divmod(flat, n_phi)
    starts = [(float(rr[i0]), float(ph[j0]))]

    # stage 2: radial scans toward each denominator root direction -- near
    # the bidisc boundary the maximizer sits in an angular spike narrower
    # than the grid step
    for lam in g2_roots((s, p)):
        if abs(lam) > 1e-8:
            phi_r = -math.atan2(lam.imag, lam.real)
            best_t, best_v = 0.0, -1.0
            for t in 1.0 - np.geomspace(1e-9, 1.0, 200):
                v = val(float(t), phi_r)
                if v > best_v:
                    best_t, best_v = float(t), v
            starts.append((best_t, phi_r))

    # stage 3: Nelder-Mead in Cartesian coordinates from each start.  The
    # value tolerance is scaled by the magnitude seen so far: the objective
    # carries relative round-off of a few 1e-12, which an absolute fatol
    # could never beat on large suprema.
    best = float(vals[i0, j0])
    scale = max(1.0, best)
    for (r, phi) in starts:
        scale = max(scale, val(r, phi))
    fatol = max(tol * 1e-3, 1e-10 * scale)
    for (r, phi) in starts:
        x0 = [r * math.cos(phi), r * math.sin(phi)]
        h = min(0.5 * (1.0 - r) + 1e-6, 1.0 / n_r)
        q, fq, _, ok = nelder_mead(neg_cartesian, x0, step=h,
                                   xatol=tol * 1e-2, fatol=fatol,
                                   maxiter=2000)
        if not ok:
            q, fq, _, ok = nelder_mead(neg_cartesian, q, step=tol * 100,
                                       xatol=tol * 1e-2, fatol=fatol,
                                       maxiter=2000)
            if not ok:
                raise OptimizerNoConverge(
                    f"pentablock supremum refinement stalled at {pt!r} "
                    f"(start r={r!r}, phi={phi!r}, value {-fq!r})")
        best = max(best, -fq)
    return best


# ---------------------------------------------------------------------------
# hexablock: the fractional map at a probe, and the product-grid supremum
# that hexablock.psi_sup's closed form is held against.


@dataclass(frozen=True)
class PsiProbe:
    z1: complex
    z2: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "z1", complex(self.z1))
        object.__setattr__(self, "z2", complex(self.z2))
        if abs(self.z1) >= 1.0 or abs(self.z2) >= 1.0:
            raise PreconditionViolation(
                f"probe must lie in the open bidisc, got {self!r}")


def psi_eval(q: PsiProbe, pt) -> complex:
    """Evaluate the fractional map at the probe.  Requires the tetrablock
    part strictly interior (then the denominator is bounded away from 0)."""
    a, x1, x2, x3 = _check_quad(pt)
    if not tetra_classify((x1, x2, x3)).is_interior:
        raise PreconditionViolation(
            f"(x1, x2, x3) must be interior in the tetrablock, got {pt!r}")
    den = 1.0 - x1 * q.z1 - x2 * q.z2 + x3 * q.z1 * q.z2
    if abs(den) < 1e-14:
        raise DenominatorNearZero(f"denominator {den!r} at probe {q!r}, point {pt!r}")
    num = a * math.sqrt((1.0 - abs(q.z1) ** 2) * (1.0 - abs(q.z2) ** 2))
    return num / den


def psi_sup_grid(pt, tol: float = 1e-7) -> float:
    """Independent numeric supremum: product polar grid (32 radii x 64 angles
    per disc, radii biased toward 0 -- the numerator dies at the torus), then
    Nelder-Mead refinement from the best 5 cells."""
    a, x1, x2, x3 = _check_quad(pt)
    if not tetra_classify((x1, x2, x3)).is_interior:
        raise PreconditionViolation(
            f"(x1, x2, x3) must be interior in the tetrablock, got {pt!r}")
    if a == 0:
        return 0.0
    am = abs(a)

    n_r, n_phi = 32, 64
    rr = ((np.arange(n_r) + 0.5) / n_r) ** 1.5
    ph = 2.0 * np.pi * np.arange(n_phi) / n_phi
    disc_pts = (rr[:, None] * np.exp(1j * ph)[None, :]).ravel()   # 2048 points
    w = (1.0 - np.abs(disc_pts) ** 2)

    best_vals: list[tuple[float, complex, complex]] = []
    chunk = 256
    for i0 in range(0, disc_pts.size, chunk):
        z1 = disc_pts[i0:i0 + chunk][:, None]
        den = np.abs(1.0 - x1 * z1 - x2 * disc_pts[None, :]
                     + x3 * z1 * disc_pts[None, :])
        num = am * np.sqrt(w[i0:i0 + chunk][:, None] * w[None, :])
        v = num / np.maximum(den, 1e-300)
        flat = int(np.argmax(v))
        r, cidx = divmod(flat, disc_pts.size)
        best_vals.append((float(v[r, cidx]), complex(z1[r, 0]), complex(disc_pts[cidx])))
    best_vals.sort(key=lambda t: -t[0])
    starts = best_vals[:5]

    def neg(qv) -> float:
        u1, v1, u2, v2 = qv
        r1sq = u1 * u1 + v1 * v1
        r2sq = u2 * u2 + v2 * v2
        if r1sq >= 1.0 or r2sq >= 1.0:
            return 0.0
        den = abs(1.0 - x1 * complex(u1, v1) - x2 * complex(u2, v2)
                  + x3 * complex(u1, v1) * complex(u2, v2))
        if den < 1e-300:
            return 0.0
        return -am * math.sqrt((1.0 - r1sq) * (1.0 - r2sq)) / den

    best = starts[0][0]
    fatol = max(tol * 1e-3, 1e-10 * max(1.0, best))
    for (_, z1s, z2s) in starts:
        x0 = [z1s.real, z1s.imag, z2s.real, z2s.imag]
        q, fq, _, ok = nelder_mead(neg, x0, step=0.03,
                                   xatol=tol * 1e-2, fatol=fatol, maxiter=2500)
        if not ok:
            q, fq, _, ok = nelder_mead(neg, q, step=tol * 100,
                                       xatol=tol * 1e-2, fatol=fatol, maxiter=2500)
            if not ok:
                raise OptimizerNoConverge(
                    f"grid supremum refinement stalled at {pt!r}, value {-fq!r}")
        best = max(best, -fq)
    return best


def psi_sup_critical_radius(a: complex, x1: complex, x2: complex,
                            x3: complex) -> float:
    """The supremum through the critical radius r*: the root of m r^2 -
    (c+d) r + m = 0 in [0, 1), at which the ray ratio (1 - r^2) / (c - 2 m r
    + d r^2) is evaluated.  For a != 0 and x interior to the tetrablock.
    hexablock's closed form skips r*; this route keeps it, with its guards,
    so that mu_upper_hexablock_oracle stays independent of the value
    mu._mu_upper derives."""
    c = 1.0 - abs(x2) ** 2
    d = abs(x1) ** 2 - abs(x3) ** 2
    m = abs(x1 - x2.conjugate() * x3)
    if m == 0.0:
        return abs(a) / math.sqrt(c)
    disc = max((c + d) ** 2 - 4.0 * m * m, 0.0)
    den = (c + d) + math.sqrt(disc)
    if den == 0.0:  # c + d = 0 < m: x reads interior only through rounding
        return float("inf")
    rstar = 2.0 * m / den
    dmin = c - 2.0 * m * rstar + d * rstar * rstar
    if dmin <= 1e-300:
        return float("inf")
    return abs(a) * math.sqrt(max(1.0 - rstar * rstar, 0.0) / dmin)


def _fibre_factor(x1: complex, x2: complex, x3: complex) -> float:
    """k = 1/R = sqrt(2 / den), the form the package used before it held
    the fibre radius R itself; inf where den <= 0."""
    c = 1.0 - abs(x2) ** 2
    d = abs(x1) ** 2 - abs(x3) ** 2
    m = abs(x1 - x2.conjugate() * x3)
    den = (c - d) + math.sqrt(max((c + d) ** 2 - 4.0 * m * m, 0.0))
    return math.sqrt(2.0 / den) if den > 0.0 else math.inf


def psi_sup_closed_reference(a: complex, x1: complex, x2: complex,
                             x3: complex) -> float:
    """|a| sqrt(2 / den) through the k form, for a != 0 and x interior to
    the tetrablock; inf where den <= 0."""
    return abs(a) * _fibre_factor(x1, x2, x3)


def hexa_cell_reference(x, tol: float) -> tuple[int, float]:
    """hexa_classify's (code, margin) at checked x in one pass over the whole
    point, with no base/fibre split, under the earlier band rule, which gave
    the band its own code 9 and later code 1 (ClosureBoundary); the package
    now agrees with it only off the band, where a = 0 or |t| > tol: the
    guarded tetrablock margin t; the band (code 9) where a != 0, |t| <= tol
    and |a| <= 1 + tol;
    else t at a = 0 or off the band's upper side, min(t, 1 - sup) above it
    (-1 where sup is inf) and min(t, 1 - |a|) in it, -inf past the floats."""
    a, x1, x2, x3 = x
    t = guarded_margin(_tetra_margin, x1, x2, x3)
    room = guarded_margin(lambda: (1.0 + tol) - abs(a))
    if a != 0 and not abs(t) > tol and room >= 0.0:
        return 9, min(t, max(-tol, min(tol, 1.0 - abs(a))))

    def margin():
        if a == 0:
            return t
        if t > tol:
            sup = psi_sup_closed_reference(a, x1, x2, x3)
            return -1.0 if sup == math.inf else min(t, 1.0 - sup)
        return t if t < -tol else min(t, 1.0 - abs(a))
    value = guarded_margin(margin)
    return margin_code(value, tol), value


def hartogs_cell_reference(x, tol: float, margin, radius) -> tuple[int, float]:
    """A Hartogs domain's (code, margin) at checked x in one pass over the
    whole point, with no base/fibre split: the guarded base margin t =
    margin(*x[1:]), alone below -tol, else min(t, radius(*x[1:]) - |x[0]|)
    under the overflow guard."""
    a, *y = x
    t = guarded_margin(margin, *y)
    value = t if t < -tol else min(t, guarded_margin(lambda: radius(*y) - abs(a)))
    return margin_code(value, tol), value


def penta_dual_reference(x, tol: float) -> tuple[float, Optional[float]]:
    """(penta_classify's margin, penta_dual_check's answer) at checked x in
    one pass over the whole point: the guarded bidisc margin, alone below
    -tol, else its min with the guarded critical-radius slack; the beta-form
    supremum where the bidisc margin is above tol and the slack outside the
    guard band, raising CriteriaDisagree where the two routes split."""
    a, s, p = x
    g2 = guarded_margin(_g2_margin, s, p)
    if g2 < -tol:
        return g2, None
    slack = guarded_margin(lambda: _penta_radius(s, p) - abs(a))
    margin = min(g2, slack)
    if not g2 > tol or abs(slack) <= BAND_FACTOR * max(tol, 1e-7) or slack == -math.inf:
        return margin, None
    sup = _beta_sup(a, s, p)
    if (sup < 1.0) != (slack > 0.0):
        raise CriteriaDisagree(f"split at {x!r}")
    return margin, sup


def hexa_points(rng: random.Random, n: int) -> list:
    """n seeded hexablock points (a, x1, x2, x3), a quarter of each kind:
    projections of contractions, of contractions rescaled to norm
    1 - 10^-U(3, 16) and of unitaries times 1 - 10^-U(6, 16) (the last two
    next to the boundary of the tetrablock), and Gaussian boxes."""
    pts = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            pts.append(pi_hexa(contraction_from_rng(rng)))
        elif kind == 1:
            b = contraction_from_rng(rng)
            t = 1.0 - 10.0 ** -rng.uniform(3.0, 16.0)
            pts.append(pi_hexa(b.scale(t / svd_norm(b))))
        elif kind == 2:
            t = 1.0 - 10.0 ** -rng.uniform(6.0, 16.0)
            pts.append(pi_hexa(unitary_from_rng(rng).scale(t)))
        else:
            pts.append(tuple(complex(rng.gauss(0.0, 0.8), rng.gauss(0.0, 0.8))
                             for _ in range(4)))
    return pts


def psi_sup_decimal(a: complex, x1: complex, x2: complex, x3: complex,
                    digits: int = 50) -> Optional[float]:
    """hexablock's closed form |a| sqrt(2 / den), den = (c - d) + sqrt((c +
    d)^2 - 4 m^2), evaluated at `digits` digits on the exact binary values
    of the inputs; None where the radicand is negative or den <= 0."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        (ar, ai), (r1, i1), (r2, i2), (r3, i3) = (
            (decimal.Decimal(z.real), decimal.Decimal(z.imag))
            for z in (complex(a), complex(x1), complex(x2), complex(x3)))
        c = 1 - (r2 * r2 + i2 * i2)
        d = (r1 * r1 + i1 * i1) - (r3 * r3 + i3 * i3)
        # x1 - conj(x2) x3
        wr = r1 - (r2 * r3 + i2 * i3)
        wi = i1 - (r2 * i3 - i2 * r3)
        disc = (c + d) ** 2 - 4 * (wr * wr + wi * wi)
        if disc < 0:
            return None
        den = (c - d) + disc.sqrt()
        if den <= 0:
            return None
        return float((ar * ar + ai * ai).sqrt() * (2 / den).sqrt())


def spectral_radius_decimal(m: Matrix2, digits: int = 50) -> float:
    """The largest eigenvalue modulus of m, max |h +- sqrt(d^2 + a12 a21)|
    with h and d the half sum and half difference of the diagonal, at
    `digits` digits on the exact binary values of the entries; the complex
    root by its half-angle real and imaginary parts."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        (r11, i11), (r12, i12), (r21, i21), (r22, i22) = (
            (decimal.Decimal(z.real), decimal.Decimal(z.imag)) for z in m.entries())
        hr, hi = (r11 + r22) / 2, (i11 + i22) / 2
        dr, di = (r11 - r22) / 2, (i11 - i22) / 2
        er = dr * dr - di * di + r12 * r21 - i12 * i21   # d^2 + a12 a21
        ei = 2 * dr * di + r12 * i21 + i12 * r21
        mod = (er * er + ei * ei).sqrt()
        sr, si = ((mod + er) / 2).sqrt(), ((mod - er) / 2).sqrt().copy_sign(ei)
        return float(max(((hr + sr) ** 2 + (hi + si) ** 2).sqrt(),
                         ((hr - sr) ** 2 + (hi - si) ** 2).sqrt()))


def hn_norm_decimal(a: complex, x1: complex, x2: complex, x3: complex,
                    digits: int = 50) -> Optional[float]:
    """sigma1 of the unique matrix [[x1, t], [a, x2]], t = (x1 x2 - x3)/a,
    over a point of the normed hexablock, at `digits` digits on the exact
    binary values of the inputs: t by complex division, then the top
    eigenvalue of B*B as mid + hypot(half-difference, |off-diagonal|).
    None at a = 0, where no matrix is unique."""
    if complex(a) == 0:
        return None
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        (ar, ai), (r1, i1), (r2, i2), (r3, i3) = (
            (decimal.Decimal(z.real), decimal.Decimal(z.imag))
            for z in (complex(a), complex(x1), complex(x2), complex(x3)))
        # w = x1 x2 - x3, t = w conj(a) / |a|^2
        wr, wi = r1 * r2 - i1 * i2 - r3, r1 * i2 + i1 * r2 - i3
        a2 = ar * ar + ai * ai
        tr, ti = (wr * ar + wi * ai) / a2, (wi * ar - wr * ai) / a2
        h11 = r1 * r1 + i1 * i1 + a2
        h22 = tr * tr + ti * ti + r2 * r2 + i2 * i2
        # h12 = conj(x1) t + conj(a) x2
        hr = r1 * tr + i1 * ti + ar * r2 + ai * i2
        hi = r1 * ti - i1 * tr + ar * i2 - ai * r2
        half = (h11 - h22) / 2
        top = (h11 + h22) / 2 + (half * half + hr * hr + hi * hi).sqrt()
        return float(top.sqrt())


# ---------------------------------------------------------------------------
# tetrablock: completion search.  x is in the closed set iff some matrix with
# diagonal (x1, x2) and determinant x3 has norm <= 1; the off-diagonal product
# is forced to x1 x2 - x3 and the min-norm completion is found by brute scan
# over the free off-diagonal entry.


def completion_min_norm(x1: complex, x2: complex, x3: complex) -> float:
    q = x1 * x2 - x3
    if q == 0:
        return power_norm(Matrix2(x1, 0.0, 0.0, x2))
    mags = np.geomspace(1e-3, 1e3, 97)
    phases = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False))
    best, t0, ph0 = math.inf, 1.0, 1.0 + 0j
    for t in mags:
        for ph in phases:
            v = power_norm(Matrix2(x1, t * ph, q / (t * ph), x2))
            if v < best:
                best, t0, ph0 = v, float(t), complex(ph)
    # golden refinement in |b| along the best phase direction
    lo, hi = t0 / 1.6, t0 * 1.6
    for _ in range(60):
        m1 = lo + (hi - lo) * 0.382
        m2 = lo + (hi - lo) * 0.618
        v1 = power_norm(Matrix2(x1, m1 * ph0, q / (m1 * ph0), x2))
        v2 = power_norm(Matrix2(x1, m2 * ph0, q / (m2 * ph0), x2))
        if v1 < v2:
            hi = m2
        else:
            lo = m1
        best = min(best, v1, v2)
    return best


def tetra_margin_reference(x1: complex, x2: complex, x3: complex) -> float:
    """tetrablock._tetra_margin as it was composed: the (A)-slack and the
    closure legs, each computing x1 x2 - x3 and |x1|^2 itself."""
    return min(_slack_a(x1, x2, x3), _closure_margin(x1, x2, x3))


def lie_ball_moduli_reference(zs) -> tuple[float, float]:
    """lie_ball._moduli as it was: sum |z_j|^2 and |sum z_j^2| through sum(),
    which Python 3.12 and later compensate for floats."""
    return sum(abs(v) ** 2 for v in zs), abs(sum(v * v for v in zs))


def lie_ball_margin_reference(*zs: complex, moduli=lie_ball_moduli_reference) -> float:
    """lie_ball._lie_ball_margin as it was composed: criterion (A)'s two legs
    on the moduli of zs, by default those of lie_ball_moduli_reference."""
    norm2, bullet = moduli(zs)
    return min(1.0 - norm2, 1.0 - (2.0 * norm2 - bullet * bullet))


def f_margin_reference(x: complex, a: complex, p: complex, s: complex) -> float:
    """domain_f._f_margin as it was composed: the bidisc kernel at (s, ax - p),
    1 - |p| and the Gram determinant, each forming its own moduli."""
    return min(_g2_margin(s, a * x - p), 1.0 - abs(p), gram_det_from_coords(x, a, p, s))


def kernel_outcome(kernel, *args) -> str:
    """repr of kernel(*args), or "OverflowError" where a square passes the floats."""
    try:
        return repr(kernel(*args))
    except OverflowError:
        return "OverflowError"


def mixed_scale_coordinate(rng: random.Random) -> complex:
    """A zero of either sign in each part, a point of modulus about 1, one of
    modulus 2^-500 to 2^500, or one whose square passes the floats."""
    k = rng.random()
    if k < 0.1:
        return complex(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)))
    scale = (1.0 if k < 0.4 else 2.0 ** rng.randint(-500, 500) if k < 0.9
             else 2.0 ** rng.randint(512, 600))
    return complex(rng.gauss(0.0, 1.0) * scale if rng.random() < 0.9 else rng.choice((0.0, -0.0)),
                   rng.gauss(0.0, 1.0) * scale if rng.random() < 0.9 else rng.choice((0.0, -0.0)))


def tetra_closure_oracle(x1: complex, x2: complex, x3: complex,
                         tol: float = 1e-4) -> str:
    """Interior / Outside by completion search; only trustworthy away from
    the boundary (the scan resolves the minimum to ~1e-4)."""
    m = completion_min_norm(x1, x2, x3)
    if m < 1.0 - tol:
        return "Interior"
    if m > 1.0 + tol:
        return "Outside"
    return "ClosureBoundary"


def tetra_classify_delegated(pt, tol: float = 1e-9) -> MembershipVerdict:
    """The earlier tetrablock route: min of the (A)-slack and the verdict
    margin of the four-coordinate domain at (x1, x2, x3, 0), whose closure
    is the closed tetrablock.  tetra_classify writes those legs out in place
    and must match this route bitwise."""
    x1, x2, x3 = (complex(v) for v in pt)
    ca = 1.0 - (abs(x1) ** 2 + abs(x2 - x1.conjugate() * x3) + abs(x1 * x2 - x3))
    margin = min(ca, f_classify((x1, x2, x3, 0.0), tol).margin)
    shilov = None
    if classify_margin(margin, tol) is Region.CLOSURE_BOUNDARY:
        shilov = be_test(pt, tol)
    return verdict_from_margin(margin, tol, shilov=shilov)


# ---------------------------------------------------------------------------
# verification suites: a projection leg as two public calls per domain, its
# classifier and then its dual check, which verify._projection_legs reads
# from one pass of each domain's dual kernel.


def projection_legs_reference(rel, tol: float = 1e-9):
    """(name, region, margin) of the g2, tetra and penta projections of an
    F point, each read from its public classifier and then held to its
    public dual check."""
    legs = (("g2", g2_classify(rel.g2, tol)),
            ("tetra", tetra_classify(rel.tetra, tol)),
            ("penta", penta_classify(rel.penta, tol)))
    g2_dual_check(rel.g2, tol)
    tetra_dual_check(rel.tetra, tol)
    penta_dual_check(rel.penta, tol)
    return tuple((name, v.region, v.margin) for name, v in legs)


# ---------------------------------------------------------------------------
# four-coordinate domain: the Minkowski gauge by bisection on membership,
# which domain_f.minkowski_gauge's norm of the matrix over the point is
# held against.


def minkowski_gauge_bisect(pt, tol: float = 1e-9) -> float:
    """inf{t > 0 : (x/t, a/t, p/t^2, s/t) interior}, by bracketing bisection.

    0 at the origin; < 1 iff interior; 1 on distinguished-boundary points.
    """
    x, a, p, s = _check_quad(pt)
    if x == 0 and a == 0 and p == 0 and s == 0:
        return 0.0

    # Exact-sign membership (tol 0): the banded verdict would bias the
    # crossing by band^(1/k) at boundary points of tangency order k.
    def inside(t: float) -> bool:
        return f_classify(f_rescale_by(pt, t), 0.0).is_interior

    hi = 1.0
    for _ in range(60):
        if inside(hi):
            break
        hi *= 2.0
    else:
        raise OptimizerNoConverge(f"no interior bracket above for {pt!r}")
    lo = hi
    for _ in range(60):
        lo *= 0.5
        if not inside(lo):
            break
    else:
        raise OptimizerNoConverge(f"no exterior bracket below for {pt!r}")
    # invariant: inside(hi), not inside(lo); the inside set is an up-ray in t
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# mu oracles


def mu_full_oracle(m: Matrix2) -> float:
    return svd_norm(m)


def mu_scalar_oracle(m: Matrix2) -> float:
    return eig_radius(m)


def _least_inside_scale(inside, bits: int) -> float:
    """The least t with inside(t), for a predicate true exactly above it:
    doubled or halved from 1 to a bracket, then bisected to adjacent
    floats; 0.0 when inside fails up to 1e12."""
    hi = 1.0
    while not inside(hi):
        hi *= 2.0
        if hi > 1e12:
            return 0.0
    lo = hi / 2.0 if hi > 1.0 else 0.0
    while lo > 0.0 and inside(lo):
        lo /= 2.0
    for _ in range(bits):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if inside(mid):
            hi = mid
        else:
            lo = mid
    return hi


def mu_diag_gauge_oracle(m: Matrix2, bits: int = 200) -> float:
    """mu for the diagonal structure by bisection on the scaling t such that
    pi_tetra(A / t) leaves the open tetrablock.

    Uses the package's tetrablock test, but none of the mu machinery: it is a
    dual route, not a fully external oracle.
    """
    from mublocks.tetrablock import pi_tetra, tetra_classify

    def inside(t: float) -> bool:
        pt = pi_tetra(m.scale(1.0 / t))
        return tetra_classify(pt, 1e-15).is_interior

    return _least_inside_scale(inside, bits)


def mu_upper_hexablock_oracle(m: Matrix2) -> float:
    """mu for the upper-triangular structure by bisection on the scaling t
    such that (a21, a11, a22, det A) / (t, t, t, t^2) leaves the open
    hexablock.

    Uses the package's tetrablock test and the critical-radius supremum
    psi_sup_critical_radius (called directly, as psi_sup's own tetrablock
    check has a wider band), but none of the mu machinery: it is a dual
    route, not a fully external oracle.
    """
    from mublocks.tetrablock import pi_tetra, tetra_classify

    def inside(t: float) -> bool:
        b = m.scale(1.0 / t)
        x = pi_tetra(b)
        return (tetra_classify(x, 1e-15).is_interior
                and (b.a21 == 0 or psi_sup_critical_radius(b.a21, *x) < 1.0))

    return _least_inside_scale(inside, 200)


def mu_diag_dscale_oracle(m: Matrix2) -> float:
    """mu for the diagonal structure as the D-scaling bound
    inf_{d > 0} ||diag(d, 1) A diag(1/d, 1)||, minimized numerically.

    numpy's SVD on a 1601-point grid in log d over [-40, 40], then a golden
    section on the bracketing cells.  It never forms the balanced matrix, so
    it shares no formula with the closed form under test; when a12 a21 = 0
    the infimum is approached at the grid's end, within e^-40 of the limit.
    """
    a = np.array(m.rows(), dtype=complex)

    def bound(log_d: float) -> float:
        d = math.exp(log_d)
        scaled = np.array([[a[0, 0], a[0, 1] * d], [a[1, 0] / d, a[1, 1]]])
        return float(np.linalg.norm(scaled, 2))

    grid = np.linspace(-40.0, 40.0, 1601)
    vals = [bound(g) for g in grid]
    i = int(np.argmin(vals))
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(120):
        c, d = hi - g * (hi - lo), lo + g * (hi - lo)
        if bound(c) < bound(d):
            hi = d
        else:
            lo = c
    return min(bound(0.5 * (lo + hi)), vals[i])


# ---------------------------------------------------------------------------
# misc


def random_complex(rng, scale: float = 1.0) -> complex:
    return complex(rng.gauss(0.0, scale), rng.gauss(0.0, scale))


def lie_norm(z) -> float:
    """The norm whose open unit ball is the type-IV domain:
    N(z)^2 = ||z||^2 + sqrt(||z||^4 - |z.z|^2)."""
    arr = np.asarray(z, dtype=complex)
    n2 = float(np.sum(np.abs(arr) ** 2))
    zz = complex(np.sum(arr * arr))
    inner = max(n2 * n2 - abs(zz) ** 2, 0.0)
    return math.sqrt(n2 + math.sqrt(inner))


def lie_ball_region_oracle(z, tol: float = 1e-9) -> str:
    n = lie_norm(z)
    if n < 1.0 - tol:
        return "Interior"
    if n > 1.0 + tol:
        return "Outside"
    return "ClosureBoundary"


def _image_from_params(theta: float, u1: float, u2: float, u3: float,
                       u4: float):
    """Transported boundary point for free parameters: (u1..u4) is an
    unnormalized direction projected onto the unit 3-sphere.  Unlike a radial
    clamp of (x2, x3, x4) into the ball, this chart is smooth everywhere away
    from u = 0, so local refinement does not stall when the optimum has a
    vanishing first sphere coordinate."""
    n = math.sqrt(u1 * u1 + u2 * u2 + u3 * u3 + u4 * u4)
    if n < 1e-12:
        return (complex("inf"), 0.0, 0.0, 0.0)
    y2, y3, y4 = u2 / n, u3 / n, u4 / n
    w = cmath.exp(1j * theta)
    return (w * complex(y3, y4),
            -w * complex(y3, -y4),
            -(w * w),
            2.0 * w * y2)


def transport_distance_nm_oracle(target, lattice=None) -> float:
    """Distance from `target` to the transported distinguished boundary by
    brute force: nearest point of a 10k forward lattice, then two
    Nelder-Mead passes over (theta, u1..u4) with a scale-pin penalty.
    Pass `lattice = transported_lattice(10_000)` to reuse one across calls."""
    tgt = np.asarray([complex(v) for v in target])
    if lattice is None:
        lattice = transported_lattice(10_000)
    (theta, x1, x2, x3, x4), pts = lattice
    d2 = np.abs(np.asarray(pts) - tgt[None, :]) ** 2
    dist2 = d2.sum(axis=1)
    k = int(np.argmin(dist2))
    best = math.sqrt(float(dist2[k]))

    def obj(q) -> float:
        img = _image_from_params(q[0], q[1], q[2], q[3], q[4])
        if img[0] == complex("inf"):
            return 1e6
        d = sum((img[i].real - tgt[i].real) ** 2
                + (img[i].imag - tgt[i].imag) ** 2 for i in range(4))
        n = math.sqrt(q[1] ** 2 + q[2] ** 2 + q[3] ** 2 + q[4] ** 2)
        # the image is scale-invariant in (u1..u4); pin the scale without
        # biasing the minimal distance (the extra term vanishes at n = 1)
        return d + 1e-3 * (n - 1.0) ** 2

    x0 = [float(theta[k]), float(x1[k]), float(x2[k]), float(x3[k]),
          float(x4[k])]
    q, fq, _, _ = nelder_mead(obj, x0, step=0.15, xatol=1e-12, fatol=1e-24,
                              maxiter=2000)
    q, fq, _, _ = nelder_mead(obj, list(q), step=0.01, xatol=1e-13,
                              fatol=1e-26, maxiter=2000)
    img = _image_from_params(q[0], q[1], q[2], q[3], q[4])
    refined = math.sqrt(sum(abs(img[i] - tgt[i]) ** 2 for i in range(4)))
    return min(best, refined)


# ---------------------------------------------------------------------------
# nearest_transport_distance as it was on numpy, kept verbatim with its
# constants and _ball_minimizer: the plain-Python closed form and scan are
# held to it within 1e-14 absolute.

_H_REF = np.array([4.0, 2.0, 2.0])   # curvatures of the rotated distance in y
# angle search: 1024-point scan, then ten 16x zooms on its best 3 local minima
_SCAN_REF, _CELLS_REF, _LEVELS_REF = 1024, 3, 10
_ZOOM_REF = np.array([k / 16.0 for k in range(-16, 17)])


def _transported_reference(w, y2, y3, y4):
    """(w (y3 + i y4), -w (y3 - i y4), -w^2, 2 w y2) on a new last axis."""
    return np.stack((w * (y3 + 1j * y4), -w * (y3 - 1j * y4), -(w * w),
                     2.0 * w * y2), axis=-1)


def _ball_minimizer_reference(g):
    """argmin over |y| <= 1 of sum_i h_i (y_i - g_i)^2 for (..., 3) centres g.
    Outside the ball y = h g / (h + lam): Newton on the concave, increasing
    1/||y(lam)|| - 1 climbs from lam = 0 without overshoot (h > 0: no hard case)."""
    y = g.copy()
    outside = (g * g).sum(axis=-1) > 1.0
    hg = _H_REF * g[outside]
    lam = np.zeros((len(hg), 1))
    for _ in range(50):
        q = hg / (_H_REF + lam)
        n2 = (q * q).sum(axis=-1, keepdims=True)
        step = n2 * (np.sqrt(n2) - 1.0) / (q * q / (_H_REF + lam)).sum(axis=-1, keepdims=True)
        lam = lam + step
        if not (step > 1e-15 * (lam + 2.0)).any():
            break
    y[outside] = hg / (_H_REF + lam)
    return y


def nearest_transport_distance_reference(target) -> float:
    """Distance from `target` (4 finite complex numbers) to the transported
    set {(w (y3 + i y4), -w (y3 - i y4), -w^2, 2 w y2): |w| = 1, |y| <= 1}.

    With A = conj(w) t1, B = -conj(w) t2, T = conj(w) t4 the squared distance
    is 4 (y2 - Re T/2)^2 + 2 |y3 + i y4 - (A + conj B)/2|^2 + c(w): at fixed w
    a trust-region subproblem with a one-variable secular equation (More and
    Sorensen, SIAM J. Sci. Stat. Comput. 4 (1983)), so only w is searched.
    """
    tgt = np.asarray([complex(v) for v in target])
    if len(tgt) != 4 or not np.isfinite(tgt).all():
        raise PreconditionViolation(f"target must be 4 finite coordinates, got {target!r}")

    def residual2(theta):
        # measured from the nearest point itself: the expanded quadratic
        # cancels to ~1e-12 on boundary targets
        w = np.exp(1j * theta)
        c = 0.5 * (w.conj() * tgt[0] - w * tgt[1].conjugate())
        y = _ball_minimizer_reference(np.stack(((0.5 * w.conj() * tgt[3]).real, c.real, c.imag), -1))
        return (np.abs(_transported_reference(w, y[..., 0], y[..., 1], y[..., 2]) - tgt) ** 2).sum(-1)

    theta = np.linspace(0.0, 2.0 * math.pi, _SCAN_REF, endpoint=False)
    r2 = residual2(theta)
    local = np.flatnonzero((r2 <= np.roll(r2, 1)) & (r2 <= np.roll(r2, -1)))
    cells = theta[local[np.argsort(r2[local])[:_CELLS_REF]]]
    for level in range(_LEVELS_REF):
        grid = cells[:, None] + (2.0 * math.pi / _SCAN_REF / 16.0 ** level) * _ZOOM_REF
        r2 = residual2(grid)
        cells = grid[np.arange(len(cells)), np.argmin(r2, axis=1)]
    return math.sqrt(float(r2.min()))


# The least-norm mapper as mu computed it before its closed form: seeded
# multistart Nelder-Mead over the nullspace coordinates, kept verbatim.
# rigidity_check ran it with starts=10 and rng=random.Random(0x5EED), the
# certificate probe with the defaults.
def min_norm_on_affine_nm(structure, m: np.ndarray, rhs: np.ndarray,
                          starts: int = 1, rng: Optional[random.Random] = None,
                          polish: bool = True):
    """Minimize the operator norm of X(c) over {c : m c = rhs}.

    Returns (norm, c) or raises InfeasibleConstraint when the affine set is
    empty.  The least-squares particular solution is polished by descent over
    the complex nullspace coordinates.  The norm is convex in c, but its
    minimum typically sits where the two singular values coincide — a kink —
    so with `polish` the simplex search is restarted at the incumbent with
    shrinking steps to recover the digits lost to stagnation.
    """
    c0, _, _, _ = np.linalg.lstsq(m, rhs, rcond=None)
    scale = max(1.0, float(np.abs(rhs).max()))
    if np.abs(m @ c0 - rhs).max() > 1e-9 * scale:
        raise InfeasibleConstraint("affine constraint set is empty")
    u, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > 1e-12 * max(float(s[0]), 1e-300)))
    null = vh[rank:].conj().T  # k x (k - rank)
    nd = null.shape[1]
    x0 = structure.entries_at(c0)
    norm0 = _singular_values(*x0)[0]
    if nd == 0:
        return norm0, c0
    null_entries = [structure.entries_at(null[:, j]) for j in range(nd)]

    def norm_at(t) -> float:
        x11, x12, x21, x22 = x0
        for j, (n11, n12, n21, n22) in enumerate(null_entries):
            cj = complex(t[2 * j], t[2 * j + 1])
            x11 += cj * n11
            x12 += cj * n12
            x21 += cj * n21
            x22 += cj * n22
        return _singular_values(x11, x12, x21, x22)[0]

    step = 0.5 * max(1.0, norm0)
    best_t, best_f = [0.0] * (2 * nd), norm_at([0.0] * (2 * nd))
    trials = [[0.0] * (2 * nd)]
    if rng is not None:
        for _ in range(max(0, starts - 1)):
            trials.append([rng.gauss(0.0, step) for _ in range(2 * nd)])
    budget = 400 if polish else 150
    for t0 in trials:
        t, f, _, _ = nelder_mead(norm_at, t0, step=step, xatol=1e-11,
                                 fatol=1e-13 * max(1.0, best_f),
                                 maxiter=budget)
        if f < best_f:
            best_t, best_f = list(t), f
    if polish:
        for shrink in (1e-2, 1e-4):
            t, f, _, _ = nelder_mead(norm_at, best_t, step=step * shrink,
                                     xatol=1e-13, fatol=1e-15 * max(1.0, best_f),
                                     maxiter=400)
            if f < best_f:
                best_t, best_f = list(t), f
    c = np.array(c0, dtype=complex)
    for j in range(nd):
        c = c + null[:, j] * complex(best_t[2 * j], best_t[2 * j + 1])
    return best_f, c


def min_norm_mapper_nm(structure, u, v, starts: int = 10):
    """(norm, X) for min{||X|| : X in E, X u = v} through
    min_norm_on_affine_nm, as rigidity_check ran it; None when infeasible."""
    m = np.stack([np.array(b.apply(u), dtype=complex) for b in structure.basis],
                 axis=1)
    try:
        norm, c = min_norm_on_affine_nm(structure, m, np.array(v, dtype=complex),
                                        starts=starts,
                                        rng=random.Random(0x5EED))
    except InfeasibleConstraint:
        return None
    return norm, structure.element(c)


# The closed-form least-norm mapper as it stood on lists (columns per normal,
# sorted Gram-Schmidt through mu._orthonormal, rows through mu._dot), kept
# verbatim: tests/test_mu.py requires mu._least_norm_mapper, written out per
# number of normals, to match it bit for bit.
def least_norm_mapper_reference(structure, u, v):
    """(norm, X) for min{||X|| : X in E, X u = v}, or None when infeasible."""
    nu, nv = math.hypot(abs(u[0]), abs(u[1])), math.hypot(abs(v[0]), abs(v[1]))
    alpha = nv / nu
    u1, u2, v1, v2 = u[0] / nu, u[1] / nu, v[0] / nv, v[1] / nv
    cu1, cu2, cv1, cv2 = (t.conjugate() for t in (u1, u2, v1, v2))
    # per functional N, the columns N(v^ u^p*), N(v^p u^p*), -alpha N(v^ u^*)
    cols = ([], [], [])
    for m11, m12, m21, m22 in structure.normals:
        p1, p2 = m12 * u1 - m11 * u2, m22 * u1 - m21 * u2
        cols[0].append(v1 * p1 + v2 * p2)
        cols[1].append(cv1 * p2 - cv2 * p1)
        cols[2].append(-alpha * (v1 * (m11 * cu1 + m12 * cu2)
                                 + v2 * (m21 * cu1 + m22 * cu2)))
    q = _orthonormal(sorted(cols[:2], key=lambda c: _dot(c, c).real, reverse=True))
    rows = [[_dot(qi, col) for col in cols] for qi in q]
    resid = cols[2]
    for qi, row in zip(q, rows):
        resid = [w - row[2] * z for w, z in zip(resid, qi)]
    if math.sqrt(_dot(resid, resid).real) > _FEASIBLE_TOL * alpha:
        return None
    beta, delta, rho = 0j, 0j, alpha
    if len(rows) == 1:
        n1, n2, c = rows[0]
        s1, s2 = abs(n1) ** 2, abs(n2) ** 2
        a = max(0.0, abs(c) ** 2 - alpha * alpha * s2) / (s1 + s2)
        rho2 = alpha * alpha + a
        den = a * s1 + rho2 * s2
        f = c / den if den > 0.0 else 0j
        beta, delta = f * a * n1.conjugate(), f * rho2 * n2.conjugate()
        rho = math.sqrt(rho2)
    elif len(rows) == 2:
        (n1, n2, c), (m1, m2, d) = rows
        det = n1 * m2 - n2 * m1
        beta, delta = (c * m2 - n2 * d) / det, (n1 * d - c * m1) / det
        rho = _singular_values(alpha, beta, 0j, delta)[0]
    r1, r2 = alpha * cu1 - beta * u2, alpha * cu2 + beta * u1
    x = Matrix2(v1 * r1 + cv2 * delta * u2, v1 * r2 - cv2 * delta * u1,
                v2 * r1 - cv1 * delta * u2, v2 * r2 + cv1 * delta * u1)
    return rho, x


# The Nelder-Mead core as it stood before its bookkeeping was rewritten, kept
# verbatim: tests/test_optimize.py requires the production core to match it
# bit for bit (iterates, objective calls and returned values).
def nelder_mead_reference(f, x0, step, xatol: float = 1e-10,
                          fatol: float = 1e-12, maxiter: int = 600):
    """Minimize f over R^n from x0 with per-coordinate initial steps.

    Returns (x_best, f_best, iterations, converged).  `step` may be a scalar
    or a per-dimension sequence.
    """
    n = len(x0)
    if isinstance(step, (int, float)):
        step = [float(step)] * n
    pts = [list(x0)]
    for i in range(n):
        q = list(x0)
        q[i] += step[i] if step[i] != 0.0 else 1e-4
        pts.append(q)
    vals = [f(q) for q in pts]

    it = 0
    while it < maxiter:
        it += 1
        order = sorted(range(n + 1), key=lambda k: vals[k])
        pts = [pts[k] for k in order]
        vals = [vals[k] for k in order]
        spread = vals[-1] - vals[0]
        size = max(
            max(abs(pts[k][i] - pts[0][i]) for i in range(n))
            for k in range(1, n + 1))
        if size < xatol and spread < fatol:
            return pts[0], vals[0], it, True

        centroid = [sum(pts[k][i] for k in range(n)) / n for i in range(n)]
        worst = pts[-1]
        refl = [centroid[i] + (centroid[i] - worst[i]) for i in range(n)]
        fr = f(refl)
        if vals[0] <= fr < vals[-2]:
            pts[-1], vals[-1] = refl, fr
            continue
        if fr < vals[0]:
            expa = [centroid[i] + 2.0 * (centroid[i] - worst[i]) for i in range(n)]
            fe = f(expa)
            if fe < fr:
                pts[-1], vals[-1] = expa, fe
            else:
                pts[-1], vals[-1] = refl, fr
            continue
        contr = [centroid[i] + 0.5 * (worst[i] - centroid[i]) for i in range(n)]
        fc = f(contr)
        if fc < vals[-1]:
            pts[-1], vals[-1] = contr, fc
            continue
        for k in range(1, n + 1):
            pts[k] = [pts[0][i] + 0.5 * (pts[k][i] - pts[0][i]) for i in range(n)]
            vals[k] = f(pts[k])

    order = sorted(range(n + 1), key=lambda k: vals[k])
    return pts[order[0]], vals[order[0]], it, False


# ---------------------------------------------------------------------------
# The samplers as they were before the Box-Muller kernel, kept verbatim: two
# Random.gauss calls per complex normal, tuples, and Matrix2 products.  The
# package's samplers must draw the same numbers, bit for bit, and leave the
# generator in the same state.


def complex_gauss_reference(rng: random.Random) -> complex:
    return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))


def _unit_phase_reference(z: complex) -> complex:
    m = abs(z)
    return z / m if m > 1e-12 else 1.0 + 0.0j


def unitary_from_rng_reference(rng: random.Random) -> Matrix2:
    """Gram-Schmidt on two complex Gaussian columns; first pivot made real>=0."""
    while True:
        g1 = (complex_gauss_reference(rng), complex_gauss_reference(rng))
        n1 = math.sqrt(abs(g1[0]) ** 2 + abs(g1[1]) ** 2)
        if n1 > 1e-8:
            break
    v1 = (g1[0] / n1, g1[1] / n1)
    while True:
        g2 = (complex_gauss_reference(rng), complex_gauss_reference(rng))
        ip = v1[0].conjugate() * g2[0] + v1[1].conjugate() * g2[1]
        w = (g2[0] - ip * v1[0], g2[1] - ip * v1[1])
        n2 = math.sqrt(abs(w[0]) ** 2 + abs(w[1]) ** 2)
        if n2 > 1e-8:
            break
    v2 = (w[0] / n2, w[1] / n2)
    ph = _unit_phase_reference(v1[0]).conjugate()
    v1 = (ph * v1[0], ph * v1[1])
    return Matrix2(v1[0], v2[0], v1[1], v2[1])


def contraction_from_rng_reference(rng: random.Random) -> Matrix2:
    """U diag(s1, s2) V* with independent singular values uniform on [0, 1)."""
    u = unitary_from_rng_reference(rng)
    v = unitary_from_rng_reference(rng)
    s1 = rng.random()
    s2 = rng.random()
    d = Matrix2(s1, 0, 0, s2)
    return (u @ d) @ v.conj_transpose()


def closed_ball_matrix_reference(rng: random.Random) -> Matrix2:
    """U diag(s1, s2) V* with singular values in [0, 1], sometimes exactly 1."""
    u = unitary_from_rng_reference(rng)
    v = unitary_from_rng_reference(rng)
    s1 = 1.0 if rng.random() < 0.3 else rng.random()
    s2 = 1.0 if rng.random() < 0.3 else rng.random()
    return (u @ Matrix2(s1, 0, 0, s2)) @ v.conj_transpose()


def unit_s3_reference(rng: random.Random):
    while True:
        g = [rng.gauss(0.0, 1.0) for _ in range(4)]
        n = math.sqrt(sum(t * t for t in g))
        if n > 1e-9:
            return tuple(t / n for t in g)


def sample_shilov_param_f_reference(rng: random.Random) -> ShilovParamF:
    """Uniform-ish sample of the boundary parameters (angle x closed 3-ball)."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    g = [rng.gauss(0.0, 1.0) for _ in range(3)]
    nrm = math.sqrt(sum(v * v for v in g))
    while nrm < 1e-12:
        g = [rng.gauss(0.0, 1.0) for _ in range(3)]
        nrm = math.sqrt(sum(v * v for v in g))
    r = rng.random() ** (1.0 / 3.0)
    return ShilovParamF(theta, r * g[0] / nrm, r * g[1] / nrm, r * g[2] / nrm)


# ---------------------------------------------------------------------------
# thm32's Lie-ball sampler as it was before its sum |z|^2 >= 1 pre-test:
# every candidate goes through the classifier.  Its draws and samples are
# also those of the loop that pre-tested through two gauss calls per complex
# normal, the reference of the Box-Muller pre-test.


def lie_ball_interior_reference(rng: random.Random):
    """Rejection sample of the open Cartan-ball interior in C^4."""
    while True:
        z = tuple(0.55 * complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                  for _ in range(4))
        if lie_ball_classify(z, 0.0).margin > 1e-6:
            return z


# ---------------------------------------------------------------------------
# hn_classify as it was before it took the margin 1 - ||B|| (the ||B|| = 1
# +- 1e-6 band decided by the Gram matrix), with its two helpers; it returns
# the flags (in_open, in_closure, in_interior_of_hn).


def hn_classify_reference(pt, tol: float = 1e-9) -> tuple[bool, bool, bool]:
    """Membership in the normed variant (image of the open/closed ball).

    a != 0: reduce to the four-coordinate domain via the unique matrix
    [[x1, (x1 x2 - x3)/a], [a, x2]] over the point.  a = 0: exact slice rule.
    The interior of the closure-free set is its a != 0 part.
    """
    a, x1, x2, x3 = _check_quad(pt)
    in_closure = _hn_in_closure_reference(a, x1, x2, x3, tol)
    if a == 0:
        in_open = (abs(x3 - x1 * x2) <= 1e-12
                   and tetra_classify((x1, x2, x3), tol).is_interior)
        return in_open, in_closure, False
    t = (x1 * x2 - x3) / a
    if not cmath.isfinite(t):
        return False, False, False
    in_open = f_classify((x1, x2, x3, a + t), tol).is_interior
    return in_open, in_closure, in_open


def _hn_in_closure_reference(a, x1, x2, x3, tol):
    if a == 0:
        return (abs(x3 - x1 * x2) <= 1e-12
                and max(abs(x1), abs(x2)) <= 1.0 + tol)
    t = (x1 * x2 - x3) / a
    return cmath.isfinite(t) and _norm_at_most_one_reference(
        Matrix2(x1, t, a, x2), tol)


def _norm_at_most_one_reference(b: Matrix2, tol: float) -> bool:
    nrm = operator_norm(b)
    if nrm > 1.0 + 1e-6:
        return False
    if nrm <= 1.0 - 1e-6:
        return True
    g = gram_report(b)
    return g.trace_gram >= -2.0 * tol and g.det_gram >= -tol


# ---------------------------------------------------------------------------
# Structure's normals, dependence test and coefficients as they were computed
# before its Gauss-Jordan pass: LAPACK's SVD and least squares on the 4 x k
# matrix whose columns are the vectorized basis.


def structure_svd_reference(basis):
    """(normals, sigma_min / sigma_max): the normals are the conjugated left
    singular vectors past the k-th, and the old rule rejected a basis whose
    ratio is at most 1e-10."""
    left, sv, _ = np.linalg.svd(np.array(basis, dtype=complex).T)
    normals = tuple(tuple(complex(t) for t in left[:, j].conj())
                    for j in range(len(basis), 4))
    return normals, float(sv[-1] / max(sv[0], 1e-300))


def coeffs_lstsq_reference(basis, a: Matrix2, tol: float = 1e-10):
    """Least-squares coefficients of `a` in the basis, or None when the
    residual has an entry above tol * max(1, max |a_ij|)."""
    m, va = np.array(basis, dtype=complex).T, np.array(a, dtype=complex)
    c, _, _, _ = np.linalg.lstsq(m, va, rcond=None)
    if np.abs(m @ c - va).max() > tol * max(1.0, float(np.abs(va).max())):
        return None
    return c
