"""Independent oracles the tests compare the package against.

Everything here is deliberately dumb: power iteration instead of the closed
form, root finding through numpy's companion matrix, dense grids and
Nelder-Mead suprema instead of closed forms, completion search instead of
Gram margins.  Slow is fine; the point is that none of this shares code with
the implementation under test.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

from mublocks.bidisc import g2_classify, g2_roots
from mublocks.errors import (DenominatorNearZero, OptimizerNoConverge,
                             PreconditionViolation)
from mublocks.hexablock import _check_quad
from mublocks.lie_ball import transported_lattice
from mublocks.matrix2 import Matrix2
from mublocks.optimize import nelder_mead
from mublocks.pentablock import _check_triple
from mublocks.tetrablock import tetra_classify
from mublocks.verdict import Region


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
    a, s, p = _check_triple(pt)
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

    Uses the package's tetrablock test and the closed form of psi_sup
    (called directly, as psi_sup's own tetrablock check has a wider band),
    but none of the mu machinery: it is a dual route, not a fully external
    oracle.
    """
    from mublocks.hexablock import _psi_sup_closed
    from mublocks.tetrablock import pi_tetra, tetra_classify

    def inside(t: float) -> bool:
        b = m.scale(1.0 / t)
        x = pi_tetra(b)
        return (tetra_classify(x, 1e-15).is_interior
                and (b.a21 == 0 or _psi_sup_closed(b.a21, *x) < 1.0))

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
    d2 = np.abs(pts - tgt[None, :]) ** 2
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
