"""Independent oracles the tests compare the package against.

Everything here is deliberately dumb: power iteration instead of the closed
form, root finding through numpy's companion matrix, dense grids instead of
optimizers, completion search instead of Gram margins.  Slow is fine; the
point is that none of this shares code with the implementation under test.
"""

from __future__ import annotations

import math

import numpy as np

from mublocks.matrix2 import Matrix2


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
