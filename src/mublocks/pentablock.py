"""The pentablock: image of the open 2x2 operator ball under
A -> (a21, tr A, det A), written (a, s, p).

For (s, p) in the open symmetrized bidisc with roots (l1, l2), membership is

    |a|  <  |1 - conj(l2) l1| / 2 + sqrt((1 - |l1|^2)(1 - |l2|^2)) / 2,

the critical radius of Agler-Lykova-Young.  This root form is the only rule
penta_classify evaluates.  The equivalent supremum form

    sup_{|z|<1} |a (1 - |z|^2) / (1 - s z + p z^2)| < 1

is evaluated numerically by penta_sup; penta_dual_check compares the two and
is called from the verification suites and the tests, never from a
classifier.  The closure test used here is the non-strict root form together
with (s, p) in the closed bidisc domain -- the source material characterizes
only the open domain, so the closure rule is a convention validated by
sampling images of closed-ball matrices.

Distinguished boundary: (s, p) on the bidisc distinguished boundary and
|a|^2 + |s|^2/4 = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .bidisc import bgamma_test, g2_classify, g2_roots
from .errors import (CriteriaDisagree, OptimizerNoConverge,
                     PreconditionViolation)
from .optimize import nelder_mead
from .verdict import (BAND_FACTOR, DEFAULT_TOL, MembershipVerdict, Region,
                      classify_margin, verdict_from_margin)


def _check_triple(pt) -> tuple[complex, complex, complex]:
    if len(pt) != 3:
        raise PreconditionViolation(f"expected (a, s, p), got {pt!r}")
    return complex(pt[0]), complex(pt[1]), complex(pt[2])


def penta_radius(s: complex, p: complex) -> float:
    """The critical |a|: |1 - conj(l2) l1|/2 + sqrt((1-|l1|^2)(1-|l2|^2))/2.

    Meaningful for (s, p) in the closed bidisc domain (both root moduli <= 1);
    callers guard that.  The product under the root is clamped at 0 against
    round-off on the boundary.
    """
    l1, l2 = g2_roots((s, p))
    t1 = abs(1.0 - l2.conjugate() * l1) / 2.0
    g = (1.0 - abs(l1) ** 2) * (1.0 - abs(l2) ** 2)
    return t1 + math.sqrt(max(g, 0.0)) / 2.0


def penta_sup(pt, tol: float = 1e-8) -> float:
    """sup over the open unit disc of |a (1 - |z|^2) / (1 - s z + p z^2)|.

    Numeric by design -- this is the independent route that
    penta_dual_check holds against the critical radius.  Strategy: vectorized
    64 x 128 polar grid, plus radial scans along the directions
    conj(root)/|root| where the denominator degenerates (near the bidisc
    boundary the maximizer hides in an angular spike narrower than any fixed
    grid), then Nelder-Mead refinement from the best starts.
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


def penta_dual_check(pt, tol: float = DEFAULT_TOL) -> float | None:
    """Hold the critical-radius rule against the numeric supremum at pt.

    Runs only where both routes carry information: (s, p) interior to the
    bidisc and the critical-radius slack outside the guard band
    BAND_FACTOR * max(tol, 1e-7).  Returns the supremum when the check ran,
    None when the guard skipped it, and raises CriteriaDisagree when the
    routes put pt on opposite sides of the boundary.
    """
    a, s, p = _check_triple(pt)
    if g2_classify((s, p), tol).region is not Region.INTERIOR:
        return None
    slack = penta_radius(s, p) - abs(a)
    if abs(slack) <= BAND_FACTOR * max(tol, 1e-7):
        return None
    sup = penta_sup(pt, tol=1e-8)
    if (sup < 1.0) != (slack > 0.0):
        raise CriteriaDisagree(
            f"pentablock dual routes disagree at {pt!r}: "
            f"critical-radius slack {slack!r} vs numeric sup {sup!r}")
    return sup


def penta_classify(pt, tol: float = DEFAULT_TOL) -> MembershipVerdict:
    """Three-state verdict for the pentablock by the critical-radius rule.

    Margin = min(bidisc margin of (s, p), critical-radius slack); outside the
    closed bidisc domain the bidisc margin alone.  The numeric supremum is
    not consulted here: penta_dual_check is the cross-check.
    """
    a, s, p = _check_triple(pt)
    gv = g2_classify((s, p), tol)
    if gv.region is Region.OUTSIDE:
        return verdict_from_margin(gv.margin, tol)
    slack = penta_radius(s, p) - abs(a)
    margin = min(gv.margin, slack)
    region = classify_margin(margin, tol)

    shilov = None
    if region is Region.CLOSURE_BOUNDARY:
        shilov = bp_test(pt, tol)
    return verdict_from_margin(margin, tol, shilov=shilov)


def bp_test(pt, tol: float = DEFAULT_TOL) -> bool:
    """Distinguished-boundary test: (s, p) on the bidisc distinguished
    boundary and |a|^2 + |s|^2/4 = 1."""
    a, s, p = _check_triple(pt)
    return (bgamma_test((s, p), tol)
            and abs(abs(a) ** 2 + abs(s) ** 2 / 4.0 - 1.0) <= tol)
