"""Tiny derivative-free minimizer for the numeric routes that remain: mu's
variety descent and affine min-norm, `penta_sup` and `psi_sup`.

Hand-rolled Nelder-Mead: those problems are 1-6 real variables with smooth
(sometimes kinked-convex) objectives, where a heavyweight optimizer's per-call
overhead dominates.  Standard coefficients; deterministic.
"""

from __future__ import annotations


def nelder_mead(f, x0, step, xatol: float = 1e-10, fatol: float = 1e-12,
                maxiter: int = 600):
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

