"""Tiny derivative-free minimizer for the numeric route that remains, mu's
variety descent, plus the numeric suprema and the affine min-norm that the
test oracles keep as reference implementations (mu's min-norm is now
_least_norm_mapper's closed form).

Hand-rolled Nelder-Mead: those problems are 1-6 real variables with smooth
(sometimes kinked-convex) objectives, where a heavyweight optimizer's per-call
overhead dominates.  Standard coefficients; deterministic.

The iterates are part of the contract, not only the minimum.  f is called
on x0, then on the n start vertices in coordinate order, then once or twice
per iteration (n more times on a shrink); those points, their order and
their number, and the four returned values are fixed bit for bit, and
tests/test_optimize.py holds them against the earlier version of the routine
kept in tests/oracles.py.  Callers' results and the per-call iteration and
evaluation counts of the benchmark's trace therefore do not move when the
bookkeeping here changes.
"""

from __future__ import annotations

from bisect import bisect_right

_XATOL = 1e-10      # default xatol: each vertex this near the best, per coordinate
_FATOL = 1e-12      # default fatol: the spread of the vertex values below this
_MAXITER = 600      # default cap on iterations
_ZERO_STEP = 1e-4   # initial step in a coordinate whose given step is 0


def _stable_sort(pts, vals):
    """Vertices in stable-sort order of their values, and whether that order
    is total (no NaN), so that a single new value can be bisected into it."""
    order = sorted(range(len(vals)), key=vals.__getitem__)
    vals = [vals[k] for k in order]
    return [pts[k] for k in order], vals, all(v == v for v in vals)


def nelder_mead(f, x0, step, xatol: float = _XATOL, fatol: float = _FATOL,
                maxiter: int = _MAXITER):
    """Minimize f over R^n from x0 with per-coordinate initial steps.

    Returns (x_best, f_best, iterations, converged).  `step` may be a scalar
    or a per-dimension sequence; a zero step becomes _ZERO_STEP.  The vertices
    stay in stable-sort order of their values.  Convergence needs both a
    value spread below `fatol` and every vertex within `xatol` of the best
    in each coordinate, so `fatol=0` never converges: it runs `maxiter`
    iterations.
    """
    n = len(x0)
    if isinstance(step, (int, float)):
        step = [float(step)] * n
    pts = [list(x0)]
    for i in range(n):
        q = list(x0)
        q[i] += step[i] if step[i] != 0.0 else _ZERO_STEP
        pts.append(q)
    pts, vals, total = _stable_sort(pts, [f(q) for q in pts])

    it = 0
    while it < maxiter:
        it += 1
        best, worst = pts[0], pts[-1]
        if vals[-1] - vals[0] < fatol and max(
                max(abs(x - b) for x, b in zip(p, best))
                for p in pts[1:]) < xatol:
            return best, vals[0], it, True

        centroid = [sum(col) / n for col in zip(*pts[:n])]
        x = [c + (c - w) for c, w in zip(centroid, worst)]
        fx = f(x)
        if fx < vals[0]:
            expa = [c + 2.0 * (c - w) for c, w in zip(centroid, worst)]
            fe = f(expa)
            if fe < fx:
                x, fx = expa, fe
        elif not vals[0] <= fx < vals[-2]:
            x = [c + 0.5 * (w - c) for c, w in zip(centroid, worst)]
            fx = f(x)
            if not fx < vals[-1]:
                pts[1:] = [[b + 0.5 * (v - b) for b, v in zip(best, p)]
                           for p in pts[1:]]
                vals[1:] = [f(p) for p in pts[1:]]
                pts, vals, total = _stable_sort(pts, vals)
                continue
        if total and fx == fx:
            # after every equal value, where a stable sort puts it
            del pts[-1], vals[-1]
            k = bisect_right(vals, fx)
            pts.insert(k, x)
            vals.insert(k, fx)
        else:
            pts[-1], vals[-1] = x, fx
            pts, vals, total = _stable_sort(pts, vals)
    return pts[0], vals[0], it, False
