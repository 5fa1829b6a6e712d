"""The Nelder-Mead core, held bit for bit against its earlier version.

The core's contract includes its iterates: the order of the vertices, the
objective calls (their points, order and number) and the four returned
values.  `oracles.nelder_mead_reference` is the routine as it stood before
its bookkeeping was rewritten.  Every comparison here is exact: floats are
compared through float.hex, together with their type.
"""

import cmath
import math
import random

import numpy as np
import pytest

import mublocks.mu as mu_module
import oracles
from mublocks.errors import OptimizerNoConverge
from mublocks.matrix2 import Matrix2, contraction_from_rng, unitary_from_rng
from mublocks.mu import E11, E22, Structure, mu_value, structure_from_name
from mublocks.optimize import nelder_mead
from mublocks.tetrablock import pi_tetra
from oracles import nelder_mead_reference


def _bits(v):
    return type(v).__name__, float(v).hex()


def _run(core, f, x0, step, **kw):
    """`core` on f: its result and the log of every objective call."""
    calls = []

    def logged(x):
        fx = f(x)
        calls.append(([_bits(v) for v in x], _bits(fx)))
        return fx

    x, fx, it, ok = core(logged, x0, step, **kw)
    return ([_bits(v) for v in x], _bits(fx), it, ok), calls


def _objective(kind, n, rng):
    c = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    w = [10.0 ** rng.uniform(-1.0, 1.0) for _ in range(n)]

    def bowl(x):
        return sum(wi * (xi - ci) ** 2 for wi, xi, ci in zip(w, x, c))

    if kind == "bowl":
        return bowl
    if kind == "rosenbrock":
        return lambda x: (x[0] - 1.0) ** 2 + sum(
            100.0 * (x[i + 1] - x[i] ** 2) ** 2 for i in range(n - 1))
    if kind == "kink":
        return lambda x: sum(wi * abs(xi - ci) for wi, xi, ci in zip(w, x, c))
    if kind == "plateau":      # a staircase: many vertices tie
        return lambda x: math.floor(4.0 * bowl(x)) / 4.0
    if kind == "flat":         # every vertex ties
        return lambda x: 1.0
    if kind == "numpy":        # numpy scalars in, numpy scalars out
        return lambda x: np.float64(bowl(x))
    if kind == "inf_wall":
        return lambda x: math.inf if x[0] > c[0] + 0.2 else bowl(x)
    if kind == "inf_pit":
        return lambda x: -math.inf if x[-1] < c[-1] - 0.8 else bowl(x)
    if kind == "nan_region":
        return lambda x: math.nan if sum(x) > sum(c) + 0.3 else bowl(x)
    if kind == "nan_spots":    # NaN scattered through the domain
        return lambda x: math.nan if int(abs(x[0]) * 37.0) % 3 == 0 else bowl(x)
    raise KeyError(kind)


KINDS = ("bowl", "rosenbrock", "kink", "plateau", "flat", "numpy", "inf_wall",
         "inf_pit", "nan_region", "nan_spots")
TOLERANCES = ({}, {"xatol": 1e-6, "fatol": 1e-8}, {"fatol": 0.0})


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("kind", KINDS)
def test_core_matches_reference(kind, n):
    rng = random.Random(1000 * n + KINDS.index(kind))
    f = _objective(kind, n, rng)
    x0 = [rng.uniform(-1.5, 1.5) for _ in range(n)]
    per_coord = [0.0 if i % 2 else rng.uniform(0.05, 0.6) for i in range(n)]
    starts = [(x0, 0.4), (tuple(x0), 1), (x0, per_coord),
              (np.array(x0) if kind == "numpy" else x0, tuple(per_coord))]
    runs = [(x, step, dict(tols, maxiter=300))
            for x, step in starts for tols in TOLERANCES]
    runs += [(x0, 0.4, {"maxiter": m}) for m in (0, 1, 2, 7, 40)]
    for x, step, kw in runs:
        got = _run(nelder_mead, f, x, step, **kw)
        assert got == _run(nelder_mead_reference, f, x, step, **kw), (x, step, kw)


def test_nan_start_and_all_tied_shrinks_match():
    """A NaN at the start vertex, and a simplex that shrinks while all its
    values tie, go through the full stable sort on both cores."""
    cases = [
        (lambda x: math.nan if x[0] < 0.05 else (x[0] - 1.0) ** 2 + x[1] ** 2,
         [0.0, 0.0]),
        (lambda x: math.nan, [0.3, -0.2, 0.1]),
        (lambda x: 0.0 if abs(x[0]) < 1.0 else 1.0, [0.2, 0.4]),
    ]
    for f, x0 in cases:
        for maxiter in (3, 60, 600):
            got = _run(nelder_mead, f, x0, 0.1, maxiter=maxiter)
            want = _run(nelder_mead_reference, f, x0, 0.1, maxiter=maxiter)
            assert got == want


# ---------------------------------------------------------------------------
# The real callers, run once on each core.


def _matrix_bits(m):
    if m is None:
        return None
    return tuple((_bits(z.real), _bits(z.imag)) for z in m.entries())


def _on_both_cores(monkeypatch, module, run):
    """run() on the production core, then on the reference core.  Returns
    both results and the number of reference calls."""
    got = run()
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return nelder_mead_reference(*args, **kwargs)

    monkeypatch.setattr(module, "nelder_mead", counted)
    return got, run(), len(calls)


def _gauss(rng):
    return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))


def _mu_matrices():
    rng = random.Random(2718)
    out = []
    for _ in range(20):
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        out.append(Matrix2(*(_gauss(rng) * scale for _ in range(4))))
    u, v = (_gauss(rng), _gauss(rng)), (_gauss(rng), _gauss(rng))
    out.append(Matrix2(u[0] * u[1], -u[0] * u[0], u[1] * u[1],
                       -u[1] * u[0]))                       # nilpotent
    out.append(Matrix2(u[0] * v[0], u[0] * v[1], u[1] * v[0],
                       u[1] * v[1]))                        # rank one
    out.append(unitary_from_rng(rng).scale(2.5))            # coincident
    return out


PRESETS = ("scalar", "diag", "upper", "lower", "full", "skewdiag",
           "e_theta:0.7")
# Not rigid and neither diagonal nor triangular: mu reaches the variety
# descent, the one Nelder-Mead caller left in mu, on most matrices.
ODD = Structure((E11, E22, Matrix2(0, 1, 2, 0)), name="odd_offdiag")


def test_mu_value_matches_reference(monkeypatch):
    structures = [structure_from_name(name) for name in PRESETS] + [ODD]
    matrices = _mu_matrices()

    def run():
        out = []
        for a in matrices:
            for s in structures:
                r = mu_value(a, s)
                out.append((_bits(r.value), r.status,
                            _matrix_bits(r.minimizer)))
        return out

    got, want, calls = _on_both_cores(monkeypatch, mu_module, run)
    assert calls > 0
    assert got == want


def test_rigidity_check_matches_reference(monkeypatch):
    """The Nelder-Mead least-norm mapper that rigidity_check ran before its
    closed form, now the oracle the closed form is held against."""
    rng = random.Random(31)

    def unit():
        g = (_gauss(rng), _gauss(rng))
        n = math.sqrt(abs(g[0]) ** 2 + abs(g[1]) ** 2)
        return (g[0] / n, g[1] / n)

    cases = [(structure_from_name(name), unit(), unit())
             for name in PRESETS[1:] for _ in range(2)]

    def run():
        out = []
        for s, u, v in cases:
            found = oracles.min_norm_mapper_nm(s, u, v)
            out.append(None if found is None
                       else (_bits(found[0]), _matrix_bits(found[1])))
        return out

    got, want, calls = _on_both_cores(monkeypatch, oracles, run)
    assert calls > 0
    assert got == want


def _sup_or_failure(sup, pt):
    try:
        return _bits(sup(pt))
    except OptimizerNoConverge as exc:
        return "no convergence", str(exc)


def test_penta_sup_matches_reference(monkeypatch):
    """The numeric pentablock supremum on the 50 seeded points of
    oracles.penta_sup_points."""
    points = oracles.penta_sup_points()

    def run():
        return [_sup_or_failure(oracles.penta_sup_numeric, pt)
                for pt in points]

    got, want, calls = _on_both_cores(monkeypatch, oracles, run)
    assert calls >= 50
    assert got == want


def test_psi_sup_grid_matches_reference(monkeypatch):
    rng = random.Random(83)
    points = []
    for _ in range(3):
        b = contraction_from_rng(rng).scale(0.9)
        points.append((cmath.rect(rng.uniform(0.2, 1.5), rng.uniform(0.0, 6.0)),
                       *pi_tetra(b)))

    def run():
        return [_sup_or_failure(oracles.psi_sup_grid, pt) for pt in points]

    got, want, calls = _on_both_cores(monkeypatch, oracles, run)
    assert calls >= 15
    assert got == want
