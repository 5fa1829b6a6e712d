"""Named, seeded property suites: each one exercises a single identity,
equivalence, or containment from the theory and reports counterexamples
instead of raising.

Every suite is deterministic per (n_samples, seed, tol).  Samples near the
classification band (|margin| <= 10 tol) are excluded from strict-equivalence
checks and counted in ``band_excluded`` -- the underlying statements relate
exact predicates, and a float sign at 1e-16 from a boundary carries no
information.  Failure records are single key=value lines with all scalars at
17 significant digits, so any failure is reproducible from the printout
alone.

Sampling mixes three generators per domain: projection images of random
contractions (interior-dense), boundary parametrizations, and uniform box
noise (outside-dense).  A projection or slice leg takes its classifier's
margin and its dual check from one pass of the domain's dual kernel.

A suite is one function of a _Run, registered under its name by the
@_suite(name, default_n, default_tol) decorator, in the order the functions
are defined.  The body draws from run.rng, the suite's own
random.Random(seed), records each counterexample with run.fail, and skips a
sample with ``if run.in_band(*margins): continue``, which counts the
exclusion; the driver builds the report.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Sequence

from .bidisc import _g2_dual, bgamma_test
from .domain_f import (f_classify, f_classify_matrix_oracle, f_relations,
                       f_rescale_by, f_scale, f_swap, pi_f, q_value,
                       sample_point_f, sample_shilov_param_f, shilov_f_from_ball,
                       shilov_f_double_cover, shilov_f_param, shilov_f_test,
                       BallParamF, ShilovParamF)
from .errors import PreconditionViolation, UnknownSuite
from .hexablock import hexa_classify, hn_classify, pi_hexa
from .lie_ball import (_lie_ball_dual, _lie_ball_margin, biholo_f, lambda_map,
                       shilov_l4_param, ShilovParamL4)
from .matrix2 import (Matrix2, _box_muller, _complex_gauss, _usv,
                      contraction_from_rng, gram_det_from_coords, operator_norm,
                      spectral_radius, unitary_from_rng)
from .mu import (E12, E21, classify_subspace, e_theta, f_mu_membership,
                 mu_sandwich_check, mu_value, rigidity_check,
                 rigidity_grid_pass, structure_from_name, Structure)
from .pentablock import _penta_dual
from .tetrablock import _tetra_dual, be_point, be_test, pi_tetra
from .verdict import (BAND_FACTOR, CLOSURE_BOUNDARY, DEFAULT_TOL, INTERIOR, OUTSIDE,
                      checked_tol, classify_margin)

DEFAULT_SEED = 7
DEFAULT_R_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)

# Fixed tolerances; a suite's own tol is its run.tol.
_GRAM_TOL = 1e-10          # lemma21_gram's default: det(I - B*B) against Q, entries ~1
_MU_TOL = 1e-6             # mu suites' default; least tol of their rigidity and membership
_BOUNDARY_TOL = 1e-9       # least tol of the closed-form boundary and phase tests
_ROUNDING_GAP = 1e-12      # largest gap of two sides equal up to rounding (maps, Q values)
_MATCH_GAP = 1e-8          # largest thm32 match gap of a boundary target
_LIE_MARGIN = 1e-6         # least lie_ball_classify margin of a thm32 interior sample
_LIE_REJECT_SLACK = 1e-9   # slack of _lie_ball_interior's early rejection, past rounding
_S3_FLOOR = 1e-9           # least norm of a Gaussian draw that _unit_s3 normalizes
_VECTOR_FLOOR = 1e-6       # least norm of a Gaussian pair that _unit_vector normalizes
_HN_A_FLOOR = 1e-6         # prop215 excludes |a| below it: t = (x1 x2 - x3) / a
_HN_NORM_BAND = 1e-7       # prop215 excludes a matrix norm this close to 1
_MU_NUMERIC_TOL = 1e-5     # accuracy asked of a numeric mu (relative; odd_offdiag's 0.5)
_NORM_FLOOR = 1e-12        # least norm that the relative mu gap is taken against
_MEMBERSHIP_GAP = 1e-3     # least |f margin| of a mu-membership sample, off mu's band
_MU_EXACT_GAP = 1e-9       # largest gap of a closed-form mu witness value


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one suite run.  ``failures`` empty iff the suite passed."""

    suite: str
    n_samples: int
    seed: int
    tol: float
    failures: tuple
    band_excluded: int = 0
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_lines(self) -> list[str]:
        """One header line plus one indented line per failure record."""
        head = (f"suite={self.suite} n={self.n_samples} seed={self.seed} "
                f"tol={self.tol:g} failures={len(self.failures)} "
                f"band_excluded={self.band_excluded} "
                f"elapsed={self.elapsed:.3f}s "
                f"status={'pass' if self.passed else 'FAIL'}")
        return [head] + [f"  {rec}" for rec in sorted(self.failures)]

    def to_dict(self) -> dict:
        return {**asdict(self), "failures": sorted(self.failures),
                "passed": self.passed}


def _c17(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _pt17(pt) -> str:
    return "(" + ",".join(_c17(v) for v in pt) + ")"


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

class _Run:
    """One suite run: its size, seed and tol, the random stream it draws
    from, and the failure records and band exclusions it collects."""

    def __init__(self, n: int, seed: int, tol: float):
        self.n, self.seed, self.tol = n, seed, tol
        self.rng = random.Random(seed)
        self.failures: list[str] = []
        self.fail = self.failures.append   # record one counterexample
        self.band = 0

    def in_band(self, *margins: float) -> bool:
        """True, counting one exclusion, when some |margin| <= BAND_FACTOR tol."""
        if min(abs(m) for m in margins) <= BAND_FACTOR * self.tol:
            self.band += 1
            return True
        return False

    def report(self, name: str, elapsed: float = 0.0) -> SuiteReport:
        return SuiteReport(name, self.n, self.seed, self.tol,
                           tuple(self.failures), self.band, elapsed)


@dataclass(frozen=True)
class _SuiteSpec:
    fn: Callable[[int, int, float], SuiteReport]
    default_n: int
    default_tol: float


_ALGEBRAIC_N = 10_000
_NUMERIC_N = 100

_REGISTRY: dict[str, _SuiteSpec] = {}


def _suite(name: str, default_n: int = _ALGEBRAIC_N, default_tol: float = DEFAULT_TOL):
    """Register body(run) as the suite `name`; its fn(n, seed, tol) runs the
    body on a fresh _Run and reports with elapsed 0.0."""
    def register(body: Callable[[_Run], None]):
        def fn(n: int, seed: int, tol: float) -> SuiteReport:
            run = _Run(n, seed, tol)
            body(run)
            return run.report(name)
        _REGISTRY[name] = _SuiteSpec(fn, default_n, default_tol)
        return body
    return register


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _mixed_matrix(rng: random.Random) -> Matrix2:
    """Contractions, unitaries, and unconstrained Gaussian matrices."""
    u = rng.random()
    if u < 0.45:
        return contraction_from_rng(rng)
    if u < 0.65:
        return unitary_from_rng(rng)
    g = Matrix2(_complex_gauss(rng), _complex_gauss(rng),
                _complex_gauss(rng), _complex_gauss(rng))
    return g.scale(rng.uniform(0.05, 1.0))


def _closed_ball_matrix(rng: random.Random) -> Matrix2:
    """U diag(s1, s2) V* with singular values in [0, 1], sometimes exactly 1."""
    u = unitary_from_rng(rng)
    v = unitary_from_rng(rng)
    s1 = 1.0 if rng.random() < 0.3 else rng.random()
    s2 = 1.0 if rng.random() < 0.3 else rng.random()
    return _usv(u, s1, s2, v)


def _mixed_point_f(rng: random.Random):
    """Interior-dense / boundary / outside-dense mixture for the
    four-coordinate domain."""
    u = rng.random()
    if u < 1.0 / 3.0:
        b = contraction_from_rng(rng)
        if rng.random() < 0.4:
            b = b.scale(rng.uniform(0.3, 1.7))
        return pi_f(b)
    if u < 2.0 / 3.0:
        return shilov_f_param(sample_shilov_param_f(rng))
    return sample_point_f(rng)


def _mixed_point_tetra(rng: random.Random):
    u = rng.random()
    if u < 1.0 / 3.0:
        return pi_tetra(contraction_from_rng(rng))
    if u < 2.0 / 3.0:
        phi = rng.uniform(0.0, 2.0 * math.pi)
        x2 = math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        return be_point(x2, cmath.exp(1j * phi))
    return (complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
            complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
            complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))


def _lie_ball_interior(rng: random.Random):
    """Rejection sample of the open Cartan-ball interior in C^4: z_k =
    0.55 * _complex_gauss(rng), the first z with lie_ball_classify margin
    above 1e-6, read from its kernel _lie_ball_margin (z needs no check).
    The margin is at most 1 - sum |z|^2, so sum |z|^2 >= 1 rejects without
    classifying.

    With no value pending in rng.gauss_next a try is the 8 uniforms of four
    Box-Muller steps, (u0, u1), ..., (u6, u7), and it rejects at once where

        -0.605 log((1 - u1)(1 - u3)(1 - u5)(1 - u7)) > 1 + 1e-9.

    The left side is 0.3025 sum_k -2 log(1 - u_2k+1), that is 0.55^2 times
    the sum of the squared radii g_k^2, which is sum |z|^2 in exact
    arithmetic because cos^2 + sin^2 = 1.  Rounding (the product of four
    factors in (0, 1], the log, cos, sin, sqrt, the squares, 0.55^2 against
    0.3025) moves either side by some 1e-15 relative, far below the 1e-9
    margin, so no rejected try has sum |z|^2 < 1.  About 9 % of tries pass;
    they build z from their uniforms with _box_muller, the kernel's own
    expressions, and take the exact sum |z|^2 < 1 test.  With a value
    pending (it then stays pending from try to try) each try draws through
    _complex_gauss."""
    random, log = rng.random, math.log
    while True:
        if rng.gauss_next is None:
            u0, u1, u2, u3 = random(), random(), random(), random()
            u4, u5, u6, u7 = random(), random(), random(), random()
            if -0.605 * log((1.0 - u1) * (1.0 - u3) * (1.0 - u5) * (1.0 - u7)) \
                    > 1.0 + _LIE_REJECT_SLACK:
                continue
            z0 = 0.55 * _box_muller(u0, u1)
            z1 = 0.55 * _box_muller(u2, u3)
            z2 = 0.55 * _box_muller(u4, u5)
            z3 = 0.55 * _box_muller(u6, u7)
        else:
            z0 = 0.55 * _complex_gauss(rng)
            z1 = 0.55 * _complex_gauss(rng)
            z2 = 0.55 * _complex_gauss(rng)
            z3 = 0.55 * _complex_gauss(rng)
        if abs(z0) ** 2 + abs(z1) ** 2 + abs(z2) ** 2 + abs(z3) ** 2 < 1.0:
            z = (z0, z1, z2, z3)
            if _lie_ball_margin(*z) > _LIE_MARGIN:
                return z


def _unit_s3(rng: random.Random):
    while True:
        a = _complex_gauss(rng)
        b = _complex_gauss(rng)
        g0, g1, g2, g3 = a.real, a.imag, b.real, b.imag
        # sum(), not +, keeps the bits on 3.12, whose float sum() is compensated
        n = math.sqrt(sum((g0 * g0, g1 * g1, g2 * g2, g3 * g3)))
        if n > _S3_FLOOR:
            return (g0 / n, g1 / n, g2 / n, g3 / n)


def _unit_vector(rng: random.Random):
    while True:
        g = [_complex_gauss(rng) for _ in range(2)]
        n = math.sqrt(sum(abs(t) ** 2 for t in g))
        if not n < _VECTOR_FLOOR:
            return (g[0] / n, g[1] / n)


# ---------------------------------------------------------------------------
# Suites: matrix kernel and the four-coordinate domain
# ---------------------------------------------------------------------------

@_suite("lemma21_gram", default_tol=_GRAM_TOL)
def _(run: _Run) -> None:
    """det(I - B*B) direct vs the coordinate closed form."""
    ident = Matrix2.identity()
    for i in range(run.n):
        b = _mixed_matrix(run.rng)
        direct = (ident - (b.conj_transpose() @ b)).det
        closed = gram_det_from_coords(b.a11, b.a22, b.det, b.a12 + b.a21)
        if abs(direct.imag) > run.tol or abs(direct.real - closed) > run.tol:
            run.fail(f"kind=gram_det index={i} b={_pt17(b.entries())} "
                     f"direct={_c17(direct)} closed={closed:.17g}")


@_suite("prop22_vs_oracle")
def _(run: _Run) -> None:
    """Coordinate criteria vs matrix-reconstruction oracle, full verdict."""
    for i in range(run.n):
        pt = _mixed_point_f(run.rng)
        va = f_classify(pt, run.tol)
        vb = f_classify_matrix_oracle(pt, run.tol)
        if run.in_band(va.margin, vb.margin):
            continue
        if va.region is not vb.region:
            run.fail(f"kind=verdict index={i} pt={_pt17(pt)} "
                     f"criteria={va.region.value} oracle={vb.region.value} "
                     f"margins={va.margin:.17g},{vb.margin:.17g}")


@_suite("prop24_closure")
def _(run: _Run) -> None:
    """Closure = image of the closed ball; non-strict criteria vs oracle.
    The closed-ball half excludes no band."""
    for i in range(run.n // 2):
        pt = pi_f(_closed_ball_matrix(run.rng))
        fv = f_classify(pt, run.tol)
        if fv.margin < -BAND_FACTOR * run.tol:
            run.fail(f"kind=closed_ball_image index={i} pt={_pt17(pt)} "
                     f"observed={fv.region.value} expected=closure "
                     f"margin={fv.margin:.17g}")
    for i in range(run.n - run.n // 2):
        pt = _mixed_point_f(run.rng)
        va = f_classify(pt, run.tol)
        vb = f_classify_matrix_oracle(pt, run.tol)
        if run.in_band(va.margin, vb.margin):
            continue
        if va.in_closure != vb.in_closure:
            run.fail(f"kind=closure_agreement index={i} pt={_pt17(pt)} "
                     f"criteria={va.in_closure} oracle={vb.in_closure}")


@_suite("swap_involution")
def _(run: _Run) -> None:
    """The coordinate swap preserves the verdict; so does applying it twice."""
    for i in range(run.n):
        pt = _mixed_point_f(run.rng)
        v0 = f_classify(pt, run.tol)
        p1 = f_swap(pt)
        v1 = f_classify(p1, run.tol)
        v2 = f_classify(f_swap(p1), run.tol)
        if run.in_band(v0.margin, v1.margin, v2.margin):
            continue
        if v1.region is not v0.region or v2.region is not v0.region:
            run.fail(f"kind=swap_verdict index={i} pt={_pt17(pt)} "
                     f"orig={v0.region.value} once={v1.region.value} "
                     f"twice={v2.region.value}")


@_suite("lemma25_scaling")
def _(run: _Run) -> None:
    """Quasi-balanced inward scaling sends the closure into the interior."""
    rng = run.rng
    for i in range(run.n):
        if rng.random() < 0.5:
            pt = pi_f(_closed_ball_matrix(rng))
        else:
            pt = shilov_f_param(sample_shilov_param_f(rng))
        r = rng.uniform(0.05, 0.95)
        sv = f_classify(f_scale(pt, r), run.tol)
        if sv.region is INTERIOR or run.in_band(sv.margin):
            continue
        run.fail(f"kind=scaled_not_interior index={i} pt={_pt17(pt)} r={r:.17g} "
                 f"observed={sv.region.value} margin={sv.margin:.17g}")


def _leg(name: str, margin: float, tol: float):
    return name, classify_margin(margin, tol), margin


def _projection_legs(rel, tol: float = DEFAULT_TOL):
    """(name, region, margin) of the g2, tetra and penta projections of an F
    point, each margin its classifier's, from its dual kernel in one pass; -inf
    (every domain is bounded) where f_relations' products pass the floats."""
    g2, tetra, penta = (all(map(cmath.isfinite, x)) for x in rel)
    return (_leg("g2", _g2_dual(rel.g2, tol) if g2 else -math.inf, tol),
            _leg("tetra", _tetra_dual(rel.tetra, tol) if tetra else -math.inf, tol),
            _leg("penta", _penta_dual(rel.penta, tol)[0] if penta else -math.inf, tol))


@_suite("thm29_projections")
def _(run: _Run) -> None:
    """Interior points project into the three classical domains; each
    projection is also held to its domain's dual check."""
    for i in range(run.n):
        pt = pi_f(contraction_from_rng(run.rng))
        fv = f_classify(pt, run.tol)
        if run.in_band(fv.margin):
            continue
        if not fv.is_interior:
            run.fail(f"kind=image_not_interior index={i} pt={_pt17(pt)} "
                     f"observed={fv.region.value} margin={fv.margin:.17g}")
            continue
        for name, region, margin in _projection_legs(f_relations(pt), run.tol):
            if region is INTERIOR or run.in_band(margin):
                continue
            run.fail(f"kind=projection index={i} pt={_pt17(pt)} leg={name} "
                     f"observed={region.value} margin={margin:.17g}")


@_suite("prop210_slice")
def _(run: _Run) -> None:
    """s = 0 slice: three-way equivalence with the tetrablock and the a = 0
    hexablock slice."""
    for i in range(run.n):
        x = _mixed_point_tetra(run.rng)
        fv = f_classify((x[0], x[1], x[2], 0.0), run.tol)
        tm = _tetra_dual(x, run.tol)   # x: complex coordinates
        hv = hexa_classify((0.0, x[0], x[1], x[2]), run.tol)
        if run.in_band(fv.margin, tm, hv.margin):
            continue
        if not (fv.is_interior == (tm > run.tol) == hv.is_interior):
            run.fail(f"kind=slice_s0 index={i} x={_pt17(x)} "
                     f"f={fv.is_interior} tetra={tm > run.tol} "
                     f"hexa={hv.is_interior}")


@_suite("prop211_slice")
def _(run: _Run) -> None:
    """x = a = 0 slice against the two-coordinate domain with negated product."""
    rng = run.rng
    for i in range(run.n):
        if rng.random() < 0.5:
            z1 = math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            z2 = math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            s, p = z1 + z2, -(z1 * z2)
        else:
            p = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            s = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        fv = f_classify((0.0, 0.0, p, s), run.tol)
        gm = _g2_dual((s, -p), run.tol)   # s, p: complex
        if run.in_band(fv.margin, gm):
            continue
        if fv.is_interior != (gm > run.tol):
            run.fail(f"kind=slice_xa0 index={i} p={_c17(p)} s={_c17(s)} "
                     f"f={fv.is_interior} g2={gm > run.tol}")


@_suite("cor213_closure_projections")
def _(run: _Run) -> None:
    """Closure points project into the three closed domains (plus the negated
    product pair, the fourth conclusion); each projection is also held to its
    domain's dual check."""
    for i in range(run.n):
        if run.rng.random() < 0.5:
            pt = pi_f(_closed_ball_matrix(run.rng))
        else:
            pt = shilov_f_param(sample_shilov_param_f(run.rng))
        x, a, p, s = pt
        legs = (_projection_legs(f_relations(pt), run.tol)
                + (_leg("g2_neg_p", _g2_dual((s, -p), run.tol), run.tol),))
        for name, region, margin in legs:
            if region is not OUTSIDE or run.in_band(margin):
                continue
            run.fail(f"kind=closure_projection index={i} pt={_pt17(pt)} "
                     f"leg={name} observed={region.value} "
                     f"margin={margin:.17g}")


@_suite("prop215_hn")
def _(run: _Run) -> None:
    """Prop 2.15: for a != 0, (a, x1, x2, x3) is in the normed variant iff
    (x1, x2, x3, a + t) is in F, t = (x1 x2 - x3) / a.  The hn verdict (the
    norm of the matrix over the point) against f_classify (F's slacks).
    Besides the band, it excludes |a| < 1e-6 and a matrix norm within 1e-7
    of 1."""
    rng = run.rng
    for i in range(run.n):
        if rng.random() < 0.5:
            pt = pi_hexa(_mixed_matrix(rng))
        else:
            pt = (complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)),
                  complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)),
                  complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)),
                  complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)))
        a, x1, x2, x3 = pt
        if abs(a) < _HN_A_FLOOR:
            run.band += 1
            continue
        t = (x1 * x2 - x3) / a
        fv = f_classify((x1, x2, x3, a + t), run.tol)
        hv = hn_classify(pt, run.tol)
        if abs(hv.margin) <= _HN_NORM_BAND:   # 1 - ||B||
            run.band += 1
            continue
        if run.in_band(fv.margin):
            continue
        if fv.is_interior != hv.is_interior:
            run.fail(f"kind=hn_open index={i} pt={_pt17(pt)} via_f={fv.is_interior} "
                     f"via_norm={hv.is_interior} norm={1.0 - hv.margin:.17g}")


# ---------------------------------------------------------------------------
# Suites: boundary transport
# ---------------------------------------------------------------------------

def _transport_gap(t) -> float:
    """||f(shilov_l4_param(q)) - t||_2 at the parameter q that t's coordinates
    propose (omega^2 = -t3, x2 = Re(t4 / 2 omega), x3 + i x4 = t1 / omega,
    x1 from |x| = 1).  q is only a proposal: the gap is a distance to one
    point of the transported set, so it bounds the nearest distance above."""
    t1, _, t3, t4 = t
    s = cmath.sqrt(-t3)
    omega = s / abs(s)
    x2 = (t4 / (2.0 * omega)).real
    u = t1 / omega
    x3, x4 = u.real, u.imag
    x1 = math.sqrt(max(0.0, 1.0 - x2 * x2 - x3 * x3 - x4 * x4))
    r = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4)
    q = ShilovParamL4(cmath.phase(omega), (x1 / r, x2 / r, x3 / r, x4 / r))
    img = biholo_f(shilov_l4_param(q))
    return math.hypot(*(abs(v - w) for v, w in zip(img, t)))


@_suite("thm32_boundary_transport")
def _(run: _Run) -> None:
    """Forward: mapped boundary-lattice points land on the distinguished
    boundary (and agree exactly with the direct parametrization).  Reverse:
    each parametrized boundary point t is matched by the transported point
    at the parameter its own coordinates propose (_transport_gap), checked
    by evaluating f forward.  Plus interior transport on a subsample, which
    excludes no band."""
    rng = run.rng
    for i in range(run.n):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        x = _unit_s3(rng)
        img = biholo_f(shilov_l4_param(ShilovParamL4(theta, x)))
        if not shilov_f_test(img, max(run.tol, _BOUNDARY_TOL)):
            run.fail(f"kind=forward index={i} theta={theta:.17g} "
                     f"x=({x[0]:.17g},{x[1]:.17g},{x[2]:.17g},{x[3]:.17g}) "
                     f"img={_pt17(img)} observed=off_boundary")
            continue
        ref = shilov_f_param(ShilovParamF(theta, x[1], x[2], x[3]))
        gap = max(abs(u - v) for u, v in zip(img, ref))
        if gap > _ROUNDING_GAP:
            run.fail(f"kind=composite_identity index={i} theta={theta:.17g} "
                     f"gap={gap:.17g}")

    for i in range(max(10, run.n // 10)):
        z = _lie_ball_interior(rng)
        _lie_ball_dual(z, run.tol)   # z: the sampler's complex coordinates
        fv = f_classify(biholo_f(lambda_map(z)), run.tol)
        if fv.region is not INTERIOR and abs(fv.margin) > BAND_FACTOR * run.tol:
            run.fail(f"kind=interior_transport index={i} z={_pt17(z)} "
                     f"observed={fv.region.value} margin={fv.margin:.17g}")

    for i in range(min(max(run.n // 10, 10), 1000)):
        target = shilov_f_param(sample_shilov_param_f(rng))
        gap = _transport_gap(target)
        if not gap <= _MATCH_GAP:
            run.fail(f"kind=match index={i} target={_pt17(target)} gap={gap:.17g}")


@_suite("thm33_shilov_equivalences")
def _(run: _Run) -> None:
    """Both boundary parametrizations pass the closed-form test and classify
    on the closure boundary; radial perturbations fall off the boundary."""
    rng = run.rng
    test_tol = max(run.tol, _BOUNDARY_TOL)
    for i in range(run.n):
        pt = shilov_f_param(sample_shilov_param_f(rng))
        fv = f_classify(pt, test_tol)
        if not shilov_f_test(pt, test_tol):
            run.fail(f"kind=param_test index={i} pt={_pt17(pt)}")
        elif fv.region is not CLOSURE_BOUNDARY or fv.shilov is not True:
            run.fail(f"kind=param_verdict index={i} pt={_pt17(pt)} "
                     f"region={fv.region.value} shilov={fv.shilov}")

        phi = rng.uniform(0.0, 2.0 * math.pi)
        r2 = rng.random()
        z = math.sqrt(r2) * math.sqrt(rng.random()) * cmath.exp(1j * phi)
        wmax = math.sqrt(max(1.0 - abs(z) ** 2, 0.0))
        w = wmax * math.sqrt(rng.random()) * cmath.exp(
            1j * rng.uniform(0.0, 2.0 * math.pi))
        eta = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        pt2 = shilov_f_from_ball(BallParamF(z, w, eta))
        if not shilov_f_test(pt2, test_tol):
            run.fail(f"kind=ball_param index={i} z={_c17(z)} w={_c17(w)} "
                     f"eta={_c17(eta)} pt={_pt17(pt2)}")

        inner = shilov_f_test(f_scale(pt, 0.97), test_tol)
        outer = shilov_f_test(f_rescale_by(pt, 0.97), test_tol)
        if inner or outer:
            run.fail(f"kind=perturbed index={i} pt={_pt17(pt)} "
                     f"inner={inner} outer={outer}")


@_suite("cor34_necessity")
def _(run: _Run) -> None:
    """Distinguished-boundary points satisfy the two necessary conditions."""
    test_tol = max(run.tol, _BOUNDARY_TOL)
    for i in range(run.n):
        pt = shilov_f_param(sample_shilov_param_f(run.rng))
        x, a, p, s = pt
        if not be_test((x, a, p), test_tol):
            run.fail(f"kind=be_leg index={i} pt={_pt17(pt)}")
        if not bgamma_test((s, -p), test_tol):
            run.fail(f"kind=bgamma_leg index={i} pt={_pt17(pt)}")


@_suite("cor35_double_cover")
def _(run: _Run) -> None:
    """Antipodal parameters give the identical point; nearby non-antipodal
    parameters give distinct points."""
    for i in range(run.n):
        q = sample_shilov_param_f(run.rng)
        if not shilov_f_double_cover(q, max(run.tol, _BOUNDARY_TOL)):
            run.fail(f"kind=double_cover index={i} theta={q.theta:.17g} "
                     f"x=({q.x2:.17g},{q.x3:.17g},{q.x4:.17g})")


# ---------------------------------------------------------------------------
# Suites: structured singular value
# ---------------------------------------------------------------------------

def mu_equals_norm_suite(structure: Structure, n_samples: int = 100,
                         seed: int = 7, tol: float = _MU_NUMERIC_TOL) -> SuiteReport:
    """Sample matrices over mixed scales and compare mu against the operator
    norm; also spot-check the unit-sphere mapping property on random vector
    pairs.  Returns a SuiteReport whose failures list is empty exactly when
    the structure is rigid on the sample."""
    t0 = time.perf_counter()
    run = _Run(n_samples, seed, checked_tol(tol))
    samples: list[Matrix2] = [E12, E21]
    while len(samples) < n_samples:
        scale = 10.0 ** run.rng.uniform(-2.0, 2.0)
        samples.append(Matrix2(*(_complex_gauss(run.rng) * scale for _ in range(4))))
    for i, a in enumerate(samples[:n_samples]):
        norm = operator_norm(a)
        mu = mu_value(a, structure).value
        if abs(mu - norm) > tol * max(norm, _NORM_FLOOR):
            run.fail(f"kind=mu_vs_norm index={i} a={a!r} mu={mu:.17g} "
                     f"norm={norm:.17g}")
    for j in range(max(4, min(25, n_samples // 4))):
        uu = _unit_vector(run.rng)
        vv = _unit_vector(run.rng)
        if rigidity_check(structure, uu, vv, max(tol, _MU_TOL)) is None:
            run.fail(f"kind=rigidity index={j} u=({uu[0]:.17g},{uu[1]:.17g}) "
                     f"v=({vv[0]:.17g},{vv[1]:.17g}) result=absent")
    return run.report(f"mu_equals_norm[{structure.name or 'anon'}]",
                      elapsed=time.perf_counter() - t0)


_SANDWICH_NAMES = ("scalar", "diag", "upper", "lower", "full")


@_suite("mu_sandwich", _NUMERIC_N, _MU_TOL)
def _(run: _Run) -> None:
    """r(A) <= mu(A) <= ||A|| over every identity-containing preset."""
    rng = run.rng
    for i in range(run.n):
        k = i % (len(_SANDWICH_NAMES) + 1)
        if k < len(_SANDWICH_NAMES):
            st = structure_from_name(_SANDWICH_NAMES[k])
        else:
            st = e_theta(rng.uniform(0.0, 2.0 * math.pi))
        a = Matrix2(_complex_gauss(rng), _complex_gauss(rng),
                    _complex_gauss(rng), _complex_gauss(rng)
                    ).scale(10.0 ** rng.uniform(-1.0, 1.0))
        if not mu_sandwich_check(a, st, run.tol):
            run.fail(f"kind=sandwich index={i} structure={st.name} "
                     f"a={_pt17(a.entries())} mu={mu_value(a, st).value:.17g} "
                     f"r={spectral_radius(a):.17g} norm={operator_norm(a):.17g}")


_RIGID_PRESETS = ("e_theta:0.0", "e_theta:0.7", "e_theta:2.1", "skewdiag",
                  "full")
_NONRIGID_PRESETS = ("scalar", "diag", "upper", "lower")

# A single point outside the domain whose matrix fiber {B, B^t} is invisible
# to each non-rigid preset (the constraint det(I - BX) = 0 degenerates), so
# the mu-based membership test wrongly reports inside.  Discriminates every
# non-rigid preset at once.
_NONRIGID_WITNESS_PT = (0.0, 0.0, 0.0, 2.0)


def _mu_membership_leg(st: Structure, rng: random.Random, n_pts: int,
                       tol: float) -> Optional[str]:
    """None if the mu-membership test agrees with the domain verdict on all
    sampled points, else one failure description."""
    pts = [_NONRIGID_WITNESS_PT]
    while len(pts) < n_pts:
        pt = _mixed_point_f(rng)
        if abs(f_classify(pt).margin) > _MEMBERSHIP_GAP:
            pts.append(pt)
    for pt in pts:
        expected = f_classify(pt).is_interior
        got = f_mu_membership(pt, st, tol)
        if got != expected:
            return (f"pt={_pt17(pt)} mu_member={got} "
                    f"domain_interior={expected}")
    return None


@_suite("thm41_equivalence", _NUMERIC_N, _MU_TOL)
def _(run: _Run) -> None:
    """The three legs of the equivalence (norm attainment, unit-sphere
    rigidity, membership agreement) answer identically on every preset, and
    the answer matches the known classification.  Each preset draws from its
    own random.Random(seed)."""
    cases = [(name, True) for name in _RIGID_PRESETS]
    cases += [(name, False) for name in _NONRIGID_PRESETS]
    for name, expected in cases:
        st = structure_from_name(name)
        rng = random.Random(run.seed)
        leg_norm = mu_equals_norm_suite(
            st, n_samples=min(run.n, 14), seed=run.seed, tol=_MU_NUMERIC_TOL).passed
        leg_rigid = rigidity_grid_pass(st, n_side=6, tol=max(run.tol, _MU_TOL))
        mismatch = _mu_membership_leg(st, rng, max(4, min(run.n // 16, 8)),
                                      max(run.tol, _MU_TOL))
        leg_member = mismatch is None
        if not (leg_norm == leg_rigid == leg_member == expected):
            run.fail(f"kind=equivalence structure={name} norm_leg={leg_norm} "
                     f"rigidity_leg={leg_rigid} membership_leg={leg_member} "
                     f"expected={expected} witness={mismatch or 'none'}")


@_suite("cor42_etheta", _NUMERIC_N, _MU_TOL)
def _(run: _Run) -> None:
    """Every phase-parametrized preset attains the norm and reproduces the
    domain by mu-membership."""
    rng = run.rng
    thetas = [0.0, 0.7, 2.1, rng.uniform(0.0, 2.0 * math.pi),
              rng.uniform(-math.pi, math.pi)]
    for theta in thetas:
        st = e_theta(theta)
        rep = mu_equals_norm_suite(st, n_samples=run.n, seed=run.seed, tol=_MU_NUMERIC_TOL)
        for rec in rep.failures:
            run.fail(f"theta={theta:.17g} {rec}")
        mismatch = _mu_membership_leg(st, rng, max(4, min(run.n // 5, 20)),
                                      max(run.tol, _MU_TOL))
        if mismatch is not None:
            run.fail(f"kind=membership theta={theta:.17g} {mismatch}")


def _angle_gap(a: float, b: float) -> float:
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


@_suite("final_classification", _NUMERIC_N, DEFAULT_TOL)
def _(run: _Run) -> None:
    """Subspace classification: phase recovery on scrambled bases, rejection
    of the non-rigid three-dimensional presets with explicit mu witnesses."""
    rng = run.rng
    theta_tol = max(run.tol, _BOUNDARY_TOL)
    for i in range(run.n):
        theta = rng.uniform(-8.0, 8.0)
        st = e_theta(theta)
        if i % 3 == 0:
            # same span, scrambled basis
            w = cmath.exp(1j * theta)
            g = Matrix2(_complex_gauss(rng) * 0.3, 1,
                        w, _complex_gauss(rng) * 0.3)
            st = Structure((Matrix2(1, 0, 0, 1), Matrix2(1, 0, 0, -1), g),
                           name=f"scrambled:{theta!r}")
        sv = classify_subspace(st, theta_tol)
        if sv.kind != "IsETheta" or _angle_gap(sv.theta, theta) > theta_tol:
            got = sv.theta if sv.theta is not None else float("nan")
            run.fail(f"kind=recover index={i} theta={theta:.17g} "
                     f"got_kind={sv.kind} got_theta={got:.17g}")

    for name, wit, expected_mu in (("upper", E12, 0.0), ("lower", E21, 0.0)):
        st = structure_from_name(name)
        sv = classify_subspace(st, theta_tol)
        res = mu_value(wit, st)
        if sv.kind != "NotETheta":
            run.fail(f"kind=reject structure={name} got={sv.kind}")
        if abs(res.value - expected_mu) > _MU_EXACT_GAP or res.value == operator_norm(wit):
            run.fail(f"kind=witness structure={name} mu={res.value:.17g} "
                     f"expected={expected_mu:.17g} norm={operator_norm(wit):.17g}")

    odd = Structure((Matrix2(1, 0, 0, 0), Matrix2(0, 0, 0, 1),
                     Matrix2(0, 1, 2, 0)), name="odd_offdiag")
    sv = classify_subspace(odd, theta_tol)
    if sv.kind != "NotETheta":
        run.fail(f"kind=reject structure=odd_offdiag got={sv.kind}")
    res = mu_value(E21, odd)
    if abs(res.value - 0.5) > _MU_NUMERIC_TOL:
        run.fail(f"kind=witness structure=odd_offdiag mu={res.value:.17g} "
                 f"expected=0.5 norm=1")


# ---------------------------------------------------------------------------
# Counterexamples
# ---------------------------------------------------------------------------

def run_counterexamples(r_grid: Sequence[float] = DEFAULT_R_GRID) -> SuiteReport:
    """Re-derive the worked counterexamples on a grid of radii.

    For each r: the (0, 1 - r^2/2, r^2, 0) family is outside the
    four-coordinate domain with the predicted defect value while its bidisc
    and pentablock projections are interior; the (0, 1 - r^2/2, 0, r^2)
    family has an interior tetrablock projection; (0, 0, r^2, 0) is interior
    while (0, 0, 0, r^2) misses the normed variant.  Fixed points: the
    r -> 1 limit (0, 1/2, 0, 1) with defect -1/4, and (i, 1, i, 1-i), which
    satisfies both necessary boundary conditions yet is not on the
    distinguished boundary.
    """
    t0 = time.perf_counter()
    r_grid = tuple(r_grid)
    run = _Run(len(r_grid), 0, DEFAULT_TOL)
    for r in r_grid:
        if not (0.0 < r < 1.0):
            raise PreconditionViolation(f"r values must lie in (0, 1), got {r!r}")
        a = 1.0 - r * r / 2.0
        pt = (0.0, a, r * r, 0.0)
        q_expected = (1.0 - r * r) ** 2 - a * a
        q = q_value(pt)
        if abs(q - q_expected) > _ROUNDING_GAP:
            run.fail(f"kind=eg309_q r={r:.17g} q={q:.17g} expected={q_expected:.17g}")
        if f_classify(pt).region is not OUTSIDE:
            run.fail(f"kind=eg309_f r={r:.17g} pt={_pt17(pt)}")
        for kind, margin in (   # classifier margins from the dual kernels
                ("eg309_penta", _penta_dual((a + 0j, 0j, -r * r + 0j), run.tol)[0]),
                ("eg309_g2", _g2_dual((0j, -r * r + 0j), run.tol)),
                ("eg310_tetra", _tetra_dual((0j, a + 0j, 0j), run.tol))):
            if not margin > run.tol:
                run.fail(f"kind={kind} r={r:.17g}")

        if f_classify((0.0, 0.0, r * r, 0.0)).region is not INTERIOR:
            run.fail(f"kind=slice_inside r={r:.17g}")
        if hn_classify((0.0, 0.0, 0.0, r * r)).in_closure:
            run.fail(f"kind=hn_outside r={r:.17g}")

    lim = (0.0, 0.5, 0.0, 1.0)
    if abs(q_value(lim) + 0.25) > _ROUNDING_GAP:
        run.fail(f"kind=eg310_q q={q_value(lim):.17g} expected=-0.25")
    if f_classify(lim).region is not OUTSIDE:
        run.fail(f"kind=eg310_f pt={_pt17(lim)}")
    for name, region, _ in _projection_legs(f_relations(lim)):
        if region is OUTSIDE:
            run.fail(f"kind=eg310_projection leg={name} observed={region.value}")

    pt34 = (1j, 1.0, 1j, 1.0 - 1j)
    if not be_test((pt34[0], pt34[1], pt34[2])):
        run.fail("kind=post_cor34 leg=be expected=true")
    if not bgamma_test((pt34[3], -pt34[2])):
        run.fail("kind=post_cor34 leg=bgamma expected=true")
    if shilov_f_test(pt34):
        run.fail("kind=post_cor34 leg=shilov expected=false")

    return run.report("counterexamples", elapsed=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def suite_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def run_suite(name: str, n_samples: Optional[int] = None,
              seed: int = DEFAULT_SEED,
              tol: Optional[float] = None) -> SuiteReport:
    """Run one registered suite, timed into its report's elapsed; None
    arguments pick the suite's defaults."""
    try:
        spec = _REGISTRY[name]
    except KeyError:
        raise UnknownSuite(
            f"unknown suite {name!r}; known: {', '.join(_REGISTRY)}") from None
    n = spec.default_n if n_samples is None else int(n_samples)
    t = spec.default_tol if tol is None else checked_tol(float(tol))
    if n <= 0:
        raise PreconditionViolation(f"n_samples must be positive, got {n}")
    t0 = time.perf_counter()
    report = spec.fn(n, seed, t)
    return replace(report, elapsed=time.perf_counter() - t0)


def run_all(seed: int = DEFAULT_SEED,
            r_grid: Sequence[float] = DEFAULT_R_GRID) -> list[SuiteReport]:
    """Every registry suite at default sizes, plus the counterexample grid."""
    reports = [run_suite(name, seed=seed) for name in _REGISTRY]
    reports.append(run_counterexamples(r_grid))
    return reports
