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
noise (outside-dense).
"""

from __future__ import annotations

import cmath
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .bidisc import bgamma_test, g2_classify
from .domain_f import (f_classify, f_classify_matrix_oracle, f_relations,
                       f_rescale_by, f_scale, f_swap, pi_f, q_value,
                       sample_point_f, sample_shilov_param_f, shilov_f_from_ball,
                       shilov_f_double_cover, shilov_f_param, shilov_f_test,
                       BallParamF, ShilovParamF)
from .errors import PreconditionViolation, UnknownSuite
from .hexablock import hexa_classify, hn_classify, pi_hexa
from .lie_ball import (biholo_f, lambda_map, lie_ball_classify,
                       nearest_transport_distance, shilov_l4_param,
                       ShilovParamL4)
from .matrix2 import (Matrix2, contraction_from_rng, gram_det_from_coords,
                      operator_norm, spectral_radius, unitary_from_rng)
from .mu import (E12, E21, classify_subspace, e_theta, f_mu_membership,
                 mu_equals_norm_suite, mu_sandwich_check, mu_value,
                 rigidity_grid_pass, structure_from_name, Structure)
from .pentablock import penta_classify, penta_dual_check
from .tetrablock import be_point, be_test, pi_tetra, tetra_classify
from .verdict import BAND_FACTOR, Region

DEFAULT_SEED = 7
DEFAULT_R_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)


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
        return {
            "suite": self.suite,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "tol": self.tol,
            "failures": sorted(self.failures),
            "band_excluded": self.band_excluded,
            "elapsed": self.elapsed,
            "passed": self.passed,
        }


def _c17(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _pt17(pt) -> str:
    return "(" + ",".join(_c17(v) for v in pt) + ")"


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def _complex_gauss(rng: random.Random) -> complex:
    return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))


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
    return (u @ Matrix2(s1, 0, 0, s2)) @ v.conj_transpose()


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
    """Rejection sample of the open Cartan-ball interior in C^4."""
    while True:
        z = tuple(0.55 * _complex_gauss(rng) for _ in range(4))
        v = lie_ball_classify(z, 0.0)
        if v.region is Region.INTERIOR and v.margin > 1e-6:
            return z


def _unit_s3(rng: random.Random):
    while True:
        g = [rng.gauss(0.0, 1.0) for _ in range(4)]
        n = math.sqrt(sum(t * t for t in g))
        if n > 1e-9:
            return tuple(t / n for t in g)


# ---------------------------------------------------------------------------
# Suites: matrix kernel and the four-coordinate domain
# ---------------------------------------------------------------------------

def _suite_lemma21_gram(n: int, seed: int, tol: float) -> SuiteReport:
    """det(I - B*B) direct vs the coordinate closed form."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    ident = Matrix2.identity()
    for i in range(n):
        b = _mixed_matrix(rng)
        g = ident - (b.conj_transpose() @ b)
        direct = g.det
        closed = gram_det_from_coords(b.a11, b.a22, b.det, b.a12 + b.a21)
        if abs(direct.imag) > tol or abs(direct.real - closed) > tol:
            failures.append(
                f"kind=gram_det index={i} b={_pt17(b.entries())} "
                f"direct={_c17(direct)} closed={closed:.17g}")
    return SuiteReport("lemma21_gram", n, seed, tol, tuple(failures),
                       elapsed=time.perf_counter() - t0)


def _suite_prop22_vs_oracle(n: int, seed: int, tol: float) -> SuiteReport:
    """Coordinate criteria vs matrix-reconstruction oracle, full verdict."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    band = 0
    for i in range(n):
        pt = _mixed_point_f(rng)
        va = f_classify(pt, tol)
        vb = f_classify_matrix_oracle(pt, tol)
        if min(abs(va.margin), abs(vb.margin)) <= BAND_FACTOR * tol:
            band += 1
            continue
        if va.region is not vb.region:
            failures.append(
                f"kind=verdict index={i} pt={_pt17(pt)} "
                f"criteria={va.region.value} oracle={vb.region.value} "
                f"margins={va.margin:.17g},{vb.margin:.17g}")
    return SuiteReport("prop22_vs_oracle", n, seed, tol, tuple(failures),
                       band_excluded=band, elapsed=time.perf_counter() - t0)


def _suite_prop24_closure(n: int, seed: int, tol: float) -> SuiteReport:
    """Closure = image of the closed ball; non-strict criteria vs oracle."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    band = 0
    for i in range(n // 2):
        pt = pi_f(_closed_ball_matrix(rng))
        fv = f_classify(pt, tol)
        if fv.margin < -BAND_FACTOR * tol:
            failures.append(
                f"kind=closed_ball_image index={i} pt={_pt17(pt)} "
                f"observed={fv.region.value} expected=closure "
                f"margin={fv.margin:.17g}")
    for i in range(n - n // 2):
        pt = _mixed_point_f(rng)
        va = f_classify(pt, tol)
        vb = f_classify_matrix_oracle(pt, tol)
        if min(abs(va.margin), abs(vb.margin)) <= BAND_FACTOR * tol:
            band += 1
            continue
        if va.in_closure != vb.in_closure:
            failures.append(
                f"kind=closure_agreement index={i} pt={_pt17(pt)} "
                f"criteria={va.in_closure} oracle={vb.in_closure}")
    return SuiteReport("prop24_closure", n, seed, tol, tuple(failures),
                       band_excluded=band, elapsed=time.perf_counter() - t0)


def _suite_swap_involution(n: int, seed: int, tol: float) -> SuiteReport:
    """The coordinate swap preserves the verdict; so does applying it twice."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    band = 0
    for i in range(n):
        pt = _mixed_point_f(rng)
        v0 = f_classify(pt, tol)
        p1 = f_swap(pt)
        v1 = f_classify(p1, tol)
        p2 = f_swap(p1)
        v2 = f_classify(p2, tol)
        margins = (abs(v0.margin), abs(v1.margin), abs(v2.margin))
        if min(margins) <= BAND_FACTOR * tol:
            band += 1
            continue
        if v1.region is not v0.region or v2.region is not v0.region:
            failures.append(
                f"kind=swap_verdict index={i} pt={_pt17(pt)} "
                f"orig={v0.region.value} once={v1.region.value} "
                f"twice={v2.region.value}")
    return SuiteReport("swap_involution", n, seed, tol, tuple(failures),
                       band_excluded=band, elapsed=time.perf_counter() - t0)


def _suite_lemma25_scaling(n: int, seed: int, tol: float) -> SuiteReport:
    """Quasi-balanced inward scaling sends the closure into the interior."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    band = 0
    for i in range(n):
        if rng.random() < 0.5:
            pt = pi_f(_closed_ball_matrix(rng))
        else:
            pt = shilov_f_param(sample_shilov_param_f(rng))
        r = rng.uniform(0.05, 0.95)
        sv = f_classify(f_scale(pt, r), tol)
        if sv.region is Region.INTERIOR:
            continue
        if abs(sv.margin) <= BAND_FACTOR * tol:
            band += 1
            continue
        failures.append(
            f"kind=scaled_not_interior index={i} pt={_pt17(pt)} r={r:.17g} "
            f"observed={sv.region.value} margin={sv.margin:.17g}")
    return SuiteReport("lemma25_scaling", n, seed, tol, tuple(failures),
                       band_excluded=band, elapsed=time.perf_counter() - t0)


def _suite_thm29_projections(n: int, seed: int, tol: float) -> SuiteReport:
    """Interior points project into the three classical domains; the
    pentablock projection is also held to its numeric supremum."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    band = 0
    for i in range(n):
        pt = pi_f(contraction_from_rng(rng))
        fv = f_classify(pt, tol)
        if abs(fv.margin) <= BAND_FACTOR * tol:
            band += 1
            continue
        if not fv.is_interior:
            failures.append(
                f"kind=image_not_interior index={i} pt={_pt17(pt)} "
                f"observed={fv.region.value} margin={fv.margin:.17g}")
            continue
        rel = f_relations(pt)
        legs = (("g2", g2_classify(rel.g2, tol)),
                ("tetra", tetra_classify(rel.tetra, tol)),
                ("penta", penta_classify(rel.penta, tol)))
        penta_dual_check(rel.penta, tol)
        for name, v in legs:
            if v.region is Region.INTERIOR:
                continue
            if abs(v.margin) <= BAND_FACTOR * tol:
                band += 1
                continue
            failures.append(
                f"kind=projection index={i} pt={_pt17(pt)} leg={name} "
                f"observed={v.region.value} margin={v.margin:.17g}")
    return SuiteReport("thm29_projections", n, seed, tol, tuple(failures),
                       band_excluded=band, elapsed=time.perf_counter() - t0)


def _suite_prop210_slice(n: int, seed: int, tol: float) -> SuiteReport:
    """s = 0 slice: three-way equivalence with the tetrablock and the a = 0
    hexablock slice."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    band = 0
    for i in range(n):
        x = _mixed_point_tetra(rng)
        fv = f_classify((x[0], x[1], x[2], 0.0), tol)
        tv = tetra_classify(x, tol)
        hv = hexa_classify((0.0, x[0], x[1], x[2]), tol)
        if min(abs(fv.margin), abs(tv.margin), abs(hv.margin)) <= BAND_FACTOR * tol:
            band += 1
            continue
        if not (fv.is_interior == tv.is_interior == hv.is_interior):
            failures.append(
                f"kind=slice_s0 index={i} x={_pt17(x)} "
                f"f={fv.is_interior} tetra={tv.is_interior} hexa={hv.is_interior}")
    return SuiteReport("prop210_slice", n, seed, tol, tuple(failures),
                       band_excluded=band, elapsed=time.perf_counter() - t0)


def _suite_prop211_slice(n: int, seed: int, tol: float) -> SuiteReport:
    """x = a = 0 slice against the two-coordinate domain with negated product."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    band = 0
    for i in range(n):
        if rng.random() < 0.5:
            z1 = math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            z2 = math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            s, p = z1 + z2, -(z1 * z2)
        else:
            p = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            s = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        fv = f_classify((0.0, 0.0, p, s), tol)
        gv = g2_classify((s, -p), tol)
        if min(abs(fv.margin), abs(gv.margin)) <= BAND_FACTOR * tol:
            band += 1
            continue
        if fv.is_interior != gv.is_interior:
            failures.append(
                f"kind=slice_xa0 index={i} p={_c17(p)} s={_c17(s)} "
                f"f={fv.is_interior} g2={gv.is_interior}")
    return SuiteReport("prop211_slice", n, seed, tol, tuple(failures),
                       band_excluded=band, elapsed=time.perf_counter() - t0)


def _suite_cor213_closure_projections(n: int, seed: int, tol: float) -> SuiteReport:
    """Closure points project into the three closed domains (plus the negated
    product pair, the fourth conclusion); the pentablock projection is also
    held to its numeric supremum."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    band = 0
    for i in range(n):
        if rng.random() < 0.5:
            pt = pi_f(_closed_ball_matrix(rng))
        else:
            pt = shilov_f_param(sample_shilov_param_f(rng))
        rel = f_relations(pt)
        x, a, p, s = pt
        legs = (("g2", g2_classify(rel.g2, tol)),
                ("tetra", tetra_classify(rel.tetra, tol)),
                ("penta", penta_classify(rel.penta, tol)),
                ("g2_neg_p", g2_classify((s, -p), tol)))
        penta_dual_check(rel.penta, tol)
        for name, v in legs:
            if v.in_closure:
                continue
            if abs(v.margin) <= BAND_FACTOR * tol:
                band += 1
                continue
            failures.append(
                f"kind=closure_projection index={i} pt={_pt17(pt)} leg={name} "
                f"observed={v.region.value} margin={v.margin:.17g}")
    return SuiteReport("cor213_closure_projections", n, seed, tol,
                       tuple(failures), band_excluded=band,
                       elapsed=time.perf_counter() - t0)


def _suite_prop215_hn(n: int, seed: int, tol: float) -> SuiteReport:
    """a != 0 membership in the normed variant: four-coordinate reduction vs
    direct matrix reconstruction."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    band = 0
    for i in range(n):
        if rng.random() < 0.5:
            b = _mixed_matrix(rng)
            pt = pi_hexa(b)
        else:
            pt = (complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)),
                  complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)),
                  complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)),
                  complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)))
        a, x1, x2, x3 = pt
        if abs(a) < 1e-6:
            band += 1
            continue
        t = (x1 * x2 - x3) / a
        norm = operator_norm(Matrix2(x1, t, a, x2))
        fv = f_classify((x1, x2, x3, a + t), tol)
        if abs(norm - 1.0) <= 1e-7 or abs(fv.margin) <= BAND_FACTOR * tol:
            band += 1
            continue
        via_f = hn_classify(pt, tol).in_open
        direct = norm < 1.0
        if via_f != direct:
            failures.append(
                f"kind=hn_open index={i} pt={_pt17(pt)} via_f={via_f} "
                f"direct={direct} norm={norm:.17g}")
    return SuiteReport("prop215_hn", n, seed, tol, tuple(failures),
                       band_excluded=band, elapsed=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Suites: boundary transport
# ---------------------------------------------------------------------------

def _suite_thm32_boundary_transport(n: int, seed: int, tol: float) -> SuiteReport:
    """Forward: mapped boundary-lattice points land on the distinguished
    boundary (and agree exactly with the direct parametrization).  Reverse:
    parametrized boundary points are matched by the transported set.  Plus
    interior transport on a subsample."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    for i in range(n):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        x = _unit_s3(rng)
        img = biholo_f(shilov_l4_param(ShilovParamL4(theta, x)))
        if not shilov_f_test(img, max(tol, 1e-9)):
            failures.append(
                f"kind=forward index={i} theta={theta:.17g} "
                f"x=({x[0]:.17g},{x[1]:.17g},{x[2]:.17g},{x[3]:.17g}) "
                f"img={_pt17(img)} observed=off_boundary")
            continue
        ref = shilov_f_param(ShilovParamF(theta, x[1], x[2], x[3]))
        gap = max(abs(u - v) for u, v in zip(img, ref))
        if gap > 1e-12:
            failures.append(
                f"kind=composite_identity index={i} theta={theta:.17g} "
                f"gap={gap:.17g}")

    n_int = max(10, n // 10)
    for i in range(n_int):
        z = _lie_ball_interior(rng)
        fv = f_classify(biholo_f(lambda_map(z)), tol)
        if fv.region is not Region.INTERIOR and abs(fv.margin) > BAND_FACTOR * tol:
            failures.append(
                f"kind=interior_transport index={i} z={_pt17(z)} "
                f"observed={fv.region.value} margin={fv.margin:.17g}")

    n_match = min(max(n // 10, 10), 1000)
    for i in range(n_match):
        target = shilov_f_param(sample_shilov_param_f(rng))
        d = nearest_transport_distance(target)
        if not d <= 1e-8:
            failures.append(
                f"kind=match index={i} target={_pt17(target)} dist={d:.17g}")
    return SuiteReport("thm32_boundary_transport", n, seed, tol,
                       tuple(failures), elapsed=time.perf_counter() - t0)


def _suite_thm33_shilov_equivalences(n: int, seed: int, tol: float) -> SuiteReport:
    """Both boundary parametrizations pass the closed-form test and classify
    on the closure boundary; radial perturbations fall off the boundary."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    test_tol = max(tol, 1e-9)
    for i in range(n):
        q = sample_shilov_param_f(rng)
        pt = shilov_f_param(q)
        fv = f_classify(pt, test_tol)
        if not shilov_f_test(pt, test_tol):
            failures.append(f"kind=param_test index={i} pt={_pt17(pt)}")
        elif fv.region is not Region.CLOSURE_BOUNDARY or fv.shilov is not True:
            failures.append(
                f"kind=param_verdict index={i} pt={_pt17(pt)} "
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
            failures.append(
                f"kind=ball_param index={i} z={_c17(z)} w={_c17(w)} "
                f"eta={_c17(eta)} pt={_pt17(pt2)}")

        inner = f_scale(pt, 0.97)
        outer = f_rescale_by(pt, 0.97)
        if shilov_f_test(inner, test_tol) or shilov_f_test(outer, test_tol):
            failures.append(
                f"kind=perturbed index={i} pt={_pt17(pt)} "
                f"inner={shilov_f_test(inner, test_tol)} "
                f"outer={shilov_f_test(outer, test_tol)}")
    return SuiteReport("thm33_shilov_equivalences", n, seed, tol,
                       tuple(failures), elapsed=time.perf_counter() - t0)


def _suite_cor34_necessity(n: int, seed: int, tol: float) -> SuiteReport:
    """Distinguished-boundary points satisfy the two necessary conditions."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    test_tol = max(tol, 1e-9)
    for i in range(n):
        pt = shilov_f_param(sample_shilov_param_f(rng))
        x, a, p, s = pt
        if not be_test((x, a, p), test_tol):
            failures.append(f"kind=be_leg index={i} pt={_pt17(pt)}")
        if not bgamma_test((s, -p), test_tol):
            failures.append(f"kind=bgamma_leg index={i} pt={_pt17(pt)}")
    return SuiteReport("cor34_necessity", n, seed, tol, tuple(failures),
                       elapsed=time.perf_counter() - t0)


def _suite_cor35_double_cover(n: int, seed: int, tol: float) -> SuiteReport:
    """Antipodal parameters give the identical point; nearby non-antipodal
    parameters give distinct points."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    for i in range(n):
        q = sample_shilov_param_f(rng)
        if not shilov_f_double_cover(q, max(tol, 1e-9)):
            failures.append(
                f"kind=double_cover index={i} theta={q.theta:.17g} "
                f"x=({q.x2:.17g},{q.x3:.17g},{q.x4:.17g})")
    return SuiteReport("cor35_double_cover", n, seed, tol, tuple(failures),
                       elapsed=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Suites: structured singular value
# ---------------------------------------------------------------------------

_SANDWICH_NAMES = ("scalar", "diag", "upper", "lower", "full")


def _suite_mu_sandwich(n: int, seed: int, tol: float) -> SuiteReport:
    """r(A) <= mu(A) <= ||A|| over every identity-containing preset."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    for i in range(n):
        k = i % (len(_SANDWICH_NAMES) + 1)
        if k < len(_SANDWICH_NAMES):
            st = structure_from_name(_SANDWICH_NAMES[k])
        else:
            st = e_theta(rng.uniform(0.0, 2.0 * math.pi))
        a = Matrix2(_complex_gauss(rng), _complex_gauss(rng),
                    _complex_gauss(rng), _complex_gauss(rng)
                    ).scale(10.0 ** rng.uniform(-1.0, 1.0))
        if not mu_sandwich_check(a, st, tol):
            failures.append(
                f"kind=sandwich index={i} structure={st.name} "
                f"a={_pt17(a.entries())} mu={mu_value(a, st).value:.17g} "
                f"r={spectral_radius(a):.17g} norm={operator_norm(a):.17g}")
    return SuiteReport("mu_sandwich", n, seed, tol, tuple(failures),
                       elapsed=time.perf_counter() - t0)


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
        # avoid the numeric-precision band around the unit norm level
        fv = f_classify(pt, 1e-9)
        if abs(fv.margin) > 1e-3:
            pts.append(pt)
    for pt in pts:
        expected = f_classify(pt, 1e-9).is_interior
        got = f_mu_membership(pt, st, tol)
        if got != expected:
            return (f"pt={_pt17(pt)} mu_member={got} "
                    f"domain_interior={expected}")
    return None


def _suite_thm41_equivalence(n: int, seed: int, tol: float) -> SuiteReport:
    """The three legs of the equivalence (norm attainment, unit-sphere
    rigidity, membership agreement) answer identically on every preset, and
    the answer matches the known classification."""
    t0 = time.perf_counter()
    failures = []
    cases = [(name, True) for name in _RIGID_PRESETS]
    cases += [(name, False) for name in _NONRIGID_PRESETS]
    for name, expected in cases:
        st = structure_from_name(name)
        rng = random.Random(seed)
        leg_norm = mu_equals_norm_suite(
            st, n_samples=min(n, 14), seed=seed, tol=1e-5).passed
        leg_rigid = rigidity_grid_pass(st, n_side=6, tol=max(tol, 1e-6))
        mismatch = _mu_membership_leg(st, rng, max(4, min(n // 16, 8)),
                                      max(tol, 1e-6))
        leg_member = mismatch is None
        if not (leg_norm == leg_rigid == leg_member == expected):
            failures.append(
                f"kind=equivalence structure={name} norm_leg={leg_norm} "
                f"rigidity_leg={leg_rigid} membership_leg={leg_member} "
                f"expected={expected} witness={mismatch or 'none'}")
    return SuiteReport("thm41_equivalence", n, seed, tol, tuple(failures),
                       elapsed=time.perf_counter() - t0)


def _suite_cor42_etheta(n: int, seed: int, tol: float) -> SuiteReport:
    """Every phase-parametrized preset attains the norm and reproduces the
    domain by mu-membership."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    thetas = [0.0, 0.7, 2.1, rng.uniform(0.0, 2.0 * math.pi),
              rng.uniform(-math.pi, math.pi)]
    for theta in thetas:
        st = e_theta(theta)
        rep = mu_equals_norm_suite(st, n_samples=n, seed=seed, tol=1e-5)
        for rec in rep.failures:
            failures.append(f"theta={theta:.17g} {rec}")
        mismatch = _mu_membership_leg(st, rng, max(4, min(n // 5, 20)),
                                      max(tol, 1e-6))
        if mismatch is not None:
            failures.append(f"kind=membership theta={theta:.17g} {mismatch}")
    return SuiteReport("cor42_etheta", n, seed, tol, tuple(failures),
                       elapsed=time.perf_counter() - t0)


def _angle_gap(a: float, b: float) -> float:
    d = (a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _suite_final_classification(n: int, seed: int, tol: float) -> SuiteReport:
    """Subspace classification: phase recovery on scrambled bases, rejection
    of the non-rigid three-dimensional presets with explicit mu witnesses."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures = []
    theta_tol = max(tol, 1e-9)
    for i in range(n):
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
            failures.append(
                f"kind=recover index={i} theta={theta:.17g} got_kind={sv.kind} "
                f"got_theta={got:.17g}")

    witnesses = (
        ("upper", E12, 0.0),
        ("lower", E21, 0.0),
    )
    for name, wit, expected_mu in witnesses:
        st = structure_from_name(name)
        sv = classify_subspace(st, theta_tol)
        res = mu_value(wit, st)
        if sv.kind != "NotETheta":
            failures.append(f"kind=reject structure={name} got={sv.kind}")
        if abs(res.value - expected_mu) > 1e-9 or res.value == operator_norm(wit):
            failures.append(
                f"kind=witness structure={name} mu={res.value:.17g} "
                f"expected={expected_mu:.17g} norm={operator_norm(wit):.17g}")

    odd = Structure((Matrix2(1, 0, 0, 0), Matrix2(0, 0, 0, 1),
                     Matrix2(0, 1, 2, 0)), name="odd_offdiag")
    sv = classify_subspace(odd, theta_tol)
    if sv.kind != "NotETheta":
        failures.append(f"kind=reject structure=odd_offdiag got={sv.kind}")
    res = mu_value(E21, odd)
    if abs(res.value - 0.5) > 1e-5:
        failures.append(
            f"kind=witness structure=odd_offdiag mu={res.value:.17g} "
            f"expected=0.5 norm=1")
    return SuiteReport("final_classification", n, seed, tol, tuple(failures),
                       elapsed=time.perf_counter() - t0)


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
    failures = []
    for r in r_grid:
        if not (0.0 < r < 1.0):
            raise PreconditionViolation(f"r values must lie in (0, 1), got {r!r}")
        a = 1.0 - r * r / 2.0
        pt = (0.0, a, r * r, 0.0)
        q_expected = (1.0 - r * r) ** 2 - a * a
        q = q_value(pt)
        if abs(q - q_expected) > 1e-12:
            failures.append(
                f"kind=eg309_q r={r:.17g} q={q:.17g} expected={q_expected:.17g}")
        if f_classify(pt).region is not Region.OUTSIDE:
            failures.append(f"kind=eg309_f r={r:.17g} pt={_pt17(pt)}")
        if penta_classify((a, 0.0, -r * r)).region is not Region.INTERIOR:
            failures.append(f"kind=eg309_penta r={r:.17g}")
        penta_dual_check((a, 0.0, -r * r))
        if g2_classify((0.0, -r * r)).region is not Region.INTERIOR:
            failures.append(f"kind=eg309_g2 r={r:.17g}")

        if tetra_classify((0.0, a, 0.0)).region is not Region.INTERIOR:
            failures.append(f"kind=eg310_tetra r={r:.17g}")

        if f_classify((0.0, 0.0, r * r, 0.0)).region is not Region.INTERIOR:
            failures.append(f"kind=slice_inside r={r:.17g}")
        if hn_classify((0.0, 0.0, 0.0, r * r)).in_open:
            failures.append(f"kind=hn_outside r={r:.17g}")

    lim = (0.0, 0.5, 0.0, 1.0)
    if abs(q_value(lim) + 0.25) > 1e-12:
        failures.append(f"kind=eg310_q q={q_value(lim):.17g} expected=-0.25")
    if f_classify(lim).region is not Region.OUTSIDE:
        failures.append(f"kind=eg310_f pt={_pt17(lim)}")
    rel = f_relations(lim)
    for name, v in (("g2", g2_classify(rel.g2)),
                    ("tetra", tetra_classify(rel.tetra)),
                    ("penta", penta_classify(rel.penta))):
        if not v.in_closure:
            failures.append(f"kind=eg310_projection leg={name} "
                            f"observed={v.region.value}")
    penta_dual_check(rel.penta)

    pt34 = (1j, 1.0, 1j, 1.0 - 1j)
    if not be_test((pt34[0], pt34[1], pt34[2])):
        failures.append("kind=post_cor34 leg=be expected=true")
    if not bgamma_test((pt34[3], -pt34[2])):
        failures.append("kind=post_cor34 leg=bgamma expected=true")
    if shilov_f_test(pt34):
        failures.append("kind=post_cor34 leg=shilov expected=false")

    return SuiteReport("counterexamples", len(tuple(r_grid)), 0, 1e-12,
                       tuple(failures), elapsed=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SuiteSpec:
    fn: Callable[[int, int, float], SuiteReport]
    default_n: int
    default_tol: float


_ALGEBRAIC_N = 10_000
_NUMERIC_N = 100

_REGISTRY: dict[str, _SuiteSpec] = {
    "lemma21_gram": _SuiteSpec(_suite_lemma21_gram, _ALGEBRAIC_N, 1e-10),
    "prop22_vs_oracle": _SuiteSpec(_suite_prop22_vs_oracle, _ALGEBRAIC_N, 1e-9),
    "prop24_closure": _SuiteSpec(_suite_prop24_closure, _ALGEBRAIC_N, 1e-9),
    "swap_involution": _SuiteSpec(_suite_swap_involution, _ALGEBRAIC_N, 1e-9),
    "lemma25_scaling": _SuiteSpec(_suite_lemma25_scaling, _ALGEBRAIC_N, 1e-9),
    "thm29_projections": _SuiteSpec(_suite_thm29_projections, _ALGEBRAIC_N, 1e-9),
    "prop210_slice": _SuiteSpec(_suite_prop210_slice, _ALGEBRAIC_N, 1e-9),
    "prop211_slice": _SuiteSpec(_suite_prop211_slice, _ALGEBRAIC_N, 1e-9),
    "cor213_closure_projections": _SuiteSpec(
        _suite_cor213_closure_projections, _ALGEBRAIC_N, 1e-9),
    "prop215_hn": _SuiteSpec(_suite_prop215_hn, _ALGEBRAIC_N, 1e-9),
    "thm32_boundary_transport": _SuiteSpec(
        _suite_thm32_boundary_transport, _ALGEBRAIC_N, 1e-9),
    "thm33_shilov_equivalences": _SuiteSpec(
        _suite_thm33_shilov_equivalences, _ALGEBRAIC_N, 1e-9),
    "cor34_necessity": _SuiteSpec(_suite_cor34_necessity, _ALGEBRAIC_N, 1e-9),
    "cor35_double_cover": _SuiteSpec(_suite_cor35_double_cover, _ALGEBRAIC_N, 1e-9),
    "mu_sandwich": _SuiteSpec(_suite_mu_sandwich, _NUMERIC_N, 1e-6),
    "thm41_equivalence": _SuiteSpec(_suite_thm41_equivalence, _NUMERIC_N, 1e-6),
    "cor42_etheta": _SuiteSpec(_suite_cor42_etheta, _NUMERIC_N, 1e-6),
    "final_classification": _SuiteSpec(
        _suite_final_classification, _NUMERIC_N, 1e-9),
}


def suite_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def run_suite(name: str, n_samples: Optional[int] = None,
              seed: int = DEFAULT_SEED,
              tol: Optional[float] = None) -> SuiteReport:
    """Run one registered suite; None arguments pick the suite's defaults."""
    try:
        spec = _REGISTRY[name]
    except KeyError:
        raise UnknownSuite(
            f"unknown suite {name!r}; known: {', '.join(_REGISTRY)}") from None
    n = spec.default_n if n_samples is None else int(n_samples)
    t = spec.default_tol if tol is None else float(tol)
    if n <= 0:
        raise PreconditionViolation(f"n_samples must be positive, got {n}")
    return spec.fn(n, seed, t)


def run_all(seed: int = DEFAULT_SEED,
            r_grid: Sequence[float] = DEFAULT_R_GRID) -> list[SuiteReport]:
    """Every registry suite at default sizes, plus the counterexample grid."""
    reports = [run_suite(name, seed=seed) for name in _REGISTRY]
    reports.append(run_counterexamples(r_grid))
    return reports
