"""The acceptance gate: twelve pinned criteria, one test per criterion.

Every test seeds its own generator and freezes its tolerances inline, so a
failure here is a contract breach, not a flaky sample.  The terminal summary
(see conftest) prints one PASS/FAIL line per criterion.
"""

import math
import random
import time

import pytest

from mublocks.bidisc import bgamma_test, g2_classify
from mublocks.domain_f import (f_classify, f_classify_matrix_oracle,
                               f_relations, f_scale, f_slice_s_zero, pi_f,
                               q_value, sample_point_f, sample_shilov_param_f,
                               shilov_f_double_cover, shilov_f_param,
                               shilov_f_test)
from mublocks.hexablock import hexa_slice_a0, hn_classify, psi_sup
from mublocks.lie_ball import (ShilovParamL4, biholo_f,
                               nearest_transport_distance, shilov_l4_lattice,
                               shilov_l4_param, transported_lattice)
from mublocks.matrix2 import (Matrix2, contraction_from_rng, gram_report,
                              operator_norm, spectral_radius)
from mublocks.mu import (E12, E21, Structure, classify_subspace, e_theta,
                         mu_value, rigidity_check, rigidity_grid_pass,
                         structure_from_name)
from mublocks.pentablock import penta_classify, penta_dual_check
from mublocks.tetrablock import be_test, pi_tetra, tetra_classify
from mublocks.verdict import Region
from mublocks.verify import run_all


def _rand_matrix(rng, scale=1.0):
    return Matrix2(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) * scale
                     for _ in range(4)))


def test_criterion_01_gram_identity_bulk():
    # direct det(I - B*B) vs the coordinate formula, 1e5 matrices, < 5 s;
    # gram_report raises FormulaMismatch past 1e-10, so surviving the loop
    # is the assertion
    rng = random.Random(1001)
    t0 = time.perf_counter()
    for _ in range(100_000):
        gram_report(_rand_matrix(rng, 10.0 ** rng.uniform(-1.0, 0.5)))
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_membership_vs_matrix_oracle():
    rng = random.Random(1002)
    tol = 1e-9
    band = 10.0 * tol
    t0 = time.perf_counter()
    checked = excluded = 0
    for i in range(10_000):
        k = i % 3
        if k == 0:
            pt = pi_f(contraction_from_rng(rng))
        elif k == 1:
            pt = shilov_f_param(sample_shilov_param_f(rng))
        else:
            pt = sample_point_f(rng)
        alg = f_classify(pt, tol)
        orc = f_classify_matrix_oracle(pt, tol)  # raises on a genuine split
        if abs(alg.margin) <= band or abs(orc.margin) <= band:
            excluded += 1
            continue
        checked += 1
        assert alg.region is orc.region, f"sample {i}: {pt!r}"
    assert checked >= 6_000  # the boundary third sits in the band by design
    assert time.perf_counter() - t0 < 5.0


def test_criterion_03_image_characterization():
    rng = random.Random(1003)
    n = 10_000
    for i in range(n):
        t = 2.0 * (i + 0.5) / n  # norms sweep (0, 2) evenly
        d = _rand_matrix(rng)
        nd = operator_norm(d)
        if nd < 1e-6:
            continue
        a = d.scale(t / nd)
        if abs(t - 1.0) <= 1e-8:
            continue
        assert f_classify(pi_f(a)).is_interior == (t < 1.0), f"t={t!r}"


def test_criterion_04_outside_family_with_interior_projections():
    for r in (0.1, 0.25, 0.5, 0.75, 0.9):
        pt = (0.0, 1.0 - r * r / 2.0, r * r, 0.0)
        rel = f_relations(pt)
        assert penta_classify(rel.penta).region is Region.INTERIOR
        penta_dual_check(rel.penta)
        assert g2_classify(rel.g2).region is Region.INTERIOR
        assert f_classify(pt).region is Region.OUTSIDE
        want_q = (1.0 - r * r) ** 2 - (1.0 - r * r / 2.0) ** 2
        assert q_value(pt) == pytest.approx(want_q, abs=1e-12)


def test_criterion_05_limit_point_outside_with_closure_projections():
    pt = (0.0, 0.5, 0.0, 1.0)
    assert q_value(pt) == pytest.approx(-0.25, abs=1e-12)
    assert f_classify(pt).region is Region.OUTSIDE
    rel = f_relations(pt)
    assert g2_classify(rel.g2).in_closure
    assert tetra_classify(rel.tetra).in_closure
    assert penta_classify(rel.penta).in_closure
    penta_dual_check(rel.penta)


def test_criterion_06_distinguished_boundary_equivalences():
    rng = random.Random(1006)
    for _ in range(10_000):
        assert shilov_f_test(shilov_f_param(sample_shilov_param_f(rng)))
    for i in range(10_000):
        pt = shilov_f_param(sample_shilov_param_f(rng))
        if i % 2 == 0:
            pert = f_scale(pt, 0.97)                      # pulled inside
        else:
            c = 1.03                                       # pushed outside
            pert = (c * pt[0], c * pt[1], c * c * pt[2], c * pt[3])
        assert not shilov_f_test(pert)
    pt = (1j, 1.0, 1j, 1.0 - 1j)
    assert be_test((pt[0], pt[1], pt[2]))
    assert bgamma_test((pt[3], -pt[2]))
    assert not shilov_f_test(pt)


def test_criterion_07_boundary_transport():
    theta, x1, x2, x3, x4 = shilov_l4_lattice(10_000)
    for k in range(10_000):
        q = ShilovParamL4(float(theta[k]),
                          (float(x1[k]), float(x2[k]),
                           float(x3[k]), float(x4[k])))
        assert shilov_f_test(biholo_f(shilov_l4_param(q)))
    lattice = transported_lattice(10_000)
    rng = random.Random(1007)
    for _ in range(1_000):
        target = shilov_f_param(sample_shilov_param_f(rng))
        assert nearest_transport_distance(target, lattice=lattice) < 1e-3


def test_criterion_08_double_cover():
    rng = random.Random(1008)
    for _ in range(1_000):
        assert shilov_f_double_cover(sample_shilov_param_f(rng), tol=1e-9)


def test_criterion_09_hexablock_numerics():
    for k in range(1, 10):
        a = k / 10.0
        assert psi_sup((a, 0, 0, 0)) == pytest.approx(a, abs=1e-6)

    rng = random.Random(1009)
    checked = 0
    while checked < 1_000:
        if rng.random() < 0.5:
            x = pi_tetra(contraction_from_rng(rng))
        else:
            x = tuple(complex(rng.gauss(0, 0.8), rng.gauss(0, 0.8))
                      for _ in range(3))
        t = tetra_classify(x)
        if abs(t.margin) <= 1e-8:
            continue
        assert hexa_slice_a0(*x) == t.is_interior == f_slice_s_zero(*x)
        checked += 1

    checked = 0
    while checked < 10_000:
        a = complex(rng.gauss(0, 0.7), rng.gauss(0, 0.7))
        if abs(a) < 1e-6:
            continue
        x = tuple(complex(rng.gauss(0, 0.7), rng.gauss(0, 0.7))
                  for _ in range(3))
        direct = operator_norm(Matrix2(x[0], (x[0] * x[1] - x[2]) / a, a, x[1]))
        if abs(direct - 1.0) <= 1e-7:
            continue
        assert hn_classify((a, *x)).in_open == (direct < 1.0)
        checked += 1


def test_criterion_10_mu_suite():
    t0 = time.perf_counter()
    rng = random.Random(1010)
    sc = structure_from_name("scalar")
    fl = structure_from_name("full")
    for _ in range(1_000):
        a = _rand_matrix(rng, 10.0 ** rng.uniform(-1.0, 1.0))
        assert mu_value(a, sc).value == pytest.approx(
            spectral_radius(a), rel=1e-9, abs=1e-12)
        b = _rand_matrix(rng, 10.0 ** rng.uniform(-1.0, 1.0))
        assert mu_value(b, fl).value == pytest.approx(
            operator_norm(b), rel=1e-9, abs=1e-12)

    for name in ("diag", "upper"):
        r = mu_value(E12, structure_from_name(name))
        assert r.status == "Infeasible" and r.value == 0.0

    for theta in (0.0, 0.7, 2.1):
        s = e_theta(theta)
        for _ in range(100):
            a = _rand_matrix(rng, 10.0 ** rng.uniform(-1.0, 1.0))
            assert mu_value(a, s).value == pytest.approx(
                operator_norm(a), rel=1e-5)
    sk = structure_from_name("skewdiag")
    for _ in range(100):
        a = _rand_matrix(rng, 10.0 ** rng.uniform(-1.0, 1.0))
        assert mu_value(a, sk).value == pytest.approx(operator_norm(a), rel=1e-5)

    assert rigidity_grid_pass(e_theta(0.7), n_side=20)
    assert rigidity_check(structure_from_name("diag"), (1, 0), (0, 1)) is None
    assert time.perf_counter() - t0 < 60.0


def _circle_gap(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def test_criterion_11_subspace_classification():
    rng = random.Random(1011)
    for _ in range(100):
        theta = rng.uniform(-8.0, 8.0)
        v = classify_subspace(e_theta(theta))
        assert v.kind == "IsETheta"
        assert _circle_gap(v.theta, theta) < 1e-9

    odd = Structure((Matrix2(1, 0, 0, 0), Matrix2(0, 0, 0, 1),
                     Matrix2(0, 1, 2, 0)), name="odd_offdiag")
    for s, witness in ((structure_from_name("upper"), E12),
                       (structure_from_name("lower"), E21),
                       (odd, E21)):
        assert classify_subspace(s).kind == "NotETheta"
        got = mu_value(witness, s).value
        assert abs(got - operator_norm(witness)) > 0.4  # mu != norm, witnessed


def test_criterion_12_full_registry():
    t0 = time.perf_counter()
    reports = run_all(seed=7)
    elapsed = time.perf_counter() - t0
    assert len(reports) == 19  # 18 named suites + the counterexample grid
    failing = [r.suite for r in reports if not r.passed]
    assert failing == [], "\n".join(
        line for r in reports if not r.passed for line in r.to_lines())
    assert elapsed < 300.0
