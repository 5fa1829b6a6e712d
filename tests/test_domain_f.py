import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mublocks.bidisc import g2_classify
from mublocks.domain_f import (BallParamF, ShilovParamF, f_classify,
                               f_classify_matrix_oracle, f_matrix_witness,
                               f_relations, f_rescale_by, f_scale,
                               f_slice_s_zero, f_slice_xa_zero, f_swap,
                               minkowski_gauge, pi_f, q_value,
                               sample_point_f, sample_shilov_param_f,
                               shilov_f_double_cover, shilov_f_from_ball,
                               shilov_f_param, shilov_f_test)
from mublocks.errors import PreconditionViolation
from mublocks.matrix2 import Matrix2, contraction_from_rng, operator_norm
from mublocks.pentablock import penta_classify, penta_dual_check
from mublocks.tetrablock import tetra_classify
from mublocks.verdict import Region

finite = st.floats(min_value=-1.5, max_value=1.5,
                   allow_nan=False, allow_infinity=False)
cplx = st.builds(complex, finite, finite)
point = st.tuples(cplx, cplx, cplx, cplx)


@given(point)
@settings(max_examples=400, deadline=None)
def test_classify_agrees_with_matrix_oracle(pt):
    v = f_classify(pt)
    if abs(v.margin) <= 10 * v.tol:
        return
    o = f_classify_matrix_oracle(pt)
    assert v.region is o.region


def test_images_of_contractions():
    rng = random.Random(5)
    for _ in range(500):
        b = contraction_from_rng(rng)
        v = f_classify(pi_f(b))
        if abs(v.margin) <= 10 * v.tol:
            continue
        assert v.region is Region.INTERIOR
        # witness reconstructs a matrix over the same point
        w = f_matrix_witness(pi_f(b))
        assert operator_norm(w) < 1.0
        x, a, p, s = pi_f(w)
        bx, ba, bp, bs = pi_f(b)
        for u, vv in ((x, bx), (a, ba), (p, bp), (s, bs)):
            assert abs(u - vv) < 1e-9


@given(point, st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=300, deadline=None)
def test_quasi_balanced_scaling(pt, r):
    """Coordinates scale with weights (1, 1, 2, 1); closure points stay in
    the closure with a strictly better margin."""
    v = f_classify(pt)
    if not v.in_closure:
        return
    scaled = f_scale(pt, r)
    x, a, p, s = pt
    assert scaled == (r * x, r * a, r * r * p, r * s)
    assert f_classify(scaled).region is Region.INTERIOR


def test_rescale_is_the_gauge_direction():
    pt = (0.1 + 0.2j, -0.3j, 0.05, 0.4)
    x, a, p, s = pt
    t = 0.7
    assert f_rescale_by(pt, t) == (x / t, a / t, p / (t * t), s / t)
    with pytest.raises(PreconditionViolation):
        f_scale(pt, 1.3)     # f_scale is the contraction-only entry
    with pytest.raises(PreconditionViolation):
        f_scale(pt, 0.0)


@given(point)
@settings(max_examples=300, deadline=None)
def test_swap_preserves_membership_and_squares_to_diag_exchange(pt):
    """One application replaces (x, a) by the roots of z^2 - sz + (ax - p)
    and flips p; applying it twice restores the point up to exchanging the
    first two coordinates, which is itself a membership symmetry."""
    sw = f_swap(pt)
    x, a, p, s = (complex(c) for c in pt)
    back = f_swap(sw)
    assert back[2] == pytest.approx(p, abs=1e-9)
    assert back[3] == pytest.approx(s, abs=1e-9)
    assert sorted((abs(back[0] - x), abs(back[1] - a))) == pytest.approx([0, 0], abs=1e-6) \
        or sorted((abs(back[0] - a), abs(back[1] - x))) == pytest.approx([0, 0], abs=1e-6)
    v1, v2 = f_classify(pt), f_classify(sw)
    if min(abs(v1.margin), abs(v2.margin)) <= 1e-7:
        return
    assert v1.region is v2.region


def test_q_value_identity():
    rng = random.Random(9)
    for _ in range(300):
        b = Matrix2(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)))
        eye = Matrix2.identity()
        g = eye - b.conj_transpose() @ b
        assert abs(q_value(pi_f(b)) - g.det.real) <= 1e-10 * max(1.0, abs(g.det))


def test_gauge_frozen_values():
    # (0, 0, 1/4, 0): quadratic weight on p makes the gauge 1/2
    assert minkowski_gauge((0, 0, 0.25, 0)) == pytest.approx(0.5, abs=1e-8)
    # boundary point reached radially at t = 1
    assert minkowski_gauge((0, 0, -1.0, 2.0)) == pytest.approx(1.0, abs=1e-5)
    assert minkowski_gauge((0, 0, 0, 0)) == 0.0


def test_gauge_homogeneity():
    # rescale_by divides the coordinates along the quasi-balanced weights,
    # so the gauge divides with it
    rng = random.Random(41)
    for _ in range(20):
        pt = sample_point_f(rng)
        g = minkowski_gauge(pt)
        if g < 1e-6 or g > 1e3:
            continue
        for t in (0.5, 2.0):
            assert minkowski_gauge(f_rescale_by(pt, t)) == pytest.approx(g / t, rel=1e-6)


def test_slices():
    rng = random.Random(13)
    for _ in range(300):
        x1, x2, x3 = (complex(rng.gauss(0, .6), rng.gauss(0, .6)) for _ in range(3))
        assert f_slice_s_zero(x1, x2, x3) == tetra_classify((x1, x2, x3)).is_interior
    for _ in range(300):
        p, s = (complex(rng.gauss(0, .6), rng.gauss(0, .6)) for _ in range(2))
        assert f_slice_xa_zero(p, s) == g2_classify((s, -p)).is_interior


def test_relations_of_interior_points():
    rng = random.Random(21)
    for _ in range(200):
        b = contraction_from_rng(rng)
        pt = pi_f(b)
        rel = f_relations(pt)
        x, a, p, s = pt
        assert rel.g2 == (s, a * x - p)
        assert rel.tetra == (x, a, p)
        assert rel.penta == (a, s, -p)
        assert g2_classify(rel.g2).in_closure
        assert tetra_classify(rel.tetra).in_closure
        assert penta_classify(rel.penta).in_closure
        penta_dual_check(rel.penta)


def test_worked_family_outside_with_interior_projections():
    """(0, 1-r^2/2, r^2, 0): Q < 0 keeps it outside while the pentablock and
    bidisc projections are interior -- the projections do not characterize."""
    for r in (0.1, 0.25, 0.5, 0.75, 0.9):
        pt = (0.0, 1 - r * r / 2, r * r, 0.0)
        q = q_value(pt)
        assert q == pytest.approx((1 - r * r) ** 2 - (1 - r * r / 2) ** 2, abs=1e-12)
        assert q < 0
        assert f_classify(pt).region is Region.OUTSIDE
        rel = f_relations(pt)
        assert penta_classify(rel.penta).region is Region.INTERIOR
        penta_dual_check(rel.penta)
        assert g2_classify(rel.g2).region is Region.INTERIOR


def test_worked_limit_point():
    pt = (0.0, 0.5, 0.0, 1.0)
    assert q_value(pt) == pytest.approx(-0.25, abs=1e-12)
    assert f_classify(pt).region is Region.OUTSIDE
    rel = f_relations(pt)
    assert g2_classify(rel.g2).in_closure
    assert tetra_classify(rel.tetra).in_closure
    assert penta_classify(rel.penta).in_closure
    penta_dual_check(rel.penta)


def test_shilov_parametrization_and_test():
    rng = random.Random(3)
    for _ in range(500):
        q = sample_shilov_param_f(rng)
        pt = shilov_f_param(q)
        assert shilov_f_test(pt, 1e-9)
        v = f_classify(pt)
        assert v.region is Region.CLOSURE_BOUNDARY
        assert v.shilov is True
        # radial shrink leaves the boundary
        assert not shilov_f_test(f_scale(pt, 0.97), 1e-9)


def test_shilov_param_structure():
    q = ShilovParamF(0.3, 0.5, 0.1, 0.2)
    th, x2, x3, x4 = q.theta, q.x2, q.x3, q.x4
    pt = shilov_f_param(q)
    e = cmath.exp(1j * th)
    assert pt[0] == pytest.approx(e * (x3 + 1j * x4))
    assert pt[1] == pytest.approx(-e * (x3 - 1j * x4))
    assert pt[2] == pytest.approx(-e * e)
    assert pt[3] == pytest.approx(2 * e * x2)


def test_shilov_from_ball_covers_interior_parameters():
    rng = random.Random(7)
    for _ in range(300):
        z = cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        w = cmath.rect(math.sqrt(max(0, rng.uniform(0, 1) - abs(z) ** 2)),
                       rng.uniform(0, 2 * math.pi))
        eta = cmath.rect(1.0, rng.uniform(0, 2 * math.pi))
        pt = shilov_f_from_ball(BallParamF(z, w, eta))
        assert shilov_f_test(pt, 1e-9)


def test_point_that_passes_necessity_but_fails_shilov():
    """(i, 1, i, 1-i): the tetrablock and bidisc necessary conditions hold
    yet the point is not distinguished-boundary."""
    from mublocks.bidisc import bgamma_test
    from mublocks.tetrablock import be_test
    pt = (1j, 1.0, 1j, 1.0 - 1j)
    x, a, p, s = pt
    assert be_test((x, a, p), 1e-9)
    assert bgamma_test((s, -p), 1e-9)
    assert not shilov_f_test(pt, 1e-9)


def test_double_cover():
    rng = random.Random(77)
    for _ in range(200):
        q = sample_shilov_param_f(rng)
        assert shilov_f_double_cover(q)
    # antipodal images coincide (up to round-off in exp(i(theta+pi)))
    q = ShilovParamF(0.4, 0.3, -0.2, 0.5)
    anti = ShilovParamF(q.theta + math.pi, -q.x2, -q.x3, -q.x4)
    for u, v in zip(shilov_f_param(q), shilov_f_param(anti)):
        assert u == pytest.approx(v, abs=1e-12)


def test_dimension_check():
    with pytest.raises(PreconditionViolation):
        f_classify((1, 2, 3))
    with pytest.raises(PreconditionViolation):
        q_value((1, 2, 3, 4, 5))
