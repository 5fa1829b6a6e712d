import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mublocks.errors import FormulaMismatch, PreconditionViolation
from mublocks.matrix2 import (Matrix2, contraction_from_rng, contraction_test,
                              gram_det_from_coords, gram_report,
                              operator_norm, random_contraction,
                              random_unitary, singular_values,
                              spectral_radius, unitary_from_rng)
from oracles import eig_radius, power_norm, svd_values

finite = st.floats(min_value=-5.0, max_value=5.0,
                   allow_nan=False, allow_infinity=False)
cplx = st.builds(complex, finite, finite)
matrices = st.builds(Matrix2, cplx, cplx, cplx, cplx)


@given(matrices)
@settings(max_examples=300, deadline=None)
def test_singular_values_match_svd(m):
    """Quadratic-formula values agree with LAPACK.  At a degenerate pair the
    discriminant cancels and the formula keeps only half precision, so the
    per-value tolerance is sqrt(eps)-sized; the symmetric functions (trace of
    B*B, |det|) stay at full precision and are asserted tightly."""
    s1, s2 = singular_values(m)
    o1, o2 = svd_values(m)
    scale = max(1.0, o1)
    assert s1 >= s2 >= 0.0
    assert abs(s1 - o1) <= 1e-7 * scale
    assert abs(s2 - o2) <= 1e-7 * scale
    assert abs(s1 * s1 + s2 * s2 - m.frobenius_sq()) <= 1e-10 * max(1.0, s1 * s1)
    assert abs(s1 * s2 - abs(m.det)) <= 1e-10 * max(1.0, s1 * s1)


@given(matrices)
@settings(max_examples=300, deadline=None)
def test_operator_norm_is_largest_singular_value(m):
    """Power iteration converges to the norm from below (Rayleigh quotient),
    slowly when the singular values cluster -- hence the sharp one-sided
    bound and the loose two-sided one."""
    norm = operator_norm(m)
    oracle = power_norm(m)
    scale = max(1.0, norm)
    assert oracle <= norm + 1e-9 * scale
    assert abs(norm - oracle) <= 1e-6 * scale


@given(matrices)
@settings(max_examples=200, deadline=None)
def test_spectral_radius_vs_eigvals(m):
    # sqrt(eps) slack: both routes solve the same ill-conditioned quadratic
    # at defective matrices
    assert abs(spectral_radius(m) - eig_radius(m)) <= 1e-7 * max(1.0, spectral_radius(m))


@given(matrices)
@settings(max_examples=300, deadline=None)
def test_gram_identity(m):
    """det(I - B*B) written two ways: directly, and through the coordinate
    closed form evaluated at (x, a, p, s) = (b11, b22, det, b12 + b21)."""
    eye = Matrix2.identity()
    g = eye - m.conj_transpose() @ m
    direct = g.det.real
    coord = gram_det_from_coords(m.a11, m.a22, m.det, m.a12 + m.a21)
    assert abs(direct - coord) <= 1e-10 * max(1.0, abs(direct))


def test_gram_report_fields():
    m = Matrix2(0.3, 0.1j, -0.2, 0.4 + 0.2j)
    rep = gram_report(m)
    assert rep.norm == operator_norm(m)
    eye = Matrix2.identity()
    g = eye - m.conj_transpose() @ m
    assert abs(rep.det_gram - g.det.real) <= 1e-14
    assert abs(rep.trace_gram - g.trace.real) <= 1e-14


def test_singular_values_known():
    assert singular_values(Matrix2(3, 0, 0, 1)) == (3.0, 1.0)
    assert singular_values(Matrix2(0, 2, 0, 0)) == (2.0, 0.0)
    s1, s2 = singular_values(Matrix2(0, 1, 1, 0))
    assert abs(s1 - 1.0) < 1e-15 and abs(s2 - 1.0) < 1e-15


def test_matrix_algebra():
    a = Matrix2(1, 2, 3, 4)
    b = Matrix2(0, 1, 1, 0)
    assert (a @ b).rows() == ((2, 1), (4, 3))
    assert (a + b).rows() == ((1, 3), (4, 4))
    assert (a - b).rows() == ((1, 1), (2, 4))
    assert a.scale(2).rows() == ((2, 4), (6, 8))
    assert a.transpose().rows() == ((1, 3), (2, 4))
    assert Matrix2(1j, 2, 3, 4).conj_transpose().rows() == ((-1j, 3), (2, 4))
    assert a.det == -2 and a.trace == 5
    assert a.apply((1, 0)) == (1, 3)


def test_contraction_test_band():
    assert contraction_test(Matrix2(0.5, 0, 0, 0.5))
    assert not contraction_test(Matrix2(1.5, 0, 0, 0))
    # exactly-unitary flip: |det| = 1 violates the strict precondition by
    # contract, while the non-strict test admits it
    u = Matrix2(0, 1, 1, 0)
    with pytest.raises(PreconditionViolation):
        contraction_test(u, strict=True)
    assert contraction_test(u, strict=False)
    with pytest.raises(PreconditionViolation):
        contraction_test(Matrix2(2, 0, 0, 1), strict=False)


def test_random_unitary_is_unitary():
    for seed in range(8):
        u = unitary_from_rng(random.Random(seed))
        g = u.conj_transpose() @ u
        assert abs(g.a11 - 1) < 1e-12 and abs(g.a22 - 1) < 1e-12
        assert abs(g.a12) < 1e-12 and abs(g.a21) < 1e-12


def test_random_contraction_strict():
    for seed in range(8):
        c = contraction_from_rng(random.Random(seed))
        assert operator_norm(c) < 1.0
    assert operator_norm(random_contraction(123)) < 1.0


def test_gram_report_rejects_mismatch():
    """The dual evaluation raises when the two dets cannot be reconciled;
    trip it with a crafted subclass whose det lies."""

    class Lying(Matrix2):
        @property
        def det(self):
            return complex(999.0)

    with pytest.raises(FormulaMismatch):
        gram_report(Lying(0.1, 0.0, 0.0, 0.1))


def test_singular_values_reject_nonfinite():
    with pytest.raises(PreconditionViolation):
        singular_values(Matrix2(float("nan"), 0, 0, 0))
