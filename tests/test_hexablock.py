import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mublocks import hexablock
from mublocks.domain_f import f_slice_s_zero
from mublocks.errors import PreconditionViolation
from mublocks.hexablock import (hexa_classify, hexa_slice_a0, hn_classify,
                                pi_hexa, psi_sup, shilov_h_test)
from mublocks.matrix2 import Matrix2, contraction_from_rng, operator_norm, unitary_from_rng
from mublocks.tetrablock import pi_tetra, tetra_classify
from mublocks.verdict import Region
from oracles import PsiProbe, psi_eval, psi_sup_grid

rng = random.Random(53)


def _interior_tetra_point(max_sigma=0.95):
    """pi_tetra of a strict contraction, rejection-sampled clear of the band."""
    while True:
        b = contraction_from_rng(rng)
        if operator_norm(b) > max_sigma:
            continue
        x = pi_tetra(b)
        if tetra_classify(x).margin > 1e-3:
            return x


def test_psi_sup_at_tetra_origin_is_abs_a():
    for a in (0.1, 0.3, 0.5, 0.7, 0.9, 0.5 + 0.5j, cmath.rect(0.8, 2.1)):
        assert psi_sup((a, 0, 0, 0)) == pytest.approx(abs(a), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(t=st.floats(min_value=0.05, max_value=8.0),
       phi=st.floats(min_value=0.0, max_value=2 * math.pi))
def test_psi_sup_linear_in_a(t, phi):
    x = (0.3, -0.2 + 0.1j, 0.05j)
    a = 0.4 - 0.3j
    base = psi_sup((a, *x))
    assert psi_sup((t * a, *x)) == pytest.approx(t * base, rel=1e-12)
    # and the phase of a is irrelevant
    assert psi_sup((a * cmath.exp(1j * phi), *x)) == pytest.approx(base, rel=1e-12)


def test_psi_sup_zero_iff_a_zero():
    for _ in range(20):
        x = _interior_tetra_point()
        assert psi_sup((0.0, *x)) == 0.0
        a = cmath.rect(rng.uniform(0.01, 2.0), rng.uniform(0, 2 * math.pi))
        assert psi_sup((a, *x)) > 0.0


def test_closed_form_agrees_with_grid_optimizer():
    """The analytic supremum against the product-grid + simplex route.  The
    two share no code past the objective, so agreement this tight means both
    found the same critical point."""
    for _ in range(40):
        x = _interior_tetra_point()
        a = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        if a == 0:
            a = 0.5
        s_closed = psi_sup((a, *x))
        s_grid = psi_sup_grid((a, *x))
        assert s_grid == pytest.approx(s_closed, rel=1e-9)


def test_psi_sup_requires_tetra_interior():
    with pytest.raises(PreconditionViolation):
        psi_sup((0.5, 2.0, 0.0, 0.0))
    with pytest.raises(PreconditionViolation):
        psi_sup((0.5, 0.0, 0.0))  # wrong arity


def test_psi_eval_values_and_guards():
    assert psi_eval(PsiProbe(0, 0), (0.5, 0, 0, 0)) == pytest.approx(0.5)
    assert psi_eval(PsiProbe(0.3, -0.2j), (0.0, 0.1, 0.2, 0.0)) == 0.0
    # |z1| -> 1 kills the numerator
    near = psi_eval(PsiProbe(0.999999, 0), (0.5, 0.1, 0.1, 0.0))
    assert abs(near) < 1e-2
    with pytest.raises(PreconditionViolation):
        PsiProbe(1.0, 0.0)
    with pytest.raises(PreconditionViolation):
        psi_eval(PsiProbe(0, 0), (0.5, 1.5, 0, 0))


def test_psi_eval_never_beats_the_sup():
    for _ in range(25):
        x = _interior_tetra_point()
        a = cmath.rect(rng.uniform(0.1, 1.5), rng.uniform(0, 2 * math.pi))
        sup = psi_sup((a, *x))
        for _ in range(8):
            q = PsiProbe(cmath.rect(rng.uniform(0, 0.97), rng.uniform(0, 2 * math.pi)),
                         cmath.rect(rng.uniform(0, 0.97), rng.uniform(0, 2 * math.pi)))
            assert abs(psi_eval(q, (a, *x))) <= sup * (1 + 1e-12)


def test_hexa_classify_examples():
    v = hexa_classify((0, 0, 7 / 8, 0))
    assert v.region is Region.INTERIOR
    assert v.margin == pytest.approx(0.125)

    v = hexa_classify((0.5, 0, 0, 0))
    assert v.region is Region.INTERIOR
    assert v.margin == pytest.approx(0.5)
    assert psi_sup((0.5, 0, 0, 0)) == pytest.approx(0.5)

    assert hexa_classify((2, 0, 0, 0)).region is Region.OUTSIDE
    assert psi_sup((2, 0, 0, 0)) == pytest.approx(2.0)


def test_hexa_interior_iff_sup_strictly_below_one():
    for _ in range(30):
        x = _interior_tetra_point()
        a = cmath.rect(rng.uniform(0.05, 2.0), rng.uniform(0, 2 * math.pi))
        sup = psi_sup((a, *x))
        if abs(sup - 1.0) < 1e-6:
            continue
        v = hexa_classify((a, *x))
        if sup < 1.0:
            assert v.region is Region.INTERIOR
        else:
            assert v.region is Region.OUTSIDE


def test_hexa_indeterminate_band_on_tetra_boundary():
    # tetra part exactly on the boundary and |a| <= 1: the sup is not
    # defined, so the verdict is a flagged boundary, never a guess
    v = hexa_classify((0.5, 1, 0, 0))
    assert v.region is Region.CLOSURE_BOUNDARY
    assert v.indeterminate
    assert v.shilov is False
    # ... but a sup lower bound |a| > 1 still decides Outside
    v = hexa_classify((2, 1, 0, 0))
    assert v.region is Region.OUTSIDE
    assert not v.indeterminate


def test_hexa_classify_classifies_the_tetra_part_once(monkeypatch):
    calls = []

    def counted(x, *args, **kwargs):
        calls.append(x)
        return tetra_classify(x, *args, **kwargs)

    monkeypatch.setattr(hexablock, "tetra_classify", counted)
    for pt, region in (((0.5, 0.3, 0.2, 0.05), Region.INTERIOR),
                       ((1.5, 0.3, 0.2, 0.05), Region.OUTSIDE),   # sup > 1
                       ((0.5, 1, 0, 0), Region.CLOSURE_BOUNDARY),  # band
                       ((0.5, 2, 0, 0), Region.OUTSIDE),
                       ((0, 0.3, 0.2, 0.05), Region.INTERIOR),
                       ((0, 2, 0, 0), Region.OUTSIDE),
                       # a = 0 closure points, where the Shilov test runs
                       ((0, 1, 0, 0), Region.CLOSURE_BOUNDARY),
                       ((0, 1, 1, 1), Region.CLOSURE_BOUNDARY)):
        calls.clear()
        assert hexa_classify(pt).region is region
        assert len(calls) == 1, pt


def test_slice_three_way_agreement():
    for _ in range(200):
        if rng.random() < 0.5:
            x = pi_tetra(contraction_from_rng(rng))
        else:
            x = tuple(complex(rng.gauss(0, 0.8), rng.gauss(0, 0.8))
                      for _ in range(3))
        t = tetra_classify(x)
        if abs(t.margin) < 1e-7:
            continue
        want = t.is_interior
        assert hexa_slice_a0(*x) == want
        assert f_slice_s_zero(*x) == want
        assert hexa_classify((0.0, *x)).is_interior == want


def test_hn_classify_exact_fiber_rule_at_a_zero():
    v = hn_classify((0, 0, 0, 0.25))
    assert not v.in_open and not v.in_closure and not v.in_interior_of_hn

    v = hn_classify((0, 0.3, 0.4, 0.12))
    assert v.in_open and v.in_closure
    assert not v.in_interior_of_hn  # the a = 0 sheet has empty interior


def test_hn_contains_contraction_images():
    for _ in range(50):
        b = contraction_from_rng(rng)
        pt = pi_hexa(b)
        v = hn_classify(pt)
        assert v.in_open and v.in_closure
        if pt[0] != 0:
            assert v.in_interior_of_hn
        # the normed variant sits inside the sup-defined domain
        assert hexa_classify(pt).region is Region.INTERIOR


def test_hn_open_matches_direct_reconstruction():
    """a != 0 route: the four-coordinate verdict versus literally rebuilding
    the unique matrix over the point and asking for norm < 1."""
    for _ in range(300):
        a = complex(rng.gauss(0, 0.7), rng.gauss(0, 0.7))
        x = tuple(complex(rng.gauss(0, 0.7), rng.gauss(0, 0.7)) for _ in range(3))
        if abs(a) < 1e-6:
            continue
        t = (x[0] * x[1] - x[2]) / a
        direct = operator_norm(Matrix2(x[0], t, a, x[1]))
        if abs(direct - 1.0) < 1e-7:
            continue
        assert hn_classify((a, *x)).in_open == (direct < 1.0)


def test_hn_closure_covers_closed_ball_images():
    for _ in range(40):
        u = unitary_from_rng(rng)
        v = hn_classify(pi_hexa(u))
        assert v.in_closure
        assert not v.in_open


def test_shilov_h_unitary_images():
    for _ in range(40):
        u = unitary_from_rng(rng)
        pt = pi_hexa(u)
        assert shilov_h_test(pt)
        # shrink the determinant coordinate off the circle
        assert not shilov_h_test((pt[0], pt[1], pt[2], 0.9 * pt[3]))
    assert not shilov_h_test((0, 0, 0, 0.25))
    assert not shilov_h_test((0.5, 0, 0, 0))


def test_hexa_classify_dimension_check():
    with pytest.raises(PreconditionViolation):
        hexa_classify((0.5, 0.1, 0.2))
