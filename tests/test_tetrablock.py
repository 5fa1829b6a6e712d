import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mublocks.errors import PreconditionViolation
from mublocks.matrix2 import (Matrix2, contraction_from_rng, operator_norm,
                              unitary_from_rng)
from mublocks.tetrablock import (_tetra_margin, be_point, be_test, pi_tetra, tetra_classify,
                                 tetra_margins)
from mublocks.verdict import Region
from oracles import (kernel_outcome as _outcome, mixed_scale_coordinate,
                     tetra_classify_delegated, tetra_closure_oracle, tetra_margin_reference)

finite = st.floats(min_value=-2.0, max_value=2.0,
                   allow_nan=False, allow_infinity=False)
cplx = st.builds(complex, finite, finite)


@given(cplx, cplx, cplx)
@settings(max_examples=500, deadline=None)
def test_two_criteria_agree_in_sign(x1, x2, x3):
    """Both published criteria must call the strict interior identically."""
    ca, cb = tetra_margins(x1, x2, x3)
    if min(abs(ca), abs(cb)) <= 1e-9:
        return
    assert (ca > 0) == (cb > 0)


def test_images_of_contractions_are_interior():
    rng = random.Random(2)
    for _ in range(400):
        a = contraction_from_rng(rng)
        v = tetra_classify(pi_tetra(a))
        if v.margin <= 10 * v.tol:
            continue
        assert v.region is Region.INTERIOR


def test_completion_oracle_agreement():
    """Spot-check against the independent min-norm-completion search (slow,
    so few points; volume coverage lives in the verification suites)."""
    rng = random.Random(31)
    done = 0
    while done < 20:
        x = (complex(rng.gauss(0, .5), rng.gauss(0, .5)),
             complex(rng.gauss(0, .5), rng.gauss(0, .5)),
             complex(rng.gauss(0, .5), rng.gauss(0, .5)))
        v = tetra_classify(x)
        if abs(v.margin) < 2e-2:
            continue
        assert tetra_closure_oracle(*x, tol=1e-3) == v.region.value
        done += 1


def test_outside_guard_when_quadratic_flips():
    """(0, 0, x3) with |x3| >= 1 must classify outside: the quadratic slack
    1 - |x1|^2 - |x2|^2 + |x3|^2 - 2|x1 x2 - x3| alone turns positive again
    for large |x3| and needs the |x3| < 1 leg."""
    assert tetra_classify((0, 0, 2)).region is Region.OUTSIDE
    assert tetra_classify((0, 0, 1.0001)).region is Region.OUTSIDE
    assert tetra_classify((0, 0, -3j)).region is Region.OUTSIDE
    # the crash point found by randomized search: enormous coordinates
    pt = (5.057690747681 - 2.482245477j, -1.763569 + 7.043163j, 130.729 - 39.147j)
    v = tetra_classify(pt)
    assert v.region is Region.OUTSIDE
    assert v.margin < -100


def test_known_points():
    assert tetra_classify((0, 0, 0)).region is Region.INTERIOR
    assert tetra_classify((0, 7 / 8, 0)).region is Region.INTERIOR
    assert tetra_classify((1, 1, 1)).region is Region.CLOSURE_BOUNDARY
    assert tetra_classify((0.5, 0.5, 0.25)).region is Region.INTERIOR
    assert tetra_classify((1.2, 0, 0)).region is Region.OUTSIDE


@given(st.floats(0, 1), st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
@settings(max_examples=200, deadline=None)
def test_distinguished_boundary_parametrization(r2, ph2, ph3):
    x2 = cmath.rect(r2, ph2)
    x3 = cmath.rect(1.0, ph3)
    pt = be_point(x2, x3)
    assert be_test(pt, 1e-9)
    assert pt[0] == (x2.conjugate() * x3)
    v = tetra_classify(pt)
    assert v.region is Region.CLOSURE_BOUNDARY


def test_be_test_requires_all_three_conditions():
    assert not be_test((0, 0, 0), 1e-9)            # interior point
    assert be_test((0, 0, 1), 1e-9)                # x2 = 0 on the circle
    # x1 = conj(x2) x3 fails:
    assert not be_test((0.5, 0.1, 1), 1e-9)
    # |x3| != 1 fails:
    assert not be_test((0.05, 0.1, 0.5), 1e-9)
    # |x2| > 1 fails even with the first two satisfied:
    x2, x3 = 1.5, 1.0
    assert not be_test((x2 * x3, x2, x3), 1e-9)


def test_be_point_precondition():
    with pytest.raises(PreconditionViolation):
        be_point(1.5, 1.0)
    with pytest.raises(PreconditionViolation):
        be_point(0.5, 0.9)
    # NaN fails each range check instead of slipping past it
    with pytest.raises(PreconditionViolation):
        be_point(math.nan, 1.0)
    with pytest.raises(PreconditionViolation):
        be_point(0.5, complex(math.nan, 1.0))


def test_dimension_check():
    with pytest.raises(PreconditionViolation):
        tetra_classify((1, 2))


def _delegation_points(rng, n):
    """Distinguished-boundary, x3 = x1 x2, unitary-image, contraction-image
    and box points, in turn."""
    def disc(r):
        return math.sqrt(rng.random()) * r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))

    def circle():
        return cmath.exp(1j * rng.uniform(0, 2 * math.pi))

    pts = []
    for i in range(n):
        k = i % 5
        if k == 0:
            pts.append(be_point(disc(1.0), circle()))
        elif k == 1:
            x1 = circle() if rng.random() < 0.3 else disc(1.2)
            x2 = disc(1.2)
            pts.append((x1, x2, x1 * x2))
        elif k == 2:
            pts.append(pi_tetra(unitary_from_rng(rng)))
        elif k == 3:
            pts.append(pi_tetra(contraction_from_rng(rng)))
        else:
            pts.append(tuple(complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                             for _ in range(3)))
    return pts


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_closure_legs_match_the_delegated_route_bitwise(tol):
    """The legs written out in tetra_classify are the four-coordinate
    margins at s = 0, so region, margin bits and Shilov flag equal the
    delegated route's."""
    for pt in _delegation_points(random.Random(2026), 20_000):
        got, want = tetra_classify(pt, tol), tetra_classify_delegated(pt, tol)
        assert (got.region, got.margin.hex(), got.shilov) == \
            (want.region, want.margin.hex(), want.shilov), pt


def test_tiny_tol_answers_with_the_same_margin():
    """A point that (A) and (B) put on opposite sides by rounding alone: the
    classifier answers at any tol, with the same margin."""
    pt = (0.6784285421498469 + 0j, -0.22990716729008848 + 0.638285188009415j,
          -0.33888192050638644 + 0.9408289132216883j)
    margin = tetra_classify(pt, 1e-9).margin
    for tol in (0.0, 1e-300):
        v = tetra_classify(pt, tol)
        assert v.margin.hex() == margin.hex()
        assert v.region is Region.OUTSIDE


def test_tetra_margin_is_the_composed_reference_bitwise():
    """The one-pass _tetra_margin is min(_slack_a, _closure_margin) by repr on
    seeded points of mixed scale with signed zeros, a tenth with x3 = x1 x2
    exactly; where a square passes the floats both raise OverflowError."""
    rng = random.Random(2602)
    outcomes = []
    for _ in range(40_000):
        x1, x2 = mixed_scale_coordinate(rng), mixed_scale_coordinate(rng)
        x3 = x1 * x2 if rng.random() < 0.1 else mixed_scale_coordinate(rng)
        got = _outcome(_tetra_margin, x1, x2, x3)
        assert got == _outcome(tetra_margin_reference, x1, x2, x3), (x1, x2, x3)
        outcomes.append(got)
    assert outcomes.count("OverflowError") > 1_000
    assert sum(o.startswith("-") for o in outcomes) > 1_000
    assert sum(o[0].isdigit() and o != "0.0" for o in outcomes) > 1_000
