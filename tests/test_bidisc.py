import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mublocks.bidisc import (bgamma_point, bgamma_test, g2_classify,
                             g2_point, g2_roots)
from mublocks.errors import PreconditionViolation
from mublocks.verdict import BAND_FACTOR, Region
from oracles import gamma_region, roots_max_modulus, symmetrized_slack_a

finite = st.floats(min_value=-3.0, max_value=3.0,
                   allow_nan=False, allow_infinity=False)
cplx = st.builds(complex, finite, finite)


@given(cplx, cplx)
@settings(max_examples=400, deadline=None)
def test_classify_matches_root_oracle(s, p):
    v = g2_classify((s, p))
    if abs(v.margin) <= 10 * v.tol:
        return  # guard band: the oracle's own rounding could flip it
    oracle = gamma_region(s, p, tol=1e-12)
    assert v.region.value == oracle


@given(cplx, cplx)
@settings(max_examples=300, deadline=None)
def test_symmetrization_lands_interior(z, w):
    pt = g2_point(z, w)
    r = max(abs(z), abs(w))
    v = g2_classify(pt)
    if abs(symmetrized_slack_a(z, w)) <= BAND_FACTOR * v.tol:
        return  # the guard band every verify suite excludes
    assert v.is_interior == (r < 1.0)


def test_roots_recover_point():
    rng = random.Random(11)
    for _ in range(200):
        s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z1, z2 = g2_roots((s, p))
        assert abs(z1 + z2 - s) <= 1e-9 * max(1.0, abs(s))
        assert abs(z1 * z2 - p) <= 1e-9 * max(1.0, abs(p))
        assert abs(max(abs(z1), abs(z2)) - roots_max_modulus(s, p)) <= 1e-7


def test_known_points():
    assert g2_classify((0, 0)).region is Region.INTERIOR
    assert g2_classify((0, 0)).margin == pytest.approx(1.0)
    # double root at 1
    assert g2_classify((2, 1)).region is Region.CLOSURE_BOUNDARY
    assert g2_classify((3, 1)).region is Region.OUTSIDE
    assert g2_classify((0, 2)).region is Region.OUTSIDE
    assert g2_classify((1, 0.25)).region is Region.INTERIOR


def test_margin_units_bounded():
    # margins stay comparable across scales: far outside is very negative
    far = g2_classify((100, 0)).margin
    assert far < -1


def test_bgamma_parametrization():
    rng = random.Random(23)
    for _ in range(300):
        beta = cmath.rect(rng.random(), rng.uniform(0, 2 * math.pi))
        p = cmath.rect(1.0, rng.uniform(0, 2 * math.pi))
        pt = bgamma_point(beta, p)
        assert bgamma_test(pt, 1e-9)
        v = g2_classify(pt)
        assert v.region is Region.CLOSURE_BOUNDARY
        assert v.shilov is True


def test_bgamma_rejects_interior_and_outside():
    assert not bgamma_test((0, 0), 1e-9)          # interior
    assert not bgamma_test((0, 0.5), 1e-9)        # |p| < 1
    assert not bgamma_test((3, 1), 1e-9)          # outside the closure
    # (0.3, 1): beta + conj(beta) = 0.3 with beta = 0.15, so it is bGamma
    assert bgamma_test((0.3, 1), 1e-9)


def test_boundary_point_off_the_distinguished_part():
    # roots 1 and 0.5: on the topological boundary, but |p| = 0.5 < 1 keeps
    # it off the distinguished boundary
    v = g2_classify(g2_point(1.0, 0.5))
    assert v.region is Region.CLOSURE_BOUNDARY
    assert v.shilov is False


def test_bgamma_point_precondition():
    with pytest.raises(PreconditionViolation):
        bgamma_point(0.5, 0.5)      # |p| != 1


def test_classify_dimension_check():
    with pytest.raises(PreconditionViolation):
        g2_classify((1, 2, 3))
