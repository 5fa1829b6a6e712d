import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mublocks import lie_ball, optimize
from mublocks.domain_f import (f_classify, sample_shilov_param_f,
                               shilov_f_param, shilov_f_test, ShilovParamF)
from mublocks.errors import PreconditionViolation
from mublocks.lie_ball import (ShilovParamL4, biholo_f, lambda_map,
                               lie_ball_classify, nearest_transport_distance,
                               shilov_l4_lattice, shilov_l4_param,
                               transported_lattice)
from mublocks.verdict import Region
from oracles import (lie_ball_region_oracle, lie_norm,
                     nearest_transport_distance_reference,
                     transport_distance_nm_oracle)

finite = st.floats(min_value=-1.2, max_value=1.2,
                   allow_nan=False, allow_infinity=False)
cplx = st.builds(complex, finite, finite)


@given(st.lists(cplx, min_size=2, max_size=5))
@settings(max_examples=400, deadline=None)
def test_classify_matches_lie_norm_oracle(z):
    v = lie_ball_classify(z)
    if abs(v.margin) <= 10 * v.tol:
        return
    assert v.region.value == lie_ball_region_oracle(z, tol=1e-12)


def test_known_points():
    assert lie_ball_classify((0, 0, 0, 0)).region is Region.INTERIOR
    assert lie_ball_classify((0.5, 0, 0, 0)).region is Region.INTERIOR
    assert lie_ball_classify((1, 0, 0, 0)).region is Region.CLOSURE_BOUNDARY
    assert lie_ball_classify((2, 0, 0, 0)).region is Region.OUTSIDE
    # real unit vectors are always on the boundary
    assert lie_ball_classify((0.6, 0.8, 0, 0)).region is Region.CLOSURE_BOUNDARY


@given(st.lists(cplx, min_size=2, max_size=4))
@settings(max_examples=200, deadline=None)
def test_lambda_map_is_two_to_one(z):
    """The first coordinate squares, so z and its first-coordinate flip have
    the same image; other sign patterns generically do not."""
    img = lambda_map(z)
    flipped = [-z[0]] + [c for c in z[1:]]
    img2 = lambda_map(flipped)
    assert img == pytest.approx(img2)
    assert img[0] == pytest.approx(z[0] * z[0])
    assert tuple(img[1:]) == tuple(complex(c) for c in z[1:])


def test_shilov_param_l4_unit_sphere_enforced():
    with pytest.raises(PreconditionViolation):
        ShilovParamL4(0.0, (1.0, 1.0, 0.0, 0.0))
    for theta, x in ((0.0, (math.nan, 0.0, 0.0, 0.0)),
                     (math.nan, (1.0, 0.0, 0.0, 0.0)),
                     (math.inf, (1.0, 0.0, 0.0, 0.0))):
        with pytest.raises(PreconditionViolation):
            ShilovParamL4(theta, x)
    q = ShilovParamL4(0.3, (0.5, 0.5, 0.5, 0.5))
    z = shilov_l4_param(q)
    # the parametrized point is the squared-first-coordinate image of
    # u = e^{i theta} x, and u itself sits on the ball-model boundary
    w = np.exp(1j * q.theta)
    u = (w * 0.5, w * 0.5, w * 0.5, w * 0.5)
    assert z == pytest.approx(lambda_map(u))
    assert lie_norm(u) == pytest.approx(1.0, abs=1e-7)


def test_boundary_transport_pointwise():
    """biholo_f carries the distinguished boundary of the ball model onto
    the distinguished boundary of the four-coordinate domain, matching the
    direct parametrization exactly when the sphere constraint is exact."""
    rng = random.Random(19)
    for _ in range(300):
        v = [rng.gauss(0, 1) for _ in range(4)]
        n = math.sqrt(sum(c * c for c in v))
        x = tuple(c / n for c in v)
        theta = rng.uniform(0, 2 * math.pi)
        q = ShilovParamL4(theta, x)
        w = shilov_l4_param(q)
        pt = biholo_f(w)
        assert shilov_f_test(pt, 1e-9)
        direct = shilov_f_param(ShilovParamF(theta, x[1], x[2], x[3]))
        for u, vv in zip(pt, direct):
            assert abs(u - vv) <= 1e-12


def test_biholo_interior_points_land_inside():
    rng = random.Random(29)
    done = 0
    while done < 200:
        z = tuple(complex(rng.gauss(0, 0.4), rng.gauss(0, 0.4)) for _ in range(4))
        v = lie_ball_classify(z)
        if not (v.region is Region.INTERIOR and v.margin > 1e-6):
            continue
        # biholo_f lives on the squared-coordinate image, not the raw ball
        fv = f_classify(biholo_f(lambda_map(z)))
        assert fv.in_closure
        done += 1


def test_lattice_covers_the_boundary():
    theta, x1, x2, x3, x4 = shilov_l4_lattice(2000)
    assert theta.shape == (2000,)
    w = np.exp(1j * theta)
    for k in range(0, 2000, 40):
        z = (w[k] * x1[k], w[k] * x2[k], w[k] * x3[k], w[k] * x4[k])
        # the norm formula cancels to sqrt(eps) accuracy right at the
        # boundary, so 1e-9 would flag its own rounding
        assert lie_norm(z) == pytest.approx(1.0, abs=5e-8)
    params, images = transported_lattice(500)
    assert params[0].shape == (500,) and images.shape == (500, 4)
    for row in images[:20]:
        assert shilov_f_test(tuple(row), 1e-7)


def test_nearest_transport_distance_small_on_images():
    rng = random.Random(47)
    _, images = transported_lattice(4000)
    for k in rng.sample(range(4000), 10):
        d = nearest_transport_distance(tuple(images[k]))
        assert d <= 1e-8
    # a fresh boundary point not on the lattice still matches closely
    q = ShilovParamF(1.234, *(np.array([0.3, 0.5, math.sqrt(1 - 0.34)])))
    d = nearest_transport_distance(shilov_f_param(q))
    assert d < 1e-3


def _assert_matches_nm_oracle(target, lattice):
    closed = nearest_transport_distance(target)
    brute = transport_distance_nm_oracle(target, lattice)
    assert closed <= brute + 1e-12, (target, closed, brute)
    assert abs(closed - brute) <= 1e-9, (target, closed, brute)
    return closed


def test_transport_distance_matches_nm_oracle():
    """30 boundary targets and 30 pushed off the boundary by sigma = 0.2."""
    rng = random.Random(4001)
    lattice = transported_lattice(10_000)
    for _ in range(30):
        target = shilov_f_param(sample_shilov_param_f(rng))
        assert _assert_matches_nm_oracle(target, lattice) <= 1e-12
    for _ in range(30):
        target = tuple(v + complex(rng.gauss(0, 0.2), rng.gauss(0, 0.2))
                       for v in shilov_f_param(sample_shilov_param_f(rng)))
        _assert_matches_nm_oracle(target, lattice)


# t3 = 0, where the |w^2 + t3|^2 term is flat in the angle; half a boundary
# point, where at its own angle |g| <= 1/2, so lam = 0; an optimum at angle 0
# with y = (0, 1, 0), on the sphere with y2 = 0; the origin, where every angle
# is optimal; a modulus about 1e3
_DEGENERATE = (
    (0.3 + 0.1j, -0.2j, 0.0, 0.5),
    tuple(0.5 * v for v in shilov_f_param(ShilovParamF(0.7, 0.3, -0.4, 0.5))),
    (1.5, -1.5, -1.0, 0.0),
    (0.0, 0.0, 0.0, 0.0),
    (600 + 300j, -400j, -500.0, 300 + 100j),
)


def test_transport_distance_degenerate_targets():
    lattice = transported_lattice(10_000)
    got = [_assert_matches_nm_oracle(t, lattice) for t in _DEGENERATE]
    assert got[2] == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert got[3] == pytest.approx(1.0, abs=1e-15)


def _bitwise_targets():
    """Seeded boundary targets alternating with targets pushed off the
    boundary by sigma = 0.2 (whose Newton steps run), the degenerate targets
    spread among them: 1 000 in all."""
    rng = random.Random(4003)
    out = []
    for k in range(995):
        t = shilov_f_param(sample_shilov_param_f(rng))
        if k % 2:
            t = tuple(v + complex(rng.gauss(0, 0.2), rng.gauss(0, 0.2)) for v in t)
        out.append(t)
    for k, t in enumerate(_DEGENERATE):
        out.insert(1 + 211 * k, t)
    return out


def test_transport_distance_is_the_reference_bitwise():
    """Each of the 1 000 targets gives the distance of the one-target
    routine kept in tests/oracles, bit for bit."""
    targets = _bitwise_targets()
    want = [nearest_transport_distance_reference(t) for t in targets]
    assert [nearest_transport_distance(t) for t in targets] == want


def test_transport_distance_takes_no_nelder_mead(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("Nelder-Mead used by nearest_transport_distance")

    monkeypatch.setattr(optimize, "nelder_mead", forbidden)
    monkeypatch.setattr(lie_ball, "nelder_mead", forbidden)
    rng = random.Random(4002)
    for _ in range(5):
        assert nearest_transport_distance(
            shilov_f_param(sample_shilov_param_f(rng))) <= 1e-12


@pytest.mark.parametrize("target", [
    (float("nan"), 0, 0, 0), (0, complex(0, float("inf")), 0, 0),
    (0, 0, float("-inf"), 0), (0, 0, 0), (0, 0, 0, 0, 0)])
def test_transport_distance_rejects_bad_targets(target):
    with pytest.raises(PreconditionViolation):
        nearest_transport_distance(target)
