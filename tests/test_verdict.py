"""MembershipVerdict's record semantics, and the classifiers that build one
verdict per call from the kernels instead of nested verdicts."""

import cmath
import math
import pickle
import random

import pytest

from mublocks import bidisc, domain_f, hexablock, lie_ball, pentablock, tetrablock, verdict
from mublocks.bidisc import g2_dual_check
from mublocks.errors import PreconditionViolation
from mublocks.lie_ball import lie_ball_dual_check
from mublocks.pentablock import penta_dual_check, penta_radius
from mublocks.tetrablock import tetra_dual_check
from mublocks.verdict import (CLOSURE_BOUNDARY, DEFAULT_TOL, INDETERMINATE_CODE, INTERIOR,
                              OUTSIDE, MembershipVerdict, Region, checked_point,
                              classify_margin, margin_code, verdict_from_margin)


def test_invariants_still_raise():
    with pytest.raises(AssertionError, match="Interior needs margin > tol"):
        MembershipVerdict(Region.INTERIOR, 1e-10)
    with pytest.raises(AssertionError, match="Outside needs margin < -tol"):
        MembershipVerdict(region=Region.OUTSIDE, margin=-1e-10)
    with pytest.raises(AssertionError, match="Shilov points are never interior"):
        MembershipVerdict(Region.INTERIOR, 0.5, shilov=True)


def test_verdicts_are_immutable_records():
    v = verdict_from_margin(-0.25, 1e-6, shilov=False)
    assert repr(v) == ("MembershipVerdict(region=<Region.OUTSIDE: 'Outside'>, "
                       "margin=-0.25, tol=1e-06, shilov=False, "
                       "indeterminate=False)")
    assert (v.region, v.margin, v.tol, v.shilov, v.indeterminate) == (
        Region.OUTSIDE, -0.25, 1e-6, False, False)
    assert not v.in_closure and not v.is_interior
    for name in ("region", "margin", "tol", "shilov", "indeterminate", "extra"):
        with pytest.raises(AttributeError):
            setattr(v, name, None)
    assert v == verdict_from_margin(-0.25, 1e-6, shilov=False)


def test_equal_verdicts_compare_and_hash_equal():
    a = verdict_from_margin(0.5)
    b = MembershipVerdict(region=Region.INTERIOR, margin=0.5, tol=1e-9)
    assert a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert a != verdict_from_margin(0.25) and a != verdict_from_margin(0.5, 1e-3)
    assert pickle.loads(pickle.dumps(a)) == a
    # a verdict equals only a verdict, as the frozen record did
    assert a != tuple(a) and tuple(a) != a and not a == tuple(a)


def test_each_region_carries_its_code():
    """verdict holds the one table: margin_code gives each margin its
    region's code, which is check's exit code and the slice cell code; the
    plain names are the members, and a member still pickles by its value."""
    assert (INTERIOR, CLOSURE_BOUNDARY, OUTSIDE) == tuple(Region)
    assert [r.code for r in Region] == [0, 1, 2] and INDETERMINATE_CODE == 9
    for margin, region in ((0.5, INTERIOR), (1e-9, CLOSURE_BOUNDARY),
                           (-1e-9, CLOSURE_BOUNDARY), (-0.5, OUTSIDE)):
        assert margin_code(margin, DEFAULT_TOL) == region.code
        assert classify_margin(margin) is region
    assert Region("Outside") is OUTSIDE and pickle.loads(pickle.dumps(OUTSIDE)) is OUTSIDE


def _points():
    r = penta_radius(0.9, 0.4)
    return (
        (pentablock.penta_classify,
         ((0.3, 0.9, 0.4), (r, 0.9, 0.4), (2, 0.9, 0.4), (0.3, 3, 0),
          (0, 0.9, 0.4), (0, 2, 1))),
        (domain_f.f_classify,
         ((0, 0, 0.25, 0), (0, 1, 0, 0), (0, 0.5, 0, 1), (0.5, 0, 0, 0),
          (1j, 0, 1j, 0), (0, 0, 0, 2))),
        (hexablock.hexa_classify,
         ((0.5, 0.3, 0.2, 0.05), (0.5, 1, 0, 0), (1.5, 0.3, 0.2, 0.05),
          (0.5, 2, 0, 0), (0, 0.3, 0.2, 0.05), (0, 1, 0, 0), (0, 1, 1, 1),
          (0, 2, 0, 0))),
    )


def _sup_points():
    nan = float("nan")
    return (
        (pentablock.penta_sup,
         ((0.3, 0.9, 0.4), (0, 0.9, 0.4), (0.3, 2, 1), (0.3, 3, 0), (0.3, nan, 0))),
        (hexablock.psi_sup,
         ((0.5, 0.3, 0.2, 0.05), (0, 0.3, 0.2, 0.05), (0.5, 1, 0, 0),
          (nan, 0.3, 0.2, 0.05), (0.5, 0, nan, 0))),
    )


def _sup_outcome(fn, pt):
    try:
        return repr(fn(pt))
    except PreconditionViolation as exc:
        return str(exc)


def test_no_nested_verdicts(monkeypatch):
    """penta, f and hexa classify their bidisc or tetrablock part through
    the margin kernels: with the public classifiers of those parts made to
    raise, the verdicts are unchanged, and each call builds one verdict.
    penta_sup and psi_sup check their point once and build no verdict, with
    the same values and error texts."""
    expected = [[fn(pt) for pt in pts] for fn, pts in _points()]
    regions = {v.region for row in expected for v in row}
    assert regions == set(Region)
    expected_sups = [[_sup_outcome(fn, pt) for pt in pts] for fn, pts in _sup_points()]

    def unavailable(*args, **kwargs):
        raise AssertionError("nested verdict")

    monkeypatch.setattr(pentablock, "g2_classify", unavailable, raising=False)
    monkeypatch.setattr(domain_f, "g2_classify", unavailable, raising=False)
    monkeypatch.setattr(hexablock, "tetra_classify", unavailable, raising=False)
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return MembershipVerdict(*args, **kwargs)

    # verdicts are built in verdict.classify_point, the hexablock's
    # indeterminate band too; hexablock is patched to catch a second site
    for module in (verdict, hexablock):
        monkeypatch.setattr(module, "MembershipVerdict", counted)
    for (fn, pts), want in zip(_points(), expected):
        for pt, v in zip(pts, want):
            built.clear()
            assert fn(pt) == v, (fn.__name__, pt)
            assert len(built) == 1, (fn.__name__, pt)
    checks = []

    def counted_check(*args, **kwargs):
        checks.append(args)
        return checked_point(*args, **kwargs)

    for module in (pentablock, hexablock):
        monkeypatch.setattr(module, "checked_point", counted_check)
    for (fn, pts), want in zip(_sup_points(), expected_sups):
        for pt, outcome in zip(pts, want):
            built.clear()
            checks.clear()
            assert _sup_outcome(fn, pt) == outcome, (fn.__name__, pt)
            assert len(checks) == 1 and not built, (fn.__name__, pt)


@pytest.mark.parametrize("check", (g2_dual_check, tetra_dual_check,
                                   penta_dual_check, lie_ball_dual_check))
def test_dual_checks_answer_huge_coordinates(check):
    """A finite coordinate of modulus 1e200 or more puts a point far
    outside; the dual checks read their margins through the classifiers'
    overflow guard, so they compare -inf with -inf (penta: skip) rather
    than raise OverflowError."""
    n = {g2_dual_check: 2, tetra_dual_check: 3, penta_dual_check: 3}.get(check, 4)
    for k in range(n):
        for big in (1e200, -1e200j, complex(1e308, 1e308)):
            pt = [0j] * n
            pt[k] = big
            check(tuple(pt))


# Each domain's dual kernel, reading its classifier's margin on checked
# coordinates, with that classifier and the number of coordinates.
_DUAL_KERNELS = {
    "g2": (bidisc._g2_dual, bidisc.g2_classify, 2),
    "tetra": (tetrablock._tetra_dual, tetrablock.tetra_classify, 3),
    "penta": (lambda x, tol: pentablock._penta_dual(x, tol)[0], pentablock.penta_classify, 3),
    "lie_ball": (lie_ball._lie_ball_dual, lie_ball.lie_ball_classify, 4),
}


def _near_boundary(domain: str, rng: random.Random) -> list:
    """Points in the band and within 1e-12 of the boundary: where the
    classifier's margin changes sign on random rays from the origin (interior
    to every domain), bisected to the last bit and moved by relative steps
    of 1e-12 to 2e-8; and the domain's Shilov points, each coordinate moved
    by up to 1e-12."""
    _, classify, n = _DUAL_KERNELS[domain]
    pts = []
    for _ in range(40):
        d = tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n))
        lo, hi = 0.0, 1.0
        while classify(tuple(hi * v for v in d), 0.0).margin > 0.0:
            lo, hi = hi, 2.0 * hi
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if classify(tuple(mid * v for v in d), 0.0).margin > 0.0 \
                else (lo, mid)
        pts += [tuple(lo * (1.0 + e) * v for v in d)
                for e in (0.0, 1e-12, -1e-12, 1e-10, -1e-10, 2e-9, -2e-9, 2e-8, -2e-8)]
    for _ in range(40):
        u = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        c = math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        s, p = bidisc.bgamma_point(c, u)
        shilov = {"g2": (s, p), "tetra": tetrablock.be_point(c, u),
                  "penta": (math.sqrt(max(1.0 - abs(s) ** 2 / 4.0, 0.0)) * u, s, p),
                  "lie_ball": tuple(u * v for v in _unit_real(rng))}[domain]
        pts += [shilov, tuple(v + complex(rng.uniform(-1e-12, 1e-12), rng.uniform(-1e-12, 1e-12))
                              for v in shilov)]
    return pts


def _unit_real(rng: random.Random) -> tuple:
    x = [rng.gauss(0, 1) for _ in range(4)]
    r = math.sqrt(sum(v * v for v in x))
    return tuple(v / r for v in x)


@pytest.mark.parametrize("domain", sorted(_DUAL_KERNELS))
def test_dual_kernels_return_their_classifier_margin(domain):
    """Each dual kernel returns its classifier's margin, by repr, at three
    tols: on band points, on points within 1e-12 of the boundary, and on the
    huge-coordinate points above, where no margin is NaN and the one overflow
    guard of the classifier and the per-criterion guards of the kernel read
    the same -inf."""
    kernel, classify, n = _DUAL_KERNELS[domain]
    pts = _near_boundary(domain, random.Random(4242))
    for k in range(n):
        for big in (1e200, -1e200j, complex(1e308, 1e308)):
            pts.append(tuple(big if j == k else 0j for j in range(n)))
    for pt in pts:
        x = checked_point(pt, ("z",) * n)
        for tol in (1e-12, DEFAULT_TOL, 1e-6):
            assert repr(kernel(x, tol)) == repr(classify(pt, tol).margin), (pt, tol)
    margins = [classify(pt, DEFAULT_TOL).margin for pt in pts]
    assert sum(abs(m) <= 10 * DEFAULT_TOL for m in margins) >= 100
    assert sum(abs(m) <= 1e-12 for m in margins) >= 40
    assert -math.inf in margins
