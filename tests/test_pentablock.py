import cmath
import math
import random

import pytest
from mublocks import pentablock
from mublocks.bidisc import bgamma_point
from mublocks.cli import main
from mublocks.errors import CriteriaDisagree, PreconditionViolation
from mublocks.pentablock import (bp_test, penta_classify, penta_dual_check,
                                 penta_radius, penta_sup)
from mublocks.verdict import Region
from mublocks.verify import run_suite
from oracles import penta_grid_sup, quad_roots

rng = random.Random(17)


def _tame_bidisc_point(max_root=0.75):
    while True:
        z1 = cmath.rect(rng.uniform(0, max_root), rng.uniform(0, 2 * math.pi))
        z2 = cmath.rect(rng.uniform(0, max_root), rng.uniform(0, 2 * math.pi))
        return z1 + z2, z1 * z2


def test_radius_is_reciprocal_of_sup():
    """The critical radius and the disc supremum are exact reciprocals:
    sup_z (1-|z|^2)/|1-sz+pz^2| = 1/R(s,p).  Grid oracle from below."""
    for _ in range(25):
        s, p = _tame_bidisc_point()
        r = penta_radius(s, p)
        grid = penta_grid_sup(1.0, s, p)
        assert grid <= 1.0 / r + 1e-9
        assert grid >= (1.0 / r) * (1 - 2e-4)


def test_sup_matches_radius_numerically():
    for _ in range(10):
        s, p = _tame_bidisc_point()
        a = rng.uniform(0.1, 2.0)
        sup = penta_sup((a, s, p))
        assert sup == pytest.approx(a / penta_radius(s, p), rel=1e-6)


def test_sup_frozen_value():
    # (7/8, 0, -1/4): roots +-i/2, R = 1/2 + sqrt(9/16)/2... check against
    # the frozen value: sup = 7/8 exactly at the critical radius R = 1.
    # R(0, -1/4) = |1 - conj(i/2)(-i/2)|/2 + (1 - 1/4)/2 = 5/8 + 3/8 = 1.
    assert penta_radius(0, -0.25) == pytest.approx(1.0, abs=1e-12)
    assert penta_sup((7 / 8, 0, -0.25)) == pytest.approx(7 / 8, rel=1e-7)


_BASIC = (((0, 0, 0), Region.INTERIOR),
          ((0.99, 0, 0), Region.INTERIOR),
          ((1.0, 0, 0), Region.CLOSURE_BOUNDARY),
          ((1.01, 0, 0), Region.OUTSIDE),
          ((0, 3, 1), Region.OUTSIDE))      # bad bidisc part dominates


def test_classify_basic():
    for pt, region in _BASIC:
        assert penta_classify(pt).region is region
        penta_dual_check(pt)


def test_classify_scaling_families():
    for r in (0.1, 0.25, 0.5, 0.75, 0.9):
        a = 1 - r * r / 2
        assert penta_classify((a, 0.0, -r * r)).region is Region.INTERIOR
        penta_dual_check((a, 0.0, -r * r))


def test_interior_iff_sup_below_one():
    for _ in range(15):
        s, p = _tame_bidisc_point()
        a = rng.uniform(0.05, 2.0)
        v = penta_classify((a, s, p))
        penta_dual_check((a, s, p))
        if abs(v.margin) < 1e-6:
            continue
        sup = penta_sup((a, s, p))
        assert v.is_interior == (sup < 1.0)


def test_dual_check_guard():
    """The check runs exactly where the old in-classifier route ran: (s, p)
    interior to the bidisc and the radius slack outside the guard band."""
    assert penta_dual_check((0, 0, 0)) == 0.0
    assert penta_dual_check((0.5, 0, 0)) == pytest.approx(0.5, rel=1e-7)
    assert penta_dual_check((1.01, 0, 0)) == pytest.approx(1.01, rel=1e-7)
    assert penta_dual_check((1.0, 0, 0)) is None            # in the band
    assert penta_dual_check((1.0 + 5e-7, 0, 0)) is None     # in the band
    assert penta_dual_check((0.5, 2, 1)) is None            # (s, p) boundary
    assert penta_dual_check((0, 3, 1)) is None              # (s, p) outside


def _slice_penta(capsys):
    assert main(["slice", "penta", "--grid", "9"]) == 0
    return capsys.readouterr().out


def test_classify_takes_no_numeric_route(monkeypatch, capsys):
    """The critical radius is the only runtime rule: with the numeric
    supremum unavailable, verdicts and slice output are unchanged."""
    pts = [pt for pt, _ in _BASIC] + [(0.7, 0.5 - 0.2j, 0.1j), (2.0, 1, 0.3)]
    verdicts = [penta_classify(pt) for pt in pts]
    cells = _slice_penta(capsys)

    def unavailable(pt, tol=1e-8):
        raise AssertionError(f"penta_sup called at {pt!r}")

    monkeypatch.setattr(pentablock, "penta_sup", unavailable)
    assert [penta_classify(pt) for pt in pts] == verdicts
    assert _slice_penta(capsys) == cells


def test_dual_check_raises_on_a_wrong_sided_sup(monkeypatch):
    """A supremum on the wrong side of 1 is caught by the helper and by the
    suite that calls it."""
    true_sup = pentablock.penta_sup
    monkeypatch.setattr(pentablock, "penta_sup",
                        lambda pt, tol=1e-8: 2.0 - true_sup(pt, tol))
    for pt in ((0.5, 0, 0), (1.01, 0, 0)):
        with pytest.raises(CriteriaDisagree):
            penta_dual_check(pt)
    with pytest.raises(CriteriaDisagree):
        run_suite("thm29_projections", n_samples=5)


def test_bp_test():
    for _ in range(200):
        beta = cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        p = cmath.rect(1.0, rng.uniform(0, 2 * math.pi))
        s, p = bgamma_point(beta, p)
        r = math.sqrt(max(1.0 - abs(s) ** 2 / 4.0, 0.0))
        a = cmath.rect(r, rng.uniform(0, 2 * math.pi))
        assert bp_test((a, s, p), 1e-9)
        # shrinking a strictly breaks it unless a was 0
        if r > 1e-6:
            assert not bp_test((0.5 * a, s, p), 1e-9)
    assert not bp_test((1, 0, 0.5), 1e-9)    # (s,p) not distinguished


def test_sup_precondition():
    with pytest.raises(PreconditionViolation):
        penta_sup((1.0, 3.0, 1.0))    # (s, p) outside the closed bidisc set


def test_roots_convention_agrees_with_oracle():
    for _ in range(50):
        s, p = _tame_bidisc_point(0.95)
        r1 = sorted(abs(z) for z in quad_roots(s, p))
        from mublocks.bidisc import g2_roots
        r2 = sorted(abs(z) for z in g2_roots((s, p)))
        assert r1 == pytest.approx(r2, abs=1e-8)
