import cmath
import math
import random

import pytest
from mublocks import hexablock, optimize, pentablock
from mublocks.bidisc import _g2_margin, bgamma_point
from mublocks.cli import main
from mublocks.errors import CriteriaDisagree, PreconditionViolation
from mublocks.hexablock import hexa_classify, psi_sup
from mublocks.pentablock import (_penta_radius, bp_test, penta_classify, penta_dual_check,
                                 penta_radius, penta_sup)
from mublocks.matrix2 import contraction_from_rng, unitary_from_rng
from mublocks.verdict import Region, fibre_cell, guarded_margin, margin_code
from mublocks.verify import run_counterexamples, run_suite
from oracles import (hartogs_cell_reference, penta_dual_reference, penta_grid_sup,
                     penta_sup_numeric, penta_sup_points, quad_roots)

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
        sup = penta_sup_numeric((a, s, p))
        assert sup == pytest.approx(a / penta_radius(s, p), rel=1e-6)


def test_closed_form_sup_matches_numeric_oracle():
    """The closed form |a| / K against the grid, radial-scan and Nelder-Mead
    supremum, including the 15 points pinched against the circle."""
    for pt in penta_sup_points():
        assert penta_sup(pt) == pytest.approx(penta_sup_numeric(pt), rel=1e-9)


def test_sup_pinned_values():
    assert penta_sup((1, 2, 1)) == math.inf        # K = 0: double root at 1
    assert penta_sup((1, 0, -1)) == pytest.approx(1.0, abs=1e-15)   # |p| = 1
    assert penta_sup((0.5, 1, 0.25)) == pytest.approx(2 / 3, abs=1e-15)


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
    """A beta-form supremum on the wrong side of 1 is caught by the helper
    and by both suites that call it."""
    true_sup = pentablock._beta_sup
    monkeypatch.setattr(pentablock, "_beta_sup",
                        lambda a, s, p: 2.0 - true_sup(a, s, p))
    for pt in ((0.5, 0, 0), (1.01, 0, 0)):
        with pytest.raises(CriteriaDisagree):
            penta_dual_check(pt)
    for suite in ("thm29_projections", "cor213_closure_projections"):
        with pytest.raises(CriteriaDisagree):
            run_suite(suite, n_samples=5)


def test_closed_forms_make_no_nelder_mead_call(monkeypatch):
    """The suprema, the dual check, the hexablock verdict and the suites that
    call them run without the optimizer."""
    def unavailable(*args, **kwargs):
        raise AssertionError("nelder_mead called")

    for module in (optimize, pentablock, hexablock):
        monkeypatch.setattr(module, "nelder_mead", unavailable)
    for pt in penta_sup_points():
        penta_sup(pt)
        penta_dual_check(pt)
    for pt in ((0.5, 0.3, 0.2, 0.05), (1.5, 0.3, 0.2, 0.05),
               (0.5, 1, 0, 0), (0, 0.3, 0.2, 0.05)):
        hexa_classify(pt)
    assert psi_sup((0.5, 0.3, 0.2, 0.05)) > 0.5
    assert run_counterexamples().failures == ()
    for suite in ("thm29_projections", "cor213_closure_projections"):
        assert run_suite(suite, n_samples=50).passed


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
    with pytest.raises(PreconditionViolation):
        penta_sup_numeric((1.0, 3.0, 1.0))


def test_roots_convention_agrees_with_oracle():
    for _ in range(50):
        s, p = _tame_bidisc_point(0.95)
        r1 = sorted(abs(z) for z in quad_roots(s, p))
        from mublocks.bidisc import g2_roots
        r2 = sorted(abs(z) for z in g2_roots((s, p)))
        assert r1 == pytest.approx(r2, abs=1e-8)


def _fibre_test_points() -> list:
    """Seeded pentablock points (a21, tr, det): of contractions, of
    unitaries scaled to 1 - 10^-U(3, 16) and with a21 moved by up to 10 %
    (next to both boundaries), Gaussian boxes, and points past the floats."""
    r = random.Random(2503)
    pts = []
    for i in range(6000):
        kind = i % 3
        if kind == 0:
            m = contraction_from_rng(r)
        elif kind == 1:
            m = unitary_from_rng(r).scale(1.0 - 10.0 ** -r.uniform(3.0, 16.0))
        if kind < 2:
            pts.append((m.a21 * r.uniform(0.9, 1.1), m.a11 + m.a22, m.det))
        else:
            pts.append(tuple(complex(r.gauss(0, 1), r.gauss(0, 1)) for _ in range(3)))
    pts += [(1e300, 0.1, 0.2), (1.7e308 + 1.7e308j, 0.3, 0.2), (0.5, 1e160, 0),
            (0.5, 0, 1e160), (0.2, 2, 1), (0.2, 1e300, 1e150), (1.0, 0, 0)]
    return [tuple(map(complex, p)) for p in pts]


def test_fibred_kernels_equal_the_one_pass_reference():
    """The cell, verdict.fibre_cell over the base kernel that mublocks slice
    runs, and penta_dual_check give penta_dual_reference's margin (by repr,
    with its code) and answer (or its CriteriaDisagree) at tol 0, 1e-12,
    1e-9 and 0.05; the margin is hartogs_cell_reference's, min(bidisc
    margin, _penta_radius - |a|)."""
    base = pentablock._DOMAIN.base
    answered = 0
    for tol in (0.0, 1e-12, 1e-9, 0.05):
        for x in _fibre_test_points():
            try:
                margin, answer = penta_dual_reference(x, tol)
            except CriteriaDisagree:
                with pytest.raises(CriteriaDisagree):
                    penta_dual_check(x, tol)
                continue
            want = repr((margin_code(margin, tol), margin))
            assert repr(hartogs_cell_reference(x, tol, _g2_margin, _penta_radius)) == want
            assert repr(pentablock._DOMAIN.cell(x, tol)) == want, (x, tol)
            assert repr(fibre_cell(x[0], base(x[1:], tol), tol)) == want, (x, tol)
            assert repr(penta_dual_check(x, tol)) == repr(answer), (x, tol)
            answered += answer is not None
    assert answered > 10000


def test_margin_at_a_zero_is_the_bidisc_margin():
    """The critical radius is at least the bidisc margin t, so the margin
    min(t, radius - |a|) is t bit for bit at a = 0: checked on every base of
    _fibre_test_points with t >= -1e-9, most of them next to the boundary."""
    checked = near = 0
    for _, s, p in _fibre_test_points():
        t = guarded_margin(_g2_margin, s, p)
        if t < -1e-9:
            continue
        assert _penta_radius(s, p) >= t, (s, p)
        assert repr(penta_classify((0, s, p)).margin) == repr(t), (s, p)
        checked += 1
        near += t < 1e-3
    assert checked > 3000 and near > 1000, (checked, near)
