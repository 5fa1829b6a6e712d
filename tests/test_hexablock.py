import cmath
import collections
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mublocks import hexablock
from mublocks.domain_f import f_classify
from mublocks.errors import PreconditionViolation
from mublocks.hexablock import hexa_classify, hn_classify, pi_hexa, psi_sup, shilov_h_test
from mublocks.matrix2 import Matrix2, contraction_from_rng, operator_norm, unitary_from_rng
from mublocks.mu import mu_value, structure_from_name
from mublocks.tetrablock import _tetra_margin, pi_tetra, tetra_classify
from mublocks.verdict import (BAND_FACTOR, DEFAULT_TOL, Region, classify_point, fibre_cell,
                              fibred_domain, guarded_margin, margin_code)
from oracles import (PsiProbe, hartogs_cell_reference, hexa_cell_reference,
                     hexa_points, hn_classify_reference, hn_norm_decimal, psi_eval, psi_sup_closed,
                     psi_sup_closed_reference, psi_sup_critical_radius, psi_sup_decimal,
                     psi_sup_grid)

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


def test_hexa_band_on_tetra_boundary_reads_closure_boundary():
    """Over a base on the tetrablock boundary the closure's fibre is the disc
    |a| <= R, R continuous on the closed tetrablock.  At (0, 0, 1), R = 1:
    |a| <= 1 reads ClosureBoundary with margin 0 (the Shilov flag set at |a|
    = 1), and |a| = 1 + 1e-9 reads Outside with margin 1 - |a|.  R tends to 0
    toward (1, 0, 0), 0.141 at x1 = 0.99 and 0.0014 at x1 = 0.999999, and is
    0 there: every a != 0 over that base reads margin -|a|, so (0.5, 1, 0, 0),
    0.5 from the closure, reads Outside, and (1e-12, 1, 0, 0), 1e-12 from it,
    ClosureBoundary."""
    v = hexa_classify((0.5, 0, 0, 1))
    assert (v.region, v.margin, v.shilov) == (Region.CLOSURE_BOUNDARY, 0.0, False)
    v = hexa_classify((1, 0, 0, 1))
    assert (v.region, v.margin, v.shilov) == (Region.CLOSURE_BOUNDARY, 0.0, True)
    v = hexa_classify((1.000000001, 0, 0, 1))
    assert (v.region, v.margin) == (Region.OUTSIDE, 1.0 - 1.000000001)
    for x1, inside, outside in ((0.99, 0.14, 0.15), (0.999999, 0.0014, 0.0015)):
        assert hexa_classify((inside, x1, 0, 0)).region is Region.INTERIOR, x1
        assert hexa_classify((outside, x1, 0, 0)).region is Region.OUTSIDE, x1
    for a in (0.5, 1.000000001, 2, -3e-9j):
        v = hexa_classify((a, 1, 0, 0))
        assert (v.region, v.margin) == (Region.OUTSIDE, -abs(a)), a
    assert hexablock._fibre_radius(1 + 0j, 0j, 0j) == 0.0
    for a in (0, 1e-12):
        v = hexa_classify((a, 1, 0, 0))
        assert (v.region, v.margin, v.shilov) == (Region.CLOSURE_BOUNDARY, -a, False), a


def test_hexa_classify_classifies_the_tetra_part_once(monkeypatch):
    """One tetrablock margin and at most one fibre radius per verdict: the
    record built from counted kernels by fibred_domain, which hexa_classify's
    record is, gives hexa_classify's verdicts."""
    calls = []

    def counted(kernel):
        def run(*x):
            calls.append(kernel.__name__)
            return kernel(*x)
        return run

    domain = fibred_domain(hexablock._NAMES, counted(_tetra_margin),
                           counted(hexablock._fibre_radius), hexablock._shilov_h)
    for pt, region in (((0.5, 0.3, 0.2, 0.05), Region.INTERIOR),
                       ((1.5, 0.3, 0.2, 0.05), Region.OUTSIDE),   # sup > 1
                       ((0.5, 1, 0, 0), Region.OUTSIDE),   # boundary base, R = 0
                       ((0.5, 0, 0, 1), Region.CLOSURE_BOUNDARY),   # R = 1
                       ((0.5, 2, 0, 0), Region.OUTSIDE),
                       ((0, 0.3, 0.2, 0.05), Region.INTERIOR),
                       ((0, 2, 0, 0), Region.OUTSIDE),
                       # a = 0 closure points, where the Shilov test runs
                       ((0, 1, 0, 0), Region.CLOSURE_BOUNDARY),
                       ((0, 1, 1, 1), Region.CLOSURE_BOUNDARY)):
        calls.clear()
        x = tuple(map(complex, pt))
        v = classify_point(domain, x, DEFAULT_TOL)
        assert v == hexa_classify(pt) and v.region is region, pt
        want = ["_tetra_margin"] + ([] if pt[1] == 2 else ["_fibre_radius"])
        assert calls == want, pt


def test_closure_over_tetra_boundary_bases_is_the_mu_upper_test():
    """Over a base x on the tetrablock boundary, (a, x) with a != 0 lies in
    the closure of the hexablock iff mu_upper(A) <= 1 for A = [[x1, P/a],
    [a, x2]], P = x1 x2 - x3: mu's reading of H, through ||A|| and mu_diag,
    not through the fibre radius.  The bases are seeded Gaussian matrices
    scaled onto the boundary by 1/mu_diag, every fourth with a12 = 0 (P =
    0), and |a| spans 10^-3 to 10^0.1.  mu_upper >= mu_diag(A) = 1 there, so
    the closure is mu_upper = 1: within 1e-12 of 1 a point must read
    ClosureBoundary, beyond 1e-6 Outside, and between them it is left
    undecided.  A base with P = 0 has |x1| = 1 or |x2| = 1, where the fibre
    radius is 0, so every a != 0 over it lies outside the closure."""
    upper = structure_from_name("upper")
    seen = collections.Counter()   # (P = 0, region): points
    for a, x in _boundary_base_points(29, 4000):
        p = x[0] * x[1] - x[2]
        mu = mu_value(Matrix2(x[0], p / a, a, x[1]), upper).value
        if 1e-12 < abs(mu - 1.0) <= 1e-6:
            continue
        want = Region.OUTSIDE if mu > 1.0 + 1e-6 else Region.CLOSURE_BOUNDARY
        assert hexa_classify((a, *x)).region is want, (a, x, mu)
        seen[p == 0, want] += 1
    assert seen.keys() == {(True, Region.OUTSIDE), (False, Region.OUTSIDE),
                           (False, Region.CLOSURE_BOUNDARY)}, seen
    assert min(seen.values()) > 400, seen


def test_zero_denominator_of_the_supremum_reads_outside():
    """At this tetrablock point, 2e-18 outside E, c + d rounds to 0 while
    m > 0, so the critical radius would divide by zero.  It reads interior
    only at a tol below its rounding; the closed form never forms r*, so the
    fibre radius R is positive there and the margin is R - |a|, still
    Outside."""
    a = -1.060124251104098 - 0.6200832766267721j
    x = (0.9885575782368063 + 5.551115123125783e-17j,
         0.37095287710250313 - 0.9163187482851123j,
         0.37524660704552537 - 0.9269250152524857j)
    assert tetra_classify(x, 1e-300).is_interior
    sup = psi_sup_closed(a, *x)
    assert sup == pytest.approx(8.1419, rel=1e-4)
    v = hexa_classify((a, *x), 1e-300)
    assert (v.region, v.margin) == (Region.OUTSIDE, hexablock._fibre_radius(*x) - abs(a))
    assert v.margin == pytest.approx(abs(a) / sup - abs(a), rel=1e-12)


def test_closed_form_against_fifty_digits():
    """The closed form against the same expression at 50 digits on exact
    binary inputs, at points whose tetrablock part reads interior at tol 0
    (where hexa_classify evaluates it), most of them next to the boundary
    of the tetrablock."""
    checked = 0
    for a, *x in hexa_points(random.Random(20261018), 4000):
        if a == 0 or not tetra_classify(x, 0.0).is_interior:
            continue
        ref = psi_sup_decimal(a, *x)
        if ref is None:
            continue
        got = psi_sup_closed(a, *x)
        assert got != math.inf, (a, x)
        assert got == pytest.approx(ref, rel=1e-10), (a, x)
        checked += 1
    assert checked > 2000


def test_closed_form_against_the_critical_radius():
    """Clear of the tetrablock boundary the closed form agrees with the
    critical-radius route to 1e-12; where the radicand (c+d)^2 - 4 m^2
    cancels they may differ by more, but then the closed form is the one
    nearer the 50-digit value."""
    checked = 0
    for a, *x in hexa_points(random.Random(4411), 8000):
        if a == 0 or tetra_classify(x).margin <= 1e-6:
            continue
        new = psi_sup_closed(a, *x)
        old = psi_sup_critical_radius(a, *x)
        if abs(new - old) > 1e-12 * old:
            ref = psi_sup_decimal(a, *x)
            assert abs(new - ref) <= abs(old - ref), (a, x)
        checked += 1
    assert checked > 3000


def test_corrected_point_reads_interior():
    """x lies exactly inside E, with (A)-slack +1.0e-16; the critical-radius
    route returned inf here and read the point Outside with margin -1.0."""
    a = 0.2013097612717037 + 0.14170713034712498j
    x = (0.8254648431772083 + 0j,
         0.19050654966369385 - 0.8031808400707822j,
         0.23078699382330492 - 0.9730042977715981j)
    assert psi_sup_critical_radius(a, *x) == math.inf
    sup = psi_sup_closed(a, *x)
    assert sup == pytest.approx(0.43614562014367104, rel=1e-15)
    v = hexa_classify((a, *x), 0.0)
    assert v.region is Region.INTERIOR
    assert v.margin == min(tetra_classify(x, 0.0).margin, 1.0 - sup)


def test_verdicts_match_the_critical_radius_route():
    """hexa_classify through the closed form and through the critical
    radius give the same region and shilov flag on 20 000 seeded points,
    near-boundary ones included.  The critical radius enters as the fibre
    radius 1 / (its supremum at |a| = 1) of a record that fibred_domain
    builds as it builds hexa_classify's, and the route must be the one that
    record reads.  The two radii differ in the last bits, so a verdict may
    change only where the two margins lie on either side of a band edge,
    within 1e-13 of each other.  The critical radius needs an interior base,
    so points whose base lies within tol of the tetrablock boundary are not
    compared."""
    pts = hexa_points(random.Random(4411), 20000)
    calls = []

    def critical_radius(*x):
        calls.append(x)
        return 1.0 / psi_sup_critical_radius(1.0, *x)

    old_domain = fibred_domain(hexablock._NAMES, _tetra_margin, critical_radius,
                               hexablock._shilov_h)
    for tol in (1e-9, 1e-12, 1e-15):
        calls.clear()
        new = [hexa_classify(p, tol) for p in pts]
        old = [classify_point(old_domain, tuple(map(complex, p)), tol) for p in pts]
        assert len(calls) > 10000, tol   # the critical radius decides most verdicts
        for p, v, o in zip(pts, new, old):
            if ((v.region, v.shilov) == (o.region, o.shilov)
                    or margin_code(_tetra_margin(*p[1:]), tol) == 1):
                continue
            lo, hi = sorted((v.margin, o.margin))
            assert lo <= tol < hi or lo < -tol <= hi, (tol, p)
            assert hi - lo <= 1e-13, (tol, p)


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
        assert f_classify((*x, 0.0)).is_interior == want
        assert hexa_classify((0.0, *x)).is_interior == want


def test_hn_classify_exact_fiber_rule_at_a_zero():
    v = hn_classify((0, 0, 0, 0.25))   # x3 != x1 x2: no matrix over the point
    assert v.region is Region.OUTSIDE and v.margin == -math.inf

    # in the image of the open ball (margin 1 - max(|x1|, |x2|) > tol), but
    # the a = 0 sheet has empty interior
    v = hn_classify((0, 0.3, 0.4, 0.12))
    assert v.region is Region.CLOSURE_BOUNDARY and v.margin == 0.6


def test_hn_contains_contraction_images():
    for _ in range(50):
        b = contraction_from_rng(rng)
        pt = pi_hexa(b)
        v = hn_classify(pt)
        assert v.margin > DEFAULT_TOL and v.in_closure
        if pt[0] != 0:
            assert v.is_interior
        # the normed variant sits inside the sup-defined domain
        assert hexa_classify(pt).region is Region.INTERIOR


def test_hn_open_matches_direct_reconstruction():
    """a != 0 route: the verdict versus literally rebuilding the unique
    matrix over the point and asking for norm < 1; the margin is 1 - norm."""
    for _ in range(300):
        a = complex(rng.gauss(0, 0.7), rng.gauss(0, 0.7))
        x = tuple(complex(rng.gauss(0, 0.7), rng.gauss(0, 0.7)) for _ in range(3))
        if abs(a) < 1e-6:
            continue
        t = (x[0] * x[1] - x[2]) / a
        direct = operator_norm(Matrix2(x[0], t, a, x[1]))
        v = hn_classify((a, *x))
        assert v.margin == 1.0 - direct
        if abs(direct - 1.0) < 1e-7:
            continue
        assert v.is_interior == (direct < 1.0)


def test_hn_closure_covers_closed_ball_images():
    for _ in range(40):
        u = unitary_from_rng(rng)
        v = hn_classify(pi_hexa(u))
        assert v.in_closure
        assert not v.margin > DEFAULT_TOL


def _hn_reference_points(r: random.Random):
    """Seeded points for each branch of hn_classify, by family."""
    def cdisc(radius):
        return radius * math.sqrt(r.random()) * cmath.exp(
            1j * r.uniform(0.0, 2.0 * math.pi))

    a0 = []
    for k in range(200):
        x1, x2 = cdisc(1.3), cdisc(1.3)
        a0.append((0.0, x1, x2, x1 * x2 if k % 2 else cdisc(1.3)))
    nonfinite = [(cdisc(1.0) * 1e-310, cdisc(1.0) + 0.5, cdisc(1.0), cdisc(1.0) - 2.0)
                 for _ in range(20)]
    nonfinite += [(0.5, float("nan"), 0.1, 0.2), (0.5, 0.1, 0.2, float("inf")),
                  (float("nan"), 0.1, 0.2, 0.3), (0.3, float("inf"), 0.0, 0.0)]
    band = []
    for k in range(400):
        u, v = unitary_from_rng(r), unitary_from_rng(r)
        s1, s2 = (1.0 + r.choice((1e-6, 1e-8, 1e-10)) * r.uniform(-1.0, 1.0)
                  for _ in range(2))
        band.append(pi_hexa((u @ Matrix2(s1, 0, 0, s2 if k % 2 else r.random()))
                            @ v.conj_transpose()))
    spread = [pi_hexa(contraction_from_rng(r)) for _ in range(200)]
    spread += [tuple(complex(r.uniform(-1.5, 1.5), r.uniform(-1.5, 1.5))
                     for _ in range(4)) for _ in range(400)]
    return {"a0": a0, "nonfinite": nonfinite, "band": band, "spread": spread}


def _hn_flags(v) -> tuple[bool, bool, bool]:
    """(in_open, in_closure, in_interior_of_hn), read off an hn verdict."""
    return v.margin > v.tol, v.in_closure, v.is_interior


def _assert_region_is_the_exact_norms(pts, tol) -> int:
    """Each margin is within 2e-15 of 1 - sigma1, sigma1 from the 50-digit
    oracle, and each region is margin_code(1 - sigma1) except where sigma1
    lies within 2e-15 of 1 +- tol; returns the number of regions held."""
    held = 0
    for pt in pts:
        sigma1 = hn_norm_decimal(*pt)
        v = hn_classify(pt, tol)
        assert abs(v.margin - (1.0 - sigma1)) <= 2e-15, (pt, sigma1, v)
        if min(abs(sigma1 - 1.0 - tol), abs(sigma1 - 1.0 + tol)) <= 2e-15:
            continue
        assert v.region.code == margin_code(1.0 - sigma1, tol), (pt, tol, sigma1, v)
        held += 1
    return held


@pytest.mark.parametrize("tol", (1e-9, 1e-7, 0.0))
def test_hn_classify_matches_its_reference(tol):
    """Away from ||B|| = 1 the margin 1 - ||B|| gives the flags of the old
    route, which built a Matrix2 and a full f_classify: on the a = 0 sheet,
    on spread points and where t overflows.  On the band family, which the
    old rule decided by the Gram matrix, the region is the 50-digit norm's.
    NaN and infinities raise, as on every domain."""
    families = _hn_reference_points(random.Random(2026))
    for family in ("a0", "spread"):
        got = [_hn_flags(hn_classify(pt, tol)) for pt in families[family]]
        assert got == [hn_classify_reference(pt, tol) for pt in families[family]], family
        # each family reaches both answers of the verdict it is there for
        assert {flags[0] for flags in got} == {True, False}, family
    finite, nonfinite = families["nonfinite"][:20], families["nonfinite"][20:]
    for pt in finite:
        v = hn_classify(pt, tol)
        assert v.region is Region.OUTSIDE and v.margin == -math.inf
        assert hn_classify_reference(pt, tol) == (False, False, False)
    for pt in nonfinite + [(float("inf"), 0.1, 0.1, 0.0), (complex(math.inf, 1.0), 0, 0, 0)]:
        with pytest.raises(PreconditionViolation, match="non-finite entry"):
            hn_classify(pt, tol)
    assert _assert_region_is_the_exact_norms(families["band"], tol) >= 390
    assert {hn_classify(pt, tol).in_closure for pt in families["band"]} == {True, False}


def test_hn_region_is_the_exact_norms_next_to_the_unit_sphere():
    """Seeded points whose matrix has a top singular value within 1e-9 of 1
    (the second one spread over [0, 1] or next to 1): the region is
    margin_code(1 - sigma1) of the 50-digit norm, at every tol."""
    r = random.Random(2027)
    pts = []
    for k in range(400):
        u, v = unitary_from_rng(r), unitary_from_rng(r)
        s1 = 1.0 + r.uniform(-1e-9, 1e-9)
        s2 = 1.0 - r.uniform(0.0, 1e-9) if k % 2 else r.random()
        pts.append(pi_hexa((u @ Matrix2(s1, 0, 0, s2)) @ v.conj_transpose()))
    for tol in (0.0, 1e-12, 1e-10, DEFAULT_TOL):
        assert _assert_region_is_the_exact_norms(pts, tol) >= 390, tol
    codes = {hn_classify(pt, 1e-10).region.code for pt in pts}
    assert codes == {0, 1, 2}


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


def _fibre_test_points() -> list:
    """Seeded hexablock points, a fifth of them over the tetrablock
    boundary (images of unitaries, and (1, 0, 0), where the fibre radius is 0),
    plus points where |a|, |a| k or the coordinates pass the floats."""
    r = random.Random(2502)
    pts = hexa_points(r, 4000)
    for _ in range(1000):
        u = unitary_from_rng(r)
        a = complex(r.uniform(-1.5, 1.5), r.uniform(-1.5, 1.5)) * r.choice((1.0, 1e-9))
        pts.append((a, *pi_tetra(u)) if r.random() < 0.7 else (a, 1, 0, 0))
    pts += [(0j, 1, 0, 0), (1e200 + 1e200j, 0.3, 0.2, 0.1), (1.7e308 + 1.7e308j, 1, 0, 0),
            (1.7e308, 0.3, 0.2, 0.1),   # |a| k passes the floats: margin -1
            (1e-320, 1, 0, 0), (1e300, 0.1, 0.2, 0.05), (0.5, 1e160, 0, 0),
            (0.5, 0.3, 1e300, 1e300j), (2, 1, 0, 0), (0, 1, 1, 1), (1 + 1e-9, 1, 0, 0)]
    return [tuple(map(complex, p)) for p in pts]


def test_fibred_kernels_equal_the_one_pass_reference():
    """The cell, and verdict.fibre_cell over the base kernel that mublocks
    slice runs, give hartogs_cell_reference's code and margin by repr at tol
    0, 1e-12, 1e-9 and 0.05: the tetrablock margin t alone below -tol, else
    min(t, R - |a|), -inf where |a| passes the floats.  psi_sup is |a| / R
    bit for bit, and the k form psi_sup_closed_reference to 2 ulps."""
    base = hexablock._DOMAIN.base
    pts = _fibre_test_points()
    codes = set()
    for tol in (0.0, 1e-12, 1e-9, 0.05):
        for x in pts:
            want = repr(hartogs_cell_reference(x, tol, _tetra_margin, hexablock._fibre_radius))
            assert repr(hexablock._DOMAIN.cell(x, tol)) == want, (x, tol)
            assert repr(fibre_cell(x[0], base(x[1:], tol), tol)) == want, (x, tol)
            codes.add(want[1])
    assert codes == {"0", "1", "2"}
    checked = 0
    for a, *x in pts:
        if tetra_classify(x, DEFAULT_TOL).is_interior and math.isfinite(abs(a)):
            got = psi_sup((a, *x))
            assert repr(got) == repr(abs(a) / hexablock._fibre_radius(*x)), (a, x)
            if a != 0:
                assert got == pytest.approx(psi_sup_closed_reference(a, *x),
                                            rel=4.5e-16, abs=0.0), (a, x)
            checked += 1
    assert checked > 2000


def _boundary_base_points(seed: int, n: int):
    """(a, x) over n seeded tetrablock boundary bases x: Gaussian matrices
    scaled onto the boundary by 1/mu_diag, every fourth with a12 = 0 (x1 x2
    = x3), with a Gaussian scaled by 10^U(-3, 0.1)."""
    r = random.Random(seed)
    diag = structure_from_name("diag")
    for i in range(n):
        g = [complex(r.gauss(0, 1), r.gauss(0, 1)) for _ in range(4)]
        if i % 4 == 0:
            g[1] = 0j
        m = Matrix2(*g).scale(1.0 / mu_value(Matrix2(*g), diag).value)
        yield complex(r.gauss(0, 1), r.gauss(0, 1)) * 10.0 ** r.uniform(-3.0, 0.1), \
            (m.a11, m.a22, m.det)


def _region_sample() -> list:
    """hexa_points(Random(31), 20 000) and 4 000 boundary-base points."""
    return (hexa_points(random.Random(31), 20000)
            + [(a, *x) for a, x in _boundary_base_points(29, 4000)])


def test_margin_is_the_fibre_radius_slack():
    """Each margin is min(t, R - |a|) with the critical-radius route's R =
    1 / psi_sup_critical_radius(1, x), to 1e-12, over bases clear of the
    tetrablock boundary (t > 1e-6, where that route holds).  R >= t, so at
    a = 0 the margin is t bit for bit: checked on every base of
    hexa_points with t >= -1e-9, most of them next to the boundary.  On the
    boundary bases t is 0 up to rounding, and t rounds above R = 0 on 3 of
    the 4 000, where the margin at a = 0 is 0.0 instead of t <= 2^-54."""
    checked = near = 0
    pts = _region_sample()
    for i, (a, *x) in enumerate(pts):
        x = tuple(map(complex, x))
        t = guarded_margin(_tetra_margin, *x)
        if t < -DEFAULT_TOL:
            continue
        radius = hexablock._fibre_radius(*x)
        margin = hexa_classify((0, *x)).margin
        if i < 20000:
            assert radius >= t and repr(margin) == repr(t), x
            near += t < 1e-3
        else:
            assert radius >= t or radius == 0.0 < t <= 2.0 ** -54, x
            assert repr(margin) == repr(min(t, radius)), x
        if t > 1e-6:
            want = min(t, 1.0 / psi_sup_critical_radius(1.0, *x) - abs(a))
            assert hexa_classify((a, *x)).margin == pytest.approx(want, rel=1e-12,
                                                                  abs=1e-12), (a, x)
            checked += 1
    assert checked > 10000 and near > 2000, (checked, near)


def test_regions_leave_the_band_rule_only_inside_the_guard_band():
    """On the 24 000 points of _region_sample the region is
    hexa_cell_reference's (its band code 9 read as ClosureBoundary) wherever
    both margins lie outside BAND_FACTOR * tol, at tol 1e-9 and 1e-12; the
    margins move only where the fibre leg binds."""
    pts = [tuple(map(complex, p)) for p in _region_sample()]
    for tol in (1e-9, 1e-12):
        compared = 0
        for x in pts:
            code, margin = hexablock._DOMAIN.cell(x, tol)
            old_code, old_margin = hexa_cell_reference(x, tol)
            if min(abs(margin), abs(old_margin)) > BAND_FACTOR * tol:
                assert code == {9: 1}.get(old_code, old_code), (x, tol)
                compared += 1
        assert compared > 13000, tol
