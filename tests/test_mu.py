import cmath
import math
import random

import pytest

import mublocks.mu as mu_module
from mublocks.domain_f import f_classify, pi_f
from mublocks.errors import PreconditionViolation
from mublocks.matrix2 import (Matrix2, contraction_from_rng, operator_norm,
                              random_unitary, spectral_radius)
from mublocks.mu import (E11, E12, E21, E22, MuResult, Structure,
                         SubspaceVerdict, classify_subspace, e_theta,
                         f_mu_membership, mu_equals_norm_suite,
                         mu_sandwich_check, mu_value, rigidity_check,
                         rigidity_grid_pass, structure_from_name)
from oracles import (eig_radius, mu_diag_dscale_oracle, mu_diag_gauge_oracle,
                     mu_upper_hexablock_oracle, svd_norm)

rng = random.Random(101)


def _rand_matrix(scale=1.0):
    return Matrix2(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) * scale
                     for _ in range(4)))


ODD = Structure((E11, E22, Matrix2(0, 1, 2, 0)), name="odd_offdiag")


def test_structure_names_resolve():
    for name, k in (("scalar", 1), ("diag", 2), ("upper", 3), ("lower", 3),
                    ("full", 4), ("skewdiag", 3)):
        s = structure_from_name(name)
        assert s.k == k and s.name == name
    s = structure_from_name("e_theta:0.7")
    assert s.k == 3
    off = s.basis[2]
    assert off.a12 == 1 and off.a21 == pytest.approx(cmath.exp(0.7j))
    with pytest.raises(KeyError):
        structure_from_name("bogus")
    with pytest.raises(KeyError):
        structure_from_name("e_theta:soup")


def test_structure_basis_invariants():
    with pytest.raises(PreconditionViolation):
        Structure(())
    with pytest.raises(PreconditionViolation):
        Structure((E11, E12, E21, E22, Matrix2.identity()))
    with pytest.raises(PreconditionViolation):
        Structure((E11, E11.scale(2.0)))  # dependent
    up = structure_from_name("upper")
    assert up.coeffs_of(E21) is None
    c = up.coeffs_of(Matrix2(3, 2j, 0, -1))
    assert c is not None
    rebuilt = up.element(c)
    assert rebuilt.entries() == pytest.approx(Matrix2(3, 2j, 0, -1).entries())
    assert up.contains_identity()
    assert not structure_from_name("skewdiag").contains_identity()


def test_mu_scalar_is_spectral_radius():
    sc = structure_from_name("scalar")
    for _ in range(60):
        a = _rand_matrix(rng.uniform(0.1, 3.0))
        r = mu_value(a, sc)
        want = eig_radius(a)
        assert r.value == pytest.approx(want, rel=1e-9, abs=1e-12)
        if want > 1e-9:
            assert r.status == "Exact"


def test_mu_full_is_operator_norm():
    fl = structure_from_name("full")
    for _ in range(60):
        a = _rand_matrix(rng.uniform(0.1, 3.0))
        r = mu_value(a, fl)
        assert r.value == pytest.approx(svd_norm(a), rel=1e-9)
        assert r.status == "Exact"
        # the minimizer really sits on the constraint variety, inside E
        x = r.minimizer
        m = Matrix2.identity() - (a @ x)
        assert abs(m.det) < 1e-9
        assert operator_norm(x) == pytest.approx(1.0 / r.value, rel=1e-9)


def test_mu_infeasible_cases():
    for a, name in ((E12, "diag"), (E12, "upper"), (E21, "lower"),
                    (E12, "scalar")):
        r = mu_value(a, structure_from_name(name))
        assert r.value == 0.0
        assert r.status == "Infeasible"
        assert r.minimizer is None


def test_mu_e_theta_on_e12():
    r = mu_value(E12, e_theta(0.0))
    assert r.value == pytest.approx(1.0, rel=1e-9)
    assert r.minimizer.entries() == pytest.approx((0, 1, 1, 0), abs=1e-6)


def test_mu_odd_structure_known_value():
    # X = [[c1, t],[2t, c2]] meets det(I - E21 X) = 1 - t = 0 only at t = 1;
    # the least norm over the diagonal freedom is ||[[0,1],[2,0]]|| = 2
    r = mu_value(E21, ODD)
    assert r.value == pytest.approx(0.5, rel=1e-7)
    assert operator_norm(r.minimizer) == pytest.approx(2.0, rel=1e-7)


def test_mu_homogeneity():
    et = e_theta(0.7)
    for _ in range(6):
        a = _rand_matrix()
        base = mu_value(a, et).value
        for c in (0.5, 2.0, 1j, 0.3 - 0.4j):
            got = mu_value(a.scale(c), et).value
            assert got == pytest.approx(abs(c) * base, rel=1e-6)


def _check_diag_result(a, r):
    """Exact status, a diagonal minimizer on the variety with norm 1/mu."""
    assert r.status == "Exact"
    x = r.minimizer
    assert x.a12 == 0 and x.a21 == 0
    nx = operator_norm(x)
    assert abs(nx * r.value - 1.0) <= 1e-12
    residual = abs((Matrix2.identity() - a @ x).det)
    assert residual <= 1e-12 * max(1.0, (operator_norm(a) * nx) ** 2)


DIAG_SPANS = (structure_from_name("diag"),
              Structure((E11 + E22, E11 - E22), name="sum_difference"),
              Structure((E11.scale(2j), E11 + E22.scale(-0.5))))


def test_mu_diag_degenerate_inputs():
    u, v = (0.3 + 0.2j, -0.7 + 0.1j), (0.4 - 0.6j, 0.5j)
    cases = [
        # (A, exact mu)
        (Matrix2(1 + 1j, 2, 0, 0.5), math.sqrt(2.0)),       # upper triangular
        (Matrix2(0.2, 0, 3j, -0.9), 0.9),                   # lower triangular
        (Matrix2(0.5, 0, 0, -0.5j), 0.5),                   # diagonal, |a11| = |a22|
        (Matrix2(0, 2, 0.5j, 0), 1.0),                      # off-diagonal: sqrt|a12 a21|
        (Matrix2(1, 1e-9, 1e-9, -1), math.sqrt(1.0 + 1e-18)),  # diagonal moduli cross
        # |a11|, |a22| and mu agree to 1e-7: the minimizer's entries are
        # solved without cancellation (mu from a 50-digit SVD of the
        # balanced matrix)
        (Matrix2(1, 1e-7, 1e-7, -0.99999999), 1.000000000000005),
        (Matrix2(-0.99999999j, 1e-7, -1e-7j, 1), 1.000000095124922),
        # nilpotent u (u1, -u0)^T: trace and det vanish, mu = 2|a11|
        (Matrix2(u[0] * u[1], -u[0] * u[0], u[1] * u[1], -u[1] * u[0]),
         2.0 * abs(u[0] * u[1])),
        # rank one u v^T: det A = 0, mu = |u0 v0| + |u1 v1|
        (Matrix2(u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1]),
         abs(u[0] * v[0]) + abs(u[1] * v[1])),
        # a scaled unitary is already balanced: mu = ||A||
        (random_unitary(11).scale(2.5), 2.5),
    ]
    for a, want in cases:
        results = [mu_value(a, s) for s in DIAG_SPANS]
        assert all(r == results[0] for r in results[1:])
        r = results[0]
        assert r.value == pytest.approx(want, rel=1e-14)
        assert r.value == pytest.approx(mu_diag_dscale_oracle(a), rel=1e-12)
        _check_diag_result(a, r)
    for s in DIAG_SPANS:
        assert mu_value(E12, s).status == "Infeasible"


def test_mu_diag_closed_form_vs_numeric_and_dscale_oracle():
    """On seeded matrices: the variety descent, which returns 1/||X|| for an
    X on the variety, never beats the closed form and lands within 1e-5;
    the numpy D-scaling oracle and the tetrablock gauge oracle agree to
    1e-12."""
    r_seeded = random.Random(4242)
    diag = structure_from_name("diag")
    for _ in range(20):
        sc = 10.0 ** r_seeded.uniform(-1.0, 1.0)
        a = Matrix2(*(complex(r_seeded.gauss(0, 1), r_seeded.gauss(0, 1)) * sc
                      for _ in range(4)))
        r = mu_value(a, diag)
        _check_diag_result(a, r)
        numeric = mu_module._mu_numeric(a, diag, 1e-7).value
        assert numeric <= r.value * (1.0 + 1e-12)
        assert abs(numeric - r.value) <= 1e-5 * r.value
        assert r.value == pytest.approx(mu_diag_dscale_oracle(a), rel=1e-12)
        assert r.value == pytest.approx(mu_diag_gauge_oracle(a), rel=1e-12)


def test_mu_diag_minimizer_near_crossing():
    """|a11|, |a22| and mu agree to 1e-8 or closer, with sqrt|a12 a21| at
    1e-6 to 1e-8.  Solving for x2 as (1 - a11 x1)/(a22 - det(A) x1) leaves
    ||X|| mu off by up to 1e-8 on these."""
    r_seeded = random.Random(77)
    diag = structure_from_name("diag")
    for _ in range(60):
        k, j = r_seeded.choice((6, 7, 8)), r_seeded.choice((8, 12, 16))
        d = (cmath.exp(1j * r_seeded.uniform(0.0, 2.0 * math.pi)),
             cmath.exp(1j * r_seeded.uniform(0.0, 2.0 * math.pi))
             * (1.0 - 10.0 ** -j * r_seeded.random()))
        off = [10.0 ** -k * r_seeded.uniform(0.5, 2.0)
               * cmath.exp(1j * r_seeded.uniform(0.0, 2.0 * math.pi))
               for _ in range(2)]
        if r_seeded.random() < 0.5:
            d = d[::-1]
        a = Matrix2(d[0], off[0], off[1], d[1])
        _check_diag_result(a, mu_value(a, diag))


def test_mu_diag_takes_no_numeric_route(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("numeric route used on the diagonal span")

    monkeypatch.setattr(mu_module, "nelder_mead", forbidden)
    monkeypatch.setattr(mu_module, "_mu_numeric", forbidden)
    r_seeded = random.Random(5)
    for s in DIAG_SPANS:
        for _ in range(10):
            a = Matrix2(*(complex(r_seeded.gauss(0, 1), r_seeded.gauss(0, 1))
                          for _ in range(4)))
            assert mu_value(a, s).status == "Exact"


def test_mu_numeric_polish_converges(monkeypatch):
    """The polish runs of the variety descent (the maxiter=300 calls, one
    per chart) stop on their tolerances instead of spending every
    iteration, and mu stays within 1e-13 of polishing with fatol = 0."""
    r_seeded = random.Random(10)
    a = Matrix2(*(complex(r_seeded.gauss(0, 1), r_seeded.gauss(0, 1))
                  for _ in range(4)))
    odd = ODD
    core = mu_module.nelder_mead
    polish = []

    def recording(f, x0, step, **kwargs):
        out = core(f, x0, step, **kwargs)
        if kwargs["maxiter"] == 300:
            polish.append(out[3])
        return out

    monkeypatch.setattr(mu_module, "nelder_mead", recording)
    r = mu_value(a, odd)
    assert r.status == "Numeric"
    assert len(polish) == odd.k and all(polish)

    def zero_fatol(f, x0, step, **kwargs):
        if kwargs["maxiter"] == 300:
            kwargs["fatol"] = 0.0
        return core(f, x0, step, **kwargs)

    monkeypatch.setattr(mu_module, "nelder_mead", zero_fatol)
    full = mu_value(a, odd)
    assert full.status == r.status
    assert abs(r.value - full.value) <= 1e-13 * full.value


TRI_SPANS = (structure_from_name("upper"),
             Structure((E12, E22, E11), name="renamed"),
             Structure((E11 + E12, E12.scale(-2j), E22 - E11.scale(0.5))))


def _tri_transpose(s):
    return Structure(tuple(b.transpose() for b in s.basis), name=s.name)


def _check_tri_result(a, r, s):
    """Exact status; a minimizer in the span s, on the variety, with norm
    1/mu."""
    assert r.status == "Exact"
    x = r.minimizer
    assert s.coeffs_of(x, tol=1e-12) is not None
    nx = operator_norm(x)
    assert abs(nx * r.value - 1.0) <= 1e-12
    residual = abs((Matrix2.identity() - a @ x).det)
    assert residual <= 1e-12 * max(1.0, (operator_norm(a) * nx) ** 2)


def test_mu_triangular_monotonicity_regressions():
    """The variety descent returned mu_upper < mu_diag on these; the
    hexablock path returns mu_diag itself, as diag is inside both spans."""
    diag = structure_from_name("diag")
    rep = random.Random(2026)  # the fourth sample of scripts/mu_report.py
    for _ in range(4):
        a = contraction_from_rng(rep)
    assert a == Matrix2(0.7916330767378383 + 0.08272508744114761j,
                        -0.2529384308724165 - 0.5096461232690235j,
                        -0.172220407955863 - 0.48257550463397614j,
                        0.4938504708661642 - 0.6122486220498506j)
    b = Matrix2(1.1562359873771229 - 2.0532645607081026j,
                2.1352242744341594 + 2.5866220287621284j,
                7.5579886028516325 + 4.2074099942972305j,
                1.3801134073917147 - 1.825232056317472j)
    for m, name, want in ((a, "upper", 0.96374795925959433),
                          (b, "lower", None)):
        s = structure_from_name(name)
        r = mu_value(m, s)
        d = mu_value(m, diag).value
        assert r.value >= d
        want = d if want is None else want
        assert abs(r.value - want) <= 2.0 * math.ulp(want)
        _check_tri_result(m, r, s)


def test_mu_triangular_chain_and_transpose():
    """On seeded matrices over scales 10^U(-1, 1): r(A) <= mu_diag <=
    mu_upper, mu_lower <= ||A||, with mu_diag below bitwise; one of the two
    is mu_diag and the other ||A||; mu_upper matches the bisection on the
    hexablock supremum and mu_lower(A) is mu_upper(A^T) bitwise; the
    variety descent, which returns 1/||X|| for an X on the variety, never
    beats the closed form."""
    r_seeded = random.Random(2024)
    diag = structure_from_name("diag")
    upper, lower = structure_from_name("upper"), structure_from_name("lower")
    for i in range(40):
        sc = 10.0 ** r_seeded.uniform(-1.0, 1.0)
        a = Matrix2(*(complex(r_seeded.gauss(0, 1), r_seeded.gauss(0, 1)) * sc
                      for _ in range(4)))
        d = mu_value(a, diag).value
        norm = svd_norm(a)
        assert eig_radius(a) <= d * (1.0 + 1e-14)
        results = [mu_value(a, s) for s in (upper, lower)]
        for s, r in zip((upper, lower), results):
            _check_tri_result(a, r, s)
            assert d <= r.value <= norm * (1.0 + 1e-14)
        lo, hi = sorted(r.value for r in results)
        assert lo == d and hi == pytest.approx(norm, rel=1e-14)
        assert results[0].value == pytest.approx(
            mu_upper_hexablock_oracle(a), rel=1e-12)
        r_up_t = mu_value(a.transpose(), upper)
        assert results[1].value == r_up_t.value
        assert results[1].minimizer == r_up_t.minimizer.transpose()
        if i < 10:
            for s, r in zip((upper, lower), results):
                numeric = mu_module._mu_numeric(a, s, 1e-7).value
                assert numeric <= r.value * (1.0 + 1e-12)


def test_mu_triangular_minimizer_near_crossing():
    """|a11|, |a22| and mu agree to 1e-8 or closer, with off-diagonal
    entries of 1e-6 to 1e-8: sigma_1 and sigma_2 nearly meet, and the
    tetrablock leg of the hexablock point lies within rounding of the torus,
    where the maximizer of the hexablock supremum built in floating point
    misses ||X|| mu = 1 by up to 5e-7."""
    r_seeded = random.Random(77)
    upper, lower = structure_from_name("upper"), structure_from_name("lower")
    for _ in range(60):
        k, j = r_seeded.choice((6, 7, 8)), r_seeded.choice((8, 12, 16))
        d = (cmath.exp(1j * r_seeded.uniform(0.0, 2.0 * math.pi)),
             cmath.exp(1j * r_seeded.uniform(0.0, 2.0 * math.pi))
             * (1.0 - 10.0 ** -j * r_seeded.random()))
        off = [10.0 ** -k * r_seeded.uniform(0.5, 2.0)
               * cmath.exp(1j * r_seeded.uniform(0.0, 2.0 * math.pi))
               for _ in range(2)]
        a = Matrix2(d[0], off[0], off[1], d[1])
        for s in (upper, lower):
            _check_tri_result(a, mu_value(a, s), s)


def test_mu_triangular_spans_share_one_path():
    r_seeded = random.Random(12)
    lowers = (structure_from_name("lower"),
              *(_tri_transpose(s) for s in TRI_SPANS))
    for _ in range(10):
        a = Matrix2(*(complex(r_seeded.gauss(0, 1), r_seeded.gauss(0, 1))
                      for _ in range(4)))
        for spans in (TRI_SPANS, lowers):
            results = [mu_value(a, s) for s in spans]
            assert all(r == results[0] for r in results[1:])


def test_mu_triangular_degenerate_inputs():
    u, v = (0.3 + 0.2j, -0.7 + 0.1j), (0.4 - 0.6j, 0.5j)
    diag = structure_from_name("diag")
    upper, lower = structure_from_name("upper"), structure_from_name("lower")
    a21_zero = Matrix2(0.6 - 0.2j, 2.0j, 0, -0.9)
    cases = [
        # (A, exact mu_upper or None)
        (a21_zero, mu_value(a21_zero, diag).value),         # mu_diag
        (Matrix2(0, 0, 1.5 - 2j, 0), 2.5),                   # only y acts
        # nilpotent u (u1, -u0)^T
        (Matrix2(u[0] * u[1], -u[0] * u[0], u[1] * u[1], -u[1] * u[0]), None),
        # rank one u v^T
        (Matrix2(u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1]), None),
        # a scaled unitary: mu_diag is already ||A||
        (random_unitary(11).scale(2.5), 2.5),
    ]
    for a, want in cases:
        for s, m in ((upper, a), (lower, a.transpose())):
            r = mu_value(m, s)
            if want is not None:
                assert r.value == pytest.approx(want, rel=1e-14)
            assert mu_value(m, diag).value <= r.value
            assert r.value <= svd_norm(m) * (1.0 + 1e-14)
            _check_tri_result(m, r, s)
            numeric = mu_module._mu_numeric(m, s, 1e-7).value
            assert numeric <= r.value * (1.0 + 1e-12)
    assert mu_value(Matrix2(0, 0, 1.5 - 2j, 0), lower).status == "Infeasible"


def test_mu_triangular_takes_no_numeric_route(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("numeric route used on a triangular span")

    monkeypatch.setattr(mu_module, "nelder_mead", forbidden)
    monkeypatch.setattr(mu_module, "_mu_numeric", forbidden)
    r_seeded = random.Random(6)
    spans = TRI_SPANS + tuple(_tri_transpose(s) for s in TRI_SPANS)
    for s in spans:
        for _ in range(10):
            a = Matrix2(*(complex(r_seeded.gauss(0, 1), r_seeded.gauss(0, 1))
                          for _ in range(4)))
            assert mu_value(a, s).status == "Exact"


def test_mu_sandwich():
    for name in ("scalar", "diag", "upper", "lower", "full"):
        s = structure_from_name(name)
        for _ in range(8):
            assert mu_sandwich_check(_rand_matrix(rng.uniform(0.2, 2.0)), s)
    for _ in range(8):
        assert mu_sandwich_check(_rand_matrix(), e_theta(rng.uniform(0, 6.28)))
    with pytest.raises(PreconditionViolation):
        mu_sandwich_check(E12, structure_from_name("skewdiag"))


def test_mu_result_consistency_enforced():
    MuResult(value=0.0, minimizer=None, status="Infeasible")
    with pytest.raises(PreconditionViolation):
        MuResult(value=1.0, minimizer=None, status="Exact")
    with pytest.raises(PreconditionViolation):
        MuResult(value=0.0, minimizer=E11, status="Infeasible")
    with pytest.raises(PreconditionViolation):
        MuResult(value=1.0, minimizer=E11, status="Approximate")


def test_rigidity_check_examples():
    e1, e2 = (1, 0), (0, 1)
    assert rigidity_check(structure_from_name("diag"), e1, e2) is None

    a = rigidity_check(e_theta(0.0), e1, e2)
    assert a is not None
    assert a.entries() == pytest.approx((0, 1, 1, 0), abs=1e-6)

    fl = structure_from_name("full")
    for _ in range(5):
        u = _unit()
        v = _unit()
        a = rigidity_check(fl, u, v)
        assert a is not None
        assert operator_norm(a) == pytest.approx(1.0, abs=1e-6)
        got = a.apply(u)
        assert got[0] == pytest.approx(v[0], abs=1e-6)
        assert got[1] == pytest.approx(v[1], abs=1e-6)

    with pytest.raises(PreconditionViolation):
        rigidity_check(fl, (1, 1), (0, 1))


def _unit():
    g = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
    n = math.sqrt(sum(abs(t) ** 2 for t in g))
    return (g[0] / n, g[1] / n)


def test_rigidity_grid():
    assert rigidity_grid_pass(e_theta(0.5), n_side=5)
    assert not rigidity_grid_pass(structure_from_name("diag"), n_side=5)


def test_mu_equals_norm_suite_split():
    rep = mu_equals_norm_suite(e_theta(0.7), n_samples=20, seed=7)
    assert rep.passed and rep.failures == ()
    rep = mu_equals_norm_suite(structure_from_name("skewdiag"),
                               n_samples=15, seed=7)
    assert rep.passed
    rep = mu_equals_norm_suite(structure_from_name("diag"), n_samples=12, seed=7)
    assert not rep.passed
    # E12 is always planted as the first sample, and it is the proof's witness
    assert any("index=0" in f and "kind=mu_vs_norm" in f for f in rep.failures)


def test_f_mu_membership_separates_rigid_from_not():
    # (0, 0, 0, 2) projects only the rank-one witnesses [[0,2],[0,0]] and its
    # transpose; structures blind to that corner call the point inside even
    # though it is far outside the domain
    pt = (0, 0, 0, 2)
    assert f_classify(pt).region.value == "Outside"
    for name in ("scalar", "diag", "upper", "lower"):
        assert f_mu_membership(pt, structure_from_name(name))
    assert not f_mu_membership(pt, structure_from_name("full"))
    assert not f_mu_membership(pt, e_theta(0.0))

    assert not f_mu_membership((0, 7 / 8, 1 / 4, 0), structure_from_name("full"))

    et = e_theta(1.3)
    for _ in range(10):
        pt = pi_f(contraction_from_rng(rng))
        if f_classify(pt).margin < 1e-6:
            continue
        assert f_mu_membership(pt, et)


def test_classify_subspace_recovers_angle():
    for theta in (0.0, 1.2, 2.1, -0.5, 7.0):
        v = classify_subspace(e_theta(theta))
        assert v.kind == "IsETheta"
        assert v.theta == pytest.approx(theta % (2 * math.pi), abs=1e-9)
    # a scrambled basis of the same span still classifies
    w = cmath.exp(1.2j)
    scrambled = Structure((E11.scale(2j), E11 + E22,
                           Matrix2(0, 1, w, 0) + E11.scale(3)))
    v = classify_subspace(scrambled)
    assert v.kind == "IsETheta"
    assert v.theta == pytest.approx(1.2, abs=1e-9)


def test_classify_subspace_rejections():
    assert classify_subspace(structure_from_name("upper")).kind == "NotETheta"
    assert classify_subspace(structure_from_name("lower")).kind == "NotETheta"
    assert classify_subspace(ODD).kind == "NotETheta"
    with pytest.raises(PreconditionViolation):
        classify_subspace(structure_from_name("diag"))  # k != 3
    with pytest.raises(PreconditionViolation):
        classify_subspace(Structure((E12, E21, Matrix2.identity())))


def test_subspace_verdict_consistency():
    SubspaceVerdict(kind="IsETheta", theta=0.3)
    SubspaceVerdict(kind="NotETheta")
    with pytest.raises(PreconditionViolation):
        SubspaceVerdict(kind="IsETheta")
    with pytest.raises(PreconditionViolation):
        SubspaceVerdict(kind="NotETheta", theta=0.3)
    with pytest.raises(PreconditionViolation):
        SubspaceVerdict(kind="Maybe")
