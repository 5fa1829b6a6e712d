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
                         f_mu_membership, mu_sandwich_check, mu_value,
                         rigidity_check, rigidity_grid_pass,
                         structure_from_name)
from mublocks.verify import mu_equals_norm_suite
from oracles import (constraint_coeffs_reference, det_residual_reference,
                     eig_radius, min_norm_mapper_nm, mu_diag_dscale_oracle,
                     mu_diag_gauge_oracle, mu_upper_hexablock_oracle, svd_norm)

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
    for bad in ("e_theta:soup", "e_theta:nan", "e_theta:inf", "e_theta:-inf"):
        with pytest.raises(KeyError, match="bad e_theta parameter"):
            structure_from_name(bad)


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


def test_mu_on_rigid_structures_is_the_operator_norm_bitwise():
    """On full, skewdiag and E_theta mu is ||A||, and it is computed as
    operator_norm's own sigma_1, at every scale.  On upper with |a21| >
    |a12| (and lower on the transpose) it is max(||A||, mu_diag(A)), the
    max only guarding against a sigma_1 rounded below mu_diag."""
    r9 = random.Random(9)
    rigid = [structure_from_name(n) for n in
             ("full", "skewdiag", "e_theta:0.7", "e_theta:2.5")]
    upper, lower, diag = (structure_from_name(n) for n in ("upper", "lower", "diag"))
    for _ in range(300):
        f = 10.0 ** r9.choice((-250, -60, -8, 0, 8, 60, 250))
        a = Matrix2(*(complex(r9.gauss(0, 1), r9.gauss(0, 1)) * f
                      * 10.0 ** r9.uniform(-2, 2) for _ in range(4)))
        norm = operator_norm(a)
        for s in rigid:
            assert mu_value(a, s).value == norm
        t = a if abs(a.a21) > abs(a.a12) else a.transpose()
        want = max(operator_norm(t), mu_value(t, diag).value)
        assert mu_value(t, upper).value == want
        assert mu_value(t.transpose(), lower).value == want


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


def test_mu_over_the_whole_float_range():
    """mu(cA) = |c| mu(A) far outside [2^-200, 2^200].  Unscaled, these
    calls raised OverflowError (e = 78, 150) or PreconditionViolation (e =
    300), came out Numeric and low (e = -78, -150), or off, Infeasible or
    unconverged (e = -170, -300)."""
    a = Matrix2(1 + 2j, 0.5, -0.3j, 2)
    for name in ("scalar", "diag", "upper", "lower", "full", "skewdiag",
                 "e_theta:0.7"):
        s = structure_from_name(name)
        base = mu_value(a, s).value
        for e in (78, 150, 300, -78, -150, -170, -300):
            big = a.scale(10.0 ** e)
            r = mu_value(big, s)
            assert r.status == "Exact", (name, e)
            assert r.value == pytest.approx(base * 10.0 ** e, rel=1e-15)
            assert operator_norm(r.minimizer) * r.value == pytest.approx(1.0, rel=1e-12)
            det = (Matrix2.identity() - big @ r.minimizer).det
            assert abs(det) <= 1e-12, (name, e)


def test_mu_k1_on_a_basis_scaled_far_from_unit():
    """mu does not depend on how the one basis element is scaled.  The k1
    route forms det B, which left the float range: scaled by 1e-300 the
    scalar span gave 2e10 for A below (rho(A) = 1e10 + 1), by 1e-160
    1.00334e10, and by 1e150 or more it raised PreconditionViolation.  The
    quadratic cancels on this A, so its value holds only to 1e-7; the
    generic matrix holds to rounding."""
    a = Matrix2(1e10, 1, 2j, 1e10)
    g = Matrix2(0.3 + 0.1j, -0.7, 0.45j, 0.9 - 0.2j)
    for b in (Matrix2.identity(), E11 + E12, Matrix2(0.5j, 2, -1, 0.25)):
        base = mu_value(g, Structure((b,)))
        for e in (100, 150, 160, 200, 250, 300, -100, -150, -160, -200,
                  -250, -300):
            s = Structure((b.scale(10.0 ** e),))
            assert s.route == "k1"
            r = mu_value(g, s)
            assert r.value == pytest.approx(base.value, rel=1e-14, abs=0.0), (b, e)
            for u, v in zip(r.minimizer, base.minimizer):
                assert u == pytest.approx(v, rel=1e-13, abs=0.0), (b, e)
            if b == Matrix2.identity():
                assert mu_value(a, s).value == pytest.approx(1e10 + 1.0, rel=1e-7)
    # in range the basis is stored as given
    for e in (-60, 0, 60):
        b = E11.scale(10.0 ** e) + E12
        assert Structure((b,)).basis == (b,)


def test_mu_range_scaling_is_bitwise():
    """Out of range, A 2^k with k even is computed as A itself: the value
    and every part of the minimizer (the sign of a zero included) are those
    for A, times 2^k and 2^-k.  An odd power would move _mu_diagonal's
    square roots by an ulp."""
    def hexparts(m, k=0):
        return [float.hex(math.ldexp(t, k))
                for z in m.entries() for t in (z.real, z.imag)]

    r_seeded = random.Random(77)
    for _ in range(10):
        a = Matrix2(*(complex(r_seeded.gauss(0, 1), r_seeded.gauss(0, 1))
                      for _ in range(4)))
        for name in ("scalar", "diag", "upper", "lower", "full", "skewdiag",
                     "e_theta:0.7"):
            s = structure_from_name(name)
            base = mu_value(a, s)
            for k in (300, -300, 700, -900):
                big = Matrix2(*(complex(math.ldexp(z.real, k),
                                        math.ldexp(z.imag, k))
                                for z in a.entries()))
                r = mu_value(big, s)
                assert (r.value, r.status) == (math.ldexp(base.value, k),
                                               base.status), (name, k)
                assert hexparts(r.minimizer) == hexparts(base.minimizer, -k)


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
        numeric = mu_module._mu_numeric(a, diag).value
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
                numeric = mu_module._mu_numeric(a, s).value
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
            numeric = mu_module._mu_numeric(m, s).value
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


def test_mu_result_is_a_checked_record():
    r = MuResult(value=1.0, minimizer=E11, status="Exact")
    assert r == MuResult(1.0, E11, "Exact")
    assert hash(r) == hash(MuResult(1.0, E11, "Exact"))
    assert r != (1.0, E11, "Exact") and not r == (1.0, E11, "Exact")
    assert r != MuResult(1.0, E11, "Numeric")
    with pytest.raises(AttributeError):
        r.value = 2.0
    with pytest.raises(PreconditionViolation, match="inconsistent result"):
        r._replace(status="Infeasible")
    assert r._replace(value=2.0) == MuResult(2.0, E11, "Exact")


def test_rigidity_check_examples():
    e1, e2 = (1, 0), (0, 1)
    # infeasible systems, rank-0 ones (upper and full: the least is v u*)
    # and a single point (scalar)
    for name in ("diag", "scalar"):
        assert rigidity_check(structure_from_name(name), e1, e2) is None
    assert rigidity_check(structure_from_name("upper"), e1, e1) == E11
    assert rigidity_check(structure_from_name("full"), e1, e2) == E21
    assert (rigidity_check(structure_from_name("scalar"), e1, e1)
            == Matrix2.identity())

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
    for u, v in (((math.nan, 0), (0, 1)), ((1, 0), (0, complex(0, math.nan)))):
        with pytest.raises(PreconditionViolation, match="not a unit vector"):
            rigidity_check(fl, u, v)


def _unit():
    g = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
    n = math.sqrt(sum(abs(t) ** 2 for t in g))
    return (g[0] / n, g[1] / n)


# ---------------------------------------------------------------------------
# The closed-form least-norm mapper behind the certificate probe and
# rigidity_check, held against the Nelder-Mead route it replaced.

def _gauss_c(r):
    return complex(r.gauss(0.0, 1.0), r.gauss(0.0, 1.0))


def _unit_from(r):
    g = (_gauss_c(r), _gauss_c(r))
    n = math.hypot(abs(g[0]), abs(g[1]))
    return (g[0] / n, g[1] / n)


MAPPER_SPANS = (
    *(structure_from_name(name) for name in
      ("scalar", "diag", "upper", "lower", "full", "skewdiag")),
    e_theta(0.0), e_theta(0.7), e_theta(2.1),
    Structure((E11 + E12, E21.scale(2j) - E22), name="k2_generic"),
    Structure((E12, E21, E11 + E22.scale(0.3j)), name="k3_generic"),
)


def _mapper_cases(r):
    """Unit pairs as rigidity_check gets them, probe pairs (A w, w) over
    scales 10^U(-1, 1), pairs with v a multiple of u (feasible on scalar),
    the coordinate pairs and a u within 1e-6 of e1 (nearly rank-deficient
    equations)."""
    e1, e2 = (1 + 0j, 0j), (0j, 1 + 0j)
    near = 1e-6 * _gauss_c(r)
    cases = [(e1, e2), (e1, e1), (e2, e1),
             ((1.0 / math.hypot(1.0, abs(near)), near), _unit_from(r))]
    for _ in range(4):
        cases.append((_unit_from(r), _unit_from(r)))
        a = Matrix2(*(_gauss_c(r) * 10.0 ** r.uniform(-1.0, 1.0)
                      for _ in range(4)))
        w = _unit_from(r)
        cases.append((a.apply(w), w))
        u, c = _unit_from(r), _gauss_c(r)
        cases.append((u, (c * u[0], c * u[1])))
    return cases


def test_least_norm_mapper_matches_nelder_mead_oracle():
    """closed <= NM (1 + 1e-12), |closed - NM| <= 1e-9 NM and the same
    feasibility, on every preset, three e_theta angles and a non-preset
    k = 2 and k = 3 span; the closed-form X lies in the span, maps u to v
    and has the returned norm."""
    r = random.Random(909)
    feasible = 0
    for s in MAPPER_SPANS:
        for u, v in _mapper_cases(r):
            closed = mu_module._least_norm_mapper(s, u, v)
            nm = min_norm_mapper_nm(s, u, v)
            assert (closed is None) == (nm is None), (s.name, u, v)
            if closed is None:
                continue
            feasible += 1
            value, x = closed
            assert value <= nm[0] * (1.0 + 1e-12), (s.name, u, v)
            assert abs(value - nm[0]) <= 1e-9 * nm[0], (s.name, u, v)
            assert s.coeffs_of(x, tol=1e-12) is not None
            xu = x.apply(u)
            assert max(abs(xu[0] - v[0]), abs(xu[1] - v[1])) <= 1e-13 * (
                1.0 + abs(v[0]) + abs(v[1]))
            assert operator_norm(x) == pytest.approx(value, rel=1e-13)
    assert feasible >= 150


NILPOTENT_SKEWDIAG = Matrix2(
    0.15503903770031596 + 0.09551372423022435j,
    -0.3497874881786997 - 0.2684549092818286j,
    0.06772764643590619 + 0.032690970918862146j,
    -(0.15503903770031596 + 0.09551372423022435j))


def test_certificate_probe_on_nilpotent_skewdiag():
    """The least norm here equals alpha = |v|/|u|; forming rho^2 - alpha^2
    as a difference cancelled, the probe missed and mu fell into the
    variety descent, returning Numeric."""
    a = NILPOTENT_SKEWDIAG
    assert abs(a.trace) == 0 and abs(a.det) < 1e-17
    r = mu_value(a, structure_from_name("skewdiag"))
    assert r.status == "Exact"
    assert r.value == pytest.approx(operator_norm(a), rel=1e-15)
    assert operator_norm(r.minimizer) * r.value == pytest.approx(1.0, rel=1e-9)


def test_least_norm_mapper_zero_denominator():
    """On skewdiag at A = E12, E21 (and multiples) the reduced equation has
    c = n2 = 0, so a = 0 and the tangency denominator vanishes."""
    skew = structure_from_name("skewdiag")
    for a, want in ((E12, 1.0), (E21, 1.0), (E12.scale(2.0), 2.0),
                    (E21.scale(2.0), 2.0)):
        r = mu_value(a, skew)
        assert r.status == "Exact" and r.value == want
        assert operator_norm(r.minimizer) == 1.0 / want
        assert abs((Matrix2.identity() - a @ r.minimizer).det) <= 1e-15
    x = rigidity_check(skew, (1, 0), (0, 1))
    assert x == E21


def test_presets_and_rigidity_take_no_nelder_mead(monkeypatch):
    """mu on every preset over the degenerate kinds, and rigidity_check on
    every preset, without a single Nelder-Mead call."""
    def forbidden(*args, **kwargs):
        raise AssertionError("Nelder-Mead called")

    monkeypatch.setattr(mu_module, "nelder_mead", forbidden)
    r = random.Random(64)
    presets = [structure_from_name(name) for name in
               ("scalar", "diag", "upper", "lower", "full", "skewdiag")]
    presets += [e_theta(r.uniform(0.0, 2.0 * math.pi)) for _ in range(3)]
    for _ in range(8):
        sc = 10.0 ** r.uniform(-1.0, 1.0)
        u, v = (_gauss_c(r), _gauss_c(r)), (_gauss_c(r), _gauss_c(r))
        for a in (Matrix2(u[0] * u[1], -u[0] * u[0], u[1] * u[1],
                          -u[1] * u[0]).scale(sc),              # nilpotent
                  Matrix2(u[0] * v[0], u[0] * v[1], u[1] * v[0],
                          u[1] * v[1]).scale(sc),               # rank one
                  random_unitary(r.randrange(10 ** 6)).scale(sc),  # coincident
                  Matrix2(0, 0, 0, 0)):
            for s in presets:
                res = mu_value(a, s)
                if s.name == "skewdiag" or s.name.startswith("e_theta"):
                    want = "Infeasible" if a == Matrix2(0, 0, 0, 0) else "Exact"
                    assert res.status == want
        for s in presets:
            rigidity_check(s, _unit_from(r), _unit_from(r))


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


_PRESET_NAMES = ("scalar", "diag", "upper", "lower", "full", "skewdiag",
                 "e_theta:0.7")


def _seeded_matrices(seed, n):
    """Gaussian, rank-one, nilpotent and triangular matrices at scales
    10^U(-3, 3), and the zero matrix."""
    r = random.Random(seed)
    out = [Matrix2(0, 0, 0, 0)]
    for i in range(n):
        g = [complex(r.gauss(0, 1), r.gauss(0, 1)) for _ in range(4)]
        kind = i % 4
        if kind == 1:
            g = [g[0] * g[2], g[0] * g[3], g[1] * g[2], g[1] * g[3]]
        elif kind == 2:
            g = [g[0] * g[1], -g[0] * g[0], g[1] * g[1], -g[1] * g[0]]
        elif kind == 3:
            g[r.randrange(1, 3)] = 0
        out.append(Matrix2(*g).scale(10.0 ** r.uniform(-3, 3)))
    return out


def test_constraint_algebra_on_raw_entries_is_bitwise_the_matrix2_route():
    """_constraint_coeffs reads tr(A B_i) and _det_residual reads det(I - A X)
    off raw entries, summed as the Matrix2 products summed them: the
    coefficients (signed zeros included) and residuals are bitwise those of
    the Matrix2 route kept in oracles, on every preset, the odd span and a
    scrambled basis, at each preset's minimizers and at seeded X."""
    # dense bases, where the grouping of the trace's four products shows
    dense = _seeded_matrices(46, 12)[1::4]
    dense = [Structure(tuple(dense[:k])) for k in (1, 2, 3)]
    slow = [ODD] + dense[1:]    # the variety descent takes tens of ms a call
    structures = [structure_from_name(n) for n in _PRESET_NAMES]
    structures += [Structure((E22, Matrix2(1, 1, 0, 0), E11)), dense[0]] + slow
    xs = _seeded_matrices(44, 60)
    for i, a in enumerate(_seeded_matrices(43, 400)):
        for s in structures:
            got, want = mu_module._constraint_coeffs(a, s), \
                constraint_coeffs_reference(a, s.basis)
            assert repr(got) == repr(want)
            if i % 50 and any(s is t for t in slow):
                continue
            r = mu_value(a, s)
            for x in ([] if r.minimizer is None else [r.minimizer]) + xs[:3]:
                assert (mu_module._det_residual(a, x)
                        == det_residual_reference(a, x))
        for x in xs:
            assert mu_module._det_residual(a, x) == det_residual_reference(a, x)


# (structure, route): the presets, scrambled bases of the closed-form spans
# and the odd span; each route is the branch the span took when
# _mu_in_range tested the basis on every call.
_ROUTES = (
    (structure_from_name("scalar"), "k1"),
    (structure_from_name("diag"), "diag"),
    (structure_from_name("upper"), "upper"),
    (structure_from_name("lower"), "lower"),
    (structure_from_name("full"), "k4"),
    (structure_from_name("skewdiag"), "numeric"),
    (structure_from_name("e_theta:0.7"), "numeric"),
    (ODD, "numeric"),
    (Structure((E22, E11 + E22)), "diag"),
    (Structure((E22, E12 + E11, E11)), "upper"),
    (Structure((E21.scale(2j), E22 - E11, E11)), "lower"),
    (Structure((E22, E21, E12 + E11, E11)), "k4"),
    (Structure((E11 + E12,)), "k1"),
    (Structure((E11, E12 + E21)), "numeric"),
    (Structure((E11, E22, E12 + E21)), "numeric"),
)


@pytest.mark.parametrize("case", range(len(_ROUTES)))
def test_structure_route_is_fixed_once(case, monkeypatch):
    """Each span keeps its branch, Structure.route records it, _mu_in_range
    dispatches on it, and the basis test runs once per Structure, not once
    per mu_value call."""
    s, route = _ROUTES[case]
    assert s.route == route
    calls, original = [], mu_module._route

    def counted(basis):
        calls.append(basis)
        return original(basis)

    monkeypatch.setattr(mu_module, "_route", counted)
    fresh = Structure(s.basis, name=s.name)
    assert fresh.route == route and len(calls) == 1

    taken = []
    for name in ("_mu_diagonal", "_mu_upper", "_mu_numeric", "_top_singular_pair",
                 "_quadratic_roots"):
        def spy(*args, _name=name, _fn=getattr(mu_module, name)):
            taken.append(_name)
            return _fn(*args)
        monkeypatch.setattr(mu_module, name, spy)
    first = {"k1": "_quadratic_roots", "diag": "_mu_diagonal",
             "upper": "_mu_upper", "lower": "_mu_upper",
             "k4": "_top_singular_pair", "numeric": "_mu_numeric"}[route]
    for a in _seeded_matrices(45, 8)[1:]:
        taken.clear()
        mu_value(a, fresh)
        assert taken[0] == first
    assert len(calls) == 1
