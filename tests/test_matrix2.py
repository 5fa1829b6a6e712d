import cmath
import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mublocks.errors import FormulaMismatch, PreconditionViolation
from mublocks.matrix2 import (CheckedRecord, Matrix2, _quadratic_roots,
                              _top_singular_pair, contraction_from_rng,
                              gram_det_from_coords, gram_report, operator_norm,
                              singular_values, spectral_radius, unitary_from_rng)
from mublocks.mu import MuResult
from mublocks.verdict import MembershipVerdict, Region
from oracles import (contraction_test, eig_radius, power_norm, quad_roots,
                     random_contraction, random_unitary, spectral_radius_decimal,
                     spectral_radius_gap_reference, spectral_radius_reference, svd_values)

finite = st.floats(min_value=-5.0, max_value=5.0,
                   allow_nan=False, allow_infinity=False)
cplx = st.builds(complex, finite, finite)
matrices = st.builds(Matrix2, cplx, cplx, cplx, cplx)


@given(matrices)
@settings(max_examples=300, deadline=None)
def test_singular_values_match_svd(m):
    """Closed-form values agree with LAPACK to full precision.  The gap
    between the eigenvalues of B*B is a hypot, which does not cancel where
    the singular values coincide, and the smaller one is the quotient
    |det|^2 / sigma_1^2, so both values hold to a few ulps of the scale; the
    symmetric functions (trace of B*B, |det|) are asserted as well."""
    s1, s2 = singular_values(m)
    o1, o2 = svd_values(m)
    scale = max(1.0, o1)
    assert s1 >= s2 >= 0.0
    assert abs(s1 - o1) <= 1e-12 * scale
    assert abs(s2 - o2) <= 1e-12 * scale
    assert abs(s1 * s1 + s2 * s2 - m.frobenius_sq()) <= 1e-10 * max(1.0, s1 * s1)
    assert abs(s1 * s2 - abs(m.det)) <= 1e-10 * max(1.0, s1 * s1)


@given(matrices)
@settings(max_examples=300, deadline=None)
def test_operator_norm_is_largest_singular_value(m):
    """Power iteration converges to the norm from below (Rayleigh quotient),
    slowly when the singular values cluster -- hence the sharp one-sided
    bound and the loose two-sided one."""
    norm = operator_norm(m)
    oracle = power_norm(m)
    scale = max(1.0, norm)
    assert oracle <= norm + 1e-9 * scale
    assert abs(norm - oracle) <= 1e-6 * scale


@given(matrices)
@settings(max_examples=200, deadline=None)
def test_spectral_radius_vs_eigvals(m):
    # sqrt(eps) slack: both routes solve the same ill-conditioned quadratic
    # at defective matrices
    assert abs(spectral_radius(m) - eig_radius(m)) <= 1e-7 * max(1.0, spectral_radius(m))


@given(matrices)
@settings(max_examples=300, deadline=None)
def test_gram_identity(m):
    """det(I - B*B) written two ways: directly, and through the coordinate
    closed form evaluated at (x, a, p, s) = (b11, b22, det, b12 + b21)."""
    eye = Matrix2.identity()
    g = eye - m.conj_transpose() @ m
    direct = g.det.real
    coord = gram_det_from_coords(m.a11, m.a22, m.det, m.a12 + m.a21)
    assert abs(direct - coord) <= 1e-10 * max(1.0, abs(direct))


def test_gram_report_fields():
    m = Matrix2(0.3, 0.1j, -0.2, 0.4 + 0.2j)
    rep = gram_report(m)
    assert rep.norm == operator_norm(m)
    eye = Matrix2.identity()
    g = eye - m.conj_transpose() @ m
    assert abs(rep.det_gram - g.det.real) <= 1e-14
    assert abs(rep.trace_gram - g.trace.real) <= 1e-14


def test_singular_values_known():
    assert singular_values(Matrix2(3, 0, 0, 1)) == (3.0, 1.0)
    assert singular_values(Matrix2(0, 2, 0, 0)) == (2.0, 0.0)
    s1, s2 = singular_values(Matrix2(0, 1, 1, 0))
    assert abs(s1 - 1.0) < 1e-15 and abs(s2 - 1.0) < 1e-15


def test_matrix_algebra():
    a = Matrix2(1, 2, 3, 4)
    b = Matrix2(0, 1, 1, 0)
    assert (a @ b).rows() == ((2, 1), (4, 3))
    assert (a + b).rows() == ((1, 3), (4, 4))
    assert (a - b).rows() == ((1, 1), (2, 4))
    assert a.scale(2).rows() == ((2, 4), (6, 8))
    assert a.transpose().rows() == ((1, 3), (2, 4))
    assert Matrix2(1j, 2, 3, 4).conj_transpose().rows() == ((-1j, 3), (2, 4))
    assert a.det == -2 and a.trace == 5
    assert a.apply((1, 0)) == (1, 3)


def test_contraction_test_band():
    assert contraction_test(Matrix2(0.5, 0, 0, 0.5))
    assert not contraction_test(Matrix2(1.5, 0, 0, 0))
    # exactly-unitary flip: |det| = 1 violates the strict precondition by
    # contract, while the non-strict test admits it
    u = Matrix2(0, 1, 1, 0)
    with pytest.raises(PreconditionViolation):
        contraction_test(u, strict=True)
    assert contraction_test(u, strict=False)
    with pytest.raises(PreconditionViolation):
        contraction_test(Matrix2(2, 0, 0, 1), strict=False)


def test_random_unitary_is_unitary():
    for seed in range(8):
        u = unitary_from_rng(random.Random(seed))
        g = u.conj_transpose() @ u
        assert abs(g.a11 - 1) < 1e-12 and abs(g.a22 - 1) < 1e-12
        assert abs(g.a12) < 1e-12 and abs(g.a21) < 1e-12


def test_random_contraction_strict():
    for seed in range(8):
        c = contraction_from_rng(random.Random(seed))
        assert operator_norm(c) < 1.0
    assert operator_norm(random_contraction(123)) < 1.0


def test_gram_report_rejects_mismatch():
    """The dual evaluation raises when the two dets cannot be reconciled;
    trip it with a crafted subclass whose det lies."""

    class Lying(Matrix2):
        @property
        def det(self):
            return complex(999.0)

    with pytest.raises(FormulaMismatch):
        gram_report(Lying(0.1, 0.0, 0.0, 0.1))


def test_singular_values_reject_nonfinite():
    with pytest.raises(PreconditionViolation):
        singular_values(Matrix2(float("nan"), 0, 0, 0))


def test_operator_norm_full_precision_at_coincident_values():
    """Where both singular values coincide the old discriminant form
    sqrt(t^2 - 4|det|^2) lost half its digits (up to 1.3e-8 on seeded
    unitaries).  [[ai, b], [b, ai]] with real a, b has B*B = (a^2 + b^2) I;
    b = 3.0128134364244112 is one of the values for which the old quotient
    |det|^2 / sigma_1^2 also rounded one ulp above sigma_1^2."""
    for seed in range(2000):
        assert abs(operator_norm(random_unitary(seed)) - 1.0) <= 1e-13
    b = 3.0128134364244112
    m = Matrix2(3.9375j, b, b, 3.9375j).scale(1.0 / math.hypot(3.9375, b))
    s1, s2 = singular_values(m)
    assert abs(operator_norm(m) - 1.0) <= 1e-13
    assert s1 >= s2 and abs(s2 - 1.0) <= 1e-13


def test_matrix2_contract_holds():
    """Construction and the validating operations reject non-finite
    entries; the private kernel used by inner loops does not weaken this."""
    with pytest.raises(PreconditionViolation):
        Matrix2(float("nan"), 0, 0, 0)
    with pytest.raises(PreconditionViolation):
        Matrix2(0, complex(0, float("inf")), 0, 0)
    with pytest.raises(PreconditionViolation):
        Matrix2("soup", 0, 0, 0)
    with pytest.raises(PreconditionViolation):
        Matrix2(1, 0, 0, 1).scale(float("inf"))
    with pytest.raises(PreconditionViolation):
        Matrix2(1e308, 0, 0, 1) + Matrix2(1e308, 0, 0, 1)
    with pytest.raises(PreconditionViolation):
        Matrix2(1e200, 0, 0, 1) @ Matrix2(1e200, 0, 0, 1)


def test_singular_values_far_from_unit_scale():
    """The kernel squares its entries, so it used to raise OverflowError
    from entries of about 1e77 up and return 0.0 near 1e-170; it now
    rescales there by a power of two."""
    base = Matrix2(1 + 2j, 0.5, -0.3j, 2)
    s1, s2 = singular_values(base)
    for e in (-200, -170, 78, 200):
        t1, t2 = singular_values(base.scale(10.0 ** e))
        assert t1 == pytest.approx(s1 * 10.0 ** e, rel=1e-15, abs=0.0)
        assert t2 == pytest.approx(s2 * 10.0 ** e, rel=1e-15, abs=0.0)
        assert operator_norm(base.scale(10.0 ** e)) == t1
    assert operator_norm(Matrix2(1e78, 2e78, 0, 1e78)) == pytest.approx(
        (1.0 + math.sqrt(2.0)) * 1e78, rel=1e-15)
    assert singular_values(Matrix2(0, 0, 0, 0)) == (0.0, 0.0)
    assert singular_values(Matrix2(5e-324, 0, 0, 0)) == (5e-324, 0.0)


def test_smallest_singular_value_where_the_determinant_squared_underflows():
    """Between entries of about 1e-145 and 1e-77 sigma_max^2 is normal, so
    the kernel does not rescale, but |det|^2 underflows; sigma_min is then
    |det| / sigma_max, where it used to read 0.0."""
    m = Matrix2(1 + 2j, 0.5, -0.3j, 2)
    s1, s2 = singular_values(m.scale(1e-100))
    assert s2 == pytest.approx(1.9759130576108182e-100, rel=1e-15, abs=0.0)
    assert s1 == pytest.approx(2.331473265719139e-100, rel=1e-15, abs=0.0)
    u1, u2 = singular_values(m)
    for e in range(-145, -76, 4):
        t1, t2 = singular_values(m.scale(10.0 ** e))
        assert t1 == pytest.approx(u1 * 10.0 ** e, rel=1e-15, abs=0.0)
        assert t2 == pytest.approx(u2 * 10.0 ** e, rel=1e-15, abs=0.0)
    assert singular_values(Matrix2(0, 2e-100, 0, 0)) == (2e-100, 0.0)


def test_singular_values_scale_exactly_by_powers_of_two():
    """Scaling by 2^k is exact on both paths of the kernel, so the largest
    singular value scales bitwise, from subnormal-adjacent entries up to
    1e300; where the rescaled path is not taken this is the kernel's old
    arithmetic unchanged."""
    rng = random.Random(44)
    for _ in range(20):
        m = Matrix2(*(complex(rng.gauss(0, 1), rng.gauss(0, 1))
                      for _ in range(4)))
        s1 = operator_norm(m)
        for k in range(-1000, 1000, 37):
            f = math.ldexp(1.0, k)
            assert operator_norm(m.scale(f)) == s1 * f


def test_quadratic_roots_match_the_companion_oracle():
    """Seeded (m, l, q) with moduli from 1e-150 to 1e150 and every fourth a
    double root r (moduli kept in range), against numpy's companion matrix
    for t^2 + (l/m) t + q/m.  That oracle is backward stable only, so each
    root is compared on the scale of the larger; Vieta's relations hold
    each root to its own scale, the smaller one included."""
    rng = random.Random(17)

    def draw(e):
        return cmath.rect(10.0 ** rng.uniform(-e, e), rng.uniform(-math.pi, math.pi))

    for i in range(4000):
        m, l, q = draw(150), draw(150), draw(150)
        double = i % 4 == 0
        if double:
            m, r = draw(50), draw(50)
            l, q = -2.0 * m * r, m * r * r
        got = _quadratic_roots(m, l, q)
        assert len(got) == 2
        ref = quad_roots(-l / m, q / m)
        big = max(abs(z) for z in ref)
        err = min(max(abs(got[0] - ref[0]), abs(got[1] - ref[1])),
                  max(abs(got[0] - ref[1]), abs(got[1] - ref[0])))
        assert err <= (1e-6 if double else 1e-13) * big
        assert abs(got[0]) >= abs(got[1]) * (1.0 - 1e-15)
        assert abs(got[0] * got[1] - q / m) <= 1e-15 * abs(q / m)
        assert abs(got[0] + got[1] + l / m) <= 1e-15 * (abs(got[0]) + abs(got[1]))


def test_quadratic_roots_degenerate_cases():
    """A double root comes back twice, the root 0 included; m = 0 leaves
    the linear root, and m = l = 0 none."""
    assert _quadratic_roots(1.0, -2.0, 1.0) == [1.0, 1.0]
    assert _quadratic_roots(1.0, 0.0, 0.0) == [0j, 0j]
    assert _quadratic_roots(2j, 0.0, 0.0) == [0j, 0j]
    assert _quadratic_roots(0.0, 2.0, 4.0) == [-2.0]
    assert _quadratic_roots(0.0, 0.0, 1.0) == []
    # roots 1e8 and 1e-8: the small one is q/m over the large, not a
    # difference of two numbers near 1e8
    assert _quadratic_roots(1.0, -(1e8 + 1e-8), 1.0) == [1e8, 1e-8]


def _entry_exponent(m):
    """frexp exponent of the largest real or imaginary part of m's entries."""
    return math.frexp(max(max(abs(z.real), abs(z.imag)) for z in m.entries()))[1]


def test_spectral_radius_is_the_discriminant_form_bitwise():
    """spectral_radius is the half-gap discriminant form max |h +- sqrt(d^2 +
    a12 a21)| (spectral_radius_gap_reference) exactly wherever the entries
    lie in [2^-480, 2^480].  Outside that range, where the squares can
    overflow or underflow, it is the same form on B 2^-e, scaled back by
    2^e."""
    rng = random.Random(11)
    for i in range(6000):
        f = 10.0 ** (rng.choice((-320, -300, -150, -30, 0, 30, 150)) + rng.uniform(-3, 3))
        z = complex(rng.gauss(0, 1), rng.gauss(0, 1)) * f
        kind = i % 4
        if kind == 0:
            m = unitary_from_rng(rng).scale(f)
        elif kind == 1:       # a double eigenvalue
            m = Matrix2(z, complex(rng.gauss(0, 1), rng.gauss(0, 1)) * f, 0, z)
        elif kind == 2:       # nilpotent
            m = Matrix2(z, z, -z, -z)
        else:
            m = Matrix2(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) * f
                          for _ in range(4)))
        top = max(max(abs(z.real), abs(z.imag)) for z in m.entries())
        if 2.0 ** -480 <= top <= 2.0 ** 480 or top == 0.0:
            want = spectral_radius_gap_reference(m)
        else:
            e = _entry_exponent(m)
            scaled = Matrix2(*(complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e))
                               for z in m.entries()))
            want = math.ldexp(spectral_radius_gap_reference(scaled), e)
        assert spectral_radius(m) == want


def test_spectral_radius_keeps_the_eigenvalue_gap():
    """On 3 000 seeded V diag(lam, lam + gap) V^-1, gap/lam = 10^-U(2, 12),
    spectral_radius is the 50-digit radius to 2 ulps, where the trace and
    determinant form (spectral_radius_reference) cancels to 1e-8.  On
    [[1e10 + 0.3, 1], [2j, 1e10]] it is numpy's 10000000001.155638."""
    r = random.Random(46)

    def gauss():
        return complex(r.gauss(0, 1), r.gauss(0, 1))

    worst_new = worst_old = 0.0
    for _ in range(3000):
        lam = gauss() * 10.0 ** r.uniform(-3, 3)
        gap = lam * 10.0 ** -r.uniform(2, 12) * cmath.exp(1j * r.uniform(0, 2 * math.pi))
        v = Matrix2(gauss(), gauss(), gauss(), gauss())
        vi = Matrix2(v.a22, -v.a12, -v.a21, v.a11).scale(1.0 / v.det)
        m = v @ Matrix2(lam, 0, 0, lam + gap) @ vi
        want = spectral_radius_decimal(m)
        worst_new = max(worst_new, abs(spectral_radius(m) - want) / want)
        worst_old = max(worst_old, abs(spectral_radius_reference(m) - want) / want)
    assert worst_new <= 4.5e-16 and worst_old > 1e-9, (worst_new, worst_old)
    m = Matrix2(1e10 + 0.3, 1, 2j, 1e10)
    assert spectral_radius(m) == spectral_radius_decimal(m) == pytest.approx(
        10000000001.155638, rel=1e-15)


def test_spectral_radius_far_from_unit_scale():
    """t^2 - 4 det overflowed to inf - inf from entries of about 1e154 up,
    so the radius read NaN and mu_sandwich_check failed on a matrix whose mu
    is fine; below about 1e-154 t^2 and det underflowed, so distinct
    eigenvalues were lost."""
    assert math.isnan(spectral_radius_reference(Matrix2(1e155, 0, 0, 1e155)))
    assert spectral_radius(Matrix2(1e155, 0, 0, 1e155)) == 1e155
    assert spectral_radius(Matrix2(1e300, 0, 0, -1e300)) == 1e300
    tiny = Matrix2(1e-170, 1e-170, 0, 2e-170)
    assert spectral_radius_reference(tiny) != 2e-170
    assert spectral_radius(tiny) == pytest.approx(2e-170, rel=1e-15, abs=0.0)
    base = Matrix2(1 + 2j, 0.5, -0.3j, 2)
    r = eig_radius(base)
    for e in (-300, -170, -150, 155, 200, 300):
        assert spectral_radius(base.scale(10.0 ** e)) == pytest.approx(
            r * 10.0 ** e, rel=1e-14, abs=0.0)
    assert spectral_radius(Matrix2(1.5e308, 1.5e308j, 0, 0)) == 1.5e308
    from mublocks.mu import mu_sandwich_check, structure_from_name
    assert mu_sandwich_check(Matrix2(1e155, 0, 0, 1e155),
                             structure_from_name("diag"))


def test_top_singular_pair():
    """sigma_1 is operator_norm bitwise, v1 and u1 are unit vectors with
    B v1 = sigma_1 u1, and a multiple of a unitary gets e1."""
    rng = random.Random(29)
    for _ in range(500):
        m = Matrix2(*(complex(rng.gauss(0, 1), rng.gauss(0, 1))
                      * 10.0 ** rng.uniform(-50, 50) for _ in range(4)))
        s1, u1, v1 = _top_singular_pair(m)
        assert s1 == operator_norm(m)
        for w in (u1, v1):
            assert abs(math.hypot(abs(w[0]), abs(w[1])) - 1.0) <= 1e-14
        bv = m.apply(v1)
        assert abs(bv[0] - s1 * u1[0]) + abs(bv[1] - s1 * u1[1]) <= 1e-13 * s1
    assert _top_singular_pair(Matrix2(0, 3, -3, 0)) == (3.0, (0j, -1 + 0j), (1 + 0j, 0j))


def test_matrix2_is_a_checked_tuple_record():
    """A Matrix2 is equal only to a Matrix2, hashes by its entries, survives
    pickling and copying, refuses assignment and prints as before."""
    m = Matrix2(1, 2j, 3.5, -1)
    assert m == Matrix2(1 + 0j, 2j, 3.5, -1.0) and not m != Matrix2(1, 2j, 3.5, -1)
    assert m != (1, 2j, 3.5, -1) and not m == (1 + 0j, 2j, 3.5 + 0j, -1 + 0j)
    assert m != m.entries() and m.entries() == (1, 2j, 3.5, -1)
    assert type(m.entries()) is tuple
    assert hash(m) == hash(Matrix2(1, 2j, 3.5, -1)) == hash((1, 2j, 3.5, -1))
    assert len({m, Matrix2(1, 2j, 3.5, -1), m.transpose()}) == 2
    for copied in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
        assert copied == m and type(copied) is Matrix2
    with pytest.raises(AttributeError):
        m.a11 = 5
    with pytest.raises(TypeError):
        m[0] = 5
    assert repr(m) == "Matrix2(a11=(1+0j), a12=2j, a21=(3.5+0j), a22=(-1+0j))"
    assert eval(repr(m), {"Matrix2": Matrix2}) == m
    assert (m.a11, m.a12, m.a21, m.a22) == (1, 2j, 3.5, -1)
    assert all(type(z) is complex for z in m.entries())
    assert m.rows() == ((1, 2j), (3.5, -1))


def test_matrix2_checks_every_construction_path():
    """Entries are checked in one pass, by their sum, and one by one only
    where that sum is not finite, with the messages of the per-entry check;
    a sum that overflows on finite entries is accepted.  _make and _replace
    check too, and pickling rebuilds through the constructor."""
    inf, nan = float("inf"), float("nan")
    cases = [((nan, 0, 0, 0), "a11: non-finite entry (nan+0j)"),
             ((0, complex(0, inf), 0, 0), "a12: non-finite entry infj"),
             ((0, 0, inf, -inf), "a21: non-finite entry (inf+0j)"),
             ((1, 2, 3, complex(nan, 1)), "a22: non-finite entry (nan+1j)"),
             (("soup", 0, 0, 0), "a11: not a complex number: 'soup'"),
             ((0, None, nan, 0), "a12: not a complex number: None"),
             ((0, 0, nan, "soup"), "a21: non-finite entry (nan+0j)")]
    for args, message in cases:
        with pytest.raises(PreconditionViolation) as exc:
            Matrix2(*args)
        assert str(exc.value) == message
    big = Matrix2(1e308, 1e308, 0, 0)
    assert big.entries() == (1e308, 1e308, 0, 0)
    assert Matrix2(1e308, 1e308, -1e308j, -1e308j).a22 == -1e308j
    assert Matrix2("1+2j", 0, 0, 0).a11 == 1 + 2j
    with pytest.raises(OverflowError):
        Matrix2(10 ** 400, 0, 0, 0)
    with pytest.raises(PreconditionViolation):
        Matrix2._make((1, 2, 3, inf))
    with pytest.raises(PreconditionViolation):
        Matrix2(1, 2, 3, 4)._replace(a21=nan)
    assert Matrix2(1, 2, 3, 4)._replace(a21=5) == Matrix2(1, 2, 5, 4)
    for op in (lambda: big + big, lambda: big.scale(2.0), lambda: big @ big,
               lambda: big - big.scale(-1.0)):
        with pytest.raises(PreconditionViolation):
            op()


_RECORDS = {
    # record, a field change the constructor accepts, one it refuses
    "Matrix2": (Matrix2(1, 2j, 3.5, -1), {"a21": 5}, {"a21": float("nan")},
                PreconditionViolation),
    "MembershipVerdict": (MembershipVerdict(Region.INTERIOR, 1.0), {"margin": 0.5},
                          {"margin": -5.0}, AssertionError),
    "MuResult": (MuResult(1.0, Matrix2(1, 0, 0, 0), "Exact"), {"value": 2.0},
                 {"status": "Infeasible"}, PreconditionViolation),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_checked_records_share_one_base(name):
    """Matrix2, MembershipVerdict and MuResult take equality, hashing and
    _make from CheckedRecord alone, so _make and _replace run each one's
    constructor checks, and copies and pickles come back as that class."""
    record, good, bad, error = _RECORDS[name]
    cls = type(record)
    assert cls.__mro__[1] is CheckedRecord
    assert not {"_make", "__eq__", "__ne__", "__hash__"} & set(vars(cls))
    with pytest.raises(error):
        record._replace(**bad)
    with pytest.raises(error):
        cls._make([bad.get(f, v) for f, v in zip(cls._fields, record)])
    changed = record._replace(**good)
    assert type(changed) is cls and changed != record
    assert changed == cls(**{**record._asdict(), **good})
    assert record != tuple(record) and tuple(record) != record
    assert hash(record) == hash(tuple(record))
    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                   copy.deepcopy(record)):
        assert copied == record and type(copied) is cls
