"""Exact-arithmetic kernel for 2x2 complex matrices.

Everything downstream (domain classifiers, mu computations, verification
suites) funnels through this module, so norms and spectra are closed-form --
no iterative linear algebra for a 2x2.  Its kernels _singular_values (behind
singular_values and operator_norm), _top_singular_pair (sigma_1 and its
singular vectors), _eigenvalues (spectral_radius, mu's k = 1 route) and
_quadratic_roots (g2_roots, mu's variety route) are the only such routes.
_complex_gauss, one Box-Muller step, is the samplers' standard-normal draw.
A Matrix2 is a CheckedRecord, equal only to a Matrix2.  It rejects
non-numbers and non-finite entries; a finite entry sum clears all four at once.

Coordinate convention used throughout the package for a matrix
B = [[b11, b12], [b21, b22]]:

    x = b11,  a = b22,  p = det B,  s = b12 + b21.

With those, det(I - B*B) has the closed form

    1 - |a|^2 - |x|^2 + |p|^2 - |s|^2/2 - |s^2 - 4(ax - p)|/2

because s^2 - 4(ax - p) = (b12 - b21)^2, and |s|^2/2 + |b12 - b21|^2/2 =
|b12|^2 + |b21|^2 by the parallelogram law; the whole expression collapses to
1 - ||B||_F^2 + |det B|^2.  gram_report evaluates both routes and insists they
agree.

Singular values come from B*B = [[h11, h12], [conj(h12), h22]]: the larger
eigenvalue is (h11 + h22)/2 + hypot((h11 - h22)/2, |h12|) and the smaller is
|det B|^2 divided by it.  Neither step cancels, so both values hold to a few
ulps of ||B|| even where they coincide, where the discriminant form
sqrt(t^2 - 4|det B|^2) keeps only half the digits.
"""

from __future__ import annotations

import cmath
import math
import random
import sys
from collections import namedtuple
from dataclasses import dataclass

from .errors import FormulaMismatch, PreconditionViolation

_GRAM_AGREE_TOL = 1e-10
_NORMAL_MIN = sys.float_info.min
_SQUARES_LO, _SQUARES_HI = 1e-290, 1e300   # sigma_1^2 range _singular_values takes unscaled
_PAIR_FLOOR = 1e-150   # _top_singular_pair takes e1 where its Gram vector is shorter
_REDRAW_TOL = 1e-8     # unitary_from_rng redraws a column whose norm is at most this
_PHASE_FLOOR = 1e-12   # |v1| at most this: unitary_from_rng's first pivot keeps phase 1


def raise_if_nonfinite(fields, values) -> None:
    """Raise PreconditionViolation, under its field name, at the first of values
    that is not a finite complex number; a finite sum of the values clears all."""
    for what, z in zip(fields, values):
        try:
            w = complex(z)
        except (TypeError, ValueError) as exc:
            raise PreconditionViolation(f"{what}: not a complex number: {z!r}") from exc
        if not cmath.isfinite(w):
            raise PreconditionViolation(f"{what}: non-finite entry {w!r}")


class CheckedRecord(tuple):
    """First base of a checked named tuple: it equals only its own class,
    and _make (so _replace) runs the subclass's checking constructor."""
    __slots__ = ()

    _make = classmethod(lambda cls, fields: cls(*fields))

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    __ne__ = object.__ne__
    __hash__ = tuple.__hash__


class Matrix2(CheckedRecord, namedtuple("_Entries", "a11 a12 a21 a22")):
    __slots__ = ()

    def __new__(cls, a11, a12, a21, a22):
        try:
            e = (complex(a11), complex(a12), complex(a21), complex(a22))
        except (TypeError, ValueError, OverflowError):
            e = None
        if e is None or not cmath.isfinite(e[0] + e[1] + e[2] + e[3]):
            raise_if_nonfinite(cls._fields, (a11, a12, a21, a22))
        return tuple.__new__(cls, e)

    @classmethod
    def identity(cls) -> "Matrix2":
        return cls(1, 0, 0, 1)

    def rows(self):
        return ((self.a11, self.a12), (self.a21, self.a22))

    def entries(self):
        return tuple(self)

    @property
    def det(self) -> complex:
        return self.a11 * self.a22 - self.a12 * self.a21

    @property
    def trace(self) -> complex:
        return self.a11 + self.a22

    def transpose(self) -> "Matrix2":
        return Matrix2(self.a11, self.a21, self.a12, self.a22)

    def conj_transpose(self) -> "Matrix2":
        return Matrix2(self.a11.conjugate(), self.a21.conjugate(),
                       self.a12.conjugate(), self.a22.conjugate())

    def __add__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(self.a11 + other.a11, self.a12 + other.a12,
                       self.a21 + other.a21, self.a22 + other.a22)

    def __sub__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(self.a11 - other.a11, self.a12 - other.a12,
                       self.a21 - other.a21, self.a22 - other.a22)

    def scale(self, c: complex) -> "Matrix2":
        return Matrix2(c * self.a11, c * self.a12, c * self.a21, c * self.a22)

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def apply(self, v):
        """Matrix-vector product on a length-2 sequence."""
        return (self.a11 * v[0] + self.a12 * v[1],
                self.a21 * v[0] + self.a22 * v[1])

    def frobenius_sq(self) -> float:
        return (abs(self.a11) ** 2 + abs(self.a12) ** 2
                + abs(self.a21) ** 2 + abs(self.a22) ** 2)


def _singular_values(a11: complex, a12: complex, a21: complex,
                     a22: complex) -> tuple[float, float]:
    """(sigma_max, sigma_min) of [[a11, a12], [a21, a22]], from the
    eigenvalues of B*B in closed form.

    The kernel behind `singular_values` and `operator_norm`, on raw entries
    so that inner loops need not build a Matrix2 per evaluation; the caller
    vouches that the entries are finite complex numbers.  Where the squares
    overflow (entries past about 1e77) or underflow (below about 1e-145),
    and only there, the entries are first scaled exactly by a power of two.
    Where |det B|^2 alone is below the normal range, sigma_min is
    |det B| / sigma_max.
    """
    # B*B = [[h11, h12], [conj(h12), h22]]; its eigenvalues are
    # mid +- gap.  The gap is taken as a hypot of the half-difference and the
    # off-diagonal modulus, never as sqrt(t^2 - 4|det|^2), which cancels
    # to half precision where the singular values coincide.
    try:
        h11 = abs(a11) ** 2 + abs(a21) ** 2
        h22 = abs(a12) ** 2 + abs(a22) ** 2
        h12 = a11.conjugate() * a12 + a21.conjugate() * a22
        d = abs(a11 * a22 - a12 * a21) ** 2      # det of B*B
        hi = 0.5 * (h11 + h22) + math.hypot(0.5 * (h11 - h22), abs(h12))
    except OverflowError:
        hi = math.inf
    if not _SQUARES_LO <= hi < _SQUARES_HI:
        top = max(max(abs(z.real), abs(z.imag)) for z in (a11, a12, a21, a22))
        if top == 0.0:
            return 0.0, 0.0
        e = math.frexp(top)[1]
        s1, s2 = _singular_values(*(complex(math.ldexp(z.real, -e),
                                            math.ldexp(z.imag, -e))
                                    for z in (a11, a12, a21, a22)))
        return math.ldexp(s1, e), math.ldexp(s2, e)
    if d < _NORMAL_MIN:   # |det|^2 underflowed; |det| / sigma_max needs no square
        s1 = math.sqrt(hi)
        return s1, min(abs(a11 * a22 - a12 * a21) / s1, s1)
    # mid - gap cancels catastrophically when d << hi^2; the eigenvalue
    # product is d exactly, so divide instead.
    lo = d / hi
    if lo > hi:   # at a double eigenvalue the quotient can round one ulp up
        lo = hi
    return math.sqrt(hi), math.sqrt(lo)


def _top_singular_pair(b: Matrix2):
    """(sigma_1, u1, v1), B v1 = sigma_1 u1 for unit u1, v1, sigma_1 being
    _singular_values' own; v1 from the Gram entries of B, e1 where B*B is a
    multiple of I.  The entries must square without over- or underflow."""
    a11, a12, a21, a22 = b
    s1 = _singular_values(a11, a12, a21, a22)[0]
    h12 = a11.conjugate() * a12 + a21.conjugate() * a22
    d1 = s1 * s1 - (abs(a11) ** 2 + abs(a21) ** 2)   # sigma_1^2 - h11
    d2 = s1 * s1 - (abs(a12) ** 2 + abs(a22) ** 2)   # sigma_1^2 - h22
    # B*B - sigma_1^2 I maps both to 0; the longer is the better conditioned
    v = (h12, complex(d1)) if abs(d1) >= abs(d2) else (complex(d2), h12.conjugate())
    n = math.hypot(abs(v[0]), abs(v[1]))
    v1 = (v[0] / n, v[1] / n) if n >= _PAIR_FLOOR else (1.0 + 0j, 0j)
    u1 = ((a11 * v1[0] + a12 * v1[1]) / s1, (a21 * v1[0] + a22 * v1[1]) / s1)
    return s1, u1, v1


def singular_values(b: Matrix2) -> tuple[float, float]:
    """(sigma_max, sigma_min), from the eigenvalues of B*B in closed form."""
    return _singular_values(*b)


def operator_norm(b: Matrix2) -> float:
    return _singular_values(*b)[0]


def _quadratic_roots(m: complex, l: complex, q: complex) -> list:
    """Roots of m x^2 + l x + q without cancellation, the larger modulus
    first and a double root twice; [] if m = l = 0, [-q/l] if only m = 0."""
    if m == 0.0:
        if l == 0.0:
            return []
        return [-q / l]
    sq = cmath.sqrt(l * l - 4.0 * m * q)
    u = l + sq if abs(l + sq) >= abs(l - sq) else l - sq
    if u == 0.0:
        return [0j, 0j]
    return [-u / (2.0 * m), -2.0 * q / u]


def _eigenvalues(a11: complex, a12: complex, a21: complex, a22: complex) -> tuple:
    """h +- sqrt(d^2 + a12 a21), h and d the diagonal's half sum and half
    difference, larger modulus first; unlike t^2 - 4 det, d keeps the gap."""
    h, d = (a11 + a22) / 2.0, (a11 - a22) / 2.0
    root = cmath.sqrt(d * d + a12 * a21)
    return (h + root, h - root) if abs(h + root) >= abs(h - root) else (h - root, h + root)


def spectral_radius(b: Matrix2) -> float:
    """Largest eigenvalue modulus, from _eigenvalues, on B scaled by a power
    of two where a square could leave the normal range."""
    top = max(max(abs(z.real), abs(z.imag)) for z in b)
    if 2.0 ** -480 <= top <= 2.0 ** 480 or top == 0.0:
        return abs(_eigenvalues(*b)[0])
    e = math.frexp(top)[1]
    return math.ldexp(spectral_radius(_ldexp(b, -e)), e)


def _ldexp(b: Matrix2, e: int) -> Matrix2:
    return Matrix2(*(complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))
                     for z in b))


def gram_det_from_coords(x: complex, a: complex, p: complex, s: complex) -> float:
    """det(I - B*B) for any B with b11=x, b22=a, det=p, b12+b21=s.

    Well-defined: the right-hand side depends on the off-diagonal entries only
    through s and b12*b21 = ax - p.
    """
    return (1.0 - abs(a) ** 2 - abs(x) ** 2 + abs(p) ** 2
            - abs(s) ** 2 / 2.0 - abs(s * s - 4.0 * (a * x - p)) / 2.0)


@dataclass(frozen=True)
class GramReport:
    det_gram: float
    trace_gram: float
    norm: float


def gram_report(b: Matrix2) -> GramReport:
    """Evaluate det/trace of I - B*B two ways and cross-check.

    Direct route: entrywise Gram matrix.  Closed route: the coordinate formula
    above.  A discrepancy beyond 1e-10 raises FormulaMismatch (it would mean a
    kernel bug, not a borderline input).
    """
    bs = b.conj_transpose()
    g = Matrix2.identity() - (bs @ b)
    det_direct = g.det
    if abs(det_direct.imag) > _GRAM_AGREE_TOL:
        raise FormulaMismatch(
            f"gram determinant not real: {det_direct!r} for {b!r}")
    closed = gram_det_from_coords(b.a11, b.a22, b.det, b.a12 + b.a21)
    if abs(det_direct.real - closed) > _GRAM_AGREE_TOL:
        raise FormulaMismatch(
            f"gram det mismatch: direct {det_direct.real!r} vs closed {closed!r} for {b!r}")
    return GramReport(det_gram=det_direct.real,
                      trace_gram=g.trace.real,
                      norm=operator_norm(b))


_TWOPI = 2.0 * math.pi     # random.TWOPI
_cos, _sin, _log, _sqrt = math.cos, math.sin, math.log, math.sqrt


def _complex_gauss(rng: random.Random) -> complex:
    """complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)), bit for bit, and
    rng left in the same state (Mersenne Twister and gauss_next alike).

    The samplers' one standard-normal kernel: a single Box-Muller step,
    CPython's Random.gauss written out (3.10 to 3.12 share it).  Two uniforms
    give an angle x2pi = u1 * 2 pi and a radius g = sqrt(-2 log(1 - u2)).
    With no value pending in rng.gauss_next the two gauss calls return
    cos(x2pi) g and then sin(x2pi) g and leave nothing pending; with z
    pending they return z and cos(x2pi) g, and sin(x2pi) g becomes the new
    pending value.  Each part is 0.0 + value, as gauss's mu + z * sigma is,
    so a -0.0 (g is -0.0 where u2 = 0) comes out +0.0.  rng may be any
    random.Random whose gauss is the stock one; random() may be overridden.
    """
    random = rng.random
    u1 = random()
    u2 = random()
    z = rng.gauss_next
    if z is None:
        return _box_muller(u1, u2)
    x2pi = u1 * _TWOPI
    g2rad = _sqrt(-2.0 * _log(1.0 - u2))
    rng.gauss_next = _sin(x2pi) * g2rad
    return complex(0.0 + z, 0.0 + _cos(x2pi) * g2rad)


def _box_muller(u1: float, u2: float) -> complex:
    """_complex_gauss with no value pending, on the uniforms u1, u2 it
    draws."""
    x2pi = u1 * _TWOPI
    g2rad = _sqrt(-2.0 * _log(1.0 - u2))
    return complex(0.0 + _cos(x2pi) * g2rad, 0.0 + _sin(x2pi) * g2rad)


def unitary_from_rng(rng: random.Random) -> Matrix2:
    """Gram-Schmidt on two complex Gaussian columns; first pivot made real>=0."""
    while True:
        g1 = _complex_gauss(rng)
        g2 = _complex_gauss(rng)
        n1 = _sqrt(abs(g1) ** 2 + abs(g2) ** 2)
        if n1 > _REDRAW_TOL:
            break
    v1 = g1 / n1
    v2 = g2 / n1
    c1 = v1.conjugate()
    c2 = v2.conjugate()
    while True:
        h1 = _complex_gauss(rng)
        h2 = _complex_gauss(rng)
        ip = c1 * h1 + c2 * h2
        w1 = h1 - ip * v1
        w2 = h2 - ip * v2
        n2 = _sqrt(abs(w1) ** 2 + abs(w2) ** 2)
        if n2 > _REDRAW_TOL:
            break
    m = abs(v1)
    ph = (v1 / m if m > _PHASE_FLOOR else 1.0 + 0.0j).conjugate()   # unit phase of v1
    return Matrix2(ph * v1, w1 / n2, ph * v2, w2 / n2)


def _usv(u: Matrix2, s1: float, s2: float, v: Matrix2) -> Matrix2:
    """(U @ Matrix2(s1, 0, 0, s2)) @ V.conj_transpose(), bit for bit: the
    expressions of Matrix2.__matmul__, the 0j products included, with one
    checked construction."""
    u11, u12, u21, u22 = u
    v11, v12, v21, v22 = v
    d1 = complex(s1)
    d2 = complex(s2)
    m11 = u11 * d1 + u12 * 0j
    m12 = u11 * 0j + u12 * d2
    m21 = u21 * d1 + u22 * 0j
    m22 = u21 * 0j + u22 * d2
    w11 = v11.conjugate()
    w12 = v21.conjugate()
    w21 = v12.conjugate()
    w22 = v22.conjugate()
    return Matrix2(m11 * w11 + m12 * w21, m11 * w12 + m12 * w22,
                   m21 * w11 + m22 * w21, m21 * w12 + m22 * w22)


def contraction_from_rng(rng: random.Random) -> Matrix2:
    """U diag(s1, s2) V* with independent singular values uniform on [0, 1)."""
    u = unitary_from_rng(rng)
    v = unitary_from_rng(rng)
    s1 = rng.random()
    s2 = rng.random()
    return _usv(u, s1, s2, v)
