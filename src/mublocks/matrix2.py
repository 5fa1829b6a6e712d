"""Exact-arithmetic kernel for 2x2 complex matrices.

Everything downstream (domain classifiers, mu computations, verification
suites) funnels through this module, so norms and spectra are closed-form --
no iterative linear algebra for a 2x2.

Coordinate convention used throughout the package for a matrix
B = [[b11, b12], [b21, b22]]:

    x = b11,  a = b22,  p = det B,  s = b12 + b21.

With those, det(I - B*B) has the closed form

    1 - |a|^2 - |x|^2 + |p|^2 - |s|^2/2 - |s^2 - 4(ax - p)|/2

because s^2 - 4(ax - p) = (b12 - b21)^2, and |s|^2/2 + |b12 - b21|^2/2 =
|b12|^2 + |b21|^2 by the parallelogram law; the whole expression collapses to
1 - ||B||_F^2 + |det B|^2.  gram_report evaluates both routes and insists they
agree.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

from .errors import FormulaMismatch, PreconditionViolation

_GRAM_AGREE_TOL = 1e-10


def _as_finite_complex(z, what: str) -> complex:
    try:
        w = complex(z)
    except (TypeError, ValueError) as exc:
        raise PreconditionViolation(f"{what}: not a complex number: {z!r}") from exc
    if not (cmath.isfinite(w)):
        raise PreconditionViolation(f"{what}: non-finite entry {w!r}")
    return w


@dataclass(frozen=True)
class Matrix2:
    a11: complex
    a12: complex
    a21: complex
    a22: complex

    def __post_init__(self) -> None:
        for name in ("a11", "a12", "a21", "a22"):
            object.__setattr__(self, name, _as_finite_complex(getattr(self, name), name))

    @classmethod
    def from_rows(cls, rows) -> "Matrix2":
        (r1, r2) = rows
        return cls(r1[0], r1[1], r2[0], r2[1])

    @classmethod
    def identity(cls) -> "Matrix2":
        return cls(1, 0, 0, 1)

    def rows(self):
        return ((self.a11, self.a12), (self.a21, self.a22))

    def entries(self):
        return (self.a11, self.a12, self.a21, self.a22)

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


def singular_values(b: Matrix2) -> tuple[float, float]:
    """(sigma_max, sigma_min), from the eigenvalues of B*B in closed form."""
    t = b.frobenius_sq()                      # trace of B*B
    d = abs(b.det) ** 2                       # det of B*B
    disc = max(t * t - 4.0 * d, 0.0)
    root = math.sqrt(disc)
    hi = 0.5 * (t + root)
    # (t - root)/2 cancels catastrophically when d << t^2; the eigenvalue
    # product is d exactly, so divide instead.
    lo = d / hi if hi > 0.0 else 0.0
    if lo > hi:   # at a double eigenvalue the quotient can round one ulp up
        lo = hi
    return (math.sqrt(max(hi, 0.0)), math.sqrt(max(lo, 0.0)))


def operator_norm(b: Matrix2) -> float:
    return singular_values(b)[0]


def spectral_radius(b: Matrix2) -> float:
    t = b.trace
    d = b.det
    root = cmath.sqrt(t * t - 4.0 * d)
    return max(abs((t + root) / 2.0), abs((t - root) / 2.0))


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


def contraction_test(b: Matrix2, strict: bool = True) -> bool:
    """Norm test via the sign of det(I - B*B).

    Valid only under a determinant precondition: for |det B| < 1,
    ||B|| < 1  iff  det(I - B*B) > 0; for |det B| <= 1, ||B|| <= 1 iff
    det(I - B*B) >= 0.  Violating the precondition raises rather than
    returning a wrong answer.
    """
    dp = abs(b.det)
    if strict:
        if not dp < 1.0:
            raise PreconditionViolation(
                f"strict contraction test needs |det B| < 1, got {dp!r}")
        return gram_report(b).det_gram > 0.0
    if not dp <= 1.0:
        raise PreconditionViolation(
            f"non-strict contraction test needs |det B| <= 1, got {dp!r}")
    return gram_report(b).det_gram >= 0.0


def _complex_gauss(rng: random.Random) -> complex:
    return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))


def _unit_phase(z: complex) -> complex:
    m = abs(z)
    return z / m if m > 1e-12 else 1.0 + 0.0j


def unitary_from_rng(rng: random.Random) -> Matrix2:
    """Gram-Schmidt on two complex Gaussian columns; first pivot made real>=0."""
    while True:
        g1 = (_complex_gauss(rng), _complex_gauss(rng))
        n1 = math.sqrt(abs(g1[0]) ** 2 + abs(g1[1]) ** 2)
        if n1 > 1e-8:
            break
    v1 = (g1[0] / n1, g1[1] / n1)
    while True:
        g2 = (_complex_gauss(rng), _complex_gauss(rng))
        ip = v1[0].conjugate() * g2[0] + v1[1].conjugate() * g2[1]
        w = (g2[0] - ip * v1[0], g2[1] - ip * v1[1])
        n2 = math.sqrt(abs(w[0]) ** 2 + abs(w[1]) ** 2)
        if n2 > 1e-8:
            break
    v2 = (w[0] / n2, w[1] / n2)
    ph = _unit_phase(v1[0]).conjugate()
    v1 = (ph * v1[0], ph * v1[1])
    return Matrix2(v1[0], v2[0], v1[1], v2[1])


def contraction_from_rng(rng: random.Random) -> Matrix2:
    """U diag(s1, s2) V* with independent singular values uniform on [0, 1)."""
    u = unitary_from_rng(rng)
    v = unitary_from_rng(rng)
    s1 = rng.random()
    s2 = rng.random()
    d = Matrix2(s1, 0, 0, s2)
    return (u @ d) @ v.conj_transpose()


def random_unitary(seed: int) -> Matrix2:
    return unitary_from_rng(random.Random(seed))


def random_contraction(seed: int) -> Matrix2:
    return contraction_from_rng(random.Random(seed))
