"""Structured singular value on 2x2 matrices.

For a linear subspace E of M2(C),

    mu_E(A) = 1 / inf{ ||X|| : X in E, det(I - A X) = 0 },

equal to 0 when no X in E satisfies the constraint.  The constraint is one
polynomial equation in the basis coefficients c:

    det(I - A X(c)) = 1 - sum_i tr(A B_i) c_i + det(A) * det(X(c)),

with det(X(c)) quadratic in c via polarized determinants.  Exact paths: the
symbolic infeasibility test (all non-constant coefficients vanish; it forms
them lazily, tr(A B_i) one at a time up to the first nonzero one and det(A)
times the polarized determinants only where all of those vanish), k = 1
(top eigenvalue), the diagonal span (any k = 2 basis with zero off-diagonal
entries, whatever the structure's name: mu is the D-scaling bound in closed
form, see _mu_diagonal), the upper- and lower-triangular spans (any k = 3
basis with a zero (2,1), resp. (1,2), entry throughout: mu_upper(A) < 1 iff
(a21, a11, a22, det A) lies in the paper's hexablock, whose supremum in
closed form gives mu = ||A|| if |a21| > |a12| and mu_diag(A) otherwise, see
_mu_upper; lower is upper on the transpose), and k = 4 (the structure is
all of M2, so the infimum is 1/||A|| at a rank-one X).  For the other
k = 2, 3 structures (skewdiag, e_theta and a caller's own spans), det(I -
A X) = 0 iff X(Aw) = w for some unit w, and F(w) = min{||X|| : X in E,
X(Aw) = w} has a closed form (_least_norm_mapper).  Since ||X|| >=
1/||A w|| >= 1/||A||, F = 1/||A|| at the top singular vector certifies mu
= ||A||; that probe settles every A on skewdiag and e_theta, which are
rigid.  There and on full, mu is matrix2's sigma_1 (_top_singular_pair), so
operator_norm(A) bitwise.  Otherwise seeded multistart descent runs over
charts of the variety.  A Structure fixes its route and, by one plain-Python
Gauss-Jordan pass, its normals and coefficient weights when built.  The
constraint coefficients, the det residual and the objectives (entries_at and
matrix2's singular-value kernel) read raw entries and build no Matrix2.

Every path works on an A whose largest entry modulus lies in [2^-200,
2^200], where none of them over- or underflows.  mu(cA) = |c|
mu(A), so mu_value brings any other A there by an even power of 2, which
keeps _mu_diagonal's square roots exact, and scales the value and the
minimizer back with ldexp, which keeps the sign of a zero.  The k1 route
also forms det B and the squared entries of A B for its one basis element
B, so a Structure stores a B whose largest entry part lies outside that
range rescaled by a power of 2: the span, and so mu, is the same.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .domain_f import f_matrix_witness
from .errors import OptimizerNoConverge, PreconditionViolation
from .matrix2 import (CheckedRecord, Matrix2, _eigenvalues, _ldexp, _quadratic_roots,
                      _singular_values, _top_singular_pair, operator_norm, spectral_radius)
from .optimize import nelder_mead
from .verdict import checked_tol

_SEED_STARTS = 0x5EED
_RESIDUAL_TOL = 1e-7    # det(I - A X) of a minimizer, relative to its scale
_RANK_TOL = 1e-12       # on columns of modulus <= 1, see _least_norm_mapper
_FEASIBLE_TOL = 1e-9    # relative to |v|/|u|, see _least_norm_mapper
_UNIT_TOL = 1e-12       # | |w| - 1 | of a unit vector given to rigidity_check
_SPAN_TOL = 1e-10       # relative size at which a remainder counts as 0: a Gauss-
                        # Jordan pivot, coeffs_of's residual, a unit normal's entry
_CERT_TOL = 1e-6        # ||X|| sigma_1 <= 1 + this: the certificate settles mu
_EXACT_TOL = 1e-9       # ... and within 1 + this it reports Exact, not Numeric
_DESCENT_STEP, _DESCENT_TOL = 0.7, 1e-12   # descent step and x/f atol, per 1/sigma_1
_REPEAT_TOL = 1e-8      # descent minima within this relative band are repeats
_POLISH_STEP, _POLISH_XATOL = 1e-3, 1e-13   # polish step and xatol, per 1/sigma_1
_POLISH_FATOL = 1e-15   # polish fatol, relative to the incumbent norm
_RANGE_LO, _RANGE_HI = 2.0 ** -200, 2.0 ** 200  # see mu_value
_SANDWICH_TOL = 1e-6    # mu_sandwich_check's slack, relative to max(1, ||A||)
_RIGID_TOL = 1e-6       # a least-norm mapper within 1 + this counts as norm one
_MEMBERSHIP_TOL = 1e-6  # f_mu_membership: mu below 1 - this puts the point inside
_ETHETA_TOL = 1e-9      # classify_subspace: least |alpha|, |beta| and their |gap|

E11 = Matrix2(1, 0, 0, 0)
E12 = Matrix2(0, 1, 0, 0)
E21 = Matrix2(0, 0, 1, 0)
E22 = Matrix2(0, 0, 0, 1)
IDENTITY = Matrix2.identity()


@dataclass(frozen=True)
class Structure:
    """A complex-linear subspace of M2(C) given by an independent basis.

    Gauss-Jordan on the rows [b_i | e_i], each pivoting on its largest
    remaining entry, rejects the basis as dependent at a pivot <= _SPAN_TOL
    x its largest entry modulus.  Gram-Schmidt on the free columns' null
    vectors gives `normals` (X is in the span iff sum n_ij x_ij = 0 for
    each), and the rows' last k entries are coeffs_of's weights."""

    basis: tuple[Matrix2, ...]
    name: str = ""

    def __post_init__(self) -> None:
        basis = tuple(self.basis)
        if len(basis) == 1:   # the k1 route squares B's scale; see the module docstring
            top = max(max(abs(z.real), abs(z.imag)) for z in basis[0])
            if not (_RANGE_LO <= top <= _RANGE_HI or top == 0.0):
                basis = (_ldexp(basis[0], -math.frexp(top)[1]),)
        object.__setattr__(self, "basis", basis)
        k = len(basis)
        if not 1 <= k <= 4:
            raise PreconditionViolation(f"basis length must be 1..4, got {k}")
        pivots, floor = [], _SPAN_TOL * max(abs(z) for b in basis for z in b)
        rows = [[*b, *(complex(i == j) for j in range(k))] for i, b in enumerate(basis)]
        for i in range(k):
            row = rows[i]
            p = max((c for c in range(4) if c not in pivots), key=lambda c: abs(row[c]))
            if abs(row[p]) <= floor:
                raise PreconditionViolation(f"dependent basis: pivot {abs(row[p])!r}")
            row = [w / row[p] for w in row]
            for j, r in enumerate(rows):
                rows[j] = row if j == i else [w - r[p] * z for w, z in zip(r, row)]
            pivots.append(p)
        # a null vector is 1 at its free column, 0 at the others: no remainder < 1
        object.__setattr__(self, "normals", tuple(map(tuple, _orthonormal(
            [[-rows[pivots.index(c)][f] if c in pivots else complex(c == f)
              for c in range(4)] for f in range(4) if f not in pivots]))))
        object.__setattr__(self, "_weights", tuple(zip(pivots, (r[4:] for r in rows))))
        object.__setattr__(self, "route", _route(basis))
        # det X(c) = sum_{i<=j} polar[(i, j)] c_i c_j
        polar = {}
        for i, (b11, b12, b21, b22) in enumerate(basis):
            polar[(i, i)] = b11 * b22 - b12 * b21
            for j, (c11, c12, c21, c22) in enumerate(basis[i + 1:], i + 1):
                polar[(i, j)] = b11 * c22 + c11 * b22 - b12 * c21 - c12 * b21
        object.__setattr__(self, "polar", polar)

    @property
    def k(self) -> int:
        return len(self.basis)

    def coeffs_of(self, a: Matrix2, tol: float = _SPAN_TOL) -> Optional[list[complex]]:
        """Coefficients of `a` in the basis, or None if a is not in the span."""
        c = [sum(a[p] * w[i] for p, w in self._weights) for i in range(self.k)]
        resid = max(abs(s - t) for s, t in zip(a, self.entries_at(c)))
        return c if resid <= tol * max(1.0, max(map(abs, a))) else None

    def contains_identity(self, tol: float = _SPAN_TOL) -> bool:
        return self.coeffs_of(IDENTITY, tol) is not None

    def element(self, c) -> Matrix2:
        return Matrix2(*self.entries_at(c))

    def entries_at(self, c) -> tuple[complex, complex, complex, complex]:
        """Entries of X(c) = sum_i c_i B_i as a plain tuple, summed in basis
        order starting from 0j; objectives evaluate on these without
        building a Matrix2."""
        x11 = x12 = x21 = x22 = 0j
        for ci, (b11, b12, b21, b22) in zip(c, self.basis):
            ci = complex(ci)
            x11 += ci * b11
            x12 += ci * b12
            x21 += ci * b21
            x22 += ci * b22
        return x11, x12, x21, x22


def _route(basis) -> str:
    """_mu_in_range's branch, from the entries zero throughout the basis."""
    z12, z21 = (all(b[i] == 0.0 for b in basis) for i in (1, 2))
    k3 = "upper" if z21 else "lower" if z12 else "numeric"
    return ("k1", "diag" if z12 and z21 else "numeric", k3, "k4")[len(basis) - 1]


def e_theta(theta: float) -> Structure:
    """Span of E11, E22 and [[0, 1], [e^{i theta}, 0]]."""
    w = cmath.exp(1j * float(theta))
    return Structure((E11, E22, Matrix2(0, 1, w, 0)),
                     name=f"e_theta:{float(theta)!r}")


_PRESETS = {
    "scalar": lambda: Structure((IDENTITY,), name="scalar"),
    "diag": lambda: Structure((E11, E22), name="diag"),
    "upper": lambda: Structure((E11, E12, E22), name="upper"),
    "lower": lambda: Structure((E11, E21, E22), name="lower"),
    "full": lambda: Structure((E11, E12, E21, E22), name="full"),
    "skewdiag": lambda: Structure(
        (Matrix2(1, 0, 0, -1), E12, E21), name="skewdiag"),
}


def structure_from_name(name: str) -> Structure:
    """Resolve "scalar", "diag", "upper", "lower", "full", "skewdiag",
    or "e_theta:<float>"."""
    key = name.strip().lower()
    if key.startswith("e_theta:"):
        try:
            theta = float(key.split(":", 1)[1])
        except ValueError:
            theta = math.nan
        if not math.isfinite(theta):
            raise KeyError(f"bad e_theta parameter in {name!r}")
        return e_theta(theta)
    if key in _PRESETS:
        return _PRESETS[key]()
    raise KeyError(f"unknown structure name {name!r}")


class _MuFields(NamedTuple):
    value: float
    minimizer: Optional[Matrix2]
    status: str  # "Exact" | "Numeric" | "Infeasible"


class MuResult(CheckedRecord, _MuFields):
    __slots__ = ()

    def __new__(cls, value: float, minimizer: Optional[Matrix2], status: str):
        if status not in ("Exact", "Numeric", "Infeasible"):
            raise PreconditionViolation(f"bad status {status!r}")
        infeasible = status == "Infeasible"
        if infeasible != (value == 0.0) or infeasible != (minimizer is None):
            raise PreconditionViolation(
                f"inconsistent result: {value!r}, {minimizer!r}, {status!r}")
        return tuple.__new__(cls, (value, minimizer, status))


def _constraint_coeffs(a: Matrix2, structure: Structure):
    """det(I - A X(c)) = 1 + sum_i lin[i] c_i + sum_{i<=j} quad[(i,j)] c_i c_j."""
    a11, a12, a21, a22 = a
    lin = [-((a11 * b11 + a12 * b21) + (a21 * b12 + a22 * b22))   # tr(A @ B)'s sum
           for b11, b12, b21, b22 in structure.basis]
    da = a.det
    return lin, {ij: da * m for ij, m in structure.polar.items()}


def _det_residual(a: Matrix2, x: Matrix2) -> float:
    (a11, a12, a21, a22), (x11, x12, x21, x22) = a, x
    return abs((1.0 - (a11 * x11 + a12 * x21)) * (1.0 - (a21 * x12 + a22 * x22))
               - (a11 * x12 + a12 * x22) * (a21 * x11 + a22 * x21))


def _least_norm_mapper(structure: Structure, u, v):
    """min{||X|| : X in E, X u = v} in closed form, as (norm, X), for nonzero
    2-vectors u and v; None when no element of E maps u to v.

    With u^ = u/|u|, v^ = v/|v|, u^p = (-conj u^_2, conj u^_1), v^p likewise
    and alpha = |v|/|u|, every X with X u = v is alpha v^ u^* + beta v^ u^p*
    + delta v^p u^p*, and ||X|| = ||[[alpha, beta], [0, delta]]||, which is
    at most rho iff rho >= alpha and |beta|^2/(rho^2 - alpha^2) +
    |delta|^2/rho^2 <= 1.  Structure.normals turn X in E into linear
    equations in (beta, delta), which Gram-Schmidt reduces to rank 0 (beta =
    delta = 0, norm alpha), rank 2 (one point) or one equation n1 beta + n2
    delta = c, where the least rho puts the ellipse tangent to the line:

        a = max(0, |c|^2 - alpha^2 |n2|^2) / (|n1|^2 + |n2|^2) = rho^2 - alpha^2,
        (beta, delta) = c (a conj n1, rho^2 conj n2) / (a |n1|^2 + rho^2 |n2|^2).

    a is never formed as a difference rho^2 - alpha^2, which cancels where
    the minimum is alpha (a nilpotent A on skewdiag); the denominator
    vanishes only at c = n2 = 0, where beta = delta = 0.

    The reduction: per normal (there are 4 - k) the three column entries,
    then Gram-Schmidt on the first two columns taken in order of decreasing
    squared norm (ties keep column order), the rows (q_i . col) and the
    residual of the third.  With one normal, the hot path (mu's certificate
    probe on skewdiag and E_theta, rigidity_check on every k = 3 span), it
    is written out on local scalars; other counts loop over the normals,
    with _orthonormal's steps inline and each row formed as its q is kept.
    Both do the operations of the list-based routine, kept as
    tests/oracles.least_norm_mapper_reference, in its order, with dot
    products accumulated from 0j, so that rho and X are bitwise its own.
    Squared norms read re^2 + im^2, which is (conj(z) z).real exactly.  A
    dropped first column drops the second too, whose squared norm is no
    larger; with one normal the second column's remainder is rounding (its
    entries have modulus <= 1), so it is never kept.
    """
    nu, nv = math.hypot(abs(u[0]), abs(u[1])), math.hypot(abs(v[0]), abs(v[1]))
    alpha = nv / nu
    u1, u2, v1, v2 = u[0] / nu, u[1] / nu, v[0] / nv, v[1] / nv
    cu1, cu2, cv1, cv2 = u1.conjugate(), u2.conjugate(), v1.conjugate(), v2.conjugate()
    # per normal N, the columns x = N(v^ u^p*), y = N(v^p u^p*), z = -alpha N(v^ u^*)
    normals = structure.normals
    rows = []   # the reduced equations n1 beta + n2 delta = c
    if len(normals) == 1:
        (m11, m12, m21, m22), = normals
        p1, p2 = m12 * u1 - m11 * u2, m22 * u1 - m21 * u2
        x, y = v1 * p1 + v2 * p2, cv1 * p2 - cv2 * p1
        z = -alpha * (v1 * (m11 * cu1 + m12 * cu2) + v2 * (m21 * cu1 + m22 * cu2))
        sx, sy = x.real * x.real + x.imag * x.imag, y.real * y.real + y.imag * y.imag
        f, sf = (y, sy) if sx < sy else (x, sx)
        nf = math.sqrt(sf)
        if nf > _RANK_TOL:
            q = f / nf
            cq = q.conjugate()
            c = 0j + cq * z
            rows.append((0j + cq * x, 0j + cq * y, c))
            z = z - c * q
        if math.sqrt(z.real * z.real + z.imag * z.imag) > _FEASIBLE_TOL * alpha:
            return None
    else:
        xs, ys, zs = [], [], []
        for m11, m12, m21, m22 in normals:
            p1, p2 = m12 * u1 - m11 * u2, m22 * u1 - m21 * u2
            xs.append(v1 * p1 + v2 * p2)
            ys.append(cv1 * p2 - cv2 * p1)
            zs.append(-alpha * (v1 * (m11 * cu1 + m12 * cu2) + v2 * (m21 * cu1 + m22 * cu2)))
        w, q = zs, None
        for col in ((ys, xs) if _dot(xs, xs).real < _dot(ys, ys).real else (xs, ys)):
            if q is not None:
                t = _dot(q, col)
                col = [g - t * e for g, e in zip(col, q)]
            n = math.sqrt(_dot(col, col).real)
            if not n > _RANK_TOL:   # a dropped first column drops the second
                break
            q = [g / n for g in col]
            n1 = n2 = c = 0j
            for e, x, y, z in zip(q, xs, ys, zs):
                e = e.conjugate()
                n1, n2, c = n1 + e * x, n2 + e * y, c + e * z
            rows.append((n1, n2, c))
            w = [g - c * e for g, e in zip(w, q)]
        if math.sqrt(_dot(w, w).real) > _FEASIBLE_TOL * alpha:
            return None
    beta, delta, rho = 0j, 0j, alpha   # no rows: X = alpha v^ u^*
    if len(rows) == 1:
        (n1, n2, c), = rows
        s1, s2 = abs(n1) ** 2, abs(n2) ** 2
        a = max(0.0, abs(c) ** 2 - alpha * alpha * s2) / (s1 + s2)
        rho2 = alpha * alpha + a
        den = a * s1 + rho2 * s2
        f = c / den if den > 0.0 else 0j
        beta, delta = f * a * n1.conjugate(), f * rho2 * n2.conjugate()
        rho = math.sqrt(rho2)
    elif rows:
        (n1, n2, c), (m1, m2, d) = rows
        det = n1 * m2 - n2 * m1
        beta, delta = (c * m2 - n2 * d) / det, (n1 * d - c * m1) / det
        rho = _singular_values(alpha, beta, 0j, delta)[0]
    r1, r2 = alpha * cu1 - beta * u2, alpha * cu2 + beta * u1
    x = Matrix2(v1 * r1 + cv2 * delta * u2, v1 * r2 - cv2 * delta * u1,
                v2 * r1 - cv1 * delta * u2, v2 * r2 + cv1 * delta * u1)
    return rho, x


def _dot(x, y) -> complex:
    acc = 0j
    for s, t in zip(x, y):
        acc += s.conjugate() * t
    return acc


def _orthonormal(vectors) -> list[list[complex]]:
    """Gram-Schmidt in order, dropping remainders of norm <= _RANK_TOL."""
    q = []
    for col in vectors:
        for qi in q:
            t = _dot(qi, col)
            col = [w - t * z for w, z in zip(col, qi)]
        n = math.sqrt(_dot(col, col).real)
        if n > _RANK_TOL:
            q.append([w / n for w in col])
    return q


def _w_of(phi: float, psi: float):
    return (complex(math.cos(phi)), cmath.exp(1j * psi) * math.sin(phi))


class _VarietyChart:
    """det(I - A X(c)) = 0 solved for coordinate `dep` as a function of the
    remaining coordinates: the constraint is quadratic in each variable."""

    def __init__(self, structure: Structure, lin, quad, dep: int):
        self.structure = structure
        self.dep = dep
        self.free = free = [i for i in range(structure.k) if i != dep]
        # the coefficients _dep_poly reads, in the order it sums them
        self._lin_free = [lin[i] for i in free]
        self._quad_free = [(quad[(free[ii], free[jj])], ii, jj)
                           for ii in range(len(free))
                           for jj in range(ii, len(free))]
        self._lin_dep = lin[dep]
        self._quad_dep = [quad[(i, dep) if i < dep else (dep, i)]
                          for i in free]
        self._quad_dd = quad[(dep, dep)]

    def _dep_poly(self, cf):
        const = 1.0 + 0j
        for lv, c in zip(self._lin_free, cf):
            const += lv * c
        for qv, ii, jj in self._quad_free:
            const += qv * cf[ii] * cf[jj]
        l = self._lin_dep
        for qv, c in zip(self._quad_dep, cf):
            l += qv * c
        return self._quad_dd, l, const

    def complete(self, t):
        """Full coefficient vectors on the variety above free coords t
        (real pairs), one per quadratic branch."""
        cf = [complex(re, im) for re, im in zip(t[::2], t[1::2])]
        dep = self.dep
        # `free` is every index but dep, in order
        return [cf[:dep] + [root] + cf[dep:]
                for root in _quadratic_roots(*self._dep_poly(cf))]

    def norm_of(self, c) -> float:
        return _singular_values(*self.structure.entries_at(c))[0]

    def norm(self, t) -> float:
        best = math.inf
        for c in self.complete(t):
            best = min(best, self.norm_of(c))
        return best


def _mu_numeric(a: Matrix2, structure: Structure) -> MuResult:
    s1, _, v1 = _top_singular_pair(a)
    # certificate: any feasible X satisfies ||X|| >= 1/||A w|| >= 1/sigma_1.
    # If the top singular vector admits a feasible X with ||X|| within eps of
    # 1/sigma_1, then mu lies in [sigma_1/(1+eps), sigma_1] whatever the
    # structure, so sigma_1 is returned without descending on the variety.
    # The probe is F(v1) = min{||X|| : X in E, X(A v1) = v1}.
    probe = _least_norm_mapper(structure, a.apply(v1), v1)
    if probe is not None and probe[0] * s1 <= 1.0 + _CERT_TOL:
        x = probe[1]
        if _det_residual(a, x) <= _RESIDUAL_TOL * (1.0 + s1 * probe[0]) ** 2:
            status = "Exact" if probe[0] * s1 <= 1.0 + _EXACT_TOL else "Numeric"
            return MuResult(value=s1, minimizer=x, status=status)

    lin, quad = _constraint_coeffs(a, structure)
    k = structure.k
    scale0 = 1.0 / s1
    rng = random.Random(_SEED_STARTS)
    charts = [_VarietyChart(structure, lin, quad, dep) for dep in range(k)]
    ndim = 2 * (k - 1)

    starts: list[tuple[int, list[float]]] = [(dep, [0.0] * ndim)
                                             for dep in range(k)]
    i = 0
    while len(starts) < 20:
        starts.append((i % k,
                       [rng.gauss(0.0, scale0) for _ in range(ndim)]))
        i += 1

    best_f, best_c, repeats = math.inf, None, 0
    for dep, t0 in starts:
        chart = charts[dep]
        t, f, _, _ = nelder_mead(chart.norm, t0, step=_DESCENT_STEP * scale0,
                                 xatol=_DESCENT_TOL * scale0,
                                 fatol=_DESCENT_TOL * scale0, maxiter=400)
        if not math.isfinite(f):
            continue
        if f < best_f * (1.0 - _REPEAT_TOL):
            best_f, repeats = f, 0
            best_c = min(chart.complete(t), key=chart.norm_of)
        elif f <= best_f * (1.0 + _REPEAT_TOL):
            repeats += 1
            if repeats >= 3:
                break
    if best_c is None:
        raise OptimizerNoConverge(
            f"no feasible point located on the constraint variety for {a!r}")
    # polish around the incumbent, once per chart
    for chart in charts:
        t0 = []
        for i2 in chart.free:
            t0 += [best_c[i2].real, best_c[i2].imag]
        t, f, _, _ = nelder_mead(chart.norm, t0, step=_POLISH_STEP * scale0,
                                 xatol=_POLISH_XATOL * scale0,
                                 fatol=_POLISH_FATOL * best_f,
                                 maxiter=300)
        if math.isfinite(f) and f < best_f:
            best_f = f
            best_c = min(chart.complete(t), key=chart.norm_of)
    x = structure.element(best_c)
    gscale = 1.0 + sum(abs(lv) * abs(cv) for lv, cv in zip(lin, best_c))
    gscale += sum(abs(qv) * abs(best_c[i2]) * abs(best_c[j2])
                  for (i2, j2), qv in quad.items())
    if _det_residual(a, x) > _RESIDUAL_TOL * gscale:
        raise OptimizerNoConverge(
            f"constraint residual {_det_residual(a, x)!r} exceeds tolerance")
    return MuResult(value=1.0 / best_f, minimizer=x, status="Numeric")


def _mu_diagonal(a: Matrix2) -> MuResult:
    """mu over the diagonal matrices, in closed form.

    Two 1x1 complex blocks: mu equals the D-scaling bound inf_d ||D A D^-1||
    (Doyle, IEE Proc. D 129 (1982); exact for at most three blocks).  On 2x2
    the infimum balances both off-diagonal moduli to r = sqrt|P|, P =
    a12 a21, so mu is the top singular value of the balanced matrix M, A
    with those moduli set to r.  With the indices ordered so that
    |a11| <= |a22| (swapping both indices of A and of X leaves
    det(I - A X) unchanged) that is

        mu^2 = (|a11|^2 + |a22|^2)/2 + |P| + hypot(dlt, h),
        dlt = (|a11|^2 - |a22|^2)/2 <= 0,  h = r |conj(a11) e + a22|,

    with e = P/|P|; the hypot keeps full precision where the two singular
    values of M meet.  r = 0 gives mu = |a22|.

    For X = diag(x1, x2), det(I - A X) = u (1 - a22 x2) - P x1 x2 with
    u = 1 - a11 x1, so x2 = u / (a22 u + P x1).  Both |x_i| equal 1/mu at
    the minimizer.  On |x1| = 1/mu, |x2| = 1/mu reduces to

        Re(w x1) = |a11|^2 + |P| - sigma_2(M)^2,
        w = a11 (mu^2 - |a22|^2) + conj(a22) P,

    whose right-hand side is ||M e1||^2 - sigma_2^2 >= 0; at the optimum the
    circle touches, so x1 = conj(w) / (|w| mu).  The phase is read off
    directly rather than through an acos whose argument is 1 there.  x2 is
    solved through u, never as (1 - a11 x1)/(a22 - det(A) x1), whose
    denominator cancels where |a11|, |a22| and mu nearly coincide.
    mu_value screens out the A the structure cannot see (a11 = a22 = P = 0)
    before calling this.
    """
    a11, a22 = a.a11, a.a22
    swap = abs(a11) > abs(a22)
    if swap:
        a11, a22 = a22, a11
    r = math.sqrt(abs(a.a12)) * math.sqrt(abs(a.a21))
    e = (a.a12 / abs(a.a12)) * (a.a21 / abs(a.a21)) if r > 0.0 else 1.0
    # work on A / s, whose entries are at most 1 in modulus
    s = max(abs(a22), r)
    b11, b22, q = a11 / s, a22 / s, r / s
    p = q * q * e
    dlt = 0.5 * (abs(b11) ** 2 - abs(b22) ** 2)
    h = q * abs(b11.conjugate() * e + b22)
    gap = math.hypot(dlt, h)
    m = math.sqrt(0.5 * (abs(b11) ** 2 + abs(b22) ** 2) + q * q + gap)
    rho = 1.0 / m
    # m^2 - |b22|^2 = q^2 + dlt + gap
    w = b11 * (q * q + dlt + gap) + b22.conjugate() * p
    nw = abs(w)
    x1 = rho * w.conjugate() / nw if nw > 0.0 else complex(rho)
    u = 1.0 - b11 * x1
    den = b22 * u + p * x1
    # den = 0 needs u = 0 and P = 0: det(I - A X) then vanishes for every x2
    x2 = u / den if den != 0.0 else 0j
    if swap:
        x1, x2 = x2, x1
    return MuResult(value=m * s, minimizer=Matrix2(x1 / s, 0, 0, x2 / s),
                    status="Exact")


def _mu_upper(a: Matrix2) -> MuResult:
    """mu over the upper-triangular matrices, in closed form through the
    hexablock:

        mu(A) = ||A||  if |a21| > |a12|,   mu_diag(A)  otherwise.

    For X = [[z1, y], [0, z2]], det(I - A X) = 1 - a11 z1 - a22 z2 +
    det(A) z1 z2 - a21 y, and X is a contraction exactly when |z1|, |z2| <= 1
    and |y|^2 <= (1 - |z1|^2)(1 - |z2|^2).  So mu(A) < r iff (a21/r, a11/r,
    a22/r, det A/r^2) lies in the hexablock H, the domain the paper studies
    and which Biswas-Pal-Tomar introduced for this mu-synthesis problem.
    H's tetrablock leg x = (a11, a22, det A)/r is interior iff r > mu_diag(A).
    hexablock evaluates the supremum as |a| / R with fibre radius R =
    sqrt((c - d + sqrt((c+d)^2 - 4 m^2)) / 2), |a| sqrt(g) for g(t) = (1 -
    t^2) / (c - 2 m t + d t^2) at its critical root, where g = t / (m - d
    t).  With m^2 = c d + |x1 x2 - x3|^2 the supremum is

        |a| sqrt(2 / (K + sqrt(K^2 - 4 |x1 x2 - x3|^2))),
        K = c - d = 1 - |x1|^2 - |x2|^2 + |x3|^2.

    Here x1 x2 - x3 = a12 a21 / r^2, and with q = |a12 a21|, r^4 K - 2 q r^2
    = (r^2 - s1^2)(r^2 - s2^2), where s1 = mu_diag and s2 = |det A| / s1
    are the singular values of _mu_diagonal's balanced matrix.  Write e(r)
    for that product over r^2; it increases from 0 on r > s1.  The
    supremum is below 1 iff 2 |a21|^2 < e + 2 q + sqrt(e (e + 4 q)), which
    holds for every r > s1 when |a21| <= |a12| and otherwise squares out to
    e(r) > (|a21| - |a12|)^2.  In R = r^2 the equality is R^2 - ||A||_F^2 R
    + |det A|^2 = 0, whose larger root is ||A||^2.

    On the ||A|| branch the minimizer is W / sigma_1 for the upper-triangular
    W with W u1 = v1 and W* v1 = u1, where A v1 = sigma_1 u1: then
    (I - A X) u1 = 0, 1 is a singular value of W and the other is
    |w11 w22|, at most 1 for the exact singular vectors.  Where sigma_1 and
    sigma_2 nearly meet, the computed vectors can break that bound (or put
    a zero where W divides), but mu_diag then nearly meets ||A|| too, so the
    diagonal minimizer, which lies in the span, is kept as the other
    candidate and whichever has ||X|| mu closer to 1 is returned.  The value
    is kept at least mu_diag, which a rounded sigma_1 could miss by an ulp.
    """
    # mu_value has screened out the A the structure cannot see, so mu_diag
    # = 0 (a11 = a22 = a12 a21 = 0) leaves A = [[0, 0], [a21, 0]], a21 != 0,
    # which _mu_diagonal does not take: there X = E12 / a21 is the minimizer.
    diag = None
    if a.a11 != 0.0 or a.a22 != 0.0 or a.a12 * a.a21 != 0.0:
        diag = _mu_diagonal(a)
    if abs(a.a21) <= abs(a.a12):
        return diag
    s1, u1, v1 = _top_singular_pair(a)
    value = s1 if diag is None else max(s1, diag.value)
    candidates = [] if diag is None else [diag.minimizer]
    if v1[0] != 0.0 and u1[1] != 0.0:
        w11 = (u1[0] / v1[0]).conjugate()
        w22 = v1[1] / u1[1]
        y = (abs(v1[0]) ** 2 - abs(u1[0]) ** 2) / (v1[0].conjugate() * u1[1])
        candidates.append(Matrix2(*(1.0 / s1 * z for z in (w11, y, 0, w22))))
    # ||X mu||, not ||X|| mu: X has entries of order 1/mu
    x = min(candidates,
            key=lambda m: abs(_singular_values(*(value * z for z in m))[0] - 1.0))
    return MuResult(value=value, minimizer=x, status="Exact")


def mu_value(a: Matrix2, structure: Structure) -> MuResult:
    """Structured singular value of `a` relative to `structure`."""
    try:
        hi = max(map(abs, a))
    except OverflowError:  # a modulus past the largest float
        hi = math.inf
    if _RANGE_LO <= hi <= _RANGE_HI or hi == 0.0:
        return _mu_in_range(a, structure)
    e = math.frexp(hi)[1] & ~1 if hi < math.inf else 1024
    r = _mu_in_range(_ldexp(a, -e), structure)
    if r.minimizer is None:
        return r
    return MuResult(value=math.ldexp(r.value, e),
                    minimizer=_ldexp(r.minimizer, -e), status=r.status)


def _mu_in_range(a: Matrix2, structure: Structure) -> MuResult:
    """mu_value for an A whose largest entry modulus is in [2^-200, 2^200]."""
    basis = structure.basis
    a11, a12, a21, a22 = a
    for b11, b12, b21, b22 in basis:   # _constraint_coeffs' tr(A B_i), lazily
        if (a11 * b11 + a12 * b21) + (a21 * b12 + a22 * b22):
            break
    else:   # every tr(A B_i) is 0: infeasible unless some det(A) polar is not
        da = a.det
        if not any(da * m for m in structure.polar.values()):
            return MuResult(value=0.0, minimizer=None, status="Infeasible")

    route = structure.route
    if route == "diag":
        return _mu_diagonal(a)
    if route == "upper":
        return _mu_upper(a)
    if route == "lower":
        # X lower triangular: det(I - A X) = det(I - A^T X^T)
        r = _mu_upper(a.transpose())
        return MuResult(value=r.value, minimizer=r.minimizer.transpose(),
                        status="Exact")

    if route == "k1":   # X = B / lam, lam the top eigenvalue of A B
        b11, b12, b21, b22 = b = basis[0]
        lam = _eigenvalues(a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                           a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)[0]
        if not lam:   # A B nilpotent to rounding, though det(A) det(B) is not 0
            return MuResult(value=0.0, minimizer=None, status="Infeasible")
        return MuResult(value=abs(lam) / operator_norm(b), minimizer=b.scale(1.0 / lam),
                        status="Exact")

    if route == "k4":   # X = v1 u1* / sigma_1
        s1, u1, v1 = _top_singular_pair(a)
        x = Matrix2(*(1.0 / s1 * (v * w.conjugate()) for v in v1 for w in u1))
        return MuResult(value=s1, minimizer=x, status="Exact")

    return _mu_numeric(a, structure)


def mu_sandwich_check(a: Matrix2, structure: Structure,
                      tol: float = _SANDWICH_TOL) -> bool:
    """spectral_radius(A) <= mu(A) <= operator_norm(A), up to tol*scale.

    Requires the identity in the structure's span.
    """
    checked_tol(tol)
    if not structure.contains_identity():
        raise PreconditionViolation(
            f"identity not in span of structure {structure.name!r}")
    mu = mu_value(a, structure).value
    r = spectral_radius(a)
    n = operator_norm(a)
    slack = tol * max(1.0, n)
    return r - slack <= mu <= n + slack


def rigidity_check(structure: Structure, u, v,
                   tol: float = _RIGID_TOL) -> Optional[Matrix2]:
    """Least-norm A in the structure with A u = v, if its norm is <= 1 + tol.

    u and v must be unit vectors.  The minimum is always >= 1; a returned
    matrix therefore has norm 1 up to tol.  None when the affine set is empty
    or the minimum exceeds 1 + tol.  Exact and O(1): in the bases (u, u^p)
    and (v, v^p) such A are [[1, beta], [0, delta]], the structure's normals
    cut (beta, delta) to a point, a line or the plane, and on a line the
    least rho is where the ellipse |beta|^2/(rho^2 - 1) + |delta|^2/rho^2 =
    1 touches it; see _least_norm_mapper.
    """
    checked_tol(tol)
    uu, vv = tuple(map(complex, u)), tuple(map(complex, v))
    if len(uu) != 2 or len(vv) != 2:
        raise PreconditionViolation("u, v must be 2-vectors")
    for name, w in (("u", uu), ("v", vv)):
        if not abs(math.sqrt(abs(w[0]) ** 2 + abs(w[1]) ** 2) - 1.0) <= _UNIT_TOL:
            raise PreconditionViolation(f"{name} is not a unit vector: {w!r}")
    found = _least_norm_mapper(structure, uu, vv)
    if found is None or found[0] > 1.0 + tol:
        return None
    return found[1]


def _cp1_grid(n: int, offset: float = 0.0):
    """n representative unit vectors in C^2, Fibonacci-spread over CP^1."""
    pts = []
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for i in range(n):
        phi = math.acos(math.sqrt((i + 0.5) / n))
        psi = 2.0 * math.pi * ((i * golden + offset) % 1.0)
        pts.append(_w_of(phi, psi))
    return pts


def rigidity_grid_pass(structure: Structure, n_side: int = 20,
                       tol: float = _RIGID_TOL) -> bool:
    """rigidity_check over an n x n grid of unit-vector pairs; True iff every
    pair admits a norm-one mapper."""
    checked_tol(tol)
    us = _cp1_grid(n_side)
    vs = _cp1_grid(n_side, offset=0.37)
    for uu in us:
        for vv in vs:
            if rigidity_check(structure, uu, vv, tol) is None:
                return False
    return True


def f_mu_membership(pt, structure: Structure, tol: float = _MEMBERSHIP_TOL) -> bool:
    """Whether pt lies in the image of the open mu-unit-ball under the
    four-coordinate projection: the fiber over pt is {B, B^t} for the
    reconstructed witness B, so membership is mu(B) < 1 or mu(B^t) < 1."""
    checked_tol(tol)
    b = f_matrix_witness(pt)
    if mu_value(b, structure).value < 1.0 - tol:
        return True
    return mu_value(b.transpose(), structure).value < 1.0 - tol


@dataclass(frozen=True)
class SubspaceVerdict:
    kind: str  # "IsETheta" | "NotETheta"
    theta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("IsETheta", "NotETheta"):
            raise PreconditionViolation(f"bad kind {self.kind!r}")
        if (self.kind == "IsETheta") != (self.theta is not None):
            raise PreconditionViolation("theta present iff IsETheta")


def classify_subspace(structure: Structure, tol: float = _ETHETA_TOL) -> SubspaceVerdict:
    """Decide whether a 3-dimensional structure containing both diagonal
    cells is the twisted off-diagonal family, and recover its angle.

    The span's unit normal (n11, n12, n21, n22) has n11 = n22 = 0 exactly
    when E11 and E22 lie in the span; its off-diagonal generator [[0, alpha],
    [beta, 0]] is then the unit vector (alpha, beta) = (n21, -n12).  The
    family is |alpha| = |beta|, at angle arg(beta/alpha) in [0, 2 pi).
    """
    checked_tol(tol)
    if structure.k != 3:
        raise PreconditionViolation(
            f"need a 3-dimensional structure, got k={structure.k}")
    (n11, n12, n21, n22), = structure.normals
    if max(abs(n11), abs(n22)) > _SPAN_TOL:
        raise PreconditionViolation(
            "structure does not contain both diagonal cells")
    alpha, beta = n21, -n12
    if min(abs(alpha), abs(beta)) <= tol or abs(abs(alpha) - abs(beta)) > tol:
        return SubspaceVerdict(kind="NotETheta")
    theta = cmath.phase(beta / alpha) % (2.0 * math.pi)
    return SubspaceVerdict(kind="IsETheta", theta=theta)
