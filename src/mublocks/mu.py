"""Structured singular value on 2x2 matrices.

For a linear subspace E of M2(C),

    mu_E(A) = 1 / inf{ ||X|| : X in E, det(I - A X) = 0 },

equal to 0 when no X in E satisfies the constraint.  The constraint is one
polynomial equation in the basis coefficients c:

    det(I - A X(c)) = 1 - sum_i tr(A B_i) c_i + det(A) * det(X(c)),

with det(X(c)) quadratic in c via polarized determinants.  Exact paths: the
symbolic infeasibility test (all non-constant coefficients vanish), k = 1
(quadratic roots), the diagonal span (any k = 2 basis with zero off-diagonal
entries, whatever the structure's name: mu is the D-scaling bound in closed
form, see _mu_diagonal), the upper- and lower-triangular spans (any k = 3
basis with a zero (2,1), resp. (1,2), entry throughout: mu_upper(A) < 1 iff
(a21, a11, a22, det A) lies in the paper's hexablock, whose supremum in
closed form gives mu = ||A|| if |a21| > |a12| and mu_diag(A) otherwise, see
_mu_upper; lower is upper on the transpose), and k = 4 (the structure is
all of M2, so the infimum is 1/||A|| at a rank-one X).  For the other
k = 2, 3 structures (skewdiag, e_theta and a caller's own spans) the
variety is swept by unit vectors w: det(I - A X) = 0 iff X(Aw) = w for some
unit w, an affine constraint on c whose minimum-norm solution F(w) is
refined over w by seeded multistart descent.  Since ||X|| >= 1/||A w|| >=
1/||A|| for any feasible pair, hitting F = 1/||A|| at the top singular
vector certifies global optimality and the sweep stops early.

The descent objectives evaluate ||X(c)|| on the entries of X(c) as a plain
tuple (Structure.entries_at and matrix2's private singular-value kernel);
a Matrix2 is built only for the minimizer a result returns.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (InfeasibleConstraint, OptimizerNoConverge,
                     PreconditionViolation)
from .matrix2 import Matrix2, _singular_values, operator_norm, spectral_radius
from .optimize import nelder_mead

_SEED_STARTS = 0x5EED
_RESIDUAL_TOL = 1e-7

E11 = Matrix2(1, 0, 0, 0)
E12 = Matrix2(0, 1, 0, 0)
E21 = Matrix2(0, 0, 1, 0)
E22 = Matrix2(0, 0, 0, 1)
IDENTITY = Matrix2.identity()


def _vec(b: Matrix2) -> np.ndarray:
    return np.array(b.entries(), dtype=complex)


@dataclass(frozen=True)
class Structure:
    """A complex-linear subspace of M2(C) given by an independent basis."""

    basis: tuple[Matrix2, ...]
    name: str = ""

    def __post_init__(self) -> None:
        basis = tuple(self.basis)
        object.__setattr__(self, "basis", basis)
        k = len(basis)
        if not 1 <= k <= 4:
            raise PreconditionViolation(f"basis length must be 1..4, got {k}")
        m = np.stack([_vec(b) for b in basis], axis=1)
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[-1] <= 1e-10 * max(sv[0], 1e-300):
            raise PreconditionViolation(
                f"basis is linearly dependent (singular values {sv!r})")

    @property
    def k(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> np.ndarray:
        """4 x k complex matrix whose columns are the vectorized basis."""
        return np.stack([_vec(b) for b in self.basis], axis=1)

    def coeffs_of(self, a: Matrix2, tol: float = 1e-10) -> Optional[np.ndarray]:
        """Coefficients of `a` in the basis, or None if a is not in the span."""
        m = self.basis_matrix()
        c, _, _, _ = np.linalg.lstsq(m, _vec(a), rcond=None)
        scale = max(1.0, float(np.abs(_vec(a)).max()))
        if np.abs(m @ c - _vec(a)).max() > tol * scale:
            return None
        return c

    def contains_identity(self, tol: float = 1e-10) -> bool:
        return self.coeffs_of(IDENTITY, tol) is not None

    def element(self, c) -> Matrix2:
        return Matrix2(*self.entries_at(c))

    def entries_at(self, c) -> tuple[complex, complex, complex, complex]:
        """Entries of X(c) = sum_i c_i B_i as a plain tuple, summed in basis
        order starting from 0j; objectives evaluate on these without
        building a Matrix2."""
        x11 = x12 = x21 = x22 = 0j
        for ci, b in zip(c, self.basis):
            ci = complex(ci)
            x11 += ci * b.a11
            x12 += ci * b.a12
            x21 += ci * b.a21
            x22 += ci * b.a22
        return x11, x12, x21, x22


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
            raise KeyError(f"bad e_theta parameter in {name!r}") from None
        return e_theta(theta)
    if key in _PRESETS:
        return _PRESETS[key]()
    raise KeyError(f"unknown structure name {name!r}")


@dataclass(frozen=True)
class MuResult:
    value: float
    minimizer: Optional[Matrix2]
    status: str  # "Exact" | "Numeric" | "Infeasible"

    def __post_init__(self) -> None:
        if self.status not in ("Exact", "Numeric", "Infeasible"):
            raise PreconditionViolation(f"bad status {self.status!r}")
        infeasible = self.status == "Infeasible"
        if infeasible != (self.value == 0.0) or infeasible != (self.minimizer is None):
            raise PreconditionViolation(
                f"inconsistent result: {self.value!r}, {self.minimizer!r}, "
                f"{self.status!r}")


def _constraint_coeffs(a: Matrix2, basis):
    """det(I - A X(c)) = 1 + sum_i lin[i] c_i + sum_{i<=j} quad[(i,j)] c_i c_j."""
    k = len(basis)
    lin = [-(a @ b).trace for b in basis]
    da = a.det
    quad = {}
    for i in range(k):
        bi = basis[i]
        quad[(i, i)] = da * bi.det
        for j in range(i + 1, k):
            bj = basis[j]
            mixed = (bi.a11 * bj.a22 + bj.a11 * bi.a22
                     - bi.a12 * bj.a21 - bj.a12 * bi.a21)
            quad[(i, j)] = da * mixed
    return lin, quad


def _det_residual(a: Matrix2, x: Matrix2) -> float:
    m = Matrix2.identity() - (a @ x)
    return abs(m.det)


def _top_singular_pair(a: Matrix2):
    """(sigma_1, u_1, v_1) with A v1 = sigma_1 u1, from the 2x2 Hermitian A*A."""
    h = a.conj_transpose() @ a
    h11, h12 = h.a11.real, h.a12
    h22 = h.a22.real
    half = 0.5 * (h11 - h22)
    lam = 0.5 * (h11 + h22) + math.hypot(half, abs(h12))
    v_a = (h12, complex(lam - h11))
    v_b = (complex(lam - h22), h12.conjugate())
    na = abs(v_a[0]) ** 2 + abs(v_a[1]) ** 2
    nb = abs(v_b[0]) ** 2 + abs(v_b[1]) ** 2
    v = v_a if na >= nb else v_b
    n = math.sqrt(max(na, nb))
    if n < 1e-150:
        v, n = (1.0 + 0j, 0j), 1.0
    v1 = (v[0] / n, v[1] / n)
    s1 = math.sqrt(max(lam, 0.0))
    if s1 < 1e-150:
        return 0.0, (1.0 + 0j, 0j), v1
    av = a.apply(v1)
    u1 = (av[0] / s1, av[1] / s1)
    return s1, u1, v1


def _min_norm_on_affine(structure: Structure, m: np.ndarray, rhs: np.ndarray,
                        starts: int = 1, rng: Optional[random.Random] = None,
                        polish: bool = True):
    """Minimize the operator norm of X(c) over {c : m c = rhs}.

    Returns (norm, c) or raises InfeasibleConstraint when the affine set is
    empty.  The least-squares particular solution is polished by descent over
    the complex nullspace coordinates.  The norm is convex in c, but its
    minimum typically sits where the two singular values coincide — a kink —
    so with `polish` the simplex search is restarted at the incumbent with
    shrinking steps to recover the digits lost to stagnation.
    """
    c0, _, _, _ = np.linalg.lstsq(m, rhs, rcond=None)
    scale = max(1.0, float(np.abs(rhs).max()))
    if np.abs(m @ c0 - rhs).max() > 1e-9 * scale:
        raise InfeasibleConstraint("affine constraint set is empty")
    u, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > 1e-12 * max(float(s[0]), 1e-300)))
    null = vh[rank:].conj().T  # k x (k - rank)
    nd = null.shape[1]
    x0 = structure.entries_at(c0)
    norm0 = _singular_values(*x0)[0]
    if nd == 0:
        return norm0, c0
    null_entries = [structure.entries_at(null[:, j]) for j in range(nd)]

    def norm_at(t) -> float:
        x11, x12, x21, x22 = x0
        for j, (n11, n12, n21, n22) in enumerate(null_entries):
            cj = complex(t[2 * j], t[2 * j + 1])
            x11 += cj * n11
            x12 += cj * n12
            x21 += cj * n21
            x22 += cj * n22
        return _singular_values(x11, x12, x21, x22)[0]

    step = 0.5 * max(1.0, norm0)
    best_t, best_f = [0.0] * (2 * nd), norm_at([0.0] * (2 * nd))
    trials = [[0.0] * (2 * nd)]
    if rng is not None:
        for _ in range(max(0, starts - 1)):
            trials.append([rng.gauss(0.0, step) for _ in range(2 * nd)])
    budget = 400 if polish else 150
    for t0 in trials:
        t, f, _, _ = nelder_mead(norm_at, t0, step=step, xatol=1e-11,
                                 fatol=1e-13 * max(1.0, best_f),
                                 maxiter=budget)
        if f < best_f:
            best_t, best_f = list(t), f
    if polish:
        for shrink in (1e-2, 1e-4):
            t, f, _, _ = nelder_mead(norm_at, best_t, step=step * shrink,
                                     xatol=1e-13, fatol=1e-15 * max(1.0, best_f),
                                     maxiter=400)
            if f < best_f:
                best_t, best_f = list(t), f
    c = np.array(c0, dtype=complex)
    for j in range(nd):
        c = c + null[:, j] * complex(best_t[2 * j], best_t[2 * j + 1])
    return best_f, c


def _inner_min_norm(a: Matrix2, structure: Structure, w, polish: bool = True):
    """F(w) = min{||X|| : X in E, X(Aw) = w} for a unit 2-vector w.

    Returns (F, c) or None when no element of E maps Aw to w.
    """
    aw = a.apply(w)
    if abs(aw[0]) + abs(aw[1]) < 1e-150:
        return None
    m = np.stack([np.array(b.apply(aw), dtype=complex) for b in structure.basis],
                 axis=1)
    rhs = np.array(w, dtype=complex)
    try:
        return _min_norm_on_affine(structure, m, rhs, polish=polish)
    except InfeasibleConstraint:
        return None


def _w_of(phi: float, psi: float):
    return (complex(math.cos(phi)), cmath.exp(1j * psi) * math.sin(phi))


def _quadratic_roots(m: complex, l: complex, q: complex):
    """Roots of m x^2 + l x + q = 0, cancellation-safe; [] when unsolvable."""
    if m == 0.0:
        if l == 0.0:
            return []
        return [-q / l]
    sq = cmath.sqrt(l * l - 4.0 * m * q)
    u = l + sq if abs(l + sq) >= abs(l - sq) else l - sq
    if u == 0.0:
        return [complex(0.0)]
    return [-u / (2.0 * m), -2.0 * q / u]


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


def _mu_numeric(a: Matrix2, structure: Structure, tol: float) -> MuResult:
    s1, _, v1 = _top_singular_pair(a)
    # certificate: any feasible X satisfies ||X|| >= 1/||A w|| >= 1/sigma_1.
    # If the top singular vector admits a feasible X with ||X|| within eps of
    # 1/sigma_1, then mu lies in [sigma_1/(1+eps), sigma_1] whatever the
    # structure, so sigma_1 is returned without descending on the variety.
    probe = _inner_min_norm(a, structure, v1)
    if probe is not None and probe[0] * s1 <= 1.0 + 1e-6:
        x = structure.element(probe[1])
        if _det_residual(a, x) <= _RESIDUAL_TOL * (1.0 + s1 * probe[0]) ** 2:
            status = "Exact" if probe[0] * s1 <= 1.0 + 1e-9 else "Numeric"
            return MuResult(value=s1, minimizer=x, status=status)

    lin, quad = _constraint_coeffs(a, structure.basis)
    k = structure.k
    scale0 = 1.0 / max(s1, 1e-150)
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
        t, f, _, _ = nelder_mead(chart.norm, t0, step=0.7 * scale0,
                                 xatol=1e-12 * scale0,
                                 fatol=1e-12 * scale0, maxiter=400)
        if not math.isfinite(f):
            continue
        if f < best_f * (1.0 - 1e-8):
            best_f, repeats = f, 0
            best_c = min(chart.complete(t), key=chart.norm_of)
        elif f <= best_f * (1.0 + 1e-8):
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
        t, f, _, _ = nelder_mead(chart.norm, t0, step=1e-3 * scale0,
                                 xatol=1e-13 * scale0, fatol=1e-15 * best_f,
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
    The supremum that hexablock evaluates is |a| sqrt(g(t*)), g(t) =
    (1 - t^2) / (c - 2 m t + d t^2), at the root t* of m t^2 - (c+d) t + m
    = 0.  There g = t / (m - d t) = 2 / (c - d + sqrt((c+d)^2 - 4 m^2)), and
    with m^2 = c d + |x1 x2 - x3|^2 the supremum is

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
        candidates.append(Matrix2(w11, y, 0, w22).scale(1.0 / s1))
    # ||X mu||, not ||X|| mu: X has entries of order 1/mu
    x = min(candidates, key=lambda m: abs(operator_norm(m.scale(value)) - 1.0))
    return MuResult(value=value, minimizer=x, status="Exact")


def mu_value(a: Matrix2, structure: Structure,
             tol: float = _RESIDUAL_TOL) -> MuResult:
    """Structured singular value of `a` relative to `structure`."""
    basis = structure.basis
    lin, quad = _constraint_coeffs(a, basis)
    if all(v == 0.0 for v in lin) and all(v == 0.0 for v in quad.values()):
        return MuResult(value=0.0, minimizer=None, status="Infeasible")

    k = structure.k
    if k == 2 and all(b.a12 == 0.0 and b.a21 == 0.0 for b in basis):
        return _mu_diagonal(a)
    if k == 3 and all(b.a21 == 0.0 for b in basis):
        return _mu_upper(a)
    if k == 3 and all(b.a12 == 0.0 for b in basis):
        # X lower triangular: det(I - A X) = det(I - A^T X^T)
        r = _mu_upper(a.transpose())
        return MuResult(value=r.value, minimizer=r.minimizer.transpose(),
                        status="Exact")

    if k == 1:
        b = basis[0]
        lc, qc = lin[0], quad[(0, 0)]
        if qc == 0.0:
            roots = [-1.0 / lc]
        else:
            # roots of qc c^2 + lc c + 1, cancellation-safe split
            sq = cmath.sqrt(lc * lc - 4.0 * qc)
            u = lc + sq if abs(lc + sq) >= abs(lc - sq) else lc - sq
            roots = [-u / (2.0 * qc), -2.0 / u]
        c = min(roots, key=abs)
        x = b.scale(c)
        return MuResult(value=1.0 / (abs(c) * operator_norm(b)), minimizer=x,
                        status="Exact")

    if k == 4:
        s1, u1, v1 = _top_singular_pair(a)
        if s1 <= 0.0:
            return MuResult(value=0.0, minimizer=None, status="Infeasible")
        x = Matrix2(v1[0] * u1[0].conjugate(), v1[0] * u1[1].conjugate(),
                    v1[1] * u1[0].conjugate(), v1[1] * u1[1].conjugate())
        x = x.scale(1.0 / s1)
        return MuResult(value=s1, minimizer=x, status="Exact")

    return _mu_numeric(a, structure, tol)


def mu_sandwich_check(a: Matrix2, structure: Structure,
                      tol: float = 1e-6) -> bool:
    """spectral_radius(A) <= mu(A) <= operator_norm(A), up to tol*scale.

    Requires the identity in the structure's span.
    """
    if not structure.contains_identity():
        raise PreconditionViolation(
            f"identity not in span of structure {structure.name!r}")
    mu = mu_value(a, structure).value
    r = spectral_radius(a)
    n = operator_norm(a)
    slack = tol * max(1.0, n)
    return r - slack <= mu <= n + slack


def rigidity_check(structure: Structure, u, v,
                   tol: float = 1e-6) -> Optional[Matrix2]:
    """Least-norm A in the structure with A u = v, if its norm is <= 1 + tol.

    u and v must be unit vectors.  The minimum is always >= 1; a returned
    matrix therefore has norm 1 up to tol.  None when the affine set is empty
    or the minimum exceeds 1 + tol.
    """
    uu = tuple(complex(t) for t in u)
    vv = tuple(complex(t) for t in v)
    if len(uu) != 2 or len(vv) != 2:
        raise PreconditionViolation("u, v must be 2-vectors")
    if abs(math.sqrt(abs(uu[0]) ** 2 + abs(uu[1]) ** 2) - 1.0) > 1e-12:
        raise PreconditionViolation(f"u is not a unit vector: {u!r}")
    if abs(math.sqrt(abs(vv[0]) ** 2 + abs(vv[1]) ** 2) - 1.0) > 1e-12:
        raise PreconditionViolation(f"v is not a unit vector: {v!r}")
    m = np.stack([np.array(b.apply(uu), dtype=complex) for b in structure.basis],
                 axis=1)
    rhs = np.array(vv, dtype=complex)
    try:
        norm, c = _min_norm_on_affine(structure, m, rhs, starts=10,
                                      rng=random.Random(_SEED_STARTS))
    except InfeasibleConstraint:
        return None
    if norm > 1.0 + tol:
        return None
    return structure.element(c)


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
                       tol: float = 1e-6) -> bool:
    """rigidity_check over an n x n grid of unit-vector pairs; True iff every
    pair admits a norm-one mapper."""
    us = _cp1_grid(n_side)
    vs = _cp1_grid(n_side, offset=0.37)
    for uu in us:
        for vv in vs:
            if rigidity_check(structure, uu, vv, tol) is None:
                return False
    return True


def _random_matrix(rng: random.Random, scale: float) -> Matrix2:
    return Matrix2(*(complex(rng.gauss(0, 1), rng.gauss(0, 1)) * scale
                     for _ in range(4)))


def mu_equals_norm_suite(structure: Structure, n_samples: int = 100,
                         seed: int = 7, tol: float = 1e-5):
    """Sample matrices over mixed scales and compare mu against the operator
    norm; also spot-check the unit-sphere mapping property on random vector
    pairs.  Returns a SuiteReport whose failures list is empty exactly when
    the structure is rigid on the sample."""
    from .verify import SuiteReport  # local import to avoid a module cycle

    t0 = time.perf_counter()
    rng = random.Random(seed)
    failures: list[str] = []
    samples: list[Matrix2] = [E12, E21]
    while len(samples) < n_samples:
        samples.append(_random_matrix(rng, 10.0 ** rng.uniform(-2.0, 2.0)))
    for i, a in enumerate(samples[:n_samples]):
        norm = operator_norm(a)
        mu = mu_value(a, structure).value
        if abs(mu - norm) > tol * max(norm, 1e-12):
            failures.append(
                f"kind=mu_vs_norm index={i} a={a!r} mu={mu:.17g} "
                f"norm={norm:.17g}")
    n_pairs = max(4, min(25, n_samples // 4))
    for j in range(n_pairs):
        uu = _unit_vector(rng)
        vv = _unit_vector(rng)
        if rigidity_check(structure, uu, vv, max(tol, 1e-6)) is None:
            failures.append(
                f"kind=rigidity index={j} u=({uu[0]:.17g},{uu[1]:.17g}) "
                f"v=({vv[0]:.17g},{vv[1]:.17g}) result=absent")
    return SuiteReport(
        suite=f"mu_equals_norm[{structure.name or 'anon'}]",
        n_samples=n_samples, seed=seed, tol=tol, failures=tuple(failures),
        band_excluded=0, elapsed=time.perf_counter() - t0)


def _unit_vector(rng: random.Random):
    g = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
    n = math.sqrt(sum(abs(t) ** 2 for t in g))
    while n < 1e-6:
        g = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
        n = math.sqrt(sum(abs(t) ** 2 for t in g))
    return (g[0] / n, g[1] / n)


def f_mu_membership(pt, structure: Structure, tol: float = 1e-6) -> bool:
    """Whether pt lies in the image of the open mu-unit-ball under the
    four-coordinate projection: the fiber over pt is {B, B^t} for the
    reconstructed witness B, so membership is mu(B) < 1 or mu(B^t) < 1."""
    from .domain_f import f_matrix_witness  # local import: domain_f is a peer

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


def classify_subspace(structure: Structure, tol: float = 1e-9) -> SubspaceVerdict:
    """Decide whether a 3-dimensional structure containing both diagonal
    cells is the twisted off-diagonal family, and recover its angle.

    Reduces the basis modulo the diagonal cells to one off-diagonal generator
    [[0, alpha], [beta, 0]] and tests |alpha| = |beta| != 0; the angle is
    arg(beta/alpha), normalized into [0, 2 pi).
    """
    if structure.k != 3:
        raise PreconditionViolation(
            f"need a 3-dimensional structure, got k={structure.k}")
    if structure.coeffs_of(E11) is None or structure.coeffs_of(E22) is None:
        raise PreconditionViolation(
            "structure does not contain both diagonal cells")
    off = np.stack([[b.a12, b.a21] for b in structure.basis]).astype(complex)
    u, s, vh = np.linalg.svd(off)
    scale = max(float(s[0]), 1e-300)
    if s[0] <= 1e-12:
        return SubspaceVerdict(kind="NotETheta")
    if len(s) > 1 and s[1] > 1e-9 * scale:
        raise PreconditionViolation(
            "off-diagonal part is not one-dimensional; basis invariant broken")
    alpha, beta = vh[0, 0], vh[0, 1]
    if abs(alpha) <= tol or abs(beta) <= tol:
        return SubspaceVerdict(kind="NotETheta")
    if abs(abs(alpha) - abs(beta)) > tol:
        return SubspaceVerdict(kind="NotETheta")
    theta = cmath.phase(beta / alpha) % (2.0 * math.pi)
    return SubspaceVerdict(kind="IsETheta", theta=theta)
