"""The benchmark's three workloads.

Each workload turns its seed into a deterministic stream of operations
issued in fixed cycles, runs one operation at a time (single caller, closed
loop), and checks each output.  A workload calls the package only through
module attributes looked up at call time, so wrappers installed by
`tracing.install` see every call.

Interface shared by the workloads:

    cycle                -> operations per cycle of the stream
    tail_p               -> the percentile its tail latency is read at
    next_op()            -> the next operation of the seeded stream
    run(op)              -> the program's output for it (the timed part)
    items(op, out)       -> units of work the operation did
    kind(op)             -> the group whose median latency op_p50_ms uses
    check(op, out, i)    -> problems found in output i (no traced calls)
    fingerprint(out)     -> what must not change when tracing is on
    finish()             -> (op index, problem) pairs from checks deferred
                            until tracing is removed
"""

from __future__ import annotations

import contextlib
import io
import math
import random

import numpy as np

import mublocks.bidisc
import mublocks.cli
import mublocks.domain_f
import mublocks.hexablock
import mublocks.lie_ball
import mublocks.mu
import mublocks.pentablock
import mublocks.tetrablock
import mublocks.verify
from mublocks.matrix2 import Matrix2, unitary_from_rng

# ---------------------------------------------------------------------------
# slice_gallery

# The six planes of scripts/render_slices.py: domain, axes, fixed
# coordinates, and the two axis ranges.
PLANES = (
    ("g2", "Re(s),Re(p)", None, (-2.2, 2.2), (-1.2, 1.2)),
    ("tetra", "Re(x1),Re(x2)", "x3=0", (-1.2, 1.2), (-1.2, 1.2)),
    ("penta", "Re(a),Im(a)", "s=0.9,p=0.4", (-1.6, 1.6), (-1.6, 1.6)),
    ("f", "Re(a),Im(a)", "x=0.25,p=0,s=0", (-1.2, 1.2), (-1.2, 1.2)),
    ("h", "Re(a),Im(a)", "x1=0.3,x2=0.2,x3=0.1", (-1.4, 1.4), (-1.4, 1.4)),
    ("l4", "Re(z1),Re(z2)", "z3=0,z4=0", (-1.2, 1.2), (-1.2, 1.2)),
)
SLICE_GRID = 21
# The seed moves each range by up to this share of its width.
SLICE_SHIFT = 0.01
CELLS_CHECKED_PER_PLANE = 2


def public_classifier(domain: str):
    return {
        "g2": mublocks.bidisc.g2_classify,
        "tetra": mublocks.tetrablock.tetra_classify,
        "penta": mublocks.pentablock.penta_classify,
        "f": mublocks.domain_f.f_classify,
        "h": mublocks.hexablock.hexa_classify,
        "l4": mublocks.lie_ball.lie_ball_classify,
    }[domain]


def _verdict_code(verdict) -> int:
    if verdict.indeterminate:
        return 9
    return {"Interior": 0, "ClosureBoundary": 1, "Outside": 2}[verdict.region.value]


def cell_coords(plane: dict, i: int, j: int, n: int) -> tuple:
    """The point the slice command classifies at grid cell (i, j)."""
    names = mublocks.cli._COORD_NAMES[plane["domain"]]
    fixed = {}
    if plane["fixed"]:
        for part in plane["fixed"].split(","):
            key, _, raw = part.partition("=")
            fixed[key] = complex(raw)
    coords = [fixed.get(nm, 0j) for nm in names]
    (lo1, hi1), (lo2, hi2) = plane["ranges"]
    values = (lo1 + (hi1 - lo1) * i / (n - 1), lo2 + (hi2 - lo2) * j / (n - 1))
    for axis, val in zip(plane["axes"].split(","), values):
        comp, nm = axis[:2].lower(), axis[3:-1]
        k = names.index(nm)
        z = coords[k]
        coords[k] = complex(val, z.imag) if comp == "re" else complex(z.real, val)
    return tuple(coords)


class SliceGallery:
    """The six gallery planes through `mublocks slice`, in-process."""

    # A 35-second run makes about 140 planes, enough for p90 only.
    tail_p = 90.0

    def __init__(self, seed: int, grid: int = SLICE_GRID):
        self.rng = random.Random(seed)
        self.grid = grid
        self.cycle = len(PLANES)
        self._k = 0
        self._deferred = []   # (op index, plane, i, j, code, margin)

    def next_op(self) -> dict:
        domain, axes, fixed, r1, r2 = PLANES[self._k % len(PLANES)]
        self._k += 1
        ranges = []
        for lo, hi in (r1, r2):
            d = (hi - lo) * SLICE_SHIFT * self.rng.uniform(-1.0, 1.0)
            ranges.append((lo + d, hi + d))
        argv = ["slice", domain, "--axes", axes, "--grid", str(self.grid),
                "--range", ",".join(f"{lo!r}:{hi!r}" for lo, hi in ranges)]
        if fixed:
            argv += ["--fixed", fixed]
        cells = [(self.rng.randrange(self.grid), self.rng.randrange(self.grid))
                 for _ in range(CELLS_CHECKED_PER_PLANE)]
        return {"domain": domain, "axes": axes, "fixed": fixed,
                "ranges": tuple(ranges), "argv": argv, "cells": cells}

    def run(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = mublocks.cli.main(op["argv"])
        return code, buf.getvalue()

    def items(self, op, out) -> int:
        return self.grid * self.grid

    def kind(self, op) -> str:
        return op["domain"]

    def fingerprint(self, out):
        return out

    def check(self, op, out, index: int) -> list[str]:
        code, text = out
        if code != 0:
            return [f"slice exited {code}"]
        rows = text.splitlines()
        n = self.grid
        if len(rows) != n * n + 1:
            return [f"{len(rows) - 1} data rows, want {n * n}"]
        codes, margins = [], []
        for row in rows[1:]:
            fields = row.split("\t")
            codes.append(fields[2])
            margins.append(fields[3])
        problems = []
        if not set(codes) <= {"0", "1", "2", "9"}:
            problems.append(f"codes {sorted(set(codes))}")
        if "0" not in codes or "2" not in codes:
            problems.append("plane lacks an interior or an outside cell")
        for i, j in op["cells"]:
            self._deferred.append((index, op, i, j, int(codes[i * n + j]),
                                   float(margins[i * n + j])))
        return problems

    def finish(self) -> list:
        """Re-classify the sampled cells through the public classifiers."""
        problems = []
        for index, op, i, j, code, margin in self._deferred:
            pt = cell_coords(op, i, j, self.grid)
            verdict = public_classifier(op["domain"])(pt)
            if _verdict_code(verdict) != code or verdict.margin != margin:
                problems.append((index, f"cell ({i},{j}) of {op['domain']}: slice "
                                 f"gave {code}/{margin!r}, classifier "
                                 f"{_verdict_code(verdict)}/{verdict.margin!r}"))
        self._deferred.clear()
        return problems


# ---------------------------------------------------------------------------
# verify_geometry

# The chapter 2-3 suites; the mu suites are measured per call by mu_mix.
GEOMETRY_SUITES = (
    "lemma21_gram", "prop22_vs_oracle", "prop24_closure", "swap_involution",
    "lemma25_scaling", "thm29_projections", "prop210_slice", "prop211_slice",
    "cor213_closure_projections", "prop215_hn", "thm32_boundary_transport",
    "thm33_shilov_equivalences", "cor34_necessity", "cor35_double_cover",
)
VERIFY_N = 200


class VerifyGeometry:
    """The geometric suites plus the counterexample grid; each cycle draws a
    fresh suite seed from the workload seed."""

    # A 35-second run makes about 300 operations.
    tail_p = 95.0

    def __init__(self, seed: int, n_samples: int = VERIFY_N):
        self.rng = random.Random(seed)
        self.n = n_samples
        self.cycle = len(GEOMETRY_SUITES) + 1
        self._k = 0
        self._suite_seed = 0

    def next_op(self) -> dict:
        pos = self._k % self.cycle
        self._k += 1
        if pos == 0:
            self._suite_seed = self.rng.randrange(2 ** 31)
        if pos == len(GEOMETRY_SUITES):
            return {"suite": "counterexamples"}
        return {"suite": GEOMETRY_SUITES[pos], "seed": self._suite_seed}

    def run(self, op):
        if op["suite"] == "counterexamples":
            return mublocks.verify.run_counterexamples()
        return mublocks.verify.run_suite(op["suite"], n_samples=self.n,
                                         seed=op["seed"])

    def items(self, op, out) -> int:
        return out.n_samples

    def kind(self, op) -> str:
        return op["suite"]

    def fingerprint(self, out):
        return out.suite, out.n_samples, out.failures, out.band_excluded

    def check(self, op, out, index: int) -> list[str]:
        problems = [f"{op['suite']}: {rec}" for rec in out.failures]
        if out.suite != op["suite"]:
            problems.append(f"report for {out.suite}, asked for {op['suite']}")
        if op["suite"] != "counterexamples" and out.n_samples != self.n:
            problems.append(f"{out.n_samples} samples, asked for {self.n}")
        return problems

    def finish(self) -> list:
        return []


# ---------------------------------------------------------------------------
# mu_mix

MU_ORDER = ("scalar", "full", "skewdiag", "e_theta", "diag", "upper", "lower")
RIGIDITY_PER_CYCLE = 2
DEGENERATE_EVERY = 5
# Generic matrices come from a base set drawn once from BASE_SEED, which the
# seed visits in its own order and perturbs by MATRIX_JITTER, as it shifts
# the slice planes.  A run sees about 40 generic matrices; drawn afresh, the
# few among them with slow variety descent set the p95 latency, which then
# moved by 20 % between seeds.
BASE_MATRICES = 24
BASE_SEED = 41
MATRIX_JITTER = 0.01
DEGENERATE_KINDS = ("nilpotent", "rank_one", "coincident", "zero")
IDENTITY_PRESETS = ("scalar", "diag", "upper", "lower", "full", "e_theta")
NORM_PRESETS = ("full", "skewdiag", "e_theta")
MU_STATUSES = ("Exact", "Numeric", "Infeasible")
SANDWICH_TOL = 1e-6
NORM_TOL = 1e-5
RIGIDITY_TOL = 1e-6


def _np(a: Matrix2) -> np.ndarray:
    return np.array([[a.a11, a.a12], [a.a21, a.a22]], dtype=complex)


class MuMix:
    """mu_value over every preset in equal shares plus rigidity_check on unit
    vector pairs, in a fixed ratio.

    Each cycle draws one matrix and asks every preset about it, as
    scripts/mu_report.py does.  On a generic matrix exactly one of `upper`
    and `lower` is settled by the certificate and the other by variety
    descent, so sharing the matrix keeps the share of slow calls fixed
    instead of leaving it to the draw.  Every fifth cycle's matrix is
    degenerate.
    """

    # A 35-second run makes about 400 calls.
    tail_p = 95.0

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.cycle = len(MU_ORDER) + RIGIDITY_PER_CYCLE
        self._k = 0
        self._rigidity_calls = 0
        self._a = None
        self._kind = None
        base = random.Random(BASE_SEED)
        self._base = [[complex(base.gauss(0.0, 1.0), base.gauss(0.0, 1.0))
                       for _ in range(4)] for _ in range(BASE_MATRICES)]
        self.rng.shuffle(self._base)
        self._generic = 0
        self.presets = {name: mublocks.mu.structure_from_name(name)
                        for name in MU_ORDER if name != "e_theta"}

    def _structure(self, preset: str):
        if preset == "e_theta":
            return mublocks.mu.e_theta(self.rng.uniform(0.0, 2.0 * math.pi))
        return self.presets[preset]

    def _gauss(self) -> complex:
        return complex(self.rng.gauss(0.0, 1.0), self.rng.gauss(0.0, 1.0))

    def _matrix(self, kind: str) -> Matrix2:
        scale = 10.0 ** self.rng.uniform(-1.0, 1.0)
        if kind == "zero":
            return Matrix2(0, 0, 0, 0)
        if kind == "coincident":
            return unitary_from_rng(self.rng).scale(scale)
        if kind == "generic":
            entries = self._base[self._generic % BASE_MATRICES]
            self._generic += 1
            return Matrix2(*(z * (1.0 + MATRIX_JITTER * self._gauss())
                             for z in entries)).scale(scale)
        u = (self._gauss(), self._gauss())
        if kind == "nilpotent":
            v = (u[1], -u[0])     # v^T u = 0, so (u v^T)^2 = 0
        else:
            v = (self._gauss(), self._gauss())
        return Matrix2(u[0] * v[0], u[0] * v[1], u[1] * v[0],
                       u[1] * v[1]).scale(scale)

    def _unit(self):
        g = (self._gauss(), self._gauss())
        n = math.sqrt(abs(g[0]) ** 2 + abs(g[1]) ** 2)
        return (g[0] / n, g[1] / n)

    def next_op(self) -> dict:
        pos = self._k % self.cycle
        n_cycle = self._k // self.cycle
        self._k += 1
        if pos == 0:
            self._kind = "generic"
            if n_cycle % DEGENERATE_EVERY == DEGENERATE_EVERY - 1:
                self._kind = DEGENERATE_KINDS[
                    (n_cycle // DEGENERATE_EVERY) % len(DEGENERATE_KINDS)]
            self._a = self._matrix(self._kind)
        if pos < len(MU_ORDER):
            preset = MU_ORDER[pos]
            return {"call": "mu_value", "preset": preset, "kind": self._kind,
                    "a": self._a, "structure": self._structure(preset)}
        preset = MU_ORDER[self._rigidity_calls % len(MU_ORDER)]
        self._rigidity_calls += 1
        return {"call": "rigidity_check", "preset": preset,
                "structure": self._structure(preset),
                "u": self._unit(), "v": self._unit()}

    def run(self, op):
        if op["call"] == "mu_value":
            return mublocks.mu.mu_value(op["a"], op["structure"])
        return mublocks.mu.rigidity_check(op["structure"], op["u"], op["v"])

    def items(self, op, out) -> int:
        return 1

    def kind(self, op) -> str:
        # mu_p50_ms is the median over all calls.
        return "call"

    def fingerprint(self, out):
        if out is None or isinstance(out, Matrix2):
            return out
        return out.value, out.status, out.minimizer

    def check(self, op, out, index: int) -> list[str]:
        if op["call"] == "rigidity_check":
            return self._check_rigidity(op, out)
        preset, a = op["preset"], _np(op["a"])
        tag = f"mu_value[{preset}] {op['kind']}"
        if out.status not in MU_STATUSES:
            return [f"{tag}: status {out.status!r}"]
        mu = out.value
        if not (math.isfinite(mu) and mu >= 0.0):
            return [f"{tag}: value {mu!r}"]
        norm = float(np.linalg.norm(a, 2))
        radius = float(np.max(np.abs(np.linalg.eigvals(a))))
        problems = []
        if preset in IDENTITY_PRESETS:
            slack = SANDWICH_TOL * max(1.0, norm)
            if not radius - slack <= mu <= norm + slack:
                problems.append(f"{tag}: r={radius!r} mu={mu!r} norm={norm!r}")
        if preset in NORM_PRESETS and abs(mu - norm) > NORM_TOL * max(norm, 1e-12):
            problems.append(f"{tag}: mu={mu!r} differs from norm={norm!r}")
        # Eigenvalues of a defective matrix move by sqrt(eps) * norm.
        if preset == "scalar" and abs(mu - radius) > 1e-7 * norm:
            problems.append(f"{tag}: mu={mu!r} differs from r={radius!r}")
        return problems

    def _check_rigidity(self, op, x) -> list[str]:
        if x is None:
            return []
        tag = f"rigidity_check[{op['preset']}]"
        basis = np.stack([_np(b).ravel() for b in op["structure"].basis], axis=1)
        xv = _np(x).ravel()
        coef = np.linalg.lstsq(basis, xv, rcond=None)[0]
        problems = []
        if np.abs(basis @ coef - xv).max() > 1e-9 * max(1.0, np.abs(xv).max()):
            problems.append(f"{tag}: result lies outside the structure")
        if float(np.linalg.norm(_np(x), 2)) > 1.0 + RIGIDITY_TOL:
            problems.append(f"{tag}: norm {np.linalg.norm(_np(x), 2)!r} > 1 + tol")
        if np.abs(_np(x) @ np.array(op["u"]) - np.array(op["v"])).max() > 1e-8:
            problems.append(f"{tag}: X u != v")
        return problems

    def finish(self) -> list:
        return []


WORKLOADS = {
    "slice_gallery": SliceGallery,
    "verify_geometry": VerifyGeometry,
    "mu_mix": MuMix,
}
