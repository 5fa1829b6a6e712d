"""Three-state membership verdicts with signed margins, and the one path to them.

Every domain classifier in this package returns a MembershipVerdict.  The
contract, uniformly:

  * region == INTERIOR  implies margin > tol,
  * region == OUTSIDE   implies margin < -tol,
  * otherwise the point is within the tol band of the boundary of the closure
    (region == CLOSURE_BOUNDARY), i.e. in the closure but not certified
    interior.

The margin is a signed slack of the binding inequality: positive inside,
negative outside, units depend on the domain (documented per classifier).

A verdict is a matrix2.CheckedRecord: a cheap, immutable named tuple equal
only to a verdict, whose every construction path (_replace and pickle too)
checks the rules above and the Shilov flag.

Every classifier takes one path: checked_point checks the coordinates;
classify_point evaluates the margin kernel under the overflow guard (a square
past the floats reads -inf: every domain is bounded), maps the margin to a
region and runs the Shilov test on the closure boundary only.  The dual checks
read their margins through the same guard, guarded_margin.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import NamedTuple

from .errors import CriteriaDisagree, PreconditionViolation
from .matrix2 import CheckedRecord, raise_if_nonfinite

DEFAULT_TOL = 1e-9

# Guard-band multiplier used whenever two independent criteria are compared:
# disagreements are only treated as errors if both margins clear this band.
BAND_FACTOR = 10.0


class Region(enum.Enum):
    INTERIOR = "Interior"
    CLOSURE_BOUNDARY = "ClosureBoundary"
    OUTSIDE = "Outside"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Plain names: on Python 3.11 each Region.X is a descriptor call, half a verdict's cost.
_INTERIOR, _BOUNDARY, _OUTSIDE = Region.INTERIOR, Region.CLOSURE_BOUNDARY, Region.OUTSIDE


def classify_margin(margin: float, tol: float = DEFAULT_TOL) -> Region:
    """Map a signed margin to a region using the +-tol band."""
    if margin > tol:
        return _INTERIOR
    if margin < -tol:
        return _OUTSIDE
    return _BOUNDARY


class _VerdictFields(NamedTuple):
    region: Region
    margin: float
    tol: float = DEFAULT_TOL
    # True when the point sits on the Shilov boundary of the domain (only
    # meaningful for region == CLOSURE_BOUNDARY; classifiers that do not know
    # their Shilov boundary leave it None).
    shilov: bool | None = None
    # True when the classifier could not decide between boundary and interior
    # because an auxiliary quantity was itself in the tol band (hexablock
    # over a near-boundary base point).
    indeterminate: bool = False


class MembershipVerdict(CheckedRecord, _VerdictFields):
    __slots__ = ()

    def __new__(cls, region: Region, margin: float, tol: float = DEFAULT_TOL,
                shilov: bool | None = None, indeterminate: bool = False):
        if region is _INTERIOR and not (margin > tol):
            raise AssertionError(
                f"verdict invariant: Interior needs margin > tol, got {margin!r}")
        if region is _OUTSIDE and not (margin < -tol):
            raise AssertionError(
                f"verdict invariant: Outside needs margin < -tol, got {margin!r}")
        if shilov and region is _INTERIOR:
            raise AssertionError("verdict invariant: Shilov points are never interior")
        return tuple.__new__(cls, (region, margin, tol, shilov, indeterminate))

    @property
    def in_closure(self) -> bool:
        return self.region is not Region.OUTSIDE

    @property
    def is_interior(self) -> bool:
        return self.region is Region.INTERIOR


def verdict_from_margin(margin: float, tol: float = DEFAULT_TOL, *,
                        shilov: bool | None = None,
                        indeterminate: bool = False) -> MembershipVerdict:
    return MembershipVerdict(classify_margin(margin, tol), margin, tol,
                             shilov, indeterminate)


def checked_point(pt, names, finite: bool = True) -> tuple:
    """pt as len(names) complex numbers, or PreconditionViolation naming the
    coordinates (wrong length) or, if finite, the first NaN or infinity."""
    if (n := len(pt)) != len(names):
        raise PreconditionViolation(f"expected ({', '.join(names)}), got {pt!r}")
    # unrolled to four coordinates: a map costs Python 3.11 about 0.2 us more a call
    x = ((complex(pt[0]), complex(pt[1])) if n == 2 else
         (complex(pt[0]), complex(pt[1]), complex(pt[2])) if n == 3 else
         (complex(pt[0]), complex(pt[1]), complex(pt[2]), complex(pt[3])) if n == 4 else
         tuple(map(complex, pt)))
    if finite and not cmath.isfinite(sum(x, 0j)):
        raise_if_nonfinite(names, x)
    return x


def guarded_margin(kernel, *args) -> float:
    """kernel(*args), or -inf where a square in it passes the floats."""
    try:
        return kernel(*args)
    except OverflowError:
        return -math.inf


def classify_point(kernel, x, tol: float, shilov_test, *args) -> MembershipVerdict:
    """Verdict at checked x: guarded kernel(*x, *args), region, boundary Shilov test."""
    try:   # guarded_margin, inlined: one call less per verdict
        margin = kernel(*x, *args)
    except OverflowError:
        margin = -math.inf
    region = classify_margin(margin, tol)
    return MembershipVerdict(region, margin, tol, shilov_test(x, tol)
                             if shilov_test and region is _BOUNDARY else None)


def raise_if_split(what: str, pt, margin_a: float, margin_b: float, tol: float) -> None:
    """The dual checks' guard: raise CriteriaDisagree when two margins of one
    point differ in sign while both exceed BAND_FACTOR * tol."""
    band = BAND_FACTOR * tol
    if ((margin_a > 0.0) != (margin_b > 0.0)
            and abs(margin_a) > band and abs(margin_b) > band):
        raise CriteriaDisagree(
            f"{what} disagree at {pt!r}: {margin_a!r} vs {margin_b!r}")
