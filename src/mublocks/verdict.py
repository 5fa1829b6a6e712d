"""Three-state membership verdicts with signed margins.

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
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import CriteriaDisagree
from .matrix2 import CheckedRecord

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


def classify_margin(margin: float, tol: float = DEFAULT_TOL) -> Region:
    """Map a signed margin to a region using the +-tol band."""
    if margin > tol:
        return Region.INTERIOR
    if margin < -tol:
        return Region.OUTSIDE
    return Region.CLOSURE_BOUNDARY


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
        if region is Region.INTERIOR and not (margin > tol):
            raise AssertionError(
                f"verdict invariant: Interior needs margin > tol, got {margin!r}")
        if region is Region.OUTSIDE and not (margin < -tol):
            raise AssertionError(
                f"verdict invariant: Outside needs margin < -tol, got {margin!r}")
        if shilov and region is Region.INTERIOR:
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


def raise_if_split(what: str, pt, margin_a: float, margin_b: float, tol: float) -> None:
    """The dual checks' guard: raise CriteriaDisagree when two margins of one
    point differ in sign while both exceed BAND_FACTOR * tol."""
    band = BAND_FACTOR * tol
    if ((margin_a > 0.0) != (margin_b > 0.0)
            and abs(margin_a) > band and abs(margin_b) > band):
        raise CriteriaDisagree(
            f"{what} disagree at {pt!r}: {margin_a!r} vs {margin_b!r}")
