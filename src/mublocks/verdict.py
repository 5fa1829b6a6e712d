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

Every classifier, the normed hexablock's too, takes one path: checked_point
checks the coordinates (a NaN or an infinity raises PreconditionViolation),
and classify_point checks tol (checked_tol) and runs the domain's cell on
them -- its margin kernel under the overflow guard (a square past the floats
reads -inf: every domain is bounded) and margin_code, the one threshold rule
-- then its Shilov kernel on the closure boundary only.  The public dual
checks and Shilov tests refuse a bad tol through the same checked_tol.
mublocks slice checks each axis value once and maps a margin_domain's kernel
over each row with margin_code's rule inline, else runs the cell per point,
building no verdict; check runs classify_point on the same record.  Each
Region carries its code, both the slice cell code and the exit code of
every domain.  The dual checks read their margins through guarded_margin.

The hexablock and the pentablock are each a Hartogs domain {(a, y) : y in
the base, |a| < R(y)}, built by fibred_domain: its base kernel gives the
guarded base margin m and, where m is not below -tol, R; fibre_cell gives
min(m, R - |a|).  mublocks slice runs the base kernel once per row where its
inner axis is a, and takes that min inline.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import Callable, NamedTuple, Optional

from .errors import CriteriaDisagree, PreconditionViolation
from .matrix2 import CheckedRecord, raise_if_nonfinite

DEFAULT_TOL = 1e-9   # half-width of the boundary band where a caller gives no tol

# Guard-band multiplier used whenever two independent criteria are compared:
# disagreements are only treated as errors if both margins clear this band.
BAND_FACTOR = 10.0


class Region(enum.Enum):
    """A verdict's region; .code is its exit code and its slice cell code."""
    INTERIOR = "Interior", 0
    CLOSURE_BOUNDARY = "ClosureBoundary", 1
    OUTSIDE = "Outside", 2

    def __new__(cls, value: str, code: int):
        member = object.__new__(cls)
        member._value_, member.code = value, code
        return member

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Plain names: on Python 3.11 each Region.X is a descriptor call, half a verdict's cost.
INTERIOR, CLOSURE_BOUNDARY, OUTSIDE = Region.INTERIOR, Region.CLOSURE_BOUNDARY, Region.OUTSIDE
_REGION_OF = {r.code: r for r in Region}


def margin_code(margin: float, tol: float) -> int:
    """The one threshold rule: the code of a signed margin in the +-tol band."""
    return 0 if margin > tol else 2 if margin < -tol else 1


def classify_margin(margin: float, tol: float = DEFAULT_TOL) -> Region:
    """Map a signed margin to a region using the +-tol band."""
    return _REGION_OF[margin_code(margin, tol)]


class _VerdictFields(NamedTuple):
    region: Region
    margin: float
    tol: float = DEFAULT_TOL
    # True when the point sits on the Shilov boundary of the domain (only
    # meaningful for region == CLOSURE_BOUNDARY; classifiers that do not know
    # their Shilov boundary leave it None).
    shilov: bool | None = None


class MembershipVerdict(CheckedRecord, _VerdictFields):
    __slots__ = ()
    # perfbench's workloads and tracing read it until ROADMAP item 4
    indeterminate = False

    def __new__(cls, region: Region, margin: float, tol: float = DEFAULT_TOL,
                shilov: bool | None = None):
        if region is INTERIOR and not (margin > tol):
            raise AssertionError(
                f"verdict invariant: Interior needs margin > tol, got {margin!r}")
        if region is OUTSIDE and not (margin < -tol):
            raise AssertionError(
                f"verdict invariant: Outside needs margin < -tol, got {margin!r}")
        if shilov and region is INTERIOR:
            raise AssertionError("verdict invariant: Shilov points are never interior")
        return tuple.__new__(cls, (region, margin, tol, shilov))

    @property
    def in_closure(self) -> bool:
        return self.region is not OUTSIDE

    @property
    def is_interior(self) -> bool:
        return self.region is INTERIOR


def checked_point(pt, names) -> tuple:
    """pt as len(names) complex numbers, or PreconditionViolation naming the
    coordinates (wrong length) or the first NaN or infinity."""
    if (n := len(pt)) != len(names):
        raise PreconditionViolation(f"expected ({', '.join(names)}), got {pt!r}")
    # unrolled to four coordinates: a map costs Python 3.11 about 0.2 us more a call
    x = ((complex(pt[0]), complex(pt[1])) if n == 2 else
         (complex(pt[0]), complex(pt[1]), complex(pt[2])) if n == 3 else
         (complex(pt[0]), complex(pt[1]), complex(pt[2]), complex(pt[3])) if n == 4 else
         tuple(map(complex, pt)))
    if not cmath.isfinite(sum(x, 0j)):
        raise_if_nonfinite(names, x)
    return x


def guarded_margin(kernel, *args) -> float:
    """kernel(*args), or -inf where a square in it passes the floats."""
    try:
        return kernel(*args)
    except OverflowError:
        return -math.inf


class Domain(NamedTuple):
    """A domain as classify_point and mublocks slice read it: its coordinate
    names, its cell (x, tol) -> (code, margin) on checked coordinates, its Shilov
    kernel (*x, tol) -> bool (None: not known), its base kernel over x[1:] (a
    fibred_domain's, else None) and its margin kernel (*x) -> float, whose guarded
    margin_code is the cell (a margin_domain's, else None)."""
    names: tuple
    cell: Callable
    shilov: Optional[Callable] = None
    base: Optional[Callable] = None
    kernel: Optional[Callable] = None


def fibred_domain(names: tuple, margin: Callable, radius: Callable,
                  shilov: Callable) -> Domain:
    """The Hartogs domain {|x[0]| < radius(*y), y in the base}, y = x[1:]: its
    base kernel (y, tol) -> (m, R) is the guarded base margin m = margin(*y)
    and, where m is not below -tol, R = radius(*y), else None; its cell is
    fibre_cell(x[0], base(x[1:], tol), tol)."""
    def base(y, tol):
        try:
            m = margin(*y)
            return m, None if m < -tol else radius(*y)
        except OverflowError:
            return -math.inf, None

    def cell(x, tol):
        return fibre_cell(x[0], base(x[1:], tol), tol)
    return Domain(names, cell, shilov, base)


def _fibre_slack(a: complex, radius: float) -> float:
    try:   # radius - |a|, -inf where |a| passes the floats
        return radius - abs(a)
    except OverflowError:
        return -math.inf


def fibre_cell(a: complex, base: tuple, tol: float) -> tuple[int, float]:
    """The one fibre cell over base = (m, R): min(m, R - |a|), m alone where R is None."""
    m, radius = base
    margin = m if radius is None else min(m, _fibre_slack(a, radius))
    return margin_code(margin, tol), margin


def margin_domain(names: tuple, kernel: Callable, shilov: Optional[Callable] = None) -> Domain:
    """The domain of a margin kernel: its cell is margin_code of the guarded kernel(*x)."""
    def cell(x, tol):
        try:   # guarded_margin, inlined: one call less per cell
            margin = kernel(*x)
        except OverflowError:
            margin = -math.inf
        return margin_code(margin, tol), margin
    return Domain(names, cell, shilov, kernel=kernel)


def checked_tol(tol: float) -> float:
    """tol, a band half-width; PreconditionViolation if it is negative or NaN."""
    if not tol >= 0.0:
        raise PreconditionViolation(f"tol must be >= 0, got {tol!r}")
    return tol


def classify_point(domain: Domain, x, tol: float) -> MembershipVerdict:
    """Verdict at checked x: the domain's cell, its Shilov kernel on the closure boundary."""
    if not tol >= 0.0:   # checked_tol's test inline: a call costs every verdict
        checked_tol(tol)
    code, margin = domain.cell(x, tol)
    region = _REGION_OF[code]
    return MembershipVerdict(region, margin, tol, domain.shilov(*x, tol)
                             if domain.shilov and region is CLOSURE_BOUNDARY else None)


def raise_if_split(what: str, pt, margin_a: float, margin_b: float, tol: float) -> None:
    """The dual checks' guard: raise CriteriaDisagree when two margins of one
    point differ in sign while both exceed BAND_FACTOR * tol."""
    band = BAND_FACTOR * tol
    if ((margin_a > 0.0) != (margin_b > 0.0)
            and abs(margin_a) > band and abs(margin_b) > band):
        raise CriteriaDisagree(
            f"{what} disagree at {pt!r}: {margin_a!r} vs {margin_b!r}")
