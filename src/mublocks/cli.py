"""Command-line front end: point classification, mu computation, suite
execution, counterexample reproduction, and 2-D slice grids.

Exit codes are a stable contract:

    0   Interior (or: command succeeded)
    1   ClosureBoundary
    2   Outside
    3   verification suite reported failures
    64  parse / dimension / usage errors
    65  unknown structure name
    66  unknown suite name
    70  internal fault (criteria disagreement or similar; traceback on stderr)

Complex literals are accepted as "a+bi" text (the trailing ``i`` or ``j``
marks the imaginary part) and as ``{"re": .., "im": ..}`` objects inside
JSON documents; all output is structured JSON / delimited text, with complex
values always rendered as ``{"re", "im"}`` pairs so that printed points
re-parse to the identical verdict.

check and slice read one table, each domain's verdict.Domain record.  check
runs verdict.classify_point on that record at the point parse_point has
checked, as the domain's public classifier does, so its exit code is the
verdict's Region.code.  slice parses and checks the fixed coordinates once
and each row and column value once, then works a row at a time, with no
verdict per cell: a row with a non-finite axis value goes through
verdict.checked_point, which exits 64 as check would; g2, tetra, f and l4 map
the record's margin kernel over the row, margin_code's rule inline; on the
fibre axis a of h and penta a row runs the base kernel once, then min(m, R -
|a|) per point; elsewhere (hn, the normed hexablock, too) and where a kernel
overflows, a row runs the record's guarded cell at each point.

Each argument has one spelling: domain, point, structure, matrix and suite
are required positionals, the rest are flags.  ``MUBLOCKS_TOL`` supplies the
default tolerance wherever a tolerance is read and ``--tol`` is omitted.  A
flag that a run does not read exits 64, as do NaN, infinities and literals
past the floats.
"""

from __future__ import annotations

import argparse
import ast
import functools
import json
import math
import os
import re
import sys
import traceback
from itertools import repeat
from typing import Optional, Sequence

from . import bidisc, domain_f, hexablock, lie_ball, pentablock, tetrablock
from .errors import PreconditionViolation, UnknownSuite
from .matrix2 import Matrix2
from .mu import mu_value, structure_from_name
from .verdict import DEFAULT_TOL, checked_point, classify_point
from .verify import DEFAULT_R_GRID, run_all, run_counterexamples, run_suite, suite_names

_ENV_TOL = "MUBLOCKS_TOL"

_DOMAINS = ("g2", "tetra", "penta", "f", "h", "hn", "l4")

# The Domain record each classifier reads; check classifies through it and
# slice maps its margin kernel or its cell over each row.
_DOMAIN_RECORDS = {
    "g2": bidisc._DOMAIN, "tetra": tetrablock._DOMAIN, "penta": pentablock._DOMAIN,
    "f": domain_f._DOMAIN, "h": hexablock._DOMAIN, "hn": hexablock._HN_DOMAIN,
    "l4": lie_ball._DOMAIN,
}
_COORD_NAMES = {d: rec.names for d, rec in _DOMAIN_RECORDS.items()}


class _CliError(Exception):
    """Usage-level failure carrying its exit code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract wants 64.  A token that
    starts with '-' and a digit or '.' is a value, such as the bare point
    -0.5,0: no option is spelled that way."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.]")

    def error(self, message: str):  # noqa: A003 - argparse API
        raise _CliError(64, f"{self.prog}: error: {message}")


# ---------------------------------------------------------------------------
# input parsing


def _normalize_ascii(text: str) -> str:
    # Tolerate unicode minus signs pasted from formatted documents.
    return text.replace("−", "-")


def _parse_complex_text(text: str) -> complex:
    t = _normalize_ascii(text).strip().replace(" ", "")
    if not t:
        raise _CliError(64, "empty complex literal")
    t = t.replace("I", "i").replace("J", "j").replace("i", "j")
    try:
        z = complex(t)
    except ValueError:
        raise _CliError(64, f"cannot parse complex literal {text!r}") from None
    return _finite_complex(z.real, z.imag, text)


def _finite_complex(re_part, im_part, what) -> complex:
    """complex(re_part, im_part); exits 64 on NaN, an infinity or an integer
    past the float range."""
    try:
        z = complex(float(re_part), float(im_part))
    except OverflowError:
        z = complex(math.inf)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise _CliError(64, f"not a finite number: {what!r}")
    return z


def _coerce_scalar(obj) -> complex:
    if isinstance(obj, str):
        return _parse_complex_text(obj)
    parts = (obj.real, obj.imag) if isinstance(obj, complex) else (obj, 0)
    if isinstance(obj, dict):
        if not obj or not set(obj) <= {"re", "im"}:
            raise _CliError(64, f"complex object must have keys re/im: {obj!r}")
        parts = (obj.get("re", 0), obj.get("im", 0))
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in parts):
        raise _CliError(64, f"cannot interpret {obj!r} as a complex number")
    return _finite_complex(*parts, obj)


def _parse_literal(text: str):
    """JSON first (handles {re, im} objects), then a python-style fallback
    where a trailing i marks the imaginary unit."""
    t = _normalize_ascii(text).strip()
    try:
        return json.loads(t)
    except ValueError:
        pass
    cooked = t.replace("I", "i").replace("J", "j").replace("i", "j")
    try:
        return ast.literal_eval(cooked)
    except (ValueError, SyntaxError, TypeError, MemoryError, RecursionError):
        raise _CliError(64, f"cannot parse {text!r}") from None


def parse_point(text: str, domain: str) -> tuple[complex, ...]:
    obj = _parse_literal(text)
    if isinstance(obj, dict):
        if "coords" not in obj:
            raise _CliError(64, f"point object needs a 'coords' field: {text!r}")
        declared = obj.get("domain")
        if declared is not None and declared != domain:
            raise _CliError(
                64, f"point document is for domain {declared!r}, not {domain!r}")
        obj = obj["coords"]
    if not isinstance(obj, (list, tuple)):
        raise _CliError(64, f"point must be a sequence of coordinates: {text!r}")
    coords = tuple(_coerce_scalar(v) for v in obj)
    want = len(_COORD_NAMES[domain])
    if len(coords) != want:
        raise _CliError(
            64, f"domain {domain!r} takes {want} coordinates, got {len(coords)}")
    return coords


def parse_matrix(text: str) -> Matrix2:
    obj = _parse_literal(text)
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(isinstance(r, (list, tuple)) and len(r) == 2 for r in obj)):
        raise _CliError(64, f"matrix must be 2x2 ([[a,b],[c,d]]): {text!r}")
    (a, b), (c, d) = obj
    return Matrix2(_coerce_scalar(a), _coerce_scalar(b),
                   _coerce_scalar(c), _coerce_scalar(d))


def _resolve_tol(args) -> Optional[float]:
    tol = getattr(args, "tol", None)
    if tol is None:
        raw = os.environ.get(_ENV_TOL)
        if raw is None:
            return None
        try:
            tol = float(raw)
        except ValueError:
            raise _CliError(64, f"{_ENV_TOL}={raw!r} is not a number") from None
    if not (tol > 0.0) or not math.isfinite(tol):
        raise _CliError(64, f"tolerance must be finite and positive, got {tol!r}")
    return tol


# ---------------------------------------------------------------------------
# output formatting


def _c_doc(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _point_doc(coords: Sequence[complex]) -> list:
    return [_c_doc(z) for z in coords]


def _matrix_doc(m: Optional[Matrix2]) -> Optional[list]:
    if m is None:
        return None
    return [[_c_doc(m.a11), _c_doc(m.a12)], [_c_doc(m.a21), _c_doc(m.a22)]]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    coords = parse_point(args.point, args.domain)
    tol = _resolve_tol(args)
    rec = classify_point(_DOMAIN_RECORDS[args.domain], coords,
                         DEFAULT_TOL if tol is None else tol)
    print(json.dumps({
        "domain": args.domain,
        "point": _point_doc(coords),
        "region": rec.region.value,
        "margin": max(rec.margin, -sys.float_info.max),   # JSON has no -inf
        "tol": rec.tol,
        "shilov": rec.shilov,
    }))
    return rec.region.code


def _cmd_mu(args) -> int:
    a = parse_matrix(args.matrix)
    try:
        structure = structure_from_name(args.structure)
    except KeyError as exc:
        raise _CliError(65, f"unknown structure: {exc.args[0]}") from None
    result = mu_value(a, structure)
    doc = {
        "structure": structure.name,
        "matrix": _matrix_doc(a),
        "value": result.value,
        "status": result.status,
        "minimizer": _matrix_doc(result.minimizer),
    }
    print(json.dumps(doc))
    return 0


def _cmd_verify(args) -> int:
    suite = args.suite
    unread = {"all": ("n", "tol"), "counterexamples": ("n", "seed", "tol")}
    for flag in unread.get(suite, ("r",)):
        if getattr(args, flag) is not None:
            raise _CliError(64, f"--{flag} does not apply to 'verify {suite}'")
    seed = 7 if args.seed is None else args.seed
    r_grid = tuple(args.r) if args.r else DEFAULT_R_GRID
    if suite == "all":
        reports = run_all(seed=seed, r_grid=r_grid)
    elif suite == "counterexamples":
        reports = [run_counterexamples(r_grid)]
    else:
        reports = [run_suite(suite, n_samples=args.n, seed=seed,
                             tol=_resolve_tol(args))]
    for report in reports:
        print("\n".join(report.to_lines()))
    total = sum(len(r.failures) for r in reports)
    status = "pass" if total == 0 else "FAIL"
    print(f"total: suites={len(reports)} failures={total} status={status}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump([r.to_dict() for r in reports], fh, indent=2)
            fh.write("\n")
    return 0 if total == 0 else 3


_AXIS_RE_HELP = "axis spec like 'Re(p),Im(s)' (two comma-separated components)"


def _parse_fixed(text: Optional[str], names: Sequence[str]) -> dict:
    fixed: dict = {}
    if not text:
        return fixed
    for part in _normalize_ascii(text).split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise _CliError(64, f"--fixed entries look like name=value, got {part!r}")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in names:
            raise _CliError(64, f"unknown coordinate {key!r}; domain has {tuple(names)}")
        if key in fixed:
            raise _CliError(64, f"coordinate {key!r} fixed twice")
        fixed[key] = _parse_complex_text(raw)
    return fixed


def _parse_axes(text: Optional[str], names: Sequence[str],
                fixed: dict) -> list[tuple[str, str]]:
    if text is None:
        free = [nm for nm in names if nm not in fixed]
        if len(free) < 2:
            raise _CliError(64, "need at least two unfixed coordinates for a slice")
        return [("re", free[0]), ("re", free[1])]
    tokens = [t.strip() for t in
              _normalize_ascii(text).replace("×", ",").split(",") if t.strip()]
    if len(tokens) != 2:
        raise _CliError(64, f"exactly two axes required ({_AXIS_RE_HELP})")
    axes: list[tuple[str, str]] = []
    for token in tokens:
        low = token.lower()
        if low.startswith("re(") and low.endswith(")"):
            comp, nm = "re", token[3:-1].strip()
        elif low.startswith("im(") and low.endswith(")"):
            comp, nm = "im", token[3:-1].strip()
        else:
            raise _CliError(64, f"bad axis {token!r} ({_AXIS_RE_HELP})")
        if nm not in names:
            raise _CliError(64, f"unknown coordinate {nm!r}; domain has {tuple(names)}")
        if nm in fixed and (fixed[nm].real if comp == "re" else fixed[nm].imag) != 0:
            raise _CliError(64, f"the {comp} part of fixed coordinate {nm!r} is an axis")
        axes.append((comp, nm))
    if axes[0] == axes[1]:
        raise _CliError(64, "the two axes must differ")
    if axes[0][1] == axes[1][1] and axes[0][1] in fixed:
        raise _CliError(64, f"coordinate {axes[0][1]!r} is fixed and cannot be both axes")
    return axes


def _parse_range(text: Optional[str]) -> tuple[tuple[float, float], tuple[float, float]]:
    if text is None:
        return ((-1.5, 1.5), (-1.5, 1.5))
    spans = []
    for part in _normalize_ascii(text).split(","):
        lo_txt, sep, hi_txt = part.strip().partition(":")
        if not sep:
            raise _CliError(64, f"range entries look like lo:hi, got {part!r}")
        try:
            lo, hi = float(lo_txt), float(hi_txt)
        except ValueError:
            raise _CliError(64, f"bad range bounds in {part!r}") from None
        if not (lo < hi) or not math.isfinite(lo) or not math.isfinite(hi):
            raise _CliError(64, f"range needs finite lo < hi, got {part!r}")
        spans.append((lo, hi))
    if len(spans) == 1:
        return (spans[0], spans[0])
    if len(spans) == 2:
        return (spans[0], spans[1])
    raise _CliError(64, "--range takes 'lo:hi' or 'lo:hi,lo:hi'")


def _axis_label(axis: tuple[str, str]) -> str:
    comp, nm = axis
    return f"{comp.capitalize()}({nm})"


def _cmd_slice(args) -> int:
    names = _COORD_NAMES[args.domain]
    fixed = _parse_fixed(args.fixed, names)
    axes = _parse_axes(args.axes, names, fixed)
    (lo1, hi1), (lo2, hi2) = _parse_range(args.range)
    n = args.grid
    if n < 2:
        raise _CliError(64, f"--grid needs at least 2 points per axis, got {n}")
    tol = _resolve_tol(args) or DEFAULT_TOL   # None where unset, else above 0

    base = [fixed.get(nm, 0j) for nm in names]
    (comp1, nm1), (comp2, nm2) = axes
    k1, k2 = names.index(nm1), names.index(nm2)
    record = _DOMAIN_RECORDS[args.domain]
    base_kernel = record.base if k2 == 0 else None   # once per row of a fibre plane
    low = -tol
    values = [lo2 + (hi2 - lo2) * j / (n - 1) for j in range(n)]
    texts2 = [f"\t{v2:.10g}\t" for v2 in values]
    # Each axis value is checked once: the first column whose value is not finite.
    bad2 = next((j for j, v2 in enumerate(values) if not math.isfinite(v2)), None)
    def column_coords(z):   # coordinate k2 at each column, its other part z's
        return list(map(complex, values, repeat(z.imag)) if comp2 == "re"
                    else map(complex, repeat(z.real), values))
    # Where the axes name two coordinates, these are built once per plane;
    # where they name one (Re(a),Im(a)), each row's from the row's value.
    plane_coords = column_coords(base[k2]) if k1 != k2 else None
    lines = [f"{_axis_label(axes[0])}\t{_axis_label(axes[1])}\tcode\tmargin"]
    for i in range(n):
        v1 = lo1 + (hi1 - lo1) * i / (n - 1)
        text1 = f"{v1:.10g}"
        row = list(base)
        z = row[k1]
        row[k1] = complex(v1, z.imag) if comp1 == "re" else complex(z.real, v1)
        inner = plane_coords or column_coords(row[k2])
        if bad2 is not None or not math.isfinite(v1):   # raises at the first bad cell
            row[k2] = inner[bad2 if math.isfinite(v1) else 0]
            checked_point(row, names)
        columns = [inner if k == k2 else repeat(w) for k, w in enumerate(row)]
        try:   # an overflow sends the row through the guarded cell
            if base_kernel:
                m, radius = base_kernel(row[1:], tol)
                margins = [m] * n if radius is None else [min(m, radius - abs(a)) for a in inner]
            else:
                margins = record.kernel and list(map(record.kernel, *columns))
        except OverflowError:
            margins = None
        if margins is None:
            lines += [f"{text1}{text2}{code}\t{margin:.17g}" for text2, (code, margin)
                      in zip(texts2, map(record.cell, zip(*columns), repeat(tol)))]
        else:   # margin_code's rule, inline
            lines += [f"{text1}{text2}{'0' if margin > tol else '2' if margin < low else '1'}"
                      f"\t{margin:.17g}" for text2, margin in zip(texts2, margins)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process.  parse_args leaves
    it unchanged and returns a fresh namespace each call, so repeated --r
    values do not carry over from one main() call to the next."""
    parser = _Parser(
        prog="mublocks",
        description="Membership tests, mu values, verification suites, and "
                    "slice grids for the mublocks domain family.",
        epilog="Exit codes: 0 Interior/success, 1 ClosureBoundary, 2 Outside, "
               "3 suite failures, 64 usage, 65 unknown structure, "
               "66 unknown suite, 70 internal fault.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_check = sub.add_parser(
        "check", help="classify a point against a domain",
        description="Classify a point; prints a JSON verdict with region, "
                    "margin, and shilov flag.")
    p_check.add_argument("domain", choices=_DOMAINS, metavar="domain",
                         help=f"one of {', '.join(_DOMAINS)}")
    p_check.add_argument("point", help="e.g. \"(0,0,0.25,0)\" or JSON with {re,im} pairs")
    p_check.add_argument("--tol", type=float, help="classification tolerance")
    p_check.set_defaults(func=_cmd_check)

    p_mu = sub.add_parser(
        "mu", help="structured singular value of a 2x2 matrix",
        description="Compute mu for a matrix relative to a named structure; "
                    "prints value, status, and minimizer.")
    p_mu.add_argument("structure", help="scalar, diag, upper, lower, full, "
                                        "skewdiag, or e_theta:<angle>")
    p_mu.add_argument("matrix", help="e.g. \"[[0,1],[0,0]]\"")
    p_mu.set_defaults(func=_cmd_mu)

    p_verify = sub.add_parser(
        "verify", help="run a verification suite (or 'all')",
        description="Run one registered suite, the counterexample grid, or "
                    "everything; exits 3 when any failure is recorded. "
                    f"Suites: all, counterexamples, {', '.join(suite_names())}.")
    p_verify.add_argument("suite")
    p_verify.add_argument("--n", type=int, help="sample count override")
    p_verify.add_argument("--seed", type=int, help="RNG seed (default 7)")
    p_verify.add_argument("--tol", type=float, help="tolerance override")
    p_verify.add_argument("--r", action="append", type=float, metavar="R",
                          help="counterexample radius (repeatable)")
    p_verify.add_argument("--out", help="also write a JSON aggregate here")
    p_verify.set_defaults(func=_cmd_verify)

    p_slice = sub.add_parser(
        "slice", help="rasterize a 2-D slice of a domain",
        description="Tab-separated grid: header row with axis names, then "
                    "rows of axis1 value, axis2 value, verdict code "
                    "(0 Interior, 1 ClosureBoundary, 2 Outside), margin.")
    p_slice.add_argument("domain", choices=_DOMAINS, metavar="domain",
                         help=f"one of {', '.join(_DOMAINS)}")
    p_slice.add_argument("--fixed", help="comma list of name=value, e.g. x=0,a=0")
    p_slice.add_argument("--axes", help=_AXIS_RE_HELP +
                         " (default: real parts of the first two unfixed coordinates)")
    p_slice.add_argument("--range", help="lo:hi or lo:hi,lo:hi (default -1.5:1.5)")
    p_slice.add_argument("--grid", type=int, default=200,
                         help="points per axis (default 200)")
    p_slice.add_argument("--tol", type=float, help="classification tolerance")
    p_slice.add_argument("--out", help="write the grid to this file")
    p_slice.set_defaults(func=_cmd_slice)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliError as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 64
    try:
        return args.func(args)
    except _CliError as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except UnknownSuite as exc:
        # Must precede KeyError: UnknownSuite subclasses it.
        print(f"unknown suite: {exc.args[0]}", file=sys.stderr)
        return 66
    except PreconditionViolation as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 64
    except BrokenPipeError:
        return 0
    except Exception:  # pragma: no cover - contract: never leak exit 1
        traceback.print_exc()
        return 70


if __name__ == "__main__":
    sys.exit(main())
