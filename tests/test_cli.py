"""End-to-end command tests, run in-process via main(argv)."""

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import runpy
import subprocess
import sys

import pytest

import mublocks
from mublocks import cli, verdict
from mublocks.bidisc import g2_classify
from mublocks.cli import main
from mublocks.domain_f import f_classify
from mublocks.errors import PreconditionViolation
from mublocks.hexablock import hexa_classify, hn_classify
from mublocks.lie_ball import lie_ball_classify
from mublocks.pentablock import penta_classify
from mublocks.tetrablock import tetra_classify
from mublocks.verdict import (MembershipVerdict, Region, checked_point, classify_point,
                              fibred_domain)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    assert out, f"no stdout (stderr: {err!r})"
    return code, json.loads(out)


def test_check_interior_f_point():
    code, doc = run_json(["check", "f", "(0,0,0.25,0)"])
    assert code == 0
    assert doc["domain"] == "f"
    assert doc["region"] == "Interior"
    assert doc["margin"] == pytest.approx(0.5625)
    assert doc["tol"] == 1e-9
    assert doc["shilov"] is None
    assert "indeterminate" not in doc
    assert doc["point"][2] == {"re": 0.25, "im": 0.0}


def test_check_exit_code_encodes_region():
    assert run(["check", "f", "(0,0.5,0,1)"])[0] == 2
    assert run(["check", "g2", "(0,0)"])[0] == 0
    assert run(["check", "g2", "(2,1)"])[0] == 1
    assert run(["check", "tetra", "(0,0,2)"])[0] == 2
    assert run(["check", "penta", "(0.99,0,0)"])[0] == 0
    assert run(["check", "l4", "(0.6,0.8,0,0)"])[0] == 1


def test_check_hn_reports_the_common_document():
    """check hn prints the document of every domain, with the margin
    1 - ||B||: -inf (clamped) off the a = 0 sheet's x3 = x1 x2, 1 - max(|x1|,
    |x2|) on it, which reads ClosureBoundary, and 0 at the image of a
    rotation, a Shilov point."""
    keys = set(run_json(["check", "f", "(0,0,0.25,0)"])[1])
    for point, want in (
            ("(0,0,0,0.25)", (2, "Outside", -sys.float_info.max, None)),
            ("(0.3,0.2,0.1,0.05)", (0, "Interior", 0.6381966011250105, None)),
            ("(0,0.3,0.4,0.12)", (1, "ClosureBoundary", 0.6, False)),
            ("(0.8,0.6,0.6,1)", (1, "ClosureBoundary", 0.0, True))):
        code, doc = run_json(["check", "hn", point])
        assert set(doc) == keys
        assert (code, doc["region"], doc["margin"], doc["shilov"]) == want, point
        assert doc["tol"] == 1e-9


def test_check_band_maps_to_boundary_exit():
    """Over a base on the tetrablock boundary the closure's fibre is the disc
    |a| <= R, and the margin is min(t, R - |a|), t = 0.  At (0, 0, 1), R =
    1: |a| = 0.5 reads ClosureBoundary, exit 1, with margin 0.  At (1, 0, 0),
    R = 0: |a| = 0.5 lies 0.5 from the closure and reads Outside, exit 2,
    with margin -0.5, and |a| = 1e-12 reads ClosureBoundary with margin
    -1e-12."""
    keys = set(run_json(["check", "f", "(0,0,0.25,0)"])[1])
    for point, want in (("(0.5,0,0,1)", (1, "ClosureBoundary", 0.0)),
                        ("(0.5,1,0,0)", (2, "Outside", -0.5)),
                        ("(1e-12,1,0,0)", (1, "ClosureBoundary", -1e-12)),
                        ("(1.000000001,1,0,0)", (2, "Outside", -1.000000001))):
        code, doc = run_json(["check", "h", point])
        assert set(doc) == keys
        assert (code, doc["region"], doc["margin"]) == want, point


def test_check_tiny_tol_answers_where_rounding_splits_the_criteria():
    """Points that a second criterion or a zero denominator used to turn into
    an internal fault at a tol below their rounding get a verdict."""
    for domain, point in (
            ("g2", "(-0.7230006338815552+1.3822896582153992i,"
                   "-0.3254915288130835-0.6620305808396418i)"),
            ("tetra", "(0.6784285421498469+0i,"
                      "-0.22990716729008848+0.638285188009415i,"
                      "-0.33888192050638644+0.9408289132216883i)"),
            ("h", "(-1.060124251104098-0.6200832766267721i,"
                  "0.9885575782368063+5.551115123125783e-17i,"
                  "0.37095287710250313-0.9163187482851123i,"
                  "0.37524660704552537-0.9269250152524857i)")):
        code, doc = run_json(["check", domain, point, "--tol", "1e-300"])
        assert (code, doc["region"]) == (2, "Outside"), domain


def test_check_complex_input_forms():
    base = run_json(["check", "g2", "(0.5+0.25i,0.1)"])
    for text in ("(0.5+0.25j, 0.1)",
                 "[\"0.5+0.25i\", 0.1]",
                 '[{"re": 0.5, "im": 0.25}, 0.1]',
                 '{"coords": ["0.5+0.25i", 0.1], "domain": "g2"}',
                 "(0.5+0.25i, 0.1)".replace("-", "−")):
        assert run_json(["check", "g2", text]) == base


def test_check_parse_failures_exit_64():
    assert run(["check", "f", "(0,0"])[0] == 64
    assert run(["check", "f", "(1,2,3)"])[0] == 64        # arity
    assert run(["check", "f", '{"coords": [0,0,0,0], "domain": "g2"}'])[0] == 64
    assert run(["check", "f"])[0] == 64                   # missing point
    assert run(["check", "nosuchdomain", "(0,0)"])[0] == 64


_NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e400", '{"re": 1e400}',
               '{"im": NaN}', '"nan"', '"1e400i"', "1" + "0" * 400)


@pytest.mark.parametrize("domain", cli._DOMAINS)
def test_non_finite_numbers_exit_64(domain):
    """NaN, infinities and literals past the float range are usage errors
    in a point, in its python-style form and in --fixed, on every domain;
    nothing is printed."""
    names = cli._COORD_NAMES[domain]
    zeros = ["0"] * (len(names) - 1)
    for bad in _NON_FINITE:
        code, out, err = run(["check", domain, "[" + ",".join(zeros + [bad]) + "]"])
        assert (code, out) == (64, ""), (bad, err)
    assert run(["check", domain, "(" + ",".join(zeros + ["1e400"]) + ")"])[:2] == (64, "")
    for bad in ("nan", "inf", "-inf", "1e400", "1e400i", "nan+1i"):
        code, out, err = run(["slice", domain, "--fixed", f"{names[0]}={bad}",
                              "--grid", "2"])
        assert (code, out) == (64, ""), (bad, err)


def _strict_json(text):
    def refuse(token):
        raise AssertionError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("domain", cli._DOMAINS)
def test_huge_coordinates_are_outside(domain):
    """Every domain is bounded, so a finite coordinate whose square or
    product overflows is Outside (exit 2), not an OverflowError (exit 70),
    in each coordinate and in a --fixed plane; the check JSON stays strict,
    with the margin -inf clamped to the most negative float."""
    names = cli._COORD_NAMES[domain]
    for k in range(len(names)):
        for big in ("1e200", "-1e300i", "1e154+1e154i", "1.7e308"):
            coords = ["0"] * len(names)
            coords[k] = big
            code, out, err = run(["check", domain, "(" + ",".join(coords) + ")"])
            assert code == 2, (coords, err)
            doc = _strict_json(out)
            assert doc["region"] == "Outside"
            assert -sys.float_info.max <= doc["margin"] < -doc["tol"]
        other = names[k - 1]
        code, out, err = run(["slice", domain, "--fixed", f"{names[k]}=1e200",
                              "--axes", f"Re({other}),Im({other})", "--grid", "3"])
        assert code == 0, err
        for row in out.splitlines()[1:]:
            _, _, cell_code, margin = row.split("\t")
            assert cell_code == "2"
            assert float(margin) < 0.0


def test_check_round_trip_through_output_doc():
    code, doc = run_json(["check", "f", "(0.1+0.2i,0.05,-0.02,0.3)"])
    redoc = {"coords": doc["point"], "domain": "f"}
    code2, doc2 = run_json(["check", "f", json.dumps(redoc)])
    assert (code, doc) == (code2, doc2)


def test_mu_infeasible_and_exact():
    code, doc = run_json(["mu", "diag", "[[0,1],[0,0]]"])
    assert code == 0
    assert doc["value"] == 0.0
    assert doc["status"] == "Infeasible"
    assert doc["minimizer"] is None

    code, doc = run_json(["mu", "full", "[[2,0],[0,0]]"])
    assert doc["value"] == pytest.approx(2.0)
    assert doc["status"] == "Exact"
    assert doc["minimizer"][0][0]["re"] == pytest.approx(0.5)

    code, doc = run_json(["mu", "e_theta:0", "[[0,1],[0,0]]"])
    assert doc["value"] == pytest.approx(1.0)
    m = doc["minimizer"]
    assert m[0][1]["re"] == pytest.approx(1.0, abs=1e-6)
    assert m[1][0]["re"] == pytest.approx(1.0, abs=1e-6)


def test_mu_unknown_structure_exit_65():
    code, out, err = run(["mu", "bogus", "[[1,0],[0,1]]"])
    assert code == 65
    assert "bogus" in err
    for name in ("e_theta:soup", "e_theta:nan", "e_theta:inf"):
        code, _, err = run(["mu", name, "[[1,0],[0,1]]"])
        assert code == 65 and "bad e_theta parameter" in err


def test_mu_takes_no_tolerance(monkeypatch):
    """No mu path reads a tolerance: --tol is an unknown option (exit 64),
    and a malformed MUBLOCKS_TOL does not reach mu."""
    code, _, err = run(["mu", "diag", "[[1,2],[3,4]]", "--tol", "1e-3"])
    assert code == 64 and "--tol" in err
    monkeypatch.setenv("MUBLOCKS_TOL", "abc")
    assert run(["mu", "diag", "[[1,2],[3,4]]"])[0] == 0


def test_mu_matrix_parse_failures():
    assert run(["mu", "full", "[[1,0],[0]]"])[0] == 64
    assert run(["mu", "full", "not json"])[0] == 64
    assert run(["mu", "full", "[[NaN,0],[0,1]]"])[0] == 64
    assert run(["mu", "full", '[[{"re": 1e400},0],[0,1]]'])[0] == 64


def test_verify_named_suite():
    code, out, err = run(["verify", "lemma21_gram", "--n", "50"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("suite=lemma21_gram n=50 ")
    assert lines[0].endswith("status=pass")
    assert lines[-1] == "total: suites=1 failures=0 status=pass"


def test_verify_counterexamples_and_grid_flag(monkeypatch):
    code, out, _ = run(["verify", "counterexamples", "--r", "0.5", "--r", "0.25"])
    assert code == 0
    assert "suite=counterexamples n=2" in out
    # a flag the run does not read is a usage error: --r is read only by
    # the grid, --n and --tol only by a single suite, --seed not by the grid
    assert run(["verify", "lemma21_gram", "--r", "0.5"])[0] == 64
    assert run(["verify", "all", "--n", "10"])[0] == 64
    assert run(["verify", "all", "--tol", "1e-3"])[0] == 64
    for flags in (["--n", "3"], ["--seed", "5"], ["--tol", "0.5"],
                  ["--n", "3", "--seed", "5", "--tol", "0.5"]):
        code, out, err = run(["verify", "counterexamples", *flags])
        assert (code, out) == (64, ""), flags
        assert flags[0] in err
    # MUBLOCKS_TOL is read only where a tolerance is used
    monkeypatch.setenv("MUBLOCKS_TOL", "abc")
    assert run(["verify", "counterexamples"])[0] == 0
    assert run(["verify", "lemma21_gram", "--n", "5"])[0] == 64


def test_verify_unknown_suite_exit_66():
    code, _, err = run(["verify", "nosuchsuite"])
    assert code == 66
    assert "nosuchsuite" in err


def test_verify_out_aggregate(tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(["verify", "prop22_vs_oracle", "--n", "100",
                        "--out", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert isinstance(data, list) and len(data) == 1
    assert data[0]["suite"] == "prop22_vs_oracle"
    assert data[0]["passed"] is True
    assert data[0]["n_samples"] == 100


def test_slice_grid_layout_and_values():
    code, out, _ = run(["slice", "f", "--fixed", "x=0,s=0",
                        "--axes", "Re(a),Im(a)", "--range", "-1:1,-1:1",
                        "--grid", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "Re(a)\tIm(a)\tcode\tmargin"
    assert len(lines) == 1 + 25
    rows = {tuple(l.split("\t")[:2]): l.split("\t")[2:] for l in lines[1:]}
    assert rows[("0", "0")] == ["0", "1"]           # the origin, margin 1
    assert rows[("-1", "-1")][0] == "2"             # corner outside
    assert rows[("-1", "0")][0] == "1"              # |a| = 1 boundary
    codes = {r[0] for r in rows.values()}
    assert codes == {"0", "1", "2"}


def test_slice_deterministic_and_out_file(tmp_path):
    argv = ["slice", "g2", "--grid", "8"]
    a = run(argv)
    b = run(argv)
    assert a == b
    assert a[1].splitlines()[0] == "Re(s)\tRe(p)\tcode\tmargin"
    path = tmp_path / "cells.tsv"
    code, out, _ = run(argv + ["--out", str(path)])
    assert code == 0 and out == ""
    assert path.read_text() == a[1]


def test_slice_band_cells_use_code_1():
    """Over the tetrablock boundary point (1, 0, 0) the fibre radius is 0:
    every cell of the a-plane reads code 2 (Outside) with margin -|a|, except
    a = 0, which keeps code 1 (ClosureBoundary) with margin 0."""
    code, out, _ = run(["slice", "h", "--fixed", "x1=1,x2=0,x3=0",
                        "--axes", "Re(a),Im(a)",
                        "--range", "-0.5:0.5,-0.5:0.5", "--grid", "3"])
    assert code == 0
    assert out == "Re(a)\tIm(a)\tcode\tmargin\n" + "".join(
        f"{u}\t{v}\t" + ("1\t0" if u == v == "0" else
                        f"2\t{-abs(complex(float(u), float(v))):.17g}") + "\n"
        for u in ("-0.5", "0", "0.5") for v in ("-0.5", "0", "0.5"))


def test_slice_argument_validation():
    # a fixed coordinate as both axes, or with a nonzero part on its axis
    assert run(["slice", "f", "--fixed", "x=0", "--axes", "Re(x),Im(x)"])[0] == 64
    for fixed in ("x1=0.5,x3=0", "x2=-0.1+0.3i,x3=0"):
        assert run(["slice", "tetra", "--axes", "Re(x1),Re(x2)", "--fixed", fixed])[0] == 64
    assert run(["slice", "tetra", "--axes", "Re(x1),Re(x2)", "--fixed", "x1=0.5i,x3=0",
                "--grid", "2"])[0] == 0
    assert run(["slice", "f", "--axes", "Re(nope),Im(x)"])[0] == 64
    assert run(["slice", "f", "--range", "1:2:3"])[0] == 64
    assert run(["slice", "f", "--grid", "1"])[0] == 64
    assert run(["slice", "f", "--fixed", "x=notanumber"])[0] == 64


# Ranges whose width overflows: an axis value is NaN (0 times an infinite
# width, at the first cell) or infinite (an overflowing product, at a later
# row or column).  (argv tail, the stderr of exit 64)
_OVERFLOWING_SLICES = (
    (["g2", "--grid", "3", "--range=-1e308:1e308"],
     "invalid input: s: non-finite entry (nan+0j)\n"),
    (["g2", "--grid", "3", "--axes", "Re(s),Im(s)", "--range=0:1e308"],
     "invalid input: s: non-finite entry infj\n"),
    (["tetra", "--grid", "3", "--range=-1e308:1e308"],
     "invalid input: x1: non-finite entry (nan+0j)\n"),
    (["penta", "--grid", "3", "--range=0:1,-1e308:1e308"],
     "invalid input: s: non-finite entry (nan+0j)\n"),
    (["f", "--grid", "3", "--range=-1e308:1e308"],
     "invalid input: x: non-finite entry (nan+0j)\n"),
    (["h", "--grid", "3", "--range=-1e308:1e308"],
     "invalid input: a: non-finite entry (nan+0j)\n"),
    (["h", "--grid", "3", "--axes", "Im(x2),Re(x3)", "--range=0:1,-1e308:1e308"],
     "invalid input: x3: non-finite entry (nan+0j)\n"),
    (["l4", "--grid", "3", "--range=-1e308:1e308"],
     "invalid input: z1: non-finite entry (nan+0j)\n"),
    (["l4", "--grid", "4", "--axes", "Im(z1),Re(z1)", "--range=0:1e308,0:1"],
     "invalid input: z1: non-finite entry infj\n"),
    (["hn", "--grid", "3", "--range=-1e308:1e308"],
     "invalid input: a: non-finite entry (nan+0j)\n"),
)


@pytest.mark.parametrize("tail, err", _OVERFLOWING_SLICES)
def test_slice_refuses_a_non_finite_axis_value(tail, err):
    """A cell whose axis value is not finite exits 64 naming the first such
    coordinate, and nothing reaches stdout."""
    assert run(["slice", *tail]) == (64, "", err)


def test_tol_env_and_flag(monkeypatch):
    monkeypatch.setenv("MUBLOCKS_TOL", "0.3")
    code, doc = run_json(["check", "g2", "(0,0.9)"])
    assert doc["tol"] == 0.3
    assert doc["region"] == "ClosureBoundary"  # 0.19 margin inside wide band
    # explicit flag wins over the environment
    code, doc = run_json(["check", "g2", "(0,0.9)", "--tol", "1e-9"])
    assert doc["tol"] == 1e-9
    assert doc["region"] == "Interior"
    monkeypatch.setenv("MUBLOCKS_TOL", "abc")
    assert run(["check", "g2", "(0,0)"])[0] == 64
    monkeypatch.setenv("MUBLOCKS_TOL", "-1")
    assert run(["check", "g2", "(0,0)"])[0] == 64


def test_usage_errors():
    assert run([])[0] == 64
    assert run(["frobnicate"])[0] == 64
    assert run(["check"])[0] == 64


_POSITIONALS = {"check": (["domain", "point"], ["g2", "(0,0)"]),
                "mu": (["structure", "matrix"], ["diag", "[[1,0],[0,1]]"]),
                "verify": (["suite"], ["lemma21_gram"]),
                "slice": (["domain"], ["g2"])}
_OLD_FLAGS = {"check": ["--domain", "f", "--point", "(5,0,0,0)"],
              "mu": ["--structure", "full", "--matrix", "[[0,1],[0,0]]"],
              "verify": ["--suite", "all"], "slice": ["--domain", "f"]}


@pytest.mark.parametrize("command", sorted(_POSITIONALS))
def test_each_argument_has_one_spelling(command):
    """The domain, point, structure, matrix and suite are required
    positionals with no --flag twin: --help names each once, and a missing
    one, an unknown domain or the old flag form (which silently overrode
    the positional) exits 64 with nothing on stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    usage = out.getvalue().split("\n\n")[0].split()
    names, args = _POSITIONALS[command]
    for name in names:
        assert usage.count(name) == 1 and f"--{name}" not in out.getvalue()
    for k in range(len(args)):
        assert run([command, *args[:k]])[:2] == (64, "")
    old = _OLD_FLAGS[command]
    for k in range(0, len(old), 2):
        assert run([command, *args, *old[k:k + 2]])[:2] == (64, "")
    if names[0] == "domain":
        assert run([command, "nosuch", *args[1:]])[:2] == (64, "")


def test_flags_may_sit_between_positionals():
    """With required positionals a flag may come between them, which the
    optional positionals refused as an unrecognized argument."""
    assert run(["check", "g2", "--tol", "1e-3", "(0.5,0)"]) == run(
        ["check", "g2", "(0.5,0)", "--tol", "1e-3"])
    assert run(["check", "g2", "--tol", "1e-3", "(0.5,0)"])[0] == 0


@pytest.mark.parametrize("domain", sorted(cli._DOMAINS))
def test_classifiers_refuse_non_finite_coordinates(domain):
    """A NaN or an infinity in any coordinate raises PreconditionViolation
    naming that coordinate, as Matrix2 does for its entries; finite
    coordinates whose sum overflows still answer (Outside).  A point with
    one coordinate raises PreconditionViolation naming the domain's
    coordinates (l4, in C^n for n >= 2: the first two)."""
    classify, names = _PUBLIC[domain], cli._COORD_NAMES[domain]
    want = "(z1, z2, ...)" if domain == "l4" else f"({', '.join(names)})"
    with pytest.raises(PreconditionViolation, match=re.escape(f"expected {want}, got")):
        classify((0.1,))
    for k, name in enumerate(names):
        for bad in (math.nan, math.inf, -math.inf, complex(0.5, math.nan),
                    complex(0, -math.inf)):
            pt = [0.1] * len(names)
            pt[k] = bad
            with pytest.raises(PreconditionViolation, match=f"^{name}: non-finite"):
                classify(tuple(pt))
    huge = (1e308, 1e308) + (0.0,) * (len(names) - 2)
    assert classify(huge).region is Region.OUTSIDE
    assert run(["check", domain, repr(huge)])[0] == 2


@pytest.mark.parametrize("domain", cli._DOMAINS)
def test_classifiers_answer_huge_coordinates_outside(domain):
    """A finite coordinate of modulus 1e200 or more puts a point far outside
    every domain, all of them bounded.  Each classifier answers so itself,
    with margin -inf where a square overflows rather than raising
    OverflowError, and check's classify_point on the domain's record gives
    that verdict."""
    names = cli._COORD_NAMES[domain]
    classify = _PUBLIC[domain]
    margins = []
    for k in range(len(names)):
        for big in (1e200, -1e200j, complex(1e308, 1e308)):
            pt = [0j] * len(names)
            pt[k] = big
            verdict = classify(tuple(pt))
            assert classify_point(cli._DOMAIN_RECORDS[domain], tuple(pt), 1e-9) == verdict
            assert verdict.region is Region.OUTSIDE and verdict.margin < -1e100
            margins.append(verdict.margin)
    assert -math.inf in margins


@pytest.mark.parametrize("domain", cli._DOMAINS)
def test_check_equals_the_public_classifier(domain):
    """check prints the public classifier's region, margin (-inf clamped to
    the least float, as JSON has no -inf), tol and Shilov flag, and exits
    with the region's code, on seeded points of mixed scale, points on and
    near the unit circles, and points past the floats; h includes its band
    over the tetrablock boundary point (1, 0, 0)."""
    names = cli._COORD_NAMES[domain]
    r = random.Random(2807)
    pts = []
    for _ in range(60):
        scale = r.choice((0.3, 0.7, 1.0, 1.0 + 1e-9, 1.5, 1e200))
        pts.append(tuple(complex(r.uniform(-1, 1), r.uniform(-1, 1)) * scale
                         for _ in names))
        pts.append(tuple(cmath.exp(1j * r.uniform(0, 2 * math.pi)) * r.choice((1.0, 0.5, 0.0))
                         for _ in names))
    pts += [(0j,) * len(names), (1e308, 1e308) + (0j,) * (len(names) - 2)]
    if domain == "h":
        pts += [(complex(r.uniform(-1, 1), r.uniform(-1, 1)), 1, 0, 0) for _ in range(20)]
        pts += [(0.5, 1, 0, 0), (1.000000001, 1, 0, 0), (2, 1, 0, 0)]
    regions = set()
    for pt in pts:
        for tol in (None, 1e-6):
            argv = ["check", domain, json.dumps(
                [{"re": complex(z).real, "im": complex(z).imag} for z in pt])]
            v = _PUBLIC[domain](pt) if tol is None else _PUBLIC[domain](pt, tol)
            code, doc = run_json(argv if tol is None else argv + ["--tol", repr(tol)])
            assert code == v.region.code, (pt, tol)
            assert (doc["region"], doc["margin"], doc["tol"], doc["shilov"]) == (
                v.region.value, max(v.margin, -sys.float_info.max), v.tol, v.shilov), (pt, tol)
            regions.add(v.region)
    assert regions == set(Region)


# sha256 of each gallery plane of scripts/render_slices.py (121 x 121), the
# same on Python 3.10, 3.11 and 3.12: no cell kernel sums through sum(),
# which 3.12 compensates for floats (the Lie-ball kernel adds with plain +)
_GALLERY_SHA256 = {
    "g2_real": "2601267d586a33bf5f06864ea0778b69c59fa64fcdfd1a0493882bc6b5a796dd",
    "tetra_x1x2_real": "f8679be58148c64476ec05dbc463d639d3347ccdfeb77cabb969db5b6ac03169",
    "penta_a_plane": "6468a6ba44c6a1b08a772df14e98f24b8fe3285e1d30a5011d33621c3c9b9b72",
    "f_a_plane_s0": "c0315693b3a6a81b424430feaff002a262e239748b1a823bb533bd956aeb7c86",
    "hexa_a_plane": "bf88a448965d49ce0b04d7ed784561d2846f726630d39190eef066a9f7375ad0",
    "lie_ball_z1z2_real": "03b90776e47958412c522b2ffe5254efe4daf177d99742054d7c4d21915e24ad",
}


def test_gallery_planes_keep_their_bits(tmp_path):
    """The six gallery planes, rendered through main(["slice", ...]), are
    byte for byte the files whose digests are pinned above."""
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "render_slices.py")
    slices = runpy.run_path(script)["SLICES"]
    assert sorted(stem for stem, _ in slices) == sorted(_GALLERY_SHA256)
    for stem, tail in slices:
        path = tmp_path / f"{stem}.tsv"
        assert main(["slice", *tail, "--grid", "121", "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _GALLERY_SHA256[stem], stem


@pytest.mark.parametrize("domain, bare", [("g2", "-0.5,0"), ("g2", "-.5,-0.25"),
                                          ("h", "-0.1,0,0,0")])
def test_bare_point_may_start_with_a_minus(domain, bare):
    """A bare point whose first coordinate is negative is the point, not an
    option: check answers as for its parenthesised form."""
    code, out, err = run(["check", domain, bare])
    assert (code, out, err) == run(["check", domain, f"({bare})"])
    assert code == 0 and err == ""


def test_repeated_main_calls_are_independent():
    """main() reuses one parser: back-to-back calls give the same bytes and
    exit codes, and values appended by one call never reach the next."""
    from mublocks.cli import _build_parser

    for argv in (["slice", "g2", "--grid", "5"],
                 ["mu", "diag", "[[1,2],[3,4]]"],
                 ["check", "f", "(0,0.5,0,1)"],
                 ["verify", "nosuch"]):
        assert run(argv) == run(argv)
    parser = _build_parser()
    assert parser is _build_parser()
    args = parser.parse_args(["verify", "counterexamples", "--r", "0.5", "--r", "0.7"])
    assert args.r == [0.5, 0.7]
    assert parser.parse_args(["verify", "counterexamples"]).r is None
    # --r is refused on a sampled suite; had it carried over, the second call
    # would be refused as well
    code, _, err = run(["verify", "lemma21_gram", "--n", "3", "--r", "0.5"])
    assert code == 64 and "--r" in err
    assert run(["verify", "lemma21_gram", "--n", "3"])[0] == 0


def _cell_point(names, fixed, axes, values):
    """The point a slice prints at the axis values, as the slice forms it."""
    coords = [complex(fixed.get(nm, 0)) for nm in names]
    for axis, val in zip(axes.split(","), values):
        k = names.index(axis[3:-1])
        z = coords[k]
        coords[k] = complex(val, z.imag) if axis[:2] == "Re" else complex(z.real, val)
    return tuple(coords)


_PUBLIC = {"g2": g2_classify, "tetra": tetra_classify, "penta": penta_classify,
           "f": f_classify, "h": hexa_classify, "hn": hn_classify, "l4": lie_ball_classify}

# Planes of every domain, one with --tol and the h plane of
# test_slice_band_cells_use_code_1: (domain, fixed, axes, ranges, extra
# argv).  Re(a),Im(a) and Im(z1),Re(z1) name one coordinate twice;
# Re(x2),Im(x1) and Re(z3),Re(z1) put the inner axis first in coordinate
# order, whose column values the slice builds once from the fixed coordinates.
# The last two fix the part of each axis coordinate that its axis does not
# draw (Im(x1) = 0.5 and Im(x2) = 0.25; Im(a) = 0.2, on the fibre path).
_SLICE_PLANES = (
    ("g2", {}, "Re(s),Im(p)", ((-2.2, 2.2), (-1.2, 1.2)), []),
    ("tetra", {"x3": 0.1j}, "Re(x1),Re(x2)", ((-1.2, 1.2), (-1.2, 1.2)), []),
    ("penta", {"s": 0.9, "p": 0.4}, "Re(a),Im(a)", ((-1.6, 1.6), (-1.6, 1.6)), []),
    ("f", {"x": 0.25, "p": 0, "s": 0}, "Re(a),Im(a)", ((-1.2, 1.2), (-1.2, 1.2)), []),
    ("h", {"x1": 0.3, "x2": 0.2, "x3": 0.1}, "Re(a),Im(a)",
     ((-1.4, 1.4), (-1.4, 1.4)), []),
    ("hn", {"x1": 0.3, "x2": 0.2}, "Re(a),Re(x3)", ((-1.2, 1.2), (-1.2, 1.2)), []),
    ("l4", {"z3": 0.2j, "z4": 0}, "Im(z1),Re(z1)", ((-1.2, 1.2), (-0.6, 0.9)), []),
    ("tetra", {"x3": 0.1j}, "Re(x2),Im(x1)", ((-1.2, 1.2), (-1.2, 1.2)), []),
    ("l4", {"z2": 0.3j, "z4": 0.1}, "Re(z3),Re(z1)", ((-1.2, 1.2), (-1.2, 1.2)), []),
    ("f", {"x": 0.25, "p": 0, "s": 0}, "Re(a),Im(a)", ((-1.2, 1.2), (-1.2, 1.2)),
     ["--tol", "0.05"]),
    ("h", {"x1": 1, "x2": 0, "x3": 0}, "Re(a),Im(a)", ((-0.5, 0.5), (-0.5, 0.5)), []),
    ("tetra", {"x1": 0.5j, "x2": 0.25j, "x3": 0}, "Re(x1),Re(x2)",
     ((-1.2, 1.2), (-1.2, 1.2)), []),
    ("h", {"a": 0.2j, "x2": 0.1, "x3": 0}, "Re(x1),Re(a)", ((-1.2, 1.2), (-1.2, 1.2)), []),
)


@pytest.mark.parametrize("plane", range(len(_SLICE_PLANES)))
def test_slice_rows_equal_the_public_classifiers(plane):
    """Every row's code and 17-digit margin are the public classifier's at
    the cell's point."""
    domain, fixed, axes, ranges, extra = _SLICE_PLANES[plane]
    n = 9
    argv = ["slice", domain, "--axes", axes, "--grid", str(n), "--range",
            ",".join(f"{lo!r}:{hi!r}" for lo, hi in ranges)] + extra
    if fixed:
        argv += ["--fixed", ",".join(f"{k}={complex(v)!r}".replace("j", "i")
                                     for k, v in fixed.items())]
    code, out, err = run(argv)
    assert code == 0, err
    rows = out.splitlines()[1:]
    assert len(rows) == n * n
    kw = {"tol": float(extra[1])} if extra else {}
    names = cli._COORD_NAMES[domain]
    codes = set()
    for i in range(n):
        for j in range(n):
            values = [lo + (hi - lo) * k / (n - 1) for (lo, hi), k in zip(ranges, (i, j))]
            coords = _cell_point(names, fixed, axes, values)
            v = _PUBLIC[domain](coords, **kw)
            want = f"{values[0]:.10g}\t{values[1]:.10g}\t{v.region.code}\t{v.margin:.17g}"
            assert rows[i * n + j] == want, (i, j)
            codes.add(v.region.code)
    assert len(codes) > 1


@pytest.mark.parametrize("domain", sorted(cli._DOMAINS))
def test_slice_cells_build_no_verdict_and_check_no_point(domain, monkeypatch):
    """A 21x21 slice runs the domain's cell at every grid point: with
    MembershipVerdict refusing construction the bytes are unchanged, and
    checked_point, counted in every module namespace that binds it, runs at
    most once per slice (a finite grid needs no check beyond the parsing)."""
    argv = ["slice", domain, "--grid", "21"]
    want = run(argv)
    assert want[0] == 0 and len(want[1].splitlines()) == 1 + 21 * 21

    def refuse(cls, *args, **kwargs):
        raise AssertionError("a slice cell built a verdict")

    with monkeypatch.context() as patch:
        patch.setattr(MembershipVerdict, "__new__", refuse)
        assert run(argv) == want
        with pytest.raises(AssertionError, match="built a verdict"):
            _PUBLIC[domain]((0.0,) * len(cli._COORD_NAMES[domain]))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return checked_point(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("mublocks") and vars(module).get("checked_point") is checked_point:
            monkeypatch.setattr(module, "checked_point", counted)
    assert run(argv) == want
    assert len(calls) <= 1
    _PUBLIC[domain]((0.0,) * len(cli._COORD_NAMES[domain]))
    assert len(calls) >= 1   # the public classifier's one check is counted


def _fibre_planes():
    """Seeded h and penta planes whose inner axis is the fibre coordinate a:
    (domain, fixed, axes, range text, grid, tol or None).  Outer axes are a
    (both Re/Im orders) or a base coordinate; bases lie off, near or on the
    tetrablock boundary; a quarter of the ranges are huge or overflow."""
    r = random.Random(2504)
    planes = []
    for k in range(48):
        domain = ("h", "penta")[k % 2]
        names = cli._COORD_NAMES[domain]
        inner = r.choice(("Re", "Im"))
        if k % 3:
            outer = f"{'Im' if inner == 'Re' else 'Re'}(a)"
        else:
            outer = f"{r.choice(('Re', 'Im'))}({r.choice(names[1:])})"
        axes = f"{outer},{inner}(a)"
        fixed = {nm: complex(r.uniform(-0.9, 0.9), r.uniform(-0.9, 0.9)) * 0.5
                 for nm in names[1:] if nm != outer[3:-1]}
        if domain == "h" and k % 4 == 0:   # a base on the tetrablock boundary
            x2 = complex(r.uniform(-0.6, 0.6), r.uniform(-0.6, 0.6))
            x3 = cmath.exp(1j * r.uniform(0.0, 2.0 * math.pi))
            base = {"x1": x2.conjugate() * x3, "x2": x2, "x3": x3}
            fixed = {nm: v for nm, v in base.items() if nm != outer[3:-1]}
        if k % 4 == 1:
            ranges = r.choice(("-1e308:1e308", "-1.7e308:1.7e308,-1e200:1e200",
                               "-1e200:1e200,-1.7e308:1.7e308", "0:1,-1e160:1e160"))
        else:
            ranges = ",".join(f"{-r.uniform(0.3, 2.0)!r}:{r.uniform(0.3, 2.0)!r}"
                              for _ in range(2))
        planes.append((domain, fixed, axes, ranges, r.choice((2, 5, 9)),
                       r.choice((None, "1e-12", "1e-9", "0.05"))))
    return planes


def test_fibre_path_equals_the_per_point_cell(monkeypatch):
    """On planes whose inner axis is a, h and penta slices (exit code, stdout
    and stderr) equal those of the per-point cell, run by taking the base
    kernel off the domain record; each finite row runs the base kernel once,
    and sampled cells carry the public classifier's code and margin."""
    r = random.Random(2505)
    seen, exits = set(), set()
    for domain, fixed, axes, ranges, n, tol in _fibre_planes():
        argv = ["slice", domain, "--axes", axes, "--grid", str(n), "--range", ranges,
                "--fixed", ",".join(f"{k}={v!r}".replace("j", "i") for k, v in fixed.items())]
        argv += ["--tol", tol] if tol else []
        record = cli._DOMAIN_RECORDS[domain]
        calls = []

        def counted(y, tol):   # only rows of finite values reach the base kernel
            assert all(map(cmath.isfinite, y)), y
            calls.append(y)
            return record.base(y, tol)

        with monkeypatch.context() as patch:
            patch.setitem(cli._DOMAIN_RECORDS, domain, record._replace(base=None))
            want = run(argv)
        with monkeypatch.context() as patch:
            patch.setitem(cli._DOMAIN_RECORDS, domain, record._replace(base=counted))
            got = run(argv)
        assert got == want, argv
        exits.add(got[0])
        if got[0]:
            continue
        rows = [line.split("\t") for line in got[1].splitlines()[1:]]
        assert len(calls) == n, argv
        seen.update(row[2] for row in rows)
        kw = {"tol": float(tol)} if tol else {}
        for i, j in ((r.randrange(n), r.randrange(n)) for _ in range(4)):
            row = rows[i * n + j]
            (lo1, hi1), (lo2, hi2) = (map(float, part.split(":")) for part in
                                      (ranges.split(",") * 2)[:2])
            pt = _cell_point(cli._COORD_NAMES[domain], fixed, axes,
                             (lo1 + (hi1 - lo1) * i / (n - 1), lo2 + (hi2 - lo2) * j / (n - 1)))
            v = _PUBLIC[domain](pt, **kw)
            assert row[2:] == [str(v.region.code), f"{v.margin:.17g}"], (argv, i, j)
    assert seen == {"0", "1", "2"}
    assert exits == {0, 64}


_HARTOGS_KERNELS = {"h": ("_tetra_margin", "_fibre_radius"),
                    "penta": ("_g2_margin", "_penta_radius")}


@pytest.mark.parametrize("domain, module, kernel", (
    ("h", "hexablock", "_tetra_margin"), ("h", "hexablock", "_fibre_radius"),
    ("penta", "pentablock", "_g2_margin"), ("penta", "pentablock", "_penta_radius")))
def test_fibre_plane_runs_the_base_once_per_row(domain, module, kernel, monkeypatch):
    """The 21x21 gallery a-plane of h (penta), sliced through a record that
    fibred_domain builds with the base-margin (fibre-radius) kernel counted,
    makes 21 calls of it, one per row, against 441 per point."""
    argv = ["slice", domain, "--axes", "Re(a),Im(a)", "--grid", "21", "--fixed",
            {"h": "x1=0.3,x2=0.2,x3=0.1", "penta": "s=0.9,p=0.4"}[domain]]
    want = run(argv)
    mod, calls = sys.modules[f"mublocks.{module}"], []

    def counted(*y):
        calls.append(y)
        return getattr(mod, kernel)(*y)

    record = cli._DOMAIN_RECORDS[domain]
    margin, radius = (counted if name == kernel else getattr(mod, name)
                      for name in _HARTOGS_KERNELS[domain])
    monkeypatch.setitem(cli._DOMAIN_RECORDS, domain,
                        fibred_domain(record.names, margin, radius, record.shilov))
    assert run(argv) == want and want[0] == 0
    assert len(calls) == 21


def _plain_planes():
    """Seeded g2, tetra, f and l4 planes: (domain, fixed, axes, range text,
    grid, tol or None).  The axes are the two parts of one coordinate or parts
    of two, in either coordinate order, some with the other part of an axis
    coordinate fixed; a third of the ranges are huge, square past the floats
    or reach a non-finite axis value."""
    r = random.Random(3203)
    planes = []
    for k in range(64):
        domain = ("g2", "tetra", "f", "l4")[k % 4]
        names = cli._COORD_NAMES[domain]
        nm1 = r.choice(names)
        if k % 5 == 0:
            nm2, (c1, c2) = nm1, r.choice((("Re", "Im"), ("Im", "Re")))
        else:
            nm2 = r.choice([nm for nm in names if nm != nm1])
            c1, c2 = r.choice(("Re", "Im")), r.choice(("Re", "Im"))
        fixed = {nm: complex(r.uniform(-0.6, 0.6), r.uniform(-0.6, 0.6))
                 for nm in names if nm not in (nm1, nm2)}
        if nm1 != nm2 and k % 4 == 1:   # the part of nm1 its axis does not draw
            fixed[nm1] = complex(0.0, 0.3) if c1 == "Re" else complex(0.3, 0.0)
        if k % 3 == 1:
            ranges = r.choice(("-1e308:1e308", "-1e200:1e200", "0:1,-1e160:1e160",
                               "-1e160:1e160,0:1", "-1.7e308:1.7e308,-1e200:1e200"))
        else:
            ranges = ",".join(f"{-r.uniform(0.3, 2.0)!r}:{r.uniform(0.3, 2.0)!r}"
                              for _ in range(2))
        planes.append((domain, fixed, f"{c1}({nm1}),{c2}({nm2})", ranges,
                       r.choice((2, 5, 9)), r.choice((None, "1e-12", "0.05"))))
    return planes


def test_row_path_equals_the_per_point_cell(monkeypatch):
    """On seeded g2, tetra, f and l4 planes, slices (exit code, stdout and
    stderr) equal those of the per-point cell, run by taking the margin kernel
    off the domain record.  Rows whose squares pass the floats (margin -inf)
    are redone through the cell; non-finite axis values exit 64 before any
    kernel runs."""
    exits, seen, overflowed = set(), set(), 0
    for domain, fixed, axes, ranges, n, tol in _plain_planes():
        argv = ["slice", domain, "--axes", axes, "--grid", str(n), "--range", ranges]
        argv += ["--fixed", ",".join(f"{k}={v!r}".replace("j", "i")
                                     for k, v in fixed.items())] if fixed else []
        argv += ["--tol", tol] if tol else []
        record = cli._DOMAIN_RECORDS[domain]
        calls = []

        def counted(*x):
            assert all(map(cmath.isfinite, x)), x
            calls.append(x)
            return record.kernel(*x)

        with monkeypatch.context() as patch:
            patch.setitem(cli._DOMAIN_RECORDS, domain, record._replace(kernel=None))
            want = run(argv)
        with monkeypatch.context() as patch:
            patch.setitem(cli._DOMAIN_RECORDS, domain, record._replace(kernel=counted))
            got = run(argv)
        assert got == want, argv
        exits.add(got[0])
        assert bool(calls) == (got[0] == 0), argv
        seen.update(line.split("\t")[2] for line in got[1].splitlines()[1:])
        overflowed += "\t-inf\n" in got[1]
    assert exits == {0, 64}
    assert seen == {"0", "1", "2"}
    assert overflowed >= 4


@pytest.mark.parametrize("domain", ("g2", "tetra", "f", "l4"))
def test_plain_plane_maps_the_kernel_once_per_cell(domain, monkeypatch):
    """The 21x21 gallery plane of a plain domain calls the record's margin
    kernel 441 times, and neither the record's cell nor verdict.margin_code."""
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "render_slices.py")
    tail, = (tail for _, tail in runpy.run_path(script)["SLICES"] if tail[0] == domain)
    argv = ["slice", *tail, "--grid", "21"]
    want = run(argv)
    record, calls = cli._DOMAIN_RECORDS[domain], []

    def counted(*x):
        calls.append(x)
        return record.kernel(*x)

    def refuse(*args):
        raise AssertionError("a plain row ran the per-point cell")

    monkeypatch.setitem(cli._DOMAIN_RECORDS, domain,
                        record._replace(kernel=counted, cell=refuse))
    monkeypatch.setattr(verdict, "margin_code", refuse)
    assert run(argv) == want and want[0] == 0
    assert len(calls) == 21 * 21


def test_cli_and_thm32_run_without_numpy():
    """The package needs no numpy: with it unimportable, the CLI (check,
    mu, slice, verify thm32), the lattice and the transport distance on
    both of its branches run."""
    script = "\n".join((
        "import contextlib, io, math, random, sys",
        "sys.modules['numpy'] = None",
        "import mublocks",
        "from mublocks import cli, lie_ball",
        "from mublocks.domain_f import sample_shilov_param_f, shilov_f_param",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(['check', 'g2', '(0,0)']) == 0",
        "    assert cli.main(['mu', 'e_theta:0.7', '[[1,2],[3,4]]']) == 0",
        "    assert cli.main(['slice', 'l4', '--grid', '21']) == 0",
        "    assert cli.main(['verify', 'thm32_boundary_transport']) == 0",
        "params, points = lie_ball.transported_lattice(100)",
        "assert len(points) == 100 and all(map(len, (*params, *points)))",
        "scans, scan = [], lie_ball._scan_distance",
        "lie_ball._scan_distance = lambda t: scans.append(t) or scan(t)",
        "rng = random.Random(7)",
        "boundary = shilov_f_param(sample_shilov_param_f(rng))",
        "noisy = tuple(v + complex(rng.gauss(0, 1), rng.gauss(0, 1))",
        "              for v in shilov_f_param(sample_shilov_param_f(rng)))",
        "assert lie_ball.nearest_transport_distance(boundary) <= 1e-12 and not scans",
        "print(lie_ball.nearest_transport_distance(noisy), len(scans))",
    ))
    src = os.path.dirname(os.path.dirname(os.path.abspath(mublocks.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    distance, scans = done.stdout.split()
    assert math.isfinite(float(distance)) and scans == "1"
