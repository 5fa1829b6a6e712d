import math
import random
import re
import sys

import pytest

from mublocks import bidisc, domain_f, hexablock, lie_ball, tetrablock, verify
from mublocks.errors import (CriteriaDisagree, PreconditionViolation,
                             UnknownSuite)
from mublocks.verdict import DEFAULT_TOL, raise_if_split
from mublocks.verify import (SuiteReport, run_counterexamples, run_suite,
                             suite_names)
import oracles
from oracles import lie_ball_interior_reference

EXPECTED_SUITES = (
    "lemma21_gram", "prop22_vs_oracle", "prop24_closure", "swap_involution",
    "lemma25_scaling", "thm29_projections", "prop210_slice", "prop211_slice",
    "cor213_closure_projections", "prop215_hn", "thm32_boundary_transport",
    "thm33_shilov_equivalences", "cor34_necessity", "cor35_double_cover",
    "mu_sandwich", "thm41_equivalence", "cor42_etheta", "final_classification",
)

# the three mu-numeric suites run an optimizer per sample; keep them small
_SMALL_N = {"mu_sandwich": 15, "thm41_equivalence": 10, "cor42_etheta": 15}

# (failures, band_excluded) of each suite at seed 7 and the sizes above, read
# from the suites before they shared one driver; a driver that miscounts band
# exclusions changes them.
_PINNED_COUNTS = {
    "lemma21_gram": (0, 0), "prop22_vs_oracle": (0, 72),
    "prop24_closure": (0, 35), "swap_involution": (0, 72),
    "lemma25_scaling": (0, 0), "thm29_projections": (0, 0),
    "prop210_slice": (0, 57), "prop211_slice": (0, 0),
    "cor213_closure_projections": (0, 0), "prop215_hn": (0, 20),
    "thm32_boundary_transport": (0, 0), "thm33_shilov_equivalences": (0, 0),
    "cor34_necessity": (0, 0), "cor35_double_cover": (0, 0),
    "mu_sandwich": (0, 0), "thm41_equivalence": (0, 0),
    "cor42_etheta": (0, 0), "final_classification": (0, 0),
}


def test_registry_is_exactly_the_published_list():
    assert suite_names() == EXPECTED_SUITES


@pytest.mark.parametrize("name", EXPECTED_SUITES)
def test_every_suite_passes_at_reduced_size(name):
    rep = run_suite(name, n_samples=_SMALL_N.get(name, 200), seed=7)
    assert rep.passed, "\n".join(rep.to_lines())
    assert (len(rep.failures), rep.band_excluded) == _PINNED_COUNTS[name]
    assert rep.suite == name
    assert rep.elapsed >= 0.0


def test_thm32_counts_a_nan_distance_as_a_failure(monkeypatch):
    monkeypatch.setattr(verify, "_transport_gap", lambda target: float("nan"))
    rep = run_suite("thm32_boundary_transport", n_samples=20, seed=7)
    assert sum("kind=match" in f for f in rep.failures) == 10


def test_transport_gap_is_tiny_on_boundary_targets():
    """Seeded targets, then x1 = 0, x2 = x3 = x4 = 0 and the angles 0, pi and
    +-pi/2; at +-pi/2, -t3 lies on cmath.sqrt's branch cut, and with omega =
    1j exactly and t3 = 1 +- 0j the root taken is omega or -omega."""
    rng = random.Random(7)
    targets = [domain_f.shilov_f_param(domain_f.sample_shilov_param_f(rng))
               for _ in range(1000)]
    xs = ((0.0, 0.0, 0.0), (0.6, 0.8, 0.0), (0.0, 0.6, -0.8), (0.0, 0.0, 1.0),
          (-1.0, 0.0, 0.0), (0.3, -0.4, 0.5))
    for theta in (0.0, math.pi, math.pi / 2, -math.pi / 2):
        targets += [domain_f.shilov_f_param(domain_f.ShilovParamF(theta, *x))
                    for x in xs]
    for t3 in (complex(1.0, 0.0), complex(1.0, -0.0)):
        targets += [(1j * complex(x3, x4), -1j * complex(x3, -x4), t3, 2j * x2)
                    for x2, x3, x4 in xs]
    assert max(verify._transport_gap(t) for t in targets) <= 1e-14


def test_transport_gap_bounds_the_distance_from_above():
    """The gap is a distance to one transported point, so it is never below
    the nearest distance, here on targets pushed off the boundary."""
    rng = random.Random(4004)
    for _ in range(200):
        t = tuple(v + complex(rng.gauss(0, 0.2), rng.gauss(0, 0.2))
                  for v in domain_f.shilov_f_param(domain_f.sample_shilov_param_f(rng)))
        assert verify._transport_gap(t) >= oracles.nearest_transport_distance_reference(t)


def test_thm32_runs_no_transport_search(monkeypatch):
    def forbidden(*args):
        raise AssertionError("transport search called")

    monkeypatch.setattr(lie_ball, "_residual2", forbidden)
    monkeypatch.setattr(lie_ball, "nearest_transport_distance", forbidden)
    assert run_suite("thm32_boundary_transport", n_samples=200, seed=7).passed


def test_split_guard_raises_only_outside_the_band():
    raise_if_split("demo", (0,), 1e-7, 2e-8, 1e-9)           # same sign
    raise_if_split("demo", (0,), 1e-7, -1e-8, 1e-9)          # one in the band
    raise_if_split("demo", (0,), float("nan"), -1.0, 1e-9)   # no information
    with pytest.raises(CriteriaDisagree, match="demo disagree"):
        raise_if_split("demo", (0,), 1e-7, -2e-8, 1e-9)


def _negated(fn):
    return lambda *args: -fn(*args)


# Each moved criterion, broken by a sign flip, and a suite that checks it.
_MUTATIONS = {
    "g2_B": (bidisc, "_slack_b", _negated, "prop211_slice", 50),
    "tetra_B": (tetrablock, "tetra_margins",
                lambda fn: lambda *args: (fn(*args)[0], -fn(*args)[1]),
                "prop210_slice", 50),
    "tetra_closure_legs": (tetrablock, "_closure_margin", _negated,
                           "prop210_slice", 50),
    "lie_B": (lie_ball, "_slack_b", _negated, "thm32_boundary_transport", 20),
}


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_suites_catch_a_broken_second_criterion(monkeypatch, mutation):
    module, name, mutate, suite, n = _MUTATIONS[mutation]
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    with pytest.raises(CriteriaDisagree):
        run_suite(suite, n_samples=n, seed=7)


def test_classifiers_evaluate_one_rule(monkeypatch):
    """With the four-coordinate classifier, the second criteria and the dual
    checks unavailable, the four classifiers still give their verdicts."""
    calls = (
        (tetrablock.tetra_classify, (0.5, 0.5, 0.25)),
        (tetrablock.tetra_classify, (1, 1, 1)),
        (tetrablock.tetra_classify, (1.2, 0, 0)),
        (hexablock.hexa_classify, (0.5, 0.3, 0.2, 0.05)),
        (hexablock.hexa_classify, (0, 1, 1, 1)),
        (hexablock.hexa_classify, (0.5, 1, 0, 0)),
        (bidisc.g2_classify, (0.3, 0.2)),
        (bidisc.g2_classify, (2, 1)),
        (bidisc.g2_classify, (3, 1)),
        (lie_ball.lie_ball_classify, (0.5, 0.1j, 0, 0)),
        (lie_ball.lie_ball_classify, (0.6, 0.8, 0, 0)),
        (lie_ball.lie_ball_classify, (2, 0, 0, 0)),
    )
    verdicts = [fn(pt) for fn, pt in calls]

    def unavailable(*args, **kwargs):
        raise AssertionError("second route called")

    for module, name in ((domain_f, "f_classify"),
                         (bidisc, "_slack_b"), (bidisc, "g2_dual_check"),
                         (tetrablock, "tetra_margins"),
                         (tetrablock, "tetra_dual_check"),
                         (lie_ball, "_slack_b"),
                         (lie_ball, "lie_ball_dual_check")):
        monkeypatch.setattr(module, name, unavailable)
    assert [fn(pt) for fn, pt in calls] == verdicts


def test_unknown_suite_raises_with_known_names():
    with pytest.raises(UnknownSuite) as exc:
        run_suite("nope")
    assert isinstance(exc.value, KeyError)
    msg = str(exc.value)
    assert "nope" in msg and "lemma21_gram" in msg


def test_counterexamples_custom_grid():
    rep = run_counterexamples((0.3, 0.6))
    assert rep.passed
    assert rep.n_samples == 2
    # the tol its classifiers and dual checks run at
    assert rep.tol == DEFAULT_TOL == 1e-9
    assert " tol=1e-09 " in rep.to_lines()[0]
    for bad in ((0.5, 1.0), (0.0,), (-0.2,)):
        with pytest.raises(PreconditionViolation):
            run_counterexamples(bad)


def test_determinism_per_seed():
    a = run_suite("prop22_vs_oracle", n_samples=300, seed=11)
    b = run_suite("prop22_vs_oracle", n_samples=300, seed=11)
    assert a.failures == b.failures
    assert a.band_excluded == b.band_excluded
    c = run_suite("prop22_vs_oracle", n_samples=300, seed=12)
    assert c.band_excluded != a.band_excluded or c.passed  # different draw


def test_report_formatting():
    rep = SuiteReport(suite="demo", n_samples=5, seed=9, tol=1e-6,
                      failures=("kind=b detail", "kind=a detail"),
                      band_excluded=3, elapsed=0.1234)
    assert not rep.passed
    lines = rep.to_lines()
    assert re.fullmatch(
        r"suite=demo n=5 seed=9 tol=1e-06 failures=2 band_excluded=3 "
        r"elapsed=0\.123s status=FAIL", lines[0])
    assert lines[1:] == ["  kind=a detail", "  kind=b detail"]
    d = rep.to_dict()
    assert d["failures"] == ["kind=a detail", "kind=b detail"]
    assert d["passed"] is False

    ok = SuiteReport(suite="demo", n_samples=5, seed=9, tol=1e-9, failures=())
    assert ok.passed
    assert ok.to_lines()[0].endswith("status=pass")
    assert ok.to_dict()["passed"] is True


def test_lie_ball_sampler_matches_the_classify_every_candidate_loop(monkeypatch):
    """thm32's sampler skips the margin where sum |z|^2 >= 1, which bounds
    it by 1 - sum |z|^2 <= 0, and reads the rest through lie_ball_classify's
    kernel, on points that need no check; the draws and the accepted samples
    stay those of the loop that classifies every candidate."""
    calls = {verify: 0, oracles: 0}

    def counter(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[module] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    counter(verify, "_lie_ball_margin")
    counter(oracles, "lie_ball_classify")
    for seed in (7, 301, 2026):
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(300):
            assert verify._lie_ball_interior(new) == lie_ball_interior_reference(old)
        assert new.getstate() == old.getstate()
    assert 900 < calls[verify] < calls[oracles] / 5


def test_run_suite_times_each_suite():
    """run_suite fills in elapsed; the suites themselves report 0.0."""
    rep = run_suite("cor34_necessity", n_samples=50, seed=7)
    assert rep.elapsed > 0.0
    assert verify._REGISTRY["cor34_necessity"].fn(50, 7, 1e-9).elapsed == 0.0
    assert rep.to_lines()[0].startswith(
        "suite=cor34_necessity n=50 seed=7 tol=1e-09 failures=0 band_excluded=0 ")


# The chapter 2-3 suites, the set the verify_geometry benchmark workload times.
_GEOMETRY_SUITES = (
    "lemma21_gram", "prop22_vs_oracle", "prop24_closure", "swap_involution",
    "lemma25_scaling", "thm29_projections", "prop210_slice", "prop211_slice",
    "cor213_closure_projections", "prop215_hn", "thm32_boundary_transport",
    "thm33_shilov_equivalences", "cor34_necessity", "cor35_double_cover",
)


def test_geometry_suites_check_each_point_once():
    """A public call checks its point once: on the 14 geometry suites at
    n = 200, no checked_point call runs below a frame that has already made
    one (internal callers read the private kernels on checked coordinates)."""
    from mublocks.verdict import checked_point

    code = checked_point.__code__
    frames: list[list] = []   # [code object, made a checked_point call]
    nested: dict = {}
    total = 0

    def profile(frame, event, arg):
        nonlocal total
        if event == "call":
            if frame.f_code is code:
                total += 1
                outer = [f[0].co_name for f in frames if f[1]]
                if outer:
                    key = (outer[-1], frame.f_back.f_code.co_name)
                    nested[key] = nested.get(key, 0) + 1
                if frames:
                    frames[-1][1] = True
            frames.append([frame.f_code, False])
        elif event == "return" and frames:
            frames.pop()

    sys.setprofile(profile)
    try:
        reports = [run_suite(name, n_samples=200, seed=7) for name in _GEOMETRY_SUITES]
    finally:
        sys.setprofile(None)
    assert all(r.passed for r in reports)
    assert total > 5000 and nested == {}
