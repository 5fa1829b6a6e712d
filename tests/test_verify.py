import re

import pytest

from mublocks import verify
from mublocks.errors import PreconditionViolation, UnknownSuite
from mublocks.verify import (SuiteReport, run_counterexamples, run_suite,
                             suite_names)

EXPECTED_SUITES = (
    "lemma21_gram", "prop22_vs_oracle", "prop24_closure", "swap_involution",
    "lemma25_scaling", "thm29_projections", "prop210_slice", "prop211_slice",
    "cor213_closure_projections", "prop215_hn", "thm32_boundary_transport",
    "thm33_shilov_equivalences", "cor34_necessity", "cor35_double_cover",
    "mu_sandwich", "thm41_equivalence", "cor42_etheta", "final_classification",
)

# the three mu-numeric suites run an optimizer per sample; keep them small
_SMALL_N = {"mu_sandwich": 15, "thm41_equivalence": 10, "cor42_etheta": 15}


def test_registry_is_exactly_the_published_list():
    assert suite_names() == EXPECTED_SUITES


@pytest.mark.parametrize("name", EXPECTED_SUITES)
def test_every_suite_passes_at_reduced_size(name):
    rep = run_suite(name, n_samples=_SMALL_N.get(name, 200), seed=7)
    assert rep.passed, "\n".join(rep.to_lines())
    assert rep.suite == name
    assert rep.elapsed >= 0.0


def test_thm32_counts_a_nan_distance_as_a_failure(monkeypatch):
    monkeypatch.setattr(verify, "nearest_transport_distance",
                        lambda target: float("nan"))
    rep = run_suite("thm32_boundary_transport", n_samples=20, seed=7)
    assert sum("kind=match" in f for f in rep.failures) == 10


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
