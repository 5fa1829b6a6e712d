"""Metric definitions: the latency summary of the end-to-end run and the
per-layer metrics of the traced run."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Sequence

import tracing
from workloads import GEOMETRY_SUITES

# name, unit, better, bound: the end-to-end metrics of an untraced run.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("items_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
)

# A tail percentile is read only from runs that leave at least this many
# samples beyond it.
TAIL_MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    # Rounded first so that 99.9 % of 10 000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def nearest_rank(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank p-th percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples after the nearest-rank p-th percentile of n samples."""
    return n - _rank(p, n)


def min_samples(p: float) -> int:
    """Fewest samples that leave TAIL_MIN_BEYOND beyond the p-th percentile."""
    n = TAIL_MIN_BEYOND + 1
    while samples_beyond(n, p) < TAIL_MIN_BEYOND:
        n += 1
    return n


def latency(samples: Sequence[float], kinds: Sequence[str], tail_p: float) -> dict:
    """The median over kinds of each kind's median, and the tail_p-th
    percentile of all samples.

    The workloads issue their kinds in equal shares, and the kinds' latencies
    lie apart.  The median of all samples then falls in the gap between two
    kinds, where it jumps between the slowest sample of one and the fastest
    of the next; the medians of the kinds do not.
    """
    by_kind = defaultdict(list)
    for kind, x in zip(kinds, samples):
        by_kind[kind].append(x)
    p50 = statistics.median(nearest_rank(sorted(xs), 50.0) for xs in by_kind.values())
    return {"p50": p50, "tail": nearest_rank(sorted(samples), tail_p)}


CLASSIFIERS = (
    "bidisc.g2_classify", "tetrablock.tetra_classify",
    "pentablock.penta_classify", "domain_f.f_classify",
    "domain_f.f_classify_matrix_oracle", "hexablock.hexa_classify",
    "hexablock.hn_classify", "hexablock.psi_sup", "lie_ball.lie_ball_classify",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _rows(tracer: tracing.Tracer, op_s: float, items: int, overhead: float,
          speed: float):
    """(name, unit, better, value) of every per-layer metric.

    op_s and items are the time and work of the traced operations, overhead
    is the tracing overhead, and times are multiplied by `speed` to scale
    them to nominal machine speed like the end-to-end metrics.
    """
    agg = tracer.aggregate()
    counts = tracer.counts

    def calls(name):
        return agg[name]["calls"] if name in agg else 0

    def us_per_call(name, key="total_s"):
        if name not in agg:
            return 0.0
        return _ratio(agg[name][key], agg[name]["calls"]) * 1e6 * speed

    def total_s(name):
        return agg[name]["total_s"] if name in agg else 0.0

    for name in CLASSIFIERS:
        yield f"{name}.calls", "count", "lower", calls(name)
        yield f"{name}.self_us_per_call", "us", "lower", us_per_call(name, "self_s")
    yield ("hexablock.hexa_classify.indeterminate_frac", "frac", "lower",
           _ratio(counts["hexablock.hexa_classify.indeterminate"],
                  calls("hexablock.hexa_classify")))

    sup = "pentablock.penta_sup"
    yield f"{sup}.calls", "count", "lower", calls(sup)
    yield f"{sup}.us_per_call", "us", "lower", us_per_call(sup)
    yield (f"{sup}.per_classify", "ratio", "lower",
           _ratio(calls(sup), calls("pentablock.penta_classify")))
    yield f"{sup}.inclusive_frac", "frac", "lower", _ratio(total_s(sup), op_s)

    ntd = "lie_ball.nearest_transport_distance"
    yield f"{ntd}.calls", "count", "lower", calls(ntd)
    yield f"{ntd}.us_per_call", "us", "lower", us_per_call(ntd)
    yield f"{ntd}.inclusive_frac", "frac", "lower", _ratio(total_s(ntd), op_s)
    yield ("lie_ball.transported_lattice.us_per_call", "us", "lower",
           us_per_call("lie_ball.transported_lattice"))

    mu_names = [f"mu.mu_value.{p}" for p in tracing.MU_PRESETS]
    mu_calls = sum(calls(n) for n in mu_names)
    for name in mu_names:
        yield f"{name}.us_per_call", "us", "lower", us_per_call(name)
    yield "mu.mu_value.calls", "count", "lower", mu_calls
    for status, better in (("Exact", "higher"), ("Numeric", "lower"),
                           ("Infeasible", "lower")):
        yield (f"mu.mu_value.status_{status}_frac", "frac", better,
               _ratio(counts[f"mu.mu_value.status_{status}"], mu_calls))
    rig = "mu.rigidity_check"
    yield f"{rig}.us_per_call", "us", "lower", us_per_call(rig)
    yield (f"{rig}.found_frac", "frac", "higher",
           _ratio(counts[f"{rig}.found"], calls(rig)))

    for caller in tracing.NM_CALLERS:
        nm = f"optimize.nelder_mead.{caller}"
        n = calls(nm)
        yield f"{nm}.calls", "count", "lower", n
        yield f"{nm}.iters_per_call", "count", "lower", _ratio(counts[f"{nm}.iters"], n)
        yield (f"{nm}.evals_per_call", "count", "lower",
               _ratio(calls(f"{nm}.objective"), n))
        yield (f"{nm}.nonconverged_frac", "frac", "lower",
               _ratio(counts[f"{nm}.nonconverged"], n))

    for kernel in ("operator_norm", "singular_values", "gram_report"):
        name = f"matrix2.{kernel}"
        yield f"{name}.calls", "count", "lower", calls(name)
        yield f"{name}.us_per_call", "us", "lower", us_per_call(name)
    norm_in_mu = sum(n for (hot, root), n in tracer.hot_by_root.items()
                     if hot == "matrix2.operator_norm" and root in mu_names)
    yield ("matrix2.operator_norm.per_mu_value", "ratio", "lower",
           _ratio(norm_in_mu, mu_calls))

    cli_self = agg["cli.main"]["self_s"] if "cli.main" in agg else 0.0
    yield ("cli.main.self_us_per_cell", "us", "lower",
           _ratio(cli_self, items) * 1e6 * speed)

    for suite in GEOMETRY_SUITES:
        name = f"verify.{suite}"
        yield f"{name}.elapsed_s", "s", "lower", us_per_call(name) / 1e6
        yield (f"{name}.band_excluded_frac", "frac", "lower",
               _ratio(counts[f"{name}.band_excluded"], counts[f"{name}.samples"]))
    yield ("verify.counterexamples.elapsed_s", "s", "lower",
           us_per_call("verify.counterexamples") / 1e6)

    yield "trace.overhead_frac", "frac", "lower", overhead


# name, unit, better: the per-layer metrics of a traced run.
PER_LAYER = tuple(row[:3] for row in _rows(tracing.Tracer(), 0.0, 0, 0.0, 1.0))


def layer_metrics(tracer: tracing.Tracer, op_s: float, items: int,
                  overhead: float, speed: float) -> dict:
    """name -> (value, unit) of every per-layer metric."""
    return {name: (value, unit) for name, unit, _, value
            in _rows(tracer, op_s, items, overhead, speed)}
