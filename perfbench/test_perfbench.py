"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import mublocks.hexablock  # noqa: E402
import mublocks.matrix2  # noqa: E402
import mublocks.mu  # noqa: E402
import mublocks.tetrablock  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# tail percentile rule

def test_min_samples_keeps_ten_samples_beyond():
    assert metrics.min_samples(50.0) == 20
    assert metrics.min_samples(90.0) == 100
    assert metrics.min_samples(95.0) == 200
    assert metrics.min_samples(99.9) == 10_000
    for p in (50.0, 75.0, 90.0, 95.0, 99.0):
        n = metrics.min_samples(p)
        for m, want in ((n - 1, False), (n, True), (n + 1, True), (3 * n, True)):
            xs = list(range(m))
            beyond = sum(x > metrics.nearest_rank(xs, p) for x in xs)
            assert beyond == metrics.samples_beyond(m, p)
            assert (beyond >= 10) is want


def test_latency_summary():
    xs = [float(x) for x in range(200, 0, -1)]
    assert metrics.latency(xs, ["op"] * 200, 95.0) == {"p50": 100.0, "tail": 190.0}
    assert metrics.latency([3.0, 1.0, 2.0], "aaa", 90.0) == {"p50": 2.0, "tail": 3.0}
    # three kinds in equal shares: the p50 is the middle kind's median
    xs = [1.0, 1.1, 1.2, 5.0, 5.1, 5.2, 9.0, 9.1, 9.2]
    lat = metrics.latency(xs, "aaabbbccc", 90.0)
    assert lat == {"p50": 5.1, "tail": 9.2}
    # four kinds: the mean of the two middle kinds' medians
    assert metrics.latency([1.0, 2.0, 4.0, 8.0], "abcd", 50.0)["p50"] == 3.0


def test_workloads_read_their_tail_at_a_fixed_percentile():
    assert {name: cls.tail_p for name, cls in workloads.WORKLOADS.items()} == {
        "slice_gallery": 90.0, "verify_geometry": 95.0, "mu_mix": 95.0}


# ---------------------------------------------------------------------------
# self time on nested spans

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def f_classify():
        clock.advance(3.0)
        return "f"

    f = tracer.span_wrapper("domain_f.f_classify", f_classify)

    def tetra_classify():
        clock.advance(2.0)
        f()
        clock.advance(1.0)

    tetra = tracer.span_wrapper("tetrablock.tetra_classify", tetra_classify)
    norm = tracer.hot_wrapper("matrix2.operator_norm", lambda: clock.advance(0.5))

    def hexa_classify():
        clock.advance(5.0)
        tetra()
        norm()
        clock.advance(4.0)

    tracer.span_wrapper("hexablock.hexa_classify", hexa_classify)()
    agg = tracer.aggregate()
    assert agg["hexablock.hexa_classify"] == {"calls": 1, "total_s": 15.5, "self_s": 9.0}
    assert agg["tetrablock.tetra_classify"] == {"calls": 1, "total_s": 6.0, "self_s": 3.0}
    assert agg["domain_f.f_classify"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}
    assert agg["matrix2.operator_norm"] == {"calls": 1, "total_s": 0.5, "self_s": 0.5}
    names = [tracer.names[i] for i in tracer.span_name]
    assert names == ["hexablock.hexa_classify", "tetrablock.tetra_classify",
                     "domain_f.f_classify"]
    assert list(tracer.span_parent) == [-1, 0, 1]
    assert tracer.hot_by_root[("matrix2.operator_norm", "hexablock.hexa_classify")] == 1


def test_installed_wrappers_trace_the_real_chain_and_come_off():
    originals = (mublocks.hexablock.hexa_classify, mublocks.hexablock.tetra_classify,
                 mublocks.tetrablock.tetra_classify, mublocks.matrix2.operator_norm)
    pt = (0.3, 0.2, 0.1, 0.05)
    expected = mublocks.hexablock.hexa_classify(pt)
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        assert mublocks.hexablock.hexa_classify(pt) == expected
    finally:
        installed.remove()
    assert (mublocks.hexablock.hexa_classify, mublocks.hexablock.tetra_classify,
            mublocks.tetrablock.tetra_classify,
            mublocks.matrix2.operator_norm) == originals

    n = len(tracer.span_start)
    names = [tracer.names[i] for i in tracer.span_name]
    assert names[:3] == ["hexablock.hexa_classify", "tetrablock.tetra_classify",
                         "domain_f.f_classify"]
    child_s = [0.0] * n
    for i in range(n):
        if tracer.span_parent[i] >= 0:
            child_s[tracer.span_parent[i]] += tracer.span_end[i] - tracer.span_start[i]
    # no hot kernel runs under this point, so child spans cover everything
    for i in range(n):
        dur = tracer.span_end[i] - tracer.span_start[i]
        assert abs(tracer.span_self[i] - (dur - child_s[i])) < 1e-12
        assert tracer.span_self[i] >= 0.0


# ---------------------------------------------------------------------------
# tiny-size smoke runs

def _smoke(wl, traced=False):
    log = run.Log(keep=True)
    tracer = tracing.Tracer()
    installed = tracing.install(tracer) if traced else None
    try:
        run.warm_up(wl, log)
    finally:
        if installed is not None:
            installed.remove()
    problems = dict(log.problems)
    for index, problem in wl.finish():
        problems.setdefault(index, []).append(problem)
    assert problems == {}
    assert len(log.times) == wl.cycle and all(n > 0 for n in log.items)
    return tracer


def test_slice_gallery_smoke():
    tracer = _smoke(workloads.SliceGallery(seed=5, grid=5), traced=True)
    values = metrics.layer_metrics(tracer, 1.0, 6 * 25, 0.0, 1.0)
    assert values["cli.main.self_us_per_cell"][0] > 0.0
    assert values["pentablock.penta_sup.calls"][0] > 0


def test_slice_check_catches_a_changed_margin():
    wl = workloads.SliceGallery(seed=5, grid=5)
    op = wl.next_op()
    code, text = wl.run(op)
    rows = text.splitlines()
    i, j = op["cells"][0]
    fields = rows[1 + i * 5 + j].split("\t")
    fields[3] = repr(math.nextafter(float(fields[3]), math.inf))
    rows[1 + i * 5 + j] = "\t".join(fields)
    assert wl.check(op, (code, "\n".join(rows)), 0) == []
    assert [index for index, _ in wl.finish()] == [0]


def test_verify_geometry_smoke():
    _smoke(workloads.VerifyGeometry(seed=5, n_samples=10))


def test_mu_mix_smoke():
    wl = workloads.MuMix(seed=5)
    tracer = _smoke(wl, traced=True)
    values = metrics.layer_metrics(tracer, 1.0, wl.cycle, 0.0, 1.0)
    assert values["mu.mu_value.calls"][0] == len(workloads.MU_ORDER)
    assert values["matrix2.operator_norm.per_mu_value"][0] > 0


def test_mu_check_catches_a_wrong_value():
    wl = workloads.MuMix(seed=5)
    op = wl.next_op()
    while op["call"] != "mu_value" or op["preset"] != "full":
        op = wl.next_op()
    out = wl.run(op)
    assert wl.check(op, out, 0) == []
    wrong = mublocks.mu.MuResult(value=out.value * 1.001, minimizer=out.minimizer,
                                 status=out.status)
    assert wl.check(op, wrong, 0)


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the metrics the runs print

def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [tuple(row) for row in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(row) for row in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
