"""Per-layer tracing installed from outside the package.

`install` swaps wrappers into every namespace that holds a traced function
(modules bind imported names, so one function can live in several places)
and `Installation.remove` puts the originals back.  No module of the package
is edited.

Each wrapped call is a frame on one stack.  Ordinary calls are recorded as
spans (name, start, end, parent span); a span's self time is its duration
minus the time its direct children cover.  Hot kernels -- `operator_norm`,
`singular_values` and every Nelder-Mead objective -- run millions of times,
so they are aggregated in place as count, total and self time instead of
being recorded one by one, which keeps memory bounded.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

# (module, function) pairs recorded as spans.
SPAN_TARGETS = (
    ("bidisc", "g2_classify"),
    ("tetrablock", "tetra_classify"),
    ("pentablock", "penta_classify"),
    ("pentablock", "penta_sup"),
    ("domain_f", "f_classify"),
    ("domain_f", "f_classify_matrix_oracle"),
    ("hexablock", "hexa_classify"),
    ("hexablock", "hn_classify"),
    ("hexablock", "psi_sup"),
    ("lie_ball", "lie_ball_classify"),
    ("lie_ball", "nearest_transport_distance"),
    ("lie_ball", "transported_lattice"),
    ("mu", "rigidity_check"),
    ("matrix2", "gram_report"),
    ("cli", "main"),
)
HOT_TARGETS = (
    ("matrix2", "operator_norm"),
    ("matrix2", "singular_values"),
)
# Modules that bind nelder_mead themselves; calls are split by this caller.
NM_CALLERS = ("mu", "pentablock", "lie_ball", "hexablock")
MU_PRESETS = ("scalar", "diag", "upper", "lower", "full", "skewdiag", "e_theta")


def preset_of(structure) -> str:
    name = getattr(structure, "name", "") or ""
    if name.startswith("e_theta:"):
        return "e_theta"
    return name if name in MU_PRESETS else "other"


class Tracer:
    """Span recorder with in-place aggregation for hot kernels."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self.hot: dict[str, list] = {}          # name -> [count, total, self]
        self.hot_by_root: Counter = Counter()   # (hot name, root span name)
        self.counts: Counter = Counter()        # outcome counters
        # frames: [seconds covered by direct children, span index or -1]
        self._stack: list[list] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as a span named `name`."""
        stack = self._stack
        parent = -1
        for frame in reversed(stack):
            if frame[1] >= 0:
                parent = frame[1]
                break
        idx = len(self.span_start)
        self.span_name.append(self._id(name))
        self.span_parent.append(parent)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_self.append(0.0)
        frame = [0.0, idx]
        stack.append(frame)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            stack.pop()
            dur = t1 - t0
            self.span_start[idx] = t0
            self.span_end[idx] = t1
            self.span_self[idx] = dur - frame[0]
            if stack:
                stack[-1][0] += dur

    def hot_wrapper(self, name: str, fn):
        """Wrapper that aggregates fn's calls under `name` in place."""
        agg = self.hot.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock
        by_root = self.hot_by_root
        names = self.names
        span_name = self.span_name

        def wrapper(*args, **kwargs):
            frame = [0.0, -1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                    root = stack[0][1]
                    if root >= 0:
                        by_root[(name, names[span_name[root]])] += 1

        return wrapper

    def span_wrapper(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def aggregate(self) -> dict[str, dict]:
        """name -> {calls, total_s, self_s} over spans and hot kernels."""
        out: dict[str, dict] = {}
        for i in range(len(self.span_start)):
            rec = out.setdefault(self.names[self.span_name[i]],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += self.span_end[i] - self.span_start[i]
            rec["self_s"] += self.span_self[i]
        for name, (count, total, self_s) in self.hot.items():
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += count
            rec["total_s"] += total
            rec["self_s"] += self_s
        return out


@dataclass
class Installation:
    """The swaps made by `install`, so they can be undone."""

    swaps: list = field(default_factory=list)  # (holder, key, original)

    def put(self, holder, key, value) -> None:
        if isinstance(holder, dict):
            self.swaps.append((holder, key, holder[key]))
            holder[key] = value
        else:
            self.swaps.append((holder, key, getattr(holder, key)))
            setattr(holder, key, value)

    def remove(self) -> None:
        for holder, key, original in reversed(self.swaps):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self.swaps.clear()


def _package_namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mublocks" or name.startswith("mublocks."))]


def _replace_everywhere(inst: Installation, original, wrapper) -> None:
    for module in _package_namespaces():
        for key, value in list(vars(module).items()):
            if value is original:
                inst.put(module, key, wrapper)
            elif isinstance(value, dict):
                for dkey, dval in list(value.items()):
                    if dval is original:
                        inst.put(value, dkey, wrapper)


def install(tracer: Tracer) -> Installation:
    """Wrap every traced function of the imported package."""
    import mublocks.cli  # noqa: F401  (the slice path lives here)

    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _package_namespaces()}
    inst = Installation()
    counts = tracer.counts

    for mod, fn_name in HOT_TARGETS:
        original = getattr(mods[mod], fn_name)
        _replace_everywhere(inst, original,
                            tracer.hot_wrapper(f"{mod}.{fn_name}", original))

    def on_hexa(verdict):
        if verdict.indeterminate:
            counts["hexablock.hexa_classify.indeterminate"] += 1

    def on_rigidity(x):
        if x is not None:
            counts["mu.rigidity_check.found"] += 1

    hooks = {"hexa_classify": on_hexa, "rigidity_check": on_rigidity}
    for mod, fn_name in SPAN_TARGETS:
        original = getattr(mods[mod], fn_name)
        wrapper = tracer.span_wrapper(f"{mod}.{fn_name}", original,
                                      hooks.get(fn_name))
        _replace_everywhere(inst, original, wrapper)

    mu_value = mods["mu"].mu_value

    def traced_mu_value(a, structure, *args, **kwargs):
        result = tracer.call(f"mu.mu_value.{preset_of(structure)}", mu_value,
                             a, structure, *args, **kwargs)
        counts[f"mu.mu_value.status_{result.status}"] += 1
        return result

    _replace_everywhere(inst, mu_value, traced_mu_value)

    run_suite = mods["verify"].run_suite

    def traced_run_suite(name, *args, **kwargs):
        report = tracer.call(f"verify.{name}", run_suite, name, *args, **kwargs)
        counts[f"verify.{name}.band_excluded"] += report.band_excluded
        counts[f"verify.{name}.samples"] += report.n_samples
        return report

    _replace_everywhere(inst, run_suite, traced_run_suite)
    run_counterexamples = mods["verify"].run_counterexamples
    _replace_everywhere(inst, run_counterexamples, tracer.span_wrapper(
        "verify.counterexamples", run_counterexamples))

    nelder_mead = mods["optimize"].nelder_mead
    for caller in NM_CALLERS:
        inst.put(mods[caller], "nelder_mead", _nm_wrapper(tracer, caller, nelder_mead))
    return inst


def _nm_wrapper(tracer: Tracer, caller: str, nelder_mead):
    name = f"optimize.nelder_mead.{caller}"
    counts = tracer.counts

    def traced_nelder_mead(f, x0, step, *args, **kwargs):
        objective = tracer.hot_wrapper(name + ".objective", f)
        result = tracer.call(name, nelder_mead, objective, x0, step,
                             *args, **kwargs)
        counts[name + ".iters"] += result[2]
        if not result[3]:
            counts[name + ".nonconverged"] += 1
        return result

    return traced_nelder_mead
