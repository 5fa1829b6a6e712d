"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

With --trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run.  `--workload all`
runs every workload, each in a fresh process, and prints one table row per
metric.  The exit code is 0 when every output check passed, 1 when one
failed, and 2 when the program cannot be imported.
"""

from __future__ import annotations

import os

# One thread per process: numpy must not start a BLAS pool.  Set before
# anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import select
import statistics
import subprocess
import sys
import threading
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("slice_gallery", "verify_geometry", "mu_mix")
SETUP_REPEATS = 15
# Reference timings taken before and after each set-up probe.
SETUP_REFS = 3
CHILD_TIMEOUT_S = 170
# Timings are scaled to the machine speed at which the reference work below
# takes REFERENCE_NOMINAL_S (its typical time on the 2-core box the bounds
# were set on), because that box's speed drifts by up to 40 % between
# 30-second windows.
REFERENCE_NOMINAL_S = 2.2e-3
_REFERENCE_MATRIX = np.arange(12.0).reshape(4, 3)


def _import_program():
    """Import the package from the checkout's src/ and the benchmark modules."""
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import metrics
        import tracing
        import workloads
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        sys.exit(2)
    return workloads, tracing, metrics


class Log:
    """Times, work items and problems of the operations run so far.  Outputs
    are kept only when `keep` is set, so that memory does not grow with the
    number of operations in an untraced run."""

    def __init__(self, keep: bool = False):
        self.keep = keep
        self.times: list[float] = []
        self.items: list[int] = []
        self.kinds: list[str] = []
        self.records: list[tuple] = []   # (op, out) of each operation, if kept
        self.problems: dict[int, list[str]] = {}

    def execute(self, wl, op, index: int) -> None:
        self.kinds.append(wl.kind(op))
        t0 = time.perf_counter()
        try:
            out = wl.run(op)
        except Exception:   # an operation that raises is a failed operation
            self.times.append(time.perf_counter() - t0)
            self.items.append(0)
            self.problems.setdefault(index, []).append(traceback.format_exc(limit=4))
            out = None
        else:
            self.times.append(time.perf_counter() - t0)
            self.items.append(wl.items(op, out))
            problems = wl.check(op, out, index)
            if problems:
                self.problems.setdefault(index, []).extend(problems)
        if self.keep:
            self.records.append((op, out))


def reference_s() -> float:
    """Time of fixed reference work: the machine's current speed.  The work
    mixes interpreted arithmetic, small numpy calls and the allocation of
    small objects, as the package does.  Arithmetic and numpy alone slowed
    down by less than the package when the box slowed down; with the
    allocation the two move together."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(5_000):
        acc += i * i
    for _ in range(20):
        np.linalg.svd(_REFERENCE_MATRIX, compute_uv=False)
    table = {}
    for i in range(500):
        a = np.zeros(8)
        a[i % 8] = i
        table[i] = (a.sum(), [i, str(i)])
    return time.perf_counter() - t0


def speed_factor(refs: list) -> float:
    """REFERENCE_NOMINAL_S over the 10 %-trimmed mean of the reference times."""
    xs = sorted(refs)
    cut = len(xs) // 10
    return REFERENCE_NOMINAL_S / statistics.fmean(xs[cut:len(xs) - cut])


def measure(wl, seconds: float, log: Log, first_index: int, refs: list,
            min_ops: int = 1) -> None:
    """Issue operations one at a time for `seconds`, and past that until at
    least `min_ops` ran, ending on a whole cycle so that every operation kind
    has its fixed share.  The reference loop runs, untimed, before each
    operation."""
    n = 0
    start = time.perf_counter()
    while n % wl.cycle or n < min_ops or time.perf_counter() - start < seconds:
        refs.append(reference_s())
        log.execute(wl, wl.next_op(), first_index + n)
        n += 1


def warm_up(wl, log: Log) -> int:
    """One untimed cycle, checked like any other."""
    for i in range(wl.cycle):
        log.execute(wl, wl.next_op(), i)
    return wl.cycle


def probe_seconds(workload: str, seed: int) -> float:
    """Seconds from spawning setup_probe.py until its "ready" line arrives.
    Exits with the probe's code if it fails, as when the program is missing."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = proc.stdout.readline() if readable else b""
        elapsed = time.perf_counter() - t0
        if line.strip() != b"ready":
            proc.kill()
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != b"ready":
        sys.stderr.write(err.decode(errors="replace"))
        sys.exit(proc.returncode or 1)
    return elapsed


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up times of SETUP_REPEATS fresh processes, each scaled to nominal
    speed by the reference timings taken just before and after it."""
    out = []
    for _ in range(SETUP_REPEATS):
        refs = [reference_s() for _ in range(SETUP_REFS)]
        elapsed = probe_seconds(workload, seed)
        refs += [reference_s() for _ in range(SETUP_REFS)]
        out.append(elapsed * REFERENCE_NOMINAL_S / statistics.median(refs))
    return out


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python_threads": threading.active_count(),
        "cpu_model": None,
        "os_threads": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    env["os_threads"] = int(line.split()[1])
    except OSError:
        pass
    return env


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def _finish(wl, log: Log) -> tuple[int, int]:
    for index, problem in wl.finish():
        log.problems.setdefault(index, []).append(problem)
    for index in sorted(log.problems):
        for problem in log.problems[index]:
            print(f"operation {index} failed: {problem}", file=sys.stderr)
    return len(log.times), len(log.problems)


def run_untraced(name: str, seed: int, seconds: float) -> int:
    setup = statistics.median(setup_seconds(name, seed))
    workloads, _, metrics = _import_program()
    wl = workloads.WORKLOADS[name](seed)
    log = Log()
    n_warm = warm_up(wl, log)
    timed_from = len(log.times)
    refs: list[float] = []
    measure(wl, seconds, log, n_warm, refs, metrics.min_samples(wl.tail_p))
    times = log.times[timed_from:]
    items = sum(log.items[timed_from:])
    if metrics.samples_beyond(len(times), wl.tail_p) < metrics.TAIL_MIN_BEYOND:
        log.problems.setdefault(timed_from, []).append(
            f"{len(times)} operations leave fewer than {metrics.TAIL_MIN_BEYOND} "
            f"beyond p{wl.tail_p}")
    attempted, failed = _finish(wl, log)
    lat = metrics.latency(times, log.kinds[timed_from:], wl.tail_p)
    raw = {"items_per_s": items / sum(times),
           "op_p50_ms": lat["p50"] * 1e3, "op_tail_ms": lat["tail"] * 1e3}
    speed = speed_factor(refs)
    values = {
        "setup_s": (setup, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                         "MiB"),
        "items_per_s": (raw["items_per_s"] / speed, "1/s"),
        "op_p50_ms": (raw["op_p50_ms"] * speed, "ms"),
        "op_tail_ms": (raw["op_tail_ms"] * speed, "ms"),
    }
    print(json.dumps({"detail": {
        "workload": name, "seed": seed, "env": environment(),
        "operations_timed": len(times), "items_timed": items,
        "tail_percentile": wl.tail_p, "failed_ops_frac": failed / attempted,
        "reference_ms": REFERENCE_NOMINAL_S / speed * 1e3,
        "speed_factor": speed, "unscaled": raw}}))
    print(result_line(failed == 0, attempted, failed, values))
    return 0 if failed == 0 else 1


def run_traced(name: str, seed: int, seconds: float) -> int:
    """Untraced half, then the same operations replayed under tracing; the
    ratio of their scaled times is the tracing overhead."""
    workloads, tracing, metrics = _import_program()
    wl = workloads.WORKLOADS[name](seed)
    log = Log(keep=True)
    n_warm = warm_up(wl, log)
    plain_from = len(log.times)
    plain_refs: list[float] = []
    measure(wl, seconds / 2.0, log, n_warm, plain_refs)
    plain = log.records[plain_from:]

    tracer = tracing.Tracer()
    traced_refs: list[float] = []
    installed = tracing.install(tracer)
    traced_from = len(log.times)
    try:
        for k, (op, _) in enumerate(plain):
            traced_refs.append(reference_s())
            log.execute(wl, op, traced_from + k)
    finally:
        installed.remove()
    traced = log.records[traced_from:]
    for k, ((_, before), (_, after)) in enumerate(zip(plain, traced)):
        if plain_from + k in log.problems or traced_from + k in log.problems:
            continue   # already failed
        if wl.fingerprint(before) != wl.fingerprint(after):
            log.problems[traced_from + k] = ["output changed under tracing"]
    attempted, failed = _finish(wl, log)
    speed = speed_factor(traced_refs)
    traced_s = sum(log.times[traced_from:])
    overhead = (traced_s * speed) / (sum(log.times[plain_from:traced_from])
                                     * speed_factor(plain_refs)) - 1.0
    values = metrics.layer_metrics(tracer, traced_s, sum(log.items[traced_from:]),
                                   overhead, speed)
    print(json.dumps({"detail": {"workload": name, "seed": seed,
                                 "env": environment(),
                                 "operations_traced": len(traced)}}))
    print(result_line(failed == 0, attempted, failed, values))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in a fresh process; one table row per metric."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S * 3, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exited {proc.returncode}")
            status = 1
            if not lines:
                continue
        result = json.loads(lines[-1])
        attempted, failed = result["attempted"], result["failed"]
        print(f"{name:16s} {'failed_ops_frac':44s} {failed / attempted:14.6g} "
              f"frac   ({failed}/{attempted}, correct={result['correct']})")
        for metric, rec in result["metrics"].items():
            print(f"{name:16s} {metric:44s} {rec['value']:14.6g} {rec['unit']}")
        if not result["correct"] or failed:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.trace:
        return run_traced(args.workload, args.seed, args.seconds)
    return run_untraced(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
