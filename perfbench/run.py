#!/usr/bin/env python3
"""Layered benchmark of cliffcalc: one closed-loop client, one thread.

Run from the repository root::

    python3 perfbench/run.py --workload small_identities --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.  Op
times are each distinct op's fastest run in the timed phase, and every time
is scaled to a reference machine speed read by a yardstick (:class:`Yardstick`)
run alongside; see NOTES.md, "Noise".
``--trace 1`` runs half the time untraced and half with the span wrappers of
``spans.py`` installed, and reports the per-layer metrics plus the tracing
overhead (untraced against traced ops per second).

Every op's result is checked against a reference computed before the timed
phase; a mismatch or an exception is a failed op.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A run record (environment, inputs, reference, samples) is written under
``.perfbench/runs/`` in the repository root, and for traced runs the spans too.
"""

from __future__ import annotations

import argparse
import json
from array import array
from collections import Counter
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from time import perf_counter_ns

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Fresh processes that time set-up, besides the measuring process itself;
#: half run before the timed phase and half after it, so that the median
#: does not rest on one moment of a machine whose speed drifts.
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 120
MAX_ERRORS_KEPT = 5

#: The timed phase runs the yardstick once per this many nanoseconds.
YARDSTICK_EVERY_NS = 50_000_000
#: Yardstick runs right after each set-up, to scale that set-up time.
YARDSTICK_SETUP_RUNS = 30
#: Mean time of one yardstick run, in ns, at the usual speed of the machine
#: the benchmark was built on (2-CPU Intel Xeon VM, Python 3.11, NumPy 2.4).
#: Reported times are scaled to it.
YARDSTICK_REF_NS = 380_000

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_us": "us", "op_p90_us": "us",
    "ok_frac": "ratio", "peak_rss_mib": "MiB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_pair"):
        return "ns"
    if name.endswith(".chars"):
        return "chars"
    if name.startswith("trace.ops_per_s"):
        return "1/s"
    if name.endswith(("calls", "pairs", "terms_out", "errors", "spans")):
        return "count"
    return "ratio"


def set_up(name: str, seed: int, workdir: str, rec: spans.Recorder | None = None):
    """Import the library, build the inputs and run one warm-up op.

    Returns ``(workload, seconds)``.  With a recorder, the building is traced
    (as op ``spans.SETUP_OP``) and the time is not a set-up measurement.
    """
    start = time.perf_counter()
    workloads.import_library(ROOT)
    undo = spans.install(rec) if rec is not None else []
    try:
        workload = workloads.build(name, seed, workdir)
        workload.warm_up()
    finally:
        spans.uninstall(undo)
    return workload, time.perf_counter() - start


class Yardstick:
    """Fixed work that shares no code with cliffcalc, timed to read the machine's speed.

    On a shared machine the same code runs up to ~1.7x slower at some times
    than at others (NOTES.md, "Noise").  Runs of this work are interleaved
    with the timed ops, and reported times are multiplied by :meth:`scale`, so
    that they read as on this machine at its reference speed.  The work is a
    NumPy sort of 50 000 integers (400 KB): its time followed the slowdowns of
    the library's ops more closely than a pure-Python loop's did.  Each run
    sorts twice and times the second sort, so that what the ops before it
    left in the caches does not set its time.
    """

    def __init__(self):
        import numpy

        self._sort = numpy.sort
        self._array = numpy.random.default_rng(0).integers(0, 1 << 40, 50_000)
        self.samples_ns = array("q")
        self._work()  # the first run pays one-off costs and is not kept

    def _work(self) -> None:
        self._sort(self._array)

    def run(self) -> int:
        """Make one run, keep its time, and return the nanoseconds it took in all."""
        t0 = perf_counter_ns()
        self._work()  # brings the array back into the caches
        t1 = perf_counter_ns()
        self._work()
        t2 = perf_counter_ns()
        self.samples_ns.append(t2 - t1)
        return t2 - t0

    def scale(self) -> float:
        """Reference time per measured time: below 1 when the machine runs slow."""
        return YARDSTICK_REF_NS / statistics.fmean(self.samples_ns)


def setup_scale() -> float:
    """The yardstick's scale read right after a set-up."""
    stick = Yardstick()
    for _ in range(YARDSTICK_SETUP_RUNS):
        stick.run()
    return stick.scale()


class Phase:
    """Outcome of one timed phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies_ns = array("q")  # no int objects, so memory stays flat
        self.op_index = array("q")      # which op of ``Workload.ops`` each latency is
        self.busy_ns = 0  # phase wall time minus checking results and yardstick runs
        self.errors: list[str] = []
        self.peak_rss_mib = 0.0  # of this process, read when the phase ends

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(message)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies_ns) / (self.busy_ns / 1e9) if self.busy_ns else 0.0

    def best_us(self) -> list[float]:
        """Each op's fastest successful run, in microseconds, one value per op that succeeded."""
        best: dict[int, int] = {}
        for i, ns in zip(self.op_index, self.latencies_ns):
            if ns < best.get(i, ns + 1):
                best[i] = ns
        return [ns / 1e3 for ns in best.values()]


def run_phase(workload: workloads.Workload, seconds: float,
              rec: spans.Recorder | None = None,
              yardstick: Yardstick | None = None) -> Phase:
    """Closed loop over the workload's ops until ``seconds`` have passed.

    Each op is timed alone; checking its result is outside the op's latency
    and is subtracted from the phase time that ops per second divides by, as
    are the yardstick runs made between ops.
    """
    phase = Phase()
    ops = workload.ops
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    check_ns = 0
    next_yardstick = start
    k = 0
    while True:
        op = ops[k % len(ops)]
        run = op.run if rec is None else (lambda op_id=k, fn=op.run: rec.run_op(op_id, fn))
        k += 1
        phase.attempted += 1
        t0 = perf_counter_ns()
        try:
            result = run()
        except Exception as err:  # every exception is a failed op, never dropped
            t1 = perf_counter_ns()
            phase.fail(f"op {op.key!r}: {type(err).__name__}: {err}")
        else:
            t1 = perf_counter_ns()
            if workload.check(op, result):
                phase.latencies_ns.append(t1 - t0)
                phase.op_index.append((k - 1) % len(ops))
            else:
                phase.fail(f"op {op.key!r}: got {workload.normalise(result)!r}, "
                           f"expected {op.expected!r}")
            check_ns += perf_counter_ns() - t1
        if yardstick is not None and t1 >= next_yardstick:
            check_ns += yardstick.run()
            next_yardstick = t1 + YARDSTICK_EVERY_NS
        if t1 >= deadline:
            break
    phase.busy_ns = perf_counter_ns() - start - check_ns
    phase.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return phase


def setup_probe_times(name: str, seed: int, count: int) -> list[tuple[float, float]]:
    """``(scaled, raw)`` set-up seconds measured in ``count`` fresh processes."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((probe["setup_s"], probe["raw_s"]))
    return times


def environment() -> dict:
    import importlib.util

    import numpy
    from cliffcalc import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": kernels.active_backend(),
        "CLIFFCALC_BACKEND": os.environ.get("CLIFFCALC_BACKEND"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _p50_p90(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values or [0.0])[0], (values or [0.0])[0]
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def end_to_end(phase: Phase, setup_times: list[float], scale: float) -> dict[str, float]:
    """The end-to-end metrics: op times are each op's best run, times ``scale``.

    ``setup_times`` are scaled already.  See NOTES.md, "Noise".
    """
    best = [us * scale for us in phase.best_us()]
    p50, p90 = _p50_p90(best)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(best) / (sum(best) / 1e6) if best else 0.0,
        "op_p50_us": p50,
        "op_p90_us": p90,
        "ok_frac": (phase.attempted - phase.failed) / phase.attempted,
        "peak_rss_mib": phase.peak_rss_mib,
    }


def wall_clock(phase: Phase) -> dict[str, float]:
    """Throughput and latency over every run of every op, kept in the run record."""
    p50, p90 = _p50_p90([ns / 1e3 for ns in phase.latencies_ns])
    runs = statistics.median(Counter(phase.op_index).values()) if phase.op_index else 0
    return {"ops_per_s": phase.ops_per_s, "op_p50_us": p50, "op_p90_us": p90,
            "distinct_ops": len(set(phase.op_index)), "runs_per_op_median": runs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up and print it (used by the benchmark itself)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.setup_probe:
            _, seconds = set_up(args.workload, args.seed, workdir)
            scaled = seconds * setup_scale()
            print(json.dumps({"setup_s": scaled, "raw_s": seconds}))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str) -> int:
    traced = bool(args.trace)
    setups = [] if traced else setup_probe_times(args.workload, args.seed, SETUP_PROBES // 2)
    rec = spans.Recorder() if traced else None
    workload, seconds = set_up(args.workload, args.seed, workdir, rec)
    if not traced:
        setups.append((seconds * setup_scale(), seconds))

    ref_start = time.perf_counter()
    workload.compute_references()
    ref_seconds = time.perf_counter() - ref_start

    if traced:
        plain = run_phase(workload, args.seconds / 2)
        undo = spans.install(rec)
        try:
            phase = run_phase(workload, args.seconds / 2, rec)
        finally:
            spans.uninstall(undo)
        from cliffcalc import kernels

        metrics = spans.per_layer(rec, kernels.region_masks.cache_info())
        metrics["trace.ops_per_s_untraced"] = plain.ops_per_s
        metrics["trace.ops_per_s_traced"] = phase.ops_per_s
        metrics["trace.overhead"] = plain.ops_per_s / phase.ops_per_s if phase.ops_per_s else 0.0
        attempted = plain.attempted + phase.attempted
        failed = plain.failed + phase.failed
        errors = plain.errors + phase.errors
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        yardstick = Yardstick()
        phase = run_phase(workload, args.seconds, yardstick=yardstick)
        setups += setup_probe_times(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
        metrics = end_to_end(phase, [scaled for scaled, _ in setups], yardstick.scale())
        attempted, failed, errors = phase.attempted, phase.failed, phase.errors
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(), "reference": workload.reference,
        "reference_s": ref_seconds, "inputs": workload.describe,
        "setup_samples_s": [scaled for scaled, _ in setups],
        "setup_raw_samples_s": [raw for _, raw in setups],
        "yardstick": None if traced else {
            "ref_ns": YARDSTICK_REF_NS, "runs": len(yardstick.samples_ns),
            "mean_ns": statistics.fmean(yardstick.samples_ns),
            "median_ns": statistics.median(yardstick.samples_ns), "scale": yardstick.scale()},
        "latency_samples": len(phase.latencies_ns),
        "wall_clock": wall_clock(phase),
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "errors": errors, "metrics": metrics,
    }
    stem = os.path.join(OUT_DIR, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(os.path.dirname(stem), exist_ok=True)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    if rec is not None:
        rec.write(stem + ".spans.jsonl.gz")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} reference={workload.reference} "
          f"attempted={attempted} failed={failed} failed_frac={failed / attempted:.6g} "
          f"latency_samples={len(phase.latencies_ns)}")
    print("# env " + json.dumps(record["env"]))
    for error in errors:
        print(f"# FAILED {error}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
