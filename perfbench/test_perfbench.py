"""Tests of the benchmark itself (not of cliffcalc).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from time import perf_counter_ns

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

workloads.import_library(ROOT)

OPS_CHECKED = 30


def _ops(workload, n=OPS_CHECKED):
    return workload.ops[:n]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_determines_inputs(name, tmp_path):
    first = workloads.build(name, 3, str(tmp_path)).fingerprint()
    again = workloads.build(name, 3, str(tmp_path)).fingerprint()
    other = workloads.build(name, 4, str(tmp_path)).fingerprint()
    assert first == again
    assert first != other


def test_input_guards_hold_and_are_enforced(tmp_path):
    packed = workloads.build("packed_large", 5, str(tmp_path))
    high = workloads.build("high_index", 5, str(tmp_path))
    assert all(mv.max_index() <= workloads.PACK_LIMIT for mv in packed.operands)
    assert all(mv.max_index() > workloads.PACK_LIMIT for mv in high.operands)
    swapped = workloads.Workload("high_index", [], list, "none", operands=packed.operands)
    with pytest.raises(workloads.InputGuardError):
        workloads.check_guards(swapped)


def _site_snapshot():
    return [(owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
            for owner, attr, *_ in spans._sites()]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_trace_wrappers_leave_results_bit_identical(name, tmp_path):
    plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    plain = workloads.build(name, 7, str(plain_dir))
    expected = [plain.normalise(op.run()) for op in _ops(plain)]

    before = _site_snapshot()
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        assert _site_snapshot() != before
        traced = workloads.build(name, 7, str(traced_dir))
        got = [traced.normalise(rec.run_op(k, op.run)) for k, op in enumerate(_ops(traced))]
    finally:
        spans.uninstall(undo)
    assert got == expected
    assert all(a is b for (_, _, a), (_, _, b) in zip(_site_snapshot(), before))
    assert rec.spans, "tracing recorded nothing"


@pytest.mark.parametrize("name", ["small_identities", "high_index", "calc_script"])
def test_self_times_and_gap_sum_to_op_wall_time(name, tmp_path):
    workload = workloads.build(name, 9, str(tmp_path))
    rec = spans.Recorder()
    undo = spans.install(rec)
    walls = {}
    try:
        for k, op in enumerate(_ops(workload)):
            t0 = perf_counter_ns()
            rec.run_op(k, op.run)
            walls[k] = perf_counter_ns() - t0
    finally:
        spans.uninstall(undo)

    self_by_op = dict.fromkeys(walls, 0)
    roots = {}
    for s in rec.spans:
        assert s.end >= s.start
        inline_self = sum(entry[2] for entry in (s.inline or {}).values())
        self_by_op[s.op] += s.self_ns() + inline_self
        if s.name == spans.OP_SPAN:
            roots[s.op] = s
            assert s.self_ns() >= 0  # the untraced gap
    for k, root in roots.items():
        assert self_by_op[k] == root.duration
        assert root.duration <= walls[k]
    assert len(roots) == len(walls)


def test_per_layer_split_matches_the_path_taken(tmp_path):
    """Packed products run the kernel; products above index 64 never do."""
    def traced_metrics(name):
        workload = workloads.build(name, 2, str(tmp_path))
        rec = spans.Recorder()
        undo = spans.install(rec)
        try:
            for k, op in enumerate(_ops(workload, 8)):
                rec.run_op(k, op.run)
        finally:
            spans.uninstall(undo)
        from cliffcalc import kernels

        return spans.per_layer(rec, kernels.region_masks.cache_info())

    high = traced_metrics("high_index")
    assert high["kernels.pair_table.calls"] == 0
    assert high["blade.blade_product.calls"] == high["products.pairs"] > 0
    packed = traced_metrics("packed_large")
    assert packed["products.packed_frac"] == 1.0
    shares = {k: v for k, v in packed.items() if k.startswith("self_share.")}
    assert max(shares, key=shares.get) == "self_share.kernels"


def test_failures_are_counted_never_dropped():
    def boom():
        raise ValueError("boom")

    ops = [workloads.Op(run=boom, key="raises", expected=1),
           workloads.Op(run=lambda: 2, key="wrong", expected=1),
           workloads.Op(run=lambda: 1, key="right", expected=1)]
    workload = workloads.Workload("fake", ops, lambda out: out, "none")
    phase = run.run_phase(workload, 0.02)
    assert phase.attempted >= 3
    assert len(phase.latencies_ns) == phase.attempted // 3  # ops cycle raises, wrong, right
    assert phase.failed == phase.attempted - len(phase.latencies_ns)
    assert any("boom" in e for e in phase.errors) and any("'wrong'" in e for e in phase.errors)


def test_op_times_are_best_runs_scaled_by_the_yardstick():
    phase = run.Phase()
    for op, ns in [(0, 4000), (0, 2000), (1, 6000), (1, 9000)]:
        phase.latencies_ns.append(ns)
        phase.op_index.append(op)
    phase.attempted = 4
    plain = run.end_to_end(phase, [0.2], 1.0)
    assert plain["op_p50_us"] == 4.0  # best runs: 2 us and 6 us
    assert plain["ops_per_s"] == 2 / 8e-6
    slow_machine = run.end_to_end(phase, [0.2], 0.5)
    assert slow_machine["op_p50_us"] == 2.0
    assert slow_machine["ops_per_s"] == 2 * plain["ops_per_s"]
    assert slow_machine["setup_s"] == 0.2  # set-up samples come scaled


def _result(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = _result(["--workload", "calc_script", "--seed", "1", "--seconds", "0.5",
                    "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _result(["--workload", "small_identities", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
