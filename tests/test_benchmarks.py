"""Smoke runs of the benchmark scripts at toy sizes.

The scripts reach into private names of the library (``products._per_pair``,
``products._packed``, the ``_SMALL_*`` cutoffs, ``kernels.pair_table``,
``kernels.region_masks``, ``kernels.FILTER_*``), so a refactor can break them
without any other test noticing.  Each run checks the exit code and the
header the script prints; the timings themselves are not checked.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("args, header", [
    (("benchmarks/bench_products.py", "--sizes", "8,16", "--repeats", "1"),
     ("terms", "pairs", "python", "numpy", "kernel", "lc python", "wedge numpy")),
    (("benchmarks/bench_products.py", "--cutoffs", "--repeats", "1"),
     ("median per-pair/packed over signatures and dimensions",
      "_SMALL_PAIRS (now", "_SMALL_WEDGE_PAIRS (now", "_SMALL_CONTRACTION_PAIRS (now")),
    (("benchmarks/bench_calc.py", "--lines", "20", "--repeats", "1"),
     ("20 lines,", "layer", "tokenize", "render", "run_command", "literal", "command")),
], ids=["sweep", "cutoffs", "calc"])
def test_benchmark_script_runs(args, header):
    out = run_script(*args)
    for text in header:
        assert text in out
