"""The library names that the benchmark harness patches or calls still exist.

``perfbench/spans.py`` patches every ``(owner, attribute)`` of its
``_sites()``, and ``perfbench/workloads.py`` switches the kernel backend and
reads the region-mask cache.  A change that deletes or renames one of these
names breaks the benchmark without failing any other test here.  The harness
module is loaded without writing bytecode next to it.
"""

import importlib.util
import sys
from pathlib import Path

from cliffcalc import kernels

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_patched_site_resolves(monkeypatch):
    sites = load_spans(monkeypatch)._sites()
    assert sites
    for owner, attr, name, _, _ in sites:
        # install() reads a class attribute from the class's own __dict__
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        assert found, f"{owner.__name__}.{attr} (span {name})"


def test_the_kernel_switches_the_harness_calls_exist():
    assert callable(kernels.set_backend)
    assert callable(kernels.active_backend)
    assert callable(kernels.region_masks.cache_info)
