#!/usr/bin/env python3
"""Time the working tree's cliffcalc against an earlier revision's, in one process.

``--parent REV`` exports that revision's ``src/cliffcalc`` with
``git archive`` into a temporary directory and imports it as the package
``cliffcalc_parent``, beside the working tree's ``cliffcalc``, and times
named micro-ops on both, in interleaved rounds through
``bench_calc.interleaved_rounds``, the timer both other benchmark scripts
use: each round times one pass of every op under each tree, in a seeded
shuffled order, so a slow spell of the machine reaches both trees alike.
The ops are 1x1, 4x4 and 9x9 geometric products in Cl(3,1) at dimension 6,
a 4x4 left contraction in Cl(6,4) and a 4x4 wedge at dimension 12, one
acceptance-criterion-7 identity, a high_index-sized geometric product, left
contraction and wedge (45x45 terms, indices up to 200, Cl(100,60)), a
512x512 geometric product in Cl(6,4) at dimension 10 (the packed kernel),
calculator lines through ``run_command`` on values with indices up to 12,
and the other callers of ``multivector.sum_terms``, the finisher that every
builder of terms ends in: ``+`` of 4+4 terms at dimension 6, of 45+45 terms
with indices up to 200 and of 512+512 terms at dimension 10, and
``parse_multivector`` on a 6-term literal line.  Both trees get the same
operands, built once by the working tree's ``random_multivector`` and
passed to each ``Multivector`` as index tuples.

For each op it prints the median time per item under each tree, the median
over the rounds of change/parent time (below 1 the working tree is faster)
and in how many rounds the working tree was faster.  Run from the repository
root:

    PYTHONPATH=src python benchmarks/ab.py --parent HEAD
    PYTHONPATH=src python benchmarks/ab.py --parent HEAD~3 --repeats 31
"""

import argparse
import importlib.util
import io
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

import cliffcalc
from cliffcalc.rand import RandomSpec, random_multivector

from bench_calc import interleaved_rounds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARENT_PACKAGE = "cliffcalc_parent"


def import_revision(rev: str, into: str):
    """``rev``'s ``src/cliffcalc``, exported into ``into`` and imported as
    :data:`PARENT_PACKAGE`."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src/cliffcalc"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # Python releases without extraction filters ignore this attribute
        tar.extraction_filter = getattr(tarfile, "data_filter", None)
        tar.extractall(into)
    package = os.path.join(into, "src", "cliffcalc")
    spec = importlib.util.spec_from_file_location(
        PARENT_PACKAGE, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[PARENT_PACKAGE] = module
    spec.loader.exec_module(module)
    return module


def terms(num_terms: int, seed: int, dimension: int = 6, include_fewer: bool = False) -> dict:
    """A random multivector's terms, as index tuples any tree's ``Multivector`` takes."""
    mv = random_multivector(RandomSpec(dimension=dimension, max_grade=min(5, dimension),
                                       num_terms=num_terms, include_fewer=include_fewer, seed=seed))
    return dict(mv.terms())


def micro_ops(cc) -> dict:
    """name -> (call, items) of every op, on the package ``cc``."""
    mv = cc.Multivector
    cl31 = cc.Signature(3, 1)

    def product_pairs(num_terms: int) -> list:
        return [(mv(terms(num_terms, 2 * k)), mv(terms(num_terms, 2 * k + 1))) for k in range(20)]

    def products(num_terms: int) -> tuple:
        return lambda ab: cc.geometric_product(*ab, cl31), product_pairs(num_terms)

    def add(ab):
        return ab[0] + ab[1]

    triples = [tuple(mv(terms(9, 3 * k + side, include_fewer=True)) for side in range(3))
               for k in range(20)]

    def identity(abc):
        a, b, c = abc
        return cc.left_contraction(a, cc.left_contraction(b, c, cl31), cl31) == \
            cc.left_contraction(cc.wedge(a, b), c, cl31)

    wide = [(mv(terms(4, 300 + 2 * k, dimension=12)), mv(terms(4, 301 + 2 * k, dimension=12)))
            for k in range(20)]
    cl64 = cc.Signature(6, 4)
    high = [(mv(terms(45, 100 + k, dimension=200, include_fewer=True)),
             mv(terms(45, 200 + k, dimension=200, include_fewer=True))) for k in range(2)]
    high_sig = cc.Signature(100, 60)
    # include_fewer: grade 5 alone holds only 252 blades at dimension 10
    large = [(mv(terms(512, 400 + 2 * k, dimension=10, include_fewer=True)),
              mv(terms(512, 401 + 2 * k, dimension=10, include_fewer=True))) for k in range(2)]
    session = cc.repl.Session(signature=cl31)
    for line in ("x = 1 + 2e_1 - 3e[2,11] + 0.5e[1,3,12]", "y = 4e_2 + e[7,12] - 2e_345 + 3e_9"):
        cc.repl.run_command(line, session)
    lines = ["x * y", "x ^ y", "x _| y", "t = 3e_12 - 2e_3 + e_45"]
    return {
        "1x1 Cl(3,1)": products(1),
        "4x4 Cl(3,1)": products(4),
        "9x9 Cl(3,1)": products(9),
        "4x4 Cl(6,4) dim 12": (lambda ab: cc.left_contraction(*ab, cl64), wide),
        "4x4 wedge dim 12": (lambda ab: cc.wedge(*ab), wide),
        "criterion 7": (identity, triples),
        "high_index 45x45": (lambda ab: cc.geometric_product(*ab, high_sig), high),
        "high_index 45x45 _|": (lambda ab: cc.left_contraction(*ab, high_sig), high),
        "high_index 45x45 ^": (lambda ab: cc.wedge(*ab), high),
        "512x512 dim 10": (lambda ab: cc.geometric_product(*ab, cl64), large),
        "calc line": (lambda line: cc.repl.run_command(line, session), lines),
        "4+4 dim 6": (add, product_pairs(4)),
        "high_index 45+45": (add, high),
        "512+512 dim 10": (add, large),
        "parse 6 terms": (cc.parse_multivector, ["+ 1 + 2e_1 - 3e[2, 11] + 0.5e[1, 3, 12] - 4e_2 + e[7, 12]"]),
    }


def compare_times(parent, repeats: int) -> None:
    rows = {(tree, name): row
            for tree, cc in (("parent", parent), ("change", cliffcalc))
            for name, row in micro_ops(cc).items()}
    rounds = interleaved_rounds(rows, repeats)
    names = dict.fromkeys(name for _, name in rows)
    print(f"median of {repeats} interleaved rounds, microseconds per item")
    header = f"{'op':<22}{'parent us':>11}{'change us':>11}{'change/parent':>15}{'faster':>9}"
    print(header)
    print("-" * len(header))
    for name in names:
        before, after = rounds[("parent", name)], rounds[("change", name)]
        ratio = statistics.median(b / a for a, b in zip(before, after))
        faster = sum(b < a for a, b in zip(before, after))
        print(f"{name:<22}{statistics.median(before) * 1e6:>11.2f}{statistics.median(after) * 1e6:>11.2f}"
              f"{ratio:>15.3f}{f'{faster}/{repeats}':>9}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, metavar="REV", help="git revision to compare against")
    parser.add_argument("--repeats", type=int, default=15, help="timed rounds")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        parent = import_revision(args.parent, tmp)
        print(f"parent {args.parent} against the working tree")
        compare_times(parent, args.repeats)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
