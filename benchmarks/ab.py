#!/usr/bin/env python3
"""Time the working tree's cliffcalc against an earlier revision's, layer by layer.

``--parent REV`` exports that revision's ``src/cliffcalc`` with
``git archive`` into a temporary directory and imports it as the package
``cliffcalc_parent``, beside the working tree's ``cliffcalc``, and times
named ops on both, in interleaved rounds through
:func:`interleaved_rounds`, the timer ``bench_products.py`` imports too:
each round times every op, in a seeded shuffled order, the two trees'
passes over its items taking turns until each tree has run them for
:data:`MIN_PASS_S` (20 ms), so that a slow spell of the machine reaches
both trees alike and an op of a few microseconds is timed over thousands
of calls.

The products: 1x1, 4x4 and 9x9 geometric products in Cl(3,1) at dimension
6, a 4x4 left contraction in Cl(6,4) and a 4x4 wedge at dimension 12, one
acceptance-criterion-7 identity and, on its operands, a 9x9 wedge and a 9x9
left contraction in Cl(3,1), a high_index-sized geometric product, left
contraction and wedge (45x45 terms, indices up to 200, Cl(100,60)), and the
packed kernel at both ends: the 9x9 Cl(3,1) products called straight
through ``kernels.packed_product`` (``81-pair kernel``, the fixed cost of a
kernel call, which no product this small takes by default), each operand
passed in the stored form of its own tree (:func:`stored_terms`), a 512x512
geometric product in Cl(6,4) at dimension 10, and a 1024x1024 one at
dimension 12, whose table spans many row blocks and whose e_11 and e_12
square to 0, so its pairs are masked; and the 512x512 product once more
under ``kernels.set_backend("python")``, on the per-pair path.
Builders of terms other than the products: ``+`` of 4+4 terms at
dimension 6 and of 45+45 terms with indices up to 200, which sum through
``multivector.sum_terms``, and of 512+512 terms at dimension 10, which sums
into slots (``multivector.dense_slots``), and ``parse_multivector`` on a
6-term literal line.  Both trees get the same
operands, built by the working tree's ``random_multivector`` and passed to
each ``Multivector`` as index tuples.

The calculator, on a seeded script that the working tree writes once and
each tree then runs in a ``Session`` of its own under Cl(6,4): six lines
bind ``v0``..``v5`` to dimension-12 literals, then 200 expression lines,
about a quarter literals (2-6 terms, grade <= 3), the rest binary products,
powers and ``grades`` calls of the bound names.  Its layers one at a time,
per line: ``tokenize``, ``tokenize cold`` (the same, every cache of the
tree's ``exprparse`` cleared before each pass over the script, outside the
time), ``parse_expr`` (which includes ``tokenize``),
``eval_expr`` on the parsed trees, and ``render`` of the values; then
whole lines through ``run_command`` by kind: ``literal`` assignments,
printed ``binary`` products, ``power``s, ``grades`` calls,
``:signature``/``:basissep`` ``command``s in a session of their own, and
``star literal``, the README's first line ``x = 1 + 2*e_1 + 3*e_2 +
4*e_23``, whose number-times-blade products the parser folds into terms.

Start-up: fresh interpreters, one of each per round, with ``PYTHONPATH``
set to that tree's ``src``: ``python -c pass``, ``python -c "import
cliffcalc"`` and a two-line ``cliffcalc --script`` (``x = e_1 * e_2``, then
``x * x``) written to the temporary directory.

For each op it prints the median time per item under each tree, the median
over the rounds of change/parent time (below 1 the working tree is faster)
and in how many rounds the working tree was faster.  An op that the parent
revision lacks, ``81-pair kernel`` before ``kernels.packed_product``, is
skipped with a note.

``--diff N`` times nothing and instead runs the lexer differential: ``N``
seeded strings from :func:`diff_line` (literal lines, the comma form at
depth 0 and inside parentheses, brackets with whitespace, the indices 0,
65535 and 65536, over-long digit strings, stray ``)``, non-ASCII digits and
random text) through both trees' ``tokenize``, ``parse_expr`` and
``parse_multivector``.  Per string it compares the tokens, tree or value,
or else the error's class, message, ``position`` and ``expected``, prints
the count of strings that differ and the first few, and exits 1 if any
does.  Run from the repository root:

    PYTHONPATH=src python benchmarks/ab.py --parent HEAD
    PYTHONPATH=src python benchmarks/ab.py --parent HEAD~3 --repeats 31
    PYTHONPATH=src python benchmarks/ab.py --parent HEAD --diff 400000
"""

import argparse
import importlib.util
import io
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

import cliffcalc
from cliffcalc.rand import RandomSpec, random_multivector

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARENT_PACKAGE = "cliffcalc_parent"
NAMES = tuple(f"v{i}" for i in range(6))
OPERATORS = ("*", "^", "_|", "|_")
KINDS = ("literal", "binary", "power", "grades")
#: The README's first calculator line, products written out with ``*``.
STAR_LITERAL = "x = 1 + 2*e_1 + 3*e_2 + 4*e_23"
#: The least time a row's passes take in one round (see :func:`interleaved_rounds`).
MIN_PASS_S = 0.02
COMMANDS = (":signature 3 1", ":basissep ,", ":signature inf", ":basissep",
            ":signature 6 4", ":signature 4")


def interleaved_rounds(rows: dict, repeats: int, before=lambda name: None,
                       min_seconds: float = 0.0, group=None) -> dict:
    """Seconds per item of each row in each of ``repeats`` rounds, after a
    warm-up round that is dropped; a row is (call, items).

    Each round times passes of every row over its items, so a slow spell
    of the machine reaches all the rows alike, in a seeded shuffled order,
    so that no row always follows the same one (the call before leaves the
    caches warm or cold).  A row makes passes until they have taken
    ``min_seconds`` in all, at least one, so that a row of a few
    microseconds is timed over many calls and one scheduler hiccup moves
    its round by little.  Rows with the same ``group(name)`` are timed
    together, their passes taking turns in a shuffled order until each has
    taken ``min_seconds``, so that rows to be compared with each other run
    within milliseconds of each other, and a drift of the machine's speed
    over the round reaches them alike.  ``before(name)`` runs ahead of each
    pass of that row, outside its time.
    """
    times = {name: [] for name in rows}
    groups: dict = {}
    for name, row in rows.items():
        groups.setdefault(name if group is None else group(name), []).append((name, row))
    order = list(groups.values())
    shuffle = random.Random(0).shuffle
    for _ in range(repeats + 1):
        shuffle(order)
        for members in order:
            shuffle(members)
            spent = dict.fromkeys((name for name, _ in members), 0.0)
            passes = dict.fromkeys(spent, 0)
            while min(passes.values()) == 0 or min(spent.values()) < min_seconds:
                for name, (call, items) in members:
                    before(name)
                    start = time.perf_counter()
                    for item in items:
                        call(item)
                    spent[name] += time.perf_counter() - start
                    passes[name] += 1
            for name, (_, items) in members:
                times[name].append(spent[name] / (passes[name] * len(items)))
    return {name: t[1:] for name, t in times.items()}


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


def stored_terms(mv) -> tuple:
    """``mv``'s stored terms, as its own tree's ``kernels.packed_product``
    takes each operand: a list of blade keys and a list of coefficients, or,
    in trees that stored terms as one dict of blade keys, that dict."""
    return (mv._keys, mv._coeffs) if hasattr(mv, "_keys") else (mv._terms,)


def literal(rng: random.Random, include_fewer: bool) -> str:
    """Input text for a random integer-coefficient value of 2-6 terms at
    dimension 12 and grade 3 (at most 3 with ``include_fewer``): ``e_12``
    when every index is a single digit, ``e[2,11]`` otherwise.  Written here
    rather than by ``render`` so the script stays the same when rendering
    changes."""
    mv = random_multivector(RandomSpec(dimension=12, max_grade=3, num_terms=rng.randint(2, 6),
                                       include_fewer=include_fewer, seed=rng.getrandbits(63)))
    parts = []
    for blade, c in mv.terms():
        text = f"{'-' if c < 0 else '+'} {int(abs(c))}"
        if blade and blade[-1] <= 9:
            text += "e_" + "".join(map(str, blade))
        elif blade:
            text += "e[" + ",".join(map(str, blade)) + "]"
        parts.append(text)
    return " ".join(parts)


def calculator_script() -> tuple:
    """The lines that bind :data:`NAMES`, and (kind, line) pairs of the
    script's 200 expression lines."""
    rng = random.Random(2)
    bindings = [f"{name} = {literal(rng, False)}" for name in NAMES]
    rng = random.Random(1)
    lines = []
    for _ in range(200):
        v, u = rng.choice(NAMES), rng.choice(NAMES)
        kind = rng.choices(KINDS, (24, 88, 12, 16))[0]
        if kind == "literal":
            lines.append((kind, literal(rng, True)))
        elif kind == "binary":
            lines.append((kind, f"{v} {rng.choice(OPERATORS)} {u}"))
        elif kind == "power":
            lines.append((kind, f"{v} ** {rng.choice((2, 3))}"))
        else:
            lines.append((kind, f"grades({v} * {u})"))
    return bindings, lines


def micro_ops(cc, script: tuple, startup_script: str) -> dict:
    """name -> (call, items) of every op, on the package ``cc``; ``script``
    is :func:`calculator_script`'s, ``startup_script`` the path of the
    two-line script that start-up runs."""
    mv = cc.Multivector
    cl31 = cc.Signature(3, 1)

    def product_pairs(num_terms: int) -> list:
        # include_fewer: grade 5 alone holds only 6 blades at dimension 6
        pairs = [(mv(terms(num_terms, 2 * k, include_fewer=True)),
                  mv(terms(num_terms, 2 * k + 1, include_fewer=True))) for k in range(20)]
        assert all(x.num_terms() == y.num_terms() == num_terms for x, y in pairs)
        return pairs

    def products(num_terms: int) -> tuple:
        return lambda ab: cc.geometric_product(*ab, cl31), product_pairs(num_terms)

    def kernel(ab):
        a, b = ab
        width = max(a.max_index(), b.max_index())
        return cc.kernels.packed_product(*stored_terms(a), *stored_terms(b), cl31, cc.kernels.FILTER_NONE,
                                         width)

    def add(ab):
        return ab[0] + ab[1]

    def python_backend(ab):
        previous = cc.kernels.set_backend("python")
        try:
            return cc.geometric_product(*ab, cl64)
        finally:
            cc.kernels.set_backend(previous)

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
    larger = [(mv(terms(1024, 500 + 2 * k, dimension=12, include_fewer=True)),
               mv(terms(1024, 501 + 2 * k, dimension=12, include_fewer=True))) for k in range(2)]

    bindings, kinds_and_lines = script
    session = cc.Session(signature=cl64)
    for line in bindings:
        cc.run_command(line, session)
    lines = [line for _, line in kinds_and_lines]
    trees = [cc.parse_expr(line) for line in lines]
    values = [value for value in (cc.eval_expr(tree, session) for tree in trees)
              if isinstance(value, mv)]
    # whole lines: a literal is assigned, as in a script, to a name no other
    # line reads
    by_kind = {kind: [] for kind in KINDS}
    for kind, line in kinds_and_lines:
        by_kind[kind].append(f"t = {line}" if kind == "literal" else line)
    command_session = cc.Session()

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cc.__file__)))

    def start(args):
        subprocess.run([sys.executable, *args], env=env, check=True, stdout=subprocess.DEVNULL)

    return {
        "1x1 Cl(3,1)": products(1),
        "4x4 Cl(3,1)": products(4),
        "9x9 Cl(3,1)": products(9),
        "4x4 Cl(6,4) dim 12": (lambda ab: cc.left_contraction(*ab, cl64), wide),
        "4x4 wedge dim 12": (lambda ab: cc.wedge(*ab), wide),
        "criterion 7": (identity, triples),
        "9x9 wedge dim 6": (lambda abc: cc.wedge(abc[0], abc[1]), triples),
        "9x9 _| dim 6": (lambda abc: cc.left_contraction(abc[0], abc[1], cl31), triples),
        "high_index 45x45": (lambda ab: cc.geometric_product(*ab, high_sig), high),
        "high_index 45x45 _|": (lambda ab: cc.left_contraction(*ab, high_sig), high),
        "high_index 45x45 ^": (lambda ab: cc.wedge(*ab), high),
        # older trees have no packed_product
        **({"81-pair kernel": (kernel, product_pairs(9))} if hasattr(cc.kernels, "packed_product") else {}),
        "512x512 dim 10": (lambda ab: cc.geometric_product(*ab, cl64), large),
        "1024x1024 dim 12": (lambda ab: cc.geometric_product(*ab, cl64), larger),
        "python 512x512 dim 10": (python_backend, large),
        "4+4 dim 6": (add, product_pairs(4)),
        "high_index 45+45": (add, high),
        "512+512 dim 10": (add, large),
        "parse 6 terms": (cc.parse_multivector, ["+ 1 + 2e_1 - 3e[2, 11] + 0.5e[1, 3, 12] - 4e_2 + e[7, 12]"]),
        "tokenize": (cc.exprparse.tokenize, lines),
        # the same lines, every cache of the lexer cleared before each pass
        # (see compare_times)
        "tokenize cold": (cc.exprparse.tokenize, lines),
        "parse_expr": (cc.parse_expr, lines),
        "eval_expr": (lambda tree: cc.eval_expr(tree, session), trees),
        "render": (cc.render, values),
        **{kind: (lambda line: cc.run_command(line, session), by_kind[kind]) for kind in KINDS},
        "command": (lambda line: cc.run_command(line, command_session), list(COMMANDS)),
        "star literal": (lambda line: cc.run_command(line, session), [STAR_LITERAL]),
        "python -c pass": (start, [["-c", "pass"]]),
        "import cliffcalc": (start, [["-c", "import cliffcalc"]]),
        "cliffcalc --script": (start, [["-m", "cliffcalc", "--script", startup_script]]),
    }


def compare_times(parent, repeats: int, startup_script: str) -> None:
    script = calculator_script()
    trees = {"parent": parent, "change": cliffcalc}
    ops = {tree: micro_ops(cc, script, startup_script) for tree, cc in trees.items()}
    # an op that the parent lacks is skipped; every other is timed under both trees
    timed = [name for name in ops["change"] if name in ops["parent"]]

    def clear_cold(key):  # every lru_cache of the tree's exprparse
        tree, name = key
        if name == "tokenize cold":
            for value in vars(trees[tree].exprparse).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    # an op's two trees are timed together, their passes taking turns
    rounds = interleaved_rounds({(tree, name): ops[tree][name] for tree in ops for name in timed}, repeats,
                                clear_cold, MIN_PASS_S, group=lambda key: key[1])
    print(f"median of {repeats} interleaved rounds, microseconds per item")
    header = f"{'op':<22}{'parent us':>11}{'change us':>11}{'change/parent':>15}{'faster':>9}"
    print(header)
    print("-" * len(header))
    for name in ops["change"]:
        if name not in timed:
            print(f"{name:<22}skipped: the parent has no such op")
            continue
        before, after = rounds[("parent", name)], rounds[("change", name)]
        ratio = statistics.median(b / a for a, b in zip(before, after))
        faster = sum(b < a for a, b in zip(before, after))
        print(f"{name:<22}{statistics.median(before) * 1e6:>11.2f}{statistics.median(after) * 1e6:>11.2f}"
              f"{ratio:>15.3f}{f'{faster}/{repeats}':>9}")


#: Pieces of the differential's strings of fragments (see :func:`diff_line`).
FRAGMENTS = ("+", "-", "*", "^", "_|", "|_", "**", "(", ")", ",", ".", "2", ".5", "1e+16", "1e999",
             "0", "x", "v0", "x_", "grade", "e", "e_", "e[", "]", "the zero clifford element (0)",
             "scalar ( -1e-05 )", "\u0663", "\u00b2", "\u00e9", "#", "\t", "\u00a0")
#: The characters of the differential's random text.
TEXT_CHARS = "e_[](),.*^|+-0123456789 \teEax\u0663\u00b2\u00a0"


def diff_index(rng: random.Random) -> str:
    """An index's digits: mostly 1-14, sometimes 0, 65535, 65536, leading
    zeros, a non-ASCII digit or an over-long digit string."""
    pick = rng.random()
    if pick < 0.1:
        return rng.choice(("0", "65535", "65536", "007", "0" * 30 + "12", "9" * 30, "1\u0663"))
    if pick < 0.102:
        return "1" * 5000  # more digits than int() converts
    return str(rng.randint(1, 14))


def diff_blade(rng: random.Random) -> str:
    """A blade literal in one of its forms, each index from :func:`diff_index`,
    usually ascending, brackets with any whitespace and now and then broken."""
    indices = [diff_index(rng) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.8:
        indices.sort(key=lambda i: int(i) if i.isascii() and i.isdigit() and len(i) < 40 else 0)
    form = rng.randrange(3)
    if form == 0:
        return "e_" + "".join(i[-1] for i in indices)
    if form == 1:
        return "e_" + ",".join(indices)
    space = lambda: rng.choice(("", "", " ", "  ", "\t"))
    text = f"e{space()}[{space()}" + f"{space()},{space()}".join(indices) + space()
    return text + rng.choice(("]", "]", "]", "", ",", ", ]"))


def diff_line(rng: random.Random) -> str:
    """One string of the lexer differential: a literal line, fragments and
    blade literals inside and outside parentheses, or random text."""
    kind = rng.randrange(4)
    if kind == 0:  # a literal line, as rendered or typed
        return " ".join(f"{rng.choice('+-')} {rng.choice(('', '2', '0.5', '3e2'))}{diff_blade(rng)}"
                        for _ in range(rng.randint(1, 6)))
    if kind == 1:  # the comma form at depth 0 and inside parentheses
        blades = [diff_blade(rng) for _ in range(rng.randint(1, 3))]
        return rng.choice(("{} + {}", "grade({}, 2)", "({}) * {}", "f({},{})", ") {} ( {}")).format(
            *blades, *blades)
    if kind == 2:  # fragments
        parts = [rng.choice(FRAGMENTS) if rng.random() < 0.7 else diff_blade(rng)
                 for _ in range(rng.randint(1, 10))]
        return "".join(p + rng.choice(("", " ", "")) for p in parts)
    return "".join(rng.choices(TEXT_CHARS, k=rng.randint(0, 20)))


def shape(value):
    """``value`` as plain data that compares across trees: node and token
    types by name, floats by their bits, a multivector by its terms."""
    if hasattr(value, "terms"):
        value = list(value.terms())
    if isinstance(value, tuple):
        return (type(value).__name__, *map(shape, value))
    if isinstance(value, list):
        return list(map(shape, value))
    return value.hex() if isinstance(value, float) else value


def outcome(call, text: str) -> tuple:
    """What ``call(text)`` gives: its value's :func:`shape`, or its error's
    class, message, ``position`` and ``expected``."""
    try:
        return ("value", shape(call(text)))
    except Exception as error:  # any error is compared
        return ("error", type(error).__name__, str(error), getattr(error, "base_message", None),
                getattr(error, "position", None), getattr(error, "expected", None))


def compare_lexers(parent, count: int) -> int:
    """Run ``count`` seeded strings from :func:`diff_line` through both trees'
    ``tokenize``, ``parse_expr`` and ``parse_multivector``; print the number
    of strings on which some outcome differs, and the first few, and return it."""
    rng = random.Random(0)
    calls = [(cc.exprparse.tokenize, cc.parse_expr, cc.parse_multivector) for cc in (parent, cliffcalc)]
    differences = 0
    for _ in range(count):
        text = diff_line(rng)
        before, after = ([outcome(call, text) for call in tree] for tree in calls)
        if before != after:
            differences += 1
            if differences <= 5:
                print(f"differs on {text[:200]!r}:\n  parent {before}\n  change {after}")
    print(f"lexer differential: {count} strings, {differences} differences")
    return differences


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, metavar="REV", help="git revision to compare against")
    parser.add_argument("--repeats", type=int, default=15, help="timed rounds")
    parser.add_argument("--diff", type=int, metavar="N",
                        help="instead of timing, compare the lexers on N seeded strings")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        parent = import_revision(args.parent, tmp)
        if args.diff is not None:
            print(f"parent {args.parent} against the working tree")
            return 1 if compare_lexers(parent, args.diff) else 0
        startup_script = os.path.join(tmp, "two_lines.cliff")
        with open(startup_script, "w") as f:
            f.write("x = e_1 * e_2\nx * x\n")
        print(f"parent {args.parent} against the working tree")
        compare_times(parent, args.repeats, startup_script)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
