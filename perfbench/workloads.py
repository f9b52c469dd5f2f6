"""Seeded inputs, ops and reference results for the four benchmark workloads.

Every input is made from ``(workload name, seed)`` by a private
:class:`random.Random`; the library receives only the generated values.  The
library is imported lazily (:func:`import_library`) so that the set-up time
measured by ``run.py`` includes ``import cliffcalc``.

Each op calls the library through module attributes (``products.wedge``,
``repl.run_command``) looked up at call time, so the trace wrappers in
``spans.py`` see every call.

Why these four workloads:

* ``packed_large``: ~512-term products in dimension 10, where the packed
  kernel (``kernels.pair_table``) is ~90% of the time.
* ``small_identities``: the criterion-7 contraction identities on <= 9-term
  operands: thousands of tiny products, all per-call overhead.
* ``high_index``: operands with indices up to 200, so every product takes the
  per-pair path (``blade.blade_product``) and the kernels do no work.
* ``calc_script``: calculator lines through ``repl.run_command``, the only
  workload where parsing, evaluation, rendering and .mv I/O dominate.
"""

from __future__ import annotations

import importlib.util
import os
import random
import shlex
import sys
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("packed_large", "small_identities", "high_index", "calc_script")

#: Largest index the packed kernels take (``kernels.PACK_LIMIT``).
PACK_LIMIT = 64

PACKED_POOL = 4         # operands of 512 terms; every ordered pair of two is an op
#: Term counts of the high_index operands, 48 on average.  Every seed gets
#: the same sizes, so op costs spread over ~9x without the mean moving from
#: seed to seed, and the latency percentiles cover small and large products.
HIGH_TERMS = (24, 31, 38, 45, 51, 58, 65, 72)
#: Triples of small_identities; each is checked against one identity under
#: one signature, every (signature, identity) pair on the same number of them.
#: Few distinct ops (one per triple) let each run many times; see run.py.
SMALL_TRIPLES = 630
SCRIPT_LINES = 3000     # body lines after the header


class InputGuardError(RuntimeError):
    """A generated input does not have the property its workload is built on."""


def import_library(root: str):
    """Import ``cliffcalc`` from ``<root>/src`` and check that it came from there."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import cliffcalc

    where = os.path.realpath(os.path.dirname(cliffcalc.__file__))
    if where != os.path.realpath(os.path.join(src, "cliffcalc")):
        raise ImportError(f"cliffcalc imported from {where}, not from {src}")
    return cliffcalc


def load_oracle(root: str):
    """The rewriting oracle of the test suite, loaded by path."""
    path = os.path.join(root, "tests", "oracle.py")
    spec = importlib.util.spec_from_file_location("_cliffcalc_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Op:
    run: Callable[[], object]
    key: object                 # ops with equal keys have the same reference
    expected: object = None     # filled by Workload.compute_references


@dataclass
class Workload:
    name: str
    ops: list[Op]
    #: maps an op's raw result to the value compared with ``Op.expected``
    normalise: Callable[[object], object]
    reference: str              # how ``expected`` is computed
    describe: dict = field(default_factory=dict)
    operands: list = field(default_factory=list)
    lines: list[str] = field(default_factory=list)  # calc_script's script text
    reference_table: Callable[[], dict] | None = None  # op key -> expected

    def warm_up(self) -> None:
        self.ops[0].run()

    def compute_references(self) -> None:
        table = self.reference_table() if self.reference_table else {}
        for op in self.ops:
            op.expected = table.get(op.key, op.expected)

    def check(self, op: Op, result) -> bool:
        return self.normalise(result) == op.expected

    def fingerprint(self) -> list:
        """Everything the library receives, in comparable form."""
        return [[list(mv.terms()) for mv in self.operands], [op.key for op in self.ops], self.lines]


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _terms(mv) -> list:
    return list(mv.terms())


def build(name: str, seed: int, workdir: str) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``.

    ``workdir`` is an existing directory for the files ``calc_script`` saves
    and loads; the other workloads do no I/O.
    """
    builders = {
        "packed_large": _packed_large,
        "small_identities": _small_identities,
        "high_index": _high_index,
        "calc_script": _calc_script,
    }
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    workload = builders[name](_rng(name, seed), workdir)
    check_guards(workload)
    return workload


def check_guards(workload: Workload) -> None:
    """Indices stay on the side of the packing limit the workload is about."""
    for mv in workload.operands:
        top = mv.max_index()
        if workload.name == "packed_large" and top > PACK_LIMIT:
            raise InputGuardError(f"packed_large operand has index {top} > {PACK_LIMIT}")
        if workload.name == "high_index" and top <= PACK_LIMIT:
            raise InputGuardError(f"high_index operand has max index {top} <= {PACK_LIMIT}")


def _product_op(products, a, b, sig, key) -> Op:
    return Op(run=lambda: products.geometric_product(a, b, sig), key=key)


def _packed_large(rng: random.Random, _workdir: str) -> Workload:
    from cliffcalc import Signature, kernels, products
    from cliffcalc.rand import RandomSpec, random_multivector

    sig = Signature(6, 4)
    pool = [
        random_multivector(RandomSpec(dimension=10, max_grade=5, num_terms=512,
                                      include_fewer=True, seed=rng.getrandbits(63)))
        for _ in range(PACKED_POOL)
    ]
    # Equal-cost ops: with only 12 distinct ops, unequal sizes would put p90
    # on whichever operand happened to be largest for the seed.
    pairs = [(i, j) for i in range(PACKED_POOL) for j in range(PACKED_POOL) if i != j]
    rng.shuffle(pairs)
    ops = [_product_op(products, pool[i], pool[j], sig, (i, j)) for i, j in pairs]

    def references():
        # The rewriting oracle needs ~1.8 s per 512x512 pair here, so the
        # reference is the library's per-pair path, which shares no code with
        # the packed kernels.  Integer coefficients make both sums exact.
        previous = kernels.set_backend("python")
        try:
            return {(i, j): _terms(products.geometric_product(pool[i], pool[j], sig))
                    for i, j in pairs}
        finally:
            kernels.set_backend(previous)

    return Workload("packed_large", ops, _terms, "python-backend", operands=pool,
                    describe={"signature": "Cl(6,4)", "pool": PACKED_POOL, "pairs": pairs,
                              "terms": [mv.num_terms() for mv in pool]},
                    reference_table=references)


def _high_operand(rng: random.Random, num_terms: int):
    from cliffcalc.rand import RandomSpec, random_multivector

    while True:
        mv = random_multivector(RandomSpec(dimension=200, max_grade=5, num_terms=num_terms,
                                           include_fewer=True, seed=rng.getrandbits(63)))
        if mv.max_index() > PACK_LIMIT:
            return mv


def _high_index(rng: random.Random, _workdir: str) -> Workload:
    from cliffcalc import Signature, products

    sig = Signature(100, 60)  # generators 161..200 square to 0
    pool = [_high_operand(rng, n) for n in HIGH_TERMS]
    pairs = [(i, j) for i in range(len(pool)) for j in range(len(pool))]
    rng.shuffle(pairs)
    ops = [_product_op(products, pool[i], pool[j], sig, (i, j)) for i, j in pairs]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def references():
        oracle = load_oracle(root)
        return {(i, j): _terms(oracle.product_by_rewriting(pool[i], pool[j], sig))
                for i, j in pairs}

    return Workload("high_index", ops, _terms, "oracle-rewriting", operands=pool,
                    describe={"signature": "Cl(100,60)",
                              "terms": [mv.num_terms() for mv in pool],
                              "max_index": [mv.max_index() for mv in pool]},
                    reference_table=references)


# The three contraction identities of acceptance criterion 7; each is four
# product calls and one ==.
def _identity_0(p, a, b, c, sig):
    return p.left_contraction(a, p.right_contraction(b, c, sig), sig) == \
        p.right_contraction(p.left_contraction(a, b, sig), c, sig)


def _identity_1(p, a, b, c, sig):
    return p.left_contraction(a, p.left_contraction(b, c, sig), sig) == \
        p.left_contraction(p.wedge(a, b), c, sig)


def _identity_2(p, a, b, c, sig):
    return p.right_contraction(a, p.wedge(b, c), sig) == \
        p.right_contraction(p.right_contraction(a, b, sig), c, sig)


IDENTITIES = (_identity_0, _identity_1, _identity_2)


def _small_identities(rng: random.Random, _workdir: str) -> Workload:
    from cliffcalc import Signature, euclidean, grassmann, products
    from cliffcalc.rand import RandomSpec, random_multivector

    sigs = (euclidean(), Signature(3, 1), grassmann())
    triples = [
        tuple(random_multivector(RandomSpec(include_fewer=True, seed=rng.getrandbits(63)))
              for _ in range(3))
        for _ in range(SMALL_TRIPLES)
    ]
    combos = [(s, k) for s in range(len(sigs)) for k in range(len(IDENTITIES))]
    combos *= SMALL_TRIPLES // len(combos)
    rng.shuffle(combos)
    keys = [(t, s, k) for t, (s, k) in enumerate(combos)]

    def op(t, s, k):
        a, b, c = triples[t]
        sig, identity = sigs[s], IDENTITIES[k]
        return Op(run=lambda: identity(products, a, b, c, sig), key=(t, s, k), expected=True)

    return Workload("small_identities", [op(*key) for key in keys], lambda holds: holds,
                    "identity", operands=[mv for triple in triples for mv in triple],
                    describe={"signatures": ["euclidean", "Cl(3,1)", "grassmann"],
                              "triples": SMALL_TRIPLES})


# --- calc_script ----------------------------------------------------------

SIGNATURES = (("inf", (None, 0)), ("3 1", (3, 1)), ("6 4", (6, 4)), ("4", (4, None)), ("2 2", (2, 2)))
OPERATORS = ("*", "^", "_|", "|_")
V_NAMES = tuple(f"v{i}" for i in range(6))
W_NAMES = ("w0", "w1", "w2")
FILES = 4


def _literal(mv) -> str:
    """Input text for an integer-coefficient multivector.

    Blades with every index <= 9 use the default separator (``3e_12``);
    others use brackets (``3e[2,11]``).  The comma form ``e_2,11`` that
    ``:basissep ,`` prints is not used: the expression parser rejects it
    (see NOTES.md).
    """
    parts = []
    for blade, c in mv.terms():
        sign = "-" if c < 0 else "+"
        text = f"{sign} {int(abs(c))}"
        if blade and blade[-1] <= 9:
            text += "e_" + "".join(str(i) for i in blade)
        elif blade:
            text += "e[" + ",".join(str(i) for i in blade) + "]"
        parts.append(text)
    return " ".join(parts)


def _calc_script(rng: random.Random, workdir: str) -> Workload:
    """A script of calculator lines, replayed in one Session.

    Statements are kept as tuples next to their text so the reference can
    evaluate them through the library API directly.  The header resets the
    signature, separator and every variable, so each replay of the script
    prints the same lines.
    """
    from cliffcalc import repl
    from cliffcalc.rand import RandomSpec, random_multivector

    def new_literal():
        return random_multivector(RandomSpec(dimension=12, max_grade=3,
                                             num_terms=rng.randint(2, 6), include_fewer=True,
                                             seed=rng.getrandbits(63)))

    operands = []
    stmts: list[tuple] = [("sig", 0), ("sep", "")]
    for name in V_NAMES:
        operands.append(new_literal())
        stmts.append(("assign_lit", name, operands[-1]))
    stmts.append(("assign_bin", "w0", "*", "v0", "v1"))
    stmts.append(("assign_bin", "w1", "^", "v2", "v3"))
    stmts.append(("assign_bin", "w2", "_|", "v4", "v5"))
    saved: list[int] = []
    kinds = ("assign_lit", "print_bin", "assign_bin", "print_pow", "print_grades",
             "print_var", "sig", "sep", "save", "load_bind", "load_print")
    # file I/O is occasional (~2% of lines): its time varies with the file system
    weights = (24, 72, 16, 12, 16, 20, 12, 12, 2, 1, 1)
    while len(stmts) < SCRIPT_LINES + 2 + len(V_NAMES) + len(W_NAMES):
        kind = rng.choices(kinds, weights)[0]
        v, u = rng.choice(V_NAMES), rng.choice(V_NAMES)
        if kind == "assign_lit":
            operands.append(new_literal())
            stmts.append((kind, v, operands[-1]))
        elif kind == "print_bin":
            stmts.append((kind, rng.choice(OPERATORS), v, u))
        elif kind == "assign_bin":
            stmts.append((kind, rng.choice(W_NAMES), rng.choice(OPERATORS), v, u))
        elif kind == "print_pow":
            stmts.append((kind, v, rng.choice((2, 3))))
        elif kind == "print_grades":
            stmts.append((kind, v, u))
        elif kind == "print_var":
            stmts.append((kind, rng.choice(V_NAMES + W_NAMES)))
        elif kind == "sig":
            stmts.append((kind, rng.randrange(len(SIGNATURES))))
        elif kind == "sep":
            stmts.append((kind, rng.choice(("", ","))))
        elif kind == "save":
            k = rng.randrange(FILES)
            saved.append(k)
            stmts.append((kind, rng.choice(V_NAMES + W_NAMES), k))
        elif saved:  # loads only read files this script saved earlier
            stmts.append((kind, rng.choice(saved)) if kind == "load_print"
                         else (kind, "w2", rng.choice(saved)))

    paths = [os.path.join(workdir, f"m{k}.mv") for k in range(FILES)]
    lines = [_line(stmt, paths) for stmt in stmts]
    session = repl.Session()

    def op(index):
        line = lines[index]
        return Op(run=lambda: repl.run_command(line, session), key=index)

    def references():
        return dict(enumerate(_expected_outputs(stmts)))

    return Workload("calc_script", [op(i) for i in range(len(lines))], lambda out: out,
                    "direct-api-render", operands=operands, lines=lines,
                    describe={"lines": len(lines), "workdir": workdir},
                    reference_table=references)


def _line(stmt: tuple, paths: list[str]) -> str:
    kind = stmt[0]
    if kind == "sig":
        return f":signature {SIGNATURES[stmt[1]][0]}"
    if kind == "sep":
        return f":basissep {stmt[1]}".rstrip()
    if kind == "assign_lit":
        return f"{stmt[1]} = {_literal(stmt[2])}"
    if kind == "assign_bin":
        return f"{stmt[1]} = {stmt[3]} {stmt[2]} {stmt[4]}"
    if kind == "print_bin":
        return f"{stmt[2]} {stmt[1]} {stmt[3]}"
    if kind == "print_pow":
        return f"{stmt[1]} ** {stmt[2]}"
    if kind == "print_grades":
        return f"grades({stmt[1]} * {stmt[2]})"
    if kind == "print_var":
        return stmt[1]
    if kind == "save":
        return f":save {stmt[1]} {shlex.quote(paths[stmt[2]])}"
    if kind == "load_bind":
        return f":load {stmt[1]} {shlex.quote(paths[stmt[2]])}"
    if kind == "load_print":
        return f":load {shlex.quote(paths[stmt[1]])}"
    raise ValueError(f"unknown statement {stmt!r}")


def _expected_outputs(stmts: list[tuple]) -> list:
    """What each line must print, from the library API without the REPL.

    A saved file is modelled by the value saved, since ``load(save(A)) == A``
    is a documented invariant; a mismatch shows up when the loaded value is
    printed.
    """
    from cliffcalc import UNBOUNDED, Signature, products
    from cliffcalc.textio import PrintOptions, render

    binary = {
        "*": lambda x, y, sig: products.geometric_product(x, y, sig),
        "^": lambda x, y, sig: products.wedge(x, y),
        "_|": lambda x, y, sig: products.left_contraction(x, y, sig),
        "|_": lambda x, y, sig: products.right_contraction(x, y, sig),
    }
    sig = opts = None
    env: dict = {}
    files: dict = {}
    out = []
    for stmt in stmts:
        kind, printed = stmt[0], None
        if kind == "sig":
            p, q = SIGNATURES[stmt[1]][1]
            sig = Signature(UNBOUNDED if p is None else p, UNBOUNDED if q is None else q)
        elif kind == "sep":
            opts = PrintOptions(basis_sep=stmt[1])
        elif kind == "assign_lit":
            env[stmt[1]] = stmt[2]
        elif kind == "assign_bin":
            env[stmt[1]] = binary[stmt[2]](env[stmt[3]], env[stmt[4]], sig)
        elif kind == "print_bin":
            printed = render(binary[stmt[1]](env[stmt[2]], env[stmt[3]], sig), opts)
        elif kind == "print_pow":
            printed = render(products.power(env[stmt[1]], stmt[2], sig), opts)
        elif kind == "print_grades":
            grades = products.geometric_product(env[stmt[1]], env[stmt[2]], sig).grades()
            printed = " ".join(str(g) for g in grades) if grades else "(none)"
        elif kind == "print_var":
            printed = render(env[stmt[1]], opts)
        elif kind == "save":
            files[stmt[2]] = env[stmt[1]]
        elif kind == "load_bind":
            env[stmt[1]] = files[stmt[2]]
        elif kind == "load_print":
            printed = render(files[stmt[1]], opts)
        out.append(printed)
    return out
