"""In-memory span tracing of cliffcalc, installed from outside the library.

The library is not edited.  :func:`install` replaces the public functions of
each ``cliffcalc`` module with timing wrappers at every place the library (or
the benchmark) looks them up: a function imported by name into another module
(``from .blade import blade_product`` in ``products``) is patched in that
module too, and ``Multivector`` methods are patched on the class.
:func:`uninstall` puts every original back.

Two kinds of record are kept:

* a :class:`Span` per call of a layer entry point (name, start, end, parent
  span, op id), and
* for functions called once per term pair (``blade_product``, ``blade_wedge``,
  ``generator_square``) no span: their count and time are added to the
  enclosing span's ``inline`` table, so per-pair cost is visible without a
  span per pair.

Self time of a span is its duration minus the time its child spans and
inline calls cover; summed over the spans of one op it equals the op's root
span duration exactly (integer nanoseconds).
"""

from __future__ import annotations

import gzip
import json
from time import perf_counter_ns

#: Op id given to spans recorded while the workload's inputs are built.
SETUP_OP = -1

#: Name of the root span the benchmark opens around each op.  Its self time
#: is the untraced gap: benchmark code and Python glue outside any layer.
OP_SPAN = "bench.op"

BILINEAR = ("geometric_product", "wedge", "left_contraction", "right_contraction")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_ns", "inline", "extra", "error")

    def __init__(self, name: str, parent: int, op: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0
        self.child_ns = 0
        self.inline: dict[str, list[int]] | None = None  # name -> [calls, busy_ns, self_ns, zero_sign]
        self.extra: dict[str, int] | None = None
        self.error = False

    @property
    def duration(self) -> int:
        return self.end - self.start

    def self_ns(self) -> int:
        inline = sum(entry[2] for entry in self.inline.values()) if self.inline else 0
        return self.duration - self.child_ns - inline


class Recorder:
    """Spans of one traced phase, kept in memory until :meth:`write`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = SETUP_OP

    def open(self, name: str) -> Span:
        span = Span(name, self.stack[-1] if self.stack else -1, self.op)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter_ns()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        self.stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_ns += span.duration

    def run_op(self, op_id: int, fn):
        """Run ``fn()`` as op ``op_id`` under a root span; returns its result."""
        self.op = op_id
        span = self.open(OP_SPAN)
        try:
            return fn()
        finally:
            self.close(span)
            self.op = SETUP_OP

    def write(self, path) -> None:
        """Write every span as one JSON object per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for index, s in enumerate(self.spans):
                record = {
                    "id": index, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                    "parent": s.parent, "op": s.op, "self_ns": s.self_ns(),
                }
                if s.inline:
                    record["inline"] = s.inline
                if s.extra:
                    record["extra"] = s.extra
                if s.error:
                    record["error"] = True
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


# --- wrappers -------------------------------------------------------------

def _span_wrapper(rec: Recorder, name: str, fn, before=None, after=None):
    """Wrap ``fn`` so each call is a span; ``before``/``after`` fill ``extra``."""

    def wrapped(*args, **kwargs):
        extra = before(*args, **kwargs) if before is not None else None
        span = rec.open(name)
        span.extra = extra
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            rec.close(span)
        if after is not None:
            span.extra = after(span.extra, result)
        return result

    wrapped.__wrapped__ = fn
    return wrapped


def _inline_wrapper(rec: Recorder, name: str, fn, nested: str | None = None):
    """Count a per-pair function on the enclosing span instead of opening one.

    ``nested`` names an inline function this one calls, whose time is taken
    out of this one's self time.  Results are ``SignedBlade`` or ``int``; a
    zero sign is counted.
    """

    def wrapped(*args):
        span = rec.spans[rec.stack[-1]] if rec.stack else None
        if span is None:
            return fn(*args)
        if span.inline is None:
            span.inline = {}
        table = span.inline
        inner = table.get(nested) if nested else None
        inner_before = inner[1] if inner else 0
        t0 = perf_counter_ns()
        result = fn(*args)
        elapsed = perf_counter_ns() - t0
        entry = table.get(name)
        if entry is None:
            entry = table[name] = [0, 0, 0, 0]
        inner = table.get(nested) if nested else None
        inner_ns = (inner[1] if inner else 0) - inner_before
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - inner_ns
        sign = result[0] if isinstance(result, tuple) else result
        if sign == 0:
            entry[3] += 1
        return result

    wrapped.__wrapped__ = fn
    return wrapped


def _product_extra(a, b, *_):
    return {"pairs": a.num_terms() * b.num_terms()}


def _with_terms_out(extra, result):
    extra["terms_out"] = result.num_terms()
    return extra


def _kernel_extra(keys_a, _ca, keys_b, *_):
    return {"pairs": int(keys_a.size) * int(keys_b.size)}


def _chars_of_result(extra, result):
    return {"chars": len(result)}


def _chars_of_arg(source, *_):
    return {"chars": len(source)}


def _sites():
    """(owner, attribute, span name, kind, hooks) for every patched call site.

    ``owner`` is the module or class whose attribute is looked up at call
    time.  Each name appears under every module that imported it by name;
    ``generator_square`` is only ever called through ``blade`` and ``kernels``.
    """
    from cliffcalc import blade, exprparse, kernels, multivector, products, rand, repl, textio

    sites = []
    for fname in BILINEAR:
        for owner in (products, repl):
            sites.append((owner, fname, f"products.{fname}", "span", (_product_extra, _with_terms_out)))
    for owner in (products, repl):
        sites.append((owner, "power", "products.power", "span", (None, None)))
    sites.append((kernels, "pair_table", "kernels.pair_table", "span", (_kernel_extra, None)))
    sites.append((kernels, "region_masks", "kernels.region_masks", "span", (None, None)))
    for method in ("__init__", "__add__", "__sub__", "__neg__", "__eq__", "grade_part"):
        sites.append((multivector.Multivector, method, f"multivector.{method}", "span", (None, None)))
    sites.append((multivector, "from_terms", "multivector.from_terms", "span", (None, None)))
    for owner in (textio, repl):
        sites.append((owner, "render", "textio.render", "span", (None, _chars_of_result)))
        sites.append((owner, "save", "textio.save", "span", (None, None)))
        sites.append((owner, "load", "textio.load", "span", (None, None)))
    for owner in (exprparse, repl):
        sites.append((owner, "parse_expr", "exprparse.parse_expr", "span", (_chars_of_arg, None)))
    sites.append((repl, "run_command", "repl.run_command", "span", (None, None)))
    for owner in (rand, repl):
        sites.append((owner, "random_multivector", "rand.random_multivector", "span", (None, None)))
    # per-pair functions: blade_product calls generator_square through blade's globals
    sites.append((products, "blade_product", "blade.blade_product", "inline", "metric.generator_square"))
    sites.append((products, "blade_wedge", "blade.blade_wedge", "inline", None))
    for owner in (blade, kernels):
        sites.append((owner, "generator_square", "metric.generator_square", "inline", None))
    return sites


def install(rec: Recorder) -> list:
    """Patch every call site to record into ``rec``; returns the undo list."""
    undo = []
    wrappers: dict[tuple[int, str], object] = {}
    for owner, attr, name, kind, hooks in _sites():
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        key = (id(original), name)
        wrapper = wrappers.get(key)
        if wrapper is None:
            if kind == "span":
                wrapper = _span_wrapper(rec, name, original, *hooks)
            else:
                wrapper = _inline_wrapper(rec, name, original, hooks)
            wrappers[key] = wrapper
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# --- aggregation ----------------------------------------------------------

#: Layers that self time is split over; ``untraced_gap`` is the op root span.
LAYERS = ("kernels", "products", "blade", "metric", "multivector", "textio",
          "exprparse", "repl", "rand", "untraced_gap")


def _layer(name: str) -> str:
    return "untraced_gap" if name == OP_SPAN else name.split(".", 1)[0]


def per_layer(rec: Recorder, region_masks_info) -> dict[str, float]:
    """Per-layer metrics over the spans of timed ops (op id >= 0).

    ``rand.random_multivector.busy_s`` is the exception: inputs are built
    before the first op, so it sums the set-up spans.
    """
    spans = rec.spans
    calls: dict[str, int] = {}
    busy: dict[str, int] = {}
    extra: dict[str, int] = {}
    inline: dict[str, list[int]] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0)
    mv_calls = mv_busy = 0
    products_with_kernel: set[int] = set()
    setup_rand_ns = 0
    errors = 0
    op_wall = 0

    for index, s in enumerate(spans):
        if s.op < 0:
            if s.name == "rand.random_multivector":
                setup_rand_ns += s.duration
            continue
        name = s.name
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0) + s.duration
        self_by_layer[_layer(name)] += s.self_ns()
        if name == OP_SPAN:
            op_wall += s.duration
        if s.extra:
            for key, value in s.extra.items():
                extra[f"{name}.{key}"] = extra.get(f"{name}.{key}", 0) + value
        if s.error and name == "repl.run_command":
            errors += 1
        if name == "kernels.pair_table" and s.parent >= 0:
            products_with_kernel.add(s.parent)
        if name.startswith("multivector."):
            mv_calls += 1
            if s.parent < 0 or not spans[s.parent].name.startswith("multivector."):
                mv_busy += s.duration
        if s.inline:
            for fname, entry in s.inline.items():
                total = inline.setdefault(fname, [0, 0, 0, 0])
                for k in range(4):
                    total[k] += entry[k]
                self_by_layer[_layer(fname)] += entry[2]

    def c(name):
        return calls.get(name, 0)

    def b(name):
        return busy.get(name, 0) / 1e9

    product_names = [f"products.{f}" for f in BILINEAR]
    product_calls = sum(c(n) for n in product_names)
    pairs = sum(extra.get(f"{n}.pairs", 0) for n in product_names)
    terms_out = sum(extra.get(f"{n}.terms_out", 0) for n in product_names)
    packed = sum(1 for i in products_with_kernel if spans[i].name in product_names)
    kernel_pairs = extra.get("kernels.pair_table.pairs", 0)
    bp = inline.get("blade.blade_product", [0, 0, 0, 0])
    bw = inline.get("blade.blade_wedge", [0, 0, 0, 0])
    gs = inline.get("metric.generator_square", [0, 0, 0, 0])
    hits, misses = region_masks_info.hits, region_masks_info.misses

    metrics = {
        "kernels.pair_table.calls": c("kernels.pair_table"),
        "kernels.pair_table.busy_s": b("kernels.pair_table"),
        "kernels.pair_table.pairs": kernel_pairs,
        "kernels.pair_table.ns_per_pair": busy.get("kernels.pair_table", 0) / kernel_pairs if kernel_pairs else 0.0,
        "kernels.region_masks.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "products.calls": product_calls,
        "products.self_s": sum(s.self_ns() for s in spans if s.op >= 0 and s.name.startswith("products.")) / 1e9,
        "products.pairs": pairs,
        "products.terms_out": terms_out,
        "products.yield": terms_out / pairs if pairs else 0.0,
        "products.packed_frac": packed / product_calls if product_calls else 0.0,
        "blade.blade_product.calls": bp[0],
        "blade.blade_product.busy_s": bp[1] / 1e9,
        "blade.blade_wedge.calls": bw[0],
        "blade.blade_wedge.busy_s": bw[1] / 1e9,
        "blade.zero_frac": (bp[3] + bw[3]) / (bp[0] + bw[0]) if bp[0] + bw[0] else 0.0,
        "metric.generator_square.calls": gs[0],
        "multivector.calls": mv_calls,
        "multivector.busy_s": mv_busy / 1e9,
        "textio.render.calls": c("textio.render"),
        "textio.render.busy_s": b("textio.render"),
        "textio.render.chars": extra.get("textio.render.chars", 0),
        "textio.save.busy_s": b("textio.save"),
        "textio.load.busy_s": b("textio.load"),
        "exprparse.parse_expr.calls": c("exprparse.parse_expr"),
        "exprparse.parse_expr.busy_s": b("exprparse.parse_expr"),
        "exprparse.parse_expr.chars": extra.get("exprparse.parse_expr.chars", 0),
        "repl.run_command.self_s": sum(s.self_ns() for s in spans if s.op >= 0 and s.name == "repl.run_command") / 1e9,
        "repl.run_command.errors": errors,
        "rand.random_multivector.busy_s": setup_rand_ns / 1e9,
    }
    for layer in LAYERS:
        metrics[f"self_share.{layer}"] = self_by_layer[layer] / op_wall if op_wall else 0.0
    metrics["trace.op_wall_s"] = op_wall / 1e9
    metrics["trace.spans"] = len(spans)
    return metrics
