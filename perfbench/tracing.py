"""Spans and counts recorded around calls into each ``bhl`` module.

Nothing here edits ``bhl``: ``install`` replaces each public function or
method with a wrapper where its callers look it up, on the class or in
every ``bhl`` module that imported the name, and ``uninstall`` puts the
originals back.  Scalar operations run about 10^6 times per pass, so they
get counters only; everything else gets a span (name, start, end, parent,
item).  Spans stay in memory until ``Tracer.write``.

Layer metrics are derived from the spans afterwards (``layer_metrics``).
A ``*_s`` metric is the time of the outermost spans of its names, so
nested or recursive calls are not counted twice; ``self_s`` of a layer is
the sum over its spans of duration minus the durations of its child spans.
Every name a metric is derived from must be found and wrapped, or
``install`` raises: a renamed function never reads as a silent 0.
"""

from __future__ import annotations

import inspect
import json
from time import perf_counter

LAYERS = ("scalars", "exactmat", "graded", "algebras", "hopf", "ayd",
          "classify", "dsl", "report", "cli")

# Operators are public API even though their names start with "_".
OPERATORS = frozenset((
    "__mul__", "__rmul__", "__matmul__", "__add__", "__radd__", "__sub__",
    "__rsub__", "__neg__", "__pow__", "__truediv__", "__rtruediv__",
    "__eq__", "__call__",
))

# Private methods that are counted (never spanned), under the counter
# "<layer>.<method>" whichever class defines them: the pair-product cache
# misses behind algebras.pair_cache_hit_ratio.
PRIVATE_COUNTED = {
    "algebras": ("_pair_product_raw",),
}

# Spanned names behind each time or call metric (span names are
# "<layer>.<qualname>").
SPAN_SETS = {
    "exactmat.kron": ("exactmat.Mat.kron",),
    "exactmat.mul": ("exactmat.Mat.__mul__",),
    "exactmat.elim": ("exactmat.Mat.rank", "exactmat.Mat.nullity",
                      "exactmat.Mat.kernel_basis", "exactmat.Mat.inverse",
                      "exactmat.Mat.rref"),
    "graded.tensor_map": ("graded.tensor_map",),
    "graded.compose": ("graded.GradedMap.__matmul__",),
    "algebras.build": ("algebras.taft", "algebras.nilpotent_line",
                       "algebras.anyonic_line", "algebras.dual_anyonic",
                       "algebras.d_a_mu", "algebras.uqsl2"),
    "algebras.pair_product": ("algebras.FiniteDimAlgebra.pair_product",),
    "algebras.multiply": ("algebras.FiniteDimAlgebra.multiply",),
    "algebras.left_mult": ("algebras.FiniteDimAlgebra.left_mult_operator",),
    "algebras.center": ("algebras.FiniteDimAlgebra.compute_center",),
    "algebras.morphism": ("algebras.algebra_morphism",
                          "algebras.induced_linear_map"),
    "hopf.build": ("hopf.taft_hopf", "hopf.anyonic_hopf", "hopf.build_hopf",
                   "hopf.braided_tensor_algebra"),
    "hopf.verify_bialgebra": ("hopf.verify_bialgebra",),
    "hopf.verify_antipode": ("hopf.verify_antipode",),
    "report.map_check": ("report.map_check",),
    "ayd.regular_module": ("ayd.regular_ayd_module",),
    "ayd.varsigma": ("ayd.varsigma_H",),
    "ayd.ribbon_element": ("ayd.ribbon_element",),
    "ayd.stable_analysis": ("ayd.stable_analysis",),
    "dsl.parse": ("dsl.parse",),
    "dsl.check": ("dsl.check_script",),
    "dsl.evaluate": ("dsl.evaluate",),
    "cli.main": ("cli.main",),
}

# metric name -> (kind, argument); kinds: "calls", "outer_calls" (nested
# calls counted once) and "s" use SPAN_SETS, "self" and "layer_s" a layer,
# "count" a counter, "share" two counters, "hit_ratio" a span set and a
# counter.  The comment above each group names
# the end-to-end metric and workload a change to that layer should move.
LAYER_METRICS = {
    # pass_s on hopf-kron (Taft) and ayd-elim
    "scalars.mul_calls": ("count", "scalars.mul"),
    "scalars.mul_rational_share": ("share", ("scalars.mul_rational",
                                             "scalars.mul")),
    "scalars.add_calls": ("count", "scalars.add"),
    "scalars.inverse_calls": ("count", "scalars.inverse"),
    "scalars.from_rational_calls": ("count", "scalars.from_rational"),
    # pass_s and peak_rss_mb on hopf-kron
    "exactmat.kron_calls": ("calls", "exactmat.kron"),
    "exactmat.kron_s": ("s", "exactmat.kron"),
    "exactmat.kron_out_nnz": ("count", "exactmat.kron_out_nnz"),
    "exactmat.max_rows": ("count", "exactmat.max_rows"),
    "exactmat.max_nnz": ("count", "exactmat.max_nnz"),
    # pass_s on hopf-kron and ayd-elim
    "exactmat.mul_calls": ("calls", "exactmat.mul"),
    "exactmat.mul_s": ("s", "exactmat.mul"),
    "exactmat.self_s": ("self", "exactmat"),
    # pass_s on ayd-elim
    "exactmat.elim_calls": ("outer_calls", "exactmat.elim"),
    "exactmat.elim_s": ("s", "exactmat.elim"),
    # pass_s on hopf-kron, item_ms_p50 on cli-small
    "graded.tensor_map_calls": ("calls", "graded.tensor_map"),
    "graded.tensor_map_s": ("s", "graded.tensor_map"),
    "graded.compose_calls": ("calls", "graded.compose"),
    "graded.compose_s": ("s", "graded.compose"),
    "graded.self_s": ("self", "graded"),
    # pass_s on ayd-elim, item_ms_p50 on cli-small
    "algebras.build_s": ("s", "algebras.build"),
    "algebras.pair_product_calls": ("calls", "algebras.pair_product"),
    "algebras.pair_cache_hit_ratio": ("hit_ratio", ("algebras.pair_product",
                                                    "algebras._pair_product_raw")),
    "algebras.multiply_calls": ("calls", "algebras.multiply"),
    "algebras.left_mult_s": ("s", "algebras.left_mult"),
    "algebras.center_s": ("s", "algebras.center"),
    "algebras.morphism_s": ("s", "algebras.morphism"),
    "algebras.self_s": ("self", "algebras"),
    # pass_s on hopf-kron
    "hopf.build_s": ("s", "hopf.build"),
    "hopf.verify_bialgebra_s": ("s", "hopf.verify_bialgebra"),
    "hopf.verify_antipode_s": ("s", "hopf.verify_antipode"),
    "hopf.self_s": ("self", "hopf"),
    "report.map_check_calls": ("calls", "report.map_check"),
    "report.map_check_s": ("s", "report.map_check"),
    # pass_s on ayd-elim
    "ayd.regular_module_s": ("s", "ayd.regular_module"),
    "ayd.varsigma_s": ("s", "ayd.varsigma"),
    "ayd.ribbon_element_s": ("s", "ayd.ribbon_element"),
    "ayd.stable_analysis_s": ("s", "ayd.stable_analysis"),
    "ayd.self_s": ("self", "ayd"),
    # item_ms_p50 on cli-small
    "dsl.parse_s": ("s", "dsl.parse"),
    "dsl.check_s": ("s", "dsl.check"),
    "dsl.evaluate_calls": ("calls", "dsl.evaluate"),
    "classify.s": ("layer_s", "classify"),
    "cli.main_s": ("s", "cli.main"),
    "cli.self_s": ("self", "cli"),
}


def metric_unit(name):
    if name.endswith("_s") or name == "classify.s":
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        # (id, parent id, item id, name, start, end); id is the index.
        self.spans = []
        self.counts = {}
        self.item = None
        self._stack = [None]

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def record_max(self, key, value):
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def span(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        stack = self._stack
        self.spans.append(None)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[sid] = (sid, stack[-1], self.item, name, start, end)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "item", "name", "start",
                                  "end"],
                       "spans": self.spans, "counts": self.counts}, fh)


# ---------------------------------------------------------------------------
# wrappers


def _span_wrapper(tracer, name, fn):
    def traced(*args, **kwargs):
        return tracer.span(name, fn, *args, **kwargs)
    return traced


def _mat_wrapper(tracer, name, fn, mat_type, is_kron):
    """Span an exactmat call and record the largest matrix it touches."""
    def traced(*args, **kwargs):
        out = tracer.span(name, fn, *args, **kwargs)
        for m in (out, args[0] if args else None):
            if type(m) is mat_type:
                tracer.record_max("exactmat.max_rows", m.rows)
                tracer.record_max("exactmat.max_nnz", len(m.data))
        if is_kron:
            tracer.count("exactmat.kron_out_nnz", len(out.data))
        return out
    return traced


def _count_wrapper(tracer, key, fn):
    tracer.counts.setdefault(key, 0)

    def counted(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)
    return counted


def _scalar_mul_wrapper(tracer, fn, cyclotomic):
    counts = tracer.counts
    counts.setdefault("scalars.mul", 0)
    counts.setdefault("scalars.mul_rational", 0)

    def counted(self, other):
        counts["scalars.mul"] = counts.get("scalars.mul", 0) + 1
        if (type(other) is not cyclotomic or not any(other.num[1:])
                or not any(self.num[1:])):
            counts["scalars.mul_rational"] = (
                counts.get("scalars.mul_rational", 0) + 1)
        return fn(self, other)
    return counted


SCALAR_COUNTED = {
    "__mul__": "scalars.mul", "__rmul__": "scalars.mul",
    "__add__": "scalars.add", "__radd__": "scalars.add",
    "inverse": "scalars.inverse", "from_rational": "scalars.from_rational",
}


def _public(name):
    return not name.startswith("_") or name in OPERATORS


def _wrap(tracer, layer, qualname, fn, mod):
    """The wrapper for ``fn``, or None to leave it alone."""
    short = qualname.rsplit(".", 1)[-1]
    if layer == "scalars":
        # Only Cyclotomic's ring operations are counted; see SCALAR_COUNTED.
        key = SCALAR_COUNTED.get(short)
        if key is None or not qualname.startswith("Cyclotomic."):
            return None
        if key == "scalars.mul":
            return _scalar_mul_wrapper(tracer, fn, mod.Cyclotomic)
        return _count_wrapper(tracer, key, fn)
    if not _public(short):
        return _count_wrapper(tracer, layer + "." + short, fn)
    name = layer + "." + qualname
    if layer == "exactmat":
        return _mat_wrapper(tracer, name, fn, mod.Mat,
                            qualname == "Mat.kron")
    return _span_wrapper(tracer, name, fn)


def install(tracer, modules):
    """Wrap every public function and method of ``modules``.

    ``modules`` maps each layer name to its imported ``bhl`` module.
    Returns the list of patches for ``uninstall``.  Raises RuntimeError,
    with nothing left wrapped, if a name in SPAN_SETS, PRIVATE_COUNTED or
    SCALAR_COUNTED was not found.
    """
    patches = []
    spanned = set()

    def patch(owner, attr, new):
        patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    for layer, mod in modules.items():
        counted_private = PRIVATE_COUNTED.get(layer, ())
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and _public(name):
                new = _wrap(tracer, layer, name, obj, mod)
                if new is None:
                    continue
                spanned.add(layer + "." + name)
                # Replace the name wherever a bhl module imported it.
                for other in modules.values():
                    for attr, val in list(vars(other).items()):
                        if val is obj:
                            patch(other, attr, new)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, val in list(vars(obj).items()):
                    if not (_public(attr) or attr in counted_private):
                        continue
                    wrapper = staticmethod if isinstance(val, staticmethod) else None
                    fn = val.__func__ if wrapper else val
                    if not inspect.isfunction(fn):
                        continue
                    qualname = obj.__name__ + "." + attr
                    new = _wrap(tracer, layer, qualname, fn, mod)
                    if new is not None:
                        spanned.add(layer + "." + qualname)
                        patch(obj, attr, wrapper(new) if wrapper else new)

    # Counting wrappers register their counter when they are made.
    missing = sorted(
        {n for names in SPAN_SETS.values() for n in names} - spanned
        | {layer + "." + n for layer, names in PRIVATE_COUNTED.items()
           for n in names} - set(tracer.counts)
        | set(SCALAR_COUNTED.values()) - set(tracer.counts))
    if missing:
        uninstall(patches)
        raise RuntimeError("not found in bhl, so not traced: "
                           + ", ".join(missing))
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans):
    """Self time of each span: its duration minus the durations of its
    children (spans come from one call stack, so children never overlap)."""
    out = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] is not None:
            out[s[1]] -= s[5] - s[4]
    return out


def outermost(spans, names):
    """Spans named in ``names`` with no ancestor named in ``names``.

    ``spans`` lists every parent before its children, as Tracer records them.
    """
    names = frozenset(names)
    inside = {}  # span id -> it or one of its ancestors is in names
    out = []
    for s in spans:
        above = inside.get(s[1], False)
        if s[3] in names and not above:
            out.append(s)
        inside[s[0]] = above or s[3] in names
    return out


def layer_metrics(spans, counts):
    """Every metric in LAYER_METRICS from one traced pass."""
    selfs = self_times(spans)
    values = {}
    for metric, (kind, arg) in LAYER_METRICS.items():
        if kind == "count":
            values[metric] = counts.get(arg, 0)
        elif kind == "share":
            part, whole = (counts.get(k, 0) for k in arg)
            values[metric] = part / whole if whole else 0.0
        elif kind == "hit_ratio":
            calls_of, raw_key = arg
            calls = sum(1 for s in spans if s[3] in SPAN_SETS[calls_of])
            raw = counts.get(raw_key, 0)
            values[metric] = 1.0 - raw / calls if calls else 0.0
        elif kind == "calls":
            names = SPAN_SETS[arg]
            values[metric] = sum(1 for s in spans if s[3] in names)
        elif kind == "outer_calls":
            values[metric] = len(outermost(spans, SPAN_SETS[arg]))
        elif kind == "s":
            values[metric] = sum(s[5] - s[4]
                                 for s in outermost(spans, SPAN_SETS[arg]))
        elif kind == "self":
            prefix = arg + "."
            values[metric] = sum(selfs[s[0]] for s in spans
                                 if s[3].startswith(prefix))
        elif kind == "layer_s":
            prefix = arg + "."
            names = {s[3] for s in spans if s[3].startswith(prefix)}
            values[metric] = sum(s[5] - s[4] for s in outermost(spans, names))
    return values
