"""Per-layer tracing of magma_tits from outside the library.

Every traced function is replaced, at every module or class attribute that
binds it, by a wrapper that records a span (layer name, start, end, parent
span) or, for functions called too often for spans, only a count.  Layers
are named after the module that defines the function.  Spans stay in
memory; the pass writes them out once when it ends.
"""

import functools
import sys
import time
import tracemalloc
from collections import defaultdict


def _jacobi_figures(report):
    return {"triples": report.triples_checked,
            "witnesses": len(report.failures) + len(report.anticom_failures)}


def _structurable_figures(report):
    return {"triples": report.triples_checked}


def _tits_figures(T):
    return {"nnz": sum(len(row) for row in T.algebra.sc.values())}


# (layer, module, attribute path, options).  "alloc" measures the
# tracemalloc peak inside the call, "figures" adds counts read off the
# result, "errors" counts calls that raised.
SPAN_LAYERS = (
    ("algebra.check_super_jacobi", "algebra", "check_super_jacobi",
     {"alloc": True, "figures": _jacobi_figures}),
    ("algebra.check_super_jacobi_reference", "algebra", "check_super_jacobi_reference", {}),
    ("algebra.is_automorphism", "algebra", "is_automorphism", {}),
    ("tits.tits", "tits", "tits", {"figures": _tits_figures}),
    ("tits.verify_lie_conditions", "tits", "verify_lie_conditions", {}),
    ("tits.verify_lie_conditions_reference", "tits", "verify_lie_conditions_reference", {}),
    ("structurable.check_structurable", "structurable", "check_structurable",
     {"alloc": True, "figures": _structurable_figures, "errors": True}),
    ("structurable.construct", "structurable", "a_of_j", {}),
    ("structurable.construct", "structurable", "a_of_cubic", {}),
    ("structurable.construct", "structurable", "tensor_product", {}),
    ("jordan.h3", "jordan", "h3", {}),
    ("jordan.find_normalized_traces", "jordan", "find_normalized_traces", {}),
    ("composition.derivation_algebra", "composition", "derivation_algebra", {}),
    ("s4.action", "s4", "s4_on_h3", {}),
    ("s4.action", "s4", "s4_on_tits_left", {}),
    ("s4.action", "s4", "s4_on_tits_right", {}),
    ("s4.GroupAction.verify", "s4", "GroupAction.verify", {}),
    ("s4.klein_grading", "s4", "klein_grading", {}),
    ("s4.coordinate_algebra", "s4", "coordinate_algebra", {}),
    ("isomorphisms.theorem41", "isomorphisms", "theorem41", {}),
    ("isomorphisms.theorem61", "isomorphisms", "theorem61", {}),
    ("isomorphisms.homomorphism_failures", "isomorphisms", "homomorphism_failures", {}),
    ("decompose.decompose", "decompose", "decompose", {}),
    ("decompose.extract_b1", "decompose", "extract_b1", {}),
    ("decompose.round_trip_matches", "decompose", "round_trip_matches", {}),
    ("decompose.synthesize_s4", "decompose", "synthesize_s4", {}),
    ("exact.Matrix.matmul", "exact", "Matrix.__matmul__", {}),
    ("exact.Matrix.addsub", "exact", "Matrix.__add__", {}),
    ("exact.Matrix.addsub", "exact", "Matrix.__sub__", {}),
    ("exact.Matrix.rref", "exact", "Matrix.rref", {}),
    ("exact.Subspace", "exact", "Subspace.add", {}),
    ("exact.Subspace", "exact", "Subspace.contains", {}),
    ("exact.Subspace", "exact", "Subspace.coords", {}),
    ("int_fast.sc_to_dense_int", "int_fast", "sc_to_dense_int", {}),
    ("int_fast.matrix_to_int_array", "int_fast", "matrix_to_int_array", {}),
)

# Called up to ~10^6 times per pass: a span each would swamp the pass.
COUNT_LAYERS = (
    ("algebra.multiply", "algebra", "SuperAlgebra.multiply"),
    ("composition.inner_derivation", "composition", "inner_derivation"),
    ("exact.Matrix.apply", "exact", "Matrix.apply"),
)

SPAN_FIGURES = {
    "algebra.check_super_jacobi": ("triples", "witnesses"),
    "structurable.check_structurable": ("triples", "errors"),
    "tits.tits": ("nnz",),
}
ALLOC_LAYERS = ("algebra.check_super_jacobi", "structurable.check_structurable")


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Spans and counts of one pass; install() wraps, uninstall() restores."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.spans = []           # [layer, start, end, parent index]
        self.counts = defaultdict(int)
        self.figures = defaultdict(float)
        self._stack = []
        self._undo = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, layer, fn, alloc=False, figures=None, errors=False):
        spans, stack, figs = self.spans, self._stack, self.figures

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [layer, time.perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            own_alloc = alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if errors:
                    figs[layer + ".errors"] += 1
                raise
            finally:
                if own_alloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    key = layer + ".peak_alloc_mb"
                    figs[key] = max(figs[key], peak)
                stack.pop()
                rec[2] = time.perf_counter()
            if figures is not None:
                for name, value in figures(result).items():
                    figs[layer + "." + name] += value
            return result

        return wrapper

    def _count_wrapper(self, layer, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _registry_wrapper(self, registry, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(name, field, builder):
            hit = (name, registry._field_key(field)) in registry._CACHE
            counts["registry.hits" if hit else "registry.misses"] += 1
            return fn(name, field, builder)

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, orig, wrapped):
        """Rebind every module or class attribute of magma_tits holding orig."""
        owners = [m for name, m in sys.modules.items()
                  if name == "magma_tits" or name.startswith("magma_tits.")]
        owners += [v for m in list(owners) for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("magma_tits")]
        done = set()
        for owner in owners:
            if id(owner) in done:
                continue
            done.add(id(owner))
            for attr, value in list(vars(owner).items()):
                if value is orig:
                    setattr(owner, attr, wrapped)
                    self._undo.append((owner, attr, orig))

    def install(self):
        import importlib
        pkg = "magma_tits."
        for layer, mod, path, opts in SPAN_LAYERS:
            owner, attr = _resolve(importlib.import_module(pkg + mod), path)
            orig = vars(owner)[attr]
            self._replace_everywhere(orig, self._span_wrapper(layer, orig, **opts))
        for layer, mod, path in COUNT_LAYERS:
            owner, attr = _resolve(importlib.import_module(pkg + mod), path)
            orig = vars(owner)[attr]
            self._replace_everywhere(orig, self._count_wrapper(layer, orig))
        registry = importlib.import_module(pkg + "registry")
        self._replace_everywhere(registry._cached,
                                 self._registry_wrapper(registry, registry._cached))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    # -- results ----------------------------------------------------------

    def layer_metrics(self):
        """calls and self_s per span layer, counts, and the per-call figures."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for layer, start, end, parent in self.spans:
            dur = end - start
            calls[layer] += 1
            self_s[layer] += dur
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        out = {}
        for layer in dict.fromkeys(l for l, _m, _p, _o in SPAN_LAYERS):
            out[layer + ".calls"] = calls[layer]
            out[layer + ".self_s"] = self_s[layer]
        for layer in dict.fromkeys(l for l, _m, _p in COUNT_LAYERS):
            out[layer + ".calls"] = self.counts[layer]
        for layer, names in SPAN_FIGURES.items():
            for name in names:
                out[layer + "." + name] = self.figures[layer + "." + name]
        for layer in ALLOC_LAYERS:
            out[layer + ".peak_alloc_mb"] = self.figures[layer + ".peak_alloc_mb"]
        hits, misses = self.counts["registry.hits"], self.counts["registry.misses"]
        out["registry.hits"] = hits
        out["registry.misses"] = misses
        out["registry.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def span_records(self):
        return [{"name": layer, "start": start, "end": end, "parent": parent,
                 "pass": self.pass_id}
                for layer, start, end, parent in self.spans]
