"""Call-site tracing of toricsplit's public functions, from outside the package.

``install`` rebinds every listed function wherever a module holds it: in
its defining module, in each module that imported it by name, and in the
package namespace the benchmark calls through.  Each binding gets its own
wrapper that knows the calling module, so calls into ``exact_linear`` can
be split by caller.  A wrapper records one span: its self time is its
duration minus the time of the spans nested inside it.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns

# layer (module) -> traced public functions
LAYERS = {
    "surface_graph": ("graph_to_fan", "enumerate_blowups"),
    "fan": ("make_fan", "walls", "dual_basis"),
    "intersection": ("augmented_matrix", "sign_of_class"),
    "bundle_data": ("tangent_bundle", "assemble_bundle", "validate", "parse_bundle", "euler_splitting_system"),
    "splitting": ("splitting_system", "restrict", "bootstrap", "h0_oracle"),
    "solver": ("find_splitting_types", "canonical_class_rep"),
    "exact_linear": ("hnf", "solve_integral", "rat_kernel", "rat_rank", "rat_invert", "int_det", "rat_matmul"),
    "cli": ("main",),
}

# exact_linear function -> the modules whose calls to it are counted apart
CALLERS = {
    "hnf": ("exact_linear", "solver"),
    "solve_integral": ("fan", "bundle_data", "solver"),
    "rat_kernel": ("solver", "splitting"),
    "rat_rank": ("bundle_data", "splitting"),
    "rat_invert": ("fan", "solver", "splitting"),
    "int_det": ("fan", "solver"),
    "rat_matmul": ("bundle_data",),
}


class Tracer:
    def __init__(self) -> None:
        self._open: list[int] = []  # child time of each open span, innermost last
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.calls_by_caller: dict[tuple[str, str], int] = defaultdict(int)
        self.types_found = 0
        self.walls_cache = None

    def wrap(self, label: str, caller: str, fn):
        open_spans = self._open
        counts_types = label == "solver.find_splitting_types"

        def traced(*args, **kwargs):
            open_spans.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                children = open_spans.pop()
                self.self_ns[label] += elapsed - children
                self.total_ns[label] += elapsed
                self.calls[label] += 1
                self.calls_by_caller[(label, caller)] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if counts_types:
                self.types_found += len(result)
            return result

        return traced

    def metrics(self, clock_scale: float) -> dict[str, float]:
        """Every per-layer metric except the overhead ratio, which needs an untraced run.

        Span times are multiplied by ``clock_scale`` to put them on the scaled clock.
        """
        out: dict[str, float] = {}
        for layer, names in LAYERS.items():
            for name in names:
                label = f"{layer}.{name}"
                out[f"{label}.self_s"] = self.self_ns[label] * clock_scale / 1e9
                out[f"{label}.calls"] = self.calls[label]
        info = self.walls_cache.cache_info()
        lookups = info.hits + info.misses
        out["fan.walls.hit_ratio"] = info.hits / lookups if lookups else 0.0
        candidates = (
            self.calls_by_caller[("exact_linear.solve_integral", "solver")]
            - self.calls["solver.find_splitting_types"]
        )
        out["solver.candidates"] = candidates
        out["solver.types_per_candidate"] = self.types_found / candidates if candidates else 0.0
        for name, callers in CALLERS.items():
            for caller in callers:
                out[f"exact_linear.{name}.from_{caller}.calls"] = self.calls_by_caller[
                    (f"exact_linear.{name}", caller)
                ]
        return out


def install(tracer: Tracer, extra_modules=()) -> None:
    """Rebind the LAYERS functions in every toricsplit module and in ``extra_modules``."""
    modules = {layer: importlib.import_module(f"toricsplit.{layer}") for layer in LAYERS}
    originals = {}
    for layer, names in LAYERS.items():
        for name in names:
            fn = getattr(modules[layer], name)
            originals[id(fn)] = (f"{layer}.{name}", fn)
    tracer.walls_cache = modules["fan"].walls
    namespaces = [
        (mod_name.rpartition(".")[2], module)
        for mod_name, module in list(sys.modules.items())
        if mod_name.startswith("toricsplit.")
    ]
    namespaces += [("bench", sys.modules["toricsplit"])]
    namespaces += [("bench", module) for module in extra_modules]
    for caller, module in namespaces:
        for attr, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[1] is value:
                setattr(module, attr, tracer.wrap(hit[0], caller, hit[1]))
