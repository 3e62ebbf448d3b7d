"""Span tracing of the library from outside, by rebinding its public functions.

:meth:`Tracer.install` wraps every public function of each layer module
(the names in its ``__all__`` that are functions defined there) and rebinds
the wrapper wherever the original is bound in a ``gmedian`` module, so calls
between modules are seen too. Each call becomes a span: name, layer, start,
end, parent span and the id of the benchmark problem it belongs to. Spans
stay in memory; :meth:`Tracer.write` saves them when the benchmark ends.
:func:`layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time

import gmedian

LAYERS = ("graphs", "costs", "lsap", "solvers", "median", "harness", "datasets")
# modules whose namespaces may hold references to layer functions
MODULES = LAYERS + ("cli",)
IPFP_FAMILY = ("ipfp", "mipfp")
SPAN_FIELDS = ["name", "start_us", "end_us", "parent", "problem"]
UPDATE_STEPS = (
    "median.collect_substitution_sets",
    "median.update_vertex_labels",
    "median.update_vertex_vectors",
    "median.update_edges_labeled",
    "median.update_edges_unlabeled",
)


def _lsap_dim(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    matrix = getattr(problem, "cost_matrix", problem)
    return len(matrix)


def _qap_order(args, kwargs, result):
    """N = n + n2 when the call builds the dense quadratic form, else None."""
    config = args[3] if len(args) > 3 else kwargs.get("config")
    if config is not None and config.method not in IPFP_FAMILY:
        return None
    return args[1].order + args[2].order


# span annotations: name -> fn(args, kwargs, result) -> value kept with the span
ANNOTATE = {
    "lsap.solve_lsap": _lsap_dim,
    "solvers.ged_ipfp": lambda a, k, r: a[1].order + a[2].order,
    "solvers.ged_multistart": _qap_order,
    "median.update_transformations": lambda a, k, r: r[2],  # maps adopted
}


class Tracer:
    def __init__(self):
        # span: [name, layer, start, end, parent index, problem id, annotation]
        self.spans = []
        self.problem = None
        self._stack = []
        self._rebound = []

    def _wrap(self, layer, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = ANNOTATE.get(name)

        def traced(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, self.problem, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if annotate is not None:
                span[6] = annotate(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gmedian.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(layer, f"{layer}.{attr}", fn))
        namespaces = [gmedian] + [importlib.import_module(f"gmedian.{m}") for m in MODULES]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                found = wrappers.get(id(value))
                if found is not None and found[0] is value:
                    setattr(module, attr, found[1])
                    self._rebound.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def write(self, path):
        """Save the spans as JSON: times in microseconds from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {name: k for k, name in enumerate(names)}
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as out:
            out.write(f'{{"names": {json.dumps(names)}, "fields": {json.dumps(SPAN_FIELDS)}, "spans": [\n')
            for k, (name, _, start, end, parent, problem, _) in enumerate(self.spans):
                row = [index[name], round(1e6 * (start - origin)), round(1e6 * (end - origin)), parent, problem]
                out.write((",\n" if k else "") + json.dumps(row, separators=(",", ":")))
            out.write("\n]}\n")


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def layer_metrics(spans, problem_filter=None):
    """Per-layer metrics from the spans whose problem id passes ``problem_filter``."""
    bit = {layer: 1 << k for k, layer in enumerate(LAYERS)}
    keep = [problem_filter is None or problem_filter(s[5]) for s in spans]
    child_time = [0.0] * len(spans)
    outer_layers = [0] * len(spans)  # bitmask of the layers of all ancestors
    for idx, (name, layer, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            outer_layers[idx] = outer_layers[parent] | bit[spans[parent][1]]

    def ancestor_names(idx):
        names = set()
        while spans[idx][4] >= 0:
            idx = spans[idx][4]
            names.add(spans[idx][0])
        return names

    busy = dict.fromkeys(LAYERS, 0.0)
    self_time = dict.fromkeys(LAYERS, 0.0)
    count = {}
    self_by_name = {}
    solves, lsap_dims, qap_orders = [], [], []
    set_median_solves = phase2_solves = adopted = distance_evals = 0
    query_s = prototype_s = 0.0
    for idx, (name, layer, start, end, parent, _, note) in enumerate(spans):
        if not keep[idx]:
            continue
        duration = end - start
        count[name] = count.get(name, 0) + 1
        self_time[layer] += duration - child_time[idx]
        self_by_name[name] = self_by_name.get(name, 0.0) + duration - child_time[idx]
        if not outer_layers[idx] & bit[layer]:
            busy[layer] += duration
            if layer == "solvers":
                solves.append(duration)
                above = ancestor_names(idx)
                set_median_solves += "median.set_median" in above
                phase2_solves += "median.update_transformations" in above
                if parent >= 0 and spans[parent][1] == "harness":
                    distance_evals += 1
                    query_s += duration
        if name == "median.compute_median" and parent >= 0 and spans[parent][1] == "harness":
            prototype_s += duration
        if name == "lsap.solve_lsap":
            lsap_dims.append(note)
        elif name in ("solvers.ged_ipfp", "solvers.ged_multistart") and note is not None:
            qap_orders.append(note)
        elif name == "median.update_transformations":
            adopted += note

    def total(names):
        return float(sum(end - start for k, (n, _, start, end, *_) in enumerate(spans) if keep[k] and n in names))

    qap_bytes = [8 * n**4 for n in qap_orders]
    lsap_calls = count.get("lsap.solve_lsap", 0)
    metrics = {
        "lsap.calls": lsap_calls,
        "lsap.busy_s": busy["lsap"],
        "lsap.mean_dim": statistics.fmean(lsap_dims) if lsap_dims else 0.0,
        "graphs.transformations": count.get("graphs.transformation_from_forward", 0),
        "graphs.busy_s": busy["graphs"],
        "costs.calls": count.get("costs.transformation_cost", 0),
        "costs.busy_s": busy["costs"],
        "solvers.solves": len(solves),
        "solvers.busy_s": busy["solvers"],
        "solvers.self_s": self_time["solvers"],
        "solvers.solve_p50_ms": 1e3 * _quantile(solves, 0.50),
        "solvers.solve_p99_ms": 1e3 * _quantile(solves, 0.99),
        "solvers.solve_samples": len(solves),
        "solvers.bipartite.calls": count.get("solvers.ged_bipartite", 0),
        "solvers.bipartite.self_s": self_by_name.get("solvers.ged_bipartite", 0.0),
        "solvers.lsap_per_solve": lsap_calls / len(solves) if solves else 0.0,
        "solvers.qap_bytes.max": max(qap_bytes, default=0),
        "solvers.qap_bytes.total": sum(qap_bytes),
        "median.set_median.solves": set_median_solves,
        "median.set_median.busy_s": total({"median.set_median"}),
        "median.update.busy_s": total(set(UPDATE_STEPS)),
        "median.update_transformations.busy_s": total({"median.update_transformations"}),
        "median.iterations": count.get("median.update_transformations", 0),
        "median.adopted_ratio": adopted / phase2_solves if phase2_solves else 0.0,
        "harness.distance_evals": distance_evals,
        "harness.prototype_s": prototype_s,
        "harness.query_s": query_s,
        "datasets.graphs": count.get("datasets.parse_gxl", 0),
        "datasets.parse_s": busy["datasets"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer]
    return metrics
