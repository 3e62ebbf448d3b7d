"""The benchmark workloads.

Each workload builds its inputs from the seed when constructed (that is the
set-up the benchmark times), then exposes a fixed list of problems. The
benchmark times :meth:`Workload.solve` over all problems, then checks every
output with :meth:`Workload.check` and measures solution quality with
:meth:`Workload.accuracy`, both outside the timed phase.

Sizes are chosen so that one pass over the problem set takes 6-13 s at the
commit that introduced the benchmark, on a 2-core x86-64 VM, so a 50 s run,
set-up included, makes three to six passes.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

import gmedian
from check import CheckError, check_cost, check_median, graph_payload
from gen import Perturbation, distorted_letter, perturb, random_labeled_graph
from gxl import write_dataset


def labeled_graph(graph):
    attrs, edges = graph
    edge_items = [(i, j, lab) for (i, j), lab in sorted(edges.items())]
    return gmedian.build_graph(len(attrs), attrs, edge_items, edge_labels=True)


def median_payload(result):
    return {
        "median": graph_payload(result.median),
        "forwards": [t.forward.tolist() for t in result.transformations],
        "sod": result.sod,
        "set_median": [result.set_median_index, result.set_median_sod],
        "trace": [r.sod_upper for r in result.trace],
    }


class Workload:
    """A seeded problem set; subclasses fill in the four methods below."""

    name = ""

    def __init__(self, seed, workdir):
        """Build the inputs from ``seed``; files go under ``workdir``."""
        self.problems = []

    def solve(self, i):
        """Run problem ``i`` through the library (the timed call)."""
        raise NotImplementedError

    def check(self, i, output):
        """Check one output independently; raise CheckError on a mismatch."""
        raise NotImplementedError

    def payload(self, i, output):
        """(objective, JSON-ready outputs for the digest) of one problem."""
        raise NotImplementedError

    def accuracy(self, outputs):
        """Percentage of held-out graphs assigned to their own class."""
        raise NotImplementedError


class GedLarge(Workload):
    """Independent ``solve_ged(method="mipfp")`` pairs, one caller, in a closed loop.

    The only workload where the dense (N^2 x N^2) quadratic form and its
    matrix-vector products dominate, in time and in memory. Every query is
    solved against every base graph. Three starts per pair instead of 40
    let a pass hold 48 pairs over four base graphs, which keeps the pass
    time from hanging on how easy one base graph happens to be.
    """

    name = "ged-large"
    base_orders = (18, 19, 19, 20)
    queries_per_base = 3
    solver = gmedian.GedSolverConfig(method="mipfp", multistart_count=3)
    vertex_labels, edge_labels = 5, 4
    noise = Perturbation(
        relabel_vertices=3, relabel_edges=2, drop_edges=2, add_edges=2,
        delete_vertices=1, insert_vertices=1,
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.model = gmedian.make_cost_model()
        rng = np.random.default_rng(seed)
        bases = [
            random_labeled_graph(rng, n, round(1.3 * n), self.vertex_labels, self.edge_labels)
            for n in self.base_orders
        ]
        self.bases = [labeled_graph(b) for b in bases]
        self.queries = [
            (k, labeled_graph(perturb(rng, b, self.noise, self.vertex_labels, self.edge_labels)))
            for k, b in enumerate(bases)
            for _ in range(self.queries_per_base)
        ]
        # problem = (query index, base index); solver seeds differ per pair
        self.problems = [(q, k) for q in range(len(self.queries)) for k in range(len(self.bases))]

    def _pair(self, i):
        q, k = self.problems[i]
        return self.queries[q][1], self.bases[k]

    def solve(self, i):
        g, g2 = self._pair(i)
        return gmedian.solve_ged(self.model, g, g2, replace(self.solver, rng_seed=i))

    def check(self, i, result):
        g, g2 = self._pair(i)
        check_cost(self.model, g, g2, result.transformation.forward, result.cost, f"pair {i}")
        bipartite = gmedian.solve_ged(self.model, g, g2, gmedian.GedSolverConfig(method="bipartite"))
        if result.cost > bipartite.cost:
            raise CheckError(f"pair {i}: mIPFP cost {result.cost} above bipartite {bipartite.cost}")

    def payload(self, i, result):
        return result.cost, {"cost": result.cost, "forward": result.transformation.forward.tolist()}

    def accuracy(self, results):
        """Nearest base graph by the mIPFP cost (the base graph is the class prototype)."""
        k = len(self.bases)
        hits = 0
        for q, (own, _) in enumerate(self.queries):
            costs = [results[q * k + b].cost for b in range(k)]
            hits += int(np.argmin(costs)) == own
        return 100.0 * hits / len(self.queries)


class ClassifyLetter(Workload):
    """``run_classification`` on an IAM-Letter-shaped dataset read from GXL/CXL.

    Point-vertex graphs of order 4-7 with unlabeled edges take the
    ``SquaredEuclidean``/``ZeroCost`` path. The run is about 3,000 tiny
    mIPFP solves, where fixed per-call cost dominates; two starts per solve
    instead of 40 leave room for enough test graphs to make the accuracy
    steady.
    """

    name = "classify-letter"
    letters = "AEHKT"
    train, test = 3, 24
    solver = gmedian.GedSolverConfig(method="mipfp", multistart_count=2)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # squared distances are unbounded
            self.model = gmedian.make_cost_model(
                gmedian.VECTOR, gmedian.NO_EDGE_ATTRS, c_vr=0.9, c_vi=0.9, c_er=1.7, c_ei=1.7
            )
        rng = np.random.default_rng(seed)
        entries = [
            (f"{letter}{k:02d}", letter, distorted_letter(rng, letter))
            for letter in self.letters
            for k in range(self.train + self.test)
        ]
        index = write_dataset(workdir, "letter", entries)
        self.dataset = gmedian.load_collection(index)
        for (graph_id, letter, (points, edges)), rec in zip(entries, self.dataset.records):
            g = rec.graph
            if (rec.graph_id, rec.class_label) != (graph_id, letter):
                raise CheckError(f"dataset entry {rec.graph_id} does not match {graph_id}")
            if g.vertex_attrs.tolist() != [list(p) for p in points] or g.edge_list != sorted(edges):
                raise CheckError(f"graph {graph_id} did not load back as written")
        self.config = gmedian.ExperimentConfig(
            self.model,
            descent=gmedian.DescentConfig(
                ged_phase1=replace(self.solver, method="mbipartite"), ged_phase2=self.solver
            ),
            per_class_sample=self.train,
            rng_seed=seed,
        )
        self.problems = [self.dataset]

    def solve(self, i):
        """One classification run, keeping every median and distance it computes."""
        harness = gmedian.harness
        inner_median, inner_solve = harness.compute_median, harness.solve_ged
        medians, distances = [], []

        def median_call(model, collection, *args, **kwargs):
            result = inner_median(model, collection, *args, **kwargs)
            medians.append((collection, result))
            return result

        def distance_call(model, g, g2, *args, **kwargs):
            result = inner_solve(model, g, g2, *args, **kwargs)
            distances.append((g, g2, result))
            return result

        harness.compute_median, harness.solve_ged = median_call, distance_call
        try:
            report = harness.run_classification(self.problems[i], self.config)
        finally:
            harness.compute_median, harness.solve_ged = inner_median, inner_solve
        return report, medians, distances

    def check(self, i, output):
        report, medians, distances = output
        n_classes = len(self.letters)
        n_test = n_classes * self.test
        plan = {"sm": n_test * n_classes, "gm": n_test * n_classes, "ts": n_test * n_classes * self.train}
        evals = {mode: r.n_distance_evals for mode, r in report.per_mode.items()}
        if evals != plan:
            raise CheckError(f"distance evaluations {evals} do not match the sampling plan {plan}")
        if len(distances) != sum(plan.values()) or len(medians) != n_classes:
            raise CheckError(f"{len(medians)} medians and {len(distances)} distances recorded")
        for c, (collection, result) in enumerate(medians):
            if len(collection) != self.train:
                raise CheckError(f"class {c}: median of {len(collection)} graphs")
            check_median(self.model, collection, result, f"class {c} median")
        for d, (g, g2, result) in enumerate(distances):
            check_cost(self.model, g, g2, result.transformation.forward, result.cost, f"distance {d}")

    def payload(self, i, output):
        report, medians, distances = output
        payload = {
            "accuracy": {mode: r.accuracy_pct for mode, r in sorted(report.per_mode.items())},
            "medians": [median_payload(r) for _, r in medians],
            "distances": [[r.cost, r.transformation.forward.tolist()] for _, _, r in distances],
        }
        objective = sum(r.sod for _, r in medians) + sum(r.cost for _, _, r in distances)
        return objective, payload

    def accuracy(self, outputs):
        return outputs[0][0].per_mode["gm"].accuracy_pct


WORKLOADS = {w.name: w for w in (GedLarge, ClassifyLetter)}
