"""Experiment harness: per-class median quality and 1-NN classification.

Both experiments draw per-class samples without replacement from seeded
generators, so any run is reproducible from its configuration. Reports
carry machine-readable rows plus CSV and aligned-table renderings.
"""

from __future__ import annotations

import csv
import io
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .costs import CostModel
from .datasets import DatasetDescriptor
from .graphs import AttributedGraph
from .median import DescentConfig, _child_seed, _seeded, compute_median
from .solvers import _check_whole, solve_ged

__all__ = [
    "HarnessError",
    "ExperimentConfig",
    "SodRow",
    "SodReport",
    "ModeResult",
    "ClassificationReport",
    "run_sod_experiment",
    "run_classification",
]

MODES = ("sm", "gm", "ts")


class HarnessError(ValueError):
    """Degenerate experiment configuration for the given dataset."""


def _csv(rows: list[list]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _table(widths: tuple[int, ...], rows: list[list]) -> str:
    """Cells padded to ``widths``, left-aligned in the first column and right-aligned in the rest."""
    aligns = ["<"] + [">"] * (len(widths) - 1)
    return "\n".join("".join(f"{c:{a}{w}}" for c, a, w in zip(row, aligns, widths)) for row in rows)


@dataclass(frozen=True)
class ExperimentConfig:
    """Sampling plan plus the descent configuration to run per class.

    ``per_class_sample`` below 1.0 is a fraction of each class, rounded
    half to even and at least one graph (0.5 samples 2 of 5 graphs and 4
    of 7); 1.0 and above is an absolute count, a whole number.
    """

    model: CostModel
    descent: DescentConfig = DescentConfig()
    per_class_sample: float = 10.0
    repeats: int = 1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.per_class_sample, bool):  # True would pass as a count of one
            raise HarnessError(f"per_class_sample must be a number, got {self.per_class_sample!r}")
        if not 0 < self.per_class_sample <= sys.float_info.max:  # also false for NaN
            raise HarnessError(f"per_class_sample must be finite and positive, got {self.per_class_sample!r}")
        if self.per_class_sample >= 1.0 and self.per_class_sample != int(self.per_class_sample):
            raise HarnessError(f"per_class_sample of 1 or more must be a whole count, got {self.per_class_sample!r}")
        _check_whole(HarnessError, repeats=self.repeats, rng_seed=self.rng_seed)
        if self.repeats < 1:
            raise HarnessError("repeats must be at least 1")
        if self.rng_seed < 0:
            raise HarnessError(f"rng_seed must be non-negative, got {self.rng_seed!r}")

    def sample_size(self, class_size: int) -> int:
        if self.per_class_sample < 1.0:
            return max(1, round(self.per_class_sample * class_size))
        return int(self.per_class_sample)


@dataclass
class SodRow:
    class_label: str
    repeat: int
    sod_sm: float
    t_sm: float
    sod_gm: float
    t_gm: float


@dataclass
class SodReport:
    rows: list[SodRow]

    @property
    def mean_sod_sm(self) -> float:
        return float(np.mean([r.sod_sm for r in self.rows]))

    @property
    def mean_sod_gm(self) -> float:
        return float(np.mean([r.sod_gm for r in self.rows]))

    def _cells(self, sod: str, t: str) -> list[list]:
        """The header, then the rows with their SODs in format ``sod`` and their times in format ``t``."""
        return [["class", "repeat", "sod_sm", "t_sm", "sod_gm", "t_gm"]] + [
            [r.class_label, r.repeat, f"{r.sod_sm:{sod}}", f"{r.t_sm:{t}}", f"{r.sod_gm:{sod}}", f"{r.t_gm:{t}}"]
            for r in self.rows
        ]

    def to_csv(self) -> str:
        return _csv(self._cells(".6f", ".4f"))

    def to_table(self) -> str:
        mean = ["mean", "", f"{self.mean_sod_sm:.4f}", "", f"{self.mean_sod_gm:.4f}", ""]
        return _table((12, 8, 14, 10, 14, 10), [*self._cells(".4f", ".3f"), mean])


def _derived_descent(config: ExperimentConfig, *tags: int) -> DescentConfig:
    d, seed = config.descent, config.rng_seed
    return replace(d, ged_phase1=_seeded(d.ged_phase1, seed, *tags), ged_phase2=_seeded(d.ged_phase2, seed, *tags))


def _split_class(
    dataset: DatasetDescriptor, config: ExperimentConfig, label: str, *tags: int, keep_test: bool
) -> tuple[list[AttributedGraph], list[AttributedGraph]]:
    """Class ``label``'s sample, drawn by the generator seeded ``(config.rng_seed, *tags)``, and the rest of it,
    both in dataset order; with ``keep_test`` the rest must not be empty."""
    members = [r.graph for r in dataset.records if r.class_label == label]
    k = config.sample_size(len(members))
    if keep_test and k >= len(members):
        raise HarnessError(f"class {label!r} has {len(members)} graphs; sampling {k} leaves no test set")
    if k > len(members):
        raise HarnessError(f"class {label!r} has {len(members)} graphs, cannot sample {k}")
    rng = np.random.default_rng(np.random.SeedSequence([config.rng_seed, *tags]))
    picked = set(rng.permutation(len(members))[:k].tolist())
    return [g for i, g in enumerate(members) if i in picked], [g for i, g in enumerate(members) if i not in picked]


def run_sod_experiment(dataset: DatasetDescriptor, config: ExperimentConfig) -> SodReport:
    """Median quality per class: set-median vs descended median.

    For every class and repeat, samples the configured number of graphs,
    runs the full median search, and records both sums of distances with
    the wall time of each phase. The descent starts from the set median
    and never raises the SOD, so ``sod_gm <= sod_sm`` on every row.
    """
    if not dataset.records:
        raise HarnessError(f"dataset {dataset.name!r} has no graphs")
    rows: list[SodRow] = []
    for ci, label in enumerate(dataset.classes):
        for rep in range(config.repeats):
            subset, _ = _split_class(dataset, config, label, ci, rep, keep_test=False)
            result = compute_median(config.model, subset, _derived_descent(config, ci, rep))
            rows.append(SodRow(label, rep, result.set_median_sod, result.t_phase1, result.sod, result.t_phase2))
    return SodReport(rows)


@dataclass
class ModeResult:
    accuracy_pct: float
    time_s: float
    n_distance_evals: int


@dataclass
class ClassificationReport:
    """Nearest-prototype and 1-NN accuracy, averaged over repeats."""

    pt: float
    per_mode: dict[str, ModeResult]
    repeats: int

    def _cells(self, acc: str, t: str) -> list[list]:
        """The header, then one row per mode with its accuracy in format ``acc`` and its times in format ``t``."""
        return [["mode", "accuracy_pct", "time_s", "pt"]] + [
            [m, f"{self.per_mode[m].accuracy_pct:{acc}}", f"{self.per_mode[m].time_s:{t}}", f"{self.pt:{t}}"]
            for m in MODES
        ]

    def to_csv(self) -> str:
        return _csv(self._cells(".4f", ".4f"))

    def to_table(self) -> str:
        return _table((6, 14, 10, 10), self._cells(".2f", ".3f"))


def run_classification(dataset: DatasetDescriptor, config: ExperimentConfig) -> ClassificationReport:
    """1-NN accuracy with three training representations.

    Per repeat, each class is split into a sampled train set and the rest
    as test set. Mode ``sm`` classifies against each class's set median,
    ``gm`` against its descended median (one distance per class and test
    graph), ``ts`` against every training graph. Distances use the phase-2
    solver from the median prototype (or training graph) to the test
    graph; ties pick the smallest class index. ``pt`` is the total median
    computation time.
    """
    classes = dataset.classes
    if len(classes) < 2:
        raise HarnessError("classification needs at least two classes")
    per_mode_acc = {m: [] for m in MODES}
    per_mode_time = {m: 0.0 for m in MODES}
    per_mode_evals = {m: 0 for m in MODES}
    pt_total = 0.0
    solver = config.descent.ged_phase2

    for rep in range(config.repeats):
        splits = [
            _split_class(dataset, config, label, 1, ci, rep, keep_test=True) for ci, label in enumerate(classes)
        ]
        test = [(ci, g) for ci, (_, rest) in enumerate(splits) for g in rest]

        references: dict[str, list[tuple[int, AttributedGraph]]] = {"sm": [], "gm": []}
        tick = time.perf_counter()
        for ci, (train, _) in enumerate(splits):
            result = compute_median(config.model, train, _derived_descent(config, 1, ci, rep))
            references["sm"].append((ci, train[result.set_median_index]))
            references["gm"].append((ci, result.median))
        pt_total += time.perf_counter() - tick
        references["ts"] = [(ci, g) for ci, (train, _) in enumerate(splits) for g in train]

        for mode, mode_tag in (("sm", 0), ("gm", 0), ("ts", 1)):
            tick = time.perf_counter()
            correct = 0
            for ti, (true_ci, tg) in enumerate(test):
                dists = []
                for ri, (_, g) in enumerate(references[mode]):
                    seed = _child_seed(config.rng_seed, 2, rep, mode_tag, ti, ri)
                    dists.append(solve_ged(config.model, g, tg, replace(solver, rng_seed=seed)).cost)
                per_mode_evals[mode] += len(dists)
                if references[mode][int(np.argmin(dists))][0] == true_ci:
                    correct += 1
            per_mode_time[mode] += time.perf_counter() - tick
            per_mode_acc[mode].append(100.0 * correct / len(test))

    per_mode = {m: ModeResult(float(np.mean(per_mode_acc[m])), per_mode_time[m], per_mode_evals[m]) for m in MODES}
    return ClassificationReport(pt=pt_total, per_mode=per_mode, repeats=config.repeats)
