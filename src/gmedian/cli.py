"""Command-line interface.

Subcommands: ``ged`` (distance between two graph files), ``set-median``,
``median`` (median of a collection, written in the native format),
``sod-table`` and ``classify`` (experiment reports). Exit codes: 0 success,
1 usage or configuration error, 2 data error. ``GMG_LOG`` sets the log
level (e.g. ``info``, ``debug``); configuration precedence is flags over
``--config`` file over defaults, and ``--dump-config`` prints the resolved
configuration as JSON without running. The defaults are the library's own except
``run.threads`` and ``run.out``; each flag sets one ``section.key`` and is listed once, in ``FLAGS``.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import os
import sys
from collections.abc import Callable
from pathlib import Path

from .costs import make_cost_model
from .datasets import (
    DatasetError,
    LabelCodec,
    ModeHints,
    _parse_gxl_files,
    load_collection,
    load_graph,
    save_graph,
)
from .graphs import LABEL, NO_EDGE_ATTRS, VECTOR, GraphError
from .harness import ExperimentConfig, run_classification, run_sod_experiment
from .median import DescentConfig, compute_median, set_median
from .solvers import METHODS, GedSolverConfig, solve_ged

__all__ = ["main"]


def _library_defaults() -> dict:
    model, solver, descent = make_cost_model(), GedSolverConfig(), DescentConfig()
    experiment = ExperimentConfig(model)
    return {
        "cost": {
            "c_vs": model.vertex_subst.cost, "c_es": model.edge_subst.cost,
            "c_vr": model.c_vr, "c_vi": model.c_vi, "c_er": model.c_er, "c_ei": model.c_ei,
        },
        "ged": {
            "method": solver.method, "multistart": solver.multistart_count, "seed": solver.rng_seed,
            "phase1": descent.ged_phase1.method, "phase2": descent.ged_phase2.method,
        },
        "data": vars(ModeHints()),
        "run": {
            "sample": experiment.per_class_sample, "repeats": experiment.repeats, "max_iters": descent.max_iters,
            "threads": 1,  # accepted and ignored: every solve runs on one thread
            "out": None,
        },
    }


DEFAULTS = _library_defaults()


def _comma_list(text: str) -> list[str] | None:
    return text.split(",") if text else None


# (section, key, argparse options): flag --key, dashed, sets config[section][key]
FLAGS = (
    ("ged", "phase1", {"choices": METHODS, "help": "solver for set-median search"}),
    ("ged", "phase2", {"choices": METHODS, "help": "solver for refinement and distances"}),
    ("ged", "multistart", {"type": int, "metavar": "N", "help": "random starts per solve"}),
    ("ged", "seed", {"type": int, "metavar": "N", "help": "base random seed"}),
    ("run", "threads", {"type": int, "metavar": "N", "help": "accepted and ignored"}),
    ("run", "sample", {"type": float, "metavar": "X", "help": "per-class count (>=1) or fraction (<1)"}),
    ("run", "repeats", {"type": int, "metavar": "N", "help": "experiment repetitions"}),
    ("run", "out", {"metavar": "PATH", "help": "output file"}),
    ("run", "max_iters", {"type": int, "metavar": "N", "help": "descent iteration cap"}),
    ("data", "node_kind", {"choices": [LABEL, VECTOR], "help": "vertex attribute kind"}),
    ("data", "node_attrs", {"type": _comma_list, "metavar": "NAMES", "help": "comma list of GXL attr names"}),
    ("data", "edge_kind", {"choices": [LABEL, NO_EDGE_ATTRS], "help": "edge attribute kind"}),
    ("data", "edge_attr", {"metavar": "NAME", "help": "GXL edge label attr name"}),
)

# a config-file value is held to the choices of its flag
_CHOICES = {(section, key): options["choices"] for section, key, options in FLAGS if "choices" in options}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


def _parse_cost_spec(spec: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"bad --cost item {item!r}, expected name=value")
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in DEFAULTS["cost"]:
            raise UsageError(f"unknown cost constant {name!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise UsageError(f"bad value for cost constant {name!r}: {value!r}")
    return out


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="JSON config file")
    parser.add_argument("--dump-config", action="store_true", help="print resolved config and exit")
    parser.add_argument("--cost", metavar="SPEC", help="comma list, e.g. c_vs=1,c_vr=3")
    for section, key, options in FLAGS:
        parser.add_argument("--" + key.replace("_", "-"), dest=f"{section}.{key}", **options)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gmedian", description="Median graphs under edit distance")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ged", help="edit distance between two graph files")
    p.add_argument("graph", help="source graph (.gxl or .gmg)")
    p.add_argument("graph2", help="target graph (.gxl or .gmg)")
    p.add_argument("--method", dest="ged.method", choices=METHODS, help="solver (default: ged.method)")
    _add_common(p)

    for name, help_text in (
        ("set-median", "collection member with the smallest distance sum"),
        ("median", "full median search over a collection"),
        ("sod-table", "per-class set-median vs median distance sums"),
        ("classify", "nearest-prototype and 1-NN accuracy"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--dataset", required=True, metavar="INDEX", help="collection index file")
        _add_common(p)
    return parser


def _config_type_ok(default, key: str, value) -> bool:
    """Integers where the default is an int, finite numbers where it is a float; else a string
    (or null where the default is null)."""
    if key == "node_attrs":
        return value is None or (isinstance(value, list) and all(isinstance(v, str) for v in value))
    if default is None or isinstance(default, str):
        return isinstance(value, str) or (default is None and value is None)
    # an int setting refuses 2.7 rather than truncate it to 2
    kinds = int if isinstance(default, int) else (int, float)
    # NaN, and JSON numbers beyond the float range (1e400 parses as inf), fail the bound
    return isinstance(value, kinds) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _resolve_config(args: argparse.Namespace) -> dict:
    config = copy.deepcopy(DEFAULTS)
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise DatasetError(f"cannot read config file {args.config}: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad JSON in config file {args.config}: {exc}")
        for section, values in loaded.items():
            if section not in config:
                raise UsageError(f"unknown config section {section!r}")
            if not isinstance(values, dict):
                raise UsageError(f"config section {section!r} must be an object")
            for key, value in values.items():
                if key not in config[section]:
                    raise UsageError(f"unknown config key {section}.{key}")
                if not _config_type_ok(DEFAULTS[section][key], key, value):
                    raise UsageError(f"config key {section}.{key} has the wrong type: {json.dumps(value)}")
                choices = _CHOICES.get((section, key))
                if choices and value is not None and value not in choices:
                    allowed = ", ".join(choices)
                    raise UsageError(f"config key {section}.{key} must be one of {allowed}, got {json.dumps(value)}")
                config[section][key] = value
    if args.cost:
        config["cost"].update(_parse_cost_spec(args.cost))
    for dest, value in vars(args).items():  # a flag's dest is "section.key"
        if "." in dest and value is not None:
            section, key = dest.split(".")
            config[section][key] = value
    return config


def _solver_config(config: dict, method: str) -> GedSolverConfig:
    ged = config["ged"]
    return GedSolverConfig(method=method, multistart_count=int(ged["multistart"]), rng_seed=int(ged["seed"]))


def _descent_config(config: dict) -> DescentConfig:
    return DescentConfig(
        ged_phase1=_solver_config(config, config["ged"]["phase1"]),
        ged_phase2=_solver_config(config, config["ged"]["phase2"]),
        max_iters=int(config["run"]["max_iters"]),
    )


def _format_forward(t) -> str:
    parts = [f"{i}->{'x' if v == t.target_order else v}" for i, v in enumerate(t.forward.tolist())]
    return " ".join(parts) if parts else "(empty)"


def _cmd_ged(args: argparse.Namespace, config: dict) -> int:
    paths = [Path(args.graph), Path(args.graph2)]
    # the GXL files get one layout and one codec per attribute space, so a string label gets one code
    gxl = [p for p in paths if p.suffix.lower() != ".gmg"]
    parsed = iter(_parse_gxl_files(gxl, ModeHints(**config["data"]), LabelCodec(), LabelCodec())[1])
    g, g2 = (load_graph(p) if p.suffix.lower() == ".gmg" else next(parsed) for p in paths)
    # a .gmg header states its own modes
    if (g.vertex_mode, g.edge_mode) != (g2.vertex_mode, g2.edge_mode) or (
        g.order and g2.order and g.vector_dim != g2.vector_dim  # zero vertices show no vector width
    ):
        raise DatasetError(f"{args.graph} and {args.graph2} differ in attribute modes or vector width")
    model = make_cost_model(g.vertex_mode, g.edge_mode, **config["cost"])
    result = solve_ged(model, g, g2, _solver_config(config, config["ged"]["method"]))
    print(f"cost {result.cost:.12g}")
    print(f"exact {'yes' if result.is_exact else 'no'}")
    print(f"map {_format_forward(result.transformation)}")
    return 0


def _load_dataset(args: argparse.Namespace, config: dict):
    dataset = load_collection(args.dataset, ModeHints(**config["data"]))
    model = make_cost_model(dataset.vertex_mode, dataset.edge_mode, **config["cost"])
    return dataset, model


def _cmd_set_median(args: argparse.Namespace, config: dict) -> int:
    dataset, model = _load_dataset(args, config)
    descent = _descent_config(config)
    result = set_median(model, dataset.graphs, descent.ged_phase1)
    print(f"set-median index {result.index}")
    print(f"sod {result.sod:.12g}")
    out = config["run"]["out"] or "set_median.gmg"
    save_graph(dataset.graphs[result.index], out)
    print(f"wrote {out}")
    return 0


def _cmd_median(args: argparse.Namespace, config: dict) -> int:
    dataset, model = _load_dataset(args, config)
    result = compute_median(model, dataset.graphs, _descent_config(config))
    for rec in result.trace:
        print(f"iter {rec.iteration} sod {rec.sod_upper:.12g} changed {rec.changed}")
    print(f"converged {'yes' if result.converged else 'no'} iterations {result.iterations}")
    out = config["run"]["out"] or "median.gmg"
    save_graph(result.median, out)
    print(f"wrote {out}")
    print(f"sod {result.sod:.12g}")
    return 0


def _cmd_report(args: argparse.Namespace, config: dict, experiment: Callable) -> int:
    dataset, model = _load_dataset(args, config)
    exp = ExperimentConfig(
        model=model,
        descent=_descent_config(config),
        per_class_sample=float(config["run"]["sample"]),
        repeats=int(config["run"]["repeats"]),
        rng_seed=int(config["ged"]["seed"]),
    )
    report = experiment(dataset, exp)
    print(report.to_table())
    if config["run"]["out"]:
        Path(config["run"]["out"]).write_text(report.to_csv())
        print(f"wrote {config['run']['out']}")
    return 0


_COMMANDS = {
    "ged": _cmd_ged,
    "set-median": _cmd_set_median,
    "median": _cmd_median,
    "sod-table": lambda args, config: _cmd_report(args, config, run_sod_experiment),
    "classify": lambda args, config: _cmd_report(args, config, run_classification),
}


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("GMG_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        config = _resolve_config(args)
        if args.dump_config:
            print(json.dumps(config, indent=2, sort_keys=True))
            return 0
        return _COMMANDS[args.command](args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, GraphError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
