"""gmedian benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved from
this file). The library is imported from ``src/`` next to this directory,
never from an installed copy.

Set-up (import, input generation, and for ``classify-letter`` writing and
loading the GXL/CXL files) is timed in fresh child processes, nine
times, and ``setup_s`` is their median. The timed phase then repeats whole
passes over the workload's fixed problem set while the ``--seconds`` budget,
counted from the start of the run, allows another pass, and at least three.
``wall_s`` is the time of one pass, taken as the sum over problems of each
problem's median time across passes: the host's speed drifts for seconds at
a time, and a per-problem median discards a drift that covers one pass.
``peak_rss_mb`` is the peak resident memory of this process at the end of
the first pass, so it covers the same work however many passes run.
Outputs of the first pass are checked independently, later passes must
reproduce them exactly, and all of them go into an output digest.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of one traced pass, measured after one untraced pass. A result file with
machine facts goes to ``perfbench/out/``; traced runs also write their
spans there.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before any heavy import

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_RUNS = 9
MIN_PASSES = 3  # per-problem medians need three samples
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

sys.path.insert(0, str(SRC))
import gmedian  # noqa: E402

if not Path(gmedian.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"gmedian was imported from {gmedian.__file__}, not from {SRC}")

from check import CheckError, digest  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


def build_workload(args, tracer=None):
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT_DIR))
    if tracer is not None:
        tracer.problem = "setup"
        tracer.install()
    try:
        return WORKLOADS[args.workload](args.seed, workdir), workdir
    finally:
        if tracer is not None:
            tracer.uninstall()


def setup_only(args):
    """Child process: build the inputs and report the time since start."""
    _, workdir = build_workload(args)
    elapsed = time.perf_counter() - _T0
    shutil.rmtree(workdir)
    print(json.dumps({"setup_s": elapsed}))


def timed_setups(args):
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_RUNS):
        child = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            raise SystemExit(f"set-up child failed with exit code {child.returncode}")
        samples.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def one_pass(workload, tracer=None, index=0):
    """Solve every problem once; return (wall seconds, outputs, errors, per-problem seconds)."""
    outputs, errors, times = [], {}, []
    start = time.perf_counter()
    for i in range(len(workload.problems)):
        if tracer is not None:
            tracer.problem = f"{index}:{i}"
        tick = time.perf_counter()
        try:
            outputs.append(workload.solve(i))
        except Exception:  # a failed problem is counted, the run goes on
            outputs.append(None)
            errors[i] = traceback.format_exc()
        times.append(time.perf_counter() - tick)
    return time.perf_counter() - start, outputs, errors, times


def check_pass(workload, outputs, errors, verify):
    """Objectives, digests and failures of one pass; ``verify`` adds the independent checks."""
    objectives, digests, failures = [], [], dict(errors)
    for i, output in enumerate(outputs):
        if i in failures:
            digests.append(None)
            continue
        try:
            if verify:
                workload.check(i, output)
            objective, payload = workload.payload(i, output)
        except Exception as exc:  # a mismatch or malformed output: count it, check the rest
            failures[i] = str(exc) if isinstance(exc, CheckError) else traceback.format_exc()
            digests.append(None)
            continue
        objectives.append(objective)
        digests.append(digest(payload))
    return objectives, digests, failures


def machine_facts():
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(kind):
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


def timed_phase(args, workload, tracer):
    """Passes over the problem set; a traced run adds one traced pass.

    Returns the first pass's outputs, the peak RSS in MB at the end of the
    first pass and, for every pass, its wall time, per-problem times and
    check result. Only the first pass's outputs are kept, so memory does
    not grow with the number of passes.
    """
    passes, first = [], None
    while True:
        if tracer is not None and passes:
            tracer.install()
        try:
            wall, outputs, errors, times = one_pass(workload, tracer if passes else None, len(passes))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if first is None:
            first = outputs
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # checks run between passes, off the clock
        passes.append((wall, times, check_pass(workload, outputs, errors, verify=not passes)))
        del outputs
        if args.trace:
            if len(passes) == 2:
                break
        elif len(passes) >= MIN_PASSES and time.perf_counter() - _T0 + wall > args.seconds:
            break
    return first, peak_rss_mb, passes


def check_passes(passes):
    """Failures of every pass; later passes must reproduce the first exactly."""
    _, reference, _ = passes[0][2]
    failures = {}
    for p, (_, _, (_, digests, bad)) in enumerate(passes):
        for i, d in enumerate(digests):
            if i in bad:
                failures[f"{p}:{i}"] = bad[i]
            elif d != reference[i]:
                failures[f"{p}:{i}"] = "output differs from the first pass"
    attempted = sum(len(digests) for _, _, (_, digests, _) in passes)
    return failures, attempted


def traced_metrics(args, tracer, passes):
    layers = layer_metrics(tracer.spans, lambda problem: problem != "setup")
    setup_layers = layer_metrics(tracer.spans, lambda problem: problem == "setup")
    layers.update({k: v for k, v in setup_layers.items() if k.startswith("datasets.")})
    layers["trace.overhead_s"] = passes[-1][0] - passes[0][0]
    tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json")
    return layers


def main():
    args = parse_args()
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_only:
        setup_only(args)
        return

    setup_samples = timed_setups(args)
    tracer = Tracer() if args.trace else None
    workload, workdir = build_workload(args, tracer)
    try:
        first, peak_rss_mb, passes = timed_phase(args, workload, tracer)
    finally:
        shutil.rmtree(workdir)

    # everything below is outside the timed phase
    untraced = passes[: len(passes) - args.trace]
    objectives, reference, _ = passes[0][2]
    failures, attempted = check_passes(passes)
    failed = len(failures)
    run_digest = digest(reference)
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(map(statistics.median, zip(*(times for _, times, _ in untraced)))),
        "peak_rss_mb": peak_rss_mb,
        "cost_total": float(sum(objectives)),
        "accuracy_gm_pct": 0.0 if failures else workload.accuracy(first),
    }
    if args.trace:
        kind, values = "per_layer", traced_metrics(args, tracer, passes)
    else:
        kind, values = "end_to_end", end_to_end
    units = declared_metrics(kind)
    if set(units) != set(values):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "setup_samples_s": setup_samples,
        "pass_walls_s": [wall for wall, _, _ in passes],
        "problem_times_s": [times for _, times, _ in passes],
        "problems": len(workload.problems),
        "objectives": objectives,
        "digest": run_digest,
        "failed_frac": failed / attempted,
        "failures": failures,
        "end_to_end": end_to_end,
        "metrics": metrics,
    }
    result_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    summary = " ".join(f"{k}={v:.6g}" for k, v in end_to_end.items())
    print(f"{args.workload} seed={args.seed} passes={len(passes)} {summary} "
          f"failed_frac={failed / attempted:.6g} digest={run_digest[:16]} "
          f"result={result_path.relative_to(ROOT)}")
    for key, msg in list(failures.items())[:5]:
        print(f"FAILED {key}: {msg.strip().splitlines()[-1]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
