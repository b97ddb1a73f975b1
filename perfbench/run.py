"""End-to-end benchmark of the HADFL simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-4221 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracer installed;
``--trace 1`` runs two trajectories twice each, untraced and traced,
and reports the per-layer metrics.  Both print a table, an environment
manifest, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The workloads,
metrics and the layer map are described in ``perfbench/LAYERS.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END_UNITS = {
    "samples_per_s": "samples/s",
    "round_wall_p50_s": "s",
    "round_wall_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "tta_virtual_s": "virtual_s",
    "final_accuracy": "fraction",
    "comm_bytes_per_round": "B",
    "speedup_vs_fedavg": "x",
    "speedup_vs_distributed": "x",
}

# (metric, unit, layer, field); field is a LayerStats attribute, or
# ``count:<name>`` for a counter.
PER_LAYER = [
    ("data.loader.calls", "count", "data.loader", "calls"),
    ("data.loader.self_s", "s", "data.loader", "self_s"),
    ("data.synthetic.self_s", "s", "data.synthetic", "self_s"),
    ("nn.calls", "count", "nn", "calls"),
    ("nn.self_s", "s", "nn", "self_s"),
    ("autograd.calls", "count", "autograd", "calls"),
    ("autograd.self_s", "s", "autograd", "self_s"),
    ("optim.calls", "count", "optim", "calls"),
    ("optim.self_s", "s", "optim", "self_s"),
    ("sim.executor.calls", "count", "sim.executor", "calls"),
    ("sim.executor.self_s", "s", "sim.executor", "self_s"),
    ("parallel.calls", "count", "parallel", "calls"),
    ("parallel.wait_s", "s", "parallel", "self_s"),
    ("sim.rounds.arrivals", "count", "sim.rounds", "count:sim.rounds.arrivals"),
    ("sim.rounds.self_s", "s", "sim.rounds", "self_s"),
    ("comm.ring_repair.calls", "count", "comm.ring_repair", "calls"),
    ("comm.ring_repair.self_s", "s", "comm.ring_repair", "self_s"),
    ("comm.allreduce.calls", "count", "comm.allreduce", "calls"),
    ("comm.allreduce.self_s", "s", "comm.allreduce", "self_s"),
    ("comm.allreduce.bytes", "B", "comm.allreduce", "count:comm.allreduce.bytes"),
    ("comm.wire.calls", "count", "comm.wire", "calls"),
    ("comm.wire.self_s", "s", "comm.wire", "self_s"),
    ("comm.wire.bytes", "B", "comm.wire", "count:comm.wire.bytes"),
    ("comm.volume.calls", "count", "comm.volume", "calls"),
    ("comm.volume.self_s", "s", "comm.volume", "self_s"),
    ("core.selection.calls", "count", "core.selection", "calls"),
    ("core.selection.self_s", "s", "core.selection", "self_s"),
    ("core.coordinator.calls", "count", "core.coordinator", "calls"),
    ("core.coordinator.self_s", "s", "core.coordinator", "self_s"),
    ("sim.failures.calls", "count", "sim.failures", "calls"),
    ("sim.failures.self_s", "s", "sim.failures", "self_s"),
    ("sim.failures.ids_scanned", "count", "sim.failures", "count:sim.failures.ids_scanned"),
    ("sim.population.materialise_calls", "count", "sim.population",
     "count:sim.population.materialise_calls"),
    ("sim.population.self_s", "s", "sim.population", "self_s"),
    ("sim.population.pool_high_water", "count", "sim.population",
     "count:sim.population.pool_high_water"),
    ("eval.calls", "count", "eval", "calls"),
    ("eval.total_s", "s", "eval", "inclusive_s"),
    ("trainer.self_s", "s", "trainer", "self_s"),
]
SETUP_SAMPLES = 15
TRACED_PAIRS = 2


class BenchmarkError(Exception):
    """The benchmark cannot run here (bad arguments or missing program)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 3600:
        parser.error("--seconds must be in (0, 3600]")
    return args


def import_program():
    """Import the program from ``src/`` next to this directory."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise BenchmarkError(f"program sources not found under {src}")
    for path in (src, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import tracer, workloads

    return tracer, workloads


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def tail(samples, beyond: int = 10):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, count)``: the value at rank
    ``n - beyond`` of the sorted samples, so exactly ``beyond`` samples
    lie beyond it (fewer when values tie), and its percentile
    ``100 * (n - beyond) / n``; the maximum (p100) below ``beyond + 1``
    samples.
    """
    n = len(samples)
    ordered = sorted(samples)
    if n <= beyond:
        # Too few samples for any percentile to have ``beyond`` above
        # it: the maximum is the conservative stand-in.
        return ordered[-1], 100.0, n
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


def peak_rss_mib(who: int) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# Environment manifest
# --------------------------------------------------------------------- #
def blas_info():
    """BLAS library and its live thread count, read through ctypes from
    the OpenBLAS that numpy bundles (threadpoolctl is not required)."""
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            return {
                "library": os.path.basename(path),
                "config": get_config().decode(),
                "threads": get_threads(),
            }
    return {"library": "unknown", "config": "", "threads": None}


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git (a
    child process would count in the workers' peak RSS)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args, trajectories: int):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "trajectories": trajectories,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_info(),
        "git_sha": git_sha(),
    }


# --------------------------------------------------------------------- #
# The benchmark
# --------------------------------------------------------------------- #
def measure_setup(workloads, workload, sub_seeds, trajectories):
    """Median set-up time over at least ``SETUP_SAMPLES`` builds, and
    whether repeated builds from one sub-seed were bitwise identical."""
    samples = [t.setup_s for t in trajectories]
    digests = {t.sub_seed: t.setup_digest for t in trajectories}
    problems = []
    for i in range(max(0, SETUP_SAMPLES - len(samples))):
        sub_seed = sub_seeds[i % len(sub_seeds)]
        runs, elapsed, digest = workloads.build_timed(workload, sub_seed)
        for run in runs:
            run.close()
        samples.append(elapsed)
        if digests.get(sub_seed, digest) != digest:
            problems.append(f"set-up of sub-seed {sub_seed} is not deterministic")
    return statistics.median(samples), problems


def run_benchmark(args) -> int:
    tracer_mod, workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        raise BenchmarkError(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload]
    count = workload.trajectories(args.seconds)
    if args.trace:
        # Layer shares need few trajectories; each one runs twice here.
        count = min(count, TRACED_PAIRS)
    sub_seeds = [workload.sub_seed(args.seed, i) for i in range(count)]
    env = manifest(args, count)

    untraced, traced = [], []
    warmup = None
    if args.trace:
        # Warm-up for the overhead comparison (first calls, first fork);
        # it also repeats sub-seed 0 for the determinism check.
        warmup = workloads.run_trajectory(workload, sub_seeds[0])
    layers_total, counts_total, worker_layers, worker_counts = {}, {}, {}, {}
    for index, sub_seed in enumerate(sub_seeds):
        if not args.trace:
            untraced.append(workloads.run_trajectory(workload, sub_seed))
            continue
        # Alternate which side goes first so warm-up favours neither.
        for traced_side in ((False, True) if index % 2 == 0 else (True, False)):
            if not traced_side:
                untraced.append(workloads.run_trajectory(workload, sub_seed))
                continue
            tracer = tracer_mod.Tracer()
            layers = tracer_mod.install(tracer)
            try:
                traced.append(workloads.run_trajectory(workload, sub_seed))
            finally:
                layers.uninstall()
            tracer_mod.merge_into(layers_total, counts_total, tracer.export())
            for exported in layers.drain_workers():
                tracer_mod.merge_into(worker_layers, worker_counts, exported)
    untraced.sort(key=lambda t: t.sub_seed)

    problems = []
    failed_by_trajectory = []
    for trajectory in untraced:
        trouble = workloads.check_trajectory(workload, trajectory)
        failed = sum(workloads.failed_rounds(r) for r in trajectory.results.values())
        if trouble:
            problems += [f"sub-seed {trajectory.sub_seed}: {p}" for p in trouble]
            failed = trajectory.rounds
        failed_by_trajectory.append(failed)
    for traced_run in traced:
        twin = next(t for t in untraced if t.sub_seed == traced_run.sub_seed)
        if workloads.trajectory_digest(traced_run) != workloads.trajectory_digest(twin):
            problems.append(
                f"sub-seed {traced_run.sub_seed}: traced trajectory differs "
                "from the untraced one"
            )
            failed_by_trajectory[untraced.index(twin)] = twin.rounds
    if warmup is not None and (
        workloads.trajectory_digest(warmup) != workloads.trajectory_digest(untraced[0])
    ):
        problems.append(f"sub-seed {warmup.sub_seed}: repeated trajectory differs")
        failed_by_trajectory[0] = untraced[0].rounds
    setup_s, setup_problems = measure_setup(workloads, workload, sub_seeds, untraced)
    problems += setup_problems

    walls = [w for t in untraced for w in t.round_walls]
    tail_value, tail_pct, tail_n = tail(walls)
    virtual = workloads.virtual_metrics(workload, untraced)
    end_to_end = {
        "samples_per_s": statistics.median(t.samples / t.train_s for t in untraced),
        "round_wall_p50_s": statistics.median(walls),
        "round_wall_tail_s": tail_value,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mib(resource.RUSAGE_SELF),
        **virtual,
    }
    attempted = sum(t.rounds for t in untraced)
    failed = sum(failed_by_trajectory)

    print(f"workload {workload.name}: {workload.why}")
    print(f"target accuracy {workload.target_accuracy}; "
          f"sub-seeds {sub_seeds}; rounds attempted {attempted}")
    for name, value in end_to_end.items():
        print(f"  {name:<26} {value:>14.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'ops_failed_frac':<26} {failed / attempted:>14.6g} fraction")
    print(f"  round_wall_tail_s is p{tail_pct:.1f} of {tail_n} rounds")
    # Equal seeds must print equal digests, on any commit that claims to
    # leave the trajectories unchanged.
    print("  virtual digest " + workloads.set_digest(untraced))
    if not workload.compares_baselines:
        print("  speedups: no baselines run on this workload (reported as 1.0)")
    worker_rss = peak_rss_mib(resource.RUSAGE_CHILDREN)
    if worker_rss:
        print(f"  largest worker peak RSS      {worker_rss:.1f} MiB")

    if args.trace:
        metrics = per_layer_metrics(
            layers_total, counts_total, worker_layers, worker_counts,
            traced, untraced, problems,
        )
    else:
        metrics = {
            name: {"value": float(value), "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end.items()
        }
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("manifest: " + json.dumps(env, sort_keys=True))
    correct = not problems and all(
        math.isfinite(m["value"]) for m in metrics.values()
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def per_layer_metrics(layers, counts, worker_layers, worker_counts, traced, untraced, problems):
    """Per-traced-trajectory layer metrics, with the layer table printed.

    Worker-side totals (``cluster-process``) are added to the parent's:
    they are CPU seconds spent in the layer by any process.
    """
    from perfbench.tracer import ROOT_LAYER, LayerStats

    n = len(traced)
    root = layers.get(ROOT_LAYER, LayerStats())
    in_root = sum(s.self_in_root_s for s in layers.values())
    if not math.isclose(in_root, root.inclusive_s, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(
            f"layer self times under the root sum to {in_root:.6f} s, "
            f"root span is {root.inclusive_s:.6f} s"
        )
    traced_s = sum(t.train_s for t in traced)
    untraced_s = sum(t.train_s for t in untraced)
    overhead = (traced_s - untraced_s) / untraced_s

    print(f"traced: {n} trajectories, root span {root.inclusive_s / n:.4f} s each, "
          f"tracing overhead {overhead:+.2%}")
    print(f"  {'layer':<18} {'calls':>9} {'self_s':>10} {'share':>8}   worker calls / self_s")
    for name in sorted(set(layers) | set(worker_layers)):
        parent = layers.get(name, LayerStats())
        worker = worker_layers.get(name)
        share = parent.self_in_root_s / root.inclusive_s if root.inclusive_s else 0.0
        extra = f"   {worker.calls / n:.0f} / {worker.self_s / n:.4f}" if worker else ""
        print(f"  {name:<18} {parent.calls / n:>9.0f} {parent.self_s / n:>10.4f} "
              f"{share:>8.2%}{extra}")

    metrics = {}
    for metric, unit, layer, field in PER_LAYER:
        total = 0.0
        for source_layers, source_counts in ((layers, counts), (worker_layers, worker_counts)):
            if field.startswith("count:"):
                key = field[len("count:"):]
                value = source_counts.get(key, 0)
                if key.endswith("high_water"):
                    total = max(total, value)
                    continue
            else:
                value = getattr(source_layers.get(layer, LayerStats()), field)
            total += value / n
        metrics[metric] = {"value": float(total), "unit": unit}
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run_benchmark(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
