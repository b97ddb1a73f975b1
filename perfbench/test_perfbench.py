"""Tests of the benchmark's own code: span arithmetic, the tail
percentile, metric names, and that tracing leaves trajectories intact.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

import json
import os
import re

import numpy as np
import pytest

from perfbench import tracer as tracer_mod
from perfbench import workloads
from perfbench.run import END_TO_END_UNITS, PER_LAYER, tail

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Metric names BENCHMARK.json accepts: a letter or digit first, then at
# most 63 letters, digits, ``_``, ``.`` or ``-``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = tracer_mod.Tracer(clock)
    root = t.enter("trainer")
    clock.now = 1.0
    child = t.enter("nn")
    clock.now = 3.0
    grandchild = t.enter("autograd")
    clock.now = 3.5
    t.exit(grandchild)
    clock.now = 4.0
    t.exit(child)
    clock.now = 10.0
    t.exit(root)
    layers = t.layers
    assert layers["trainer"].inclusive_s == 10.0
    assert layers["trainer"].self_s == 7.0
    assert layers["nn"].self_s == 2.5
    assert layers["autograd"].self_s == 0.5
    assert sum(s.self_in_root_s for s in layers.values()) == 10.0


def test_reentrant_span_collapses_into_outer():
    clock = FakeClock()
    t = tracer_mod.Tracer(clock)
    root = t.enter("trainer")
    outer = t.enter("core.selection")
    clock.now = 1.0
    inner = t.enter("core.selection")
    assert inner is None
    clock.now = 2.0
    t.exit(inner)
    clock.now = 3.0
    t.exit(outer)
    t.exit(root)
    stats = t.layers["core.selection"]
    assert stats.calls == 1
    assert stats.self_s == 3.0
    assert t.layers["trainer"].self_s == 0.0


def test_spans_outside_root_are_not_counted_in_root():
    clock = FakeClock()
    t = tracer_mod.Tracer(clock)
    setup = t.enter("data.synthetic")
    clock.now = 2.0
    t.exit(setup)
    assert t.layers["data.synthetic"].self_s == 2.0
    assert t.layers["data.synthetic"].self_in_root_s == 0.0


def test_tail_keeps_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    value, percentile, n = tail(samples)
    assert (value, percentile, n) == (90, 90.0, 100)
    assert sum(s > value for s in samples) == 10
    value, percentile, n = tail(list(range(20)))
    assert (value, percentile) == (9, 50.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_crossing_time_interpolates_the_first_crossing():
    times = np.array([1.0, 2.0, 3.0, 4.0])
    accs = np.array([0.2, 0.6, 0.4, 0.9])
    assert workloads.crossing_time(times, accs, 0.5) == pytest.approx(1.75)
    assert workloads.crossing_time(times, accs, 0.1) == 1.0
    assert workloads.crossing_time(times, accs, 0.95) is None


def test_mean_curve_averages_on_shared_times():
    from repro.metrics.records import RoundRecord, RunResult

    def run(points):
        result = RunResult(scheme="hadfl")
        for i, (t, acc) in enumerate(points):
            result.append(RoundRecord(
                round_index=i, sim_time=t, global_epoch=float(i), train_loss=1.0,
                test_accuracy=acc, comm_bytes=0,
            ))
        return result

    grid, mean = workloads.mean_curve([
        run([(1.0, 0.2), (2.0, 0.6), (3.0, 0.8)]),
        run([(1.0, 0.4), (2.0, 0.8), (3.0, None), (4.0, 0.9)]),
    ])
    assert grid.tolist() == [1.0, 2.0, 3.0]
    # The second run was not evaluated at t=3: interpolated to 0.85.
    assert mean.tolist() == pytest.approx([0.3, 0.7, 0.825])


def test_metric_names_are_valid():
    names = list(END_TO_END_UNITS) + [m[0] for m in PER_LAYER] + ["trace.overhead_frac"]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.fullmatch(n) for n in names)
    for bad in ("", ".x", "a b", "a/b", "x" * 65):
        assert not METRIC_NAME.fullmatch(bad)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"] for m in spec["end_to_end"]} == set(END_TO_END_UNITS)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == END_TO_END_UNITS[metric["name"]]
    per_layer = {m[0]: m[1] for m in PER_LAYER}
    per_layer["trace.overhead_frac"] = "fraction"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def _small_hadfl(executor="serial"):
    from repro.experiments import ExperimentConfig

    config = ExperimentConfig(
        num_train=128, num_test=64, target_epochs=3.0, seed=5,
        executor=executor, executor_workers=2 if executor == "process" else None,
    )
    return workloads.Workload(
        name="small", why="test", target_accuracy=0.1, nominal_trajectory_s=1.0,
        min_trajectories=1,
        build=lambda seed: [workloads._cluster_run("hadfl", config)],
    )


def _small_population():
    from repro.experiments.population import PopulationConfig

    config = PopulationConfig(
        population=5_000, participants=8, rounds=3, eval_every=1,
        availability="diurnal", wire_dtype="topk0.2", num_train=128,
        num_test=64, seed=5,
    )
    return config, workloads.Workload(
        name="small-pop", why="test", target_accuracy=0.1, nominal_trajectory_s=1.0,
        min_trajectories=1,
        build=lambda seed: [workloads._population_run(config)],
    )


def test_builders_match_public_entry_points():
    from repro.experiments import ExperimentConfig, run_scheme
    from repro.experiments.population import run_population

    config = ExperimentConfig(num_train=128, num_test=64, target_epochs=2.0, seed=3)
    for scheme in workloads.PAPER_SCHEMES:
        built = workloads._cluster_run(scheme, config)
        try:
            ours = built.train()
        finally:
            built.close()
        theirs = run_scheme(scheme, config)
        assert [r.__dict__ for r in ours.rounds] == [r.__dict__ for r in theirs.rounds]
    pop_config, pop = _small_population()
    trajectory = workloads.run_trajectory(pop, 0)
    theirs = run_population(pop_config)
    ours = trajectory.results["population_hadfl"]
    assert [r.__dict__ for r in ours.rounds] == [r.__dict__ for r in theirs.rounds]


@pytest.mark.parametrize("make", [_small_hadfl, lambda: _small_population()[1]])
def test_tracing_leaves_virtual_metrics_bitwise_unchanged(make):
    from repro.data.loader import BatchCycler

    workload = make()
    original = BatchCycler.next_batch
    untraced = workloads.run_trajectory(workload, 0)
    t = tracer_mod.Tracer()
    layers = tracer_mod.install(t)
    try:
        traced = workloads.run_trajectory(workload, 0)
    finally:
        layers.uninstall()
    assert BatchCycler.next_batch is original
    assert workloads.trajectory_digest(traced) == workloads.trajectory_digest(untraced)
    assert (
        workloads.virtual_metrics(workload, [traced])
        == workloads.virtual_metrics(workload, [untraced])
    )
    root = t.layers["trainer"]
    in_root = sum(s.self_in_root_s for s in t.layers.values())
    assert in_root == pytest.approx(root.inclusive_s, rel=1e-9)
    assert t.layers["nn"].calls > 0 and t.layers["comm.allreduce"].calls > 0


def test_worker_side_layers_come_home():
    from repro.parallel.process_pool import fork_available

    if not fork_available():
        pytest.skip("process pool needs fork")
    t = tracer_mod.Tracer()
    layers = tracer_mod.install(t)
    try:
        workloads.run_trajectory(_small_hadfl("process"), 0)
    finally:
        layers.uninstall()
    exported = layers.drain_workers()
    assert exported
    worker_layers, worker_counts = {}, {}
    for item in exported:
        tracer_mod.merge_into(worker_layers, worker_counts, item)
    assert worker_layers["autograd"].calls > 0
    assert t.layers["parallel"].calls > 0
    assert "autograd" not in t.layers
