"""The benchmark's workloads and the trajectory each one runs.

A trajectory is one complete training job on fresh state: every run the
workload compares (three schemes on ``paper-4221``, one elsewhere), each
built from its config (the timed set-up) and then trained (the timed
training phase).  A benchmark invocation runs several trajectories, each
on its own sub-seed derived from the workload seed, pools their
per-round wall times and reads the virtual metrics off all of them.

The builders mirror :func:`repro.experiments.run_scheme` and
:func:`repro.experiments.population.run_population` step for step but
stop between set-up and training, so the two phases are timed apart;
the smoke test pins their results bitwise to those entry points.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

# ``repro.experiments`` first: importing some leaf modules on their own
# (``repro.nn.fleet``) trips a circular import.
import repro.experiments  # noqa: F401
from repro.baselines import DecentralizedFedAvgTrainer, DistributedTrainer
from repro.core import HADFLTrainer
from repro.experiments import HETEROGENEITY_4221, ExperimentConfig
from repro.experiments.population import PopulationConfig, make_population
from repro.metrics.records import RunResult
from repro.sim.population import PopulationTrainer

SUB_SEEDS_PER_SEED = 64


@dataclass
class BuiltRun:
    """One ready trainer: ``train()`` runs it, ``samples()`` counts the
    local training samples it consumed, ``close()`` releases it."""

    scheme: str
    train: Callable[[], RunResult]
    samples: Callable[[], int]
    close: Callable[[], None]
    digest_source: Callable[[], np.ndarray]
    """The built initial model, for the set-up determinism check."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    target_accuracy: float
    """Fixed test accuracy that ``tta_virtual_s`` is measured against."""
    nominal_trajectory_s: float
    """Wall seconds of one trajectory on the 2-core reference machine."""
    min_trajectories: int
    """Trajectories the virtual metrics need to be steady across workload
    seeds (one seed's time-to-accuracy spreads by 15 to 30%)."""
    build: Callable[[int], List[BuiltRun]]
    compares_baselines: bool = False

    def trajectories(self, seconds: float) -> int:
        """How many trajectories a run of ``seconds`` makes: a function
        of ``seconds`` alone, so the work per run does not depend on the
        machine's speed."""
        return max(self.min_trajectories, int(seconds // self.nominal_trajectory_s))

    def sub_seed(self, seed: int, index: int) -> int:
        return seed * SUB_SEEDS_PER_SEED + index


# --------------------------------------------------------------------- #
# Builders
# --------------------------------------------------------------------- #
def _cluster_run(scheme: str, config: ExperimentConfig) -> BuiltRun:
    """``run_scheme`` up to (not including) ``trainer.run``."""
    cluster = config.make_cluster()
    if scheme == "hadfl":
        trainer = HADFLTrainer(cluster, params=config.hadfl_params(), seed=config.seed)
    elif scheme == "decentralized_fedavg":
        trainer = DecentralizedFedAvgTrainer(
            cluster, local_steps=config.fedavg_local_steps, seed=config.seed
        )
    elif scheme == "distributed":
        trainer = DistributedTrainer(cluster, seed=config.seed)
    else:
        raise KeyError(scheme)

    def close() -> None:
        if hasattr(trainer, "close"):
            trainer.close()
        cluster.close()

    return BuiltRun(
        scheme=scheme,
        train=lambda: trainer.run(
            target_epochs=config.target_epochs, eval_every=config.eval_every
        ),
        samples=lambda: round(cluster.global_epoch() * cluster.total_train_samples),
        close=close,
        digest_source=lambda: cluster.initial_params,
    )


def _population_run(config: PopulationConfig) -> BuiltRun:
    """``run_population`` up to (not including) ``trainer.run``."""
    population = make_population(config)
    trainer = PopulationTrainer(
        population,
        participants=config.participants,
        round_window=config.round_window,
        selection_sigma=config.selection_sigma,
        seed=config.seed,
        executor=config.executor,
        executor_workers=config.executor_workers,
        accounting=config.accounting,
        aggregation=config.aggregation,
        async_buffer=config.async_buffer,
        local_steps=config.local_steps,
        staleness_exponent=config.staleness_exponent,
    )
    return BuiltRun(
        scheme="population_hadfl",
        train=lambda: trainer.run(config.rounds, eval_every=config.eval_every),
        samples=lambda: round(
            trainer.global_epoch() * population.total_train_samples
        ),
        close=trainer.close,
        digest_source=lambda: population.initial_params,
    )


def paper_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        model="vgg_mini",
        power_ratio=HETEROGENEITY_4221,
        target_epochs=8.0,
        seed=seed,
    )


def population_1m_config(seed: int) -> PopulationConfig:
    return PopulationConfig(
        population=1_000_000,
        participants=100,
        availability="diurnal",
        executor="fleet",
        rounds=6,
        eval_every=1,
        seed=seed,
    )


def cluster_process_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        model="vgg_mini",
        power_ratio=(4, 4, 2, 2, 2, 2, 1, 1),
        num_selected=4,
        num_train=1600,
        aggregation="semi_sync",
        executor="process",
        executor_workers=2,
        wire_dtype="topk0.2",
        target_epochs=8.0,
        seed=seed,
    )


PAPER_SCHEMES = ("hadfl", "decentralized_fedavg", "distributed")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-4221",
            why="paper testbed, compute-bound: HADFL vs decentralized FedAvg vs "
            "distributed on vgg_mini, power ratio 4:2:2:1",
            target_accuracy=0.72,
            nominal_trajectory_s=7.5,
            min_trajectories=5,
            build=lambda seed: [
                _cluster_run(s, paper_config(seed)) for s in PAPER_SCHEMES
            ],
            compares_baselines=True,
        ),
        Workload(
            name="population-1m",
            why="bookkeeping-bound: availability over 1M ids, Gumbel top-k, "
            "arena pool, 100-node ring, fleet executor, small MLP",
            target_accuracy=0.85,
            nominal_trajectory_s=6.2,
            min_trajectories=4,
            build=lambda seed: [_population_run(population_1m_config(seed))],
        ),
        Workload(
            name="cluster-process",
            why="only multi-core workload: fork pool with shared-memory state "
            "shipping, the semi_sync deadline cut and the top-k wire codec, "
            "8 devices",
            target_accuracy=0.65,
            nominal_trajectory_s=4.4,
            min_trajectories=5,
            build=lambda seed: [_cluster_run("hadfl", cluster_process_config(seed))],
        ),
    )
}


# --------------------------------------------------------------------- #
# Running a trajectory
# --------------------------------------------------------------------- #
class RoundClock:
    """Wall time of every round: patches ``RunResult.append`` (one clock
    read per round) for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.marks: List[float] = []

    def __enter__(self) -> "RoundClock":
        original = RunResult.append
        marks = self.marks

        def append(result: RunResult, record) -> None:
            original(result, record)
            marks.append(time.perf_counter())

        self._original = original
        RunResult.append = append  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc_info) -> None:
        RunResult.append = self._original  # type: ignore[method-assign]


@dataclass
class Trajectory:
    """What one trajectory measured and produced."""

    sub_seed: int
    setup_s: float
    train_s: float = 0.0
    samples: int = 0
    round_walls: List[float] = field(default_factory=list)
    results: Dict[str, RunResult] = field(default_factory=dict)
    setup_digest: str = ""

    @property
    def rounds(self) -> int:
        return sum(len(r.rounds) for r in self.results.values())


def build_timed(workload: Workload, sub_seed: int):
    """Build every run of one trajectory; returns ``(runs, seconds, digest)``."""
    start = time.perf_counter()
    runs = workload.build(sub_seed)
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256()
    for run in runs:
        digest.update(np.ascontiguousarray(run.digest_source()).tobytes())
    return runs, elapsed, digest.hexdigest()


def run_trajectory(workload: Workload, sub_seed: int) -> Trajectory:
    runs, setup_s, digest = build_timed(workload, sub_seed)
    trajectory = Trajectory(sub_seed=sub_seed, setup_s=setup_s, setup_digest=digest)
    try:
        for run in runs:
            with RoundClock() as clock:
                start = time.perf_counter()
                result = run.train()
                end = time.perf_counter()
            trajectory.train_s += end - start
            trajectory.round_walls.extend(np.diff([start] + clock.marks).tolist())
            trajectory.samples += run.samples()
            trajectory.results[run.scheme] = result
    finally:
        for run in runs:
            run.close()
    return trajectory


# --------------------------------------------------------------------- #
# Virtual metrics and output checks
# --------------------------------------------------------------------- #
def crossing_time(times: np.ndarray, accs: np.ndarray, target: float) -> Optional[float]:
    """Virtual time at which an accuracy curve first reaches ``target``.

    Linear interpolation between the two evaluations that bracket the
    first crossing: a run is evaluated once per round, and HADFL's
    rounds are several virtual seconds long, so the first evaluated
    time alone jumps by a whole round between seeds.  The first
    evaluation's time when it already meets the target; ``None`` when
    the target is never reached.
    """
    hits = np.flatnonzero(accs >= target)
    if hits.size == 0:
        return None
    i = int(hits[0])
    if i == 0:
        return float(times[0])
    t0, a0 = times[i - 1], accs[i - 1]
    return float(t0 + (times[i] - t0) * (target - a0) / (accs[i] - a0))


def accuracy_curve(result: RunResult):
    return result.times(evaluated_only=True), result.test_accuracies()


def mean_curve(results: List[RunResult]):
    """Mean test-accuracy curve of several runs of one scheme.

    The runs are evaluated at the same virtual times when their timing
    does not depend on the seed (every workload here); otherwise each
    curve is interpolated onto the union of the evaluation times that
    all runs cover.
    """
    curves = [accuracy_curve(r) for r in results]
    start = max(t[0] for t, _ in curves)
    end = min(t[-1] for t, _ in curves)
    grid = np.unique(np.concatenate([t for t, _ in curves]))
    grid = grid[(grid >= start) & (grid <= end)]
    return grid, np.mean([np.interp(grid, t, a) for t, a in curves], axis=0)


def failed_rounds(result: RunResult) -> int:
    """Rounds that were skipped or produced no aggregate."""
    return sum(
        1
        for r in result.rounds
        if r.detail.get("skipped") or r.detail.get("sync_failed")
    )


def check_accounting(result: RunResult) -> Optional[str]:
    """``sum(round.comm_bytes) + initial_dispatch == total_bytes``."""
    accounting = result.config.get("accounting")
    if accounting is None:
        return None
    total = accounting["total_bytes"]
    initial = accounting["bytes_by_kind"].get("initial_dispatch", 0)
    per_round = sum(r.comm_bytes for r in result.rounds)
    if per_round + initial != total:
        return f"accounting: rounds {per_round} + initial {initial} != total {total}"
    return None


def trajectory_digest(trajectory: Trajectory) -> str:
    """Hash of every round's virtual outputs of every run."""
    digest = hashlib.sha256()
    for scheme, result in sorted(trajectory.results.items()):
        digest.update(scheme.encode())
        for r in result.rounds:
            digest.update(
                np.array(
                    [r.sim_time, r.global_epoch, r.train_loss,
                     np.nan if r.test_accuracy is None else r.test_accuracy,
                     r.comm_bytes],
                    dtype=np.float64,
                ).tobytes()
            )
    return digest.hexdigest()


def set_digest(trajectories: List[Trajectory]) -> str:
    """Hash of the virtual outputs of a set of trajectories."""
    digest = hashlib.sha256()
    for trajectory in trajectories:
        digest.update(trajectory_digest(trajectory).encode())
    return digest.hexdigest()


def check_trajectory(workload: Workload, trajectory: Trajectory) -> List[str]:
    """Output checks of one trajectory: every run reaches the target
    accuracy and keeps the accounting invariant."""
    problems: List[str] = []
    target = workload.target_accuracy
    for scheme, result in trajectory.results.items():
        if crossing_time(*accuracy_curve(result), target) is None:
            problems.append(
                f"{scheme} never reached target accuracy {target} "
                f"(best {result.test_accuracies().max():.4f})"
            )
        problem = check_accounting(result)
        if problem:
            problems.append(f"{scheme} {problem}")
    return problems


def virtual_metrics(workload: Workload, trajectories: List[Trajectory]) -> Dict[str, float]:
    """Virtual metrics of a set of trajectories.

    Time to accuracy is read off each scheme's mean accuracy curve over
    the trajectories: one seed's curve is noisy where it nears the
    target, and the mean curve crosses it more steadily than the
    median of the single crossings.  ``final_accuracy`` and
    ``comm_bytes_per_round`` are medians over the trajectories.
    Speedups are defined only where baselines run; elsewhere they read
    1.0 (HADFL against itself) so every workload reports every metric.
    NaN marks a mean curve that never reaches the target.
    """
    primary = "hadfl" if "hadfl" in trajectories[0].results else "population_hadfl"
    tta = {}
    for scheme in trajectories[0].results:
        crossing = crossing_time(
            *mean_curve([t.results[scheme] for t in trajectories]),
            workload.target_accuracy,
        )
        tta[scheme] = float("nan") if crossing is None else crossing
    runs = [t.results[primary] for t in trajectories]
    metrics = {
        "tta_virtual_s": tta[primary],
        "final_accuracy": statistics.median(float(r.rounds[-1].test_accuracy) for r in runs),
        "comm_bytes_per_round": statistics.median(
            r.config["accounting"]["total_bytes"] / len(r.rounds) for r in runs
        ),
        "speedup_vs_fedavg": 1.0,
        "speedup_vs_distributed": 1.0,
    }
    if workload.compares_baselines:
        metrics["speedup_vs_fedavg"] = tta["decentralized_fedavg"] / tta[primary]
        metrics["speedup_vs_distributed"] = tta["distributed"] / tta[primary]
    return metrics
