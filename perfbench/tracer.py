"""Span tracer for the benchmark's traced run.

The tracer never edits the program: :func:`install` replaces the public
functions of each layer with thin wrappers (from this file) that open a
span around the call, and :meth:`Layers.uninstall` puts the originals
back, so a process can alternate untraced and traced trajectories.

Self time
    A span's self time is its duration minus the time its direct child
    spans cover.  Summed over every span under a root span, self times
    add up to the root's duration exactly (up to float rounding).
Re-entrancy
    A call into a layer that already has an open span (``select`` calling
    ``sample_participants``, ``evaluate_devices`` calling
    ``evaluate_params``, a subclass override calling ``super()``) is not
    a span of its own: its time stays in the outer span.
Threads
    The span stack is per process and assumes one thread; none of the
    benchmark's workloads trains on threads.
Processes
    The process pool forks its workers after the wrappers are installed,
    so workers inherit them.  A wrapped worker loop resets the inherited
    tracer on start and sends its totals home through a queue on exit;
    the parent keeps them apart from its own (worker spans run in
    parallel with the parent's and are not children of its root).
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

ROOT_LAYER = "trainer"


@dataclass
class LayerStats:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    self_in_root_s: float = 0.0
    """Self time of the spans that ran under an open root span."""

    def merge(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.inclusive_s += other.inclusive_s
        self.self_s += other.self_s
        self.self_in_root_s += other.self_in_root_s


class Tracer:
    """Per-layer span totals (calls, inclusive, self) plus counters.

    Spans are aggregated as they close rather than stored one by one: a
    traced trajectory opens tens of thousands of them.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.layers: Dict[str, LayerStats] = {}
        self.counts: Dict[str, float] = {}
        self._stack: List[list] = []  # [layer, start, child_time]
        self._open: Set[str] = set()

    def enter(self, layer: str) -> Optional[list]:
        """Open a span; ``None`` when ``layer`` already has one open."""
        if layer in self._open:
            return None
        self._open.add(layer)
        frame = [layer, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: Optional[list]) -> None:
        if frame is None:
            return
        end = self.clock()
        layer, start, child = frame
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {layer!r} closed out of order")
        self._open.discard(layer)
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        stats = self.layers.get(layer)
        if stats is None:
            stats = self.layers[layer] = LayerStats()
        stats.calls += 1
        stats.inclusive_s += duration
        stats.self_s += duration - child
        if layer == ROOT_LAYER or ROOT_LAYER in self._open:
            stats.self_in_root_s += duration - child

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def high_water(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def export(self) -> Tuple[Dict[str, LayerStats], Dict[str, float]]:
        return dict(self.layers), dict(self.counts)


def merge_into(
    layers: Dict[str, LayerStats],
    counts: Dict[str, float],
    exported: Tuple[Dict[str, LayerStats], Dict[str, float]],
) -> None:
    """Add one tracer export into running totals (high-water counters
    take the maximum)."""
    more_layers, more_counts = exported
    for name, stats in more_layers.items():
        layers.setdefault(name, LayerStats()).merge(stats)
    for name, value in more_counts.items():
        if name.endswith("high_water"):
            counts[name] = max(counts.get(name, 0), value)
        else:
            counts[name] = counts.get(name, 0) + value


_MISSING = object()


class Layers:
    """The wrappers one :func:`install` put in place."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patches: List[Tuple[Any, str, Any]] = []
        self.worker_queue: Optional[Any] = None

    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        original = vars(owner).get(name, _MISSING)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def wrap(
        self,
        owner: Any,
        name: str,
        layer: str,
        after: Optional[Callable[[Tracer, tuple, Any], None]] = None,
    ) -> None:
        """Span ``owner.name`` as ``layer``; ``after(tracer, args, result)``
        records counters from the call."""
        original = getattr(owner, name)
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None and frame is not None:
                after(tracer, args, result)
            return result

        self.patch(owner, name, wrapper)

    def wrap_overrides(self, base: type, name: str, layer: str, after=None) -> None:
        """Wrap ``base.name`` and every subclass's own override of it."""
        for cls in _class_tree(base):
            if name in vars(cls):
                self.wrap(cls, name, layer, after)

    def drain_workers(self) -> List[Tuple[Dict[str, LayerStats], Dict[str, float]]]:
        """Totals sent home by worker processes that have exited; call
        once, after the pools are closed."""
        exported = []
        queue, self.worker_queue = self.worker_queue, None
        if queue is not None:
            while not queue.empty():
                exported.append(queue.get())
            queue.close()
        return exported

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patches.clear()


def _class_tree(base: type) -> List[type]:
    seen, order, todo = set(), [], [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        order.append(cls)
        todo.extend(cls.__subclasses__())
    return order


def _count_arrivals(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("sim.rounds.arrivals", len(result))


def _count_allreduce_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("comm.allreduce.bytes", result[1].total_bytes)


def _count_wire_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    # Plain casts encode to an array; quantisers to a dataclass of arrays.
    if hasattr(result, "nbytes"):
        nbytes = result.nbytes
    else:
        nbytes = sum(getattr(v, "nbytes", 0) for v in vars(result).values())
    tracer.add("comm.wire.bytes", nbytes)


def _count_ids_scanned(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("sim.failures.ids_scanned", len(args[1]))


def _count_materialise(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("sim.population.materialise_calls", 1)


def _pool_high_water(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.high_water("sim.population.pool_high_water", result["max_resident"])


def install(tracer: Tracer) -> Layers:
    """Wrap every traced layer's public functions; returns the handle
    whose :meth:`Layers.uninstall` restores them.

    Names are wrapped where callers look them up: a module that did
    ``from x import f`` holds its own binding, which is wrapped too.
    """
    # ``repro.experiments`` first: importing some leaf modules on their
    # own (``repro.nn.fleet``) trips a circular import.
    import repro.experiments  # noqa: F401
    import repro.baselines.distributed as distributed_mod
    import repro.baselines.fedavg as fedavg_mod
    import repro.comm.gossip as gossip_mod
    import repro.comm.quantise  # noqa: F401  (registers WireFormat subclasses)
    import repro.core.selection as selection_mod
    import repro.core.selection_ext  # noqa: F401  (SelectionPolicy subclasses)
    import repro.parallel.process_pool as pool_mod
    import repro.sim.population as population_mod
    from repro.autograd.tensor import Tensor
    from repro.baselines.base import SchemeTrainer
    from repro.comm.ring_repair import FaultTolerantRingSync
    from repro.comm.volume import CommVolumeAccountant
    from repro.comm.wire import WireFormat
    from repro.core.coordinator import Coordinator
    from repro.core.trainer import HADFLTrainer
    from repro.data.loader import BatchCycler
    from repro.experiments.configs import ExperimentConfig
    from repro.nn.fleet import FleetModule
    from repro.nn.models.mlp import MLP
    from repro.nn.models.resnet import ResNet
    from repro.nn.models.simple_cnn import SimpleCNN
    from repro.nn.models.vgg import VGG
    from repro.optim.base import Optimizer
    from repro.sim.cluster import SimulatedCluster
    from repro.sim.executor import LocalExecutor, ProcessExecutor
    from repro.sim.failures import AvailabilityModel
    from repro.sim.population import ArenaPool, PopulationTrainer, VirtualPopulation
    from repro.sim.rounds import RoundEngine

    layers = Layers(tracer)
    wrap = layers.wrap

    wrap(BatchCycler, "next_batch", "data.loader")
    wrap(ExperimentConfig, "make_data", "data.synthetic")
    # Only the top-level model call: a span on every submodule call
    # costs several times more and adds nothing the layer total needs.
    for model_cls in (MLP, SimpleCNN, ResNet, VGG):
        wrap(model_cls, "__call__", "nn")
    wrap(FleetModule, "forward", "nn")
    wrap(Tensor, "backward", "autograd")
    layers.wrap_overrides(Optimizer, "step", "optim")
    layers.wrap_overrides(Optimizer, "zero_grad", "optim")

    for cls in _class_tree(LocalExecutor):
        if "run_tasks" in vars(cls) and cls is not ProcessExecutor:
            wrap(cls, "run_tasks", "sim.executor")
    wrap(ProcessExecutor, "run_tasks", "parallel")
    wrap(RoundEngine, "launch", "sim.rounds")
    wrap(RoundEngine, "collect", "sim.rounds", _count_arrivals)

    wrap(FaultTolerantRingSync, "run", "comm.ring_repair")
    for module in (distributed_mod, fedavg_mod, gossip_mod):
        wrap(module, "ring_allreduce_detailed", "comm.allreduce", _count_allreduce_bytes)
    layers.wrap_overrides(WireFormat, "encode", "comm.wire", _count_wire_bytes)
    layers.wrap_overrides(WireFormat, "decode", "comm.wire")
    wrap(CommVolumeAccountant, "record", "comm.volume")
    wrap(CommVolumeAccountant, "bytes_received_by_device", "comm.volume")

    wrap(selection_mod, "sample_participants", "core.selection")
    wrap(population_mod, "sample_participants", "core.selection")
    layers.wrap_overrides(selection_mod.SelectionPolicy, "select", "core.selection")
    for name in ("negotiate", "select_devices", "update_strategy", "record_versions"):
        wrap(Coordinator, name, "core.coordinator")

    layers.wrap_overrides(
        AvailabilityModel, "available_mask", "sim.failures", _count_ids_scanned
    )
    wrap(VirtualPopulation, "materialise", "sim.population", _count_materialise)
    wrap(VirtualPopulation, "release", "sim.population")
    wrap(ArenaPool, "stats", "sim.population", _pool_high_water)

    for owner, name in (
        (SimulatedCluster, "evaluate_params"),
        (SimulatedCluster, "evaluate_devices"),
        (VirtualPopulation, "evaluate_params"),
    ):
        wrap(owner, name, "eval")

    wrap(HADFLTrainer, "run", ROOT_LAYER)
    wrap(PopulationTrainer, "run", ROOT_LAYER)
    wrap(SchemeTrainer, "run", ROOT_LAYER)

    if pool_mod.fork_available():
        _install_worker_loop(layers, pool_mod)
    return layers


def _install_worker_loop(layers: Layers, pool_mod: Any) -> None:
    tracer = layers.tracer
    queue = mp.get_context("fork").SimpleQueue()
    original = pool_mod._worker_loop

    @functools.wraps(original)
    def worker_loop(*args, **kwargs):
        # A forked worker starts with a copy of the parent's open spans.
        tracer.reset()
        try:
            return original(*args, **kwargs)
        finally:
            queue.put(tracer.export())

    layers.worker_queue = queue
    layers.patch(pool_mod, "_worker_loop", worker_loop)
