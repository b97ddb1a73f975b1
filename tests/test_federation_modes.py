"""Federation modes of the event-driven round loop.

Pins the tentpole contract of the arrival-ordered refactor:

* ``aggregation="sync"`` is **bitwise identical** to the pre-refactor
  barrier trainers on fixed seeds — parameters, optimizer state,
  accuracies, comm bytes and sim times all match the golden fixture
  captured before the refactor (``tests/golden/sync_parity.json``);
* ``buffered_async`` and ``semi_sync`` are bitwise reproducible on
  fixed seeds;
* the byte-conservation invariant ``sum(round bytes) + initial_dispatch
  == accountant total`` holds in every mode;
* arrival order is invariant to the executor choice (Hypothesis).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GroupedHADFLTrainer, HADFLTrainer
from repro.experiments import ExperimentConfig, run_scheme
from repro.experiments.population import PopulationConfig, run_population
from repro.parallel import LocalTrainTask
from repro.sim import Simulator
from repro.sim.rounds import RoundEngine

GOLDEN_PATH = Path(__file__).parent / "golden" / "sync_parity.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

# The fixture's "blas" record (OpenBLAS core type and thread count of the
# capture host) is not checked here; CI's golden job pins and asserts it.
requires_golden_numpy = pytest.mark.skipif(
    np.version.version != GOLDEN["numpy"],
    reason=(
        "golden fixture captured under numpy "
        f"{GOLDEN['numpy']}, running {np.version.version}"
    ),
)


def _digest(arr):
    data = np.ascontiguousarray(arr, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()


def _hadfl_config(**overrides):
    defaults = dict(target_epochs=3.0, num_train=256, num_test=128, seed=3)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _population_config(**overrides):
    defaults = dict(
        population=64,
        participants=8,
        rounds=6,
        round_window=1.0,
        num_train=256,
        num_test=128,
        eval_every=2,
        seed=5,
        availability="diurnal",
    )
    defaults.update(overrides)
    return PopulationConfig(**defaults)


def _series(result):
    return {
        "sim_times": [r.sim_time for r in result.rounds],
        "global_epochs": [r.global_epoch for r in result.rounds],
        "train_losses": [r.train_loss for r in result.rounds],
        "test_accuracies": [r.test_accuracy for r in result.rounds],
        "comm_bytes": [r.comm_bytes for r in result.rounds],
        "total_bytes": result.config["accounting"]["total_bytes"],
    }


def _assert_accounting_invariant(result):
    snapshot = result.config["accounting"]
    rounds_sum = sum(r.comm_bytes for r in result.rounds)
    initial = snapshot["bytes_by_kind"].get("initial_dispatch", 0)
    assert rounds_sum + initial == snapshot["total_bytes"], (
        f"accounting: rounds={rounds_sum} + initial={initial} "
        f"!= total={snapshot['total_bytes']}"
    )


# --------------------------------------------------------------------- #
# Sync bitwise parity vs the pre-refactor golden trajectories
# --------------------------------------------------------------------- #
@requires_golden_numpy
class TestSyncParity:
    def test_hadfl_bitwise_matches_pre_refactor(self):
        self._assert_hadfl_matches(_hadfl_config(), GOLDEN["hadfl"])

    def test_hadfl_vgg_mini_bitwise_matches_golden(self):
        # Pins the conv path (im2col/col2im, max-pool routing, BatchNorm)
        # bitwise; the default-model entries above only reach the MLP.
        config = _hadfl_config(model="vgg_mini", target_epochs=6.0, momentum=0.9)
        self._assert_hadfl_matches(config, GOLDEN["hadfl_vgg_mini"])

    @staticmethod
    def _assert_hadfl_matches(config, golden):
        cluster = config.make_cluster()
        trainer = HADFLTrainer(
            cluster, params=config.hadfl_params(), seed=config.seed
        )
        try:
            result = trainer.run(
                target_epochs=config.target_epochs, eval_every=config.eval_every
            )
            observed = _series(result)
            for key, expected in golden.items():
                if key in observed:
                    assert observed[key] == expected, key
            assert _digest(trainer.global_params) == golden["params_digest"]
            device_params = np.concatenate(
                [d.get_params() for d in cluster.devices]
            )
            assert _digest(device_params) == golden["device_params_digest"]
            optimizer_state = np.concatenate(
                [
                    v.reshape(-1)
                    for d in cluster.devices
                    for v in d.optimizer.flat_state()
                ]
                or [np.zeros(1)]
            )
            assert _digest(optimizer_state) == golden["optimizer_digest"]
        finally:
            cluster.close()

    def test_population_bitwise_matches_pre_refactor(self):
        result = run_population(_population_config())
        golden = GOLDEN["population"]
        observed = _series(result)
        for key, expected in golden.items():
            assert observed[key] == expected, key

    def test_decentralized_fedavg_bitwise_matches_pre_refactor(self):
        result = run_scheme("decentralized_fedavg", _hadfl_config())
        golden = GOLDEN["decentralized_fedavg"]
        assert [r.sim_time for r in result.rounds] == golden["sim_times"]
        assert [r.global_epoch for r in result.rounds] == golden["global_epochs"]
        assert [r.train_loss for r in result.rounds] == golden["train_losses"]
        assert (
            [r.test_accuracy for r in result.rounds]
            == golden["test_accuracies"]
        )
        assert [r.comm_bytes for r in result.rounds] == golden["comm_bytes"]


# --------------------------------------------------------------------- #
# Fixed-seed reproducibility of the new modes
# --------------------------------------------------------------------- #
ASYNC_MODES = ("buffered_async", "semi_sync")


@pytest.mark.parametrize("mode", ASYNC_MODES)
class TestModeReproducibility:
    def test_hadfl_mode_is_bitwise_reproducible(self, mode):
        fingerprints = []
        for _ in range(2):
            config = _hadfl_config(aggregation=mode)
            cluster = config.make_cluster()
            trainer = HADFLTrainer(
                cluster, params=config.hadfl_params(), seed=config.seed
            )
            try:
                result = trainer.run(
                    target_epochs=config.target_epochs,
                    eval_every=config.eval_every,
                )
                fingerprints.append(
                    (trainer.global_params.tobytes(), _series(result))
                )
            finally:
                cluster.close()
        assert fingerprints[0] == fingerprints[1]

    def test_population_mode_is_bitwise_reproducible(self, mode):
        fingerprints = []
        for _ in range(2):
            result = run_population(
                _population_config(rounds=4, aggregation=mode)
            )
            fingerprints.append(_series(result))
        assert fingerprints[0] == fingerprints[1]

    def test_mode_telemetry_recorded(self, mode):
        config = _hadfl_config(aggregation=mode)
        result = run_scheme("hadfl", config)
        details = [r.detail for r in result.rounds]
        assert any("arrivals" in d for d in details)
        summary = result.robustness_summary()
        assert "max_staleness" in summary
        assert summary["arrivals"] > 0
        if mode == "buffered_async":
            assert summary["buffered_rounds"] > 0
        # JSON round-trip safety of the extended detail payload.
        json.loads(json.dumps(result.to_dict()))


# --------------------------------------------------------------------- #
# Byte conservation in every mode
# --------------------------------------------------------------------- #
ALL_MODES = ("sync",) + ASYNC_MODES


class TestAccountingInvariant:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_hadfl(self, mode):
        result = run_scheme("hadfl", _hadfl_config(aggregation=mode))
        _assert_accounting_invariant(result)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_population(self, mode):
        result = run_population(
            _population_config(rounds=4, aggregation=mode)
        )
        _assert_accounting_invariant(result)
        # Population rounds carry every byte — no unattributed traffic.
        assert (
            result.config["accounting"]["bytes_by_kind"].get(
                "initial_dispatch", 0
            )
            == 0
        )

    def test_grouped_hadfl(self):
        config = _hadfl_config(power_ratio=(4, 2, 2, 1, 4, 2), seed=1)
        cluster = config.make_cluster()
        trainer = GroupedHADFLTrainer(
            cluster, params=config.hadfl_params(), groups=2, seed=config.seed
        )
        try:
            result = trainer.run(target_epochs=config.target_epochs)
        finally:
            cluster.close()
        _assert_accounting_invariant(result)
        # Every transfer of the grouped protocol is on the books.
        assert set(result.config["accounting"]["bytes_by_kind"]) == {
            "initial_dispatch",
            "intra_group_sync",
            "broadcast",
            "inter_group_sync",
        }


# --------------------------------------------------------------------- #
# Arrival order is an executor-independent fact of the simulation
# --------------------------------------------------------------------- #
class TestExecutorInvariance:
    @given(
        budgets=st.lists(
            st.integers(min_value=1, max_value=5), min_size=4, max_size=4
        )
    )
    @settings(max_examples=8, deadline=None)
    def test_arrival_order_matches_serial(self, budgets):
        sequences = []
        for backend in ("serial", "fleet"):
            config = _hadfl_config(executor=backend)
            cluster = config.make_cluster()
            try:
                engine = RoundEngine(Simulator(), cluster.executor)
                tasks = [
                    LocalTrainTask(
                        device_id=d.device_id,
                        num_steps=budgets[i],
                        start_time=0.0,
                    )
                    for i, d in enumerate(cluster.devices)
                ]
                engine.launch(cluster, tasks)
                arrivals = engine.collect()
                sequences.append(
                    [(a.device_id, a.time, a.steps, a.completed) for a in arrivals]
                )
            finally:
                cluster.close()
        assert sequences[0] == sequences[1]
