"""Hot-path regression guards: trajectory identity + perf smoke run.

The arena/fused refactor must be *invisible* to the training dynamics:
a fixed-seed ``HADFLTrainer.run()`` produces bitwise-identical
``RoundRecord`` losses whether devices run on the arena + fused kernels
or on the seed (pre-arena) codec path re-implemented in
``benchmarks/bench_hotpath.py``.  The perf-marked smoke test additionally
runs the microbench at reduced repeats and sanity-checks the speedups.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import bench_hotpath  # noqa: E402  (needs the path insert above)

from repro.experiments import ExperimentConfig, run_scheme  # noqa: E402
from repro.optim.base import Optimizer  # noqa: E402


def _config():
    return ExperimentConfig(
        model="mlp", num_train=256, num_test=128, image_size=8,
        target_epochs=3.0, seed=41,
    )


def _losses(result):
    return [r.train_loss for r in result.rounds]


def _run_with_fallback_optimizers(legacy_codec_path: bool):
    """One fixed-seed run on the seed-equivalent slow paths."""
    try:
        Optimizer.fused = False
        if legacy_codec_path:
            with bench_hotpath.legacy_device_paths():
                return run_scheme("hadfl", _config())
        return run_scheme("hadfl", _config())
    finally:
        Optimizer.fused = True


class TestTrajectoryRegression:
    def test_arena_run_bitwise_matches_seed_path(self):
        """Stock (arena + fused) vs full seed emulation: per-parameter
        codec round-trips and per-parameter optimizer loops."""
        stock = run_scheme("hadfl", _config())
        legacy = _run_with_fallback_optimizers(legacy_codec_path=True)
        assert _losses(stock), "run produced no rounds"
        assert _losses(stock) == _losses(legacy)
        np.testing.assert_array_equal(stock.times(), legacy.times())

    def test_fused_kernels_bitwise_match_fallback(self):
        """Same run with only the fused kernels disabled (arena kept)."""
        stock = run_scheme("hadfl", _config())
        fallback = _run_with_fallback_optimizers(legacy_codec_path=False)
        assert _losses(stock) == _losses(fallback)
        np.testing.assert_array_equal(stock.times(), fallback.times())


@pytest.mark.perf
class TestHotpathBench:
    def test_microbench_speedups(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_hotpath, "RESULTS_DIR", tmp_path)
        results = bench_hotpath.run(repeats=2)
        # Lenient floors (CI machines are noisy); the dedicated
        # run_bench.py artefact records the real numbers.
        assert results["codec_roundtrip"]["speedup"] > 2.0
        assert results["sgd_step"]["speedup"] > 1.2
        assert results["adam_step"]["speedup"] > 1.2
        # Grad arena: the zero-copy step must beat the gather-based seed
        # step, and the real-backward trajectories must stay bitwise.
        assert results["grad_path"]["speedup"] > 1.2
        assert results["grad_path"]["losses_bitwise_equal"]
        assert results["hadfl_round"]["losses_bitwise_equal"]
        # Strided conv/pool kernels: bitwise equal to the seed index
        # kernels and clearly faster at vgg_mini shapes.
        assert results["conv_kernels"]["bitwise_equal"]
        assert results["conv_kernels"]["speedup"] > 1.5
        assert (tmp_path / "hotpath.json").exists()
