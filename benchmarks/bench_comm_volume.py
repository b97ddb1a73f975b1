"""Communication volume (paper Sec. II-B and III-D claims).

Checks the implementation against the paper's arithmetic:

* centralised FedAvg server traffic = ``2 · M · K · epochs / E``;
* per-round device total = ``2 · K · M`` for both FL and HADFL;
* HADFL removes the server (coordinator moves control messages only);
* per-iteration all-reduce (distributed baseline) moves an order of
  magnitude more bytes over a run than HADFL.
"""

from benchmarks.conftest import bench_config, write_artifact
from repro.baselines import CentralizedFedAvgTrainer
from repro.comm import device_volume, fedavg_server_volume
from repro.core import HADFLTrainer
from repro.experiments import HETEROGENEITY_3311, run_scheme
from repro.metrics.report import render_table


def _run():
    config = bench_config(
        model="resnet_mini", power_ratio=HETEROGENEITY_3311,
        target_epochs=min(8.0, bench_config().target_epochs),
    )
    cluster = config.make_cluster()
    hadfl_trainer = HADFLTrainer(cluster, params=config.hadfl_params(), seed=1)
    hadfl = hadfl_trainer.run(target_epochs=config.target_epochs)
    dist = run_scheme("distributed", config)
    fedavg = run_scheme("decentralized_fedavg", config)
    central_cluster = config.make_cluster()
    central_trainer = CentralizedFedAvgTrainer(central_cluster, seed=1)
    central = central_trainer.run(target_epochs=config.target_epochs)
    return config, cluster, hadfl_trainer, central_trainer, {
        "hadfl": hadfl,
        "distributed": dist,
        "decentralized_fedavg": fedavg,
        "central_fedavg": central,
    }


def test_comm_volume(benchmark):
    config, cluster, hadfl_trainer, central_trainer, results = benchmark.pedantic(
        _run, rounds=1, iterations=1
    )
    m = cluster.model_nbytes
    k = len(cluster.devices)

    rows = [
        ["model size M", f"{m:,} B", "", ""],
        [
            "analytic 2KM / round",
            f"{device_volume(m, k):,.0f} B",
            "",
            "",
        ],
        [
            "FedAvg server volume (10 ep, E=12)",
            f"{fedavg_server_volume(m, k, 10, 12):,.0f} B",
            "",
            "(centralised reference)",
        ],
    ]
    for name, result in results.items():
        rows.append(
            [
                f"measured total: {name}",
                f"{result.total_comm_bytes:,} B",
                f"{result.total_epochs:.1f} epochs",
                f"{len(result.rounds)} rounds",
            ]
        )
    table = render_table(["quantity", "bytes", "epochs", "note"], rows)
    print("\n" + table)
    write_artifact("comm_volume.txt", table + "\n")

    # Per-round HADFL device traffic never exceeds the paper's 2KM bound
    # (small slack for repair control messages).
    bound = device_volume(m, k) * 1.05
    for record in results["hadfl"].rounds:
        assert record.comm_bytes <= bound

    # Distributed training moves far more bytes per epoch.
    per_epoch_dist = (
        results["distributed"].total_comm_bytes / results["distributed"].total_epochs
    )
    per_epoch_hadfl = (
        results["hadfl"].total_comm_bytes / results["hadfl"].total_epochs
    )
    assert per_epoch_dist > 3 * per_epoch_hadfl

    # Decentralisation claim: the coordinator never relayed model payloads
    # beyond the one-time initial dispatch.
    kinds = hadfl_trainer.volume.bytes_by_kind()
    assert set(kinds) <= {"initial_dispatch", "partial_sync", "broadcast"}

    # Centralised reference: the server moved exactly 2KM per round
    # (Sec. II-B's arithmetic, measured on a running implementation).
    rounds = len(results["central_fedavg"].rounds)
    assert central_trainer.server_bytes == rounds * int(device_volume(m, k))
