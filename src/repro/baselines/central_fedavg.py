"""Centralised FedAvg (McMahan et al.) — the paper's Sec. II-B reference.

The classic FL pattern HADFL decentralises away: every E local steps, all
devices upload to a central parameter server which averages (Eq. 4) and
downloads the new global model.  The server round costs
``2K`` sequential full-model messages (the communication-pressure
bottleneck of the paper's challenge 2), and the synchronisation barrier
still waits for the slowest device.

Not part of the paper's measured comparison (which uses the
*decentralized* FedAvg variant [11]); included so the communication-
volume bench can demonstrate the server-pressure arithmetic of Sec. II-B
against a running implementation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import SchemeTrainer
from repro.metrics.records import RoundRecord
from repro.sim.cluster import SimulatedCluster
from repro.sim.trace import TraceRecorder


class CentralizedFedAvgTrainer(SchemeTrainer):
    """FedAvg through a central parameter server.

    Parameters
    ----------
    local_steps:
        E — steps every device runs between aggregations (default: one
        local epoch).
    server_device_id:
        Identity used in volume accounting for the server endpoint.
    """

    scheme_name = "central_fedavg"
    SERVER_ID = -1

    def __init__(
        self,
        cluster: SimulatedCluster,
        local_steps: Optional[int] = None,
        seed: int = 0,
        trace: Optional[TraceRecorder] = None,
    ):
        super().__init__(cluster, seed=seed, trace=trace)
        if local_steps is not None and local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {local_steps}")
        self.local_steps = local_steps or max(
            d.cycler.batches_per_epoch for d in cluster.devices
        )
        self.server_bytes = 0

    def _run_round(self, round_index: int) -> RoundRecord:
        cluster = self.cluster
        devices = cluster.devices
        t_start = self.sim.now
        m = cluster.model_nbytes
        k = len(devices)

        # Local phase (Eq. 3): E steps each; the barrier closes when the
        # last arrival event fires (the slowest device's completion).
        bursts = self.train_all_devices(self.local_steps, t_start)
        losses = []
        for device in devices:
            losses.extend(bursts[device.device_id].losses)
        self.engine.collect()
        barrier = self.sim.now

        # Upload: K sequential receptions serialise at the server — the
        # server only sees what survived the wire cast; then aggregation
        # (Eq. 4) and K sequential downloads, cast again on the way out.
        upload = cluster.network.sequential_sends_time(m, k)
        shard_sizes = np.array([len(d.cycler.dataset) for d in devices], dtype=float)
        weights = shard_sizes / shard_sizes.sum()  # n_k / N weighting (Eq. 2)
        wire_cast_error = 0.0
        uploads = []
        for device in devices:
            # Server and device share the last downloaded global model —
            # the delta reference for sparsifying wires in both
            # directions.
            received, err = self.wire.transmit_delta_with_error(
                device.get_params_view(), self._wire_reference
            )
            wire_cast_error = max(wire_cast_error, err)
            uploads.append(received)
        stacked = np.stack(uploads)
        averaged = np.tensordot(weights, stacked, axes=1)
        download = cluster.network.sequential_sends_time(m, k)
        downloaded, err = self.wire.transmit_delta_with_error(
            averaged, self._wire_reference
        )
        wire_cast_error = max(wire_cast_error, err)
        for device in devices:
            device.set_params(downloaded)
        self._global_params = averaged
        self._wire_reference = downloaded

        round_server_bytes = 2 * k * m  # the Sec. II-B per-round volume
        self.server_bytes += round_server_bytes
        self.volume.record(barrier, k * m, "upload", dst=self.SERVER_ID)
        self.volume.record(barrier + upload, k * m, "download", src=self.SERVER_ID)
        self.sim.advance_to(barrier + upload + download)

        return RoundRecord(
            round_index=round_index,
            sim_time=self.sim.now,
            global_epoch=cluster.global_epoch(),
            train_loss=float(np.mean(losses)) if losses else float("nan"),
            versions={d.device_id: d.version for d in devices},
            comm_bytes=round_server_bytes,
            detail={
                "wire_dtype": self.wire.name,
                "wire_cast_error": wire_cast_error,
            },
        )
