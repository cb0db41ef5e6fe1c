"""Tests for the round engines: API, and parallel == serial reproducibility."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import build_benchmark, cifar100_like
from repro.edge import jetson_cluster
from repro.federated import (
    ENGINES,
    BatchedRoundEngine,
    SerialRoundEngine,
    ThreadedRoundEngine,
    TrainConfig,
    create_engine,
    create_trainer,
)
from repro.federated.engine import ENGINE_SPECS


@pytest.fixture
def spec():
    return cifar100_like(train_per_class=8, test_per_class=4).with_tasks(2)


@pytest.fixture
def config():
    return TrainConfig(batch_size=8, lr=0.02, rounds_per_task=2,
                       iterations_per_round=3)


class TestEngineApi:
    def test_registry(self):
        assert set(ENGINES) == {"serial", "thread", "batched"}
        assert ENGINE_SPECS == (
            "serial", "thread[:W]", "batched[:B]", "socket[:W]",
        )
        assert isinstance(create_engine("serial"), SerialRoundEngine)
        assert isinstance(create_engine("thread"), ThreadedRoundEngine)
        assert isinstance(create_engine("batched"), BatchedRoundEngine)
        assert create_engine("batched:4").batch_clients == 4

    def test_unknown_engine_raises(self):
        for spec in ("quantum", "process", "process:2"):
            with pytest.raises(ValueError, match="unknown round engine"):
                create_engine(spec)

    def test_worker_count_specs(self):
        thread = create_engine("thread:3")
        assert thread.max_workers == 3
        socket_engine = create_engine("socket:2")
        assert socket_engine.max_workers == 2
        socket_engine.close()

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            create_engine("serial:2")
        with pytest.raises(ValueError):
            create_engine("thread:x")
        with pytest.raises(ValueError):
            create_engine("socket:0")

    def test_instance_passthrough(self):
        engine = ThreadedRoundEngine(max_workers=2)
        assert create_engine(engine) is engine
        engine.close()

    def test_thread_map_preserves_order(self):
        engine = ThreadedRoundEngine(max_workers=4)
        try:
            assert engine.map(lambda x: x * x, range(16)) == [
                x * x for x in range(16)
            ]
        finally:
            engine.close()

    def test_close_idempotent(self):
        engine = ThreadedRoundEngine()
        engine.map(lambda x: x, [1, 2])
        engine.close()
        engine.close()


def run_with_engine(spec, config, method, engine):
    """A fresh benchmark + trainer per run so both engines start identically."""
    bench = build_benchmark(spec, num_clients=3, rng=np.random.default_rng(0))
    trainer = create_trainer(
        method, bench, config, cluster=jetson_cluster(), engine=engine
    )
    result = trainer.run()
    trainer.engine.close()
    return result


class TestParallelReproducibility:
    @pytest.mark.parametrize("method", ["fedavg", "fedknow", "fedweit"])
    def test_thread_engine_matches_serial_exactly(self, spec, config, method):
        serial = run_with_engine(spec, config, method, "serial")
        threaded = run_with_engine(spec, config, method, "thread")
        assert np.array_equal(
            serial.accuracy_matrix, threaded.accuracy_matrix, equal_nan=True
        )
        assert len(serial.rounds) == len(threaded.rounds)
        for a, b in zip(serial.rounds, threaded.rounds):
            assert a.position == b.position
            assert a.round_index == b.round_index
            assert a.upload_bytes == b.upload_bytes
            assert a.download_bytes == b.download_bytes
            assert a.sim_train_seconds == b.sim_train_seconds
            assert a.sim_comm_seconds == b.sim_comm_seconds
            assert a.active_clients == b.active_clients
            assert a.mean_loss == b.mean_loss  # bit-identical losses
