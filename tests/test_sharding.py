"""Tests for the sharded population subsystem.

Covers the three contracts the subsystem rests on:

* **aggregation bit-identity** — :class:`ShardedAggregator` at any shard
  count produces the same bytes as the unsharded server (the fixed merge
  tree), including large rounds, sparse/bytes uploads and staleness
  discounts;
* **execution bit-identity** — serial == thread == socket == sharded
  training runs, across participation policies and scenario families;
* **pickle safety** — clients, task streams and the client-data factory
  survive the process boundary unchanged.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.data import ClientDataFactory, cifar100_like, create_scenario
from repro.edge import jetson_cluster, jetson_raspberry_cluster
from repro.edge.network import NetworkModel
from repro.federated import (
    MERGE_SEGMENTS,
    ClientUpdate,
    DeadlineParticipation,
    FedAvgServer,
    ShardedAggregator,
    ThreadedRoundEngine,
    TrainConfig,
    create_policy,
    create_trainer,
    shard_slices,
)
from repro.metrics.io import result_from_dict, result_to_dict
from repro.metrics.tracker import RoundRecord
from repro.serve import SocketRoundEngine
from repro.utils.serialization import encode_state, sparse_topk


@pytest.fixture
def spec():
    return cifar100_like(train_per_class=8, test_per_class=4).with_tasks(2)


@pytest.fixture
def config():
    return TrainConfig(batch_size=8, lr=0.02, rounds_per_task=2,
                       iterations_per_round=3)


def make_updates(n, rng, dim=2000, with_int_key=True):
    updates = []
    for i in range(n):
        state = {"w": rng.normal(size=(dim,)).astype(np.float32),
                 "b": rng.normal(size=(7,)).astype(np.float32)}
        if with_int_key:
            state["steps"] = np.array(100 + i, dtype=np.int64)
        updates.append(ClientUpdate(
            client_id=i, state=state, num_samples=int(rng.integers(10, 100))
        ))
    return updates


def states_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


# ----------------------------------------------------------------------
# shard partitioning
# ----------------------------------------------------------------------
class TestShardSlices:
    def test_even_partition(self):
        slices = shard_slices(8, 4)
        assert [(s.start, s.stop) for s in slices] == [
            (0, 2), (2, 4), (4, 6), (6, 8)
        ]

    def test_uneven_partition_front_loads_extras(self):
        slices = shard_slices(10, 4)
        sizes = [s.stop - s.start for s in slices]
        assert sizes == [3, 3, 2, 2]
        assert slices[0].start == 0 and slices[-1].stop == 10

    def test_shards_never_outnumber_items(self):
        assert len(shard_slices(3, 16)) == 3

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            shard_slices(5, 0)
        with pytest.raises(ValueError):
            shard_slices(0, 4)


# ----------------------------------------------------------------------
# aggregation bit-identity
# ----------------------------------------------------------------------
class TestShardedAggregator:
    @pytest.mark.parametrize("n", [5, 16, MERGE_SEGMENTS, 150])
    def test_bit_identical_to_server_for_any_shard_count(self, n):
        rng = np.random.default_rng(0)
        updates = make_updates(n, rng, dim=500)
        reference = FedAvgServer().aggregate_updates(updates)
        for k in (1, 2, 3, 4, 7, 16, 64, 200):
            sharded = ShardedAggregator(FedAvgServer(), k)
            out = sharded.aggregate_updates(updates)
            assert states_equal(reference, out), f"shards={k} diverged"
            assert sum(sharded.last_shard_counts) == n
            assert sharded.last_merge_seconds >= 0.0

    def test_integer_buffers_come_from_first_client(self):
        rng = np.random.default_rng(1)
        updates = make_updates(6, rng, dim=50)
        out = ShardedAggregator(FedAvgServer(), 3).aggregate_updates(updates)
        assert out["steps"] == updates[0].state["steps"]

    def test_bytes_uploads_accepted(self):
        rng = np.random.default_rng(2)
        updates = make_updates(6, rng, dim=100, with_int_key=False)
        reference = FedAvgServer().aggregate_updates(
            [ClientUpdate(u.client_id, dict(u.state), u.num_samples)
             for u in updates]
        )
        encoded = [
            ClientUpdate(u.client_id, encode_state(u.state), u.num_samples)
            for u in updates
        ]
        out = ShardedAggregator(FedAvgServer(), 4).aggregate_updates(encoded)
        assert states_equal(reference, out)

    def test_sparse_uploads_materialise_against_global_state(self):
        rng = np.random.default_rng(3)
        base = {"w": rng.normal(size=(400,)).astype(np.float32)}
        dense = [
            {"w": base["w"] + rng.normal(scale=0.1, size=(400,)).astype(np.float32)}
            for _ in range(5)
        ]
        sparse = [{"w": sparse_topk(d["w"] - base["w"], 40)} for d in dense]
        server_a, server_b = FedAvgServer(), FedAvgServer()
        server_a.aggregate([base], [1])
        server_b.aggregate([base], [1])
        reference = server_a.aggregate(sparse, [1] * 5)
        out = ShardedAggregator(server_b, 3).aggregate_updates(
            [ClientUpdate(i, s, 1) for i, s in enumerate(sparse)]
        )
        assert states_equal(reference, out)

    def test_staleness_discount_matches_server(self):
        rng = np.random.default_rng(4)
        updates = make_updates(6, rng, dim=200)
        updates[2].staleness = 1
        updates[5].staleness = 2
        reference = FedAvgServer().aggregate_updates(
            updates, staleness_discount=0.25
        )
        out = ShardedAggregator(FedAvgServer(), 4).aggregate_updates(
            updates, staleness_discount=0.25
        )
        assert states_equal(reference, out)

    def test_thread_engine_shard_accumulation_identical(self):
        rng = np.random.default_rng(5)
        updates = make_updates(12, rng, dim=300)
        reference = FedAvgServer().aggregate_updates(updates)
        engine = ThreadedRoundEngine(max_workers=4)
        try:
            out = ShardedAggregator(
                FedAvgServer(), 4, engine=engine
            ).aggregate_updates(updates)
        finally:
            engine.close()
        assert states_equal(reference, out)

    def test_process_engine_rejected_for_shards(self):
        engine = SocketRoundEngine(max_workers=2)
        try:
            with pytest.raises(ValueError, match="process engine"):
                ShardedAggregator(FedAvgServer(), 2, engine=engine)
        finally:
            engine.close()

    def test_shard_counts_partition_the_round(self):
        rng = np.random.default_rng(6)
        updates = make_updates(10, rng, dim=50)
        sharded = ShardedAggregator(FedAvgServer(), 4)
        sharded.aggregate_updates(updates)
        assert sharded.last_shard_counts == (3, 3, 2, 2)


class TestEmptyRounds:
    def test_server_rejects_empty_round(self):
        with pytest.raises(ValueError, match="zero reported clients"):
            FedAvgServer().aggregate_updates([])

    def test_sharded_rejects_empty_round(self):
        with pytest.raises(ValueError, match="zero reported clients"):
            ShardedAggregator(FedAvgServer(), 4).aggregate_updates([])

    def test_merge_rejects_empty_partials(self):
        with pytest.raises(ValueError, match="zero reported clients"):
            ShardedAggregator(FedAvgServer(), 2).merge([])

    def test_zero_weights_rejected(self):
        updates = [
            ClientUpdate(0, {"w": np.ones(3, np.float32)}, num_samples=0)
        ]
        with pytest.raises(ValueError, match="positive"):
            ShardedAggregator(FedAvgServer(), 2).aggregate_updates(updates)

    def test_inconsistent_keys_rejected(self):
        updates = [
            ClientUpdate(0, {"w": np.ones(3, np.float32)}, 1),
            ClientUpdate(1, {"v": np.ones(3, np.float32)}, 1),
        ]
        with pytest.raises(ValueError, match="inconsistent"):
            ShardedAggregator(FedAvgServer(), 2).aggregate_updates(updates)

    def test_trainer_records_empty_round_as_skipped(self, spec, config):
        bench = create_scenario("class-inc").build(
            spec, num_clients=3, rng=np.random.default_rng(0)
        )
        # a 1 B/s link makes every upload miss a microsecond deadline, so
        # round 0 has zero reports and nothing pending
        with create_trainer(
            "fedavg", bench, config, cluster=jetson_cluster(),
            network=NetworkModel(bandwidth_bytes_per_second=1.0),
            participation="deadline:1e-6",
        ) as trainer:
            result = trainer.run()
        first = result.rounds[0]
        assert first.skipped
        assert first.reported_clients == 0
        assert first.upload_bytes == 0
        # the stragglers' updates land one round later at staleness 1
        assert result.rounds[1].stale_clients == 3
        assert not result.rounds[1].skipped
        assert result.skipped_rounds >= 1


# ----------------------------------------------------------------------
# execution bit-identity matrix
# ----------------------------------------------------------------------
def run_matrix_config(
    spec,
    config,
    method="fedavg",
    engine="serial",
    shards=1,
    participation=None,
    scenario="class-inc",
    num_clients=4,
    data_factory=True,
):
    """Fresh benchmark + trainer per run so every config starts identical."""
    scenario_obj = create_scenario(scenario)
    bench = scenario_obj.build(
        spec, num_clients=num_clients, rng=np.random.default_rng(0)
    )
    factory = (
        ClientDataFactory(scenario_obj, spec, num_clients, 0)
        if data_factory
        else None
    )
    with create_trainer(
        method, bench, config, cluster=jetson_cluster(), engine=engine,
        shards=shards, participation=participation, data_factory=factory,
    ) as trainer:
        result = trainer.run()
        state = {k: v.copy() for k, v in trainer.server.global_state.items()}
    return result, state


def assert_runs_identical(reference, other):
    ref_result, ref_state = reference
    out_result, out_state = other
    assert np.array_equal(
        ref_result.accuracy_matrix, out_result.accuracy_matrix, equal_nan=True
    )
    assert states_equal(ref_state, out_state)
    assert len(ref_result.rounds) == len(out_result.rounds)
    for a, b in zip(ref_result.rounds, out_result.rounds):
        assert a.upload_bytes == b.upload_bytes
        assert a.download_bytes == b.download_bytes
        assert a.sim_train_seconds == b.sim_train_seconds
        assert a.reported_clients == b.reported_clients
        assert a.stale_clients == b.stale_clients
        assert a.mean_loss == b.mean_loss or (
            np.isnan(a.mean_loss) and np.isnan(b.mean_loss)
        )
        assert a.skipped == b.skipped


class TestExecutionMatrix:
    @pytest.mark.parametrize("engine,shards", [
        ("thread", 1),
        ("socket:2", 1),
        ("serial", 3),
        ("thread:2", 3),  # shard accumulation rides the thread pool
        ("socket:2", 3),
    ])
    def test_fedavg_class_inc_full(self, spec, config, engine, shards):
        reference = run_matrix_config(spec, config)
        other = run_matrix_config(spec, config, engine=engine, shards=shards)
        assert_runs_identical(reference, other)
        if shards > 1:
            assert sum(other[0].rounds[0].shard_reported) == 4

    def test_fedknow_process_matches_serial(self, spec, config):
        reference = run_matrix_config(spec, config, method="fedknow")
        other = run_matrix_config(
            spec, config, method="fedknow", engine="socket:2"
        )
        assert_runs_identical(reference, other)

    @pytest.mark.parametrize("scenario", [
        "label-shift:dirichlet:0.5",
        "blurry:overlap=0.3",
    ])
    def test_scenario_families_process_and_sharded(self, spec, config, scenario):
        reference = run_matrix_config(
            spec, config, participation="sampled:0.5", scenario=scenario
        )
        other = run_matrix_config(
            spec, config, participation="sampled:0.5", scenario=scenario,
            engine="socket:2", shards=2,
        )
        assert_runs_identical(reference, other)

    def test_deadline_policy_process_matches_serial(self, spec, config):
        # 6.1 simulated seconds sits inside this workload's 6.07-6.2s
        # spread, so some clients genuinely straggle and carry staleness
        reference = run_matrix_config(
            spec, config, participation="deadline:6.1", num_clients=6
        )
        assert reference[0].total_stale_clients > 0
        other = run_matrix_config(
            spec, config, participation="deadline:6.1", num_clients=6,
            engine="socket:2",
        )
        assert_runs_identical(reference, other)

    def test_process_without_data_factory_ships_data(self, spec, config):
        reference = run_matrix_config(spec, config)
        other = run_matrix_config(
            spec, config, engine="socket:2", data_factory=False
        )
        assert_runs_identical(reference, other)

    def test_process_rejects_server_coupled_methods(self, spec, config):
        bench = create_scenario("class-inc").build(
            spec, num_clients=2, rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="process engine"):
            create_trainer("flcn", bench, config, engine="socket:2")

    def test_adopted_clients_keep_their_data(self, spec, config):
        scenario_obj = create_scenario("class-inc")
        bench = scenario_obj.build(
            spec, num_clients=3, rng=np.random.default_rng(0)
        )
        with create_trainer(
            "fedavg", bench, config, engine="socket:2",
            data_factory=ClientDataFactory(scenario_obj, spec, 3, 0),
        ) as trainer:
            trainer.run()
            for client in trainer.clients:
                assert client.data is not None
                assert client.task is not None
                assert client.global_iteration > 0

    def test_run_task_runs_rounds_without_eval(self, spec, config):
        bench = create_scenario("class-inc").build(
            spec, num_clients=3, rng=np.random.default_rng(0)
        )
        with create_trainer("fedavg", bench, config) as trainer:
            records = trainer.run_task(0)
        assert len(records) == config.rounds_per_task
        assert all(r.position == 0 for r in records)


# ----------------------------------------------------------------------
# pickle safety
# ----------------------------------------------------------------------
class TestPickleSafety:
    @pytest.mark.parametrize("method", [
        "fedavg", "apfl", "fedrep", "gem", "fedknow",
    ])
    def test_trained_clients_pickle_roundtrip(self, spec, config, method):
        bench = create_scenario("class-inc").build(
            spec, num_clients=2, rng=np.random.default_rng(0)
        )
        trainer = create_trainer(method, bench, config)
        client = trainer.clients[0]
        client.begin_task(0)
        client.local_train(2)
        clone = pickle.loads(pickle.dumps(client))
        assert states_equal(
            client.model.state_dict(), clone.model.state_dict()
        )
        assert clone.client_id == client.client_id
        assert clone.position == client.position
        # RNG state must travel exactly: both copies draw identical batches
        assert (clone.rng.bit_generator.state
                == client.rng.bit_generator.state)
        trainer.close()

    def test_client_data_factory_rebuilds_identical_arrays(self, spec):
        scenario = create_scenario("class-inc")
        parent = scenario.build(spec, num_clients=3, rng=np.random.default_rng(7))
        factory = pickle.loads(
            pickle.dumps(ClientDataFactory(scenario, spec, 3, 7))
        )
        rebuilt = factory()
        for parent_client, worker_client in zip(parent.clients, rebuilt.clients):
            a = parent_client.tasks[1]
            b = worker_client.tasks[1]
            assert np.array_equal(a.train_x, b.train_x)
            assert np.array_equal(a.train_y, b.train_y)
            assert np.array_equal(a.classes, b.classes)

    @pytest.mark.parametrize("family", [
        "class-inc", "label-shift:dirichlet:0.3", "domain-inc:drift=0.2",
    ])
    def test_task_streams_pickle_across_families(self, spec, family):
        bench = create_scenario(family).build(
            spec, num_clients=2, rng=np.random.default_rng(1)
        )
        data = bench.clients[1]
        clone = pickle.loads(pickle.dumps(data))
        original = data.task_at(0)
        rebuilt = clone.task_at(0)
        assert np.array_equal(original.train_x, rebuilt.train_x)
        assert np.array_equal(original.test_y, rebuilt.test_y)

    def test_detach_attach_roundtrip(self, spec, config):
        bench = create_scenario("class-inc").build(
            spec, num_clients=2, rng=np.random.default_rng(0)
        )
        trainer = create_trainer("fedavg", bench, config)
        client = trainer.clients[0]
        client.begin_task(1)
        task_before = client.task
        data = client.detach_data()
        assert client.data is None and client.task is None
        client.attach_data(data)
        assert client.task is task_before
        with pytest.raises(ValueError):
            client.attach_data(None)
        trainer.close()


# ----------------------------------------------------------------------
# per-client deadlines (deadline:auto)
# ----------------------------------------------------------------------
class TestAutoDeadline:
    def test_spec_parsing_and_describe(self):
        policy = create_policy("deadline:auto")
        assert policy.auto and policy.slack == 2.0
        assert policy.describe() == "deadline:auto"
        custom = create_policy("deadline:auto:1.5")
        assert custom.slack == 1.5
        assert custom.describe() == "deadline:auto:1.5"
        # the global-scalar spec keeps working unchanged
        scalar = create_policy("deadline:30")
        assert not scalar.auto
        assert scalar.describe() == "deadline:30"
        with pytest.raises(ValueError):
            create_policy("deadline:auto:x")

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            DeadlineParticipation()  # neither scalar nor auto
        with pytest.raises(ValueError):
            DeadlineParticipation(30.0, auto=True)  # both
        with pytest.raises(ValueError):
            DeadlineParticipation(auto=True, slack=0.0)

    def test_unbound_auto_policy_raises(self):
        policy = DeadlineParticipation(auto=True)
        with pytest.raises(RuntimeError, match="bind_client_deadlines"):
            policy.plan_round(0, 0, [0, 1])

    def test_per_client_thresholds_split_reported_and_stale(self):
        policy = DeadlineParticipation(auto=True)
        policy.bind_client_deadlines({0: 10.0, 1: 1.0})
        plan = policy.plan_round(0, 0, [0, 1])
        assert plan.deadline_seconds == 10.0  # barrier waits for the slowest
        updates = [
            ClientUpdate(0, {"w": np.ones(2, np.float32)}, 5, sim_seconds=5.0),
            ClientUpdate(1, {"w": np.ones(2, np.float32)}, 5, sim_seconds=5.0),
        ]
        outcome = policy.collect(plan, updates, [0, 1])
        # same sim time, different personal deadlines: 0 reports, 1 straggles
        assert outcome.reported == (0,)
        assert updates[1].staleness == 1
        next_plan = policy.plan_round(0, 1, [0, 1])
        assert next_plan.participants == (0,)

    def test_trainer_binds_link_derived_deadlines(self, spec, config):
        bench = create_scenario("class-inc").build(
            spec, num_clients=6, rng=np.random.default_rng(0)
        )
        with create_trainer(
            "fedavg", bench, config, cluster=jetson_raspberry_cluster(),
            participation="deadline:auto",
        ) as trainer:
            result = trainer.run(num_positions=1)
            policy = trainer.policy
            assert policy.has_client_deadlines
            deadlines = [
                policy.deadline_for(c.client_id) for c in trainer.clients
            ]
        # the heterogeneous cluster mixes Jetson and Raspberry Pi links, so
        # per-client deadlines must actually differ
        assert len(set(deadlines)) > 1
        assert all(d > 0 for d in deadlines)
        assert result.participation == "deadline:auto"


# ----------------------------------------------------------------------
# round-record accounting io
# ----------------------------------------------------------------------
class TestShardRecordIO:
    def _result(self, record):
        from repro.metrics.tracker import RunResult

        return RunResult(
            method="fedavg", dataset="cifar100", num_clients=4, num_tasks=1,
            accuracy_matrix=np.array([[0.5]]), rounds=[record],
        )

    def test_shard_fields_roundtrip(self):
        record = RoundRecord(
            position=0, round_index=0, upload_bytes=10, download_bytes=10,
            sim_train_seconds=1.0, sim_comm_seconds=1.0, active_clients=4,
            mean_loss=0.1, shard_reported=(2, 2), merge_seconds=0.25,
            skipped=False,
        )
        loaded = result_from_dict(result_to_dict(self._result(record)))
        assert loaded.rounds[0].shard_reported == (2, 2)
        assert loaded.rounds[0].merge_seconds == 0.25
        assert not loaded.rounds[0].skipped
        assert loaded.merge_seconds == 0.25

    def test_legacy_payloads_default_unsharded(self):
        record = RoundRecord(
            position=0, round_index=0, upload_bytes=10, download_bytes=10,
            sim_train_seconds=1.0, sim_comm_seconds=1.0, active_clients=4,
            mean_loss=0.1,
        )
        payload = result_to_dict(self._result(record))
        for entry in payload["rounds"]:
            del entry["shard_reported"]
            del entry["merge_seconds"]
            del entry["skipped"]
        loaded = result_from_dict(payload)
        assert loaded.rounds[0].shard_reported == ()
        assert loaded.rounds[0].merge_seconds == 0.0
        assert not loaded.rounds[0].skipped
        assert loaded.skipped_rounds == 0
