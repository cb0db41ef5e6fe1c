"""The benchmark's workloads: how each is built from a seed, run, checked
and fingerprinted.

Every workload is built from ``--seed`` alone, the way ``repro run`` and
``repro simulate`` build theirs, so a seed names one set of inputs.  Per
benchmark run, ``prepare`` builds what repetitions share (the simulator,
whose ``run`` starts from scratch on each call); per repetition, ``open``
yields something with a ``run()`` method (a freshly built trainer) and
``inspect`` checks the output and returns a :class:`RepResult`.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass, field

import numpy as np


@dataclass
class RepResult:
    """What one repetition produced, beyond its wall time."""

    #: Operations the benchmark counts as attempted / failed in this rep.
    problems: list[str]
    #: Hex digests of the behaviour fingerprint (bit-identity evidence).
    digest: dict[str, str]
    #: Plain-number summary printed next to the digest.
    summary: dict[str, float]
    #: Units of work completed (training samples or simulator events).
    work: float
    #: Counts the traced run reports as per-layer metrics.
    counts: dict[str, float] = field(default_factory=dict)


def _hash(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class TrainingWorkload:
    """One federated continual-learning run of a method on a dataset."""

    name: str
    method: str
    dataset: str
    preset: str
    engine: str
    clients: int | None = None
    tasks: int | None = None

    def _preset(self):
        from repro.experiments.config import get_preset

        preset = get_preset(self.preset)
        if self.clients is not None:
            preset = preset.updated(num_clients=self.clients)
        if self.tasks is not None:
            preset = preset.updated(num_tasks=self.tasks)
        return preset

    def build(self, seed: int, engine: str | None = None):
        """The trainer ``repro run`` builds for this workload and seed."""
        from repro.data.scenario import ClientDataFactory, create_scenario
        from repro.data.specs import get_spec
        from repro.federated.registry import create_trainer

        preset = self._preset()
        spec = preset.apply_to_spec(get_spec(self.dataset))
        scenario = create_scenario(None)
        benchmark = scenario.build(
            spec, num_clients=preset.num_clients,
            rng=np.random.default_rng(seed),
        )
        return create_trainer(
            self.method,
            benchmark,
            preset.train_config(seed=seed),
            model_seed=1000 + seed,
            rng=np.random.default_rng(seed + 1),
            engine=engine or self.engine,
            data_factory=ClientDataFactory(
                scenario, spec, preset.num_clients, seed
            ),
        )

    def prepare(self, seed: int) -> None:
        return None

    def open(self, state, seed: int):
        return self.build(seed)

    def cross_check(self, rep: RepResult, registry: dict) -> list[str]:
        """The program's always-on counters must agree with its outputs."""
        counters = registry.get("counters", {})
        problems = []
        if counters.get("round.rounds", 0) != rep.counts["trainer.rounds"]:
            problems.append("round.rounds counter disagrees with round records")
        if counters.get("round.clients_lost", 0) or counters.get(
            "serve.workers_lost", 0
        ):
            problems.append("a worker or its client updates were lost")
        return problems

    def inspect(self, result) -> RepResult:
        """Check one run's outputs and fingerprint them."""
        preset = self._preset()
        problems = []
        matrix = np.asarray(result.accuracy_matrix, dtype=np.float64)
        tasks = matrix.shape[0]
        seen = matrix[np.tril_indices(tasks)]
        if not np.all(np.isfinite(seen)):
            problems.append("accuracy matrix has non-finite entries")
        elif seen.min() < 0.0 or seen.max() > 1.0:
            problems.append("accuracy outside [0, 1]")
        expected_rounds = tasks * preset.rounds_per_task
        if len(result.rounds) != expected_rounds:
            problems.append(
                f"{len(result.rounds)} rounds, expected {expected_rounds}"
            )
        losses = np.array([r.mean_loss for r in result.rounds])
        if not np.all(np.isfinite(losses)):
            problems.append("non-finite round loss")
        up = np.array([r.upload_bytes for r in result.rounds], dtype=np.int64)
        down = np.array([r.download_bytes for r in result.rounds], dtype=np.int64)
        comm_mb = float(up.sum() + down.sum()) / 1e6
        if comm_mb <= 0:
            problems.append("no bytes communicated")
        lost = sum(r.lost for r in result.rounds)
        if lost:
            problems.append(f"{lost} client updates lost to a dead worker")
        client_trains = sum(r.reported_clients for r in result.rounds)
        samples = client_trains * preset.iterations_per_round * preset.batch_size
        return RepResult(
            problems=problems,
            digest={
                "acc": _hash(np.nan_to_num(matrix, nan=-1.0)),
                "loss": _hash(losses),
                "bytes": _hash(up, down),
            },
            summary={
                "final_acc": round(float(np.mean(matrix[-1])), 6),
                "comm_mb": round(comm_mb, 6),
            },
            work=float(samples),
            counts={
                "trainer.rounds": len(result.rounds),
                "trainer.client_trains": client_trains,
            },
        )


@dataclass(frozen=True)
class SimWorkload:
    """The event-driven population simulator (scheduling only, no models)."""

    name: str
    clients: int
    population: str
    rounds: int
    shards: int
    max_staleness: int

    def build(self, seed: int):
        from repro.federated import PopulationSimulator

        return PopulationSimulator(
            self.clients,
            population=self.population,
            num_rounds=self.rounds,
            shards=self.shards,
            max_staleness=self.max_staleness,
            seed=seed,
        )

    def prepare(self, seed: int):
        return self.build(seed)

    def open(self, simulator, seed: int):
        return contextlib.nullcontext(simulator)

    def cross_check(self, rep: RepResult, registry: dict) -> list[str]:
        """The program's always-on counters must agree with its report."""
        counters = registry.get("counters", {})
        if (counters.get("sim.events", 0), counters.get("sim.rounds", 0)) != (
            rep.counts["sim.events"], rep.counts["sim.rounds"]
        ):
            return ["sim.events/sim.rounds counters disagree with the report"]
        return []

    def inspect(self, report) -> RepResult:
        """Check the simulator's round and event totals for consistency.

        Client losses, evictions and stale uploads are modelled outcomes of
        the population, reported as counts; only broken accounting fails.
        """
        problems = []
        rounds = report.rounds
        if len(rounds) != self.rounds:
            problems.append(f"{len(rounds)} rounds, expected {self.rounds}")
        reported = sum(r.reported for r in rounds)
        stale = sum(r.stale for r in rounds)
        if sum(report.staleness_hist.values()) != reported + stale:
            problems.append("staleness histogram disagrees with round totals")
        settled = reported + stale + report.evicted + report.lost
        if settled > report.scheduled:
            problems.append(
                f"{settled} uploads settled out of {report.scheduled} scheduled"
            )
        # every settled upload popped its train and upload events, and every
        # round popped its close
        if report.events < 2 * (reported + stale + report.evicted) + len(rounds):
            problems.append(f"only {report.events} events for {settled} uploads")
        table = np.array([
            (r.active, r.planned, r.reported, r.stale, r.evicted, r.lost,
             r.skipped) for r in rounds
        ], dtype=np.int64)
        times = np.array([(r.open_seconds, r.close_seconds) for r in rounds])
        scheduled = max(report.scheduled, 1)
        return RepResult(
            problems=problems,
            digest={
                "rounds": _hash(table),
                "times": _hash(times),
                "events": _hash(np.array([report.events], dtype=np.int64)),
            },
            summary={
                "events": report.events,
                "scheduled": report.scheduled,
                "virtual_s": round(report.virtual_seconds, 6),
            },
            work=float(report.events),
            counts={
                "sim.events": report.events,
                "sim.rounds": len(rounds),
                "sim.lost_frac": report.lost / scheduled,
                "sim.evicted": report.evicted,
                "sim.stale": stale,
            },
        )


WORKLOADS = {
    w.name: w
    for w in (
        TrainingWorkload(
            "fedknow-10task", "fedknow", "cifar100", "unit", "serial",
            tasks=10,
        ),
        TrainingWorkload(
            "fedavg-64c-socket", "fedavg", "cifar100", "unit", "socket:2",
            clients=64,
        ),
        TrainingWorkload(
            "fedavg-resnet18", "fedavg", "miniimagenet", "bench", "serial",
        ),
        SimWorkload(
            "eventsim-pareto", clients=200_000,
            population="pareto:1.5,scale=0.001,churn=60/120",
            rounds=20, shards=16, max_staleness=2,
        ),
    )
}
