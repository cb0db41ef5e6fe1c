"""Round execution engines: how a round's per-client work is scheduled.

The trainer expresses each phase of a round (local training + upload,
global-state download) as an order-preserving map of a function over the
active clients.  Engines decide how that map executes:

* :class:`SerialRoundEngine` — one client after another (the reference
  semantics);
* :class:`ThreadedRoundEngine` — clients run concurrently on a thread pool;
* :class:`BatchedRoundEngine` — same-architecture clients are **stacked**:
  the training step is captured once as a static graph tape and replayed
  with B clients' weights and minibatches along a leading axis, one batched
  forward/backward + flat SGD update per step
  (see :mod:`repro.federated.batched`).

Clients are fully independent during a round (each owns its model, optimiser,
RNG and method state; servers are only touched between phases), so every
engine produces **bit-identical** results to the serial one — the per-client
float operations and their within-client order are unchanged (the batched
engine's stacked contractions are bit-identical per slice), and outputs are
reassembled in client order.  Only wall-clock time differs.

Multi-process execution lives in :mod:`repro.serve.engine`
(``socket[:W]``), which adds two contracts on top of the shared ``map`` one:

* ``needs_pickling`` — phase callables and items must pickle, and item
  mutations only survive through return values (the trainer's phases return
  ``(result, client)`` pairs and the trainer adopts the returned clients);
* workers rebuild client task data from a picklable data factory
  (:class:`~repro.data.scenario.ClientDataFactory`, see
  :func:`worker_client_data`) instead of having every round ship the task
  arrays across the process boundary.  Global-state broadcasts, and the
  shared dense base of ``delta``/``sparse`` transport channels, go through
  a :class:`SharedStateHandle`: the encoded state is written once to a
  tmpfs-backed file (``/dev/shm`` on Linux) and each worker decodes it
  once per broadcast, however many of its clients download.
"""

from __future__ import annotations

import os
import tempfile
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Mapping, TypeVar

import numpy as np

from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace
from ..utils.serialization import decode_state, encode_state

T = TypeVar("T")
R = TypeVar("R")

# Cached instrument handles (valid forever: ``drain`` zeroes in place).
_BROADCAST_HITS = _obs_metrics.METRICS.counter("broadcast.cache_hits")
_BROADCAST_DECODES = _obs_metrics.METRICS.counter("broadcast.decodes")

# ----------------------------------------------------------------------
# worker-process registries
# ----------------------------------------------------------------------
# Module-level so the worker's session setup and phase callables resolve the
# same objects inside every worker.  The parent process never populates these.
_DATA_FACTORY = None
_DATA_CACHE = None  # client_id -> ClientData, built lazily from the factory
_STATE_CACHE: dict[str, dict] = {}  # broadcast token -> decoded global state


def _init_worker(data_factory) -> None:
    """Worker setup: install the (picklable) client-data factory."""
    global _DATA_FACTORY, _DATA_CACHE, _STATE_CACHE
    _DATA_FACTORY = data_factory
    _DATA_CACHE = None
    _STATE_CACHE = {}


def worker_client_data(client_id: int):
    """Rebuild (and cache) one client's task data inside a worker.

    The factory builds the whole lazy benchmark once per worker — O(clients)
    thanks to lazy task streams — and each task's arrays materialize only
    when a client of this worker reaches it.  Determinism of the scenario
    API guarantees the rebuilt arrays equal the parent's.
    """
    global _DATA_CACHE
    if _DATA_FACTORY is None:
        raise RuntimeError(
            "no client-data factory installed in this process; the socket "
            "engine strips client data only when the trainer has a "
            "data_factory to rebuild it from"
        )
    if _DATA_CACHE is None:
        benchmark = _DATA_FACTORY()
        _DATA_CACHE = {data.client_id: data for data in benchmark.clients}
    return _DATA_CACHE[client_id]


# ----------------------------------------------------------------------
# broadcast state handles
# ----------------------------------------------------------------------
class StateHandle:
    """Resolvable reference to one round's broadcast global state."""

    def resolve(self) -> Mapping[str, np.ndarray]:
        raise NotImplementedError

    def release(self) -> None:
        """Free any backing resources (parent-side, idempotent)."""


class LocalStateHandle(StateHandle):
    """In-process passthrough used by the serial and thread engines."""

    def __init__(self, state: Mapping[str, np.ndarray]):
        self._state = state

    def resolve(self) -> Mapping[str, np.ndarray]:
        return self._state


class SharedStateHandle(StateHandle):
    """Shared-memory broadcast: encoded state in a tmpfs-backed file.

    The parent writes the wire-encoded state once; each worker reads and
    decodes it once per broadcast (cached by token), so a 10k-client
    download phase moves the state across the process boundary
    once-per-worker instead of once-per-client.  ``load_state_dict`` copies
    into existing parameter buffers, so sharing one decoded state across a
    worker's clients is safe.
    """

    def __init__(self, state: Mapping[str, np.ndarray]):
        payload = encode_state(dict(state))
        shm_dir = "/dev/shm" if os.path.isdir("/dev/shm") else None
        fd, path = tempfile.mkstemp(
            prefix="repro-broadcast-", suffix=".state", dir=shm_dir
        )
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        self.path = path
        self.token = uuid.uuid4().hex
        self._local: Mapping[str, np.ndarray] | None = dict(state)

    def __getstate__(self):
        # workers resolve through the file; never ship the dense state
        return {"path": self.path, "token": self.token, "_local": None}

    def resolve(self) -> Mapping[str, np.ndarray]:
        if self._local is not None:
            return self._local
        cached = _STATE_CACHE.get(self.token)
        if cached is None:
            with open(self.path, "rb") as handle:
                payload = handle.read()
            _STATE_CACHE.clear()  # at most one broadcast is live at a time
            cached = _STATE_CACHE[self.token] = decode_state(payload)
            _BROADCAST_DECODES.inc()
        else:
            _BROADCAST_HITS.inc()
        return cached

    def release(self) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------
class RoundEngine:
    """Order-preserving executor of per-client round work."""

    name = "base"
    #: True when ``map`` crosses a process boundary: phase callables and
    #: items must pickle, and item mutations only survive via return values.
    needs_pickling = False
    #: True when a worker failure can lose individual items: ``map`` then
    #: returns ``None`` in the lost items' slots instead of raising, and
    #: callers must tolerate (the trainer drops the lost clients from the
    #: round and records them).  In-process engines never lose items.
    may_lose_items = False

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item; results follow the input order."""
        raise NotImplementedError

    def begin_task(self, position: int) -> None:
        """Task-boundary hook (the socket engine resets worker caches here)."""

    def share_state(self, state: Mapping[str, np.ndarray]) -> StateHandle:
        """Wrap a global state for broadcast to this engine's executors."""
        return LocalStateHandle(state)

    def close(self) -> None:
        """Release any execution resources (idempotent)."""

    def __enter__(self) -> "RoundEngine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False


class SerialRoundEngine(RoundEngine):
    """Clients run one after another — the reference execution order."""

    name = "serial"

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        return [fn(item) for item in items]


class ThreadedRoundEngine(RoundEngine):
    """Clients of a round run concurrently on a shared thread pool."""

    name = "thread"

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers
        self._executor: ThreadPoolExecutor | None = None

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="round-engine"
            )
        return self._executor

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        tracer = _obs_trace.TRACER
        if not tracer.enabled:
            return list(self._pool().map(fn, items))
        # pool threads have empty span stacks: parent their spans under
        # the caller's innermost open span so traces stay nested
        ctx = tracer.current_context()

        def run(item: T) -> R:
            with tracer.bind(ctx):
                return fn(item)

        return list(self._pool().map(run, items))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


class BatchedRoundEngine(RoundEngine):
    """Same-architecture clients run stacked along a leading batch axis.

    A phase callable may expose a ``prepare_batched(engine, items)`` hook;
    the engine calls it once with the whole item list before the ordinary
    per-item map.  The trainer's train phase uses the hook to run all
    participants' local SGD through one captured graph tape
    (:func:`repro.federated.batched.train_clients_batched`) in chunks of at
    most ``batch_clients``; the per-item calls then only package results.
    Phases without the hook (the receive phase) fall through to plain
    serial execution, so the ``map`` contract is unchanged.

    Only ``batch_safe`` clients may run here — the trainer validates, like
    it does ``process_safe`` for the socket engine.
    """

    name = "batched"
    #: Trainer-visible marker: clients must be ``batch_safe`` to run here.
    batches_clients = True

    def __init__(self, batch_clients: int | None = None):
        if batch_clients is not None and batch_clients < 1:
            raise ValueError(
                f"need at least one client per batch, got {batch_clients}"
            )
        self.batch_clients = batch_clients
        self._tape_cache: dict = {}

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        items = list(items)
        prepare = getattr(fn, "prepare_batched", None)
        if prepare is not None:
            prepare(self, items)
        return [fn(item) for item in items]

    def train_clients(self, clients, iterations: int) -> None:
        """Run batched local training for ``clients`` (called by the train
        phase's ``prepare_batched`` hook)."""
        from .batched import train_clients_batched

        train_clients_batched(
            clients, iterations, self.batch_clients, self._tape_cache
        )


ENGINES: dict[str, type[RoundEngine]] = {
    "serial": SerialRoundEngine,
    "thread": ThreadedRoundEngine,
    "batched": BatchedRoundEngine,
}

#: Every engine spec name ``create_engine`` accepts, with its argument
#: shape — the "socket" engine lives in :mod:`repro.serve.engine` and is
#: resolved lazily to keep the federated core import-light.
ENGINE_SPECS: tuple[str, ...] = (
    "serial", "thread[:W]", "batched[:B]", "socket[:W]",
)


def create_engine(
    engine: str | RoundEngine, max_workers: int | None = None
) -> RoundEngine:
    """Resolve an engine instance from a spec string, or pass one through.

    Specs read ``"<name>[:<arg>]"`` — ``"serial"``, ``"thread"``,
    ``"thread:4"``, ``"batched"``, ``"batched:64"``, ``"socket"``,
    ``"socket:4"``.  The argument is a worker count for thread/socket
    engines and a per-chunk client count for the batched engine (default:
    all of a round's participants in one chunk).  ``max_workers`` is the
    fallback worker count when the spec does not carry one; ``serial``
    takes no argument.  Unknown or malformed specs raise
    :class:`ValueError` with the full catalogue.
    """
    if isinstance(engine, RoundEngine):
        return engine
    name, _, arg = engine.partition(":")
    known = sorted(set(ENGINES) | {"socket"})
    if name not in known:
        raise ValueError(
            f"unknown round engine {engine!r}; known: {known}"
        )
    workers = max_workers if name != "batched" else None
    if arg:
        if name == "serial":
            raise ValueError("the serial engine takes no worker count")
        try:
            workers = int(arg)
        except ValueError:
            raise ValueError(
                f"engine spec {engine!r} has a non-integer worker count "
                f"{arg!r}"
            ) from None
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
    if name == "serial":
        return SerialRoundEngine()
    if name == "thread":
        return ThreadedRoundEngine(max_workers=workers)
    if name == "batched":
        return BatchedRoundEngine(batch_clients=workers)
    # imported lazily: repro.serve depends on this module
    from ..serve.engine import SocketRoundEngine

    return SocketRoundEngine(max_workers=workers)
