"""`SocketRoundEngine`: the round engine of the socket federation service.

Implements the :class:`~repro.federated.engine.RoundEngine` contract over
the framed TCP protocol of :mod:`repro.serve.rpc`.  Two modes share all of
the machinery:

* ``socket:W`` (self-managed) — the engine listens on a loopback port and
  spawns ``W`` worker processes running :func:`repro.serve.worker.run_worker`;
  workers that die are respawned at the next round's dispatch.
* service mode (``spawn_workers=False``) — the engine only listens; external
  ``repro worker`` processes connect whenever they like and are admitted at
  round boundaries (:class:`~repro.serve.server.FederationServer` runs this
  mode and also blocks in ``wait_for_workers`` at startup).

**Sticky worker↔client affinity.**  A client is assigned to a worker the
first time it is mapped and stays there: the full client object crosses the
socket once, later dispatches ship a :class:`~repro.serve.worker.ClientRef`
stub, and results likewise return stubs for cached clients — momentum
buffers, optimiser and RNG state, and (factory-rebuilt) task data stop
crossing the process boundary between rounds.  The parent's replicas go
stale during a task; ``collect_clients`` ships the authoritative worker
replicas back for end-of-task evaluation, and task boundaries RESET every
cache and rebalance affinity over the workers then alive.

**Failure containment.**  ``may_lose_items`` is the engine's contract
extension: when a worker dies mid-phase (socket error or read timeout),
its items come back as ``None`` instead of poisoning the round — the
trainer drops the lost clients from the round (the participation policy
already tolerates fewer reports than planned) and records them on the
:class:`~repro.metrics.tracker.RoundRecord`.  The dead worker's clients are
reassigned to surviving workers from the parent's last-synced replicas; a
fresh broadcast re-synchronizes their weights on the next round.

Results are bit-identical to the serial engine for the same reason the
thread engine's are: clients are independent within a round, the per-client
float operations are unchanged, and outputs are reassembled in item order.
"""

from __future__ import annotations

import os
import pickle
import socket
import tempfile
import time
import uuid
from typing import Callable, Iterable, Mapping, TypeVar

import multiprocessing

import numpy as np

from ..federated.base import FederatedClient
from ..federated.engine import RoundEngine, SharedStateHandle, StateHandle
from ..federated.server import StreamingAccumulator
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace
from ..utils.serialization import encode_state
from .rpc import (
    MAGIC,
    PROTOCOL_VERSION,
    Connection,
    MessageType,
    RemoteError,
    RpcError,
)
from .worker import ClientRef, run_worker

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["ServeStateHandle", "SocketRoundEngine"]

#: How long the engine waits for one phase RESULT before declaring the
#: worker dead.  Phases run whole local-training rounds, so generous.
PHASE_TIMEOUT = 300.0


class ServeStateHandle(SharedStateHandle):
    """Broadcast handle that resolves locally, via tmpfs, or via STATE frames.

    Parent-side it is a plain :class:`SharedStateHandle` (dict passthrough
    plus the tmpfs file for local workers).  Worker-side, remote workers
    find the state in their framed-broadcast store by token; local workers
    fall back to reading the shared-memory file.
    """

    def resolve(self) -> Mapping[str, np.ndarray]:
        if self._local is not None:
            return self._local
        from .worker import get_broadcast

        cached = get_broadcast(self.token)
        if cached is not None:
            _obs_metrics.METRICS.counter("broadcast.cache_hits").inc()
            return cached
        return super().resolve()


class _WorkerLink:
    """Parent-side record of one connected worker."""

    def __init__(self, conn: Connection, worker_id: int, local: bool):
        self.conn = conn
        self.worker_id = worker_id
        self.local = local
        self.alive = True
        #: Client ids whose authoritative replica lives on this worker.
        self.cached: set[int] = set()
        #: Client ids whose latest dense update state the worker retained.
        self.retained: set[int] = set()
        #: Affinity load counter (clients assigned since the last rebalance).
        self.assigned = 0


def _spawned_worker(host: str, port: int) -> None:
    """Entry point of self-managed worker processes."""
    try:
        run_worker(host, port)
    except BaseException:  # pragma: no cover - exit code is the signal
        os._exit(1)


class SocketRoundEngine(RoundEngine):
    """Round work dispatched to socket-connected worker processes."""

    name = "socket"
    needs_pickling = True
    #: Contract extension: a dead worker loses its items (``None`` results)
    #: instead of failing the round; the trainer must tolerate and record.
    may_lose_items = True
    #: Trainer-visible marker: shard aggregation can request segment
    #: partials from the workers that retained this round's updates.
    remote_partials = True

    def __init__(
        self,
        max_workers: int | None = None,
        data_factory=None,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn_workers: bool = True,
        phase_timeout: float = PHASE_TIMEOUT,
    ):
        self.max_workers = max_workers or os.cpu_count() or 1
        if self.max_workers < 1:
            raise ValueError(f"need at least one worker, got {max_workers}")
        self.data_factory = data_factory
        self.host = host
        self.port = port
        self.spawn_workers = spawn_workers
        self.phase_timeout = phase_timeout
        self._listener: socket.socket | None = None
        self._links: list[_WorkerLink] = []
        self._processes: list[multiprocessing.Process] = []
        self._affinity: dict[int, _WorkerLink] = {}
        self._origin: dict[int, _WorkerLink] = {}
        self._next_worker_id = 0
        self._probe_path: str | None = None
        self._probe_token: str | None = None

    # ------------------------------------------------------------------
    # listening and admission
    # ------------------------------------------------------------------
    def set_data_factory(self, data_factory) -> None:
        """Install the worker-side client-data factory (pre-admission only)."""
        if self._links:
            raise RuntimeError(
                "cannot install a data factory after workers have connected"
            )
        self.data_factory = data_factory

    def listen(self) -> tuple[str, int]:
        """Bind and listen (idempotent); returns the bound ``(host, port)``."""
        if self._listener is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, self.port))
            sock.listen(64)
            self._listener = sock
            # shared-filesystem probe: workers that can read this token
            # through tmpfs share broadcasts by file instead of by frame
            shm_dir = "/dev/shm" if os.path.isdir("/dev/shm") else None
            fd, self._probe_path = tempfile.mkstemp(
                prefix="repro-serve-", suffix=".probe", dir=shm_dir
            )
            self._probe_token = uuid.uuid4().hex
            with os.fdopen(fd, "w") as handle:
                handle.write(self._probe_token)
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — valid after :meth:`listen`."""
        if self._listener is None:
            raise RuntimeError("engine is not listening yet")
        name = self._listener.getsockname()
        return name[0], name[1]

    def _live(self) -> list[_WorkerLink]:
        return [link for link in self._links if link.alive]

    def _admit_one(self, timeout: float) -> _WorkerLink | None:
        """Accept and handshake at most one worker connection."""
        self._listener.settimeout(timeout)
        try:
            sock, _ = self._listener.accept()
        except (socket.timeout, BlockingIOError):
            return None
        conn = Connection(sock, timeout=10.0)
        try:
            _, hello = conn.expect(MessageType.HELLO)
            if hello.get("magic") != MAGIC:
                raise RpcError("peer did not speak the serve protocol")
            if hello.get("version") != PROTOCOL_VERSION:
                conn.send_obj(
                    MessageType.ERROR,
                    f"protocol version mismatch: server v{PROTOCOL_VERSION}, "
                    f"worker v{hello.get('version')}",
                )
                raise RpcError("protocol version mismatch")
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            conn.send_obj(MessageType.WELCOME, {
                "version": PROTOCOL_VERSION,
                "worker_id": worker_id,
                "probe_path": self._probe_path,
                "probe_token": self._probe_token,
                "data_factory": self.data_factory,
            })
            _, ready = conn.expect(MessageType.READY)
        except (RpcError, OSError):
            conn.close()
            return None
        conn.settimeout(self.phase_timeout)
        link = _WorkerLink(conn, worker_id, local=bool(ready.get("local")))
        self._links.append(link)
        return link

    def poll_admissions(self) -> int:
        """Admit every worker currently waiting to connect (non-blocking)."""
        admitted = 0
        if self._listener is None:
            return admitted
        while self._admit_one(timeout=0.0) is not None:
            admitted += 1
        return admitted

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> None:
        """Block until ``count`` workers are connected (or raise)."""
        self.listen()
        deadline = time.monotonic() + timeout
        while len(self._live()) < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RpcError(
                    f"only {len(self._live())} of {count} workers connected "
                    f"within {timeout:.0f}s"
                )
            self._admit_one(timeout=min(remaining, 0.5))

    def _ensure_workers(self) -> None:
        self.listen()
        self.poll_admissions()
        if self.spawn_workers:
            self._processes = [p for p in self._processes if p.is_alive()]
            missing = self.max_workers - len(self._live())
            if missing > 0:
                host, port = self.address
                for _ in range(missing):
                    process = multiprocessing.Process(
                        target=_spawned_worker, args=(host, port), daemon=True
                    )
                    process.start()
                    self._processes.append(process)
                self.wait_for_workers(self.max_workers)
        if not self._live():
            raise RuntimeError(
                "no connected workers; start some with "
                "`repro worker --connect HOST:PORT`"
            )

    # ------------------------------------------------------------------
    # failure containment
    # ------------------------------------------------------------------
    def _mark_dead(self, link: _WorkerLink) -> None:
        if not link.alive:
            return
        link.alive = False
        link.conn.close()
        _obs_metrics.METRICS.warn(
            "serve.workers_lost",
            f"worker {link.worker_id} lost mid-round; its clients are "
            f"reassigned at the next dispatch",
            worker_id=link.worker_id,
            cached_clients=len(link.cached),
        )
        # unpin the dead worker's clients: the next dispatch reassigns them
        # to surviving workers from the parent's last-synced replicas
        for client_id in [
            cid for cid, owner in self._affinity.items() if owner is link
        ]:
            del self._affinity[client_id]
        for client_id in [
            cid for cid, owner in self._origin.items() if owner is link
        ]:
            del self._origin[client_id]
        link.cached = set()
        link.retained = set()

    # ------------------------------------------------------------------
    # the RoundEngine contract
    # ------------------------------------------------------------------
    def _affinity_for(
        self, client_id: int, live: list[_WorkerLink]
    ) -> _WorkerLink:
        link = self._affinity.get(client_id)
        if link is not None and link.alive:
            return link
        link = min(live, key=lambda l: (l.assigned, l.worker_id))
        link.assigned += 1
        self._affinity[client_id] = link
        return link

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        items = list(items)
        if not items:
            return []
        self._ensure_workers()
        live = self._live()
        self._origin = {}
        # injected into every PHASE payload so worker-side spans stitch
        # under the caller's open (round) span; None when tracing is off
        span_ctx = _obs_trace.current_context()
        assignments: dict[int, list[tuple[int, T]]] = {}
        by_link = {link.worker_id: link for link in live}
        for index, item in enumerate(items):
            if isinstance(item, FederatedClient):
                link = self._affinity_for(item.client_id, live)
            else:
                link = live[index % len(live)]
            assignments.setdefault(link.worker_id, []).append((index, item))
        pending: list[_WorkerLink] = []
        for worker_id, entries in assignments.items():
            link = by_link[worker_id]
            wire = []
            for index, item in entries:
                if (
                    isinstance(item, FederatedClient)
                    and item.client_id in link.cached
                ):
                    wire.append((index, ClientRef(item.client_id)))
                else:
                    wire.append((index, item))
            try:
                link.conn.send(
                    MessageType.PHASE,
                    pickle.dumps((fn, wire, span_ctx), protocol=5),
                )
            except RpcError:
                self._mark_dead(link)
                continue
            for _, item in entries:
                if isinstance(item, FederatedClient):
                    link.cached.add(item.client_id)
            pending.append(link)
        by_client = {
            item.client_id: item
            for item in items
            if isinstance(item, FederatedClient)
        }
        results: list[R | None] = [None] * len(items)
        phase_error: RemoteError | None = None
        for link in pending:
            try:
                _, (entries, retained_ids, telemetry) = link.conn.expect(
                    MessageType.RESULT
                )
            except RemoteError as exc:
                # a phase bug, not a transport failure: keep draining the
                # other workers so the stream stays in sync, then re-raise
                phase_error = phase_error or exc
                continue
            except RpcError:
                self._mark_dead(link)
                continue
            if telemetry is not None:
                _obs_trace.TRACER.absorb(telemetry[0])
                _obs_metrics.METRICS.merge(telemetry[1])
            link.retained = set(retained_ids)
            for client_id in retained_ids:
                self._origin[client_id] = link
            for index, result in entries:
                results[index] = self._substitute(result, by_client)
        if phase_error is not None:
            raise phase_error
        return results

    @staticmethod
    def _substitute(result, by_client: dict[int, FederatedClient]):
        """Swap returned stubs for the parent's replica of the same client."""
        if isinstance(result, ClientRef):
            return by_client[result.client_id]
        if not isinstance(result, tuple):
            return result
        return tuple(
            by_client[part.client_id] if isinstance(part, ClientRef) else part
            for part in result
        )

    def begin_task(self, position: int) -> None:
        if self._listener is None:
            return
        # (re)admissions happen at task boundaries too, then every cache is
        # dropped and affinity rebalances over the workers alive right now
        self.poll_admissions()
        for link in self._live():
            try:
                link.conn.send(MessageType.RESET)
            except RpcError:
                self._mark_dead(link)
                continue
            link.cached = set()
            link.retained = set()
            link.assigned = 0
        self._affinity = {}
        self._origin = {}

    def share_state(self, state: Mapping[str, np.ndarray]) -> StateHandle:
        handle = ServeStateHandle(state)
        remote = [link for link in self._live() if not link.local]
        if remote:
            payload = pickle.dumps(
                (handle.token, encode_state(dict(state))), protocol=5
            )
            for link in remote:
                try:
                    link.conn.send(MessageType.STATE, payload)
                except RpcError:
                    self._mark_dead(link)
        return handle

    # ------------------------------------------------------------------
    # trainer extensions: end-of-task sync and remote segment partials
    # ------------------------------------------------------------------
    def collect_clients(self) -> list[FederatedClient]:
        """Ship every worker's cached client replicas back (authoritative)."""
        collected: list[FederatedClient] = []
        for link in self._live():
            if not link.cached:
                continue
            try:
                link.conn.send(MessageType.COLLECT)
                _, clients = link.conn.expect(MessageType.RESULT)
            except RpcError:
                self._mark_dead(link)
                continue
            collected.extend(clients)
        return collected

    def origin_link(self, client_id: int) -> _WorkerLink | None:
        """The live worker retaining ``client_id``'s latest update, if any."""
        link = self._origin.get(client_id)
        if link is not None and link.alive and client_id in link.retained:
            return link
        return None

    def fetch_partials(
        self, per_link: dict[_WorkerLink, list]
    ) -> dict[int, StreamingAccumulator]:
        """Request segment partial sums from workers; best-effort.

        Sends every worker its batch of ``(segment_index, [(client_id,
        coeff), ...])`` requests first, then collects.  Segments a worker
        fails to serve (death or a missing retained state) are simply
        absent from the result — the caller recomputes them locally from
        the updates it already holds.
        """
        sent: list[_WorkerLink] = []
        for link, requests in per_link.items():
            try:
                link.conn.send(
                    MessageType.PARTIAL, pickle.dumps(requests, protocol=5)
                )
            except RpcError:
                self._mark_dead(link)
                continue
            sent.append(link)
        partials: dict[int, StreamingAccumulator] = {}
        for link in sent:
            try:
                _, served = link.conn.expect(MessageType.PARTIAL_RESULT)
            except RemoteError:
                continue
            except RpcError:
                self._mark_dead(link)
                continue
            for segment_index, accumulator in served:
                partials[segment_index] = accumulator
        return partials

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        for link in self._links:
            if link.alive:
                try:
                    link.conn.send(MessageType.BYE)
                except RpcError:
                    pass
            link.alive = False
            link.conn.close()
        self._links = []
        self._affinity = {}
        self._origin = {}
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=5.0)
        self._processes = []
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._probe_path is not None:
            try:
                os.unlink(self._probe_path)
            except FileNotFoundError:
                pass
            self._probe_path = None
