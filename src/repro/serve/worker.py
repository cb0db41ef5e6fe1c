"""Worker side of the socket federation service.

A worker process connects to the :class:`~repro.serve.server.FederationServer`
(or a self-spawned :class:`~repro.serve.engine.SocketRoundEngine`), completes
the version handshake, and then serves frames until the server says BYE or
the connection drops:

* **PHASE** — run a phase callable over this worker's assigned items.  The
  worker keeps **persistent client replicas**: a client crosses the socket
  once, is cached by id, and every later round's dispatch ships a tiny
  :class:`ClientRef` stub instead — momentum buffers, RNG state and method
  state stay put.  Task data is rebuilt locally from the WELCOME's pickled
  data factory (through :func:`repro.federated.engine.worker_client_data`).
* **STATE** — a framed global-state broadcast for remote workers; local
  workers read the tmpfs file instead and never receive this frame.
* **PARTIAL** — accumulate segment partial sums over the client updates
  retained from the round's train phase, so shard aggregation ships one
  float64 partial per segment instead of every client state.
* **RESET** — task boundary: drop client replicas, retained updates,
  broadcasts and the materialized task-data cache.
* **COLLECT** — ship the cached client replicas back so the trainer can
  run end-of-task evaluation on authoritative state.

Phase exceptions travel back as ERROR frames (the engine re-raises them
parent-side); only protocol violations and a dead socket end the loop.
"""

from __future__ import annotations

import os
import traceback

from ..federated import engine as engine_mod
from ..federated.base import FederatedClient
from ..federated.protocol import ClientUpdate
from ..federated.server import StreamingAccumulator
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace
from ..utils.serialization import decode_state
from .rpc import (
    MAGIC,
    PROTOCOL_VERSION,
    Connection,
    ConnectionClosed,
    MessageType,
    ProtocolError,
    connect_with_retry,
)

import numpy as np

__all__ = ["ClientRef", "WorkerSession", "run_worker", "get_broadcast"]


class ClientRef:
    """Affinity stub: stands in for a client cached on the other side."""

    __slots__ = ("client_id",)

    def __init__(self, client_id: int):
        self.client_id = client_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClientRef({self.client_id})"


#: Framed broadcasts decoded by this worker, newest last.  Two can be live
#: at once (the round's receive broadcast plus the transport's shared dense
#: base for the next train phase), so pruning keeps the two most recent.
_BROADCASTS: dict[str, dict] = {}
_BROADCAST_KEEP = 2


def get_broadcast(token: str):
    """Resolve a framed broadcast by token (None when not this worker's)."""
    return _BROADCASTS.get(token)


def _store_broadcast(token: str, state: dict) -> None:
    _BROADCASTS[token] = state
    while len(_BROADCASTS) > _BROADCAST_KEEP:
        del _BROADCASTS[next(iter(_BROADCASTS))]


_FRAMED_DECODES = _obs_metrics.METRICS.counter("broadcast.framed_decodes")


def _dense_state(state) -> bool:
    return all(isinstance(value, np.ndarray) for value in state.values())


class WorkerSession:
    """One connected worker's frame loop and caches."""

    def __init__(self, conn: Connection, worker_id: int):
        self.conn = conn
        self.worker_id = worker_id
        #: Persistent client replicas, by client id (the affinity cache).
        self.clients: dict[int, FederatedClient] = {}
        #: Dense update states retained from the latest PHASE, by client id.
        self.retained: dict[int, dict] = {}
        #: Session tracer, created on the first traced PHASE and kept so
        #: span ids stay unique across this worker's phases.
        self._tracer: _obs_trace.Tracer | None = None
        #: True while the session tracer is installed as the process
        #: tracer (it stays installed *between* traced phases so the
        #: RESULT send and the next PHASE recv record rpc_frame spans;
        #: those ship with the following phase's telemetry).
        self._tracing = False

    def _tracer_for(self, ctx) -> _obs_trace.Tracer:
        tracer = self._tracer
        if tracer is None or tracer.trace_id != ctx[0]:
            tracer = self._tracer = _obs_trace.Tracer(
                trace_id=ctx[0],
                origin=f"sw{self.worker_id}p{os.getpid()}",
                process=f"worker-{self.worker_id}",
            )
        tracer.adopt(ctx)
        return tracer

    # -- frame handlers ------------------------------------------------
    def _handle_phase(self, payload: bytes) -> None:
        import pickle

        fn, entries, span_ctx = pickle.loads(payload)
        self.retained = {}
        resolved = []
        for index, item in entries:
            if isinstance(item, ClientRef):
                cached = self.clients.get(item.client_id)
                if cached is None:
                    raise ProtocolError(
                        f"server referenced client {item.client_id}, which "
                        f"this worker has not cached"
                    )
                item = cached
            elif isinstance(item, FederatedClient):
                # first crossing (or re-assignment after a worker failure):
                # adopt the shipped replica as this worker's authoritative copy
                self.clients[item.client_id] = item
            resolved.append((index, item))
        results = []
        retained_ids = []
        if span_ctx is None:
            if self._tracing:
                # the server turned telemetry off: return to the no-op
                # path and discard spans that will never be collected
                _obs_trace.set_tracer(_obs_trace.NullTracer())
                self._tracer.drain()
                self._tracing = False
            for index, item in resolved:
                result = fn(item)
                results.append(
                    (index, self._stub_result(result, retained_ids))
                )
            self.conn.send_obj(
                MessageType.RESULT, (results, tuple(retained_ids), None)
            )
            return
        # traced phase: run under a session tracer adopted into the
        # server's round span, then ship spans + a metrics delta back
        tracer = self._tracer_for(span_ctx)
        if _obs_trace.TRACER is not tracer:
            _obs_trace.set_tracer(tracer)
            self._tracing = True
        for index, item in resolved:
            result = fn(item)
            results.append(
                (index, self._stub_result(result, retained_ids))
            )
        telemetry = (tracer.drain(), _obs_metrics.METRICS.drain())
        self.conn.send_obj(
            MessageType.RESULT, (results, tuple(retained_ids), telemetry)
        )

    def _stub_result(self, result, retained_ids: list[int]):
        """Replace cached clients with stubs; retain dense update states."""
        if isinstance(result, FederatedClient):
            return ClientRef(result.client_id)
        if not isinstance(result, tuple):
            return result
        out = []
        for part in result:
            if isinstance(part, FederatedClient):
                out.append(ClientRef(part.client_id))
                continue
            if isinstance(part, ClientUpdate) and _dense_state(part.state):
                self.retained[part.client_id] = part.state
                retained_ids.append(part.client_id)
            out.append(part)
        return tuple(out)

    def _handle_state(self, payload: bytes) -> None:
        import pickle

        token, wire_bytes = pickle.loads(payload)
        _store_broadcast(token, decode_state(wire_bytes))
        _FRAMED_DECODES.inc()

    def _handle_partial(self, payload: bytes) -> None:
        import pickle

        requests = pickle.loads(payload)
        partials = []
        for seg_index, terms in requests:
            accumulator = StreamingAccumulator(base=None)
            for client_id, coeff in terms:
                state = self.retained.get(client_id)
                if state is None:
                    raise KeyError(
                        f"no retained update for client {client_id}; cannot "
                        f"serve segment {seg_index} remotely"
                    )
                accumulator.add(state, coeff)
            partials.append((seg_index, accumulator))
        self.conn.send_obj(MessageType.PARTIAL_RESULT, partials)

    def _handle_reset(self) -> None:
        self.clients = {}
        self.retained = {}
        _BROADCASTS.clear()
        engine_mod._STATE_CACHE.clear()
        # drop materialized task arrays; the factory rebuilds lazily
        engine_mod._DATA_CACHE = None

    def _handle_collect(self) -> None:
        self.conn.send_obj(
            MessageType.RESULT, list(self.clients.values())
        )

    # -- loop ----------------------------------------------------------
    def run(self) -> None:
        while True:
            try:
                kind, payload = self.conn.recv()
            except ConnectionClosed:
                return
            if kind == MessageType.BYE:
                return
            try:
                if kind == MessageType.PHASE:
                    self._handle_phase(payload)
                elif kind == MessageType.STATE:
                    self._handle_state(payload)
                elif kind == MessageType.PARTIAL:
                    self._handle_partial(payload)
                elif kind == MessageType.RESET:
                    self._handle_reset()
                elif kind == MessageType.COLLECT:
                    self._handle_collect()
                else:
                    raise ProtocolError(
                        f"worker cannot handle {kind.name} frames"
                    )
            except ConnectionClosed:
                return
            except Exception:
                # report the failure and stay alive: the engine decides
                # whether to re-raise (phase bugs) or fall back (partials)
                self.conn.send_obj(
                    MessageType.ERROR, traceback.format_exc()
                )


def run_worker(
    host: str,
    port: int,
    *,
    attempts: int = 10,
    backoff: float = 0.05,
    assume_remote: bool = False,
) -> int:
    """Connect, handshake, and serve frames until the server lets go.

    ``assume_remote`` skips the tmpfs probe, forcing framed STATE
    broadcasts even on the server's host — the remote code path under test
    on one machine.  Returns the worker id the server assigned.
    """
    conn = connect_with_retry(host, port, attempts=attempts,
                              backoff=backoff, timeout=None)
    try:
        conn.send_obj(MessageType.HELLO, {
            "magic": MAGIC,
            "version": PROTOCOL_VERSION,
            "remote": bool(assume_remote),
        })
        _, welcome = conn.expect(MessageType.WELCOME)
        if welcome["version"] != PROTOCOL_VERSION:
            raise ProtocolError(
                f"server speaks protocol v{welcome['version']}, this worker "
                f"v{PROTOCOL_VERSION}"
            )
        local = False
        if not assume_remote and welcome.get("probe_path"):
            # shared-filesystem probe: when the server's tmpfs probe file is
            # readable with the advertised token, broadcasts can ride the
            # shared-memory file instead of the socket
            try:
                with open(welcome["probe_path"], "r") as handle:
                    local = handle.read() == welcome["probe_token"]
            except OSError:
                local = False
        conn.send_obj(MessageType.READY, {"local": local})
        engine_mod._init_worker(welcome["data_factory"])
        WorkerSession(conn, welcome["worker_id"]).run()
        return welcome["worker_id"]
    finally:
        conn.close()
