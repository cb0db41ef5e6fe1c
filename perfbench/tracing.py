"""Span recording around the public functions of each layer of ``repro``.

The benchmark does not rely on spans inside the program: it wraps the
functions that form each layer's boundary, from this file, and records one
span per outermost call.  A call into a function whose span is already open
on the stack (``Module.__call__`` of a child module, ``super().end_task()``)
is not recorded again, so a span's duration is never counted twice.

Spans stay in memory while a repetition runs.  At the end the recorder
yields per-name totals, per-layer self time (a span's duration minus the
part of it its child spans cover) and the raw spans, which the benchmark
writes out after it has stopped measuring.

The coordinator is single-threaded on the serial and socket engines, which
is what the benchmark runs, so the span stack is a plain list.  Forked
socket workers inherit the wrappers; recording is switched off in a forked
child, so worker-side calls cost one attribute check and stay uncounted.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

LAYERS = ("trainer", "core", "nn", "codec", "serve", "sim")


class Recorder:
    """Collects spans and counts while ``enabled``; see the module docstring."""

    def __init__(self):
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # open spans: [name, start, seconds covered by child spans]
        self._stack: list[list] = []
        self._open: set[str] = set()

    def enter(self, name: str) -> bool:
        if not self.enabled or name in self._open:
            return False
        self._open.add(name)
        self._stack.append([name, time.perf_counter(), 0.0])
        return True

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        self._open.discard(name)
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((name, start, end, len(self._stack)))
        self.totals[name] += duration
        self.calls[name] += 1
        self.self_time[name.split(".", 1)[0]] += duration - child

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] += amount


RECORDER = Recorder()


def _span_wrapper(fn, name, on_result=None):
    """``fn`` recorded as span ``name`` (a string, or a callable of the
    call's arguments returning one); ``on_result(result, *args)`` runs
    after a recorded call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name(*args, **kwargs) if callable(name) else name
        if not RECORDER.enter(span):
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            RECORDER.exit()
        if on_result is not None:
            on_result(result, *args, **kwargs)
        return result

    return wrapper


def _counter_wrapper(fn, on_call):
    """``fn`` with ``on_call(result, *args)`` run after every call while
    recording; no span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if RECORDER.enabled:
            on_call(result, *args, **kwargs)
        return result

    return wrapper


def _patch_method(cls, attr: str, make) -> None:
    original = cls.__dict__[attr]
    setattr(cls, attr, make(original))


def _patch_function(module, attr: str, make) -> None:
    """Replace a module-level function and every alias of it that a
    ``from module import name`` left in another loaded ``repro`` module."""
    original = getattr(module, attr)
    replacement = make(original)
    for loaded in list(sys.modules.values()):
        if loaded is None or not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, replacement)


def _subclasses_defining(base, attr: str) -> list[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if attr in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


_installed = False


def _stop_recording() -> None:
    RECORDER.enabled = False


def install() -> None:
    """Wrap every layer boundary the per-layer metrics read (idempotent).

    Wrapping changes no behaviour; recording stays off until
    ``RECORDER.enabled`` is set.
    """
    global _installed
    if _installed:
        return
    _installed = True
    os.register_at_fork(after_in_child=_stop_recording)

    import repro.federated.registry  # noqa: F401  (loads every client class)
    from repro.core import integrator as core_integrator
    from repro.core import qp as core_qp
    from repro.core.knowledge import KnowledgeExtractor
    from repro.core.restorer import GradientRestorer
    from repro.edge.arrivals import PopulationModel
    from repro.federated import trainer as fed_trainer
    from repro.federated.base import FederatedClient
    from repro.federated.engine import RoundEngine
    from repro.federated.server import FedAvgServer
    from repro.federated.simulation import AsyncRoundLoop
    from repro.nn import functional as F
    from repro.nn.module import Module
    from repro.nn.optim import SGD
    from repro.nn.tensor import Tensor
    from repro.serve.engine import SocketRoundEngine
    from repro.serve.rpc import Connection
    from repro.utils import serialization as codec

    def span(name, on_result=None):
        return lambda fn: _span_wrapper(fn, name, on_result)

    # -- serve: coordinator side of the socket engine (inner spans) ------
    _patch_method(SocketRoundEngine, "map", span("serve.map"))
    _patch_method(SocketRoundEngine, "share_state", span("serve.share_state"))
    _patch_method(SocketRoundEngine, "collect_clients", span("serve.collect"))

    def on_send(result, conn, kind, payload=b""):
        RECORDER.count("serve.frames_sent")
        RECORDER.count("serve.sent_bytes", len(payload))

    def on_recv(result, conn):
        RECORDER.count("serve.received_bytes", len(result[1]))

    _patch_method(Connection, "send", lambda fn: _counter_wrapper(fn, on_send))
    _patch_method(Connection, "recv", lambda fn: _counter_wrapper(fn, on_recv))

    # -- trainer phases (outer spans) ------------------------------------
    def phase_of(engine, fn, items=None):
        if isinstance(fn, fed_trainer._TrainPhase):
            return "trainer.train"
        if isinstance(fn, fed_trainer._ReceivePhase):
            return "trainer.broadcast"
        return "trainer.map"

    for cls in _subclasses_defining(RoundEngine, "map"):
        _patch_method(cls, "map", span(phase_of))
    for cls in _subclasses_defining(RoundEngine, "share_state"):
        _patch_method(cls, "share_state", span("trainer.broadcast"))
    Trainer = fed_trainer.FederatedTrainer
    _patch_method(Trainer, "_begin_position", span("trainer.begin_task"))
    # end of a task stage: replica sync from the workers, then extraction
    _patch_method(Trainer, "_sync_engine_clients", span("trainer.end_task"))
    for cls in _subclasses_defining(FederatedClient, "end_task"):
        _patch_method(cls, "end_task", span("trainer.end_task"))
    for cls in _subclasses_defining(FederatedClient, "evaluate"):
        _patch_method(cls, "evaluate", span("trainer.evaluate"))
    _patch_method(FedAvgServer, "aggregate_updates", span("trainer.aggregate"))

    # -- core: FedKNOW's restorer, integrator, QP and extractor ----------
    def on_restore(result, restorer, model, entries, inputs):
        RECORDER.count("core.restored_grads", len(entries))

    def on_integrate(result, integrator, gradient, constraints):
        RECORDER.count("core.integrations")
        if result.rotated:
            RECORDER.count("core.rotations")

    _patch_method(GradientRestorer, "restore_gradients",
                  span("core.restore", on_restore))
    _patch_method(GradientRestorer, "soft_labels", span("core.soft_labels"))
    _patch_method(KnowledgeExtractor, "extract", span("core.extract"))
    _patch_method(core_integrator.GradientIntegrator, "integrate",
                  span("core.integrate", on_integrate))
    _patch_function(core_qp, "solve_nnqp", span("core.qp"))

    # -- nn ---------------------------------------------------------------
    _patch_method(Module, "__call__", span("nn.forward"))
    _patch_method(Tensor, "backward", span("nn.backward"))
    _patch_method(SGD, "step", span("nn.optim_step"))
    _patch_function(F, "conv2d", span("nn.conv2d_fwd"))
    _patch_function(F, "im2col", span("nn.im2col"))
    _patch_function(F, "col2im", span("nn.col2im"))
    for pool in ("max_pool2d", "avg_pool2d", "global_avg_pool2d"):
        _patch_function(F, pool, span("nn.pool_fwd"))
    _patch_function(F, "batch_norm", span("nn.batch_norm_fwd"))

    # -- codec ------------------------------------------------------------
    def on_encode(result, *args, **kwargs):
        RECORDER.count("codec.encoded_bytes", len(result))

    for name in ("encode_state", "encode_state_v2"):
        _patch_function(codec, name, span("codec.encode", on_encode))
    for name in ("decode_state", "decode_state_v2"):
        _patch_function(codec, name, span("codec.decode"))

    # -- sim --------------------------------------------------------------
    _patch_method(PopulationModel, "schedule", span("sim.schedule"))
    _patch_method(AsyncRoundLoop, "run", span("sim.loop"))
