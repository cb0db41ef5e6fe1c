"""Static graph tape: explicit op nodes, captured once and replayed per step.

The dynamic autograd in :mod:`repro.nn.tensor` wires one Python closure per
op.  That is flexible but it means every training step re-pays graph
construction and per-op dispatch.  This module provides the pieces that let
the same graph be built **once** and then executed as a flat list of array
operations:

* an **op registry** (:class:`OpDef` / :func:`register_op`): every tensor
  operation is a ``forward(ctx, *arrays, **params)`` / ``vjp(ctx, g)`` pair
  of shape-polymorphic functions over raw numpy arrays — the vjp returns one
  gradient per argument (or ``None``), aligned with the forward arguments;
* a :class:`GraphTape` of :class:`OpNode` records ``{op, parents, vjp
  context}`` — the vjp-graph structure of autograd's ``core.py`` — captured
  while a model runs under :meth:`GraphTape.capture` and replayed with
  :meth:`GraphTape.replay_grad` without building a single Tensor or closure;
* a **batched replay** (:meth:`GraphTape.replay_grad_batched`) that runs the
  captured program for ``B`` independent parameter/minibatch sets stacked
  along a new leading axis.  Ops opt in through ``batched_forward`` /
  ``batched_vjp`` implementations (einsum contractions for conv, broadcast
  alignment for binary arithmetic); ``batch_exact`` marks ops whose batched
  arithmetic is bit-identical per slice to the unbatched op (verified for
  the matmul/conv/pool/cross-entropy set this substrate ships).

The tape's three leaf kinds are **inputs** (fed per replay: minibatches,
labels, masks), **params** (grad-carrying leaves, re-read from the bound
modules or passed explicitly per replay) and **consts** (baked at capture).
Parameter shapes are validated on every replay: a module whose parameter
shapes changed after capture raises a clear ``RuntimeError`` instead of
silently replaying a stale program.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Mapping, Sequence

import numpy as np

from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace
from . import profiler as _profiler

#: Every tape replay (forward-only or grad, batched or not) bumps this.
_TAPE_REPLAYS = _obs_metrics.METRICS.counter("tape.replays")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ----------------------------------------------------------------------
# op registry
# ----------------------------------------------------------------------
class OpDef:
    """A registered tensor operation: paired forward and vjp functions.

    ``forward(ctx, *arrays, **params)`` computes the result and stashes
    whatever the backward pass needs into the ``ctx`` dict (``ctx["needs"]``
    is pre-set to the per-argument requires-grad mask so forwards can skip
    saving unneeded intermediates).  ``vjp(ctx, g)`` returns one gradient
    array per forward argument, ``None`` where no gradient flows.

    ``batched_forward`` / ``batched_vjp`` (optional) run the op with a
    leading batch axis on every argument flagged in ``ctx["arg_batched"]``;
    ops without them cannot take part in a batched replay.
    """

    __slots__ = (
        "name",
        "forward",
        "vjp",
        "batched_forward",
        "batched_vjp",
        "batch_exact",
        "stops_grad",
    )

    def __init__(
        self,
        name: str,
        forward: Callable,
        vjp: Callable | None,
        batched_forward: Callable | None = None,
        batched_vjp: Callable | None = None,
        batch_exact: bool = False,
        stops_grad: bool = False,
    ):
        self.name = name
        self.forward = forward
        self.vjp = vjp
        self.batched_forward = batched_forward
        self.batched_vjp = batched_vjp
        self.batch_exact = batch_exact
        self.stops_grad = stops_grad

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OpDef({self.name!r})"


#: Global registry: op name -> definition.  Populated by
#: :mod:`repro.nn.tensor` and :mod:`repro.nn.functional` at import time.
OPS: dict[str, OpDef] = {}


def register_op(
    name: str,
    forward: Callable,
    vjp: Callable | None,
    *,
    batched_forward: Callable | None = None,
    batched_vjp: Callable | None = None,
    elementwise: bool = False,
    batch_exact: bool = False,
    stops_grad: bool = False,
) -> OpDef:
    """Register an op; ``elementwise`` reuses the plain functions for the
    batched path (a leading axis is just more elements)."""
    if name in OPS:
        raise ValueError(f"op {name!r} registered twice")
    if elementwise:
        batched_forward = batched_forward or forward
        batched_vjp = batched_vjp or vjp
        batch_exact = True
    op = OPS[name] = OpDef(
        name,
        forward,
        vjp,
        batched_forward=batched_forward,
        batched_vjp=batched_vjp,
        batch_exact=batch_exact,
        stops_grad=stops_grad,
    )
    return op


# ----------------------------------------------------------------------
# capture state
# ----------------------------------------------------------------------
class _CaptureState(threading.local):
    tape: "GraphTape | None" = None


_capture = _CaptureState()


def active_tape() -> "GraphTape | None":
    """The tape currently capturing on this thread, if any."""
    return _capture.tape


# ----------------------------------------------------------------------
# tape structure
# ----------------------------------------------------------------------
_KIND_INPUT = "input"
_KIND_PARAM = "param"
_KIND_CONST = "const"


class OpNode:
    """One recorded op: argument slots in, one output slot out."""

    __slots__ = (
        "op",
        "arg_slots",
        "out_slot",
        "params",
        "arg_shapes",
        "out_shape",
        "grad_mask",
    )

    def __init__(self, op, arg_slots, out_slot, params, arg_shapes, out_shape):
        self.op = op
        self.arg_slots = arg_slots
        self.out_slot = out_slot
        self.params = params
        self.arg_shapes = arg_shapes
        self.out_shape = out_shape
        self.grad_mask: tuple[bool, ...] = ()


class _ParamSlot:
    __slots__ = ("slot", "shape", "dtype", "ref")

    def __init__(self, slot, shape, dtype, ref):
        self.slot = slot
        self.shape = shape
        self.dtype = dtype
        self.ref = ref  # the leaf tensor captured (usually a Parameter)


class GraphTape:
    """A captured program: leaf slots plus a flat list of op nodes.

    Build one by running the model once inside :meth:`capture`, marking the
    per-step arrays with :meth:`add_input` and the result with
    :meth:`set_output`.  Replay then executes the node list directly on
    numpy arrays — no Tensors, no closures, no per-op dispatch.
    """

    def __init__(self):
        self.nodes: list[OpNode] = []
        self.num_slots = 0
        self.inputs: dict[str, tuple[int, tuple[int, ...], np.dtype]] = {}
        self.param_slots: list[_ParamSlot] = []
        self.consts: list[tuple[int, np.ndarray]] = []
        self.output_slot: int | None = None
        self._slot_of: dict[int, int] = {}  # id(tensor) -> slot
        self._keepalive: list = []  # pins tensor ids while capturing
        self._finalized = False

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def capture(self):
        """Record every op applied to tensors reachable from this tape."""
        if _capture.tape is not None:
            raise RuntimeError("another GraphTape is already capturing")
        if self._finalized:
            raise RuntimeError("cannot re-enter capture on a finalized tape")
        _capture.tape = self
        try:
            yield self
        finally:
            _capture.tape = None

    def _new_slot(self) -> int:
        slot = self.num_slots
        self.num_slots += 1
        return slot

    def add_input(self, name: str, tensor) -> None:
        """Mark ``tensor`` as a per-replay input named ``name``."""
        if name in self.inputs:
            raise ValueError(f"input {name!r} registered twice")
        slot = self._new_slot()
        self.inputs[name] = (slot, tensor.data.shape, tensor.data.dtype)
        self._slot_of[id(tensor)] = slot
        self._keepalive.append(tensor)

    def _add_leaf(self, tensor) -> int:
        slot = self._new_slot()
        if tensor.requires_grad:
            self.param_slots.append(
                _ParamSlot(slot, tensor.data.shape, tensor.data.dtype, tensor)
            )
        else:
            self.consts.append((slot, tensor.data))
        self._slot_of[id(tensor)] = slot
        self._keepalive.append(tensor)
        return slot

    def record(self, op: OpDef, tensors, params: Mapping, out) -> None:
        """Called by ``apply_op`` for every op executed during capture."""
        slots = []
        for t in tensors:
            slot = self._slot_of.get(id(t))
            if slot is None:
                slot = self._add_leaf(t)
            slots.append(slot)
        out_slot = self._new_slot()
        self._slot_of[id(out)] = out_slot
        self._keepalive.append(out)
        self.nodes.append(
            OpNode(
                op,
                tuple(slots),
                out_slot,
                dict(params),
                tuple(t.data.shape for t in tensors),
                out.data.shape,
            )
        )

    def set_output(self, tensor) -> None:
        """Mark the capture's result tensor and finalize the program."""
        slot = self._slot_of.get(id(tensor))
        if slot is None:
            raise ValueError(
                "output tensor was not produced while this tape was capturing"
            )
        self.output_slot = slot
        self._finalize()

    def _finalize(self) -> None:
        needs = np.zeros(self.num_slots, dtype=bool)
        for ps in self.param_slots:
            needs[ps.slot] = True
        for node in self.nodes:
            node.grad_mask = tuple(bool(needs[s]) for s in node.arg_slots)
            if not node.op.stops_grad and any(node.grad_mask):
                needs[node.out_slot] = True
        self._slot_needs = needs
        self._finalized = True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_params(self) -> int:
        return len(self.param_slots)

    @property
    def param_shapes(self) -> list[tuple[int, ...]]:
        return [ps.shape for ps in self.param_slots]

    @property
    def batch_exact(self) -> bool:
        """True when batched replay is bit-identical per slice to serial."""
        return all(node.op.batch_exact for node in self.nodes)

    def batch_unsupported_ops(self) -> list[str]:
        """Names of recorded ops that cannot run in a batched replay."""
        return sorted(
            {n.op.name for n in self.nodes if n.op.batched_forward is None}
        )

    def bind_parameters(self, params: Sequence) -> list[int]:
        """Map each param slot to its index in ``params`` (by identity).

        Returns the slot->index mapping; replays that pass explicit
        parameter arrays must order them the same way.  Raises if a
        captured parameter is not in ``params``.
        """
        index_of = {id(p): i for i, p in enumerate(params)}
        order = []
        for ps in self.param_slots:
            idx = index_of.get(id(ps.ref))
            if idx is None:
                raise ValueError(
                    "captured parameter not found in the bound parameter list"
                )
            order.append(idx)
        self._bound_order = order
        return order

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def _check_finalized(self) -> None:
        if not self._finalized:
            raise RuntimeError(
                "GraphTape has no output yet; run a capture and call set_output"
            )

    def _param_arrays(self, params) -> list[np.ndarray]:
        if params is None:
            return [ps.ref.data for ps in self.param_slots]
        params = list(params)
        if len(params) != len(self.param_slots):
            raise RuntimeError(
                f"GraphTape invalidated: expected {len(self.param_slots)} "
                f"parameters, got {len(params)}"
            )
        return params

    def _fill_values(self, inputs, param_arrays, batch: int | None):
        values: list[np.ndarray | None] = [None] * self.num_slots
        for slot, arr in self.consts:
            values[slot] = arr
        unseen = set(self.inputs)
        for name, arr in inputs.items():
            if name not in self.inputs:
                raise ValueError(f"unknown tape input {name!r}")
            slot, shape, dtype = self.inputs[name]
            expected = shape if batch is None else (batch,) + shape
            arr = np.asarray(arr)
            if arr.shape != expected:
                raise ValueError(
                    f"tape input {name!r} has shape {arr.shape}, "
                    f"expected {expected}"
                )
            values[slot] = arr
            unseen.discard(name)
        if unseen:
            raise ValueError(f"missing tape input(s): {sorted(unseen)}")
        for ps, arr in zip(self.param_slots, param_arrays):
            expected = ps.shape if batch is None else (batch,) + ps.shape
            if arr.shape != expected:
                raise RuntimeError(
                    f"GraphTape invalidated: parameter shape changed from "
                    f"{ps.shape} to "
                    f"{arr.shape if batch is None else arr.shape[1:]} "
                    f"between capture and replay; re-capture the graph"
                )
            values[ps.slot] = arr
        return values

    def _forward(self, values):
        ctxs = []
        if _profiler._timers:
            return self._forward_timed(values)
        for node in self.nodes:
            ctx = {"needs": node.grad_mask}
            args = [values[s] for s in node.arg_slots]
            values[node.out_slot] = node.op.forward(ctx, *args, **node.params)
            ctxs.append(ctx)
        return ctxs

    def _forward_timed(self, values):
        """The forward loop with per-op wall time fed to active OpTimers."""
        ctxs = []
        perf = time.perf_counter
        for node in self.nodes:
            ctx = {"needs": node.grad_mask}
            args = [values[s] for s in node.arg_slots]
            started = perf()
            values[node.out_slot] = node.op.forward(ctx, *args, **node.params)
            _profiler.record_op_seconds("fwd." + node.op.name,
                                        perf() - started)
            ctxs.append(ctx)
        return ctxs

    def _traced(self, kind: str, body, **attrs):
        """Run one replay ``body`` under telemetry accounting.

        The replay counter is always bumped; when tracing is on the body
        runs inside a ``tape_replay`` span with an active
        :class:`~repro.nn.profiler.OpTimer`, whose per-op wall-clock
        summary is folded into the span's attributes.
        """
        _TAPE_REPLAYS.inc()
        tracer = _obs_trace.TRACER
        if not tracer.enabled:
            return body()
        with tracer.span("tape_replay", kind=kind, nodes=len(self.nodes),
                         **attrs) as span, _profiler.OpTimer() as timer:
            result = body()
            span.attrs["ops"] = timer.summary()
        return result

    def replay(self, inputs: Mapping[str, np.ndarray], params=None) -> np.ndarray:
        """Run the captured program forward; returns the output array."""
        return self._traced("forward", lambda: self._replay(inputs, params))

    def _replay(self, inputs, params):
        self._check_finalized()
        values = self._fill_values(inputs, self._param_arrays(params), None)
        self._forward(values)
        return values[self.output_slot]

    def _backward(self, values, ctxs, seed, batched_mask=None):
        out_value = values[self.output_slot]
        if seed is None:
            seed = np.ones_like(out_value)
        grads: dict[int, np.ndarray] = {
            self.output_slot: np.asarray(seed, dtype=out_value.dtype)
        }
        needs = self._slot_needs
        timers = _profiler._timers
        perf = time.perf_counter
        for i in range(len(self.nodes) - 1, -1, -1):
            node = self.nodes[i]
            g = grads.pop(node.out_slot, None)
            if g is None or not any(node.grad_mask):
                continue
            if batched_mask is None or not batched_mask[node.out_slot]:
                vjp = node.op.vjp
            else:
                vjp = node.op.batched_vjp or node.op.vjp
            if timers:
                started = perf()
                pgrads = vjp(ctxs[i], g)
                _profiler.record_op_seconds("bwd." + node.op.name,
                                            perf() - started)
            else:
                pgrads = vjp(ctxs[i], g)
            for s, pg in zip(node.arg_slots, pgrads):
                if pg is None or not needs[s]:
                    continue
                acc = grads.get(s)
                if acc is None:
                    grads[s] = pg
                else:
                    if pg.dtype != acc.dtype:
                        pg = pg.astype(acc.dtype)
                    grads[s] = acc + pg
        return grads

    def replay_grad(
        self,
        inputs: Mapping[str, np.ndarray],
        params=None,
        seed: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[np.ndarray | None]]:
        """Forward + backward replay.

        Returns ``(output, param_grads)`` with one gradient per param slot
        (``None`` where no gradient reached the parameter).  The arithmetic
        and accumulation order match the dynamic tape exactly, so replayed
        training is bit-identical to closure-based training.
        """
        return self._traced(
            "grad", lambda: self._replay_grad(inputs, params, seed)
        )

    def _replay_grad(self, inputs, params, seed):
        self._check_finalized()
        param_arrays = self._param_arrays(params)
        values = self._fill_values(inputs, param_arrays, None)
        ctxs = self._forward(values)
        grads = self._backward(values, ctxs, seed)
        return values[self.output_slot], [
            grads.get(ps.slot) for ps in self.param_slots
        ]

    # ------------------------------------------------------------------
    # batched replay
    # ------------------------------------------------------------------
    def _batched_masks(self) -> np.ndarray:
        batched = np.zeros(self.num_slots, dtype=bool)
        for slot, _, _ in self.inputs.values():
            batched[slot] = True
        for ps in self.param_slots:
            batched[ps.slot] = True
        for node in self.nodes:
            if any(batched[s] for s in node.arg_slots):
                batched[node.out_slot] = True
        return batched

    def replay_grad_batched(
        self,
        inputs: Mapping[str, np.ndarray],
        params: Sequence[np.ndarray],
        batch: int,
        seed: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[np.ndarray | None]]:
        """Replay ``batch`` independent parameter/input sets in one pass.

        Every input and parameter array carries a leading axis of length
        ``batch``; constants stay unbatched and broadcast.  Returns the
        stacked output plus stacked per-param gradients.  Raises a
        ``RuntimeError`` naming the op if any recorded op lacks a batched
        implementation.
        """
        return self._traced(
            "batched",
            lambda: self._replay_grad_batched(inputs, params, batch, seed),
            batch=batch,
        )

    def _replay_grad_batched(self, inputs, params, batch, seed):
        self._check_finalized()
        unsupported = self.batch_unsupported_ops()
        if unsupported:
            raise RuntimeError(
                f"captured graph contains op(s) without a batched "
                f"implementation: {unsupported}"
            )
        batched = self._batched_masks()
        values = self._fill_values(inputs, list(params), batch)
        ctxs = []
        timers = _profiler._timers
        perf = time.perf_counter
        for node in self.nodes:
            ctx = {"needs": node.grad_mask}
            args = [values[s] for s in node.arg_slots]
            if batched[node.out_slot]:
                ctx["B"] = batch
                ctx["arg_batched"] = tuple(
                    bool(batched[s]) for s in node.arg_slots
                )
                ctx["out_ndim"] = len(node.out_shape)
                fn = node.op.batched_forward
            else:
                fn = node.op.forward
            if timers:
                started = perf()
                values[node.out_slot] = fn(ctx, *args, **node.params)
                _profiler.record_op_seconds("fwd." + node.op.name,
                                            perf() - started)
            else:
                values[node.out_slot] = fn(ctx, *args, **node.params)
            ctxs.append(ctx)
        if seed is None:
            out_value = values[self.output_slot]
            seed = np.ones_like(out_value)
        grads = self._backward(values, ctxs, seed, batched_mask=batched)
        return values[self.output_slot], [
            grads.get(ps.slot) for ps in self.param_slots
        ]
