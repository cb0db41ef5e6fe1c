"""Loss-graph capture and per-sample gradient replay for curvature estimation.

The diagonal Fisher needs one gradient of the *same* loss graph per sample
at fixed weights.  Re-paying dynamic autograd dispatch for each would
dominate the estimate, so this module captures the masked cross-entropy loss
once on a :class:`~repro.nn.graph.GraphTape` and replays it:
:meth:`LossTape.squared_grad_sum` stacks samples along the tape's batched
client axis (``replay_grad_batched`` with the live weights broadcast across
the batch — zero copies, the replay only reads), so per-sample gradients
ride the same zero-dispatch path as batched training.  Graphs containing
ops without a batched form (e.g. batch norm) fall back to serial replay.

The capture runs on a throwaway pickle-copy of the model in eval mode, so
estimation never mutates the live model or its running buffers.  Replays read
the *live* model's weights via :meth:`slot_arrays`, so one captured tape
serves a whole task even as training moves the weights.
"""

from __future__ import annotations

import pickle

import numpy as np

from ..nn import functional as F
from ..nn.graph import GraphTape
from ..nn.tensor import Tensor


class LossTape:
    """A captured masked cross-entropy loss over an example batch.

    ``x_example`` / ``y_example`` fix the capture's batch size: capture at
    batch 1 for per-sample replay (:meth:`squared_grad_sum` re-batches along
    the client axis).
    """

    def __init__(
        self,
        model,
        x_example: np.ndarray,
        y_example: np.ndarray,
        class_mask: np.ndarray,
    ):
        x_example = np.asarray(x_example)
        y_example = np.asarray(y_example)
        mask = np.asarray(class_mask, dtype=bool)
        self.model = pickle.loads(pickle.dumps(model))
        self.model.eval()
        self.input_dtype = x_example.dtype
        self.label_dtype = y_example.dtype
        self.batch = int(len(y_example))
        x_t = Tensor(np.array(x_example, copy=True))
        y_t = Tensor(np.array(y_example, copy=True), dtype=y_example.dtype)
        mask_t = Tensor(np.array(mask, copy=True), dtype=mask.dtype)
        self.tape = GraphTape()
        with self.tape.capture():
            self.tape.add_input("x", x_t)
            self.tape.add_input("y", y_t)
            self.tape.add_input("mask", mask_t)
            loss = F.cross_entropy(self.model(x_t), y_t, class_mask=mask_t)
            self.tape.set_output(loss)
        # slot k of the tape maps to parameter index order[k] of the model;
        # a parameter the loss never touches simply has no slot (zero grads)
        self.order = self.tape.bind_parameters(self.model.parameters())
        sizes = [int(p.data.size) for p in self.model.parameters()]
        self.param_offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        self.dim = int(self.param_offsets[-1])
        #: canonical flat offset of each tape param slot
        self.slot_offsets = [
            int(self.param_offsets[self.order[k]])
            for k in range(self.tape.num_params)
        ]
        self.param_names = [name for name, _ in model.named_parameters()]

    @classmethod
    def for_task(cls, model, task, batch: int = 1) -> "LossTape":
        """Capture for ``task``'s sample shape at the given batch size."""
        shape = (batch,) + tuple(task.train_x.shape[1:])
        x_ex = np.zeros(shape, dtype=task.train_x.dtype)
        y_ex = np.zeros((batch,), dtype=task.train_y.dtype)
        return cls(model, x_ex, y_ex, task.class_mask())

    def slot_arrays(self, model) -> list[np.ndarray]:
        """The live model's parameter arrays in tape slot order."""
        params = [p.data for _, p in model.named_parameters()]
        if len(params) != len(self.param_offsets) - 1:
            raise ValueError(
                f"model has {len(params)} parameters, tape was captured "
                f"with {len(self.param_offsets) - 1}"
            )
        return [params[self.order[k]] for k in range(self.tape.num_params)]

    # ------------------------------------------------------------------
    # per-sample gradient accumulation
    # ------------------------------------------------------------------
    def squared_grad_sum(
        self,
        model,
        x: np.ndarray,
        y: np.ndarray,
        class_mask: np.ndarray,
        weights: np.ndarray | None = None,
        chunk: int = 32,
    ) -> np.ndarray:
        """``sum_n w_n * g_n**2`` over per-sample loss gradients ``g_n``.

        Returns a flat float64 vector in canonical ``named_parameters``
        order.  ``weights`` defaults to all-ones.  Requires a batch-1
        capture; samples are chunked along the batched-replay client axis
        (the per-slice arithmetic is bit-identical to serial replay for the
        ``batch_exact`` op set, so the result does not depend on ``chunk``).
        """
        if self.batch != 1:
            raise ValueError(
                f"per-sample replay needs a batch-1 capture, got batch "
                f"{self.batch}"
            )
        x = np.asarray(x)
        y = np.asarray(y, dtype=self.label_dtype)
        mask = np.asarray(class_mask, dtype=bool)
        n = len(y)
        arrays = self.slot_arrays(model)
        out = np.zeros(self.dim, dtype=np.float64)
        use_batched = not self.tape.batch_unsupported_ops()
        for start in range(0, n, max(1, int(chunk))):
            xb = x[start:start + chunk]
            yb = y[start:start + chunk]
            b = len(yb)
            wb = None
            if weights is not None:
                wb = np.asarray(weights[start:start + chunk], dtype=np.float64)
            if use_batched and b > 1:
                inputs = {
                    "x": xb[:, None],
                    "y": yb.reshape(b, 1),
                    "mask": np.broadcast_to(mask, (b,) + mask.shape),
                }
                stacked = [
                    np.broadcast_to(a, (b,) + a.shape) for a in arrays
                ]
                _, grads = self.tape.replay_grad_batched(inputs, stacked, b)
                for k, g in enumerate(grads):
                    if g is None:
                        continue
                    flat = g.reshape(b, -1).astype(np.float64)
                    sq = flat * flat
                    contrib = sq.sum(axis=0) if wb is None else wb @ sq
                    lo = self.slot_offsets[k]
                    out[lo:lo + flat.shape[1]] += contrib
            else:
                for i in range(b):
                    inputs = {
                        "x": xb[i:i + 1], "y": yb[i:i + 1], "mask": mask,
                    }
                    _, grads = self.tape.replay_grad(inputs, arrays)
                    w_i = 1.0 if wb is None else float(wb[i])
                    for k, g in enumerate(grads):
                        if g is None:
                            continue
                        flat = g.ravel().astype(np.float64)
                        lo = self.slot_offsets[k]
                        out[lo:lo + flat.size] += w_i * flat * flat
        return out
