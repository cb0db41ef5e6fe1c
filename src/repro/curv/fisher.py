"""Diagonal Fisher information estimator over the masked cross-entropy loss.

The **empirical** Fisher ``F_j = (1/N) sum_n (dL_n/dw_j)**2`` uses the
dataset's true labels.  It is cheap, and the right quantity for importance
scoring (optimal-brain-damage saliencies use exactly these squared
gradients).

It replays a batch-1 :class:`~repro.curv.tape.LossTape` with the samples
stacked along the batched client axis, so estimation costs roughly one
batched training step per chunk.
"""

from __future__ import annotations

import numpy as np

from .tape import LossTape


def empirical_fisher_diagonal(
    model,
    x: np.ndarray,
    y: np.ndarray,
    class_mask: np.ndarray,
    chunk: int = 32,
    tape: LossTape | None = None,
) -> np.ndarray:
    """Mean squared per-sample gradient at the true labels, flat float64.

    The result is in canonical ``named_parameters`` order and is invariant
    (up to float64 summation order) to any permutation of the samples.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if len(y) == 0:
        raise ValueError("cannot estimate Fisher information from 0 samples")
    if tape is None:
        tape = LossTape(model, x[:1], y[:1], class_mask)
    total = tape.squared_grad_sum(model, x, y, class_mask, chunk=chunk)
    return total / len(y)
