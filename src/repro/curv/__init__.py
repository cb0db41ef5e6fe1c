"""Curvature estimation over the captured loss graph.

Second-order loss geometry for the FedKNOW reproduction: the empirical
diagonal Fisher, computed by replaying a :class:`~repro.nn.graph.GraphTape`
capture of the masked cross-entropy loss, so estimation rides the same
zero-dispatch path as batched training.

The consumer-facing seam is :class:`SignatureSelector`: pluggable scoring
of signature-task weights for the knowledge extractor (``magnitude`` /
``fisher`` / ``hybrid:<mix>``), selected per run via ``--selector``.
"""

from .fisher import empirical_fisher_diagonal
from .selector import (
    SELECTOR_SPECS,
    FisherSelector,
    HybridSelector,
    MagnitudeSelector,
    SignatureSelector,
    create_selector,
)
from .tape import LossTape

__all__ = [
    "SELECTOR_SPECS",
    "FisherSelector",
    "HybridSelector",
    "LossTape",
    "MagnitudeSelector",
    "SignatureSelector",
    "create_selector",
    "empirical_fisher_diagonal",
]
