"""Federated learning framework: clients, servers, trainer, method registry."""

from .apfl import APFLClient
from .base import FederatedClient, SGDClient
from .config import TrainConfig
from .engine import (
    ENGINES,
    BatchedRoundEngine,
    RoundEngine,
    SerialRoundEngine,
    StateHandle,
    ThreadedRoundEngine,
    create_engine,
)
from .fedrep import FedRepClient
from .fedvb import PRECISION_PREFIX, FedVBClient, FedVBServer
from .fedweit import FedWeitClient, FedWeitServer, sparse_adaptive_bytes
from .flcn import FLCNClient
from .participation import (
    POLICIES,
    DeadlineParticipation,
    FullParticipation,
    ParticipationPolicy,
    SampledParticipation,
    create_policy,
)
from .protocol import ClientUpdate, ClientUpload, RoundOutcome, RoundPlan
from .registry import (
    ALL_METHODS,
    BATCH_SAFE_METHODS,
    CONTINUAL_STRATEGIES,
    CURVATURE_METHODS,
    DEFAULT_SELECTORS,
    FCL_METHODS,
    FEDERATED_METHODS,
    PROCESS_UNSAFE_METHODS,
    create_trainer,
    resolve_selector,
)
from .server import MERGE_SEGMENTS, FedAvgServer, FLCNServer, StreamingAccumulator
from .sharding import ShardedAggregator, shard_slices
from .simulation import (
    AsyncRoundLoop,
    Event,
    EventDrivenTrainer,
    EventKind,
    EventQueue,
    PopulationSimulator,
    SimReport,
    SimRound,
)
from .trainer import FederatedTrainer, RoundContext
from .transport import (
    UPLOAD_MODES,
    WIRE_NAMES,
    Channel,
    Transport,
    WirePayload,
    create_transport,
)

__all__ = [
    "ALL_METHODS",
    "APFLClient",
    "AsyncRoundLoop",
    "BATCH_SAFE_METHODS",
    "BatchedRoundEngine",
    "CONTINUAL_STRATEGIES",
    "CURVATURE_METHODS",
    "Channel",
    "DEFAULT_SELECTORS",
    "ClientUpdate",
    "ClientUpload",
    "DeadlineParticipation",
    "ENGINES",
    "Event",
    "EventDrivenTrainer",
    "EventKind",
    "EventQueue",
    "FullParticipation",
    "MERGE_SEGMENTS",
    "POLICIES",
    "PRECISION_PREFIX",
    "PROCESS_UNSAFE_METHODS",
    "ParticipationPolicy",
    "PopulationSimulator",
    "RoundContext",
    "RoundEngine",
    "RoundOutcome",
    "RoundPlan",
    "ShardedAggregator",
    "SimReport",
    "SimRound",
    "StateHandle",
    "StreamingAccumulator",
    "Transport",
    "UPLOAD_MODES",
    "WIRE_NAMES",
    "WirePayload",
    "SampledParticipation",
    "SerialRoundEngine",
    "ThreadedRoundEngine",
    "create_engine",
    "create_policy",
    "create_transport",
    "FCL_METHODS",
    "FEDERATED_METHODS",
    "FedAvgServer",
    "FederatedClient",
    "FederatedTrainer",
    "FedRepClient",
    "FedVBClient",
    "FedVBServer",
    "FedWeitClient",
    "FedWeitServer",
    "FLCNClient",
    "FLCNServer",
    "SGDClient",
    "TrainConfig",
    "create_trainer",
    "resolve_selector",
    "shard_slices",
    "sparse_adaptive_bytes",
]
