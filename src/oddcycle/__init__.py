"""Biased odd-cycle games on complete graphs.

Engines for Maker-Breaker and monotone Client-Waiter play under free or
connected move rules, reference strategies for both sides, exact small-board
solvers, and the edge-count optimizer behind the bias threshold constants.
"""

from .board import (
    BLOCKER,
    BUILDER,
    UNCLAIMED,
    GameConfig,
    GameState,
    ParityForest,
    Reason,
    Role,
    Rules,
    Status,
    Variant,
    edge_count,
    edge_endpoints,
    edge_index,
)
from .engine import (
    MetricsRecorder,
    Transcript,
    replay,
    run_game,
)
from .errors import (
    CapacityError,
    CorruptionError,
    InvariantViolation,
    OddcycleError,
    RuleViolation,
    StateError,
)
from .optimizer import (
    breaker_constant_audit,
    continuous_case_value,
    gnb_membership,
    minimize_f,
    overall_constant,
)
from .solver import (
    exact_threshold,
    solve_game,
    verify_strategy,
)
from .strategies import make_strategy

__version__ = "0.1.0"
