"""Conformance bounds for event logs with explicitly uncertain events.

Process models are labeled Petri nets; event logs may carry uncertain
activity labels, timestamp intervals, and indeterminate events. The package
computes exact lower and upper bounds on alignment cost per trace, ships a
seedable synthetic-data pipeline, and exposes a CLI (``uncertain-conform``).
"""

from .align import (
    Alignment,
    BoundsReport,
    CostFunction,
    LogBounds,
    Move,
    STANDARD_COST,
    log_bounds,
    lower_bound,
    lower_bound_bruteforce,
    optimal_alignment,
    prepare_model,
    upper_bound,
)
from .behavior import (
    BehaviorGraph,
    behavior_graph,
    behavior_net,
    topological_sortings,
)
from .errors import CapExceeded, ValidationError
from .events import (
    EnumerationCaps,
    UncertainEvent,
    UncertainLog,
    UncertainTrace,
    certain_event,
    count_realizations,
    order_realizations,
    precedes,
    realizations,
)
from .log_io import (
    format_timestamp,
    load_log,
    load_net,
    parse_timestamp,
    save_log,
    save_net,
)
from .petri import (
    Marking,
    PetriNet,
    SystemNet,
    enabled,
    event_net,
    fire,
    language,
)
from .synthesis import (
    DeviationConfig,
    TimedEvent,
    TimedTrace,
    UncertaintyConfig,
    deviate,
    playout,
    random_block_net,
    uncertainize,
)

__all__ = [
    "Alignment",
    "BehaviorGraph",
    "BoundsReport",
    "CapExceeded",
    "CostFunction",
    "DeviationConfig",
    "EnumerationCaps",
    "LogBounds",
    "Marking",
    "Move",
    "PetriNet",
    "STANDARD_COST",
    "SystemNet",
    "TimedEvent",
    "TimedTrace",
    "UncertainEvent",
    "UncertainLog",
    "UncertainTrace",
    "UncertaintyConfig",
    "ValidationError",
    "behavior_graph",
    "behavior_net",
    "certain_event",
    "count_realizations",
    "deviate",
    "enabled",
    "event_net",
    "fire",
    "format_timestamp",
    "language",
    "load_log",
    "load_net",
    "log_bounds",
    "lower_bound",
    "lower_bound_bruteforce",
    "optimal_alignment",
    "order_realizations",
    "parse_timestamp",
    "playout",
    "precedes",
    "prepare_model",
    "random_block_net",
    "realizations",
    "save_log",
    "save_net",
    "topological_sortings",
    "uncertainize",
    "upper_bound",
]
