"""Conformance bounds for event logs with explicitly uncertain events.

Process models are labeled Petri nets; event logs may carry uncertain
activity labels, timestamp intervals, and indeterminate events. The package
computes exact lower and upper bounds on alignment cost per trace, ships a
seedable synthetic-data pipeline, and exposes a CLI (``uncertain-conform``).

The names from ``behavior`` and ``synthesis`` resolve on first access
(PEP 562), so importing the package, or ``uncertain_conform.cli`` for the
``bounds`` command, loads neither module.
"""
import importlib

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

#: Names resolved on first access, each to the module that defines it.
_LAZY = {
    **dict.fromkeys(("BehaviorGraph", "behavior_graph", "behavior_net", "topological_sortings"), "behavior"),
    **dict.fromkeys(
        ("DeviationConfig", "TimedEvent", "TimedTrace", "UncertaintyConfig", "deviate", "playout", "random_block_net",
         "uncertainize"),
        "synthesis",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


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
