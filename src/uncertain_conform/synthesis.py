"""Synthetic data pipeline: random block nets, play-out, deviations, uncertainty.

Everything here is a deterministic function of its inputs and the seed.
Per-event random draws are derived from stable string seeds, so raising an
injection probability only ever grows the set of affected events (used for
the monotonicity guarantees on realization counts).
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import CapExceeded, ValidationError
from .events import UncertainEvent, UncertainLog, UncertainTrace
from .petri import Marking, PetriNet, SystemNet, enabled_transitions, fire

NS_PER_MINUTE = 60 * 10**9

#: Play-out timestamps start here (2020-01-01T00:00:00Z), one minute apart.
PLAYOUT_ORIGIN_NS = 1_577_836_800 * 10**9

#: Timestamp delta for duplicating a trace-final event.
DUPLICATE_TAIL_DELTA_NS = NS_PER_MINUTE


@dataclass(frozen=True)
class DeviationConfig:
    """Per-event probabilities for the three deviation kinds."""

    activity: float = 0.0  # relabel with a different activity
    swap: float = 0.0      # exchange timestamps with a neighbor
    duplicate: float = 0.0 # insert a copy of the event

    def __post_init__(self):
        for name, value in (("activity", self.activity), ("swap", self.swap), ("duplicate", self.duplicate)):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"deviation fraction {name} must be in [0, 1]")


@dataclass(frozen=True)
class UncertaintyConfig:
    """Per-event probabilities for the three uncertainty kinds."""

    activity: float = 0.0       # add one extra candidate label
    timestamp: float = 0.0      # stretch the timestamp to a neighbor's
    indeterminacy: float = 0.0  # mark the event as possibly absent

    def __post_init__(self):
        for name, value in (
            ("activity", self.activity),
            ("timestamp", self.timestamp),
            ("indeterminacy", self.indeterminacy),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"uncertainty fraction {name} must be in [0, 1]")


@dataclass(frozen=True)
class TimedEvent:
    activity: str
    timestamp: int


@dataclass(frozen=True)
class TimedTrace:
    """A certain trace with strictly ordered timestamps (pre-uncertainty form)."""

    case_id: str
    events: tuple[TimedEvent, ...]

    def activities(self) -> tuple[str, ...]:
        return tuple(e.activity for e in self.events)


def _rng(*parts) -> random.Random:
    return random.Random("|".join(str(p) for p in parts))


def _uniform(*parts) -> float:
    return _rng(*parts).random()


# ---------------------------------------------------------------------------
# Model generation


def random_block_net(n_transitions: int, seed) -> SystemNet:
    """Sound, acyclic block-structured net with ``n_transitions`` visible transitions.

    Built by recursively splitting the budget across sequence, exclusive-choice
    and parallel blocks; parallel blocks add invisible split/join transitions.
    Labels are a00, a01, ... in construction order.
    """
    if n_transitions < 1:
        raise ValidationError("a block net needs at least one visible transition")
    rng = _rng(seed, "net")
    places: list[str] = []
    transitions: list[str] = []
    arcs: list[tuple[str, str]] = []
    labels: dict[str, str] = {}
    counters = {"p": 0, "t": 0, "tau": 0}

    def new_place() -> str:
        counters["p"] += 1
        place = f"p{counters['p']}"
        places.append(place)
        return place

    def new_transition(label: str | None) -> str:
        if label is None:
            counters["tau"] += 1
            tid = f"tau{counters['tau']}"
        else:
            counters["t"] += 1
            tid = f"t{counters['t']}"
            labels[tid] = label
        transitions.append(tid)
        return tid

    def build(budget: int, entry: str, exit_: str) -> None:
        if budget == 1:
            tid = new_transition(f"a{len(labels):02d}")
            arcs.append((entry, tid))
            arcs.append((tid, exit_))
            return
        split = rng.randint(1, budget - 1)
        operator = rng.choice(("sequence", "xor", "and"))
        if operator == "sequence":
            middle = new_place()
            build(split, entry, middle)
            build(budget - split, middle, exit_)
        elif operator == "xor":
            build(split, entry, exit_)
            build(budget - split, entry, exit_)
        else:
            fork = new_transition(None)
            join = new_transition(None)
            arcs.append((entry, fork))
            arcs.append((join, exit_))
            for branch_budget in (split, budget - split):
                branch_entry = new_place()
                branch_exit = new_place()
                arcs.append((fork, branch_entry))
                arcs.append((branch_exit, join))
                build(branch_budget, branch_entry, branch_exit)

    source = new_place()
    sink = new_place()
    build(n_transitions, source, sink)
    net = PetriNet(places, transitions, arcs, labels)
    return SystemNet(net, Marking([source]), Marking([sink]))


def playout(sn: SystemNet, n_traces: int, seed, max_firings: int = 10_000) -> list[TimedTrace]:
    """Sample traces by uniformly random enabled-transition choice.

    Events get strictly increasing synthetic timestamps, one minute apart from
    a fixed origin. Raises if a trace fails to terminate within the cap.
    """
    traces: list[TimedTrace] = []
    for i in range(n_traces):
        rng = _rng(seed, "playout", i)
        marking = sn.initial_marking
        word: list[str] = []
        fired = 0
        while marking != sn.final_marking:
            options = enabled_transitions(sn.net, marking)
            if not options:
                raise ValidationError("play-out reached a deadlock before the final marking")
            t = rng.choice(options)
            label = sn.net.label(t)
            if label is not None:
                word.append(label)
            marking = fire(sn.net, marking, t)
            fired += 1
            if fired > max_firings:
                raise CapExceeded(f"play-out exceeded the firing cap ({max_firings})")
        events = tuple(
            TimedEvent(activity, PLAYOUT_ORIGIN_NS + j * NS_PER_MINUTE)
            for j, activity in enumerate(word)
        )
        traces.append(TimedTrace(case_id=f"case{i}", events=events))
    return traces


# ---------------------------------------------------------------------------
# Deviation injection


def deviate(
    log: list[TimedTrace],
    cfg: DeviationConfig,
    activity_universe: list[str] | tuple[str, ...],
    seed,
) -> list[TimedTrace]:
    """Inject label alterations, neighbor swaps and duplicated events.

    Each step samples events independently with its configured probability;
    duplication is the only step that changes the event count.
    """
    universe = sorted(set(activity_universe))
    if cfg.activity > 0 and len(universe) < 2:
        raise ValidationError("label alteration needs an activity universe of at least 2 labels")

    out: list[TimedTrace] = []
    for ti, trace in enumerate(log):
        events = [(e.activity, e.timestamp) for e in trace.events]

        rng = _rng(seed, "dev-activity", ti)
        for idx in range(len(events)):
            if rng.random() < cfg.activity:
                activity, ts = events[idx]
                replacement = rng.choice([a for a in universe if a != activity])
                events[idx] = (replacement, ts)

        rng = _rng(seed, "dev-swap", ti)
        swapped: set[int] = set()
        for idx in range(len(events)):
            if len(events) < 2:
                break
            selected = rng.random() < cfg.swap
            if not selected or idx in swapped:
                continue
            if idx == 0:
                other = 1
            elif idx == len(events) - 1:
                other = idx - 1
            else:
                other = idx - 1 if rng.random() < 0.5 else idx + 1
            if other in swapped:
                continue
            # Exchanging the timestamps of adjacent events inverts the pair;
            # with the list kept timestamp-sorted that is an activity swap.
            (a1, t1), (a2, t2) = events[idx], events[other]
            events[idx], events[other] = (a2, t1), (a1, t2)
            swapped.update((idx, other))

        rng = _rng(seed, "dev-duplicate", ti)
        duplicated: list[tuple[str, int]] = []
        for idx, (activity, ts) in enumerate(events):
            duplicated.append((activity, ts))
            if rng.random() < cfg.duplicate:
                if idx + 1 < len(events):
                    copy_ts = (ts + events[idx + 1][1]) // 2
                else:
                    copy_ts = ts + DUPLICATE_TAIL_DELTA_NS
                duplicated.append((activity, copy_ts))
        duplicated.sort(key=lambda pair: pair[1])

        out.append(
            TimedTrace(trace.case_id, tuple(TimedEvent(a, t) for a, t in duplicated))
        )
    return out


# ---------------------------------------------------------------------------
# Uncertainty injection


def uncertainize(
    log: list[TimedTrace],
    cfg: UncertaintyConfig,
    activity_universe: list[str] | tuple[str, ...],
    seed,
) -> UncertainLog:
    """Turn a certain log into an uncertain one by sampling per-event effects.

    Selection draws depend only on (seed, trace, event, effect), never on the
    probabilities themselves: raising any probability keeps all previously
    selected events selected, which makes realization sets grow monotonically.
    """
    universe = sorted(set(activity_universe))
    if cfg.activity > 0 and len(universe) < 2:
        raise ValidationError("activity uncertainty needs an activity universe of at least 2 labels")

    traces: list[UncertainTrace] = []
    for ti, trace in enumerate(log):
        events: list[UncertainEvent] = []
        n = len(trace.events)
        for ei, timed in enumerate(trace.events):
            activities = {timed.activity}
            t_min = t_max = timed.timestamp

            if _uniform(seed, "unc-activity", ti, ei) < cfg.activity:
                pool = [a for a in universe if a != timed.activity]
                extra = pool[_rng(seed, "unc-activity-pick", ti, ei).randrange(len(pool))]
                activities.add(extra)

            if n > 1 and _uniform(seed, "unc-time", ti, ei) < cfg.timestamp:
                if ei == 0:
                    neighbor = 1
                elif ei == n - 1:
                    neighbor = ei - 1
                else:
                    neighbor = ei - 1 if _uniform(seed, "unc-time-dir", ti, ei) < 0.5 else ei + 1
                other_ts = trace.events[neighbor].timestamp
                t_min = min(t_min, other_ts)
                t_max = max(t_max, other_ts)

            indeterminate = _uniform(seed, "unc-indet", ti, ei) < cfg.indeterminacy

            events.append(
                UncertainEvent(
                    id=f"{trace.case_id}-e{ei + 1}",
                    activities=frozenset(activities),
                    t_min=t_min,
                    t_max=t_max,
                    indeterminate=indeterminate,
                )
            )
        traces.append(UncertainTrace(trace.case_id, tuple(events)))
    return UncertainLog(tuple(traces))


# ---------------------------------------------------------------------------
# The whole pipeline


def generate(
    n_transitions: int, n_traces: int, deviation: DeviationConfig, uncertainty: UncertaintyConfig, seed
) -> tuple[SystemNet, UncertainLog]:
    """A random block net and an uncertain log of it: play-out, deviations, then uncertainty, all on ``seed``."""
    model = random_block_net(n_transitions, seed)
    universe = sorted(model.net.labels.values())
    log = deviate(playout(model, n_traces, seed), deviation, universe, seed)
    return model, uncertainize(log, uncertainty, universe, seed)
