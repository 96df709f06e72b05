"""Uncertain events, traces and logs, and realization enumeration.

An uncertain event carries a set of candidate activity labels, a closed
timestamp interval, and an indeterminacy flag ("?" events may not have
happened at all). Timestamps are integers (nanoseconds since the epoch);
only their total order matters here.

:func:`precedes` defines the timestamp order; :func:`_by_id` computes it
for a whole trace as per-event predecessor bitmasks, which the behavior
graph (:func:`behavior.behavior_graph`) and every lattice read. A trace's state space is the lattice of
order ideals of that order (:func:`trace_lattice`): the reachability graph
of its behavior net, built without the net and capped by :data:`STATE_CAP`
and :data:`EDGE_CAP`, from :func:`lattice_key`, which traces of equal shape
share.
The lower bound searches it. :func:`word_dag` determinizes it (a subset
construction, also capped by :data:`STATE_CAP`): its paths spell the
distinct words of the linear extensions, its path counts count them without
listing, and :func:`linear_words` lists them, each once and in
lexicographic order. Realizations (each event emits one of its labels, or
nothing when indeterminate), orderings (each event emits its id) and
behavior-graph sortings all come from that construction; the upper bound
walks it with one alignment row per prefix.
"""
from __future__ import annotations

import numbers
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from operator import attrgetter

from .errors import CapExceeded, ValidationError
from .petri import RESERVED_LABELS

#: Environment variable overriding the realization cap: "N,REALIZATIONS".
#: The older form "N" is still accepted; N must be at least 1 and caps nothing.
CAP_ENV_VAR = "UNCERTAIN_CONFORM_CAP"

#: States explored per model, and order ideals per lattice, before giving up
#: (guards unbounded nets and wide traces). Read at call time.
STATE_CAP = 200_000

#: Edges per lattice of order ideals before giving up (guards wide traces
#: under the state cap). An edge takes about 80 B as a tuple in a list, so
#: the cap holds a lattice to about 80 MB. Read at call time.
EDGE_CAP = 1_000_000

#: A lattice of order ideals by its out-edges: per node, (element, symbol, target).
Lattice = list[list[tuple[int, str | None, int]]]

#: What fixes a trace's lattice: each event's predecessor bitmask and the
#: (event index, label or None) steps in edge order, events indexed by id.
LatticeKey = tuple[tuple[int, ...], tuple[tuple[int, str | None], ...]]


@dataclass(frozen=True)
class EnumerationCaps:
    """Limits for realization enumeration; exceeding one raises CapExceeded."""

    max_realizations: int = 1_000_000

    def __post_init__(self):
        value = self.max_realizations
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValidationError(f"max_realizations must be an integer, not {value!r}")
        if value < 1:
            raise ValidationError(f"max_realizations must be at least 1, got {value}")

    @classmethod
    def from_env(cls) -> "EnumerationCaps":
        """Default caps, overridden by UNCERTAIN_CONFORM_CAP ("N" or "N,M")."""
        raw = os.environ.get(CAP_ENV_VAR)
        if not raw:
            return cls()
        try:
            values = [int(p) for p in raw.split(",")]
        except ValueError:
            values = []
        if len(values) not in (1, 2):
            raise ValidationError(f"{CAP_ENV_VAR} must be an integer or 'N,realizations': {raw!r}")
        try:
            if values[0] < 1:
                raise ValidationError(f"N must be at least 1, got {values[0]}")
            return cls(*values[1:])
        except ValidationError as exc:
            raise ValidationError(f"{CAP_ENV_VAR}={raw!r}: {exc}") from exc


@dataclass(frozen=True)
class UncertainEvent:
    """One recorded event with uncertain activity, timestamp interval, indeterminacy."""

    id: str
    activities: frozenset[str]
    t_min: int
    t_max: int
    indeterminate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "activities", frozenset(self.activities))
        if not self.activities:
            raise ValidationError(f"event {self.id!r} has an empty activity set")
        if self.t_min > self.t_max:
            raise ValidationError(f"event {self.id!r} has t_min > t_max")
        reserved = sorted(self.activities & RESERVED_LABELS)
        if reserved:
            raise ValidationError(f"event {self.id!r} uses reserved activity label {reserved[0]!r}")

    @property
    def is_certain(self) -> bool:
        """Single activity, point timestamp, determinate."""
        return len(self.activities) == 1 and self.t_min == self.t_max and not self.indeterminate

    def sorted_activities(self) -> tuple[str, ...]:
        return tuple(sorted(self.activities))


def certain_event(event_id: str, activity: str, timestamp: int) -> UncertainEvent:
    """Event with no uncertainty: one label, point timestamp, determinate."""
    return UncertainEvent(event_id, frozenset([activity]), timestamp, timestamp, False)


@dataclass(frozen=True)
class UncertainTrace:
    """A nonempty set of uncertain events sharing a case. Storage order is
    presentational only; ordering semantics come from the timestamps."""

    case_id: str
    events: tuple[UncertainEvent, ...]

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        if not self.events:
            raise ValidationError(f"trace {self.case_id!r} has no events")
        ids = [e.id for e in self.events]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"trace {self.case_id!r} has duplicate event ids: {dupes}")

    def __len__(self) -> int:
        return len(self.events)

    def event(self, event_id: str) -> UncertainEvent:
        for e in self.events:
            if e.id == event_id:
                return e
        raise KeyError(event_id)


@dataclass(frozen=True)
class UncertainLog:
    """A collection of uncertain traces with globally unique event ids."""

    traces: tuple[UncertainTrace, ...]

    def __post_init__(self):
        object.__setattr__(self, "traces", tuple(self.traces))
        seen: dict[str, str] = {}
        for trace in self.traces:
            for e in trace.events:
                if e.id in seen:
                    raise ValidationError(
                        f"event id {e.id!r} appears in both trace {seen[e.id]!r} and trace {trace.case_id!r}"
                    )
                seen[e.id] = trace.case_id

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[UncertainTrace]:
        return iter(self.traces)


def precedes(e: UncertainEvent, e2: UncertainEvent) -> bool:
    """Strict partial order on events: e certainly happened before e2.

    Holds iff e's latest possible instant is before e2's earliest one; events
    with overlapping intervals are uncomparable.
    """
    return e.t_max < e2.t_min


def order_ideals(preds: Sequence[int], steps: Sequence[tuple[int, str | None]], owner: str) -> Lattice:
    """Out-edges of the lattice of order ideals of a strict partial order.

    Element i may be placed once every element of the bitmask ``preds[i]`` is;
    each (element, symbol) of ``steps`` places it, and each element needs one.
    Nodes are the placed-element bitmasks, numbered breadth-first from the
    empty ideal; node v's out-edges are (element, symbol, target) in the order
    of ``steps``. Every edge places one element, so the numbering is
    topological and the full ideal comes last. More than :data:`STATE_CAP`
    nodes or :data:`EDGE_CAP` edges raise CapExceeded naming ``owner``.
    """
    moves = [(1 << i, preds[i], i, symbol) for i, symbol in steps]
    index = {0: 0}
    masks = [0]
    out: Lattice = []
    size = 0
    for placed in masks:  # a BFS queue: the loop reaches the masks appended in it
        edges = []
        for bit, p, i, symbol in moves:
            if placed & bit or p & placed != p:
                continue
            if (nxt := placed | bit) not in index:
                if len(masks) >= STATE_CAP:
                    raise CapExceeded(f"{owner} has more order ideals than the state cap ({STATE_CAP})")
                index[nxt] = len(masks)
                masks.append(nxt)
            edges.append((i, symbol, index[nxt]))
        out.append(edges)
        size += len(edges)
        if size > EDGE_CAP:
            raise CapExceeded(
                f"{owner} has more lattice edges than the edge cap ({EDGE_CAP}):"
                f" {size} edges from {len(out)} of the {len(masks)} order ideals found"
            )
    return out


@dataclass(frozen=True)
class WordDag:
    """The subset construction of an ideal lattice: one walk node per set of
    lattice nodes that the paths spelling some prefix reach, closed under
    None steps. Walk node 0 holds the empty prefix.

    ``children[w]`` lists (symbol, child) in sorted symbol order, so a walk
    that takes the children in that order, each word before its extensions,
    spells each distinct word once, in lexicographic order. ``accepting[w]``
    tells whether w holds the full ideal. ``paths[w]`` is the number of
    accepting paths from w: the number of distinct completions of a prefix
    that reaches w. ``count`` is ``paths[0]``, the number of distinct words.
    """

    children: list[list[tuple[str, int]]]
    accepting: list[bool]
    paths: list[int]
    count: int


def word_dag(lattice: Lattice, cap: int, cap_message: str, owner: str) -> WordDag:
    """The :class:`WordDag` of a lattice given by :func:`order_ideals`.

    Every path of ``lattice`` from the empty ideal to the full one places
    each element once and spells the symbols of its edges; a None symbol
    spells nothing. More walk nodes than :data:`STATE_CAP` raise
    CapExceeded naming ``owner``; more than ``cap`` words raise it with
    ``cap_message``, from the path count, before any word is listed.
    """
    full = len(lattice) - 1
    # Each lattice node's skip targets (None out-edges), collected once; a
    # lattice without an indeterminate event has none, and close walks nothing.
    has_skip = any(symbol is None for edges in lattice for _, symbol, _ in edges)
    skips = [[nxt for _, symbol, nxt in edges if symbol is None] for edges in lattice] if has_skip else []

    def close(node: set[int]) -> frozenset[int]:
        todo = list(node) if has_skip else []
        while todo:
            for nxt in skips[todo.pop()]:
                if nxt not in node:
                    node.add(nxt)
                    todo.append(nxt)
        return frozenset(node)

    nodes = [close({0})]
    index = {nodes[0]: 0}
    children: list[list[tuple[str, int]]] = []
    for node in nodes:  # a BFS queue: the loop reaches the nodes appended in it
        steps: dict[str, set[int]] = {}
        for v in node:
            for _, symbol, nxt in lattice[v]:
                if symbol is not None:
                    steps.setdefault(symbol, set()).add(nxt)
        out = []
        for symbol in sorted(steps):
            child = close(steps[symbol])
            if child not in index:
                if len(nodes) >= STATE_CAP:
                    raise CapExceeded(f"{owner} has more walk nodes than the state cap ({STATE_CAP})")
                index[child] = len(nodes)
                nodes.append(child)
            out.append((symbol, index[child]))
        children.append(out)
    accepting = [full in node for node in nodes]
    # Accepting paths per walk node. Lattice nodes are numbered breadth-first,
    # so every step leads to a higher number, and so does a walk node's least
    # one: this order is topological.
    paths = [0] * len(nodes)
    for w in sorted(range(len(nodes)), key=lambda w: min(nodes[w]), reverse=True):
        paths[w] = accepting[w] + sum(paths[c] for _, c in children[w])
    if paths[0] > cap:
        raise CapExceeded(cap_message)
    return WordDag(children, accepting, paths, paths[0])


def linear_words(dag: WordDag) -> Iterator[tuple[str, ...]]:
    """The words of a :class:`WordDag`, each once, in lexicographic order."""
    stack = [((), 0)]
    while stack:
        word, w = stack.pop()
        if dag.accepting[w]:
            yield word
        stack.extend((word + (symbol,), child) for symbol, child in reversed(dag.children[w]))


def _by_id(trace: UncertainTrace) -> tuple[list[UncertainEvent], list[int]]:
    """The trace's events sorted by id and each one's predecessors as a bitmask."""
    events = sorted(trace.events, key=attrgetter("id"))
    ends = [e.t_max for e in events]
    preds = []
    for e in events:
        # :func:`precedes` in one pass: event j precedes e when it ends before e starts.
        start, mask, bit = e.t_min, 0, 1
        for end in ends:
            if end < start:
                mask |= bit
            bit <<= 1
        preds.append(mask)
    return events, preds


def lattice_key(trace: UncertainTrace) -> LatticeKey:
    """The input of the trace's :func:`trace_lattice`: (preds, steps).

    Steps are listed in the behavior net's transition-id order (``e:a``,
    ``e:tau``); an indeterminate event also steps with None (its skip). Two
    traces with equal keys have the same lattice, node for node and edge for
    edge, whatever their case and event ids.
    """
    events, preds = _by_id(trace)
    # (transition id, event index, label): two events may spell the same
    # transition id, and their indices keep them apart and in id order.
    steps = []
    for i, e in enumerate(events):
        head = e.id + ":"
        for a in e.activities:
            steps.append((head + a, i, a))
        if e.indeterminate:
            steps.append((head + "tau", i, None))
    steps.sort()
    return tuple(preds), tuple([(i, a) for _, i, a in steps])


def trace_lattice(trace: UncertainTrace, key: LatticeKey | None = None) -> Lattice:
    """Out-edges (event index, label or None, target) of the trace's lattice
    of order ideals, under :data:`STATE_CAP`; ``key`` is the trace's
    :func:`lattice_key`, computed here when not given.

    Events are indexed in id order. An edge places its event with one label,
    or skips an indeterminate event (None). Edges are listed in the behavior
    net's transition-id order, so nodes are numbered exactly as the net's
    reachable markings and the search's tie-breaks stay those of the paper's
    construction; two events that spell the same transition id stay apart by
    their index.
    """
    preds, steps = lattice_key(trace) if key is None else key
    return order_ideals(preds, steps, f"trace {trace.case_id!r}")


def order_realizations(
    trace: UncertainTrace, caps: EnumerationCaps | None = None
) -> list[tuple[str, ...]]:
    """All event-id permutations that are linear extensions of the timestamp
    order, in lexicographic order. The realization cap counts orderings."""
    caps = caps or EnumerationCaps.from_env()
    owner = f"trace {trace.case_id!r}"
    events, preds = _by_id(trace)
    lattice = order_ideals(preds, [(i, e.id) for i, e in enumerate(events)], owner)
    message = f"{owner} has more orderings than the realization cap ({caps.max_realizations})"
    return list(linear_words(word_dag(lattice, caps.max_realizations, message, owner)))


def realization_dag(
    trace: UncertainTrace, caps: EnumerationCaps | None = None, lattice: Lattice | None = None
) -> WordDag:
    """The :class:`WordDag` of the trace's realizations, over ``lattice``, the
    trace's :func:`trace_lattice`, built here when not given.

    The realization cap counts distinct realizations and is checked on the
    path count, before any realization is listed or aligned.
    """
    caps = caps or EnumerationCaps.from_env()
    owner = f"trace {trace.case_id!r}"
    message = f"{owner} exceeds the realization cap ({caps.max_realizations})"
    return word_dag(trace_lattice(trace) if lattice is None else lattice, caps.max_realizations, message, owner)


def iter_realizations(trace: UncertainTrace, caps: EnumerationCaps | None = None) -> Iterator[tuple[str, ...]]:
    """Distinct realizations, in lexicographic order of activity sequences.

    Each event emits one of its labels where it is placed; an indeterminate
    event may also emit nothing. The cap is as for :func:`realization_dag`;
    a trace over the cap raises here, before the first realization.
    """
    return linear_words(realization_dag(trace, caps))


def realizations(trace: UncertainTrace, caps: EnumerationCaps | None = None) -> set[tuple[str, ...]]:
    """The set of activity sequences the uncertain trace may stand for."""
    return set(iter_realizations(trace, caps))


def count_realizations(log: UncertainLog, caps: EnumerationCaps | None = None) -> int:
    """Sum of per-trace realization counts, read off path counts without
    listing; cap errors name the offending case."""
    total = 0
    for trace in log:
        try:
            total += realization_dag(trace, caps).count
        except CapExceeded as exc:
            raise CapExceeded(f"case {trace.case_id!r}: {exc}") from exc
    return total
