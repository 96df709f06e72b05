"""Behavior graphs and behavior nets.

The behavior graph of an uncertain trace is the transitive reduction of the
precedence DAG induced by the timestamp intervals; its topological sortings
are exactly the trace's order-realizations. The behavior net is a Petri net
that replays all and only the trace's realizations, which makes it the
efficient carrier for the lower conformance bound.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import CapExceeded, ValidationError
from .events import EnumerationCaps, UncertainEvent, UncertainTrace, linear_words
from .petri import Marking, PetriNet, RESERVED_LABELS, SystemNet

START = "start"
END = "end"


@dataclass(frozen=True)
class BehaviorGraph:
    """Transitively reduced precedence DAG over a trace's events."""

    events: Mapping[str, UncertainEvent]
    edges: frozenset[tuple[str, str]]

    def vertices(self) -> tuple[str, ...]:
        return tuple(self.events)

    def successors(self, v: str) -> tuple[str, ...]:
        return tuple(sorted(w for (u, w) in self.edges if u == v))

    def predecessors(self, v: str) -> tuple[str, ...]:
        return tuple(sorted(u for (u, w) in self.edges if w == v))

    def sources(self) -> tuple[str, ...]:
        targets = {w for (_, w) in self.edges}
        return tuple(v for v in self.events if v not in targets)

    def sinks(self) -> tuple[str, ...]:
        origins = {u for (u, _) in self.edges}
        return tuple(v for v in self.events if v not in origins)


def _assert_acyclic(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> None:
    succ: dict[str, list[str]] = {v: [] for v in vertices}
    indeg: dict[str, int] = {v: 0 for v in vertices}
    for u, w in edges:
        succ[u].append(w)
        indeg[w] += 1
    queue = [v for v, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if seen != len(succ):
        raise ValidationError("graph contains a cycle")


def transitive_reduction(
    vertices: Iterable[str], edges: Iterable[tuple[str, str]]
) -> set[tuple[str, str]]:
    """Unique transitive reduction of a DAG.

    An edge (v, w) is dropped iff w stays reachable from v without it; checked
    with a DFS per edge, which is plenty at trace scale.
    """
    vertices = list(vertices)
    edge_set = {(u, w) for u, w in edges}
    for u, w in edge_set:
        if u == w:
            raise ValidationError("graph contains a self-loop")
    _assert_acyclic(vertices, edge_set)
    succ: dict[str, list[str]] = {v: [] for v in vertices}
    for u, w in sorted(edge_set):
        succ[u].append(w)

    def reachable_without_edge(src: str, dst: str) -> bool:
        # DFS from src's other successors: exactly the graph minus (src, dst).
        stack = [v for v in succ[src] if v != dst]
        visited = set(stack)
        while stack:
            v = stack.pop()
            if v == dst:
                return True
            for w in succ[v]:
                if w not in visited:
                    visited.add(w)
                    stack.append(w)
        return False

    return {(u, w) for (u, w) in edge_set if not reachable_without_edge(u, w)}


def behavior_graph(trace: UncertainTrace) -> BehaviorGraph:
    """Build the behavior graph: precedence edges, then transitive reduction."""
    events = {e.id: e for e in sorted(trace.events, key=lambda e: e.id)}
    by_start = sorted(events.values(), key=lambda e: e.t_min)
    starts = [e.t_min for e in by_start]
    raw = set()
    for a in events.values():
        # successors of a are exactly the events starting after a ends
        for b in by_start[bisect_right(starts, a.t_max):]:
            raw.add((a.id, b.id))
    reduced = transitive_reduction(events, raw)
    return BehaviorGraph(events, frozenset(reduced))


def topological_sortings(
    bg: BehaviorGraph, caps: EnumerationCaps | None = None
) -> list[tuple[str, ...]]:
    """All topological sortings of the behavior graph, in lexicographic order."""
    caps = caps or EnumerationCaps.from_env()
    vertices = sorted(bg.events)
    if len(vertices) > caps.max_events:
        raise CapExceeded(f"graph has {len(vertices)} vertices, over the enumeration cap ({caps.max_events})")
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    preds = [sum(bit[u] for u, w in bg.edges if w == v) for v in vertices]
    message = f"graph has more sortings than the sorting cap ({caps.max_realizations})"
    return list(linear_words(preds, [(v,) for v in vertices], caps.max_realizations, message))


def behavior_net(trace: UncertainTrace) -> SystemNet:
    """Petri net whose complete firing sequences are the trace's realizations.

    One place per behavior-graph edge plus start/end places for sources and
    sinks; per event, one visible transition per candidate activity (an XOR
    over the event's places) and one τ transition when the event is
    indeterminate. Concurrent events become AND splits/joins.
    """
    bg = behavior_graph(trace)

    preds: dict[str, list[str]] = {v: [] for v in bg.events}
    succs: dict[str, list[str]] = {v: [] for v in bg.events}
    for u, w in sorted(bg.edges):
        succs[u].append(w)
        preds[w].append(u)

    place_of_edge = {(u, w): f"{u}→{w}" for (u, w) in bg.edges}
    start_places = {v: f"{START}→{v}" for v in bg.events if not preds[v]}
    end_places = {v: f"{v}→{END}" for v in bg.events if not succs[v]}

    places = list(place_of_edge.values()) + list(start_places.values()) + list(end_places.values())
    labels: dict[str, str] = {}
    pre: dict[str, tuple[str, ...]] = {}
    post: dict[str, tuple[str, ...]] = {}

    for v, event in bg.events.items():
        inputs = (start_places[v],) if v in start_places else tuple(
            place_of_edge[(u, v)] for u in preds[v]
        )
        outputs = (end_places[v],) if v in end_places else tuple(
            place_of_edge[(v, w)] for w in succs[v]
        )
        variants: list[tuple[str, str | None]] = [(f"{v}:{a}", a) for a in event.sorted_activities()]
        if event.indeterminate:
            variants.append((f"{v}:tau", None))
        for tid, label in variants:
            if label is not None:
                if label in RESERVED_LABELS:
                    raise ValidationError(
                        f"event {v!r} uses reserved activity label {label!r}; it cannot label a net transition"
                    )
                labels[tid] = label
            pre[tid] = inputs
            post[tid] = outputs

    net = PetriNet._trusted(places, labels, pre, post)
    return SystemNet(
        net,
        Marking(sorted(start_places.values())),
        Marking(sorted(end_places.values())),
    )


def behavior_graph_dot(bg: BehaviorGraph) -> str:
    """DOT rendering for inspection; indeterminate events are dashed."""
    lines = ["digraph behavior {", "  rankdir=LR;"]
    for v, event in bg.events.items():
        label = "{" + ", ".join(event.sorted_activities()) + "}"
        style = ' style="dashed"' if event.indeterminate else ""
        lines.append(f'  "{v}" [label="{v}\\n{label}"{style}];')
    for u, w in sorted(bg.edges):
        lines.append(f'  "{u}" -> "{w}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
