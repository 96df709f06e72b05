"""Behavior graphs and behavior nets.

The behavior graph of an uncertain trace is the transitive reduction of the
precedence DAG induced by the timestamp intervals; its topological sortings
are exactly the trace's order-realizations. The behavior net is a Petri net
that replays all and only the trace's realizations; its reachable markings
are the order ideals of the timestamp order, which the bounds search
directly (:func:`events.trace_lattice`). Both are kept as checked constructs.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import ValidationError
from .events import EnumerationCaps, UncertainEvent, UncertainTrace, _ideals, linear_words
from .petri import Marking, PetriNet, SystemNet

START = "start"
END = "end"


@dataclass(frozen=True)
class BehaviorGraph:
    """Transitively reduced precedence DAG over a trace's events."""

    events: Mapping[str, UncertainEvent]
    edges: frozenset[tuple[str, str]]

    def successors(self, v: str) -> tuple[str, ...]:
        return tuple(sorted(w for (u, w) in self.edges if u == v))


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
    """All topological sortings of the behavior graph, in lexicographic order.

    The realization cap counts sortings; the state cap bounds the lattice walked."""
    caps = caps or EnumerationCaps.from_env()
    vertices = sorted(bg.events)
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    preds = [sum(bit[u] for u, w in bg.edges if w == v) for v in vertices]
    lattice = _ideals(preds, list(enumerate(vertices)), "graph")
    message = f"graph has more sortings than the sorting cap ({caps.max_realizations})"
    return list(linear_words(lattice, caps.max_realizations, message))


def behavior_net(trace: UncertainTrace) -> SystemNet:
    """Petri net whose complete firing sequences are the trace's realizations.

    One place per behavior-graph edge plus start/end places for sources and
    sinks; per event, one visible transition per candidate activity (an XOR
    over the event's places) and one τ transition when the event is
    indeterminate. Concurrent events become AND splits/joins. Transition
    ids are ``event:label`` and ``event:tau``; two events that spell the same
    id are rejected.
    """
    bg = behavior_graph(trace)
    heads = {w for _, w in bg.edges}
    tails = {u for u, _ in bg.edges}
    # Each place as (name, event whose transitions fill it, event whose transitions empty it).
    flows = [(f"{u}→{w}", u, w) for u, w in sorted(bg.edges)]
    flows += [(f"{START}→{v}", None, v) for v in bg.events if v not in heads]
    flows += [(f"{v}→{END}", v, None) for v in bg.events if v not in tails]
    owner: dict[str, str] = {}
    labels: dict[str, str] = {}
    variants: dict[str, list[str]] = {v: [] for v in bg.events}
    for v, event in bg.events.items():
        for label in (*event.sorted_activities(), *([None] if event.indeterminate else [])):
            tid = f"{v}:{'tau' if label is None else label}"
            if tid in owner:
                raise ValidationError(f"events {owner[tid]!r} and {v!r} both give transition id {tid!r}")
            owner[tid] = v
            variants[v].append(tid)
            if label is not None:
                labels[tid] = label
    arcs = [(place, t) for place, _, w in flows if w is not None for t in variants[w]]
    arcs += [(t, place) for place, u, _ in flows if u is not None for t in variants[u]]
    net = PetriNet([place for place, _, _ in flows], owner, arcs, labels)
    return SystemNet(
        net,
        Marking(place for place, u, _ in flows if u is None),
        Marking(place for place, _, w in flows if w is None),
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
