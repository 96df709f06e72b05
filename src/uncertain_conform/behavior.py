"""Behavior graphs and behavior nets.

The behavior graph of an uncertain trace is the transitive reduction of the
precedence DAG induced by the timestamp intervals. Precedence is an interval
order, hence transitive, so the reduction is its cover relation, read off the
predecessor bitmasks of :func:`events.precedes`; the graph's topological
sortings are exactly the trace's order-realizations. The behavior net is a
Petri net that replays all and only the trace's realizations; its reachable
markings are the order ideals of the timestamp order, which the bounds
search directly (:func:`events.trace_lattice`). Both are kept as checked
constructs.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .errors import ValidationError
from .events import EnumerationCaps, UncertainEvent, UncertainTrace, _by_id, linear_words, order_ideals, word_dag
from .petri import Marking, PetriNet, SystemNet

START = "start"
END = "end"


@dataclass(frozen=True)
class BehaviorGraph:
    """Transitively reduced precedence DAG over a trace's events."""

    events: Mapping[str, UncertainEvent]
    edges: frozenset[tuple[str, str]]


def behavior_graph(trace: UncertainTrace) -> BehaviorGraph:
    """Build the behavior graph: the cover relation of :func:`events.precedes`.

    An edge (e, e2) joins e2 to each predecessor e that precedes no other
    predecessor of e2. Precedence is transitive, so the predecessors of e2's
    predecessors are exactly the ones to drop.
    """
    events, preds = _by_id(trace)
    edges = set()
    for j, p in enumerate(preds):
        below = [i for i in range(len(events)) if p >> i & 1]
        implied = 0
        for i in below:
            implied |= preds[i]
        edges.update((events[i].id, events[j].id) for i in below if not implied >> i & 1)
    return BehaviorGraph({e.id: e for e in events}, frozenset(edges))


def topological_sortings(
    bg: BehaviorGraph, caps: EnumerationCaps | None = None
) -> list[tuple[str, ...]]:
    """All topological sortings of the behavior graph, in lexicographic order.

    The realization cap counts sortings; the state cap bounds the lattice and
    its determinization."""
    caps = caps or EnumerationCaps.from_env()
    vertices = sorted(bg.events)
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    preds = [sum(bit[u] for u, w in bg.edges if w == v) for v in vertices]
    lattice = order_ideals(preds, list(enumerate(vertices)), "graph")
    message = f"graph has more sortings than the sorting cap ({caps.max_realizations})"
    return list(linear_words(word_dag(lattice, caps.max_realizations, message, "graph")))


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
