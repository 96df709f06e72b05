"""Behavior graphs and nets: cover edges, sortings, net structure."""
import pytest
from helpers import uncertain_traces
from hypothesis import given, settings

from test_events import running_example

from uncertain_conform import align, events
from uncertain_conform import (
    UncertainEvent,
    UncertainTrace,
    ValidationError,
    behavior_graph,
    behavior_net,
    certain_event,
    event_net,
    language,
    order_realizations,
    precedes,
    realizations,
    topological_sortings,
)


class TestBehaviorGraph:
    def test_running_example_edges(self):
        bg = behavior_graph(running_example())
        assert bg.edges == frozenset({("e1", "e2"), ("e2", "e4"), ("e3", "e4")})

    def test_all_overlapping_no_edges(self):
        events = tuple(UncertainEvent(f"e{i}", frozenset({"a"}), 0, 10, False) for i in range(4))
        assert behavior_graph(UncertainTrace("c", events)).edges == frozenset()

    def test_disjoint_intervals_chain(self):
        events = tuple(
            UncertainEvent(f"e{i}", frozenset({"a"}), 10 * i, 10 * i + 5, False) for i in range(4)
        )
        bg = behavior_graph(UncertainTrace("c", events))
        assert bg.edges == frozenset({("e0", "e1"), ("e1", "e2"), ("e2", "e3")})

    @given(uncertain_traces(max_events=7))
    @settings(max_examples=150, deadline=None)
    def test_edges_are_the_cover_of_precedes(self, trace):
        # Edges are precedes pairs with no event strictly between them, and
        # their transitive closure is the whole of precedes.
        bg = behavior_graph(trace)
        ids = sorted(bg.events)
        before = {(u, w) for u in ids for w in ids if precedes(bg.events[u], bg.events[w])}
        for u, w in bg.edges:
            assert (u, w) in before
            assert not any((u, x) in before and (x, w) in before for x in ids)
        reach = set(bg.edges)
        for x in ids:  # Warshall: x may now be an intermediate event
            reach |= {(u, y) for u, w in reach if w == x for v, y in reach if v == x}
        assert reach == before


class TestTopologicalSortings:
    def test_running_example_matches_orders(self):
        trace = running_example()
        bg = behavior_graph(trace)
        assert set(topological_sortings(bg)) == set(order_realizations(trace))

    def test_chain_has_one(self):
        events = tuple(certain_event(f"e{i}", "a", 10 * i) for i in range(4))
        bg = behavior_graph(UncertainTrace("c", events))
        assert len(topological_sortings(bg)) == 1

    def test_isolated_vertices_factorial(self):
        events = tuple(UncertainEvent(f"e{i}", frozenset({"a"}), 0, 9, False) for i in range(3))
        bg = behavior_graph(UncertainTrace("c", events))
        assert len(topological_sortings(bg)) == 6


class TestBehaviorNet:
    def test_running_example_shape(self):
        sn = behavior_net(running_example())
        assert len(sn.net.places) == 6
        assert len(sn.net.transitions) == 6
        assert sorted(sn.net.labels.values()) == [
            "Adm", "NightSweats", "PrTP", "SecTP", "Splenomeg",
        ]
        assert len(sn.net.transitions - set(sn.net.labels)) == 1  # the skip for e1
        assert sn.initial_marking.total() == 2
        assert sn.final_marking.total() == 1

    def test_certain_linear_trace_behaves_like_event_net(self):
        trace = UncertainTrace(
            "c", tuple(certain_event(f"e{i}", lbl, 10 * i) for i, lbl in enumerate("abc"))
        )
        sn = behavior_net(trace)
        assert len(sn.net.places) == 4
        assert len(sn.net.transitions) == 3
        assert not (sn.net.transitions - set(sn.net.labels))
        assert language(sn, 3) == language(event_net(["a", "b", "c"]), 3)

    def test_running_example_language_is_realizations(self):
        trace = running_example()
        assert language(behavior_net(trace), len(trace)) == realizations(trace)

    def test_and_split_width(self):
        # A vertex with k outgoing edges produces transitions with k output places.
        events = (
            UncertainEvent("e0", frozenset({"a"}), 0, 0, False),
            UncertainEvent("e1", frozenset({"b"}), 5, 20, False),
            UncertainEvent("e2", frozenset({"c"}), 10, 30, False),
            UncertainEvent("e3", frozenset({"d"}), 40, 40, False),
        )
        trace = UncertainTrace("c", events)
        sn = behavior_net(trace)
        assert len(sn.net.postset("e0:a")) == 2
        assert len(sn.net.preset("e3:d")) == 2

    def test_colliding_transition_ids_rejected(self):
        trace = UncertainTrace("c", (
            UncertainEvent("x", frozenset({"y:z"}), 0, 0),
            UncertainEvent("x:y", frozenset({"z"}), 1, 1),
        ))
        with pytest.raises(ValidationError, match=r"events 'x' and 'x:y' both give transition id 'x:y:z'"):
            behavior_net(trace)

    def test_place_naming_convention(self):
        sn = behavior_net(running_example())
        assert "start→e1" in sn.net.places
        assert "e1→e2" in sn.net.places
        assert "e4→end" in sn.net.places


class TestGraphNetProperties:
    @given(uncertain_traces(max_events=6))
    @settings(max_examples=80, deadline=None)
    def test_sortings_equal_order_realizations(self, trace):
        bg = behavior_graph(trace)
        assert set(topological_sortings(bg)) == set(order_realizations(trace))

    @given(uncertain_traces(max_events=5))
    @settings(max_examples=80, deadline=None)
    def test_language_equals_realizations(self, trace):
        assert language(behavior_net(trace), len(trace)) == realizations(trace)

    @given(uncertain_traces(max_events=6))
    @settings(max_examples=80, deadline=None)
    def test_ideal_lattice_is_the_net_reachability_graph(self, trace):
        # Theorem B's construct stays checked: the lower bound searches the
        # lattice, numbered and edged exactly as the behavior net's markings.
        rg = align.reachability_graph(behavior_net(trace))
        lattice = align._trace_side(events.trace_lattice(trace))
        by_id = sorted(trace.events, key=lambda e: e.id)
        tids = [[(src, a, f"{by_id[i].id}:{a or 'tau'}") for src, a, i in into] for into in lattice]
        assert len(lattice) == rg.n
        assert tids == [[(u, rg.labels[t], rg.transitions[t]) for u, t in rg.in_edges(v)] for v in range(rg.n)]
