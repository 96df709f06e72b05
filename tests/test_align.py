"""Alignments and conformance bounds."""
import collections
import dataclasses
import random
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import DATA_DIR, alignment_cost_by_language, models_and_traces, uncertain_traces
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_events import running_example

from uncertain_conform import align, events
from uncertain_conform import (
    BoundsReport,
    CapExceeded,
    CostFunction,
    EnumerationCaps,
    Marking,
    Move,
    PetriNet,
    STANDARD_COST,
    SystemNet,
    UncertainEvent,
    UncertainLog,
    UncertainTrace,
    ValidationError,
    behavior_net,
    certain_event,
    event_net,
    fire,
    language,
    load_net,
    log_bounds,
    lower_bound,
    lower_bound_bruteforce,
    optimal_alignment,
    prepare_model,
    random_block_net,
    realizations,
    upper_bound,
)
from uncertain_conform.petri import enabled_transitions


class TestOptimalAlignment:
    def test_single_sync_move(self):
        alignment = optimal_alignment(["a"], event_net(["a"]))
        assert alignment.cost == 0
        assert len(alignment.moves) == 1 and alignment.moves[0].is_sync

    def test_full_mismatch_costs_two(self):
        alignment = optimal_alignment(["b"], event_net(["a"]))
        assert alignment.cost == 2
        kinds = sorted((m.is_log_move, m.is_model_move) for m in alignment.moves)
        assert kinds == [(False, True), (True, False)]

    def test_icu_fitting_trace_one_invisible_move(self, icu):
        model, _, _ = icu
        trace = [
            "Access", "Triage", "Visit", "ConsultancyBegin", "R1", "R2", "R3", "R4",
            "ConsultancyEnd", "Dismissal", "Exit",
        ]
        alignment = optimal_alignment(trace, model)
        assert alignment.cost == 0
        invisible = [m for m in alignment.moves if m.is_invisible]
        assert [m.model_transition for m in invisible] == ["t14"]

    def test_empty_trace_aligns_via_model_moves(self):
        alignment = optimal_alignment([], event_net(["a", "b"]))
        assert alignment.cost == 2
        assert all(m.is_model_move for m in alignment.moves)
        assert alignment.log_projection() == ()

    def test_empty_language_model_rejected(self):
        net = PetriNet(["p1", "p2", "p3"], ["t1"], [("p1", "t1"), ("t1", "p2")], {"t1": "a"})
        stuck = SystemNet(net, Marking(["p1"]), Marking(["p3"]))
        with pytest.raises(ValidationError, match="empty language"):
            optimal_alignment(["a"], stuck)

    def test_log_projection_is_the_trace(self):
        for seed in range(10):
            model = random_block_net(5, f"proj{seed}")
            rnd = random.Random(seed)
            labels = sorted(model.net.labels.values())
            trace = [rnd.choice(labels + ["zz"]) for _ in range(rnd.randint(0, 6))]
            alignment = optimal_alignment(trace, model)
            assert alignment.log_projection() == tuple(trace)

    def test_model_projection_is_a_complete_firing_sequence(self):
        model = random_block_net(6, "replay")
        rnd = random.Random(0)
        labels = sorted(model.net.labels.values())
        trace = [rnd.choice(labels) for _ in range(4)]
        alignment = optimal_alignment(trace, model)
        marking = model.initial_marking
        for tid in alignment.model_projection():
            marking = fire(model.net, marking, tid)
        assert marking == model.final_marking

    def test_cost_equals_deviation_move_count(self):
        for seed in range(10):
            model = random_block_net(5, f"cnt{seed}")
            rnd = random.Random(seed)
            labels = sorted(model.net.labels.values())
            trace = [rnd.choice(labels + ["qq"]) for _ in range(5)]
            alignment = optimal_alignment(trace, model)
            deviations = sum(
                1
                for m in alignment.moves
                if m.is_log_move or (m.is_model_move and not m.is_invisible)
            )
            assert alignment.cost == deviations

    def test_matches_language_oracle(self):
        rnd = random.Random(11)
        for seed in range(40):
            n = rnd.randint(1, 6)
            model = random_block_net(n, f"oracle{seed}")
            labels = sorted(model.net.labels.values())
            trace = [rnd.choice(labels + ["zz"]) for _ in range(rnd.randint(0, 5))]
            expected = alignment_cost_by_language(model, max_len=n + 2)(trace)
            assert optimal_alignment(trace, model).cost == expected

    def test_in_language_iff_cost_zero(self):
        for seed in range(8):
            model = random_block_net(5, f"lang{seed}")
            words = language(model, 7)
            for word in sorted(words)[:5]:
                if word:
                    assert optimal_alignment(list(word), model).cost == 0
            assert optimal_alignment(["not-a-label"], model).cost > 0

    def test_deterministic_witness(self):
        model = random_block_net(6, "det")
        trace = ["a00", "zz", "a02"]
        first = optimal_alignment(trace, model)
        second = optimal_alignment(trace, model)
        assert first == second

    def test_custom_cost_function(self):
        alignment = optimal_alignment(["b"], event_net(["a"]), CostFunction(log_move=3, model_move=5))
        assert alignment.cost == 8

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            CostFunction(log_move=-1)

    # 0.5 was truncated to 0, so ["a", "c", "b"] against a, b cost 0; NaN
    # failed the witness walk as a broken invariant; True was taken as 1.
    @pytest.mark.parametrize("costs, message", [
        ((0.5, 1), "log_move cost must be an integer, not 0.5"),
        ((1, float("nan")), "model_move cost must be an integer, not nan"),
        ((True, 1), "log_move cost must be an integer, not True"),
    ], ids=["fraction", "nan", "bool"])
    def test_non_integer_cost_rejected(self, costs, message):
        with pytest.raises(ValidationError, match=message):
            CostFunction(*costs)

    def test_costs_reaching_2_53_are_capped_not_rounded(self):
        # Rows are float64: 2**53 - 2 plus a model move is the exact 2**53 - 1,
        # but 2**53 + 1 plus one would round to 2**53, not the moves' 2**53 + 2.
        model = event_net(["a"])
        below = CostFunction(2**53 - 2, 1)
        alignment = optimal_alignment(["b"], model, below)
        assert alignment.cost == sum(m.cost(below) for m in alignment.moves) == 2**53 - 1
        over = CostFunction(2**53 + 1, 1)
        with pytest.raises(CapExceeded, match=r"2\*\*53 \(9007199254740992\)"):
            optimal_alignment(["b"], model, over)
        chain = UncertainTrace("chain", (certain_event("e", "b", 0),))
        # Realizations a (cost 0) and b: only the walk's upper bound reaches the limit.
        branching = UncertainTrace("branching", (UncertainEvent("f", frozenset({"a", "b"}), 0, 0),))
        with pytest.raises(CapExceeded, match=r"2\*\*53"):
            upper_bound(branching, model, over)
        for witnesses in (True, False):
            low, high = log_bounds(UncertainLog((chain, branching)), model, over, witnesses=witnesses).reports
            assert (low.lower_cost, low.upper_cost, high.lower_cost, high.upper_cost) == (None, None, 0, None)
            assert "2**53" in low.error and "2**53" in high.error


class TestMoveAndAlignmentEncoding:
    def test_move_json_markers(self):
        sync = Move("a", "a", "t1")
        log_move = Move("a", None, None)
        model_move = Move(None, "a", "t1")
        invisible = Move(None, None, "t7")
        assert sync.as_dict() == {"log": "a", "model_label": "a", "model_transition": "t1"}
        assert log_move.as_dict() == {"log": "a", "model_label": ">>", "model_transition": None}
        assert model_move.as_dict() == {"log": ">>", "model_label": "a", "model_transition": "t1"}
        assert invisible.as_dict() == {"log": ">>", "model_label": "tau", "model_transition": "t7"}

    def test_move_needs_one_side(self):
        with pytest.raises(ValidationError):
            Move(None, None, None)

    def test_alignment_as_dict(self):
        alignment = optimal_alignment(["b"], event_net(["a"]))
        doc = alignment.as_dict()
        assert doc["cost"] == 2
        assert len(doc["moves"]) == 2


class TestBounds:
    def test_certain_trace_bounds_collapse(self):
        model = random_block_net(6, "collapse")
        word = sorted(language(model, 8))[0]
        trace = UncertainTrace(
            "c", tuple(certain_event(f"e{i}", a, 10 * i) for i, a in enumerate(word))
        )
        low, low_wit = lower_bound(trace, model)
        up, up_wit = upper_bound(trace, model)
        direct = optimal_alignment(list(word), model).cost
        assert low == up == direct == 0
        assert low_wit.log_projection() == word
        assert up_wit.log_projection() == word

    def test_witnesses_are_realizations(self):
        trace = running_example()
        model = event_net(["NightSweats", "PrTP", "Splenomeg", "Adm"])
        low, low_wit = lower_bound(trace, model)
        up, up_wit = upper_bound(trace, model)
        reals = realizations(trace)
        assert low_wit.log_projection() in reals
        assert up_wit.log_projection() in reals
        assert low == 0  # the model replays one realization exactly
        assert low <= up

    def test_lower_matches_bruteforce_on_running_example(self):
        trace = running_example()
        model = event_net(["SecTP", "Splenomeg", "Adm"])
        assert lower_bound(trace, model)[0] == lower_bound_bruteforce(trace, model)

    def test_colliding_transition_ids(self):
        # "x" + "y:z" and "x:y" + "z" both spell the behavior-net id "x:y:z".
        trace = UncertainTrace("c", (
            UncertainEvent("x", frozenset({"y:z", "w"}), 0, 0),
            UncertainEvent("x:y", frozenset({"z"}), 1, 1),
        ))
        model = event_net(["y:z", "z"])
        low, witness = lower_bound(trace, model)
        assert low == lower_bound_bruteforce(trace, model) == 0
        assert witness.log_projection() == ("y:z", "z")

    def test_upper_bound_cap_propagates(self):
        events = tuple(UncertainEvent(f"e{i}", frozenset({"a", "b"}), 0, 99, False) for i in range(8))  # 2^8 realizations
        trace = UncertainTrace("c", events)
        with pytest.raises(CapExceeded):
            upper_bound(trace, event_net(["a"]), caps=EnumerationCaps(max_realizations=10))

    def test_upper_witness_deterministic(self):
        trace = running_example()
        model = event_net(["NightSweats", "SecTP", "Splenomeg", "Adm"])
        one = upper_bound(trace, model)
        two = upper_bound(trace, model)
        assert one[0] == two[0] and one[1] == two[1]


class TestLogBounds:
    def test_empty_log_totals(self):
        result = log_bounds(UncertainLog(()), event_net(["a"]))
        assert result.reports == ()
        assert result.total_lower == 0 and result.total_upper == 0

    def test_one_fitting_certain_trace(self):
        trace = UncertainTrace("c", (certain_event("e", "a", 1),))
        result = log_bounds(UncertainLog((trace,)), event_net(["a"]))
        assert result.total_lower == 0 and result.total_upper == 0
        assert result.reports[0].realization_count == 1

    def test_cap_recorded_not_fatal(self):
        explosive = UncertainTrace(
            "big",
            tuple(UncertainEvent(f"b{i}", frozenset({"a", "b"}), 0, 99, False) for i in range(8)),
        )
        small = UncertainTrace("small", (certain_event("s", "a", 1),))
        log = UncertainLog((explosive, small))
        result = log_bounds(log, event_net(["a"]), caps=EnumerationCaps(max_realizations=5))
        by_case = {r.case_id: r for r in result.reports}
        assert by_case["big"].error is not None
        assert by_case["big"].upper_cost is None
        assert by_case["big"].lower_cost is not None  # behavior net needs no enumeration
        assert by_case["small"].error is None

    def test_totals_sum_the_same_traces(self):
        explosive = UncertainTrace(
            "big",
            tuple(UncertainEvent(f"b{i}", frozenset({"b", "c"}), 0, 99, False) for i in range(8)),
        )
        small = UncertainTrace("small", (certain_event("s", "b", 1),))
        log = UncertainLog((explosive, small))
        result = log_bounds(log, event_net(["a"]), caps=EnumerationCaps(max_realizations=5))
        by_case = {r.case_id: r for r in result.reports}
        assert by_case["big"].error is not None and by_case["big"].lower_cost == 9
        assert by_case["small"].lower_cost == by_case["small"].upper_cost == 2
        assert (result.total_lower, result.total_upper) == (2, 2)

    def test_cap_counts_distinct_realizations(self):
        # 8! orderings, but one label: a single realization.
        same = UncertainTrace("same", tuple(UncertainEvent(f"b{i}", frozenset({"a"}), 0, 99) for i in range(8)))
        result = log_bounds(UncertainLog((same,)), event_net(["a"]), caps=EnumerationCaps(max_realizations=5))
        assert result.reports[0].error is None
        assert result.reports[0].realization_count == 1

    def test_report_invariant(self):
        with pytest.raises(AssertionError, match="exceeds upper bound"):
            BoundsReport("c", 3, 1, None, None, None)

    def test_realization_cap_fires_before_any_alignment(self, monkeypatch):
        model = random_block_net(8, "cap")
        labels = frozenset(sorted(model.net.labels.values())[:3])
        trace = UncertainTrace("c", tuple(UncertainEvent(f"e{i}", labels, i, i) for i in range(9)))  # 3^9 realizations
        calls = []
        real = align._costliest_realization
        monkeypatch.setattr(align, "_costliest_realization", lambda *args: calls.append(args) or real(*args))
        result = log_bounds(UncertainLog((trace,)), model, caps=EnumerationCaps(max_realizations=5000))
        assert "realization cap" in result.reports[0].error
        assert calls == []

    def test_thirteen_events_with_four_realizations_fit(self):
        # Two pairs of events share a timestamp: 13 events, four realizations.
        stamps = [0, 0, 2, 3, 4, 5, 6, 7, 8, 8, 10, 11, 12]
        trace = UncertainTrace("long", tuple(certain_event(f"e{i:02}", "ab"[i % 2], t) for i, t in enumerate(stamps)))
        result = log_bounds(UncertainLog((trace,)), event_net(["a"]))
        assert result.reports[0].error is None
        assert result.reports[0].realization_count == 4

    def test_builds_each_trace_lattice_once(self, monkeypatch):
        built = []
        real = events.order_ideals
        monkeypatch.setattr(events, "order_ideals", lambda *args: built.append(args[2].split()[1]) or real(*args))
        log = UncertainLog((
            running_example(),
            UncertainTrace("c", (certain_event("s", "Adm", 1),)),
            UncertainTrace("c2", (certain_event("s2", "Adm", 1),)),  # c's shape again
        ))
        result = log_bounds(log, event_net(["NightSweats", "PrTP", "Splenomeg", "Adm"]))
        assert built == ["'ID192'", "'c'"]
        assert [r.realization_count for r in result.reports] == [10, 1, 1]

    def test_equal_shapes_are_aligned_once(self, monkeypatch):
        def trace(case, spec):
            return UncertainTrace(case, tuple(
                UncertainEvent(f"{case}.{name}", frozenset(labels), lo, hi, skip)
                for name, labels, lo, hi, skip in spec
            ))

        # "x10" sorts before "x9", so ids alone change the event indices and
        # the step order, and here the lower witness; "p-q:" sorts before "p:";
        # b and c differ only in labels.
        shapes = {
            "a": [("e1", "ab", 0, 5, False), ("e2", "c", 3, 9, True), ("e3", "a", 10, 10, False)],
            "ordered": [("x1", "bc", 2, 4, False), ("x2", "ac", 1, 2, False)],
            "swapped": [("x9", "bc", 2, 4, False), ("x10", "ac", 1, 2, False)],
            "steps": [("p", "ab", 0, 4, True), ("p-q", "b", 1, 1, False)],
            "b": [("e1", "a", 0, 0, False), ("e2", "b", 1, 1, False)],
            "c": [("e1", "a", 0, 0, False), ("e2", "c", 1, 1, False)],
        }
        log = UncertainLog(tuple(
            trace(f"{name}{copy}", spec) for copy in range(3) for name, spec in shapes.items()
        ))
        model = event_net(["a", "b", "c"])
        keys = {events.lattice_key(t) for t in log}
        assert len(keys) == len(shapes)
        alone = [log_bounds(UncertainLog((t,)), model).reports[0] for t in log]
        assert alone[1].lower_witness != alone[2].lower_witness
        calls = []
        real = align.lower_bound
        monkeypatch.setattr(align, "lower_bound", lambda t, *args: calls.append(t.case_id) or real(t, *args))
        result = log_bounds(log, model)
        assert list(result.reports) == alone
        assert calls == [f"{name}0" for name in shapes]
        assert result.total_lower == sum(r.lower_cost for r in alone)
        assert result.total_upper == sum(r.upper_cost for r in alone)

    def test_capped_shape_repeats_name_their_own_cases(self):
        def explosive(case):
            return UncertainTrace(case, tuple(UncertainEvent(f"{case}{i}", frozenset({"a", "b"}), 0, 99) for i in range(8)))

        model = event_net(["a"])
        small = UncertainTrace("small", (certain_event("s", "b", 1),))
        log = UncertainLog((explosive("big1"), small, explosive("big2")))
        result = log_bounds(log, model, caps=EnumerationCaps(max_realizations=5))
        first, fine, second = result.reports
        assert "'big1'" in first.error and "'big2'" not in first.error
        assert "'big2'" in second.error and "'big1'" not in second.error
        assert first.lower_cost == second.lower_cost == lower_bound(explosive("big1"), model)[0]
        assert first.upper_cost is second.upper_cost is None
        assert (result.total_lower, result.total_upper) == (fine.lower_cost, fine.upper_cost) == (2, 2)


class TestProductCap:
    def test_cap_checked_before_the_tables_are_allocated(self, monkeypatch):
        monkeypatch.setattr(align, "PRODUCT_CAP", 8)
        with pytest.raises(CapExceeded, match=r"9 product cells \(3 trace states x 3 model states\).*product cap \(8\)"):
            optimal_alignment(["a", "b"], event_net(["a", "b"]))
        monkeypatch.setattr(align, "PRODUCT_CAP", 9)
        assert optimal_alignment(["a", "b"], event_net(["a", "b"])).cost == 0

    def test_log_bounds_marks_the_row_capped(self, monkeypatch):
        monkeypatch.setattr(align, "PRODUCT_CAP", 8)
        result = log_bounds(UncertainLog((running_example(),)), event_net(["a", "b"]))
        report = result.reports[0]
        assert report.lower_cost is None and report.upper_cost is None
        assert "product cap (8)" in report.error
        assert (result.total_lower, result.total_upper) == (0, 0)


class TestStateCap:
    def test_model_at_the_cap(self, monkeypatch):
        model = event_net(["a", "b", "c"])  # 4 states
        monkeypatch.setattr(events, "STATE_CAP", 4)
        assert align.ReachabilityGraph(model).n == 4
        monkeypatch.setattr(events, "STATE_CAP", 3)
        with pytest.raises(CapExceeded, match=r"state cap \(3\)"):
            align.ReachabilityGraph(model)

    def test_unbounded_model_over_the_cap(self, monkeypatch):
        monkeypatch.setattr(events, "STATE_CAP", 50)
        with pytest.raises(CapExceeded, match=r"reachability exploration exceeded the state cap \(50\)"):
            align.reachability_graph(UNBOUNDED_MODEL)

    def test_trace_lattice_over_the_cap(self, monkeypatch):
        model = event_net(["a"])  # 2 states
        wide = UncertainTrace("wide", tuple(UncertainEvent(f"e{i}", frozenset({"a"}), 0, 9) for i in range(3)))  # 8 ideals
        monkeypatch.setattr(events, "STATE_CAP", 8)
        assert lower_bound(wide, model)[0] == 2
        monkeypatch.setattr(events, "STATE_CAP", 7)
        with pytest.raises(CapExceeded, match=r"trace 'wide'.*state cap \(7\)"):
            lower_bound(wide, model)
        small = UncertainTrace("small", (certain_event("s", "a", 1),))
        result = log_bounds(UncertainLog((wide, small)), model)
        capped, fine = result.reports
        assert capped.lower_cost is None and capped.upper_cost is None
        assert "state cap (7)" in capped.error
        assert fine.error is None and fine.lower_cost == fine.upper_cost == 0


#: ``gen`` keeps its token on p0 and adds one to p1, so the model has no bound.
UNBOUNDED_MODEL = SystemNet(
    PetriNet(["p0", "p1", "p2"], ["a", "gen"],
             [("p0", "gen"), ("gen", "p0"), ("gen", "p1"), ("p0", "a"), ("a", "p2")], {"a": "a"}),
    Marking(["p0"]), Marking(["p2"]),
)


def _cyclic_net(arcs, labels) -> SystemNet:
    places = sorted({node for arc in arcs for node in arc if node.startswith("p")})
    transitions = sorted({node for arc in arcs for node in arc if not node.startswith("p")})
    return SystemNet(PetriNet(places, transitions, arcs, labels), Marking(["p0"]), Marking(["p2"]))


#: Models whose reachability graphs have cycles. ``a_loop`` sorts before ``b``.
CYCLIC_MODELS = {
    "tau_self_loop": (
        [("p0", "a"), ("a", "p1"), ("p1", "a_loop"), ("a_loop", "p1"), ("p1", "b"), ("b", "p2")],
        {"a": "a", "b": "b"},
    ),
    "visible_loop": (
        [("p0", "a"), ("a", "p1"), ("p1", "c"), ("c", "p0"), ("p1", "b"), ("b", "p2")],
        {"a": "a", "b": "b", "c": "c"},
    ),
    "tau_cycle": (
        [("p0", "a"), ("a", "p1"), ("p1", "t1"), ("t1", "p3"), ("p3", "t2"), ("t2", "p1"),
         ("p1", "b"), ("b", "p2"), ("p3", "c"), ("c", "p2")],
        {"a": "a", "b": "b", "c": "c"},
    ),
}


def assert_valid_witness(model, trace, bound, witness):
    """The witness replays on the model, relates a realization and costs the bound."""
    assert witness.cost == bound == sum(m.cost(STANDARD_COST) for m in witness.moves)
    assert witness.log_projection() in realizations(trace)
    marking = model.initial_marking
    for tid in witness.model_projection():
        marking = fire(model.net, marking, tid)
    assert marking == model.final_marking


class TestCyclicModels:
    @pytest.mark.parametrize("name", sorted(CYCLIC_MODELS))
    def test_bounds_match_language_oracle(self, name):
        model = _cyclic_net(*CYCLIC_MODELS[name])
        assert align.reachability_graph(model).cyclic
        shortest = min(len(word) for word in language(model, 4))
        rnd = random.Random(name)
        traces = [UncertainTrace("a", (certain_event("e0", "a", 0),))]
        for k in range(8):
            events = []
            for i in range(rnd.randint(1, 4)):
                lo = rnd.randint(0, 6)
                acts = frozenset(rnd.sample(["a", "b", "c", "x"], rnd.randint(1, 2)))
                events.append(UncertainEvent(f"e{i}", acts, lo, lo + rnd.randint(0, 3), rnd.random() < 0.3))
            traces.append(UncertainTrace(f"c{k}", tuple(events)))
        for trace in traces:
            # A word w costs at least |w| - len(trace) and the shortest word at
            # most len(trace) + |shortest|, so no optimal word is longer.
            oracle = alignment_cost_by_language(model, 2 * len(trace) + shortest, LANGUAGE_FIRINGS)
            costs = [oracle(seq) for seq in realizations(trace)]
            (low, low_witness), (up, up_witness) = lower_bound(trace, model), upper_bound(trace, model)
            assert (low, up) == (min(costs), max(costs))
            assert_valid_witness(model, trace, low, low_witness)
            assert_valid_witness(model, trace, up, up_witness)


def reference_graph(sn: SystemNet, cap: int | None = None):
    """A FIFO search over markings with ``enabled_transitions`` and ``fire``:
    state count, out-edges (transition id, label, target) per state, final
    index, and the longest-path level per state (None if there is a cycle).
    None if there are more than ``cap`` states."""
    net = sn.net
    nodes, index, out = [sn.initial_marking], {sn.initial_marking: 0}, []
    for marking in nodes:
        if cap is not None and len(nodes) > cap:
            return None
        edges = []
        for t in enabled_transitions(net, marking):
            nxt = fire(net, marking, t)
            if nxt not in index:
                index[nxt] = len(nodes)
                nodes.append(nxt)
            edges.append((t, net.label(t), index[nxt]))
        out.append(edges)
    indeg = [0] * len(nodes)
    for edges in out:
        for _, _, dst in edges:
            indeg[dst] += 1
    level = [0] * len(nodes)
    ready = [v for v in range(len(nodes)) if indeg[v] == 0]
    for v in ready:
        for _, _, dst in out[v]:
            level[dst] = max(level[dst], level[v] + 1)
            indeg[dst] -= 1
            if indeg[dst] == 0:
                ready.append(dst)
    return len(nodes), out, index.get(sn.final_marking), level if len(ready) == len(nodes) else None


def assert_matches_reference(sn: SystemNet) -> None:
    rg = align.ReachabilityGraph(sn)
    n, out, final, level = reference_graph(sn)
    edges = [[] for _ in range(rg.n)]
    for src, t, dst in zip(rg.src.tolist(), rg.tr.tolist(), rg.dst.tolist()):
        edges[src].append((rg.transitions[t], rg.labels[t], dst))
    assert (rg.n, edges, rg.final) == (n, out, final)
    into = [[] for _ in range(n)]
    for src, out_edges in enumerate(out):
        for t, _, dst in out_edges:
            into[dst].append((src, t))
    assert [[(u, rg.transitions[t]) for u, t in rg.in_edges(v)] for v in range(rg.n)] == [sorted(e) for e in into]
    assert rg.cyclic == (level is None)
    if level is not None:
        assert rg.level.tolist() == level


@st.composite
def small_nets(draw):
    """Nets of up to 4 places and 4 transitions, up to 2 tokens per place: not
    always safe, bounded, acyclic or able to reach the final marking."""
    places = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
    arcs, labels = [], {}
    for t in (f"t{i}" for i in range(draw(st.integers(1, 4)))):
        arcs += [(p, t) for p in draw(st.sets(st.sampled_from(places), min_size=1))]
        arcs += [(t, p) for p in draw(st.sets(st.sampled_from(places)))]
        if label := draw(st.sampled_from([None, "a", "b"])):
            labels[t] = label
    transitions = sorted({t for arc in arcs for t in arc if t.startswith("t")})
    initial, final = (Marking({p: draw(st.integers(0, 2)) for p in places}) for _ in range(2))
    return SystemNet(PetriNet(places, transitions, arcs, labels), initial, final)


BENCH_INPUTS = Path(__file__).parent.parent / "bench" / "inputs"

#: (net file, states, final state) of the committed nets.
FIXTURE_NETS = [
    (DATA_DIR / "icu_net.json", 94, 91),
    (BENCH_INPUTS / "small.net.json", 30, 1),
    (BENCH_INPUTS / "wide.net.json", 708, 15),
    (BENCH_INPUTS / "large.net.json", 5182, 1266),
]
FIXTURE_IDS = ["icu", "small", "wide", "large"]


class TestReachabilityGraph:
    """The array search against a search over ``Marking`` values."""

    @given(st.integers(1, 12), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_block_nets(self, size, seed):
        assert_matches_reference(random_block_net(size, f"rg{seed}"))

    @given(uncertain_traces(max_events=5))
    @settings(max_examples=40, deadline=None)
    def test_behavior_nets(self, trace):
        assert_matches_reference(behavior_net(trace))

    @given(small_nets())
    @settings(max_examples=150, deadline=None)
    def test_small_nets(self, sn):
        with mock.patch.object(events, "STATE_CAP", 60):
            if reference_graph(sn, cap=60) is None:
                with pytest.raises(CapExceeded, match=r"state cap \(60\)"):
                    align.ReachabilityGraph(sn)
            else:
                assert_matches_reference(sn)

    @pytest.mark.parametrize("name", sorted(CYCLIC_MODELS))
    def test_cyclic_models(self, name):
        assert_matches_reference(_cyclic_net(*CYCLIC_MODELS[name]))

    def test_two_tokens_on_a_place(self):
        net = PetriNet(["p0", "p1", "p2"], ["a", "b"], [("p0", "a"), ("a", "p1"), ("p1", "b"), ("b", "p2")],
                       {"a": "a", "b": "b"})
        sn = SystemNet(net, Marking({"p0": 2}), Marking({"p2": 2}))
        assert_matches_reference(sn)
        rg = align.reachability_graph(sn)
        assert (rg.n, rg.final) == (6, 5)
        assert optimal_alignment(["a", "b", "a", "b"], sn).cost == 0

    def test_transition_without_input_places(self):
        net = PetriNet(["p0", "p1"], ["a", "idle"], [("p0", "a"), ("a", "p1")], {"a": "a"})
        sn = SystemNet(net, Marking(["p0"]), Marking(["p1"]))
        assert_matches_reference(sn)
        rg = align.reachability_graph(sn)
        assert sorted(zip(rg.src.tolist(), rg.tr.tolist(), rg.dst.tolist())) == [(0, 0, 1), (0, 1, 0), (1, 1, 1)]

    @pytest.mark.parametrize("path, states, final", FIXTURE_NETS, ids=FIXTURE_IDS)
    def test_fixture_nets(self, path, states, final):
        sn = load_net(path)
        assert_matches_reference(sn)
        rg = align.reachability_graph(sn)
        assert (rg.n, rg.final, rg.cyclic) == (states, final, False)

    @pytest.mark.parametrize("path, states, final", FIXTURE_NETS, ids=FIXTURE_IDS)
    @pytest.mark.parametrize("size", [1, 3])
    def test_layers_spanning_several_slices(self, monkeypatch, path, states, final, size):
        monkeypatch.setattr(align, "_SLICE", size)
        assert_matches_reference(load_net(path))

    def test_huge_initial_count_rejected(self):
        net = PetriNet(["p0", "p1"], ["a"], [("p0", "a"), ("a", "p1")], {"a": "a"})
        sn = SystemNet(net, Marking({"p0": align.TOKEN_LIMIT + 1}), Marking({"p1": 1}))
        with pytest.raises(ValidationError, match="initial marking puts .* tokens on 'p0', over the limit"):
            align.reachability_graph(sn)


def closure_by_bellman_ford(moves, row, backward=False):
    """``row`` closed under the model's edges one edge at a time, in passes
    until a pass changes nothing; ``backward`` turns every edge round."""
    rg = moves.rg
    weights = [moves.weight(label) for label in rg.labels]
    row = row.tolist()
    src, dst = (rg.dst, rg.src) if backward else (rg.src, rg.dst)
    edges = list(zip(src.tolist(), rg.tr.tolist(), dst.tolist()))
    changed = True
    while changed:
        changed = False
        for u, t, v in edges:
            if row[u] + weights[t] < row[v]:
                row[v] = row[u] + weights[t]
                changed = True
    return row


class TestModelMoveSweeps:
    """A relax makes one np.minimum.at per sweep, over edges composed through a run of levels."""

    @pytest.mark.parametrize("size, seed", [(4, 0), (6, 2), (10, 2), (12, 0), (20, 0), (25, 1)])
    @pytest.mark.parametrize("costs", [(1, 1), (2, 3), (1, 0)])
    def test_relax_from_every_level_is_the_edge_closure(self, size, seed, costs):
        model = random_block_net(size, f"sweep{seed}")
        moves = align._model_structures(model, CostFunction(*costs))
        rg = moves.rg
        assert not moves.cyclic
        # Some sweep holds several levels, so some starts lie inside a sweep.
        assert len(moves.sweeps) < moves.depth
        rng = np.random.default_rng(seed)
        assert moves.initial_row.tolist() == closure_by_bellman_ford(moves, moves.initial_row)
        for start in range(moves.depth + 1):
            row = rng.integers(0, 2 * moves.depth, rg.n).astype(float)
            row[rng.random(rg.n) < 0.3] = np.inf
            # Every edge into a level before ``start`` is tight: those levels hold closed values.
            below = rg.level < start
            row[below] = np.array(closure_by_bellman_ford(moves, row))[below]
            relaxed = row.copy()
            moves.relax(relaxed, start)
            assert relaxed.tolist() == closure_by_bellman_ford(moves, row), start

    @pytest.mark.parametrize("size, seed", [(4, 0), (10, 2), (20, 0), (25, 1)])
    @pytest.mark.parametrize("costs", [(1, 1), (2, 3), (1, 0)])
    def test_back_relax_is_the_backward_edge_closure(self, size, seed, costs):
        moves = align._model_structures(random_block_net(size, f"sweep{seed}"), CostFunction(*costs))
        assert len(moves.sweeps) < moves.depth  # composed sweeps, read backwards
        rng = np.random.default_rng(seed)
        for _ in range(10):
            row = rng.integers(0, 2 * moves.depth, moves.rg.n).astype(float)
            row[rng.random(moves.rg.n) < 0.3] = np.inf
            relaxed = row.copy()
            moves.back_relax(relaxed)
            assert relaxed.tolist() == closure_by_bellman_ford(moves, row, backward=True)

    @pytest.mark.parametrize("name", sorted(CYCLIC_MODELS))
    def test_cyclic_models_keep_one_sweep_per_level(self, name):
        moves = align._model_structures(_cyclic_net(*CYCLIC_MODELS[name]), CostFunction(1, 2))
        assert moves.cyclic and len(moves.sweeps) == moves.depth
        rng = np.random.default_rng(len(name))
        for _ in range(20):
            row = rng.integers(0, 6, moves.rg.n).astype(float)
            row[rng.random(moves.rg.n) < 0.3] = np.inf
            relaxed = row.copy()
            moves.relax(relaxed)
            assert relaxed.tolist() == closure_by_bellman_ford(moves, row)
            relaxed = row.copy()
            moves.back_relax(relaxed)
            assert relaxed.tolist() == closure_by_bellman_ford(moves, row, backward=True)


class TestMemory:
    def test_prepare_model_holds_each_marking_once(self):
        model = random_block_net(30, "probe|30|2")
        labels = sorted(model.net.labels.values())
        trace = UncertainTrace("c", tuple(certain_event(f"e{i}", labels[i], i) for i in range(4)))
        tracemalloc.start()
        try:
            prepare_model(model)
            _, setup = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            lower_bound(trace, model)
            upper_bound(trace, model)
            _, search = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert align.reachability_graph(model).n == 5182
        # The markings as dict keys (about 1.3 MB), one slice's successors,
        # the edge arrays and the sweeps; a second copy of the markings and
        # prebuilt in-edge lists took set-up to 6.2 MiB.
        assert setup < 4 * 2**20
        # The witnesses' in-edge lists (about 1.2 MB) and the search tables.
        assert search < 4 * 2**20

    def test_costs_alone_leave_the_in_edges_unbuilt(self):
        model = event_net(["NightSweats", "PrTP", "Splenomeg", "Adm"])
        log = UncertainLog((running_example(),))
        bare = log_bounds(log, model, witnesses=False)
        rg = align.reachability_graph(model)
        assert rg._in_end is None
        full = log_bounds(log, model)
        assert rg._in_end is not None
        assert bare.reports == tuple(dataclasses.replace(r, lower_witness=None, upper_witness=None) for r in full.reports)

    @pytest.mark.parametrize("budget", [0, 2**16])
    def test_prefix_memo_adds_at_most_its_budget(self, monkeypatch, budget):
        model = random_block_net(30, "probe|30|2")
        labels = sorted(model.net.labels.values())
        trace = UncertainTrace("c", tuple(certain_event(f"e{i}", labels[i % len(labels)], i) for i in range(100)))
        prepare_model(model)
        monkeypatch.setattr(align, "MEMO_CELLS", budget)
        tracemalloc.start()
        try:
            lower_bound(trace, model, witness=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = len(trace) * align.reachability_graph(model).n * 8  # about 4 MB
        assert peak < 1.2 * table + 8 * budget


#: Enough language firings for every model of TestBruteForceAgreement.
LANGUAGE_FIRINGS = 2_500_000


class TestBruteForceAgreement:
    def test_random_instances(self):
        rnd = random.Random(5)
        for seed in range(40):
            model = random_block_net(rnd.randint(1, 8), f"agree{seed}")
            labels = sorted(model.net.labels.values()) + ["xx"]
            events = []
            for i in range(rnd.randint(1, 5)):
                lo = rnd.randint(0, 12)
                acts = frozenset(rnd.sample(labels, rnd.randint(1, 2)))
                events.append(
                    UncertainEvent(f"e{i}", acts, lo, lo + rnd.randint(0, 4), rnd.random() < 0.3)
                )
            trace = UncertainTrace(f"c{seed}", tuple(events))
            low, _ = lower_bound(trace, model)
            assert low == lower_bound_bruteforce(trace, model)
            up, _ = upper_bound(trace, model)
            # Block nets fire each visible transition at most once, so words
            # up to that length are the whole language.
            oracle = alignment_cost_by_language(model, len(model.net.labels), LANGUAGE_FIRINGS)
            costs = [oracle(seq) for seq in realizations(trace)]
            assert (low, up) == (min(costs), max(costs))


def first_costliest(trace, model, cost):
    """The first costliest realization in lexicographic order and its
    alignment, each realization aligned by its own chain DP."""
    moves = align._model_structures(model, cost)
    worst = None
    for seq in events.iter_realizations(trace):
        seq_cost, alignment = align._align(align._chain(seq), moves)
        if worst is None or seq_cost > worst[0]:
            worst = seq_cost, alignment
    return worst[1]


class TestUpperBoundWalk:
    """The dominance-pruned walk against aligning every realization."""

    @given(models_and_traces(max_events=6, max_transitions=8), st.sampled_from([(1, 1), (2, 1), (1, 3)]))
    @settings(max_examples=120, deadline=None)
    def test_walk_matches_first_maximum_over_realizations(self, model_and_trace, costs):
        model, trace = model_and_trace
        cost = CostFunction(*costs)
        expected = first_costliest(trace, model, cost)
        assert upper_bound(trace, model, cost) == (expected.cost, expected)
        report = log_bounds(UncertainLog((trace,)), model, cost).reports[0]
        assert report.upper_witness == expected
        assert report.realization_count == len(realizations(trace))

    def test_chain_lattice_upper_witness_is_the_lower_witness(self):
        # Disjoint intervals, one label each: the lattice is a chain.
        model = event_net(["a", "b", "c"])
        trace = UncertainTrace("c", (certain_event("e0", "b", 0), UncertainEvent("e1", frozenset({"a"}), 2, 5),
                                     certain_event("e2", "d", 9)))
        assert all(len(edges) <= 1 for edges in events.trace_lattice(trace))
        report = log_bounds(UncertainLog((trace,)), model).reports[0]
        assert report.realization_count == 1
        assert report.upper_witness is report.lower_witness
        assert report.upper_cost == report.lower_cost == upper_bound(trace, model)[0] == 4
        assert upper_bound(trace, model)[1] == report.lower_witness

    @given(models_and_traces(max_events=6, max_transitions=8), st.sampled_from([(1, 1), (2, 1), (1, 3)]))
    @settings(max_examples=120, deadline=None)
    def test_pruned_walk_finds_the_first_maximum(self, model_and_trace, costs):
        model, trace = model_and_trace
        cost = CostFunction(*costs)
        prefixes = {word[:k] for word in realizations(trace) for k in range(1, len(word) + 1)}
        visited = []
        real = align._Prefix.child
        memo = align._PrefixMemo(align._model_structures(model, cost))
        with mock.patch.object(align._Prefix, "child", lambda self, label: visited.append(label) or real(self, label)):
            up, word, least = align._costliest_realization(events.realization_dag(trace), memo)
        # Only instances where the walk drops some prefix, with its subtree.
        assume(len(visited) < len(prefixes))
        expected = first_costliest(trace, model, cost)
        assert (up, word) == (expected.cost, expected.log_projection())
        assert least in (None, lower_bound_bruteforce(trace, model, cost))

    def test_scan_is_capped(self, monkeypatch):
        trace = UncertainTrace("w", tuple(UncertainEvent(f"e{i}", frozenset({"a", "b"}), 0, 9) for i in range(3)))
        model = event_net(["a", "b"])  # 3 states
        # The walk compares 4 rows with kept rows: 12 cells.
        monkeypatch.setattr(align, "SCAN_CAP", 12)
        assert upper_bound(trace, model)[0] == 3
        monkeypatch.setattr(align, "SCAN_CAP", 11)
        report = log_bounds(UncertainLog((trace,)), model).reports[0]
        assert (report.lower_cost, report.upper_cost, report.realization_count) == (1, None, None)
        assert report.error == "upper-bound walk compared 12 cells of kept rows, over the scan cap (11)"

    def test_kept_rows_are_capped(self, monkeypatch):
        trace = UncertainTrace("w", tuple(UncertainEvent(f"e{i}", frozenset({"a", "b"}), 0, 9) for i in range(3)))
        model = event_net(["a", "b"])  # 3 states
        # The walk keeps 5 rows: rows at the childless walk node of full words are not kept.
        monkeypatch.setattr(align, "PRODUCT_CAP", 15)
        assert upper_bound(trace, model)[0] == 3
        monkeypatch.setattr(align, "PRODUCT_CAP", 14)
        with pytest.raises(CapExceeded, match=r"upper-bound walk keeps 5 rows x 3 model states.*product cap \(14\)"):
            upper_bound(trace, model)


@st.composite
def cyclic_models_and_traces(draw, max_events: int = 4):
    """A model of CYCLIC_MODELS plus an uncertain trace over its labels (with noise)."""
    model = _cyclic_net(*CYCLIC_MODELS[draw(st.sampled_from(sorted(CYCLIC_MODELS)))])
    return model, draw(uncertain_traces(max_events=max_events, alphabet=("a", "b", "c", "x")))


def walk_plan(dag):
    """What a walk that drops no prefix does: (prefixes it spells forward,
    tails it prices). A tail is a prefix whose walk node has one
    completion, when the DAG spells more than one word; the walk prices it
    and spells none of its extensions."""
    forward = priced = 0
    todo = [0]
    while todo:
        for _, child in dag.children[todo.pop()]:
            if dag.paths[child] == 1 < dag.count:
                priced += 1
            else:
                forward += 1
                todo.append(child)
    return forward, priced


def walk_kind(trace, model, cost):
    """How the upper-bound walk meets the trace: "chain" (the lattice has one
    maximal path, and no walk runs), "unpruned" (it drops no prefix: it
    spells forward and prices every prefix of :func:`walk_plan`),
    "certified" (it drops some and still proves the least cost) or "fallback"."""
    if all(len(edges) <= 1 for edges in events.trace_lattice(trace)):
        return "chain"
    calls = collections.Counter()

    def counted(cls, name):
        real = getattr(cls, name)
        return mock.patch.object(cls, name, lambda self, *args: calls.update([name]) or real(self, *args))

    memo = align._PrefixMemo(align._model_structures(model, cost))
    dag = events.realization_dag(trace)
    with counted(align._Prefix, "child"), counted(align._Suffix, "price"):
        _, _, least = align._costliest_realization(dag, memo)
    if (calls["child"], calls["price"]) == walk_plan(dag):
        assert least is not None  # nothing dropped: every realization was aligned
        return "unpruned"
    return "fallback" if least is None else "certified"


#: Two traces on ``event_net(["a", "b", "c"])`` whose walks drop a prefix;
#: both have bounds (2, 4). Only the first walk proves its least cost.
CERTIFIED = (certain_event("e0", "b", 0), UncertainEvent("e1", {"a", "b"}, 0, 0), UncertainEvent("e2", {"a", "b"}, 0, 0))
UNCERTIFIED = (certain_event("e0", "a", 0), UncertainEvent("e1", {"a", "b"}, 1, 1), UncertainEvent("e2", {"a", "b"}, 1, 1))


class TestCertifiedLowerBound:
    """Without witnesses, a branching shape takes its lower bound from the
    upper-bound walk when the walk proves it, and searches the lattice only
    when the proof fails."""

    def test_csv_bounds_are_the_searched_bounds(self):
        kinds = collections.Counter()

        @given(
            st.one_of(models_and_traces(max_events=6, max_transitions=8), cyclic_models_and_traces()),
            st.sampled_from([(1, 1), (2, 1), (1, 3)]),
        )
        @settings(max_examples=150, deadline=None, derandomize=True)
        def check(model_and_trace, costs):
            model, trace = model_and_trace
            cost = CostFunction(*costs)
            log = UncertainLog((trace,))
            searches = []
            real = align.lower_bound
            with mock.patch.object(align, "lower_bound", lambda *args: searches.append(args) or real(*args)):
                bare = log_bounds(log, model, cost, witnesses=False).reports[0]
            full = log_bounds(log, model, cost).reports[0]
            fields = ("lower_cost", "upper_cost", "realization_count")
            assert [getattr(bare, f) for f in fields] == [getattr(full, f) for f in fields]
            assert bare.lower_cost == lower_bound_bruteforce(trace, model, cost)
            kind = walk_kind(trace, model, cost)
            assert len(searches) == (kind in ("chain", "fallback"))
            kinds[kind] += 1

        check()
        assert {"unpruned", "certified", "fallback"} <= kinds.keys(), kinds

    @pytest.mark.parametrize("spec, witnesses, searches", [
        (CERTIFIED, False, 0), (UNCERTIFIED, False, 1), (CERTIFIED, True, 1), (UNCERTIFIED, True, 1),
    ])
    def test_lattice_searches(self, spec, witnesses, searches, monkeypatch):
        model, trace = event_net(["a", "b", "c"]), UncertainTrace("c", spec)
        assert walk_kind(trace, model, STANDARD_COST) == ("certified" if spec is CERTIFIED else "fallback")
        calls = []
        real = align.lower_bound
        monkeypatch.setattr(align, "lower_bound", lambda *args: calls.append(args) or real(*args))
        report = log_bounds(UncertainLog((trace,)), model, witnesses=witnesses).reports[0]
        assert (report.lower_cost, report.upper_cost, report.realization_count) == (2, 4, len(realizations(trace)))
        assert len(calls) == searches

    def test_scan_capped_walk_reports_its_lower_bound(self, monkeypatch):
        trace = UncertainTrace("w", tuple(UncertainEvent(f"e{i}", frozenset({"a", "b"}), 0, 9) for i in range(3)))
        model = event_net(["a", "b"])  # 3 states; the walk compares 12 cells with kept rows
        monkeypatch.setattr(align, "SCAN_CAP", 11)
        report = log_bounds(UncertainLog((trace,)), model, witnesses=False).reports[0]
        assert (report.lower_cost, report.upper_cost, report.realization_count) == (1, None, None)
        assert report.error == "upper-bound walk compared 12 cells of kept rows, over the scan cap (11)"

    def test_product_capped_walk_reports_its_lower_bound(self, monkeypatch):
        # Two ordered events of three labels: 3 lattice nodes, and the walk keeps 4 rows.
        trace = UncertainTrace("w", tuple(UncertainEvent(f"e{i}", frozenset("abc"), 5 * i, 5 * i) for i in range(2)))
        model = event_net(["a", "b"])  # 3 states
        log = UncertainLog((trace,))
        monkeypatch.setattr(align, "PRODUCT_CAP", 12)
        assert log_bounds(log, model, witnesses=False).reports[0].error is None
        monkeypatch.setattr(align, "PRODUCT_CAP", 11)
        report = log_bounds(log, model, witnesses=False).reports[0]
        assert (report.lower_cost, report.upper_cost, report.realization_count) == (0, None, None)
        assert report.error == "upper-bound walk keeps 4 rows x 3 model states, over the product cap (11)"
        assert log_bounds(log, model).reports[0] == dataclasses.replace(report, lower_witness=lower_bound(trace, model)[1])

    def test_lattice_product_cap_holds_without_the_search(self, monkeypatch):
        # The walk keeps 5 rows of 4 model states and certifies, but the
        # lattice search would need 8 x 4 cells.
        model, trace = event_net(["a", "b", "c"]), UncertainTrace("c", CERTIFIED)
        monkeypatch.setattr(align, "PRODUCT_CAP", 20)
        for witnesses in (False, True):
            report = log_bounds(UncertainLog((trace,)), model, witnesses=witnesses).reports[0]
            assert (report.lower_cost, report.upper_cost, report.realization_count) == (None, None, None)
            assert report.error == "alignment needs 32 product cells (8 trace states x 4 model states), over the product cap (20)"
        assert walk_kind(trace, model, STANDARD_COST) == "certified"


class TestWitnessesOnRequest:
    @given(
        models_and_traces(max_events=6, max_transitions=8),
        st.sampled_from([(1, 1), (2, 1), (1, 3)]),
        st.integers(1, 12),
    )
    @settings(max_examples=100, deadline=None)
    def test_costs_without_witnesses_are_the_costs_with_them(self, model_and_trace, costs, max_realizations):
        model, trace = model_and_trace
        again = UncertainTrace("again", tuple(dataclasses.replace(e, id=f"again.{e.id}") for e in trace.events))
        log = UncertainLog((trace, again, UncertainTrace("certain", (certain_event("c", "a", 0),))))
        cost, caps = CostFunction(*costs), EnumerationCaps(max_realizations)
        full = log_bounds(log, model, cost, caps)
        bare = log_bounds(log, model, cost, caps, witnesses=False)
        assert bare.reports == tuple(
            dataclasses.replace(r, lower_witness=None, upper_witness=None) for r in full.reports
        )
        assert (bare.total_lower, bare.total_upper) == (full.total_lower, full.total_upper)


def related_traces(trace, label):
    """The trace, each of its proper prefixes (by storage order) and each
    relabelling of one of its events to ``label``, under distinct ids."""
    def renamed(case, events):
        return UncertainTrace(case, tuple(dataclasses.replace(e, id=f"{case}.{e.id}") for e in events))

    events = trace.events
    return (
        [renamed("whole", events)]
        + [renamed(f"prefix{k}", events[:k]) for k in range(1, len(events))]
        + [
            renamed(f"relabel{i}", events[:i] + (dataclasses.replace(e, activities={label}),) + events[i + 1:])
            for i, e in enumerate(events)
        ]
    )


class TestPrefixMemo:
    """log_bounds shares closed rows across the traces of one call, keyed by word prefix."""

    @given(models_and_traces(max_events=5, max_transitions=8), st.sampled_from([(1, 1), (2, 1), (1, 3)]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_shared_rows_give_each_trace_its_own_bounds(self, model_and_trace, costs, data):
        model, trace = model_and_trace
        label = data.draw(st.sampled_from(sorted(model.net.labels.values()) + ["noise1"]))
        log = UncertainLog(tuple(related_traces(trace, label)))
        cost = CostFunction(*costs)
        moves = align._model_structures(model, cost)
        full = log_bounds(log, model, cost)
        for t, report in zip(log, full.reports):
            alone = lower_bound(t, model, cost)
            assert (report.lower_cost, report.lower_witness) == alone
            # The same search without a memo.
            assert alone == align._align(align._trace_side(events.trace_lattice(t)), moves)
            assert (report.upper_cost, report.upper_witness) == upper_bound(t, model, cost)
        bare = log_bounds(log, model, cost, witnesses=False)
        assert bare.reports == tuple(
            dataclasses.replace(r, lower_witness=None, upper_witness=None) for r in full.reports
        )
        with mock.patch.object(align, "MEMO_CELLS", 0):
            assert log_bounds(log, model, cost) == full
            assert log_bounds(log, model, cost, witnesses=False) == bare

    def test_words_spelled_before_add_no_relax(self, monkeypatch):
        model = event_net(["a", "b", "c"])
        prepare_model(model)
        relaxed = []
        for name in ("relax", "back_relax"):
            real = getattr(align._ModelMoves, name)
            monkeypatch.setattr(
                align._ModelMoves, name, lambda self, *args, real=real: relaxed.append(args) or real(self, *args)
            )

        def relaxes(*traces):
            relaxed.clear()
            log_bounds(UncertainLog(traces), model)
            return len(relaxed)

        # Overlapping events: its walk prices ab and ba from the suffixes b
        # and a, closed backwards; the lattice search spells a and b and the
        # full ideal, and the upper witness the costlier word, ba.
        both = UncertainTrace("both", (UncertainEvent("x", {"a"}, 0, 1), UncertainEvent("y", {"b"}, 1, 2)))
        ab = UncertainTrace("ab", (certain_event("ab.a", "a", 0), certain_event("ab.b", "b", 1)))
        ba = UncertainTrace("ba", (certain_event("ba.b", "b", 0), certain_event("ba.a", "a", 1)))
        assert relaxes(ab) == relaxes(ba) == 2
        assert relaxes(both) == 6
        assert relaxes(both, ba) == relaxes(both)
        # Of ab, only its last step was not spelled before.
        assert relaxes(both, ab, ba) == relaxes(both) + 1
        with monkeypatch.context() as budget:
            budget.setattr(align, "MEMO_CELLS", 0)
            assert relaxes(both, ab, ba) == relaxes(both) + 4

    def test_rows_are_read_only(self):
        model = event_net(["a", "b"])
        moves = align._model_structures(model, STANDARD_COST)
        memo = align._PrefixMemo(moves)
        stored = memo.root.child("a")
        with mock.patch.object(align, "MEMO_CELLS", 0):
            unstored = align._PrefixMemo(moves).root.child("a")
        assert memo.root.child("a") is stored
        assert unstored.row.tolist() == stored.row.tolist()
        for row in (memo.root.row, stored.row, unstored.row, moves.initial_row):
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 0.0

    def test_budget_caps_the_stored_rows(self, monkeypatch):
        model = event_net(["a", "b"])  # 3 states
        moves = align._model_structures(model, STANDARD_COST)
        monkeypatch.setattr(align, "MEMO_CELLS", 2 * moves.rg.n)
        memo = align._PrefixMemo(moves)
        a = memo.root.child("a")
        ab = a.child("b")
        abb = ab.child("b")
        assert memo.free == 0
        assert memo.root.children == {"a": a} and a.children == {"b": ab} and ab.children == {}
        assert abb.stored is False and ab.child("b") is not abb
        assert ab.child("b").row.tolist() == abb.row.tolist()
        assert a.child(None) is a


@st.composite
def models_and_words(draw, max_len: int = 5):
    """A random block net or a cyclic model, and a word over its labels (with noise)."""
    if draw(st.booleans()):
        model = random_block_net(draw(st.integers(1, 10)), f"suffix{draw(st.integers(0, 10**6))}")
    else:
        model = _cyclic_net(*CYCLIC_MODELS[draw(st.sampled_from(sorted(CYCLIC_MODELS)))])
    alphabet = sorted(set(model.net.labels.values())) + ["noise"]
    return model, tuple(draw(st.lists(st.sampled_from(alphabet), max_size=max_len)))


def forward_costs(moves, word):
    """Per model state v, the cost of aligning ``word`` from v to the final
    marking by the forward kernel: a unit row at v relaxed, then one
    _transfer and relax per label, read at the final marking."""
    costs = []
    for v in range(moves.rg.n):
        row = np.full(moves.rg.n, np.inf)
        row[v] = 0.0
        moves.relax(row)
        for label in word:
            step = np.full(moves.rg.n, np.inf)
            moves.relax(step, align._transfer(step, row, label, moves))
            row = step
        costs.append(row[moves.rg.final])
    return costs


def suffix_node(memo, word):
    node = memo.end
    for label in reversed(word):
        node = node.child(label)
    return node


class TestSuffixRows:
    """Suffix rows, closed backwards, hold the forward kernel's costs, and
    the upper-bound walk relaxes a tail's suffix once, backwards."""

    @given(models_and_words(), st.sampled_from([(1, 1), (2, 1), (1, 3), (1, 0)]), st.integers(0, 4))
    @settings(max_examples=120, deadline=None)
    def test_suffix_row_is_the_forward_cost_from_each_state(self, model_and_word, costs, cut):
        model, word = model_and_word
        cost = CostFunction(*costs)
        moves = align._model_structures(model, cost)
        memo = align._PrefixMemo(moves)
        assert suffix_node(memo, word).row.tolist() == forward_costs(moves, word)
        if word:
            # The junction of a prefix's forward row and the rest's suffix row.
            cut = min(cut, len(word) - 1)
            prefix = memo.root
            for label in word[:cut]:
                prefix = prefix.child(label)
            price = suffix_node(memo, word[cut + 1:]).price(prefix.row, word[cut])
            assert price == align._align(align._chain(word), moves, witness=False)[0]

    @pytest.mark.parametrize("model", [random_block_net(size, f"sweep{size}") for size in (3, 12, 25)]
                             + [_cyclic_net(*CYCLIC_MODELS[name]) for name in sorted(CYCLIC_MODELS)])
    @pytest.mark.parametrize("costs", [(1, 1), (1, 3), (1, 0)])
    def test_final_row_is_the_distance_to_the_final_marking(self, model, costs):
        moves = align._model_structures(model, CostFunction(*costs))
        unit = np.full(moves.rg.n, np.inf)
        unit[moves.rg.final] = 0.0
        moves.back_relax(unit)
        assert unit.tolist() == moves.final_row.tolist() == forward_costs(moves, ())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tail_is_relaxed_once_backwards(self, monkeypatch, k):
        # Both realizations share the walk node after e0, whose one completion
        # is the k certain events: the walk relaxes that suffix backwards and
        # prices both words from the root's row. Walking forward made
        # 2 (k + 1) relaxes.
        labels = ["a", "b", "c", "d", "e"]
        model = event_net(labels)
        prepare_model(model)
        trace = UncertainTrace("t", (UncertainEvent("e0", {"a", "x"}, 0, 0),) + tuple(
            certain_event(f"e{i}", labels[i + 1], i) for i in range(1, k + 1)
        ))
        log = UncertainLog((trace,))
        calls = collections.Counter()
        for name in ("relax", "back_relax"):
            real = getattr(align._ModelMoves, name)
            monkeypatch.setattr(
                align._ModelMoves, name, lambda self, *args, name=name, real=real: calls.update([name]) or real(self, *args)
            )
        report = log_bounds(log, model, witnesses=False).reports[0]
        assert (calls["relax"], calls["back_relax"]) == (0, k)
        monkeypatch.undo()
        assert report == dataclasses.replace(log_bounds(log, model).reports[0], lower_witness=None, upper_witness=None)
        costs = [optimal_alignment(word, model).cost for word in realizations(trace)]
        assert (report.lower_cost, report.upper_cost, report.realization_count) == (min(costs), max(costs), 2)
        assert min(costs) < max(costs)

    def test_suffix_rows_the_memo_does_not_store_count_as_kept_rows(self, monkeypatch):
        model = event_net(["a", "b", "c", "d"])  # 5 states
        trace = UncertainTrace("t", (UncertainEvent("e0", {"a", "x"}, 0, 0), certain_event("e1", "b", 1),
                                     certain_event("e2", "c", 2)))
        dag = events.realization_dag(trace)
        moves = align._model_structures(model, STANDARD_COST)

        def walk():
            return align._costliest_realization(dag, align._PrefixMemo(moves))

        # The walk keeps the root's row; the memo stores the suffixes c and bc.
        monkeypatch.setattr(align, "PRODUCT_CAP", 5)
        expected = walk()
        # Without a budget, the walk holds both suffix rows itself.
        monkeypatch.setattr(align, "MEMO_CELLS", 0)
        monkeypatch.setattr(align, "PRODUCT_CAP", 14)
        with pytest.raises(CapExceeded, match=r"upper-bound walk keeps 3 rows x 5 model states.*product cap \(14\)"):
            walk()
        monkeypatch.setattr(align, "PRODUCT_CAP", 15)
        assert walk() == expected


class TestBenchmarkHooks:
    """The benchmark's tracer (bench/child.py) counts and times the layers by
    replacing module attributes of ``align`` at run time."""

    def test_log_bounds_builds_no_net_for_traces(self, monkeypatch):
        model = event_net(["NightSweats", "PrTP", "Splenomeg", "Adm"])
        prepare_model(model)
        built = []
        for cls in (PetriNet, align.ReachabilityGraph):
            real = cls.__init__
            monkeypatch.setattr(cls, "__init__", lambda self, *args, real=real: built.append(type(self)) or real(self, *args))
        log_bounds(UncertainLog((running_example(),)), model)
        assert built == []
        behavior_net(running_example())  # the check sees a net that is built
        assert built == [PetriNet]

    def test_prepare_model_builds_every_model_structure(self, monkeypatch):
        model = event_net(["NightSweats", "PrTP", "Splenomeg", "Adm"])
        prepare_model(model)
        graphs, moves = [], []
        real_graph, real_moves = align.ReachabilityGraph, align._ModelMoves
        monkeypatch.setattr(align, "ReachabilityGraph", lambda sn, *args: graphs.append(sn) or real_graph(sn, *args))
        monkeypatch.setattr(align, "_ModelMoves", lambda *args: moves.append(args) or real_moves(*args))
        log_bounds(UncertainLog((running_example(),)), model)
        assert graphs == []
        assert moves == []

    def test_internal_callers_do_not_go_through_prepare_model(self, monkeypatch):
        # The tracer wraps ``align.prepare_model`` to count set-up once; a
        # search that called it would count the model's states per trace.
        model = event_net(["NightSweats", "PrTP", "Splenomeg", "Adm"])
        prepare_model(model)

        def prepare_again(*args):
            raise AssertionError("prepare_model called after set-up")

        monkeypatch.setattr(align, "prepare_model", prepare_again)
        trace = running_example()
        log_bounds(UncertainLog((trace,)), model)
        lower_bound(trace, model)
        upper_bound(trace, model)
        optimal_alignment(["NightSweats", "Adm"], model)

    def test_traced_functions_are_module_attributes(self):
        for name in ("optimal_alignment", "prepare_model", "iter_realizations"):
            assert callable(getattr(align, name))
