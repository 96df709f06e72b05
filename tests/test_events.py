"""Uncertain event model: precedence, realizations, caps, validation."""
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import uncertain_traces

from uncertain_conform import (
    CapExceeded,
    EnumerationCaps,
    UncertainEvent,
    UncertainLog,
    UncertainTrace,
    ValidationError,
    behavior_graph,
    certain_event,
    count_realizations,
    order_realizations,
    precedes,
    realizations,
    topological_sortings,
)
from uncertain_conform import events
from uncertain_conform.events import CAP_ENV_VAR, iter_realizations

DAY = 24 * 3600 * 10**9


def day(d: int) -> int:
    return d * DAY


def running_example() -> UncertainTrace:
    """Four medical events: one indeterminate, one 2-label set, one interval."""
    return UncertainTrace(
        "ID192",
        (
            UncertainEvent("e1", frozenset({"NightSweats"}), day(5), day(5), True),
            UncertainEvent("e2", frozenset({"PrTP", "SecTP"}), day(8), day(8), False),
            UncertainEvent("e3", frozenset({"Splenomeg"}), day(4), day(10), False),
            UncertainEvent("e4", frozenset({"Adm"}), day(12), day(12), False),
        ),
    )


class TestPrecedes:
    def test_interval_before_point(self):
        trace = running_example()
        assert precedes(trace.event("e3"), trace.event("e4"))

    def test_overlapping_events_uncomparable(self):
        trace = running_example()
        assert not precedes(trace.event("e1"), trace.event("e3"))
        assert not precedes(trace.event("e3"), trace.event("e1"))

    def test_irreflexive(self):
        e = certain_event("e", "a", 5)
        assert not precedes(e, e)


class TestOrderRealizations:
    def test_running_example_orders(self):
        orders = order_realizations(running_example())
        assert set(orders) == {
            ("e3", "e1", "e2", "e4"),
            ("e1", "e3", "e2", "e4"),
            ("e1", "e2", "e3", "e4"),
        }

    def test_single_event(self):
        trace = UncertainTrace("c", (certain_event("e", "a", 1),))
        assert order_realizations(trace) == [("e",)]

    def test_identical_intervals_give_both_orders(self):
        trace = UncertainTrace(
            "c",
            (
                UncertainEvent("x", frozenset({"a"}), 1, 5, False),
                UncertainEvent("y", frozenset({"b"}), 1, 5, False),
            ),
        )
        assert set(order_realizations(trace)) == {("x", "y"), ("y", "x")}

    def test_disjoint_intervals_single_order(self):
        trace = UncertainTrace(
            "c",
            (
                UncertainEvent("x", frozenset({"a"}), 0, 1, False),
                UncertainEvent("y", frozenset({"b"}), 2, 3, False),
                UncertainEvent("z", frozenset({"c"}), 4, 9, False),
            ),
        )
        assert order_realizations(trace) == [("x", "y", "z")]


class TestRealizations:
    def test_restricted_to_one_order(self):
        # Linearizing the running example to the order e1<e2<e3<e4 yields the
        # expansions of exactly that order-realization.
        base = running_example()
        forced = UncertainTrace(
            base.case_id,
            tuple(
                UncertainEvent(e.id, e.activities, day(i + 1), day(i + 1), e.indeterminate)
                for i, e in enumerate(base.events)
            ),
        )
        assert realizations(forced) == {
            ("NightSweats", "PrTP", "Splenomeg", "Adm"),
            ("NightSweats", "SecTP", "Splenomeg", "Adm"),
            ("PrTP", "Splenomeg", "Adm"),
            ("SecTP", "Splenomeg", "Adm"),
        }

    def test_running_example_has_ten(self):
        assert len(realizations(running_example())) == 10

    def test_certain_linear_trace_single_realization(self):
        trace = UncertainTrace(
            "c",
            (certain_event("x", "b", 2), certain_event("y", "a", 1), certain_event("z", "c", 3)),
        )
        assert realizations(trace) == {("a", "b", "c")}


class TestCountRealizations:
    def test_running_example_log(self):
        assert count_realizations(UncertainLog((running_example(),))) == 10

    def test_three_certain_traces(self):
        traces = tuple(
            UncertainTrace(f"c{i}", (certain_event(f"c{i}-e", "a", 1),)) for i in range(3)
        )
        assert count_realizations(UncertainLog(traces)) == 3

    def test_empty_log(self):
        assert count_realizations(UncertainLog(())) == 0

    def test_cap_error_names_case(self):
        events = tuple(UncertainEvent(f"e{i}", frozenset({"a", "b"}), 0, 100, False) for i in range(9))
        log = UncertainLog((UncertainTrace("explosive", events),))
        with pytest.raises(CapExceeded, match="explosive"):
            count_realizations(log, EnumerationCaps(max_realizations=50))


class TestCaps:
    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "20")  # the old event-cap form caps nothing
        assert EnumerationCaps.from_env() == EnumerationCaps()
        monkeypatch.setenv(CAP_ENV_VAR, "20,500")
        assert EnumerationCaps.from_env() == EnumerationCaps(max_realizations=500)

    def test_env_var_invalid(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "lots")
        with pytest.raises(ValidationError):
            EnumerationCaps.from_env()

    @pytest.mark.parametrize("form", ["N", "max_realizations"])
    # Unchecked, NaN would turn the cap off, True would read as "realization
    # cap (True)", and "5" would raise TypeError.
    @pytest.mark.parametrize("value", [0, -1, float("nan"), True, 2.5, "5"])
    def test_cap_below_one_rejected(self, monkeypatch, form, value):
        if form == "max_realizations":
            with pytest.raises(ValidationError, match=form):
                EnumerationCaps(max_realizations=value)
        else:
            # The variable's text: "'5'" for the string, since "5" is a valid N.
            monkeypatch.setenv(CAP_ENV_VAR, f"{value!r},5")
            message = "N must be at least 1" if type(value) is int else "must be an integer"
            with pytest.raises(ValidationError, match=message):
                EnumerationCaps.from_env()

    def test_cap_of_one_accepted(self, monkeypatch):
        assert EnumerationCaps(max_realizations=1).max_realizations == 1
        monkeypatch.setenv(CAP_ENV_VAR, "1,1")
        assert EnumerationCaps.from_env().max_realizations == 1

    @pytest.mark.parametrize("raw", ["-1", "0", "12,0", "12,-5"])
    def test_env_var_below_one_names_variable(self, monkeypatch, raw):
        monkeypatch.setenv(CAP_ENV_VAR, raw)
        with pytest.raises(ValidationError, match=CAP_ENV_VAR):
            EnumerationCaps.from_env()


class TestStateCap:
    """Every walk runs over a lattice capped by ``events.STATE_CAP``."""

    WIDE = UncertainTrace("wide", tuple(UncertainEvent(f"e{i}", frozenset({"a"}), 0, 9) for i in range(4)))  # 16 ideals

    @pytest.fixture(autouse=True)
    def small_state_cap(self, monkeypatch):
        monkeypatch.setattr(events, "STATE_CAP", 15)

    def test_count_realizations(self):
        with pytest.raises(CapExceeded, match=r"case 'wide'.*state cap \(15\)"):
            count_realizations(UncertainLog((self.WIDE,)))

    def test_order_realizations(self):
        with pytest.raises(CapExceeded, match=r"trace 'wide'.*state cap \(15\)"):
            order_realizations(self.WIDE)

    def test_topological_sortings(self):
        with pytest.raises(CapExceeded, match=r"state cap \(15\)"):
            topological_sortings(behavior_graph(self.WIDE))

    def test_lattice_at_the_cap_fits(self, monkeypatch):
        monkeypatch.setattr(events, "STATE_CAP", 16)
        assert count_realizations(UncertainLog((self.WIDE,))) == 1
        assert len(order_realizations(self.WIDE)) == len(topological_sortings(behavior_graph(self.WIDE))) == 24


class TestWalkCaps:
    """The determinized lattice is capped by its walk nodes, and the
    realization cap is read off its path counts, before any listing."""

    def test_wide_antichain_rejected_by_path_count(self, monkeypatch):
        # 16 overlapping events with 3 labels: 2^16 ideals, 3^16 realizations,
        # and 1,572,864 lattice edges, over the edge cap (TestEdgeCap).
        trace = UncertainTrace("anti", tuple(UncertainEvent(f"e{i:02}", frozenset("abc"), 0, 9) for i in range(16)))
        monkeypatch.setattr(events, "EDGE_CAP", 3 * 16 * 2**15)
        lattice = events.trace_lattice(trace)
        monkeypatch.setattr(events, "linear_words", None)  # a listing would fail
        with pytest.raises(CapExceeded, match=r"trace 'anti' exceeds the realization cap \(100000\)"):
            events.realization_dag(trace, EnumerationCaps(max_realizations=10**5), lattice)
        monkeypatch.setattr(events, "STATE_CAP", 17)  # one walk node per number of placed events
        assert events.realization_dag(trace, EnumerationCaps(max_realizations=3**16), lattice).count == 3**16

    def test_walk_nodes_over_the_state_cap(self, monkeypatch):
        # 4 ideals, but 5 walk nodes: after "a" either event may be placed.
        trace = UncertainTrace("two", (UncertainEvent("e0", frozenset("ab"), 0, 9),
                                       UncertainEvent("e1", frozenset("ac"), 0, 9)))
        monkeypatch.setattr(events, "STATE_CAP", 5)
        assert count_realizations(UncertainLog((trace,))) == len(realizations(trace)) == 7
        monkeypatch.setattr(events, "STATE_CAP", 4)
        assert len(events.trace_lattice(trace)) == 4
        with pytest.raises(CapExceeded, match=r"case 'two': trace 'two' has more walk nodes than the state cap \(4\)"):
            count_realizations(UncertainLog((trace,)))


class TestEdgeCap:
    """Every lattice of order ideals is capped by its edges as well as its ideals."""

    WIDE = TestStateCap.WIDE  # 16 ideals, 32 edges

    def test_lattice_at_the_cap_fits(self, monkeypatch):
        monkeypatch.setattr(events, "EDGE_CAP", 32)
        assert sum(map(len, events.trace_lattice(self.WIDE))) == 32
        monkeypatch.setattr(events, "EDGE_CAP", 31)
        with pytest.raises(CapExceeded, match=r"trace 'wide' has more lattice edges than the edge cap \(31\): 32 edges"):
            events.trace_lattice(self.WIDE)
        with pytest.raises(CapExceeded, match=r"case 'wide'.*edge cap \(31\)"):
            count_realizations(UncertainLog((self.WIDE,)))
        with pytest.raises(CapExceeded, match=r"graph has more lattice edges than the edge cap \(31\)"):
            topological_sortings(behavior_graph(self.WIDE))

    def test_wide_antichain_stops_early(self):
        # 17 overlapping events with 3 labels: 2^17 ideals and 3,342,336 edges,
        # which took about 258 MB as lists of tuples.
        trace = UncertainTrace("anti", tuple(UncertainEvent(f"e{i:02}", frozenset("abc"), 0, 9) for i in range(17)))
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match=r"trace 'anti' has more lattice edges than the edge cap \(1000000\):"
                                                  r" \d+ edges from \d+ of the \d+ order ideals found"):
                events.trace_lattice(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20


class TestValidation:
    def test_empty_activity_set(self):
        with pytest.raises(ValidationError):
            UncertainEvent("e", frozenset(), 0, 1, False)

    def test_interval_inverted(self):
        with pytest.raises(ValidationError):
            UncertainEvent("e", frozenset({"a"}), 2, 1, False)

    def test_point_timestamp_allowed(self):
        UncertainEvent("e", frozenset({"a"}), 2, 2, False)

    @pytest.mark.parametrize("label", ["tau", "τ", ">>"])
    def test_reserved_label_names_event_and_label(self, label):
        with pytest.raises(ValidationError, match=f"'res'.*{label!r}"):
            UncertainEvent("res", frozenset({"a", label}), 0, 0)

    def test_duplicate_ids_in_trace(self):
        with pytest.raises(ValidationError):
            UncertainTrace("c", (certain_event("e", "a", 1), certain_event("e", "b", 2)))

    def test_duplicate_ids_across_log(self):
        t1 = UncertainTrace("c1", (certain_event("e", "a", 1),))
        t2 = UncertainTrace("c2", (certain_event("e", "b", 2),))
        with pytest.raises(ValidationError):
            UncertainLog((t1, t2))

    def test_empty_trace(self):
        with pytest.raises(ValidationError):
            UncertainTrace("c", ())


@st.composite
def event_pairs(draw):
    def one(i):
        lo = draw(st.integers(0, 20))
        return UncertainEvent(f"e{i}", frozenset({"a"}), lo, lo + draw(st.integers(0, 8)), False)

    return one(0), one(1)


class TestOrderProperties:
    @given(event_pairs())
    @settings(max_examples=100, deadline=None)
    def test_never_both_directions(self, pair):
        e1, e2 = pair
        assert not (precedes(e1, e2) and precedes(e2, e1))

    @given(event_pairs())
    @settings(max_examples=100, deadline=None)
    def test_uncomparable_iff_intervals_intersect(self, pair):
        e1, e2 = pair
        uncomparable = not precedes(e1, e2) and not precedes(e2, e1)
        intersects = max(e1.t_min, e2.t_min) <= min(e1.t_max, e2.t_max)
        assert uncomparable == intersects

    @given(uncertain_traces(max_events=6))
    @settings(max_examples=60, deadline=None)
    def test_order_realizations_are_permutations(self, trace):
        ids = sorted(e.id for e in trace.events)
        for order in order_realizations(trace):
            assert sorted(order) == ids


class TestEnumerationOracle:
    """The shared walk against plain permutations and label products."""

    @given(uncertain_traces(max_events=6))
    @settings(max_examples=100, deadline=None)
    def test_walk_matches_permutations(self, trace):
        by_id = {e.id: e for e in trace.events}
        orders = [
            order for order in itertools.permutations(sorted(by_id))
            if not any(precedes(by_id[later], by_id[earlier]) for earlier, later in itertools.combinations(order, 2))
        ]
        assert order_realizations(trace) == orders
        words = set()
        for order in orders:
            options = [sorted(by_id[i].activities) + ([None] if by_id[i].indeterminate else []) for i in order]
            words.update(tuple(a for a in combo if a is not None) for combo in itertools.product(*options))
        assert list(iter_realizations(trace)) == sorted(words)

    def test_ten_overlapping_events_fit_their_realization_count(self):
        events = tuple(UncertainEvent(f"e{i}", frozenset({"a", "b"}), 0, 99) for i in range(10))
        trace = UncertainTrace("wide", events)  # 10! orderings, 2^10 realizations
        assert len(list(iter_realizations(trace, EnumerationCaps(max_realizations=1024)))) == 1024


def lattice_key_by_id(trace):
    """:func:`events.lattice_key` built from its definition: predecessors
    from ``precedes`` per pair of events sorted by id, and one sort of the
    ``id:label`` transition ids with the event index as tie-break."""
    by_id = sorted(trace.events, key=lambda e: e.id)
    preds = [sum(1 << i for i, p in enumerate(by_id) if precedes(p, e)) for e in by_id]
    steps = sorted(
        (f"{e.id}:{'tau' if a is None else a}", i, a)
        for i, e in enumerate(by_id)
        for a in ((*e.activities, None) if e.indeterminate else e.activities)
    )
    return tuple(preds), tuple((i, a) for _, i, a in steps)


@st.composite
def traces_with_prefix_ids(draw):
    """Traces whose ids are prefixes of one another, and whose ``id:label``
    transition ids may coincide (``e1`` with ``x:a`` and ``e1:x`` with ``a``)."""
    ids = draw(st.lists(st.sampled_from(["e1", "e1:x", "e10", "e1-x", "e", "e:"]), min_size=1, max_size=6, unique=True))
    events_ = []
    for event_id in ids:
        lo = draw(st.integers(0, 6))
        labels = draw(st.frozensets(st.sampled_from(["a", "b", "x:a", "a:b"]), min_size=1, max_size=3))
        events_.append(UncertainEvent(event_id, labels, lo, lo + draw(st.integers(0, 3)), draw(st.booleans())))
    return UncertainTrace("c", tuple(events_))


class TestLatticeKey:
    @given(st.one_of(traces_with_prefix_ids(), uncertain_traces(max_events=7)))
    @settings(max_examples=200, deadline=None)
    def test_one_pass_key_is_the_pairwise_key(self, trace):
        assert events.lattice_key(trace) == lattice_key_by_id(trace)

    def test_equal_transition_ids_keep_id_order(self):
        # "e1" + "x:a" and "e1:x" + "a" both spell "e1:x:a"; "e1" sorts first.
        trace = UncertainTrace("c", (
            UncertainEvent("e1:x", frozenset({"a"}), 0, 0, True), UncertainEvent("e1", frozenset({"x:a"}), 0, 0),
        ))
        assert events.lattice_key(trace) == ((0, 0), ((0, "x:a"), (1, "a"), (1, None))) == lattice_key_by_id(trace)
