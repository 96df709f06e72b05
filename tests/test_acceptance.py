"""Acceptance criteria, one test per criterion.

Each test asserts the exact values or directions it is responsible for and the
runtime budget it must meet. The terminal summary (see conftest) prints one
PASS/FAIL line per criterion.
"""
import time

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from helpers import models_and_traces, uncertain_traces

from test_events import running_example

from uncertain_conform import (
    CapExceeded,
    EnumerationCaps,
    UncertainEvent,
    UncertainTrace,
    behavior_graph,
    behavior_net,
    language,
    lower_bound,
    lower_bound_bruteforce,
    order_realizations,
    precedes,
    realizations,
    topological_sortings,
    upper_bound,
)
from uncertain_conform.experiments import ExperimentSpec, run_divergence, run_performance, run_realizations

THEOREM_SUITE = settings(max_examples=200, deadline=None, derandomize=True)
SMALL_CAPS = EnumerationCaps(max_realizations=5_000)


def _bounded_realizations(trace):
    """Realization set when it fits the suite budget, else None (case skipped)."""
    try:
        return realizations(trace, SMALL_CAPS)
    except CapExceeded:
        return None


class TestIcuGoldenFixtures:
    def test_icu_golden_fixtures(self, icu):
        """Fig. 10 net with the two preprocessed ward traces: exact bounds."""
        model, table6, table7 = icu
        start = time.monotonic()
        low6, _ = lower_bound(table6, model)
        low7, _ = lower_bound(table7, model)
        up6, _ = upper_bound(table6, model)
        up7, _ = upper_bound(table7, model)
        elapsed = time.monotonic() - start
        assert (low6, up6) == (0, 2)
        assert (low7, up7) == (0, 6)
        assert elapsed < 5.0, f"ICU fixtures took {elapsed:.2f}s (budget 5s)"


class TestRunningExampleFixtures:
    def test_running_example_fixtures(self):
        """The four-event medical trace: graph edges, orders, realizations."""
        start = time.monotonic()
        trace = running_example()
        bg = behavior_graph(trace)
        assert bg.edges == frozenset({("e1", "e2"), ("e2", "e4"), ("e3", "e4")})
        assert set(order_realizations(trace)) == {
            ("e3", "e1", "e2", "e4"),
            ("e1", "e3", "e2", "e4"),
            ("e1", "e2", "e3", "e4"),
        }
        linearized = UncertainTrace(
            trace.case_id,
            tuple(
                UncertainEvent(e.id, e.activities, i, i, e.indeterminate)
                for i, e in enumerate(trace.events)
            ),
        )
        assert realizations(linearized) == {
            ("NightSweats", "PrTP", "Splenomeg", "Adm"),
            ("NightSweats", "SecTP", "Splenomeg", "Adm"),
            ("PrTP", "Splenomeg", "Adm"),
            ("SecTP", "Splenomeg", "Adm"),
        }
        assert len(realizations(trace)) == 10
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"running example took {elapsed:.2f}s (budget 1s)"


class TestTheoremSuites:
    @given(uncertain_traces(max_events=7))
    @THEOREM_SUITE
    def test_theorem_a_behavior_graph_sortings(self, trace):
        """Behavior graph is acyclic; its sortings are the order-realizations."""
        bg = behavior_graph(trace)
        sortings = topological_sortings(bg)  # enumeration implies acyclicity
        assert len(sortings) >= 1
        assert set(sortings) == set(order_realizations(trace))

    @given(uncertain_traces(max_events=7))
    @THEOREM_SUITE
    def test_theorem_b_behavior_net_language(self, trace):
        """The behavior net replays all and only the realizations."""
        expected = _bounded_realizations(trace)
        assume(expected is not None)
        words = language(behavior_net(trace), len(trace), max_firings=2_000_000)
        assert words == expected

    @given(models_and_traces(max_events=7, max_transitions=12))
    @THEOREM_SUITE
    def test_theorem_c_bruteforce_agreement_and_witnesses(self, model_trace):
        """Behavior-net lower bound equals brute force; witnesses are realizations."""
        model, trace = model_trace
        reals = _bounded_realizations(trace)
        assume(reals is not None)
        low, low_witness = lower_bound(trace, model)
        assert low == lower_bound_bruteforce(trace, model, caps=SMALL_CAPS)
        up, up_witness = upper_bound(trace, model, caps=SMALL_CAPS)
        assert low_witness.log_projection() in reals
        assert up_witness.log_projection() in reals

    @given(models_and_traces(max_events=7, max_transitions=12))
    @THEOREM_SUITE
    def test_theorem_d_lower_at_most_upper(self, model_trace):
        model, trace = model_trace
        assume(_bounded_realizations(trace) is not None)
        low, _ = lower_bound(trace, model)
        up, _ = upper_bound(trace, model, caps=SMALL_CAPS)
        assert low <= up

    @given(models_and_traces(max_events=6, max_transitions=12), st.data())
    @THEOREM_SUITE
    def test_theorem_e_monotone_under_added_uncertainty(self, model_trace, data):
        """Enlarging one event's uncertainty widens the bounds outward."""
        model, trace = model_trace
        idx = data.draw(st.integers(0, len(trace.events) - 1))
        kind = data.draw(st.sampled_from(["activity", "widen", "indeterminate"]))
        event = trace.events[idx]
        if kind == "activity":
            enlarged = UncertainEvent(
                event.id, event.activities | {"another"}, event.t_min, event.t_max, event.indeterminate
            )
        elif kind == "widen":
            enlarged = UncertainEvent(
                event.id, event.activities, event.t_min - 3, event.t_max + 3, event.indeterminate
            )
        else:
            enlarged = UncertainEvent(event.id, event.activities, event.t_min, event.t_max, True)
        grown = UncertainTrace(
            trace.case_id,
            tuple(enlarged if i == idx else e for i, e in enumerate(trace.events)),
        )
        small_set = _bounded_realizations(trace)
        big_set = _bounded_realizations(grown)
        assume(small_set is not None and big_set is not None)
        assert small_set <= big_set
        low_small, _ = lower_bound(trace, model)
        low_big, _ = lower_bound(grown, model)
        up_small, _ = upper_bound(trace, model, caps=SMALL_CAPS)
        up_big, _ = upper_bound(grown, model, caps=SMALL_CAPS)
        assert low_big <= low_small
        assert up_big >= up_small

    @given(uncertain_traces(max_events=3), uncertain_traces(max_events=3))
    @THEOREM_SUITE
    def test_theorem_f_order_axioms_and_overlap(self, t1, t2):
        """The precedence order is strict; uncomparability is interval overlap."""
        events = list(t1.events) + list(t2.events)
        for a in events:
            assert not precedes(a, a)
            for b in events:
                assert not (precedes(a, b) and precedes(b, a))
                uncomparable = not precedes(a, b) and not precedes(b, a)
                overlap = max(a.t_min, b.t_min) <= min(a.t_max, b.t_max)
                assert uncomparable == overlap
                for c in events:
                    if precedes(a, b) and precedes(b, c):
                        assert precedes(a, c)


class TestDivergenceDirection:
    def test_divergence_direction(self):
        """Bounds coincide at p=0; indeterminacy lowers the best case of a
        duplicate-heavy log at p=16%."""
        start = time.monotonic()
        spec = ExperimentSpec(
            net_sizes=(10,),
            n_traces=50,
            repetitions=3,
            ps=(0.0, 0.16),
            deviation_names=("extra",),
            uncertainty_names=("indeterminate",),
            seed="acceptance-divergence",
        )
        rows = {row["p"]: row for row in run_divergence(spec)}
        assert rows[0.0]["mean_lower"] == rows[0.0]["mean_upper"]
        assert rows[0.16]["mean_lower"] < rows[0.0]["mean_lower"]
        elapsed = time.monotonic() - start
        assert elapsed < 180.0, f"divergence experiment took {elapsed:.1f}s (budget 180s)"


class TestPerformanceOrdering:
    def test_performance_ordering(self):
        """Behavior-net lower bounds beat brute force on mean over the
        n=15..20 sweep (per-size rows stay visible in the CSV output)."""
        start = time.monotonic()
        spec = ExperimentSpec(
            net_sizes=(15, 20),
            n_traces=50,
            repetitions=3,
            ps=(0.05,),
            uncertainty_names=("all",),
            seed="acceptance-performance",
        )
        rows = run_performance(spec)
        times = {"behavior_net": [], "brute_force": []}
        for row in rows:
            assert row["mean_seconds"] != "timeout", f"brute force capped at n={row['n']}"
            times[row["method"]].append(row["mean_seconds"])
        mean_behavior = sum(times["behavior_net"]) / len(times["behavior_net"])
        mean_brute = sum(times["brute_force"]) / len(times["brute_force"])
        assert mean_behavior < mean_brute, (
            f"behavior net not faster over the sweep: {mean_behavior:.4f}s vs {mean_brute:.4f}s"
        )
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"performance experiment took {elapsed:.1f}s (budget 600s)"


class TestRealizationGrowth:
    def test_realization_growth(self):
        """Realization counts: exact at p=0, non-decreasing, multiplying in p."""
        start = time.monotonic()
        n_traces = 50
        spec = ExperimentSpec(
            net_sizes=(10,),
            n_traces=n_traces,
            repetitions=3,
            ps=(0.0, 0.04, 0.08, 0.12, 0.16),
            uncertainty_names=("all",),
            seed="acceptance-realizations",
        )
        rows = run_realizations(spec, sweep="p")
        counts = [row["mean_realizations"] for row in rows]
        assert counts[0] == n_traces
        for smaller, larger in zip(counts, counts[1:]):
            assert larger >= smaller
        for smaller, larger in zip(counts[1:], counts[2:]):
            assert larger > smaller, f"no growth between nonzero points: {counts}"
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"realization experiment took {elapsed:.1f}s (budget 120s)"
