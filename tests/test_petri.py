"""Token-game semantics, event nets, bounded language."""
import pytest
from helpers import icu_model

from uncertain_conform import (
    CapExceeded,
    Marking,
    PetriNet,
    SystemNet,
    ValidationError,
    enabled,
    event_net,
    fire,
    language,
    optimal_alignment,
    random_block_net,
)


def simple_net(arcs, labels=None, places=("p1", "p2", "p3"), transitions=("t1",)):
    return PetriNet(places, transitions, arcs, labels or {"t1": "a"})


class TestTokenGame:
    def test_enabled_single_place(self):
        net = simple_net([("p1", "t1"), ("t1", "p2")])
        assert enabled(net, Marking(["p1"]), "t1")

    def test_empty_marking_disables(self):
        net = simple_net([("p1", "t1"), ("t1", "p2")])
        assert not enabled(net, Marking(), "t1")

    def test_missing_one_input_token(self):
        net = simple_net([("p1", "t1"), ("p2", "t1"), ("t1", "p3")])
        assert not enabled(net, Marking(["p1"]), "t1")

    def test_unknown_transition(self):
        net = simple_net([("p1", "t1"), ("t1", "p2")])
        with pytest.raises(ValidationError):
            enabled(net, Marking(["p1"]), "nope")

    def test_fire_sequence_step(self):
        net = simple_net([("p1", "t1"), ("t1", "p2")])
        assert fire(net, Marking(["p1"]), "t1") == Marking(["p2"])

    def test_fire_and_split(self):
        net = simple_net([("p1", "t1"), ("t1", "p2"), ("t1", "p3")])
        assert fire(net, Marking(["p1"]), "t1") == Marking(["p2", "p3"])

    def test_fire_self_loop_conserves_token(self):
        net = simple_net([("p1", "t1"), ("t1", "p1")])
        assert fire(net, Marking(["p1"]), "t1") == Marking(["p1"])

    def test_fire_disabled_is_error(self):
        net = simple_net([("p1", "t1"), ("t1", "p2")])
        with pytest.raises(ValidationError):
            fire(net, Marking(["p2"]), "t1")

    def test_fire_does_not_mutate_input(self):
        net = simple_net([("p1", "t1"), ("t1", "p2")])
        m = Marking(["p1"])
        fire(net, m, "t1")
        assert m == Marking(["p1"])

    def test_fire_token_count_arithmetic(self):
        for seed in range(8):
            sn = random_block_net(6, f"tok{seed}")
            m = sn.initial_marking
            net = sn.net
            for t in sorted(net.transitions):
                if enabled(net, m, t):
                    m2 = fire(net, m, t)
                    assert m2.total() == m.total() - len(net.preset(t)) + len(net.postset(t))

    def test_firing_is_deterministic(self):
        net = simple_net([("p1", "t1"), ("t1", "p2"), ("t1", "p3")])
        m = Marking(["p1"])
        assert fire(net, m, "t1") == fire(net, m, "t1")


class TestNetValidation:
    def test_places_transitions_disjoint(self):
        with pytest.raises(ValidationError):
            PetriNet(["x"], ["x"], [], {})

    def test_arc_endpoints_must_exist(self):
        with pytest.raises(ValidationError):
            PetriNet(["p1"], ["t1"], [("p1", "t9")], {"t1": "a"})

    def test_arc_must_be_bipartite(self):
        with pytest.raises(ValidationError):
            PetriNet(["p1", "p2"], ["t1"], [("p1", "p2")], {"t1": "a"})

    def test_reserved_label_rejected(self):
        with pytest.raises(ValidationError):
            PetriNet(["p1", "p2"], ["t1"], [("p1", "t1"), ("t1", "p2")], {"t1": "τ"})

    def test_marking_over_unknown_place(self):
        net = simple_net([("p1", "t1"), ("t1", "p2")])
        with pytest.raises(ValidationError):
            SystemNet(net, Marking(["p1"]), Marking(["q"]))


class TestEventNet:
    def test_two_events(self):
        sn = event_net(["a", "b"])
        assert len(sn.net.places) == 3
        assert len(sn.net.transitions) == 2
        assert sorted(sn.net.labels.values()) == ["a", "b"]

    def test_single_event(self):
        sn = event_net(["a"])
        assert len(sn.net.places) == 2
        assert len(sn.net.transitions) == 1

    def test_language_is_exactly_the_trace(self):
        trace = ("a", "d", "b", "e", "h")
        assert language(event_net(trace), 5) == {trace}

    def test_empty_trace_rejected(self):
        with pytest.raises(ValidationError):
            event_net([])

    def test_language_matches_random_traces(self):
        import random

        rnd = random.Random(7)
        for _ in range(20):
            trace = tuple(rnd.choice("abcd") for _ in range(rnd.randint(1, 8)))
            assert language(event_net(trace), len(trace)) == {trace}


class TestLanguage:
    def test_too_short_to_complete(self):
        assert language(event_net(["a", "b"]), 1) == set()

    def test_zero_length(self):
        assert language(event_net(["a"]), 0) == set()

    def test_firing_cap_raises(self):
        sn = random_block_net(8, "lang-cap")
        with pytest.raises(CapExceeded):
            language(sn, 8, max_firings=3)

    def test_tau_loop_terminates(self):
        net = PetriNet(
            ["p1", "p2"],
            ["t1", "loop"],
            [("p1", "t1"), ("t1", "p2"), ("p1", "loop"), ("loop", "p1")],
            {"t1": "a"},
        )
        sn = SystemNet(net, Marking(["p1"]), Marking(["p2"]))
        assert language(sn, 2) == {("a",)}


class TestPerfectFitting:
    # A log fits a net perfectly when every trace aligns at cost 0.
    def test_icu_fitting_trace(self):
        icu = icu_model()
        trace = [
            "Access", "Triage", "Visit", "ConsultancyBegin", "R1", "R2", "R3", "R4",
            "ConsultancyEnd", "Dismissal", "Exit",
        ]
        assert optimal_alignment(trace, icu).cost == 0

    def test_single_trace_fits_its_event_net(self):
        assert optimal_alignment(["a"], event_net(["a"])).cost == 0

    def test_wrong_label_does_not_fit(self):
        assert optimal_alignment(["b"], event_net(["a"])).cost > 0


class TestMarking:
    def test_counts_and_total(self):
        m = Marking({"p1": 2, "p2": 1})
        assert m["p1"] == 2 and m["p3"] == 0
        assert m.total() == 3

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            Marking({"p1": -1})

    def test_equality_ignores_zero_entries(self):
        assert Marking({"p1": 1, "p2": 0}) == Marking(["p1"])
        assert hash(Marking({"p1": 1, "p2": 0})) == hash(Marking(["p1"]))

    def test_immutable(self):
        m = Marking(["p1"])
        with pytest.raises(AttributeError):
            m.counts = {}
