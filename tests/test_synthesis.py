"""Synthetic pipeline: block nets, play-out, deviation and uncertainty injection."""
import pytest

from uncertain_conform import (
    DeviationConfig,
    TimedEvent,
    TimedTrace,
    UncertaintyConfig,
    ValidationError,
    count_realizations,
    deviate,
    event_net,
    language,
    optimal_alignment,
    order_realizations,
    playout,
    random_block_net,
    realizations,
    save_net,
    uncertainize,
)
from uncertain_conform.align import reachability_graph
from uncertain_conform.synthesis import NS_PER_MINUTE, PLAYOUT_ORIGIN_NS, generate


def minute(i: int) -> int:
    return PLAYOUT_ORIGIN_NS + i * NS_PER_MINUTE


def timed(case_id: str, labels: list[str]) -> TimedTrace:
    return TimedTrace(case_id, tuple(TimedEvent(a, minute(i)) for i, a in enumerate(labels)))


class TestRandomBlockNet:
    def test_single_transition(self):
        sn = random_block_net(1, "one")
        assert len(sn.net.labels) == 1
        assert language(sn, 1) == {("a00",)}

    def test_deterministic_and_nonempty_language(self):
        a = random_block_net(10, "fixed")
        b = random_block_net(10, "fixed")
        assert save_net(a) == save_net(b)
        assert language(a, 10, max_firings=500_000)

    def test_exact_visible_transition_count(self):
        for n in (1, 2, 5, 10, 13):
            sn = random_block_net(n, f"count{n}")
            assert len(sn.net.labels) == n
            assert len(set(sn.net.labels.values())) == n

    def test_acyclic_state_space(self):
        for seed in range(6):
            sn = random_block_net(9, f"acyc{seed}")
            assert not reachability_graph(sn).cyclic

    def test_single_entry_and_exit(self):
        sn = random_block_net(7, "io")
        assert sn.initial_marking.total() == 1
        assert sn.final_marking.total() == 1

    def test_playout_traces_fit_generated_net(self):
        for seed in range(5):
            sn = random_block_net(8, f"sound{seed}")
            log = playout(sn, 5, f"sound{seed}")
            assert all(optimal_alignment(t.activities(), sn).cost == 0 for t in log)

    def test_size_zero_rejected(self):
        with pytest.raises(ValidationError):
            random_block_net(0, "zero")


class TestPlayout:
    def test_sequence_model_gives_copies(self):
        log = playout(event_net(["a", "b"]), 3, "po")
        assert [t.activities() for t in log] == [("a", "b")] * 3

    def test_xor_block_covers_both_variants(self):
        net = random_block_net(2, "xor-hunt")
        # find a seed whose 2-transition net is an exclusive choice
        seed = "xor-hunt"
        for candidate in range(50):
            net = random_block_net(2, f"xor{candidate}")
            if language(net, 2) == {("a00",), ("a01",)}:
                seed = f"xor{candidate}"
                break
        else:
            pytest.fail("no XOR net found in 50 seeds")
        variants = {t.activities() for t in playout(net, 40, seed)}
        assert variants == {("a00",), ("a01",)}

    def test_timestamps_one_minute_apart(self):
        log = playout(event_net(["a", "b", "c"]), 1, "ts")
        stamps = [e.timestamp for e in log[0].events]
        assert stamps == [minute(0), minute(1), minute(2)]

    def test_case_ids_unique(self):
        log = playout(event_net(["a"]), 5, "ids")
        assert len({t.case_id for t in log}) == 5


class TestConfigs:
    @pytest.mark.parametrize("field", ["activity", "swap", "duplicate"])
    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan")])
    def test_deviation_fraction_outside_unit_interval_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"deviation fraction {field} must be in"):
            DeviationConfig(**{field: value})

    @pytest.mark.parametrize("field", ["activity", "timestamp", "indeterminacy"])
    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan")])
    def test_uncertainty_fraction_outside_unit_interval_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"uncertainty fraction {field} must be in"):
            UncertaintyConfig(**{field: value})

    def test_unit_interval_ends_accepted(self):
        assert DeviationConfig(0.0, 1.0, 0.0) and UncertaintyConfig(1.0, 0.0, 1.0)


class TestDeviate:
    def test_zero_config_is_identity(self):
        log = [timed("c0", ["a", "b", "c"])]
        assert deviate(log, DeviationConfig(), ["a", "b", "c"], "s") == log

    def test_full_duplication(self):
        log = [timed("c0", ["a", "b"])]
        out = deviate(log, DeviationConfig(duplicate=1.0), ["a", "b"], "s")[0]
        assert out.activities() == ("a", "a", "b", "b")
        stamps = [e.timestamp for e in out.events]
        assert stamps == sorted(stamps) and len(set(stamps)) == 4

    def test_full_swap_on_pair(self):
        log = [timed("c0", ["a", "b"])]
        out = deviate(log, DeviationConfig(swap=1.0), ["a", "b"], "s")[0]
        assert out.activities() == ("b", "a")
        assert [e.timestamp for e in out.events] == [minute(0), minute(1)]

    def test_label_alteration_changes_labels(self):
        log = [timed("c0", ["a", "a", "a", "a"])]
        out = deviate(log, DeviationConfig(activity=1.0), ["a", "b", "c"], "s")[0]
        assert all(e.activity != "a" for e in out.events)

    def test_label_alteration_needs_two_labels(self):
        with pytest.raises(ValidationError):
            deviate([timed("c0", ["a"])], DeviationConfig(activity=0.5), ["a"], "s")

    def test_trace_count_preserved_and_only_duplication_grows(self):
        log = [timed(f"c{i}", ["a", "b", "c"]) for i in range(4)]
        out = deviate(log, DeviationConfig(activity=0.5, swap=0.5), ["a", "b", "c"], "s")
        assert len(out) == len(log)
        assert all(len(t.events) == 3 for t in out)

    def test_deterministic(self):
        log = [timed("c0", ["a", "b", "c", "d"])]
        cfg = DeviationConfig(0.4, 0.4, 0.4)
        assert deviate(log, cfg, list("abcd"), "same") == deviate(log, cfg, list("abcd"), "same")


class TestUncertainize:
    def test_zero_config_all_certain(self):
        log = [timed(f"c{i}", ["a", "b", "c"]) for i in range(3)]
        out = uncertainize(log, UncertaintyConfig(), ["a", "b", "c"], "s")
        assert all(e.is_certain for t in out for e in t.events)
        assert count_realizations(out) == len(out.traces)

    def test_full_activity_uncertainty(self):
        log = [timed("c0", ["a", "b"])]
        out = uncertainize(log, UncertaintyConfig(activity=1.0), ["a", "b", "c"], "s")
        assert all(len(e.activities) == 2 for e in out.traces[0].events)

    def test_full_timestamp_uncertainty_creates_orderings(self):
        log = [timed("c0", ["a", "b", "c"])]
        out = uncertainize(log, UncertaintyConfig(timestamp=1.0), ["a", "b", "c"], "s")
        trace = out.traces[0]
        assert len(order_realizations(trace)) > 1
        assert all(e.t_min <= e.t_max for e in trace.events)

    def test_activity_uncertainty_needs_two_labels(self):
        log = [timed("c0", ["a", "a"])]
        with pytest.raises(ValidationError, match="activity uncertainty needs an activity universe of at least 2"):
            uncertainize(log, UncertaintyConfig(activity=0.5), ["a", "a"], "s")
        out = uncertainize(log, UncertaintyConfig(activity=1.0), ["a", "b"], "s")
        assert all(e.activities == {"a", "b"} for e in out.traces[0].events)

    def test_indeterminacy_flag(self):
        log = [timed("c0", ["a", "b"])]
        out = uncertainize(log, UncertaintyConfig(indeterminacy=1.0), ["a", "b"], "s")
        assert all(e.indeterminate for e in out.traces[0].events)

    def test_monotone_growth_in_p(self):
        log = [timed(f"c{i}", ["a", "b", "c", "d", "e"]) for i in range(6)]
        universe = list("abcdefg")
        previous = None
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            cfg = UncertaintyConfig(activity=p, timestamp=p, indeterminacy=p)
            sets = [realizations(t) for t in uncertainize(log, cfg, universe, "mono")]
            if previous is not None:
                for small, big in zip(previous, sets):
                    assert small <= big
            previous = sets

    def test_event_count_and_ids(self):
        log = [timed("c0", ["a", "b"]), timed("c1", ["a"])]
        out = uncertainize(log, UncertaintyConfig(0.5, 0.5, 0.5), ["a", "b"], "s")
        assert [len(t.events) for t in out.traces] == [2, 1]
        assert {e.id for t in out for e in t.events} == {"c0-e1", "c0-e2", "c1-e1"}

    def test_deterministic(self):
        log = [timed("c0", ["a", "b", "c"])]
        cfg = UncertaintyConfig(0.4, 0.4, 0.4)
        assert uncertainize(log, cfg, list("abc"), "x") == uncertainize(log, cfg, list("abc"), "x")


class TestPipelineIntegration:
    def test_deviated_log_costs_more(self):
        sn = random_block_net(8, "pipe")
        log = playout(sn, 12, "pipe")
        universe = sorted(sn.net.labels.values())
        noisy = deviate(log, DeviationConfig(activity=0.5), universe, "pipe")
        total = sum(optimal_alignment(list(t.activities()), sn).cost for t in noisy)
        assert total > 0


class TestGenerate:
    def test_is_the_four_steps_on_one_seed(self):
        deviation, uncertainty = DeviationConfig(0.2, 0.2, 0.2), UncertaintyConfig(0.3, 0.3, 0.3)
        model, log = generate(7, 10, deviation, uncertainty, "g")
        sn = random_block_net(7, "g")
        universe = sorted(sn.net.labels.values())
        steps = uncertainize(deviate(playout(sn, 10, "g"), deviation, universe, "g"), uncertainty, universe, "g")
        assert save_net(model) == save_net(sn)
        assert log == steps

    def test_one_label_net_takes_no_activity_uncertainty(self):
        generate(1, 3, DeviationConfig(), UncertaintyConfig(timestamp=1.0), "g")
        with pytest.raises(ValidationError, match="activity uncertainty"):
            generate(1, 3, DeviationConfig(), UncertaintyConfig(activity=0.1), "g")
