"""Experiment drivers: spec checks, uncertainty kinds, sweeps and the brute-force timeout row."""
import pytest

from uncertain_conform import UncertaintyConfig, ValidationError
from uncertain_conform.events import CAP_ENV_VAR
from uncertain_conform.experiments import ExperimentSpec, run_performance, run_realizations, uncertainty_config


def small_spec(**knobs) -> ExperimentSpec:
    return ExperimentSpec(**{"net_sizes": (4,), "n_traces": 5, "repetitions": 2, "seed": "x", **knobs})


class TestUncertaintyConfig:
    @pytest.mark.parametrize("kind, expected", [
        ("activities", UncertaintyConfig(activity=0.3)),
        ("timestamps", UncertaintyConfig(timestamp=0.3)),
        ("indeterminate", UncertaintyConfig(indeterminacy=0.3)),
        ("all", UncertaintyConfig(activity=0.3, timestamp=0.3, indeterminacy=0.3)),
    ])
    def test_kind_sets_its_fractions(self, kind, expected):
        assert uncertainty_config(kind, 0.3) == expected

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown uncertainty kind 'labels'"):
            uncertainty_config("labels", 0.3)


class TestExperimentSpec:
    @pytest.mark.parametrize("knobs, message", [
        ({"repetitions": 0}, "repetitions must be at least 1"),
        ({"ps": (0.0, 1.5)}, r"p values must be in \[0, 1\]"),
        ({"deviation_names": ("extra", "noise")}, "unknown deviation preset 'noise'"),
        ({"uncertainty_names": ("labels",)}, "unknown uncertainty kind 'labels'"),
    ], ids=["repetitions", "p", "deviation", "uncertainty"])
    def test_invalid_knob_rejected(self, knobs, message):
        with pytest.raises(ValidationError, match=message):
            ExperimentSpec(**knobs)


class TestRunRealizations:
    def test_size_sweep_reads_the_first_p(self):
        rows = run_realizations(small_spec(net_sizes=(4, 6), ps=(0.0, 0.5)), sweep="size")
        assert rows == [{"x": 4, "mean_realizations": 5}, {"x": 6, "mean_realizations": 5}]

    def test_both_sweeps_share_their_cells(self):
        # The cell seed leaves out p and the sweep, so one (size, p) point is one count either way.
        by_p = run_realizations(small_spec(ps=(0.4,), uncertainty_names=("all",)), sweep="p")
        by_size = run_realizations(small_spec(ps=(0.4,), uncertainty_names=("all",)), sweep="size")
        assert by_p[0]["mean_realizations"] == by_size[0]["mean_realizations"] > 5

    def test_reads_the_first_uncertainty_kind(self):
        def count(*kinds):
            return run_realizations(small_spec(ps=(0.4,), uncertainty_names=kinds))[0]["mean_realizations"]

        assert count("indeterminate", "all") == count("indeterminate") != count("all", "indeterminate")

    def test_unknown_sweep_rejected(self):
        with pytest.raises(ValidationError, match="unknown sweep 'n'"):
            run_realizations(small_spec(), sweep="n")


class TestRunPerformance:
    def test_brute_force_cap_gives_a_timeout_row(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "1,1")
        rows = run_performance(small_spec(ps=(0.5, 0.0), uncertainty_names=("activities",)))
        assert [(row["n"], row["method"]) for row in rows] == [(4, "behavior_net"), (4, "brute_force")]
        assert rows[0]["mean_seconds"] >= 0
        assert rows[1]["mean_seconds"] == "timeout"

    def test_certain_log_fits_the_cap(self, monkeypatch):
        # At p = ps[0] = 0 every trace has one realization, so a cap of one is never reached.
        monkeypatch.setenv(CAP_ENV_VAR, "1,1")
        rows = run_performance(small_spec(ps=(0.0, 0.5), uncertainty_names=("activities",)))
        assert all(row["mean_seconds"] >= 0 for row in rows)
