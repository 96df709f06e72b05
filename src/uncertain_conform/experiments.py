"""Desk-scale experiment drivers: bound divergence, method timing, realization growth.

Each experiment cell derives its randomness from (seed, cell coordinates), so
reruns are reproducible and sweeping the uncertainty probability p never
changes the underlying nets or play-out logs, only how much uncertainty is
injected into them.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import mean

from .align import STANDARD_COST, lower_bound, lower_bound_bruteforce, log_bounds, prepare_model
from .errors import CapExceeded, ValidationError
from .events import count_realizations
from .synthesis import DeviationConfig, UncertaintyConfig, generate

#: Named deviation presets (30% per affected kind, matching the experiment setup).
DEVIATION_PRESETS: dict[str, DeviationConfig] = {
    "none": DeviationConfig(),
    "activity": DeviationConfig(activity=0.3),
    "swaps": DeviationConfig(swap=0.3),
    "extra": DeviationConfig(duplicate=0.3),
    "all": DeviationConfig(activity=0.3, swap=0.3, duplicate=0.3),
}

UNCERTAINTY_KINDS = ("activities", "timestamps", "indeterminate", "all")


def uncertainty_config(kind: str, p: float) -> UncertaintyConfig:
    if kind == "activities":
        return UncertaintyConfig(activity=p)
    if kind == "timestamps":
        return UncertaintyConfig(timestamp=p)
    if kind == "indeterminate":
        return UncertaintyConfig(indeterminacy=p)
    if kind == "all":
        return UncertaintyConfig(activity=p, timestamp=p, indeterminacy=p)
    raise ValidationError(f"unknown uncertainty kind {kind!r} (expected one of {UNCERTAINTY_KINDS})")


@dataclass(frozen=True)
class ExperimentSpec:
    """Shared knobs for the three experiments.

    All three read ``n_traces``, ``repetitions`` and ``seed``.
    ``run_divergence`` sweeps ``deviation_names`` × ``uncertainty_names`` ×
    ``ps`` at ``net_sizes[0]``. ``run_performance`` sweeps ``net_sizes`` at
    ``ps[0]`` and ``uncertainty_names[0]``, without deviations.
    ``run_realizations`` reads ``uncertainty_names[0]``, without deviations,
    and sweeps ``ps`` at ``net_sizes[0]`` or ``net_sizes`` at ``ps[0]``.
    """

    net_sizes: tuple[int, ...] = (10,)
    n_traces: int = 50
    repetitions: int = 3
    ps: tuple[float, ...] = (0.0, 0.04, 0.08, 0.12, 0.16)
    deviation_names: tuple[str, ...] = ("extra",)
    uncertainty_names: tuple[str, ...] = ("indeterminate",)
    seed: str = "0"

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValidationError("repetitions must be at least 1")
        if any(not 0.0 <= p <= 1.0 for p in self.ps):
            raise ValidationError("p values must be in [0, 1]")
        for name in self.deviation_names:
            if name not in DEVIATION_PRESETS:
                raise ValidationError(f"unknown deviation preset {name!r} (expected one of {sorted(DEVIATION_PRESETS)})")
        for name in self.uncertainty_names:
            if name not in UNCERTAINTY_KINDS:
                raise ValidationError(f"unknown uncertainty kind {name!r} (expected one of {UNCERTAINTY_KINDS})")


def _cell(spec: ExperimentSpec, size: int, deviation_name: str, uncertainty_name: str, p: float, rep: int):
    """Net and uncertain log of one cell. The seed leaves out p, so sweeping p keeps the net and play-out."""
    cell_seed = f"{spec.seed}|{size}|{deviation_name}|{rep}"
    return generate(
        size, spec.n_traces, DEVIATION_PRESETS[deviation_name], uncertainty_config(uncertainty_name, p), cell_seed
    )


def run_divergence(spec: ExperimentSpec) -> list[dict]:
    """Mean lower/upper bound per (deviation, uncertainty, p) cell.

    Rows: p, deviation_config, uncertainty_config, mean_lower, mean_upper.
    Capped traces are skipped inside a repetition; a fully capped cell fails.
    """
    rows = []
    for deviation_name in spec.deviation_names:
        for uncertainty_name in spec.uncertainty_names:
            for p in spec.ps:
                lowers: list[float] = []
                uppers: list[float] = []
                for rep in range(spec.repetitions):
                    model, uncertain = _cell(spec, spec.net_sizes[0], deviation_name, uncertainty_name, p, rep)
                    result = log_bounds(uncertain, model, STANDARD_COST, witnesses=False)
                    done = [r for r in result.reports if r.error is None]
                    if not done:
                        raise CapExceeded(
                            f"divergence cell (dev={deviation_name}, unc={uncertainty_name}, p={p}, rep={rep}):"
                            " every trace hit an enumeration cap"
                        )
                    lowers.extend(r.lower_cost for r in done)
                    uppers.extend(r.upper_cost for r in done)
                rows.append(
                    {
                        "p": p,
                        "deviation_config": deviation_name,
                        "uncertainty_config": uncertainty_name,
                        "mean_lower": mean(lowers),
                        "mean_upper": mean(uppers),
                    }
                )
    return rows


def run_performance(spec: ExperimentSpec) -> list[dict]:
    """Wall-clock comparison of the one-search and brute-force lower bounds.

    The one search runs over the behavior net's state space (the lattice of
    order ideals); its rows keep the method name ``behavior_net``. Both
    methods compute the cost alone, without a witness. Rows: n, method in
    {behavior_net, brute_force}, mean_seconds (per trace, averaged over
    repetitions). Costs must agree on every trace; a brute-force cap marks
    the row "timeout" instead of aborting.
    """
    rows = []
    for size in spec.net_sizes:
        behavior_times: list[float] = []
        brute_times: list[float] = []
        timed_out = False
        for rep in range(spec.repetitions):
            model, uncertain = _cell(spec, size, "none", spec.uncertainty_names[0], spec.ps[0], rep)
            prepare_model(model, STANDARD_COST)  # shared precomputation outside both clocks
            for trace in uncertain:
                start = time.perf_counter()
                behavior_cost, _ = lower_bound(trace, model, STANDARD_COST, witness=False)
                behavior_times.append(time.perf_counter() - start)
                try:
                    start = time.perf_counter()
                    brute_cost = lower_bound_bruteforce(trace, model, STANDARD_COST)
                    brute_times.append(time.perf_counter() - start)
                except CapExceeded:
                    timed_out = True
                    continue
                if brute_cost != behavior_cost:
                    raise RuntimeError(
                        f"method disagreement on case {trace.case_id!r} (n={size}, rep={rep}):"
                        f" behavior net {behavior_cost}, brute force {brute_cost}"
                    )
        rows.append({"n": size, "method": "behavior_net", "mean_seconds": mean(behavior_times)})
        rows.append({"n": size, "method": "brute_force", "mean_seconds": "timeout" if timed_out else mean(brute_times)})
    return rows


def run_realizations(spec: ExperimentSpec, sweep: str = "p") -> list[dict]:
    """Total realization count per log, averaged over repetitions.

    Rows: x, mean_realizations, where x sweeps p (at the first net size) or
    the net size (at the first p value).
    """
    if sweep == "p":
        points = [(spec.net_sizes[0], p) for p in spec.ps]
    elif sweep == "size":
        points = [(size, spec.ps[0]) for size in spec.net_sizes]
    else:
        raise ValidationError(f"unknown sweep {sweep!r} (expected 'p' or 'size')")

    rows = []
    for size, p in points:
        counts: list[int] = []
        for rep in range(spec.repetitions):
            _, uncertain = _cell(spec, size, "none", spec.uncertainty_names[0], p, rep)
            counts.append(count_realizations(uncertain))
        rows.append({"x": p if sweep == "p" else size, "mean_realizations": mean(counts)})
    return rows
