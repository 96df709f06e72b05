"""One `uncertain-conform bounds` pass, run in a fresh process by run.py.

    python3 bench/child.py timed|traced LOG NET CSV RESULT_JSON

The pass is the CLI's own ``main``; the only addition is a wrapper on the
``log_bounds`` it calls, which first runs ``prepare_model`` so that set-up
ends at a known instant (the same work ``log_bounds`` would do first).
A traced pass also wraps the public functions of each layer on the bounds
path, replacing module attributes at run time, and records a span (name,
start, end, parent) per call plus counts at the same boundaries. Spans stay
in memory; their self times and the counts are written to RESULT_JSON when
the pass ends.
"""
from __future__ import annotations

import faulthandler
import json
import sys
import time

faulthandler.dump_traceback_later(170, exit=True)

from uncertain_conform import align, behavior, cli  # noqa: E402


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str, fn, *args, **kwargs):
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(i)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[i][2] = time.perf_counter()

    def wrapped(self, fn, name: str | None, after=None):
        """``fn`` inside a span called ``name`` (none if None), then ``after(result, *args)``."""

        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs) if name else fn(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str | None, after=None) -> None:
        """Replace ``owner.attr`` by its wrapped form; a missing attribute is left alone."""
        real = getattr(owner, attr, None)
        if real is not None:
            setattr(owner, attr, self.wrapped(real, name, after))

    def self_times(self) -> dict[str, float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out: dict[str, float] = {}
        for (name, *_), t in zip(self.spans, own):
            out[name] = out.get(name, 0.0) + t
        return out


def install(tracer: Tracer) -> None:
    behavior_nets: set[int] = set()

    def count_events(log, *_):
        tracer.add("log_io.events", sum(len(t) for t in log))

    def remember_behavior_net(sn, *_):
        behavior_nets.add(id(sn))

    def count_states(rg, sn, *_):
        if id(sn) in behavior_nets:
            behavior_nets.discard(id(sn))
            tracer.add("behavior.net_states", rg.n)
            tracer.add("align.product_cells", rg.n * tracer.counts["align.model_states"])

    def prepared(_, model, *args):
        tracer.add("align.model_states", align.reachability_graph(model).n)

    tracer.patch(cli, "load_log", "log_io.load_log", count_events)
    tracer.patch(cli, "load_net", "log_io.load_net")
    tracer.patch(align, "prepare_model", "align.prepare_model", prepared)
    tracer.patch(align, "lower_bound", "align.lower_bound")
    tracer.patch(align, "behavior_net", "behavior.behavior_net", remember_behavior_net)
    tracer.patch(behavior, "behavior_graph", "behavior.behavior_graph")
    tracer.patch(align, "reachability_graph", None, count_states)
    tracer.patch(align, "_sequence_cost", None, lambda *_: tracer.add("align.sequence_costs", 1))
    tracer.patch(align, "optimal_alignment", "align.optimal_alignment")
    real_iter = getattr(align, "iter_realizations", None)
    if real_iter is not None:
        # log_bounds lists the realizations at once; listing them inside the
        # span keeps the whole enumeration in it.
        listed = tracer.wrapped(
            lambda *args, **kwargs: list(real_iter(*args, **kwargs)),
            "events.iter_realizations",
            lambda items, *_: tracer.add("events.realizations", len(items)),
        )
        align.iter_realizations = lambda *args, **kwargs: iter(listed(*args, **kwargs))


def main(argv: list[str]) -> int:
    mode, log_path, net_path, csv_path, result_path = argv
    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        install(tracer)
    marks: dict = {}
    real_log_bounds = cli.log_bounds

    def log_bounds(log, model, *args, **kwargs):
        align.prepare_model(model, *args[:1])
        marks["setup"] = time.monotonic()
        if tracer is None:
            result = real_log_bounds(log, model, *args, **kwargs)
        else:
            result = tracer.call("align.log_bounds", real_log_bounds, log, model, *args, **kwargs)
        marks["traces"] = len(result.reports)
        return result

    cli.log_bounds = log_bounds
    bounds = ["bounds", "--log", log_path, "--net", net_path, "--out", csv_path]
    marks["exit"] = tracer.call("cli.bounds", cli.main, bounds) if tracer else cli.main(bounds)
    marks["end"] = time.monotonic()
    if tracer is not None:
        marks["self_s"] = tracer.self_times()
        marks["counts"] = tracer.counts
        starts = [s for name, s, _, _ in tracer.spans if name == "align.lower_bound"]
        ends = [e for name, _, e, _ in tracer.spans if name == "align.log_bounds"]
        marks["trace_s"] = [b - a for a, b in zip(starts, starts[1:] + ends[-1:])]
        marks["root_s"] = sum(e - s for name, s, e, p in tracer.spans if p is None)
    with open(result_path, "w", encoding="utf-8") as out:
        json.dump(marks, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
