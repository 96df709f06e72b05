"""Command-line interface.

Subcommands: bounds, gen, exp-divergence, exp-performance, exp-realizations.
All output is CSV (stdout or --out). Exit codes: 0 success, 1 input error,
2 enumeration/resource cap. Only ``bounds`` runs at start-up: ``gen`` and the
experiments import ``synthesis`` and ``experiments`` when they run.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path

from .align import STANDARD_COST, log_bounds
from .errors import CapExceeded, ValidationError
from .events import EnumerationCaps
from .log_io import load_log, load_net, save_log, save_net

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2

#: ``sorted(experiments.DEVIATION_PRESETS)`` and ``experiments.UNCERTAINTY_KINDS``,
#: spelled out so that building the parser does not import the experiments.
DEVIATION_NAMES = ["activity", "all", "extra", "none", "swaps"]
UNCERTAINTY_NAMES = ["activities", "timestamps", "indeterminate", "all"]


def _write_csv(header: list[str], rows: Iterable[Sequence], out: str | None) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write(buffer.getvalue(), out)


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_list(text: str, flag: str, kind: type, n: int | None = None) -> tuple:
    """The comma-separated values of ``flag``, each read by ``kind``; exactly ``n`` of them unless ``n`` is None."""
    parts = text.split(",")
    if n is not None and len(parts) != n:
        raise ValidationError(f"{flag} expects {n} comma-separated fractions, got {text!r}")
    try:
        return tuple(kind(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"{flag}: {exc}") from exc


def cmd_bounds(args) -> int:
    caps = EnumerationCaps.from_env()
    log = load_log(args.log, format=args.format)
    model = load_net(args.net)
    result = log_bounds(log, model, STANDARD_COST, caps, witnesses=args.json)
    exit_code = EXIT_CAP if any(r.error is not None for r in result.reports) else EXIT_OK
    if args.json:
        doc = {
            "reports": [r.as_dict() for r in result.reports],
            "total_lower": result.total_lower,
            "total_upper": result.total_upper,
        }
        _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
        return exit_code
    # A capped report leaves its missing fields None; they print as "capped".
    rows = [
        [r.case_id, *("capped" if v is None else v for v in (r.lower_cost, r.upper_cost, r.realization_count))]
        for r in result.reports
    ]
    rows.append(["total", result.total_lower, result.total_upper, ""])
    _write_csv(["case_id", "lower_cost", "upper_cost", "realization_count"], rows, args.out)
    return exit_code


def cmd_gen(args) -> int:
    from .synthesis import DeviationConfig, UncertaintyConfig, generate

    deviation = _parse_list(args.deviation, "--deviation", float, 3)
    uncertainty = _parse_list(args.uncertainty, "--uncertainty", float, 3)
    model, log = generate(args.net_size, args.traces, DeviationConfig(*deviation), UncertaintyConfig(*uncertainty), args.seed)
    Path(args.out_net).write_bytes(save_net(model))
    Path(args.out_log).write_bytes(save_log(log, format="json"))
    return EXIT_OK


def _experiment(args, run, fields: list[str], **knobs) -> int:
    """Write the CSV of ``run`` on the spec of ``knobs`` and the shared ``exp-*`` flags."""
    from .experiments import ExperimentSpec

    spec = ExperimentSpec(n_traces=args.traces, repetitions=args.reps, seed=str(args.seed), **knobs)
    _write_csv(fields, ([row[f] for f in fields] for row in run(spec)), args.out)
    return EXIT_OK


def cmd_exp_divergence(args) -> int:
    from .experiments import run_divergence

    return _experiment(
        args, run_divergence, ["p", "deviation_config", "uncertainty_config", "mean_lower", "mean_upper"],
        net_sizes=(args.net_size,),
        ps=_parse_list(args.ps, "--ps", float),
        deviation_names=tuple(args.deviation_config or ["extra"]),
        uncertainty_names=tuple(args.uncertainty_config or ["indeterminate"]),
    )


def cmd_exp_performance(args) -> int:
    from .experiments import run_performance

    def run(spec):
        rows = run_performance(spec)
        for row in rows:
            if row["mean_seconds"] != "timeout":
                row["mean_seconds"] = f"{row['mean_seconds']:.6f}"
        return rows

    return _experiment(
        args, run, ["n", "method", "mean_seconds"],
        net_sizes=_parse_list(args.sizes, "--sizes", int), ps=(args.p,), uncertainty_names=(args.uncertainty_config,),
    )


def cmd_exp_realizations(args) -> int:
    from .experiments import run_realizations

    return _experiment(
        args, lambda spec: run_realizations(spec, args.sweep), ["x", "mean_realizations"],
        net_sizes=_parse_list(args.sizes, "--sizes", int),
        ps=_parse_list(args.ps, "--ps", float),
        uncertainty_names=(args.uncertainty_config,),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uncertain-conform",
        description="Conformance bounds for event logs with explicit uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="lower/upper conformance bounds per trace")
    p_bounds.add_argument("--log", required=True, help="uncertain log file")
    p_bounds.add_argument("--net", required=True, help="model net (JSON)")
    p_bounds.add_argument("--format", choices=["json", "xes"], default="json", help="log format")
    p_bounds.add_argument("--out", help="CSV output path (default: stdout)")
    p_bounds.add_argument("--json", action="store_true", help="emit full reports as JSON instead of CSV")
    p_bounds.set_defaults(func=cmd_bounds)

    p_gen = sub.add_parser("gen", help="generate a synthetic net and uncertain log")
    p_gen.add_argument("--net-size", type=int, default=10)
    p_gen.add_argument("--traces", type=int, default=50)
    p_gen.add_argument("--deviation", default="0,0,0", help="d_activity,d_swap,d_duplicate")
    p_gen.add_argument("--uncertainty", default="0,0,0", help="u_activity,u_timestamp,u_indeterminacy")
    p_gen.add_argument("--seed", default="0")
    p_gen.add_argument("--out-log", required=True)
    p_gen.add_argument("--out-net", required=True)
    p_gen.set_defaults(func=cmd_gen)

    # The flags every experiment takes; they fill ExperimentSpec's n_traces, repetitions and seed.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--traces", type=int, default=50)
    shared.add_argument("--reps", type=int, default=3)
    shared.add_argument("--seed", default="0")
    shared.add_argument("--out", help="CSV output path (default: stdout)")

    p_div = sub.add_parser("exp-divergence", parents=[shared], help="bound divergence as uncertainty grows")
    p_div.add_argument("--net-size", type=int, default=10)
    p_div.add_argument("--ps", default="0,0.04,0.08,0.12,0.16")
    p_div.add_argument(
        "--deviation-config", action="append", choices=DEVIATION_NAMES,
        help="repeatable; default: extra",
    )
    p_div.add_argument(
        "--uncertainty-config", action="append", choices=UNCERTAINTY_NAMES,
        help="repeatable; default: indeterminate",
    )
    p_div.set_defaults(func=cmd_exp_divergence)

    p_perf = sub.add_parser(
        "exp-performance", parents=[shared], help="one-search (method behavior_net) vs brute-force lower bound timing"
    )
    p_perf.add_argument("--sizes", default="5,10,15,20")
    p_perf.add_argument("--p", type=float, default=0.05)
    p_perf.add_argument("--uncertainty-config", choices=UNCERTAINTY_NAMES, default="all")
    p_perf.set_defaults(func=cmd_exp_performance)

    p_real = sub.add_parser("exp-realizations", parents=[shared], help="realization counts vs p or net size")
    p_real.add_argument("--sweep", choices=["p", "size"], default="p")
    p_real.add_argument("--sizes", default="10")
    p_real.add_argument("--ps", default="0,0.04,0.08,0.12,0.16")
    p_real.add_argument("--uncertainty-config", choices=UNCERTAINTY_NAMES, default="all")
    p_real.set_defaults(func=cmd_exp_realizations)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
