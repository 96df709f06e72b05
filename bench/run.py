"""Benchmark of `uncertain-conform bounds`, end to end and per layer.

    python3 bench/run.py --workload many-small|wide-uncertain|large-model \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. One run:

1. checks the committed inputs against ``inputs/SHA256SUMS`` and makes the
   workload's log from ``--seed`` (see gen.py);
2. runs the CLI on the ICU fixtures and checks the paper's bounds;
3. runs `bounds --json` once on the workload, untimed: its reports, with
   both witnesses per trace, are the reference, and the pass warms the
   file caches;
4. runs timed passes, one fresh process at a time, for ``--seconds``
   (at least three), each reporting wall time, set-up time, traces per
   second and its own peak RSS and rusage (``os.wait4``);
5. with ``--trace 1``, runs one traced pass (child.py) that records spans
   and counts per layer;
6. checks that every pass wrote the same CSV, that it agrees with the
   reference reports, and the reports against the independent computation
   in check.py;
7. prints one JSON line: the end-to-end metrics (medians over the timed
   passes) with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Any failed check exits 1 without printing a result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3
ICU_BOUNDS = {"table6": ("0", "2"), "table7": ("0", "6")}
MiB = 2**20


class BenchError(Exception):
    """The program could not be run as the benchmark needs."""


def _env() -> dict:
    env = dict(os.environ)
    env.pop("UNCERTAIN_CONFORM_CAP", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(argv: list[str], workdir: Path):
    """Run one child to its end; return (exit code, its own rusage, start instant)."""
    with open(workdir / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, start


def _fail(what: str, code: int, workdir: Path) -> BenchError:
    tail = (workdir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-5:]
    return BenchError(f"{what} exited {code}: " + " | ".join(tail))


def cli_bounds(log: Path, net: Path, workdir: Path, *flags: str) -> bytes:
    """Output of `uncertain-conform bounds` itself on the given files."""
    out = workdir / "cli.out"
    argv = ["-m", "uncertain_conform.cli", "bounds", "--log", str(log), "--net", str(net), "--out", str(out), *flags]
    code, _, _ = _spawn(argv, workdir)
    if code not in (0, 2):
        raise _fail("uncertain-conform bounds", code, workdir)
    return out.read_bytes()


def run_pass(mode: str, log: Path, net: Path, workdir: Path) -> dict:
    csv, result = workdir / "pass.csv", workdir / "pass.json"
    code, usage, start = _spawn([str(BENCH / "child.py"), mode, str(log), str(net), str(csv), str(result)], workdir)
    if code != 0:
        raise _fail(f"{mode} pass", code, workdir)
    marks = json.loads(result.read_text())
    if marks["exit"] not in (0, 2):
        raise _fail(f"bounds in a {mode} pass", marks["exit"], workdir)
    if "setup" not in marks:
        raise BenchError(f"the {mode} pass never called log_bounds through the cli module")
    marks.update(
        csv=csv.read_bytes(),
        wall_s=marks["end"] - start,
        setup_s=marks["setup"] - start,
        traces_per_s=marks["traces"] / (marks["end"] - marks["setup"]),
        peak_rss_mb=usage.ru_maxrss * 1024 / MiB,
        sys_s=usage.ru_stime,
        minor_faults=usage.ru_minflt,
    )
    return marks


def check_icu(workdir: Path) -> None:
    """The CLI gives the paper's bounds on the ICU fixtures."""
    csv = cli_bounds(gen.INPUTS / "icu_log.json", gen.INPUTS / "icu_net.json", workdir)
    rows, _ = check.parse_bounds_csv(csv.decode())
    for case, expected in ICU_BOUNDS.items():
        if rows[case][:2] != expected:
            raise check.CheckFailed(f"ICU {case}: bounds {rows[case][:2]}, the paper gives {expected}")


def verify(log_doc: dict, net_doc: dict, reports: list[dict], passes: list[dict]) -> int:
    """Check every output of the run; return the number of capped or errored rows."""
    if [r["case_id"] for r in reports] != [t["case_id"] for t in log_doc["traces"]]:
        raise check.CheckFailed("the reports do not cover the log's traces in order")
    csv = passes[0]["csv"]
    if any(p["csv"] != csv for p in passes):
        raise check.CheckFailed("two passes wrote different CSV")
    failed = check.check_csv(csv.decode(), reports)
    oracle = check.Oracle(check.Net(net_doc))
    for trace, report in zip(log_doc["traces"], reports):
        if report["error"] is None:
            oracle.check_report(trace, report)
    for p in passes:
        if "self_s" in p and abs(sum(p["self_s"].values()) - p["root_s"]) > 1e-3:
            raise check.CheckFailed("layer self times do not add up to the traced pass")
    return failed


def end_to_end(passes: list[dict]) -> dict:
    units = {"wall_s": "s", "setup_s": "s", "traces_per_s": "traces/s", "peak_rss_mb": "MB"}
    return {k: {"value": statistics.median(p[k] for p in passes), "unit": u} for k, u in units.items()}


def per_layer(passes: list[dict], traced: dict) -> dict:
    own, counts = traced["self_s"], traced["counts"]
    n_states = counts.get("align.model_states", 0)
    n_real = counts.get("events.realizations", 0)
    trace_ms = sorted(t * 1000 for t in traced["trace_s"]) or [0.0]
    values = {
        "log_io.load_log_s": (own.get("log_io.load_log", 0.0), "s"),
        "log_io.load_net_s": (own.get("log_io.load_net", 0.0), "s"),
        "log_io.events": (counts.get("log_io.events", 0), "count"),
        "align.prepare_model_s": (own.get("align.prepare_model", 0.0), "s"),
        "align.model_states": (n_states, "count"),
        "align.closure_mb": (n_states * n_states * 8 / MiB, "MB"),
        "behavior.behavior_graph_s": (own.get("behavior.behavior_graph", 0.0), "s"),
        "behavior.behavior_net_s": (own.get("behavior.behavior_net", 0.0), "s"),
        "behavior.net_states": (counts.get("behavior.net_states", 0), "count"),
        "align.lower_bound_s": (own.get("align.lower_bound", 0.0), "s"),
        "align.product_cells": (counts.get("align.product_cells", 0), "count"),
        "events.iter_realizations_s": (own.get("events.iter_realizations", 0.0), "s"),
        "events.realizations": (n_real, "count"),
        "align.realization_cost_s": (own.get("align.log_bounds", 0.0), "s"),
        "align.sequence_costs": (counts.get("align.sequence_costs", 0), "count"),
        "align.cache_hit_ratio": ((n_real - counts.get("align.sequence_costs", 0)) / max(n_real, 1), "ratio"),
        "align.optimal_alignment_s": (own.get("align.optimal_alignment", 0.0), "s"),
        "cli.output_s": (own.get("cli.bounds", 0.0), "s"),
        "align.trace_p50_ms": (statistics.median(trace_ms), "ms"),
        "align.trace_max_ms": (trace_ms[-1], "ms"),
        "rusage.sys_s": (statistics.median(p["sys_s"] for p in passes), "s"),
        "rusage.minor_faults": (statistics.median(p["minor_faults"] for p in passes), "count"),
        "bench.trace_overhead_s": (traced["wall_s"] - statistics.median(p["wall_s"] for p in passes), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run(args, workdir: Path) -> dict:
    gen.verify_inputs()
    workload = gen.WORKLOADS[args.workload]
    net = gen.INPUTS / workload.net
    log_doc = gen.make_log(args.workload, args.seed)
    log = workdir / "log.json"
    log.write_bytes(gen.log_bytes(log_doc))

    check_icu(workdir)
    reference = json.loads(cli_bounds(log, net, workdir, "--json"))
    passes: list[dict] = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start + passes[-1]["wall_s"] <= args.seconds:
        passes.append(run_pass("timed", log, net, workdir))
    traced = [run_pass("traced", log, net, workdir)] if args.trace else []

    failed = verify(log_doc, json.loads(net.read_bytes()), reference["reports"], passes + traced)
    metrics = per_layer(passes, traced[0]) if args.trace else end_to_end(passes)
    attempted = len(passes) * len(log_doc["traces"])
    return {"correct": True, "attempted": attempted, "failed": failed * len(passes), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "uncertain_conform" / "cli.py").is_file():
        print(f"benchmark failed: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_build" / f"bounds-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, workdir)
    except (check.CheckFailed, BenchError, OSError, RuntimeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
