"""Tests of the benchmark's own checker, generator and failure paths.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

DAY = "2011-12-{:02d}T00:00:00Z"


def _event(eid, activities, t_min, t_max, indeterminate=False):
    return {"id": eid, "activities": activities, "t_min": DAY.format(t_min), "t_max": DAY.format(t_max),
            "indeterminate": indeterminate}


def running_example() -> dict:
    """The paper's four-event medical trace."""
    return {"case_id": "ID192", "events": [
        _event("e1", ["NightSweats"], 5, 5, True),
        _event("e2", ["PrTP", "SecTP"], 8, 8),
        _event("e3", ["Splenomeg"], 4, 10),
        _event("e4", ["Adm"], 12, 12),
    ]}


def sequence_net(labels: list[str]) -> check.Net:
    """p0 -t0-> p1 -t1-> ... : the model whose only run is ``labels``."""
    n = len(labels)
    return check.Net({
        "places": [f"p{i}" for i in range(n + 1)],
        "transitions": [{"id": f"t{i}", "label": a} for i, a in enumerate(labels)],
        "arcs": [[f"p{i}", f"t{i}"] for i in range(n)] + [[f"t{i}", f"p{i + 1}"] for i in range(n)],
        "initial_marking": {"p0": 1},
        "final_marking": {f"p{n}": 1},
    })


def test_running_example_has_ten_realizations():
    reals = check.realizations(running_example())
    assert len(reals) == 10
    assert ("Splenomeg", "PrTP", "Adm") in reals
    assert ("NightSweats", "SecTP", "Splenomeg", "Adm") in reals


def test_overlap_and_skip_counts():
    trace = {"case_id": "c", "events": [_event("a", ["x"], 1, 2), _event("b", ["y"], 2, 2, True)]}
    assert check.realizations(trace) == {("x", "y"), ("y", "x"), ("x",)}


@pytest.mark.parametrize("seq, cost", [
    (("a", "b"), 0), (("b", "a"), 2), (("a",), 1), ((), 2), (("a", "c", "b"), 1),
])
def test_dijkstra_cost_on_a_sequence_model(seq, cost):
    assert check.alignment_cost(seq, sequence_net(["a", "b"])) == cost


def test_dijkstra_invisible_moves_are_free():
    net = check.Net({
        "places": ["p0", "p1", "p2"],
        "transitions": [{"id": "tau", "label": None}, {"id": "t", "label": "a"}],
        "arcs": [["p0", "tau"], ["tau", "p1"], ["p1", "t"], ["t", "p2"]],
        "initial_marking": {"p0": 1},
        "final_marking": {"p2": 1},
    })
    assert check.alignment_cost(("a",), net) == 0
    assert check.alignment_cost((), net) == 1


def test_icu_fixtures_give_the_paper_bounds():
    oracle = check.Oracle(check.Net(gen.load_net_doc("icu_net.json")))
    traces = json.loads((gen.INPUTS / "icu_log.json").read_bytes())["traces"]
    bounds = {}
    for trace in traces:
        costs = [oracle.cost(seq) for seq in check.realizations(trace)]
        bounds[trace["case_id"]] = (min(costs), max(costs))
    assert bounds == {"table6": (0, 2), "table7": (0, 6)}


def _report() -> tuple[dict, dict]:
    """A trace {a|c}, b against the model a b, with its correct report."""
    trace = {"case_id": "c", "events": [_event("e1", ["a", "c"], 1, 1), _event("e2", ["b"], 2, 2)]}
    sync = [{"log": "a", "model_label": "a", "model_transition": "t0"},
            {"log": "b", "model_label": "b", "model_transition": "t1"}]
    worst = [{"log": "c", "model_label": ">>", "model_transition": None},
             {"log": ">>", "model_label": "a", "model_transition": "t0"},
             {"log": "b", "model_label": "b", "model_transition": "t1"}]
    report = {"case_id": "c", "lower_cost": 0, "upper_cost": 2, "realization_count": 2, "error": None,
              "lower_witness": {"cost": 0, "moves": sync}, "upper_witness": {"cost": 2, "moves": worst}}
    return trace, report


def test_correct_report_passes():
    trace, report = _report()
    check.Oracle(sequence_net(["a", "b"])).check_report(trace, report)


@pytest.mark.parametrize("tamper", [
    lambda r: r.update(upper_cost=3),
    lambda r: r.update(lower_cost=1),
    lambda r: r.update(realization_count=3),
    lambda r: r["upper_witness"].update(cost=1),
    lambda r: r["lower_witness"]["moves"].pop(),
    lambda r: r["lower_witness"]["moves"].reverse(),
    lambda r: r["upper_witness"]["moves"][0].update(log="d"),
    lambda r: r["lower_witness"]["moves"][0].update(model_transition="t1"),
])
def test_wrong_bound_or_witness_is_caught(tamper):
    trace, report = _report()
    tamper(report)
    with pytest.raises(check.CheckFailed):
        check.Oracle(sequence_net(["a", "b"])).check_report(trace, report)


def test_bound_that_matches_its_witness_but_is_not_extreme_is_caught():
    trace, report = _report()
    report["upper_cost"] = 0
    report["upper_witness"] = copy.deepcopy(report["lower_witness"])
    with pytest.raises(check.CheckFailed):
        check.Oracle(sequence_net(["a", "b"])).check_report(trace, report)


def test_csv_must_agree_with_reports():
    _, report = _report()
    good = "case_id,lower_cost,upper_cost,realization_count\nc,0,2,2\ntotal,0,2,\n"
    assert check.check_csv(good, [report]) == 0
    for bad in (good.replace("c,0,2,2", "c,0,3,2"), good.replace("total,0,2", "total,0,1")):
        with pytest.raises(check.CheckFailed):
            check.check_csv(bad, [report])


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_logs_follow_the_seed(name):
    assert gen.log_bytes(gen.make_log(name, 3)) == gen.log_bytes(gen.make_log(name, 3))
    assert gen.make_log(name, 3) != gen.make_log(name, 4)


@pytest.mark.parametrize("seed", range(1, 6))
def test_wide_uncertain_make_up_is_fixed(seed):
    counts = [len(check.realizations(t)) for t in gen.make_log("wide-uncertain", seed)["traces"]]
    assert counts == [256] + [8] * 9


def test_changed_input_is_refused(tmp_path, monkeypatch):
    shutil.copytree(gen.INPUTS, tmp_path / "inputs")
    with open(tmp_path / "inputs" / "small.net.json", "a") as f:
        f.write(" ")
    monkeypatch.setattr(gen, "INPUTS", tmp_path / "inputs")
    with pytest.raises(RuntimeError, match="small.net.json"):
        gen.verify_inputs()


@pytest.fixture
def tiny_workload(monkeypatch):
    small = gen.WORKLOADS["many-small"]
    monkeypatch.setitem(gen.WORKLOADS, "many-small", gen.Workload(small.net, 16, small.lengths, small.profiles))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric(tiny_workload, capsys, trace):
    assert run.main(["--workload", "many-small", "--seed", "1", "--seconds", "0", "--trace", trace]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 3 * 16, 0)


def test_run_fails_on_a_wrong_bound(tiny_workload, capsys, monkeypatch):
    real = run.cli_bounds

    def wrong_upper(log, net, workdir, *flags):
        out = real(log, net, workdir, *flags)
        if "--json" not in flags:
            return out
        doc = json.loads(out)
        doc["reports"][0]["upper_cost"] += 1
        doc["reports"][0]["upper_witness"]["cost"] += 1
        return json.dumps(doc).encode()

    monkeypatch.setattr(run, "cli_bounds", wrong_upper)
    assert run.main(["--workload", "many-small", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 1
    assert capsys.readouterr().out == ""


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", "many-small", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0 and done.stdout == ""
