"""CLI contract: subcommands, CSV schemas, exit codes, determinism."""
import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import DATA_DIR

import uncertain_conform
from uncertain_conform import UncertainEvent, UncertainLog, UncertainTrace, align, events, save_log
from uncertain_conform.cli import build_parser, main
from uncertain_conform.events import CAP_ENV_VAR


def run_cli(capsys, *args) -> tuple[int, list[dict]]:
    code = main(list(args))
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    return code, rows


class TestBounds:
    def test_icu_fixtures(self, capsys):
        code, rows = run_cli(
            capsys, "bounds", "--log", str(DATA_DIR / "icu_log.json"), "--net", str(DATA_DIR / "icu_net.json")
        )
        assert code == 0
        by_case = {r["case_id"]: r for r in rows}
        assert by_case["table6"] == {
            "case_id": "table6", "lower_cost": "0", "upper_cost": "2", "realization_count": "10",
        }
        assert by_case["table7"] == {
            "case_id": "table7", "lower_cost": "0", "upper_cost": "6", "realization_count": "3024",
        }
        assert by_case["total"]["lower_cost"] == "0"
        assert by_case["total"]["upper_cost"] == "8"

    def test_json_reports(self, capsys):
        code = main([
            "bounds", "--log", str(DATA_DIR / "icu_log.json"),
            "--net", str(DATA_DIR / "icu_net.json"), "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_lower"] == 0 and doc["total_upper"] == 8
        by_case = {r["case_id"]: r for r in doc["reports"]}
        witness = by_case["table6"]["upper_witness"]
        assert witness["cost"] == 2
        move = witness["moves"][0]
        assert set(move) == {"log", "model_label", "model_transition"}

    def test_json_is_the_golden_file(self, capsys):
        # tests/data/icu_bounds.json pins every byte of both witnesses, not only their costs.
        code = main([
            "bounds", "--log", str(DATA_DIR / "icu_log.json"),
            "--net", str(DATA_DIR / "icu_net.json"), "--json",
        ])
        assert code == 0
        assert capsys.readouterr().out.encode("utf-8") == (DATA_DIR / "icu_bounds.json").read_bytes()

    def test_missing_file_exits_1(self, capsys):
        code = main(["bounds", "--log", "/nonexistent.json", "--net", str(DATA_DIR / "icu_net.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--log", "--net", "--out"])
    def test_directory_path_exits_1(self, flag, tmp_path, capsys):
        paths = {"--log": DATA_DIR / "icu_log.json", "--net": DATA_DIR / "icu_net.json", flag: tmp_path}
        code = main(["bounds"] + [str(part) for pair in paths.items() for part in pair])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and "Is a directory" in captured.err

    def test_invalid_log_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        code = main(["bounds", "--log", str(bad), "--net", str(DATA_DIR / "icu_net.json")])
        assert code == 1

    def test_wrong_typed_field_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traces": [{"case_id": "c", "events": [
            {"id": "e1", "activities": ["a"], "t_min": "1970-01-01T00:00:00Z", "t_max": "1970-01-01T00:00:00Z",
             "indeterminate": "false"},
        ]}]}))
        code = main(["bounds", "--log", str(bad), "--net", str(DATA_DIR / "icu_net.json")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: trace 'c': event 'e1': 'indeterminate'")

    @pytest.mark.parametrize("field, value, message", [
        ("case_id", None, "trace 0: 'case_id' is null"),
        ("id", 7, "trace 'c': event 0: 'id' is a number"),
    ])
    def test_non_string_id_exits_1(self, tmp_path, capsys, field, value, message):
        event = {"id": "e1", "activities": ["Adm"], "t_min": "1970-01-01T00:00:00Z", "t_max": "1970-01-01T00:00:00Z"}
        trace = {"case_id": "c", "events": [event]}
        (trace if field == "case_id" else event)[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traces": [trace]}))
        code = main(["bounds", "--log", str(bad), "--net", str(DATA_DIR / "icu_net.json"), "--json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    @pytest.mark.parametrize("fmt", ["json", "xes"])
    @pytest.mark.parametrize("stamp", ["2020-13-01T00:00:00Z", "0000-01-01T00:00:00Z", "2020-02-30T25:61:61Z"])
    def test_out_of_range_timestamp_exits_1(self, tmp_path, capsys, fmt, stamp):
        trace = UncertainTrace("c", (UncertainEvent("e1", frozenset({"Adm"}), 0, 0),))
        data = save_log(UncertainLog((trace,)), fmt).replace(b"1970-01-01T00:00:00Z", stamp.encode())
        bad = tmp_path / f"bad.{fmt}"
        bad.write_bytes(data)
        code = main(["bounds", "--log", str(bad), "--net", str(DATA_DIR / "icu_net.json"), "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: trace 'c': event 'e1': not a UTC ISO-8601 timestamp: {stamp!r}\n"

    def test_wrong_typed_net_field_exits_1(self, tmp_path, capsys):
        net = json.loads((DATA_DIR / "icu_net.json").read_text())
        net["arcs"][0].append("p2")
        bad = tmp_path / "net.json"
        bad.write_text(json.dumps(net))
        code = main(["bounds", "--log", str(DATA_DIR / "icu_log.json"), "--net", str(bad)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: net field 'arcs': entry 0 is not a pair of strings")

    def test_thirteen_event_trace_is_not_capped(self, tmp_path, capsys):
        # Its case12 has 13 events and 4 realizations; an event cap of 12 once marked it capped.
        log_path, net_path = tmp_path / "log.json", tmp_path / "net.json"
        assert main([
            "gen", "--net-size", "20", "--traces", "50", "--deviation", "0.1,0.1,0.1",
            "--uncertainty", "0.05,0.05,0.05", "--seed", "7", "--out-log", str(log_path), "--out-net", str(net_path),
        ]) == 0
        code = main(["bounds", "--log", str(log_path), "--net", str(net_path)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "case12,3,4,4" in out
        assert out[-1] == "total,80,113,"

    def test_cap_marks_rows_and_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "12,5")
        code, rows = run_cli(
            capsys, "bounds", "--log", str(DATA_DIR / "icu_log.json"), "--net", str(DATA_DIR / "icu_net.json")
        )
        assert code == 2
        by_case = {r["case_id"]: r for r in rows}
        assert by_case["table7"]["realization_count"] == "capped"
        assert by_case["table7"]["upper_cost"] == "capped"

    def test_cap_below_one_exits_1(self, capsys, monkeypatch):
        for raw in ("-1", "12,0"):
            monkeypatch.setenv(CAP_ENV_VAR, raw)
            code = main(["bounds", "--log", str(DATA_DIR / "icu_log.json"), "--net", str(DATA_DIR / "icu_net.json")])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert CAP_ENV_VAR in captured.err

    def test_empty_log(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"schema_version": "1.0", "traces": []}))
        code, rows = run_cli(
            capsys, "bounds", "--log", str(empty), "--net", str(DATA_DIR / "icu_net.json")
        )
        assert code == 0
        assert rows == [{"case_id": "total", "lower_cost": "0", "upper_cost": "0", "realization_count": ""}]

    def test_tau_cycle_model(self, tmp_path, capsys):
        # The τ self-loop a_loop sorts before b, so a walk that follows the
        # first free move from p1 never leaves it.
        net = {
            "places": ["p0", "p1", "p2"],
            "transitions": [{"id": "a", "label": "a"}, {"id": "a_loop", "label": None}, {"id": "b", "label": "b"}],
            "arcs": [["p0", "a"], ["a", "p1"], ["p1", "a_loop"], ["a_loop", "p1"], ["p1", "b"], ["b", "p2"]],
            "initial_marking": {"p0": 1},
            "final_marking": {"p2": 1},
        }
        event = {"id": "e1", "activities": ["a"], "t_min": "2020-01-01T00:00:00Z",
                 "t_max": "2020-01-01T00:00:00Z", "indeterminate": False}
        (tmp_path / "net.json").write_text(json.dumps(net))
        (tmp_path / "log.json").write_text(json.dumps(
            {"schema_version": "1.0", "traces": [{"case_id": "1", "events": [event]}]}
        ))
        code = main(["bounds", "--log", str(tmp_path / "log.json"), "--net", str(tmp_path / "net.json")])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1] == "1,1,1,1"

    def test_colliding_transition_ids(self, tmp_path, capsys):
        # Events "x" (label "y:z") and "x:y" (label "z") would both give the
        # behavior-net transition id "x:y:z".
        def event(event_id, label, minute):
            stamp = f"2020-01-01T00:0{minute}:00Z"
            return {"id": event_id, "activities": [label], "t_min": stamp, "t_max": stamp}

        net = {
            "places": ["p0", "p1", "p2"],
            "transitions": [{"id": "t1", "label": "y:z"}, {"id": "t2", "label": "z"}],
            "arcs": [["p0", "t1"], ["t1", "p1"], ["p1", "t2"], ["t2", "p2"]],
            "initial_marking": {"p0": 1},
            "final_marking": {"p2": 1},
        }
        (tmp_path / "net.json").write_text(json.dumps(net))
        (tmp_path / "log.json").write_text(json.dumps(
            {"schema_version": "1.0", "traces": [{"case_id": "c", "events": [event("x", "y:z", 0), event("x:y", "z", 1)]}]}
        ))
        code = main(["bounds", "--log", str(tmp_path / "log.json"), "--net", str(tmp_path / "net.json"), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)["reports"][0]
        assert (report["lower_cost"], report["upper_cost"], report["error"]) == (0, 0, None)

    def test_product_cap_marks_rows_and_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(align, "PRODUCT_CAP", 10)
        code, rows = run_cli(
            capsys, "bounds", "--log", str(DATA_DIR / "icu_log.json"), "--net", str(DATA_DIR / "icu_net.json")
        )
        assert code == 2
        by_case = {r["case_id"]: r for r in rows}
        assert by_case["table6"]["upper_cost"] == by_case["table7"]["upper_cost"] == "capped"

    def test_scan_cap_marks_rows_and_exits_2(self, capsys, monkeypatch):
        # table6's walk compares 752 cells with kept rows, table7's 20,868.
        monkeypatch.setattr(align, "SCAN_CAP", 752)
        code = main(["bounds", "--log", str(DATA_DIR / "icu_log.json"), "--net", str(DATA_DIR / "icu_net.json")])
        assert code == 2
        assert capsys.readouterr().out.splitlines()[1:] == ["table6,0,2,10", "table7,0,capped,capped", "total,0,2,"]

    def test_state_cap_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(events, "STATE_CAP", 50)  # the ICU model has 94 states
        code = main(["bounds", "--log", str(DATA_DIR / "icu_log.json"), "--net", str(DATA_DIR / "icu_net.json")])
        assert code == 2
        assert "state cap" in capsys.readouterr().err

    def test_unbounded_model_exits_2(self, tmp_path, capsys, monkeypatch):
        # gen keeps its token on p0 and adds one to p1, so the model has no bound.
        net = {
            "places": ["p0", "p1", "p2"],
            "transitions": [{"id": "a", "label": "a"}, {"id": "gen", "label": None}],
            "arcs": [["p0", "gen"], ["gen", "p0"], ["gen", "p1"], ["p0", "a"], ["a", "p2"]],
            "initial_marking": {"p0": 1},
            "final_marking": {"p2": 1},
        }
        (tmp_path / "net.json").write_text(json.dumps(net))
        monkeypatch.setattr(events, "STATE_CAP", 50)
        code = main(["bounds", "--log", str(DATA_DIR / "icu_log.json"), "--net", str(tmp_path / "net.json")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "reachability exploration exceeded the state cap (50)" in captured.err


#: SHA-256 of ``bounds --json`` and of ``bounds`` (CSV) on the ``gen`` log of
#: :class:`TestWitnessesOnlyForJson` (seed ``w1``).
GEN_JSON_SHA256 = "a5c4d0527cb9bdbaedbb0c2e6d911ca209acee7d25b4e3f61c995386870f931e"
GEN_CSV_SHA256 = "a8fc0f2472788ad89fa2a83b6a8e56f2a9368901a810f39d855b2aed0bac5df9"


class TestWitnessesOnlyForJson:
    """``bounds`` builds witnesses for ``--json`` alone; the costs are the same either way."""

    @pytest.fixture(scope="class")
    def gen_inputs(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("gen")
        log_path, net_path = out / "log.json", out / "net.json"
        assert main([
            "gen", "--net-size", "12", "--traces", "40", "--deviation", "0.1,0.1,0.1",
            "--uncertainty", "0.2,0.2,0.2", "--seed", "w1", "--out-log", str(log_path), "--out-net", str(net_path),
        ]) == 0
        return log_path, net_path

    @pytest.mark.parametrize("cap", [None, "1,20"])
    @pytest.mark.parametrize("inputs", ["icu", "gen"])
    def test_csv_is_the_json_costs(self, inputs, cap, gen_inputs, capsys, monkeypatch):
        if cap is not None:
            monkeypatch.setenv(CAP_ENV_VAR, cap)
        paths = (DATA_DIR / "icu_log.json", DATA_DIR / "icu_net.json") if inputs == "icu" else gen_inputs
        args = ["bounds", "--log", str(paths[0]), "--net", str(paths[1])]
        csv_code = main(args)
        csv_out = capsys.readouterr().out
        json_code = main(args + ["--json"])
        doc = json.loads(capsys.readouterr().out)
        assert csv_code == json_code == (0 if cap is None else 2)
        fields = ("case_id", "lower_cost", "upper_cost", "realization_count")
        rows = [",".join(fields)]
        rows += [",".join("capped" if r[f] is None else str(r[f]) for f in fields) for r in doc["reports"]]
        rows.append(f"total,{doc['total_lower']},{doc['total_upper']},")
        assert csv_out == "\n".join(rows) + "\n"
        assert all(r["lower_witness"] is not None for r in doc["reports"])

    def test_gen_json_is_pinned(self, gen_inputs, capsys):
        log_path, net_path = gen_inputs
        assert main(["bounds", "--log", str(log_path), "--net", str(net_path), "--json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == GEN_JSON_SHA256

    def test_gen_csv_is_pinned(self, gen_inputs, capsys):
        log_path, net_path = gen_inputs
        assert main(["bounds", "--log", str(log_path), "--net", str(net_path)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == GEN_CSV_SHA256

    @pytest.mark.parametrize("flags, built", [([], False), (["--json"], True)])
    def test_witnesses_are_built_only_for_json(self, flags, built, gen_inputs, capsys, monkeypatch):
        calls = []
        real = align._witness
        monkeypatch.setattr(align, "_witness", lambda *args: calls.append(args) or real(*args))
        for log_path, net_path in [(DATA_DIR / "icu_log.json", DATA_DIR / "icu_net.json"), gen_inputs]:
            assert main(["bounds", "--log", str(log_path), "--net", str(net_path), *flags]) == 0
        capsys.readouterr()
        assert bool(calls) is built


class TestGen:
    def test_deterministic_outputs(self, tmp_path):
        args = [
            "gen", "--net-size", "6", "--traces", "8", "--deviation", "0.3,0.3,0.3",
            "--uncertainty", "0.2,0.2,0.2", "--seed", "g1",
        ]
        for tag in ("x", "y"):
            assert main(args + ["--out-log", str(tmp_path / f"log{tag}.json"), "--out-net", str(tmp_path / f"net{tag}.json")]) == 0
        assert (tmp_path / "logx.json").read_bytes() == (tmp_path / "logy.json").read_bytes()
        assert (tmp_path / "netx.json").read_bytes() == (tmp_path / "nety.json").read_bytes()

    def test_zero_uncertainty_gives_certain_log(self, tmp_path):
        log_path, net_path = tmp_path / "log.json", tmp_path / "net.json"
        assert main([
            "gen", "--net-size", "5", "--traces", "5", "--uncertainty", "0,0,0",
            "--seed", "g2", "--out-log", str(log_path), "--out-net", str(net_path),
        ]) == 0
        from uncertain_conform import load_log

        log = load_log(log_path)
        assert all(e.is_certain for t in log for e in t.events)

    def test_clean_generation_is_perfectly_fitting(self, tmp_path, capsys):
        log_path, net_path = tmp_path / "log.json", tmp_path / "net.json"
        main([
            "gen", "--net-size", "8", "--traces", "10", "--seed", "g3",
            "--out-log", str(log_path), "--out-net", str(net_path),
        ])
        code, rows = run_cli(capsys, "bounds", "--log", str(log_path), "--net", str(net_path))
        assert code == 0
        for row in rows:
            assert row["lower_cost"] == "0" and row["upper_cost"] == "0"

    def test_invalid_fraction_exits_1(self, tmp_path, capsys):
        code = main([
            "gen", "--deviation", "0.5,0", "--out-log", str(tmp_path / "l.json"),
            "--out-net", str(tmp_path / "n.json"),
        ])
        assert code == 1


class TestExperimentCommands:
    def test_divergence_csv_schema(self, capsys):
        code, rows = run_cli(
            capsys, "exp-divergence", "--traces", "6", "--reps", "1", "--ps", "0,0.2",
            "--net-size", "5", "--seed", "d",
        )
        assert code == 0
        assert list(rows[0]) == ["p", "deviation_config", "uncertainty_config", "mean_lower", "mean_upper"]
        p0 = next(r for r in rows if float(r["p"]) == 0.0)
        assert p0["mean_lower"] == p0["mean_upper"]

    def test_performance_csv_schema(self, capsys):
        code, rows = run_cli(
            capsys, "exp-performance", "--sizes", "4", "--traces", "4", "--reps", "1",
            "--seed", "p",
        )
        assert code == 0
        assert list(rows[0]) == ["n", "method", "mean_seconds"]
        assert {r["method"] for r in rows} == {"behavior_net", "brute_force"}
        assert all(r["mean_seconds"] == "timeout" or float(r["mean_seconds"]) >= 0 for r in rows)

    def test_realizations_csv_schema(self, capsys):
        code, rows = run_cli(
            capsys, "exp-realizations", "--traces", "5", "--reps", "1", "--ps", "0,0.3",
            "--sizes", "5", "--seed", "r",
        )
        assert code == 0
        assert list(rows[0]) == ["x", "mean_realizations"]
        assert float(rows[0]["mean_realizations"]) == 5.0

    def test_out_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main([
            "exp-realizations", "--traces", "4", "--reps", "1", "--ps", "0",
            "--sizes", "4", "--seed", "r", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("x,mean_realizations")


class TestExperimentOutputIsPinned:
    """SHA-256 of each experiment's CSV at small sizes; ``exp-performance`` with its timings blanked."""

    @pytest.mark.parametrize("args, sha256", [
        (["exp-divergence", "--net-size", "5", "--ps", "0,0.2", "--deviation-config", "extra",
          "--deviation-config", "all", "--uncertainty-config", "indeterminate", "--uncertainty-config", "all"],
         "d8a8620fb151461515304de4b99ed56e1743ba5e601f28a0d7708cab4876263c"),
        (["exp-realizations", "--sizes", "5", "--ps", "0,0.1,0.3"],
         "ae2bffabbef29a0cc781730cb124b7f6ffb842fffc1f9521623803e813f1d4b3"),
        (["exp-realizations", "--sweep", "size", "--sizes", "4,6", "--ps", "0.2", "--uncertainty-config", "timestamps"],
         "8c27f3e37a84fadf8e3f44d6ae4b18f3011299f611290cfe87118d9e6272d422"),
    ], ids=["divergence", "realizations-p", "realizations-size"])
    def test_csv_is_pinned(self, args, sha256, capsys):
        assert main([*args, "--traces", "6" if args[0] == "exp-divergence" else "5", "--reps", "2", "--seed", "pin"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == sha256

    @pytest.mark.parametrize("cap, expected", [
        (None, ["4,behavior_net,", "4,brute_force,", "6,behavior_net,", "6,brute_force,"]),
        ("1,1", ["4,behavior_net,", "4,brute_force,timeout", "6,behavior_net,", "6,brute_force,timeout"]),
    ])
    def test_performance_rows_are_pinned(self, cap, expected, capsys, monkeypatch):
        if cap is not None:
            monkeypatch.setenv(CAP_ENV_VAR, cap)
        assert main([
            "exp-performance", "--sizes", "4,6", "--traces", "4", "--reps", "2", "--p", "0.2",
            "--uncertainty-config", "activities", "--seed", "pin",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,method,mean_seconds"
        assert [re.sub(r",\d+\.\d{6}$", ",", line) for line in lines[1:]] == expected

    @pytest.mark.parametrize("args, message", [
        (["exp-divergence", "--ps", "0,x"], "--ps: could not convert string to float: 'x'"),
        (["exp-realizations", "--ps", "0;1"], "--ps: could not convert string to float: '0;1'"),
        (["exp-performance", "--sizes", "4,y"], "--sizes: invalid literal for int() with base 10: 'y'"),
        (["exp-realizations", "--sizes", "4,", "--ps", "0"], "--sizes: invalid literal for int() with base 10: ''"),
        (["gen", "--deviation", "0.5,0"], "--deviation expects 3 comma-separated fractions, got '0.5,0'"),
        (["gen", "--deviation", "0.1,z,0"], "--deviation: could not convert string to float: 'z'"),
        (["gen", "--uncertainty", "0,0,0,0"], "--uncertainty expects 3 comma-separated fractions, got '0,0,0,0'"),
    ])
    def test_malformed_list_message(self, args, message, tmp_path, capsys):
        if args[0] == "gen":
            args = [*args, "--out-log", str(tmp_path / "l.json"), "--out-net", str(tmp_path / "n.json")]
        assert main(args) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not list(tmp_path.iterdir())


def option_choices(command: str, flag: str) -> list[str]:
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    return next(a.choices for a in commands[command]._actions if flag in a.option_strings)


class TestImportSurface:
    LAZY_MODULES = [
        "uncertain_conform.synthesis",
        "uncertain_conform.experiments",
        "uncertain_conform.behavior",
        "xml.etree.ElementTree",
        "calendar",
        "statistics",
    ]

    def test_cli_imports_only_the_bounds_path(self):
        script = (
            "import json, sys\n"
            "import uncertain_conform.cli\n"
            f"loaded = [m for m in {self.LAZY_MODULES!r} if m in sys.modules]\n"
            "names = {}\n"
            "exec('from uncertain_conform import *', names)\n"
            "missing = sorted(set(uncertain_conform.__all__) - set(names))\n"
            "print(json.dumps([loaded, missing]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(uncertain_conform.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env).stdout
        assert json.loads(out) == [[], []]

    def test_experiment_choices_match_the_experiments(self):
        from uncertain_conform import experiments

        deviations = sorted(experiments.DEVIATION_PRESETS)
        kinds = list(experiments.UNCERTAINTY_KINDS)
        assert option_choices("exp-divergence", "--deviation-config") == deviations
        for command in ("exp-divergence", "exp-performance", "exp-realizations"):
            assert option_choices(command, "--uncertainty-config") == kinds
