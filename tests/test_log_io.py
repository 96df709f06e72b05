"""Serialization: timestamps, JSON/XES logs, JSON nets."""
import io
import json
import re
from datetime import datetime, timedelta

import pytest
from helpers import DATA_DIR, naive_xes_activity_sequences, uncertain_traces
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_events import running_example

from uncertain_conform import (
    UncertainEvent,
    UncertainLog,
    UncertainTrace,
    ValidationError,
    certain_event,
    event_net,
    format_timestamp,
    load_log,
    load_net,
    parse_timestamp,
    save_log,
    save_net,
)
from uncertain_conform.log_io import (
    XES_KEY_ACTIVITY_SET,
    XES_KEY_INDETERMINACY,
    XES_KEY_TIME_MAX,
    XES_KEY_TIME_MIN,
    net_to_dict,
)


class TestTimestamps:
    def test_round_trip_second_precision(self):
        text = "2017-02-21T00:41:00Z"
        assert format_timestamp(parse_timestamp(text)) == text

    def test_round_trip_nanoseconds(self):
        text = "2017-02-21T00:41:00.123456789Z"
        assert format_timestamp(parse_timestamp(text)) == text

    def test_trailing_zeros_trimmed(self):
        assert format_timestamp(parse_timestamp("2020-01-01T00:00:00.500Z")) == "2020-01-01T00:00:00.5Z"

    def test_offset_zero_accepted(self):
        assert parse_timestamp("2020-01-01T00:00:00+00:00") == parse_timestamp("2020-01-01T00:00:00Z")

    @pytest.mark.parametrize("bad", [
        "2020-01-01", "yesterday", "2020-01-01T00:00:00+02:00", "",
        # Fields out of range: year 0, month 13 or 0, day past the month's end or 0,
        # hour 24, minute 60, second 60; 2021 and 1900 are not leap years.
        "0000-01-01T00:00:00Z", "2020-13-01T00:00:00Z", "2020-00-10T00:00:00Z", "2020-01-32T00:00:00Z",
        "2020-01-00T00:00:00Z", "2020-04-31T00:00:00Z", "2021-02-29T00:00:00Z", "1900-02-29T00:00:00Z",
        "2020-02-30T25:61:61Z", "2020-01-01T24:00:00Z", "2020-01-01T00:60:00Z", "2020-01-01T00:00:60Z",
        "\u0662\u0660\u0662\u0660-01-01T00:00:00Z",  # digits, but not ASCII ones
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValidationError, match="not a UTC ISO-8601 timestamp"):
            parse_timestamp(bad)

    @given(
        st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)),
        st.text("0123456789", max_size=9),
        st.sampled_from(["Z", "+00:00"]),
    )
    @example(datetime(2000, 2, 29, 23, 59, 59), "999999999", "Z")
    @example(datetime(4, 2, 29), "", "+00:00")
    @example(datetime(1969, 12, 31, 23, 59, 59), "5", "Z")
    @example(datetime(1, 1, 1), "000000001", "Z")
    @example(datetime(9999, 12, 31, 23, 59, 59), "999999999", "+00:00")
    @settings(max_examples=300, deadline=None)
    def test_valid_stamps_match_datetime(self, moment, fraction, suffix):
        moment = moment.replace(microsecond=0)
        text = moment.isoformat() + (f".{fraction}" if fraction else "") + suffix
        seconds = (moment - datetime(1970, 1, 1)) // timedelta(seconds=1)
        ns = seconds * 10**9 + int(fraction.ljust(9, "0"))
        assert parse_timestamp(text) == ns
        trimmed = fraction.rstrip("0")
        canonical = (
            f"{moment.year:04d}-{moment.month:02d}-{moment.day:02d}"
            f"T{moment.hour:02d}:{moment.minute:02d}:{moment.second:02d}"
            + (f".{trimmed}" if trimmed else "") + "Z"
        )
        assert format_timestamp(ns) == canonical
        assert parse_timestamp(canonical) == ns


class TestJsonLog:
    def test_running_example_round_trip(self):
        log = UncertainLog((running_example(),))
        assert load_log(save_log(log, "json"), "json") == log

    def test_table4_shape_from_json(self):
        doc = {
            "schema_version": "1.0",
            "traces": [
                {
                    "case_id": "ID192",
                    "events": [
                        {"id": "e1", "activities": ["NightSweats"], "t_min": "1970-01-05T00:00:00Z",
                         "t_max": "1970-01-05T00:00:00Z", "indeterminate": True},
                        {"id": "e2", "activities": ["PrTP", "SecTP"], "t_min": "1970-01-08T00:00:00Z",
                         "t_max": "1970-01-08T00:00:00Z", "indeterminate": False},
                        {"id": "e3", "activities": ["Splenomeg"], "t_min": "1970-01-04T00:00:00Z",
                         "t_max": "1970-01-10T00:00:00Z", "indeterminate": False},
                        {"id": "e4", "activities": ["Adm"], "t_min": "1970-01-12T00:00:00Z",
                         "t_max": "1970-01-12T00:00:00Z", "indeterminate": False},
                    ],
                }
            ],
        }
        log = load_log(json.dumps(doc).encode(), "json")
        trace = log.traces[0]
        assert len(trace.events) == 4
        assert trace.event("e2").activities == frozenset({"PrTP", "SecTP"})
        assert trace.event("e1").indeterminate

    def test_empty_activity_list_names_event(self):
        doc = {"traces": [{"case_id": "c", "events": [
            {"id": "broken", "activities": [], "t_min": "1970-01-01T00:00:00Z", "t_max": "1970-01-01T00:00:00Z"}
        ]}]}
        with pytest.raises(ValidationError, match="broken"):
            load_log(json.dumps(doc).encode(), "json")

    def test_inverted_interval_names_event(self):
        doc = {"traces": [{"case_id": "c", "events": [
            {"id": "inv", "activities": ["a"], "t_min": "1970-01-02T00:00:00Z", "t_max": "1970-01-01T00:00:00Z"}
        ]}]}
        with pytest.raises(ValidationError, match="inv"):
            load_log(json.dumps(doc).encode(), "json")

    @pytest.mark.parametrize("label", ["tau", "τ", ">>"])
    def test_reserved_label_names_event(self, label):
        doc = {"traces": [{"case_id": "c", "events": [
            {"id": "ok", "activities": ["a"], "t_min": "1970-01-01T00:00:00Z", "t_max": "1970-01-01T00:00:00Z"},
            {"id": "res", "activities": ["a", label], "t_min": "1970-01-01T00:00:00Z",
             "t_max": "1970-01-01T00:00:00Z"},
        ]}]}
        with pytest.raises(ValidationError, match=f"'res'.*{re.escape(repr(label))}"):
            load_log(json.dumps(doc).encode(), "json")

    def test_malformed_json(self):
        with pytest.raises(ValidationError, match="malformed"):
            load_log(b"{not json", "json")

    @staticmethod
    def one_event(**fields) -> bytes:
        event = {"id": "e1", "activities": ["a"], "t_min": "1970-01-01T00:00:00Z", "t_max": "1970-01-01T00:00:00Z"}
        return json.dumps({"traces": [{"case_id": "c", "events": [{**event, **fields}]}]}).encode()

    def test_indeterminate_string_rejected(self):
        with pytest.raises(ValidationError, match="trace 'c': event 'e1': 'indeterminate' is a string, not a boolean"):
            load_log(self.one_event(indeterminate="false"), "json")

    @pytest.mark.parametrize("field", ["t_min", "t_max"])
    def test_numeric_timestamp_rejected(self, field):
        with pytest.raises(ValidationError, match=f"trace 'c': event 'e1': '{field}' is a number, not a string"):
            load_log(self.one_event(**{field: 5}), "json")

    def test_non_string_activity_rejected(self):
        with pytest.raises(ValidationError, match="trace 'c': event 'e1': activity 1 is null, not a string"):
            load_log(self.one_event(activities=["a", None]), "json")

    def test_non_string_ids_rejected(self):
        with pytest.raises(ValidationError, match="trace 'c': event 0: 'id' is a number, not a string"):
            load_log(self.one_event(id=7), "json")
        doc = json.loads(self.one_event())
        doc["traces"][0]["case_id"] = None
        with pytest.raises(ValidationError, match="trace 0: 'case_id' is null, not a string"):
            load_log(json.dumps(doc).encode(), "json")

    def test_malformed_timestamp_names_event(self):
        with pytest.raises(ValidationError, match="trace 'c': event 'e1': not a UTC"):
            load_log(self.one_event(t_max="yesterday"), "json")

    @pytest.mark.parametrize("field", ["t_min", "t_max"])
    def test_out_of_range_timestamp_names_event(self, field):
        stamps = {"t_min": "2020-01-31T00:00:00Z", "t_max": "2020-02-01T00:00:00Z", field: "2020-01-32T00:00:00Z"}
        with pytest.raises(ValidationError, match="trace 'c': event 'e1': not a UTC ISO-8601 timestamp: '2020-01-32"):
            load_log(self.one_event(**stamps), "json")

    def test_unwritable_time_names_event(self):
        year_10000 = 253402300800 * 10**9
        trace = UncertainTrace("c", (UncertainEvent("e1", frozenset({"a"}), year_10000, year_10000),))
        with pytest.raises(ValidationError, match="trace 'c': event 'e1': a time outside years 1-9999"):
            save_log(UncertainLog((trace,)), "json")

    def test_non_object_event_rejected(self):
        doc = {"traces": [{"case_id": "c", "events": [5]}]}
        with pytest.raises(ValidationError, match="trace 'c': event 0 is a number"):
            load_log(json.dumps(doc).encode(), "json")

    def test_string_document_rejected(self):
        with pytest.raises(ValidationError, match="log document is a string"):
            load_log(json.dumps("traces").encode(), "json")

    @pytest.mark.parametrize("doc", [{"traces": 5}, {"traces": [5]}, {"traces": [{"case_id": "c", "events": 5}]}])
    def test_wrong_typed_traces_rejected(self, doc):
        with pytest.raises(ValidationError, match="is a number, not"):
            load_log(json.dumps(doc).encode(), "json")

    def test_document_without_traces_rejected(self):
        with pytest.raises(ValidationError, match="log document has no 'traces' field"):
            load_log(b'{"schema_version": "1.0"}', "json")

    @pytest.mark.parametrize("field", ["id", "activities", "t_min", "t_max"])
    def test_missing_event_field_names_it(self, field):
        doc = json.loads(self.one_event())
        del doc["traces"][0]["events"][0][field]
        with pytest.raises(ValidationError, match=f"trace 'c': event is missing field '{field}'"):
            load_log(json.dumps(doc).encode(), "json")

    def test_unknown_attributes_warn(self):
        doc = {"traces": [{"case_id": "c", "events": [
            {"id": "e", "activities": ["a"], "t_min": "1970-01-01T00:00:00Z",
             "t_max": "1970-01-01T00:00:00Z", "color": "red"}
        ]}]}
        with pytest.warns(UserWarning, match="dropped 1"):
            load_log(json.dumps(doc).encode(), "json")

    @given(uncertain_traces(max_events=5))
    @settings(max_examples=50, deadline=None)
    def test_random_round_trip(self, trace):
        log = UncertainLog((trace,))
        assert load_log(save_log(log, "json"), "json") == log


class TestSources:
    @pytest.mark.parametrize("fmt", ["json", "xes"])
    def test_file_objects_read(self, fmt):
        log = UncertainLog((running_example(),))
        data = save_log(log, fmt)
        assert load_log(io.BytesIO(data), fmt) == log
        assert load_log(io.StringIO(data.decode("utf-8")), fmt) == log

    def test_net_file_object_read(self):
        sn = event_net(["a", "b"])
        assert save_net(load_net(io.BytesIO(save_net(sn)))) == save_net(sn)

    def test_unsupported_format_rejected(self):
        log = UncertainLog((running_example(),))
        with pytest.raises(ValidationError, match="unsupported log format 'csv' \\(expected 'json' or 'xes'\\)"):
            save_log(log, "csv")
        with pytest.raises(ValidationError, match="unsupported log format 'csv' \\(expected 'json' or 'xes'\\)"):
            load_log(save_log(log, "json"), "csv")


class TestXesLog:
    def test_round_trip(self):
        log = UncertainLog((running_example(),))
        assert load_log(save_log(log, "xes"), "xes") == log

    def test_certain_log_has_no_uncertainty_keys(self):
        trace = UncertainTrace("c", (certain_event("e1", "a", 0), certain_event("e2", "b", 60)))
        data = save_log(UncertainLog((trace,)), "xes").decode()
        for key in (XES_KEY_ACTIVITY_SET, XES_KEY_TIME_MIN, XES_KEY_TIME_MAX, XES_KEY_INDETERMINACY):
            assert key not in data

    def test_indeterminate_event_carries_marker(self):
        trace = UncertainTrace("c", (UncertainEvent("e1", frozenset({"a"}), 0, 0, True),))
        data = save_log(UncertainLog((trace,)), "xes").decode()
        assert XES_KEY_INDETERMINACY in data

    def test_plain_xes_event_loads_as_certain(self):
        data = b"""<?xml version='1.0' encoding='utf-8'?>
<log xes.version="1849-2016">
  <trace>
    <string key="concept:name" value="case1"/>
    <event>
      <string key="concept:name" value="a"/>
      <date key="time:timestamp" value="2020-01-01T00:00:00Z"/>
    </event>
  </trace>
</log>
"""
        log = load_log(data, "xes")
        event = log.traces[0].events[0]
        assert event.activities == frozenset({"a"})
        assert event.t_min == event.t_max
        assert not event.indeterminate

    def test_naive_reader_sees_fallback_values(self):
        log = UncertainLog((running_example(),))
        rows = naive_xes_activity_sequences(save_log(log, "xes"))
        assert rows == [[
            ("NightSweats", "1970-01-06T00:00:00Z"),
            ("PrTP", "1970-01-09T00:00:00Z"),
            ("Splenomeg", "1970-01-05T00:00:00Z"),
            ("Adm", "1970-01-13T00:00:00Z"),
        ]]

    def test_event_without_activity_rejected(self):
        data = b"""<log><trace><event><date key="time:timestamp" value="2020-01-01T00:00:00Z"/></event></trace></log>"""
        with pytest.raises(ValidationError, match="no activity"):
            load_log(data, "xes")

    @pytest.mark.parametrize("label", ["tau", "τ", ">>"])
    def test_reserved_label_names_event(self, label):
        # No event can hold a reserved label, so write a valid one and swap the label in.
        trace = UncertainTrace("c", (
            certain_event("ok", "a", 0),
            UncertainEvent("res", frozenset({"a", "placeholder"}), 1, 1),
        ))
        data = save_log(UncertainLog((trace,)), "xes")
        assert data.count(b'"placeholder"') == 1
        with pytest.raises(ValidationError, match=f"'res'.*{re.escape(repr(label))}"):
            load_log(data.replace(b'"placeholder"', f'"{label}"'.encode()), "xes")

    def test_malformed_xml(self):
        with pytest.raises(ValidationError, match="malformed"):
            load_log(b"<log><trace>", "xes")

    def test_root_other_than_log_rejected(self):
        with pytest.raises(ValidationError, match="expected <log> root element, found <trace>"):
            load_log(b"<trace/>", "xes")

    @staticmethod
    def one_event(*attributes: str) -> bytes:
        body = "".join(attributes)
        return f'<log><trace><string key="concept:name" value="c"/><event>{body}</event></trace></log>'.encode()

    @pytest.mark.parametrize("key", [XES_KEY_TIME_MIN, XES_KEY_TIME_MAX])
    def test_one_interval_endpoint_rejected(self, key):
        data = self.one_event(
            '<string key="concept:name" value="a"/>',
            '<date key="time:timestamp" value="2020-01-01T00:00:00Z"/>',
            f'<date key="{key}" value="2020-01-01T00:00:00Z"/>',
        )
        with pytest.raises(ValidationError, match="trace 'c': event 'c:e1' needs both interval endpoints"):
            load_log(data, "xes")

    def test_event_without_timestamp_rejected(self):
        data = self.one_event('<string key="concept:name" value="a"/>')
        with pytest.raises(ValidationError, match="trace 'c': event 'c:e1' has no timestamp information"):
            load_log(data, "xes")

    def test_unknown_attributes_warn(self):
        data = self.one_event(
            '<string key="concept:name" value="a"/>',
            '<date key="time:timestamp" value="2020-01-01T00:00:00Z"/>',
            '<string key="org:resource" value="nurse"/>',
            '<int key="cost" value="3"/>',
        )
        with pytest.warns(UserWarning, match="dropped 2 unrecognized event attribute"):
            log = load_log(data, "xes")
        assert log.traces[0].events[0].activities == frozenset({"a"})

    # A point event carries only time:timestamp; the interval bounds take over from it otherwise.
    @pytest.mark.parametrize("key, t_max", [("time:timestamp", 0), (XES_KEY_TIME_MIN, 60 * 10**9)])
    def test_out_of_range_timestamp_names_event(self, key, t_max):
        trace = UncertainTrace("c", (UncertainEvent("e1", frozenset({"a"}), 0, t_max),))
        data = save_log(UncertainLog((trace,)), "xes").decode()
        attribute = f'key="{key}" value="1970-01-01T00:00:00Z"'
        assert data.count(attribute) == 1
        data = data.replace(attribute, f'key="{key}" value="2020-02-30T00:00:00Z"')
        with pytest.raises(ValidationError, match="trace 'c': event 'e1': not a UTC ISO-8601 timestamp"):
            load_log(data.encode(), "xes")

    @pytest.mark.parametrize("t_min, t_max", [(0, 253402300800 * 10**9), (-62135596801 * 10**9, 0)])
    def test_unwritable_time_names_event(self, t_min, t_max):
        trace = UncertainTrace("c", (UncertainEvent("e1", frozenset({"a"}), t_min, t_max),))
        with pytest.raises(ValidationError, match="trace 'c': event 'e1': a time outside years 1-9999"):
            save_log(UncertainLog((trace,)), "xes")

    @given(uncertain_traces(max_events=5))
    @settings(max_examples=50, deadline=None)
    def test_random_round_trip(self, trace):
        log = UncertainLog((trace,))
        assert load_log(save_log(log, "xes"), "xes") == log


class TestNetIo:
    def test_icu_fixture_shape(self):
        icu = load_net(DATA_DIR / "icu_net.json")
        assert len(icu.net.transitions) == 16
        invisible = icu.net.transitions - set(icu.net.labels)
        assert invisible == {"t7", "t11", "t14"}
        assert len(icu.net.places) == 17

    def test_event_net_round_trip(self):
        sn = event_net(["a", "b"])
        loaded = load_net(save_net(sn))
        assert net_to_dict(loaded) == net_to_dict(sn)
        assert save_net(loaded) == save_net(sn)

    def test_arc_to_unknown_place(self):
        doc = {
            "places": ["p1"],
            "transitions": [{"id": "t1", "label": "a"}],
            "arcs": [["p1", "t1"], ["t1", "p9"]],
            "initial_marking": {"p1": 1},
            "final_marking": {"p1": 1},
        }
        with pytest.raises(ValidationError):
            load_net(json.dumps(doc).encode())

    def test_marking_over_unknown_place(self):
        doc = {
            "places": ["p1", "p2"],
            "transitions": [{"id": "t1", "label": "a"}],
            "arcs": [["p1", "t1"], ["t1", "p2"]],
            "initial_marking": {"nope": 1},
            "final_marking": {"p2": 1},
        }
        with pytest.raises(ValidationError):
            load_net(json.dumps(doc).encode())

    def test_list_document_rejected(self):
        with pytest.raises(ValidationError, match="net document is an array"):
            load_net(b"[]")

    def test_malformed_json(self):
        with pytest.raises(ValidationError, match="malformed JSON net"):
            load_net(b'{"places": [')

    @staticmethod
    def doc() -> dict:
        return {
            "places": ["p1", "p2"],
            "transitions": [{"id": "t1", "label": "a"}],
            "arcs": [["p1", "t1"], ["t1", "p2"]],
            "initial_marking": {"p1": 1},
            "final_marking": {"p2": 1},
        }

    @pytest.mark.parametrize("field", ["places", "transitions", "arcs"])
    def test_missing_field_rejected(self, field):
        doc = self.doc()
        del doc[field]
        with pytest.raises(ValidationError, match=f"net document is missing field '{field}'"):
            load_net(json.dumps(doc).encode())

    @pytest.mark.parametrize("field, value, message", [
        ("transitions", [{"id": "t1", "label": "a"}, {"id": "t1", "label": "b"}], "duplicate transition ids"),
        ("places", ["p1", "p2", "p1"], "duplicate places"),
        ("transitions", [{"label": "a"}], "net transition entry without an 'id'"),
        ("final_marking", {"p2": -1}, "net field 'final_marking': marking count for 'p2' must be a nonnegative"),
    ], ids=["duplicate-transition", "duplicate-place", "transition-without-id", "negative-count"])
    def test_invalid_field_rejected(self, field, value, message):
        doc = self.doc()
        load_net(json.dumps(doc).encode())
        doc[field] = value
        with pytest.raises(ValidationError, match=message):
            load_net(json.dumps(doc).encode())

    @pytest.mark.parametrize("field, value, message", [
        ("arcs", [["p1", "t1", "p2"]], r"net field 'arcs': entry 0 is not a pair of strings"),
        ("places", 5, r"net field 'places' is a number, not an array"),
        ("transitions", ["idx"], r"net field 'transitions': entry 0 is a string, not an object"),
        ("transitions", [3], r"net field 'transitions': entry 0 is a number, not an object"),
        ("places", ["p1", "p2", 7], r"net field 'places': entry 2 is a number, not a string"),
        ("initial_marking", ["p1"], r"net field 'initial_marking' is an array, not an object"),
        ("initial_marking", {"p1": True}, r"net field 'initial_marking': count for 'p1' is a boolean, not an integer"),
        ("transitions", [{"id": "t1", "label": 5}], r"net transition 't1': 'label' is a number, not a string"),
        ("transitions", [{"id": 5, "label": "a"}], r"net field 'transitions': entry 0: 'id' is a number, not a string"),
    ], ids=["three-element-arc", "number-places", "string-transition", "number-transition", "number-place",
            "array-marking", "boolean-count", "number-label", "number-id"])
    def test_wrong_typed_field_rejected(self, field, value, message):
        doc = {
            "places": ["p1", "p2"],
            "transitions": [{"id": "t1", "label": "a"}],
            "arcs": [["p1", "t1"], ["t1", "p2"]],
            "initial_marking": {"p1": 1},
            "final_marking": {"p2": 1},
        }
        load_net(json.dumps(doc).encode())
        doc[field] = value
        with pytest.raises(ValidationError, match=message):
            load_net(json.dumps(doc).encode())

    def test_null_label_means_invisible(self):
        doc = {
            "places": ["p1", "p2"],
            "transitions": [{"id": "t1", "label": None}],
            "arcs": [["p1", "t1"], ["t1", "p2"]],
            "initial_marking": {"p1": 1},
            "final_marking": {"p2": 1},
        }
        sn = load_net(json.dumps(doc).encode())
        assert sn.net.label("t1") is None
