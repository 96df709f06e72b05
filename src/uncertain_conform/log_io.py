"""Reading and writing uncertain logs (JSON, XES) and nets (JSON).

Timestamps travel as UTC ISO-8601 strings with a "Z" suffix; nanosecond
fractions survive round-trips. The XES mapping keeps uncertainty in dedicated
meta-attributes and always writes fallback values (``concept:name`` is the
lexicographically least candidate activity, ``time:timestamp`` the interval
start) so uncertainty-unaware consumers still see a plain certain log.
``xml.etree`` is imported by the XES functions alone, so reading a JSON log
never loads it.
"""
from __future__ import annotations

import io
import json
import re
import warnings
from datetime import datetime, timedelta
from pathlib import Path
from typing import TYPE_CHECKING, Union

from .errors import ValidationError
from .events import UncertainEvent, UncertainLog, UncertainTrace
from .petri import Marking, PetriNet, SystemNet

if TYPE_CHECKING:
    import xml.etree.ElementTree as ET

SCHEMA_VERSION = "1.0"

#: XES attribute keys carrying uncertainty; everything else falls back to the
#: standard concept/time keys.
XES_KEY_ACTIVITY_SET = "uncertainty:activity"
XES_KEY_TIME_MIN = "uncertainty:time:min"
XES_KEY_TIME_MAX = "uncertainty:time:max"
XES_KEY_INDETERMINACY = "uncertainty:indeterminacy"
XES_KEY_EVENT_ID = "identity:id"

_KNOWN_EVENT_KEYS = {
    "concept:name",
    "time:timestamp",
    XES_KEY_ACTIVITY_SET,
    XES_KEY_TIME_MIN,
    XES_KEY_TIME_MAX,
    XES_KEY_INDETERMINACY,
    XES_KEY_EVENT_ID,
}

_JSON_EVENT_KEYS = frozenset({"id", "activities", "t_min", "t_max", "indeterminate"})

_NS_PER_SECOND = 10**9
_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)

_TIMESTAMP_RE = re.compile(r"\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2}(?:\.(\d{1,9}))?(?:Z|\+00:00)", re.ASCII)

Source = Union[str, Path, bytes, io.IOBase]


def parse_timestamp(text: str) -> int:
    """UTC ISO-8601 ("Z" or "+00:00") to integer nanoseconds since the epoch.

    Years run from 1 to 9999 (proleptic Gregorian), seconds from 0 to 59; a
    field out of range is rejected like a malformed stamp. The pattern sets
    the shape and admits ASCII digits only; ``datetime`` reads the fields.
    """
    stamp = text.strip()
    m = _TIMESTAMP_RE.fullmatch(stamp)
    try:
        moment = datetime.fromisoformat(stamp[:19]) if m else None
    except ValueError:
        moment = None
    if moment is None:
        raise ValidationError(f"not a UTC ISO-8601 timestamp: {text!r}")
    nanos = int(m[1].ljust(9, "0")) if m[1] else 0
    return (moment - _EPOCH) // _SECOND * _NS_PER_SECOND + nanos


def format_timestamp(ns: int) -> str:
    """Integer nanoseconds to canonical UTC ISO-8601 (fraction only if nonzero)."""
    seconds, nanos = divmod(ns, _NS_PER_SECOND)
    stamp = (_EPOCH + timedelta(seconds=seconds)).isoformat()
    if nanos:
        stamp += f".{nanos:09d}".rstrip("0")
    return stamp + "Z"


def _stamps(trace: UncertainTrace, e: UncertainEvent) -> dict[str, str]:
    """The event's ``t_min`` and ``t_max`` as written; a time outside years 1-9999 is an input error."""
    try:
        return {"t_min": format_timestamp(e.t_min), "t_max": format_timestamp(e.t_max)}
    except OverflowError as exc:
        raise ValidationError(f"trace {trace.case_id!r}: event {e.id!r}: a time outside years 1-9999") from exc


def _read_bytes(source: Source) -> bytes:
    if isinstance(source, bytes):
        return source
    if isinstance(source, (str, Path)):
        return Path(source).read_bytes()
    data = source.read()
    return data if isinstance(data, bytes) else data.encode("utf-8")


# ---------------------------------------------------------------------------
# Uncertain log: JSON


def log_to_dict(log: UncertainLog) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "traces": [
            {
                "case_id": trace.case_id,
                "events": [
                    {
                        "id": e.id,
                        "activities": sorted(e.activities),
                        **_stamps(trace, e),
                        "indeterminate": e.indeterminate,
                    }
                    for e in trace.events
                ],
            }
            for trace in log
        ],
    }


def _json_type(value) -> str:
    names = {dict: "an object", list: "an array", str: "a string", bool: "a boolean", type(None): "null"}
    return names.get(type(value), "a number")


def _expect(value, kind: type, what: str):
    """``value`` if it decoded to the JSON type ``kind``, else a ValidationError naming ``what``."""
    if not isinstance(value, kind):
        raise ValidationError(f"{what} is {_json_type(value)}, not {_json_type(kind())}")
    return value


def _event_from_dict(raw, context: str, position: int) -> UncertainEvent:
    raw = _expect(raw, dict, f"{context}: event {position}")
    try:
        event_id = raw["id"]
        activities = raw["activities"]
        min_text = raw["t_min"]
        max_text = raw["t_max"]
    except KeyError as exc:
        raise ValidationError(f"{context}: event is missing field {exc.args[0]!r}") from exc
    _expect(event_id, str, f"{context}: event {position}: 'id'")
    if not isinstance(activities, list) or not activities:
        raise ValidationError(f"{context}: event {event_id!r} needs a nonempty activity list")
    try:
        for i, label in enumerate(activities):
            if not isinstance(label, str):
                _expect(label, str, f"activity {i}")
        t_min = parse_timestamp(_expect(min_text, str, "'t_min'"))
        # A point interval (every certain event) is parsed once.
        t_max = t_min if max_text == min_text else parse_timestamp(_expect(max_text, str, "'t_max'"))
        indeterminate = _expect(raw.get("indeterminate", False), bool, "'indeterminate'")
    except ValidationError as exc:
        raise ValidationError(f"{context}: event {event_id!r}: {exc}") from exc
    return UncertainEvent(event_id, frozenset(activities), t_min, t_max, indeterminate)


def log_from_dict(doc: dict) -> UncertainLog:
    if "traces" not in _expect(doc, dict, "log document"):
        raise ValidationError("log document has no 'traces' field")
    unknown = 0
    traces = []
    for i, raw_trace in enumerate(_expect(doc["traces"], list, "log field 'traces'")):
        raw_trace = _expect(raw_trace, dict, f"trace {i}")
        case_id = _expect(raw_trace.get("case_id", f"case{i}"), str, f"trace {i}: 'case_id'")
        context = f"trace {case_id!r}"
        events = []
        for j, raw in enumerate(_expect(raw_trace.get("events", []), list, f"{context}: 'events'")):
            events.append(_event_from_dict(raw, context, j))
            # An event that has its four required fields and no more has no unknown one.
            if len(raw) > 4:
                unknown += len(raw.keys() - _JSON_EVENT_KEYS)
        traces.append(UncertainTrace(case_id, tuple(events)))
    if unknown:
        warnings.warn(f"dropped {unknown} unrecognized event attribute(s) while loading", stacklevel=2)
    return UncertainLog(tuple(traces))


# ---------------------------------------------------------------------------
# Uncertain log: XES


def _xes_attr(parent: ET.Element, tag: str, key: str, value: str) -> None:
    parent.append(parent.makeelement(tag, {"key": key, "value": value}))


def _log_to_xes(log: UncertainLog) -> bytes:
    import xml.etree.ElementTree as ET

    root = ET.Element("log", {"xes.version": "1849-2016", "xes.features": "nested-attributes"})
    ET.SubElement(root, "extension", {"name": "Concept", "prefix": "concept", "uri": "http://www.xes-standard.org/concept.xesext"})
    ET.SubElement(root, "extension", {"name": "Time", "prefix": "time", "uri": "http://www.xes-standard.org/time.xesext"})
    for trace in log:
        trace_el = ET.SubElement(root, "trace")
        _xes_attr(trace_el, "string", "concept:name", trace.case_id)
        for e in trace.events:
            stamps = _stamps(trace, e)
            event_el = ET.SubElement(trace_el, "event")
            _xes_attr(event_el, "string", "concept:name", min(e.activities))
            _xes_attr(event_el, "date", "time:timestamp", stamps["t_min"])
            _xes_attr(event_el, "string", XES_KEY_EVENT_ID, e.id)
            if len(e.activities) > 1:
                list_el = ET.SubElement(event_el, "list", {"key": XES_KEY_ACTIVITY_SET})
                values_el = ET.SubElement(list_el, "values")
                for label in sorted(e.activities):
                    _xes_attr(values_el, "string", "activity", label)
            if e.t_min != e.t_max:
                _xes_attr(event_el, "date", XES_KEY_TIME_MIN, stamps["t_min"])
                _xes_attr(event_el, "date", XES_KEY_TIME_MAX, stamps["t_max"])
            if e.indeterminate:
                _xes_attr(event_el, "boolean", XES_KEY_INDETERMINACY, "true")
    tree = ET.ElementTree(root)
    ET.indent(tree)
    buffer = io.BytesIO()
    tree.write(buffer, encoding="utf-8", xml_declaration=True)
    return buffer.getvalue() + b"\n"


def _xes_event(event_el: ET.Element, context: str, fallback_id: str) -> tuple[UncertainEvent, int]:
    attrs: dict[str, str] = {}
    activity_set: list[str] = []
    unknown = 0
    for child in event_el:
        key = child.get("key", "")
        if child.tag == "list" and key == XES_KEY_ACTIVITY_SET:
            for sub in child.iter("string"):
                if sub.get("key") == "activity" and sub.get("value") is not None:
                    activity_set.append(sub.get("value", ""))
        elif key in _KNOWN_EVENT_KEYS:
            attrs[key] = child.get("value", "")
        else:
            unknown += 1

    event_id = attrs.get(XES_KEY_EVENT_ID, fallback_id)
    if activity_set:
        activities = frozenset(activity_set)
    elif "concept:name" in attrs:
        activities = frozenset([attrs["concept:name"]])
    else:
        raise ValidationError(f"{context}: event {event_id!r} has no activity information")

    if XES_KEY_TIME_MIN in attrs or XES_KEY_TIME_MAX in attrs:
        if XES_KEY_TIME_MIN not in attrs or XES_KEY_TIME_MAX not in attrs:
            raise ValidationError(f"{context}: event {event_id!r} needs both interval endpoints")
        min_text, max_text = attrs[XES_KEY_TIME_MIN], attrs[XES_KEY_TIME_MAX]
    elif "time:timestamp" in attrs:
        min_text = max_text = attrs["time:timestamp"]
    else:
        raise ValidationError(f"{context}: event {event_id!r} has no timestamp information")
    try:
        t_min = parse_timestamp(min_text)
        t_max = t_min if max_text == min_text else parse_timestamp(max_text)
    except ValidationError as exc:
        raise ValidationError(f"{context}: event {event_id!r}: {exc}") from exc

    indeterminate = attrs.get(XES_KEY_INDETERMINACY, "false").lower() == "true"
    return UncertainEvent(event_id, activities, t_min, t_max, indeterminate), unknown


def _log_from_xes(data: bytes) -> UncertainLog:
    import xml.etree.ElementTree as ET

    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise ValidationError(f"malformed XES document: {exc}") from exc
    if root.tag != "log":
        raise ValidationError(f"expected <log> root element, found <{root.tag}>")
    traces = []
    unknown = 0
    for i, trace_el in enumerate(root.iter("trace")):
        case_id = f"trace{i}"
        for child in trace_el:
            if child.tag == "string" and child.get("key") == "concept:name":
                case_id = child.get("value", case_id)
        context = f"trace {case_id!r}"
        events = []
        for j, event_el in enumerate(trace_el.iter("event")):
            event, dropped = _xes_event(event_el, context, fallback_id=f"{case_id}:e{j + 1}")
            unknown += dropped
            events.append(event)
        traces.append(UncertainTrace(case_id, tuple(events)))
    if unknown:
        warnings.warn(f"dropped {unknown} unrecognized event attribute(s) while loading", stacklevel=2)
    return UncertainLog(tuple(traces))


def save_log(log: UncertainLog, format: str = "json") -> bytes:
    """Serialize a log; round-trips through :func:`load_log` losslessly."""
    if format == "json":
        return (json.dumps(log_to_dict(log), indent=2, sort_keys=True) + "\n").encode("utf-8")
    if format == "xes":
        return _log_to_xes(log)
    raise ValidationError(f"unsupported log format {format!r} (expected 'json' or 'xes')")


def load_log(source: Source, format: str = "json") -> UncertainLog:
    """Parse a log document; validation failures name the offending event.

    Activities may not use the labels reserved by nets and alignments
    (``tau``, ``τ``, ``>>``).
    """
    data = _read_bytes(source)
    if format == "json":
        try:
            doc = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed JSON log: {exc}") from exc
        return log_from_dict(doc)
    if format == "xes":
        return _log_from_xes(data)
    raise ValidationError(f"unsupported log format {format!r} (expected 'json' or 'xes')")


# ---------------------------------------------------------------------------
# Nets: JSON


def net_to_dict(sn: SystemNet) -> dict:
    net = sn.net
    return {
        "places": sorted(net.places),
        "transitions": [
            {"id": t, "label": net.label(t)} for t in sorted(net.transitions)
        ],
        "arcs": sorted([list(arc) for arc in net.arcs]),
        "initial_marking": {p: c for p, c in sorted(sn.initial_marking.items())},
        "final_marking": {p: c for p, c in sorted(sn.final_marking.items())},
    }


def _net_field(doc: dict, field: str, kind: type, default=None):
    if field not in doc and default is None:
        raise ValidationError(f"net document is missing field {field!r}")
    return _expect(doc.get(field, default), kind, f"net field {field!r}")


def _net_marking(doc: dict, field: str) -> Marking:
    counts = _net_field(doc, field, dict, {})
    for place, count in counts.items():
        if isinstance(count, bool) or not isinstance(count, int):
            raise ValidationError(f"net field {field!r}: count for {place!r} is {_json_type(count)}, not an integer")
    try:
        return Marking(counts)
    except ValidationError as exc:
        raise ValidationError(f"net field {field!r}: {exc}") from exc


def net_from_dict(doc: dict) -> SystemNet:
    doc = _expect(doc, dict, "net document")
    places = _net_field(doc, "places", list)
    raw_transitions = _net_field(doc, "transitions", list)
    raw_arcs = _net_field(doc, "arcs", list)
    for i, place in enumerate(places):
        _expect(place, str, f"net field 'places': entry {i}")
    arcs = []
    for i, arc in enumerate(raw_arcs):
        if not isinstance(arc, list) or len(arc) != 2 or not all(isinstance(end, str) for end in arc):
            raise ValidationError(f"net field 'arcs': entry {i} is not a pair of strings: {arc!r}")
        arcs.append(tuple(arc))
    ids = []
    labels = {}
    for i, entry in enumerate(raw_transitions):
        if "id" not in _expect(entry, dict, f"net field 'transitions': entry {i}"):
            raise ValidationError("net transition entry without an 'id'")
        tid = _expect(entry["id"], str, f"net field 'transitions': entry {i}: 'id'")
        ids.append(tid)
        if entry.get("label") is not None:
            labels[tid] = _expect(entry["label"], str, f"net transition {tid!r}: 'label'")
    if len(set(ids)) != len(ids):
        raise ValidationError("net document has duplicate transition ids")
    if len(set(places)) != len(places):
        raise ValidationError("net document has duplicate places")
    net = PetriNet(places, ids, arcs, labels)
    return SystemNet(net, _net_marking(doc, "initial_marking"), _net_marking(doc, "final_marking"))


def save_net(sn: SystemNet) -> bytes:
    return (json.dumps(net_to_dict(sn), indent=2, sort_keys=True) + "\n").encode("utf-8")


def load_net(source: Source) -> SystemNet:
    data = _read_bytes(source)
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON net: {exc}") from exc
    return net_from_dict(doc)
