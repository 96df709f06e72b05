"""Shared test utilities: fixture loading, strategies, independent oracles."""
from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

from hypothesis import strategies as st

from uncertain_conform import (
    SystemNet,
    UncertainEvent,
    UncertainTrace,
    load_log,
    load_net,
    random_block_net,
)

DATA_DIR = Path(__file__).parent / "data"

ALPHABET = ("a", "b", "c", "d")


def icu_model() -> SystemNet:
    return load_net(DATA_DIR / "icu_net.json")


def icu_traces() -> tuple[UncertainTrace, UncertainTrace]:
    log = load_log(DATA_DIR / "icu_log.json")
    by_case = {t.case_id: t for t in log}
    return by_case["table6"], by_case["table7"]


@st.composite
def uncertain_events(draw, event_id: str, alphabet=ALPHABET, uncertain: bool = True):
    start = draw(st.integers(0, 20))
    width = draw(st.integers(0, 6)) if uncertain else 0
    size = draw(st.integers(1, 2)) if uncertain else 1
    activities = draw(st.frozensets(st.sampled_from(alphabet), min_size=size, max_size=size))
    indeterminate = draw(st.booleans()) if uncertain else False
    return UncertainEvent(event_id, activities, start, start + width, indeterminate)


@st.composite
def uncertain_traces(draw, max_events: int = 7, alphabet=ALPHABET, uncertain: bool = True):
    n = draw(st.integers(1, max_events))
    events = tuple(
        draw(uncertain_events(f"e{i}", alphabet=alphabet, uncertain=uncertain)) for i in range(n)
    )
    return UncertainTrace("case", events)


@st.composite
def models_and_traces(draw, max_events: int = 7, max_transitions: int = 12):
    """A random block model plus an uncertain trace over its labels (with noise)."""
    size = draw(st.integers(1, max_transitions))
    seed = draw(st.integers(0, 10**6))
    model = random_block_net(size, f"hyp{seed}")
    alphabet = tuple(sorted(model.net.labels.values())) + ("noise1", "noise2")
    trace = draw(uncertain_traces(max_events=max_events, alphabet=alphabet))
    return model, trace


def lcs_length(a, b) -> int:
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m):
        for j in range(n):
            table[i + 1][j + 1] = table[i][j] + 1 if a[i] == b[j] else max(table[i][j + 1], table[i + 1][j])
    return table[m][n]


def alignment_cost_by_language(model, max_len, max_firings=10_000):
    """Independent alignment-cost oracle: a function giving a trace's cheapest
    insert/delete edit distance against any word of the model's (bounded)
    language, which is computed once, here."""
    from uncertain_conform import language

    words = language(model, max_len=max_len, max_firings=max_firings)
    assert words, "oracle needs a model with nonempty language"
    return lambda trace: min(len(trace) + len(w) - 2 * lcs_length(trace, w) for w in words)


def naive_xes_activity_sequences(data: bytes) -> list[list[tuple[str, str]]]:
    """Minimal uncertainty-unaware XES reader: concept:name + time:timestamp only."""
    root = ET.fromstring(data)
    out = []
    for trace_el in root.iter("trace"):
        events = []
        for event_el in trace_el.iter("event"):
            name = stamp = None
            for child in event_el:
                if child.get("key") == "concept:name" and child.tag == "string":
                    name = child.get("value")
                elif child.get("key") == "time:timestamp" and child.tag == "date":
                    stamp = child.get("value")
            events.append((name, stamp))
        out.append(events)
    return out
