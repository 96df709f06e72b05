"""Independent checks of `uncertain-conform bounds` output.

Nothing here imports the program. Nets are read straight from their JSON
document and replayed with a token game of its own; realizations come from
interval precedence x one label per event x an optional skip of each
indeterminate event; an alignment cost is a plain Dijkstra over
(sequence position, marking) pairs with unit costs (log-only and visible
model-only moves cost 1, synchronous and invisible moves cost 0).
"""
from __future__ import annotations

import calendar
import heapq
import itertools
import re

NO_MOVE = ">>"

_STAMP = re.compile(r"(\d{4})-(\d{2})-(\d{2})[T ](\d{2}):(\d{2}):(\d{2})(?:\.(\d{1,9}))?(?:Z|\+00:00)")


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def stamp_ns(text: str) -> int:
    """UTC ISO-8601 timestamp to integer nanoseconds."""
    m = _STAMP.fullmatch(text)
    if m is None:
        raise CheckFailed(f"not a UTC timestamp: {text!r}")
    seconds = calendar.timegm(tuple(int(m.group(i)) for i in range(1, 7)) + (0, 0, 0))
    return seconds * 10**9 + int((m.group(7) or "").ljust(9, "0"))


class Net:
    """Token game of a labeled Petri net given as the program's net JSON."""

    def __init__(self, doc: dict):
        self.places = sorted(doc["places"])
        slot = {p: i for i, p in enumerate(self.places)}
        self.labels = {t["id"]: t.get("label") for t in doc["transitions"]}
        self.transitions = sorted(self.labels)
        pre = {t: [0] * len(slot) for t in self.transitions}
        post = {t: [0] * len(slot) for t in self.transitions}
        for src, dst in {tuple(arc) for arc in doc["arcs"]}:
            if src in slot:
                pre[dst][slot[src]] += 1
            else:
                post[src][slot[dst]] += 1
        self.pre = {t: tuple(v) for t, v in pre.items()}
        self.post = {t: tuple(v) for t, v in post.items()}
        self.initial = self._marking(doc.get("initial_marking", {}), slot)
        self.final = self._marking(doc.get("final_marking", {}), slot)
        self._graph: tuple[list, dict, list] | None = None

    @staticmethod
    def _marking(counts: dict, slot: dict) -> tuple[int, ...]:
        m = [0] * len(slot)
        for place, count in counts.items():
            m[slot[place]] = count
        return tuple(m)

    def fire(self, marking: tuple[int, ...], t: str) -> tuple[int, ...] | None:
        """Successor marking, or None when ``t`` is not enabled."""
        pre, post = self.pre[t], self.post[t]
        if any(have < need for have, need in zip(marking, pre)):
            return None
        return tuple(m - a + b for m, a, b in zip(marking, pre, post))

    def graph(self) -> tuple[list, dict, list]:
        """Reachable markings: (markings, index, out-edges as (tid, label, dst))."""
        if self._graph is None:
            nodes = [self.initial]
            index = {self.initial: 0}
            edges: list[list[tuple[str, str | None, int]]] = []
            i = 0
            while i < len(nodes):
                out = []
                for t in self.transitions:
                    nxt = self.fire(nodes[i], t)
                    if nxt is not None:
                        if nxt not in index:
                            index[nxt] = len(nodes)
                            nodes.append(nxt)
                        out.append((t, self.labels[t], index[nxt]))
                edges.append(out)
                i += 1
            self._graph = (nodes, index, edges)
        return self._graph


def realizations(trace: dict) -> set[tuple[str, ...]]:
    """Every activity sequence a log-JSON trace may stand for."""
    events = [
        (stamp_ns(e["t_min"]), stamp_ns(e["t_max"]), sorted(e["activities"]), bool(e.get("indeterminate")))
        for e in trace["events"]
    ]
    n = len(events)
    before = [{j for j in range(n) if events[j][1] < events[i][0]} for i in range(n)]
    out: set[tuple[str, ...]] = set()

    def orders(prefix: list[int], placed: set[int]):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for i in range(n):
            if i not in placed and before[i] <= placed:
                prefix.append(i)
                placed.add(i)
                yield from orders(prefix, placed)
                placed.discard(i)
                prefix.pop()

    for order in orders([], set()):
        choices = [events[i][2] + ([None] if events[i][3] else []) for i in order]
        for combo in itertools.product(*choices):
            out.add(tuple(a for a in combo if a is not None))
    return out


def alignment_cost(seq: tuple[str, ...], net: Net) -> int:
    """Optimal alignment cost of ``seq`` against ``net`` by Dijkstra."""
    nodes, index, edges = net.graph()
    goal = (len(seq), index.get(net.final))
    if goal[1] is None:
        raise CheckFailed("model cannot reach its final marking")
    dist = {(0, 0): 0}
    heap = [(0, 0, 0)]
    while heap:
        d, i, m = heapq.heappop(heap)
        if (i, m) == goal:
            return d
        if d > dist[(i, m)]:
            continue
        steps = [(i + 1, m, 1)] if i < len(seq) else []
        for _, label, dst in edges[m]:
            steps.append((i, dst, 0 if label is None else 1))
            if i < len(seq) and label == seq[i]:
                steps.append((i + 1, dst, 0))
        for j, v, c in steps:
            if d + c < dist.get((j, v), d + c + 1):
                dist[(j, v)] = d + c
                heapq.heappush(heap, (d + c, j, v))
    raise CheckFailed(f"no alignment of {seq} reaches the final marking")


def replay_witness(witness: dict, net: Net) -> tuple[tuple[str, ...], int]:
    """Replay a witness (alignment JSON) on the model; return (log projection, cost).

    Raises CheckFailed unless every model move is enabled, every synchronous
    move carries its transition's label, and the replay ends in the final
    marking.
    """
    marking = net.initial
    projection: list[str] = []
    cost = 0
    for move in witness["moves"]:
        log, tid = move["log"], move["model_transition"]
        if tid is None:
            if log == NO_MOVE:
                raise CheckFailed("a witness move has neither side")
            projection.append(log)
            cost += 1
            continue
        if tid not in net.labels:
            raise CheckFailed(f"witness fires unknown transition {tid!r}")
        nxt = net.fire(marking, tid)
        if nxt is None:
            raise CheckFailed(f"witness fires {tid!r}, which is not enabled")
        marking = nxt
        label = net.labels[tid]
        if log == NO_MOVE:
            cost += 0 if label is None else 1
        elif log == label:
            projection.append(log)
        else:
            raise CheckFailed(f"synchronous move pairs {log!r} with {tid!r} labelled {label!r}")
    if marking != net.final:
        raise CheckFailed("witness does not end in the final marking")
    if witness["cost"] != cost:
        raise CheckFailed(f"witness claims cost {witness['cost']} but its moves cost {cost}")
    return tuple(projection), cost


class Oracle:
    """Expected bounds of the traces of one log against one model."""

    def __init__(self, net: Net):
        self.net = net
        self._costs: dict[tuple[str, ...], int] = {}

    def cost(self, seq: tuple[str, ...]) -> int:
        if seq not in self._costs:
            self._costs[seq] = alignment_cost(seq, self.net)
        return self._costs[seq]

    def check_report(self, trace: dict, report: dict) -> None:
        """Check one `bounds --json` report against the trace it is for: the
        realization count, both witnesses, and both bounds against the min
        and max of the Dijkstra costs of every realization."""
        case = trace["case_id"]
        if report["error"] is not None:
            raise CheckFailed(f"{case}: reported error {report['error']!r}")
        reals = realizations(trace)
        if report["realization_count"] != len(reals):
            raise CheckFailed(f"{case}: {report['realization_count']} realizations, expected {len(reals)}")
        for side in ("lower", "upper"):
            projection, cost = replay_witness(report[f"{side}_witness"], self.net)
            if projection not in reals:
                raise CheckFailed(f"{case}: {side} witness projects onto {projection}, not a realization")
            if cost != report[f"{side}_cost"]:
                raise CheckFailed(f"{case}: {side} witness costs {cost}, bound is {report[f'{side}_cost']}")
        costs = [self.cost(seq) for seq in reals]
        expected = (min(costs), max(costs))
        if (report["lower_cost"], report["upper_cost"]) != expected:
            raise CheckFailed(f"{case}: bounds {(report['lower_cost'], report['upper_cost'])}, expected {expected}")


def parse_bounds_csv(text: str) -> tuple[dict[str, tuple[str, str, str]], tuple[str, str]]:
    """Rows of `bounds` CSV output: ({case_id: (lower, upper, count)}, (total_lower, total_upper))."""
    lines = text.splitlines()
    if not lines or lines[0] != "case_id,lower_cost,upper_cost,realization_count":
        raise CheckFailed("bounds CSV has an unexpected header")
    rows: dict[str, tuple[str, str, str]] = {}
    total: tuple[str, str] | None = None
    for line in lines[1:]:
        case, lower, upper, count = line.split(",")
        if case == "total":
            total = (lower, upper)
        else:
            rows[case] = (lower, upper, count)
    if total is None:
        raise CheckFailed("bounds CSV has no total row")
    return rows, total


def check_csv(csv_text: str, reports: list[dict]) -> int:
    """The CSV agrees with the reports row by row and in its totals; returns capped rows."""
    rows, total = parse_bounds_csv(csv_text)
    if list(rows) != [r["case_id"] for r in reports]:
        raise CheckFailed("CSV rows and reports list different cases")
    capped = 0
    for r in reports:
        if r["error"] is not None:
            capped += 1
            continue
        expected = (str(r["lower_cost"]), str(r["upper_cost"]), str(r["realization_count"]))
        if rows[r["case_id"]] != expected:
            raise CheckFailed(f"{r['case_id']}: CSV row {rows[r['case_id']]} disagrees with {expected}")
    if capped == 0:
        sums = (str(sum(r["lower_cost"] for r in reports)), str(sum(r["upper_cost"] for r in reports)))
        if total != sums:
            raise CheckFailed(f"CSV total {total} is not the sum of the rows {sums}")
    return capped
