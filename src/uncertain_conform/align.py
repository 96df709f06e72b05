"""Optimal alignments and conformance bounds for uncertain traces.

The search runs over the product of an acyclic trace side and the model's
reachable markings. The trace side is the behavior net's reachability graph
for the lower bound and a plain chain for one realization or certain trace.
Model-move shortest paths are precomputed as a min-plus closure, so that
consuming one trace symbol is a vectorized relax step. One forward DP in
topological order of the trace side fills the cost tables and one backward
walk over them builds the witness. This is a uniform-cost search in disguise:
no heuristic, exact costs.

The upper bound is computed the honest way, by enumerating realizations and
aligning each one; the lower bound goes through the behavior net and needs a
single search.
"""
from __future__ import annotations

import heapq
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np

from .behavior import behavior_net
from .errors import CapExceeded, ValidationError
from .events import EnumerationCaps, UncertainLog, UncertainTrace, iter_realizations
from .petri import Marking, SystemNet, _fire_unchecked

#: Markings explored per net before giving up (guards unbounded nets).
STATE_CAP = 200_000

NO_MOVE = ">>"
TAU_MARKER = "tau"


@dataclass(frozen=True)
class CostFunction:
    """Per-move-class costs. Synchronous moves and invisible model moves are
    always free; only the two deviation classes are configurable."""

    log_move: int = 1
    model_move: int = 1

    def __post_init__(self):
        if self.log_move < 0 or self.model_move < 0:
            raise ValidationError("move costs must be nonnegative")


STANDARD_COST = CostFunction()


@dataclass(frozen=True)
class Move:
    """One alignment move: log side, model side, or both (synchronous)."""

    log_label: str | None
    model_label: str | None
    model_transition: str | None

    def __post_init__(self):
        if self.log_label is None and self.model_transition is None:
            raise ValidationError("a move needs a log side or a model side")

    @property
    def is_sync(self) -> bool:
        return self.log_label is not None and self.model_transition is not None

    @property
    def is_log_move(self) -> bool:
        return self.model_transition is None

    @property
    def is_model_move(self) -> bool:
        return self.log_label is None

    @property
    def is_invisible(self) -> bool:
        return self.is_model_move and self.model_label is None

    def cost(self, cost: CostFunction) -> int:
        if self.is_sync or self.is_invisible:
            return 0
        return cost.log_move if self.is_log_move else cost.model_move

    def as_dict(self) -> dict:
        if self.is_model_move:
            model_label = TAU_MARKER if self.model_label is None else self.model_label
        else:
            model_label = self.model_label if self.model_label is not None else NO_MOVE
        return {
            "log": self.log_label if self.log_label is not None else NO_MOVE,
            "model_label": model_label,
            "model_transition": self.model_transition,
        }


@dataclass(frozen=True)
class Alignment:
    """A sequence of legal moves with its total cost under the active costs."""

    moves: tuple[Move, ...]
    cost: int

    def log_projection(self) -> tuple[str, ...]:
        return tuple(m.log_label for m in self.moves if m.log_label is not None)

    def model_projection(self) -> tuple[str, ...]:
        return tuple(m.model_transition for m in self.moves if m.model_transition is not None)

    def as_dict(self) -> dict:
        return {"cost": self.cost, "moves": [m.as_dict() for m in self.moves]}


class ReachabilityGraph:
    """Explicit reachable-marking graph of a system net (BFS order, deterministic)."""

    def __init__(self, sn: SystemNet, state_cap: int = STATE_CAP):
        net = sn.net
        nodes: list[Marking] = [sn.initial_marking]
        index: dict[Marking, int] = {sn.initial_marking: 0}
        edges: list[list[tuple[str, str | None, int]]] = []
        frontier = 0
        order = net._sorted_transitions
        presets = net._pre
        while frontier < len(nodes):
            marking = nodes[frontier]
            counts = marking._counts  # zero counts are never stored
            out: list[tuple[str, str | None, int]] = []
            for t in order:
                if not all(p in counts for p in presets[t]):
                    continue
                nxt = _fire_unchecked(net, marking, t)
                if nxt not in index:
                    if len(nodes) >= state_cap:
                        raise CapExceeded(f"reachability exploration exceeded the state cap ({state_cap})")
                    index[nxt] = len(nodes)
                    nodes.append(nxt)
                out.append((t, net.label(t), index[nxt]))
            edges.append(out)
            frontier += 1

        self.sn = sn
        self.nodes = nodes
        self.index = index
        self.edges = edges
        self.n = len(nodes)
        self.initial = 0
        self.final: int | None = index.get(sn.final_marking)
        self.topo_order = self._topological_order()
        self._sync: dict[str, tuple[np.ndarray, np.ndarray, tuple[str, ...]]] | None = None
        self._closures: dict[CostFunction, "_Closure"] = {}

    def _topological_order(self) -> list[int] | None:
        indeg = [0] * self.n
        for out in self.edges:
            for _, _, dst in out:
                indeg[dst] += 1
        ready = [v for v in range(self.n) if indeg[v] == 0]
        order: list[int] = []
        while ready:
            v = ready.pop()
            order.append(v)
            for _, _, dst in self.edges[v]:
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    ready.append(dst)
        return order if len(order) == self.n else None

    def sync_edges(self) -> dict[str, tuple[np.ndarray, np.ndarray, tuple[str, ...]]]:
        """Per visible label: (source nodes, target nodes, transition ids)."""
        if self._sync is None:
            raw: dict[str, list[tuple[int, int, str]]] = {}
            for src, out in enumerate(self.edges):
                for tid, label, dst in out:
                    if label is not None:
                        raw.setdefault(label, []).append((src, dst, tid))
            self._sync = {
                label: (
                    np.array([s for s, _, _ in triples], dtype=np.intp),
                    np.array([d for _, d, _ in triples], dtype=np.intp),
                    tuple(t for _, _, t in triples),
                )
                for label, triples in raw.items()
            }
        return self._sync

    def in_edges(self) -> list[list[tuple[int, str | None]]]:
        """Per node: (source node, label) of each incoming edge."""
        rev: list[list[tuple[int, str | None]]] = [[] for _ in range(self.n)]
        for src, out in enumerate(self.edges):
            for _, label, dst in out:
                rev[dst].append((src, label))
        return rev

    def closure(self, cost: CostFunction) -> "_Closure":
        if cost not in self._closures:
            self._closures[cost] = _Closure(self, cost)
        return self._closures[cost]


class _Closure:
    """All-pairs cheapest model-move paths over a reachability graph."""

    def __init__(self, rg: ReachabilityGraph, cost: CostFunction):
        self.rg = rg
        self.cost = cost
        n = rg.n
        dist = np.full((n, n), np.inf)
        dist[np.arange(n), np.arange(n)] = 0.0
        if rg.topo_order is not None:
            for u in reversed(rg.topo_order):
                row = dist[u]
                for _, label, dst in rg.edges[u]:
                    c = 0.0 if label is None else float(cost.model_move)
                    np.minimum(row, c + dist[dst], out=row)
        else:
            for source in range(n):
                dist[source] = self._dijkstra_row(source)
        self.dist = dist

    def _dijkstra_row(self, source: int) -> np.ndarray:
        rg, cost = self.rg, self.cost
        row = np.full(rg.n, np.inf)
        row[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > row[u]:
                continue
            for _, label, dst in rg.edges[u]:
                c = d + (0.0 if label is None else float(cost.model_move))
                if c < row[dst]:
                    row[dst] = c
                    heapq.heappush(heap, (c, dst))
        return row

    def expand(self, u: int, v: int) -> list[Move]:
        """Reconstruct one cheapest model-move path u -> v as explicit moves."""
        rg, cost, dist = self.rg, self.cost, self.dist
        moves: list[Move] = []
        guard = 0
        while u != v:
            for tid, label, dst in rg.edges[u]:
                c = 0.0 if label is None else float(cost.model_move)
                if c + dist[dst, v] == dist[u, v]:
                    moves.append(Move(None, label, tid))
                    u = dst
                    break
            else:
                raise AssertionError("closure path reconstruction lost its way")
            guard += 1
            if guard > rg.n + 1:
                raise AssertionError("closure path longer than the state space")
        return moves


_rg_cache: "WeakKeyDictionary[SystemNet, ReachabilityGraph]" = WeakKeyDictionary()
_rg_lock = threading.Lock()


def reachability_graph(sn: SystemNet, state_cap: int = STATE_CAP) -> ReachabilityGraph:
    """Cached reachability graph of a system net."""
    with _rg_lock:
        rg = _rg_cache.get(sn)
    if rg is None:
        rg = ReachabilityGraph(sn, state_cap)
        with _rg_lock:
            _rg_cache[sn] = rg
    return rg


def _model_structures(model: SystemNet, cost: CostFunction) -> tuple[ReachabilityGraph, _Closure]:
    rg = reachability_graph(model)
    if rg.final is None:
        raise ValidationError("model has empty language: its final marking is unreachable")
    return rg, rg.closure(cost)


def prepare_model(model: SystemNet, cost: CostFunction = STANDARD_COST) -> None:
    """Precompute and cache the model-side search structures."""
    _model_structures(model, cost)


def _forward(
    order: Sequence[int],
    in_edges: Sequence[Sequence[tuple[int, str | None]]],
    rg: ReachabilityGraph,
    closure: _Closure,
    cost: CostFunction,
) -> tuple[np.ndarray, np.ndarray]:
    """Cheapest product runs of an acyclic trace side and the model.

    ``order`` lists the trace nodes topologically, the initial node first;
    only that node has no in-edges. ``in_edges[b]`` holds (source, label)
    pairs, where a None label is a free trace-side skip (a behavior-net τ).
    ``pre[b, v]`` is the cheapest cost of reaching trace node b with the
    model at v by a move that consumes b's in-edge; ``post[b, v]`` adds the
    model moves that follow.
    """
    sync = rg.sync_edges()
    dist = closure.dist
    log_cost = float(cost.log_move)
    pre = np.full((len(in_edges), rg.n), np.inf)
    post = np.empty_like(pre)
    first = order[0]
    pre[first, rg.initial] = 0.0
    # The closure row is the relaxed unit row already; relaxing would cost a
    # V x V step per alignment.
    post[first] = dist[rg.initial]
    for b in order[1:]:
        acc = pre[b]
        for src, label in in_edges[b]:
            base = post[src]
            np.minimum(acc, base + (0.0 if label is None else log_cost), out=acc)
            if label is not None:
                pair = sync.get(label)
                if pair is not None:
                    np.minimum.at(acc, pair[1], base[pair[0]])
        np.min(acc[:, None] + dist, axis=0, out=post[b])
    return pre, post


def _witness(
    in_edges: Sequence[Sequence[tuple[int, str | None]]],
    final: int,
    pre: np.ndarray,
    post: np.ndarray,
    rg: ReachabilityGraph,
    closure: _Closure,
    cost: CostFunction,
) -> Alignment:
    """The alignment behind the tables of :func:`_forward`, ending at trace node ``final``.

    Walks backwards, peeling one transfer (sync, log move or trace-side skip)
    plus the model-move segment that followed it, until the initial node.
    Trace-side skips cost nothing and leave no move: the witness relates the
    chosen realization to the model.
    """
    dist = closure.dist
    log_cost = float(cost.log_move)
    sync_by_label_dst: dict[tuple[str, int], list[tuple[int, str]]] = {}
    for label, (us, vs, tids) in rg.sync_edges().items():
        for u, v, tid in zip(us.tolist(), vs.tolist(), tids):
            sync_by_label_dst.setdefault((label, v), []).append((u, tid))

    moves_rev: list[Move] = []
    b, v = final, rg.final
    while True:
        u = int(np.argmin(pre[b] + dist[:, v]))
        moves_rev.extend(reversed(closure.expand(u, v)))
        if not in_edges[b]:
            break
        b, v, move = _step_back(in_edges[b], u, pre[b, u], post, sync_by_label_dst, log_cost)
        if move is not None:
            moves_rev.append(move)
    return Alignment(tuple(reversed(moves_rev)), int(post[final, rg.final]))


def _step_back(
    in_edges: Sequence[tuple[int, str | None]],
    u: int,
    value: float,
    post: np.ndarray,
    sync_by_label_dst: dict[tuple[str, int], list[tuple[int, str]]],
    log_cost: float,
) -> tuple[int, int, Move | None]:
    """The transfer that reached model node ``u`` at cost ``value``: (source, model source, move)."""
    # Tie-break order: synchronous, then trace-side skip, then log move.
    for src, label in in_edges:
        if label is not None:
            for msrc, mtid in sync_by_label_dst.get((label, u), ()):
                if post[src, msrc] == value:
                    return src, msrc, Move(label, label, mtid)
    for src, label in in_edges:
        if label is None and post[src, u] == value:
            return src, u, None
    for src, label in in_edges:
        if label is not None and post[src, u] + log_cost == value:
            return src, u, Move(label, None, None)
    raise AssertionError("witness reconstruction found no producing move")


def _chain(seq: Sequence[str]) -> list[tuple[tuple[int, str], ...]]:
    """In-edges of a plain sequence as a trace side: node i+1 follows node i by ``seq[i]``."""
    return [()] + [((i, label),) for i, label in enumerate(seq)]


def _sequence_cost(
    seq: Sequence[str], rg: ReachabilityGraph, closure: _Closure, cost: CostFunction
) -> tuple[np.ndarray, np.ndarray]:
    """DP tables of a plain activity sequence against the model.

    The optimal alignment cost is ``post[-1, rg.final]``.
    """
    return _forward(range(len(seq) + 1), _chain(seq), rg, closure, cost)


def optimal_alignment(
    trace: Sequence[str], model: SystemNet, cost: CostFunction = STANDARD_COST
) -> Alignment:
    """A minimum-cost alignment of a certain trace against the model.

    Deterministic for fixed inputs. Raises if the model's final marking is
    unreachable. The empty trace aligns through model moves alone.
    """
    trace = tuple(trace)
    rg, closure = _model_structures(model, cost)
    return _witness(_chain(trace), len(trace), *_sequence_cost(trace, rg, closure, cost), rg, closure, cost)


def lower_bound(
    trace: UncertainTrace, model: SystemNet, cost: CostFunction = STANDARD_COST
) -> tuple[int, Alignment]:
    """Best-case conformance cost over all realizations, with a witness.

    One search over the product of the trace's behavior net and the model;
    the witness's log projection is the realization achieving the minimum.
    """
    rg, closure = _model_structures(model, cost)
    left = reachability_graph(behavior_net(trace))
    if left.topo_order is None or left.final is None:
        raise AssertionError("a behavior net is acyclic and reaches its final marking")
    in_edges = left.in_edges()
    pre, post = _forward(left.topo_order, in_edges, rg, closure, cost)
    alignment = _witness(in_edges, left.final, pre, post, rg, closure, cost)
    return alignment.cost, alignment


def lower_bound_bruteforce(
    trace: UncertainTrace,
    model: SystemNet,
    cost: CostFunction = STANDARD_COST,
    caps: EnumerationCaps | None = None,
) -> int:
    """Best-case cost by enumerating every realization and aligning each.

    The oracle counterpart of :func:`lower_bound`; returns only the cost.
    """
    rg, closure = _model_structures(model, cost)
    costs = (_sequence_cost(seq, rg, closure, cost)[1][-1, rg.final] for seq in iter_realizations(trace, caps))
    return int(min(costs))  # traces are nonempty, so at least one realization exists


def _costliest_realization(
    trace: UncertainTrace,
    rg: ReachabilityGraph,
    closure: _Closure,
    cost: CostFunction,
    caps: EnumerationCaps | None,
) -> tuple[int, Alignment]:
    """Realization count and the witness of the first costliest realization.

    Each realization is aligned once; the tables of the costliest one so far
    are kept for its witness.
    """
    count = 0
    worst = -np.inf
    for seq in iter_realizations(trace, caps):
        count += 1
        tables = _sequence_cost(seq, rg, closure, cost)
        value = tables[1][-1, rg.final]
        if value > worst:
            worst, worst_seq, worst_tables = value, seq, tables
    return count, _witness(_chain(worst_seq), len(worst_seq), *worst_tables, rg, closure, cost)


def upper_bound(
    trace: UncertainTrace,
    model: SystemNet,
    cost: CostFunction = STANDARD_COST,
    caps: EnumerationCaps | None = None,
) -> tuple[int, Alignment]:
    """Worst-case conformance cost over all realizations, with a witness.

    Enumerates realizations (bounded by ``caps``) and aligns each one. The
    witness aligns the first realization attaining the maximum, in
    enumeration order.
    """
    rg, closure = _model_structures(model, cost)
    _, alignment = _costliest_realization(trace, rg, closure, cost, caps)
    return alignment.cost, alignment


@dataclass(frozen=True)
class BoundsReport:
    """Per-trace conformance bounds with witness alignments."""

    case_id: str
    lower_cost: int | None
    upper_cost: int | None
    lower_witness: Alignment | None
    upper_witness: Alignment | None
    realization_count: int | None
    error: str | None = None

    def __post_init__(self):
        if self.lower_cost is not None and self.upper_cost is not None:
            if self.lower_cost > self.upper_cost:
                raise ValidationError(
                    f"case {self.case_id!r}: lower bound {self.lower_cost} exceeds upper bound {self.upper_cost}"
                )

    def as_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "lower_cost": self.lower_cost,
            "upper_cost": self.upper_cost,
            "lower_witness": self.lower_witness.as_dict() if self.lower_witness else None,
            "upper_witness": self.upper_witness.as_dict() if self.upper_witness else None,
            "realization_count": self.realization_count,
            "error": self.error,
        }


@dataclass(frozen=True)
class LogBounds:
    """Bounds for every trace of a log plus the log-level totals."""

    reports: tuple[BoundsReport, ...]
    total_lower: int
    total_upper: int


def log_bounds(
    log: UncertainLog,
    model: SystemNet,
    cost: CostFunction = STANDARD_COST,
    caps: EnumerationCaps | None = None,
) -> LogBounds:
    """Bounds for each trace; per-trace cap errors are recorded, not fatal.

    When only the (enumeration-bound) upper side caps, the lower bound is
    still reported. Both totals sum the same traces: those whose upper bound
    was computed. A capped row counts in neither.
    """
    rg, closure = _model_structures(model, cost)
    reports: list[BoundsReport] = []
    total_lower = 0
    total_upper = 0
    for trace in log:
        low: int | None = None
        low_witness: Alignment | None = None
        try:
            low, low_witness = lower_bound(trace, model, cost)
            count, up_witness = _costliest_realization(trace, rg, closure, cost, caps)
        except CapExceeded as exc:
            reports.append(BoundsReport(trace.case_id, low, None, low_witness, None, None, str(exc)))
            continue
        reports.append(BoundsReport(trace.case_id, low, up_witness.cost, low_witness, up_witness, count))
        total_lower += low
        total_upper += up_witness.cost
    return LogBounds(tuple(reports), total_lower, total_upper)
