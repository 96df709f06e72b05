"""Optimal alignments and conformance bounds for uncertain traces.

The search runs over the product of an acyclic trace side and the model's
reachable markings. The trace side is the lattice of order ideals of the
trace's timestamp order for the lower bound (:func:`events.trace_lattice`,
the behavior net's reachability graph built without the net) and a plain
chain for one realization.
One forward DP in topological order of the trace side fills one table of
trace node x model state, ``post``: each node's entry row (after a move
that consumes one of its in-edges) closed under the model moves that
follow. This is a uniform-cost search in disguise: no heuristic, exact costs.

The model's reachable markings are explored breadth-first as int32 rows of
token counts, one layer at a time, each held once, as a key of the dict
that numbers them; the graph is kept in flat arrays
(:class:`ReachabilityGraph`), and no ``Marking`` is built on this path.
Model moves are relaxed over the model graph's edges, filed under the
longest-path level of their target. Consecutive levels form sweeps, and one
``np.minimum.at`` per sweep, in level order, closes a row: a sweep's edges
are composed through its levels, so one gather of its sources serves them
all. A cyclic graph takes its levels from its breadth-first depth, keeps one
sweep per level and is swept until nothing changes. A row made of
closed rows by log moves and trace-side skips is closed; a synchronous
landing opens it only past its target, so a relax starts at the level after
the shallowest synchronous target just reached, if any.

The witness walks the table backwards and rebuilds each visited node's
entry row ``pre``. Each model-move segment is a breadth-first walk back over
tight in-edges (``post[u] + cost == post[x]``) to the nearest state with
``pre == post``, ties going to the in-edge listed first (source state, then
transition id); the transfer before it is a synchronous move, else a
trace-side skip, else a log move.

Every search runs in :func:`_align`. The lower bound is one search over the
lattice. The upper bound walks the lattice's subset construction
(:func:`events.word_dag`) in lexicographic order of prefixes, one closed DP
row per prefix, each one step of the same forward kernel (:func:`_transfer`)
from its parent's. An earlier prefix's row at the same walk node, shifted
up by the most the new row exceeds it, bounds the new prefix's completions
by its own finished subtree's; a prefix whose bound cannot beat the best
cost found is dropped, as in the antichain algorithms with simulation for
automata. Shifted down by the least the new row exceeds it, the same row
gives a floor under the dropped completions, so the walk also proves the
least cost whenever its floors meet the least cost it visited.
The walk finds the first costliest word; its witness is that word's optimal
alignment, from the same search as the lower bound's, over a chain. The
realization count is the walk DAG's path count. :func:`log_bounds` builds
each trace's lattice once for both, aligns traces of equal shape
(:func:`events.lattice_key`) once per call, and without witnesses searches
the lattice only for chains and for shapes whose walk proves no least cost.

A closed row depends only on the word that reaches it, so one call keeps a
trie of closed rows keyed by word prefix (:class:`_PrefixMemo`): the walk,
the witness chain and each lattice node reached by one path read their rows
from it, and a prefix is relaxed once per call, whichever search spells it
first. A second trie holds suffix rows, keyed by word suffix: for each
model state, the cost of aligning the suffix from there to the final
marking, closed backwards by the same sweeps run last first
(:meth:`_ModelMoves.back_relax`). A prefix whose walk node has one
completion is priced at the junction of its parent's forward row and the
completion's suffix row, and the walk goes no further. Min-plus products
are associative, so the junction is exact; the forward row already holds
the model moves in front of the next label and the suffix row those after
it, so the junction needs no closure. Each suffix is relaxed once per call,
however many prefixes end in it. :func:`log_bounds` shares both tries
across its traces.
Memory is linear in the model's edges plus the one table or the kept rows,
which :data:`PRODUCT_CAP` bounds, plus the tries, which stop storing rows
at :data:`MEMO_CELLS` cells; set-up adds the markings, freed once the graph
is built. :data:`events.STATE_CAP` bounds the model's states, each lattice
and each walk DAG, :data:`events.EDGE_CAP` each lattice's edges, and
:data:`SCAN_CAP` the walk's comparisons with kept rows.
"""
from __future__ import annotations

import numbers
import threading
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import islice
from weakref import WeakKeyDictionary

import numpy as np

from . import events
from .errors import CapExceeded, ValidationError
from .events import (
    EnumerationCaps, Lattice, LatticeKey, UncertainLog, UncertainTrace, WordDag, iter_realizations, lattice_key,
    realization_dag, trace_lattice,
)
from .petri import SystemNet

#: Cells (trace-side states x model states) of one alignment's float64 table.
PRODUCT_CAP = 30_000_000

#: Float64 rows hold integer costs exactly below 2**53.
COST_LIMIT = 2**53

#: Cells (rows x model states) of closed rows one call's prefix memo stores.
MEMO_CELLS = 2**16

#: Cells (kept rows x model states) one upper-bound walk may compare in all.
SCAN_CAP = 10**9

NO_MOVE = ">>"
TAU_MARKER = "tau"


@dataclass(frozen=True)
class CostFunction:
    """Per-move-class costs. Synchronous moves and invisible model moves are
    always free; only the two deviation classes are configurable."""

    log_move: int = 1
    model_move: int = 1

    def __post_init__(self):
        for name in ("log_move", "model_move"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValidationError(f"{name} cost must be an integer, not {value!r}")
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


#: Frontier rows a :class:`ReachabilityGraph` expands at once; bounds its temporaries.
_SLICE = 256

#: Most tokens the initial or final marking may put on one place. A firing adds
#: at most one token to a place, and the search stops at :data:`events.STATE_CAP`
#: layers, so the int32 counts cannot overflow.
TOKEN_LIMIT = 2**30


class ReachabilityGraph:
    """Reachable-marking graph of a system net, numbered in breadth-first order.

    Markings are int32 rows of token counts over the sorted places, held
    only as the byte keys of the dict that numbers them, and only while the
    search runs. The search expands one layer at a time, from the layer's
    keys, the newest in the dict, read back :data:`_SLICE` rows at a time:
    the enabled (node, transition) pairs are taken node-major,
    transition-minor, and each new row is numbered in that order, as a FIFO
    search would. Edges are three flat arrays listed by source: ``src``,
    ``tr`` (an index into ``transitions`` and ``labels``) and ``dst``;
    :meth:`in_edges` reads one node's in-edges from a copy sorted by target,
    made on its first call (only witnesses read them). ``level`` is each
    node's longest-path level, found by peeling nodes without in-edges; a
    graph that does not peel is ``cyclic`` and takes its breadth-first depth
    instead.
    """

    def __init__(self, sn: SystemNet):
        net = sn.net
        column = {p: i for i, p in enumerate(sorted(net.places))}
        self.transitions: tuple[str, ...] = net._sorted_transitions
        self.labels: tuple[str | None, ...] = tuple(net.label(t) for t in self.transitions)
        # Arcs form a set, so every preset weight is 1: t is enabled when all of
        # its input places are marked. ``inputs[j]`` lists t_j's input columns,
        # padded with an extra column that is always marked. Enabling is a
        # gather, not a matrix product: a BLAS product runs on worker threads
        # that keep spinning for about 0.1 s after it returns, and the
        # alignment that follows shares the CPUs with them.
        presets = [[column[p] for p in net.preset(t)] for t in self.transitions]
        inputs = np.full((len(presets), max(map(len, presets), default=0)), len(column), np.intp)
        delta = np.zeros((len(self.transitions), len(column)), np.int32)
        for j, t in enumerate(self.transitions):
            inputs[j, :len(presets[j])] = presets[j]
            delta[j, presets[j]] -= 1
            for p in net.postset(t):
                delta[j, column[p]] += 1

        def row(name: str, marking) -> np.ndarray:
            counts = np.zeros(len(column), np.int32)
            for p, c in marking.items():
                if c > TOKEN_LIMIT:
                    raise ValidationError(f"{name} marking puts {c} tokens on {p!r}, over the limit ({TOKEN_LIMIT})")
                counts[column[p]] = c
            return counts

        index = {row("initial", sn.initial_marking).tobytes(): 0}
        width = 4 * len(column)  # bytes per key
        src, tr, dst, depth = [], [], [], []
        done = 0
        while done < len(index):
            layer = len(index)
            depth.append(layer - done)
            frontier = list(islice(reversed(index), layer - done))[::-1]
            for lo in range(0, len(frontier), _SLICE):
                keys = frontier[lo:lo + _SLICE]
                block = np.frombuffer(b"".join(keys), np.int32).reshape(len(keys), len(column))
                marked = np.ones((len(block), len(column) + 1), bool)
                np.greater(block, 0, out=marked[:, :-1])
                enabled = np.ones((len(block), len(inputs)), bool)
                for places in inputs.T:
                    enabled &= marked[:, places]
                fi, ti = enabled.nonzero()
                succ = block.take(fi, 0)
                succ += delta.take(ti, 0)
                buf = succ.tobytes()
                del succ
                # A row not seen before takes the next number.
                dst.extend([index.setdefault(buf[k:k + width], len(index)) for k in range(0, len(buf), width)])
                # Checked once per slice, so at most one slice's rows pass the cap.
                if len(index) > events.STATE_CAP:
                    raise CapExceeded(f"reachability exploration exceeded the state cap ({events.STATE_CAP})")
                fi += done + lo
                src.append(fi)
                tr.append(ti)
            done = layer

        self.n = len(index)
        self.initial = 0
        self.final: int | None = index.get(row("final", sn.final_marking).tobytes())
        del index, frontier
        self.src, self.tr = np.concatenate(src), np.concatenate(tr)
        self.dst = np.array(dst, np.intp)
        # In-edges by target, built on the first in_edges() call.
        self._in_end: list[int] | None = None
        self._in_src: list[int] = []
        self._in_tr: list[int] = []
        level = self._peel()
        self.cyclic = level is None
        self.level = np.repeat(np.arange(len(depth)), depth) if level is None else level

    def _peel(self) -> np.ndarray | None:
        """Longest-path level per node by Kahn peeling; None if a cycle stops it."""
        out_end = np.searchsorted(self.src, np.arange(self.n + 1))  # edges are listed by source
        indeg = np.bincount(self.dst, minlength=self.n)
        level = np.zeros(self.n, np.intp)
        ready = np.flatnonzero(indeg == 0)
        peeled = 0
        k = 0
        while ready.size:
            level[ready] = k
            peeled += ready.size
            # The ready nodes' out-edges: the ranges out_end[v]..out_end[v + 1], concatenated.
            first, counts = out_end[ready], out_end[ready + 1] - out_end[ready]
            edges = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
            targets, hits = np.unique(self.dst[edges], return_counts=True)
            indeg[targets] -= hits
            ready = targets[indeg[targets] == 0]
            k += 1
        return level if peeled == self.n else None

    def in_edges(self, v: int) -> Iterator[tuple[int, int]]:
        """(source node, transition index) of each edge into ``v``, by source
        node, then transition id."""
        if self._in_end is None:
            # A stable sort keeps each target's edges by source, then transition.
            # Threads that race here build equal lists, and ``_in_end`` is set
            # last, so a reader that sees it sees the other two.
            order = np.argsort(self.dst, kind="stable")
            self._in_src, self._in_tr = self.src[order].tolist(), self.tr[order].tolist()
            self._in_end = np.searchsorted(self.dst[order], np.arange(self.n + 1)).tolist()
        a, b = self._in_end[v], self._in_end[v + 1]
        return zip(self._in_src[a:b], self._in_tr[a:b])


class _ModelMoves:
    """The model moves of a reachability graph under one cost function, built
    once per (model, cost) and read-only afterwards.

    ``sweeps`` holds (sources, targets, weights) per sweep, a run of
    consecutive levels closed by one ``np.minimum.at``; ``sweep_at[k]`` is
    the sweep that holds level k, and ``sweep_at[depth]`` is past the last.
    ``back_sweeps`` holds the same sweeps last first, each edge turned
    round, so the same loop closes a row backwards.
    ``sync[label]`` holds (sources, targets, start level) of its edges.
    ``initial_row`` is each state's model-move distance from the initial
    marking, ``final_row`` its distance to the final marking.
    """

    def __init__(self, rg: ReachabilityGraph, cost: CostFunction):
        self.rg = rg
        self.log_cost = float(cost.log_move)
        self.model_cost = float(cost.model_move)
        self.cyclic = rg.cyclic
        self.depth = int(rg.level.max()) + 1
        self.sweeps, self.sweep_at = _sweeps(rg, self.model_cost, self.depth)
        self.back_sweeps = [(targets, sources, weights) for sources, targets, weights in reversed(self.sweeps)]
        names = sorted({label for label in rg.labels if label is not None})
        code = np.array([-1 if label is None else names.index(label) for label in rg.labels], np.intp)
        self.sync: dict[str, tuple[np.ndarray, np.ndarray, int]] = {
            label: (rg.src[k], rg.dst[k], 0 if self.cyclic else int(rg.level[rg.dst[k]].min()) + 1)
            for label, k in zip(names, _groups(code[rg.tr] + 1, len(names) + 1)[1:])
            if k.size
        }
        self.initial_row = np.full(rg.n, np.inf)
        self.initial_row[rg.initial] = 0.0
        self.relax(self.initial_row)
        self.initial_row.flags.writeable = False
        self.final_row = np.full(rg.n, np.inf)
        self.final_row[rg.final] = 0.0
        self.back_relax(self.final_row)
        self.final_row.flags.writeable = False

    def weight(self, label: str | None) -> float:
        return 0.0 if label is None else self.model_cost

    def relax(self, row: np.ndarray, start: int = 0) -> None:
        """Close ``row`` under model moves in place, given that every edge into
        a level before ``start`` is already tight (always 0 on a cyclic graph):
        one ``np.minimum.at`` per sweep, from the sweep that holds ``start``.
        Levels of that sweep before ``start`` only see tight paths again."""
        _close(row, self.sweeps[self.sweep_at[start]:], self.cyclic)

    def back_relax(self, row: np.ndarray) -> None:
        """Close ``row`` under model moves backwards in place: ``row[u]``
        becomes the least ``row[y]`` plus the cost of a model-move path
        u -> y. The sweeps run last first, and each reads its targets before
        it writes any source, so its composed edges, which hold every path
        inside its run, close the row backwards as they close it forwards."""
        _close(row, self.back_sweeps, self.cyclic)

    def segment(self, pre: np.ndarray, post: np.ndarray, v: int) -> tuple[int, list[Move]]:
        """A state u with ``pre[u] == post[u]`` and the moves of a cheapest path
        u -> v: the first such state a breadth-first walk back from v over
        tight in-edges reaches, in the order of ``rg.in_edges``. Each state is
        visited once, so τ-cycles end the walk."""
        parent: dict[int, tuple[int, Move] | None] = {v: None}
        queue = deque([v])
        while queue:
            x = queue.popleft()
            if pre[x] == post[x]:
                break
            for u, t in self.rg.in_edges(x):
                label = self.rg.labels[t]
                if u not in parent and post[u] + self.weight(label) == post[x]:
                    parent[u] = (x, Move(None, label, self.rg.transitions[t]))
                    queue.append(u)
        else:
            raise AssertionError("witness reconstruction found no model-move path")
        u, path = x, []
        while (link := parent[x]) is not None:
            x, move = link
            path.append(move)
        return u, path


def _close(row: np.ndarray, sweeps: list, cyclic: bool) -> None:
    """One ``np.minimum.at`` per sweep into its targets, from its sources;
    on a cyclic graph, repeated until nothing changes."""
    changed = bool(sweeps)
    while changed:
        before = row.copy() if cyclic else None
        for sources, targets, weights in sweeps:
            np.minimum.at(row, targets, row[sources] + weights)
        changed = before is not None and not np.array_equal(before, row)


#: Most edges that composing one more level into a sweep may add to it,
#: counted before parallel edges merge: one ``np.minimum.at`` call costs
#: about 2-3 µs, against about 8 ns per edge.
SWEEP_EDGES = 256


def _sweeps(rg: ReachabilityGraph, cost: float, depth: int) -> tuple[list, list[int]]:
    """The sweeps that close a row and the sweep that holds each level.

    A sweep is a run of consecutive levels. One gather reads every source
    of a sweep before any of its targets is written, so its edges are the
    cheapest (z, y, weight) over the paths into the run whose inner nodes
    lie in the run, composed level by level; an edge weighs ``cost`` when
    its transition is labelled, else 0. Parallel edges are kept once, at
    their least weight. A run takes the next level while composing it adds
    at most :data:`SWEEP_EDGES` edges. A cyclic graph keeps one sweep per
    level, its edges uncomposed.
    """
    level, n = rg.level, rg.n
    # One sort for the whole build: edges by target level, target, source,
    # then weight (0 or ``cost``), so the first of each (source, target)
    # pair is the cheapest. The key stays under 2 n^3, and the kept edges
    # are decoded from it.
    key = ((level[rg.dst].astype(np.int64) * n + rg.dst) * n + rg.src) * 2
    if cost:
        key += np.array([label is not None for label in rg.labels])[rg.tr]
    key.sort()
    pair = key >> 1  # (target level, target, source)
    keep = np.ones(len(key), bool)
    np.not_equal(pair[1:], pair[:-1], out=keep[1:])
    pair, w = pair[keep], (key[keep] & 1) * cost
    del key, keep
    src, dst = pair % n, pair // n % n
    del pair
    ends = np.searchsorted(level[dst], np.arange(depth + 1)).tolist()
    # Where each node's composed in-edges lie in the run's edges, while its level is in the run.
    head, count = np.zeros(n, np.intp), np.zeros(n, np.intp)
    sweeps: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    sweep_at: list[int] = []
    run = first = None  # the open sweep's (sources, targets, weights) and its first level
    for k in range(depth):
        edges = src[ends[k]:ends[k + 1]], dst[ends[k]:ends[k + 1]], w[ends[k]:ends[k + 1]]
        composed = None if run is None or rg.cyclic else _compose(edges, level[edges[0]] >= first, head, count, run)
        if composed is None:
            if run is not None:
                sweeps.append(run)
            run, first = (src[:0], dst[:0], w[:0]), k
        else:
            edges = composed
        targets = edges[1]
        bounds = np.flatnonzero(np.concatenate(([targets.size > 0], targets[1:] != targets[:-1], [True])))
        head[targets[bounds[:-1]]] = len(run[0]) + bounds[:-1]
        count[targets[bounds[:-1]]] = bounds[1:] - bounds[:-1]
        run = tuple(np.concatenate(pair) for pair in zip(run, edges))
        sweep_at.append(len(sweeps))
    sweeps.append(run)
    return sweeps, sweep_at + [len(sweeps)]


def _compose(edges: tuple, inner: np.ndarray, head: np.ndarray, count: np.ndarray, run: tuple) -> tuple | None:
    """The level's edges (sorted by target) extended back through the run:
    each edge from a node of the run (``inner``) also starts at every source
    of that node's composed in-edges, with their weights added, and the
    cheapest of parallel edges is kept. None when that would add more than
    :data:`SWEEP_EDGES` edges."""
    sources, targets, weights = edges
    counts = np.where(inner, count[sources], 0)
    total = int(counts.sum())
    if not total:
        return edges
    if total > SWEEP_EDGES:
        return None
    picks = np.repeat(head[sources] - np.cumsum(counts) + counts, counts) + np.arange(total)
    z = np.concatenate((sources, run[0][picks]))
    y = np.concatenate((targets, np.repeat(targets, counts)))
    wz = np.concatenate((weights, run[2][picks] + np.repeat(weights, counts)))
    order = np.lexsort((wz, z, y))
    return _cheapest(z[order], y[order], wz[order])


def _cheapest(sources: np.ndarray, targets: np.ndarray, weights: np.ndarray) -> tuple:
    """The first edge of each run of equal (source, target) pairs."""
    keep = np.ones(len(sources), bool)
    keep[1:] = (sources[1:] != sources[:-1]) | (targets[1:] != targets[:-1])
    return sources[keep], targets[keep], weights[keep]


def _groups(keys: np.ndarray, count: int) -> list[np.ndarray]:
    """Positions of ``keys`` (integers in ``range(count)``) by key, each in increasing order."""
    order = np.argsort(keys, kind="stable")
    return np.split(order, np.cumsum(np.bincount(keys, minlength=count))[:-1])


#: Per system net: its reachability graph (key None) and its model moves per cost function.
_cache: "WeakKeyDictionary[SystemNet, dict]" = WeakKeyDictionary()
_cache_lock = threading.Lock()


def _cached(sn: SystemNet, key, build):
    with _cache_lock:
        entries = _cache.setdefault(sn, {})
        if key not in entries:
            entries[key] = build()
        return entries[key]


def reachability_graph(sn: SystemNet) -> ReachabilityGraph:
    """Cached reachability graph of a system net."""
    return _cached(sn, None, lambda: ReachabilityGraph(sn))


def _model_structures(model: SystemNet, cost: CostFunction) -> _ModelMoves:
    rg = reachability_graph(model)
    if rg.final is None:
        raise ValidationError("model has empty language: its final marking is unreachable")
    return _cached(model, cost, lambda: _ModelMoves(rg, cost))


def prepare_model(model: SystemNet, cost: CostFunction = STANDARD_COST) -> None:
    """Precompute and cache the model-side search structures."""
    _model_structures(model, cost)


class _PrefixMemo:
    """Closed DP rows keyed by word, two tries local to one call.

    ``root`` is the empty prefix (:class:`_Prefix`), with the initial
    marking's forward row; ``end`` is the empty suffix (:class:`_Suffix`),
    with each state's model-move distance to the final marking. Once the
    memo holds :data:`MEMO_CELLS` cells of prefix and suffix rows it stores
    no new row; a row it does not store is still computed and returned, so
    results do not depend on the budget.
    """

    def __init__(self, moves: _ModelMoves):
        self.moves = moves
        self.free = MEMO_CELLS
        self.root = _Prefix(self, moves.initial_row)
        self.end = _Suffix(self, moves.final_row)


class _Node:
    """One node of a :class:`_PrefixMemo` trie: its read-only row, its stored
    children by label, and whether the memo stored it. A node the memo did
    not store never gets children: the budget was spent first."""

    __slots__ = ("memo", "row", "children", "stored")

    def __init__(self, memo: _PrefixMemo, row: np.ndarray, stored: bool = True):
        row.flags.writeable = False
        self.memo, self.row, self.children, self.stored = memo, row, {}, stored

    def child(self, label: str | None) -> _Node:
        """This node one ``label`` further, its row made by ``_step`` the
        first time a label is used; a None (skip) label spells nothing."""
        if label is None:
            return self
        node = self.children.get(label)
        if node is None:
            memo = self.memo
            row = self._step(label)
            node = type(self)(memo, row, memo.free >= row.size)
            if node.stored:
                memo.free -= row.size
                self.children[label] = node
        return node


class _Prefix(_Node):
    """A word prefix: its row is the closed forward row of the words that
    spell it. A child appends its label, by one :func:`_transfer` and relax."""

    __slots__ = ()

    def _step(self, label: str) -> np.ndarray:
        moves = self.memo.moves
        row = np.full(moves.rg.n, np.inf)
        moves.relax(row, _transfer(row, self.row, label, moves))
        return row


class _Suffix(_Node):
    """A word suffix σ: ``row[v]`` is the least cost of aligning σ from
    model state v to the final marking, the model moves in front included.
    A child prepends its label: a log move, or a synchronous move read
    backwards, then the model moves in front, closed backwards."""

    __slots__ = ()

    def price(self, row: np.ndarray, label: str) -> float:
        """The cost of the words whose closed forward row is ``row``,
        followed by ``label`` and σ. ``row`` holds the model moves before
        ``label``, so the junction needs no closure."""
        moves = self.memo.moves
        value = (row + self.row).min() + moves.log_cost
        sync = moves.sync.get(label)
        if sync is not None:
            sources, targets, _ = sync
            value = min(value, (row[sources] + self.row[targets]).min())
        return value

    def _step(self, label: str) -> np.ndarray:
        moves = self.memo.moves
        row = self.row + moves.log_cost
        sync = moves.sync.get(label)
        if sync is not None:
            # A log move leaves the row closed; a synchronous move opens it at its sources.
            sources, targets, _ = sync
            np.minimum.at(row, sources, self.row[targets])
            moves.back_relax(row)
        return row


def _align(
    in_edges: Sequence[Sequence[tuple]], moves: _ModelMoves, witness: bool = True, memo: _PrefixMemo | None = None
) -> tuple[int, Alignment | None]:
    """The optimal alignment cost of an acyclic trace side against the model
    and its witness (None when ``witness`` is false); every search runs here,
    reading closed rows from ``memo`` where it can."""
    post = _forward(in_edges, moves, memo)
    cost = _exact(post[-1, moves.rg.final])
    return cost, Alignment(_witness(in_edges, post, moves), cost) if witness else None


def _forward(in_edges: Sequence[Sequence[tuple]], moves: _ModelMoves, memo: _PrefixMemo | None = None) -> np.ndarray:
    """Cheapest product runs of an acyclic trace side and the model.

    Trace nodes are numbered topologically: node 0 is the initial node, the
    only one without in-edges, and the last node is final. ``in_edges[b]``
    holds (source, label, _) triples, where a None label is a free
    trace-side skip (an indeterminate event left out).
    ``post[b, v]`` is the cheapest cost of reaching trace node b with the
    model at v, the model moves after b's in-edge included: b's entry row
    (:func:`_entry_row`), closed.
    A node with one in-edge from a node whose one path from node 0 spells a
    word spells that word plus its label, and takes its row from ``memo``.
    """
    rg = moves.rg
    _check_cells(len(in_edges), rg)
    post = np.empty((len(in_edges), rg.n))
    post[0] = moves.initial_row
    # The stored memo prefix of each node with one path from node 0, else None.
    prefixes: list[_Prefix | None] = [None if memo is None else memo.root] + [None] * (len(in_edges) - 1)
    for b in range(1, len(in_edges)):
        src, label, _ = in_edges[b][0]
        if len(in_edges[b]) == 1 and prefixes[src] is not None:
            prefix = prefixes[src].child(label)
            post[b] = prefix.row
            # A prefix the memo did not store leads to no stored row; holding
            # its row until the end would add a second table.
            prefixes[b] = prefix if prefix.stored else None
            continue
        moves.relax(post[b], _entry_row(post[b], in_edges[b], post, moves))
    return post


def _entry_row(row: np.ndarray, edges: Sequence[tuple], post: np.ndarray, moves: _ModelMoves) -> int:
    """Fill ``row`` with the cheapest costs of entering a trace node by one of
    its in-edges ``edges`` from their sources' rows of ``post`` (node 0, which
    has none, at the initial marking); returns the level to relax it from."""
    row.fill(np.inf)
    if not edges:
        row[moves.rg.initial] = 0.0
    start = moves.depth
    for src, label, _ in edges:
        start = min(start, _transfer(row, post[src], label, moves))
    return start


def _check_cells(nodes: int, rg: ReachabilityGraph) -> None:
    """Raise unless a search over ``nodes`` trace-side states fits :data:`PRODUCT_CAP`."""
    cells = nodes * rg.n
    if cells > PRODUCT_CAP:
        raise CapExceeded(
            f"alignment needs {cells} product cells ({nodes} trace states x {rg.n} model states),"
            f" over the product cap ({PRODUCT_CAP})"
        )


def _exact(value: float) -> int:
    """A cost read off a row, as an int; raises at :data:`COST_LIMIT`. Costs are nonnegative
    integers, so a value below it is exact, and one whose true cost is not stays at or above it."""
    if value >= COST_LIMIT:
        raise CapExceeded(f"alignment cost reaches 2**53 ({COST_LIMIT}), past which float64 costs are not exact")
    return int(value)


def _transfer(acc: np.ndarray, base: np.ndarray, label: str | None, moves: _ModelMoves) -> int:
    """Fold one trace-side step from the closed row ``base`` into ``acc``: the
    log move on ``label`` (a free skip when None), then its synchronous
    landings. Returns the level from which ``moves.relax`` must close the
    result: rows built from closed rows by log moves and skips stay closed,
    and a synchronous landing opens them only past its targets."""
    np.minimum(acc, base + (0.0 if label is None else moves.log_cost), out=acc)
    sync = moves.sync.get(label)
    if sync is None:
        return moves.depth
    sources, targets, level = sync
    np.minimum.at(acc, targets, base[sources])
    return level


def _witness(in_edges: Sequence[Sequence[tuple]], post: np.ndarray, moves: _ModelMoves) -> tuple[Move, ...]:
    """The moves of the alignment behind :func:`_forward`'s table, ending at the last trace node.

    Walks backwards, peeling one model-move segment and then the transfer
    (sync, log move or trace-side skip) before it, until the initial node;
    each node's entry row is rebuilt into one row by :func:`_entry_row`.
    Trace-side skips cost nothing and leave no move: the witness relates the
    chosen realization to the model.
    """
    pre = np.empty(moves.rg.n)
    moves_rev: list[Move] = []
    b, v = len(in_edges) - 1, moves.rg.final
    while True:
        _entry_row(pre, in_edges[b], post, moves)
        u, path = moves.segment(pre, post[b], v)
        moves_rev.extend(reversed(path))
        if not in_edges[b]:
            break
        b, v, move = _step_back(in_edges[b], u, pre[u], post, moves)
        if move is not None:
            moves_rev.append(move)
    return tuple(reversed(moves_rev))


def _step_back(
    in_edges: Sequence[tuple], u: int, value: float, post: np.ndarray, moves: _ModelMoves
) -> tuple[int, int, Move | None]:
    """The transfer that reached model node ``u`` at cost ``value``: (source, model source, move)."""
    rg = moves.rg
    # Tie-break order: synchronous, then trace-side skip, then log move.
    for src, label, _ in in_edges:
        if label is not None:
            for msrc, t in rg.in_edges(u):
                if rg.labels[t] == label and post[src, msrc] == value:
                    return src, msrc, Move(label, label, rg.transitions[t])
    for src, label, _ in in_edges:
        if label is None and post[src, u] == value:
            return src, u, None
    for src, label, _ in in_edges:
        if label is not None and post[src, u] + moves.log_cost == value:
            return src, u, Move(label, None, None)
    raise AssertionError("witness reconstruction found no producing move")


def _chain(seq: Sequence[str]) -> list[tuple[tuple[int, str, None], ...]]:
    """In-edges of a plain sequence as a trace side: node i+1 follows node i by ``seq[i]``."""
    return [()] + [((i, label, None),) for i, label in enumerate(seq)]


def optimal_alignment(
    trace: Sequence[str], model: SystemNet, cost: CostFunction = STANDARD_COST
) -> Alignment:
    """A minimum-cost alignment of a certain trace against the model.

    Deterministic for fixed inputs. Raises if the model's final marking is
    unreachable. The empty trace aligns through model moves alone.
    """
    return _align(_chain(tuple(trace)), _model_structures(model, cost))[1]


def _trace_side(lattice: Lattice) -> list[list[tuple[int, str | None, int]]]:
    """In-edges (source, label, event index) of a lattice given by its out-edges."""
    into: list[list[tuple[int, str | None, int]]] = [[] for _ in lattice]
    for src, edges in enumerate(lattice):
        for i, a, dst in edges:
            into[dst].append((src, a, i))
    return into


def lower_bound(
    trace: UncertainTrace, model: SystemNet, cost: CostFunction = STANDARD_COST, lattice: Lattice | None = None,
    witness: bool = True, memo: _PrefixMemo | None = None,
) -> tuple[int, Alignment | None]:
    """Best-case conformance cost over all realizations, with a witness
    (None when ``witness`` is false).

    One search over the product of the trace's lattice of order ideals and
    the model; the witness's log projection is the realization achieving the
    minimum. ``lattice`` is the trace's :func:`events.trace_lattice`, built
    here when not given. ``memo`` shares closed rows with other searches on
    the same model and costs (:func:`log_bounds`); a fresh one is made when
    not given.
    """
    in_edges = _trace_side(trace_lattice(trace) if lattice is None else lattice)
    moves = _model_structures(model, cost)
    return _align(in_edges, moves, witness, _PrefixMemo(moves) if memo is None else memo)


def lower_bound_bruteforce(
    trace: UncertainTrace,
    model: SystemNet,
    cost: CostFunction = STANDARD_COST,
    caps: EnumerationCaps | None = None,
) -> int:
    """Best-case cost by enumerating every realization and aligning each.

    The oracle counterpart of :func:`lower_bound`; returns only the cost.
    """
    moves = _model_structures(model, cost)
    # Traces are nonempty, so at least one realization exists.
    return min(_align(_chain(seq), moves, witness=False)[0] for seq in iter_realizations(trace, caps))


def _costliest_realization(dag: WordDag, memo: _PrefixMemo) -> tuple[int, tuple[str, ...], int | None]:
    """The cost of the first costliest realization in lexicographic order, the
    realization, and the least cost when the walk proves it (else None): one
    walk over ``dag``, the trace's determinized lattice.

    Each prefix carries its closed DP row from ``memo``, one
    :func:`_transfer` and relax from its parent's when the memo does not
    hold it. A completion costs ``min_v (row[v] + A[v])`` for an A that the
    walk node fixes, so it costs at most ``M + max(row - other)`` and at
    least ``m + min(row - other)`` when an earlier prefix with row ``other``
    at the same walk node has completions costing at most M and at least m.
    Prefixes are taken depth first in lexicographic order, so that earlier
    subtree is finished, and its kept row records M and m: the largest and
    the least accepting value found below it, or bound of a prefix dropped
    below it. A prefix is dropped when its shifted M is at most the best
    cost so far, as each of its completions comes after the winner. The
    root's m is then at most every realization's cost, and when it equals
    the least accepting value the walk visited, that value is the least
    cost.

    A prefix whose walk node has one completion σ (a tail) gets no row and
    no scan: its parent's row, its last label and σ's suffix row
    (:class:`_Suffix`) give the exact cost of its one realization
    (:meth:`_Suffix.price`), which counts as a childless child's does.
    σ's rows are relaxed once, backwards, however many prefixes end in it.
    A DAG that spells one word has no tails; it is walked forward. Kept
    rows, plus suffix rows the memo does not store, times model states are
    capped by :data:`PRODUCT_CAP`, and the cells compared with kept rows by
    :data:`SCAN_CAP`.
    """
    final, width = memo.moves.rg.final, memo.moves.rg.n
    # Per walk node, its kept rows as [row, most and least cost of its subtree so far].
    kept: list[list[list]] = [[] for _ in dag.children]
    value = memo.root.row[final] if dag.accepting[0] else None
    root = [memo.root.row, -np.inf, np.inf] if value is None else [memo.root.row, value, value]
    kept[0].append(root)
    kept_rows, scanned = 1, 0
    best, winner = (-np.inf, None) if value is None else (value, ())
    least = root[2]
    # Per tail walk node, the suffix of its one completion and that completion.
    tails: dict[int, tuple[_Suffix, tuple[str, ...]]] = {}
    branching = dag.paths[0] > 1
    diff = np.empty(width)
    # Per entry: the parent prefix, the prefix spelled so far, its walk node,
    # and the kept row whose bounds take the entry's. A None word marks the
    # end of the subtree of the kept row given in place of the prefix.
    stack = [(memo.root, (symbol,), child, root) for symbol, child in reversed(dag.children[0])]
    while stack:
        parent, word, w, up = stack.pop()
        if word is None:
            up[1] = max(up[1], parent[1])
            up[2] = min(up[2], parent[2])
            continue
        tail = branching and dag.paths[w] == 1
        if tail:
            if w not in tails:
                kept_rows += _enter_tail(dag, memo, w, tails)
                _check_kept(kept_rows, width)
            suffix, rest = tails[w]
            value = suffix.price(parent.row, word[-1])
            word += rest
        else:
            prefix = parent.child(word[-1])
            row = prefix.row
            value = row[final] if dag.accepting[w] else None
        if value is not None:
            least = min(least, value)
        if dag.children[w] and not tail:
            shifted = np.inf
            for other in kept[w]:
                scanned += width
                # Rows are finite: every model state is reachable, and a log move keeps each entry.
                np.subtract(row, other[0], out=diff)
                shifted = other[1] + diff.max()
                if shifted <= best:
                    break
            if scanned > SCAN_CAP:
                raise CapExceeded(
                    f"upper-bound walk compared {scanned} cells of kept rows, over the scan cap ({SCAN_CAP})"
                )
            if shifted <= best:
                up[1] = max(up[1], shifted)
                up[2] = min(up[2], other[2] + diff.min())
                continue
            kept_rows += 1
            _check_kept(kept_rows, width)
            entry = [row, -np.inf, np.inf] if value is None else [row, value, value]
            kept[w].append(entry)
            stack.append((entry, None, w, up))
            stack.extend((prefix, word + (label,), child, entry) for label, child in reversed(dag.children[w]))
        else:
            # A tail, or a walk node without children, which holds the full ideal.
            up[1] = max(up[1], value)
            up[2] = min(up[2], value)
        if value is not None and value > best:
            best, winner = value, word
    return _exact(best), winner, int(least) if root[2] == least else None


def _enter_tail(dag: WordDag, memo: _PrefixMemo, w: int, tails: dict[int, tuple[_Suffix, tuple[str, ...]]]) -> int:
    """Enter the tail walk node ``w`` and the walk nodes after it in
    ``tails``, each with the suffix node of its one completion and that
    completion: follow it to its accepting walk node, then prepend its
    labels to the empty suffix, last first. Returns how many of the new
    suffix rows the memo did not store."""
    path = []
    while w not in tails and not dag.accepting[w]:
        (label, child), = dag.children[w]
        path.append((w, label))
        w = child
    suffix, rest = tails.setdefault(w, (memo.end, ()))
    unstored = 0
    for w, label in reversed(path):
        suffix, rest = suffix.child(label), (label,) + rest
        tails[w] = suffix, rest
        unstored += not suffix.stored
    return unstored


def _check_kept(rows: int, width: int) -> None:
    """Raise unless ``rows`` rows held by one walk fit :data:`PRODUCT_CAP`."""
    if rows * width > PRODUCT_CAP:
        raise CapExceeded(
            f"upper-bound walk keeps {rows} rows x {width} model states, over the product cap ({PRODUCT_CAP})"
        )


def upper_bound(
    trace: UncertainTrace,
    model: SystemNet,
    cost: CostFunction = STANDARD_COST,
    caps: EnumerationCaps | None = None,
) -> tuple[int, Alignment]:
    """Worst-case conformance cost over all realizations, with a witness.

    One walk over the trace's determinized lattice carries an alignment row
    per prefix and drops a prefix when an earlier prefix's bound shows that
    none of its completions costs more than the best found; the realization
    cap (``caps``) is checked on the path count before it. The walk finds
    the first realization attaining the maximum in lexicographic order of
    activity sequences; the witness is that realization's optimal alignment,
    from the same search as the lower bound's.
    """
    moves = _model_structures(model, cost)
    memo = _PrefixMemo(moves)
    _, word, _ = _costliest_realization(realization_dag(trace, caps), memo)
    return _align(_chain(word), moves, memo=memo)


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
                raise AssertionError(
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
    witnesses: bool = True,
) -> LogBounds:
    """Bounds for each trace; per-trace cap errors are recorded, not fatal.

    Each trace's lattice of order ideals is built once and serves both
    bounds. A lattice with one maximal path (no node with two out-edges)
    spells one realization whose chain table is the lower bound's, so its
    upper bound and witness are the lower ones. When only the upper side
    caps, the lower bound is still reported. Both totals sum the same
    traces: those whose upper bound was computed. A capped row counts in
    neither. With ``witnesses`` false, no witness is built and every report
    carries None for both; the costs and counts are the same.

    A branching lattice checks the lattice search's product cap, then runs
    the upper-bound walk. Without witnesses, the lower bound is the least
    cost the walk proves (:func:`_costliest_realization`); the lattice
    search gives it with witnesses, when the walk proves none, and when the
    walk or its DAG caps, so that the capped row still reports its lower
    bound. Memo rows hold the same values whichever search runs first, so
    the order changes no cost and no witness.

    Traces of equal shape are aligned once per call. The bounds, both
    witnesses and the count read only the model and the trace's lattice,
    which its :func:`events.lattice_key` fixes node for node and edge for
    edge; case and event ids reach none of them. A trace whose key was seen
    uncapped reuses that result. A capped shape is not kept, so each capped
    trace is searched again and its error names its own case. Traces of
    different shapes share one memo, so a word prefix or suffix that any
    trace relaxed before is not relaxed again.
    """
    moves = _model_structures(model, cost)
    memo = _PrefixMemo(moves)
    shapes: dict[LatticeKey, tuple[int, int, Alignment | None, Alignment | None, int]] = {}
    reports: list[BoundsReport] = []
    total_lower = 0
    total_upper = 0
    for trace in log:
        key = lattice_key(trace)
        shape = shapes.get(key)
        if shape is None:
            low: int | None = None
            low_witness: Alignment | None = None
            try:
                lattice = trace_lattice(trace, key)
                if all(len(edges) <= 1 for edges in lattice):
                    low, low_witness = lower_bound(trace, model, cost, lattice, witnesses, memo)
                    count, up, up_witness = 1, low, low_witness
                else:
                    # The lattice search's cap holds whether or not the search runs.
                    _check_cells(len(lattice), moves.rg)
                    try:
                        dag = realization_dag(trace, caps, lattice)
                        up, word, least = _costliest_realization(dag, memo)
                    except CapExceeded:
                        # The capped row still reports its lower bound.
                        low, low_witness = lower_bound(trace, model, cost, lattice, witnesses, memo)
                        raise
                    if least is not None and not witnesses:
                        low, low_witness = least, None
                    else:
                        low, low_witness = lower_bound(trace, model, cost, lattice, witnesses, memo)
                    count = dag.count
                    up_witness = _align(_chain(word), moves, memo=memo)[1] if witnesses else None
            except CapExceeded as exc:
                reports.append(BoundsReport(trace.case_id, low, None, low_witness, None, None, str(exc)))
                continue
            shape = shapes[key] = low, up, low_witness, up_witness, count
        low, up, low_witness, up_witness, count = shape
        reports.append(BoundsReport(trace.case_id, low, up, low_witness, up_witness, count))
        total_lower += low
        total_upper += up
    return LogBounds(tuple(reports), total_lower, total_upper)
