"""Labeled Petri nets: token-game semantics, event nets, bounded language.

Nets and markings are immutable values; every operation is a pure function of
its inputs, so they can be shared freely across threads. The alignment search
(:mod:`align`) reads the model's reachable markings and never builds a
product net; :func:`event_net` and :func:`language` are reference constructs
the tests check it against.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import Union

from .errors import CapExceeded, ValidationError

#: Display symbol for unlabeled (invisible) transitions. Never a valid label.
TAU = "τ"

#: Labels that cannot be assigned to transitions (reserved by the alignment
#: JSON encoding and the τ convention).
RESERVED_LABELS = frozenset({TAU, "tau", ">>"})


class Marking(Mapping[str, int]):
    """Immutable multiset of places. Missing places count 0, like a Counter."""

    __slots__ = ("_counts", "_hash")

    def __init__(self, counts: Union[Mapping[str, int], Iterable[str], None] = None):
        items: dict[str, int] = {}
        if counts is None:
            pass
        elif isinstance(counts, Mapping):
            for place, count in counts.items():
                if not isinstance(count, int) or count < 0:
                    raise ValidationError(f"marking count for {place!r} must be a nonnegative integer")
                if count:
                    items[place] = count
        else:
            for place in counts:
                items[place] = items.get(place, 0) + 1
        object.__setattr__(self, "_counts", items)
        object.__setattr__(self, "_hash", hash(frozenset(items.items())))

    def __setattr__(self, name, value):
        raise AttributeError("Marking is immutable")

    @classmethod
    def _raw(cls, counts: dict[str, int]) -> "Marking":
        """Internal fast path: counts must already be positive ints, no zeros."""
        marking = object.__new__(cls)
        object.__setattr__(marking, "_counts", counts)
        object.__setattr__(marking, "_hash", hash(frozenset(counts.items())))
        return marking

    def __getitem__(self, place: str) -> int:
        return self._counts.get(place, 0)

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if isinstance(other, Marking):
            return self._counts == other._counts
        return NotImplemented

    def __repr__(self) -> str:
        inside = ", ".join(
            p if c == 1 else f"{p}^{c}" for p, c in sorted(self._counts.items())
        )
        return f"[{inside}]"

    def total(self) -> int:
        """Total number of tokens."""
        return sum(self._counts.values())


class PetriNet:
    """A labeled Petri net. Transitions absent from ``labels`` are invisible (τ).

    Treated as an immutable value after construction; equality is identity,
    which lets derived structures (reachability graphs) be cached per net.
    """

    def __init__(
        self,
        places: Iterable[str],
        transitions: Iterable[str],
        arcs: Iterable[tuple[str, str]],
        labels: Mapping[str, str],
    ):
        self.places: frozenset[str] = frozenset(places)
        self.transitions: frozenset[str] = frozenset(transitions)
        self.arcs: frozenset[tuple[str, str]] = frozenset((s, t) for s, t in arcs)
        self.labels: dict[str, str] = dict(labels)
        self._validate()
        pre: dict[str, list[str]] = {t: [] for t in self.transitions}
        post: dict[str, list[str]] = {t: [] for t in self.transitions}
        for src, dst in sorted(self.arcs):
            if dst in pre:
                pre[dst].append(src)
            if src in post:
                post[src].append(dst)
        self._pre = {t: tuple(v) for t, v in pre.items()}
        self._post = {t: tuple(v) for t, v in post.items()}
        self._sorted_transitions = tuple(sorted(self.transitions))

    def __repr__(self) -> str:
        return (
            f"PetriNet({len(self.places)} places, {len(self.transitions)} transitions, "
            f"{len(self.arcs)} arcs, {len(self.labels)} visible)"
        )

    def _validate(self) -> None:
        if not self.places or not self.transitions:
            raise ValidationError("a net needs at least one place and one transition")
        if self.places & self.transitions:
            clash = sorted(self.places & self.transitions)
            raise ValidationError(f"places and transitions must be disjoint, both contain: {clash}")
        for src, dst in self.arcs:
            if src in self.places and dst in self.transitions:
                continue
            if src in self.transitions and dst in self.places:
                continue
            raise ValidationError(f"arc ({src!r}, {dst!r}) must connect a place and a transition of the net")
        for t, label in self.labels.items():
            if t not in self.transitions:
                raise ValidationError(f"label assigned to unknown transition {t!r}")
            if label in RESERVED_LABELS:
                raise ValidationError(f"transition {t!r} uses reserved label {label!r}; invisibility is expressed by omitting the label")

    def preset(self, t: str) -> tuple[str, ...]:
        """Input places of transition ``t``, in sorted order."""
        return self._pre[t]

    def postset(self, t: str) -> tuple[str, ...]:
        """Output places of transition ``t``, in sorted order."""
        return self._post[t]

    def label(self, t: str) -> str | None:
        """Visible label of ``t``, or None when invisible."""
        return self.labels.get(t)


@dataclass(frozen=True, eq=False)
class SystemNet:
    """A labeled Petri net together with its initial and final markings."""

    net: PetriNet
    initial_marking: Marking
    final_marking: Marking

    def __post_init__(self):
        for name, marking in (("initial", self.initial_marking), ("final", self.final_marking)):
            unknown = set(marking) - self.net.places
            if unknown:
                raise ValidationError(f"{name} marking uses unknown places: {sorted(unknown)}")


def enabled(net: PetriNet, marking: Marking, t: str) -> bool:
    """True iff every input place of ``t`` holds at least one token."""
    if t not in net.transitions:
        raise ValidationError(f"unknown transition {t!r}")
    return all(marking[p] >= 1 for p in net.preset(t))


def fire(net: PetriNet, marking: Marking, t: str) -> Marking:
    """Fire ``t``, returning the successor marking. The input marking is unchanged."""
    if not enabled(net, marking, t):
        raise ValidationError(f"transition {t!r} is not enabled in {marking}")
    return _fire_unchecked(net, marking, t)


def _fire_unchecked(net: PetriNet, marking: Marking, t: str) -> Marking:
    counts = dict(marking._counts)
    for p in net._pre[t]:
        if counts[p] == 1:
            del counts[p]
        else:
            counts[p] -= 1
    for p in net._post[t]:
        counts[p] = counts.get(p, 0) + 1
    return Marking._raw(counts)


def enabled_transitions(net: PetriNet, marking: Marking) -> list[str]:
    """All enabled transitions, sorted for deterministic iteration."""
    pre = net._pre
    counts = marking._counts  # zero counts are never stored
    return [t for t in net._sorted_transitions if all(p in counts for p in pre[t])]


def event_net(trace: Iterable[str]) -> SystemNet:
    """Sequence-shaped net whose language is exactly ``{trace}``.

    Places p1..p(n+1), one visible transition per event; rejects the empty
    trace (its net would have equal initial and final markings).
    """
    labels = list(trace)
    if not labels:
        raise ValidationError("cannot build an event net for an empty trace")
    n = len(labels)
    places = [f"p{i}" for i in range(1, n + 2)]
    transitions = [f"t{i}" for i in range(1, n + 1)]
    arcs = [(places[i], t) for i, t in enumerate(transitions)]
    arcs += [(t, places[i + 1]) for i, t in enumerate(transitions)]
    net = PetriNet(places, transitions, arcs, dict(zip(transitions, labels)))
    return SystemNet(net, Marking([places[0]]), Marking([places[-1]]))


def language(sn: SystemNet, max_len: int, max_firings: int = 10_000) -> set[tuple[str, ...]]:
    """Visible label sequences of complete firing sequences, up to ``max_len``.

    Each (marking, word) pair is explored once, so τ loops end. Every firing
    counts toward ``max_firings``.
    """
    if max_len < 0:
        raise ValidationError("max_len must be nonnegative")
    net = sn.net
    results: set[tuple[str, ...]] = set()
    stack = [(sn.initial_marking, ())]
    seen = set(stack)
    fired = 0
    while stack:
        marking, word = stack.pop()
        if marking == sn.final_marking:
            results.add(word)
        for t in enabled_transitions(net, marking):
            label = net.label(t)
            if label is not None and len(word) == max_len:
                continue
            fired += 1
            if fired > max_firings:
                raise CapExceeded(f"language exploration exceeded the firing cap ({max_firings})")
            pair = (_fire_unchecked(net, marking, t), word if label is None else word + (label,))
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return results
