"""Seeded inputs of the benchmark workloads.

Each workload pairs a committed model net (see inputs/SHA256SUMS) with a log
made here from ``--seed``: a random run of the model, a fixed number of
deviations and uncertainty features per trace, placed at random positions.
The counts per trace are fixed by the workload, so the make-up of a log
(events, realizations per trace) barely changes with the seed, while the
runs, positions and labels do. Nothing here imports the program, so no
change to it can alter what is measured.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from check import Net

INPUTS = Path(__file__).resolve().parent / "inputs"

ORIGIN = "2020-01-01T{:02d}:{:02d}:00Z"


@dataclass(frozen=True)
class Profile:
    """Per-trace counts of deviations (relabel, swap) and uncertainty (the rest)."""

    relabel: int = 0
    swap: int = 0
    extra: int = 0    # events given one more candidate label
    overlap: int = 0  # events whose interval reaches the next event (2 orders each)
    indet: int = 0    # events that may not have happened


@dataclass(frozen=True)
class Workload:
    net: str
    traces: int
    lengths: tuple[int, ...]      # accepted run lengths of the model
    profiles: tuple[Profile, ...]  # trace i gets profiles[i % len(profiles)]


WORKLOADS = {
    # Tens of model states, thousands of short traces: per-trace fixed cost
    # dominates and most realizations repeat across traces (cache hits).
    "many-small": Workload(
        net="small.net.json",
        traces=2000,
        lengths=(1, 4),
        profiles=(
            Profile(),
            Profile(relabel=1),
            Profile(extra=1),
            Profile(swap=1),
            Profile(overlap=1),
            Profile(indet=1),
            Profile(relabel=2),
            Profile(relabel=1, extra=1),
        ),
    ),
    # Hundreds of model states and heavy uncertainty of all three kinds: one
    # trace in ten has 256 realizations, the others 8; none repeat.
    "wide-uncertain": Workload(
        net="wide.net.json",
        traces=10,
        lengths=(10,),
        profiles=(Profile(relabel=1, extra=3, overlap=3, indet=2),)
        + (Profile(relabel=1, extra=1, overlap=1, indet=1),) * 9,
    ),
    # 5,182 model states, a few traces with two realizations each: the dense
    # model closure and the V x V product steps dominate.
    "large-model": Workload(
        net="large.net.json",
        traces=2,
        lengths=(5,),
        profiles=(Profile(relabel=1, swap=1, extra=1),),
    ),
}


def _playout(net: Net, rng: random.Random, lengths: tuple[int, ...]) -> list[str]:
    for _ in range(10_000):
        marking, word = net.initial, []
        while marking != net.final:
            enabled = [t for t in net.transitions if net.fire(marking, t) is not None]
            t = rng.choice(enabled)
            marking = net.fire(marking, t)
            if net.labels[t] is not None:
                word.append(net.labels[t])
        if len(word) in lengths:
            return word
    raise RuntimeError(f"no run of length {lengths} in 10000 tries")


def _some(rng: random.Random, k: int, pool: list[int]) -> list[int]:
    """k distinct members of pool (all of them when it is too small)."""
    return rng.sample(pool, min(k, len(pool)))


def _spaced(rng: random.Random, k: int, n: int) -> list[int]:
    """k positions in range(n), no two adjacent (fewer when n is too short)."""
    k = min(k, (n + 1) // 2)
    for _ in range(10_000):
        picks = sorted(rng.sample(range(n), k))
        if all(b - a >= 2 for a, b in zip(picks, picks[1:])):
            return picks
    raise RuntimeError(f"cannot place {k} non-adjacent positions in {n}")


def _fresh(rng: random.Random, alphabet: list[str], used: set[str]) -> str:
    """A label not used yet in the trace, if the alphabet has one."""
    return rng.choice([a for a in alphabet if a not in used] or alphabet)


def _trace(case: str, word: list[str], p: Profile, alphabet: list[str], rng: random.Random) -> dict:
    """An uncertain trace over ``word`` with the deviations and features of ``p``.

    Labels stay distinct within the trace where the alphabet allows, and an
    indeterminate event neither overlaps another nor gets a second label, so
    a trace with k features has 2**k realizations.
    """
    n = len(word)
    word = list(word)
    for i in _some(rng, p.relabel, list(range(n))):
        word[i] = _fresh(rng, alphabet, set(word))
    for i in _spaced(rng, p.swap, n - 1):
        word[i], word[i + 1] = word[i + 1], word[i]
    reach = {i: i + 1 for i in _spaced(rng, p.overlap, n - 1)}
    unpaired = [j for j in range(n) if j not in reach and j - 1 not in reach]
    indet = set(_some(rng, p.indet, unpaired))
    labels = [{a} for a in word]
    for i in _some(rng, p.extra, [j for j in range(n) if j not in indet]):
        labels[i].add(_fresh(rng, alphabet, set().union(*labels)))
    stamp = [ORIGIN.format(*divmod(j, 60)) for j in range(n)]
    return {
        "case_id": case,
        "events": [
            {
                "id": f"{case}-e{j + 1}",
                "activities": sorted(labels[j]),
                "t_min": stamp[j],
                "t_max": stamp[reach.get(j, j)],
                "indeterminate": j in indet,
            }
            for j in range(n)
        ],
    }


def load_net_doc(name: str) -> dict:
    return json.loads((INPUTS / name).read_bytes())


def make_log(name: str, seed: int) -> dict:
    """The log document of workload ``name`` for ``seed``."""
    w = WORKLOADS[name]
    net = Net(load_net_doc(w.net))
    alphabet = sorted(label for label in net.labels.values() if label is not None)
    traces = []
    for i in range(w.traces):
        rng = random.Random(f"{name}|{seed}|{i}")
        word = _playout(net, rng, w.lengths)
        traces.append(_trace(f"case{i}", word, w.profiles[i % len(w.profiles)], alphabet, rng))
    return {"schema_version": "1.0", "traces": traces}


def log_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8")


def verify_inputs() -> None:
    """Refuse committed inputs whose SHA-256 differs from inputs/SHA256SUMS."""
    for line in (INPUTS / "SHA256SUMS").read_text().splitlines():
        digest, name = line.split()
        actual = hashlib.sha256((INPUTS / name).read_bytes()).hexdigest()
        if actual != digest:
            raise RuntimeError(f"input {name} has SHA-256 {actual}, expected {digest}")


if __name__ == "__main__":
    import sys

    # python3 bench/gen.py WORKLOAD SEED > log.json
    sys.stdout.buffer.write(log_bytes(make_log(sys.argv[1], sys.argv[2])))
