"""Permutations of {0..n-1} as tuples: p[i] is the image of point i."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def is_identity(p: Sequence[int]) -> bool:
    return all(p[i] == i for i in range(len(p)))


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Apply q first, then p: compose(p, q)[i] == p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(q)))


def inverse(p: Sequence[int]) -> Perm:
    inv = [0] * len(p)
    for i, img in enumerate(p):
        inv[img] = i
    return tuple(inv)


def is_involution(p: Sequence[int]) -> bool:
    """Non-identity permutation that is its own inverse."""
    n = len(p)
    return all(p[p[i]] == i for i in range(n)) and any(p[i] != i for i in range(n))


def order(p: Sequence[int]) -> int:
    return math.lcm(*map(len, cycles(p)))


def power(p: Sequence[int], e: int) -> Perm:
    """p applied e times (e >= 0), by stepping e places along each cycle."""
    images = list(range(len(p)))
    for cyc in cycles(p):
        for i, v in enumerate(cyc):
            images[v] = cyc[(i + e) % len(cyc)]
    return tuple(images)


def validate(p: Sequence[int], n: int) -> None:
    if len(p) != n or sorted(p) != list(range(n)):
        raise ValueError(f"not a permutation of {n} points: {p!r}")


def cycles(p: Sequence[int]) -> list[tuple[int, ...]]:
    """Non-trivial cycles, each rotated to start at its smallest point."""
    n = len(p)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


def transposition(n: int, a: int, b: int) -> Perm:
    images = list(range(n))
    images[a], images[b] = b, a
    return tuple(images)


def random_perm(n: int, rng) -> Perm:
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


def from_cycles(n: int, cycs: Iterable[Iterable[int]]) -> Perm:
    images = list(range(n))
    for cyc in cycs:
        cyc = list(cyc)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return tuple(images)
