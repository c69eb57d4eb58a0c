"""Shared helpers: random structure generators and permutation-loop
oracles, kept independent of the package's search engine."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from itertools import chain
from typing import Optional

import numpy as np

from minasym import Hypergraph, RelationalStructure, transposition
from minasym.search import _CHUNK, _edge_space, _Remap


def random_uniform(rng: random.Random, n_lo: int = 2, n_hi: int = 7) -> Hypergraph:
    n = rng.randrange(n_lo, n_hi + 1)
    k = rng.randrange(2, n + 1)
    pool = list(itertools.combinations(range(n), k))
    m = rng.randrange(0, len(pool) + 1)
    return Hypergraph(n, rng.sample(pool, m), k=k)


def random_mixed(rng: random.Random, n_lo: int = 1, n_hi: int = 7) -> Hypergraph:
    n = rng.randrange(n_lo, n_hi + 1)
    pool = []
    for k in range(1, n + 1):
        pool.extend(itertools.combinations(range(n), k))
    m = rng.randrange(0, min(len(pool), 12) + 1)
    return Hypergraph(n, rng.sample(pool, m))


def random_relational(rng: random.Random, n_hi: int = 6) -> RelationalStructure:
    n = rng.randrange(1, n_hi + 1)
    arity = rng.randrange(1, min(3, n) + 1)
    pool = list(itertools.permutations(range(n), arity))
    m = rng.randrange(0, min(len(pool), 10) + 1)
    return RelationalStructure(n, arity, rng.sample(pool, m))


def perm_image(edges, p):
    return sorted(tuple(sorted(p[v] for v in e)) for e in edges)


def oracle_automorphisms(h: Hypergraph) -> list[tuple[int, ...]]:
    """All automorphisms by the n! definition."""
    target = perm_image(h.edges, range(h.n))
    return [
        p
        for p in itertools.permutations(range(h.n))
        if perm_image(h.edges, p) == target
    ]


def oracle_nonidentity(h: Hypergraph) -> Optional[tuple[int, ...]]:
    """The first non-identity automorphism in permutation order, found
    without listing the whole group."""
    target = perm_image(h.edges, range(h.n))
    ident = tuple(range(h.n))
    for p in itertools.permutations(range(h.n)):
        if p != ident and perm_image(h.edges, p) == target:
            return p
    return None


def oracle_involution(h: Hypergraph) -> Optional[tuple[int, ...]]:
    ident = tuple(range(h.n))
    for p in oracle_automorphisms(h):
        if p != ident and all(p[p[i]] == i for i in range(h.n)):
            return p
    return None


def subgraph_on(vertices, edges) -> Hypergraph:
    """Reindex a vertex subset and a list of edges inside it."""
    keep = sorted(vertices)
    pos = {v: i for i, v in enumerate(keep)}
    return Hypergraph(len(keep), [tuple(pos[v] for v in e) for e in edges])


def _subgraph_pairs(h: Hypergraph, lo: int, hi: int):
    """Every (vertex subset, edge subset) pair with lo <= size <= hi."""
    for r in range(lo, hi + 1):
        for xs in itertools.combinations(range(h.n), r):
            inside = [e for e in h.edges if set(xs).issuperset(e)]
            for mm in range(len(inside) + 1):
                for ms in itertools.combinations(inside, mm):
                    yield xs, ms, inside


def oracle_strongly_minimal(h: Hypergraph) -> bool:
    """Definition-level: asymmetric, and every subgraph on 1 < n' < n
    vertices has a non-identity automorphism."""
    if oracle_nonidentity(h) is not None:
        return False
    for xs, ms, _ in _subgraph_pairs(h, 2, h.n - 1):
        if oracle_nonidentity(subgraph_on(xs, ms)) is None:
            return False
    return True


def oracle_minimal_involution_free(h: Hypergraph, nontrivial_only: bool) -> bool:
    """Definition-level: no involution, and every proper subgraph on at
    least two vertices has one (spanning ones exempt when asked)."""
    if oracle_involution(h) is not None:
        return False
    hi = h.n - 1 if nontrivial_only else h.n
    for xs, ms, inside in _subgraph_pairs(h, 2, hi):
        if len(xs) == h.n and len(ms) == h.m:
            continue
        if oracle_involution(subgraph_on(xs, ms)) is None:
            return False
    return True


def oracle_minimal_asymmetric(h: Hypergraph) -> bool:
    """Asymmetric with every induced subgraph on 1 < n' < n vertices
    symmetric."""
    if oracle_nonidentity(h) is not None:
        return False
    for r in range(2, h.n):
        for xs in itertools.combinations(range(h.n), r):
            inside = [e for e in h.edges if set(xs).issuperset(e)]
            if oracle_nonidentity(subgraph_on(xs, inside)) is None:
                return False
    return True


def oracle_isomorphic(a, b) -> bool:
    """Whether some permutation maps the edges (or, for relational
    structures, the tuples) of `a` onto those of `b`, by the n!
    definition."""
    if isinstance(a, RelationalStructure):
        ea, eb, image = a.tuples, b.tuples, lambda p, e: tuple(p[v] for v in e)
    else:
        ea, eb, image = a.edges, b.edges, lambda p, e: tuple(sorted(p[v] for v in e))
    if a.n != b.n or len(ea) != len(eb):
        return False
    target = sorted(eb)
    return any(
        sorted(image(p, e) for e in ea) == target for p in itertools.permutations(range(a.n))
    )


def oracle_automorphisms_rel(r: RelationalStructure) -> list[tuple[int, ...]]:
    target = sorted(r.tuples)
    out = []
    for p in itertools.permutations(range(r.n)):
        if sorted(tuple(p[v] for v in t) for t in r.tuples) == target:
            out.append(p)
    return out


def oracle_refine(n, edges, ordered, vcol):
    """Colour refinement by re-ranking every signature until the number
    of colours stops growing: (vertex colours, edge colours), from the
    vertex colouring `vcol` and one edge colour.  Edge signatures are the
    endpoint colours (sorted unless `ordered`), vertex signatures the
    sorted incident edge colours (with positions when `ordered`)."""
    inc = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        for pos, v in enumerate(e):
            inc[v].append((ei, pos) if ordered else ei)
    vcol = list(vcol)
    ecol = [0] * len(edges)
    nv = ne = -1
    while True:
        esig = []
        for ei, e in enumerate(edges):
            cols = [vcol[v] for v in e]
            if not ordered:
                cols.sort()
            esig.append((ecol[ei], tuple(cols)))
        ranks = {s: i for i, s in enumerate(sorted(set(esig)))}
        ecol = [ranks[s] for s in esig]
        vsig = []
        for v in range(n):
            if ordered:
                around = sorted((ecol[ei], pos) for ei, pos in inc[v])
            else:
                around = sorted(ecol[ei] for ei in inc[v])
            vsig.append((vcol[v], tuple(around)))
        vranks = {s: i for i, s in enumerate(sorted(set(vsig)))}
        vcol = [vranks[s] for s in vsig]
        if (len(vranks), len(ranks)) == (nv, ne):
            return vcol, ecol
        nv, ne = len(vranks), len(ranks)


def reference_refine(self, state: tuple, queue: list[tuple[int, int]]) -> tuple:
    """`_Engine._refine` with every splitter, singletons too, sent
    through the general multi-way split, kept line for line as the
    exact-state reference: installed as `_Engine._refine` (the first
    argument is the engine), it must give the same colours, cell orders
    and cell sizes."""
    cols, orders, sizes = state[:2], state[2:4], state[4:]
    near = (self.inc, self.ends)
    queued = set(queue)
    for side, start in queue:  # the loop reads the entries it appends
        queued.discard((side, start))
        members = orders[side][start:start + sizes[side][start]]
        other = 1 - side
        col, order, size = cols[other], orders[other], sizes[other]
        if self.ordered:
            meets: dict = {}
            for x in members:
                for y, pos in near[side][x]:
                    meets.setdefault(y, []).append(pos)
            key, missing = {y: tuple(sorted(p)) for y, p in meets.items()}, ()
        elif len(members) == 1:  # an unordered edge meets a vertex once
            key, missing = dict.fromkeys(near[side][members[0]], 1), 0
        else:
            key, missing = Counter(chain.from_iterable(map(near[side].__getitem__, members))), 0
        touched: dict[int, list[int]] = {}
        for y in key:
            c = col[y]
            if size[c] > 1:
                touched.setdefault(c, []).append(y)
        for c in sorted(touched):
            hit, total = touched[c], size[c]
            if len(hit) == total and len({key[y] for y in hit}) == 1:
                continue
            parts: dict = {}
            if len(hit) < total:
                parts[missing] = [y for y in order[c:c + total] if y not in key]
            for y in hit:
                parts.setdefault(key[y], []).append(y)
            groups = [parts[k] for k in sorted(parts)]
            largest = None if (other, c) in queued else max(groups, key=len)
            for group in groups:
                order[c:c + len(group)] = group
                if group is not groups[0]:
                    for y in group:
                        col[y] = c
                size[c] = len(group)
                if group is not largest and (other, c) not in queued:
                    queue.append((other, c))
                    queued.add((other, c))
                c += len(group)
    return state


def reference_base(engine, pinned=None) -> tuple:
    """The engine's base state as `reference_refine` reaches it from the
    base queue with the whole vertex cell always queued: one edge cell,
    the unpinned and the pinned vertex cell."""
    n, m = engine.n, engine.m
    pinned = pinned or frozenset()
    cut = n - len(pinned)
    vorder = [v for v in range(n) if v not in pinned] + sorted(pinned)
    vcol = [cut if v in pinned else 0 for v in range(n)]
    sizes, queue = ([0] * n, [0] * m), []
    for side, start, size in ((0, 0, cut), (0, cut, n - cut), (1, 0, m)):
        if size:
            sizes[side][start] = size
            queue.append((side, start))
    state = (vcol, [0] * m, vorder, list(range(m))) + sizes
    return reference_refine(engine, state, queue)


def sweep_orbits(k: int, n: int):
    """`search._orbits` by the fixpoint sweep it replaced, kept as the
    reference: `least[x] = min(least[x], least[g(x)])` over the adjacent
    transpositions g, with pointer jumping, until nothing changes; then
    (orbit minimum, orbit of n! masks) for each orbit, in mask order."""
    edges = _edge_space(n, k)
    total = 1 << len(edges)
    gens = [_Remap(transposition(n, v, v + 1), edges) for v in range(n - 1)]
    least = np.arange(total, dtype=np.int32)
    spans = [(lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK)]
    while True:
        before = int(least.sum(dtype=np.int64))
        for lo, hi in spans:
            part = least[lo:hi]
            for remap in gens:
                np.minimum(part, least.take(remap.span(lo, hi, np.empty(hi - lo, np.intp))), out=part)
            part[:] = least.take(part)
        if int(least.sum(dtype=np.int64)) == before:
            break
    reps, sizes = np.unique(least, return_counts=True)
    order = math.factorial(n)
    return least, [(mask, size == order) for mask, size in zip(reps.tolist(), sizes.tolist())]
