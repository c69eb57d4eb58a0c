"""Shared helpers: random structure generators and permutation-loop
oracles, kept independent of the package's search engine."""

from __future__ import annotations

import itertools
import random
from typing import Optional

from minasym import Hypergraph, RelationalStructure


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
