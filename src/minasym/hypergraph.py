"""Finite hypergraphs on vertex set {0..n-1} with set-valued edges.

Edges are stored as ascending vertex tuples, the edge set ordered
lexicographically, so equal hypergraphs compare equal structurally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .perms import Perm


@dataclass(frozen=True)
class Hypergraph:
    n: int
    edges: tuple[tuple[int, ...], ...]
    k: Optional[int] = None

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = (), k: Optional[int] = None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        normalized = set()
        for edge in edges:
            e = tuple(sorted(edge))
            if not e:
                raise ValueError("empty edge")
            if len(set(e)) != len(e):
                raise ValueError(f"repeated vertex in edge {e!r}")
            if e[0] < 0 or e[-1] >= n:
                raise ValueError(f"edge {e!r} out of range for n={n}")
            normalized.add(e)
        edge_tuple = tuple(sorted(normalized))
        sizes = {len(e) for e in edge_tuple}
        if k is not None:
            if k <= 0:
                raise ValueError("uniformity tag must be positive")
            if sizes - {k}:
                raise ValueError(f"edges of size {sizes} under uniformity tag {k}")
        elif len(sizes) == 1:
            k = next(iter(sizes))
        self.__dict__.update(n=n, edges=edge_tuple, k=k)

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.edges)


def _unchecked(n: int, edges: tuple[tuple[int, ...], ...], k: Optional[int]) -> Hypergraph:
    """The Hypergraph of sorted, distinct, in-range k-uniform edges, without `__init__`'s checks."""
    h = object.__new__(Hypergraph)
    h.__dict__.update(n=n, edges=edges, k=k)
    return h


def degree(h: Hypergraph, v: int) -> int:
    if not 0 <= v < h.n:
        raise ValueError(f"vertex {v} out of range")
    return sum(1 for e in h.edges if v in e)


def degrees(h: Hypergraph) -> tuple[int, ...]:
    counts = [0] * h.n
    for e in h.edges:
        for v in e:
            counts[v] += 1
    return tuple(counts)


def is_k_uniform(h: Hypergraph, k: int) -> bool:
    return all(len(e) == k for e in h.edges)


def set_complement(h: Hypergraph) -> Hypergraph:
    """Replace each edge by its vertex-set complement (an (n-k)-graph).

    Requires a k-uniform input with k < n; automorphism groups are
    unchanged under this map.
    """
    if h.k is None:
        raise ValueError("set complement needs a uniform hypergraph")
    if h.k >= h.n:
        raise ValueError("set complement needs k < n")
    full = set(range(h.n))
    edges = [tuple(sorted(full - set(e))) for e in h.edges]
    return Hypergraph(h.n, edges, k=h.n - h.k)


def _restrict(
    n: int, edges: Iterable[tuple[int, ...]], keep: Iterable[int]
) -> tuple[int, list[tuple[int, ...]]]:
    """The edges lying inside `keep`, with the kept vertices reindexed
    order-preservingly onto 0..len(keep)-1.  Edges may be sets or
    ordered tuples; sorted input stays sorted."""
    keep = sorted(set(keep))
    if keep and (keep[0] < 0 or keep[-1] >= n):
        raise ValueError("vertex out of range")
    index = {v: i for i, v in enumerate(keep)}
    return len(keep), [tuple(index[v] for v in e) for e in edges if index.keys() >= set(e)]


def induced_sub(h: Hypergraph, vertices: Iterable[int]) -> Hypergraph:
    """Induced sub-hypergraph: keeps edges entirely inside `vertices`.

    Vertices are reindexed order-preservingly, so new index i is the
    i-th smallest kept vertex.
    """
    n, edges = _restrict(h.n, h.edges, vertices)
    return Hypergraph(n, edges, k=h.k)


def relabel(h: Hypergraph, p: Perm) -> Hypergraph:
    """Image of the hypergraph under a vertex permutation."""
    if len(p) != h.n:
        raise ValueError("permutation length mismatch")
    return Hypergraph(h.n, [tuple(sorted(p[v] for v in e)) for e in h.edges], k=h.k)


def is_automorphism(h: Hypergraph, p: Sequence[int]) -> bool:
    edge_set = h.edge_set()
    return all(tuple(sorted(p[v] for v in e)) in edge_set for e in h.edges)


# HGF text format: header "n m k" (k=0 when no uniformity tag), one line
# per edge with ascending vertex indices, "#" comment lines, LF endings.
# REL (relations.py) shares the layout with "n m arity" and ordered rows.


def _write_rows(header: Sequence[int], rows: Iterable[Sequence[int]]) -> str:
    lines = [" ".join(map(str, header))]
    lines.extend(" ".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _read_rows(text: str, fmt: str, row_name: str) -> tuple[int, int, list[tuple[int, ...]]]:
    """Header `n m k` and the m rows of an HGF or REL document as
    (n, k, rows); repeated rows are rejected."""
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if not lines:
        raise ValueError(f"empty {fmt} document")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"bad {fmt} header: {lines[0]!r}")
    try:
        n, m, k = (int(x) for x in header)
    except ValueError as exc:
        raise ValueError(f"bad {fmt} header: {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} {row_name} lines, found {len(lines) - 1}")
    rows: dict[tuple[int, ...], None] = {}
    for line in lines[1:]:
        try:
            row = tuple(int(x) for x in line.split())
        except ValueError as exc:
            raise ValueError(f"bad {row_name} line: {line!r}") from exc
        if row in rows:
            raise ValueError(f"duplicate {row_name} line: {line!r}")
        rows[row] = None
    return n, k, list(rows)


def to_hgf(h: Hypergraph) -> str:
    return _write_rows((h.n, h.m, h.k or 0), h.edges)


def parse_hgf(text: str) -> Hypergraph:
    n, k, edges = _read_rows(text, "HGF", "edge")
    if k < 0:
        raise ValueError(f"bad HGF header: k = {k} is negative")
    for e in edges:
        if any(a >= b for a, b in zip(e, e[1:])):
            raise ValueError(f"edge indices not ascending: {' '.join(map(str, e))!r}")
    return Hypergraph(n, edges, k=k if k > 0 else None)


def to_hgf_stream(graphs: Iterable[Hypergraph]) -> str:
    """Multi-document HGF: documents separated by `---` lines."""
    return "---\n".join(to_hgf(g) for g in graphs)


def parse_hgf_stream(text: str) -> list[Hypergraph]:
    """Split on whole `---` lines only, so comments may contain `---`."""
    docs = re.split(r"^[ \t]*---[ \t]*$", text, flags=re.MULTILINE)
    return [parse_hgf(doc) for doc in docs if doc.strip()]


def serialize_labels(labels: Sequence[str]) -> str:
    """Label sidecar: one `index name` row per vertex."""
    return "".join(f"{i} {name}\n" for i, name in enumerate(labels))
