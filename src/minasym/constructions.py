"""Generators for the hypergraph families studied by the workbench.

Every generator lays out vertices deterministically and carries a label
table naming each vertex, emitted by the CLI as a sidecar file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .hypergraph import Hypergraph


@dataclass(frozen=True)
class FamilyBuild:
    graph: Hypergraph
    labels: tuple[str, ...]


def _build_gkt(k: int, t: int) -> tuple[Hypergraph, list[str], dict[str, int]]:
    if k < 3:
        raise ValueError("ring family needs k >= 3")
    if t < k - 2:
        raise ValueError(f"ring family needs t >= k - 2, got t={t} for k={k}")
    ring = t * k
    labels: list[str] = [f"u{i}" for i in range(ring)]
    index: dict[str, int] = {lab: i for i, lab in enumerate(labels)}
    for j in range(k - 2):
        for i in range(ring):
            index[f"v{j}_{i}"] = len(labels)
            labels.append(f"v{j}_{i}")
    edges = []
    for i in range(ring):
        edge = [index[f"u{i}"]]
        edge += [index[f"v{j}_{i}"] for j in range(k - 2)]
        edge.append(index[f"v0_{(i + 1) % ring}"])
        edges.append(edge)
    for j in range(1, k - 2):
        for s in range(t):
            start = j + s * k - 1
            edges.append([index[f"v{j}_{(start + d) % ring}"] for d in range(k)])
    return Hypergraph(len(labels), edges, k=k), labels, index


def gen_gkt(k: int, t: int) -> Hypergraph:
    """Ring of t*k hub vertices chained through k-edges, plus interval
    edges partitioning each secondary ring.  Always symmetric: rotating
    every subscript by k (by 1 when k=3) permutes the edges."""
    return _build_gkt(k, t)[0]


def _build_gkt_circ(k: int, t: int) -> tuple[Hypergraph, list[str]]:
    base, labels, index = _build_gkt(k, t)
    x = len(labels)
    labels = labels + ["x"]
    anchor = [index["u0"]] + [index[f"v{j}_0"] for j in range(k - 2)] + [x]
    edges = list(base.edges) + [tuple(sorted(anchor))]
    return Hypergraph(len(labels), edges, k=k), labels


def gen_gkt_circ(k: int, t: int) -> Hypergraph:
    """Anchored ring: one fresh vertex attached along the first chain
    edge, breaking every rotation.  Asymmetric, and every proper
    subgraph on fewer vertices is symmetric."""
    return _build_gkt_circ(k, t)[0]


def _build_gk(k: int) -> tuple[Hypergraph, list[str]]:
    if k < 4:
        raise ValueError("interval family needs k >= 4")
    n = 2 * k - 1
    labels = [f"v{i}" for i in range(1, n + 1)]
    edges = [tuple(range(i, i + k)) for i in range(k)]
    return Hypergraph(n, edges, k=k), labels


def gen_gk(k: int) -> Hypergraph:
    """k sliding windows of width k over a path of 2k-1 vertices.  Its
    automorphism group has order two: the end-to-end reflection."""
    return _build_gk(k)[0]


def gk_reflection(k: int) -> tuple[int, ...]:
    """The unique non-identity automorphism of gen_gk(k)."""
    n = 2 * k - 1
    return tuple(n - 1 - i for i in range(n))


def _build_gk_star(k: int) -> tuple[Hypergraph, list[str]]:
    base, labels = _build_gk(k)
    x = base.n
    labels = labels + ["x"]
    extra = tuple(sorted([x] + list(range(0, k - 2)) + [k + 1]))
    edges = list(base.edges) + [extra]
    return Hypergraph(base.n + 1, edges, k=k), labels


def gen_gk_star(k: int) -> Hypergraph:
    """Interval family plus one pendant vertex on an extra edge that
    breaks the reflection.  Asymmetric; every subgraph on fewer
    vertices admits an involution."""
    return _build_gk_star(k)[0]


def tilde(h: Hypergraph) -> Hypergraph:
    """Widen every edge by a private fresh pair of vertices.

    Automorphisms restrict to automorphisms of the original, and each
    original automorphism extends: the fresh pairs ride along with
    their edges.
    """
    edges = []
    for i, e in enumerate(h.edges):
        edges.append(tuple(e) + (h.n + 2 * i, h.n + 2 * i + 1))
    return Hypergraph(
        h.n + 2 * h.m, edges, k=h.k + 2 if h.k is not None else None
    )


def tilde_labels(labels: list[str], m: int) -> list[str]:
    out = list(labels)
    for i in range(m):
        out += [f"a{i}", f"b{i}"]
    return out


def _build_figure2() -> tuple[Hypergraph, list[str]]:
    edges = [(0, 1, 2), (1, 3, 4), (1, 3, 5), (2, 3, 4)]
    return Hypergraph(6, edges, k=3), [f"v{i}" for i in range(1, 7)]


def gen_figure2() -> Hypergraph:
    """The explicit asymmetric 3-graph on 6 vertices with 4 edges
    (degree sequence 1,3,2,3,2,1)."""
    return _build_figure2()[0]


def _build_gks(k: int, s: int) -> tuple[Hypergraph, list[str]]:
    if k < 6:
        raise ValueError("layered family needs k >= 6")
    if s < 0:
        raise ValueError("layer depth must be non-negative")
    inner = k - 2

    def coords_for_layer(layer: int) -> list[tuple[int, ...]]:
        # coordinates (i_layer .. i_{s+1}): inner choices except the last,
        # which runs over 1..k-1
        spots = s + 1 - layer + 1  # number of coordinates
        out: list[tuple[int, ...]] = [()]
        for pos in range(spots):
            limit = k - 1 if pos == spots - 1 else inner
            out = [c + (i,) for c in out for i in range(1, limit + 1)]
        return out

    # register copies: (layer, coords) -> (vertex base index, width, name)
    labels: list[str] = []
    copy_base: dict[tuple[int, tuple[int, ...]], int] = {}
    copy_width: dict[tuple[int, tuple[int, ...]], int] = {}
    for layer in range(1, s + 2):
        width = 2 * k - 1 if layer == 1 else 2 * inner - 1
        for coords in coords_for_layer(layer):
            key = (layer, coords)
            copy_base[key] = len(labels)
            copy_width[key] = width
            name = "G(" + ",".join(str(c) for c in coords) + ")"
            labels += [f"{name}.v{i}" for i in range(1, width + 1)]
    root_base = len(labels)
    root_width = 2 * inner - 1
    labels += [f"G*.v{i}" for i in range(1, root_width + 1)]
    labels.append("G*.x")

    def tail_pair(key) -> tuple[int, int]:
        # highest two vertices in label order: v_{2w-2}, v_{2w-1} of width
        # 2w-1 in 1-based labels, i.e. the last two local indices
        base_idx, width = copy_base[key], copy_width[key]
        return base_idx + width - 2, base_idx + width - 1

    edges: list[list[int]] = []
    for (layer, coords), base_idx in copy_base.items():
        kk = k if layer == 1 else inner
        for j in range(1, kk + 1):
            edge = [base_idx + (j - 1) + d for d in range(kk)]
            if layer > 1:
                child = (layer - 1, (j,) + coords)
                edge += list(tail_pair(child))
            edges.append(edge)
    for j in range(1, inner + 1):
        edge = [root_base + (j - 1) + d for d in range(inner)]
        child = (s + 1, (j,))
        edge += list(tail_pair(child))
        edges.append(edge)
    pendant = [root_base + root_width] + [root_base + i for i in range(inner - 2)]
    pendant.append(root_base + inner + 1)
    child = (s + 1, (inner + 1,))
    pendant += list(tail_pair(child))
    edges.append(pendant)
    return Hypergraph(len(labels), edges, k=k), labels


def gen_gks(k: int, s: int) -> Hypergraph:
    """Layered tree of interval families: (k-1)(k-2)^s leaf copies, then
    s levels of shrunken copies, rooted at a pendant-anchored copy; each
    inner edge is widened by the tail pair of the copy it points to.
    Asymmetric with maximum degree k, and every proper subgraph admits
    an involution."""
    return _build_gks(k, s)[0]


def gen_asym_witness_2graph(n: int) -> Optional[Hypergraph]:
    """Deterministic asymmetric 2-graph on n vertices, or None.

    Searches isomorphism classes by rising edge count and returns the
    canonical form of the class with the smallest canonical key at the
    first count where asymmetric graphs appear, whichever labelled
    representative the search keeps.  None exactly when n < 6: every
    graph on at most 5 vertices has a non-identity automorphism.
    """
    from .autom import canonical_form, canonical_key, is_asymmetric
    from .search import classes_by_edge_count

    if n < 2:
        raise ValueError("need n >= 2")
    for _, reps in classes_by_edge_count(n, 2):
        hits = [(canonical_key(g), g) for g in reps if is_asymmetric(g)]
        if hits:
            return canonical_form(min(hits)[1])
    return None


def _build_asym_witness(n: int) -> tuple[Hypergraph, list[str]]:
    g = gen_asym_witness_2graph(n)
    if g is None:
        raise ValueError(f"no asymmetric 2-graph on {n} vertices")
    return g, [f"v{i}" for i in range(g.n)]


# family token -> (the parameters it needs, builder of (graph, labels))
_FAMILIES = {
    "gkt": (("k", "t"), lambda k, t: _build_gkt(k, t)[:2]),
    "gkt-circ": (("k", "t"), _build_gkt_circ),
    "gk": (("k",), _build_gk),
    "gk-star": (("k",), _build_gk_star),
    "gks": (("k", "s"), _build_gks),
    "figure2": ((), _build_figure2),
    "asym-witness": (("n",), _build_asym_witness),
}


def _build(table: dict, family: str, given: dict):
    """Run `family`'s builder from a family table on its parameters."""
    if family not in table:
        raise ValueError(f"unknown family {family!r}")
    params, build = table[family]
    for name in params:
        if given[name] is None:
            raise ValueError(f"family {family!r} needs --{name}")
    return build(*(given[name] for name in params))


def build_family(family: str, k=None, t=None, s=None, n=None) -> FamilyBuild:
    """Family registry keyed by the CLI's family tokens."""
    g, labels = _build(_FAMILIES, family, {"k": k, "t": t, "s": s, "n": n})
    return FamilyBuild(g, tuple(labels))
