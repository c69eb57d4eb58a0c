"""Exhaustive scans and isomorph-free enumeration of small k-graphs.

Two independent enumeration strategies cover the same ground: the orbit
census of all labeled edge sets, read off the popcount classes or orbit
minima found by a transversal chain of S_n, where an orbit of n! masks
is an asymmetric class, and canonical augmentation growing one edge at a
time.  Their class counts must agree; tests enforce it.  Augmentation
keeps a child when its added edge lies in the orbit of the canonical
deletion, picked by endpoint degrees, then refined edge colours, then
the canonical labelling, which runs only on a tie spanning several edge
orbits of the child.  It grows levels 0..C/2 only; each level m above is
level C - m complemented.  Every class it yields carries its verdict.

A labeled class's representative is its least edge mask, edges in
`combinations` order, not the engine's canonical form.  No engine runs on
the labeled path: `_scan_labeled` stops at the first mask that no
non-identity vertex permutation fixes.  Only the labeled paths (`_orbits`,
`_Remap`, `_first_rigid`) import numpy, inside their functions: it is most
of the package's import cost, and augmentation never needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, filterfalse, permutations
from typing import Iterable, Iterator, Optional, Sequence

from .autom import _Engine, _incidence, _record_asymmetry, _recorded_asymmetry, structure_engine
from .errors import ResourceGuardError
from .hypergraph import Hypergraph, _unchecked
from .perms import Perm, transposition
from .verify import verify_minimal_asymmetric

_BIT_LIMIT = 24
_CHUNK = 1 << 16
_POINTS: dict = {}  # per n, `_first_rigid`'s table of permutations


@dataclass(frozen=True)
class SearchOutcome:
    """Census of one (k, n) cell; a witness is its class's least edge mask."""

    k: int
    n: int
    total_labeled: int
    iso_classes: int
    asymmetric_classes: int
    witnesses: tuple[Hypergraph, ...]


@dataclass(frozen=True)
class LemmaScan:
    """Result of a labeled scan for asymmetric instances: `scanned` counts
    the masks from 0 through the witness, or the whole scanned space."""

    k: int
    n: int
    total_labeled: int
    scanned: int
    all_symmetric: bool
    witness: Optional[Hypergraph]


def _edge_size(k: int) -> None:
    if k < 1:
        raise ValueError(f"edge size k must be at least 1, got {k}")


def _edge_space(n: int, k: int) -> list[tuple[int, ...]]:
    _edge_size(k)
    c = math.comb(n, k)
    if c > _BIT_LIMIT:
        raise ResourceGuardError(f"edge space C({n},{k}) = {c} exceeds the {_BIT_LIMIT}-bit scan guard")
    return list(combinations(range(n), k))


class _Remap:
    """The bit permutation a vertex permutation induces on edge-index
    masks (below 2^24 under the scan guard), via two int32 tables."""

    def __init__(self, perm: Perm, edges: Sequence[tuple[int, ...]]):
        self.lo_bits = len(edges) // 2
        img = [1 << edges.index(tuple(sorted(perm[v] for v in e))) for e in edges]
        self.lo = self._table(img[: self.lo_bits])
        self.hi = self._table(img[self.lo_bits :])

    @staticmethod
    def _table(img: list[int]) -> np.ndarray:
        import numpy as np
        t = np.zeros(1, dtype=np.int32)
        for bit in img:  # indexes with this bit set form the upper half
            t = np.concatenate([t, t | bit])
        return t

    def span(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Images of masks lo..hi-1 into the intp `out`; lo and hi are multiples of 2^lo_bits."""
        import numpy as np
        rows = self.hi[lo >> self.lo_bits : hi >> self.lo_bits, None]
        return np.bitwise_or(rows, self.lo, out=out.reshape(rows.size, -1)).ravel()


def _mask_graph(n: int, k: int, edges, mask: int) -> Hypergraph:
    return _unchecked(n, tuple(e for i, e in enumerate(edges) if mask >> i & 1), k)


def _scan_labeled(k: int, n: int, half: bool) -> tuple[int, Optional[int], int]:
    """(scanned, the first asymmetric mask or None, the space size) of a
    labeled scan in ascending mask order: `scanned` counts the masks of
    the scanned space through that mask, or all of them.  With `half`,
    masks with more than C/2 edges are skipped: complementing within the
    k-subsets keeps the group, so the scanned half covers the other.
    Popcount cells take the least mask of the first such class of their census."""
    edges = _edge_space(n, k)
    total, most = 1 << len(edges), len(edges) // 2 if half else len(edges)
    if k == 1 or k >= n - 1:
        bad = next((m for m, asym in _orbits(k, n) if asym and m.bit_count() <= most), None)
    else:
        bad = _first_rigid(n, edges, most)
    return _counted_before(total if bad is None else bad + 1, half, most), bad, total


def _first_rigid(n: int, edges: Sequence[tuple[int, ...]], most: int) -> Optional[int]:
    """The least mask of at most `most` edges that no non-identity vertex
    permutation fixes, or None, for 2 <= k <= n - 2: so n <= 7 under the
    guard, as C(n, k) >= C(n, 2) > 24 past it.  Masks go in ascending
    blocks of 512, small as each asymmetric mask of a block meets every
    permutation; a candidate covers n - 1 vertices, as two isolated ones
    swap.  Permutations go in chunks, fewest points moved first, from a
    table built once per n: a chunk's images of the candidates are one
    float64 product of their edge bits and the weights 2^(image edge),
    exact below 2^24."""
    import numpy as np
    c = len(edges)
    cols = np.array(edges, dtype=np.uint8).T
    index = np.zeros(1 << n, dtype=np.int8)  # edge index by vertex-set bitmask
    index[[sum(1 << v for v in e) for e in edges]] = np.arange(c)
    if (points := _POINTS.get(n)) is None:  # at most 5,039 rows of n bytes, shared, so read-only
        perms = np.fromiter(permutations(range(n)), dtype=(np.uint8, n))[1:]  # the identity is first
        points = _POINTS[n] = 1 << perms[np.argsort((perms != np.arange(n)).sum(axis=1), kind="stable")]
        points.flags.writeable = False
    inc = [sum(1 << i for i, e in enumerate(edges) if v in e) for v in range(n)]
    block, shifts = min(1 << c, _CHUNK // 128), np.arange(c, dtype=np.int32)
    for lo in range(0, 1 << c, block):  # temporaries of at most `_CHUNK` cells
        masks = np.arange(lo, lo + block, dtype=np.int32)
        covered = sum(((masks & b) != 0 for b in inc), np.zeros(block, dtype=np.int8))
        cands = masks[(covered >= n - 1) & (np.bitwise_count(masks) <= most)]
        bits, at = (cands[:, None] >> shifts & 1).astype(np.float64), 0
        while cands.size and at < len(points):
            chunk = points[at : (at := at + _CHUNK // max(cands.size, c))]
            image = chunk[:, cols[0]]  # the vertex bits of each edge's image
            for col in cols[1:]:
                image |= chunk[:, col]
            fixed = (bits @ np.ldexp(1.0, index[image]).T == cands[:, None]).any(axis=1)
            cands, bits = cands[~fixed], bits[~fixed]
        if cands.size:
            return int(cands[0])
    return None


def _counted_before(end: int, half: bool, limit: int) -> int:
    """Masks below `end` a scan counts: all of them, or with `half`, for
    the i-th set bit b of end from the top, the masks that share its
    bits above b, clear b, and set at most limit - i bits below it."""
    tops = [b for b in reversed(range(end.bit_length())) if end >> b & 1]
    counts = (math.comb(b, j) for i, b in enumerate(tops) for j in range(limit - i + 1))
    return sum(counts) if half else end


def verify_lemma_all_symmetric(k: int, n: int, half: bool = False) -> LemmaScan:
    """Does every labeled k-graph on n vertices have a non-identity
    automorphism?  The scan stops at the first asymmetric mask; `scanned`
    counts the masks from 0 through it, or all of them (with `half`,
    those with at most C(n,k)/2 edges)."""
    scanned, bad, total = _scan_labeled(k, n, half)
    witness = None if bad is None else _mask_graph(n, k, _edge_space(n, k), bad)
    return LemmaScan(k, n, total, scanned, bad is None, witness)


def min_asymmetric_order(k: int, n_max: int) -> tuple[Optional[int], Optional[Hypergraph]]:
    """Least n in 2..n_max carrying an asymmetric k-graph, with witness.

    One-vertex structures are ignored as trivially asymmetric.
    """
    _edge_size(k)
    for n in range(2, n_max + 1):
        _, mask, _ = _scan_labeled(k, n, half=True)
        if mask is not None:
            return n, _mask_graph(n, k, _edge_space(n, k), mask)
    return None, None


def _orbits(k: int, n: int) -> list[tuple[int, bool]]:
    """The census: (orbit-minimum mask, asymmetric) per k-graph class on n vertices, in mask order.

    For k = 1 or k >= n - 1, S_n moves the edges as it moves the points, so
    the orbits are the popcount classes.  Otherwise `least`, each mask's
    orbit minimum, follows a transversal chain: as T_j = {id} and the (i j),
    i < j, is a transversal of S_j in S_(j+1), j = 1..n-1 gives
    least_(j+1)[x] = min over t in T_j of least_j[t(x)] (Holt, Eick &
    O'Brien, Handbook of Computational Group Theory, 2005, ch. 4).  One
    array serves every level: each value it holds at y is a mask of y's
    S_(j+1)-orbit and at most least_j[y], so a min over T_j that mixes old
    and new values is still exactly least_(j+1)[x].  By orbit-stabiliser an
    orbit of n! masks is asymmetric.
    """
    import numpy as np
    edges = _edge_space(n, k)
    c = len(edges)
    if k == 1 or k >= n - 1:
        return [((1 << p) - 1, math.comb(c, p) == math.factorial(n)) for p in range(c + 1)]
    total = 1 << c
    least = np.arange(total, dtype=np.int32)
    # Blocks of _CHUNK masks (or one of all), 2^lo_bits-aligned for `_Remap.span`, keep the
    # temporaries small.  The space has a power-of-two size, so every block has `block` masks.
    block = min(total, _CHUNK)
    spans = [(lo, lo + block) for lo in range(0, total, block)]
    # Reused buffers: fresh block temporaries would fault in their pages on every gather.
    idx, vals = np.empty(block, dtype=np.intp), np.empty(block, dtype=np.int32)
    for j in range(1, n):
        coset = [_Remap(transposition(n, i, j), edges) for i in range(j)]
        for lo, hi in spans:
            for remap in coset:  # `clip` never clips here; it skips `raise`'s buffered copy
                least.take(remap.span(lo, hi, idx), out=vals, mode="clip")
                np.minimum(least[lo:hi], vals, out=least[lo:hi])
    # Orbit minima are the fixed points of least; an orbit's size is how many masks point at it.
    reps = np.concatenate([np.flatnonzero(least[lo:hi] == np.arange(lo, hi)) + lo for lo, hi in spans])
    sizes = np.zeros(reps.size, dtype=np.int64)
    for lo, hi in spans:  # a block points at few distinct minima
        values, counts = np.unique(least[lo:hi], return_counts=True)
        sizes[np.searchsorted(reps, values)] += counts
    # Python ints: n! passes the int64 range from n = 21.
    order = math.factorial(n)
    return [(mask, size == order) for mask, size in zip(reps.tolist(), sizes.tolist())]


def _mask_classes(k: int, n: int, masks: Sequence[int]) -> list[Hypergraph]:
    """The graphs of these masks, ordered by edge count then edge list."""
    edges = _edge_space(n, k)
    return sorted((_mask_graph(n, k, edges, mask) for mask in masks), key=lambda h: (h.m, h.edges))


def enumerate_k_graphs(k: int, n: int) -> list[Hypergraph]:
    """One representative per isomorphism class of k-graphs on n
    vertices, ordered by edge count then edge list: the least mask of
    each orbit under the vertex permutations (`_orbits`), edges in
    `combinations` order, not the engine's canonical form."""
    return _mask_classes(k, n, [mask for mask, _ in _orbits(k, n)])


def scan_classes(k: int, n: int) -> SearchOutcome:
    """Class census at (k, n); a witness is its class's least edge mask."""
    census = _orbits(k, n)
    asym = [mask for mask, asymmetric in census if asymmetric]
    return SearchOutcome(
        k=k,
        n=n,
        total_labeled=1 << math.comb(n, k),
        iso_classes=len(census),
        asymmetric_classes=len(asym),
        witnesses=tuple(_mask_classes(k, n, asym)),
    )


def _edge_orbit(edge: tuple[int, ...], gens: Sequence[Perm]) -> set[tuple[int, ...]]:
    orbit, queue = {edge}, [edge]
    while queue:
        e = queue.pop()
        for g in gens:
            img = tuple(sorted(map(g.__getitem__, e)))
            if img not in orbit:
                orbit.add(img)
                queue.append(img)
    return orbit


def _scored(parent: Hypergraph) -> tuple[list[int], list[tuple], list[list[int]]]:
    """The parent's vertex degrees, `_incidence` lists and per edge its
    sorted endpoint degrees: what its children's step 1 reads."""
    inc = _incidence(parent.n, parent.edges, False)
    deg = list(map(len, inc))
    return deg, inc, [sorted(map(deg.__getitem__, e)) for e in parent.edges]


def _augmentation_accepts(parent: Hypergraph, added: tuple[int, ...],
                          scored: tuple) -> tuple[bool, Optional[_Engine]]:
    """Canonical-deletion test for the child `parent` + `added`, where
    `scored` is `_scored(parent)`: (accepted, the child's engine if the
    test built one and accepted the child, else None).

    The canonical deletion is picked in three isomorphism-invariant
    steps, each narrowing a kept set of the child's edges:
    1. the edges with the largest sorted tuple of endpoint degrees,
       re-scored only where `added` meets them, before the child is built;
    2. the edges with the largest refined colour of the child's engine
       (`base[1]`, the start of the edge's cell in the equitable partition
       that refinement reaches by isomorphism-invariant steps);
    3. the edge with the largest image under the canonical labelling,
       run only when the kept edges, a union of orbits of the child's
       group, span several: labellings that differ by an automorphism
       pick edges of one orbit.
    The child is rejected as soon as `added` leaves the kept set and
    accepted as soon as it is the only edge left; after step 3 it must
    lie in the automorphism orbit of the chosen edge (McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 1998).
    """
    deg, inc, scores = scored
    edges, last = parent.edges + (added,), parent.m
    child_deg = deg[:]
    for v in added:
        child_deg[v] += 1
    scores = scores + [sorted(map(child_deg.__getitem__, added))]
    for v in added:
        for i in inc[v]:
            scores[i] = sorted(map(child_deg.__getitem__, edges[i]))
    kept = _best(range(len(edges)), scores)
    if kept[-1] != last or len(kept) == 1:
        return kept == [last], None
    engine = structure_engine(parent.n, edges, False)
    kept = _best(kept, engine.base[1])
    if kept[-1] != last or len(kept) == 1:
        accepted = kept == [last]
    else:
        orbit, kept = _edge_orbit(added, engine.generators()), [edges[i] for i in kept]
        accepted = orbit.issuperset(kept)
        if not accepted:  # a tie across orbits: the edge the labelling maps highest
            _, sigma = engine.canonical()
            accepted = max(kept, key=lambda e: sorted(map(sigma.__getitem__, e))) in orbit
    return accepted, engine if accepted else None


def _best(kept: Iterable[int], scores: Sequence) -> list[int]:
    """The indices in `kept`, ascending, whose score is the largest."""
    top = max(scores[i] for i in kept)
    return [i for i in kept if scores[i] == top]


def _walked(h: Hypergraph, engine: Optional[_Engine]) -> tuple[Hypergraph, list[Perm]]:
    """h, its asymmetry recorded, with the generators of a walk to its end on `engine` or a new one."""
    gens = (structure_engine(h.n, h.edges, False) if engine is None else engine).generators()
    return _record_asymmetry(h, not gens), gens


def classes_by_edge_count(
    n: int, k: int, max_edges: Optional[int] = None
) -> Iterator[tuple[int, list[Hypergraph]]]:
    """Canonical augmentation: yields (edge count, class representatives)
    for m = 0, 1, 2, ... in turn.

    Independent of the labeled-scan strategy and free of its bitmask
    guard; levels grow one edge at a time, so the caller bounds the
    work by stopping the iteration.  Levels 0..C/2, C = C(n, k), are
    grown; each level m above is the complements, within the k-subsets,
    of level C - m in its order.  That is exact: complementing commutes
    with relabelling, so it maps the classes with C - m edges one-to-one
    onto those with m, keeping each automorphism group.  Every class
    carries `is_asymmetric`'s verdict: each grown class is walked to its
    end, on the engine its acceptance test built if any, and its
    generators are empty exactly when its group is trivial.
    """
    _edge_size(k)
    all_edges = list(combinations(range(n), k))
    c = len(all_edges)
    top = c if max_edges is None else min(max(max_edges, 0), c)
    half = min(top, c // 2)
    # Each class with its generators; any generating set gives the same edge orbits.
    current = [_walked(Hypergraph(n, (), k=k), None)]
    kept: dict[int, list[Hypergraph]] = {}  # levels C - top..C - half - 1, to complement
    for m in range(half + 1):
        reps = [h for h, _ in current]
        if c - top <= m < c - half:
            kept[m] = reps
        yield m, reps
        if m == half:
            break
        grown: list[tuple[Hypergraph, list[Perm]]] = []
        for parent, gens in current:
            scored = _scored(parent)
            visited = set(parent.edges)  # the group keeps the non-edges, so skip the edges
            for cand in all_edges:
                if cand in visited:
                    continue
                visited |= _edge_orbit(cand, gens)
                accepted, engine = _augmentation_accepts(parent, cand, scored)
                if accepted:  # sorted, distinct, in-range k-subsets need no checks
                    grown.append(_walked(_unchecked(n, tuple(sorted(parent.edges + (cand,))), k), engine))
        current = grown
    for m in range(half + 1, top + 1):  # a complement keeps its class's group, so its verdict
        yield m, [_record_asymmetry(_unchecked(n, tuple(filterfalse(set(h.edges).__contains__, all_edges)),
                                               k), _recorded_asymmetry(h)) for h in kept.pop(c - m)]


def find_minimal_asymmetric(k: int, n: int) -> list[Hypergraph]:
    """The witnesses of `scan_classes` with every non-trivial induced
    subgraph symmetric."""
    return [h for h in scan_classes(k, n).witnesses if verify_minimal_asymmetric(h).holds]
