"""Reference computations for the benchmark's correctness checks.

Everything here is computed apart from the package under test: this
module imports numpy and the standard library only, never `minasym`.

- Class counts come from Pólya's enumeration over cycle types of S_n.
- Stabiliser orders come from applying every vertex permutation to an
  edge bitmask (brute force, n <= 8).
- Asymmetric labelled structures are found by a sieve: a mask has a
  non-trivial stabiliser exactly when some permutation of prime order
  fixes it (Cauchy), and one generator per cyclic subgroup suffices.
- Certificates are re-derived by a vectorised twin-swap sieve, with a
  small backtracking search for the few subsets no swap settles.
- Group orders come from closed formulas for the named families.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from typing import Optional, Sequence

import numpy as np

# Published counts (OEIS), used as a second reference next to Pólya.
A000088_GRAPHS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
A003400_ASYMMETRIC_GRAPHS = {0: 1, 1: 1, 2: 0, 3: 0, 4: 0, 5: 0, 6: 8, 7: 152}
A000665_3GRAPHS = {3: 2, 4: 5, 5: 34, 6: 2136}
# Least order of an asymmetric k-graph with at least two vertices.
PUBLISHED_MIN_ORDER = {1: 2, 2: 6, 3: 6, 4: 6}


# -- permutations and the induced action on k-subsets -------------------


def edge_space(n: int, k: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(n), k))


def edges_to_mask(edges, index) -> int:
    mask = 0
    for e in edges:
        mask |= 1 << index[tuple(sorted(e))]
    return mask


def perm_cycles(p: Sequence[int]) -> list[list[int]]:
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if not seen[i]:
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = p[j]
            out.append(cyc)
    return out


def _edge_cycle_masks(p: Sequence[int], space, index) -> list[int]:
    """Cycles of the action of p on k-subsets, each as an edge bitmask."""
    seen = set()
    out = []
    for e in space:
        if e in seen:
            continue
        mask = 0
        f = e
        while f not in seen:
            seen.add(f)
            mask |= 1 << index[f]
            f = tuple(sorted(p[v] for v in f))
        out.append(mask)
    return out


def _partitions(n: int, largest: Optional[int] = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def polya_counts(n: int, k: int) -> list[int]:
    """Isomorphism classes of k-graphs on n vertices by edge count,
    from the cycle index of S_n acting on k-subsets."""
    space = edge_space(n, k)
    index = {e: i for i, e in enumerate(space)}
    total = [0] * (len(space) + 1)
    for part in _partitions(n):
        mult = Counter(part)
        size = math.factorial(n)
        for length, times in mult.items():
            size //= length**times * math.factorial(times)
        perm = []
        start = 0
        for length in part:
            perm += [start + (i + 1) % length for i in range(length)]
            start += length
        poly = [1]
        for cyc in _edge_cycle_masks(perm, space, index):
            length = bin(cyc).count("1")
            nxt = poly + [0] * length
            for d, c in enumerate(poly):
                nxt[d + length] += c
            poly = nxt
        for d, c in enumerate(poly):
            total[d] += size * c
    fact = math.factorial(n)
    if any(c % fact for c in total):
        raise ArithmeticError("Pólya sum not divisible by n!")
    return [c // fact for c in total]


class PermAction:
    """All n! vertex permutations acting on k-subset bitmasks (n <= 8)."""

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        self.space = edge_space(n, k)
        if n > 8 or len(self.space) > 62:
            raise ValueError("brute-force action limited to n <= 8 and 62 edges")
        self.index = {e: i for i, e in enumerate(self.space)}
        rows = []
        for p in itertools.permutations(range(n)):
            rows.append(
                [1 << self.index[tuple(sorted(p[v] for v in e))] for e in self.space]
            )
        self.images_of_bit = np.array(rows, dtype=np.int64).reshape(
            -1, len(self.space)
        )

    def mask(self, edges) -> int:
        return edges_to_mask(edges, self.index)

    def images(self, mask: int) -> np.ndarray:
        bits = [i for i in range(len(self.space)) if mask >> i & 1]
        return self.images_of_bit[:, bits].sum(axis=1, dtype=np.int64)

    def stabiliser_order(self, mask: int) -> int:
        return int(np.count_nonzero(self.images(mask) == mask))

    def orbit_min(self, mask: int) -> int:
        return int(self.images(mask).min()) if mask else 0


def _prime_order_generators(n: int) -> list[tuple[int, ...]]:
    """One generator of each cyclic subgroup of prime order in S_n."""
    out = []
    for p in itertools.permutations(range(n)):
        lengths = {len(c) for c in perm_cycles(p)} - {1}
        if len(lengths) != 1:
            continue
        q = lengths.pop()
        if any(q % d == 0 for d in range(2, q)):
            continue
        powers = [p]
        for _ in range(q - 2):
            powers.append(tuple(p[x] for x in powers[-1]))
        if p == min(powers):
            out.append(p)
    return out


@functools.lru_cache(maxsize=None)
def asymmetric_labelled(n: int, k: int) -> np.ndarray:
    """Boolean array over all 2^C(n,k) masks: True where only the
    identity permutation fixes the mask."""
    space = edge_space(n, k)
    index = {e: i for i, e in enumerate(space)}
    symmetric = np.zeros(1 << len(space), dtype=bool)
    for p in _prime_order_generators(n):
        fixed = np.zeros(1, dtype=np.int64)
        for cyc in _edge_cycle_masks(p, space, index):
            fixed = np.concatenate([fixed, fixed | cyc])
        symmetric[fixed] = True
    return ~symmetric


def asymmetric_class_counts(n: int, k: int) -> list[int]:
    """Asymmetric classes by edge count: each has exactly n! labellings."""
    asym = np.flatnonzero(asymmetric_labelled(n, k)).astype(np.int64)
    per_size = np.bincount(np.bitwise_count(asym), minlength=math.comb(n, k) + 1)
    fact = math.factorial(n)
    if np.any(per_size % fact):
        raise ArithmeticError("asymmetric labellings not a multiple of n!")
    return [int(c) // fact for c in per_size]


def least_asymmetric_order(k: int, n_max: int) -> Optional[int]:
    for n in range(2, n_max + 1):
        if asymmetric_labelled(n, k).any():
            return n
    return None


# -- group orders by formula ---------------------------------------------


def formula_order(desc: dict) -> int:
    """Automorphism group order of a named structure, by formula."""
    kind = desc["kind"]
    f = math.factorial
    if kind in ("empty", "complete"):
        return f(desc["n"])
    if kind == "hypercube":
        d = desc["d"]
        return 2**d * f(d)
    if kind == "cycle":
        return 2 * desc["n"]
    if kind == "cycles":  # c disjoint copies of C_n
        c, n = desc["c"], desc["n"]
        return (2 * n) ** c * f(c)
    if kind == "biclique":
        return 2 * f(desc["a"]) ** 2
    if kind == "prism":  # C_n x K_2, n >= 5 gives 4n; n = 3 gives 12
        return 4 * desc["n"] if desc["n"] != 4 else 48
    if kind == "petersen":
        return 120
    if kind == "disjoint-edges":
        k, c = desc["k"], desc["c"]
        return f(k) ** c * f(c)
    if kind == "complete-k":
        return f(desc["n"])
    if kind == "ring3":  # gen_gkt(3, t): a 3t-cycle with a pendant per edge
        return 6 * desc["t"]
    if kind == "interval":  # gen_gk(k): the end-to-end reflection
        return 2
    if kind in ("layered", "widened-ring"):  # gen_gks, gen_hcirc: asymmetric
        return 1
    raise ValueError(f"no formula for {kind!r}")


# -- independent automorphism search -------------------------------------


def _image(e, g, ordered):
    img = tuple(g[v] for v in e)
    return img if ordered else tuple(sorted(img))


def _refined_colours(n, edges, ordered) -> list[int]:
    colours = [0] * n
    inc = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        for pos, v in enumerate(e):
            inc[v].append((ei, pos if ordered else 0))
    while True:
        ecol = [tuple(colours[v] for v in e) for e in edges]
        if not ordered:
            ecol = [tuple(sorted(c)) for c in ecol]
        sig = [
            (colours[v], tuple(sorted((ecol[ei], pos) for ei, pos in inc[v])))
            for v in range(n)
        ]
        ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ranks[s] for s in sig]
        if len(ranks) == len(set(colours)):
            return new
        colours = new


def find_automorphism(
    n: int, edges, ordered: bool = False, involution: bool = False
) -> Optional[tuple[int, ...]]:
    """A non-identity automorphism (an involution if asked), or None.

    Plain backtracking over colour classes of a simple refinement,
    vertices taken in breadth-first order so that edges close early.
    """
    edges = [tuple(e) if ordered else tuple(sorted(e)) for e in edges]
    edge_set = set(edges)
    colours = _refined_colours(n, edges, ordered)
    cls: dict[int, list[int]] = {}
    for v in range(n):
        cls.setdefault(colours[v], []).append(v)
    inc = [[] for _ in range(n)]
    for e in edges:
        for v in set(e):
            inc[v].append(e)
    order: list[int] = []
    placed = set()
    for root in sorted(range(n), key=lambda v: (len(cls[colours[v]]), v)):
        if root in placed:
            continue
        queue = [root]
        placed.add(root)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for e in inc[v]:
                for u in e:
                    if u not in placed:
                        placed.add(u)
                        queue.append(u)
    g = [-1] * n
    used = [False] * n

    def consistent(v) -> bool:
        for e in inc[v]:
            if all(g[u] >= 0 for u in e) and _image(e, g, ordered) not in edge_set:
                return False
        return True

    def assign(v, w) -> list[int]:
        """Set g(v)=w (and g(w)=v for involutions); return vertices set,
        or None when that contradicts what is already set."""
        done = []
        for a, b in ((v, w), (w, v)) if involution else ((v, w),):
            if g[a] == b:
                continue
            if g[a] >= 0 or used[b] or colours[a] != colours[b]:
                for x in done:
                    used[g[x]] = False
                    g[x] = -1
                return None
            g[a] = b
            used[b] = True
            done.append(a)
        for x in done:
            if not consistent(x):
                for y in done:
                    used[g[y]] = False
                    g[y] = -1
                return None
        return done

    def rec(i: int, moved: bool):
        while i < n and g[order[i]] >= 0:
            i += 1
        if i == n:
            return tuple(g) if moved else None
        v = order[i]
        for w in sorted(cls[colours[v]], key=lambda u: u == v):
            done = assign(v, w)
            if done is None:
                continue
            found = rec(i + 1, moved or w != v)
            if found is not None:
                return found
            for x in done:
                used[g[x]] = False
                g[x] = -1
        return None

    return rec(0, False)


def is_automorphism(n: int, edges, g, ordered: bool = False) -> bool:
    if sorted(g) != list(range(n)):
        return False
    norm = [tuple(e) if ordered else tuple(sorted(e)) for e in edges]
    return {_image(e, g, ordered) for e in norm} == set(norm)


# -- certificates re-derived ---------------------------------------------


def _incidence(n, edges) -> np.ndarray:
    inc = np.zeros(n, dtype=np.int64)
    for i, e in enumerate(edges):
        for v in e:
            inc[v] |= 1 << i
    return inc


def _subgraph(n, edges, verts, edge_ids):
    pos = {v: i for i, v in enumerate(verts)}
    return len(verts), [tuple(pos[v] for v in edges[i]) for i in edge_ids]


def edge_subset_violations(n: int, edges, involution: bool) -> list[int]:
    """Edge subsets whose support X has 1 < |X| < n and whose spanned
    sub-hypergraph on X has no non-identity automorphism (no involution
    when `involution`).  Empty exactly when the certificate holds."""
    m = len(edges)
    masks = np.arange(1, 1 << m, dtype=np.int64)
    restricted = masks[:, None] & _incidence(n, edges)[None, :]
    support = np.count_nonzero(restricted, axis=1)
    ranked = np.sort(restricted, axis=1)
    twin = ((ranked[:, 1:] == ranked[:, :-1]) & (ranked[:, 1:] != 0)).any(axis=1)
    in_scope = (support > 1) & (support < n)
    bad = []
    for mask in masks[in_scope & ~twin].tolist():
        picked = [i for i in range(m) if mask >> i & 1]
        verts = sorted({v for i in picked for v in edges[i]})
        sn, sedges = _subgraph(n, edges, verts, picked)
        if find_automorphism(sn, sedges, involution=involution) is None:
            bad.append(mask)
    return bad


def _pair_swaps_unordered(n, edges, sets):
    """For each vertex subset (bitmask), is there a swap of two members
    with equal incidence inside the induced sub-hypergraph?"""
    emask = [sum(1 << v for v in e) for e in edges]
    inside = np.zeros(sets.size, dtype=np.int64)
    for i, em in enumerate(emask):
        inside |= ((sets & em) == em).astype(np.int64) << i
    inc = _incidence(n, edges)
    twin = np.zeros(sets.size, dtype=bool)
    member = [((sets >> v) & 1).astype(bool) for v in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            twin |= member[u] & member[v] & ((inside & inc[u]) == (inside & inc[v]))
    return twin


def _pair_swaps_ordered(n, tuples, sets):
    """Same question for ordered tuples: the transposition (u v) must map
    the tuples inside the subset onto tuples inside the subset."""
    m = len(tuples)
    index = {t: i for i, t in enumerate(tuples)}
    tmask = [sum(1 << v for v in set(t)) for t in tuples]
    inside = np.zeros(sets.size, dtype=np.int64)
    for i, tm in enumerate(tmask):
        inside |= ((sets & tm) == tm).astype(np.int64) << i
    twin = np.zeros(sets.size, dtype=bool)
    lo_bits = min(m, 12)
    for u in range(n):
        for v in range(u + 1, n):
            swap = list(range(n))
            swap[u], swap[v] = v, u
            img = [index.get(tuple(swap[x] for x in t), -1) for t in tuples]
            broken = sum(1 << i for i, j in enumerate(img) if j < 0)
            table_lo = np.zeros(1 << lo_bits, dtype=np.int64)
            table_hi = np.zeros(1 << (m - lo_bits), dtype=np.int64)
            for i, j in enumerate(img):
                if j < 0:
                    continue
                if i < lo_bits:
                    sel = (np.arange(table_lo.size) >> i) & 1
                    table_lo[sel.astype(bool)] |= 1 << j
                else:
                    sel = (np.arange(table_hi.size) >> (i - lo_bits)) & 1
                    table_hi[sel.astype(bool)] |= 1 << j
            mapped = table_lo[inside & ((1 << lo_bits) - 1)] | table_hi[inside >> lo_bits]
            both = ((sets >> u) & 1).astype(bool) & ((sets >> v) & 1).astype(bool)
            twin |= both & ((inside & broken) == 0) & (mapped == inside)
    return twin


def induced_subset_violations(n: int, edges, ordered: bool) -> list[int]:
    """Vertex subsets S with 1 < |S| < n whose induced substructure has
    no non-identity automorphism.  Empty exactly when the certificate
    holds."""
    sets = np.arange(1 << n, dtype=np.int64)
    sizes = np.bitwise_count(sets)
    sets = sets[(sizes > 1) & (sizes < n)]
    if ordered:
        twin = _pair_swaps_ordered(n, [tuple(t) for t in edges], sets)
    else:
        twin = _pair_swaps_unordered(n, edges, sets)
    bad = []
    for s in sets[~twin].tolist():
        verts = [v for v in range(n) if s >> v & 1]
        keep = set(verts)
        picked = [i for i, e in enumerate(edges) if keep.issuperset(e)]
        sn, sedges = _subgraph(n, edges, verts, picked)
        if find_automorphism(sn, sedges, ordered=ordered) is None:
            bad.append(s)
    return bad
