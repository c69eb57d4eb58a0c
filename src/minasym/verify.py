"""Minimality verifiers for asymmetric hypergraphs and relations.

Every verifier is one scan over the bitmasks of a raw `(n, edges,
ordered)` structure.  A row of `_KINDS` says whether a mask picks edges
or vertices, which picked sub-structures are in scope, and what each of
those must have: any non-identity automorphism, or an involution.

Edge-subset scans use the isolated-vertex reduction: appending two or
more isolated vertices always yields a swap, and appending exactly one
changes nothing (it is fixed by every automorphism), so an edge subset
stands for all its vertex extensions and only its support matters.
Vertex-subset scans pick induced sub-structures.  A mask's pick is its
edges as bits of int64 words.  Support vertices u, v are twins in a pick
that misses inc[u] ^ inc[v] and meets inc[u] & inc[v]; twins swap, and
masks whose pick no twin or transposition fixes reach the engine.  Scans
run in this process (`workers` is accepted and ignored), and only their
functions import numpy: sampled and asymmetry checks never load it.
"""

from __future__ import annotations

import random
import time
from typing import Callable, NamedTuple, Optional

from .autom import _incidence, _involution, _nonidentity, find_nonidentity_automorphism
from .errors import ResourceGuardError
from .hypergraph import Hypergraph, _restrict, to_hgf
from .report import VerificationReport, perm_line

_EXHAUSTIVE_EDGE_LIMIT = 20
_WORD = 62  # edge bits per int64 word of a scan row
_BLOCK = 1 << 16  # cells of a scan block's temporaries, and the most picks tabled at once


class _Kind(NamedTuple):
    induced: bool  # masks pick vertices (induced sub-structures), else edges
    spanning: bool  # besides supports on 1 < n' < n, proper ones on all n are in scope
    involution: bool  # in scope, an involution is required, else any symmetry


_KINDS = {
    "strong": _Kind(induced=False, spanning=False, involution=False),
    "invfree": _Kind(induced=False, spanning=True, involution=True),
    "invfree-nontrivial": _Kind(induced=False, spanning=False, involution=True),
    "induced": _Kind(induced=True, spanning=False, involution=False),
}


def _bits(mask: int, width: int) -> list[int]:
    return [i for i in range(width) if mask >> i & 1]


class _Subsets:
    """The sub-structures of one raw structure, picked by bitmasks."""

    def __init__(self, n: int, edges, ordered: bool, kind: str):
        self.n, self.edges, self.ordered, self.kind = n, tuple(edges), ordered, _KINDS[kind]
        self.bits = n if self.kind.induced else len(self.edges)
        self.full = (1 << self.bits) - 1
        self.edge_bits = [sum(1 << v for v in set(e)) for e in self.edges]
        self.symmetry = _involution if self.kind.involution else _nonidentity

    def pick(self, mask: int) -> tuple[int, list]:
        """Vertex mask and edges of the sub-structure, before reindexing."""
        if self.kind.induced:
            return mask, [e for e, b in zip(self.edges, self.edge_bits) if b & mask == b]
        picked = _bits(mask, self.bits)
        vmask = 0
        for i in picked:
            vmask |= self.edge_bits[i]
        return vmask, [self.edges[i] for i in picked]

    def sub(self, vmask: int, edges: list) -> tuple[list[int], int, list]:
        """Original vertices, then the reindexed (n, edges) of a pick."""
        verts = _bits(vmask, self.n)
        return (verts, *_restrict(self.n, edges, verts))

    def test(self, mask: int) -> Optional[bool]:
        """None when the mask is out of scope, else whether its
        sub-structure lacks the symmetry the kind requires."""
        vmask, edges = self.pick(mask)
        if not self.in_scope(vmask.bit_count(), mask):
            return None
        _, n, sub_edges = self.sub(vmask, edges)
        return self.symmetry(n, sub_edges, self.ordered) is None

    def in_scope(self, size, mask):
        """Whether the pick of a mask with `size` chosen vertices is in
        scope; on ints or, elementwise, on arrays."""
        return (size >= 2) & ((size < self.n) | (self.kind.spanning & (mask != self.full)))

    def incidence(self) -> np.ndarray:
        """Per vertex, its incident edges as bits of int64 words, `_WORD`
        edges to a word."""
        import numpy as np
        inc = np.zeros((self.n, max(1, -(-len(self.edges) // _WORD))), dtype=np.int64)
        for i, e in enumerate(self.edges):
            inc[list(set(e)), i // _WORD] |= 1 << i % _WORD
        return inc


def _twin_pairs(inc: np.ndarray, ordered: bool) -> list[np.ndarray]:
    """Rows D = inc[u] ^ inc[v] and C = inc[u] & inc[v] of the vertex pairs
    that share an edge, each (D, C) once, fewest bits of D (most twins)
    first; none when `ordered`, as each tuple slot holds one point."""
    import numpy as np
    verts = np.flatnonzero(inc.any(axis=1))
    u, v = verts[np.array(np.triu_indices(0 if ordered else len(verts), 1))]
    shared = inc[u] & inc[v]
    rows = np.concatenate([inc[u] ^ inc[v], shared], axis=1)[shared.any(axis=1)]
    rows = rows[np.lexsort([*rows.T, np.bitwise_count(rows[:, : inc.shape[1]]).sum(axis=1)])]
    return np.split(rows[np.diff(rows, axis=0, prepend=~rows[:1]).any(axis=1)], 2, axis=1)


def _support_twins(picks: np.ndarray, inc: np.ndarray, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Per set of picked edges (a row of int64 words): its support size,
    and whether it has support twins u, v (equal `picks & inc[v]` rows):
    whether it misses D and meets C of a `_twin_pairs` row.  Rows go one
    at a time while twin-free picks × rows left exceed `_BLOCK`."""
    import numpy as np
    support = sum(((picks & row).any(axis=1) for row in inc), np.zeros(len(picks), dtype=np.int32))
    (d, c), left, i = pairs, np.arange(len(picks), dtype=np.int32), 0  # picks without twins so far
    while i < len(d):
        j = slice(i, i + 1 if left.size * (len(d) - i) > _BLOCK else len(d))  # rows tested now
        rows, i = picks[left, None], j.stop
        left = left[((rows & d[j]).any(axis=2) | ~(rows & c[j]).any(axis=2)).all(axis=1)]
    return support, np.bincount(left, minlength=len(picks)) == 0


def _edge_blocks(subsets: _Subsets):
    """Edge masks from 1, each its own pick: masks, sizes, twins, picks, in
    blocks of `_BLOCK` // 4, as the twin test holds about four words a pick."""
    import numpy as np
    inc, step = subsets.incidence(), _BLOCK // 4
    pairs = _twin_pairs(inc, subsets.ordered)
    for lo in range(1, subsets.full + 1, step):
        picks = np.arange(lo, min(lo + step, subsets.full + 1), dtype=np.int64)[:, None]
        yield (picks[:, 0], *_support_twins(picks, inc, pairs), picks)


def _picked_table(inc: np.ndarray, verts: range) -> np.ndarray:
    """Per bitmask x over `verts` (bit i for verts[i]), the edges none
    of whose vertices in `verts` lies outside x, in int64 words."""
    import numpy as np
    table = np.bitwise_or.reduce(inc, axis=0, keepdims=True)
    for v in verts:  # masks with v's bit set form the upper half
        table = np.concatenate([table & ~inc[v], table])
    return table


def _vertex_blocks(subsets: _Subsets):
    """Vertex masks from 0 in aligned blocks of 2^lo: masks, sizes, twins, picks.

    A vertex mask S picks the edges inside it, one AND of two split
    tables: low[S mod 2^lo] & high[S >> lo].  Its twins are two chosen
    vertices outside the pick's support, or support twins of the pick.
    Blocks repeat few picks, so with 2^m <= `_BLOCK` edge masks the twin
    test tables every one and blocks index it by pick, else it runs per
    distinct pick of a block.  Tables and block temporaries hold at most
    `_BLOCK` elements, the high table 2^(n - lo) rows.
    """
    import numpy as np
    inc = subsets.incidence()
    (n, words), m = inc.shape, len(subsets.edges)
    lo = min(n, (_BLOCK // (n * words or 1)).bit_length() - 1)
    low, high = _picked_table(inc, range(lo)), _picked_table(inc, range(lo, n))
    low_size = np.bitwise_count(np.arange(1 << lo, dtype=np.int64))
    pairs = _twin_pairs(inc, subsets.ordered)
    table = _support_twins(np.arange(1 << m)[:, None], inc, pairs) if 1 << m <= _BLOCK else None
    for hi in range(len(high)):
        picks = high[hi] & low
        uniq, at = (None, picks[:, 0]) if table else np.unique(picks, axis=0, return_inverse=True)
        support, twins = table or _support_twins(uniq, inc, pairs)
        size = low_size + hi.bit_count()
        twins = (size - support[at] >= 2) | twins[at]
        yield np.arange(hi << lo, (hi + 1) << lo, dtype=np.int64), size, twins, picks


def _swap_candidates(picks: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """Per pair of the vertices that lie in edges, whether their swap may
    fix a pick: a fixing swap (a b) maps the picked edges at a onto those
    at b, with a in the support.  Chunks of `_BLOCK` pick × pair cells."""
    import numpy as np
    inc = inc[inc.any(axis=1)]
    found, step = np.zeros((len(inc),) * 2, dtype=bool), max(1, _BLOCK // (len(inc) ** 2 or 1))
    for lo in range(0, len(picks), step):
        degree = np.bitwise_count(picks[lo : lo + step, None, :] & inc).sum(axis=2)
        found |= ((degree[:, :, None] == degree[:, None, :]) & (degree[:, :, None] > 0)).any(axis=0)
    return found


def _swap_tables(n: int, edges, ordered: bool, keep=None) -> tuple[np.ndarray, ...]:
    """Per transposition (a b) of two vertices that lie in edges, the
    i-th and j-th such with keep[i, j] if given: three rows over the
    edges meeting a, then b, padded with the never-picked index m:
    those edges, their images under the swap (m for no edge), and
    whether each contains a.  Tuples swap position by position, and
    unordered edges are sorted after the swap.  Images are found by
    sorting all rows together and numbering the runs of equal rows.
    """
    import numpy as np
    m, dtype = len(edges), np.min_scalar_type(n)
    rows = np.full((m + 1, max([1, *map(len, edges)])), n, dtype=dtype)  # n pads, sorts last
    for i, e in enumerate(edges):
        rows[i, : len(e)] = e
    around = _incidence(n, edges, False)  # a point a tuple repeats lists it twice
    verts = [v for v in range(n) if around[v]]
    meets = np.full((len(verts), max(map(len, around), default=0)), m)
    for row, v in zip(meets, verts):
        row[: len(around[v])] = around[v]
    first, second = np.nonzero(np.triu(np.ones((len(verts),) * 2) if keep is None else keep, 1))
    src = np.concatenate([meets[first], meets[second]], axis=1)
    a, b = (np.array(verts, dtype=dtype)[side, None, None] for side in (first, second))
    image = rows[src]
    has_a = (image == a).any(axis=2)
    image = np.where(image == a, b, np.where(image == b, a, image))
    if not ordered:
        image.sort(axis=2)
    both = np.concatenate([rows[:m], image.reshape(-1, rows.shape[1])])
    order = np.lexsort(both.T)
    ranked = both[order]
    new = np.ones(len(both), dtype=bool)  # first of a run of equal rows
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    run = np.empty(len(both), dtype=np.intp)
    run[order] = np.cumsum(new) - 1
    edge_of = np.full(len(both), m)
    edge_of[run[:m]] = np.arange(m)
    return src, edge_of[run[m:]].reshape(src.shape), has_a


def _swap_fixed(tables, m: int, picks: np.ndarray) -> np.ndarray:
    """Per pick, edge i of m at bit i % `_WORD` of word i // `_WORD`:
    whether some swap (a b) of `_swap_tables` maps every picked edge to
    a picked edge, with a in the pick's support.  Such a swap is an
    involution of the picked sub-structure; without a in the support it
    would fix any pick.  Index m reads the sign bit, which no pick sets.
    Picks go in chunks of at most `_BLOCK` pick × swap × edge cells."""
    import numpy as np
    src, img, has_a = tables
    word, bit = np.divmod(np.arange(m), _WORD)
    word, bit = np.append(word, 0), np.append(bit, 63)
    fixed = np.zeros(len(picks), dtype=bool)
    step = max(1, _BLOCK // (src.size or 1))
    for lo in range(0, len(picks), step):
        picked = (picks[lo : lo + step, word] >> bit & 1).astype(bool)
        hit = picked[:, src]
        kept = ~(hit & ~picked[:, img]).any(axis=2)
        fixed[lo : lo + step] = ((hit & has_a).any(axis=2) & kept).any(axis=1)
    return fixed


def _scan(subsets: _Subsets) -> tuple[Optional[int], int]:
    """First violating mask in ascending order, and the masks checked.

    Every non-empty edge subset counts as checked (2^m - 1 in all), as
    it stands for its vertex extensions; vertex subsets count only in
    scope (2^n - n - 2 in all).  Blocks of masks come with each mask's
    chosen-vertex count, twin verdict and pick; twins swap.  In-scope
    masks without twins next meet `_swap_fixed` over the swaps that may
    fix one of them, and only those no swap fixes reach `subsets.test`.
    A swap is an involution too, so no skipped mask is a violation.
    """
    import numpy as np
    n, m, kind = subsets.n, len(subsets.edges), subsets.kind
    if not kind.induced and m > _WORD:
        raise ResourceGuardError(f"exhaustive scan over 2^{m} edge subsets refused")
    checked, inc, keep = 0, subsets.incidence(), None
    for masks, size, twins, picks in (_vertex_blocks if kind.induced else _edge_blocks)(subsets):
        in_scope = subsets.in_scope(size, masks)
        counted = in_scope | (not kind.induced)
        survivors = np.flatnonzero(in_scope & ~twins)
        if survivors.size:
            need = _swap_candidates(picks[survivors], inc)
            new = need if keep is None else need & ~keep  # swaps the tables lack
            if keep is None or new.any():  # their rows are appended
                more = _swap_tables(n, subsets.edges, subsets.ordered, new)
                tables = more if keep is None else tuple(map(np.concatenate, zip(tables, more)))
                keep = need if keep is None else need | keep
            survivors = survivors[~_swap_fixed(tables, m, picks[survivors])]
        for i in survivors.tolist():
            if subsets.test(int(masks[i])):
                return int(masks[i]), checked + int(counted[: i + 1].sum())
        checked += int(counted.sum())
    return None, checked


def _sample(
    subsets: _Subsets, samples: int, seed: int, stratified: bool
) -> tuple[Optional[int], int]:
    """First violating mask among `samples` seeded draws in scope, plus
    the number of draws checked; out-of-scope draws are redrawn.  Past
    the self-check, a scan of fewer than two bits has no pick in scope."""
    rng = random.Random(seed)
    checked = misses = 0
    while checked < samples:
        if subsets.bits < 2 or misses > 10000 + 10 * samples:
            raise ValueError("cannot draw valid subgraph samples")
        if stratified:
            picked = rng.sample(range(subsets.bits), rng.randrange(1, subsets.bits))
            mask = sum(1 << i for i in picked)
        else:
            mask = rng.getrandbits(subsets.bits)
        bad = subsets.test(mask)
        if bad is None:
            misses += 1
            continue
        checked += 1
        if bad:
            return mask, checked
    return None, checked


def _shrink(subsets: _Subsets, mask: int) -> int:
    """Greedily drop bits while the violation persists.  An exhaustive
    ascending scan already checked every sub-mask of its first
    violation, so only sampled violations can shrink."""
    improved = True
    while improved:
        improved = False
        for i in _bits(mask, subsets.bits):
            candidate = mask & ~(1 << i)
            if subsets.test(candidate):
                mask = candidate
                improved = True
    return mask


def _verify(
    property_name: str,
    n: int,
    edges,
    ordered: bool,
    kind: str,
    render: Callable[[int, list], str],
    mode: str = "exhaustive",
    samples: int = 0,
    seed: Optional[int] = None,
    stratified: bool = False,
) -> VerificationReport:
    """Self-check the whole structure, then scan its sub-structures;
    `render(n, edges)` serializes a structure for the witness."""
    start = time.perf_counter()
    subsets = _Subsets(n, edges, ordered, kind)
    if subsets.kind.induced and n > _EXHAUSTIVE_EDGE_LIMIT:
        raise ResourceGuardError(f"induced-subgraph scan over 2^{n} vertex subsets refused")
    if mode == "auto":
        mode = "exhaustive" if subsets.bits <= _EXHAUSTIVE_EDGE_LIMIT else "sampled"
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and seed is None:
        raise ValueError("sampled mode needs a seed")
    if mode == "sampled" and samples < 1:
        raise ValueError(f"sampled mode needs at least one sample, got {samples}")
    used_seed = seed if mode == "sampled" else 0

    def finish(holds, checked, witness=""):
        elapsed = int((time.perf_counter() - start) * 1000)
        return VerificationReport(property_name, holds, mode, checked, used_seed, elapsed, witness)

    bad_perm = subsets.symmetry(n, subsets.edges, ordered)
    if bad_perm is not None:
        return finish(False, 0, render(n, subsets.edges) + perm_line(bad_perm))
    if mode == "exhaustive":
        bad, checked = _scan(subsets)
    else:
        bad, checked = _sample(subsets, samples, used_seed, stratified)
        if bad is not None:
            bad = _shrink(subsets, bad)
    if bad is None:
        return finish(True, checked)
    verts, sub_n, sub_edges = subsets.sub(*subsets.pick(bad))
    lines = ["# vertices " + " ".join(map(str, verts))]
    if not subsets.kind.induced:
        lines.append("# edges " + " ".join(map(str, _bits(bad, subsets.bits))))
    return finish(False, checked, "\n".join(lines) + "\n" + render(sub_n, sub_edges))


def _verify_hypergraph(h: Hypergraph, property_name: str, kind: str, *options):
    def render(n, edges):
        return to_hgf(Hypergraph(n, edges, k=h.k))

    return _verify(property_name, h.n, h.edges, False, kind, render, *options)


def verify_asymmetric(h: Hypergraph) -> VerificationReport:
    """Report whether the hypergraph has no non-identity automorphism."""
    start = time.perf_counter()
    bad = find_nonidentity_automorphism(h)
    elapsed = int((time.perf_counter() - start) * 1000)
    witness = "" if bad is None else to_hgf(h) + perm_line(bad)
    return VerificationReport("asymmetric", bad is None, "exhaustive", 0, 0, elapsed, witness)


def verify_strongly_minimal(
    h: Hypergraph,
    mode: str = "auto",
    samples: int = 10000,
    seed: Optional[int] = None,
    workers: int = 1,
    stratified: bool = False,
) -> VerificationReport:
    """Asymmetric, and every non-trivial sub-k-graph is symmetric.

    Exhaustive mode scans all edge subsets whose support misses at
    least one vertex; spanning subsets admit no non-trivial extension
    and are skipped.  Sampled mode draws edge subsets at p=1/2 each,
    resampling invalid draws.
    """
    return _verify_hypergraph(h, "strong-minimal", "strong", mode, samples, seed, stratified)


def verify_minimal_involution_free(
    h: Hypergraph,
    mode: str = "auto",
    samples: int = 10000,
    seed: Optional[int] = None,
    workers: int = 1,
    stratified: bool = False,
    nontrivial_only: bool = False,
) -> VerificationReport:
    """No involution, while every proper sub-hypergraph on at least two
    vertices (spanning ones included) has one.

    With nontrivial_only, spanning sub-hypergraphs are exempt too: only
    those on 1 < n' < n vertices must admit an involution.
    """
    kind = "invfree-nontrivial" if nontrivial_only else "invfree"
    return _verify_hypergraph(h, "minimal-involution-free", kind, mode, samples, seed, stratified)


def verify_minimal_asymmetric(h: Hypergraph, workers: int = 1) -> VerificationReport:
    """Asymmetric, and every induced subgraph on 1 < n' < n vertices is
    symmetric.  Always exhaustive; refused beyond 20 vertices."""
    return _verify_hypergraph(h, "minimal-asymmetric", "induced")
