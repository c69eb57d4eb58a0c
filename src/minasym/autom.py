"""Automorphism machinery for hypergraphs and tuple structures.

The engine keeps the vertices and the edges as two ordered partitions,
a cell's color being its start in the order, and refines them to the
coarsest equitable partition by a queue of splitter cells (McKay and
Piperno, "Practical graph isomorphism II", 2014): a splitter re-splits
only the cells of the other side next to it.  Individualizing a vertex
splits it off a stable parent state and queues only that singleton.
The engine backtracks over individualization choices.  Candidate
bijections are only ever read off discrete colorings and are verified
edge-by-edge, so every reported automorphism is genuine regardless of
refinement power.

One walk down the identity path of the search tree finds the first
non-identity automorphism, a generating set, and the group order as the
product of the path's orbit sizes; run with leaf keeping on, it is also
the canonical labeling.  A query walks from the root until its answer
is known, and once a walk has run to its end only the canonical walk
walks again, starting from that walk's generators.  The walk keeps its
identity path, and a search that extends or retraces the path reads
those states instead of refining them again.  By Cauchy's theorem an
involution exists exactly when some orbit size on the path is even, and
below the deepest even level every involution moves that level's path
vertex, so `find_involution` searches only the swaps of that vertex.
Consecutive whole-structure queries (the group, the canonical key and
the canonical form) on equal structures share one engine per thread,
so the canonical walk runs once for both canonical queries; the
twin-first asymmetry and involution queries do not share.  Each class
augmentation yields carries the verdict `is_asymmetric` returns, read off
a walk run to its end: its generators are empty iff the group is trivial.
The deterministic Schreier-Sims stabilizer chain (`group_order`) and a
factorial brute-force oracle (n <= 9) are independent routes for
cross-checking.
"""

from __future__ import annotations

import math
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from itertools import chain, permutations
from typing import Callable, Optional, Sequence

from .errors import ResourceGuardError
from .hypergraph import Hypergraph
from .perms import Perm, compose, identity, inverse, is_identity, is_involution, order, power


@dataclass(frozen=True)
class AutomResult:
    """Automorphism group summary: generators, order, and involution data."""

    generators: tuple[Perm, ...]
    group_order: int
    is_asymmetric: bool
    has_involution: bool
    involution_witness: Optional[Perm]


class _Engine:
    """Search over color-preserving vertex bijections of one structure.

    `ordered=False` treats edges as sets (hypergraphs); `ordered=True`
    keeps positions significant (relational tuple systems).  A state is
    (vertex colors, edge colors, vertex order, edge order, vertex cell
    sizes, edge cell sizes), a size standing at its cell's start and 0
    elsewhere in the cell.
    """

    def __init__(self, n: int, edges: Sequence[tuple[int, ...]], ordered: bool,
                 pinned: Optional[frozenset[int]] = None, inc: Optional[list[tuple]] = None):
        self.n = n
        self.edges = tuple(edges)
        self.m = len(self.edges)
        self.ordered = ordered
        self.edge_set = frozenset(self.edges)
        self.inc = _incidence(n, self.edges, ordered) if inc is None else inc
        # per edge its vertices, as (vertex, position) pairs when ordered
        self.ends = tuple(tuple(zip(e, range(len(e)))) for e in edges) if ordered else self.edges
        # the base state: one edge cell, the unpinned and the pinned cell;
        # the whole vertex cell meets each edge once per endpoint, so with
        # nothing pinned and one edge size it splits nothing and is not queued
        pinned = pinned or frozenset()
        cut = n - len(pinned)
        vorder = [v for v in range(n) if v not in pinned] + sorted(pinned)
        vcol = [cut if v in pinned else 0 for v in range(n)]
        sizes, queue = ([0] * n, [0] * self.m), []
        idle = not pinned and len(set(map(len, self.edges))) < 2
        for side, start, size in ((0, 0, cut), (0, cut, n - cut), (1, 0, self.m)):
            if size:
                sizes[side][start] = size
                if side or not idle:
                    queue.append((side, start))
        state = (vcol, [0] * self.m, vorder, list(range(self.m))) + sizes
        self.base = self._refine(state, queue)
        # the last walk's generators, finished levels and path by depth,
        # whether it ran to its end, and the least leaf while canonical() keeps leaves
        self._gens: list[Perm] = []
        self._levels: list[tuple] = []
        self._path: list[tuple] = []
        self._done = False
        self._keep = False
        self._least: Optional[tuple] = None

    # -- coloring ---------------------------------------------------

    def _refine(self, state: tuple, queue: list[tuple[int, int]]) -> tuple:
        """Split the cells of `state` in place until it is equitable, and
        return it; `queue` holds the splitter cells, (0, start) for a
        vertex cell and (1, start) for an edge cell.

        A splitter splits each cell of the other side next to it by how
        often its members meet the splitter, or, when ordered, by the
        sorted positions at which they meet it; the parts go in ascending
        key order, the first keeping the cell's start.  A singleton of
        an unordered structure meets each neighbour once, so it splits a
        cell it does not wholly hit in two: the members it misses, in
        cell order, then the ones it hits, in incidence order.  A split
        cell that is queued queues its new parts; any other queues all
        but its largest, the first of equal ones, whose splits follow
        from those of the cell and the other parts (Hopcroft's rule).
        Every step reads only colors and cell sizes, so isomorphic inputs
        refine to colorings that correspond.
        """
        cols, orders, sizes = state[:2], state[2:4], state[4:]
        near = (self.inc, self.ends)
        queued = {start << 1 | side for side, start in queue}  # the cells in the queue
        for side, start in queue:  # the loop reads the entries it appends
            queued.discard(start << 1 | side)
            other = 1 - side
            col, order, size = cols[other], orders[other], sizes[other]
            count = sizes[side][start]
            single = count == 1 and not self.ordered
            if single:  # an unordered singleton meets each neighbour once
                key = near[side][orders[side][start]]
            elif self.ordered:
                meets: dict = {}
                for x in orders[side][start:start + count]:
                    for y, pos in near[side][x]:
                        meets.setdefault(y, []).append(pos)
                key, missing = {y: tuple(sorted(p)) for y, p in meets.items()}, ()
            else:
                around = map(near[side].__getitem__, orders[side][start:start + count])
                key, missing = Counter(chain.from_iterable(around)), 0
            touched: dict[int, list[int]] = {}
            for y in key:
                if size[c := col[y]] > 1:
                    touched.setdefault(c, []).append(y)
            for c in sorted(touched) if len(touched) > 1 else touched:
                hit, total = touched[c], size[c]
                if single:
                    cut = c + total - len(hit)
                    if cut > c:  # the missed members, then the hit ones
                        for y in hit:
                            col[y] = cut
                        order[c:c + total] = [y for y in order[c:c + total] if col[y] == c] + hit
                        size[c], size[cut] = cut - c, len(hit)
                        # the new part if the cell is queued, else the smaller, hit on a tie
                        new = cut if c << 1 | other in queued or cut - c >= len(hit) else c
                        queue.append((other, new))
                        queued.add(new << 1 | other)
                    continue
                if len(hit) == total and len({key[y] for y in hit}) == 1:
                    continue
                parts: dict = {}
                if len(hit) < total:
                    parts[missing] = [y for y in order[c:c + total] if y not in key]
                for y in hit:
                    parts.setdefault(key[y], []).append(y)
                groups = [parts[k] for k in sorted(parts)]
                largest = None if c << 1 | other in queued else max(groups, key=len)
                for group in groups:
                    order[c:c + len(group)] = group
                    if group is not groups[0]:
                        for y in group:
                            col[y] = c
                    size[c] = len(group)
                    if group is not largest and c << 1 | other not in queued:
                        queue.append((other, c))
                        queued.add(c << 1 | other)
                    c += len(group)
        return state

    def _individualize(self, state: tuple, v: int) -> tuple:
        """`state` with v moved to the end of its cell as a singleton, refined."""
        vcol, ecol, vorder, eorder, vsize, esize = state
        start = vcol[v]
        last = start + vsize[start] - 1
        vcol, vorder, vsize = vcol[:], vorder[:], vsize[:]
        at = vorder.index(v, start, last + 1)
        vorder[at], vorder[last] = vorder[last], v
        vsize[start] -= 1
        vsize[last] = 1
        vcol[v] = last
        return self._refine((vcol, ecol[:], vorder, eorder[:], vsize, esize[:]), [(0, last)])

    @staticmethod
    def _compatible(dom, cod) -> bool:
        return dom[4:] == cod[4:]

    def _select_cell(self, state) -> Optional[int]:
        """Start of the smallest non-singleton vertex cell, lowest first."""
        best = min(((size, c) for c, size in enumerate(state[4]) if size > 1), default=None)
        return None if best is None else best[1]

    def _extract(self, dom, cod) -> Optional[Perm]:
        """Bijection matching discrete colors; verified before acceptance."""
        perm = tuple(map(cod[2].__getitem__, dom[0]))
        if self._preserves(perm):
            return perm
        return None

    def _preserves(self, perm: Sequence[int]) -> bool:
        es = self.edge_set
        if self.ordered:
            return all(tuple(perm[v] for v in e) in es for e in self.edges)
        return all(tuple(sorted(map(perm.__getitem__, e))) in es for e in self.edges)

    # -- searches ---------------------------------------------------

    @staticmethod
    def _cell_members(state, color) -> list[int]:
        return state[2][color:color + state[4][color]]

    def _find_ext(self, dom, cod, prefix: tuple) -> Optional[Perm]:
        """First color-respecting automorphism extending dom->cod, if any.

        A cod child in the orbit of a searched one, under the generators
        that fix cod's individualized `prefix`, holds no match either.
        While `canonical()` keeps leaves, nodes that cannot extend dom->cod
        are searched on with dom None, as they may hold the least leaf.
        A dom on the walk's path that is compatible with cod selects the
        walk's cell, so its t is the walk's vertex and its child the walk's
        next path state, which is read, not refined again.
        """
        if dom is not None and not self._compatible(dom, cod):
            if not self._keep:
                return None
            dom = None
        color = self._select_cell(cod)
        if color is None:
            self._offer(cod)
            return None if dom is None else self._extract(dom, cod)
        if dom is not None:
            path = self._path[len(prefix):len(prefix) + 2]
            t = self._cell_members(dom, color)[0]
            dom = path[1] if path and path[0] is dom else self._individualize(dom, t)
        covered: set[int] = set()
        fixing = None  # the generators fixing the prefix, from the first failed child
        for v in self._cell_members(cod, color):
            if v in covered:
                continue
            found = self._find_ext(dom, self._individualize(cod, v), prefix + (v,))
            if found is not None:
                return found
            if fixing is None:
                fixing = [g for g in self._gens if all(g[p] == p for p in prefix)]
            covered |= _orbit_of(v, fixing)
        return None

    def find_nonidentity(self) -> Optional[Perm]:
        """First automorphism the identity-path walk finds, if any."""
        self._run(lambda: bool(self._gens))
        return self._gens[0] if self._gens else None

    def generators(self) -> list[Perm]:
        """Generating set of the full color-preserving automorphism group,
        from the identity-path walk run to its end."""
        self._run(lambda: False)
        return list(self._gens)

    def order(self) -> int:
        """Group order: the product of the walk's orbit sizes."""
        self._run(lambda: False)
        return math.prod(level[0] for level in self._levels)

    def _run(self, stop: Callable[[], object], seed: Optional[list[Perm]] = None) -> None:
        """Walk from the base until `stop()` holds, unless it holds already
        or a walk has run to its end.  A walk seeded with a finished walk's
        generators starts from them and retraces that walk's kept path."""
        if not (self._done or stop()):
            self._gens, self._levels = list(seed or ()), []
            self._path = [self.base] if seed is None else self._path
            self._done = not self._recurse(self._walk, self.base, (), stop)

    def _recurse(self, search: Callable, *args):
        """`search(*args)`, one of the recursive searches, whose depth
        grows with n: a tree deeper than the recursion limit is refused,
        before any search when s vertices of one incidence list and base
        colour, which refinement never splits, put s - 1 levels on the path
        that reach it on top of the stack's frames.  A search that fails
        leaves no walk behind: the engine drops its walk's state and
        leaves this thread's memo."""
        try:
            depth, frame = self.n - len(set(zip(self.inc, self.base[0]))), sys._getframe()
            while frame is not None:
                depth, frame = depth + 1, frame.f_back
            if depth >= sys.getrecursionlimit():
                raise RecursionError
            return search(*args)
        except BaseException as exc:
            self._gens, self._levels, self._path = [], [], []
            self._done = self._keep = False
            self._least = None
            if _memo.engine is self:
                _memo.key = _memo.engine = None
            if not isinstance(exc, RecursionError):
                raise
        # raised outside the handler, so no context keeps the failed frames' states
        msg = f"search tree on n = {self.n} points is deeper than the recursion limit"
        raise ResourceGuardError(msg)

    def _walk(self, state, prefix: tuple, stop: Callable[[], object]) -> bool:
        """Walk the identity path, deepest level first; return True, ending
        the walk, when `stop()` holds after a new coset representative.

        Once the walk below a level is done, the generators found so far
        generate the pointwise stabilizer of the prefix and the path vertex
        t.  Each cell vertex outside their orbit of t that an automorphism
        fixing the prefix reaches becomes a new representative, so the
        final orbit is t's full orbit under the prefix's stabilizer; a
        vertex in the orbit of one that reached none is skipped.  The
        level goes to `_levels` as (orbit size, state, t, cell, prefix),
        and each path state to `_path` at its depth; the product of the
        sizes is the group order by orbit-stabilizer.  A seeded walk reads
        its path from `_path`, and the seed's generators fixing a prefix,
        a strong generating set for this base, generate its stabilizer.
        """
        color = self._select_cell(state)
        if color is None:
            self._offer(state)
            return False
        cell = self._cell_members(state, color)
        t = cell[0]
        if len(self._path) == len(prefix) + 1:  # a seeded walk reads its kept path
            self._path.append(self._individualize(state, t))
        on_path = self._path[len(prefix) + 1]
        if self._walk(on_path, prefix + (t,), stop):
            return True
        fixing = [g for g in self._gens if all(g[p] == p for p in prefix)]
        orbit = _orbit_of(t, fixing)
        covered = set(orbit)
        for v in cell[1:]:
            if v in covered:
                continue
            rep = self._find_ext(on_path, self._individualize(state, v), prefix + (v,))
            if rep is None:
                covered |= _orbit_of(v, fixing)
                continue
            self._gens.append(rep)
            fixing.append(rep)
            if stop():
                return True
            orbit = _orbit_of(t, fixing)
            covered |= orbit
        self._levels.append((len(orbit), state, t, cell, prefix))
        return False

    def find_involution(self) -> Optional[Perm]:
        """An automorphism of order two, or None when the group order is odd.

        By Cauchy's theorem one exists exactly when some orbit size on
        the walk is even.  Below the deepest even level the stabilizer
        has odd order, so every involution fixing the prefix moves that
        level's t: the first automorphism swapping t with a cell vertex
        has even order, and its half power is the answer.
        """
        self._run(lambda: any(level[0] % 2 == 0 for level in self._levels))
        even = next((level for level in self._levels if level[0] % 2 == 0), None)
        if even is None:
            return None
        _, state, t, cell, prefix = even
        for v in cell[1:]:
            dom = self._individualize(self._path[len(prefix) + 1], v)
            cod = self._individualize(self._individualize(state, v), t)
            x = self._recurse(self._find_ext, dom, cod, prefix + (v, t))
            if x is not None:
                return power(x, order(x) // 2)
        raise AssertionError("even orbit on the walk but no automorphism swaps its point")

    # -- canonical labeling ------------------------------------------

    def canonical(self) -> tuple[tuple, Perm]:
        """Least relabeled edge encoding over the search tree, with the
        relabeling that realizes it: a walk to the end with leaf keeping
        on, whose generators later queries read, seeded with a finished
        walk's generators and path states so that it prunes by the whole
        group at once.  Each subtree it skips is an automorphic image of
        a searched one, whose leaves encode alike."""
        if self._least is None:
            seed = self._gens if self._done else None
            self._keep, self._done = True, False
            self._run(lambda: False, seed)
            self._keep = False
        return self._least

    def _offer(self, leaf) -> None:
        """Keep the leaf's relabeled edge encoding if it is the least yet."""
        if not self._keep:
            return
        sigma = leaf[0]
        if self.ordered:
            enc = (self.n, tuple(sorted(tuple(sigma[v] for v in e) for e in self.edges)))
        else:
            enc = (self.n, tuple(sorted(tuple(sorted(sigma[v] for v in e)) for e in self.edges)))
        if self._least is None or enc < self._least[0]:
            self._least = (enc, tuple(sigma))


def _incidence(n: int, edges: Sequence[tuple[int, ...]], ordered: bool) -> list[tuple]:
    """Per vertex, its incident edge indices, as (edge, position) pairs
    when `ordered`."""
    inc: list[list] = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        for pos, v in enumerate(e):
            inc[v].append((ei, pos) if ordered else ei)
    return [tuple(x) for x in inc]


def _orbit_of(point: int, gens: Sequence[Perm]) -> set[int]:
    orbit, queue = {point}, [point]
    while queue:
        p = queue.pop()
        for g in gens:
            q = g[p]
            if q not in orbit:
                orbit.add(q)
                queue.append(q)
    return orbit


# -- Schreier-Sims ----------------------------------------------------


def group_order(gens: Sequence[Perm], n: int) -> int:
    """Order of <gens> via a stabilizer chain with ascending base points."""
    chain = _stabilizer_chain(gens, n)
    result = 1
    for _, transversal, _ in chain:
        result *= len(transversal)
    return result


def _stabilizer_chain(gens: Sequence[Perm], n: int):
    """Stabilizer chain in the standard strong-generator formulation.

    Level i holds the generators known to fix base[:i] pointwise and the
    transversal of base[i] under them.  Schreier generators that fail to
    sift become strong generators of every level they fix, and affected
    levels are re-closed deepest-first.
    """
    initial = [tuple(g) for g in gens if not is_identity(g)]
    if not initial:
        return []
    base: list[int] = [min(p for g in initial for p in range(n) if g[p] != p)]
    sgens: list[list[Perm]] = [list(initial)]
    trans: list[dict[int, Perm]] = [{}]

    def rebuild(i: int) -> None:
        transversal = {base[i]: identity(n)}
        queue = [base[i]]
        qi = 0
        while qi < len(queue):
            p = queue[qi]
            qi += 1
            for g in sgens[i]:
                q = g[p]
                if q not in transversal:
                    transversal[q] = compose(g, transversal[p])
                    queue.append(q)
        trans[i] = transversal

    def strip(g: Perm, start: int) -> tuple[Perm, int]:
        j = start
        while j < len(base):
            p = g[base[j]]
            if p not in trans[j]:
                return g, j
            g = compose(inverse(trans[j][p]), g)
            j += 1
        return g, j

    def close(i: int) -> None:
        # precondition: all deeper levels are closed
        rebuild(i)
        transversal = trans[i]
        for p in list(transversal):
            u_p = transversal[p]
            for s in sgens[i]:
                schreier = compose(inverse(transversal[s[p]]), compose(s, u_p))
                if is_identity(schreier):
                    continue
                residue, j = strip(schreier, i + 1)
                if is_identity(residue):
                    continue
                if j == len(base):
                    base.append(min(q for q in range(n) if residue[q] != q))
                    sgens.append([])
                    trans.append({})
                for level in range(i + 1, j + 1):
                    sgens[level].append(residue)
                for level in range(j, i, -1):
                    close(level)

    close(0)
    return [(base[i], trans[i], sgens[i]) for i in range(len(base))]


# -- public hypergraph API --------------------------------------------


def structure_engine(n: int, edges: Sequence[tuple[int, ...]], ordered: bool,
                     stabilize: Optional[Sequence[int]] = None,
                     inc: Optional[list[tuple]] = None) -> _Engine:
    """The engine of a raw structure; `inc`, if given, is its
    `_incidence` list, built once by the caller."""
    return _Engine(n, edges, ordered, _pinned(n, stabilize), inc)


def _pinned(n: int, stabilize: Optional[Sequence[int]]) -> frozenset[int]:
    """The stabilized set, empty for None, refused unless its vertices are among the n points."""
    pinned = frozenset(() if stabilize is None else stabilize)
    if pinned and not (0 <= min(pinned) and max(pinned) < n):
        raise ValueError("stabilized vertex out of range")
    return pinned


class _Memo(threading.local):
    """Per thread, the engine of the structure last queried whole, and
    its key (n, edges, ordered, pinned set or None)."""

    key: Optional[tuple] = None
    engine: Optional[_Engine] = None


_memo = _Memo()


def _engine_of(
    n: int,
    edges: Sequence[tuple[int, ...]],
    ordered: bool,
    stabilize: Optional[Sequence[int]] = None,
) -> _Engine:
    """The engine this thread built here last if it is of the same
    structure and stabilized set, else a new engine, which takes its
    place: a held engine answers from the walks it has run."""
    key = (n, tuple(edges), ordered, _pinned(n, stabilize) or None)
    if _memo.key != key:
        _memo.key = _memo.engine = None  # the old engine goes before the new one is built
        _memo.engine = structure_engine(n, edges, ordered, stabilize)
        _memo.key = key
    return _memo.engine


def _twin_swap(inc: Sequence[tuple], stabilize: Optional[Sequence[int]] = None) -> Optional[Perm]:
    """Swap of two vertices with identical `_incidence` lists, if any.

    Such a swap fixes every edge, so it is always an involution.  The
    lists of an ordered structure hold (edge, position) slots, each with
    one point, so only two isolated points can match.  With a stabilized
    set, both vertices must be on the same side of it.
    """
    pinned = _pinned(len(inc), stabilize)
    first: dict = {}
    for v, around in enumerate(inc):
        prev = first.setdefault((around, v in pinned), v)
        if prev != v:
            images = list(range(len(inc)))
            images[prev], images[v] = v, prev
            return tuple(images)
    return None


def _twin_or_engine(n, edges, ordered: bool, stabilize, query: str) -> Optional[Perm]:
    """A twin swap, else the engine's answer to `query`; the incidence
    lists are built once for both."""
    inc = _incidence(n, edges, ordered)
    swap = _twin_swap(inc, stabilize)
    if swap is not None:
        return swap
    return getattr(structure_engine(n, edges, ordered, stabilize, inc), query)()


def _nonidentity(n, edges, ordered: bool, stabilize=None) -> Optional[Perm]:
    """A non-identity automorphism of the raw structure, or None."""
    return _twin_or_engine(n, edges, ordered, stabilize, "find_nonidentity")


def _involution(n, edges, ordered: bool, stabilize=None) -> Optional[Perm]:
    """An order-two automorphism of the raw structure, or None."""
    return _twin_or_engine(n, edges, ordered, stabilize, "find_involution")


def find_nonidentity_automorphism(
    h: Hypergraph, stabilize: Optional[Sequence[int]] = None
) -> Optional[Perm]:
    return _nonidentity(h.n, h.edges, False, stabilize)


def _record_asymmetry(h: Hypergraph, asymmetric: bool) -> Hypergraph:
    """h, with whether it is asymmetric recorded outside its fields."""
    object.__setattr__(h, "_asymmetric", asymmetric)
    return h


def _recorded_asymmetry(h: Hypergraph) -> Optional[bool]:
    return getattr(h, "_asymmetric", None)


def is_asymmetric(h: Hypergraph) -> bool:
    """No non-identity automorphism: a census class's recorded verdict, else a search."""
    verdict = _recorded_asymmetry(h)
    return find_nonidentity_automorphism(h) is None if verdict is None else verdict


def has_involution(
    h: Hypergraph, stabilize: Optional[Sequence[int]] = None
) -> Optional[Perm]:
    """An order-two automorphism if one exists, else None."""
    return _involution(h.n, h.edges, False, stabilize)


def automorphisms(
    h: Hypergraph, stabilize: Optional[Sequence[int]] = None
) -> AutomResult:
    return _assemble(h.n, h.edges, False, stabilize)


def automorphisms_stabilizing(h: Hypergraph, vertices: Sequence[int]) -> AutomResult:
    """Automorphisms mapping the given vertex set onto itself."""
    return automorphisms(h, stabilize=vertices)


def _assemble(
    n: int,
    edges: Sequence[tuple[int, ...]],
    ordered: bool,
    stabilize: Optional[Sequence[int]] = None,
) -> AutomResult:
    engine = _engine_of(n, edges, ordered, stabilize)
    gens = engine.generators()
    order = engine.order()
    witness = None
    if order % 2 == 0:
        if not ordered:  # relations report the engine's involution
            witness = _twin_swap(engine.inc, stabilize)
        if witness is None:
            witness = engine.find_involution()
    return AutomResult(
        generators=tuple(gens),
        group_order=order,
        is_asymmetric=order == 1,
        has_involution=witness is not None,
        involution_witness=witness,
    )


def brute_force_automorphisms(
    h: Hypergraph, stabilize: Optional[Sequence[int]] = None
) -> AutomResult:
    """All automorphisms by scanning every permutation; guard n <= 9."""
    return brute_force_structure(h.n, h.edges, False, stabilize)


def brute_force_structure(
    n: int,
    edges: Sequence[tuple[int, ...]],
    ordered: bool,
    stabilize: Optional[Sequence[int]] = None,
) -> AutomResult:
    if n > 9:
        raise ResourceGuardError(f"brute force automorphisms limited to n <= 9, got {n}")
    pinned = _pinned(n, stabilize)
    edge_set = frozenset(edges)
    found = []
    for p in permutations(range(n)):
        if {p[v] for v in pinned} != pinned:
            continue
        if ordered:
            ok = all(tuple(p[v] for v in e) in edge_set for e in edges)
        else:
            ok = all(tuple(sorted(p[v] for v in e)) in edge_set for e in edges)
        if ok:
            found.append(p)
    witness = next((p for p in found if is_involution(p)), None)
    gens = tuple(p for p in found if not is_identity(p))
    return AutomResult(
        generators=gens,
        group_order=len(found),
        is_asymmetric=len(found) == 1,
        has_involution=witness is not None,
        involution_witness=witness,
    )


# -- canonical forms ---------------------------------------------------


def canonical_key(h: Hypergraph) -> bytes:
    """Label-invariant key: equal exactly for isomorphic hypergraphs."""
    enc, _ = _engine_of(h.n, h.edges, False).canonical()
    return repr(("H", enc)).encode()


def canonical_form(h: Hypergraph) -> Hypergraph:
    """Canonically relabeled copy; a fixed point of re-canonicalization."""
    enc, _ = _engine_of(h.n, h.edges, False).canonical()
    return Hypergraph(h.n, enc[1], k=h.k)
