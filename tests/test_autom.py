"""Automorphism engine against the n! oracle."""

import gc
import hashlib
import itertools
import math
import pickle
import random
import sys
import threading
import time
import weakref
from collections import Counter

import pytest

from minasym import (
    Hypergraph,
    RelationalStructure,
    ResourceGuardError,
    automorphisms,
    automorphisms_rel,
    automorphisms_stabilizing,
    brute_force_automorphisms,
    canonical_form,
    canonical_key,
    canonical_key_rel,
    classes_by_edge_count,
    compose,
    degrees,
    find_nonidentity_automorphism,
    gen_gk,
    gen_gks,
    gen_hcirc,
    group_order,
    has_involution,
    is_asymmetric,
    is_automorphism,
    is_involution,
    relabel,
    set_complement,
    to_hgf,
)
import minasym.autom as autom_mod
import minasym.search as search_mod
from minasym.autom import _Engine, structure_engine
from util import (
    oracle_automorphisms,
    oracle_automorphisms_rel,
    oracle_involution,
    oracle_isomorphic,
    oracle_nonidentity,
    oracle_refine,
    random_mixed,
    random_relational,
    random_uniform,
    reference_base,
    reference_refine,
)


def hypercube(d: int) -> Hypergraph:
    n = 1 << d
    return Hypergraph(n, [(v, v | 1 << i) for v in range(n) for i in range(d) if not v >> i & 1])


def disjoint_union(*parts: Hypergraph) -> Hypergraph:
    edges, offset = [], 0
    for h in parts:
        edges += [tuple(v + offset for v in e) for e in h.edges]
        offset += h.n
    return Hypergraph(offset, edges)


def frucht_graph() -> Hypergraph:
    """The Frucht graph: cubic, on 12 vertices, with no automorphism but
    the identity.  A Hamiltonian cycle plus chords in LCF notation."""
    lcf = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)
    return Hypergraph(12, [(i, (i + 1) % 12) for i in range(12)]
                      + [(i, (i + d) % 12) for i, d in enumerate(lcf)])


def torus_graph(steps) -> Hypergraph:
    """Cayley graph on Z_4 x Z_4 with connection set `steps`."""
    return Hypergraph(16, [
        (4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
        for a in range(4) for b in range(4) for da, db in steps
    ])


def test_engine_matches_oracle_on_random_structures():
    rng = random.Random(20260814)
    for trial in range(250):
        h = random_uniform(rng) if trial % 2 else random_mixed(rng)
        res = automorphisms(h)
        auts = oracle_automorphisms(h)
        assert res.group_order == len(auts), h
        assert res.is_asymmetric == (len(auts) == 1), h
        invs = [p for p in auts if is_involution(p)]
        assert res.has_involution == bool(invs), h
        if res.involution_witness is not None:
            assert is_involution(res.involution_witness)
            assert is_automorphism(h, res.involution_witness)
        degs = degrees(h)
        for g in res.generators:
            assert is_automorphism(h, g)
            assert all(degs[v] == degs[g[v]] for v in range(h.n))


def test_brute_force_matches_engine():
    rng = random.Random(99)
    for _ in range(80):
        h = random_mixed(rng)
        a = automorphisms(h)
        b = brute_force_automorphisms(h)
        assert a.group_order == b.group_order
        assert a.is_asymmetric == b.is_asymmetric
        assert a.has_involution == b.has_involution


def test_brute_force_guard():
    with pytest.raises(ResourceGuardError):
        brute_force_automorphisms(Hypergraph(10, [(0, 1)]))


def test_setwise_stabilizer_matches_oracle():
    rng = random.Random(41)
    for _ in range(120):
        h = random_uniform(rng)
        pair = rng.sample(range(h.n), 2)
        res = automorphisms_stabilizing(h, pair)
        want = [
            p
            for p in oracle_automorphisms(h)
            if {p[pair[0]], p[pair[1]]} == set(pair)
        ]
        assert res.group_order == len(want)
        for g in res.generators:
            assert {g[pair[0]], g[pair[1]]} == set(pair)


def test_involution_exists_iff_group_order_even():
    rng = random.Random(17)
    for _ in range(150):
        h = random_mixed(rng)
        res = automorphisms(h)
        assert (res.involution_witness is not None) == (res.group_order % 2 == 0)


def _check_engine_involution(n, edges, ordered, auts, pinned=None):
    """The engine's involution, without the twin shortcut, against the
    oracle's list of automorphisms preserving `pinned` setwise."""
    if pinned is not None:
        auts = [p for p in auts if {p[v] for v in pinned} == set(pinned)]
    inv = structure_engine(n, edges, ordered, pinned).find_involution()
    if not any(is_involution(p) for p in auts):
        assert inv is None
    else:
        assert is_involution(inv) and inv in auts


def test_engine_involution_matches_oracle():
    rng = random.Random(97)
    for trial in range(200):
        h = random_uniform(rng) if trial % 2 else random_mixed(rng)
        auts = oracle_automorphisms(h)
        _check_engine_involution(h.n, h.edges, False, auts)
        if h.n >= 2:
            _check_engine_involution(h.n, h.edges, False, auts, rng.sample(range(h.n), 2))
    for _ in range(150):
        r = random_relational(rng)
        _check_engine_involution(r.n, r.tuples, True, oracle_automorphisms_rel(r))


def test_engine_involution_on_twin_free_even_groups():
    cycle12 = Hypergraph(12, [(i, (i + 1) % 12) for i in range(12)])
    petersen = Hypergraph(10, [(i, (i + 1) % 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                          + [(i, 5 + i) for i in range(5)])
    for h in (hypercube(5), cycle12, petersen):
        inv = structure_engine(h.n, h.edges, False).find_involution()
        assert is_involution(inv) and is_automorphism(h, inv)


def _random_structures(rng, count):
    """(n, edges, ordered) triples: hypergraphs and ordered relations."""
    for trial in range(count):
        if trial % 3 == 2:
            r = random_relational(rng, n_hi=7)
            yield r.n, r.tuples, True
        else:
            h = random_uniform(rng) if trial % 3 else random_mixed(rng)
            yield h.n, h.edges, False


def _cells(col) -> set:
    """A colouring as a set partition of its indices."""
    parts: dict = {}
    for i, c in enumerate(col):
        parts.setdefault(c, set()).add(i)
    return {frozenset(p) for p in parts.values()}


def _check_state(state) -> None:
    """Each side is an ordered partition: a colour is its cell's start
    in the order, and sizes hold each cell's size at its start."""
    for col, order, size in zip(state[:2], state[2:4], state[4:]):
        assert sorted(order) == list(range(len(col)))
        start = 0
        while start < len(order):
            end = start + size[start]
            assert size[start] > 0 and not any(size[start + 1:end])
            assert all(col[x] == start for x in order[start:end])
            start = end


def test_refinement_matches_the_rank_oracle():
    """The splitter-queue refinement reaches the same vertex and edge
    cells as re-ranking every signature, at the base (with and without
    pinned vertices) and after individualizing once and twice in the
    way find_involution does."""
    rng = random.Random(20261018)
    for n, edges, ordered in _random_structures(rng, 300):
        pinned = None
        if rng.random() < 0.4:
            pinned = frozenset(rng.sample(range(n), rng.randrange(n + 1)))
        engine = _Engine(n, edges, ordered, pinned)
        vcol = [1 if pinned and v in pinned else 0 for v in range(n)]
        want = oracle_refine(n, edges, ordered, vcol)
        _check_state(engine.base)
        assert (_cells(engine.base[0]), _cells(engine.base[1])) == tuple(map(_cells, want))
        color = engine._select_cell(engine.base)
        if color is None:
            continue
        t, v = rng.sample(engine._cell_members(engine.base, color), 2)
        state = engine.base
        for x in (t, v):
            vcol = list(want[0])
            vcol[x] = n + 1
            want = oracle_refine(n, edges, ordered, vcol)
            state = engine._individualize(state, x)
            _check_state(state)
            assert (_cells(state[0]), _cells(state[1])) == tuple(map(_cells, want))


def test_refinement_states_match_the_reference(monkeypatch):
    """The base state and every individualized state equal, list for
    list, what the general reference refinement in util reaches from the
    same input: the same colours, cell orders and cell sizes, where the
    rank-oracle test compares cells only as set partitions.  Pinned sets
    are picked as that test picks them; each level individualizes every
    vertex of the target cell, then walks on from a random one."""
    rng = random.Random(20261019)
    fixed = [(12, frucht_graph().edges, False), (16, hypercube(4).edges, False)]
    for n, edges, ordered in fixed + list(_random_structures(rng, 300)):
        pinned = None
        if rng.random() < 0.4:
            pinned = frozenset(rng.sample(range(n), rng.randrange(n + 1)))
        engine = _Engine(n, edges, ordered, pinned)
        state = engine.base
        assert state == reference_base(engine, pinned)
        while (color := engine._select_cell(state)) is not None:
            cell = engine._cell_members(state, color)
            got = [engine._individualize(state, v) for v in cell]
            with monkeypatch.context() as m:
                m.setattr(_Engine, "_refine", reference_refine)
                assert got == [engine._individualize(state, v) for v in cell]
            state = rng.choice(got)


def test_refinement_is_relabelling_invariant():
    """Relabelled by p, a structure refines to the colours it had before:
    vcol'[p[v]] == vcol[v] and each edge keeps its colour, at the base and
    down a path of individualized v and p[v]; a discrete leaf colouring
    is a permutation of range(n)."""
    rng = random.Random(7)
    for n, edges, ordered in _random_structures(rng, 200):
        p = list(range(n))
        rng.shuffle(p)
        moved = [tuple(p[v] for v in e) for e in edges]
        if not ordered:
            moved = [tuple(sorted(e)) for e in moved]
        one, two = _Engine(n, edges, ordered), _Engine(n, moved, ordered)
        a, b = one.base, two.base
        while True:
            assert [b[0][p[v]] for v in range(n)] == a[0] and b[1] == a[1] and b[4:] == a[4:]
            color = one._select_cell(a)
            if color is None:
                assert sorted(a[0]) == list(range(n))
                break
            v = rng.choice(one._cell_members(a, color))
            a, b = one._individualize(a, v), two._individualize(b, p[v])


def test_one_walk_per_engine(monkeypatch):
    # each query sequence the library makes walks from the root once; no
    # query walks after a walk has run to its end, but canonical() walks
    # afresh with leaf keeping on; every query order gives the same answers
    walk, prefixes = _Engine._walk, []

    def counted(self, *args):
        prefixes.append(args[1])
        return walk(self, *args)

    queries = ("find_nonidentity", "find_involution", "generators", "order", "canonical")
    made = [(), ("find_nonidentity",), ("generators",), ("canonical",), ("canonical", "generators"),
            ("find_involution",), ("generators", "order", "find_involution"), ("generators", "order")]
    cycle12 = Hypergraph(12, [(i, (i + 1) % 12) for i in range(12)])
    for h, size in ((cycle12, 24), (hypercube(4), 384), (frucht_graph(), 1)):
        alone = {q: getattr(structure_engine(h.n, h.edges, False), q)() for q in queries}
        assert alone["order"] == size
        monkeypatch.setattr(_Engine, "_walk", counted)
        for sequence in made:
            prefixes.clear()
            engine = structure_engine(h.n, h.edges, False)
            assert [getattr(engine, q)() for q in sequence] == [alone[q] for q in sequence]
            assert prefixes.count(()) == min(len(sequence), 1), sequence
        for first in ("generators", "order", "canonical"):
            engine = structure_engine(h.n, h.edges, False)
            getattr(engine, first)()
            prefixes.clear()
            assert [getattr(engine, q)() for q in queries[:4]] == [alone[q] for q in queries[:4]]
            assert prefixes == []  # the walk ran to its end
        engine = structure_engine(h.n, h.edges, False)
        engine.find_nonidentity()
        prefixes.clear()
        assert engine.generators() == alone["generators"]
        assert prefixes.count(()) == (size > 1)  # the first walk stopped at its automorphism
        prefixes.clear()
        assert engine.canonical() == alone["canonical"]  # a walk already run runs afresh
        assert prefixes.count(()) == 1
        for order in itertools.permutations(queries):
            engine = structure_engine(h.n, h.edges, False)
            assert {q: getattr(engine, q)() for q in order} == alone, order
        prefixes.clear()
        res = automorphisms(h)  # generators, order, then the involution
        assert prefixes.count(()) == 1
        assert (res.group_order, list(res.generators)) == (size, alone["generators"])
        assert res.involution_witness == (alone["find_involution"] if size % 2 == 0 else None)
        monkeypatch.setattr(_Engine, "_walk", walk)


def test_canonical_labeling_is_the_walk(monkeypatch):
    """canonical() searches no tree of its own: it makes no more
    refinements than the walk behind generators() on a fresh engine.
    `_refine` is the one refinement entry of every tree node: the base
    colouring and each individualization call it."""
    refine, calls = _Engine._refine, []

    def counted(self, state, queue):
        calls.append(1)
        return refine(self, state, queue)

    cycle12 = Hypergraph(12, [(i, (i + 1) % 12) for i in range(12)])
    k9_3 = Hypergraph(9, itertools.combinations(range(9), 3))
    monkeypatch.setattr(_Engine, "_refine", counted)
    for name, h in (("Frucht", frucht_graph()), ("C_12", cycle12), ("Q_5", hypercube(5)),
                    ("K_9^(3)", k9_3)):
        counts = []
        for query in ("generators", "canonical"):
            engine = structure_engine(h.n, h.edges, False)
            calls.clear()
            getattr(engine, query)()
            counts.append(len(calls))
        assert 0 < counts[1] <= counts[0], (name, counts)


def test_each_state_is_individualized_once_per_query(monkeypatch):
    """Searches that extend the identity path read the walk's states:
    no engine query individualizes one state object at one vertex twice.
    Across the queries of `automorphisms`, the one repeat is the swap:
    `find_involution` individualizes its even level's state at a partner
    the walk searched as a sibling.  The pairs are held, so ids stay
    unique.  The `_refine` counts of `automorphisms` are pinned."""
    individualize, refine, made, refined = _Engine._individualize, _Engine._refine, [], []
    involution, swap_starts = _Engine.find_involution, []

    def recorded(self, state, v):
        made.append((state, v))
        return individualize(self, state, v)

    def counted(self, state, queue):
        refined.append(1)
        return refine(self, state, queue)

    def swapping(self):
        swaps = {(id(lv[1]), v) for lv in self._levels if lv[0] % 2 == 0 for v in lv[3][1:]}
        swap_starts.append((len(made), swaps))
        return involution(self)

    monkeypatch.setattr(_Engine, "_individualize", recorded)
    monkeypatch.setattr(_Engine, "_refine", counted)
    monkeypatch.setattr(_Engine, "find_involution", swapping)
    petersen = Hypergraph(10, [(i, (i + 1) % 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                          + [(i, 5 + i) for i in range(5)])
    named = [(f"(2,6) class {i}", h)
             for i, h in enumerate(h for _, level in classes_by_edge_count(6, 2) for h in level)]
    named += [("Q_5", hypercube(5)), ("K_8", Hypergraph(8, itertools.combinations(range(8), 2))),
              ("Petersen", petersen), ("empty(8)", Hypergraph(8))]
    counts = {}
    for name, h in named:
        for query in (automorphisms, canonical_key):
            for record in (made, refined, swap_starts):
                record.clear()
            query(h)
            if query is automorphisms:
                counts[name] = len(refined)
            start, swaps = swap_starts[0] if swap_starts else (len(made), set())
            for part in (made[:start], made[start:]):
                assert max(Counter((id(s), v) for s, v in part).values(), default=1) == 1, name
            again = {(id(s), v) for s, v in made[:start]} & {(id(s), v) for s, v in made[start:]}
            assert again <= swaps, name
    pinned = {"empty(8)": 36, "K_8": 39, "Q_5": 24, "Petersen": 18}  # 57, 61, 35, 25 before
    assert {name: counts[name] for name in pinned} == pinned


def test_known_group_orders():
    empty = Hypergraph(5)
    assert automorphisms(empty).group_order == 120
    complete = Hypergraph(5, itertools.combinations(range(5), 2))
    assert automorphisms(complete).group_order == 120
    cycle5 = Hypergraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert automorphisms(cycle5).group_order == 10
    path4 = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
    assert automorphisms(path4).group_order == 2
    assert automorphisms(Hypergraph(16)).group_order == math.factorial(16)
    assert automorphisms(hypercube(5)).group_order == 2**5 * math.factorial(5)
    k4 = Hypergraph(4, itertools.combinations(range(4), 2))
    assert automorphisms(disjoint_union(k4, k4, k4, k4)).group_order == 24**4 * 24
    k9_3 = Hypergraph(9, itertools.combinations(range(9), 3))
    assert automorphisms(k9_3).group_order == math.factorial(9)
    # Both are strongly regular (16, 6, 2, 2), so refinement leaves all 32
    # vertices in one cell that holds two orbits: 2 * 24^2 times 192.
    rook = torus_graph([(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)])
    shrikhande = torus_graph([(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)])
    assert automorphisms(disjoint_union(rook, shrikhande)).group_order == 221_184


def test_generators_generate_the_whole_group():
    """The walk's order (a product of orbit sizes) against Schreier-Sims."""
    rng = random.Random(23)
    for _ in range(60):
        h = random_mixed(rng, n_hi=6)
        res = automorphisms(h)
        assert group_order(res.generators, h.n) == res.group_order
        for a in res.generators:
            for b in res.generators:
                assert is_automorphism(h, compose(a, b))


def test_complement_preserves_generators_both_ways():
    rng = random.Random(67)
    for _ in range(80):
        h = random_uniform(rng)
        while h.k >= h.n:
            h = random_uniform(rng)
        c = set_complement(h)
        res_h, res_c = automorphisms(h), automorphisms(c)
        assert res_h.group_order == res_c.group_order
        assert all(is_automorphism(c, g) for g in res_h.generators)
        assert all(is_automorphism(h, g) for g in res_c.generators)


def test_twin_vertices_give_a_swap():
    h = Hypergraph(5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
    # vertices 0 and 1 sit in exactly the same edges
    inv = has_involution(h)
    assert inv is not None
    assert is_automorphism(h, inv)


def test_find_nonidentity_none_only_when_asymmetric():
    """The twin-first queries against the factorial oracles: a
    non-identity automorphism or an involution is found exactly when the
    oracle finds one, and each witness is genuine."""
    rng = random.Random(31)
    for _ in range(100):
        h = random_mixed(rng)
        p = find_nonidentity_automorphism(h)
        if p is None:
            assert oracle_nonidentity(h) is None, (h.n, h.edges)
        else:
            assert p != tuple(range(h.n))
            assert is_automorphism(h, p)
        inv = has_involution(h)
        assert (inv is None) == (oracle_involution(h) is None), (h.n, h.edges)
        if inv is not None:
            assert is_involution(inv) and is_automorphism(h, inv), (h.n, h.edges)


def random_cubic(n: int, rng: random.Random) -> Hypergraph:
    """A random simple cubic graph on n vertices, by rejection pairing."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
            return Hypergraph(n, edges)


def test_canonical_key_is_isomorphism_invariant():
    rng = random.Random(53)
    for trial in range(1000):
        h = random_uniform(rng) if trial % 2 else random_mixed(rng)
        p = list(range(h.n))
        rng.shuffle(p)
        assert canonical_key(h) == canonical_key(relabel(h, tuple(p)))
    # refinement cannot split a regular graph, so the least leaf often
    # lies below a node that cannot extend the identity path
    for _ in range(24):
        h = random_cubic(rng.choice((8, 10, 12, 14, 16)), rng)
        for _ in range(3):
            g = relabel(h, tuple(rng.sample(range(h.n), h.n)))
            assert (canonical_key(g), canonical_form(g)) == (canonical_key(h), canonical_form(h))


def test_canonical_keys_match_the_isomorphism_oracle():
    """Equal keys exactly when the n! oracle finds an isomorphism, on
    relabelled copies and on random mates with the same vertex count and
    edge sizes (or arity and tuple count)."""
    rng = random.Random(61)
    outcomes = Counter()
    for trial in range(240):
        a = random_uniform(rng, n_hi=6) if trial % 2 else random_mixed(rng, n_hi=6)
        p = rng.sample(range(a.n), a.n)
        if trial % 3:
            sizes = Counter(map(len, a.edges))
            b = Hypergraph(a.n, [e for size, count in sizes.items() for e in rng.sample(
                list(itertools.combinations(range(a.n), size)), count)])
        else:
            b = relabel(a, tuple(p))
        same = oracle_isomorphic(a, b)
        assert (canonical_key(a) == canonical_key(b)) == same, (a, b)
        outcomes["H", same] += 1
    for trial in range(160):
        r = random_relational(rng)
        p = rng.sample(range(r.n), r.n)
        if trial % 3:
            pool = list(itertools.permutations(range(r.n), r.arity))
            q = RelationalStructure(r.n, r.arity, rng.sample(pool, r.m))
        else:
            q = RelationalStructure(r.n, r.arity, [tuple(p[v] for v in t) for t in r.tuples])
        same = oracle_isomorphic(r, q)
        assert (canonical_key_rel(r) == canonical_key_rel(q)) == same, (r, q)
        outcomes["R", same] += 1
    assert min(outcomes.values()) >= 30 and len(outcomes) == 4, outcomes


def test_canonical_key_of_the_rigid_frucht_graph():
    """Equal keys across relabellings of the Frucht graph, too large for
    the n! oracle; a degree-preserving edge switch that changes the
    triangle count gives another key."""
    rng = random.Random(12)
    h = frucht_graph()
    key = canonical_key(h)
    for _ in range(6):
        g = relabel(h, tuple(rng.sample(range(12), 12)))
        assert canonical_key(g) == key
        assert canonical_form(g) == canonical_form(h)

    def triangles(g):
        adj = {v: {w for e in g.edges if v in e for w in e} - {v} for v in range(g.n)}
        return sum(len(adj[u] & adj[v]) for u, v in g.edges) // 3

    edges = set(h.edges)
    for (a, b), (c, d) in itertools.combinations(h.edges, 2):
        ac, bd = tuple(sorted((a, c))), tuple(sorted((b, d)))
        if len({a, b, c, d}) < 4 or ac in edges or bd in edges:
            continue
        mate = Hypergraph(12, (edges - {(a, b), (c, d)}) | {ac, bd})
        if triangles(mate) != triangles(h):
            assert degrees(mate) == degrees(h)
            assert canonical_key(mate) != key
            break
    else:
        raise AssertionError("no triangle-changing switch found")


def test_canonical_key_separates_non_isomorphic():
    a = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
    b = Hypergraph(4, [(0, 1), (1, 2), (1, 3)])
    assert canonical_key(a) != canonical_key(b)


def test_canonical_form_is_a_fixed_point():
    rng = random.Random(67)
    for _ in range(80):
        h = random_mixed(rng)
        c = canonical_form(h)
        assert canonical_key(c) == canonical_key(h)
        assert canonical_form(c) == c


def test_canonical_labeling_of_large_groups_is_fast_and_invariant():
    rng = random.Random(71)
    cases = {
        "empty(20)": Hypergraph(20),
        "K_20": Hypergraph(20, itertools.combinations(range(20), 2)),
        "Q_6": hypercube(6),
    }
    start = time.perf_counter()
    for name, h in cases.items():
        forms, keys = set(), set()
        for _ in range(4):
            p = list(range(h.n))
            rng.shuffle(p)
            g = relabel(h, tuple(p))
            keys.add(canonical_key(g))
            forms.add(canonical_form(g))
        assert len(keys) == 1, name
        assert len(forms) == 1, name
        form = forms.pop()
        assert canonical_form(form) == form, name
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"canonical labeling of large groups took {elapsed:.1f}s"


def test_stabilizer_rejects_bad_vertices():
    h = Hypergraph(3, [(0, 1)])
    with pytest.raises(ValueError):
        automorphisms_stabilizing(h, [0, 5])


def test_every_stabilized_query_rejects_bad_vertices():
    """The range check comes before the twin-swap shortcut: the empty
    graph's twins would otherwise answer the query."""
    h = Hypergraph(3, [])
    queries = (find_nonidentity_automorphism, has_involution, automorphisms, brute_force_automorphisms)
    for bad in ([7], [-1], [0, 3]):
        for query in queries:
            with pytest.raises(ValueError, match="out of range"):
                query(h, stabilize=bad)
        with pytest.raises(ValueError, match="out of range"):
            automorphisms_stabilizing(h, bad)
    assert find_nonidentity_automorphism(h, stabilize=[2]) == (1, 0, 2)


def test_search_trees_deeper_than_the_recursion_limit_are_refused(monkeypatch):
    # refinement never splits an empty structure, so its identity path has
    # n - 1 levels, one recursion frame each
    n = 2 * sys.getrecursionlimit()
    built = []

    def recorded(*args):
        built.append(structure_engine(*args))
        return built[-1]

    monkeypatch.setattr(autom_mod, "structure_engine", recorded)
    for query, structure in (
        (automorphisms, Hypergraph(n, [])),
        (canonical_key, Hypergraph(n, [])),
        (automorphisms_rel, RelationalStructure(n, 1, [])),
    ):
        with pytest.raises(ResourceGuardError, match=f"n = {n} points"):
            query(structure)
        # a refused query leaves no engine held for reuse, and no path states
        assert autom_mod._memo.key is None and autom_mod._memo.engine is None
        assert (built[-1]._path, built[-1]._levels) == ([], [])
    assert len(built) == 3
    assert not is_asymmetric(Hypergraph(n, []))  # the twin swap needs no walk
    # the involution search below the walk is guarded too
    engine = structure_engine(4, [(0, 1), (1, 2), (2, 3), (0, 3)], False)
    assert engine.order() == 8

    def overflow(*args):
        raise RecursionError

    monkeypatch.setattr(engine, "_find_ext", overflow)
    with pytest.raises(ResourceGuardError, match="n = 4 points"):
        engine.find_involution()


def test_engines_left_mid_walk_are_freed_by_reference_counting(monkeypatch):
    # an engine holds no reference to itself, whether its query stopped
    # the walk after the first automorphism or at the first even level,
    # it was never queried (augmentation settles most children by the
    # base colouring alone), or canonical() walked it to the end
    built = []

    def recorded(*args):
        engine = structure_engine(*args)
        built.append(weakref.ref(engine))
        return engine

    monkeypatch.setattr(autom_mod, "structure_engine", recorded)
    monkeypatch.setattr(search_mod, "structure_engine", recorded)
    cycle = Hypergraph(7, [(i, (i + 1) % 7) for i in range(7)])
    gc.disable()
    try:
        assert find_nonidentity_automorphism(cycle) == (0, 6, 5, 4, 3, 2, 1)
        assert has_involution(cycle) == (0, 6, 5, 4, 3, 2, 1)
        assert len(built) == 2
        parent = Hypergraph(6, [(0, 1), (0, 4), (1, 2), (2, 3)])
        assert search_mod._augmentation_accepts(parent, (1, 3), search_mod._scored(parent)) == (False, None)
        assert len(built) == 3  # rejected by edge colours, never queried
        assert sum(len(level) for _, level in classes_by_edge_count(7, 2)) == 1044
        engine = recorded(cycle.n, cycle.edges, False)
        engine.canonical()
        del engine
        assert len(built) > 100
        assert [ref for ref in built if ref() is not None] == []
    finally:
        gc.enable()


def test_incidence_lists_are_built_once_per_structure(monkeypatch):
    # the twin check hands its lists on to the engine, and automorphisms
    # reads the engine's for its twin witness; is_asymmetric builds none,
    # as every class carries the verdict augmentation recorded
    classes = [h for _, layer in classes_by_edge_count(6, 2) for h in layer]
    calls = []
    incidence = autom_mod._incidence

    def counted(*args):
        calls.append(args)
        return incidence(*args)

    monkeypatch.setattr(autom_mod, "_incidence", counted)
    for query in (is_asymmetric, has_involution, automorphisms):
        per_structure = []
        for h in classes:
            before = len(calls)
            query(h)
            per_structure.append(len(calls) - before)
        expected = {0} if query is is_asymmetric else {1}
        assert set(per_structure) == expected, (query.__name__, Counter(per_structure))
    assert len(classes) == 156


def test_is_asymmetric_reads_a_recorded_verdict_without_an_engine(monkeypatch):
    """Every one of the 1044 classes of (2,7), the 152 asymmetric ones
    among them, carries a verdict, so is_asymmetric builds no engine."""
    levels = list(classes_by_edge_count(7, 2))
    build, built = autom_mod.structure_engine, []

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(autom_mod, "structure_engine", counted)
    classes = [h for _, reps in levels for h in reps]
    assert all(autom_mod._recorded_asymmetry(h) is not None for h in classes)
    assert (len(classes), sum(map(is_asymmetric, classes))) == (1044, 152)
    assert built == []


def test_a_recorded_verdict_is_outside_the_hypergraph_fields():
    """A verdict rides along with its object: equal hypergraphs with and
    without one compare and hash equal, print alike and pickle."""
    h = next(h for h in dict(classes_by_edge_count(6, 2))[6] if is_asymmetric(h))
    bare = Hypergraph(h.n, h.edges, k=h.k)
    assert autom_mod._recorded_asymmetry(h) is True and autom_mod._recorded_asymmetry(bare) is None
    assert h == bare and hash(h) == hash(bare) and len({h, bare}) == 1
    assert repr(h) == repr(bare) and to_hgf(h) == to_hgf(bare)
    for g in (h, bare):
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and autom_mod._recorded_asymmetry(copy) is autom_mod._recorded_asymmetry(g)


def _fresh(query, *args):
    """`query(*args)` answered by an engine built for it."""
    autom_mod._memo.key = autom_mod._memo.engine = None
    return query(*args)


def test_whole_structure_queries_share_one_engine(monkeypatch):
    """automorphisms, canonical_key and canonical_form of one structure
    build one engine between them, and the canonical walk runs once.
    The engine is held per thread for the next query of an equal
    structure with the same ordering and stabilized set, and only
    for that."""
    init, walk, built, walks = _Engine.__init__, _Engine._walk, [], []

    def counted_init(self, *args):
        built.append(1)
        init(self, *args)

    def counted_walk(self, *args):
        walks.append(1)
        return walk(self, *args)

    h = hypercube(4)
    moved = relabel(h, tuple((v + 1) % h.n for v in range(h.n)))
    r = RelationalStructure(h.n, 2, h.edges)
    assert moved.edges != h.edges and r.tuples == h.edges
    full = (automorphisms, canonical_key, canonical_form)
    want = {q: _fresh(q, h) for q in full}
    want_rel = (_fresh(automorphisms_rel, r), _fresh(canonical_key_rel, r))
    want_pinned = _fresh(automorphisms_stabilizing, h, [0, 1])
    autom_mod._memo.key = autom_mod._memo.engine = None
    monkeypatch.setattr(_Engine, "__init__", counted_init)
    monkeypatch.setattr(_Engine, "_walk", counted_walk)

    assert automorphisms(h) == want[automorphisms]
    assert canonical_key(h) == want[canonical_key]
    walks.clear()
    assert canonical_form(h) == want[canonical_form]
    assert (len(built), walks) == (1, [])  # one engine, and the third query walked nowhere
    assert canonical_key(Hypergraph(h.n, list(h.edges))) == want[canonical_key]
    assert (len(built), walks) == (1, [])  # a new but equal hypergraph
    assert canonical_key(moved) == want[canonical_key]
    assert len(built) == 2  # a relabelled copy is another structure
    assert (automorphisms_rel(r), canonical_key_rel(r)) == want_rel
    assert len(built) == 3  # the same tuples, ordered
    assert automorphisms(h) == want[automorphisms]
    assert automorphisms_stabilizing(h, [1, 0]) == want_pinned
    assert automorphisms_stabilizing(h, (0, 1)) == want_pinned
    assert len(built) == 5  # a stabilized set is part of the key
    monkeypatch.undo()

    # threads querying different structures at once each hold their own engine
    shapes = [hypercube(4), relabel(frucht_graph(), tuple(range(11, -1, -1))),
              Hypergraph(12, [(i, (i + 1) % 12) for i in range(12)])]
    answers = [tuple(_fresh(q, s) for q in full) for s in shapes]
    start, got = threading.Barrier(len(shapes)), [[] for _ in shapes]

    def ask(s, out):
        start.wait(timeout=60)
        for _ in range(20):
            out.append(tuple(q(s) for q in full))
            out.append(autom_mod._memo.key == (s.n, s.edges, False, None))

    threads = [threading.Thread(target=ask, args=pair) for pair in zip(shapes, got)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert [set(out) for out in got] == [{a, True} for a in answers]


def _engine_outputs(h: Hypergraph) -> tuple:
    res = automorphisms(h)
    return canonical_key(h), canonical_form(h).edges, res.generators, res.involution_witness


def test_engine_outputs_are_pinned():
    """sha256 digests of engine outputs, pinned: the canonical keys,
    canonical forms, generators and involution witnesses of all 156
    graphs on 6 vertices (as augmentation labels them) and of a few
    fixed relabelled structures, and the relational key of hcirc(4, 2).
    Each output hangs on the exact colours and cell orders of
    refinement, so a rewrite that keeps every state keeps every digest.
    A future declared output change must re-pin these digests and log
    that in CHANGES.md."""
    petersen = Hypergraph(10, [(i, (i + 1) % 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                          + [(i, 5 + i) for i in range(5)])
    classes = [h for _, level in classes_by_edge_count(6, 2) for h in level]
    assert len(classes) == 156
    got = {"(2,6) classes": [_engine_outputs(h) for h in classes]}
    rng = random.Random(17)
    for name, h in (("K_9^(3)", Hypergraph(9, itertools.combinations(range(9), 3))),
                    ("Q_5", hypercube(5)), ("Petersen", petersen), ("gks(6,1)", gen_gks(6, 1))):
        p = list(range(h.n))
        rng.shuffle(p)
        got[name] = _engine_outputs(relabel(h, tuple(p)))
    got["hcirc(4,2)"] = canonical_key_rel(gen_hcirc(4, 2))
    digests = {name: hashlib.sha256(repr(out).encode()).hexdigest() for name, out in got.items()}
    assert digests == {
        "(2,6) classes": "0de469137f5effa56157ac80d5f313d36cdcc01ec6fc70298ca6253f3e2d53fc",
        "K_9^(3)": "cbd1ac57b97f3f89a60421c56fe560ad31bcaabc0563ce7248fd18df29fc72e5",
        "Q_5": "806ebee302c0ff8442273f60633ee37bfa108ad897cadc7702fed5ae5c3ffa12",
        "Petersen": "3ea4aaaa939e058bb660f9fea43c727c438be65b2d6db3f4b007110502e23f02",
        "gks(6,1)": "a702a35fade03b78ce4ff244e0aeb9cb8023c1a0db2ce644a2464e307c5c20b7",
        "hcirc(4,2)": "dd1220c7694beaf3528a0e187608b2515a2b413cf5a82d852c9dbcab6667ea8c",
    }


def _stack_depth(frame) -> int:
    depth = 0
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_trees_deeper_than_the_limit_are_refused_before_walking(monkeypatch):
    """Refinement never splits vertices with one incidence list and one
    base colour, so a class of s such vertices puts s - 1 levels on the
    identity path.  When those levels, on top of the frames already on the
    stack, reach the recursion limit the search is refused before any
    walk; a structure below that bound, or one whose vertices refinement
    can tell apart, still gets its group."""
    walk, walks = _Engine._walk, []

    def counted(self, *args):
        walks.append(args[1])
        return walk(self, *args)

    monkeypatch.setattr(_Engine, "_walk", counted)
    with monkeypatch.context() as patched:
        # a fake limit 40 frames above the stack of the search that asks for it
        patched.setattr(autom_mod.sys, "getrecursionlimit", lambda: _stack_depth(sys._getframe(1)) + 40)
        for query in (automorphisms, canonical_key):
            with pytest.raises(ResourceGuardError, match="n = 41 points"):
                query(Hypergraph(41, []))
            assert walks == [] and autom_mod._memo.engine is None
        assert automorphisms(Hypergraph(40, [])).group_order == math.factorial(40)
        assert automorphisms(Hypergraph(41, [(i, i + 1) for i in range(40)])).group_order == 2
        assert walks
    # under the real limit the frames below the search count: at n equal to
    # the limit (1000 by default), n - 1 levels plus this test's stack reach it
    walks.clear()
    for n in (sys.getrecursionlimit(), 4 * sys.getrecursionlimit()):
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match=f"n = {n} points"):
            automorphisms(Hypergraph(n, []))
        assert walks == [] and time.perf_counter() - start < 1, n


def _cycles(n: int, copies: int = 1) -> Hypergraph:
    return Hypergraph(n * copies, [(c * n + i, c * n + (i + 1) % n)
                                   for c in range(copies) for i in range(n)])


def _seeded_canonical(n, edges, ordered=False):
    """canonical() on an engine whose walk generators() ran to its end,
    checked against a fresh engine's; the generators and the orbit sizes
    the seeded walk records do not change."""
    engine = structure_engine(n, edges, ordered)
    gens, order = engine.generators(), engine.order()
    least = engine.canonical()[0]
    assert least == structure_engine(n, edges, ordered).canonical()[0]
    assert (engine.generators(), engine.order()) == (gens, order)
    return engine


def test_a_canonical_walk_after_a_finished_walk_refines_nothing(monkeypatch):
    """The seeded canonical walk reads the finished walk's path states,
    and on these inputs every sibling on the path lies in an orbit of the
    generators fixing its prefix, so it refines no state at all."""
    refine, calls = _Engine._refine, []

    def counted(self, state, queue):
        calls.append(1)
        return refine(self, state, queue)

    petersen = Hypergraph(10, [(i, (i + 1) % 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                          + [(i, 5 + i) for i in range(5)])
    for name, h in (("C_12", _cycles(12)), ("Q_4", hypercube(4)),
                    ("K_8", Hypergraph(8, itertools.combinations(range(8), 2))),
                    ("Petersen", petersen),
                    ("K(3,3)", Hypergraph(6, [(i, 3 + j) for i in range(3) for j in range(3)])),
                    ("4xK_4", Hypergraph(16, [tuple(range(4 * i, 4 * i + 4)) for i in range(4)]))):
        engine = structure_engine(h.n, h.edges, False)
        engine.generators()
        monkeypatch.setattr(_Engine, "_refine", counted)
        calls.clear()
        least = engine.canonical()[0]
        assert calls == [], name
        monkeypatch.undo()
        assert least == structure_engine(h.n, h.edges, False).canonical()[0], name


def test_a_seeded_walk_searches_the_other_orbits_of_a_cell():
    """In C_6 + 2C_3 refinement leaves all 12 vertices in one cell, which
    holds two orbits: the seeded walk must still search the second."""
    h = disjoint_union(_cycles(6), _cycles(3), _cycles(3))
    rng = random.Random(31)
    for _ in range(5):
        p = list(range(h.n))
        rng.shuffle(p)
        g = relabel(h, tuple(p))
        engine = _seeded_canonical(g.n, g.edges)
        size, _, _, cell, _ = engine._levels[-1]  # the root level
        assert (size, len(cell)) == (6, 12)


def test_seeded_canonical_walks_match_fresh_ones():
    """generators() then canonical() gives a fresh engine's least
    encoding on every class of (2,6) and (3,5), and on the symmetric
    benchmark structures with at most 20 vertices, relabelled."""
    classes = [h for n, k in ((6, 2), (5, 3)) for _, level in classes_by_edge_count(n, k)
               for h in level]
    assert len(classes) == 156 + 34
    for h in classes:
        _seeded_canonical(h.n, h.edges)
    shapes = [Hypergraph(n, []) for n in (8, 11, 14)]
    shapes += [Hypergraph(n, itertools.combinations(range(n), 2)) for n in (8, 11, 14)]
    shapes += [_cycles(12), _cycles(6, 2),
               Hypergraph(12, [(i, 6 + j) for i in range(6) for j in range(6)]),
               Hypergraph(6, [(i, 3 + j) for i in range(3) for j in range(3)]),
               Hypergraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                              (0, 3), (1, 4), (2, 5)]),
               Hypergraph(10, [(i, (i + 1) % 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                          + [(i, 5 + i) for i in range(5)])]
    shapes += [Hypergraph(k * c, [tuple(range(k * i, k * i + k)) for i in range(c)])
               for k, c in ((2, 7), (3, 5), (4, 4))]
    shapes += [Hypergraph(9, itertools.combinations(range(9), 3)), gen_gk(6), gen_gk(10)]
    rel = gen_hcirc(4, 2)
    rng = random.Random(7)
    for s in shapes + [rel]:
        for _ in range(3):
            p = list(range(s.n))
            rng.shuffle(p)
            if s is rel:
                _seeded_canonical(s.n, [tuple(p[v] for v in t) for t in s.tuples], True)
            else:
                _seeded_canonical(s.n, relabel(s, tuple(p)).edges)
