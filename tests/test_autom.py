"""Automorphism engine against the n! oracle."""

import itertools
import math
import random
import time

import pytest

from minasym import (
    Hypergraph,
    ResourceGuardError,
    automorphisms,
    automorphisms_stabilizing,
    brute_force_automorphisms,
    canonical_form,
    canonical_key,
    compose,
    degrees,
    find_nonidentity_automorphism,
    group_order,
    has_involution,
    is_asymmetric,
    is_automorphism,
    is_involution,
    relabel,
    set_complement,
)
from minasym.autom import _Engine, structure_engine
from util import (
    oracle_automorphisms,
    oracle_automorphisms_rel,
    random_mixed,
    random_relational,
    random_uniform,
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


def test_one_walk_per_engine(monkeypatch):
    # every query resumes the engine's one identity-path walk, in any
    # order, and answers as it does on an engine of its own
    walk, starts = _Engine._walk, []

    def counted(self, state, depth, levels):
        starts.append(depth)
        return walk(self, state, depth, levels)

    queries = ("find_nonidentity", "find_involution", "generators")
    cycle12 = Hypergraph(12, [(i, (i + 1) % 12) for i in range(12)])
    for h, size in ((cycle12, 24), (hypercube(4), 384)):
        alone = [getattr(structure_engine(h.n, h.edges, False), q)() for q in queries]
        monkeypatch.setattr(_Engine, "_walk", counted)
        for order in (queries, queries[::-1]):
            starts.clear()
            engine = structure_engine(h.n, h.edges, False)
            got = {q: getattr(engine, q)() for q in order}
            assert [got[q] for q in queries] == alone
            assert engine.order() == size
            assert starts.count(0) == 1
        starts.clear()
        res = automorphisms(h)  # even order, no twins: generators, then the involution
        assert starts.count(0) == 1
        assert (res.group_order, res.involution_witness, list(res.generators)) == (size, alone[1], alone[2])
        monkeypatch.setattr(_Engine, "_walk", walk)


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
    rng = random.Random(31)
    for _ in range(100):
        h = random_mixed(rng)
        p = find_nonidentity_automorphism(h)
        if p is None:
            assert is_asymmetric(h)
        else:
            assert p != tuple(range(h.n))
            assert is_automorphism(h, p)


def test_canonical_key_is_isomorphism_invariant():
    rng = random.Random(53)
    for trial in range(1000):
        h = random_uniform(rng) if trial % 2 else random_mixed(rng)
        p = list(range(h.n))
        rng.shuffle(p)
        assert canonical_key(h) == canonical_key(relabel(h, tuple(p)))


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
