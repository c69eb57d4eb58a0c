"""Relational structures: ordered-tuple groups, generators, verifiers."""

import random
from collections import Counter

import pytest

import minasym.autom as autom
from minasym import (
    Hypergraph,
    ResourceGuardError,
    RelationalStructure,
    automorphisms_rel,
    brute_force_automorphisms_rel,
    canonical_key,
    canonical_key_rel,
    cyclic_closure,
    find_nonidentity_automorphism_rel,
    gen_gkt_circ,
    gen_hcirc,
    gen_r3t,
    gen_single_arc,
    hcirc_labels,
    induced_rel,
    is_asymmetric_rel,
    is_automorphism,
    is_critical_asymmetric,
    is_cyclic,
    is_involution,
    multiplicity,
    parse_rel,
    r3t_labels,
    to_rel,
    verify_minimal_asymmetric_rel,
)
from util import oracle_automorphisms_rel, random_relational


def support_hypergraph(r: RelationalStructure) -> Hypergraph:
    sets = {tuple(sorted(t)) for t in r.tuples}
    return Hypergraph(r.n, sorted(sets))


def test_engine_matches_oracle_on_random_relations():
    rng = random.Random(14)
    for _ in range(200):
        r = random_relational(rng)
        res = automorphisms_rel(r)
        auts = oracle_automorphisms_rel(r)
        assert res.group_order == len(auts), r
        assert res.is_asymmetric == (len(auts) == 1)
        invs = [p for p in auts if is_involution(p)]
        assert res.has_involution == bool(invs)


def test_brute_force_rel_agrees():
    rng = random.Random(15)
    for _ in range(60):
        r = random_relational(rng)
        assert (
            automorphisms_rel(r).group_order
            == brute_force_automorphisms_rel(r).group_order
        )


def test_tuple_order_is_significant():
    arc = RelationalStructure(2, 2, [(0, 1)])
    both = RelationalStructure(2, 2, [(0, 1), (1, 0)])
    assert is_asymmetric_rel(arc)
    assert automorphisms_rel(both).group_order == 2


def test_multiplicity_counts_tuples_per_entry_set():
    rng = random.Random(16)
    for _ in range(80):
        r = random_relational(rng)
        counts = Counter(frozenset(t) for t in r.tuples)
        want = max(counts.values(), default=0)
        assert multiplicity(r) == want
    assert multiplicity(gen_single_arc()) == 1


def test_multiplicity_bounded_by_arity_factorial():
    rng = random.Random(18)
    for _ in range(50):
        r = random_relational(rng)
        bound = 1
        for i in range(1, r.arity + 1):
            bound *= i
        assert multiplicity(r) <= bound


def test_cyclic_closure_properties():
    arc = gen_single_arc()
    closed = cyclic_closure(arc)
    assert closed.tuples == ((0, 1), (1, 0))
    assert not is_cyclic(arc)
    assert is_cyclic(closed)
    assert cyclic_closure(closed) == closed
    tri = RelationalStructure(3, 3, [(0, 1, 2)])
    closed3 = cyclic_closure(tri)
    assert len(closed3.tuples) == 3
    assert multiplicity(closed3) == 3


def test_single_arc_is_minimal_and_critical():
    arc = gen_single_arc()
    assert is_asymmetric_rel(arc)
    assert multiplicity(arc) == 1
    assert verify_minimal_asymmetric_rel(arc).holds
    assert is_critical_asymmetric(arc) == (True, None)


def test_critical_asymmetry_witness():
    # a directed path keeps asymmetry after dropping its last point
    path = RelationalStructure(3, 2, [(0, 1), (1, 2)])
    assert is_asymmetric_rel(path)
    ok, vertex = is_critical_asymmetric(path)
    assert not ok
    assert vertex is not None
    sub = induced_rel(path, [v for v in range(3) if v != vertex])
    assert is_asymmetric_rel(sub)


def test_critical_asymmetry_preconditions():
    with pytest.raises(ValueError):
        is_critical_asymmetric(RelationalStructure(2, 2, [(0, 1), (1, 0)]))
    with pytest.raises(ValueError):
        is_critical_asymmetric(gen_r3t(1))


def test_anchored_ring_relation_shape():
    for t in [1, 2, 3]:
        r = gen_r3t(t)
        assert r.arity == 3
        assert r.n == 6 * t + 1
        assert r.m == 2 * (3 * t + 1)
        assert len(r3t_labels(t)) == r.n
        groups = Counter(frozenset(u) for u in r.tuples)
        assert set(groups.values()) == {2}
        # the paired tuples agree on the designated third place
        by_set = {}
        for u in r.tuples:
            by_set.setdefault(frozenset(u), []).append(u)
        for pair in by_set.values():
            assert pair[0][2] == pair[1][2]
            assert pair[0][:2] == pair[1][1::-1]
    assert multiplicity(gen_r3t(1)) == 2
    with pytest.raises(ValueError):
        gen_r3t(0)


def test_anchored_ring_relation_is_minimal_asymmetric():
    r = gen_r3t(1)
    assert is_asymmetric_rel(r)
    assert verify_minimal_asymmetric_rel(r).holds


def test_relation_support_matches_anchored_ring_hypergraph():
    for t in (1, 2, 3):
        sup = support_hypergraph(gen_r3t(t))
        assert canonical_key(sup) == canonical_key(gen_gkt_circ(3, t))


def test_relational_automorphisms_respect_the_support():
    rng = random.Random(77)
    for _ in range(150):
        r = random_relational(rng)
        sup = support_hypergraph(r)
        res = automorphisms_rel(r)
        for g in res.generators:
            assert is_automorphism(sup, g)


def test_widened_relation_shape_and_fixed_points():
    for k, t in [(4, 1), (5, 1), (4, 2)]:
        r = gen_hcirc(k, t)
        base = gen_r3t(t)
        assert r.arity == k
        assert r.n == base.n + (k - 3) * (3 * t + 1)
        assert r.m == base.m
        assert len(hcirc_labels(k, t)) == r.n
        res = automorphisms_rel(r)
        assert res.is_asymmetric
        for g in res.generators:
            assert all(g[v] == v for v in range(base.n, r.n))
    with pytest.raises(ValueError):
        gen_hcirc(3, 1)
    with pytest.raises(ValueError):
        gen_hcirc(4, 0)


def test_ring_families_refuse_t_below_one_alike():
    """The structure and its labels are read off one ring, so both
    refuse t = 0 with the ring's own message."""
    for build in (gen_r3t, r3t_labels, lambda t: gen_hcirc(4, t), lambda t: hcirc_labels(4, t)):
        with pytest.raises(ValueError, match=r"^need t >= 1$"):
            build(0)


def test_verify_minimal_rel_rejects_symmetric_input():
    both = RelationalStructure(2, 2, [(0, 1), (1, 0)])
    rep = verify_minimal_asymmetric_rel(both)
    assert not rep.holds
    assert rep.witness_text


def test_rel_round_trip():
    rng = random.Random(19)
    for _ in range(40):
        r = random_relational(rng)
        assert parse_rel(to_rel(r)) == r
    arc = gen_single_arc()
    text = to_rel(arc)
    assert text.splitlines()[0] == "2 1 2"
    assert parse_rel(text) == arc


def test_rel_rejects_malformed_input():
    for bad in ["", "2 2 2\n0 1\n", "2 1 2\n0 9\n", "2 1\n0 1\n"]:
        with pytest.raises(ValueError):
            parse_rel(bad)


def test_rel_rejects_duplicate_tuples():
    with pytest.raises(ValueError, match="duplicate tuple line"):
        parse_rel("3 3 2\n0 1\n1 2\n0 1\n")
    # the same entries in another order are a different tuple
    assert parse_rel("2 2 2\n0 1\n1 0\n").m == 2


def test_canonical_key_rel_is_invariant():
    rng = random.Random(21)
    for _ in range(100):
        r = random_relational(rng)
        p = list(range(r.n))
        rng.shuffle(p)
        q = RelationalStructure(
            r.n, r.arity, [tuple(p[v] for v in t) for t in r.tuples]
        )
        assert canonical_key_rel(r) == canonical_key_rel(q)


def test_find_nonidentity_rel():
    rng = random.Random(22)
    for _ in range(80):
        r = random_relational(rng)
        p = find_nonidentity_automorphism_rel(r)
        if p is None:
            assert is_asymmetric_rel(r)
        else:
            assert p != tuple(range(r.n))


def test_find_nonidentity_rel_swaps_isolated_points(monkeypatch):
    # no tuple slot is shared, so only isolated points can be swapped
    # without a search
    assert find_nonidentity_automorphism_rel(RelationalStructure(4, 2, [(0, 1), (1, 2)])) is None

    def no_search(*args, **kwargs):
        raise AssertionError("engine built although two points are isolated")

    monkeypatch.setattr(autom, "structure_engine", no_search)
    r = RelationalStructure(5, 2, [(0, 1), (1, 2)])
    p = find_nonidentity_automorphism_rel(r)
    assert p == (0, 1, 2, 4, 3)
    assert {tuple(p[v] for v in t) for t in r.tuples} == set(r.tuples)
    assert not is_asymmetric_rel(r)


def test_verify_minimal_rel_guard():
    r = gen_hcirc(5, 2)
    assert r.n == 27
    with pytest.raises(ResourceGuardError):
        verify_minimal_asymmetric_rel(r)
