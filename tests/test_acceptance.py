"""Acceptance gate: thirteen numbered criteria, one test per criterion.

Each test prints a single `criterion NN PASS` line with its elapsed
time and asserts the pinned runtime budget.  Run with `pytest -v` for
the per-criterion verdict lines.
"""

import random
import time
from contextlib import contextmanager

from minasym import (
    automorphisms,
    automorphisms_rel,
    automorphisms_stabilizing,
    brute_force_automorphisms,
    classes_by_edge_count,
    degrees,
    gen_asym_witness_2graph,
    gen_figure2,
    gen_gk,
    gen_gk_star,
    gen_gks,
    gen_gkt_circ,
    gen_hcirc,
    gen_r3t,
    gen_single_arc,
    gk_reflection,
    is_asymmetric,
    is_asymmetric_rel,
    is_critical_asymmetric,
    min_asymmetric_order,
    multiplicity,
    scan_classes,
    set_complement,
    verify_lemma_all_symmetric,
    verify_minimal_asymmetric_rel,
    verify_minimal_involution_free,
    verify_strongly_minimal,
)
from util import random_uniform


@contextmanager
def budget(number: int, seconds: float, message: str):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"criterion {number} exceeded {seconds}s: {elapsed:.1f}s"
    print(f"criterion {number:02d} PASS ({elapsed:.2f}s < {seconds:g}s): {message}")


def test_criterion_01_all_3graphs_on_5_vertices_symmetric():
    with budget(1, 1, "all 1024 labeled 3-graphs on 5 vertices are symmetric"):
        scan = verify_lemma_all_symmetric(3, 5)
        assert scan.all_symmetric
        assert scan.total_labeled == 1024
        assert scan.scanned == 1024
        assert scan.witness is None


def test_criterion_02_explicit_asymmetric_3graph_on_6_vertices():
    with budget(2, 1, "the 6-vertex 3-graph with degrees (1,3,2,3,2,1) is asymmetric"):
        h = gen_figure2()
        assert (h.n, h.m, h.k) == (6, 4, 3)
        assert degrees(h) == (1, 3, 2, 3, 2, 1)
        assert is_asymmetric(h)


def test_criterion_03_kgraphs_on_kplus1_vertices_all_symmetric():
    with budget(3, 1, "for k=3..8 every k-graph on k+1 vertices is symmetric"):
        for k in range(3, 9):
            scan = verify_lemma_all_symmetric(k, k + 1)
            assert scan.all_symmetric
            assert scan.total_labeled == 1 << (k + 1)
            assert scan.scanned == 1 << (k + 1)


def test_criterion_04_complement_witnesses_on_kplus2_vertices():
    with budget(
        4, 30, "for k=4..8 complementing a 2-graph witness gives an "
        "asymmetric k-graph on k+2 vertices; group order is complement-invariant"
    ):
        for k in range(4, 9):
            w2 = gen_asym_witness_2graph(k + 2)
            assert w2 is not None
            assert (w2.n, w2.k) == (k + 2, 2)
            assert is_asymmetric(w2)
            dual = set_complement(w2)
            assert (dual.n, dual.k) == (k + 2, k)
            assert is_asymmetric(dual)
        rng = random.Random(4)
        for _ in range(100):
            h = random_uniform(rng, n_lo=3, n_hi=8)
            while h.k >= h.n:
                h = random_uniform(rng, n_lo=3, n_hi=8)
            assert automorphisms(h).group_order == automorphisms(set_complement(h)).group_order


def test_criterion_05_least_asymmetric_graph_order_is_6():
    with budget(
        5, 10, "2-graphs on up to 5 vertices are all symmetric; "
        "an asymmetric one exists on 6"
    ):
        for n in range(2, 6):
            scan = verify_lemma_all_symmetric(2, n)
            assert scan.all_symmetric
            assert scan.scanned == scan.total_labeled == 1 << (n * (n - 1) // 2)
        scan6 = verify_lemma_all_symmetric(2, 6)
        assert scan6.total_labeled == 1 << 15
        assert not scan6.all_symmetric
        assert is_asymmetric(scan6.witness)
        order, witness = min_asymmetric_order(2, 6)
        assert order == 6
        assert witness.n == 6 and is_asymmetric(witness)


def test_criterion_06_interval_family_group_is_the_reflection():
    with budget(
        6, 5, "for k=4..8 the sliding-window graph has exactly the "
        "end-to-end reflection; the tail pair has trivial setwise stabilizer"
    ):
        for k in range(4, 9):
            h = gen_gk(k)
            res = automorphisms(h)
            assert res.group_order == 2
            assert res.involution_witness == gk_reflection(k)
            tail = [h.n - 2, h.n - 1]
            assert automorphisms_stabilizing(h, tail).group_order == 1


def test_criterion_07_pendant_family_minimal_involution_free():
    with budget(
        7, 30, "for k=4..8 the pendant graph is asymmetric and every "
        "non-trivial sub-k-graph has an involution (exhaustive)"
    ):
        for k in range(4, 9):
            h = gen_gk_star(k)
            assert is_asymmetric(h)
            rep = verify_minimal_involution_free(
                h, mode="exhaustive", nontrivial_only=True
            )
            assert rep.holds
            assert rep.samples == (1 << (k + 1)) - 1


def test_criterion_08_anchored_rings_strongly_minimal():
    with budget(
        8, 120, "anchored rings (3,1),(3,2),(3,3),(4,2),(4,3) are "
        "strongly minimal asymmetric (exhaustive)"
    ):
        for k, t in [(3, 1), (3, 2), (3, 3), (4, 2), (4, 3)]:
            h = gen_gkt_circ(k, t)
            rep = verify_strongly_minimal(h, mode="exhaustive")
            assert rep.holds, (k, t)
            assert rep.samples == (1 << h.m) - 1


def test_criterion_09_layered_family_sampled_involution_minimality():
    with budget(
        9, 600, "the 63- and 263-vertex layered 6-graphs are asymmetric; "
        "10^4 seeded non-trivial sub-6-graphs of each admit an involution"
    ):
        for s, n_expected in [(0, 63), (1, 263)]:
            h = gen_gks(6, s)
            assert h.n == n_expected
            assert is_asymmetric(h)
            rep = verify_minimal_involution_free(
                h, mode="sampled", samples=10**4, seed=1, nontrivial_only=True
            )
            assert rep.holds
            assert rep.samples == 10**4


def test_criterion_10_engine_agrees_with_brute_force():
    with budget(
        10, 300, "on 1000 random hypergraphs (n <= 7) the engine matches "
        "the factorial oracle on order, asymmetry, involutions, stabilizers"
    ):
        rng = random.Random(10)
        for _ in range(1000):
            h = random_uniform(rng, n_lo=2, n_hi=7)
            fast = automorphisms(h)
            slow = brute_force_automorphisms(h)
            assert fast.group_order == slow.group_order
            assert (fast.group_order == 1) == is_asymmetric(h)
            assert (fast.involution_witness is None) == (
                slow.involution_witness is None
            )
            pair = rng.sample(range(h.n), 2)
            stab = automorphisms_stabilizing(h, pair)
            brute_stab = sum(
                1
                for p in _all_perm_automorphisms(h)
                if {p[pair[0]], p[pair[1]]} == set(pair)
            )
            assert stab.group_order == brute_stab


def _all_perm_automorphisms(h):
    import itertools

    from minasym import is_automorphism

    return [
        p
        for p in itertools.permutations(range(h.n))
        if is_automorphism(h, p)
    ]


def test_criterion_11_ternary_relations_and_their_widenings():
    with budget(
        11, 120, "the 7- and 13-point ternary relations have multiplicity 2, "
        "are asymmetric and minimal; the widened variants are asymmetric "
        "with every extra point fixed"
    ):
        for t in (1, 2):
            r = gen_r3t(t)
            assert multiplicity(r) == 2
            assert is_asymmetric_rel(r)
            assert verify_minimal_asymmetric_rel(r).holds
        for k, t in [(4, 1), (5, 1)]:
            r = gen_hcirc(k, t)
            base_n = gen_r3t(t).n
            res = automorphisms_rel(r)
            assert res.group_order == 1
            for g in res.generators:
                assert all(g[w] == w for w in range(base_n, r.n))


def test_criterion_12_single_arc_relation():
    with budget(
        12, 1, "the single directed arc is asymmetric, multiplicity 1, "
        "minimal, and critical"
    ):
        r = gen_single_arc()
        assert is_asymmetric_rel(r)
        assert multiplicity(r) == 1
        assert verify_minimal_asymmetric_rel(r).holds
        assert is_critical_asymmetric(r) == (True, None)


def test_criterion_13_two_enumeration_strategies_agree():
    with budget(
        13, 300, "scan-dedup and canonical-augmentation class counts agree "
        "at (2,5), (2,6), (3,5), (3,6)"
    ):
        for k, n in [(2, 5), (2, 6), (3, 5), (3, 6)]:
            census = scan_classes(k, n)
            by_count = sum(
                len(reps) for _, reps in classes_by_edge_count(n, k)
            )
            assert census.iso_classes == by_count, (k, n)
