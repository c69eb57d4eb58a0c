"""Named families: vertex/edge counts, symmetry status, and witnesses."""

import pytest

from minasym import (
    automorphisms,
    automorphisms_stabilizing,
    build_family,
    canonical_form,
    degrees,
    gen_asym_witness_2graph,
    gen_figure2,
    gen_gk,
    gen_gk_star,
    gen_gks,
    gen_gkt,
    gen_gkt_circ,
    gk_reflection,
    has_involution,
    is_asymmetric,
    is_automorphism,
    is_k_uniform,
    tilde,
    tilde_labels,
    to_hgf,
)


def test_ring_counts_follow_the_formula():
    for k, t in [(3, 1), (3, 2), (3, 5), (4, 2), (4, 3), (5, 3), (6, 4)]:
        g = gen_gkt(k, t)
        assert g.n == t * k * (k - 1)
        assert g.m == t * (2 * k - 3)
        assert is_k_uniform(g, k)


def test_ring_frozen_counts():
    assert (gen_gkt(3, 1).n, gen_gkt(3, 1).m) == (6, 3)
    assert (gen_gkt(4, 2).n, gen_gkt(4, 2).m) == (24, 10)


def test_ring_is_symmetric_with_rotation_witness():
    for k, t in [(3, 1), (3, 3), (4, 2), (5, 3)]:
        build = build_family("gkt", k=k, t=t)
        g, labels = build.graph, list(build.labels)
        index = {name: i for i, name in enumerate(labels)}
        ring = t * k
        shift = 1 if k == 3 else k
        p = [0] * g.n
        for i in range(ring):
            p[index[f"u{i}"]] = index[f"u{(i + shift) % ring}"]
            for j in range(k - 2):
                p[index[f"v{j}_{i}"]] = index[f"v{j}_{(i + shift) % ring}"]
        assert is_automorphism(g, tuple(p))
        assert not is_asymmetric(g)


def test_anchored_ring_counts_and_asymmetry():
    for k, t in [(3, 1), (3, 2), (4, 2)]:
        g = gen_gkt_circ(k, t)
        base = gen_gkt(k, t)
        assert g.n == base.n + 1
        assert g.m == base.m + 1
        assert is_k_uniform(g, k)
        assert is_asymmetric(g)
    assert (gen_gkt_circ(3, 1).n, gen_gkt_circ(3, 1).m) == (7, 4)


def test_ring_validation():
    with pytest.raises(ValueError):
        gen_gkt(2, 5)
    with pytest.raises(ValueError):
        gen_gkt(4, 1)
    with pytest.raises(ValueError):
        gen_gkt_circ(5, 2)


def test_interval_family_shape_and_group():
    for k in range(4, 9):
        g = gen_gk(k)
        assert (g.n, g.m) == (2 * k - 1, k)
        assert is_k_uniform(g, k)
        res = automorphisms(g)
        assert res.group_order == 2
        refl = gk_reflection(k)
        assert is_automorphism(g, refl)
        assert res.involution_witness == refl
    with pytest.raises(ValueError):
        gen_gk(3)


def test_interval_tail_pair_stabilizer_is_trivial():
    for k in range(4, 9):
        g = gen_gk(k)
        res = automorphisms_stabilizing(g, [g.n - 2, g.n - 1])
        assert res.group_order == 1


def test_pendant_interval_family():
    for k in range(4, 9):
        g = gen_gk_star(k)
        assert (g.n, g.m) == (2 * k, k + 1)
        assert is_k_uniform(g, k)
        assert is_asymmetric(g)
        assert set(gen_gk(k).edges) <= set(g.edges)
    assert (gen_gk_star(4).n, gen_gk_star(4).m) == (8, 5)
    with pytest.raises(ValueError):
        gen_gk_star(3)


def test_layered_family_counts_and_degree_bound():
    g0 = gen_gks(6, 0)
    assert (g0.n, g0.m) == (63, 35)
    g1 = gen_gks(6, 1)
    assert (g1.n, g1.m) == (263, 145)
    g7 = gen_gks(7, 0)
    assert (g7.n, g7.m) == (88, 48)
    for g, k in [(g0, 6), (g1, 6), (g7, 7)]:
        assert is_k_uniform(g, k)
        assert max(degrees(g)) <= k
    assert is_asymmetric(g0)
    with pytest.raises(ValueError):
        gen_gks(5, 0)
    with pytest.raises(ValueError):
        gen_gks(6, -1)


def test_figure2_instance():
    g = gen_figure2()
    assert (g.n, g.m) == (6, 4)
    assert g.edges == ((0, 1, 2), (1, 3, 4), (1, 3, 5), (2, 3, 4))
    assert degrees(g) == (1, 3, 2, 3, 2, 1)
    assert is_asymmetric(g)


def test_tilde_widens_each_edge_privately():
    base = gen_gk(4)
    t = tilde(base)
    assert t.n == base.n + 2 * base.m
    assert t.m == base.m
    assert t.k == base.k + 2
    ds = degrees(t)
    for v in range(base.n):
        assert ds[v] == degrees(base)[v]
    for v in range(base.n, t.n):
        assert ds[v] == 1
    # the private pair of any edge can be swapped in place
    assert has_involution(t) is not None


def test_tilde_labels_append_pairs():
    labels = tilde_labels(["a", "b"], 2)
    assert labels[:2] == ["a", "b"]
    assert len(labels) == 6


def test_asym_witness_smallest_cases():
    for n in range(2, 6):
        assert gen_asym_witness_2graph(n) is None
    frozen = {6: 6, 7: 6, 8: 6, 9: 7}
    for n, m in frozen.items():
        w = gen_asym_witness_2graph(n)
        assert w is not None
        assert (w.n, w.k) == (n, 2)
        assert w.m == m
        assert is_asymmetric(w)
    with pytest.raises(ValueError):
        gen_asym_witness_2graph(0)


def test_asym_witness_is_its_own_canonical_form():
    # so it does not depend on the representative augmentation keeps
    for n in range(6, 10):
        w = gen_asym_witness_2graph(n)
        assert canonical_form(w) == w


def test_generators_are_deterministic():
    assert to_hgf(gen_gks(6, 0)) == to_hgf(gen_gks(6, 0))
    assert to_hgf(gen_gkt_circ(3, 2)) == to_hgf(gen_gkt_circ(3, 2))


def test_build_family_dispatch_and_errors():
    assert build_family("figure2").graph == gen_figure2()
    assert build_family("gk", k=5).graph == gen_gk(5)
    assert len(build_family("gkt", k=3, t=1).labels) == 6
    with pytest.raises(ValueError):
        build_family("gkt", k=3)
    with pytest.raises(ValueError):
        build_family("nope")
    with pytest.raises(ValueError):
        build_family("asym-witness", n=4)
