"""Hypergraph container, subgraph operations, and the HGF format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minasym import (
    Hypergraph,
    automorphisms,
    degree,
    degrees,
    induced_sub,
    is_automorphism,
    is_k_uniform,
    parse_hgf,
    parse_hgf_stream,
    relabel,
    serialize_labels,
    set_complement,
    to_hgf,
    to_hgf_stream,
)
from util import random_mixed, random_uniform


def test_normalization_sorts_and_dedupes():
    h = Hypergraph(5, [(3, 1, 0), (0, 1, 3), (4, 2, 0)])
    assert h.edges == ((0, 1, 3), (0, 2, 4))
    assert h.m == 2
    assert h.k == 3


def test_uniformity_inference_and_tag():
    assert Hypergraph(4, [(0, 1)]).k == 2
    assert Hypergraph(4, [(0, 1), (0, 1, 2)]).k is None
    assert Hypergraph(4, [], k=3).k == 3
    with pytest.raises(ValueError):
        Hypergraph(4, [(0, 1)], k=3)
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        Hypergraph(3, [()])
    with pytest.raises(ValueError):
        Hypergraph(-1)


def test_degrees_sum_to_total_incidence():
    rng = random.Random(3)
    for _ in range(50):
        h = random_mixed(rng)
        ds = degrees(h)
        assert sum(ds) == sum(len(e) for e in h.edges)
        for v in range(h.n):
            assert ds[v] == degree(h, v)


def test_set_complement_is_an_involution():
    rng = random.Random(4)
    for _ in range(60):
        h = random_uniform(rng)
        if h.k >= h.n:
            with pytest.raises(ValueError):
                set_complement(h)
            continue
        c = set_complement(h)
        assert c.k == h.n - h.k
        assert c.m == h.m
        assert set_complement(c) == h


def test_set_complement_preserves_group_order():
    rng = random.Random(5)
    for _ in range(40):
        h = random_uniform(rng)
        if h.k >= h.n:
            continue
        assert (
            automorphisms(h).group_order
            == automorphisms(set_complement(h)).group_order
        )


def test_set_complement_flips_degrees():
    h = Hypergraph(5, [(0, 1), (1, 2), (2, 3)])
    c = set_complement(h)
    for v in range(5):
        assert degree(c, v) == h.m - degree(h, v)


def test_induced_sub_keeps_contained_edges():
    h = Hypergraph(6, [(0, 1, 2), (1, 3, 4), (2, 3, 4)])
    sub = induced_sub(h, [1, 2, 3, 4])
    assert sub.n == 4
    assert sub.edges == ((0, 2, 3), (1, 2, 3))
    assert induced_sub(h, range(6)) == h
    assert induced_sub(h, []).n == 0


def test_relabel_and_is_automorphism():
    h = Hypergraph(4, [(0, 1), (1, 2)])
    p = (3, 2, 1, 0)
    assert relabel(h, p) == Hypergraph(4, [(2, 3), (1, 2)])
    assert not is_automorphism(h, p)
    assert is_automorphism(h, (2, 1, 0, 3))
    with pytest.raises(ValueError):
        relabel(h, (0, 1, 2))


def test_hgf_round_trip_fixed():
    h = Hypergraph(6, [(0, 1, 2), (1, 3, 4), (1, 3, 5), (2, 3, 4)], k=3)
    text = to_hgf(h)
    assert text.splitlines()[0] == "6 4 3"
    assert text.endswith("\n")
    assert parse_hgf(text) == h


def test_hgf_non_uniform_header_zero():
    h = Hypergraph(4, [(0, 1), (0, 1, 2)])
    text = to_hgf(h)
    assert text.splitlines()[0] == "4 2 0"
    assert parse_hgf(text) == h


def test_hgf_ignores_comments_and_blanks():
    text = "# a comment\n\n3 1 2\n  # indented comment\n0 2\n\n"
    assert parse_hgf(text) == Hypergraph(3, [(0, 2)])


def test_hgf_rejects_malformed_input():
    for bad in ["", "# only comments\n", "3 2 2\n0 1\n", "3 1 2\n0 9\n", "x y z\n0 1\n"]:
        with pytest.raises(ValueError):
            parse_hgf(bad)


def test_hgf_rejects_negative_k():
    with pytest.raises(ValueError, match="bad HGF header"):
        parse_hgf("3 1 -2\n0 1\n")
    assert parse_hgf("3 2 0\n0 1\n0 1 2\n").k is None  # 0: mixed edge sizes


def test_hgf_stream_round_trip():
    rng = random.Random(6)
    graphs = [random_uniform(rng) for _ in range(5)]
    text = to_hgf_stream(graphs)
    assert parse_hgf_stream(text) == graphs
    assert parse_hgf_stream("") == []


def test_hgf_stream_splits_on_whole_separator_lines_only():
    a, b = Hypergraph(3, [(0, 1)]), Hypergraph(4, [(0, 1, 2)])
    text = "# first --- of two\n" + to_hgf(a) + "---\n# second---\n" + to_hgf(b)
    assert parse_hgf_stream(text) == [a, b]


def test_hgf_rejects_duplicate_edges():
    with pytest.raises(ValueError, match="duplicate edge line"):
        parse_hgf("3 2 2\n0 1\n0 1\n")


def test_serialize_labels():
    assert serialize_labels(["u0", "x"]) == "0 u0\n1 x\n"


@settings(max_examples=60)
@given(data=st.data())
def test_hgf_round_trip_random(data):
    n = data.draw(st.integers(0, 8))
    pool = [
        tuple(sorted(e))
        for e in data.draw(
            st.lists(
                st.lists(st.integers(0, max(n - 1, 0)), min_size=1, max_size=4, unique=True),
                max_size=8,
            )
        )
        if n > 0
    ]
    h = Hypergraph(n, pool)
    assert parse_hgf(to_hgf(h)) == h
