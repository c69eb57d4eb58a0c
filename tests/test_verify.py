"""Subgraph-scan verifiers against definition-level oracles."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

import minasym.autom as autom_mod
import minasym.verify as verify_mod
from minasym import (
    Hypergraph,
    ResourceGuardError,
    gen_figure2,
    gen_gk,
    gen_gk_star,
    gen_gkt,
    gen_gkt_circ,
    gen_hcirc,
    gen_r3t,
    has_involution,
    is_asymmetric,
    parse_hgf,
    verify_asymmetric,
    verify_minimal_asymmetric,
    verify_minimal_asymmetric_rel,
    verify_minimal_involution_free,
    verify_strongly_minimal,
)
from util import (
    oracle_minimal_asymmetric,
    oracle_minimal_involution_free,
    oracle_strongly_minimal,
    random_uniform,
    subgraph_on,
)


def small_random(rng):
    # n=6 draws include asymmetric instances, so the scans are exercised
    # beyond the self-check; kept small for the definition-level oracle
    n = rng.choice([5, 6])
    k = rng.choice([2, 3])
    pool = list(itertools.combinations(range(n), k))
    m = rng.randrange(0, 6)
    return Hypergraph(n, rng.sample(pool, m), k=k)


def test_strongly_minimal_matches_oracle():
    rng = random.Random(2)
    for h in [gen_figure2(), gen_gkt_circ(3, 1)] + [small_random(rng) for _ in range(40)]:
        assert verify_strongly_minimal(h).holds == oracle_strongly_minimal(h), h


def test_minimal_involution_free_matches_oracle_both_variants():
    rng = random.Random(8)
    for h in [gen_figure2()] + [small_random(rng) for _ in range(40)]:
        for flag in (False, True):
            got = verify_minimal_involution_free(h, nontrivial_only=flag).holds
            assert got == oracle_minimal_involution_free(h, flag), (h, flag)


def test_minimal_asymmetric_matches_oracle():
    rng = random.Random(12)
    for h in [gen_figure2()] + [small_random(rng) for _ in range(40)]:
        assert verify_minimal_asymmetric(h).holds == oracle_minimal_asymmetric(h), h


def test_support_reduction_predicts_extended_subgraphs():
    # appending isolated vertices to a subgraph's support changes the
    # involution answer only when at least two are appended
    rng = random.Random(33)
    for _ in range(500):
        h = random_uniform(rng, n_lo=2, n_hi=7)
        if h.m == 0:
            continue
        picked = [i for i in range(h.m) if rng.getrandbits(1)]
        if not picked:
            continue
        verts = set()
        for i in picked:
            verts.update(h.edges[i])
        spare = [v for v in range(h.n) if v not in verts]
        sub = subgraph_on(sorted(verts), [h.edges[i] for i in picked])
        base = has_involution(sub) is not None
        if len(spare) >= 2:
            extended = subgraph_on(
                sorted(verts) + spare[:2], [h.edges[i] for i in picked]
            )
            assert has_involution(extended) is not None
        if len(spare) >= 1:
            extended = subgraph_on(
                sorted(verts) + spare[:1], [h.edges[i] for i in picked]
            )
            assert (has_involution(extended) is not None) == base


def test_known_family_verdicts():
    assert verify_strongly_minimal(gen_gkt_circ(3, 1)).holds
    assert verify_strongly_minimal(gen_gkt_circ(3, 2)).holds
    assert not verify_strongly_minimal(gen_gkt(3, 1)).holds
    assert verify_minimal_involution_free(gen_gk_star(5)).holds
    assert not verify_minimal_involution_free(gen_gk(5)).holds
    assert verify_minimal_asymmetric(gen_figure2()).holds


def test_asymmetric_report():
    rep = verify_asymmetric(gen_figure2())
    assert rep.holds
    assert rep.property_name == "asymmetric"
    rep = verify_asymmetric(gen_gk(4))
    assert not rep.holds
    assert "perm" in rep.witness_text


def test_failure_witness_is_replayable():
    # an asymmetric support inside an asymmetric graph, tracked down and
    # serialized so the block itself exhibits the violation
    crafted = Hypergraph(7, list(gen_figure2().edges) + [(0, 1, 6)], k=3)
    assert is_asymmetric(crafted)
    rng = random.Random(91)
    candidates = [crafted]
    for _ in range(600):
        h = random_uniform(rng, n_lo=7, n_hi=7)
        if 0 < h.m <= 8 and is_asymmetric(h):
            candidates.append(h)
    seen = 0
    for h in candidates:
        rep = verify_strongly_minimal(h)
        if rep.holds:
            continue
        seen += 1
        witness = parse_hgf(rep.witness_text)
        assert witness.n < h.n
        assert is_asymmetric(witness)
        if seen >= 5:
            break
    assert seen >= 1


def test_sampled_mode_needs_seed_and_is_deterministic():
    h = gen_gkt_circ(3, 2)
    with pytest.raises(ValueError):
        verify_strongly_minimal(h, mode="sampled")
    a = verify_strongly_minimal(h, mode="sampled", samples=300, seed=5)
    b = verify_strongly_minimal(h, mode="sampled", samples=300, seed=5)
    assert (a.holds, a.samples, a.seed) == (b.holds, b.samples, b.seed)
    assert a.mode == "sampled"
    c = verify_strongly_minimal(h, mode="sampled", samples=300, seed=5, stratified=True)
    assert c.holds


def test_sampled_mode_needs_a_sample():
    h = gen_gkt_circ(3, 1)
    for samples in (0, -4):
        with pytest.raises(ValueError, match="at least one sample"):
            verify_strongly_minimal(h, mode="sampled", samples=samples, seed=1)
    assert verify_strongly_minimal(h, samples=0).samples == 2**4 - 1  # exhaustive ignores it


def test_auto_mode_picks_exhaustive_for_small_edge_sets():
    rep = verify_strongly_minimal(gen_gkt_circ(3, 1))
    assert rep.mode == "exhaustive"
    assert rep.samples == 2**4 - 1


def test_auto_mode_refuses_unseeded_large_instances():
    pool = list(itertools.combinations(range(7), 3))
    h = Hypergraph(7, pool[:21], k=3)
    with pytest.raises(ValueError):
        verify_strongly_minimal(h)
    rep = verify_strongly_minimal(h, samples=100, seed=3)
    assert rep.mode == "sampled"


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        verify_strongly_minimal(gen_gkt_circ(3, 1), mode="guess")


def test_parallel_scan_agrees_with_serial():
    h = gen_gkt_circ(3, 2)
    serial = verify_strongly_minimal(h, workers=1)
    parallel = verify_strongly_minimal(h, workers=2)
    assert serial.holds == parallel.holds is True
    assert serial.samples == parallel.samples
    bad = Hypergraph(7, list(gen_figure2().edges) + [(0, 1, 6)], k=3)
    serial = verify_strongly_minimal(bad, workers=1)
    parallel = verify_strongly_minimal(bad, workers=2)
    assert serial.holds == parallel.holds is False
    assert serial.witness_text == parallel.witness_text
    # induced scans over vertex subsets take the same pool
    for h, holds in [(gen_gkt_circ(3, 1), True), (bad, False)]:
        serial = verify_minimal_asymmetric(h, workers=1)
        parallel = verify_minimal_asymmetric(h, workers=2)
        assert serial.holds == parallel.holds is holds
        assert serial.samples == parallel.samples
        assert serial.witness_text == parallel.witness_text


def test_strong_minimal_implies_induced_minimal():
    for h in [gen_gkt_circ(3, 1), gen_gkt_circ(3, 2)]:
        assert verify_strongly_minimal(h).holds
        assert verify_minimal_asymmetric(h).holds


def test_minimal_asymmetric_guard():
    with pytest.raises(ResourceGuardError):
        verify_minimal_asymmetric(gen_gkt(4, 2))


def test_self_check_failure_reports_perm():
    rep = verify_minimal_involution_free(gen_gk(4))
    assert not rep.holds
    assert rep.witness_text.splitlines()[-1].startswith("perm ")


def test_exhaustive_witness_is_a_fixed_point_of_the_shrink():
    # every proper sub-mask of the first violation in an ascending scan
    # is smaller, so it was scanned and found clean before
    rng = random.Random(41)
    found = {kind: 0 for kind in verify_mod._KINDS}
    for _ in range(60):
        n, k = rng.randrange(5, 8), rng.choice([2, 3])
        pool = list(itertools.combinations(range(n), k))
        h = Hypergraph(n, rng.sample(pool, rng.randrange(3, 11)), k=k)
        for kind in verify_mod._KINDS:
            subsets = verify_mod._Subsets(h.n, h.edges, False, kind)
            bad, _ = verify_mod._scan(subsets)
            if bad is None:
                continue
            found[kind] += 1
            assert subsets.test(bad) is True
            assert verify_mod._shrink(subsets, bad) == bad, (h, kind)
    assert min(found.values()) >= 10, found


def _ascending_scan(subsets):
    """The scan by definition: every mask in ascending order through
    `subsets.test`, counted as `_scan` counts them."""
    checked = 0
    for mask in range(1, subsets.full + 1):
        bad = subsets.test(mask)
        if bad is not None or not subsets.kind.induced:
            checked += 1
        if bad:
            return mask, checked
    return None, checked


def _seventy_five_edges():
    pool = list(itertools.combinations(range(10), 3))
    return Hypergraph(10, random.Random(1).sample(pool, 75), k=3)


def test_twin_sieve_scan_matches_the_ascending_loop(monkeypatch):
    fired = {kind: 0 for kind in verify_mod._KINDS.values()}  # masks the swap sieve drops
    sieve = verify_mod._swap_fixed

    def counting(tables, m, picks):
        fixed = sieve(tables, m, picks)
        fired[subsets.kind] += int(fixed.sum())  # the scan under way
        return fixed

    monkeypatch.setattr(verify_mod, "_swap_fixed", counting)
    rng = random.Random(73)
    structures = []
    for _ in range(300):
        n = rng.randrange(3, 9)
        pool = [e for size in (1, 2, 3) for e in itertools.combinations(range(n), size)]
        structures.append((n, rng.sample(pool, rng.randrange(0, min(len(pool), 8) + 1)), False))
    for _ in range(150):  # tuples may repeat a point; twins are isolated pairs only
        n, arity = rng.randrange(2, 8), rng.randrange(1, 4)
        pool = list(itertools.product(range(n), repeat=arity))
        structures.append((n, rng.sample(pool, rng.randrange(0, min(len(pool), 9) + 1)), True))
    for _ in range(60):  # r3t-like tuple pairs, gkt-circ-like edge pairs: swaps inside edges
        n, tuples, edges = rng.randrange(4, 9), set(), set()
        for _ in range(rng.randrange(1, 5)):
            u, v, w, x = rng.sample(range(n), 4)
            tuples |= {(u, v, w), (v, u, w)}
            edges |= {tuple(sorted((u, v, w))), tuple(sorted((u, v, x)))}
        structures += [(n, sorted(tuples), True), (n, sorted(edges), False)]
    # vertex masks wider than one int64 word
    structures.append((70, rng.sample(list(itertools.combinations(range(70), 3)), 9), False))
    found = {(kind, ordered): 0 for kind in verify_mod._KINDS for ordered in (False, True)}
    for n, edges, ordered in structures:
        for kind in verify_mod._KINDS if n <= 20 else ("strong", "invfree"):
            subsets = verify_mod._Subsets(n, edges, ordered, kind)
            expected = _ascending_scan(subsets)
            assert verify_mod._scan(subsets) == expected, (n, edges, ordered, kind)
            found[kind, ordered] += expected[0] is not None
    assert min(found.values()) >= 20, found
    assert min(fired.values()) >= 100, fired
    # induced rows over two and three words; at mask 254 of the 4-graph
    # two vertices agree on the first word only
    pool = list(itertools.combinations(range(10), 4))
    rng = random.Random(9)
    wide = Hypergraph(10, rng.sample(pool, rng.randrange(63, len(pool))), k=4)
    for h, expected in ((_seventy_five_edges(), (63, 57)), (wide, (254, 246))):
        subsets = verify_mod._Subsets(h.n, h.edges, False, "induced")
        assert verify_mod._scan(subsets) == _ascending_scan(subsets) == expected


def _tested_masks(monkeypatch):
    """The masks that reach `_Subsets.test` from now on."""
    tested = []
    test = verify_mod._Subsets.test

    def recording(self, mask):
        tested.append(mask)
        return test(self, mask)

    monkeypatch.setattr(verify_mod._Subsets, "test", recording)
    return tested


def test_swap_sieve_finds_a_swap_inside_tuples(monkeypatch):
    # {0, 1} carries the arcs (0, 1) and (1, 0): swapping 0 and 1 fixes
    # both, and no two points are twins.  {0, 2} has two isolated points,
    # and {1, 2} the asymmetric arc (1, 2), the first violation.
    subsets = verify_mod._Subsets(3, [(0, 1), (1, 0), (1, 2)], True, "induced")
    tables = verify_mod._swap_tables(3, subsets.edges, True)
    fixed = verify_mod._swap_fixed(tables, 3, np.array([[0b011], [0], [0b100]]))
    assert fixed.tolist() == [True, False, False]
    expected = _ascending_scan(subsets)
    tested = _tested_masks(monkeypatch)
    assert verify_mod._scan(subsets) == expected == (6, 3)
    assert tested == [6]


def test_induced_rel_r3t_reaches_the_engine_once(monkeypatch):
    """512 of the sub-structures without twins have a transposition
    automorphism through tuple points; the swap sieve settles them."""
    tested = _tested_masks(monkeypatch)
    rep = verify_minimal_asymmetric_rel(gen_r3t(2))
    assert (rep.holds, rep.samples) == (True, 2**13 - 15)
    assert len(tested) <= 1, len(tested)


@pytest.mark.parametrize(
    "family,params,kind,samples",
    [
        ("gkt-circ", (3, 5), "strong", 2**16 - 1),
        ("gkt-circ", (4, 3), "strong", 2**16 - 1),
        *(("gk-star", (k,), "invfree-nontrivial", 2 ** (k + 1) - 1) for k in range(8, 12)),
        ("gkt-circ", (3, 3), "induced", 524_267),
        ("r3t", (2,), "induced-rel", 8_177),
    ],
)
def test_certificate_scans_reach_the_engine_once(monkeypatch, family, params, kind, samples):
    """The certificates of the benchmark's certify workload: the twin and
    swap sieves settle every mask but one, which the engine decides."""
    structure = {"gkt-circ": gen_gkt_circ, "gk-star": gen_gk_star, "r3t": gen_r3t}[family](*params)
    verify = {
        "strong": lambda s: verify_strongly_minimal(s, mode="exhaustive"),
        "invfree-nontrivial": lambda s: verify_minimal_involution_free(
            s, mode="exhaustive", nontrivial_only=True
        ),
        "induced": verify_minimal_asymmetric,
        "induced-rel": verify_minimal_asymmetric_rel,
    }[kind]
    tested = _tested_masks(monkeypatch)
    rep = verify(structure)
    assert (rep.holds, rep.samples) == (True, samples)
    assert len(tested) == 1, len(tested)


def test_swap_tables_hold_only_swaps_that_may_fix_a_survivor(monkeypatch):
    """A swap (a b) fixes a pick only if a is in its support and as many
    picked edges meet a as b: tables over those swaps fix the same picks
    as tables over all, and the gk-star certificates keep k - 1 swaps."""
    rng = random.Random(12)
    fixed = dropped = 0
    for _ in range(300):
        n, ordered = rng.randrange(4, 9), rng.random() < 0.5
        edges = _seeded(rng, n, rng.randrange(1, 10), ordered, 2)
        picks = np.array([[rng.getrandbits(len(edges))] for _ in range(2)], dtype=np.int64)
        inc = verify_mod._Subsets(n, edges, ordered, "strong").incidence()
        keep = verify_mod._swap_candidates(picks, inc)
        every, kept = (
            verify_mod._swap_fixed(tables, len(edges), picks)
            for tables in (
                verify_mod._swap_tables(n, edges, ordered),
                verify_mod._swap_tables(n, edges, ordered, keep),
            )
        )
        assert (every == kept).all(), (n, edges, ordered)
        fixed += int(every.sum())
        dropped += int((~keep)[np.triu_indices(len(keep), 1)].sum())
    assert fixed >= 200 and dropped >= 1000, (fixed, dropped)
    built = []  # (swaps in the tables, all swaps) per build
    build = verify_mod._swap_tables

    def recording(n, edges, ordered, keep=None):
        built.append((int(np.triu(keep, 1).sum()), len(keep) * (len(keep) - 1) // 2))
        return build(n, edges, ordered, keep)

    monkeypatch.setattr(verify_mod, "_swap_tables", recording)
    for k in range(8, 12):
        built.clear()
        h = gen_gk_star(k)
        assert verify_minimal_involution_free(h, mode="exhaustive", nontrivial_only=True).holds
        assert built == [(k - 1, (2 * k) * (2 * k - 1) // 2)], built


def test_later_blocks_append_only_the_swaps_the_tables_lack(monkeypatch):
    """The r3t(2) certificate's survivors lie in both of its blocks: the
    first builds tables over 66 swaps, the second over the 12 of all 78
    that it needs and they lack, appended to the first's rows."""
    built = []  # (swaps in the tables, all swaps) per build
    build = verify_mod._swap_tables

    def recording(n, edges, ordered, keep=None):
        built.append((int(np.triu(keep, 1).sum()), len(keep) * (len(keep) - 1) // 2))
        return build(n, edges, ordered, keep)

    monkeypatch.setattr(verify_mod, "_swap_tables", recording)
    tested = _tested_masks(monkeypatch)
    rep = verify_minimal_asymmetric_rel(gen_r3t(2))
    assert (rep.holds, rep.samples) == (True, 2**13 - 15)
    assert built == [(66, 78), (12, 78)], built
    assert len(tested) == 1, len(tested)


def test_swap_sieve_chunks_its_temporaries(monkeypatch):
    """Over a thousand masks of one block survive the twin sieve, but
    the swap sieve takes them in chunks: the scan's peak stays below
    2 MiB, where one pass over all of them would hold about 8 MB of
    mask × swap × edge bools per temporary."""
    pool = list(itertools.combinations(range(16), 3))
    h = Hypergraph(16, random.Random(3).sample(pool, 120), k=3)
    subsets = verify_mod._Subsets(h.n, h.edges, False, "induced")
    sieved = []  # masks per call of the swap sieve
    sieve = verify_mod._swap_fixed

    def counting(tables, subsets, masks):
        sieved.append(len(masks))
        return sieve(tables, subsets, masks)

    monkeypatch.setattr(verify_mod, "_swap_fixed", counting)
    verify_mod._scan(subsets)
    sieved.clear()
    tracemalloc.start()
    try:
        result = verify_mod._scan(subsets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (63, 57)
    assert sieved and sieved[0] >= 1000, sieved
    assert peak < 1 << 21, peak


def _high_anchored(rng, n, ordered, anchored):
    """Seeded edges on n vertices; when anchored, each meets a vertex past
    11, so no induced part inside the first 2^12 masks has an edge."""
    def edge(size):
        e = rng.sample(range(n), size)
        if anchored and max(e) < 12:
            e[rng.randrange(size)] = rng.randrange(12, n)
        return tuple(e) if ordered else tuple(sorted(e))

    edges = set()
    for _ in range(rng.randrange(4, 13)):
        e = edge(2 if ordered else rng.choice((2, 3)))
        edges.add(e)
        if ordered and rng.random() < 0.5:  # some pairs both ways
            edges.add(e[::-1])
    return sorted(edges)


def test_multi_block_induced_scans_match_the_ascending_loop():
    # n = 13..15 makes 2 to 8 blocks of 2^12 vertex masks
    rng = random.Random(57)
    outcomes = {"holds": 0, "first block": 0, "past it": 0}
    for n in (13, 14, 15):
        for ordered in (False, True):
            for anchored in (False, True, True):
                edges = _high_anchored(rng, n, ordered, anchored)
                subsets = verify_mod._Subsets(n, edges, ordered, "induced")
                blocks = list(verify_mod._vertex_blocks(subsets))
                step = len(blocks[0][0])
                assert step == 1 << 12 and len(blocks) == 1 << (n - 12)
                masks, size, twins, _ = (np.concatenate(part) for part in zip(*blocks))
                assert (masks == np.arange(1 << n)).all()
                # each side of every block boundary against the sub-structure itself
                for mask in (b + side for b in range(step, 1 << n, step) for side in (-1, 0)):
                    _, sub_n, sub_edges = subsets.sub(*subsets.pick(mask))
                    swap = autom_mod._twin_swap(autom_mod._incidence(sub_n, sub_edges, ordered))
                    assert (size[mask], twins[mask]) == (mask.bit_count(), swap is not None)
                expected = _ascending_scan(subsets)
                assert verify_mod._scan(subsets) == expected, (n, edges, ordered)
                bad = expected[0]
                outcomes["holds" if bad is None else "first block" if bad < step else "past it"] += 1
                if anchored and bad is not None:
                    assert bad >= step
    assert min(outcomes.values()) >= 2, outcomes


def _wide_four_graph():
    """The 4-graph on 10 vertices over two to four words of edges of
    `test_twin_sieve_scan_matches_the_ascending_loop`."""
    pool = list(itertools.combinations(range(10), 4))
    rng = random.Random(9)
    return Hypergraph(10, rng.sample(pool, rng.randrange(63, len(pool))), k=4)


def _seeded(rng, n, m, ordered, arity=3):
    """m distinct seeded edges on n vertices: tuples of `arity` points
    (a point may repeat) when ordered, else sets of 2 or 3 vertices."""
    if ordered:
        pool = list(itertools.product(range(n), repeat=arity))
    else:
        pool = [e for size in (2, 3) for e in itertools.combinations(range(n), size)]
    return sorted(rng.sample(pool, m))


def test_block_verdicts_match_the_twin_swap_on_every_mask():
    """Every mask's (size, twins) from the scan blocks against a twin swap
    of its sub-structure (an edge mask's is on its support): edge scans
    in one and in two blocks, induced scans over m <= 16 edges (one
    verdict table) and over more (distinct picks per block), over one
    and over several int64 words of edges."""
    rng = random.Random(38)
    cases = [
        (9, _seeded(rng, 9, 12, False), False, "strong"),
        (6, _seeded(rng, 6, 17, False), False, "strong"),  # 2^17 - 1 masks, two blocks
        (6, _seeded(rng, 6, 12, True, 2), True, "invfree"),
        (12, _seeded(rng, 12, 14, False), False, "induced"),  # verdict table
        (11, _seeded(rng, 11, 16, True, 2), True, "induced"),
        (14, _seeded(rng, 14, 30, False), False, "induced"),  # distinct picks, four blocks
        (10, _seeded(rng, 10, 40, True, 2), True, "induced"),
        (9, _seeded(rng, 9, 70, True), True, "induced"),  # two words
        (10, _seventy_five_edges().edges, False, "induced"),  # two words
        (10, _wide_four_graph().edges, False, "induced"),  # mask 254: agree on word 0 only
    ]
    for n, edges, ordered, kind in cases:
        subsets = verify_mod._Subsets(n, edges, ordered, kind)
        blocks = verify_mod._vertex_blocks if subsets.kind.induced else verify_mod._edge_blocks
        masks, size, twins, _ = (np.concatenate(part) for part in zip(*blocks(subsets)))
        first = 0 if subsets.kind.induced else 1
        assert (masks == np.arange(first, subsets.full + 1)).all()
        expected_size, expected_twins = [], []
        for mask in range(first, subsets.full + 1):
            _, sub_n, sub_edges = subsets.sub(*subsets.pick(mask))
            expected_size.append(sub_n)
            inc = autom_mod._incidence(sub_n, sub_edges, ordered)
            expected_twins.append(autom_mod._twin_swap(inc) is not None)
        assert size.tolist() == expected_size, (n, edges, ordered)
        assert twins.tolist() == expected_twins, (n, edges, ordered)
        # both verdicts occur, except in ordered edge scans, which have no twins
        assert set(expected_twins) == ({False} if ordered and kind != "induced" else {False, True})


def test_induced_scan_adds_no_full_space_temporary():
    """Under one byte a mask: the peak of a certificate that scans all
    2^20 vertex subsets stays below 2^20 bytes."""
    r = gen_hcirc(4, 2)
    assert r.n == 20
    verify_minimal_asymmetric(gen_gkt_circ(3, 1))
    tracemalloc.start()
    try:
        rep = verify_minimal_asymmetric_rel(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.holds, rep.samples) == (True, 2**20 - 22)
    assert peak < 1 << 20, peak


def test_wide_induced_scan_and_the_edge_scan_guard():
    h = _seventy_five_edges()
    rep = verify_minimal_asymmetric(h)
    assert (rep.holds, rep.samples) == (False, 57)
    # exhaustive edge scans stop at 62 edges, one int64 word
    with pytest.raises(ResourceGuardError):
        verify_strongly_minimal(h, mode="exhaustive")
    with pytest.raises(ResourceGuardError):
        verify_mod._scan(verify_mod._Subsets(h.n, h.edges[:63], False, "strong"))


@pytest.mark.parametrize("k,t", [(3, 6), (4, 4), (3, 7), (5, 3)])
def test_exhaustive_strong_minimality_certificates(k, t):
    h = gen_gkt_circ(k, t)
    rep = verify_strongly_minimal(h, mode="exhaustive")
    assert rep.holds
    assert rep.samples == 2**h.m - 1
