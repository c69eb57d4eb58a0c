"""Labeled-space scans and class enumeration."""

import dataclasses
import hashlib
import itertools
import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from minasym import (
    Hypergraph,
    ResourceGuardError,
    canonical_key,
    classes_by_edge_count,
    degrees,
    enumerate_k_graphs,
    find_minimal_asymmetric,
    gen_figure2,
    is_asymmetric,
    is_automorphism,
    min_asymmetric_order,
    scan_classes,
    transposition,
    verify_lemma_all_symmetric,
)

import minasym.autom as autom_mod
import minasym.search as search_mod
from minasym.search import _CHUNK
from util import oracle_automorphisms, oracle_nonidentity, perm_image, sweep_orbits


def test_full_scan_is_complete_when_symmetric():
    # (22, 21): no 22-edges, one mask, and 21! passes the int64 range
    for k, n, total in ((3, 5, 1024), (1, 7, 128), (6, 7, 128), (22, 21, 1)):
        scan = verify_lemma_all_symmetric(k, n)
        assert scan.all_symmetric
        assert scan.witness is None
        assert scan.total_labeled == total
        assert scan.scanned == total


def test_scan_finds_an_asymmetric_witness():
    scan = verify_lemma_all_symmetric(2, 6)
    assert not scan.all_symmetric
    assert scan.witness is not None
    assert is_asymmetric(scan.witness)
    assert scan.total_labeled == 1 << 15


def test_scan_makes_no_automorphism_query_per_mask(monkeypatch):
    """The witness and count come from the orbit census alone."""
    scan = verify_lemma_all_symmetric(2, 6)

    def no_engine(*args, **kwargs):
        raise AssertionError("automorphism engine queried")

    monkeypatch.setattr(autom_mod, "_nonidentity", no_engine)
    again = verify_lemma_all_symmetric(2, 6)
    assert (again.scanned, again.witness) == (scan.scanned, scan.witness)
    assert scan.scanned == 695 and oracle_nonidentity(scan.witness) is None


def test_half_scan_respects_the_complement_bound():
    scan = verify_lemma_all_symmetric(2, 6, half=True)
    assert not scan.all_symmetric
    assert scan.witness.m <= 15 // 2
    assert scan.scanned < scan.total_labeled


@pytest.mark.parametrize(
    "k, half",
    [
        # ids: the plain k is the half-space scan
        pytest.param(k, half, id=f"{k}{'' if half else '-full'}")
        for k in (2, 3, 4)
        for half in (True, False)
    ],
)
def test_half_scan_witness_is_the_first_asymmetric_mask(k, half):
    """The orbit census against the n! oracle: the witness is the first
    mask of the scanned space with no non-identity automorphism, and the
    scan counts every mask of that space from 0 through the witness."""
    n = 6
    edges = list(itertools.combinations(range(n), k))
    c, limit = len(edges), len(edges) // 2

    def graph(mask):
        return Hypergraph(n, [e for i, e in enumerate(edges) if mask >> i & 1], k=k)

    space = [mask for mask in range(1 << c) if not half or bin(mask).count("1") <= limit]
    first = next(mask for mask in space if oracle_nonidentity(graph(mask)) is None)
    scan = verify_lemma_all_symmetric(k, n, half=half)
    assert not scan.all_symmetric
    assert sum(1 << edges.index(e) for e in scan.witness.edges) == first
    assert scan.scanned == sum(1 for mask in space if mask <= first)


def test_scan_of_graphs_on_seven_vertices_stops_at_its_witness():
    # mask 2390, 6 of the 21 edges, is the first asymmetric graph on 7
    # vertices; the half scan counts every mask through it but 2047 (11 edges)
    edges = list(itertools.combinations(range(7), 2))
    for half, scanned in ((False, 2391), (True, 2390)):
        scan = verify_lemma_all_symmetric(2, 7, half=half)
        assert sum(1 << edges.index(e) for e in scan.witness.edges) == 2390
        assert (scan.scanned, scan.total_labeled) == (scanned, 1 << 21)


def test_min_order_small_uniformities():
    assert min_asymmetric_order(2, 7)[0] == 6
    assert min_asymmetric_order(3, 7)[0] == 6
    assert min_asymmetric_order(4, 6)[0] == 6
    n, w = min_asymmetric_order(3, 6)
    assert is_asymmetric(w)
    assert w.n == n == 6


def test_min_order_none_below_threshold():
    n, w = min_asymmetric_order(3, 5)
    assert n is None and w is None


def test_min_order_consistent_with_full_scans():
    n0, _ = min_asymmetric_order(3, 6)
    for n in range(2, n0):
        assert verify_lemma_all_symmetric(3, n).all_symmetric


def test_enumerate_matches_known_class_counts():
    # unlabeled graph counts on 4 and 5 vertices, then the 3-uniform
    # count on 5 vertices, which mirrors the 2-uniform one by edge
    # complementation inside the 5-point triple space
    assert len(enumerate_k_graphs(2, 4)) == 11
    assert len(enumerate_k_graphs(2, 5)) == 34
    assert len(enumerate_k_graphs(3, 5)) == 34


def test_enumerate_reps_are_canonical_and_distinct():
    reps = enumerate_k_graphs(2, 5)
    keys = {canonical_key(r) for r in reps}
    assert len(keys) == len(reps)


def test_scan_classes_outcome():
    out = scan_classes(3, 5)
    assert (out.k, out.n) == (3, 5)
    assert out.total_labeled == 1024
    assert out.iso_classes == 34
    assert out.asymmetric_classes == 0
    assert out.witnesses == ()
    out6 = scan_classes(2, 6)
    assert out6.iso_classes == 156
    assert out6.asymmetric_classes == 8
    assert len(out6.witnesses) == 8
    assert all(is_asymmetric(w) for w in out6.witnesses)
    # OEIS A000088 and A003400 at n = 7
    out7 = scan_classes(2, 7)
    assert out7.total_labeled == 1 << 21
    assert out7.iso_classes == 1044
    assert out7.asymmetric_classes == 152
    assert all(is_asymmetric(w) for w in out7.witnesses)


def test_labeled_census_builds_no_engine(monkeypatch):
    built = []
    init = autom_mod._Engine.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(autom_mod._Engine, "__init__", counted)
    six = scan_classes(2, 6)
    assert (six.iso_classes, six.asymmetric_classes, len(six.witnesses)) == (156, 8, 8)
    assert len(scan_classes(3, 6).witnesses) == 1010
    assert len(enumerate_k_graphs(2, 6)) == 156
    assert built == []


def test_representatives_are_orbit_minima():
    """Every representative, witness and minimal graph encodes the least
    mask, by `_edge_space` bit index, of its orbit under all n!
    relabellings, and no two representatives share an orbit."""
    for k, n in [(2, 5), (3, 5), (2, 6)]:
        bit = {e: 1 << i for i, e in enumerate(search_mod._edge_space(n, k))}
        perms = list(itertools.permutations(range(n)))

        def mask(edges):
            return sum(bit[e] for e in edges)

        def orbit(h):
            return {mask(perm_image(h.edges, p)) for p in perms}

        reps = enumerate_k_graphs(k, n)
        seen = set()
        for rep in reps:
            masks = orbit(rep)
            assert mask(rep.edges) == min(masks), (k, n, rep.edges)
            assert not masks & seen, (k, n, rep.edges)
            seen |= masks
        assert len(seen) == 1 << len(bit)
        others = list(scan_classes(k, n).witnesses)
        if (k, n) == (2, 6):
            others += find_minimal_asymmetric(k, n)
        for h in others:
            assert mask(h.edges) == min(orbit(h)), (k, n, h.edges)


def test_augmentation_agrees_with_scan_dedup():
    for k, n in [(2, 4), (2, 5), (3, 5), (4, 5), (2, 6), (1, 8), (7, 8)]:
        scan_keys = {}
        for r in enumerate_k_graphs(k, n):
            scan_keys.setdefault(r.m, set()).add(canonical_key(r))
        aug_keys = {}
        for m, layer in classes_by_edge_count(n, k):
            if layer:
                aug_keys[m] = {canonical_key(r) for r in layer}
        assert scan_keys == aug_keys, (k, n)


def test_class_orbits_satisfy_orbit_stabiliser():
    """Each class's orbit has n!/|Aut| labeled members, so these sum to
    the labeled count, and a class is asymmetric exactly when |Aut| = 1
    (group orders from the n! oracle)."""
    for k, n in [(2, 5), (3, 5), (2, 6)]:
        out = scan_classes(k, n)
        asymmetric = set(out.witnesses)
        orbits = 0
        for rep in enumerate_k_graphs(k, n):
            order = len(oracle_automorphisms(rep))
            orbits += math.factorial(n) // order
            assert (rep in asymmetric) == (order == 1), (k, n, rep.edges)
        assert orbits == out.total_labeled, (k, n)


def _images(perm, edges, masks):
    """Per-mask images under a vertex permutation, one edge bit at a time."""
    out = np.zeros_like(masks)
    for i, e in enumerate(edges):
        out |= ((masks >> i) & 1) << edges.index(tuple(sorted(perm[v] for v in e)))
    return out


def test_remap_span_equals_the_per_mask_image():
    # (2, 7): 21 edges, odd; (3, 3): one edge; (4, 3): none; (3, 6): 2^20 masks
    rng = random.Random(14)
    for k, n in ((2, 7), (3, 3), (4, 3), (3, 6)):
        edges = search_mod._edge_space(n, k)
        total = 1 << len(edges)
        perms = [transposition(n, v, v + 1) for v in range(n - 1)] + [rng.sample(range(n), n)]
        for perm in perms:
            remap = search_mod._Remap(perm, edges)
            for lo in range(0, total, _CHUNK):
                hi = min(lo + _CHUNK, total)
                masks = np.arange(lo, hi, dtype=np.int32)
                images = remap.span(lo, hi, np.empty(hi - lo, dtype=np.intp))
                assert np.array_equal(images, _images(perm, edges, masks)), (k, n, perm, lo)


def test_orbit_minima_match_the_full_group():
    """The census is the orbit minima of the n! oracle, each asymmetric
    exactly when n! masks share it."""
    # (1, 6) and (6, 7): popcount classes; (2, 5) and (3, 5): the transversal chain
    for k, n in ((2, 5), (3, 5), (1, 6), (6, 7)):
        edges = search_mod._edge_space(n, k)
        masks = np.arange(1 << len(edges), dtype=np.int32)
        least = masks.copy()
        for perm in itertools.permutations(range(n)):
            np.minimum(least, _images(perm, edges, masks), out=least)
        reps, counts = np.unique(least, return_counts=True)
        expected = [(mask, count == math.factorial(n)) for mask, count in zip(reps.tolist(), counts.tolist())]
        assert search_mod._orbits(k, n) == expected, (k, n)


def test_orbit_minima_match_the_fixpoint_sweep():
    """Every cell with at most 21 edges, plus (3, 6) and (20, 21): the
    closed-form popcount census, as at (1, 8) and (7, 8), and the
    chain's census must both be the sweep's."""
    cells = [(k, n) for n in range(22) for k in range(1, n + 2) if math.comb(n, k) <= 21]
    for k, n in cells + [(3, 6), (20, 21)]:
        assert search_mod._orbits(k, n) == sweep_orbits(k, n)[1], (k, n)


def test_orbit_census_pins_the_large_cells():
    # (3, 6): OEIS A000665; (20, 21): every 20-graph on 21 vertices is symmetric
    for k, n, classes, asymmetric in ((3, 6, 2136, 1010), (20, 21, 22, 0)):
        census = search_mod._orbits(k, n)
        assert len(census) == classes, (k, n)
        assert sum(asym for _, asym in census) == asymmetric, (k, n)


def _traced_peak(run):
    """run()'s result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_orbit_census_adds_no_full_space_temporary():
    """Block-sized temporaries only: on the transversal chain the peak
    stays near the int32 orbit-minimum array of 2^C masks itself."""
    search_mod._orbits(2, 4)
    _, peak = _traced_peak(lambda: search_mod._orbits(2, 7))
    assert peak < 1.25 * 4 * (1 << 21), peak


def test_popcount_cells_allocate_no_mask_array():
    """The popcount census is closed-form: up to the 24-bit guard its
    peak is far below one int32 per mask (4 MiB at 2^20 masks)."""
    search_mod._orbits(1, 3)
    for k, n in ((20, 21), (1, 24), (23, 24)):
        _, peak = _traced_peak(lambda: search_mod._orbits(k, n))
        assert peak < 64 << 10, (k, n, peak)
    scan, peak = _traced_peak(lambda: verify_lemma_all_symmetric(23, 24))
    assert peak < 64 << 10, peak
    assert scan.all_symmetric and scan.scanned == 1 << 24


_RIGID_CELLS = [(2, 4), (2, 5), (3, 5), (2, 6), (3, 6), (4, 6), (2, 7), (5, 7)]


@pytest.mark.parametrize("k, n", _RIGID_CELLS, ids=[f"{k}-{n}" for k, n in _RIGID_CELLS])
def test_stabilizer_scan_matches_the_census(k, n):
    """Every cell with 2 <= k <= n - 2 under the guard: the scan's
    witness is the first asymmetric orbit minimum of the census (within
    the popcount limit with `half`), and `scanned` counts the masks of
    the scanned space from 0 through it, or all of them."""
    census, c = search_mod._orbits(k, n), math.comb(n, k)
    for half in (False, True):
        most = c // 2 if half else c
        first = next((m for m, asym in census if asym and m.bit_count() <= most), None)
        end = (1 << c) if first is None else first + 1
        scanned, bad, total = search_mod._scan_labeled(k, n, half)
        assert (bad, total) == (first, 1 << c), (k, n, half)
        assert scanned == sum(1 for m in range(end) if m.bit_count() <= most), (k, n, half)


def test_stabilizer_scan_builds_its_permutations_once_per_n(monkeypatch):
    """`_first_rigid` builds the table of permutations of n points once
    and reads it on every later scan on n points; (3,4) is a popcount
    cell, which never reaches it."""
    built = []

    def recorded(points):
        built.append(len(points))
        return itertools.permutations(points)

    monkeypatch.setattr(search_mod, "_POINTS", {})
    monkeypatch.setattr(search_mod, "permutations", recorded)
    for _ in range(2):
        assert min_asymmetric_order(3, 7)[0] == 6
        assert verify_lemma_all_symmetric(2, 7).scanned == 2391
    assert built == [5, 6, 7]


def test_labeled_scans_build_no_engine_and_no_full_space_array(monkeypatch):
    """The (2,7) and (5,7) census peaked at 9.5 MiB of `tracemalloc`:
    a scan that stops at its witness holds block-sized arrays only."""

    def no_engine(self, *args, **kwargs):
        raise AssertionError("engine built on the labeled path")

    monkeypatch.setattr(autom_mod._Engine, "__init__", no_engine)
    assert min_asymmetric_order(3, 7)[0] == 6
    assert not verify_lemma_all_symmetric(2, 7).all_symmetric
    for k in (2, 5):
        scan, peak = _traced_peak(lambda: verify_lemma_all_symmetric(k, 7))
        assert scan.scanned == {2: 2391, 5: 1199}[k], (k, scan.scanned)
        assert peak < 4 << 20, (k, peak)


def test_augmentation_is_duplicate_free():
    total = 0
    for _, layer in classes_by_edge_count(6, 2):
        keys = {canonical_key(r) for r in layer}
        assert len(keys) == len(layer)
        total += len(layer)
    assert total == 156


def test_augmentation_pins_the_graphs_on_seven_vertices():
    # OEIS A000088 and A003400 at n = 7, through augmentation
    levels = [reps for _, reps in classes_by_edge_count(7, 2)]
    assert len(levels) == 22
    assert sum(map(len, levels)) == 1044
    assert sum(is_asymmetric(r) for reps in levels for r in reps) == 152


def test_augmentation_pins_the_graphs_on_eight_vertices():
    # OEIS A000088 and A003400 at n = 8; complementing maps level m onto 28 - m
    levels = [reps for _, reps in classes_by_edge_count(8, 2)]
    sizes = list(map(len, levels))
    assert len(sizes) == 29 and sizes == sizes[::-1]
    assert sum(sizes) == 12346
    assert all(autom_mod._recorded_asymmetry(r) is not None for reps in levels for r in reps)
    assert sum(is_asymmetric(r) for reps in levels for r in reps) == 3696
    # the representatives and verdicts in the format of `_census_outputs`
    out = [(8, 2, m, [h.edges for h in reps], [is_asymmetric(h) for h in reps])
           for m, reps in enumerate(levels)]
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == "f06c0fbdb5d15e7d8a5d80a46fc9bea36cebdebe6e56c9212415fc2c28bd9c9e"


def test_augmentation_records_exact_asymmetry_verdicts():
    """When a level is yielded, every class in it, grown or complemented,
    carries the asymmetry verdict, with or without an edge cut; a fresh
    engine and the orbit-size oracle confirm it (an orbit of n! masks is
    an asymmetric class)."""
    for n, k, cut in ((5, 2, None), (6, 2, None), (7, 2, None), (6, 3, None),
                      (6, 2, 0), (6, 2, 5), (6, 2, 7), (6, 2, 12)):
        least, census = sweep_orbits(k, n)
        orbit_asymmetric = dict(census)
        index = {e: i for i, e in enumerate(itertools.combinations(range(n), k))}
        for m, reps in classes_by_edge_count(n, k, cut):
            for h in reps:
                verdict = autom_mod._recorded_asymmetry(h)
                mask = sum(1 << index[e] for e in h.edges)
                assert verdict is (autom_mod._nonidentity(n, h.edges, False) is None), (n, k, m, h)
                assert verdict is orbit_asymmetric[int(least[mask])], (n, k, m, h)


def _accepted(h):
    """The edges of h that the canonical-deletion test accepts as the
    edge added last."""
    accepted = []
    for e in h.edges:
        parent = Hypergraph(h.n, [f for f in h.edges if f != e], k=h.k)
        if search_mod._augmentation_accepts(parent, e, search_mod._scored(parent))[0]:
            accepted.append(e)
    return accepted


# Regular graphs with two edge orbits: refinement leaves all their edges
# one colour, so only the canonical labelling tells the orbits apart.
_REGULAR = (
    Hypergraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
    Hypergraph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]),
)


def _relabelled(rng, h):
    p = list(range(h.n))
    rng.shuffle(p)
    return p, Hypergraph(h.n, perm_image(h.edges, p), k=h.k)


def _test_graphs(seed):
    """Random graphs and 3-graphs on 3..7 vertices, then random
    relabellings of the regular graphs."""
    rng = random.Random(seed)
    for i in range(60):
        n, k = rng.randrange(3, 8), 2 + i % 2
        pool = list(itertools.combinations(range(n), k))
        yield rng, Hypergraph(n, rng.sample(pool, rng.randrange(1, len(pool) + 1)), k=k)
    for h in _REGULAR:
        for _ in range(5):
            yield rng, _relabelled(rng, h)[1]


def test_deletion_accepts_exactly_one_edge_orbit():
    """Augmentation keeps one representative per class because the
    accepted edges of every graph form one orbit of its group."""
    for _, h in _test_graphs(12):
        accepted = _accepted(h)
        orbit = {tuple(sorted(p[v] for v in accepted[0])) for p in oracle_automorphisms(h)}
        assert set(accepted) == orbit, (h.n, h.edges)


def test_deletion_commutes_with_relabelling():
    for rng, h in _test_graphs(13):
        p, image = _relabelled(rng, h)
        assert perm_image(_accepted(h), p) == _accepted(image), (h.n, h.edges, p)


def test_deletion_labels_only_the_children_that_tie(monkeypatch):
    """Degrees and refined colours settle most children before a
    canonical labelling is run."""
    tests, labellings = [], []
    accepts, canonical = search_mod._augmentation_accepts, autom_mod._Engine.canonical

    def counted_accepts(*args):
        tests.append(args)
        return accepts(*args)

    def counted_canonical(self):
        labellings.append(self)
        return canonical(self)

    monkeypatch.setattr(search_mod, "_augmentation_accepts", counted_accepts)
    monkeypatch.setattr(autom_mod._Engine, "canonical", counted_canonical)
    assert sum(len(reps) for _, reps in classes_by_edge_count(6, 2)) == 156
    assert len(tests) == 232  # levels 0..7 only: levels 8..15 are complements
    assert 2 * len(labellings) < len(tests)


def _labelled_rule(parent, added, canonical):
    """None when endpoint degrees or refined edge colours settle the
    child parent + added, else the deletion test's step 3 with the
    labelling always run: an unseeded canonical labelling on a fresh
    engine, then whether its pick lies in the orbit of `added`."""
    edges = parent.edges + (added,)
    deg = degrees(Hypergraph(parent.n, edges, k=parent.k))
    kept = range(len(edges))
    for score in ([sorted(deg[v] for v in e) for e in edges], None):
        if score is None:
            engine = autom_mod._Engine(parent.n, edges, False)
            score = engine.base[1]
        top = max(score[i] for i in kept)
        kept = [i for i in kept if score[i] == top]
        if kept[-1] != len(edges) - 1 or len(kept) == 1:
            return None
    _, sigma = canonical(engine)
    deletion = max((edges[i] for i in kept), key=lambda e: sorted(sigma[v] for v in e))
    return deletion in search_mod._edge_orbit(added, engine.generators())


def test_orbit_shortcut_matches_the_labelled_rule(monkeypatch):
    """Step 3 labels a child only when its kept edges span several
    orbits of its group; on every child that reaches step 3 the decision
    equals that of the rule that always labels.  The counts are pinned:
    of the 46, 223 and 402 children at step 3 on (2,6), (2,7) and (3,6),
    which the rule that always labels labelled, 0, 10 and 64 are labelled."""
    accepts, canonical = search_mod._augmentation_accepts, autom_mod._Engine.canonical
    reached, labellings = [], []

    def checked(parent, added, scored):
        got = accepts(parent, added, scored)
        want = _labelled_rule(parent, added, canonical)
        if want is not None:
            reached.append(got[0])
            assert got[0] is want, (parent, added)
        return got

    def counted(self):
        labellings.append(self)
        return canonical(self)

    monkeypatch.setattr(search_mod, "_augmentation_accepts", checked)
    monkeypatch.setattr(autom_mod._Engine, "canonical", counted)
    counts = {}
    for k, n in ((2, 5), (2, 6), (2, 7), (3, 5), (3, 6)):
        reached.clear()
        labellings.clear()
        assert sum(len(reps) for _, reps in classes_by_edge_count(n, k)) == len(enumerate_k_graphs(k, n))
        counts[k, n] = len(reached), reached.count(False), len(labellings)
    # (children reaching step 3, of them rejected, labellings run)
    assert counts == {(2, 5): (13, 0, 0), (2, 6): (46, 0, 0), (2, 7): (223, 5, 10),
                      (3, 5): (14, 0, 0), (3, 6): (402, 39, 64)}, counts


def test_census_classes_equal_checked_hypergraphs():
    """Grown and complemented classes, and the least-mask classes of the
    labeled census, are built without `Hypergraph.__init__`'s checks;
    each equals, field for field, the hypergraph `__init__` builds from
    its fields."""
    runs = [classes_by_edge_count(7, 2), classes_by_edge_count(6, 3)]
    runs += [classes_by_edge_count(6, 2, cut) for cut in (0, 5, 7)]
    classes = [h for run in runs for _, reps in run for h in reps]
    classes += enumerate_k_graphs(3, 5) + list(scan_classes(2, 6).witnesses)
    names = [f.name for f in dataclasses.fields(Hypergraph)]
    for h in classes:
        fresh = Hypergraph(h.n, h.edges, k=h.k)
        assert [getattr(h, f) for f in names] == [getattr(fresh, f) for f in names], h
        assert type(h.edges) is tuple and all(type(e) is tuple for e in h.edges), h
        assert hash(h) == hash(fresh) and repr(h) == repr(fresh), h


def test_augmentation_builds_no_parent_engine_twice(monkeypatch):
    """A class whose acceptance test built an engine is walked on that
    engine; only the empty graph and the classes accepted by degrees
    alone, which built none, get an engine of their own.  The grown
    levels are 0..10 = C(7,2) // 2; levels 11..21 are complements."""
    accepts, build = search_mod._augmentation_accepts, search_mod.structure_engine
    held, testing, own = {}, [], []

    def recorded_accepts(parent, added, deg):
        testing.append(added)
        accepted, engine = accepts(parent, added, deg)
        testing.pop()
        if accepted:
            held[frozenset(parent.edges + (added,))] = engine
        return accepted, engine

    def recorded_build(n, edges, ordered):
        if not testing:
            own.append(frozenset(edges))
        return build(n, edges, ordered)

    monkeypatch.setattr(search_mod, "_augmentation_accepts", recorded_accepts)
    monkeypatch.setattr(search_mod, "structure_engine", recorded_build)
    assert sum(len(reps) for _, reps in classes_by_edge_count(7, 2)) == 1044
    bare = {edges for edges, engine in held.items() if engine is None and len(edges) <= 10}
    assert sorted(own, key=sorted) == sorted(bare | {frozenset()}, key=sorted)
    assert (len(held), len(own)) == (521, 196)  # (1043, 384) when every level was grown


def _complement(h):
    return Hypergraph(h.n, set(itertools.combinations(range(h.n), h.k)) - h.edge_set(), k=h.k)


def _level_keys(levels):
    return [{canonical_key(h) for h in reps} for _, reps in levels]


def test_augmentation_max_edges_cutoff():
    levels = [m for m, layer in classes_by_edge_count(5, 2, max_edges=3)]
    assert levels == [0, 1, 2, 3]
    # C(6,2) = 15: a cut above the half, levels 8..10 the complements of levels 7..5
    cut = list(classes_by_edge_count(6, 2, max_edges=10))
    assert [m for m, _ in cut] == list(range(11))
    assert _level_keys(cut) == _level_keys(list(classes_by_edge_count(6, 2))[:11])


def test_augmentation_complements_the_levels_above_half():
    """Each level m > C/2 is the complemented level C - m: complementing
    within the k-subsets keeps the automorphism group."""
    for n, k in ((6, 2), (7, 2), (6, 3)):
        levels = list(classes_by_edge_count(n, k))
        c = math.comb(n, k)
        assert [m for m, _ in levels] == list(range(c + 1)), (n, k)
        for m, reps in levels[c // 2 + 1:]:
            complemented = {canonical_key(_complement(h)) for h in levels[c - m][1]}
            assert {canonical_key(h) for h in reps} == complemented, (n, k, m)
            assert {h.m for h in reps} == {m}, (n, k, m)


def test_augmentation_grows_only_to_the_middle_level(monkeypatch):
    """Levels up to C/2 are generated, the middle one of an even C too:
    level C // 2 equals the run that stops there, and no acceptance test
    sees a child above it."""
    accepts, sizes = search_mod._augmentation_accepts, []

    def recorded(parent, added, deg):
        sizes.append(parent.m + 1)
        return accepts(parent, added, deg)

    monkeypatch.setattr(search_mod, "_augmentation_accepts", recorded)
    for n, c in ((4, 6), (5, 10), (6, 15)):
        sizes.clear()
        levels = list(classes_by_edge_count(n, 2))
        assert max(sizes) == c // 2, n
        assert levels[c // 2] == list(classes_by_edge_count(n, 2, max_edges=c // 2))[-1], n


def test_augmentation_holds_no_engine_for_the_middle_level(monkeypatch):
    """The classes of level C/2 are never parents: once that level is
    yielded, no engine built for one of them is alive."""
    build, built = search_mod.structure_engine, []

    def recorded(n, edges, ordered):
        engine = build(n, edges, ordered)
        built.append((len(edges), weakref.ref(engine)))
        return engine

    monkeypatch.setattr(search_mod, "structure_engine", recorded)
    levels = classes_by_edge_count(7, 2)
    assert [m for m, _ in itertools.islice(levels, 11)][-1] == 10
    middle = [ref for size, ref in built if size == 10]
    assert middle and [ref for ref in middle if ref() is not None] == []
    assert sum(len(reps) for _, reps in levels) == 1044 - 522


def _census_outputs(n, k, cut=None):
    return [(n, k, m, [h.edges for h in reps], [is_asymmetric(h) for h in reps])
            for m, reps in classes_by_edge_count(n, k, cut)]


def test_census_outputs_are_pinned():
    """sha256 digests of each level's representatives and asymmetry
    verdicts, pinned for the graphs on 5, 6 and 7 vertices, the triple
    systems on 5 and 6, and edge cuts of 0, 5 and 7 on 6 vertices.  A
    future declared output change must re-pin these digests and log that
    in CHANGES.md."""
    got = {f"({k},{n})": _census_outputs(n, k) for k, n in ((2, 5), (2, 6), (2, 7), (3, 5), (3, 6))}
    got.update({f"(2,6) cut {cut}": _census_outputs(6, 2, cut) for cut in (0, 5, 7)})
    digests = {name: hashlib.sha256(repr(out).encode()).hexdigest() for name, out in got.items()}
    assert digests == {
        "(2,5)": "5a064dc180ae3bb3ddaa5b5d2e853f72d7720dba38faa08ee32f03ce95440dc2",
        "(2,6)": "d63e9ff79f89d87599fb92c036981ccd1cdeb23806d1d61bc17b6aa3752fd42e",
        "(2,7)": "b50a3d0d698f4cfab249f4063c877ef672e2bae899b745f21ac38c0d78d0a510",
        "(3,5)": "c62febb3dd246c2cb96ce979e350afd63eb0cbd2f75d88df3ae1ccacf70fb7c3",
        "(3,6)": "0267309c201840388c7016bc4ca5e8d1a701c6379504241d1bf610887ca39e13",
        "(2,6) cut 0": "5e379e5313f889cf8556bd48fadaaaf8e45ad22a902c9929b0cb2562c95b1fbf",
        "(2,6) cut 5": "c96629f7be85d7c40630d27e58e67ccbf7f42569ecafa7d31d931f504c8a4da2",
        "(2,6) cut 7": "9325ecabbeae72ab8db18c384887058af18b3979167ba8ffbbd3a288171169f1",
    }


def test_augmentation_of_one_edge_and_of_no_edge():
    # k = n: the one k-subset, level 1 the complement of level 0; n < k: level 0 only
    for n in (1, 3):
        assert list(classes_by_edge_count(n, n)) == [
            (0, [Hypergraph(n, (), k=n)]), (1, [Hypergraph(n, [range(n)], k=n)])]
    assert list(classes_by_edge_count(2, 3)) == [(0, [Hypergraph(2, (), k=3)])]


def test_find_minimal_asymmetric_graphs_on_six_points():
    found = find_minimal_asymmetric(2, 6)
    # all eight asymmetric graph classes on six points are minimal:
    # every proper induced subgraph lives on at most five points
    assert len(found) == 8
    assert all(is_asymmetric(g) for g in found)
    assert [h.m for h in found] == [6, 7, 7, 7, 8, 8, 8, 9]


def test_find_minimal_asymmetric_graphs_on_seven_points():
    """Six of the minimal asymmetric graphs of Schweitzer & Schweitzer
    (JCTB 2017) have 7 vertices; the set is closed under complement, as
    complementing keeps the group and commutes with induced subgraphs."""
    found = find_minimal_asymmetric(2, 7)
    assert [h.m for h in found] == [6, 7, 8, 13, 14, 15]
    keys = {canonical_key(h) for h in found}
    assert {canonical_key(_complement(h)) for h in found} == keys


def test_find_minimal_asymmetric_triple_systems_on_six_points():
    found = find_minimal_asymmetric(3, 6)
    # same collapse as for 2-graphs: nothing asymmetric lives on
    # fewer points, so minimal count == asymmetric class count
    assert len(found) == 1010
    assert len(found) == scan_classes(3, 6).asymmetric_classes
    assert canonical_key(gen_figure2()) in {canonical_key(h) for h in found}
    by_edges = sorted(h.m for h in found)
    assert by_edges[0] == 4 and by_edges[1] == 5


def test_scan_verdict_explained_by_swappable_pairs():
    """On k+1 points a k-edge is the complement of one vertex, so any
    instance short of the full edge set admits a transposition fixing
    the marked-vertex set; extracting it replays the scan verdict."""
    for k in (3, 4, 5, 6):
        n = k + 1
        all_edges = list(itertools.combinations(range(n), k))
        assert verify_lemma_all_symmetric(k, n).all_symmetric
        for mask in range(1 << len(all_edges)):
            chosen = [e for i, e in enumerate(all_edges) if mask >> i & 1]
            if len(chosen) == len(all_edges):
                continue
            h = Hypergraph(n, chosen, k=k)
            swap = next(
                (
                    transposition(n, a, b)
                    for a, b in itertools.combinations(range(n), 2)
                    if is_automorphism(h, transposition(n, a, b))
                ),
                None,
            )
            assert swap is not None


def test_bit_guard_refuses_oversized_spaces():
    with pytest.raises(ResourceGuardError):
        verify_lemma_all_symmetric(2, 8)
    with pytest.raises(ResourceGuardError):
        enumerate_k_graphs(3, 10)
    assert math.comb(8, 2) > 24


def test_complement_duality_of_class_counts():
    a = scan_classes(2, 5)
    b = scan_classes(3, 5)
    assert a.iso_classes == b.iso_classes
    assert a.asymmetric_classes == b.asymmetric_classes


def test_scan_start_lies_in_the_space():
    # every scan starts at mask 0; the scan guard comes first, before any
    # 2^C(n,k) is formed
    for half in (False, True):
        with pytest.raises(ResourceGuardError):
            verify_lemma_all_symmetric(20, 40, half=half)


def test_edge_size_below_one_is_refused():
    for call in (scan_classes, enumerate_k_graphs, find_minimal_asymmetric, min_asymmetric_order):
        with pytest.raises(ValueError, match="at least 1"):
            call(0, 3)
    with pytest.raises(ValueError, match="at least 1"):
        min_asymmetric_order(0, 1)  # no n in 2..1 to build an edge space on
    for k in (0, -1):
        with pytest.raises(ValueError, match="edge size k must be at least 1"):
            next(classes_by_edge_count(3, k))
