"""Tests of the benchmark's own oracles and checks.

    python3 bench/selftest.py

Kept apart from the package's test suite: the file name does not match
pytest's `test_*.py` pattern, and nothing here imports `minasym`.  The
checks must pass on right answers built by brute force and fail on
wrong ones.
"""

from __future__ import annotations

import copy
import itertools
import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks as C  # noqa: E402
import oracles as O  # noqa: E402


def cycle(n, offset=0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


def ring_with_anchor(t):
    """The anchored 3-uniform ring: hubs v_i on a 3t-cycle, one pendant
    u_i per ring edge, and an anchor x on the first ring edge."""
    r = 3 * t
    u = list(range(r))
    v = list(range(r, 2 * r))
    edges = [(u[i], v[i], v[(i + 1) % r]) for i in range(r)]
    edges.append((u[0], v[0], 2 * r))
    return 2 * r + 1, [tuple(sorted(e)) for e in edges]


def is_swap(g):
    moved = [i for i, x in enumerate(g) if x != i]
    return len(moved) == 2


class PolyaAndPublishedCounts(unittest.TestCase):
    def test_polya_reproduces_a000088(self):
        for n, count in O.A000088_GRAPHS.items():
            self.assertEqual(sum(O.polya_counts(n, 2)), count, n)

    def test_polya_reproduces_a000665(self):
        for n, count in O.A000665_3GRAPHS.items():
            self.assertEqual(sum(O.polya_counts(n, 3)), count, n)

    def test_polya_by_edge_count_is_symmetric_under_complement(self):
        counts = O.polya_counts(6, 2)
        self.assertEqual(counts, counts[::-1])
        self.assertEqual(counts[:4], [1, 1, 2, 5])

    def test_sieve_reproduces_a003400(self):
        for n, count in O.A003400_ASYMMETRIC_GRAPHS.items():
            self.assertEqual(sum(O.asymmetric_class_counts(n, 2)), count, n)

    def test_least_orders(self):
        for k, n in O.PUBLISHED_MIN_ORDER.items():
            self.assertEqual(O.least_asymmetric_order(k, 7), n, k)


class StabilisersAndFormulas(unittest.TestCase):
    def order(self, n, k, edges):
        act = O.PermAction(n, k)
        return act.stabiliser_order(act.mask(edges))

    def test_brute_force_matches_formulas(self):
        cases = []
        for n in range(3, 8):
            cases.append(({"kind": "cycle", "n": n}, n, 2, cycle(n)))
        for n in range(2, 7):
            cases.append(({"kind": "empty", "n": n}, n, 2, []))
            cases.append(({"kind": "complete", "n": n}, n, 2,
                          list(itertools.combinations(range(n), 2))))
        for a in (2, 3, 4):
            cases.append(({"kind": "biclique", "a": a}, 2 * a, 2,
                          [(i, a + j) for i in range(a) for j in range(a)]))
        cube = [(v, v | 1 << i) for v in range(8) for i in range(3) if not v >> i & 1]
        cases.append(({"kind": "hypercube", "d": 3}, 8, 2, cube))
        for k, c in ((2, 3), (3, 2), (2, 4), (2, 2)):
            cases.append(({"kind": "disjoint-edges", "k": k, "c": c}, k * c, k,
                          [tuple(range(k * i, k * i + k)) for i in range(c)]))
        cases.append(({"kind": "cycles", "n": 3, "c": 2}, 6, 2, cycle(3) + cycle(3, 3)))
        cases.append(({"kind": "cycles", "n": 4, "c": 2}, 8, 2, cycle(4) + cycle(4, 4)))
        for n in (3, 4):
            prism = cycle(n) + cycle(n, n) + [(i, n + i) for i in range(n)]
            cases.append(({"kind": "prism", "n": n}, 2 * n, 2, prism))
        for n in (5, 6, 7):
            cases.append(({"kind": "complete-k", "n": n, "k": 3}, n, 3,
                          list(itertools.combinations(range(n), 3))))
        cases.append(({"kind": "interval"}, 7, 4, [tuple(range(i, i + 4)) for i in range(4)]))
        ring = [(i, 3 + i, 3 + (i + 1) % 3) for i in range(3)]
        cases.append(({"kind": "ring3", "t": 1}, 6, 3, ring))
        for desc, n, k, edges in cases:
            self.assertEqual(self.order(n, k, edges), O.formula_order(desc), desc)

    def test_backtracking_agrees_with_brute_force(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randrange(2, 7)
            k = rng.randrange(2, min(n, 4) + 1)
            space = list(itertools.combinations(range(n), k))
            edges = rng.sample(space, rng.randrange(0, len(space) + 1))
            act = O.PermAction(n, k)
            mask = act.mask(edges)
            symmetric = act.stabiliser_order(mask) > 1
            has_inv = any(
                all(p[p[i]] == i for i in range(n)) and list(p) != list(range(n))
                and act.mask([tuple(p[v] for v in e) for e in edges]) == mask
                for p in itertools.permutations(range(n))
            )
            g = O.find_automorphism(n, edges)
            self.assertEqual(g is not None, symmetric, edges)
            if g is not None:
                self.assertTrue(O.is_automorphism(n, edges, g))
            inv = O.find_automorphism(n, edges, involution=True)
            self.assertEqual(inv is not None, has_inv, edges)

    def test_backtracking_on_ordered_tuples(self):
        arc = [(0, 1)]
        self.assertIsNone(O.find_automorphism(2, arc, ordered=True))
        self.assertIsNotNone(O.find_automorphism(2, [(0, 1), (1, 0)], ordered=True))
        directed = [(i, (i + 1) % 5) for i in range(5)]
        g = O.find_automorphism(5, directed, ordered=True)
        self.assertTrue(O.is_automorphism(5, directed, g, ordered=True))
        self.assertIsNone(O.find_automorphism(5, directed, ordered=True, involution=True))


def census_output(n, k):
    """A right census by brute force: orbit minima of every mask."""
    act = O.PermAction(n, k)
    reps = sorted({act.orbit_min(m) for m in range(1 << len(act.space))})
    levels = {}
    for r in reps:
        edges = [list(act.space[i]) for i in range(len(act.space)) if r >> i & 1]
        levels.setdefault(len(edges), []).append(edges)
    out = {"n": n, "k": k, "levels": [[m, levels[m]] for m in sorted(levels)]}
    out["asymmetric"] = [
        [act.stabiliser_order(act.mask(e)) == 1 for e in reps_m] for _, reps_m in out["levels"]
    ]
    return out


class CensusCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.good = census_output(6, 2)

    def test_right_census_passes(self):
        self.assertEqual(C.check_census(self.good), [])

    def test_dropped_class_fails(self):
        bad = copy.deepcopy(self.good)
        bad["levels"][5][1].pop()
        bad["asymmetric"][5].pop()
        self.assertTrue(C.check_census(bad))

    def test_duplicate_class_fails(self):
        bad = copy.deepcopy(self.good)
        level = bad["levels"][5][1]
        p = [1, 0, 2, 3, 4, 5]
        level[1] = [sorted(p[v] for v in e) for e in level[0]]
        self.assertTrue(C.check_census(bad))

    def test_relabelled_class_passes(self):
        ok = copy.deepcopy(self.good)
        p = [5, 3, 1, 0, 2, 4]
        ok["levels"][4][1][0] = [sorted(p[v] for v in e) for e in ok["levels"][4][1][0]]
        self.assertEqual(C.check_census(ok), [])

    def test_wrong_asymmetry_answer_fails(self):
        bad = copy.deepcopy(self.good)
        bad["asymmetric"][3][0] = not bad["asymmetric"][3][0]
        self.assertTrue(C.check_census(bad))

    def test_class_on_wrong_level_fails(self):
        bad = copy.deepcopy(self.good)
        moved = bad["levels"][3][1].pop()
        bad["asymmetric"][3].pop()
        bad["levels"][4][1].append(moved)
        bad["asymmetric"][4].append(False)
        self.assertTrue(C.check_census(bad))


def scan_output():
    n, k = 6, 2
    act = O.PermAction(n, k)
    asym = O.asymmetric_labelled(n, k)
    reps = sorted({act.orbit_min(int(m)) for m in range(1 << len(act.space)) if asym[m]})
    witnesses = [[list(act.space[i]) for i in range(15) if r >> i & 1] for r in reps]
    return {
        "scan": {"k": k, "n": n, "total_labeled": 1 << 15, "iso_classes": 156,
                 "asymmetric_classes": len(reps), "witnesses": witnesses},
        "min_order": {"2": [6, [6, witnesses[0]]], "1": [2, [2, [[0]]]]},
        "lemma": {"k": 3, "n": 4, "total_labeled": 16, "scanned": 16,
                  "all_symmetric": True, "has_witness": False},
        "n_max": 7,
    }


class LabeledScanCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.good = scan_output()

    def test_right_scan_passes(self):
        self.assertEqual(C.check_labeled_scan(self.good), [])

    def test_dropped_witness_fails(self):
        bad = copy.deepcopy(self.good)
        bad["scan"]["witnesses"].pop()
        self.assertTrue(C.check_labeled_scan(bad))

    def test_wrong_class_count_fails(self):
        bad = copy.deepcopy(self.good)
        bad["scan"]["iso_classes"] = 155
        self.assertTrue(C.check_labeled_scan(bad))

    def test_symmetric_witness_fails(self):
        bad = copy.deepcopy(self.good)
        bad["scan"]["witnesses"][0] = [[0, 1], [2, 3]]
        self.assertTrue(C.check_labeled_scan(bad))

    def test_wrong_minimum_order_fails(self):
        bad = copy.deepcopy(self.good)
        bad["min_order"]["2"] = [7, [7, [[0, 1]]]]
        self.assertTrue(C.check_labeled_scan(bad))
        bad = copy.deepcopy(self.good)
        bad["min_order"]["2"][1][1] = [[0, 1], [2, 3], [4, 5]]
        self.assertTrue(C.check_labeled_scan(bad))

    def test_short_lemma_scan_fails(self):
        bad = copy.deepcopy(self.good)
        bad["lemma"]["scanned"] = 15
        self.assertTrue(C.check_labeled_scan(bad))


def certificate(n, edges, holds, samples, kind="strong", family="gkt-circ", params=(3, 1)):
    return {
        "label": "test", "family": family, "params": list(params), "kind": kind,
        "n": n, "edges": [list(e) for e in edges],
        "report": {"property": "p", "holds": holds, "mode": "exhaustive",
                   "samples": samples, "witness": ""},
    }


class CertifyCheck(unittest.TestCase):
    def test_ring_subset_has_only_a_non_swap_automorphism(self):
        n, edges = ring_with_anchor(1)
        ring = [e for e in edges if 6 not in e]
        g = O.find_automorphism(6, ring)
        self.assertIsNotNone(g)
        self.assertFalse(is_swap(g))
        self.assertEqual(O.edge_subset_violations(n, edges, involution=False), [])

    def test_right_certificate_passes(self):
        n, edges = ring_with_anchor(1)
        self.assertEqual(C.check_certify([certificate(n, edges, True, 15)]), [])
        n, edges = ring_with_anchor(2)
        self.assertEqual(C.check_certify([certificate(n, edges, True, (1 << n) - n - 2,
                                                      kind="induced", params=(3, 2))]), [])

    def test_wrong_verdict_or_count_fails(self):
        n, edges = ring_with_anchor(1)
        self.assertTrue(C.check_certify([certificate(n, edges, False, 15)]))
        self.assertTrue(C.check_certify([certificate(n, edges, True, 14)]))
        self.assertTrue(C.check_certify([certificate(n, edges[:-1], True, 7)]))

    def test_asymmetric_subset_is_found(self):
        # An asymmetric 6-vertex graph with a pendant vertex: the edge
        # subset without the pendant edge is an asymmetric subgraph.
        act = O.PermAction(6, 2)
        asym = O.asymmetric_labelled(6, 2)
        mask = int(next(m for m in range(1 << 15) if asym[m]))
        edges = [act.space[i] for i in range(15) if mask >> i & 1]
        edges.append((0, 6))
        bad = O.edge_subset_violations(7, edges, involution=False)
        self.assertIn((1 << (len(edges) - 1)) - 1, bad)

    def test_missing_involution_is_found(self):
        act = O.PermAction(6, 2)
        asym = O.asymmetric_labelled(6, 2)
        mask = int(next(m for m in range(1 << 15) if asym[m]))
        edges = [act.space[i] for i in range(15) if mask >> i & 1] + [(0, 6)]
        bad = O.edge_subset_violations(7, edges, involution=True)
        self.assertIn((1 << (len(edges) - 1)) - 1, bad)


def symmetric_output():
    c6 = cycle(6)
    rot = [1, 2, 3, 4, 5, 0]
    refl = [0, 5, 4, 3, 2, 1]
    item = {"name": "C(6)", "desc": {"kind": "cycle", "n": 6}, "ordered": False,
            "copies": [{"n": 6, "edges": [list(e) for e in c6], "order": 12,
                        "generators": [rot, refl], "key": "a",
                        "form": [list(e) for e in sorted(c6)]} for _ in range(2)]}
    item["copies"][0]["form_again"] = item["copies"][0]["form"]
    k33 = {"name": "K(3,3)", "desc": {"kind": "biclique", "a": 3}, "ordered": False,
           "copies": [{"n": 6, "edges": [[i, 3 + j] for i in range(3) for j in range(3)],
                       "order": 72, "generators": [[1, 0, 2, 3, 4, 5]], "key": "b",
                       "form": None}]}
    return [item, k33]


class SymmetricCheck(unittest.TestCase):
    def test_right_answers_pass(self):
        self.assertEqual(C.check_symmetric(symmetric_output()), [])

    def test_wrong_group_order_fails(self):
        bad = symmetric_output()
        bad[0]["copies"][1]["order"] = 6
        self.assertTrue(C.check_symmetric(bad))

    def test_non_automorphism_generator_fails(self):
        bad = symmetric_output()
        bad[0]["copies"][0]["generators"].append([1, 0, 2, 3, 4, 5])
        self.assertTrue(C.check_symmetric(bad))

    def test_keys_that_move_under_relabelling_fail(self):
        bad = symmetric_output()
        bad[0]["copies"][1]["key"] = "c"
        self.assertTrue(C.check_symmetric(bad))

    def test_equal_keys_for_different_structures_fail(self):
        bad = symmetric_output()
        bad[1]["copies"][0]["key"] = "a"
        self.assertTrue(C.check_symmetric(bad))

    def test_form_of_another_graph_fails(self):
        bad = symmetric_output()
        for c in bad[0]["copies"]:
            c["form"] = [[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [1, 2]]
        bad[0]["copies"][0]["form_again"] = bad[0]["copies"][0]["form"]
        self.assertTrue(C.check_symmetric(bad))

    def test_form_that_is_not_a_fixed_point_fails(self):
        bad = symmetric_output()
        bad[0]["copies"][0]["form_again"] = [[0, 2], [1, 2], [1, 3], [3, 4], [4, 5], [0, 5]]
        self.assertTrue(C.check_symmetric(bad))


if __name__ == "__main__":
    unittest.main()
