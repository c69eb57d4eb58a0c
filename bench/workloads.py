"""The four benchmark workloads, run inside a fresh worker process.

Each workload has three parts:

- `setup(seed)` builds the inputs, after `minasym` is imported;
- `run(inputs, op)` is one round, the timed part: every call into the
  package goes through `op`, which counts the operation and records a
  failure instead of raising;
- `export(inputs, raw)` turns a round's results into plain JSON for the
  checks in `checks.py`, which never see package objects.

`post(inputs, export)` runs package calls that only the checks need,
outside the timed part.  Every call uses one worker process.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import minasym as M


def _h(n, edges, k):
    return M.Hypergraph(n, edges, k=k)


def _edges(h) -> list[list[int]]:
    return [list(e) for e in h.edges]


# -- census -------------------------------------------------------------

CENSUS_N, CENSUS_K = 7, 2


def census_setup(seed):
    return {"n": CENSUS_N, "k": CENSUS_K}


def census_run(inputs, op):
    levels = op(
        "census",
        lambda: [(m, reps) for m, reps in M.classes_by_edge_count(inputs["n"], inputs["k"])],
    )
    asym = []
    for _, reps in levels or []:
        asym.append([op("is_asymmetric", M.is_asymmetric, r) for r in reps])
    return levels, asym


def census_export(inputs, raw):
    levels, asym = raw
    return {
        "n": inputs["n"],
        "k": inputs["k"],
        "levels": None
        if levels is None
        else [[m, [_edges(r) for r in reps]] for m, reps in levels],
        "asymmetric": asym,
    }


# -- labeled-scan -------------------------------------------------------

SCAN_K, SCAN_N = 3, 6
MIN_ORDER_KS = (1, 2, 3, 4)
MIN_ORDER_N_MAX = 7
LEMMA_K, LEMMA_N = 20, 21


def scan_setup(seed):
    return {}


def scan_run(inputs, op):
    census = op("scan_classes", M.scan_classes, SCAN_K, SCAN_N)
    orders = {
        k: op("min_asymmetric_order", M.min_asymmetric_order, k, MIN_ORDER_N_MAX)
        for k in MIN_ORDER_KS
    }
    lemma = op("verify_lemma_all_symmetric", M.verify_lemma_all_symmetric, LEMMA_K, LEMMA_N)
    return census, orders, lemma


def scan_export(inputs, raw):
    census, orders, lemma = raw
    out = {"scan": None, "min_order": {}, "lemma": None, "n_max": MIN_ORDER_N_MAX}
    if census is not None:
        out["scan"] = {
            "k": census.k,
            "n": census.n,
            "total_labeled": census.total_labeled,
            "iso_classes": census.iso_classes,
            "asymmetric_classes": census.asymmetric_classes,
            "witnesses": [_edges(w) for w in census.witnesses],
        }
    for k, res in orders.items():
        if res is not None:
            n, w = res
            out["min_order"][str(k)] = [n, None if w is None else [w.n, _edges(w)]]
    if lemma is not None:
        out["lemma"] = {
            "k": lemma.k,
            "n": lemma.n,
            "total_labeled": lemma.total_labeled,
            "scanned": lemma.scanned,
            "all_symmetric": lemma.all_symmetric,
            "has_witness": lemma.witness is not None,
        }
    return out


# -- certify ------------------------------------------------------------

# (label, family, params, scan kind)
CERTIFICATES = (
    [("strong gkt-circ(3,5)", "gkt-circ", (3, 5), "strong"),
     ("strong gkt-circ(4,3)", "gkt-circ", (4, 3), "strong")]
    + [(f"invfree gk-star({k})", "gk-star", (k,), "invfree-nontrivial") for k in range(8, 12)]
    + [("induced gkt-circ(3,3)", "gkt-circ", (3, 3), "induced"),
       ("induced-rel r3t(2)", "r3t", (2,), "induced-rel")]
)


def certify_setup(seed):
    built = []
    for label, family, params, kind in CERTIFICATES:
        if family == "gkt-circ":
            s = M.gen_gkt_circ(*params)
        elif family == "gk-star":
            s = M.gen_gk_star(*params)
        else:
            s = M.gen_r3t(*params)
        built.append((label, family, params, kind, s))
    return built


def certify_run(inputs, op):
    reports = []
    for label, _, _, kind, s in inputs:
        if kind == "strong":
            rep = op(label, M.verify_strongly_minimal, s, mode="exhaustive", workers=1)
        elif kind == "invfree-nontrivial":
            rep = op(
                label,
                M.verify_minimal_involution_free,
                s,
                mode="exhaustive",
                workers=1,
                nontrivial_only=True,
            )
        elif kind == "induced":
            rep = op(label, M.verify_minimal_asymmetric, s, workers=1)
        else:
            rep = op(label, M.verify_minimal_asymmetric_rel, s)
        reports.append(rep)
    return reports


def certify_export(inputs, raw):
    out = []
    for (label, family, params, kind, s), rep in zip(inputs, raw):
        tuples = s.tuples if kind == "induced-rel" else s.edges
        out.append(
            {
                "label": label,
                "family": family,
                "params": list(params),
                "kind": kind,
                "n": s.n,
                "edges": [list(t) for t in tuples],
                "report": None
                if rep is None
                else {
                    "property": rep.property_name,
                    "holds": rep.holds,
                    "mode": rep.mode,
                    "samples": rep.samples,
                    "witness": rep.witness_text,
                },
            }
        )
    return out


# -- symmetric ----------------------------------------------------------

RELABELLINGS = 2


def _complete(n):
    return _h(n, itertools.combinations(range(n), 2), 2)


def _cycle(n, copies=1):
    return _h(
        n * copies,
        [(c * n + i, c * n + (i + 1) % n) for c in range(copies) for i in range(n)],
        2,
    )


def _hypercube(d):
    return _h(1 << d, [(v, v | 1 << i) for v in range(1 << d) for i in range(d) if not v >> i & 1], 2)


def _biclique(a):
    return _h(2 * a, [(i, a + j) for i in range(a) for j in range(a)], 2)


def _prism(n):
    ring = [(i, (i + 1) % n) for i in range(n)]
    return _h(2 * n, ring + [(n + a, n + b) for a, b in ring] + [(i, n + i) for i in range(n)], 2)


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return _h(10, outer + inner + [(i, 5 + i) for i in range(5)], 2)


def _disjoint_edges(k, c):
    return _h(k * c, [tuple(range(k * i, k * i + k)) for i in range(c)], k)


def _structures():
    """(name, descriptor for the order formula, structure, kind of query).

    The query kind is "full" (automorphisms, canonical key and form),
    "group" (automorphisms only) or "rel" (relational group and key).
    Q_6 is asked for its group only: its canonical labelling takes from
    0.2 s to 3.6 s depending on the relabelling, which would make the
    workload's time depend on the seed.
    """
    out = []
    for n in (8, 11, 14):
        out.append((f"empty({n})", {"kind": "empty", "n": n}, _h(n, [], 2), "full"))
        out.append((f"K({n})", {"kind": "complete", "n": n}, _complete(n), "full"))
    out += [
        ("Q(5)", {"kind": "hypercube", "d": 5}, _hypercube(5), "full"),
        ("Q(6)", {"kind": "hypercube", "d": 6}, _hypercube(6), "group"),
        ("C(60)", {"kind": "cycle", "n": 60}, _cycle(60), "full"),
        ("C(12)", {"kind": "cycle", "n": 12}, _cycle(12), "full"),
        ("2C(6)", {"kind": "cycles", "n": 6, "c": 2}, _cycle(6, 2), "full"),
        ("K(6,6)", {"kind": "biclique", "a": 6}, _biclique(6), "full"),
        ("K(3,3)", {"kind": "biclique", "a": 3}, _biclique(3), "full"),
        ("prism(3)", {"kind": "prism", "n": 3}, _prism(3), "full"),
        ("Petersen", {"kind": "petersen"}, _petersen(), "full"),
        ("7xK2", {"kind": "disjoint-edges", "k": 2, "c": 7}, _disjoint_edges(2, 7), "full"),
        ("5xK3", {"kind": "disjoint-edges", "k": 3, "c": 5}, _disjoint_edges(3, 5), "full"),
        ("4xK4", {"kind": "disjoint-edges", "k": 4, "c": 4}, _disjoint_edges(4, 4), "full"),
        ("K(9)^(3)", {"kind": "complete-k", "n": 9, "k": 3},
         _h(9, itertools.combinations(range(9), 3), 3), "full"),
        ("gkt(3,4)", {"kind": "ring3", "t": 4}, M.gen_gkt(3, 4), "full"),
        ("gkt(3,10)", {"kind": "ring3", "t": 10}, M.gen_gkt(3, 10), "full"),
        ("gks(6,1)", {"kind": "layered"}, M.gen_gks(6, 1), "full"),
        ("gk(6)", {"kind": "interval"}, M.gen_gk(6), "full"),
        ("gk(10)", {"kind": "interval"}, M.gen_gk(10), "full"),
        ("hcirc(4,2)", {"kind": "widened-ring"}, M.gen_hcirc(4, 2), "rel"),
        ("hcirc(5,3)", {"kind": "widened-ring"}, M.gen_hcirc(5, 3), "rel"),
    ]
    return out


def _relabel(s, p, query):
    if query == "rel":
        return M.RelationalStructure(s.n, s.arity, [tuple(p[v] for v in t) for t in s.tuples])
    return M.Hypergraph(s.n, [tuple(p[v] for v in e) for e in s.edges], k=s.k)


def symmetric_setup(seed):
    rng = random.Random(seed)
    built = []
    for name, desc, s, query in _structures():
        # Every relabelling of the empty and complete graphs is the same
        # graph, so one copy of each is enough.
        count = 1 if desc["kind"] in ("empty", "complete") else RELABELLINGS
        copies = []
        for _ in range(count):
            p = list(range(s.n))
            rng.shuffle(p)
            copies.append(_relabel(s, p, query))
        built.append((name, desc, query, copies))
    return built


def symmetric_run(inputs, op):
    results = []
    for name, _, query, copies in inputs:
        per_copy = []
        for s in copies:
            if query == "rel":
                answers = (op(name, M.automorphisms_rel, s), op(name, M.canonical_key_rel, s), None)
            elif query == "group":
                answers = (op(name, M.automorphisms, s), None, None)
            else:
                answers = (
                    op(name, M.automorphisms, s),
                    op(name, M.canonical_key, s),
                    op(name, M.canonical_form, s),
                )
            per_copy.append(answers)
        results.append(per_copy)
    return results


def _digest(key):
    return None if key is None else hashlib.sha256(key).hexdigest()


def symmetric_export(inputs, raw):
    out = []
    for (name, desc, query, copies), per_copy in zip(inputs, raw):
        ordered = query == "rel"
        items = []
        for s, (res, key, form) in zip(copies, per_copy):
            items.append(
                {
                    "n": s.n,
                    "edges": [list(t) for t in (s.tuples if ordered else s.edges)],
                    "order": None if res is None else res.group_order,
                    "generators": None if res is None else [list(g) for g in res.generators],
                    "key": _digest(key),
                    "form": None if form is None else _edges(form),
                }
            )
        out.append({"name": name, "desc": desc, "ordered": ordered, "copies": items})
    return out


def symmetric_post(inputs, export):
    """Canonical form of the first copy's canonical form, for the
    fixed-point check; the other copies must share that form."""
    for item in export:
        c = item["copies"][0]
        if c["form"] is not None:
            again = M.canonical_form(M.Hypergraph(c["n"], c["form"]))
            c["form_again"] = _edges(again)


WORKLOADS = {
    "census": (census_setup, census_run, census_export, None),
    "labeled-scan": (scan_setup, scan_run, scan_export, None),
    "certify": (certify_setup, certify_run, certify_export, None),
    "symmetric": (symmetric_setup, symmetric_run, symmetric_export, symmetric_post),
}
