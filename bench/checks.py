"""Checks of each workload's outputs against `oracles.py`.

Each `check_<workload>(output)` takes the JSON a worker exported for one
round and returns a list of problems, empty when every output that was
produced is right.  Nothing here imports `minasym`, and nothing compares
against a stored copy of an earlier run.
"""

from __future__ import annotations

import math

import oracles as O


def _census_problems(n, k, levels, asymmetric) -> list[str]:
    problems = []
    act = O.PermAction(n, k)
    expected = O.polya_counts(n, k)
    asym_expected = O.asymmetric_class_counts(n, k)
    got = {m: reps for m, reps in levels}
    if sorted(got) != list(range(len(expected))):
        problems.append(f"census levels {sorted(got)} != 0..{len(expected) - 1}")
    total = sum(len(r) for r in got.values())
    published = {2: O.A000088_GRAPHS, 3: O.A000665_3GRAPHS}.get(k, {}).get(n)
    if published is not None and total != published:
        problems.append(f"{total} classes, published count is {published}")
    orbit_sum = 0
    seen = set()
    asym_count = 0
    for (m, reps), flags in zip(levels, asymmetric):
        if m < len(expected) and len(reps) != expected[m]:
            problems.append(f"{len(reps)} classes with {m} edges, Pólya gives {expected[m]}")
        if flags is not None and len(flags) != len(reps):
            problems.append(f"{len(flags)} asymmetry answers for {len(reps)} classes")
            flags = None
        asym_here = 0
        for i, edges in enumerate(reps):
            if len(edges) != m or any(len(e) != k for e in edges):
                problems.append(f"class {edges} filed under {m} edges")
                continue
            mask = act.mask(edges)
            least = act.orbit_min(mask)
            if least in seen:
                problems.append(f"class {edges} isomorphic to an earlier one")
            seen.add(least)
            stab = act.stabiliser_order(mask)
            orbit_sum += math.factorial(n) // stab
            asym_here += stab == 1
            if flags is not None and flags[i] is not None and flags[i] != (stab == 1):
                problems.append(f"is_asymmetric({edges}) = {flags[i]}, stabiliser order {stab}")
        asym_count += asym_here
        if m < len(asym_expected) and asym_here != asym_expected[m]:
            problems.append(
                f"{asym_here} asymmetric classes with {m} edges, sieve gives {asym_expected[m]}"
            )
    if orbit_sum != 1 << len(act.space):
        problems.append(f"orbit sizes sum to {orbit_sum}, not 2^{len(act.space)}")
    if k == 2 and n in O.A003400_ASYMMETRIC_GRAPHS:
        if asym_count != O.A003400_ASYMMETRIC_GRAPHS[n]:
            problems.append(f"{asym_count} asymmetric classes, published count is "
                            f"{O.A003400_ASYMMETRIC_GRAPHS[n]}")
    return problems


def check_census(out) -> list[str]:
    if out["levels"] is None:
        return []  # the census call failed; counted in `failed`
    return _census_problems(out["n"], out["k"], out["levels"], out["asymmetric"])


def check_labeled_scan(out) -> list[str]:
    problems = []
    scan = out["scan"]
    if scan is not None:
        n, k = scan["n"], scan["k"]
        act = O.PermAction(n, k)
        classes = sum(O.polya_counts(n, k))
        asym = sum(O.asymmetric_class_counts(n, k))
        if scan["total_labeled"] != 1 << math.comb(n, k):
            problems.append(f"total_labeled {scan['total_labeled']}")
        if scan["iso_classes"] != classes:
            problems.append(f"{scan['iso_classes']} classes, Pólya gives {classes}")
        published = {2: O.A000088_GRAPHS, 3: O.A000665_3GRAPHS}.get(k, {}).get(n)
        if published is not None and scan["iso_classes"] != published:
            problems.append(f"{scan['iso_classes']} classes, published count is {published}")
        if scan["asymmetric_classes"] != asym or len(scan["witnesses"]) != asym:
            problems.append(
                f"{scan['asymmetric_classes']} asymmetric classes and "
                f"{len(scan['witnesses'])} witnesses, sieve gives {asym}"
            )
        seen = set()
        for edges in scan["witnesses"]:
            mask = act.mask(edges)
            if act.stabiliser_order(mask) != 1:
                problems.append(f"witness {edges} is symmetric")
            least = act.orbit_min(mask)
            if least in seen:
                problems.append(f"witness {edges} isomorphic to an earlier one")
            seen.add(least)
    for k_text, (n, witness) in out["min_order"].items():
        k = int(k_text)
        expected = O.least_asymmetric_order(k, out["n_max"])
        if n != expected or n != O.PUBLISHED_MIN_ORDER.get(k, n):
            problems.append(f"n({k}) = {n}; sieve gives {expected}, "
                            f"published {O.PUBLISHED_MIN_ORDER.get(k)}")
            continue
        if witness is None or witness[0] != n:
            problems.append(f"n({k}) = {n} without a witness on {n} vertices")
            continue
        wn, edges = witness
        if any(len(e) != k for e in edges):
            problems.append(f"n({k}) witness {edges} is not {k}-uniform")
        elif O.PermAction(wn, k).stabiliser_order(O.PermAction(wn, k).mask(edges)) != 1:
            problems.append(f"n({k}) witness {edges} is symmetric")
    lemma = out["lemma"]
    if lemma is not None:
        # Edge-set complement maps (n-1)-graphs on n vertices to vertex
        # sets (1-graphs), whose group is Sym(S) x Sym(rest): never trivial
        # for n >= 3, so every labelled instance is symmetric.
        if lemma["k"] != lemma["n"] - 1 or lemma["n"] < 3:
            problems.append(f"lemma scan at k={lemma['k']}, n={lemma['n']} has no reference")
        total = 1 << math.comb(lemma["n"], lemma["k"])
        if not lemma["all_symmetric"] or lemma["has_witness"]:
            problems.append("lemma scan reports an asymmetric instance")
        if lemma["scanned"] != total or lemma["total_labeled"] != total:
            problems.append(f"lemma scan covered {lemma['scanned']} of {total} masks")
    return problems


# Sizes of the certified families, from their definitions.
def _family_size(family, params):
    if family == "gkt-circ":  # t*k hubs, k-2 secondary rings, one anchor
        k, t = params
        return t * k * (k - 1) + 1, t * k + (k - 3) * t + 1
    if family == "gk-star":  # 2k-1 path vertices plus the pendant
        (k,) = params
        return 2 * k, k + 1
    if family == "r3t":  # anchored ring on 3t+1 hubs, two tuples per edge
        (t,) = params
        return 6 * t + 1, 2 * (3 * t + 1)
    raise ValueError(family)


def _certificate_truth(cert):
    """(whole structure passes, violating subsets) by the oracles."""
    n, edges, kind = cert["n"], [tuple(e) for e in cert["edges"]], cert["kind"]
    ordered = kind == "induced-rel"
    involution = kind == "invfree-nontrivial"
    whole_ok = O.find_automorphism(n, edges, ordered=ordered, involution=involution) is None
    if kind in ("strong", "invfree-nontrivial"):
        bad = O.edge_subset_violations(n, edges, involution=involution)
    else:
        bad = O.induced_subset_violations(n, edges, ordered=ordered)
    return whole_ok, bad


def check_certify(out) -> list[str]:
    problems = []
    for cert in out:
        label, rep, kind = cert["label"], cert["report"], cert["kind"]
        n, m = _family_size(cert["family"], cert["params"])
        if (cert["n"], len(cert["edges"])) != (n, m):
            problems.append(f"{label}: built with n={cert['n']}, m={len(cert['edges'])}; "
                            f"its definition gives n={n}, m={m}")
        if rep is None:
            continue
        whole_ok, bad = _certificate_truth(cert)
        truth = whole_ok and not bad
        if rep["holds"] != truth:
            what = "whole structure fails" if not whole_ok else f"violating subsets {bad[:3]}"
            problems.append(f"{label}: holds={rep['holds']}, reference says {truth} ({what})")
        if truth:
            expected = (1 << cert["n"]) - cert["n"] - 2 if kind.startswith("induced") else (
                (1 << len(cert["edges"])) - 1
            )
            if rep["samples"] != expected:
                problems.append(f"{label}: samples={rep['samples']}, expected {expected}")
            if rep["mode"] != "exhaustive" or rep["witness"]:
                problems.append(f"{label}: mode {rep['mode']!r} or a witness on success")
    return problems


def _degrees(n, edges) -> list[int]:
    deg = [0] * n
    for e in edges:
        for v in e:
            deg[v] += 1
    return sorted(deg) + [len(edges)]


def check_symmetric(out) -> list[str]:
    problems = []
    keys = {}
    for item in out:
        name, copies, ordered = item["name"], item["copies"], item["ordered"]
        order = O.formula_order(item["desc"])
        for c in copies:
            if c["order"] is not None and c["order"] != order:
                problems.append(f"{name}: group order {c['order']}, formula gives {order}")
            for g in c["generators"] or []:
                if not O.is_automorphism(c["n"], c["edges"], g, ordered=ordered):
                    problems.append(f"{name}: generator {g[:8]}... is not an automorphism")
                    break
            if c["order"] == 1 and c["generators"]:
                problems.append(f"{name}: generators returned for a trivial group")
        got_keys = {c["key"] for c in copies if c["key"] is not None}
        if len(got_keys) > 1:
            problems.append(f"{name}: canonical keys differ across relabellings")
        forms = [c["form"] for c in copies if c["form"] is not None]
        if any(sorted(map(tuple, f)) != sorted(map(tuple, forms[0])) for f in forms):
            problems.append(f"{name}: canonical forms differ across relabellings")
        for c in copies:
            if c["form"] is not None and _degrees(c["n"], c["form"]) != _degrees(c["n"], c["edges"]):
                problems.append(f"{name}: canonical form has other degrees than the input")
            if "form_again" in c and sorted(map(tuple, c["form_again"])) != sorted(
                map(tuple, c["form"])
            ):
                problems.append(f"{name}: canonical form is not a fixed point")
        for key in got_keys:
            keys.setdefault(key, []).append(name)
    # The structures are pairwise non-isomorphic, among them C_12 and 2C_6
    # and K_{3,3} and the prism, which share their degree sequences.
    for names in keys.values():
        if len(names) > 1:
            problems.append(f"canonical keys of {' and '.join(names)} are equal")
    return problems


CHECKS = {
    "census": check_census,
    "labeled-scan": check_labeled_scan,
    "certify": check_certify,
    "symmetric": check_symmetric,
}
