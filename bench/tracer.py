"""Spans around calls into the package's layers, and the per-layer
metrics derived from them.

`Tracer.install` replaces every binding of each layer's public
functions in the package's modules with a wrapper that records a span:
modules import names directly (`verify.is_asymmetric` is a binding of
`autom.is_asymmetric`), so wrapping only the defining module would miss
most calls.  The engine object returned by `structure_engine` gets its
public search methods wrapped the same way.  Spans stay in memory as
flat arrays (name, parent, start, end, count) and are written out once,
when the run ends.

`derive_metrics` reads such a file and computes the per-layer metrics
named in BENCHMARK.json.  Self time is a span's duration minus the time
covered by its direct child spans.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from array import array

LAYERS = ("autom", "search", "verify", "hypergraph", "relations", "constructions")
ENGINE_METHODS = ("find_nonidentity", "generators", "find_involution", "canonical")
# Private entry points that are layer boundaries all the same: the sieve
# behind min_asymmetric_order and verify_lemma_all_symmetric.
EXTRA = {"search": ("_scan_labeled",)}


def _counter_for(name):
    """What a span of this function counts, read off its result."""
    if name in (
        "verify.verify_strongly_minimal",
        "verify.verify_minimal_involution_free",
        "verify.verify_minimal_asymmetric",
        "relations.verify_minimal_asymmetric_rel",
    ):
        return lambda args, kwargs, res: res.samples
    if name == "search._scan_labeled":
        return lambda args, kwargs, res: res[0]
    if name == "search.enumerate_k_graphs":
        return lambda args, kwargs, res: 1 << math.comb(args[1], args[0])
    if name == "search.classes_by_edge_count":
        return lambda args, kwargs, item: len(item[1])
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.stack = [-1]
        self.active = False
        self.round_start = 0

    def _intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name, f, counter=None, post=None):
        nid = self._intern(name)
        names, parents, starts, ends, counts = (
            self.name, self.parent, self.start, self.end, self.count
        )
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def open_span():
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            counts.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def close_span(idx):
            ends[idx] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(f):

            def traced_gen(*args, **kwargs):
                # One span per resumption, so the caller's work between
                # items is not counted; tracing only switches between rounds.
                it = f(*args, **kwargs)
                if not tracer.active:
                    yield from it
                    return
                while True:
                    idx = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    if counter is not None:
                        counts[idx] = counter(args, kwargs, item)
                    yield item

            traced_gen.__wrapped__ = f
            return traced_gen

        def traced(*args, **kwargs):
            if not tracer.active:
                return f(*args, **kwargs)
            idx = open_span()
            try:
                res = f(*args, **kwargs)
            finally:
                close_span(idx)
            if counter is not None:
                counts[idx] = counter(args, kwargs, res)
            return post(res) if post is not None else res

        traced.__wrapped__ = f
        return traced

    def _wrap_engine(self, engine):
        for meth in ENGINE_METHODS:
            setattr(engine, meth, self.wrap(f"autom.engine.{meth}", getattr(engine, meth)))
        return engine

    def install(self, package: str = "minasym") -> None:
        """Wrap each layer's public functions in every module binding them."""
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, val in vars(mod).items():
                public = not attr.startswith("_") or attr in EXTRA.get(layer, ())
                if public and inspect.isfunction(val) and val.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    post = self._wrap_engine if name == "autom.structure_engine" else None
                    originals[id(val)] = self.wrap(name, val, _counter_for(name), post)
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = originals.get(id(val))
                if wrapper is not None and wrapper.__wrapped__ is val:
                    setattr(mod, attr, wrapper)

    def mark_rounds(self) -> None:
        """Spans from here on belong to the timed rounds, not to set-up."""
        self.round_start = len(self.start)

    def write(self, path: str, rounds: int) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            count=np.frombuffer(self.count, dtype=np.int64),
            round_start=np.array(self.round_start),
            rounds=np.array(rounds),
        )


# -- per-layer metrics ----------------------------------------------------

PER_LAYER = [
    # (name, unit, better)
    ("autom.nonidentity.calls", "count", "lower"),
    ("autom.nonidentity.s", "s", "lower"),
    ("autom.involution.calls", "count", "lower"),
    ("autom.involution.s", "s", "lower"),
    ("autom.automorphisms.calls", "count", "lower"),
    ("autom.automorphisms.s", "s", "lower"),
    ("autom.canonical.calls", "count", "lower"),
    ("autom.canonical.s", "s", "lower"),
    ("autom.engine.builds", "count", "lower"),
    ("autom.engine.build_s", "s", "lower"),
    ("autom.engine.search_s", "s", "lower"),
    ("autom.group_order.calls", "count", "lower"),
    ("autom.group_order.s", "s", "lower"),
    ("autom.twin_shortcut_ratio", "ratio", "higher"),
    ("autom.self_s", "s", "lower"),
    ("search.self_s", "s", "lower"),
    ("search.masks", "count", "lower"),
    ("search.masks_per_s", "1/s", "higher"),
    ("search.classes", "count", "higher"),
    ("search.accept_ratio", "ratio", "higher"),
    ("verify.subsets", "count", "lower"),
    ("verify.self_s", "s", "lower"),
    ("verify.subsets_per_s", "1/s", "higher"),
    ("verify.engine_ratio", "ratio", "lower"),
    ("hypergraph.sub.calls", "count", "lower"),
    ("hypergraph.sub.s", "s", "lower"),
    ("hypergraph.support.s", "s", "lower"),
    ("hypergraph.self_s", "s", "lower"),
    ("relations.nonidentity.calls", "count", "lower"),
    ("relations.nonidentity.s", "s", "lower"),
    ("relations.induced.s", "s", "lower"),
    ("relations.subsets", "count", "lower"),
    ("relations.self_s", "s", "lower"),
    ("constructions.s", "s", "lower"),
]


def derive_metrics(path: str) -> dict[str, float]:
    """Per-layer metrics from a trace file, per timed round.

    Set-up spans count once and round spans are divided by the number
    of rounds, so runs with different round counts compare.
    """
    import numpy as np

    data = np.load(path)
    names = json.loads(str(data["names"]))
    name, parent = data["name"], data["parent"]
    dur = data["end"] - data["start"]
    count = data["count"].astype(np.float64)
    n = name.size
    rounds = int(data["rounds"])
    weight = np.ones(n)
    weight[int(data["round_start"]) :] = 1.0 / max(rounds, 1)

    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time
    layer_of = np.array([LAYERS.index(s.split(".")[0]) for s in names] or [0])
    layer = layer_of[name] if n else np.zeros(0, dtype=int)

    def ids(*wanted):
        return [names.index(w) for w in wanted if w in names]

    def select(*wanted):
        return np.isin(name, ids(*wanted))

    def calls(sel):
        return float(weight[sel].sum())

    def total(sel, values=dur):
        return float((weight * values)[sel].sum())

    def children_named(*wanted):
        sel = select(*wanted) & has_parent
        return np.bincount(parent[sel], minlength=n)

    def parent_named(*wanted):
        sel = has_parent.copy()
        sel[has_parent] = np.isin(name[parent[has_parent]], ids(*wanted))
        return sel

    def under_layer(lname):
        """Spans with an ancestor (or themselves) in the given layer."""
        target = LAYERS.index(lname)
        flag = layer == target
        up = parent.copy()
        while np.any(up >= 0):
            ok = up >= 0
            flag[ok] |= layer[up[ok]] == target
            up[ok] = parent[up[ok]]
        return flag

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    nonid = select("autom.find_nonidentity_automorphism")
    inv = select("autom.has_involution")
    build = select("autom.structure_engine")
    canon = select("autom.engine.canonical")
    m["autom.nonidentity.calls"] = calls(nonid)
    m["autom.nonidentity.s"] = total(nonid)
    # Involution searches: `has_involution`, and the engine's search when
    # `automorphisms` runs it for an even group order.
    inv_search = inv | (
        select("autom.engine.find_involution") & ~parent_named("autom.has_involution")
    )
    m["autom.involution.calls"] = calls(inv_search)
    m["autom.involution.s"] = total(inv_search)
    aut = select("autom.automorphisms")
    m["autom.automorphisms.calls"] = calls(aut)
    m["autom.automorphisms.s"] = total(aut)
    m["autom.canonical.calls"] = calls(canon)
    m["autom.canonical.s"] = total(canon)
    m["autom.engine.builds"] = calls(build)
    m["autom.engine.build_s"] = total(build)
    m["autom.engine.search_s"] = total(
        select(*(f"autom.engine.{x}" for x in ENGINE_METHODS)), self_time
    )
    go = select("autom.group_order")
    m["autom.group_order.calls"] = calls(go)
    m["autom.group_order.s"] = total(go)
    queries = nonid | inv
    built = children_named("autom.structure_engine") > 0
    m["autom.twin_shortcut_ratio"] = ratio(calls(queries & ~built), calls(queries))
    m["autom.self_s"] = total(layer == LAYERS.index("autom"), self_time)

    search_self = total(layer == LAYERS.index("search"), self_time)
    masks = total(select("search._scan_labeled", "search.enumerate_k_graphs"), count)
    cbec = select("search.classes_by_edge_count")
    tested = canon & parent_named("search.classes_by_edge_count")
    accepted = total(cbec & (children_named("autom.engine.canonical") > 0), count)
    m["search.self_s"] = search_self
    m["search.masks"] = masks
    m["search.masks_per_s"] = ratio(masks, search_self)
    m["search.classes"] = total(cbec, count) + calls(
        select("autom.canonical_form") & parent_named("search.enumerate_k_graphs")
    )
    m["search.accept_ratio"] = ratio(accepted, calls(tested))

    scans = select(
        "verify.verify_strongly_minimal",
        "verify.verify_minimal_involution_free",
        "verify.verify_minimal_asymmetric",
    )
    subsets = total(scans, count)
    m["verify.subsets"] = subsets
    m["verify.self_s"] = total(layer == LAYERS.index("verify"), self_time)
    m["verify.subsets_per_s"] = ratio(subsets, total(scans))
    m["verify.engine_ratio"] = ratio(calls(build & under_layer("verify")), subsets)

    sub = select("hypergraph.sub_from_spec", "hypergraph.induced_sub")
    m["hypergraph.sub.calls"] = calls(sub)
    m["hypergraph.sub.s"] = total(sub)
    m["hypergraph.support.s"] = total(select("hypergraph.support"))
    m["hypergraph.self_s"] = total(layer == LAYERS.index("hypergraph"), self_time)

    rel_nonid = select("relations.find_nonidentity_automorphism_rel")
    m["relations.nonidentity.calls"] = calls(rel_nonid)
    m["relations.nonidentity.s"] = total(rel_nonid)
    m["relations.induced.s"] = total(select("relations.induced_rel"))
    m["relations.subsets"] = total(select("relations.verify_minimal_asymmetric_rel"), count)
    m["relations.self_s"] = total(layer == LAYERS.index("relations"), self_time)

    cons = layer == LAYERS.index("constructions")
    top_cons = cons.copy()
    top_cons[has_parent] &= layer[parent[has_parent]] != LAYERS.index("constructions")
    m["constructions.s"] = total(top_cons)
    return m


def span_table(path: str) -> list[tuple[str, float, float, float]]:
    """(span name, calls, inclusive s, self s) per round, busiest first."""
    import numpy as np

    data = np.load(path)
    names = json.loads(str(data["names"]))
    name, parent = data["name"], data["parent"]
    dur = data["end"] - data["start"]
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
    weight = np.ones(name.size)
    weight[int(data["round_start"]):] = 1.0 / max(int(data["rounds"]), 1)
    rows = []
    for i, label in enumerate(names):
        sel = name == i
        rows.append((label, float(weight[sel].sum()), float((weight * dur)[sel].sum()),
                     float((weight * self_time)[sel].sum())))
    return sorted(rows, key=lambda r: -r[3])


if __name__ == "__main__":
    # python3 bench/tracer.py bench/results/census.trace.npz
    print(f"{'span':48} {'calls':>10} {'incl_s':>9} {'self_s':>9}")
    for label, n_calls, incl, own in span_table(sys.argv[1]):
        if n_calls:
            print(f"{label:48} {n_calls:10.0f} {incl:9.3f} {own:9.3f}")
