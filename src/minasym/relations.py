"""k-ary relational structures: ordered-tuple analogues of hypergraphs."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from .autom import AutomResult, _assemble, _engine_of, _nonidentity, brute_force_structure
from .constructions import build_family
from .hypergraph import _read_rows, _restrict, _write_rows
from .perms import Perm
from .report import VerificationReport
from .verify import _verify


@dataclass(frozen=True)
class RelationalStructure:
    n: int
    arity: int
    tuples: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, arity: int, tuples: Iterable[Iterable[int]] = ()):
        if n < 0 or arity <= 0:
            raise ValueError("need n >= 0 and positive arity")
        normalized = set()
        for t in tuples:
            t = tuple(t)
            if len(t) != arity:
                raise ValueError(f"tuple {t!r} does not have arity {arity}")
            if any(not 0 <= v < n for v in t):
                raise ValueError(f"tuple {t!r} out of range for n={n}")
            normalized.add(t)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "tuples", tuple(sorted(normalized)))

    @property
    def m(self) -> int:
        return len(self.tuples)


def automorphisms_rel(r: RelationalStructure) -> AutomResult:
    """Automorphism group under position-preserving tuple maps."""
    return _assemble(r.n, r.tuples, ordered=True)


def brute_force_automorphisms_rel(r: RelationalStructure) -> AutomResult:
    return brute_force_structure(r.n, r.tuples, ordered=True)


def is_asymmetric_rel(r: RelationalStructure) -> bool:
    return find_nonidentity_automorphism_rel(r) is None


def find_nonidentity_automorphism_rel(r: RelationalStructure) -> Optional[Perm]:
    """A non-identity automorphism, or None.  Two isolated points are
    swapped without a search."""
    return _nonidentity(r.n, r.tuples, ordered=True)


def canonical_key_rel(r: RelationalStructure) -> bytes:
    enc, _ = _engine_of(r.n, r.tuples, True).canonical()
    return repr(("R", r.arity, enc)).encode()


def multiplicity(r: RelationalStructure) -> int:
    """Largest number of tuples sharing one arity-sized entry set."""
    counts = Counter(
        frozenset(t) for t in r.tuples if len(frozenset(t)) == r.arity
    )
    return max(counts.values(), default=0)


def induced_rel(r: RelationalStructure, vertices: Iterable[int]) -> RelationalStructure:
    n, kept = _restrict(r.n, r.tuples, vertices)
    return RelationalStructure(n, r.arity, kept)


def cyclic_closure(r: RelationalStructure) -> RelationalStructure:
    """Close the relation under all cyclic rotations of each tuple."""
    k = r.arity
    rotated = set()
    for t in r.tuples:
        for d in range(k):
            rotated.add(t[d:] + t[:d])
    return RelationalStructure(r.n, k, rotated)


def is_cyclic(r: RelationalStructure) -> bool:
    return cyclic_closure(r).tuples == r.tuples


def gen_single_arc() -> RelationalStructure:
    """One directed edge on two points: the smallest asymmetric binary
    relation, and critical: deleting either point kills asymmetry."""
    return RelationalStructure(2, 2, [(0, 1)])


def _anchored_ring_tuples(t: int):
    """Arity-3 tuple pairs read off the anchored ring on 3t+1 hubs: each
    chain edge becomes two tuples that agree on the designated third
    coordinate (the next ring vertex; the anchor for the extra edge)."""
    if t < 1:
        raise ValueError("need t >= 1")
    base = build_family("gkt-circ", k=3, t=t)
    index = {lab: i for i, lab in enumerate(base.labels)}
    ring = 3 * t
    tuples = []
    for i in range(ring):
        u, v, w = index[f"u{i}"], index[f"v0_{i}"], index[f"v0_{(i + 1) % ring}"]
        tuples.append((v, u, w))
        tuples.append((u, v, w))
    u0, v0, x = index["u0"], index["v0_0"], index["x"]
    tuples.append((v0, u0, x))
    tuples.append((u0, v0, x))
    return base.graph.n, tuples, base.labels


def _build_r3t(t: int):
    n, tuples, labels = _anchored_ring_tuples(t)
    return RelationalStructure(n, 3, tuples), labels


def gen_r3t(t: int) -> RelationalStructure:
    """Ternary relation of multiplicity two derived from the anchored
    ring; asymmetric while every proper induced substructure is
    symmetric."""
    return _build_r3t(t)[0]


def r3t_labels(t: int) -> tuple[str, ...]:
    return _anchored_ring_tuples(t)[2]


def _build_hcirc(k: int, t: int):
    if k < 4:
        raise ValueError("need arity k >= 4")
    n, base_tuples, labels = _anchored_ring_tuples(t)
    labels = list(labels)
    # base_tuples come in pairs per underlying edge, in edge order
    out = []
    for ei in range(len(base_tuples) // 2):
        fresh = []
        for j in range(1, k - 2):
            fresh.append(len(labels))
            labels.append(f"w{j}_{ei}")
        a, b = base_tuples[2 * ei], base_tuples[2 * ei + 1]
        out.append(a + tuple(fresh))
        out.append(b + tuple(fresh))
    return RelationalStructure(len(labels), k, out), tuple(labels)


def gen_hcirc(k: int, t: int) -> RelationalStructure:
    """Arity-k extension of the ternary ring relation: each tuple pair
    is padded with its own k-3 fresh trailing elements."""
    return _build_hcirc(k, t)[0]


def hcirc_labels(k: int, t: int) -> tuple[str, ...]:
    return _build_hcirc(k, t)[1]


# family token -> (the parameters it needs, builder of (structure, labels))
_FAMILIES = {
    "single-arc": ((), lambda: (gen_single_arc(), ("v0", "v1"))),
    "r3t": (("t",), _build_r3t),
    "hcirc": (("k", "t"), _build_hcirc),
}


def verify_minimal_asymmetric_rel(r: RelationalStructure) -> VerificationReport:
    """Asymmetric, with every induced substructure on 1 < n' < n points
    symmetric.  Induced substructures only; always exhaustive, and
    refused beyond 20 points."""

    def render(n, tuples):
        return to_rel(RelationalStructure(n, r.arity, tuples))

    return _verify("minimal-asymmetric-rel", r.n, r.tuples, True, "induced", render)


def is_critical_asymmetric(r: RelationalStructure) -> tuple[bool, Optional[int]]:
    """Does deleting any single point destroy asymmetry?

    Binary relations only, and the input must itself be asymmetric.
    Returns (True, None) or (False, offending point).
    """
    if r.arity != 2:
        raise ValueError("critical asymmetry is defined for binary relations")
    if not is_asymmetric_rel(r):
        raise ValueError("input relation is not asymmetric")
    for v in range(r.n):
        rest = [u for u in range(r.n) if u != v]
        if len(rest) <= 1:
            continue
        sub = induced_rel(r, rest)
        if is_asymmetric_rel(sub):
            return False, v
    return True, None


# REL text format: header "n m k", then one line per tuple with the
# entries in relation order; "#" comments; LF endings.


def to_rel(r: RelationalStructure) -> str:
    return _write_rows((r.n, r.m, r.arity), r.tuples)


def parse_rel(text: str) -> RelationalStructure:
    n, k, tuples = _read_rows(text, "REL", "tuple")
    return RelationalStructure(n, k, tuples)
