"""Tools for building and checking asymmetric uniform hypergraphs.

The package covers four activities: generating the named families,
deciding automorphism questions (asymmetry, involutions, stabilizers,
canonical forms), verifying minimality properties by subgraph scans,
and searching labeled or class-level graph spaces.
"""

from types import ModuleType as _Module

from .autom import (
    AutomResult,
    automorphisms,
    automorphisms_stabilizing,
    brute_force_automorphisms,
    canonical_form,
    canonical_key,
    find_nonidentity_automorphism,
    group_order,
    has_involution,
    is_asymmetric,
)
from .constructions import (
    FamilyBuild,
    build_family,
    gen_asym_witness_2graph,
    gen_figure2,
    gen_gk,
    gen_gk_star,
    gen_gks,
    gen_gkt,
    gen_gkt_circ,
    gk_reflection,
    tilde,
    tilde_labels,
)
from .errors import ResourceGuardError
from .hypergraph import (
    Hypergraph,
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
from .perms import (
    compose,
    cycles,
    from_cycles,
    identity,
    inverse,
    is_involution,
    order,
    random_perm,
    transposition,
)
from .relations import (
    RelationalStructure,
    automorphisms_rel,
    brute_force_automorphisms_rel,
    canonical_key_rel,
    cyclic_closure,
    find_nonidentity_automorphism_rel,
    gen_hcirc,
    gen_r3t,
    gen_single_arc,
    hcirc_labels,
    induced_rel,
    is_asymmetric_rel,
    is_critical_asymmetric,
    is_cyclic,
    multiplicity,
    parse_rel,
    r3t_labels,
    to_rel,
    verify_minimal_asymmetric_rel,
)
from .report import VERSION, VerificationReport, perm_line, serialize_report
from .search import (
    LemmaScan,
    SearchOutcome,
    classes_by_edge_count,
    enumerate_k_graphs,
    find_minimal_asymmetric,
    min_asymmetric_order,
    scan_classes,
    verify_lemma_all_symmetric,
)
from .verify import (
    verify_asymmetric,
    verify_minimal_asymmetric,
    verify_minimal_involution_free,
    verify_strongly_minimal,
)

__version__ = VERSION
# the public names bound above, submodules left out
__all__ = sorted(k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, _Module))
