"""Command line front end.

Exit codes: 0 success (property holds, output written), 1 property fails
or nothing found, 2 usage or input errors, 3 a resource guard refused
the computation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .autom import AutomResult, automorphisms
from .constructions import _FAMILIES as _HG_TABLE, _build, build_family, tilde, tilde_labels
from .errors import ResourceGuardError
from .hypergraph import (
    Hypergraph,
    parse_hgf,
    serialize_labels,
    set_complement,
    to_hgf,
    to_hgf_stream,
)
from .relations import _FAMILIES as _REL_TABLE
from .relations import (
    automorphisms_rel,
    cyclic_closure,
    is_critical_asymmetric,
    multiplicity,
    parse_rel,
    to_rel,
    verify_minimal_asymmetric_rel,
)
from .report import VERSION, serialize_report
from .search import (
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

_HG_FAMILIES = tuple(_HG_TABLE)
_GEN_FAMILIES = _HG_FAMILIES + ("tilde",) + tuple(_REL_TABLE)
_PROPERTIES = (
    "asymmetric",
    "minimal-asymmetric",
    "strong-minimal",
    "minimal-involution-free",
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _emit(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_graph(args) -> Hypergraph:
    if args.input is not None:
        return parse_hgf(_read_text(args.input))
    if args.family is not None:
        return build_family(args.family, k=args.k, t=args.t, s=args.s, n=args.n).graph
    raise ValueError("need --input FILE or --family NAME")


def _aut_text(res: AutomResult) -> str:
    lines = [f"# minasym {VERSION}"]
    lines.append(f"order {res.group_order}")
    lines.append(f"asymmetric {'true' if res.is_asymmetric else 'false'}")
    if res.involution_witness is not None:
        lines.append("involution " + " ".join(map(str, res.involution_witness)))
    else:
        lines.append("involution none")
    for g in res.generators:
        lines.append("perm " + " ".join(map(str, g)))
    return "\n".join(lines) + "\n"


def _cmd_gen(args) -> int:
    fam, rel = args.family, args.family in _REL_TABLE
    if fam == "tilde":
        if args.input is None:
            raise ValueError("family 'tilde' needs --input with a base graph")
        base = parse_hgf(_read_text(args.input))
        built, labels = tilde(base), tilde_labels([f"v{i}" for i in range(base.n)], base.m)
    else:
        given = {"k": args.k, "t": args.t, "s": args.s, "n": args.n}
        built, labels = _build(_REL_TABLE if rel else _HG_TABLE, fam, given)
    _emit(to_rel(built) if rel else to_hgf(built), args.output)
    if args.labels_out:
        _emit(serialize_labels(labels), args.labels_out)
    return 0


def _cmd_aut(args) -> int:
    if args.rel:
        if args.input is None:
            raise ValueError("--rel needs --input with a REL file")
        res = automorphisms_rel(parse_rel(_read_text(args.input)))
    else:
        res = automorphisms(_load_graph(args))
    _emit(_aut_text(res), args.output)
    return 0


def _cmd_verify(args) -> int:
    h = _load_graph(args)
    prop = args.property
    scan = dict(mode=args.mode, samples=args.samples, seed=args.seed, stratified=args.stratified)
    if prop == "asymmetric":
        report = verify_asymmetric(h)
    elif prop == "minimal-asymmetric":
        report = verify_minimal_asymmetric(h)
    elif prop == "strong-minimal":
        report = verify_strongly_minimal(h, **scan)
    else:
        report = verify_minimal_involution_free(h, nontrivial_only=args.nontrivial_only, **scan)
    _emit(serialize_report(report), args.output)
    return 0 if report.holds else 1


def _cmd_search(args) -> int:
    action = args.action
    if action == "min-order":
        if args.k is None or args.n_max is None:
            raise ValueError("min-order needs --k and --n-max")
        n, witness = min_asymmetric_order(args.k, args.n_max)
        if n is None:
            print(f"n({args.k}) = none up to {args.n_max}")
            return 1
        print(f"n({args.k}) = {n}")
        if args.output and witness is not None:
            _emit(to_hgf(witness), args.output)
        return 0
    if action == "all-symmetric":
        if args.k is None or args.n is None:
            raise ValueError("all-symmetric needs --k and --n")
        scan = verify_lemma_all_symmetric(args.k, args.n, half=args.half)
        print("true" if scan.all_symmetric else "false")
        print(
            f"# scanned {scan.scanned} of {scan.total_labeled} labeled "
            f"{scan.k}-graphs on {scan.n} vertices"
        )
        if scan.witness is not None:
            _emit(to_hgf(scan.witness), args.output)
        return 0 if scan.all_symmetric else 1
    if action == "enum":
        if args.k is None or args.n is None:
            raise ValueError("enum needs --k and --n")
        outcome = scan_classes(args.k, args.n)
        table = (
            "k n totalLabeled isoClasses asymmetricClasses\n"
            f"{outcome.k} {outcome.n} {outcome.total_labeled} "
            f"{outcome.iso_classes} {outcome.asymmetric_classes}\n"
        )
        _emit(table, args.output)
        if args.witnesses_out:
            _emit(to_hgf_stream(outcome.witnesses), args.witnesses_out)
        return 0
    if action == "min-asym":
        if args.k is None or args.n is None:
            raise ValueError("min-asym needs --k and --n")
        found = find_minimal_asymmetric(args.k, args.n)
        print(f"# {len(found)} minimal asymmetric {args.k}-graphs on {args.n} vertices", file=sys.stderr)
        _emit(to_hgf_stream(found), args.output)
        return 0 if found else 1
    raise ValueError(f"unknown search action {action!r}")


def _cmd_complement(args) -> int:
    h = parse_hgf(_read_text(args.input))
    _emit(to_hgf(set_complement(h)), args.output)
    return 0


def _cmd_rel(args) -> int:
    r = parse_rel(_read_text(args.input))
    action = args.action
    if action == "mult":
        print(f"multiplicity = {multiplicity(r)}")
        return 0
    if action == "closure":
        _emit(to_rel(cyclic_closure(r)), args.output)
        return 0
    if action == "critical":
        ok, vertex = is_critical_asymmetric(r)
        print(f"critical-asymmetric {'true' if ok else 'false'}")
        if not ok:
            print(f"witness vertex {vertex}")
        return 0 if ok else 1
    if action == "verify-minimal":
        report = verify_minimal_asymmetric_rel(r)
        _emit(serialize_report(report), args.output)
        return 0 if report.holds else 1
    if action == "aut":
        _emit(_aut_text(automorphisms_rel(r)), args.output)
        return 0
    raise ValueError(f"unknown rel action {action!r}")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", metavar="FILE", help="write to FILE instead of stdout")


def _add_family_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, help="edge size parameter")
    p.add_argument("--t", type=int, help="ring length parameter")
    p.add_argument("--s", type=int, help="layering depth parameter")
    p.add_argument("--n", type=int, help="vertex count parameter")


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--input", metavar="FILE", help="HGF file ('-' for stdin)")
    source.add_argument("--family", choices=_HG_FAMILIES, help="generate the input instead of reading it")
    _add_family_params(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minasym",
        description="Generate, inspect, and verify asymmetric uniform hypergraphs.",
    )
    parser.add_argument("--version", action="version", version=f"minasym {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a named family instance")
    p.add_argument("--family", choices=_GEN_FAMILIES, required=True)
    _add_family_params(p)
    p.add_argument("--input", metavar="FILE", help="base graph for the 'tilde' family")
    p.add_argument("--labels-out", metavar="FILE", help="write the vertex label sidecar")
    _add_output(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("aut", help="report the automorphism group")
    _add_graph_source(p)
    p.add_argument("--rel", action="store_true", help="input is a REL file")
    _add_output(p)
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("verify", help="check a structural property")
    p.add_argument("--property", choices=_PROPERTIES, required=True)
    _add_graph_source(p)
    p.add_argument("--mode", choices=("auto", "exhaustive", "sampled"), default="auto")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stratified", action="store_true", help="sample subgraph sizes uniformly")
    p.add_argument(
        "--nontrivial-only",
        action="store_true",
        help="exempt spanning sub-hypergraphs from the involution requirement",
    )
    _add_output(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="scan labeled spaces and class censuses")
    p.add_argument("action", choices=("min-order", "all-symmetric", "enum", "min-asym"))
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--half", action="store_true", help="scan only edge counts up to half the space")
    p.add_argument("--witnesses-out", metavar="FILE", help="asymmetric class representatives (enum)")
    _add_output(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("complement", help="set-complement every edge within the vertex set")
    p.add_argument("--input", metavar="FILE", required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_complement)

    p = sub.add_parser("rel", help="relational structure operations")
    p.add_argument("action", choices=("mult", "closure", "critical", "verify-minimal", "aut"))
    p.add_argument("--input", metavar="FILE", required=True)
    _add_output(p)
    p.set_defaults(func=_cmd_rel)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
