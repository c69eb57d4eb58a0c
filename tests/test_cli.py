"""Command line behavior: formats, exit codes, file outputs."""

import itertools
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import minasym
from minasym import (
    Hypergraph,
    gen_figure2,
    gen_gk,
    is_asymmetric,
    parse_hgf,
    parse_hgf_stream,
    parse_rel,
    to_hgf,
)
from minasym.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_anchored_ring(capsys):
    code, out, _ = run(capsys, "gen", "--family", "gkt-circ", "--k", "3", "--t", "1")
    assert code == 0
    h = parse_hgf(out)
    assert (h.n, h.m, h.k) == (7, 4, 3)
    assert to_hgf(h) == out


def test_gen_writes_files(capsys, tmp_path):
    out_file = tmp_path / "g.hgf"
    labels_file = tmp_path / "g.labels"
    code, out, _ = run(
        capsys,
        "gen", "--family", "gk", "--k", "4",
        "-o", str(out_file), "--labels-out", str(labels_file),
    )
    assert code == 0
    assert out == ""
    assert parse_hgf(out_file.read_text()) == gen_gk(4)
    rows = labels_file.read_text().splitlines()
    assert len(rows) == 7
    assert rows[0] == "0 v1"


def test_gen_figure2_and_verify_asymmetric(capsys):
    code, out, _ = run(capsys, "verify", "--family", "figure2", "--property", "asymmetric")
    assert code == 0
    assert "asymmetric true" in out


def test_gen_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "gen", "--family", "gkt", "--k", "3", "--t", "0")
    assert code == 2
    assert "t >= k - 2" in err
    code, _, err = run(capsys, "gen", "--family", "gkt", "--k", "3")
    assert code == 2
    code, _, err = run(capsys, "gen", "--family", "tilde")
    assert code == 2


def test_gen_names_the_family_and_the_missing_flag(capsys):
    for argv, flag in (
        (("--family", "r3t"), "--t"),
        (("--family", "hcirc", "--t", "2"), "--k"),
        (("--family", "hcirc", "--k", "4"), "--t"),
        (("--family", "gks", "--k", "6"), "--s"),
    ):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 2 and out == ""
        assert f"family {argv[1]!r} needs {flag}" in err


def test_gen_unknown_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "mystery"])
    assert exc.value.code == 2


def test_gen_tilde_from_file(capsys, tmp_path):
    base = tmp_path / "base.hgf"
    base.write_text(to_hgf(gen_gk(4)))
    code, out, _ = run(capsys, "gen", "--family", "tilde", "--input", str(base))
    assert code == 0
    h = parse_hgf(out)
    assert (h.n, h.m, h.k) == (15, 4, 6)


def test_gen_relational_family(capsys, tmp_path):
    labels_file = tmp_path / "r.labels"
    code, out, _ = run(
        capsys, "gen", "--family", "r3t", "--t", "1", "--labels-out", str(labels_file)
    )
    assert code == 0
    r = parse_rel(out)
    assert (r.n, r.m, r.arity) == (7, 8, 3)
    assert len(labels_file.read_text().splitlines()) == 7


def test_gen_relational_families_build_the_ring_once(capsys, monkeypatch):
    import minasym.relations as relations_mod

    calls, build_family = [], relations_mod.build_family

    def counted(*args, **kwargs):
        calls.append(args)
        return build_family(*args, **kwargs)

    monkeypatch.setattr(relations_mod, "build_family", counted)
    for argv in (["--family", "r3t", "--t", "1"], ["--family", "hcirc", "--k", "4", "--t", "1"]):
        calls.clear()
        code, _, _ = run(capsys, "gen", *argv, "--labels-out", os.devnull)
        assert code == 0
        assert len(calls) == 1, argv


def test_aut_reports_group(capsys, tmp_path):
    path = tmp_path / "g.hgf"
    path.write_text(to_hgf(gen_gk(4)))
    code, out, _ = run(capsys, "aut", "--input", str(path))
    assert code == 0
    lines = out.splitlines()
    assert "order 2" in lines
    assert "asymmetric false" in lines
    assert "involution 6 5 4 3 2 1 0" in lines
    assert any(line.startswith("perm ") for line in lines)


def test_aut_refuses_a_search_tree_deeper_than_the_recursion_limit(capsys, tmp_path):
    n = 2 * sys.getrecursionlimit()
    path = tmp_path / "empty.hgf"
    path.write_text(f"{n} 0 0\n")
    code, out, err = run(capsys, "aut", "--input", str(path))
    assert (code, out) == (3, "")
    assert err == f"error: search tree on n = {n} points is deeper than the recursion limit\n"


@pytest.mark.parametrize("command", [["aut"], ["verify", "--property", "asymmetric"]])
def test_input_and_family_exclude_each_other(capsys, tmp_path, command):
    # the ring's group has order 1 and gk(4)'s order 2: neither may win silently
    path = tmp_path / "ring.hgf"
    run(capsys, "gen", "--family", "gkt-circ", "--k", "3", "--t", "1", "-o", str(path))
    with pytest.raises(SystemExit) as exc:
        main([*command, "--family", "gk", "--k", "4", "--input", str(path)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_aut_on_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(to_hgf(gen_figure2())))
    code, out, _ = run(capsys, "aut", "--input", "-")
    assert code == 0
    assert "order 1" in out
    assert "asymmetric true" in out
    assert "involution none" in out


def test_verify_family_strong_minimal(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--family", "gkt-circ", "--k", "3", "--t", "1",
        "--property", "strong-minimal",
    )
    assert code == 0
    assert "strong-minimal true exhaustive 15" in out


def test_verify_failure_exits_one(capsys, tmp_path):
    path = tmp_path / "g.hgf"
    path.write_text(to_hgf(gen_gk(5)))
    report = tmp_path / "report.txt"
    code, out, _ = run(
        capsys,
        "verify", "--input", str(path), "--property", "asymmetric",
        "-o", str(report),
    )
    assert code == 1
    text = report.read_text()
    assert "asymmetric false" in text
    assert "perm" in text


def test_verify_sampled_needs_seed(capsys):
    code, _, err = run(
        capsys,
        "verify", "--family", "gks", "--k", "6", "--s", "0",
        "--property", "minimal-involution-free", "--mode", "sampled",
        "--samples", "10",
    )
    assert code == 2
    assert "seed" in err


def test_verify_sampled_needs_a_sample(capsys):
    for samples in ("0", "-4"):
        code, out, err = run(
            capsys,
            "verify", "--family", "gkt-circ", "--k", "3", "--t", "1",
            "--property", "strong-minimal", "--mode", "sampled",
            "--samples", samples, "--seed", "1",
        )
        assert (code, out) == (2, "")
        assert "at least one sample" in err


def test_verify_sampled_refuses_a_scan_of_one_bit(capsys, tmp_path):
    # one edge on one vertex: no edge subset spans two vertices
    path = tmp_path / "g.hgf"
    path.write_text("1 1 1\n0\n")
    for extra in ([], ["--stratified"]):
        code, out, err = run(
            capsys,
            "verify", "--input", str(path), "--property", "minimal-involution-free",
            "--mode", "sampled", "--seed", "1", *extra,
        )
        assert (code, out, err) == (2, "", "error: cannot draw valid subgraph samples\n"), extra


def test_verify_sampled_runs_with_seed(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--family", "gks", "--k", "6", "--s", "0",
        "--property", "minimal-involution-free", "--mode", "sampled",
        "--samples", "25", "--seed", "7", "--nontrivial-only",
    )
    assert code == 0
    assert "minimal-involution-free true sampled 25 7" in out


def test_search_min_order_exact_output(capsys):
    code, out, _ = run(capsys, "search", "min-order", "--k", "3", "--n-max", "7")
    assert code == 0
    assert out == "n(3) = 6\n"


def test_search_min_order_none(capsys):
    code, out, _ = run(capsys, "search", "min-order", "--k", "3", "--n-max", "5")
    assert code == 1
    assert out == "n(3) = none up to 5\n"


def test_search_min_order_witness_file(capsys, tmp_path):
    wit = tmp_path / "w.hgf"
    code, out, _ = run(
        capsys, "search", "min-order", "--k", "2", "--n-max", "6", "-o", str(wit)
    )
    assert code == 0
    assert out == "n(2) = 6\n"
    assert is_asymmetric(parse_hgf(wit.read_text()))


def test_search_all_symmetric(capsys):
    code, out, _ = run(capsys, "search", "all-symmetric", "--k", "4", "--n", "5")
    assert code == 0
    assert out.splitlines()[0] == "true"


def test_search_all_symmetric_failure_prints_witness(capsys):
    code, out, _ = run(capsys, "search", "all-symmetric", "--k", "2", "--n", "6", "--half")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "false"
    witness = parse_hgf("\n".join(line for line in lines[1:] if not line.startswith("#")))
    assert is_asymmetric(witness)


def test_search_enum_table(capsys):
    code, out, _ = run(capsys, "search", "enum", "--k", "3", "--n", "5")
    assert code == 0
    assert out.splitlines() == [
        "k n totalLabeled isoClasses asymmetricClasses",
        "3 5 1024 34 0",
    ]


def test_search_enum_witness_stream(capsys, tmp_path):
    wit = tmp_path / "w.hgf"
    code, out, _ = run(
        capsys, "search", "enum", "--k", "2", "--n", "6", "--witnesses-out", str(wit)
    )
    assert code == 0
    assert "2 6 32768 156 8" in out
    graphs = parse_hgf_stream(wit.read_text())
    assert len(graphs) == 8
    assert all(is_asymmetric(g) for g in graphs)


def test_search_min_asym_stream(capsys):
    code, out, err = run(capsys, "search", "min-asym", "--k", "2", "--n", "6")
    assert code == 0
    graphs = parse_hgf_stream(out)
    assert len(graphs) == 8
    assert "8 minimal asymmetric" in err


def test_search_min_asym_none_exits_one(capsys):
    code, out, err = run(capsys, "search", "min-asym", "--k", "2", "--n", "5")
    assert (code, out) == (1, "")
    assert err == "# 0 minimal asymmetric 2-graphs on 5 vertices\n"


def test_search_all_symmetric_counts_through_the_witness(capsys, tmp_path):
    # (3, 6) has asymmetric 3-graphs; the first is mask 1066
    path = tmp_path / "witness.hgf"
    code, out, _ = run(capsys, "search", "all-symmetric", "--k", "3", "--n", "6", "-o", str(path))
    assert code == 1
    assert out == "false\n# scanned 1067 of 1048576 labeled 3-graphs on 6 vertices\n"
    edges = list(itertools.combinations(range(6), 3))
    assert parse_hgf(path.read_text()).edges == tuple(e for i, e in enumerate(edges) if 1066 >> i & 1)


def test_search_checkpoint_flag_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "all-symmetric", "--k", "3", "--n", "5", "--checkpoint", "scan.ck"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --checkpoint" in capsys.readouterr().err


def test_search_guard_exits_three(capsys):
    code, _, err = run(capsys, "search", "enum", "--k", "3", "--n", "10")
    assert code == 3
    assert "error" in err


def test_wide_exhaustive_edge_scan_exits_three(capsys, tmp_path):
    # an asymmetric 3-graph with 63 edges: its exhaustive edge scan is refused
    pool = list(itertools.combinations(range(10), 3))
    graph = Hypergraph(10, random.Random(1).sample(pool, 75)[:63], k=3)
    assert is_asymmetric(graph)
    path = tmp_path / "wide.hgf"
    path.write_text(to_hgf(graph))
    argv = ("verify", "--input", str(path), "--property", "strong-minimal", "--mode", "exhaustive")
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "refused" in err
    with pytest.raises(SystemExit) as exc:  # the flag is gone
        main([*argv, "--workers", "2"])
    assert exc.value.code == 2


def test_search_refuses_edge_size_below_one(capsys):
    # no class may be built on the empty edge
    for argv in (
        ("enum", "--k", "0", "--n", "3"),
        ("min-order", "--k", "0", "--n-max", "3"),
        ("min-order", "--k", "0", "--n-max", "1"),
    ):
        code, out, err = run(capsys, "search", *argv)
        assert (code, out) == (2, ""), argv
        assert "at least 1" in err


def test_search_missing_parameters(capsys):
    code, _, err = run(capsys, "search", "min-order", "--k", "3")
    assert code == 2
    code, _, err = run(capsys, "search", "enum", "--k", "3")
    assert code == 2


def test_complement_round_trip(capsys, tmp_path):
    path = tmp_path / "g.hgf"
    path.write_text(to_hgf(gen_figure2()))
    code, out, _ = run(capsys, "complement", "--input", str(path))
    assert code == 0
    c = parse_hgf(out)
    assert c.k == 3
    back = tmp_path / "c.hgf"
    back.write_text(out)
    code, out2, _ = run(capsys, "complement", "--input", str(back))
    assert code == 0
    assert parse_hgf(out2) == gen_figure2()


def test_missing_input_file_is_an_error(capsys):
    code, _, err = run(capsys, "complement", "--input", "/nonexistent/x.hgf")
    assert code == 2


def test_rel_subcommands(capsys, tmp_path):
    arc = tmp_path / "arc.rel"
    run(capsys, "gen", "--family", "single-arc", "-o", str(arc))

    code, out, _ = run(capsys, "rel", "mult", "--input", str(arc))
    assert code == 0
    assert out == "multiplicity = 1\n"

    code, out, _ = run(capsys, "rel", "critical", "--input", str(arc))
    assert code == 0
    assert out == "critical-asymmetric true\n"

    code, out, _ = run(capsys, "rel", "closure", "--input", str(arc))
    assert code == 0
    closed = parse_rel(out)
    assert closed.tuples == ((0, 1), (1, 0))

    code, out, _ = run(capsys, "rel", "verify-minimal", "--input", str(arc))
    assert code == 0
    assert "minimal-asymmetric-rel true" in out

    code, out, _ = run(capsys, "rel", "aut", "--input", str(arc))
    assert code == 0
    assert "order 1" in out


def test_rel_critical_failure_and_witness(capsys, tmp_path):
    path = tmp_path / "p.rel"
    path.write_text("3 2 2\n0 1\n1 2\n")
    code, out, _ = run(capsys, "rel", "critical", "--input", str(path))
    assert code == 1
    assert out.startswith("critical-asymmetric false\nwitness vertex ")


def test_rel_verify_minimal_failure(capsys, tmp_path):
    path = tmp_path / "s.rel"
    path.write_text("2 2 2\n0 1\n1 0\n")
    code, out, _ = run(capsys, "rel", "verify-minimal", "--input", str(path))
    assert code == 1
    assert "minimal-asymmetric-rel false" in out


def test_duplicate_rows_are_input_errors(capsys, tmp_path):
    hgf = tmp_path / "d.hgf"
    hgf.write_text("3 2 2\n0 1\n0 1\n")
    code, _, err = run(capsys, "aut", "--input", str(hgf))
    assert code == 2
    assert "duplicate edge line" in err
    rel = tmp_path / "d.rel"
    rel.write_text("2 2 2\n0 1\n0 1\n")
    code, _, err = run(capsys, "rel", "mult", "--input", str(rel))
    assert code == 2
    assert "duplicate tuple line" in err


def test_aut_rel_flag(capsys, tmp_path):
    path = tmp_path / "r.rel"
    run(capsys, "gen", "--family", "r3t", "--t", "1", "-o", str(path))
    code, out, _ = run(capsys, "aut", "--input", str(path), "--rel")
    assert code == 0
    assert "asymmetric true" in out


def test_console_script_installed():
    """The declared ``minasym`` console script, run as its own process,
    exits 0 and prints the least order of an asymmetric 3-graph.

    The entry point is read from ``[project.scripts]`` in pyproject.toml
    and called the way pip's generated launcher calls it. ``minasym`` is
    not looked up on PATH: a source checkout has none, and an installed
    copy may not be the code under test. The child instead imports the
    same ``minasym`` package as the rest of the suite.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["minasym"]
    module, func = target.split(":")
    launcher = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'minasym'; sys.exit({func}())"
    )
    package_root = str(Path(minasym.__file__).resolve().parents[1])
    pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "search", "min-order", "--k", "3", "--n-max", "7"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "n(3) = 6\n"


def _readme_tour():
    """(argv, expected stdout fragments) for each `minasym` line in the
    `sh` blocks of the README's CLI tour, in order.  A `# ...` comment
    after a command, inline or on the lines below it, is expected output."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## CLI tour", 1)[1].split("\n## ", 1)[0]
    steps = []
    for block in re.findall(r"```sh\n(.*?)```", tour, re.S):
        for line in block.splitlines():
            if line.startswith("minasym "):
                command, _, comment = line.partition("#")
                steps.append((shlex.split(command)[1:], [comment.strip()] if comment else []))
            elif line.startswith("# "):
                steps[-1][1].append(line[2:])
    return steps


def test_readme_cli_tour(capsys, monkeypatch, tmp_path):
    steps = _readme_tour()
    assert len(steps) == 12
    assert sum(len(expected) for _, expected in steps) == 5
    monkeypatch.chdir(tmp_path)
    for argv, expected in steps:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        for fragment in expected:
            assert fragment in out, (argv, fragment)
