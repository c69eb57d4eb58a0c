"""numpy loads with the first bit-mask scan, and not before.

Groups, canonical forms, the augmentation census, relational queries,
sampled certificates and the `gen`/`aut` commands are pure Python; only
exhaustive scans and the labeled census use numpy.  Each check runs in
a fresh interpreter, so nothing the rest of the suite imported counts.
"""

import os
import subprocess
import sys
from pathlib import Path

import minasym

_NO_NUMPY = """
import contextlib, io, sys
import minasym as M
from minasym import cli

def no_numpy(step):
    assert "numpy" not in sys.modules, f"numpy loaded by {step}"

no_numpy("import minasym")
h = M.gen_gkt(3, 4)
M.automorphisms(h), M.canonical_key(h), M.canonical_form(h)
no_numpy("the group and canonical form of a k-graph")
for m, reps in M.classes_by_edge_count(6, 2):
    [M.is_asymmetric(g) for g in reps]
no_numpy("the augmentation census")
r = M.gen_hcirc(4, 2)
M.automorphisms_rel(r), M.canonical_key_rel(r)
no_numpy("the group and canonical key of a relation")
ring = M.gen_gkt_circ(3, 1)
assert M.verify_asymmetric(ring).holds
assert M.verify_strongly_minimal(ring, mode="sampled", samples=50, seed=1).holds
no_numpy("asymmetry and a sampled certificate")
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.main(["gen", "--family", "gkt-circ", "--k", "3", "--t", "1"]) == 0
sys.stdin = io.StringIO(out.getvalue())
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["aut", "--input", "-"]) == 0
no_numpy("the gen and aut commands")
"""


def _child(script: str) -> None:
    package_root = str(Path(minasym.__file__).resolve().parents[1])
    pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_pure_python_paths_never_import_numpy():
    _child(_NO_NUMPY + """
assert M.verify_strongly_minimal(ring, mode="exhaustive").holds
assert "numpy" in sys.modules
""")


def test_labeled_census_imports_numpy():
    _child("""
import sys
import minasym as M
assert "numpy" not in sys.modules
M.scan_classes(2, 5)
assert "numpy" in sys.modules
""")
