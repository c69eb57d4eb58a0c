"""The committed before/after benchmark files keep one shape."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_files_have_the_committed_shape():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        bench = json.loads(path.read_text())
        for key in ("command", "machine", "parent"):
            assert isinstance(bench.get(key), str) and bench[key], (path.name, key)
        assert bench["workloads"], path.name
        for name, workload in bench["workloads"].items():
            where = (path.name, name)
            assert isinstance(workload["pairs"], int) and workload["pairs"] > 0, where
            for side in ("parent", "change"):
                runs = workload[side]
                assert isinstance(runs["all_correct"], bool), where
                assert isinstance(runs["failed"], int), where
                assert isinstance(runs["wall_s"]["median"], (int, float)), where
