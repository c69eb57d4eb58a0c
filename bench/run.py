"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload census --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (it puts `src` on PYTHONPATH).
With `--trace 0` it measures set-up time in five fresh processes, then
runs the workload in one more fresh process and reports the end-to-end
metrics: `wall_s`, one round's time as the sum of each operation's
median time over the rounds; `setup_s`, the median set-up time; and
`peak_rss_mb`, the workload process's peak resident memory.  With
`--trace 1` the workload process records spans and the per-layer
metrics are derived from the trace file.  Every run checks the first
round's outputs with `checks.py` and prints one JSON object as its last
line.  Details of each run go to `bench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, set-up samples and checks included

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _worker(args, extra, deadline):
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the workload process")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("census", "labeled-scan", "certify", "symmetric"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (Path.cwd() / "src" / "minasym" / "__init__.py").is_file():
        print("bench/run.py: no src/minasym here; run it from the root of a "
              "minasym source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import checks
    import tracer

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_path = RESULTS / f"{args.workload}.trace.npz"
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            setup_samples.append(_worker(args, ["--setup-only"], deadline)["setup_s"])
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--trace-path", str(trace_path)]
    res = _worker(args, extra, deadline)

    problems = checks.CHECKS[args.workload](res["output"])
    if not res["rounds_agree"]:
        problems.append("a later round's outputs differ from the first round's")
    wall_s = res["wall_s"]
    if args.trace:
        derived = tracer.derive_metrics(str(trace_path))
        metrics = {
            name: {"value": derived[name], "unit": unit}
            for name, unit, _ in tracer.PER_LAYER
        }
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": u} for name, u in END_TO_END.items()}
    summary = {
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    detail = dict(summary, problems=problems, errors=res["errors"], round_s=res["round_s"],
                  wall_s=wall_s, setup_samples=setup_samples, worker_setup_s=res["setup_s"])
    (RESULTS / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
