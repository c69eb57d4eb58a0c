"""One workload in a fresh, single-threaded process.

Started by run.py with `src` on PYTHONPATH.  Times `import minasym` plus
the workload's input building (set-up), then runs whole rounds of the
workload until `--seconds` have passed, timing each round.  With
`--trace 1` the package's layers are wrapped in spans first and the
spans are written to `--trace-path` at the end.  Prints one JSON line:
set-up time, round times, `wall_s`, operation counts, peak memory and
the first round's outputs for the checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-path")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import minasym  # noqa: F401  (the import is part of set-up)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    import workloads

    setup, run_round, export, post = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    attempted = 0
    errors: list[str] = []
    op_s: list[float] = []  # this round's operation times, in call order
    clock = time.perf_counter

    def op(label, fn, *a, **kw):
        nonlocal attempted
        attempted += 1
        t = clock()
        try:
            return fn(*a, **kw)
        except Exception as exc:  # a failed operation is counted, not fatal
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            op_s.append(clock() - t)

    if tracer is not None:
        tracer.mark_rounds()
    round_s: list[float] = []
    round_ops: list[list[float]] = []
    first = None
    rounds_agree = True
    begin = time.perf_counter()
    while True:
        op_s.clear()
        t = time.perf_counter()
        raw = run_round(inputs, op)
        round_s.append(time.perf_counter() - t)
        round_ops.append(list(op_s))
        if tracer is not None:
            tracer.active = False
        out = export(inputs, raw)
        if first is None:
            first = out
        elif out != first:
            rounds_agree = False
        if time.perf_counter() - begin >= args.seconds:
            break
        if tracer is not None:
            tracer.active = True
    if tracer is not None:
        tracer.write(args.trace_path, len(round_s))
    if post is not None:
        post(inputs, first)
    if len({len(ops) for ops in round_ops}) == 1:
        # One round's time, robust to a slow spell hitting one operation
        # in one round: each operation's median over the rounds, summed.
        wall_s = sum(statistics.median(times) for times in zip(*round_ops))
    else:
        wall_s = statistics.median(round_s)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "round_s": round_s,
        "attempted": attempted,
        "failed": len(errors),
        "errors": sorted(set(errors)),
        "rounds_agree": rounds_agree,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output": first,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
