"""One workload process: set up, run timed passes, check every output.

Started by run.py as a fresh single-threaded interpreter.  It makes one
closed loop with one caller: each op is a public reeslab call issued only
after the previous one has returned.  The last stdout line is one JSON
object for run.py.

    python3 perfbench/worker.py --workload search-p --seed 0 --seconds 35 \
        --trace 0 --spawned-at <time.monotonic() in the parent>

Set-up runs from the parent's spawn to the first op: interpreter start,
``import reeslab``, input generation and the ops' preparation.  reeslab is
imported only inside ``main`` so that a SpeedSampler covers set-up too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import inputs
from speed import SpeedSampler, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACE_DIR = os.path.join(ROOT, ".perfbench")
# A timed run repeats whole passes until --seconds is used up, and at least
# MIN_PASSES of them; an op's latency is the median over its passes.
MIN_PASSES = 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    with SpeedSampler() as sampler:
        from passes import Pass, input_mix, prepare

        ops = inputs.build_ops(args.workload, args.seed)
        calls = [prepare(op) for op in ops]
        setup_raw = time.monotonic() - args.spawned_at
    setup = {"setup_raw_s": setup_raw,
             "setup_s": scaled(setup_raw - sampler.spent, statistics.median(sampler.took))}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    from check import Checker, load_reference

    checker = Checker(load_reference())
    work = Pass(ops, calls, checker)
    walls: list[float] = []
    out = {**setup, "inputs": input_mix(ops)}
    if args.trace:
        from tracer import Tracer

        # Untraced passes before and after the traced one; the faster gives
        # the tracing overhead without the first pass's warm-up.
        walls.append(work.run())
        tracer = Tracer()
        with tracer:
            traced = work.run(call_wrapper=tracer.run_op, timed=False)
        walls.append(work.run())
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(path)
        out["layers"] = tracer.layer_metrics(traced, min(walls))
        out["absent"] = tracer.absent
        out["trace_file"] = os.path.relpath(path, ROOT)
    else:
        begin = time.perf_counter()
        while True:
            walls.append(work.run())
            spent = time.perf_counter() - begin
            if len(walls) >= MIN_PASSES and spent * (len(walls) + 1) / len(walls) > args.seconds:
                break
    per_op = [statistics.median(t) for t in work.scaled]
    # Latencies of the ops that never failed, one (median) per op.
    # Interpolated deciles: a few ops of very different cost sit near p90 in
    # search-p, and a nearest-rank p90 would jump between them.
    latencies = [t for t, ok in zip(per_op, work.ok) if ok]
    deciles = (statistics.quantiles(latencies, n=10, method="inclusive")
               if len(latencies) > 1 else [None] * 9)
    out.update({
        "passes": len(walls),
        "walls": walls,
        "walls_scaled": [sum(col) for col in zip(*work.scaled)],
        "wall_s": sum(per_op),
        "wall_raw_s": sum(statistics.median(t) for t in work.raw),
        "host_speed_s": {"min": min(work.speeds), "median": statistics.median(work.speeds),
                         "max": max(work.speeds), "samples": len(work.speeds)},
        "latency_samples": len(latencies),
        "op_s_p50": deciles[4],
        "op_s_p90": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": work.attempted,
        "failed": work.failed,
        "failures": work.failures,
        "mismatches": checker.mismatches,
        "referenced": checker.referenced,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
