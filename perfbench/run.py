"""reeslab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload search-p --seed 0 --seconds 35 --trace 0

Workloads (see inputs.py and BENCHMARK.json for why each was chosen):

* search-p  decide in characteristic 2, 3, 5, 7 on width-1 triangles
* factor-q  factorization_search in characteristic 0, m = 1 .. 14 on the worked
            example and m*u <= 12 on seeded triangles
* scan-q    scan_family members in characteristic 0 and char-0 decides

With ``--trace 0`` the run starts SETUP_SAMPLES fresh interpreters that only
set up (import reeslab, build the inputs, normalize the triangles), then one
that also runs timed passes over the op list until ``--seconds`` is used up,
and at least three.  It prints a report line and, last, the end-to-end
metrics: ``wall_s`` is the op list's time with every op at its median over
the passes, ``op_s_p50`` and ``op_s_p90`` are deciles of those per-op times
over the ops that did not fail, ``setup_s`` is the median time from process
start to the first op, and ``peak_rss_mb`` the worker's peak resident set.

Every time is scaled to the host's reference speed, read from a fixed
kernel while the work runs (speed.py): on a shared host the CPU speed can
change by up to 2x within seconds, and unscaled times of the same code then
spread by more than the benchmark's bounds.  The report line also gives the
unscaled times (``wall_raw_s``, ``setup_raw_s``, ``pass_walls``) and the
kernel readings.

With ``--trace 1`` an untraced, a traced and another untraced pass give the
per-layer split and the tracing overhead; spans go to .perfbench/.

Every op's output is checked against perfbench/reference.json and a set of
invariants.  A wrong output makes the run exit with status 1; a missing
reeslab source tree or a crashed worker exits with status 2.  Ops that raise
(the g = 3 family endpoint does, on every seed) count as failed and are
listed by input in the report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from inputs import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 14
TIME_LIMIT_S = 170


def _spawn(args, deadline: float, setup_only: bool) -> dict:
    # -S: the worker needs only the standard library and src/, and skipping
    # site-packages keeps their import time out of setup_s.
    cmd = [sys.executable, "-S", WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "reeslab", "__init__.py")):
        print("error: no reeslab source tree at src/reeslab", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        starts = [_spawn(args, deadline, True) for _ in range(0 if args.trace else SETUP_SAMPLES)]
        res = _spawn(args, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    starts.append(res)
    setups = [s["setup_s"] for s in starts]
    setup_raw = [s["setup_raw_s"] for s in starts]

    walls, lat_n = res["walls"], res["latency_samples"]
    fail_ratio = res["failed"] / res["attempted"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "closed_loop": "one caller, one op at a time, single-threaded process",
        "passes": res["passes"],
        "pass_walls": walls,
        "pass_walls_scaled": res["walls_scaled"],
        "wall_raw_s": res["wall_raw_s"],
        "host_speed_s": res["host_speed_s"],
        "setup_raw_s": statistics.median(setup_raw),
        "inputs": res["inputs"],
        "end_to_end": {
            "wall_s": _metric(res["wall_s"], "s", len(walls)),
            "op_s_p50": _metric(res["op_s_p50"], "s", lat_n),
            "op_s_p90": _metric(res["op_s_p90"], "s", lat_n),
            "setup_s": _metric(statistics.median(setups), "s", len(setups)),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB", 1),
            "fail_ratio": _metric(fail_ratio, "ratio", res["attempted"]),
        },
        "failed_ops": res["failures"],
        "output_mismatches": res["mismatches"],
        "ops_checked_against_reference": res["referenced"],
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                        "machine": platform.machine()},
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
        report.update({"absent_layers": res["absent"], "trace_file": res["trace_file"]})
    else:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in report["end_to_end"].items() if k != "fail_ratio"}
    correct = not res["mismatches"]
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
