"""The op list of one workload as calls into reeslab, and timed passes over it.

An op is prepared once, at set-up, into a zero-argument call of its public
entry point.  A pass issues the calls one after another (a closed loop with
one caller) and checks every output outside the timed region.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from reeslab import (  # noqa: E402
    RATIONALS,
    AlgebraContext,
    FieldSpec,
    cone_tables,
    decide,
    factorization_search,
    normalize_triangle,
    period_data,
    scan_family,
)

import inputs  # noqa: E402
from check import reported_error  # noqa: E402
from speed import SpeedSampler, scaled  # noqa: E402


def prepare(op):
    """Exact inputs -> a zero-argument call of the op's public entry point."""
    if op.kind == "scan":
        return lambda: scan_family([op.g], RATIONALS)
    tri = normalize_triangle(op.vertices)
    pd = period_data(tri)
    ct = cone_tables(tri)
    if op.kind == "decide":
        field = FieldSpec(op.p)
        return lambda: decide(tri, field)
    return lambda: factorization_search(AlgebraContext(tri.u2, tri.u, RATIONALS),
                                        ct, pd, op.m)


def input_mix(ops) -> dict:
    """Shares of slopes, w-power routes, characteristics and sigma."""
    n = len(ops)
    slopes, routes, chars, sigmas = {}, {}, {}, []
    for op in ops:
        if op.kind == "scan":
            key = "-1/2 (family)"
        else:
            (x2, y2), (x1, y1), _ = op.vertices
            key = str(y1 / x1 if x1 else (y2 / x2 if x2 else 0))
            sigmas.append(inputs.sigma_of(op.vertices))
        slopes[key] = slopes.get(key, 0) + 1
        route = "closed-form" if key.startswith("-1/2") else "iterative"
        routes[route] = routes.get(route, 0) + 1
        label = f"{op.kind} char {op.p}" if op.kind == "decide" else op.kind
        chars[label] = chars.get(label, 0) + 1
    return {
        "ops": n,
        "slope_share": {k: v / n for k, v in sorted(slopes.items())},
        "w_power_route_share": {k: v / n for k, v in sorted(routes.items())},
        "kind_share": {k: v / n for k, v in sorted(chars.items())},
        "sigma": ({"min": min(sigmas), "median": statistics.median(sigmas),
                   "max": max(sigmas)} if sigmas else None),
    }


class Pass:
    """Runs the op list; each op is timed alone and checked after.

    Timed passes run under a SpeedSampler and keep every op's latency as
    measured (``raw[i]``) and scaled to the reference speed by the readings
    taken around it (``scaled[i]``); the sampler's own time is taken out of
    both.  ``attempted`` and ``failed`` count distinct ops, so they depend on
    the op list and the program, not on how many passes the time allowed.
    """

    def __init__(self, ops, calls, checker):
        self.ops, self.calls, self.checker = ops, calls, checker
        self.failures: dict[str, str] = {}
        self.ok = [True] * len(ops)
        self.raw: list[list[float]] = [[] for _ in ops]
        self.scaled: list[list[float]] = [[] for _ in ops]
        self.speeds: list[float] = []

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def run(self, call_wrapper=None, timed=True) -> float:
        """One pass; returns the sum of its op latencies as measured."""
        clock = time.perf_counter
        wall = 0.0
        timings = []   # (op index, start, end, elapsed)
        with SpeedSampler() if timed else contextlib.nullcontext() as sampler:
            for i, (op, call) in enumerate(zip(self.ops, self.calls)):
                error = None
                output = None
                spent = sampler.spent if timed else 0.0
                start = clock()
                try:
                    output = call() if call_wrapper is None else call_wrapper(i, call)
                except Exception as exc:   # an op boundary: record and go on
                    error = (type(exc).__name__, str(exc))
                end = clock()
                elapsed = end - start - ((sampler.spent - spent) if timed else 0.0)
                wall += elapsed
                timings.append((i, start, end, elapsed))
                reasons = self.checker.check(op, output, error)
                if error is None and not reasons:
                    reported = reported_error(op, output)
                    error = None if reported is None else ("error row", reported)
                if error is not None or reasons:
                    self.ok[i] = False
                    why = "; ".join(reasons) or f"{error[0]}: {error[1]}"
                    self.failures.setdefault(op.key, why)
        if timed:
            self.speeds.extend(sampler.took)
            for i, start, end, elapsed in timings:
                self.raw[i].append(elapsed)
                self.scaled[i].append(scaled(elapsed, sampler.speed(start, end)))
        return wall
