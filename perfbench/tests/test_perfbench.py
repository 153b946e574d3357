"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import copy
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import inputs  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from check import Checker, canonical, digest, problems  # noqa: E402
from passes import Pass, prepare  # noqa: E402

# A cheap characteristic-3 decide that exhausts every window (NO_WITNESS).
WINDOW_OP = inputs.Op("decide", inputs.triangle(inputs.F(-1, 2), inputs.F(-1, 4)), p=3)


def test_self_times_of_nested_spans():
    # (id, parent, op, name, start, end, covered_s)
    spans = [
        (0, None, 0, "root", 0.0, 10.0, 1.0),
        (1, 0, 0, "a", 1.0, 4.0, 0.5),
        (2, 0, 0, "b", 5.0, 9.0, 0.0),
        (3, 2, 0, "c", 6.0, 7.0, 0.0),
        (4, 2, 0, "d", 8.5, 9.5, 0.0),   # runs past its parent: clipped
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx({0: 2.0, 1: 2.5, 2: 2.5, 3: 1.0, 4: 1.0})


def test_generator_is_deterministic_and_seeded():
    for workload in inputs.WORKLOADS:
        first = inputs.build_ops(workload, 0)
        assert first == inputs.build_ops(workload, 0)
        assert first != inputs.build_ops(workload, 1)
        assert set(first) <= set(inputs.universe(workload))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_every_seed_keeps_the_anchors(seed):
    search = inputs.build_ops("search-p", seed)
    assert {op.p for op in search if op.vertices == inputs.WORKED} == {2, 3, 5, 7}
    factor = inputs.build_ops("factor-q", seed)
    assert any(op.vertices == inputs.WORKED for op in factor)
    scan = {op.g for op in inputs.build_ops("scan-q", seed) if op.kind == "scan"}
    assert {inputs.F(2), inputs.F(3)} <= scan


def _bindings():
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None:
            for attr, value in vars(mod).items():
                if callable(value):
                    found[(name, attr)] = value
    fieldspec = sys.modules["reeslab.fields"].FieldSpec
    found.update({("FieldSpec", k): v for k, v in vars(fieldspec).items()})
    return found


def test_traced_run_restores_every_wrapper_and_keeps_outputs():
    call = prepare(WINDOW_OP)
    plain = digest(canonical(WINDOW_OP, call(), None))
    before = _bindings()
    tr = tracer.Tracer()
    with tr:
        assert sys.modules["reeslab.decision"].cohomology_dims is not \
            before[("reeslab.decision", "cohomology_dims")]
        traced = tr.run_op(0, call)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert digest(canonical(WINDOW_OP, traced, None)) == plain
    metrics = tr.layer_metrics(1.0, 1.0)
    assert metrics["decision.decide.calls"][0] == 1
    assert metrics["cohomology.cohomology_dims.calls"][0] >= 1
    assert metrics["algebra.subspace_decompose.calls"][0] >= 1
    assert metrics["geometry.membership.calls"][0] > 0


def test_missing_private_helper_is_reported_absent(monkeypatch):
    gone = ("reeslab.algebra", "_no_such_helper", "algebra._no_such_helper", "leaf")
    monkeypatch.setattr(tracer, "LAYER_FUNCTIONS", tracer.LAYER_FUNCTIONS + (gone,))
    with tracer.Tracer() as tr:
        pass
    assert tr.absent == ["algebra._no_such_helper"]


def test_check_rejects_a_tampered_report():
    output = prepare(WINDOW_OP)()
    doc = canonical(WINDOW_OP, output, None)
    assert problems(WINDOW_OP, doc) == []
    window = next(i for i, pr in enumerate(doc["probes"]) if "rank" in pr)

    too_high = copy.deepcopy(doc)
    too_high["probes"][window]["rank"] = len(doc["probes"][window]["overlaps"]) + 1
    assert problems(WINDOW_OP, too_high)

    off_gap = copy.deepcopy(doc)
    off_gap["probes"][window]["pivot_gaps"] = [[-99, -99]]
    assert problems(WINDOW_OP, off_gap)

    negative = copy.deepcopy(doc)
    negative["status"] = "NOT_FG_EXACT"
    assert problems(WINDOW_OP, negative)

    checker = Checker({WINDOW_OP.key: digest(doc)})
    assert checker.check(WINDOW_OP, output, None) == []
    output.probes[window]["h0"] += 1
    assert checker.check(WINDOW_OP, output, None)
    assert WINDOW_OP.key in checker.mismatches


def test_family_endpoint_error_row_counts_as_failed():
    ops = [inputs.Op("scan", g=inputs.F(3)), inputs.Op("scan", g=inputs.F(2))]
    work = Pass(ops, [prepare(op) for op in ops], Checker({}))
    work.run()
    assert (work.attempted, work.failed, work.ok) == (2, 1, [False, True])
    assert "TheoremViolation" in work.failures[ops[0].key]


def test_benchmark_json_names_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {k: u for k, (_, u) in tracer.Tracer().layer_metrics(1.0, 1.0).items()}
    assert per_layer == emitted


def test_speed_sampler_restores_the_timer_and_reads_nearby():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.took) >= 3 and sampler.spent >= sum(sampler.took)

    sampler = speed.SpeedSampler()
    sampler.at = [0.0, 1.0, 1.005, 1.01, 2.0]
    sampler.took = [9.0, 1.0, 2.0, 3.0, 9.0]
    assert sampler.speed(1.001, 1.002) == 2.0
    assert sampler.speed(5.0, 5.0) == 3.0   # none near: the closest three
    assert speed.scaled(2.0, speed.CAL_REF_S / 2) == 4.0
