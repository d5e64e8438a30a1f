"""Tests of the benchmark's own logic.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import math
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times_ns, tail_percentile  # noqa: E402


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(range(19)) is None
    assert tail_percentile(range(20)) == {"percentile": 50.0, "value": 9, "samples": 20}
    t = tail_percentile(range(1000))
    assert (t["percentile"], t["value"], t["samples"]) == (99.0, 989, 1000)
    assert tail_percentile(range(999))["percentile"] == 95.0
    assert tail_percentile(range(10_000))["percentile"] == 99.9


def _span(start, end, parent):
    return {"name": "s", "start_ns": start, "end_ns": end, "parent": parent,
            "op": None, "attrs": {}}


def test_self_time_subtracts_direct_children_once():
    spans = [
        _span(0, 100, None),
        _span(10, 30, 0),
        _span(20, 50, 0),   # overlaps its sibling: covered once
        _span(25, 45, 2),   # grandchild: counts against span 2 only
        _span(60, 70, 0),
    ]
    assert self_times_ns(spans) == [100 - 40 - 10, 20, 30 - 20, 20, 10]


def test_tracer_records_nesting_and_op():
    tracer = Tracer(True)
    tracer.op = "op-1"
    with tracer.span("a.outer"):
        with tracer.span("b.inner", n=10):
            pass
    outer, inner = tracer.spans
    assert outer["parent"] is None and inner["parent"] == 0
    assert inner["op"] == "op-1" and inner["attrs"] == {"n": 10}
    assert outer["start_ns"] <= inner["start_ns"] <= inner["end_ns"] <= outer["end_ns"]
    off = Tracer(False)
    with off.span("a.outer"):
        pass
    assert off.spans == []


def test_same_seed_same_inputs():
    for workload in inputs.WORKLOADS:
        assert inputs.generate(workload, 5, 2) == inputs.generate(workload, 5, 2)
        assert inputs.generate(workload, 5, 2) != inputs.generate(workload, 6, 2)
        assert inputs.cold_start_args(workload, 5) == inputs.cold_start_args(workload, 5)
    assert inputs.generate("verify", 5, 0) != inputs.generate("verify", 5, 1)


def test_generated_inputs_stay_in_their_domains():
    for seed in range(20):
        v = inputs.verify_inputs(seed, 0)
        rows = [i // inputs.GRID_NBAR_COLS for i in v["channel_indices"]]
        assert len(set(rows)) == inputs.VERIFY_CHANNELS
        x = inputs.ladder_inputs(seed, seed)
        assert inputs.LADDER_ETA[0] <= x["eta"] <= inputs.LADDER_ETA[1]
        q = x["qubit"]
        assert q["gamma_re"] ** 2 + q["gamma_im"] ** 2 <= q["alpha_sq"] * q["beta_sq"]
        assert all(math.hypot(*z) <= inputs.LADDER_ZETA_MAX for pair in x["zetas"]
                   for z in pair)
        b = inputs.bounds_inputs(seed, 0)
        assert all(0.0 < op["delta"] < 0.5 for op in b["library"])
        cli = b["cli"]
        assert cli["eta"] - (1.0 - cli["eta"]) * cli["nbar_b"] / 2.0 > 0.0


def test_forced_mismatch_is_counted_not_raised():
    import workloads

    ops = []
    tracer = Tracer(False)
    workloads.run_op(ops, tracer, "bad", "k",
                     lambda ck: ck.at_most("value", 2.0, 1.0) or {"seconds": 0.1})
    workloads.run_op(ops, tracer, "nan", "k",
                     lambda ck: ck.at_most("value", math.nan, 1.0) or {"seconds": 0.1})
    workloads.run_op(ops, tracer, "raises", "k", lambda ck: 1 / 0)
    workloads.run_op(ops, tracer, "good", "k",
                     lambda ck: ck.at_most("value", 0.5, 1.0) or {"seconds": 0.1})
    assert [bool(op["failures"]) for op in ops] == [True, True, True, False]
    assert "ZeroDivisionError" in ops[2]["failures"][0]

    fake = SimpleNamespace(passes=[{"index": 0, "result": {"ops": ops}},
                                   {"index": 1, "result": None}],
                           cold=[{"seconds": 1.0, "failures": []}], crashes=[])
    attempted, failed, messages = run.op_counts(fake)
    assert (attempted, failed) == (6, 4)
    assert len(messages) == 3


def test_wrong_bound_is_caught():
    import numpy as np
    import workloads
    from covert_bosonic import covert_bounds as cb, fock_core as fc

    n = np.geomspace(1e4, 1e14, 50)
    args = (0.4, 0.05, 0.1)
    points = cb.bounds_curve(fc.ChannelParams(*args[:2]), args[2], list(n))
    ok = workloads.Checks()
    workloads.check_bounds_points(ok, points, *args, n)
    assert ok.failures == []
    points[7] = dataclasses.replace(points[7], upper_qubits=points[7].upper_qubits * 1.01)
    bad = workloads.Checks()
    workloads.check_bounds_points(bad, points, *args, n)
    assert len(bad.failures) == 1 and "upper_qubits" in bad.failures[0]
