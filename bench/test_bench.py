"""Self-tests of the benchmark: input generation, self-time arithmetic,
the tracer's rebinding, the time cap and the metric list.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _fingerprint(ops):
    """A comparable rendering of a run's operations and their inputs."""
    out = []
    for op in ops:
        parts = [op.kind, op.cap_s]
        for a in op.args:
            if hasattr(a, "data"):  # float Tensor targets
                parts.append(a.data.tobytes())
            elif isinstance(a, dict):
                parts.append(json.dumps(a, sort_keys=True))
            else:
                parts.append(repr(a))
        out.append(tuple(parts))
    return out


@pytest.mark.parametrize("name", ["exact-tree", "float-network"])
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name, tmp_path):
    cls = workloads.WORKLOADS[name]

    def ops(seed):
        return _fingerprint(cls(seed, 1, str(tmp_path), traced=True).setup())

    first = ops(5)
    assert first == ops(5)
    assert first != ops(6)
    assert len(first) == len(ops(6))


def test_work_is_fixed_by_the_arguments(tmp_path):
    for cls in workloads.WORKLOADS.values():
        assert cls(1, 30, str(tmp_path), traced=True).rounds == 1
        assert cls(1, 30, str(tmp_path)).rounds == cls(2, 30, str(tmp_path)).rounds >= 1
    assert workloads.ExactTree(1, 30, str(tmp_path)).rounds % 3 == 0


def test_covered_merges_overlaps():
    assert tracing.covered([]) == 0.0
    assert tracing.covered([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert tracing.covered([(0.0, 2.0), (1.0, 3.0), (2.5, 2.6)]) == pytest.approx(3.0)


def test_self_times_of_nested_spans():
    # op [0, 10] > a [1, 6] > b [2, 3], c [4, 5.5]; op > d [7, 9]; a second
    # op [20, 21] with no children; a span cut short (None) whose child
    # e [30, 31] then counts as a root.
    spans = [
        ("bench.op", 0.0, 10.0, -1, 0),
        ("a", 1.0, 6.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
        ("c", 4.0, 5.5, 1, 0),
        ("d", 7.0, 9.0, 0, 0),
        ("bench.op", 20.0, 21.0, -1, 1),
        None,
        ("e", 30.0, 31.0, 6, 2),
    ]
    got = tracing.self_times(spans)
    want = [10 - 5 - 2, 5 - 1 - 1.5, 1.0, 1.5, 2.0, 1.0, 0.0, 1.0]
    assert got == pytest.approx(want)
    # Self times of a run partition the operations' wall time.
    assert sum(got[:6]) == pytest.approx(10.0 + 1.0)


def test_child_overlapping_its_parent_is_clipped():
    spans = [("p", 0.0, 4.0, -1, 0), ("x", 1.0, 3.0, 0, 0), ("y", 2.0, 6.0, 0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_rebinds_records_and_restores(tmp_path):
    import tnrank.tree_rank as tree_rank
    import tnrank.verify as verify
    from tnrank.scalars import GaussianRational

    original = tree_rank.ttns_rank
    original_mul = GaussianRational.__dict__["__mul__"]
    wl = workloads.ExactTree(3, 1, str(tmp_path), traced=True)
    op = next(o for o in wl.setup() if o.cap_s is None and o.kind.startswith("3^4"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tree_rank.ttns_rank is not original
        assert verify.ttns_rank is tree_rank.ttns_rank  # imported by name there
        status, _, message = harness.run_op(wl, op, tracer, 0)
    finally:
        tracer.uninstall()
    assert status == "ok", message
    assert tree_rank.ttns_rank is original and verify.ttns_rank is original
    assert GaussianRational.__dict__["__mul__"] is original_mul
    m = tracing.layer_metrics(tracer)
    assert m["tree_rank.ttns_rank.calls"] == 1
    assert m["tree_rank.ttns_decompose.calls"] == 1
    assert m["network.contract_network.exact.calls"] == 1
    assert m["elimination.exact_rank_factor.calls"] == 3  # one per peeled leaf
    assert m["scalars.GaussianRational.mul.calls"] > 0
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.wall_s"], abs=1e-9)
    # The check ran after the operation and left no spans.
    assert all(s[4] == 0 for s in tracer.spans)


def test_capped_operation_stops_and_leaves_no_state():
    def spin():
        while True:
            pass

    start = time.perf_counter()
    with pytest.raises(harness.OpCapped):
        harness.run_capped(spin, 0.2)
    assert time.perf_counter() - start < 1.0
    assert harness.run_capped(lambda: 7, 0.2) == 7
    time.sleep(0.3)  # no alarm left armed


def test_capped_operation_is_counted_not_dropped(tmp_path):
    wl = workloads.ExactTree(1, 1, str(tmp_path), traced=True)
    rung = next(o for o in wl.setup() if o.kind == "5^4-int-path")
    short = workloads.Op(rung.kind, rung.args, 0.2)
    status, seconds, _ = harness.run_op(wl, short)
    assert status == "timeout" and 0.2 <= seconds < 1.0
    assert wl.completed_share(["ok", "timeout", "ok", "ok"]) == 0.75


def test_percentile():
    samples = list(np.linspace(1.0, 100.0, 100))
    assert harness.percentile(samples, 50) == pytest.approx(50.5)
    assert sum(1 for s in samples if s > harness.percentile(samples, 90)) == 10
    assert harness.percentile([3.0], 90) == 3.0
    assert harness.percentile([1.0, 2.0, 3.0], 90) == pytest.approx(2.8)


def test_benchmark_json_matches_the_printed_metrics():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
