"""Tests of the benchmark itself: seeded inputs, the gate and the trace.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def hm():
    return run.import_hitminor()


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


@pytest.fixture(scope="module")
def patterns(hm):
    return {name: hm.parse_pattern(name) for name in workloads.ALL_PATTERNS}


@pytest.mark.parametrize("workload", list(workloads.SCHEDULES))
def test_same_seed_gives_identical_gr_inputs(hm, reference, workload):
    first = workloads.build_cycles(hm, workload, 7, reference)
    again = workloads.build_cycles(hm, workload, 7, reference)
    assert first == again
    texts = [q.text.encode() for cycle in first for q in cycle]
    assert texts == [q.text.encode() for cycle in again for q in cycle]
    assert all(q.key in reference for cycle in first for q in cycle)


def test_seeds_choose_different_instances(hm, reference):
    one = workloads.build_cycles(hm, "desk-mixed", 1, reference)
    two = workloads.build_cycles(hm, "desk-mixed", 2, reference)
    assert [q.key for q in one[0]] != [q.key for q in two[0]]


def test_setup_round_times_a_cold_import():
    assert 0 < run.setup_round("rank-mid", 1) < 30


def test_generated_graph_matches_recorded_size(hm, reference):
    for key, entry in list(reference.items())[::25]:
        name, gen_seed = key.split("#")
        spec = next(
            spec
            for slots in workloads.SCHEDULES.values()
            for spec, _, _ in slots
            if workloads.spec_name(spec) == name
        )
        n, _ = workloads.make_graph(spec, int(gen_seed))
        assert n == entry["n"]


def _first(hm, reference, workload, pred):
    cycles = workloads.build_cycles(hm, workload, 1, reference)
    return next(q for cycle in cycles for q in cycle if pred(q))


@pytest.mark.parametrize(
    "workload, pred",
    [
        # n <= DELETION_LIMIT: the live oracle disagrees with the reference.
        ("desk-mixed", lambda q: q.pattern == "c4" and q.mode == "minimize"),
        # Larger: only the recorded reference can catch it.
        ("sparse-large", lambda q: q.key == "grid/3/100#0" and q.pattern == "p3"),
    ],
)
def test_gate_flags_planted_wrong_reference(hm, reference, patterns, workload, pred):
    query = _first(hm, reference, workload, pred)
    runs = [run.execute(hm, query, patterns)]
    assert run.gate(hm, runs, reference, patterns) == []

    planted = copy.deepcopy(reference)
    planted[query.key]["answers"][query.pattern] += 1
    failures = run.gate(hm, runs, planted, patterns)
    assert len(failures) == 1 and query.key in failures[0]


def test_gate_counts_exceptions(hm, reference, patterns):
    query = _first(hm, reference, "desk-mixed", lambda q: q.pattern == "p3")
    broken = workloads.Query(query.key, query.n, "p tw 2 1\n1 1\n", "p3", "minimize", None)
    runs = [run.execute(hm, broken, patterns)]
    assert runs[0].error is not None
    assert len(run.gate(hm, runs, reference, patterns)) == 1


def test_sparse_large_bypasses_partitions_and_oracle(hm, reference, patterns):
    cycles = workloads.build_cycles(hm, "sparse-large", 1, reference)
    # The cheapest instance for each label pattern keeps the test short.
    cycle = [
        min((q for q in cycles[0] if q.pattern == name), key=lambda q: q.n)
        for name in ("p3", "p4", "k1s:3")
    ]
    tracer, untraced, traced, pairs, overhead = run.traced_loop(
        hm, cycle, patterns, seconds=0
    )
    assert pairs == 1 and overhead > 0
    assert run.gate(hm, untraced + traced, reference, patterns) == []
    metrics, _ = run.layer_metrics(tracer, traced, pairs, overhead)
    value = {name: v for name, (v, _) in metrics.items()}
    for name in value:
        if name.startswith("partitions.") or name.startswith("oracle."):
            assert value[name] == 0, name
    assert value["labeling.dp.s"] > 0
    assert value["treedecomp.heuristic_td.s"] > 0
    covered = sum(value[name] for name in run.SELF_TIMES)
    assert covered == pytest.approx(value["trace.query.s"], rel=1e-9)


def test_rank_mid_trace_counts_partitions_and_passes(hm, reference, patterns):
    cycles = workloads.build_cycles(hm, "rank-mid", 1, reference)
    query = next(q for q in cycles[0] if q.key == "grid/3/5#0" and q.pattern == "c4")
    tracer, _, traced, pairs, overhead = run.traced_loop(
        hm, [query], patterns, seconds=0
    )
    value = {n: v for n, (v, _) in run.layer_metrics(tracer, traced, pairs, overhead)[0].items()}
    opt = reference[query.key]["answers"]["c4"]
    assert value["connectivity.passes"] == opt + 1
    assert value["partitions.reduce.calls"] > 0 and value["partitions.ops.calls"] > 0
    assert 0 < value["partitions.reduce.kept_ratio"] <= 1
    assert value["oracle.min_deletion.calls"] == 0
    # Each span points at a span of the same query that encloses it.
    spans = {s[0]: s for s in tracer.spans}
    for sid, parent, query_id, _, start, end in tracer.spans:
        if parent is not None:
            p = spans[parent]
            assert p[2] == query_id and p[4] <= start <= end <= p[5]


def test_tracer_restores_library(hm, reference, patterns):
    before = (hm.solve, hm.solvers.heuristic_td, hm.WeightedPartitionSet.reduce)
    query = _first(hm, reference, "desk-mixed", lambda q: q.pattern == "chair")
    tracer, _, traced, pairs, overhead = run.traced_loop(hm, [query], patterns, seconds=0)
    assert (hm.solve, hm.solvers.heuristic_td, hm.WeightedPartitionSet.reduce) == before
    value = {n: v for n, (v, _) in run.layer_metrics(tracer, traced, pairs, overhead)[0].items()}
    assert value["oracle.min_deletion.calls"] == 1
    assert value["patterns.is_free.calls"] >= 1
