"""Tests of the benchmark harness itself (not of the program it times).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json

import pytest

from perfbench import compare, inputs, layers, oracle, stats
from perfbench.spans import Span, Tracer, self_times


# -- tail percentile rule ------------------------------------------------

def test_tail_picks_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 101)]  # 1..100
    pct, value, beyond = stats.tail(values)
    assert (pct, value, beyond) == (90.0, 90.0, 10)


def test_tail_moves_up_the_ladder_with_more_samples():
    values = [float(v) for v in range(1, 1001)]
    assert stats.tail(values) == (99.0, 990.0, 10)


def test_tail_steps_down_when_nine_would_be_beyond():
    values = [float(v) for v in range(1, 100)]  # 99 samples
    pct, value, beyond = stats.tail(values)
    assert pct == 75.0 and beyond >= 10
    # p90 would leave only 9 samples beyond its value.
    p90 = stats.percentile(values, 90.0)
    assert sum(1 for v in values if v > p90) == 9


def test_tail_counts_ties_as_not_beyond():
    values = [1.0] * 50 + [5.0] * 50
    pct, value, beyond = stats.tail(values)
    assert (pct, value, beyond) == (50.0, 1.0, 50)


# -- self time from parent-linked spans ----------------------------------

def _span(sid, name, start, end, parent=None):
    span = Span(sid, name, start, parent, 1)
    span.end = end
    return span


def test_self_time_subtracts_children_durations():
    spans = [
        _span(1, "tasks.generate", 0.0, 10.0),
        _span(2, "opt.descent", 1.0, 8.0, parent=1),
        _span(3, "sat.solve", 2.0, 5.0, parent=2),
        _span(4, "totalizer.build", 5.0, 6.0, parent=2),
        _span(5, "decode", 8.5, 9.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 2.5, 2: 3.0, 3: 3.0, 4: 1.0, 5: 0.5})
    table, wall = layers.self_time_table(spans)
    assert wall == 10.0
    assert sum(table.values()) == pytest.approx(wall)
    assert table["tasks"] == pytest.approx(2.5)
    assert table["opt"] == pytest.approx(3.0)


def test_coalesced_leaf_counts_busy_time_only():
    tracer = Tracer()
    with tracer.span("tasks.verify", task=7) as root:
        tracer.accumulate("sat.load", 100.0, 100.5)
        tracer.accumulate("sat.load", 101.0, 101.25)
    loads = [s for s in tracer.spans if s.name == "sat.load"]
    assert len(loads) == 1
    load = loads[0]
    assert load.parent == root.sid and load.task == 7
    assert load.attrs["calls"] == 2
    assert load.dur == pytest.approx(0.75)
    assert self_times(tracer.spans)[root.sid] == pytest.approx(
        root.dur - 0.75)


def test_cross_thread_parent_is_linked_explicitly():
    tracer = Tracer()
    root = tracer.open("gateway.request", task=3)
    import threading

    def server_side():
        with tracer.span("gateway.worker", parent=root):
            pass

    worker = threading.Thread(target=server_side)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.close(root)
    child = next(s for s in tracer.spans if s.name == "gateway.worker")
    assert child.parent == root.sid and child.task == 3


def test_patches_restore_every_entry_point():
    from repro.sat.solver import Solver
    from repro.tasks import common

    originals = (Solver.solve, Solver.add_clause, common.validate_solution)
    patches = layers.install(Tracer())
    assert Solver.solve is not originals[0]
    assert common.validate_solution is not originals[2]
    patches.undo()
    assert (Solver.solve, Solver.add_clause,
            common.validate_solution) == originals


def test_traced_solve_records_layers_that_add_up():
    from repro.casestudies import all_case_studies
    from repro.tasks import verify_schedule

    study = all_case_studies()[0]
    tracer = Tracer()
    patches = layers.install(tracer)
    try:
        with tracer.span("tasks.verify", task=0):
            verify_schedule(study.discretize(), study.schedule,
                            study.r_t_min)
    finally:
        patches.undo()
    names = {s.name for s in tracer.spans}
    assert {"encoder.build", "sat.load", "sat.solve",
            "lazy.stats"} <= names
    table, wall = layers.self_time_table(tracer.spans)
    assert sum(table.values()) == pytest.approx(wall, abs=1e-9)
    metrics = layers.layer_metrics(tracer.spans, tracer.counters)
    assert set(metrics) | {"trace.tasks_per_s", "trace.overhead"} == set(
        layers.PER_LAYER_UNITS)
    assert metrics["sat.solve_calls"] >= 1


# -- seeded inputs -------------------------------------------------------

def _fingerprint(tasks):
    from repro.trains.io import schedule_to_json

    return [(t.key, schedule_to_json(t.instance.schedule)) for t in tasks]


def test_same_seed_gives_same_task_list():
    assert _fingerprint(inputs.verify_tasks(5, per_shape=2)) == \
        _fingerprint(inputs.verify_tasks(5, per_shape=2))
    assert _fingerprint(inputs.verify_tasks(5, per_shape=2)) != \
        _fingerprint(inputs.verify_tasks(6, per_shape=2))
    assert _fingerprint(inputs.design_tasks(5, per_shape=1)) == \
        _fingerprint(inputs.design_tasks(5, per_shape=1))


def test_same_seed_gives_same_gateway_stream():
    first = inputs.gateway_stream(3, per_shape=1)
    second = inputs.gateway_stream(3, per_shape=1)
    dump = [json.dumps(r.payload, sort_keys=True) for r in first]
    assert dump == [json.dumps(r.payload, sort_keys=True) for r in second]
    kinds = [r.kind for r in first]
    assert kinds.count("fresh") == kinds.count("repeat") == \
        kinds.count("variant")
    for request in first:
        if request.kind == "repeat":
            assert request.payload == first[request.original].payload


# -- oracle --------------------------------------------------------------

def test_oracle_accepts_table1_answers():
    assert oracle.check_table1(
        "verify", "running-example", oracle.Answer(False)) == []
    assert oracle.check_table1(
        "generate", "simple-layout", oracle.Answer(True, 14, True)) == []
    assert oracle.check_table1(
        "optimize", "nordlandsbanen", oracle.Answer(True, 30, True)) == []


def test_oracle_rejects_flipped_verdict():
    assert oracle.check_table1(
        "verify", "complex-layout", oracle.Answer(True))
    reference = oracle.Answer(False)
    assert oracle.check_against(
        "verify", "gen-1", oracle.Answer(True), reference)


def test_oracle_rejects_off_by_one_optimum():
    assert oracle.check_table1(
        "generate", "running-example", oracle.Answer(True, 6, True))
    assert oracle.check_table1(
        "optimize", "running-example", oracle.Answer(True, 6, True))
    reference = oracle.Answer(True, 4, True)
    assert oracle.check_against(
        "optimize", "gen-1", oracle.Answer(True, 5, True), reference)
    assert oracle.check_against(
        "optimize", "gen-1", oracle.Answer(True, 4, True), reference) == []


def test_failing_reference_solve_is_reported(monkeypatch):
    from perfbench import workloads

    def broken(task):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(oracle, "reference_answer", broken)
    task = inputs.verify_tasks(5, per_shape=1)[-1]
    problems = workloads.References().check(task, oracle.Answer(True))
    assert len(problems) == 1 and "solver blew up" in problems[0]


def test_oracle_rejects_unproven_optimum():
    assert oracle.check_table1(
        "generate", "running-example", oracle.Answer(True, 5, False))


# -- host fingerprint ----------------------------------------------------

def test_host_fingerprint_has_the_comparison_keys():
    host = stats.host_fingerprint()
    assert set(host) == {"cpu_model", "nproc", "python", "kernel"}
    assert host["nproc"] >= 1


def test_compare_refuses_records_from_other_hosts():
    host = stats.host_fingerprint()
    base = {"workload": "verify", "host": host,
            "end_to_end": {"tasks_per_s": 10.0}}
    new = {"workload": "verify", "host": {**host, "nproc": 64},
           "end_to_end": {"tasks_per_s": 12.0}}
    with pytest.raises(compare.NotComparable):
        compare.compare(base, new)
    same = {**new, "host": host}
    assert compare.compare(base, same) == {"tasks_per_s": (10.0, 12.0)}
