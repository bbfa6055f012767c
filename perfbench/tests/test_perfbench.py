"""Tests of the benchmark itself: percentiles, names, self times, output
checks and cross-process CPU accounting.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import harness
import metrics
import procs
import run
from tracing import Span, Tracer, self_by_layer_ns, self_times_ns

BENCH = Path(__file__).resolve().parent.parent


# -- percentile rule ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
     (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert metrics.tail_percentile(n) == expected


def test_summarize_reports_median_and_rule_tail():
    body = metrics.summarize(range(1, 101))
    assert body["n"] == 100
    assert body["p50"] == pytest.approx(50.5)
    assert body["p90"] == pytest.approx(90.1)
    assert "p99" not in body
    assert metrics.summarize([1.0] * 5) == {"n": 5}


def test_named_percentile_reads_zero_below_the_rule():
    assert metrics.named_percentile(list(range(99)), 90.0) == (0.0, 99)
    value, n = metrics.named_percentile(list(range(100)), 90.0)
    assert n == 100 and value == pytest.approx(89.1)


# -- metric names ------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["setup_s", "kernels.ns_per_request", "client.rtt_ms.p90",
             "E15", "a-b", "x" * 64],
)
def test_valid_metric_names(name):
    assert metrics.check_name(name) == name


@pytest.mark.parametrize(
    "name", ["", ".hidden", "_x", "has space", "slash/name", "ünicode",
             "x" * 65, "p99.9%"],
)
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        metrics.check_name(name)


def test_benchmark_json_matches_the_metric_catalogue():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    for name in (*run.END_TO_END, *run.PER_LAYER):
        metrics.check_name(name)


# -- self-time arithmetic ----------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, None, "root", "root", 0, 100),
        Span(2, 1, "a", "a", 10, 30),
        Span(3, 1, "b", "b", 20, 50),   # overlaps a (another thread)
        Span(4, 3, "c", "c", 25, 35),
        Span(5, 1, "d", "d", 90, 120),  # runs past its parent: clipped
    ]
    own = self_times_ns(spans)
    assert own == {1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 10, 5: 30}


def test_single_thread_self_times_sum_to_the_root():
    spans = [
        Span(1, None, "harness", "batch", 0, 1000),
        Span(2, 1, "platform", "run_spec", 5, 995),
        Span(3, 2, "experiments", "E1", 10, 500),
        Span(4, 3, "simulator", "run", 20, 300),
        Span(5, 3, "offline", "dp", 300, 450),
        Span(6, 5, "offline", "inner", 310, 320),
        Span(7, 2, "store", "record", 500, 510),
    ]
    totals = self_by_layer_ns(spans)
    assert sum(totals.values()) == 1000
    assert totals["offline"] == 150
    assert totals["experiments"] == 490 - 280 - 150


def test_tracer_patches_and_restores():
    module = types.ModuleType("repro_perfbench_fake")
    module.work = lambda x: x * 2
    original = module.work
    sys.modules[module.__name__] = module
    seen = []
    try:
        tracer = Tracer()
        tracer.patch_everywhere(
            original, "fake", observe=lambda *a: seen.append(a[2]))
        with tracer.span("root"):
            assert module.work(21) == 42
        tracer.unpatch()
        assert module.work is original
    finally:
        del sys.modules[module.__name__]
    assert seen == [42]
    root, call = sorted(tracer.spans, key=lambda s: s.start_ns)
    assert call.parent == root.sid and call.layer == "fake"


# -- output checks -----------------------------------------------------------


def test_failed_ops_counts_missing_and_wrong_outputs():
    attempted = [1, 2, 3, 4]
    observed = {1: (5, 6), 2: None, 3: (7, 8), 4: (9, 9)}
    expected = {1: (5, 6), 3: (7, 0)}
    assert metrics.failed_ops(attempted, observed, expected) == [2, 3]
    assert metrics.completed_share(4, 2) == 0.5


def test_injected_wrong_replica_output_lowers_completed_share(tmp_path):
    work = harness.SweepLocal(7, tmp_path)
    seeds = [7_000_000, 7_000_001, 7_000_002]
    for seed in seeds:
        workload, strategy = harness.replica_inputs(harness.TASK_LOCAL, seed)
        from repro.core.kernels import simulate_fast

        res = simulate_fast(workload, 32, 1, strategy)
        work.attempted.append(seed)
        work.observed[seed] = (res.total_faults, res.makespan)
    faults, makespan = work.observed[seeds[1]]
    work.observed[seeds[1]] = (faults + 1, makespan)  # the injected fault
    work.check()
    assert work.failed() == [seeds[1]]
    measured = {"attempted": 3, "failed": [repr(s) for s in work.failed()],
                "wall_s": 2.0, "available_share": 0.5, "cpu_s": 0.3,
                "peak_rss_mb": 50.0}
    e2e = run.end_to_end([1.0, 2.0, 3.0], measured, cpu_bound=True)
    assert e2e["completed_share"] == (pytest.approx(2 / 3), 3)
    assert e2e["throughput_ops_per_s"][0] == pytest.approx(2.0)
    assert e2e["setup_s"] == (2.0, 3)
    timer_bound = run.end_to_end([1.0], measured, cpu_bound=False)
    assert timer_bound["throughput_ops_per_s"][0] == pytest.approx(1.0)


def test_injected_wrong_verdict_fails_that_experiment(tmp_path):
    work = harness.ExperimentsSmall(1, tmp_path)
    for eid in harness.EXPERIMENT_IDS:
        work.attempted.append((0, eid))
        work.observed[(0, eid)] = "REPRODUCED"
    work.observed[(0, "E9")] = "NOT REPRODUCED"
    work.check()
    assert work.failed() == [(0, "E9")]


# -- cross-process accounting ------------------------------------------------


def test_available_share_compares_steal_with_busy_time():
    assert procs.available_share((100, 10), (400, 110)) == pytest.approx(0.75)
    assert procs.available_share((5, 5), (5, 5)) == 1.0


def test_orphaned_worker_cpu_is_counted_after_reaping():
    """A grandchild that outlives its parent still lands in the tree's
    CPU, however late it is reaped."""
    script = textwrap.dedent(f"""
        import os, sys, time
        sys.path.insert(0, {str(BENCH)!r})
        import procs
        procs.become_subreaper()
        before, _ = procs.tree_cpu_s()
        pid = os.fork()
        if pid == 0:                      # middle process
            if os.fork() == 0:            # orphaned grandchild
                end = time.process_time() + 0.3
                while time.process_time() < end:
                    pass
                os._exit(0)
            os._exit(0)
        os.waitpid(pid, 0)
        procs.reap_all(timeout_s=10)
        cpu, rss = procs.final_usage()
        print(cpu - before, rss)
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=60, check=True)
    cpu, rss = (float(v) for v in out.stdout.split())
    assert cpu >= 0.25
    assert rss > 1.0
