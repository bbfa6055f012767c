"""The three workloads: set-up, timed batches, output checks, layers.

Each workload is a closed loop of *batches*.  A batch is what a user
runs once — one ``run_sweep`` call or one ``run_spec`` suite — and the
timed loop starts batches back to back until the run's time is up.  An
*op* is one replica (the sweeps) or one experiment (the suite).

Every op's output is checked after the timed window, against a
different engine or an independent computation; a wrong output is a
failed op, and failed ops are reported by key, never replaced.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from metrics import failed_ops, named_percentile, summarize
from probes import self_ms_by_layer

#: The replica task of ``sweep-local``: zipf requests on 4 cores.
TASK_LOCAL = {
    "workload": "zipf",
    "cores": 4,
    "length": 2000,
    "alpha": 1.2,
    "cache_size": 32,
    "tau": 1,
    "strategy": "S_LRU",
}
#: The tiny-replica task of ``sweep-service`` (about 2 ms of compute).
TASK_SERVICE = dict(TASK_LOCAL, length=200)

#: Replica seeds of one run are ``seed * SEED_STRIDE + i``: unique within
#: a run, disjoint across runs with different seeds.
SEED_STRIDE = 1_000_000

#: Replicas recomputed with the reference ``Simulator`` in sweep-local.
REFERENCE_SAMPLE = 24
#: Replicas replayed in-process to time workload build and kernel.
REPLAY_SAMPLE = 32
#: Job records fetched with their event logs in a traced sweep-service run.
EVENT_SAMPLE = 200
#: Server journal records replayed to time a JobStore-shaped append.
JOURNAL_REPLAY = 400

EXPERIMENT_IDS = tuple(f"E{i}" for i in range(1, 19))


def sweep_summary(sweep) -> str:
    """A sweep's aggregate without provenance (topology, attempts), as
    ``benchmarks/bench_fleet.py`` compares executors."""
    body = dict(sweep.summary())
    for provenance in ("topology", "resumed", "max_attempts", "hedged"):
        body.pop(provenance, None)
    return json.dumps(body, sort_keys=True)


def replica_inputs(task: dict, seed: int):
    """The workload and a fresh strategy a replica job builds."""
    from repro.cli import make_strategy, make_workload

    spec = {k: task[k] for k in ("workload", "cores", "length", "alpha",
                                 "cache_size", "tau")}
    workload = make_workload(SimpleNamespace(seed=seed, **spec))
    strategy = make_strategy(task["strategy"], task["cache_size"],
                             workload.num_cores)
    return workload, strategy


def requests_of(workload) -> int:
    return sum(len(seq) for seq in workload)


class BenchWorkload:
    """Shared loop state; subclasses fill in the layers."""

    name = ""
    #: Ops in flight at once in the closed loop.
    concurrency = 1
    #: True when CPU work is the critical path of an op, so CPU time the
    #: host steals from the VM delays ops one for one and the timed wall
    #: time is taken net of it.  False when ops wait on a timer (the
    #: sweep-service client's poll sleep), which steal does not stretch.
    cpu_bound = True

    def __init__(self, seed: int, state_dir: Path):
        self.seed = seed
        self.state = state_dir
        self.state.mkdir(parents=True, exist_ok=True)
        #: op key -> checked output (None: the op failed).
        self.observed: dict = {}
        #: op key -> reference output, for the ops that were checked.
        self.expected: dict = {}
        self.attempted: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def run_batch(self, index: int) -> int:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def check(self) -> None:
        raise NotImplementedError

    def failed(self) -> list:
        return failed_ops(self.attempted, self.observed, self.expected)

    # tracing hooks -------------------------------------------------------

    def install_tracing(self, tracer, probes) -> None:
        from repro.fleet import run_sweep
        from repro.platform import run_spec
        from repro.store import DurableLog

        probes.patch_store(tracer, DurableLog)
        tracer.patch_everywhere(run_sweep, "fleet", "run_sweep")
        tracer.patch_everywhere(run_spec, "platform", "run_spec")

    def collect_before_teardown(self, traced_jobs) -> None:
        pass

    def layer_metrics(self, tracer, probes, traced) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


class SweepWorkload(BenchWorkload):
    """A closed loop of ``run_sweep`` calls, one fresh journal each."""

    task: dict = {}
    batch = 0

    def __init__(self, seed, state_dir):
        super().__init__(seed, state_dir)
        self.sweeps: dict[int, object] = {}
        #: Replica jobs this run sent to the executor, warm-up included.
        self.replicas = 0

    def seeds_of(self, index: int) -> list[int]:
        base = self.seed * SEED_STRIDE + index * self.batch
        return list(range(base, base + self.batch))

    def make_executor(self):
        """None: ``run_sweep``'s default executor."""
        return None

    def sweep(self, seeds, journal: str):
        from repro.fleet import run_sweep

        executor = self.make_executor()
        try:
            return run_sweep(self.task, seeds, executor=executor,
                             journal=self.state / journal)
        finally:
            self.replicas += len(seeds)
            if executor is not None:
                executor.close()

    def run_batch(self, index: int) -> int:
        seeds = self.seeds_of(index)
        sweep = self.sweep(seeds, f"sweep-{index}.jsonl")
        self.sweeps[index] = sweep
        self.attempted.extend(seeds)
        for key, outcome in sweep.outcomes.items():
            self.observed[key] = (
                (outcome.faults, outcome.makespan) if outcome.ok else None
            )
        return len(seeds)

    def traced_view(self, probes, traced):
        """``(ops, ms budget per op, outcomes, replay)`` of the traced
        batches; the budget is wall time (net of host steal when CPU-bound)
        x ops in flight / ops."""
        ops = sum(b.ops for b in traced)
        wall_s = sum(b.wall_s * (b.available if self.cpu_bound else 1.0)
                     for b in traced)
        budget = wall_s * 1e3 * self.concurrency / ops
        keys = [k for b in traced for k in self.seeds_of(b.index)]
        outcomes = [o for b in traced
                    for o in self.sweeps[b.index].outcomes.values()]
        replay = probes.replay(self.task, keys, self.seed, REPLAY_SAMPLE)
        return ops, budget, outcomes, replay


class SweepLocal(SweepWorkload):
    """``run_sweep`` with its default executor (a supervised process pool,
    one worker per CPU) and a sweep journal."""

    name = "sweep-local"
    task = TASK_LOCAL
    batch = 512

    def __init__(self, seed, state_dir):
        super().__init__(seed, state_dir)
        self.concurrency = os.cpu_count() or 1

    def setup(self) -> None:
        from repro.core.kernels import simulate_fast

        warm = self.seed * SEED_STRIDE + SEED_STRIDE - 1
        # In-process first, so the forked workers inherit every import.
        workload, strategy = replica_inputs(self.task, warm)
        simulate_fast(workload, self.task["cache_size"], self.task["tau"],
                      strategy)
        self.sweep([warm], "warmup.jsonl")

    def check(self) -> None:
        """Recompute a seeded sample with the reference Simulator."""
        from repro import simulate

        done = sorted(k for k, v in self.observed.items() if v is not None)
        sample = random.Random(self.seed).sample(
            done, min(REFERENCE_SAMPLE, len(done))
        )
        for key in sample:
            workload, strategy = replica_inputs(self.task, key)
            ref = simulate(workload, self.task["cache_size"],
                           self.task["tau"], strategy)
            self.expected[key] = (ref.total_faults, ref.makespan)

    def layer_metrics(self, tracer, probes, traced) -> dict:
        ops, budget, outcomes, replay = self.traced_view(probes, traced)
        out = probes.store_metrics(ops)
        out.update(replay.metrics(calls=ops))
        overhead = budget - replay.build_ms - replay.kernel_ms
        out["runtime.pool_overhead_ms_per_op"] = (overhead, ops)
        out.update(fleet_metrics(outcomes))
        out["_attribution"] = {
            "budget": "worker ms per replica = wall x workers / replicas",
            "budget_ms": budget,
            "rows": [
                ["workloads.build", replay.build_ms],
                ["kernels.simulate_fast", replay.kernel_ms],
            ],
            "unattributed_label": "runtime pool: IPC, pickling, start/stop, "
                                  "idle workers",
        }
        return out


class SweepService(SweepWorkload):
    """The same kind of sweep through a ``repro serve`` subprocess."""

    name = "sweep-service"
    task = TASK_SERVICE
    batch = 128
    concurrency = 2
    cpu_bound = False

    def __init__(self, seed, state_dir):
        super().__init__(seed, state_dir)
        self.server = None
        self.url = None
        self.pools_before = None
        self.pools_after = None
        self.records: dict = {}
        self.sampled: dict = {}

    def make_executor(self):
        from repro.fleet.executor import ServiceExecutor

        return ServiceExecutor(self.url, max_inflight_per_endpoint=2)

    def setup(self) -> None:
        from repro.service.client import EndpointDown, ServiceClient

        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--journal", str(self.state / "jobs.jsonl")],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        for line in self.server.stdout:
            if "listening on" in line:
                self.url = line.split("listening on", 1)[1].strip()
                break
        if self.url is None:
            raise RuntimeError("repro serve exited before listening")
        self.client = ServiceClient(self.url)
        deadline = time.monotonic() + 60
        while True:
            try:
                self.client.health()
                break
            except EndpointDown:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)
        # One warm-up replica per in-flight slot, so both server workers
        # have a warm pool process before timing starts.
        warm = [self.seed * SEED_STRIDE + SEED_STRIDE - 1 - i
                for i in range(self.concurrency)]
        sweep = self.sweep(warm, "warmup.jsonl")
        if not sweep.ok:
            raise RuntimeError(f"warm-up failed: {sweep.failed_seeds}")
        self.pools_before = self.client.readiness()["pools"]

    def collect_before_teardown(self, traced_jobs) -> None:
        """Job records (server timings) and pool counters, from the
        server's public endpoints."""
        if not traced_jobs:
            return
        self.pools_after = self.client.readiness()["pools"]
        self.records = {job["id"]: job for job in self.client.jobs()}
        ids = sorted(i for i in traced_jobs if i in self.records)
        for job_id in random.Random(self.seed).sample(
            ids, min(EVENT_SAMPLE, len(ids))
        ):
            self.sampled[job_id] = self.client.status(job_id)

    def teardown(self) -> None:
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server.stdout.close()
        self.server = None

    def check(self) -> None:
        """Per seed and per aggregate, against an in-process thread sweep
        of the same task and seeds."""
        from repro.fleet import LocalThreadExecutor, run_sweep

        for index, sweep in self.sweeps.items():
            seeds = self.seeds_of(index)
            ref = run_sweep(self.task, seeds,
                            executor=LocalThreadExecutor(max_workers=2))
            for key, outcome in ref.outcomes.items():
                self.expected[key] = (outcome.faults, outcome.makespan)
            per_seed_ok = all(
                self.observed.get(k) == self.expected[k] for k in seeds)
            if per_seed_ok and sweep_summary(sweep) != sweep_summary(ref):
                # Every seed agrees but the aggregate does not: the stats
                # fold is wrong, so no op of this sweep is correct.
                for key in seeds:
                    self.expected[key] = ("aggregate mismatch",)

    def install_tracing(self, tracer, probes) -> None:
        super().install_tracing(tracer, probes)
        probes.patch_client(tracer)

    def layer_metrics(self, tracer, probes, traced) -> dict:
        ops, budget, outcomes, replay = self.traced_view(probes, traced)
        out = {}
        out.update(replay.metrics(calls=ops))
        out.update(fleet_metrics(outcomes))
        out.update(probes.client_metrics(ops))

        # Server-side timings from the job records.
        s2d = [
            (rec["finished_at"] - rec["submitted_at"]) * 1e3
            for job_id, rec in self.records.items()
            if job_id in probes.client_jobs and rec.get("finished_at")
        ]
        queue_wait, run = [], []
        for rec in self.sampled.values():
            events = {e["event"]: e for e in rec.get("events", ())}
            if "running" in events:
                queue_wait.append(
                    (events["running"]["t"] - rec["submitted_at"]) * 1e3
                )
            if "executed" in events:
                run.append(events["executed"]["seconds"] * 1e3)
        for metric, sample in (("server.queue_wait_ms", queue_wait),
                               ("server.run_ms", run),
                               ("server.submitted_to_done_ms", s2d)):
            for p in (50.0, 90.0):
                out[f"{metric}.p{p:g}"] = named_percentile(sample, p)
        observed = probes.client_observed_ms()
        mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
        poll_gap = mean(observed) - mean(s2d)
        out["server.poll_gap_ms_per_op"] = (poll_gap, len(observed))
        rebuilds = sum(p["recycles"] + p["crashes"]
                       for p in self.pools_after or ()) - sum(
            p["recycles"] + p["crashes"] for p in self.pools_before or ())
        out["server.pool_rebuilds"] = (float(rebuilds), len(self.pools_after or ()))
        pool_ipc = mean(run) - replay.build_ms - replay.kernel_ms
        out["runtime.pool_overhead_ms_per_op"] = (pool_ipc, len(run))

        # Store: the sweep journal in this process plus the server's
        # JobStore journal, read from its files after shutdown.
        server_log = probes.server_journal(self.state / "jobs.jsonl",
                                           self.state / "replay",
                                           JOURNAL_REPLAY)
        out.update(probes.store_metrics(ops, server_log, self.replicas))
        store_ms = probes.store_ms_per_op(ops)
        s2d_ms = mean(s2d)
        out["_distributions"] = {
            "client.submit_rtt_ms": summarize(ns / 1e6 for ns in probes.submit_ns),
            "client.status_rtt_ms": summarize(ns / 1e6 for ns in probes.status_ns),
            "client.observed_ms": summarize(observed),
            "server.queue_wait_ms": summarize(queue_wait),
            "server.run_ms": summarize(run),
            "server.submitted_to_done_ms": summarize(s2d),
        }
        out["_attribution"] = {
            "budget": "dispatcher ms per replica = wall x in-flight / replicas",
            "budget_ms": budget,
            "rows": [
                ["server.queue_wait", mean(queue_wait)],
                ["server.run: workloads.build", replay.build_ms],
                ["server.run: kernels.simulate_fast", replay.kernel_ms],
                ["server.run: runtime pool IPC", pool_ipc],
                ["server: journal + completion (submitted->done rest)",
                 s2d_ms - mean(queue_wait) - mean(run)],
                ["server.poll_gap (client-observed - submitted->done)",
                 poll_gap],
                ["store: sweep journal append", store_ms],
            ],
            "unattributed_label": "fleet dispatch: pick, fold, hand-off",
        }
        return out


# ---------------------------------------------------------------------------
# experiments-small
# ---------------------------------------------------------------------------


class ExperimentsSmall(BenchWorkload):
    """The paper reproduction: all 18 experiments at small scale through
    ``repro.platform.run_spec``, one fresh run registry per suite."""

    name = "experiments-small"

    def spec(self, workload_seed: int, experiments="all") -> dict:
        return {"experiments": experiments, "scale": "small",
                "workload": {"seed": workload_seed}}

    def setup(self) -> None:
        from repro.platform import run_spec

        record = run_spec(self.spec(self.seed * 1000 + 999, ["E1"]),
                          runs_dir=self.state / "warmup")
        if record.verdicts.get("E1") != "REPRODUCED":
            raise RuntimeError(f"warm-up failed: {record.verdicts}")

    def run_batch(self, index: int) -> int:
        from repro.platform import run_spec

        record = run_spec(self.spec(self.seed * 1000 + index),
                          runs_dir=self.state / f"runs-{index}")
        for eid in EXPERIMENT_IDS:
            key = (index, eid)
            self.attempted.append(key)
            self.observed[key] = record.verdicts.get(eid)
        return len(EXPERIMENT_IDS)

    def check(self) -> None:
        """Every experiment's verdict must be REPRODUCED."""
        for key in self.attempted:
            self.expected[key] = "REPRODUCED"

    def install_tracing(self, tracer, probes) -> None:
        super().install_tracing(tracer, probes)
        import repro.offline
        from repro.core.kernels import simulate_fast
        from repro.core.simulator import Simulator
        from repro.hardness import max_pif
        from repro.platform import runner

        tracer.patch(runner, "run_experiment", "experiments",
                     observe=probes.observe_experiment)
        tracer.patch(Simulator, "run", "simulator")
        for fname in repro.offline.__all__:
            fn = getattr(repro.offline, fname)
            if callable(fn) and not isinstance(fn, type):
                tracer.patch_everywhere(fn, "offline", fname)
        tracer.patch_everywhere(max_pif, "hardness.max_pif")
        probes.patch_kernels(tracer, simulate_fast)

    def layer_metrics(self, tracer, probes, traced) -> dict:
        ops = sum(b.ops for b in traced)
        suites = len(traced)
        wall_ms = sum(b.wall_s for b in traced) * 1e3
        out = probes.store_metrics(ops)
        out.update(probes.kernel_metrics())
        by_layer = self_ms_by_layer(tracer.spans)
        per_id = probes.experiment_ms
        for eid in EXPERIMENT_IDS:
            times = per_id.get(eid, [])
            out[f"experiments.{eid}_ms"] = (
                sum(times) / len(times) if times else 0.0, len(times))
        run_spec_ms = sum(s.duration_ns for s in tracer.layer_spans("platform")) / 1e6
        experiments_ms = sum(
            s.duration_ns for s in tracer.layer_spans("experiments")) / 1e6
        out["platform.overhead_ms"] = ((run_spec_ms - experiments_ms) / suites,
                                       suites)
        out["simulator.ms_total"] = (by_layer.get("simulator", 0.0) / suites, suites)
        out["offline.ms_total"] = (by_layer.get("offline", 0.0) / suites, suites)
        out["hardness.max_pif_ms"] = (
            by_layer.get("hardness.max_pif", 0.0) / suites, suites)
        out["_attribution"] = {
            "budget": "ms per suite (one thread), span self times",
            "budget_ms": wall_ms / suites,
            "rows": [[layer, ms / suites]
                     for layer, ms in sorted(by_layer.items(),
                                             key=lambda kv: -kv[1])
                     if layer != "harness"],
            "unattributed_label": "benchmark loop between suites",
        }
        return out


def fleet_metrics(outcomes) -> dict:
    outcomes = list(outcomes)
    n = len(outcomes)
    attempts = sum(o.attempts for o in outcomes)
    return {
        "fleet.attempts_per_op": (attempts / n if n else 0.0, n),
        "fleet.hedged_ops": (float(sum(1 for o in outcomes if o.hedged)), n),
    }


WORKLOADS = {
    cls.name: cls for cls in (SweepLocal, SweepService, ExperimentsSmall)
}
