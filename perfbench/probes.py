"""Per-layer probes of a traced run.

Layers in this process are measured by the spans of :mod:`tracing`.
Layers in other processes are measured from their public outputs — job
records, journal files, ``/readyz`` — and by replaying a sample of the
same replicas in this process (:meth:`Probes.replay`).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from metrics import named_percentile
from tracing import self_by_layer_ns


@dataclass
class Replay:
    """Mean per-replica times of a replayed sample."""

    n: int
    build_ms: float
    kernel_ms: float
    kernel_ns_per_request: float

    def metrics(self, *, calls: int) -> dict:
        return {
            "kernels.ns_per_request": (self.kernel_ns_per_request, self.n),
            "kernels.calls": (float(calls), calls),
            "workloads.build_ms_per_op": (self.build_ms, self.n),
        }


@dataclass
class ServerJournal:
    """The server's JobStore journal as found on disk after shutdown."""

    records: int
    bytes_per_record: float
    replayed: int
    replay_ns: int


class Probes:
    """Observations the patched calls feed, and what they add up to."""

    def __init__(self):
        self.store_records = 0
        self.store_bytes = 0
        self.store_ns = 0
        self.submits = 0
        self.statuses = 0
        self.backpressure = 0
        self.submit_ns: list[int] = []
        self.status_ns: list[int] = []
        #: job id -> perf_counter_ns at submit start
        self.client_jobs: dict[str, int] = {}
        #: job id -> perf_counter_ns when a terminal record arrived
        self.client_done: dict[str, int] = {}
        self.kernel_calls = 0
        self.kernel_requests = 0
        self.kernel_ns = 0
        self.experiment_ms: dict[str, list[float]] = {}

    # -- patches -----------------------------------------------------------

    def patch_store(self, tracer, durable_log_cls) -> None:
        from repro.store.durable import record_crc

        def observe(args, kwargs, result, error, duration_ns):
            log, key, value = args[:3]
            index = log.count - 1
            line = json.dumps({"n": index, "key": key, "value": value,
                               "c": record_crc(index, key, value)})
            self.store_records += 1
            self.store_bytes += len(line.encode("utf-8")) + 1
            self.store_ns += duration_ns

        tracer.patch(durable_log_cls, "record", "store", "DurableLog.record",
                     observe)

    def patch_client(self, tracer) -> None:
        from repro.service.client import Backpressure, ServiceClient
        from repro.service.jobs import TERMINAL_STATES

        def on_submit(args, kwargs, result, error, duration_ns):
            self.submits += 1
            self.submit_ns.append(duration_ns)
            if isinstance(error, Backpressure):
                self.backpressure += 1
            elif result is not None:
                self.client_jobs[result["id"]] = (
                    time.perf_counter_ns() - duration_ns
                )

        def on_status(args, kwargs, result, error, duration_ns):
            self.statuses += 1
            self.status_ns.append(duration_ns)
            if result is not None and result.get("state") in TERMINAL_STATES:
                self.client_done.setdefault(result["id"], time.perf_counter_ns())

        tracer.patch(ServiceClient, "submit", "client", "submit", on_submit)
        tracer.patch(ServiceClient, "status", "client", "status", on_status)

    def patch_kernels(self, tracer, simulate_fast) -> None:
        def observe(args, kwargs, result, error, duration_ns):
            self.kernel_calls += 1
            self.kernel_requests += sum(len(seq) for seq in args[0])
            self.kernel_ns += duration_ns

        tracer.patch_everywhere(simulate_fast, "kernels", "simulate_fast",
                                observe)

    def observe_experiment(self, args, kwargs, result, error, duration_ns):
        self.experiment_ms.setdefault(str(args[0]), []).append(duration_ns / 1e6)

    # -- replays -----------------------------------------------------------

    def replay(self, task: dict, keys, seed: int, sample: int) -> Replay:
        """Build and simulate a seeded sample of replicas in-process, the
        way a replica job does in a worker."""
        from harness import replica_inputs
        from repro.core.kernels import simulate_fast

        keys = sorted(keys)
        chosen = random.Random(seed).sample(keys, min(sample, len(keys)))
        build_ns = kernel_ns = requests = 0
        for key in chosen:
            t0 = time.perf_counter_ns()
            workload, strategy = replica_inputs(task, key)
            t1 = time.perf_counter_ns()
            simulate_fast(workload, task["cache_size"], task["tau"], strategy)
            t2 = time.perf_counter_ns()
            build_ns += t1 - t0
            kernel_ns += t2 - t1
            requests += sum(len(seq) for seq in workload)
        n = max(1, len(chosen))
        return Replay(
            n=len(chosen),
            build_ms=build_ns / n / 1e6,
            kernel_ms=kernel_ns / n / 1e6,
            kernel_ns_per_request=kernel_ns / max(1, requests),
        )

    def server_journal(self, path: Path, replay_dir: Path,
                       limit: int) -> ServerJournal:
        """Count the records a journal holds and time re-appending a
        sample of them to a fresh log in this process."""
        from repro.store import DurableLog

        active_base = 0
        active_records = 0
        lines: list[str] = []
        for file in sorted(path.parent.glob(path.name + ".*.seg")) + [path]:
            if not file.is_file():
                continue
            body = file.read_text(encoding="utf-8").splitlines()
            if not body:
                continue
            if file == path:
                active_base = json.loads(body[0]).get("base", 0)
                active_records = len(body) - 1
            lines.extend(body[1:])
        sizes = [len(line.encode("utf-8")) + 1 for line in lines]
        log = DurableLog(replay_dir / "replay.jsonl", "perfbench-replay")
        replay_ns = 0
        try:
            for line in lines[:limit]:
                entry = json.loads(line)
                t0 = time.perf_counter_ns()
                log.record(entry["key"], entry["value"])
                replay_ns += time.perf_counter_ns() - t0
        finally:
            log.close()
        return ServerJournal(
            records=active_base + active_records,
            bytes_per_record=sum(sizes) / len(sizes) if sizes else 0.0,
            replayed=min(limit, len(lines)),
            replay_ns=replay_ns,
        )

    # -- summaries ---------------------------------------------------------

    def store_metrics(self, ops: int, server: ServerJournal | None = None,
                      server_jobs: int = 0) -> dict:
        """Journal records, bytes and append time per op.  With a server
        journal, its per-job share is added to this process's."""
        records = self.store_records / ops
        written = self.store_bytes / ops
        append_ns, appended = self.store_ns, self.store_records
        if server is not None and server_jobs:
            per_job = server.records / server_jobs
            records += per_job
            written += per_job * server.bytes_per_record
            append_ns += server.replay_ns
            appended += server.replayed
        return {
            "store.records_per_op": (records, ops),
            "store.bytes_per_op": (written, ops),
            "store.append_us_per_record": (
                append_ns / appended / 1e3 if appended else 0.0, appended),
        }

    def store_ms_per_op(self, ops: int) -> float:
        return self.store_ns / ops / 1e6

    def client_observed_ms(self) -> list[float]:
        """Submit start to terminal status, per job, as the client saw it."""
        return [
            (self.client_done[job] - start) / 1e6
            for job, start in self.client_jobs.items()
            if job in self.client_done
        ]

    def client_metrics(self, ops: int) -> dict:
        out = {
            "client.requests_per_op": ((self.submits + self.statuses) / ops, ops),
            "client.status_polls_per_op": (self.statuses / ops, ops),
            "client.backpressure_per_op": (self.backpressure / ops, ops),
        }
        for metric, sample in (("client.submit_rtt_ms", self.submit_ns),
                               ("client.status_rtt_ms", self.status_ns)):
            ms = [ns / 1e6 for ns in sample]
            for p in (50.0, 90.0):
                out[f"{metric}.p{p:g}"] = named_percentile(ms, p)
        return out

    def kernel_metrics(self) -> dict:
        return {
            "kernels.ns_per_request": (
                self.kernel_ns / self.kernel_requests
                if self.kernel_requests else 0.0, self.kernel_calls),
            "kernels.calls": (float(self.kernel_calls), self.kernel_calls),
        }


def self_ms_by_layer(spans) -> dict[str, float]:
    return {layer: ns / 1e6 for layer, ns in self_by_layer_ns(spans).items()}
