#!/usr/bin/env python3
"""The repository's benchmark: three closed-loop workloads, end to end
and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-local --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: the set-up is timed in
several fresh interpreters (median reported), then one more fresh
interpreter sets up and runs the timed closed loop.  ``--trace 1`` runs
one fresh interpreter that alternates untraced and traced batches and
reports the per-layer metrics, including the tracing overhead.  Every
op's output is checked.  The last line of standard output is a JSON
object ``{"correct", "attempted", "failed", "metrics"}``; a fuller
report (machine stamp, sample counts, attribution) goes to
``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import check_name, completed_share, format_table  # noqa: E402
import procs  # noqa: E402

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "throughput_ops_per_s": "1/s",
    "completed_share": "ratio",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "kernels.ns_per_request": "ns",
    "kernels.calls": "count",
    "workloads.build_ms_per_op": "ms",
    "runtime.pool_overhead_ms_per_op": "ms",
    "store.records_per_op": "count",
    "store.bytes_per_op": "B",
    "store.append_us_per_record": "us",
    "fleet.attempts_per_op": "count",
    "fleet.hedged_ops": "count",
    "client.requests_per_op": "count",
    "client.status_polls_per_op": "count",
    "client.submit_rtt_ms.p50": "ms",
    "client.submit_rtt_ms.p90": "ms",
    "client.status_rtt_ms.p50": "ms",
    "client.status_rtt_ms.p90": "ms",
    "client.backpressure_per_op": "count",
    "server.queue_wait_ms.p50": "ms",
    "server.queue_wait_ms.p90": "ms",
    "server.run_ms.p50": "ms",
    "server.run_ms.p90": "ms",
    "server.submitted_to_done_ms.p50": "ms",
    "server.submitted_to_done_ms.p90": "ms",
    "server.poll_gap_ms_per_op": "ms",
    "server.pool_rebuilds": "count",
    **{f"experiments.E{i}_ms": "ms" for i in range(1, 19)},
    "simulator.ms_total": "ms",
    "offline.ms_total": "ms",
    "hardness.max_pif_ms": "ms",
    "platform.overhead_ms": "ms",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
}

#: Set-up samples per ``--trace 0`` run (the measured interpreter's own
#: set-up is one of them).
SETUP_REPS = 3

#: Whole-invocation limit, under the 180 s a run may take.
DEADLINE_S = 170.0

READY = "PERFBENCH-READY"


# ---------------------------------------------------------------------------
# child: one fresh interpreter
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    index: int
    traced: bool
    ops: int
    wall_s: float
    #: Share of the CPU the VM wanted that the host gave it.
    available: float


def timed_loop(work, seconds: float, tracer=None, probes=None) -> list[Batch]:
    """Closed loop: start batches back to back until ``seconds`` is used,
    stopping early when the next batch would mostly run past it.  With a
    tracer, odd batches are traced and even ones are not."""
    batches: list[Batch] = []
    start = time.perf_counter()
    need = 2 if tracer is not None else 1
    while True:
        index = len(batches)
        traced = tracer is not None and index % 2 == 1
        if traced:
            work.install_tracing(tracer, probes)
        ticks = procs.vm_ticks()
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.span("harness", "batch"):
                    ops = work.run_batch(index)
            else:
                ops = work.run_batch(index)
        finally:
            if traced:
                tracer.unpatch()
        batches.append(Batch(index, traced, ops, time.perf_counter() - t0,
                             procs.available_share(ticks, procs.vm_ticks())))
        elapsed = time.perf_counter() - start
        if len(batches) >= need and elapsed + elapsed / len(batches) / 2 >= seconds:
            return batches


def trace_summary(work, tracer, probes, batches) -> dict:
    traced = [b for b in batches if b.traced]
    plain = [b for b in batches if not b.traced]
    layers = work.layer_metrics(tracer, probes, traced)
    attribution = layers.pop("_attribution")
    distributions = layers.pop("_distributions", {})
    budget = attribution["budget_ms"]
    unattributed = budget - sum(ms for _, ms in attribution["rows"])
    attribution["unattributed_ms"] = unattributed

    def rate(bs):
        return sum(b.ops for b in bs) / sum(
            b.wall_s * (b.available if work.cpu_bound else 1.0) for b in bs)

    overhead = 1.0 - rate(traced) / rate(plain)
    layers["trace.overhead_share"] = (overhead, len(batches))
    layers["trace.unattributed_share"] = (unattributed / budget, len(traced))
    return {"layers": layers, "attribution": attribution,
            "distributions": distributions, "spans": len(tracer.spans)}


def child(args) -> int:
    procs.become_subreaper()
    from harness import WORKLOADS

    work = WORKLOADS[args.workload](args.seed, Path(args.state))
    tracer = probes = None
    if args.mode == "trace":
        from probes import Probes
        from tracing import Tracer

        tracer, probes = Tracer(), Probes()
    result: dict = {"mode": args.mode}
    try:
        work.setup()
        print(READY, flush=True)
        if args.mode == "setup":
            return emit(result)
        cpu0 = procs.settled_tree_cpu_s()
        ticks = procs.vm_ticks()
        t0 = time.perf_counter()
        batches = timed_loop(work, args.seconds, tracer, probes)
        result["wall_s"] = time.perf_counter() - t0
        result["available_share"] = procs.available_share(ticks, procs.vm_ticks())
        work.collect_before_teardown(probes.client_jobs if probes else ())
    finally:
        work.teardown()
        procs.wait_for_threads()
        killed = procs.reap_all()
    cpu1, peak_rss_mb = procs.final_usage()
    work.check()
    failed = work.failed()
    from repro.platform.registry import environment_stamp

    result.update(
        attempted=len(work.attempted),
        failed=[repr(key) for key in failed],
        cpu_s=cpu1 - cpu0,
        peak_rss_mb=peak_rss_mb,
        killed_strays=killed,
        batches=[asdict(b) for b in batches],
        environment=environment_stamp(),
    )
    if tracer is not None:
        result.update(trace_summary(work, tracer, probes, batches))
    return emit(result)


def emit(result: dict) -> int:
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# parent: orchestration and reporting
# ---------------------------------------------------------------------------


def stop_group(pgid: int) -> None:
    """SIGKILL whatever is left of a child's process group and wait for
    it to be gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(mode: str, args, state: Path, env: dict, deadline: float) -> dict:
    """One fresh interpreter; returns its result with ``setup_s``, the
    time from spawning it to it reporting ready, net of host steal."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--state", str(state)]
    ticks0 = procs.vm_ticks()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    watchdog = threading.Timer(
        max(1.0, deadline - time.monotonic()), stop_group, (proc.pid,))
    watchdog.start()
    setup_s = None
    last = ""
    try:
        for line in proc.stdout:
            if line.strip() == READY and setup_s is None:
                setup_s = time.perf_counter() - t0
                setup_share = procs.available_share(ticks0, procs.vm_ticks())
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        stop_group(proc.pid)
    if code != 0 or setup_s is None:
        raise RuntimeError(f"{mode} interpreter exited with code {code}")
    result = json.loads(last)
    result["setup_wall_s"] = setup_s
    result["setup_s"] = setup_s * setup_share
    return result


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def end_to_end(setups: list[float], run: dict, cpu_bound: bool) -> dict:
    """``name -> (value, n)`` from the set-up samples and the measured run.

    A CPU-bound workload's wall time is taken net of host steal."""
    attempted = run["attempted"]
    correct = attempted - len(run["failed"])
    wall_s = run["wall_s"] * (run["available_share"] if cpu_bound else 1.0)
    return {
        "throughput_ops_per_s": (correct / wall_s, correct),
        "completed_share": (
            completed_share(attempted, attempted - correct), attempted),
        "cpu_ms_per_op": (run["cpu_s"] * 1e3 / attempted, attempted),
        "peak_rss_mb": (run["peak_rss_mb"], 1),
        "setup_s": (statistics.median(setups), len(setups)),
    }


def print_report(report: dict) -> None:
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"trace={report['trace']}")
    print(f"  commit {report['commit']}  cpus {report['cpu_count']}  "
          f"{json.dumps(report['environment'], sort_keys=True)}")
    print(f"  share of wanted CPU the host gave this VM in the timed "
          f"window: {report['available_share']:.2%}; set-up times"
          + (" and the timed window" if report["cpu_bound"] else "")
          + " are net of the rest")
    rows = [(name, value, unit, f"n={n}")
            for name, (value, unit, n) in report["metrics"].items()]
    print(format_table(rows))
    attribution = report.get("attribution")
    if attribution:
        budget = attribution["budget_ms"]
        print(f"  attribution: {attribution['budget']}: {budget:.4g} ms")
        rows = attribution["rows"] + [
            ["unattributed: " + attribution["unattributed_label"],
             attribution["unattributed_ms"]]]
        for label, ms in rows:
            print(f"    {label:<56} {ms:10.4g} ms {ms / budget:7.1%}")
    for name, body in (report.get("distributions") or {}).items():
        cells = "  ".join(f"{k}={v:.4g}" for k, v in body.items() if k != "n")
        print(f"  {name:<36} n={body['n']:<6} {cells}")
    if report["failed_ops"]:
        print(f"  FAILED ops: {', '.join(report['failed_ops'][:20])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--state", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        args.mode = args.child
        return child(args)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a repro checkout "
              "(src/repro is missing)", file=sys.stderr)
        return 2
    from harness import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    for name in (*END_TO_END, *PER_LAYER):
        check_name(name)

    state_root = root / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp = state_root / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    deadline = started + DEADLINE_S
    try:
        if args.trace:
            run = spawn("trace", args, state_root / "run", env, deadline)
            metrics = {name: (*run["layers"].get(name, (0.0, 0)),)
                       for name in PER_LAYER}
            units = PER_LAYER
        else:
            runs = [spawn("setup", args, state_root / f"setup-{i}", env, deadline)
                    for i in range(SETUP_REPS - 1)]
            run = spawn("measure", args, state_root / "run", env, deadline)
            runs.append(run)
            setups = [r["setup_s"] for r in runs]
            setup_walls = [r["setup_wall_s"] for r in runs]
            metrics = end_to_end(setups, run, WORKLOADS[args.workload].cpu_bound)
            units = END_TO_END
    except (RuntimeError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(state_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            state_root.parent.rmdir()  # only when no other run uses it

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(root),
        "cpu_count": os.cpu_count(),
        "environment": run["environment"],
        "metrics": {name: (float(value), units[name], n)
                    for name, (value, n) in metrics.items()},
        "attribution": run.get("attribution"),
        "distributions": run.get("distributions"),
        "failed_ops": run["failed"],
        "batches": run["batches"],
        "setup_samples": None if args.trace else setups,
        "available_share": run["available_share"],
        "killed_strays": run["killed_strays"],
        "cpu_bound": WORKLOADS[args.workload].cpu_bound,
        "timed_wall_s": run["wall_s"],
        "setup_wall_s": None if args.trace else setup_walls,
    }
    print_report(report)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not run["failed"],
        "attempted": run["attempted"],
        "failed": len(run["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
