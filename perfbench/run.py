#!/usr/bin/env python3
"""Repository benchmark: ``repro.plan()`` and ``PlanService`` end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload prm-medcube --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is non-zero when an output check fails.  ``--workload all`` runs
every workload in its own process and prints one line per workload.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: where traced pool workers spool their span totals (removed after a run).
SPOOL = ROOT / ".perfbench_tmp"

#: the workload and metric tables (names and units) live in BENCHMARK.json.
SPEC = ROOT / "BENCHMARK.json"


def _parse(argv, spec: dict):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--workload", required=True, choices=(*workloads, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _probe_s() -> float:
    """Median wall time of one fixed small plan() (seed 0): host speed."""
    from repro import ExecutionPolicy, WorkloadSpec, plan

    spec = WorkloadSpec(environment="med-cube", num_regions=64, seed=0)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        plan(spec, execution=ExecutionPolicy(strategy="hybrid", num_pes=24))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_workload(args, end_to_end: dict, per_layer: dict) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    from host import host_facts, peak_rss_mb

    if args.workload == "serve-warm":
        import serving as mod
        from serving import ServeRun

        run = ServeRun(args.seed)
        facts = host_facts("reference", "auto (brute < 8k vertices)")
    else:
        import planning as mod
        from planning import CASES, PlanRun

        run = PlanRun(CASES[args.workload], args.seed)
        ex = run.case.execution
        facts = host_facts(ex.get("kernel_backend") or "reference", "brute")

    setup_times = []
    for _ in range(run.setup_reps):
        run.close()
        t0 = time.perf_counter()
        run.setup()
        setup_times.append(time.perf_counter() - t0)

    ledger = None
    if args.trace:
        from ledger import Ledger

        ledger = Ledger(SPOOL)
    phases = {"setup": sum(setup_times)}
    try:
        t0 = time.perf_counter()
        result = run.measure(args.seconds, ledger)
        phases["measure"] = time.perf_counter() - t0
        rss_mb = peak_rss_mb()  # before the checks, which are not the workload
        metrics, problems, info = mod.summarize(run, result, bool(args.trace))
        t0 = time.perf_counter()
        problems += mod.check_outputs(run, result)
        phases["checks"] = time.perf_counter() - t0
    finally:
        run.close()
        shutil.rmtree(SPOOL, ignore_errors=True)
    facts["probe_s"] = _probe_s()
    info["phase_s"] = phases

    if args.trace:
        table = per_layer
        values = {name: float(metrics.get(name, 0.0)) for name in per_layer}
    else:
        table = end_to_end
        values = dict(metrics, setup_s=statistics.median(setup_times),
                      peak_rss_mb=rss_mb)
    attempted, failed = info.pop("attempted"), info.pop("failed")
    if problems:
        failed = max(failed, 1)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("host " + json.dumps(facts))
    print("setup_s runs " + " ".join(f"{t:.4f}" for t in setup_times))
    for key, val in info.items():
        print(f"info {key} {json.dumps(val, default=str)}")
    for name, unit in table.items():
        print(f"metric {name} {values[name]:.6g} {unit}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    return {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in table.items()},
    }


def run_all(args, workloads) -> int:
    """Every workload in its own process (so peak memory is per workload)."""
    status = 0
    rows = []
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            res = None
        if proc.returncode != 0 or res is None or not res["correct"]:
            status = 1
        rows.append((name, res))
    print()
    for name, res in rows:
        if res is None:
            print(f"{name}: no result")
            continue
        vals = "  ".join(
            f"{m}={v['value']:.4g} {v['unit']}" for m, v in res["metrics"].items()
        )
        print(f"{name}: correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']}  {vals}")
    return status


def _child_pids() -> "list[int]":
    """Live child processes of this process (Linux ``/proc``)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces: fields resume after its ")".
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def _stop_children(grace_s: float = 10.0) -> None:
    """Stop and reap every process this run started, so none outlives it.

    Pool workers are joined by ``plan()`` itself; what remains is
    multiprocessing's resource tracker, which the shared-memory data plane
    starts and which only exits once its pipe is closed.  Anything still
    alive after ``grace_s`` is killed.  Runs from ``atexit`` registered
    before ``repro`` is imported, so it comes after the program's own exit
    hooks (which may still talk to the tracker).
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(grace_s)
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + grace_s
    while pids := _child_pids():
        if time.monotonic() > deadline:
            for pid in pids:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
        for pid in pids:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        time.sleep(0.01)


def main(argv=None) -> int:
    atexit.register(_stop_children)
    spec = json.loads(SPEC.read_text())
    args = _parse(argv, spec)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args, [w["name"] for w in spec["workloads"]])
    result = run_workload(
        args,
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
