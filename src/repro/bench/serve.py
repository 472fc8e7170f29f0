"""Load-generator benchmark for the :class:`~repro.service.PlanService`.

Drives the serving stack the way the paper's evaluation drives the
planners — fixed seeds, explicit baselines, parity asserted — and writes
``serve_throughput`` / ``serve_latency`` rows into the shared
``BENCH_perf.json`` regression file:

* **baseline** — the un-amortised serving loop: one
  :meth:`RoadmapQuery.solve` per request against a pre-built roadmap
  (fresh NN index and roadmap mutation per query).
* **closed loop** — N client threads, each submitting one request and
  waiting for its answer before the next, against a warm-cache
  :class:`PlanService`; throughput shows what snapshot reuse plus
  coalesced :meth:`QueryEngine.solve_many` batches buy.
* **open loop** — requests arrive at a fixed rate regardless of
  completions (the tail-latency-honest discipline); p50/p99/p999
  request sojourn times bound the coalescer's linger budget in practice.

Every served answer — warm cache *and* cache disabled — is compared
bit-for-bit against the direct ``RoadmapQuery.solve`` reference; the
``parity_cached`` / ``parity_uncached`` booleans land in the JSON and
``--check`` fails on any ``false``.

Usage::

    python -m repro.bench serve                    # medium -> merge into BENCH_perf.json
    python -m repro.bench serve --scale smoke      # CI-sized (~10 s)
    python -m repro.bench serve --trace trace.jsonl  # dump closed-loop events
    python -m repro.bench serve --check out.json   # validate an existing file
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

import numpy as np

from ..obs.sinks import JsonlSink
from ..obs.tracer import Tracer
from ..planners.query import RoadmapQuery
from ..service import PlanService, ServiceConfig, ServiceOverloadError
from ..spec import WorkloadSpec
from .perf import _query_results_equal, write_merged

__all__ = ["run_suite", "main", "validate", "SCALES"]

#: Load shapes.  "medium" is the checked-in baseline; "smoke" is CI-sized.
SCALES = {
    "smoke": {
        "tenants": 2, "num_regions": 32, "samples_per_region": 8,
        "queries_per_tenant": 25, "baseline_requests": 64,
        "closed_clients": 32, "closed_requests": 256,
        "open_requests": 256, "open_rate": 1500.0,
        "max_batch": 16, "max_linger": 0.002, "repeats": 2,
    },
    "medium": {
        "tenants": 3, "num_regions": 64, "samples_per_region": 8,
        "queries_per_tenant": 50, "baseline_requests": 256,
        "closed_clients": 32, "closed_requests": 1024,
        "open_requests": 1024, "open_rate": 1200.0,
        "max_batch": 32, "max_linger": 0.005, "repeats": 3,
    },
}

_SEED = 42

#: Fields the serve rows must carry for a result file to be well-formed.
_SERVE_REQUIRED = {
    "serve_throughput": (
        "baseline_qps", "serve_qps", "speedup", "open_qps",
        "cache_hit_rate", "parity_cached", "parity_uncached",
    ),
    "serve_latency": (
        "closed_p50_ms", "closed_p99_ms", "closed_p999_ms",
        "open_p50_ms", "open_p99_ms", "open_p999_ms",
    ),
}


def _workloads(params: dict) -> "list[WorkloadSpec]":
    """One tenant per seed: identical geometry, distinct roadmaps."""
    return [
        WorkloadSpec(
            environment="med-cube",
            planner="prm",
            num_regions=params["num_regions"],
            samples_per_region=params["samples_per_region"],
            seed=_SEED + t,
        )
        for t in range(params["tenants"])
    ]


def _tenant_queries(params: dict) -> "list[list[tuple]]":
    """Fixed per-tenant (start, goal) pools drawn from the tenant's rng."""
    out = []
    for t in range(params["tenants"]):
        spec_rng = np.random.default_rng(1000 + t)
        cs = WorkloadSpec(environment="med-cube").resolve_cspace()
        lo, hi = cs.bounds.lo, cs.bounds.hi
        out.append(
            [
                (spec_rng.uniform(lo, hi), spec_rng.uniform(lo, hi))
                for _ in range(params["queries_per_tenant"])
            ]
        )
    return out


def _request_mix(params: dict, n: int) -> "list[tuple[int, int]]":
    """A deterministic request stream: (tenant, query index) pairs that
    round-robin tenants and cycle each tenant's query pool."""
    tenants = params["tenants"]
    per = params["queries_per_tenant"]
    return [(i % tenants, (i // tenants) % per) for i in range(n)]


def _closed_loop(svc, specs, queries, mix, clients: int):
    """Fixed-concurrency load: each of ``clients`` threads submits its
    share of ``mix`` one request at a time, waiting for each answer."""
    results: "list" = [None] * len(mix)
    barrier = threading.Barrier(clients + 1)

    def client(ci: int):
        """One closed-loop client (its requests are a stride of the mix)."""
        barrier.wait()
        for j in range(ci, len(mix), clients):
            t, qi = mix[j]
            results[j] = svc.submit(specs[t], queries[t][qi]).result()

    threads = [threading.Thread(target=client, args=(ci,)) for ci in range(clients)]
    for th in threads:
        th.start()
    barrier.wait()
    t0 = time.perf_counter()
    for th in threads:
        th.join()
    return time.perf_counter() - t0, results


def _open_loop(svc, specs, queries, mix, rate: float):
    """Fixed-arrival-rate load: submissions are paced at ``rate`` req/s
    independent of completions; rejected requests are counted, answered
    ones are awaited at the end."""
    futures: "list" = []
    rejected = 0
    t0 = time.perf_counter()
    for i, (t, qi) in enumerate(mix):
        target = t0 + i / rate
        now = time.perf_counter()
        if target > now:
            time.sleep(target - now)
        try:
            futures.append((i, svc.submit(specs[t], queries[t][qi], block=False)))
        except ServiceOverloadError:
            rejected += 1
    answered = [(i, fut.result()) for i, fut in futures]
    return time.perf_counter() - t0, answered, rejected


def run_suite(scale: str = "medium", trace_path: "str | None" = None) -> dict:
    """Run the serving benchmark at ``scale``; returns the two JSON rows.

    Raises ``AssertionError`` if any served answer diverges from the
    direct ``RoadmapQuery.solve`` reference.
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {sorted(SCALES)}, got {scale!r}")
    params = SCALES[scale]
    specs = _workloads(params)
    queries = _tenant_queries(params)

    # Reference: direct, un-amortised solves on pre-built roadmaps.  The
    # truth table doubles as the parity oracle for every served answer.
    from ..core.parallel_prm import build_prm_workload

    roadmaps = []
    truth: "dict[tuple[int, int], object]" = {}
    for t, spec in enumerate(specs):
        cs = spec.resolve_cspace()
        rmap = build_prm_workload(
            cs,
            num_regions=spec.num_regions,
            samples_per_region=spec.samples_per_region,
            seed=spec.seed,
        ).roadmap
        rq = RoadmapQuery(cs, k=8)
        for qi, (s, g) in enumerate(queries[t]):
            truth[(t, qi)] = rq.solve(rmap, s, g)
        roadmaps.append(rmap)

    # Baseline throughput: the naive serving loop over the same mix
    # (best of ``repeats`` — minimum wall time is the low-noise estimator).
    base_mix = _request_mix(params, params["baseline_requests"])
    rq_by_tenant = [RoadmapQuery(spec.resolve_cspace(), k=8) for spec in specs]
    baseline_wall = float("inf")
    for _ in range(params["repeats"]):
        t0 = time.perf_counter()
        for t, qi in base_mix:
            s, g = queries[t][qi]
            rq_by_tenant[t].solve(roadmaps[t], s, g)
        baseline_wall = min(baseline_wall, time.perf_counter() - t0)
    baseline_qps = len(base_mix) / baseline_wall

    cfg = ServiceConfig(
        max_batch=params["max_batch"],
        max_linger=params["max_linger"],
        serve_workers=2,
    )

    # Closed loop against a warm cache (first pass of misses pre-paid);
    # best of ``repeats`` fresh services, parity asserted on every repeat.
    closed_mix = _request_mix(params, params["closed_requests"])
    closed_wall = float("inf")
    closed_stats = None
    parity_cached = True
    closed_truth = [truth[m] for m in closed_mix]
    for rep in range(params["repeats"]):
        sink = None
        tracer = None
        if trace_path and rep == 0:
            sink = JsonlSink(trace_path)
            tracer = Tracer(sinks=[sink])
        with PlanService(cfg, tracer=tracer) as svc:
            for spec in specs:
                svc.cache.get(spec)
            wall, results = _closed_loop(
                svc, specs, queries, closed_mix, params["closed_clients"]
            )
            stats = svc.stats()
        if sink is not None:
            sink.close()
        parity_cached = parity_cached and _query_results_equal(closed_truth, results)
        if wall < closed_wall:
            closed_wall, closed_stats = wall, stats
    serve_qps = len(closed_mix) / closed_wall

    # Cache-disabled parity control: identical answers, rebuild per batch.
    uncached_cfg = ServiceConfig(
        max_batch=params["max_batch"],
        max_linger=params["max_linger"],
        cache_enabled=False,
        serve_workers=2,
    )
    with PlanService(uncached_cfg) as svc:
        uncached_results = []
        expect = []
        for t, spec in enumerate(specs):
            uncached_results.extend(svc.solve_many(spec, queries[t]))
            expect.extend(truth[(t, qi)] for qi in range(len(queries[t])))
    parity_uncached = _query_results_equal(expect, uncached_results)

    if not (parity_cached and parity_uncached):
        raise AssertionError(
            "served answers diverged from the direct RoadmapQuery reference: "
            f"parity_cached={parity_cached} parity_uncached={parity_uncached}"
        )

    # Open loop at a fixed arrival rate against a fresh warm service.
    open_mix = _request_mix(params, params["open_requests"])
    with PlanService(cfg) as svc:
        for spec in specs:
            svc.cache.get(spec)
        open_wall, answered, rejected = _open_loop(
            svc, specs, queries, open_mix, params["open_rate"]
        )
        open_stats = svc.stats()
    parity_open = _query_results_equal(
        [truth[open_mix[i]] for i, _r in answered], [r for _i, r in answered]
    )
    if not parity_open:
        raise AssertionError("open-loop served answers diverged from the reference")
    open_qps = len(answered) / open_wall

    throughput_row = {
        "n_workloads": len(specs),
        "closed_requests": len(closed_mix),
        "closed_clients": params["closed_clients"],
        "baseline_qps": baseline_qps,
        "serve_qps": serve_qps,
        "speedup": serve_qps / baseline_qps,
        "open_requests": len(open_mix),
        "open_rate_target": params["open_rate"],
        "open_qps": float(open_qps),
        "rejected": rejected,
        "cache_hit_rate": closed_stats.cache.hit_rate,
        "mean_batch_size": closed_stats.mean_batch_size,
        "parity_cached": parity_cached,
        "parity_uncached": parity_uncached,
    }
    latency_row = {
        "max_linger_ms": params["max_linger"] * 1e3,
        "closed_p50_ms": closed_stats.latency_percentile(50) * 1e3,
        "closed_p99_ms": closed_stats.latency_percentile(99) * 1e3,
        "closed_p999_ms": closed_stats.latency_percentile(99.9) * 1e3,
        "open_p50_ms": open_stats.latency_percentile(50) * 1e3,
        "open_p99_ms": open_stats.latency_percentile(99) * 1e3,
        "open_p999_ms": open_stats.latency_percentile(99.9) * 1e3,
        "closed_batches": closed_stats.batches,
        "open_batches": open_stats.batches,
    }
    return {"serve_throughput": throughput_row, "serve_latency": latency_row}


def validate_serve_rows(benches: dict) -> "list[str]":
    """Problems with the serve rows of a benchmarks dict (empty when the
    rows are absent — they are optional in a perf-only file — or valid)."""
    problems = []
    present = [n for n in _SERVE_REQUIRED if n in benches]
    if not present:
        return []
    for name, fields in _SERVE_REQUIRED.items():
        entry = benches.get(name)
        if not isinstance(entry, dict):
            problems.append(f"benchmark {name!r} missing")
            continue
        for f in fields:
            if f not in entry:
                problems.append(f"benchmark {name!r} missing field {f!r}")
    tput = benches.get("serve_throughput", {})
    for f in ("baseline_qps", "serve_qps", "open_qps"):
        v = tput.get(f)
        if v is not None and not (isinstance(v, (int, float)) and v > 0):
            problems.append(f"serve_throughput field {f!r} is not a positive number")
    for f in ("parity_cached", "parity_uncached"):
        if tput.get(f) is False:
            problems.append(f"serve_throughput reports {f}=false")
    hr = tput.get("cache_hit_rate")
    if hr is not None and not (isinstance(hr, (int, float)) and 0.0 <= hr <= 1.0):
        problems.append("serve_throughput cache_hit_rate is not in [0, 1]")
    return problems


def validate(payload: object) -> "list[str]":
    """Structural validation of a serve result file; the serve rows are
    **required** here (unlike in ``perf --check``, where they are
    optional extras)."""
    if not isinstance(payload, dict):
        return ["top level is not a JSON object"]
    problems = []
    if payload.get("suite") != "repro-perf":
        problems.append("missing or wrong 'suite' marker")
    benches = payload.get("benchmarks")
    if not isinstance(benches, dict):
        return problems + ["'benchmarks' missing or not an object"]
    for name in _SERVE_REQUIRED:
        if name not in benches:
            problems.append(f"benchmark {name!r} missing")
    problems.extend(validate_serve_rows(benches))
    return problems


def main(argv: "list[str]") -> int:
    """CLI entry point: run the load generator or ``--check`` a file.

    Results are **merged** into ``--output`` when it already holds a
    perf payload, so one ``BENCH_perf.json`` carries both suites.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench serve", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--scale", choices=sorted(SCALES), default="medium")
    parser.add_argument("--output", default="BENCH_perf.json")
    parser.add_argument(
        "--trace", metavar="FILE",
        help="write the closed-loop run's trace events to a JSONL file",
    )
    parser.add_argument(
        "--check",
        metavar="FILE",
        help="validate an existing result file instead of running the bench",
    )
    args = parser.parse_args(argv)

    if args.check:
        try:
            with open(args.check) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"serve check: cannot read {args.check}: {exc}", file=sys.stderr)
            return 2
        problems = validate(payload)
        if problems:
            for p in problems:
                print(f"serve check: {p}", file=sys.stderr)
            return 1
        print(f"serve check: {args.check} OK")
        return 0

    t0 = time.perf_counter()
    rows = run_suite(args.scale, trace_path=args.trace)
    print(f"[serve] suite: {time.perf_counter() - t0:.1f}s", file=sys.stderr)

    write_merged(args.output, args.scale, rows, {"serve_scale": args.scale})
    tput = rows["serve_throughput"]
    lat = rows["serve_latency"]
    print(
        f"wrote {args.output}: serve {tput['serve_qps']:.0f} q/s vs baseline "
        f"{tput['baseline_qps']:.0f} q/s ({tput['speedup']:.2f}x), hit rate "
        f"{tput['cache_hit_rate']:.0%}, mean batch {tput['mean_batch_size']:.1f}, "
        f"closed p50/p99/p999 {lat['closed_p50_ms']:.2f}/{lat['closed_p99_ms']:.2f}/"
        f"{lat['closed_p999_ms']:.2f} ms, open {lat['open_p50_ms']:.2f}/"
        f"{lat['open_p99_ms']:.2f}/{lat['open_p999_ms']:.2f} ms, parity OK"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
