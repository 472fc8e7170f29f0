"""The ``serve-warm`` workload: an open-loop ``PlanService`` on a warm cache.

Three med-cube PRM tenants are built into the service's cache during
set-up.  One generator thread then submits requests at Poisson arrival
times drawn from the run's seed, at a light and a heavy fixed rate, and
offers bursts of requests all due at once, whose completion rate is the
saturation throughput.  Every
request is timed from its *due* time (the arrival the schedule set), not
from when the generator got round to submitting it, so a generator stall
shows as latency; how late the generator ran is recorded per step, and a
step whose generator fell behind is marked invalid.

Start and goal are drawn from free space: in med-cube a uniform draw
leaves a blocked endpoint (and no search to do) for a large share of
queries.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

from checks import same_answers

TENANTS = 3
TENANT_REGIONS = 256
QUERIES_PER_TENANT = 200
#: the two open-loop arrival rates, requests per second.
RATES = {"light": 75.0, "heavy": 150.0}
#: share of the measuring time each kind of step gets.
STEP_SHARE = {"light": 0.45, "heavy": 0.30, "burst": 0.25}
#: rounds of (light, heavy, burst) steps per run.
CYCLES = 3
#: requests a burst offers at once (below the service's queue bound).
BURST_SIZE = 256
#: sizes the number of bursts to fill about their share of the time.
BURST_QPS_GUESS = 450.0
#: the latency limit serve_max_qps is judged against, at p99.
LATENCY_LIMIT_MS = 100.0
#: a rate step is invalid when the generator fell behind its schedule: the
#: median lateness of the step's last tenth of submissions exceeds this.
#: (Single transient waits of a few ms are the generator waiting for the
#: interpreter lock, not falling behind; they still count in latency.)
MAX_GENERATOR_LAG_MS = 10.0
#: served answers re-solved with RoadmapQuery.solve per run.
PARITY_SAMPLE = 60
#: the service under test.  One serving thread: solves are Python-bound, so
#: a second one only contends for the interpreter lock on a small host.
SERVICE = {"max_batch": 16, "max_linger": 0.005, "serve_workers": 1}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    vals = sorted(values)
    i = min(int(q / 100 * (len(vals) - 1) + 0.5), len(vals) - 1)
    return vals[i]


class ServeRun:
    """Set-up, open-loop steps and checks of the serve-warm workload."""

    #: set-ups per run (each fills the cache of a fresh service).
    setup_reps = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.svc = None
        #: per closed service, the digests of its cached snapshots.
        self.fills: "list[list[str]]" = []

    # -- set-up --------------------------------------------------------------
    def setup(self) -> None:
        """Generate tenants and free-space queries, start a service and
        fill its cache (the timed set-up includes the fill)."""
        from repro import ExecutionPolicy, WorkloadSpec
        from repro.service import PlanService, ServiceConfig

        self.specs = [
            WorkloadSpec(
                environment="med-cube",
                planner="prm",
                num_regions=TENANT_REGIONS,
                samples_per_region=8,
                seed=self.seed * TENANTS + t,
            )
            for t in range(TENANTS)
        ]
        rng = np.random.default_rng(self.seed)
        cspace = self.specs[0].resolve_cspace()
        lo, hi = cspace.bounds.lo, cspace.bounds.hi
        self.queries = []
        for _t in range(TENANTS):
            need = 2 * QUERIES_PER_TENANT
            free = np.empty((0, lo.shape[0]))
            while len(free) < need:
                cand = rng.uniform(lo, hi, size=(need, lo.shape[0]))
                free = np.vstack([free, cand[cspace.valid(cand)]])
            free = free[:need]
            self.queries.append(list(zip(free[0::2], free[1::2])))
        self.svc = PlanService(
            ServiceConfig(execution=ExecutionPolicy(workers=1), **SERVICE)
        )
        self.engines = [self.svc.cache.get(spec) for spec in self.specs]

    def close(self) -> None:
        """Stop the service, keeping a digest of what its cache held."""
        if self.svc is not None:
            self.fills.append([snapshot_digest(e.frozen) for e in self.engines])
            self.svc.close()
            self.svc = None

    # -- load ------------------------------------------------------------------
    def _mix(self, rng, n: int) -> "list[tuple[int, int]]":
        tenants = rng.integers(0, TENANTS, size=n)
        picks = rng.integers(0, QUERIES_PER_TENANT, size=n)
        return list(zip(tenants.tolist(), picks.tolist()))

    def step(self, rate: "float | None", n: int, rng) -> dict:
        """Submit ``n`` requests; Poisson arrivals at ``rate``, or all due at
        once when ``rate`` is None (a burst).  Returns latencies from due
        time and generator lateness."""
        from repro.service import ServiceOverloadError

        mix = self._mix(rng, n)
        gaps = rng.exponential(1.0 / rate, size=n) if rate else np.zeros(n)
        offsets = np.cumsum(gaps)
        done = [0.0] * n
        late = [0.0] * n
        futures = []
        rejected = 0
        clock = time.perf_counter
        t0 = clock() + 0.002
        for i, (t, qi) in enumerate(mix):
            due = t0 + offsets[i]
            now = clock()
            if due > now:
                time.sleep(due - now)
                now = clock()
            late[i] = now - due
            try:
                fut = self.svc.submit(self.specs[t], self.queries[t][qi], block=False)
            except ServiceOverloadError:
                rejected += 1
                continue
            fut.add_done_callback(lambda _f, i=i: done.__setitem__(i, clock()))
            futures.append((i, fut))
        errored = 0
        answers = {}
        for i, fut in futures:
            try:
                answers[i] = fut.result(timeout=60)
            except Exception:  # an errored request counts as failed
                errored += 1
        # A done-callback may run just after result() returns.
        deadline = clock() + 1.0
        while any(done[i] == 0.0 for i in answers) and clock() < deadline:
            time.sleep(0.001)
        lat_ms = [(done[i] - (t0 + offsets[i])) * 1e3 for i in answers]
        return {
            "rate": rate,
            "n": n,
            "mix": mix,
            "answers": answers,
            "lat_ms": lat_ms,
            "late_ms": [x * 1e3 for x in late],
            "rejected": rejected,
            "errored": errored,
            "span_s": clock() - t0,
        }

    def counters(self) -> "tuple[int, int, int]":
        """(point checks, segment checks, NN distance evaluations) made so
        far by the cached engines."""
        pc = sc = evals = 0
        for engine in self.engines:
            cnt = engine.cspace.env.counters
            pc += cnt.point_checks
            sc += cnt.segment_checks
            evals += engine.nn_stats.distance_evals
        return pc, sc, evals

    def measure(self, seconds: float, ledger=None) -> dict:
        """The open-loop steps, split into ``CYCLES`` rounds so each kind
        of step samples the whole measuring window.  With a ledger, each
        round is one untraced and one traced light step instead (the
        traced run measures layers, not load)."""
        rng = np.random.default_rng(self.seed + 1)
        share = seconds / CYCLES
        steps: "dict[str, list[dict]]" = {}
        start = self.svc.stats()
        if ledger is None:
            for _ in range(CYCLES):
                for name, rate in RATES.items():
                    n = max(20, int(rate * share * STEP_SHARE[name]))
                    steps.setdefault(name, []).append(self.step(rate, n, rng))
                bursts = round(BURST_QPS_GUESS * share * STEP_SHARE["burst"] / BURST_SIZE)
                for _ in range(max(1, bursts)):
                    steps.setdefault("burst", []).append(self.step(None, BURST_SIZE, rng))
            return {"steps": steps, "stats": (start, self.svc.stats())}
        n = max(20, int(RATES["light"] * share * 0.45))
        #: what the service and the engines did during the traced steps.
        traced = {"counts": [0, 0, 0], "served": 0, "batches": 0, "sojourn": []}
        ledger.reset()
        for _ in range(CYCLES):
            steps.setdefault("light", []).append(self.step(RATES["light"], n, rng))
            before, counts_before = self.svc.stats(), self.counters()
            ledger.install()
            try:
                steps.setdefault("traced", []).append(self.step(RATES["light"], n, rng))
            finally:
                ledger.uninstall()
            after = self.svc.stats()
            traced["counts"] = [
                c + b - a for c, a, b in zip(traced["counts"], counts_before, self.counters())
            ]
            traced["served"] += after.served - before.served
            traced["batches"] += after.batches - before.batches
            traced["sojourn"] += after.latencies[len(before.latencies):]
        return {
            "steps": steps,
            "stats": (start, self.svc.stats()),
            "ledger": ledger.totals(),
            "traced": traced,
        }

    # -- checks ------------------------------------------------------------------
    def check(self, steps: dict) -> "list[str]":
        """Every set-up's cache fill produced the same snapshots, those
        snapshots hold exactly plan()'s roadmaps, and served answers equal
        RoadmapQuery.solve on those roadmaps."""
        from repro import plan
        from repro.planners.query import RoadmapQuery

        problems = []
        fills = self.fills + [[snapshot_digest(e.frozen) for e in self.engines]]
        if any(f != fills[0] for f in fills):
            problems.append("cached snapshot digests differ between set-ups")
        roadmaps = []
        for t, spec in enumerate(self.specs):
            rmap = plan(spec).roadmap
            roadmaps.append(rmap)
            frozen = self.engines[t].frozen
            ids, cfgs = rmap.configs_array()
            if not (np.array_equal(frozen.ids, ids) and np.array_equal(frozen.configs, cfgs)):
                problems.append(f"tenant {t}: cached snapshot differs from plan()'s roadmap")
        solver = RoadmapQuery(self.specs[0].resolve_cspace(), k=8)
        served = [
            (st["mix"][i], ans)
            for parts in steps.values()
            for st in parts
            for i, ans in sorted(st["answers"].items())
        ]
        rng = np.random.default_rng(self.seed + 2)
        picks = rng.choice(len(served), size=min(PARITY_SAMPLE, len(served)), replace=False)
        mismatched = 0
        for j in picks:
            (t, qi), ans = served[j]
            s, g = self.queries[t][qi]
            if not same_answers(solver.solve(roadmaps[t], s, g), ans):
                mismatched += 1
        if mismatched:
            problems.append(
                f"{mismatched} of {len(picks)} sampled served answers differ "
                "from RoadmapQuery.solve"
            )
        return problems


def snapshot_digest(frozen) -> str:
    """sha256 over a frozen roadmap's ids, configurations and CSR arrays."""
    h = hashlib.sha256()
    for arr in (frozen.ids, frozen.configs, frozen.indptr, frozen.indices, frozen.weights):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def step_facts(parts: "list[dict]") -> dict:
    """Latency percentiles, generator lateness and validity of one kind of
    step, pooled over its rounds."""
    lat = [x for st in parts for x in st["lat_ms"]]
    late = [x for st in parts for x in st["late_ms"]]
    lag = backlog = 0.0
    for st in parts:
        tenth = max(1, len(st["lat_ms"]) // 10)
        lag = max(lag, percentile(st["late_ms"][-tenth:], 50))
        backlog = max(backlog, percentile(st["lat_ms"][-tenth:], 50))
    return {
        "n": sum(st["n"] for st in parts),
        "answered": len(lat),
        "p50_ms": percentile(lat, 50),
        "p95_ms": percentile(lat, 95),
        "p99_ms": percentile(lat, 99),
        "achieved_qps": len(lat) / sum(st["span_s"] for st in parts),
        "generator_late_p99_ms": percentile(late, 99),
        "generator_late_max_ms": max(late),
        "valid": bool(parts[0]["rate"] is None or lag <= MAX_GENERATOR_LAG_MS),
        # The backlog grew when answers at the end of a round waited far
        # longer than the limit: the service did not keep up with the rate.
        "backlog_grew": bool(backlog > 4 * LATENCY_LIMIT_MS),
    }


def check_outputs(run: ServeRun, result: dict) -> "list[str]":
    """Served-answer parity and cache-content checks (see ServeRun.check)."""
    return run.check(result["steps"])


def summarize(run: ServeRun, result: dict, trace: bool) -> "tuple[dict, list[str], dict]":
    """(metrics, problems, facts to print) of a finished serve run."""
    steps = result["steps"]
    facts = {name: step_facts(parts) for name, parts in steps.items()}
    every = [st for parts in steps.values() for st in parts]
    submitted = sum(st["n"] for st in every)
    failed = sum(st["rejected"] + st["errored"] for st in every)
    answered = sum(len(st["answers"]) for st in every)
    before, after = result["stats"]
    failed += after.abandoned - before.abandoned
    info = {"steps": facts, "attempted": submitted, "failed": failed}
    if not trace:
        light, heavy = facts["light"], facts["heavy"]
        ok_rates = [
            RATES[name]
            for name in ("light", "heavy")
            if facts[name]["p99_ms"] <= LATENCY_LIMIT_MS and not facts[name]["backlog_grew"]
        ]
        info.update({
            "serve_p50_ms.light": light["p50_ms"],
            "serve_p99_ms.light": light["p99_ms"],
            "serve_p50_ms.heavy": heavy["p50_ms"],
            "serve_p99_ms.heavy": heavy["p99_ms"],
            "serve_max_qps": max(ok_rates) if ok_rates else 0.0,
        })
        metrics = {
            "p50_ms": light["p50_ms"],
            # The open-loop tails amplify the host's slow phases (p95 at
            # 150 q/s doubled in them, p50 at 75 q/s rose by 40%); the
            # burst's p95 moves with the solve path's speed alone.
            "tail_ms": facts["burst"]["p95_ms"],
            "throughput_per_s": facts["burst"]["achieved_qps"],
            "delivered_frac": (answered - (after.abandoned - before.abandoned)) / submitted,
        }
        return metrics, [], info
    tot = result["ledger"]
    traced = result["traced"]
    point_checks, segment_checks, distance_evals = traced["counts"]
    served, batches, sojourn = traced["served"], traced["batches"], traced["sojourn"]

    def span(name, i=0):
        return tot.get(name, (0.0, 0, 0, 0.0))[i]

    engine_calls = span("planners.engine", 1)
    mean_solve_ms = span("planners.engine") / engine_calls * 1e3 if engine_calls else 0.0
    plain_p50 = facts["light"]["p50_ms"]
    traced_p50 = facts["traced"]["p50_ms"]
    engine_s = span("planners.engine")
    metrics = {
        "kernels.s": span("kernels"),
        "kernels.calls": span("kernels", 1),
        "kernels.rows": span("kernels", 2),
        "geometry.point_checks": point_checks,
        "geometry.segment_checks": segment_checks,
        "cspace.local_plan_s": span("cspace.local_plan"),
        "knn.s": span("knn"),
        "knn.queries": span("knn", 2),
        "knn.distance_evals": distance_evals,
        "planners.engine_s": engine_s,
        "planners.engine_queries": span("planners.engine", 2),
        "planners.search_s": span("planners.search"),
        "service.cache_hit_ratio": after.cache.hit_rate,
        "service.cache_build_s": after.cache.build_time,
        "service.batches": batches,
        "service.mean_batch": served / batches if batches else 0.0,
        "service.queue_wait_ms": (
            statistics.mean(sojourn) * 1e3 - mean_solve_ms if sojourn else 0.0
        ),
        "service.rejected": after.rejected,
        # The engine's own code outside the NN, kernel, local-plan and
        # graph-search spans.
        "bench.unattributed_frac": (
            span("planners.engine", 3) / engine_s if engine_s else 0.0
        ),
        "bench.trace_overhead_frac": traced_p50 / plain_p50 - 1.0,
    }
    return metrics, [], info

