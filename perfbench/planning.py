"""The three planning workloads: ``repro.plan()`` on the paper's cases.

One timed unit is one ``plan()`` call on an input generated from the
run's seed.  The run's inputs are planned round-robin for its measuring
time, and every repetition of an input must reproduce the first one's
roadmap digest and operation counts.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

from checks import revalidate, roadmap_digest


@dataclass(frozen=True)
class PlanCase:
    """One planning workload: what to plan, how to run it, how to check it."""

    planner: str
    #: catalog environment name, or "shelf-warehouse" (generated from the seed).
    environment: str
    num_regions: int
    per_region: int
    execution: dict
    #: options passed to the workload builder (simulate mode only).
    options: dict = field(default_factory=dict)
    #: local-planner resolution the planner validated edges with.
    lp_resolution: float = 0.25
    #: points (vertices + edge interpolation points) the reference
    #: re-check may spend; None re-checks everything.
    point_budget: "int | None" = None
    #: regions of the small plan() run during set-up to finish lazy set-up.
    warmup_regions: int = 16
    #: distinct inputs (plan seeds) per run, planned round-robin.
    instances: int = 1


CASES = {
    "prm-medcube": PlanCase(
        planner="prm",
        environment="med-cube",
        num_regions=512,
        per_region=8,
        execution={"strategy": "hybrid", "num_pes": 192},
        # The builder's default, stated so the requested sample count is
        # known: boundary regions receive 3x the base budget on top.
        options={"narrow_passage_boost": 3.0},
        lp_resolution=0.1,
    ),
    "rrt-mixed30": PlanCase(
        planner="rrt",
        environment="mixed-30",
        num_regions=64,
        per_region=20,
        execution={"strategy": "repartition", "num_pes": 24},
        lp_resolution=0.5,
        # The root, and with it how much of each cone is blocked, depends
        # on the seed; six roots per run average that out.
        instances=6,
    ),
    "prm-warehouse-pool": PlanCase(
        planner="prm",
        environment="shelf-warehouse",
        num_regions=512,
        per_region=8,
        execution={
            "mode": "local",
            "backend": "process",
            "workers": 2,
            "kernel_backend": "bvh",
            "data_plane": "auto",
        },
        lp_resolution=0.25,
        point_budget=2_000,
    ),
}

WAREHOUSE_OBSTACLES = 20_000


class PlanRun:
    """Set-up, timed repetitions and checks of one planning workload."""

    #: set-ups per run; setup_s is their median.
    setup_reps = 5

    def __init__(self, case: PlanCase, seed: int):
        self.case = case
        self.seed = seed

    def close(self) -> None:
        """Nothing outlives a plan() call."""

    # -- set-up --------------------------------------------------------------
    def instance_seeds(self) -> "list[int]":
        """The plan seeds of this run's inputs, derived from the run seed."""
        k = self.case.instances
        return [self.seed * k + j for j in range(k)]

    def _request(self, env, num_regions: int, seed: int):
        from repro import ExecutionPolicy, PlanRequest, WorkloadSpec

        c = self.case
        per = (
            {"samples_per_region": c.per_region}
            if c.planner == "prm"
            else {"nodes_per_region": c.per_region}
        )
        return PlanRequest(
            workload=WorkloadSpec(
                environment=env,
                planner=c.planner,
                num_regions=num_regions,
                seed=seed,
                options=dict(c.options),
                **per,
            ),
            execution=ExecutionPolicy(**c.execution),
        )

    def setup(self) -> None:
        """Generate the inputs and finish lazy set-up with a small plan()."""
        from repro import plan

        if self.case.environment == "shelf-warehouse":
            from repro.geometry.scenarios import shelf_warehouse

            env = shelf_warehouse(n_obstacles=WAREHOUSE_OBSTACLES, seed=self.seed)
        else:
            env = self.case.environment
        plan(self._request(env, self.case.warmup_regions, self.seed))
        self.requests = [
            self._request(env, self.case.num_regions, s) for s in self.instance_seeds()
        ]

    # -- one repetition --------------------------------------------------------
    @staticmethod
    def plan_once(request):
        """One timed ``plan()`` call; returns (seconds, report)."""
        from repro import plan

        gc.collect()
        t0 = time.perf_counter()
        report = plan(request)
        return time.perf_counter() - t0, report

    def requested_vertices(self, report) -> int:
        """Vertices the request asked for (RRT: excluding each branch's
        copy of the root)."""
        c = self.case
        if c.planner == "rrt" or report.workload is None:  # local: no refinement
            return c.num_regions * c.per_region
        boost = int(round(c.options.get("narrow_passage_boost", 0.0) * c.per_region))
        sub = report.workload.subdivision
        env = report.workload.cspace.env
        boundary = sum(
            env.box_obstacle_relation(sub.region_of(rid).bounds) == "boundary"
            for rid in sub.graph.region_ids()
        )
        return c.num_regions * c.per_region + boost * boundary

    def outcome(self, report) -> dict:
        """The deterministic outputs of one repetition."""
        c = self.case
        delivered = report.roadmap.num_vertices
        if c.planner == "rrt":
            delivered -= c.num_regions
        return {
            "digest": roadmap_digest(report.roadmap),
            "vertices": report.roadmap.num_vertices,
            "delivered": delivered,
            "stats": tuple(sorted(vars(report.planner_stats).items())),
            "counters": self.counters(report),
            "sim_efficiency": report.sim.efficiency() if report.sim is not None else None,
            "abandoned": len(report.abandoned_regions),
        }

    @staticmethod
    def counters(report) -> "tuple[int, int]":
        """(point_checks, segment_checks) of the plan, either mode."""
        if report.local_counters is not None:
            return tuple(report.local_counters)
        cnt = report.workload.cspace.env.counters
        return cnt.point_checks, cnt.segment_checks

    # -- the run ----------------------------------------------------------------
    def measure(self, seconds: float, ledger=None) -> dict:
        """Plan the run's inputs round-robin for ``seconds``.  Every input is
        planned at least twice; with a ledger, each untraced call is
        followed by a traced call of the same input."""
        kinds = (False,) if ledger is None else (False, True)
        order = [(j, traced) for j in range(len(self.requests)) for traced in kinds]
        min_calls = len(order) * (2 if ledger is None else 1)
        calls: "list[dict]" = []
        last_reports: "dict[int, object]" = {}
        deadline = time.perf_counter() + seconds
        while len(calls) < min_calls or time.perf_counter() < deadline:
            j, traced = order[len(calls) % len(order)]
            call = {"instance": j, "traced": traced}
            if traced:
                ledger.reset()
                ledger.install()
                try:
                    dt, report = self.plan_once(self.requests[j])
                finally:
                    ledger.uninstall()
                ledger.collect_workers()
                call["layers"] = self.layer_metrics(report, dt, ledger)
            else:
                dt, report = self.plan_once(self.requests[j])
            call["time"] = dt
            call["outcome"] = self.outcome(report)
            calls.append(call)
            last_reports[j] = report
            del report
        return {"calls": calls, "last_reports": last_reports}

    # -- per-layer numbers of one traced repetition ----------------------------
    def layer_metrics(self, report, wall: float, ledger) -> dict:
        tot = ledger.totals()

        def span(name, i=0):
            return tot.get(name, (0.0, 0, 0, 0.0))[i]

        st = report.planner_stats
        pc, sc = self.counters(report)
        m = {
            "kernels.s": span("kernels"),
            "kernels.calls": span("kernels", 1),
            "kernels.rows": span("kernels", 2),
            "geometry.point_checks": pc,
            "geometry.segment_checks": sc,
            "geometry.rays_s": span("geometry.rays"),
            "cspace.sample_s": span("cspace.sample"),
            "cspace.sample_attempts": st.sample_attempts,
            "cspace.accept_ratio": _ratio(st.samples_accepted, st.sample_attempts),
            "cspace.local_plan_s": span("cspace.local_plan"),
            "cspace.lp_checks": st.lp_checks,
            "cspace.lp_success_ratio": _ratio(st.lp_successes, st.lp_calls),
            "knn.s": span("knn"),
            "knn.queries": span("knn", 2),
            "knn.distance_evals": st.nn_distance_evals,
            "planners.build_s": span("planners.build"),
            "planners.grow_s": span("planners.grow"),
            "planners.connect_s": span("planners.connect"),
            "planners.merge_s": span("planners.merge"),
            "planners.edges_added": st.edges_added,
            "core.weigh_s": span("core.weigh"),
            "core.repartition_s": span("core.repartition"),
            "partition.s": span("partition"),
            "subdivision.s": span("subdivision"),
            "runtime.sim_s": span("runtime.sim"),
            "runtime.pool_s": span("runtime.pool"),
            "runtime.shm_publish_s": span("runtime.shm_publish"),
            "bench.unattributed_frac": max(0.0, 1.0 - ledger.covered_s() / wall),
        }
        sim = report.sim
        if sim is not None:
            sent = sum(p.steal_requests_sent for p in sim.pe_stats)
            served = sum(p.steals_serviced for p in sim.pe_stats)
            work = sim.work_times()
            m["runtime.sim_messages"] = sim.total_messages
            m["runtime.steal_success_ratio"] = _ratio(served, sent)
            m["runtime.load_cov"] = float(work.std() / work.mean()) if work.mean() else 0.0
        pool = report.pool
        if pool is not None:
            busy = float(sum(pool.per_task_time.values()))
            d = pool.dispatch
            m["runtime.pool_busy_s"] = busy
            m["runtime.pool_idle_s"] = max(0.0, pool.workers * pool.wall_time - busy)
            m["runtime.chunks"] = d.chunks_issued
            m["runtime.serde_s"] = d.serde_s
            m["runtime.bytes_shipped"] = d.context_bytes + d.task_bytes
            m["runtime.shm_attach_s"] = d.shm_attach_s
        return m


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def summarize(run: PlanRun, result: dict, trace: bool) -> "tuple[dict, list[str], dict]":
    """(metrics, problems, facts to print) of a finished planning run."""
    case = run.case
    calls = result["calls"]
    first = {}
    problems = set()
    for call in calls:
        out = call["outcome"]
        ref = first.setdefault(call["instance"], out)
        for key in ("digest", "stats", "counters", "sim_efficiency", "delivered"):
            if out[key] != ref[key]:
                kind = "traced repetition" if call["traced"] else "repetition"
                problems.add(f"{kind} of input {call['instance']} differs in {key}")
    failed = sum(
        1 for c in calls
        if c["outcome"]["abandoned"] or c["outcome"]["digest"] != first[c["instance"]]["digest"]
    )
    requested = sum(run.requested_vertices(r) for r in result["last_reports"].values())
    delivered = sum(out["delivered"] for out in first.values())
    plain = [c for c in calls if not c["traced"]]
    times = [c["time"] for c in plain]
    plan_s = statistics.median(times)
    effs = [out["sim_efficiency"] for out in first.values()]
    info = {
        "plan_s": plan_s,
        "plan_times": [round(t, 4) for t in times],
        "inputs": run.instance_seeds(),
        "digests": [first[j]["digest"][:16] for j in sorted(first)],
        "sim_efficiency": statistics.mean(effs) if None not in effs else None,
        "work_delivered": delivered / requested,
        "delivered": delivered,
        "requested": requested,
        "failed_frac": sum(out["abandoned"] for out in first.values())
        / (case.num_regions * len(first)),
        "attempted": len(calls),
        "failed": failed,
    }
    metrics = {
        "p50_ms": plan_s * 1e3,
        # A run makes about 20 plan() calls or fewer: no percentile above
        # the median has ten samples beyond it, so the tail is the median.
        "tail_ms": plan_s * 1e3,
        # Vertices of one pass over the run's inputs per second of plan().
        "throughput_per_s": delivered / sum(
            statistics.median(c["time"] for c in plain if c["instance"] == j)
            for j in first
        ),
        "delivered_frac": delivered / requested,
    }
    if trace:
        reps = [c["layers"] for c in calls if c["traced"]]
        metrics = {k: statistics.mean(r[k] for r in reps) for k in reps[0]}
        traced_s = statistics.median(c["time"] for c in calls if c["traced"])
        metrics["bench.trace_overhead_frac"] = traced_s / plan_s - 1.0
        info["traced_plan_s"] = traced_s
    return metrics, sorted(problems), info


def check_outputs(run: PlanRun, result: dict) -> "list[str]":
    """Reference re-validation of each input's last roadmap."""
    problems = []
    for j, report in sorted(result["last_reports"].items()):
        cspace = report.request.resolve_cspace()
        problems += [
            f"input {j}: {p}"
            for p in revalidate(
                cspace, report.roadmap, run.case.lp_resolution, run.case.point_budget,
                run.seed,
            )
        ]
    return problems
