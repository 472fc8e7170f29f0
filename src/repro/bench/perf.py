"""Benchmark-regression suite for the planner-construction hot paths.

Times the operations the PRM and RRT builds spend their lives in —
sequential-vs-batched roadmap construction, sequential-vs-batched RRT
growth (plain med-cube growth and the radial-subdivision workload on a
Fig. 10 environment), batched local planning, k-NN, amortised query
serving (single and batched, plus k-NN backend scaling), pool scaling,
BVH-vs-brute-force collision scaling on procedural warehouse scenes
(bit-exact verdict parity at 10^3-10^5 obstacles), and the incremental
kd-ladder NN backend (growing query-then-insert streams across tree
sizes, plus a full RRT build against the brute-force oracle with
bit-exact edge/parent parity) —
on fixed seeds, and writes the measurements to a JSON file
(``BENCH_perf.json`` by default) so regressions show up as diffs.

Every timed comparison also *verifies* that the fast path produces the
same operation counts as the reference path: the virtual-time model
depends on ``PlannerStats`` and ``CollisionCounters`` being identical, so
a speedup that changes the counts is a bug, not a win.

Each row is declared once, as a :class:`Row` in :data:`ROWS`: its
set-up, the baseline and candidate it times against each other, the
parity flags it writes, the fields it must carry and its medium-scale
:class:`Floor`.  :func:`run_suite`, :func:`validate` and the CLI summary
all read that table.

Usage::

    python -m repro.bench perf                     # medium scale -> BENCH_perf.json
    python -m repro.bench perf --scale smoke       # quick CI-sized run
    python -m repro.bench perf --output out.json
    python -m repro.bench perf --check out.json    # validate an existing file
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from types import SimpleNamespace
from typing import Any, Callable, Mapping

import numpy as np

from ..core.parallel_rrt import build_rrt_workload
from ..cspace.local_planner import StraightLinePlanner
from ..cspace.space import EuclideanCSpace
from ..geometry import environments
from ..kernels import get_backend
from ..knn.brute import BruteForceNN
from ..knn.incremental import IncrementalNN
from ..knn.kdtree import KDTreeNN
from ..planners.engine import QueryEngine
from ..planners.prm import PRM
from ..planners.query import RoadmapQuery
from ..planners.rrt import RRT
from ..runtime.local_pool import run_tasks_parallel

__all__ = ["run_suite", "main", "validate", "write_merged", "SCALES", "ROWS", "Row", "Floor"]

#: Benchmark sizes.  "medium" is the checked-in regression baseline;
#: "smoke" is CI-sized (seconds, not minutes).
SCALES = {
    "smoke": {
        "prm_samples": 400, "lp_pairs": 400, "knn_points": 1000, "pool_tasks": 16,
        "rrt_nodes": 300, "rrt_regions": 6, "rrt_nodes_per_region": 8, "repeats": 2,
        "query_vertices": 400, "query_count": 25,
        "knn_scale_points": 4000, "knn_scale_queries": 50,
        "kernel_points": 2000, "kernel_segments": 1000,
        "kernel_knn_stored": 1000, "kernel_knn_queries": 64,
        "kernel_lp_pairs": 300, "kernel_prm_samples": 250, "kernel_prm_queries": 20,
        "bvh_sizes": [300, 2000], "bvh_prm_obstacles": 500, "bvh_prm_samples": 150,
        "incnn_sizes": [500, 2000], "incnn_rrt_nodes": 300, "incnn_stream_points": 2000,
        "dispatch_tiny": 48, "dispatch_big": 2, "dispatch_big_s": 0.005,
        "shm_obstacles": 2000, "shm_regions": 8, "shm_samples": 3,
    },
    "medium": {
        "prm_samples": 2000, "lp_pairs": 4000, "knn_points": 4000, "pool_tasks": 64,
        "rrt_nodes": 2000, "rrt_regions": 16, "rrt_nodes_per_region": 20, "repeats": 5,
        "query_vertices": 2000, "query_count": 100,
        "knn_scale_points": 20000, "knn_scale_queries": 200,
        "kernel_points": 20000, "kernel_segments": 8000,
        "kernel_knn_stored": 4000, "kernel_knn_queries": 512,
        "kernel_lp_pairs": 3000, "kernel_prm_samples": 1200, "kernel_prm_queries": 60,
        "bvh_sizes": [1000, 10000, 100000], "bvh_prm_obstacles": 3000, "bvh_prm_samples": 500,
        "incnn_sizes": [2000, 8000, 20000], "incnn_rrt_nodes": 20000,
        "incnn_stream_points": 20000,
        "dispatch_tiny": 256, "dispatch_big": 4, "dispatch_big_s": 0.02,
        "shm_obstacles": 20000, "shm_regions": 16, "shm_samples": 3,
    },
}

_ENV_NAME = "med-cube"
#: Scene for the kernel microbenches — 125 obstacles, enough per-query
#: work for the blocked float32 layouts to show their advantage.
_KERNEL_ENV = "mixed-30"
#: Decision-boundary guard for the fast32 equivalence gates: a query is
#: *stable* when the reference verdict is unchanged after inflating or
#: shrinking every obstacle (and shrinking the free bounds) by this much.
_STABILITY_EPS = 1e-6
_SEED = 42

#: The timing triple every baseline-vs-candidate row records.
_TIMINGS = ("before_s", "after_s", "speedup")


# -- the row record ------------------------------------------------------------


@dataclass(frozen=True)
class Floor:
    """A medium-scale gate on one number of a row.

    The value at ``path`` must reach ``threshold`` (exceed it when
    ``strict``).  ``guard = (field, minimum)`` first requires the row to
    have been measured at the scale the threshold was set for.
    """

    path: "tuple[str, ...]"
    threshold: float
    strict: bool = False
    guard: "tuple[str, int] | None" = None


@dataclass(frozen=True)
class Row:
    """One ``perf`` row: how it is measured and what its JSON entry must
    carry.

    ``setup(params)`` — ``setup(params, size)`` for a sweep row, once per
    size in ``params[sweep]`` — builds the untimed context.
    ``baseline(ctx)`` and ``candidate(ctx)`` are timed best-of-N against
    each other; a row without a baseline times itself inside
    ``candidate``.  Each ``parity`` predicate ``(ref, fast, ctx)`` decides
    the flag it is keyed by, and a false flag raises.  ``describe(ctx,
    ref, fast)`` returns the row's other fields, plus an optional
    ``"meta"`` dict of run provenance.
    """

    name: str
    setup: Callable
    candidate: Callable
    baseline: "Callable | None" = None
    parity: "Mapping[str, Callable]" = field(default_factory=dict)
    describe: Callable = lambda ctx, ref, fast: {}
    #: constant fields of the row (scene names and the like).
    info: "Mapping[str, Any]" = field(default_factory=dict)
    #: constant run provenance merged into the row's ``meta``.
    meta: "Mapping[str, Any]" = field(default_factory=dict)
    #: required fields beyond the timings and the recorded flags.
    fields: "tuple[str, ...]" = ()
    #: fields that must be positive numbers (per size in a sweep row).
    timed: "tuple[str, ...]" = _TIMINGS
    floor: "Floor | None" = None
    #: ``SCALES`` key holding the sizes of a sweep row.
    sweep: "str | None" = None
    #: (the scale's repeats, sweep size or None) -> repeats for this row.
    repeats: Callable = lambda r, n: r
    #: alternate baseline and candidate runs instead of timing each side
    #: in one block.
    interleave: bool = False
    #: write the parity flags into the row (otherwise they only raise).
    record_parity: bool = True

    @property
    def flags(self) -> "tuple[str, ...]":
        """Parity flags the row's JSON entry carries."""
        return tuple(self.parity) if self.record_parity else ()

    @property
    def required(self) -> "tuple[str, ...]":
        """Fields whose absence from the JSON entry is a problem."""
        top = ("sizes", "rows") if self.sweep else self.timed
        return top + self.flags + self.fields


# -- measurement ---------------------------------------------------------------


def _best_of(repeats: int, fn) -> "tuple[float, object]":
    """Best wall time over ``repeats`` runs (minimum is the low-noise
    estimator for fixed-work benchmarks); returns (time, last result)."""
    best = np.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return float(best), out


def _time_pair(repeats: int, baseline, candidate, interleave: bool = False):
    """Best-of-``repeats`` wall times of both sides; returns
    ``(before_s, after_s, last baseline result, last candidate result)``.

    Interleaving the sides puts machine-state drift (CPU frequency, a
    forked parent's heap growing over a long suite run) on both sides of
    the ratio, and min-of-N recovers each side's fast-phase time."""
    order = [0, 1] * repeats if interleave else [0] * repeats + [1] * repeats
    best, last = [np.inf, np.inf], [None, None]
    for side in order:
        t, last[side] = _best_of(1, (baseline, candidate)[side])
        best[side] = min(best[side], t)
    return best[0], best[1], last[0], last[1]


def _measure(row: Row, params: dict, size: "int | None" = None) -> dict:
    """One measurement of ``row`` (at one sweep size); raises on a false
    parity flag."""
    ctx = row.setup(params) if size is None else row.setup(params, size)
    out: dict = {}
    if row.baseline is None:
        ref, fast = None, row.candidate(ctx)
    else:
        before_s, after_s, ref, fast = _time_pair(
            row.repeats(params["repeats"], size),
            partial(row.baseline, ctx), partial(row.candidate, ctx), row.interleave,
        )
        out.update(before_s=before_s, after_s=after_s, speedup=before_s / after_s)
    flags = {f: bool(pred(ref, fast, ctx)) for f, pred in row.parity.items()}
    failed = [f"{f}=false" for f, ok in flags.items() if not ok]
    if failed:
        at = "" if size is None else f" at n={size}"
        raise AssertionError(
            f"{row.name}{at}: candidate diverged from the baseline ({', '.join(failed)})"
        )
    if row.record_parity:
        out.update(flags)
    out.update(row.describe(ctx, ref, fast))
    return out


def _run_row(row: Row, params: dict) -> dict:
    """The JSON entry of ``row``, stamped with the runtime it ran under."""
    if row.sweep is None:
        out = _measure(row, params)
    else:
        sizes = list(params[row.sweep])
        rows = {str(n): _measure(row, params, n) for n in sizes}
        out = {"sizes": sizes, "rows": rows}
        out.update({f: all(r[f] for r in rows.values()) for f in row.flags})
    out["meta"] = {
        "kernel_backend": "reference", "numpy": np.__version__,
        **row.meta, **out.pop("meta", {}),
    }
    return {**row.info, **out}


# -- shared pieces of the rows -------------------------------------------------


def _cspace():
    return EuclideanCSpace(environments.by_name(_ENV_NAME))


def _counters(cs) -> "tuple[int, int]":
    return cs.env.counters.point_checks, cs.env.counters.segment_checks


def _weighted_edges(graph) -> list:
    return sorted((min(u, v), max(u, v), w) for u, v, w in graph.edges())


def _same(i: int) -> Callable:
    """Parity predicate: element ``i`` of both results is equal."""
    return lambda ref, fast, ctx: ref[i] == fast[i]


#: Parity of builds returning (stats, counters, edges).
_BUILD_PARITY = {"stats_equal": _same(0), "counters_equal": _same(1), "edges_equal": _same(2)}


def _dispatch_meta(d) -> dict:
    """Row meta of one pool run's dispatch accounting."""
    return {
        "chunk_policy": d.chunk_policy,
        "chunks_issued": d.chunks_issued,
        "bytes_shipped": d.context_bytes + d.task_bytes,
    }


def _capped(k: int) -> Callable:
    return lambda r, n: min(r, k)


# prm_build_default_path / rrt_build_default_path / rrt_radial_workload


def _prm_build(n: int, batched: bool):
    """Sequential or batched PRM build on the default path
    (``connect_same_component=True``)."""
    cs = _cspace()
    prm = PRM(cs, k=6, connect_same_component=True, batched=batched)
    res = prm.build(n, np.random.default_rng(_SEED))
    edges = sorted((min(u, v), max(u, v)) for u, v, _w in res.roadmap.edges())
    return asdict(res.stats), _counters(cs), edges


def _rrt_grow(n: int, batched: bool = True, nn_factory=None):
    """RRT growth on med-cube; returns (stats, counters, edges, parents)."""
    cs = _cspace()
    rrt = RRT(cs, step_size=0.6, goal_bias=0.05, batched=batched, nn_factory=nn_factory)
    res = rrt.grow(np.full(cs.dim, -9.0), n, np.random.default_rng(_SEED))
    return asdict(res.stats), _counters(cs), _weighted_edges(res.tree), dict(res.parents)


def _radial_workload(params: dict, batched: bool):
    """Radial-subdivision RRT workload build on mixed-30 (Alg. 2 branch
    growth plus connection); returns (branch stats, counters, edges)."""
    cs = EuclideanCSpace(environments.by_name("mixed-30"))
    wl = build_rrt_workload(
        cs, np.full(cs.dim, -9.0), params["rrt_regions"],
        nodes_per_region=params["rrt_nodes_per_region"], seed=_SEED, batched=batched,
    )
    branch = {rid: asdict(b.stats) for rid, b in wl.branch_work.items()}
    return branch, _counters(cs), _weighted_edges(wl.tree)


# batch_local_plan / knn


def _lp_setup(params: dict):
    cs = _cspace()
    rng = np.random.default_rng(_SEED)
    lo, hi = cs.bounds.lo, cs.bounds.hi
    starts = rng.uniform(lo, hi, size=(params["lp_pairs"], cs.dim))
    ends = np.clip(starts + rng.uniform(-1.0, 1.0, size=starts.shape), lo, hi)
    return SimpleNamespace(cs=cs, starts=starts, ends=ends, lp=StraightLinePlanner(resolution=0.25))


def _lp_loop(c):
    """Baseline: one local-planner call per pair."""
    results = [c.lp(c.cs, s, e) for s, e in zip(c.starts, c.ends)]
    return np.array([r.valid for r in results]), sum(r.checks for r in results)


def _lp_batch(c):
    """Vectorised: all pairs in one batch_pairs call."""
    ok, checks, _lengths = c.lp.batch_pairs(c.cs, c.starts, c.ends)
    return ok, checks


def _knn_setup(params: dict):
    n = params["knn_points"]
    pts = np.random.default_rng(_SEED).uniform(0.0, 10.0, size=(n, 3))
    return SimpleNamespace(pts=pts, ids=np.arange(n, dtype=np.int64), k=6)


def _knn_loop(c):
    """Baseline: one knn query per point, then insert it."""
    nn = BruteForceNN(3)
    out = []
    for i, p in enumerate(c.pts):
        out.append(nn.knn(p, c.k))
        nn.add(int(c.ids[i]), p)
    return out


def _knn_block(c):
    """Vectorised: blocked queries against the growing structure."""
    nn = BruteForceNN(3)
    out = []
    for lo in range(0, len(c.pts), 64):
        out.extend(nn.knn_block_growing(c.ids[lo : lo + 64], c.pts[lo : lo + 64], c.k))
    return out


# query_single / query_batch / query_batch_process_shm / knn_scaling


def _query_setup(params: dict):
    """A built roadmap plus a fixed batch of (start, goal) queries, shared
    by the query-serving rows."""
    cs = _cspace()
    rmap = PRM(cs, k=6).build(params["query_vertices"], np.random.default_rng(_SEED)).roadmap
    rng = np.random.default_rng(_SEED + 1)
    lo, hi = cs.bounds.lo, cs.bounds.hi
    queries = [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(params["query_count"])]
    return SimpleNamespace(cs=cs, rmap=rmap, queries=queries, n_vertices=params["query_vertices"])


def _query_results_equal(ref, fast) -> bool:
    """Exact comparison of two lists of ``QueryResult | None``."""
    if len(ref) != len(fast):
        return False
    for a, b in zip(ref, fast):
        if (a is None) != (b is None):
            return False
        if a is None:
            continue
        if a.path_vertices != b.path_vertices or a.length != b.length:
            return False
        if not np.array_equal(a.path_configs, b.path_configs):
            return False
    return True


def _solve_each(c):
    """Baseline: stateless per-query solve (rebuilds the NN index and
    mutates the roadmap per call)."""
    rq = RoadmapQuery(c.cs, k=8)
    return [rq.solve(c.rmap, s, g) for s, g in c.queries]


def _engine_each(c):
    """Amortised: one engine, per-query solve calls."""
    eng = QueryEngine(c.cs, c.rmap, k=8)
    return [eng.solve(s, g) for s, g in c.queries]


def _describe_queries(c, ref, fast) -> dict:
    return {
        "n_vertices": c.n_vertices,
        "n_queries": len(c.queries),
        "solved": sum(r is not None for r in ref),
    }


_PATHS_PARITY = {"paths_equal": lambda ref, fast, c: _query_results_equal(ref, fast)}


def _shm_query_setup(params: dict):
    c = _query_setup(params)
    c.engine = QueryEngine(c.cs, c.rmap, k=8)
    return c


def _solve_shm(c, plane: str):
    from ..spec import ExecutionPolicy

    ex = ExecutionPolicy(mode="local", backend="process", workers=2, data_plane=plane)
    return c.engine.solve_many(c.queries, execution=ex)


def _knn_scaling_setup(params: dict):
    n, q = params["knn_scale_points"], params["knn_scale_queries"]
    rng = np.random.default_rng(_SEED)
    pts = rng.uniform(0.0, 10.0, size=(n, 3))
    ids = np.arange(n, dtype=np.int64)
    queries = rng.uniform(0.0, 10.0, size=(q, 3))
    brute = BruteForceNN(3)
    brute.add_batch(ids, pts)
    t0 = time.perf_counter()
    kd = KDTreeNN(3)
    kd.add_batch(ids, pts)
    return SimpleNamespace(
        n=n, queries=queries, k=8, brute=brute, kd=kd, kd_build_s=time.perf_counter() - t0
    )


# pool_scaling / pool_dispatch_overhead / prm_build_process_shm


def _pool_task(task_id: int) -> float:
    """A deterministic CPU-bound unit of regional work (module level so the
    process backend can pickle it).  ``np.sin`` releases the GIL, so the
    thread backend can scale where cores are available."""
    rng = np.random.default_rng(task_id)
    a = rng.uniform(-1.0, 1.0, size=50_000)
    total = 0.0
    for _ in range(6):
        total += float(np.sin(a).sum())
        a = a * 1.0000001
    return total


def _pool_sweep(c):
    """Thread-pool wall time at 1, 2, and 4 workers on identical tasks;
    returns (times by worker count, the last pool result)."""
    times, pool = {}, None
    for workers in (1, 2, 4):
        times[str(workers)], pool = _best_of(
            c.repeats,
            lambda w=workers: run_tasks_parallel(_pool_task, c.tasks, workers=w, backend="thread"),
        )
    return times, pool


def _describe_pool_scaling(c, ref, fast) -> dict:
    times, pool = fast
    cpu_count = os.cpu_count()
    # A ~1.0 "speedup" on a single-core runner is noise, not a regression
    # signal — report null there so diffs against multi-core baselines
    # don't flag it.
    speedup = times["1"] / times["4"] if cpu_count is not None and cpu_count > 1 else None
    return {
        "n_tasks": len(c.tasks),
        "cpu_count": cpu_count,
        "wall_s_by_workers": times,
        "speedup_4w": speedup,
        "meta": _dispatch_meta(pool.dispatch),
    }


def _skew_task(big_ids: frozenset, big_s: float, tid: int) -> int:
    """A task stream with a heavy tail: most ids return immediately, the
    few in ``big_ids`` sleep (releasing the GIL, so thread workers overlap
    them).  Module level so the process backend could pickle it too."""
    if tid in big_ids:
        time.sleep(big_s)
    return tid * 3 + 1


def _dispatch_setup(params: dict):
    n_tiny, n_big, big_s = params["dispatch_tiny"], params["dispatch_big"], params["dispatch_big_s"]
    tasks = list(range(n_tiny + n_big))
    big_ids = frozenset(range(n_tiny, n_tiny + n_big))
    task = partial(_skew_task, big_ids, big_s)
    workers = 4
    return SimpleNamespace(
        tasks=tasks, n_big=n_big, big_s=big_s, task=task, workers=workers,
        repeats=params["repeats"],
        weights={tid: big_s if tid in big_ids else 1e-4 for tid in tasks},
        oracle=run_tasks_parallel(task, tasks, workers=workers, backend="thread"),
    )


def _dispatch_sweep(c) -> dict:
    """Best-of wall time and last pool result of every chunk policy."""
    sweep = [("fixed-1", 1, None), ("fixed-8", 8, None), ("fixed-32", 32, None),
             ("fixed-64", 64, None), ("guided", "guided", None),
             ("weighted", "weighted", c.weights)]
    return {
        label: _best_of(c.repeats, lambda cs=cs, tw=tw: run_tasks_parallel(
            c.task, c.tasks, workers=c.workers, backend="thread", chunksize=cs,
            task_weights=tw,
        ))
        for label, cs, tw in sweep
    }


def _describe_dispatch(c, ref, fast) -> dict:
    walls = {label: wall for label, (wall, _pool) in fast.items()}
    fixed = {k: v for k, v in walls.items() if k.startswith("fixed")}
    best_fixed = min(fixed, key=fixed.get)
    return {
        "n_tasks": len(c.tasks),
        "n_big": c.n_big,
        "big_task_s": c.big_s,
        "workers": c.workers,
        "cpu_count": os.cpu_count(),
        "wall_s_by_policy": walls,
        "best_fixed": best_fixed,
        "best_fixed_s": fixed[best_fixed],
        "guided_s": walls["guided"],
        "guided_vs_best_fixed": fixed[best_fixed] / walls["guided"],
        "meta": _dispatch_meta(fast["guided"][1].dispatch),
    }


def _shm_setup(params: dict):
    from ..geometry.scenarios import shelf_warehouse

    n_obs = params["shm_obstacles"]
    return SimpleNamespace(
        env=shelf_warehouse(n_obstacles=n_obs, seed=_SEED), n_obs=n_obs,
        regions=params["shm_regions"], samples=params["shm_samples"],
    )


def _plan_shm(c, plane: str):
    """One plan() over the shelf warehouse through the given data plane.

    The bvh backend keeps per-check compute near O(log n), so the row
    measures context transfer rather than collision arithmetic (both
    planes run the identical bit-exact backend)."""
    from ..api import plan
    from ..spec import ExecutionPolicy, WorkloadSpec

    wl = WorkloadSpec(
        environment=c.env, planner="prm", num_regions=c.regions,
        samples_per_region=c.samples, seed=_SEED,
    )
    ex = ExecutionPolicy(
        mode="local", backend="process", workers=2, data_plane=plane, kernel_backend="bvh",
    )
    return plan(wl, execution=ex)


def _describe_shm(c, ref, fast) -> dict:
    d = fast.dispatch
    return {
        "n_obstacles": c.n_obs,
        "n_regions": c.regions,
        "samples_per_region": c.samples,
        "pickle_context_bytes": ref.dispatch.context_bytes,
        "shm_context_bytes": d.context_bytes,
        "shm_segment_bytes": d.shm_bytes,
        "shm_attaches": d.shm_attaches,
        "meta": _dispatch_meta(d),
    }


# kernel_collision / kernel_knn / kernel_local_plan / prm_build_fast32


def _kernel_collision_setup(params: dict):
    env = environments.by_name(_KERNEL_ENV)
    data = env.kernel_data()
    ref = get_backend("reference")
    rng = np.random.default_rng(_SEED)
    lo, hi = env.bounds.lo, env.bounds.hi
    pts = rng.uniform(lo, hi, size=(params["kernel_points"], env.bounds.dim))
    p = rng.uniform(lo, hi, size=(params["kernel_segments"], env.bounds.dim))
    q = np.clip(p + rng.uniform(-2.0, 2.0, size=p.shape), lo, hi)
    plus, minus = data.inflated(_STABILITY_EPS), data.inflated(-_STABILITY_EPS)
    return SimpleNamespace(
        data=data, pts=pts, p=p, q=q,
        stable_p=ref.points_free(plus, pts) == ref.points_free(minus, pts),
        stable_s=ref.segments_free(plus, p, q) == ref.segments_free(minus, p, q),
    )


def _collide(c, backend: str):
    """One pass of both collision kernel entry points."""
    kernels = get_backend(backend)
    return kernels.points_free(c.data, c.pts), kernels.segments_free(c.data, c.p, c.q)


def _stable_verdicts_equal(ref, fast, c) -> bool:
    return np.array_equal(ref[0][c.stable_p], fast[0][c.stable_p]) and np.array_equal(
        ref[1][c.stable_s], fast[1][c.stable_s]
    )


def _kernel_knn_setup(params: dict):
    rng = np.random.default_rng(_SEED)
    stored = rng.uniform(0.0, 10.0, size=(params["kernel_knn_stored"], 3))
    queries = rng.uniform(0.0, 10.0, size=(params["kernel_knn_queries"], 3))
    k = 8
    # Rows whose reference k-th/(k+1)-th distance gap is clear of float32
    # rounding; a near-tie straddling the cut may pick the other twin.
    _ids, d1 = get_backend("reference").knn_block_min(stored, queries, k + 1)
    tiefree = d1[:, k] - d1[:, k - 1] > 1e-4 * np.maximum(d1[:, k], 1.0)
    return SimpleNamespace(stored=stored, queries=queries, k=k, tiefree=tiefree)


def _perturbed_env(env, margin: float):
    """The ``EnvKernelData.inflated`` perturbation as a full Environment:
    every obstacle grown by ``margin`` (shrunk when negative), free
    bounds shrunk by the same amount."""
    from ..geometry.primitives import AABB

    boxes = [AABB(o.lo - margin, o.hi + margin) for o in env.obstacles]
    bounds = AABB(env.bounds.lo + margin, env.bounds.hi - margin)
    return type(env)(bounds, boxes)


def _kernel_lp_setup(params: dict):
    env = environments.by_name(_KERNEL_ENV)
    cs = EuclideanCSpace(env)
    rng = np.random.default_rng(_SEED)
    lo, hi = cs.bounds.lo, cs.bounds.hi
    starts = rng.uniform(lo, hi, size=(params["kernel_lp_pairs"], cs.dim))
    ends = np.clip(starts + rng.uniform(-1.5, 1.5, size=starts.shape), lo, hi)
    lp = StraightLinePlanner(resolution=0.25)
    okp, _, _ = lp.batch_pairs(EuclideanCSpace(_perturbed_env(env, _STABILITY_EPS)), starts, ends)
    okm, _, _ = lp.batch_pairs(EuclideanCSpace(_perturbed_env(env, -_STABILITY_EPS)), starts, ends)
    return SimpleNamespace(
        cs=cs, starts=starts, ends=ends, lp=lp, stable=okp == okm,
        lp_fast=StraightLinePlanner(resolution=0.25, kernels="fast32"),
    )


def _fast32_prm_setup(params: dict):
    cs = EuclideanCSpace(environments.by_name(_KERNEL_ENV))
    rng = np.random.default_rng(_SEED + 1)
    lo, hi = cs.bounds.lo, cs.bounds.hi
    nq = params["kernel_prm_queries"]
    queries = [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(nq)]
    return SimpleNamespace(cs=cs, n=params["kernel_prm_samples"], queries=queries)


def _fast32_prm_build(c, backend: "str | None"):
    """One batched PRM build on mixed-30 under ``backend`` (None = the
    reference default)."""
    cs = EuclideanCSpace(environments.by_name(_KERNEL_ENV))
    if backend is not None:
        cs.set_kernel_backend(backend)
    return PRM(cs, k=6, batched=True).build(c.n, np.random.default_rng(_SEED)).roadmap


def _answers(c, rmap) -> list:
    """The frozen query batch answered by the *reference* engine."""
    return QueryEngine(c.cs, rmap, k=8).solve_many(c.queries).results


def _same_successes(ref, fast, c) -> bool:
    return all((a is None) == (b is None) for a, b in zip(_answers(c, ref), _answers(c, fast)))


def _lengths_close(ref, fast, c) -> bool:
    return all(
        (a is None and b is None)
        or (a is not None and b is not None
            and abs(a.length - b.length) <= 1e-4 * max(a.length, 1.0))
        for a, b in zip(_answers(c, ref), _answers(c, fast))
    )


# bvh_collision_scaling / prm_build_bvh


def _bvh_setup(params: dict, n: int):
    """A warehouse of ``n`` obstacles with its tree built (untimed).
    Query counts shrink as obstacle counts grow because the reference
    side materialises ``(n_queries, n_obstacles, dim)`` temporaries."""
    from ..geometry.scenarios import shelf_warehouse
    from ..kernels.bvh_backend import _box_tree

    n_pts = int(min(2000, max(400, 10_000_000 // n)))
    n_seg = int(min(1000, max(64, 4_000_000 // n)))
    env = shelf_warehouse(n, seed=_SEED)
    data = env.kernel_data()
    rng = np.random.default_rng(_SEED)
    lo, hi = env.bounds.lo, env.bounds.hi
    pts = rng.uniform(lo, hi, size=(n_pts, 3))
    p = rng.uniform(lo, hi, size=(n_seg, 3))
    q = np.clip(p + rng.uniform(-3.0, 3.0, size=p.shape), lo, hi)
    t0 = time.perf_counter()
    _box_tree(data)
    return SimpleNamespace(
        n=n, data=data, pts=pts, p=p, q=q, build_s=time.perf_counter() - t0
    )


def _bvh_prm_build(params: dict, backend: "str | None"):
    """One batched PRM build on a dense warehouse under ``backend``."""
    from ..geometry.scenarios import shelf_warehouse

    cs = EuclideanCSpace(shelf_warehouse(params["bvh_prm_obstacles"], seed=_SEED))
    if backend is not None:
        cs.set_kernel_backend(backend)
    res = PRM(cs, k=6, batched=True).build(params["bvh_prm_samples"], np.random.default_rng(_SEED))
    return asdict(res.stats), _counters(cs), _weighted_edges(res.roadmap)


# rrt_nn_scaling / rrt_build_incnn


def _nn_stream(factory, pts: np.ndarray):
    """The RRT inner-loop NN load with the planning stripped out: query
    each point's single nearest neighbour against the tree so far, then
    insert it — the exact query-then-insert interleaving ``RRT.grow``
    produces.  Returns (answers, final KnnStats)."""
    nn = factory(pts.shape[1])
    nn.add(0, pts[0])
    out = []
    for i in range(1, len(pts)):
        out.append(nn.knn(pts[i], 1))
        nn.add(i, pts[i])
    return out, nn.stats


def _stream_points(n: int) -> np.ndarray:
    return np.random.default_rng(_SEED).uniform(-10.0, 10.0, size=(n, 3))


def _describe_nn_sweep(pts, ref, fast) -> dict:
    return {
        "n_points": len(pts),
        "nn_distance_evals_before": int(ref[1].distance_evals),
        "nn_distance_evals_after": int(fast[1].distance_evals),
        "evals_saved": int(fast[1].evals_saved),
        "rebuilds": int(fast[1].rebuilds),
        "buffer_hits": int(fast[1].buffer_hits),
    }


#: PlannerStats fields that legitimately differ between NN backends: the
#: eval count is what the incremental ladder exists to shrink, and the
#: maintenance counters are zero everywhere but the ladder.
_NN_BACKEND_STATS = ("nn_distance_evals", "nn_rebuilds", "nn_buffer_hits", "nn_evals_saved")


def _stats_equal_core(ref, fast, c) -> bool:
    """Stats equal outside the backend-dependent NN fields."""
    core = [{k: v for k, v in s[0].items() if k not in _NN_BACKEND_STATS} for s in (ref, fast)]
    return core[0] == core[1]


def _describe_incnn(params, ref, fast) -> dict:
    """The NN phase in isolation — the growing query-then-insert stream
    alone, at n>=20k on medium, where the ``--check`` floor applies."""
    pts = _stream_points(params["incnn_stream_points"])
    before_s, after_s, sref, sfast = _time_pair(
        min(params["repeats"], 2),
        partial(_nn_stream, BruteForceNN, pts), partial(_nn_stream, IncrementalNN, pts),
    )
    if sref[0] != sfast[0]:
        raise AssertionError("rrt_build_incnn: incremental NN phase diverged from brute force")
    return {
        "n_nodes": params["incnn_rrt_nodes"],
        "nn_phase_points": len(pts),
        "nn_phase_before_s": before_s,
        "nn_phase_after_s": after_s,
        "nn_phase_speedup": before_s / after_s,
        "meta": {
            "nn_distance_evals_before": ref[0]["nn_distance_evals"],
            "nn_distance_evals_after": fast[0]["nn_distance_evals"],
            "nn_evals_saved": fast[0]["nn_evals_saved"],
            "nn_rebuilds": fast[0]["nn_rebuilds"],
            "nn_buffer_hits": fast[0]["nn_buffer_hits"],
        },
    }


# -- the table -------------------------------------------------------------------

#: Every row of the suite, in run order.
ROWS: "tuple[Row, ...]" = (
    # Sequential vs batched PRM build, operation-count parity field for field.
    Row(
        "prm_build_default_path",
        setup=lambda p: p["prm_samples"],
        baseline=lambda n: _prm_build(n, batched=False),
        candidate=lambda n: _prm_build(n, batched=True),
        parity=_BUILD_PARITY,
        describe=lambda n, ref, fast: {
            "n_samples": n, "lp_calls": ref[0]["lp_calls"], "lp_checks": ref[0]["lp_checks"],
        },
    ),
    # Sequential vs batched (predict-validate-replay) RRT growth: stats,
    # counters, exact edge weights and parent pointers.
    Row(
        "rrt_build_default_path",
        setup=lambda p: p["rrt_nodes"],
        baseline=lambda n: _rrt_grow(n, batched=False),
        candidate=lambda n: _rrt_grow(n, batched=True),
        parity={
            "stats_equal": _same(0), "counters_equal": _same(1),
            "edges_equal": lambda ref, fast, n: ref[2:] == fast[2:],
        },
        describe=lambda n, ref, fast: {
            "n_nodes": n, "nn_distance_evals": ref[0]["nn_distance_evals"],
            "lp_checks": ref[0]["lp_checks"],
        },
    ),
    # Sequential vs batched radial RRT workload on a Fig. 10 environment.
    Row(
        "rrt_radial_workload",
        setup=lambda p: p,
        baseline=lambda p: _radial_workload(p, batched=False),
        candidate=lambda p: _radial_workload(p, batched=True),
        parity=_BUILD_PARITY,
        info={"environment": "mixed-30"},
        describe=lambda p, ref, fast: {
            "n_regions": p["rrt_regions"], "nodes_per_region": p["rrt_nodes_per_region"],
        },
    ),
    # Per-pair local planner calls vs one batch_pairs invocation.
    Row(
        "batch_local_plan",
        setup=_lp_setup,
        baseline=_lp_loop,
        candidate=_lp_batch,
        parity={
            "verdicts_equal": lambda ref, fast, c: np.array_equal(ref[0], fast[0]),
            "checks_equal": lambda ref, fast, c: ref[1] == fast[1],
        },
        record_parity=False,
        describe=lambda c, ref, fast: {"n_pairs": len(c.starts), "checks": int(ref[1])},
    ),
    # Interleaved query/insert k-NN loop vs the growing-visibility block
    # query the batched build uses.
    Row(
        "knn",
        setup=_knn_setup,
        baseline=_knn_loop,
        candidate=_knn_block,
        parity={"neighbors_equal": lambda ref, fast, c: ref == fast},
        record_parity=False,
        describe=lambda c, ref, fast: {"n_points": len(c.pts), "k": c.k},
    ),
    # RoadmapQuery.solve per query vs QueryEngine.solve over a frozen
    # snapshot; answers path-exact.
    Row(
        "query_single",
        setup=_query_setup,
        baseline=_solve_each,
        candidate=_engine_each,
        parity=_PATHS_PARITY,
        describe=_describe_queries,
    ),
    # The per-query serving loop vs one QueryEngine.solve_many call.
    Row(
        "query_batch",
        setup=_query_setup,
        baseline=_solve_each,
        candidate=lambda c: QueryEngine(c.cs, c.rmap, k=8).solve_many(c.queries).results,
        parity=_PATHS_PARITY,
        describe=_describe_queries,
    ),
    # Brute-force vs kd-tree k-NN at serving scale, canonical tie-break
    # included.
    Row(
        "knn_scaling",
        setup=_knn_scaling_setup,
        baseline=lambda c: [c.brute.knn(p, c.k) for p in c.queries],
        candidate=lambda c: [c.kd.knn(p, c.k) for p in c.queries],
        parity={"neighbors_equal": lambda ref, fast, c: ref == fast},
        describe=lambda c, ref, fast: {
            "n_points": c.n, "n_queries": len(c.queries), "k": c.k, "kd_build_s": c.kd_build_s,
        },
    ),
    # Thread-pool wall time at 1, 2 and 4 workers.  On a single-core
    # machine the curve is flat; cpu_count is recorded to read it.
    Row(
        "pool_scaling",
        setup=lambda p: SimpleNamespace(tasks=list(range(p["pool_tasks"])), repeats=p["repeats"]),
        candidate=_pool_sweep,
        describe=_describe_pool_scaling,
        fields=("wall_s_by_workers", "speedup_4w", "cpu_count"),
        timed=(),
    ),
    # float64 reference vs float32 blocked collision kernels.  Statistical
    # gate: verdicts identical on every query whose reference verdict
    # survives a _STABILITY_EPS perturbation of all obstacle faces.
    Row(
        "kernel_collision",
        setup=_kernel_collision_setup,
        baseline=lambda c: _collide(c, "reference"),
        candidate=lambda c: _collide(c, "fast32"),
        parity={"verdicts_equal_stable": _stable_verdicts_equal},
        info={"environment": _KERNEL_ENV},
        meta={"kernel_backend": "fast32"},
        describe=lambda c, ref, fast: {
            "n_points": len(c.pts),
            "n_segments": len(c.p),
            "stable_fraction": float(
                (c.stable_p.sum() + c.stable_s.sum()) / (len(c.pts) + len(c.p))
            ),
        },
        floor=Floor(("speedup",), 1.8),
    ),
    # float64 reference vs float32 tiled knn_block_min: distances within
    # 1e-4 relative everywhere, ids identical on tie-free rows.
    Row(
        "kernel_knn",
        setup=_kernel_knn_setup,
        baseline=lambda c: get_backend("reference").knn_block_min(c.stored, c.queries, c.k),
        candidate=lambda c: get_backend("fast32").knn_block_min(c.stored, c.queries, c.k),
        parity={
            "dists_close": lambda ref, fast, c: np.allclose(ref[1], fast[1], rtol=1e-4, atol=1e-9),
            "ids_equal_tiefree": lambda ref, fast, c: np.array_equal(
                ref[0][c.tiefree], fast[0][c.tiefree]
            ),
        },
        meta={"kernel_backend": "fast32"},
        describe=lambda c, ref, fast: {
            "n_stored": len(c.stored), "n_queries": len(c.queries), "k": c.k,
            "tiefree_fraction": float(c.tiefree.mean()),
        },
        floor=Floor(("speedup",), 1.8),
    ),
    # batch_pairs under the reference backend vs a per-call fast32
    # override: check counts identical, verdicts equal on stable pairs.
    Row(
        "kernel_local_plan",
        setup=_kernel_lp_setup,
        baseline=lambda c: c.lp.batch_pairs(c.cs, c.starts, c.ends),
        candidate=lambda c: c.lp_fast.batch_pairs(c.cs, c.starts, c.ends),
        parity={
            "checks_equal": lambda ref, fast, c: ref[1] == fast[1]
            and np.array_equal(ref[2], fast[2]),
            "verdicts_equal_stable": lambda ref, fast, c: np.array_equal(
                ref[0][c.stable], fast[0][c.stable]
            ),
        },
        info={"environment": _KERNEL_ENV},
        meta={"kernel_backend": "fast32"},
        describe=lambda c, ref, fast: {
            "n_pairs": len(c.starts), "stable_fraction": float(c.stable.mean()),
        },
    ),
    # PRM build under reference vs fast32.  Behavioural gate: a frozen
    # query batch answered by the reference engine over each roadmap has
    # the same success set and path lengths within 1e-4 relative.
    Row(
        "prm_build_fast32",
        setup=_fast32_prm_setup,
        baseline=lambda c: _fast32_prm_build(c, None),
        candidate=lambda c: _fast32_prm_build(c, "fast32"),
        parity={"success_equal": _same_successes, "lengths_close": _lengths_close},
        info={"environment": _KERNEL_ENV},
        meta={"kernel_backend": "fast32"},
        describe=lambda c, ref, fast: {
            "n_samples": c.n, "n_queries": len(c.queries),
            "solved": sum(r is not None for r in _answers(c, ref)),
        },
    ),
    # Brute-force reference vs BVH-culled collision kernels on warehouse
    # scenes across obstacle counts; bit-exact, not statistical.
    Row(
        "bvh_collision_scaling",
        setup=_bvh_setup,
        baseline=lambda c: _collide(c, "reference"),
        candidate=lambda c: _collide(c, "bvh"),
        parity={"verdicts_equal": lambda ref, fast, c: np.array_equal(ref[0], fast[0])
                and np.array_equal(ref[1], fast[1])},
        sweep="bvh_sizes",
        repeats=lambda r, n: r if n <= 1000 else min(r, 2),
        timed=_TIMINGS + ("build_s",),
        info={"scenario": "warehouse"},
        meta={"kernel_backend": "bvh"},
        describe=lambda c, ref, fast: {
            "n_obstacles": c.n, "n_points": len(c.pts), "n_segments": len(c.p),
            "build_s": c.build_s,
        },
        # A tree that can't beat the brute-force scan 5x at 10^4
        # primitives isn't pulling its weight.
        floor=Floor(("rows", "10000", "speedup"), 5.0),
    ),
    # PRM build on a dense warehouse under reference vs bvh: the full
    # exact-parity surface, because the bvh backend is bit-exact.
    Row(
        "prm_build_bvh",
        setup=lambda p: p,
        baseline=lambda p: _bvh_prm_build(p, None),
        candidate=lambda p: _bvh_prm_build(p, "bvh"),
        parity=_BUILD_PARITY,
        repeats=_capped(2),
        meta={"kernel_backend": "bvh"},
        describe=lambda p, ref, fast: {
            "environment": f"warehouse-{p['bvh_prm_obstacles']}",
            "n_obstacles": p["bvh_prm_obstacles"], "n_samples": p["bvh_prm_samples"],
        },
    ),
    # Growing-tree NN streams: brute-force scan vs the incremental
    # kd-ladder across tree sizes; the neighbour streams must be
    # identical element for element, and each size records the
    # distance-eval ledger the work model charges.
    Row(
        "rrt_nn_scaling",
        setup=lambda p, n: _stream_points(n),
        baseline=partial(_nn_stream, BruteForceNN),
        candidate=partial(_nn_stream, IncrementalNN),
        parity={"neighbors_equal": lambda ref, fast, pts: ref[0] == fast[0]},
        sweep="incnn_sizes",
        repeats=lambda r, n: r if n < 20000 else min(r, 2),
        meta={"nn_backend": "incremental"},
        describe=_describe_nn_sweep,
        # An insertion-friendly index that can't halve the brute scan's
        # wall time at 20k nodes isn't earning its rebuild machinery.
        floor=Floor(("rows", "20000", "speedup"), 2.0),
    ),
    # Batched RRT growth with the brute-force NN oracle vs the incremental
    # ladder: every PlannerStats field outside the NN-backend group must
    # be identical.  Full-build wall time is roughly backend-neutral in
    # pure python; the NN phase alone carries the floor.
    Row(
        "rrt_build_incnn",
        setup=lambda p: p,
        baseline=lambda p: _rrt_grow(p["incnn_rrt_nodes"], nn_factory=BruteForceNN),
        candidate=lambda p: _rrt_grow(p["incnn_rrt_nodes"], nn_factory=IncrementalNN),
        parity={
            "edges_equal": _same(2), "parents_equal": _same(3),
            "counters_equal": _same(1), "stats_equal_core": _stats_equal_core,
        },
        repeats=_capped(2),
        meta={"nn_backend": "incremental"},
        describe=_describe_incnn,
        fields=("nn_phase_speedup",),
        floor=Floor(("nn_phase_speedup",), 2.0, guard=("nn_phase_points", 20000)),
    ),
    # Chunk policies on a skewed tiny-task workload: fixed chunking either
    # clumps the heavy tail onto one worker or pays one submission per
    # tiny task; "guided" decays from large chunks to singletons and must
    # beat the best fixed setting.  Every policy's results equal the
    # chunksize=1 oracle.
    Row(
        "pool_dispatch_overhead",
        setup=_dispatch_setup,
        candidate=_dispatch_sweep,
        parity={"results_equal": lambda ref, fast, c: all(
            pool.results == c.oracle.results for _wall, pool in fast.values()
        )},
        describe=_describe_dispatch,
        fields=("wall_s_by_policy", "best_fixed_s", "guided_s", "guided_vs_best_fixed"),
        timed=(),
        floor=Floor(("guided_vs_best_fixed",), 1.0, strict=True),
    ),
    # Pickled vs shared-memory data plane for process-backend planning on
    # a shelf warehouse: "pickle" ships the whole planning closure to the
    # workers, "shm" maps the obstacle arrays zero-copy.  Merged edges,
    # stats and counters bit-identical.
    Row(
        "prm_build_process_shm",
        setup=_shm_setup,
        baseline=lambda c: _plan_shm(c, "pickle"),
        candidate=lambda c: _plan_shm(c, "shm"),
        parity={
            "edges_equal": lambda ref, fast, c: sorted(ref.roadmap.edges())
            == sorted(fast.roadmap.edges()),
            "stats_equal": lambda ref, fast, c: ref.planner_stats == fast.planner_stats,
            "counters_equal": lambda ref, fast, c: ref.local_counters == fast.local_counters,
        },
        repeats=_capped(5),
        interleave=True,
        info={"environment": "shelf-warehouse"},
        describe=_describe_shm,
        fields=("n_obstacles",),
        # If mapping the scene zero-copy can't beat re-pickling it to
        # every worker by 1.5x, the plane isn't paying for its machinery.
        floor=Floor(("speedup",), 1.5, guard=("n_obstacles", 10_000)),
    ),
    # Process-worker query serving through the shared-memory frozen
    # roadmap vs the pickled closure; answers path-exact, no floor.
    Row(
        "query_batch_process_shm",
        setup=_shm_query_setup,
        baseline=lambda c: _solve_shm(c, "pickle"),
        candidate=lambda c: _solve_shm(c, "shm"),
        parity={"paths_equal": lambda ref, fast, c: _query_results_equal(
            ref.results, fast.results
        )},
        repeats=_capped(3),
        describe=lambda c, ref, fast: {
            "n_vertices": c.n_vertices, "n_queries": len(c.queries),
            "shm_segment_bytes": fast.dispatch.shm_bytes,
            "shm_attaches": fast.dispatch.shm_attaches,
            "meta": _dispatch_meta(fast.dispatch),
        },
    ),
)


def run_suite(scale: str = "medium") -> dict:
    """Run every row at ``scale`` and return the result payload."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {sorted(SCALES)}, got {scale!r}")
    params = SCALES[scale]
    benchmarks = {}
    for row in ROWS:
        t0 = time.perf_counter()
        benchmarks[row.name] = _run_row(row, params)
        print(f"[perf] {row.name}: {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return {
        "suite": "repro-perf",
        "scale": scale,
        "environment": _ENV_NAME,
        "seed": _SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "benchmarks": benchmarks,
    }


# -- validation --------------------------------------------------------------------


def _positive(value) -> bool:
    return isinstance(value, (int, float)) and value > 0


def _at(entry, path: "tuple[str, ...]"):
    """The value at ``path`` in a nested row dict, or None."""
    for key in path:
        entry = entry.get(key) if isinstance(entry, dict) else None
    return entry


def _entry_problems(label: str, entry: dict, required, timed, flags) -> "list[str]":
    """Missing fields, non-positive timings and false flags of one entry."""
    problems = [f"{label} missing field {f!r}" for f in required if f not in entry]
    problems += [
        f"{label} field {f!r} is not a positive number"
        for f in timed if f in entry and not _positive(entry[f])
    ]
    problems += [f"{label} reports {f}=false" for f in flags if entry.get(f) is False]
    return problems


def _floor_problem(row: Row, entry: dict) -> "str | None":
    """The medium-scale floor violation of ``entry``, if any."""
    floor = row.floor
    value = _at(entry, floor.path)
    where = ".".join(floor.path)
    if not isinstance(value, (int, float)):
        return f"{row.name} is missing {where}"
    if floor.guard is not None:
        key, minimum = floor.guard
        scale = entry.get(key)
        if not (isinstance(scale, int) and scale >= minimum):
            return f"{row.name} {key}={scale} is below the {minimum} floor scale"
    if value < floor.threshold or (floor.strict and value == floor.threshold):
        cmp = ">" if floor.strict else ">="
        return f"{row.name} {where} is {value:.2f}, the floor is {cmp}{floor.threshold}"
    return None


def validate(payload: object) -> "list[str]":
    """Structural validation of a suite result; returns a list of problems
    (empty when well-formed)."""
    problems = []
    if not isinstance(payload, dict):
        return ["top level is not a JSON object"]
    if payload.get("suite") != "repro-perf":
        problems.append("missing or wrong 'suite' marker")
    if payload.get("scale") not in SCALES:
        problems.append(f"unknown scale {payload.get('scale')!r}")
    benches = payload.get("benchmarks")
    if not isinstance(benches, dict):
        return problems + ["'benchmarks' missing or not an object"]
    for row in ROWS:
        entry = benches.get(row.name)
        if not isinstance(entry, dict):
            problems.append(f"benchmark {row.name!r} missing")
            continue
        timed = () if row.sweep else row.timed
        problems += _entry_problems(row.name, entry, row.required, timed, row.flags)
        meta = entry.get("meta")
        if not isinstance(meta, dict) or not {"kernel_backend", "numpy"} <= set(meta):
            problems.append(f"{row.name} missing runtime meta (kernel_backend/numpy)")
        sizes = entry.get("rows") if row.sweep else None
        for size, sub in (sizes.items() if isinstance(sizes, dict) else ()):
            label = f"{row.name} row {size!r}"
            if not isinstance(sub, dict):
                problems.append(f"{label} is not an object")
                continue
            problems += _entry_problems(label, sub, row.timed, row.timed, row.flags)
        if row.floor is not None and payload.get("scale") == "medium":
            problem = _floor_problem(row, entry)
            if problem is not None:
                problems.append(problem)
    # Serve rows are optional extras merged in by `python -m repro.bench
    # serve`; when present they must be well-formed and parity-clean.
    from .serve import validate_serve_rows

    problems.extend(validate_serve_rows(benches))
    return problems


# -- output ------------------------------------------------------------------------


def write_merged(path: str, scale: str, rows: dict, header: dict) -> None:
    """Write ``rows`` and the ``header`` fields into the payload at
    ``path``, keeping every row already there that ``rows`` does not
    replace, so ``perf`` and ``serve`` share one file.  A missing or
    malformed file starts a fresh payload at ``scale``."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or not isinstance(payload.get("benchmarks"), dict):
            raise ValueError("not a perf payload")
    except (OSError, json.JSONDecodeError, ValueError):
        payload = {"suite": "repro-perf", "scale": scale, "benchmarks": {}}
    payload.update(header)
    payload["benchmarks"].update(rows)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _headline(row: Row, entry: dict) -> "str | None":
    """The number the CLI summary shows for a row: every sweep size's
    speedup, the floored value, or the speedup."""
    if row.sweep:
        return ", ".join(f"{n}: {r['speedup']:.1f}x" for n, r in entry["rows"].items())
    value = _at(entry, row.floor.path if row.floor else ("speedup",))
    return None if value is None else f"{value:.2f}x"


def main(argv: "list[str]") -> int:
    """CLI entry point: run the suite or ``--check`` an existing file.

    Results are **merged** into ``--output``, so the ``serve`` rows of a
    shared ``BENCH_perf.json`` survive a perf run.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench perf", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--scale", choices=sorted(SCALES), default="medium")
    parser.add_argument("--output", default="BENCH_perf.json")
    parser.add_argument(
        "--check",
        metavar="FILE",
        help="validate an existing result file instead of running benchmarks",
    )
    args = parser.parse_args(argv)

    if args.check:
        try:
            with open(args.check) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"perf check: cannot read {args.check}: {exc}", file=sys.stderr)
            return 2
        problems = validate(payload)
        if problems:
            for p in problems:
                print(f"perf check: {p}", file=sys.stderr)
            return 1
        print(f"perf check: {args.check} OK")
        return 0

    payload = run_suite(args.scale)
    benches = payload.pop("benchmarks")
    write_merged(args.output, args.scale, benches, payload)
    headlines = ((row.name, _headline(row, benches[row.name])) for row in ROWS)
    print(
        f"wrote {args.output} ({args.scale}): "
        + "; ".join(f"{name} {h}" for name, h in headlines if h is not None)
        + "; parity identical"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
