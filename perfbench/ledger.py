"""Per-layer span ledger, recorded from the benchmark's own files.

With tracing on, :class:`Ledger` wraps the public entry points of each
``repro`` layer (see :data:`SPANS`) in a timing shim and restores the
originals afterwards, so the untraced runs execute the program exactly as
shipped.  Each shim records a span: its layer name, its duration, and a
row count where the call has one.  Spans nest freely; a layer that is
re-entered (``super()`` calls, one backend delegating to another) is
timed only at its outermost entry.  The time covered by top-level spans
on the calling thread is what ``bench.unattributed_frac`` is measured
against.

Spans are kept in memory per thread.  Pool workers forked while tracing
is on inherit the shims; after every top-level span a worker writes its
cumulative totals to a spool file, which the parent folds in with
:meth:`Ledger.collect_workers` once the pool has drained.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

_LP = "repro.cspace.local_planner:StraightLinePlanner"

#: (import path, attribute, span name, row-count rule).  An attribute on a
#: class is wrapped on that class and on every subclass that overrides it.
#: Row rules (methods only): "one" = one row per call, "argN" = len() of
#: the N-th positional argument after ``self``.
SPANS = (
    ("repro.kernels.base:KernelBackend", "points_free", "kernels", "arg1"),
    ("repro.kernels.base:KernelBackend", "segments_free", "kernels", "arg1"),
    ("repro.kernels.base:KernelBackend", "pairwise_accumulate", "knn", None),
    ("repro.kernels.base:KernelBackend", "knn_block_min", "knn", None),
    ("repro.knn.base:NeighborFinder", "knn", "knn", "one"),
    ("repro.knn.base:NeighborFinder", "knn_batch", "knn", "arg0"),
    ("repro.knn.base:NeighborFinder", "knn_batch_arrays", "knn", "arg0"),
    ("repro.knn.base:NeighborFinder", "knn_block_growing", "knn", "arg0"),
    ("repro.geometry.environment:Environment", "ray_free_distance", "geometry.rays", None),
    ("repro.geometry.primitives:AABB", "sample", "cspace.sample", None),
    ("repro.cspace.space:ConfigurationSpace", "sample", "cspace.sample", None),
    ("repro.cspace.sampling:UniformSampler", "__call__", "cspace.sample", None),
    (_LP, "__call__", "cspace.local_plan", None),
    (_LP, "batch_pairs", "cspace.local_plan", None),
    (_LP, "batch_pairs_counted", "cspace.local_plan", None),
    (_LP, "batch_pairs_exact", "cspace.local_plan", None),
    (_LP, "batch_pairs_chunked", "cspace.local_plan", None),
    ("repro.planners.prm:PRM", "build", "planners.build", None),
    ("repro.planners.prm:PRM", "connect_roadmaps", "planners.connect", None),
    ("repro.planners.rrt:RRT", "grow", "planners.grow", None),
    ("repro.planners.roadmap:Roadmap", "merge", "planners.merge", None),
    ("repro.planners.engine:QueryEngine", "solve_many", "planners.engine", "arg0"),
    ("repro.planners.frozen:FrozenRoadmap", "dijkstra", "planners.search", None),
    ("repro.planners.frozen:FrozenRoadmap", "astar", "planners.search", None),
    ("repro.planners.frozen:FrozenRoadmap", "astar_virtual", "planners.search", None),
    ("repro.core.weights", "prm_sample_count_weights", "core.weigh", None),
    ("repro.core.weights", "rrt_k_rays_weights", "core.weigh", None),
    ("repro.core.repartition", "repartition", "core.repartition", None),
    ("repro.partition", "partition_by_name", "partition", None),
    ("repro.partition.naive", "partition_block", "partition", None),
    ("repro.partition.greedy", "partition_greedy_lpt", "partition", None),
    ("repro.partition.refine", "refine_partition", "partition", None),
    ("repro.subdivision.uniform:UniformSubdivision", "__init__", "subdivision", None),
    ("repro.subdivision.radial:RadialSubdivision", "__init__", "subdivision", None),
    ("repro.runtime.simulator:WorkStealingSimulator", "run", "runtime.sim", None),
    ("repro.runtime.simulator", "run_static_phase", "runtime.sim", None),
    ("repro.runtime.local_pool", "run_tasks_parallel", "runtime.pool", None),
    ("repro.runtime.shm", "publish_arrays", "runtime.shm_publish", None),
)


def _rows_of(rule, args):
    if rule is None:
        return 0
    if rule == "one":
        return 1
    arg = args[1 + int(rule[-1])]
    try:
        return len(arg)
    except TypeError:
        return 1


class _ThreadState:
    __slots__ = ("pid", "active", "children", "covered_ns", "totals")

    def __init__(self):
        self.pid = os.getpid()
        self.active: "set[str]" = set()
        #: per open span, the nanoseconds its child spans have covered.
        self.children: "list[int]" = []
        self.covered_ns = 0
        #: span name -> [nanoseconds, calls, rows, self nanoseconds]
        self.totals: "dict[str, list[int]]" = {}


class Ledger:
    """Installs the span shims and accumulates what they record."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: "list[_ThreadState]" = []
        self._worker_totals: "dict[str, list[int]]" = {}
        self._patches: "list[tuple[object, str, object]]" = []
        self._parent_pid = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- state ---------------------------------------------------------------
    def _after_fork(self) -> None:
        self._lock = threading.Lock()
        self._states = []
        self._worker_totals = {}

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None or st.pid != os.getpid():
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def reset(self) -> None:
        """Zero every accumulator (keeps the shims installed)."""
        with self._lock:
            for st in self._states:
                st.totals.clear()
                st.covered_ns = 0
            self._worker_totals = {}

    def covered_s(self) -> float:
        """Seconds covered by top-level spans on the calling thread."""
        return self._state().covered_ns / 1e9

    def totals(self) -> "dict[str, tuple[float, int, int, float]]":
        """span -> (seconds, calls, rows, self seconds), summed over threads
        and pool workers."""
        out: "dict[str, list[int]]" = {}
        with self._lock:
            sources = [st.totals for st in self._states] + [self._worker_totals]
            for src in sources:
                for name, acc in list(src.items()):
                    _add(out, name, acc)
        return {k: (v[0] / 1e9, v[1], v[2], v[3] / 1e9) for k, v in out.items()}

    # -- worker spool --------------------------------------------------------
    def _spool(self) -> None:
        merged: "dict[str, list[int]]" = {}
        for st in self._states:
            for name, acc in st.totals.items():
                _add(merged, name, acc)
        path = self.spool_dir / f"ledger-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(merged))
        os.replace(tmp, path)

    def collect_workers(self) -> None:
        """Fold the spool files of finished pool workers into the totals."""
        for path in sorted(self.spool_dir.glob("ledger-*.json")):
            data = json.loads(path.read_text())
            path.unlink()
            with self._lock:
                for name, acc in data.items():
                    _add(self._worker_totals, name, acc)

    # -- shims ---------------------------------------------------------------
    def _shim(self, fn, name: str, rule):
        ledger = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            st = ledger._state()
            if name in st.active:
                return fn(*args, **kwargs)
            st.active.add(name)
            st.children.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child_ns = st.children.pop()
                st.active.discard(name)
                acc = st.totals.get(name)
                if acc is None:
                    acc = st.totals[name] = [0, 0, 0, 0]
                acc[0] += dt
                acc[1] += 1
                acc[3] += dt - child_ns
                if rule is not None:
                    acc[2] += _rows_of(rule, args)
                if st.children:
                    st.children[-1] += dt
                else:
                    st.covered_ns += dt
                    if st.pid != ledger._parent_pid:
                        ledger._spool()

        return span

    def install(self) -> None:
        """Wrap every span target; module functions are replaced under every
        name they are bound to across the loaded ``repro`` modules."""
        if self._patches:
            raise RuntimeError("ledger shims already installed")
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        try:
            self._install_all()
        except BaseException:
            self.uninstall()
            raise

    def _install_all(self) -> None:
        for target, attr, name, rule in SPANS:
            mod_name, _, cls_name = target.partition(":")
            mod = importlib.import_module(mod_name)
            if cls_name:
                for cls in _with_subclasses(getattr(mod, cls_name)):
                    fn = cls.__dict__.get(attr)
                    if isinstance(fn, (staticmethod, classmethod)):
                        raise TypeError(f"cannot shim {cls.__name__}.{attr}")
                    if fn is not None:
                        self._patch(cls, attr, self._shim(fn, name, rule))
                continue
            fn = getattr(mod, attr)
            shim = self._shim(fn, name, rule)
            for owner in list(sys.modules.values()):
                if getattr(owner, "__name__", "").startswith("repro") and (
                    owner.__dict__.get(attr) is fn
                ):
                    self._patch(owner, attr, shim)

    def _patch(self, owner, attr: str, shim) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, shim)

    def uninstall(self) -> None:
        """Restore every original attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _add(into: "dict[str, list[int]]", name: str, acc: "list[int]") -> None:
    cur = into.setdefault(name, [0, 0, 0, 0])
    for i in range(4):
        cur[i] += acc[i]


def _with_subclasses(cls) -> "list[type]":
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in out:
            out.append(c)
            todo.extend(c.__subclasses__())
    return out
