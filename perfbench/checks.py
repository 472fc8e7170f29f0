"""Output checks, run outside the timed region.

* :func:`roadmap_digest` — a content hash of a roadmap (vertex ids and
  configurations, edges and weights), compared across repetitions of one
  seed and between traced and untraced runs.
* :func:`revalidate` — every vertex, and the edges within a point budget,
  re-checked collision-free under the ``reference`` kernel backend at the
  resolution the planner validated them with.
* :func:`same_answers` — served answers against ``RoadmapQuery.solve``.
"""

from __future__ import annotations

import hashlib

import numpy as np


def roadmap_digest(roadmap) -> str:
    """sha256 over id-sorted vertices and lexicographically sorted edges."""
    ids, cfgs = roadmap.configs_array()
    order = np.argsort(ids, kind="stable")
    edges = list(roadmap.edges())
    uv = np.array([(u, v) for u, v, _w in edges], dtype=np.int64).reshape(-1, 2)
    w = np.array([w for _u, _v, w in edges], dtype=np.float64)
    eorder = np.lexsort((uv[:, 1], uv[:, 0])) if len(edges) else np.empty(0, int)
    h = hashlib.sha256()
    for arr in (ids[order], cfgs[order], uv[eorder], w[eorder]):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def revalidate(
    cspace, roadmap, resolution: float, point_budget: "int | None", seed: int
) -> "list[str]":
    """Problems found re-checking ``roadmap`` under the reference backend.

    Edges are re-checked at the planner's own resolution with the
    bit-exact batched straight-line planner.  When ``point_budget`` is
    set, seeded samples of vertices and of edges, each worth half the
    budget in checked points, are re-checked instead of all of them (on a
    20k-obstacle scene the reference backend's brute-force test is too
    slow for every point).
    """
    from repro.cspace.local_planner import StraightLinePlanner

    problems = []
    # The reference backend tests every point against every obstacle at
    # once; chunk the points so that stays a few tens of MB.
    chunk = max(64, 2_000_000 // max(1, cspace.env.num_obstacles))
    rng = np.random.default_rng(seed)
    ids, cfgs = roadmap.configs_array()
    sample = cfgs
    if point_budget is not None and len(cfgs) > point_budget // 2:
        sample = cfgs[rng.choice(len(cfgs), size=point_budget // 2, replace=False)]
    bad = sum(
        int(np.count_nonzero(~cspace.valid(sample[i : i + chunk], kernels="reference")))
        for i in range(0, len(sample), chunk)
    )
    if bad:
        problems.append(f"{bad} roadmap vertices in collision under reference")
    edges = np.array([(u, v) for u, v, _w in roadmap.edges()], dtype=np.int64)
    if edges.size == 0:
        return problems
    order = np.argsort(ids)
    rows = order[np.searchsorted(ids[order], edges)]
    starts, ends = cfgs[rows[:, 0]], cfgs[rows[:, 1]]
    points = np.ceil(np.linalg.norm(ends - starts, axis=1) / resolution)
    if point_budget is not None:
        pick = rng.permutation(len(edges))
        keep = pick[np.cumsum(points[pick]) <= point_budget // 2]
        starts, ends, points = starts[keep], ends[keep], points[keep]
    planner = StraightLinePlanner(resolution=resolution, kernels="reference")
    groups = np.cumsum(points) // chunk
    bounds = np.flatnonzero(np.diff(groups)) + 1
    ok = np.concatenate([
        planner.batch_pairs_exact(cspace, a, b)[0]
        for a, b in zip(np.split(starts, bounds), np.split(ends, bounds))
    ])
    if not ok.all():
        problems.append(
            f"{int(np.count_nonzero(~ok))} of {len(ok)} re-checked edges "
            "in collision under reference"
        )
    return problems


def same_answers(expected, served) -> bool:
    """Exact equality of two ``QueryResult | None`` values."""
    if (expected is None) != (served is None):
        return False
    if expected is None:
        return True
    return (
        expected.path_vertices == served.path_vertices
        and expected.length == served.length
        and np.array_equal(expected.path_configs, served.path_configs)
    )
