"""Reference kernel backend: today's float64 NumPy hot paths, bit-exact.

These are the *exact* expressions that previously lived inline in
``Environment.points_in_collision`` / ``Environment._segments_hit`` and
``BruteForceNN._dist_block`` — moved here unchanged so the backend
boundary introduces zero numerical drift.  Every bit-exact parity test in
the suite (sequential-vs-batched PRM/RRT replay, canonical k-NN
cross-checks) runs through this backend and must stay green with zero
tolerance changes; fast backends are instead held to the statistical
gates described in :mod:`repro.kernels.base`.

The per-primitive tests are exposed as array-level functions
(``points_hit_boxes`` and friends), each with a *pair test*
(``point_box_pairs_hit`` and friends) that evaluates the identical
arithmetic row by row on gathered ``(query, primitive)`` rows.  The
``bvh`` backend decides the candidate pairs its tree produces with the
pair tests — that sharing is what makes the BVH backend bit-exact rather
than merely statistically equivalent (see ``repro.kernels.bvh_backend``).
"""

from __future__ import annotations

import numpy as np

from .base import KernelBackend
from .data import EnvKernelData
from .select import select_canonical_rows

__all__ = [
    "ReferenceKernels",
    "pairwise_accumulate_exact",
    "point_box_pairs_hit",
    "point_sphere_pairs_hit",
    "points_hit_boxes",
    "points_hit_spheres",
    "segment_box_pairs_hit",
    "segment_sphere_pairs_hit",
    "segments_hit_boxes",
    "segments_hit_spheres",
]


def pairwise_accumulate_exact(stored: np.ndarray, queries: np.ndarray, out: np.ndarray) -> None:
    """Write ``||stored[j] - queries[i]||`` into ``out[i, j]`` using
    per-dimension 2-D accumulation.

    np.add.reduce over the last axis sums left to right, so
    ``s = dx0²; s += dx1²; ...; sqrt(s)`` produces bit-identical values to
    ``np.linalg.norm(diff, axis=2)`` (and to the per-query scalar path)
    while never materialising the ``(m, n, d)`` temporary — about a third
    of the memory traffic on the O(n²) floor of roadmap construction.
    """
    n = stored.shape[0]
    if n == 0:
        return
    m, dim = queries.shape
    tmp = np.empty((m, n))
    s = np.empty((m, n))
    for j in range(dim):
        np.subtract(stored[None, :, j], queries[:, j, None], out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        if j == 0:
            s, tmp = tmp, s
        else:
            np.add(s, tmp, out=s)
    np.sqrt(s, out=out)


#: ``n * m`` (points x boxes) from which :func:`points_hit_boxes` ANDs
#: per-axis ``(n, m)`` comparisons instead of reducing the ``(n, m, d)``
#: broadcast.  Measured crossover: below it (med-cube's single box, for
#: instance) the broadcast's fewer NumPy calls win; above it
#: the per-axis form is 2-7x faster (125 boxes, n = 8-512).
_PER_AXIS_MIN_CELLS = 256


def points_hit_boxes(box_lo: np.ndarray, box_hi: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``(n,)`` bool: point is inside (inclusively) some box — the exact
    containment expression of the historical ``points_in_collision``.

    Both forms below compute the same exact booleans; which one runs is
    a pure speed choice made on the ``n * m`` cell count."""
    if pts.shape[0] * box_lo.shape[0] < _PER_AXIS_MIN_CELLS:
        return np.all(
            (pts[:, None, :] >= box_lo[None, :, :]) & (pts[:, None, :] <= box_hi[None, :, :]),
            axis=2,
        ).any(axis=1)
    hit = (pts[:, 0, None] >= box_lo[:, 0]) & (pts[:, 0, None] <= box_hi[:, 0])
    for j in range(1, pts.shape[1]):
        hit &= pts[:, j, None] >= box_lo[:, j]
        hit &= pts[:, j, None] <= box_hi[:, j]
    return hit.any(axis=1)


def points_hit_spheres(sph_center: np.ndarray, sph_radius: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``(n,)`` bool: point is inside (inclusively) some sphere."""
    diff = pts[:, None, :] - sph_center[None, :, :]
    dist2 = np.einsum("imj,imj->im", diff, diff)
    return (dist2 <= sph_radius[None, :] ** 2).any(axis=1)


def segments_hit_boxes(
    obs_lo: np.ndarray, obs_hi: np.ndarray, p: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Slab test of n segments against m box obstacles -> (n,) bool.

    Verbatim the historical ``Environment._segments_hit`` body.
    """
    d = q - p  # (n, dim)
    m = obs_lo.shape[0]
    # 0 * inf on parallel axes gives NaN lanes in t_lo/t_hi that the
    # np.where(parallel, ...) below always overwrites.
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(d != 0.0, 1.0 / d, np.inf)  # (n, dim)
        # (n, m, dim)
        t_lo = (obs_lo[None, :, :] - p[:, None, :]) * inv[:, None, :]
        t_hi = (obs_hi[None, :, :] - p[:, None, :]) * inv[:, None, :]
    t_near = np.minimum(t_lo, t_hi)
    t_far = np.maximum(t_lo, t_hi)
    parallel = (d == 0.0)[:, None, :] & np.ones((1, m, 1), dtype=bool)
    inside_slab = (p[:, None, :] >= obs_lo[None, :, :]) & (p[:, None, :] <= obs_hi[None, :, :])
    miss_parallel = parallel & ~inside_slab
    t_near = np.where(parallel, -np.inf, t_near)
    t_far = np.where(parallel, np.inf, t_far)
    t0 = np.maximum(t_near.max(axis=2), 0.0)  # (n, m)
    t1 = np.minimum(t_far.min(axis=2), 1.0)
    hit = (t0 <= t1) & ~miss_parallel.any(axis=2)
    return hit.any(axis=1)


def segments_hit_spheres(
    sph_center: np.ndarray, sph_radius: np.ndarray, p: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Exact segment-vs-sphere test: closest point on the segment to each
    center, clamped to the parameter range, against the radius."""
    c, r = sph_center, sph_radius
    d = q - p  # (n, dim)
    dd = np.einsum("ij,ij->i", d, d)  # (n,)
    f = p[:, None, :] - c[None, :, :]  # (n, m, dim)
    num = -np.einsum("imj,ij->im", f, d)  # (n, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(dd[:, None] > 0.0, num / dd[:, None], 0.0)
    t = np.clip(t, 0.0, 1.0)
    closest = f + t[:, :, None] * d[:, None, :]
    dist2 = np.einsum("imj,imj->im", closest, closest)
    return (dist2 <= r[None, :] ** 2).any(axis=1)


# -- pair tests: query row i against primitive row i --------------------------
# The arithmetic of the (n, m) tests above, evaluated on gathered
# (query, primitive) rows: pair i gets exactly the bits the broadcast
# form gives its cell.  The bvh backend decides the candidate pairs its
# tree traversal produces with these.  ``(d * d).sum(axis=1)`` rounds
# differently from the einsum for dim >= 3, so the sphere tests keep
# the einsum.


def point_box_pairs_hit(box_lo: np.ndarray, box_hi: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``(k,)`` bool: ``pts[i]`` is inside (inclusively) box ``i``."""
    return np.all((pts >= box_lo) & (pts <= box_hi), axis=1)


def point_sphere_pairs_hit(
    sph_center: np.ndarray, sph_radius: np.ndarray, pts: np.ndarray
) -> np.ndarray:
    """``(k,)`` bool: ``pts[i]`` is inside (inclusively) sphere ``i``."""
    diff = pts - sph_center
    return np.einsum("ij,ij->i", diff, diff) <= sph_radius**2


def segment_box_pairs_hit(
    obs_lo: np.ndarray, obs_hi: np.ndarray, p: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """``(k,)`` bool: segment ``p[i] -> q[i]`` hits box ``i`` (slab test)."""
    d = q - p
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(d != 0.0, 1.0 / d, np.inf)
        t_lo = (obs_lo - p) * inv
        t_hi = (obs_hi - p) * inv
    t_near = np.minimum(t_lo, t_hi)
    t_far = np.maximum(t_lo, t_hi)
    parallel = d == 0.0
    miss_parallel = parallel & ~((p >= obs_lo) & (p <= obs_hi))
    t_near = np.where(parallel, -np.inf, t_near)
    t_far = np.where(parallel, np.inf, t_far)
    t0 = np.maximum(t_near.max(axis=1), 0.0)
    t1 = np.minimum(t_far.min(axis=1), 1.0)
    return (t0 <= t1) & ~miss_parallel.any(axis=1)


def segment_sphere_pairs_hit(
    sph_center: np.ndarray, sph_radius: np.ndarray, p: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """``(k,)`` bool: segment ``p[i] -> q[i]`` hits sphere ``i``."""
    d = q - p
    dd = np.einsum("ij,ij->i", d, d)
    f = p - sph_center
    num = -np.einsum("ij,ij->i", f, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(dd > 0.0, num / dd, 0.0)
    t = np.clip(t, 0.0, 1.0)
    closest = f + t[:, None] * d
    return np.einsum("ij,ij->i", closest, closest) <= sph_radius**2


class ReferenceKernels(KernelBackend):
    """Bit-exact float64 backend — the default everywhere."""

    name = "reference"
    dtype = np.float64

    def points_free(self, data: EnvKernelData, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        free = np.all((pts >= data.bounds_lo) & (pts <= data.bounds_hi), axis=-1)
        if data.num_boxes:
            free = free & ~points_hit_boxes(data.box_lo, data.box_hi, pts)
        if data.num_spheres:
            free = free & ~points_hit_spheres(data.sph_center, data.sph_radius, pts)
        return free

    def segments_free(self, data: EnvKernelData, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(p, dtype=float))
        q = np.atleast_2d(np.asarray(q, dtype=float))
        free = np.all((p >= data.bounds_lo) & (p <= data.bounds_hi), axis=-1) & np.all(
            (q >= data.bounds_lo) & (q <= data.bounds_hi), axis=-1
        )
        if data.num_boxes:
            free = free & ~segments_hit_boxes(data.box_lo, data.box_hi, p, q)
        if data.num_spheres:
            free = free & ~segments_hit_spheres(data.sph_center, data.sph_radius, p, q)
        return free

    def pairwise_accumulate(self, stored: np.ndarray, queries: np.ndarray, out: np.ndarray) -> None:
        pairwise_accumulate_exact(stored, queries, out)

    def knn_block_min(
        self, stored: np.ndarray, queries: np.ndarray, k: int
    ) -> "tuple[np.ndarray, np.ndarray]":
        stored = np.atleast_2d(np.asarray(stored, dtype=float))
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        m, n = queries.shape[0], stored.shape[0]
        kk = max(k, 0)
        idx = np.full((m, kk), -1, dtype=np.int64)
        dist = np.full((m, kk), np.inf)
        if n == 0 or kk == 0 or m == 0:
            return idx, dist
        D = np.empty((m, n))
        self.pairwise_accumulate(stored, queries, D)
        k_eff = min(kk, n)
        sel, dvals = select_canonical_rows(D, k_eff)
        for i, (srow, drow) in enumerate(zip(sel, dvals)):
            idx[i, :k_eff] = srow
            dist[i, :k_eff] = drow
        return idx, dist
