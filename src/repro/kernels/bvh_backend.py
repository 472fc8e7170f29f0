"""bvh kernel backend: BVH-culled collision queries, bit-exact leaves.

The scaling backend for obstacle-heavy scenes (10³–10⁵ primitives, see
``repro.geometry.scenarios``): ``points_free`` / ``segments_free`` walk a
packed-array AABB tree (:class:`repro.geometry.bvh.BVH`) instead of
scanning every obstacle, turning the per-query cost from ``O(m)`` to
``O(log m)`` node visits plus a handful of candidate primitives.  The
walk is level-synchronous: one vectorised step per tree depth for the
whole batch, whose leaf visits yield ``(query, primitive)`` candidate
pairs.

**The equivalence contract is bit-exact, not statistical.**  The tree
only *culls*: node tests are conservative (inflated float64 boxes), and
every candidate pair is decided by the reference backend's pair tests
(:func:`repro.kernels.reference.point_box_pairs_hit` and friends), which
evaluate the reference arithmetic of ``points_hit_boxes`` and friends
row by row on the gathered ``(query, primitive)`` rows.  Elementwise
NumPy expressions give each pair the bits the brute-force broadcast
gives its cell, so a verdict can never differ from ``reference`` — which
is why the differential battery in ``tests/test_bvh.py`` and the
``bvh_collision_scaling`` bench row assert exact equality where the
fast32 gates settle for stability-guarded agreement.

``pairwise_accumulate`` and ``knn_block_min`` have no obstacle structure
to accelerate; they delegate to the reference backend unchanged.

Trees are built lazily per :class:`~repro.kernels.data.EnvKernelData`
snapshot and cached *on the snapshot* — snapshots are immutable and are
themselves cached on ``Environment`` (invalidated on mutation), so a
mutated environment transparently gets a fresh tree with no extra
invalidation protocol.
"""

from __future__ import annotations

import numpy as np

from .base import KernelBackend
from .data import EnvKernelData
from .reference import (
    ReferenceKernels,
    point_box_pairs_hit,
    point_sphere_pairs_hit,
    segment_box_pairs_hit,
    segment_sphere_pairs_hit,
)

__all__ = ["BVHKernels"]

#: Attribute name under which trees are cached on an EnvKernelData
#: snapshot (maps "box"/"sph" -> BVH).
_CACHE_ATTR = "_bvh_trees"


def _trees(data: EnvKernelData) -> dict:
    """The snapshot's lazily-built {"box": BVH, "sph": BVH} cache."""
    cache = getattr(data, _CACHE_ATTR, None)
    if cache is None:
        cache = {}
        setattr(data, _CACHE_ATTR, cache)
    return cache


def _box_tree(data: EnvKernelData):
    from ..geometry.bvh import BVH  # deferred: geometry imports kernels

    cache = _trees(data)
    tree = cache.get("box")
    if tree is None:
        tree = cache["box"] = BVH(data.box_lo, data.box_hi)
    return tree


def _sphere_tree(data: EnvKernelData):
    from ..geometry.bvh import BVH  # deferred: geometry imports kernels

    cache = _trees(data)
    tree = cache.get("sph")
    if tree is None:
        r = data.sph_radius[:, None]
        tree = cache["sph"] = BVH(data.sph_center - r, data.sph_center + r)
    return tree


class BVHKernels(KernelBackend):
    """BVH-culled collision kernels; distance primitives are reference."""

    name = "bvh"
    dtype = np.float64

    def __init__(self):
        self._ref = ReferenceKernels()

    def points_free(self, data: EnvKernelData, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        free = np.all((pts >= data.bounds_lo) & (pts <= data.bounds_hi), axis=-1)
        if data.num_boxes:
            hit = _box_tree(data).points_hit(
                pts,
                lambda qi, pi: point_box_pairs_hit(data.box_lo[pi], data.box_hi[pi], pts[qi]),
            )
            free = free & ~hit
        if data.num_spheres:
            hit = _sphere_tree(data).points_hit(
                pts,
                lambda qi, pi: point_sphere_pairs_hit(
                    data.sph_center[pi], data.sph_radius[pi], pts[qi]
                ),
            )
            free = free & ~hit
        return free

    def segments_free(self, data: EnvKernelData, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(np.asarray(p, dtype=float))
        q = np.atleast_2d(np.asarray(q, dtype=float))
        free = np.all((p >= data.bounds_lo) & (p <= data.bounds_hi), axis=-1) & np.all(
            (q >= data.bounds_lo) & (q <= data.bounds_hi), axis=-1
        )
        if data.num_boxes:
            hit = _box_tree(data).segments_hit(
                p,
                q,
                lambda qi, pi: segment_box_pairs_hit(
                    data.box_lo[pi], data.box_hi[pi], p[qi], q[qi]
                ),
            )
            free = free & ~hit
        if data.num_spheres:
            hit = _sphere_tree(data).segments_hit(
                p,
                q,
                lambda qi, pi: segment_sphere_pairs_hit(
                    data.sph_center[pi], data.sph_radius[pi], p[qi], q[qi]
                ),
            )
            free = free & ~hit
        return free

    # -- distance primitives: nothing to cull, reference verbatim ----------
    def pairwise_accumulate(self, stored: np.ndarray, queries: np.ndarray, out: np.ndarray) -> None:
        self._ref.pairwise_accumulate(stored, queries, out)

    def knn_block_min(
        self, stored: np.ndarray, queries: np.ndarray, k: int
    ) -> "tuple[np.ndarray, np.ndarray]":
        return self._ref.knn_block_min(stored, queries, k)
