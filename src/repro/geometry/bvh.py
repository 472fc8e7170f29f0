"""Packed-array AABB bounding-volume hierarchy for collision culling.

The ROADMAP's "hierarchical spatial acceleration" item: brute-force
collision kernels are linear in obstacle count, which caps the paper's
load-imbalance story at toy obstacle densities.  This module provides the
acceleration structure behind the ``bvh`` kernel backend
(:mod:`repro.kernels.bvh_backend`): a binary tree of axis-aligned
bounding boxes over primitive AABBs, stored as contiguous NumPy arrays in
the same structure-of-arrays style as
:class:`~repro.kernels.data.EnvKernelData` so traversal loops touch flat
buffers, never Python node objects.

Design points:

* **Median split, built level by level.**  Nodes split their primitive
  range at the median centroid along the widest centroid axis.  The
  split is by *count*, not position, so fully-overlapping primitive sets
  (every centroid identical) still produce a balanced, ``O(log n)``-depth
  tree instead of degenerating.  The build handles a whole tree level per
  iteration (segment ``reduceat`` for boxes and centroid spread, one
  stable ``lexsort`` for the splits) and numbers nodes breadth-first, so
  the children of a node are always ``left`` and ``left + 1``.
* **Level-synchronous traversal.**  Queries are answered for a whole
  batch at once.  The frontier is a pair of parallel
  ``(query, node)`` index arrays; each iteration tests every pair
  against its node box in one vectorised step, expands the leaf pairs
  into ``(query, primitive)`` candidate pairs decided by one call of the
  caller's pair test, and pushes both children of the internal pairs
  whose query is not yet hit.  One iteration per tree depth keeps the
  Python overhead at ``O(depth)`` per batch, not ``O(nodes visited)``.
* **Conservative culling, exact decisions.**  Node boxes are inflated by
  a relative margin (~1e-9) at build time so float64 rounding in the
  traversal tests can never cull a primitive the exact pair test would
  report as hit.  The pair test is supplied by the caller (the ``bvh``
  backend passes the reference kernels' pair tests, which evaluate the
  reference arithmetic row by row), so verdicts are bit-identical to the
  brute-force scan — the BVH culls, it never approximates.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BVH", "DEFAULT_LEAF_SIZE"]

#: Primitives per leaf.  Small enough that the candidate pairs stay few,
#: large enough that the tree (and the per-depth traversal loop) stays
#: shallow: ~2n/8 nodes at 100k primitives.
DEFAULT_LEAF_SIZE = 8

#: Relative inflation applied to every node box at build time.  Traversal
#: tests run in float64 whose rounding is ~1e-16 relative; a 1e-9 margin
#: dwarfs it by seven orders of magnitude while being geometrically
#: invisible, so culling is strictly conservative w.r.t. the exact pair
#: tests (see the grazing-segment cases in ``tests/test_bvh.py``).
_NODE_MARGIN = 1e-9


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` for every ``(s, c)`` pair."""
    end = np.cumsum(count)
    return np.arange(int(end[-1])) + np.repeat(start - (end - count), count)


class BVH:
    """A packed median-split AABB tree over ``n`` primitive boxes.

    Parameters
    ----------
    prim_lo, prim_hi:
        Primitive bounding boxes, shape ``(n, d)``.  Zero-volume boxes
        (``lo == hi`` on any axis) are fine; so are fully overlapping
        ones.  ``n == 0`` builds an empty tree whose queries return
        all-False.
    leaf_size:
        Maximum primitives per leaf.

    Attributes (all contiguous, read-only by convention)
    ----------------------------------------------------
    node_lo, node_hi:
        ``(num_nodes, d)`` float64 — inflated node boxes.
    node_left:
        ``(num_nodes,)`` int64 — index of the left child for internal
        nodes (the right child is always ``left + 1``), ``-1`` for
        leaves.  Nodes are numbered breadth-first from the root ``0``.
    node_start, node_count:
        ``(num_nodes,)`` int64 — leaf range into ``prim_index``
        (``count == 0`` for internal nodes).
    prim_index:
        ``(n,)`` int64 — permutation of primitive ids; a leaf owns
        ``prim_index[start:start+count]``.
    """

    def __init__(self, prim_lo: np.ndarray, prim_hi: np.ndarray, leaf_size: int = DEFAULT_LEAF_SIZE):
        prim_lo = np.ascontiguousarray(np.atleast_2d(np.asarray(prim_lo, dtype=np.float64)))
        prim_hi = np.ascontiguousarray(np.atleast_2d(np.asarray(prim_hi, dtype=np.float64)))
        if prim_lo.shape != prim_hi.shape:
            raise ValueError("prim_lo/prim_hi shape mismatch")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        n, d = (0, prim_lo.shape[1]) if prim_lo.size == 0 else prim_lo.shape
        self.num_prims = n
        self.dim = d
        self.leaf_size = int(leaf_size)

        if n == 0:
            self.node_lo = np.empty((0, d))
            self.node_hi = np.empty((0, d))
            self.node_left = np.empty(0, dtype=np.int64)
            self.node_start = np.empty(0, dtype=np.int64)
            self.node_count = np.empty(0, dtype=np.int64)
            self.prim_index = np.empty(0, dtype=np.int64)
            self._node_box = np.empty((0, 2 * d))
            return

        # One iteration per tree level.  A level is a sorted list of
        # disjoint ranges [a, a + size) of ``order``; its primitives are
        # gathered into one block whose segments start at ``offset``.
        order = np.arange(n, dtype=np.int64)
        centers = 0.5 * (prim_lo + prim_hi)
        lo_parts, hi_parts, left_parts, start_parts, count_parts = [], [], [], [], []
        a = np.zeros(1, dtype=np.int64)
        size = np.full(1, n, dtype=np.int64)
        first = 0  # id of the level's first node
        while True:
            offset = np.cumsum(size) - size
            pos = _ranges(a, size)
            ids = order[pos]
            lo = np.minimum.reduceat(prim_lo[ids], offset, axis=0)
            hi = np.maximum.reduceat(prim_hi[ids], offset, axis=0)
            # Inflate so traversal rounding can never out-cull the exact
            # pair tests (conservative culling only costs a false visit).
            lo_parts.append(lo - _NODE_MARGIN * (np.abs(lo) + 1.0))
            hi_parts.append(hi + _NODE_MARGIN * (np.abs(hi) + 1.0))
            split = size > self.leaf_size
            num_split = int(split.sum())
            left = np.full(a.size, -1, dtype=np.int64)
            left[split] = first + a.size + 2 * np.arange(num_split)
            left_parts.append(left)
            start_parts.append(np.where(split, 0, a))
            count_parts.append(np.where(split, 0, size))
            first += a.size
            if num_split == 0:
                break

            # Sort each split range by its widest centroid axis; ties keep
            # their current order (lexsort is stable).
            in_split = np.repeat(split, size)
            pos, ids = pos[in_split], ids[in_split]
            a, size = a[split], size[split]
            offset = np.cumsum(size) - size
            c = centers[ids]
            spread = np.maximum.reduceat(c, offset, axis=0) - np.minimum.reduceat(c, offset, axis=0)
            seg = np.repeat(np.arange(num_split), size)
            key = c[np.arange(ids.size), np.argmax(spread, axis=1)[seg]]
            order[pos] = ids[np.lexsort((key, seg))]

            # Children interleaved (left, right) per parent: breadth-first ids.
            half = size // 2
            a = np.stack([a, a + half], axis=1).ravel()
            size = np.stack([half, size - half], axis=1).ravel()

        self.node_lo = np.ascontiguousarray(np.concatenate(lo_parts))
        self.node_hi = np.ascontiguousarray(np.concatenate(hi_parts))
        self.node_left = np.concatenate(left_parts)
        self.node_start = np.concatenate(start_parts)
        self.node_count = np.concatenate(count_parts)
        self.prim_index = order
        # [node_lo | -node_hi]: with queries laid out the same way
        # ([x | -x]) one ``>=`` covers both bounds of the node test and one
        # subtract-multiply gives both slab parameters.  Negation is exact,
        # so these are the same tests on the same inflated boxes.
        self._node_box = np.hstack([self.node_lo, -self.node_hi])

    @property
    def num_nodes(self) -> int:
        return self.node_left.shape[0]

    @property
    def nbytes(self) -> int:
        """Total bytes held by the packed node and index arrays."""
        return sum(
            getattr(self, a).nbytes
            for a in (
                "node_lo", "node_hi", "_node_box", "node_left", "node_start", "node_count",
                "prim_index",
            )
        )

    # -- level-synchronous traversal ---------------------------------------
    def _descend(self, qi: np.ndarray, ni: np.ndarray, hit: np.ndarray, pair_test):
        """Decide the leaf pairs of a culled frontier; return the next one.

        ``(qi, ni)`` are the ``(query, node)`` pairs whose node box passed
        the node test.  Leaf pairs expand into ``(query, primitive)``
        candidates, all decided by one ``pair_test`` call; internal pairs
        whose query is not yet hit push both children.
        """
        left = self.node_left[ni]
        leaf = left < 0
        if leaf.any():
            ln = ni[leaf]
            count = self.node_count[ln]
            cq = np.repeat(qi[leaf], count)
            cp = self.prim_index[_ranges(self.node_start[ln], count)]
            hit[cq[pair_test(cq, cp)]] = True
            keep = ~leaf & ~hit[qi]  # already-hit queries drop out
            qi, left = qi[keep], left[keep]
        return np.concatenate([qi, qi]), np.concatenate([left, left + 1])

    def points_hit(self, pts: np.ndarray, pair_test) -> np.ndarray:
        """``(n,)`` bool: point ``i`` hits some primitive per ``pair_test``.

        ``pair_test(query_idx, prim_idx) -> (k,) bool`` decides exactly
        whether point ``query_idx[j]`` hits primitive ``prim_idx[j]``; the
        tree only narrows which pairs are worth asking about.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        n = pts.shape[0]
        hit = np.zeros(n, dtype=bool)
        if self.num_prims == 0 or n == 0:
            return hit
        box = self._node_box
        ext = np.hstack([pts, -pts])  # x >= lo and -x >= -hi in one compare
        qi = np.arange(n, dtype=np.intp)
        ni = np.zeros(n, dtype=np.intp)
        while qi.size:
            inside = (ext[qi] >= box[ni]).all(axis=1)
            qi, ni = self._descend(qi[inside], ni[inside], hit, pair_test)
        return hit

    def segments_hit(self, p: np.ndarray, q: np.ndarray, pair_test) -> np.ndarray:
        """``(n,)`` bool: segment ``p[i] -> q[i]`` hits some primitive.

        Node culling is a conservative slab test (inflated node boxes,
        parallel axes handled exactly like the reference kernel);
        ``pair_test(query_idx, prim_idx)`` decides the candidate pairs.
        """
        p = np.atleast_2d(np.asarray(p, dtype=np.float64))
        q = np.atleast_2d(np.asarray(q, dtype=np.float64))
        n, dim = p.shape
        hit = np.zeros(n, dtype=bool)
        if self.num_prims == 0 or n == 0:
            return hit
        d = q - p  # (n, dim), shared by every node test
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(d != 0.0, 1.0 / d, np.inf)
        par = d == 0.0
        any_par = bool(par.any())
        box = self._node_box
        # (-hi - -p) * -inv == (hi - p) * inv: one product gives both slabs.
        ext_p = np.hstack([p, -p])
        ext_inv = np.hstack([inv, -inv])
        qi = np.arange(n, dtype=np.intp)
        ni = np.zeros(n, dtype=np.intp)
        while qi.size:
            nb = box[ni]
            sp = ext_p[qi]
            # 0 * inf on parallel axes gives NaN lanes; the np.where(pm, ...)
            # below always overwrites them.
            with np.errstate(invalid="ignore"):
                t = (nb - sp) * ext_inv[qi]
            t_near = np.minimum(t[:, :dim], t[:, dim:])
            t_far = np.maximum(t[:, :dim], t[:, dim:])
            if any_par:
                pm = par[qi]
                inside = sp >= nb
                miss = (pm & ~(inside[:, :dim] & inside[:, dim:])).any(axis=1)
                t_near = np.where(pm, -np.inf, t_near)
                t_far = np.where(pm, np.inf, t_far)
            overlap = np.maximum(t_near.max(axis=1), 0.0) <= np.minimum(t_far.min(axis=1), 1.0)
            if any_par:
                overlap &= ~miss
            qi, ni = self._descend(qi[overlap], ni[overlap], hit, pair_test)
        return hit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BVH(prims={self.num_prims}, nodes={self.num_nodes}, "
            f"dim={self.dim}, leaf_size={self.leaf_size})"
        )
