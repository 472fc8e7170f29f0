"""Differential property battery for the BVH and the ``bvh`` backend.

The ``bvh`` backend's contract is **bit-exact** equality with
``reference`` — stronger than the stability-guarded statistical gates
fast32 gets — because the tree only culls and the leaves run the
reference expressions verbatim.  Every test here asserts
``np.testing.assert_array_equal`` on verdicts, never a tolerance.

``hypothesis`` drives the world generators when installed; otherwise a
seeded stdlib-``random`` sweep covers the same shapes (same pattern as
``tests/test_properties.py``).
"""

import random

import numpy as np
import pytest

from repro.geometry import AABB, Environment
from repro.geometry.bvh import BVH
from repro.geometry.scenarios import cluttered_spheres, shelf_warehouse
from repro.kernels import EnvKernelData, available_backends, get_backend
from repro.kernels.bvh_backend import _CACHE_ATTR, BVHKernels
from repro.kernels.reference import (
    point_box_pairs_hit,
    points_hit_boxes,
    segment_box_pairs_hit,
    segments_hit_boxes,
)
from repro.spec import ExecutionPolicy, WorkloadSpec

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

FALLBACK_EXAMPLES = 25

REF = get_backend("reference")
BVH_K = get_backend("bvh")


def property_test(strategy_builder, fallback_gen, examples=50):
    """Hypothesis ``@given`` when available, seeded sweep otherwise."""

    def deco(fn):
        if HAVE_HYPOTHESIS:
            return settings(max_examples=examples, deadline=None)(
                given(strategy_builder())(fn)
            )

        def runner():
            for seed in range(min(examples, FALLBACK_EXAMPLES)):
                fn(fallback_gen(random.Random(seed)))

        runner.__name__ = fn.__name__
        runner.__doc__ = fn.__doc__
        return runner

    return deco


# -- world generation -------------------------------------------------------


def _world_from_script(script):
    """Build (EnvKernelData, points, segment endpoints) from a seed script.

    ``script`` is ``(seed, n_boxes, n_spheres, dim)``; all geometry is
    derived from one ``default_rng(seed)`` stream so hypothesis shrinks
    over a tiny tuple instead of raw float arrays.
    """
    seed, n_boxes, n_spheres, dim = script
    rng = np.random.default_rng(seed)
    half = 10.0
    center = rng.uniform(-half, half, size=(n_boxes, dim))
    ext = rng.uniform(0.0, 2.5, size=(n_boxes, dim))  # may be zero-volume
    box_lo = center - 0.5 * ext
    box_hi = center + 0.5 * ext
    sph_center = rng.uniform(-half, half, size=(n_spheres, dim))
    sph_radius = rng.uniform(0.05, 2.0, size=n_spheres)
    data = EnvKernelData(
        bounds_lo=-half * np.ones(dim),
        bounds_hi=half * np.ones(dim),
        box_lo=box_lo,
        box_hi=box_hi,
        sph_center=sph_center,
        sph_radius=sph_radius,
    )
    pts = rng.uniform(-half * 1.05, half * 1.05, size=(64, dim))
    p = rng.uniform(-half, half, size=(48, dim))
    q = rng.uniform(-half, half, size=(48, dim))
    # Mix in degenerate segments: zero-length and axis-parallel.
    q[:8] = p[:8]
    q[8:16, 0] = p[8:16, 0]
    return data, pts, p, q


def _script_strategy():
    return st.tuples(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=20),
        st.sampled_from([2, 3, 4]),
    )


def _script_fallback(r: random.Random):
    return (r.randrange(2**31), r.randint(0, 60), r.randint(0, 20), r.choice([2, 3, 4]))


def _assert_world_parity(script):
    data, pts, p, q = _world_from_script(script)
    np.testing.assert_array_equal(
        BVH_K.points_free(data, pts), REF.points_free(data, pts)
    )
    np.testing.assert_array_equal(
        BVH_K.segments_free(data, p, q), REF.segments_free(data, p, q)
    )


# -- the differential battery ----------------------------------------------


@property_test(_script_strategy, _script_fallback, examples=60)
def test_random_worlds_bit_exact(script):
    _assert_world_parity(script)


class TestDifferentialParity:
    @pytest.mark.parametrize("n", [1000, 5000])
    def test_warehouse_scenario_bit_exact(self, n):
        env = shelf_warehouse(n, seed=1)
        data = env.kernel_data()
        rng = np.random.default_rng(2)
        pts = rng.uniform(-10.5, 10.5, size=(300, 3))
        p = rng.uniform(-10, 10, size=(150, 3))
        q = rng.uniform(-10, 10, size=(150, 3))
        np.testing.assert_array_equal(
            BVH_K.points_free(data, pts), REF.points_free(data, pts)
        )
        np.testing.assert_array_equal(
            BVH_K.segments_free(data, p, q), REF.segments_free(data, p, q)
        )

    def test_sphere_scenario_bit_exact(self):
        data = cluttered_spheres(2000, seed=1)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-10, 10, size=(300, 3))
        p = rng.uniform(-10, 10, size=(150, 3))
        q = rng.uniform(-10, 10, size=(150, 3))
        np.testing.assert_array_equal(
            BVH_K.points_free(data, pts), REF.points_free(data, pts)
        )
        np.testing.assert_array_equal(
            BVH_K.segments_free(data, p, q), REF.segments_free(data, p, q)
        )

    def test_distance_primitives_delegate_to_reference(self):
        rng = np.random.default_rng(4)
        stored = rng.normal(size=(30, 3))
        queries = rng.normal(size=(10, 3))
        out_b = np.empty((10, 30))
        out_r = np.empty((10, 30))
        BVH_K.pairwise_accumulate(stored, queries, out_b)
        REF.pairwise_accumulate(stored, queries, out_r)
        np.testing.assert_array_equal(out_b, out_r)
        ib, db = BVH_K.knn_block_min(stored, queries, 5)
        ir, dr = REF.knn_block_min(stored, queries, 5)
        np.testing.assert_array_equal(ib, ir)
        np.testing.assert_array_equal(db, dr)


# -- degenerate cases -------------------------------------------------------


def _box_world(box_lo, box_hi, half=10.0):
    lo = np.atleast_2d(np.asarray(box_lo, dtype=float))
    dim = lo.shape[1]
    return EnvKernelData(
        bounds_lo=-half * np.ones(dim),
        bounds_hi=half * np.ones(dim),
        box_lo=lo,
        box_hi=np.atleast_2d(np.asarray(box_hi, dtype=float)),
    )


class TestDegenerateCases:
    def test_zero_obstacles(self):
        data = EnvKernelData(
            bounds_lo=np.zeros(3) - 10, bounds_hi=np.zeros(3) + 10
        )
        pts = np.array([[0.0, 0.0, 0.0], [11.0, 0.0, 0.0]])
        np.testing.assert_array_equal(
            BVH_K.points_free(data, pts), REF.points_free(data, pts)
        )
        assert bool(BVH_K.points_free(data, pts)[0]) is True
        p = np.array([[0.0, 0.0, 0.0]])
        q = np.array([[1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(
            BVH_K.segments_free(data, p, q), [True]
        )

    def test_fully_overlapping_boxes(self):
        """Identical centroids must not degenerate the tree or the verdicts."""
        n = 100
        lo = np.tile([-1.0, -1.0, -1.0], (n, 1))
        hi = np.tile([1.0, 1.0, 1.0], (n, 1))
        data = _box_world(lo, hi)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2, 2, size=(100, 3))
        p = rng.uniform(-3, 3, size=(60, 3))
        q = rng.uniform(-3, 3, size=(60, 3))
        np.testing.assert_array_equal(
            BVH_K.points_free(data, pts), REF.points_free(data, pts)
        )
        np.testing.assert_array_equal(
            BVH_K.segments_free(data, p, q), REF.segments_free(data, p, q)
        )

    def test_zero_volume_boxes(self):
        """Planes/lines/points as obstacles: lo == hi on some axes."""
        lo = np.array([[0.0, -5.0, -5.0], [2.0, 2.0, 2.0], [-5.0, 0.0, -5.0]])
        hi = np.array([[0.0, 5.0, 5.0], [2.0, 2.0, 2.0], [5.0, 0.0, 5.0]])
        data = _box_world(lo, hi)
        pts = np.array(
            [[0.0, 0.0, 0.0], [2.0, 2.0, 2.0], [1.0, 1.0, 1.0], [0.0, 6.0, 0.0]]
        )
        np.testing.assert_array_equal(
            BVH_K.points_free(data, pts), REF.points_free(data, pts)
        )
        # Segments crossing / lying in the zero-thickness plane.
        p = np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [3.0, 3.0, 3.0]])
        q = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [4.0, 4.0, 4.0]])
        np.testing.assert_array_equal(
            BVH_K.segments_free(data, p, q), REF.segments_free(data, p, q)
        )

    def test_segments_grazing_aabb_faces(self):
        """Segments exactly on faces/edges/corners of the box: the most
        boundary-sensitive inputs there are — still bit-exact."""
        data = _box_world([[-1.0, -1.0, -1.0]], [[1.0, 1.0, 1.0]])
        cases_p = np.array(
            [
                [-2.0, 1.0, 0.0],  # slides along the y=+1 face
                [-2.0, -1.0, -1.0],  # slides along an edge
                [1.0, 1.0, 1.0],  # starts exactly at a corner
                [-2.0, 1.0 + 1e-15, 0.0],  # epsilon above the face
                [-2.0, -2.0, -2.0],  # diagonal through the corner
                [1.0, -2.0, 0.0],  # lies in the x=+1 face plane
            ]
        )
        cases_q = np.array(
            [
                [2.0, 1.0, 0.0],
                [2.0, -1.0, -1.0],
                [2.0, 2.0, 2.0],
                [2.0, 1.0 + 1e-15, 0.0],
                [0.0, 0.0, 0.0],
                [1.0, 2.0, 0.0],
            ]
        )
        np.testing.assert_array_equal(
            BVH_K.segments_free(data, cases_p, cases_q),
            REF.segments_free(data, cases_p, cases_q),
        )

    def test_zero_length_segments(self):
        data = _box_world([[-1.0, -1.0, -1.0]], [[1.0, 1.0, 1.0]])
        p = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0], [1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(
            BVH_K.segments_free(data, p, p), REF.segments_free(data, p, p)
        )

    def test_single_obstacle(self):
        data = _box_world([[0.0, 0.0]], [[1.0, 1.0]])
        pts = np.array([[0.5, 0.5], [2.0, 2.0]])
        np.testing.assert_array_equal(BVH_K.points_free(data, pts), [False, True])


# -- tree structure ---------------------------------------------------------


def _node_depths(tree: BVH) -> np.ndarray:
    """Depth of every node (root = 1); parents precede children."""
    depth = np.zeros(tree.num_nodes, dtype=np.int64)
    depth[0] = 1
    for ni in range(tree.num_nodes):
        left = int(tree.node_left[ni])
        if left >= 0:
            depth[left] = depth[left + 1] = depth[ni] + 1
    return depth


def _depth(tree: BVH) -> int:
    return int(_node_depths(tree).max())


def _subtree_prims(tree: BVH, node: int) -> np.ndarray:
    """Primitive ids held by the leaves under ``node``."""
    out, stack = [], [node]
    while stack:
        ni = stack.pop()
        left = int(tree.node_left[ni])
        if left < 0:
            s = int(tree.node_start[ni])
            out.extend(tree.prim_index[s : s + int(tree.node_count[ni])].tolist())
        else:
            stack += [left, left + 1]
    return np.asarray(out, dtype=np.int64)


class TestTreeStructure:
    def test_empty_tree(self):
        tree = BVH(np.empty((0, 3)), np.empty((0, 3)))
        assert tree.num_nodes == 0
        assert tree.nbytes == 0

        def never_called(query_idx, prim_idx):
            raise AssertionError("an empty tree has no candidate pairs")

        assert not tree.points_hit(np.zeros((4, 3)), never_called).any()
        assert not tree.segments_hit(np.zeros((4, 3)), np.ones((4, 3)), never_called).any()

    def test_prim_index_is_permutation(self):
        rng = np.random.default_rng(6)
        lo = rng.uniform(-5, 5, size=(137, 3))
        hi = lo + rng.uniform(0, 1, size=(137, 3))
        tree = BVH(lo, hi)
        assert sorted(tree.prim_index.tolist()) == list(range(137))

    def test_leaves_partition_primitives(self):
        rng = np.random.default_rng(7)
        lo = rng.uniform(-5, 5, size=(200, 3))
        hi = lo + 0.5
        tree = BVH(lo, hi, leaf_size=4)
        leaves = tree.node_left < 0
        assert tree.node_count[leaves].sum() == 200
        assert np.all(tree.node_count[leaves] <= 4)
        assert np.all(tree.node_count[~leaves] == 0)

    def test_identical_centroids_stay_balanced(self):
        """Median-by-count split: 1024 coincident boxes -> O(log n) depth."""
        n = 1024
        lo = np.zeros((n, 3))
        hi = np.ones((n, 3))
        tree = BVH(lo, hi, leaf_size=8)
        assert _depth(tree) <= 12  # perfectly balanced is ceil(log2(1024/8))+1 = 8

    def test_node_boxes_contain_primitives(self):
        rng = np.random.default_rng(8)
        lo = rng.uniform(-5, 5, size=(64, 2))
        hi = lo + rng.uniform(0, 2, size=(64, 2))
        tree = BVH(lo, hi, leaf_size=2)
        # Root box contains everything (inflated, so strict containment).
        assert np.all(tree.node_lo[0] <= lo.min(axis=0))
        assert np.all(tree.node_hi[0] >= hi.max(axis=0))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 37, 100, 257, 1000])
    @pytest.mark.parametrize("leaf_size", [1, 3, 8])
    def test_build_invariants(self, n, leaf_size):
        rng = np.random.default_rng(10 * n + leaf_size)
        lo = rng.uniform(-5, 5, size=(n, 3))
        hi = lo + rng.uniform(0, 1, size=(n, 3))
        tree = BVH(lo, hi, leaf_size=leaf_size)
        bound = int(np.ceil(np.log2(int(np.ceil(n / leaf_size))))) + 1
        assert _node_depths(tree).max() <= bound
        # Every node but the root is the left or the right (= left + 1)
        # child of exactly one parent.
        lefts = tree.node_left[tree.node_left >= 0]
        children = np.concatenate([lefts, lefts + 1])
        assert sorted(children.tolist()) == list(range(1, tree.num_nodes))
        leaves = tree.node_left < 0
        assert np.all((tree.node_count[leaves] >= 1) & (tree.node_count[leaves] <= leaf_size))
        assert sorted(tree.prim_index.tolist()) == list(range(n))
        for ni in range(tree.num_nodes):
            prims = _subtree_prims(tree, ni)
            assert np.all(tree.node_lo[ni] <= lo[prims])
            assert np.all(tree.node_hi[ni] >= hi[prims])

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            BVH(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="leaf_size"):
            BVH(np.zeros((3, 2)), np.ones((3, 2)), leaf_size=0)


# -- level-synchronous traversal --------------------------------------------


def _tree_points_hit(tree, lo, hi, pts):
    return tree.points_hit(pts, lambda qi, pi: point_box_pairs_hit(lo[pi], hi[pi], pts[qi]))


def _tree_segments_hit(tree, lo, hi, p, q):
    return tree.segments_hit(
        p, q, lambda qi, pi: segment_box_pairs_hit(lo[pi], hi[pi], p[qi], q[qi])
    )


def _random_boxes(rng, n, dim):
    lo = rng.uniform(-10, 10, size=(n, dim))
    return lo, lo + rng.uniform(0, 3, size=(n, dim))


def _random_segments(rng, n, dim):
    """Random segments with zero-length and axis-parallel ones mixed in."""
    p = rng.uniform(-11, 11, size=(n, dim))
    q = rng.uniform(-11, 11, size=(n, dim))
    q[: n // 8] = p[: n // 8]
    q[n // 8 : n // 4, 0] = p[n // 8 : n // 4, 0]
    return p, q


class TestTraversal:
    """The tree walk against the brute-force reference scan, exactly."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("leaf_size", [1, 3])
    @pytest.mark.parametrize("n", [1, 5, 37, 100, 257])
    def test_leaf_sizes_and_counts(self, n, leaf_size, dim):
        rng = np.random.default_rng(100 * n + 10 * leaf_size + dim)
        lo, hi = _random_boxes(rng, n, dim)
        tree = BVH(lo, hi, leaf_size=leaf_size)
        corners = np.where(rng.random((n, dim)) < 0.5, lo, hi)
        pts = np.vstack([rng.uniform(-11, 11, size=(200, dim)), corners])
        np.testing.assert_array_equal(
            _tree_points_hit(tree, lo, hi, pts), points_hit_boxes(lo, hi, pts)
        )
        p, q = _random_segments(rng, 160, dim)
        np.testing.assert_array_equal(
            _tree_segments_hit(tree, lo, hi, p, q), segments_hit_boxes(lo, hi, p, q)
        )

    @pytest.mark.parametrize("leaf_size", [1, 3])
    def test_hits_in_leaves_at_different_depths(self, leaf_size):
        """One batch whose queries are decided at leaves of different
        depths: a shallow hit drops out while deeper pairs keep going."""
        n = 25  # leaves sit at two depths for leaf_size 1 and 3
        rng = np.random.default_rng(leaf_size)
        # Disjoint unit boxes on a line, so each center hits one box only.
        lo = np.column_stack([3.0 * np.arange(n), np.zeros(n)]) + rng.uniform(0, 1, (n, 2))
        hi = lo + 1.0
        tree = BVH(lo, hi, leaf_size=leaf_size)
        depths = _node_depths(tree)
        leaf_depth = np.empty(n, dtype=np.int64)
        for ni in np.flatnonzero(tree.node_left < 0):
            s = tree.node_start[ni]
            leaf_depth[tree.prim_index[s : s + tree.node_count[ni]]] = depths[ni]
        assert len(set(leaf_depth.tolist())) >= 2
        centers = 0.5 * (lo + hi)
        misses = centers + np.array([1.5, 0.0])  # in the gaps between boxes
        pts = rng.permutation(np.vstack([centers, misses]))
        got = _tree_points_hit(tree, lo, hi, pts)
        np.testing.assert_array_equal(got, points_hit_boxes(lo, hi, pts))
        assert got.sum() == n
        # Segments across every box, and ones inside a single box.
        p = centers - np.array([0.0, 2.0])
        q = centers + np.array([0.0, 2.0])
        q[::2] = centers[::2] + 0.25
        np.testing.assert_array_equal(
            _tree_segments_hit(tree, lo, hi, p, q), segments_hit_boxes(lo, hi, p, q)
        )
        assert _tree_segments_hit(tree, lo, hi, p, q).all()

    def test_cluttered_spheres_points_and_segments(self):
        data = cluttered_spheres(500, seed=2)
        c, r = data.sph_center, data.sph_radius
        rng = np.random.default_rng(11)
        u = rng.normal(size=c.shape)
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        axis = np.zeros_like(c)
        axis[np.arange(len(c)), rng.integers(0, 3, len(c))] = 1.0
        on_axis = c + r[:, None] * axis  # squared distance often == r**2 exactly
        surface = c + r[:, None] * u
        outside = np.nextafter(surface, surface + u)
        pts = np.vstack([rng.uniform(-10, 10, size=(300, 3)), on_axis, surface, outside])
        assert (np.einsum("ij,ij->i", on_axis - c, on_axis - c) == r**2).any()
        np.testing.assert_array_equal(BVH_K.points_free(data, pts), REF.points_free(data, pts))
        p = rng.uniform(-10, 10, size=(len(c), 3))
        for q in (on_axis, surface, outside, p):  # last: zero-length
            np.testing.assert_array_equal(
                BVH_K.segments_free(data, p, q), REF.segments_free(data, p, q)
            )

    @pytest.mark.parametrize("rows", [0, 1])
    def test_empty_and_single_row_batches(self, rows):
        data, _, _, _ = _world_from_script((3, 40, 10, 3))
        rng = np.random.default_rng(rows)
        for _ in range(20):
            pts = rng.uniform(-10, 10, size=(rows, 3))
            q = rng.uniform(-10, 10, size=(rows, 3))
            got = BVH_K.points_free(data, pts)
            assert got.shape == (rows,)
            np.testing.assert_array_equal(got, REF.points_free(data, pts))
            got = BVH_K.segments_free(data, pts, q)
            assert got.shape == (rows,)
            np.testing.assert_array_equal(got, REF.segments_free(data, pts, q))


# -- snapshot caching & invalidation ---------------------------------------


class TestInvalidation:
    def test_tree_cached_on_snapshot(self):
        env = Environment(
            AABB(np.zeros(3), 10 * np.ones(3)),
            [AABB(np.ones(3), 2 * np.ones(3))],
            kernel_backend="bvh",
        )
        pts = np.array([[1.5, 1.5, 1.5]])
        env.points_in_collision(pts)
        data = env.kernel_data()
        trees = getattr(data, _CACHE_ATTR)
        first = trees["box"]
        env.points_in_collision(pts)
        assert getattr(env.kernel_data(), _CACHE_ATTR)["box"] is first

    def test_mutation_invalidates_tree(self):
        """add_obstacle after the BVH is cached: verdicts must track the
        mutated obstacle set, and parity with reference must re-hold."""
        env = Environment(
            AABB(np.zeros(3), 10 * np.ones(3)),
            [AABB(np.ones(3), 2 * np.ones(3))],
            kernel_backend="bvh",
        )
        probe = np.array([[5.0, 5.0, 5.0], [1.5, 1.5, 1.5]])
        before = env.points_in_collision(probe)
        np.testing.assert_array_equal(before, [False, True])
        old_data = env.kernel_data()
        assert getattr(old_data, _CACHE_ATTR)["box"] is not None

        env.add_obstacle(AABB(4 * np.ones(3), 6 * np.ones(3)))
        after = env.points_in_collision(probe)
        np.testing.assert_array_equal(after, [True, True])
        # Fresh snapshot, fresh tree — the stale one is unreachable.
        new_data = env.kernel_data()
        assert new_data is not old_data
        assert getattr(new_data, _CACHE_ATTR)["box"] is not getattr(old_data, _CACHE_ATTR)["box"]

    def test_post_mutation_parity_random_worlds(self):
        rng = np.random.default_rng(9)
        env_b = Environment(AABB(np.zeros(3), 10 * np.ones(3)), kernel_backend="bvh")
        env_r = Environment(AABB(np.zeros(3), 10 * np.ones(3)))
        for round_ in range(4):
            lo = rng.uniform(0, 9, size=3)
            box = AABB(lo, lo + rng.uniform(0.1, 2, size=3))
            env_b.add_obstacle(box)
            env_r.add_obstacle(box)
            pts = rng.uniform(-1, 11, size=(80, 3))
            p = rng.uniform(0, 10, size=(40, 3))
            q = rng.uniform(0, 10, size=(40, 3))
            np.testing.assert_array_equal(
                env_b.points_in_collision(pts), env_r.points_in_collision(pts)
            )
            np.testing.assert_array_equal(
                env_b.segments_in_collision(p, q), env_r.segments_in_collision(p, q)
            )


# -- end-to-end wiring ------------------------------------------------------


class TestEndToEnd:
    def test_registered(self):
        assert "bvh" in available_backends()
        assert isinstance(get_backend("bvh"), BVHKernels)

    def test_execution_policy_accepts_bvh(self):
        ExecutionPolicy(kernel_backend="bvh").validate()

    def test_plan_roadmap_identical_to_reference(self):
        from repro import PlanRequest, plan

        wl = WorkloadSpec(num_regions=8, samples_per_region=6, environment="mixed")
        ref = plan(PlanRequest(workload=wl, execution=ExecutionPolicy(num_pes=2)))
        bvh = plan(
            PlanRequest(
                workload=wl,
                execution=ExecutionPolicy(num_pes=2, kernel_backend="bvh"),
            )
        )
        assert bvh.roadmap.num_vertices == ref.roadmap.num_vertices
        assert sorted(bvh.roadmap.edges()) == sorted(ref.roadmap.edges())
        ids_b, cfg_b = bvh.roadmap.configs_array()
        ids_r, cfg_r = ref.roadmap.configs_array()
        np.testing.assert_array_equal(ids_b, ids_r)
        np.testing.assert_array_equal(cfg_b, cfg_r)

    def test_build_engine_frozen_bit_identical(self):
        from repro.service.cache import build_engine

        spec = WorkloadSpec(num_regions=8, samples_per_region=6, environment="mixed")
        ref = build_engine(spec).frozen
        bvh = build_engine(spec, kernels="bvh").frozen
        np.testing.assert_array_equal(bvh.configs, ref.configs)
        np.testing.assert_array_equal(bvh.ids, ref.ids)
        np.testing.assert_array_equal(bvh.indptr, ref.indptr)
        np.testing.assert_array_equal(bvh.indices, ref.indices)
        np.testing.assert_array_equal(bvh.weights, ref.weights)

    def test_cache_key_isolates_bvh(self):
        from repro.service.cache import RoadmapCache

        spec = WorkloadSpec(num_regions=6, samples_per_region=4)
        plain = RoadmapCache()
        bvh = RoadmapCache(kernels="bvh")
        assert plain._key_for(spec) != bvh._key_for(spec)
        assert bvh._key_for(spec).endswith("|kernels=bvh")

    def test_environment_backend_roundtrip(self):
        env = Environment(AABB(np.zeros(2), np.ones(2)))
        env.set_kernel_backend("bvh")
        assert env.kernel_backend.name == "bvh"
