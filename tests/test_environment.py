"""Tests for the workspace environment and collision checking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import AABB, Environment, by_name
from repro.geometry import environments as envs


class TestEnvironmentBasics:
    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Environment(AABB([0, 0], [1, 1]), [AABB([0, 0, 0], [1, 1, 1])])

    def test_blocked_fraction(self):
        env = Environment(AABB([0, 0], [10, 10]), [AABB([0, 0], [5, 5])])
        assert env.blocked_fraction() == pytest.approx(0.25)

    def test_free_volume_of_region(self):
        env = Environment(AABB([0, 0], [10, 10]), [AABB([0, 0], [5, 5])])
        assert env.free_volume(AABB([0, 0], [5, 5])) == 0.0
        assert env.free_volume(AABB([5, 5], [10, 10])) == 25.0
        assert env.free_volume(AABB([0, 0], [10, 10])) == 75.0

    def test_obstacle_volume_clips_to_region(self):
        env = Environment(AABB([0, 0], [10, 10]), [AABB([-5, -5], [5, 5])])
        assert env.obstacle_volume() == pytest.approx(25.0)

    def test_pairwise_overlap_correction(self):
        env = Environment(
            AABB([0, 0], [10, 10]),
            [AABB([0, 0], [4, 4]), AABB([2, 2], [6, 6])],
        )
        # 16 + 16 - 4 overlap = 28.
        assert env.obstacle_volume() == pytest.approx(28.0)

    def test_add_obstacle_updates_arrays(self, box_env):
        n = box_env.num_obstacles
        box_env.add_obstacle(AABB([-4.0, 3.0], [-3.0, 4.0]))
        assert box_env.num_obstacles == n + 1
        assert bool(box_env.points_in_collision(np.array([-3.5, 3.5])))


class TestPointCollision:
    def test_inside_obstacle(self, box_env):
        assert bool(box_env.points_in_collision(np.array([0.0, 0.0])))

    def test_free_point(self, box_env):
        assert box_env.point_free(np.array([-3.0, -3.0]))

    def test_out_of_bounds_is_collision(self, box_env):
        assert bool(box_env.points_in_collision(np.array([10.0, 0.0])))

    def test_batch_matches_scalar(self, box_env, rng):
        pts = rng.uniform(-6, 6, size=(256, 2))
        batch = box_env.points_in_collision(pts)
        scalar = np.array([bool(box_env.points_in_collision(p)) for p in pts])
        assert np.array_equal(batch, scalar)

    def test_counters_accumulate(self, box_env):
        box_env.counters.reset()
        box_env.points_in_collision(np.zeros((10, 2)))
        assert box_env.counters.point_checks == 10 * box_env.num_obstacles


class TestSegmentCollision:
    def test_segment_through_obstacle(self, box_env):
        assert box_env.segment_in_collision(np.array([-3.0, 0.0]), np.array([3.0, 0.0]))

    def test_segment_in_free_space(self, box_env):
        assert not box_env.segment_in_collision(np.array([-4.0, -4.0]), np.array([4.0, -4.0]))

    def test_segment_leaving_bounds(self, box_env):
        assert box_env.segment_in_collision(np.array([-4.0, -4.0]), np.array([-7.0, -4.0]))

    def test_batch_matches_scalar(self, box_env, rng):
        p = rng.uniform(-5, 5, size=(128, 2))
        q = rng.uniform(-5, 5, size=(128, 2))
        batch = box_env.segments_in_collision(p, q)
        scalar = np.array([box_env.segment_in_collision(a, b) for a, b in zip(p, q)])
        assert np.array_equal(batch, scalar)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_segment_with_colliding_endpoint_collides(self, seed):
        env = Environment(
            AABB([-5.0, -5.0], [5.0, 5.0]),
            [AABB([-1.0, -1.0], [1.0, 1.0]), AABB([2.0, 2.0], [4.0, 4.0])],
        )
        rng = np.random.default_rng(seed)
        p = np.array([0.0, 0.0])  # inside the first obstacle
        q = rng.uniform(-5, 5, 2)
        assert env.segment_in_collision(p, q)


class TestRays:
    def test_ray_hits_obstacle(self, box_env):
        d = box_env.ray_free_distance(np.array([-3.0, 0.0]), np.array([1.0, 0.0]), 100.0)
        assert d == pytest.approx(2.0)

    def test_ray_exits_workspace(self, box_env):
        d = box_env.ray_free_distance(np.array([-3.0, -3.0]), np.array([-1.0, 0.0]), 100.0)
        assert d == pytest.approx(2.0)

    def test_ray_capped_by_max_dist(self, box_env):
        d = box_env.ray_free_distance(np.array([-3.0, -3.0]), np.array([1.0, 0.0]), 1.5)
        assert d == pytest.approx(1.5)

    def test_zero_direction_raises(self, box_env):
        with pytest.raises(ValueError):
            box_env.ray_free_distance(np.zeros(2), np.zeros(2), 1.0)


def _ray_box_enter_oracle(origin, u, lo, hi):
    """Scalar per-box slab test: parameter t >= 0 where the ray first
    enters [lo, hi], None if it misses."""
    t0, t1 = -np.inf, np.inf
    for i in range(origin.shape[0]):
        if u[i] == 0.0:
            if origin[i] < lo[i] or origin[i] > hi[i]:
                return None
        else:
            ta = (lo[i] - origin[i]) / u[i]
            tb = (hi[i] - origin[i]) / u[i]
            if ta > tb:
                ta, tb = tb, ta
            t0 = max(t0, ta)
            t1 = min(t1, tb)
            if t0 > t1:
                return None
    if t1 < 0.0:
        return None
    return max(t0, 0.0)


def _ray_free_distance_oracle(env, origin, direction, max_dist):
    """The scalar box-by-box ray probe the vectorised one must equal."""
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    u = direction / np.linalg.norm(direction)
    t1 = np.inf
    for i in range(origin.shape[0]):
        if u[i] > 0.0:
            t1 = min(t1, (env.bounds.hi[i] - origin[i]) / u[i])
        elif u[i] < 0.0:
            t1 = min(t1, (env.bounds.lo[i] - origin[i]) / u[i])
    best = min(max_dist, max(t1, 0.0))
    for lo, hi in zip(env._obs_lo, env._obs_hi):
        t_enter = _ray_box_enter_oracle(origin, u, lo, hi)
        if t_enter is not None and 0.0 <= t_enter < best:
            best = t_enter
    return max(best, 0.0)


class TestRayProbeOracle:
    """``ray_free_distance`` equals the scalar per-box loop exactly."""

    def _check(self, env, origin, direction, max_dist):
        before = env.counters.segment_checks
        got = env.ray_free_distance(origin, direction, max_dist)
        assert env.counters.segment_checks - before == max(1, env.num_obstacles)
        want = _ray_free_distance_oracle(env, origin, direction, max_dist)
        assert got == want, (origin, direction, max_dist, got, want)
        return got

    @pytest.mark.parametrize("seed", range(4))
    def test_random_rays_mixed30(self, seed):
        env = envs.mixed_30_env()
        rng = np.random.default_rng(seed)
        for _ in range(200):
            origin = rng.uniform(env.bounds.lo, env.bounds.hi)
            direction = rng.normal(size=3)
            self._check(env, origin, direction, float(rng.uniform(0.5, 30.0)))

    def test_axis_parallel_rays(self):
        env = envs.mixed_30_env()
        rng = np.random.default_rng(5)
        for _ in range(100):
            origin = rng.uniform(env.bounds.lo, env.bounds.hi)
            direction = np.zeros(3)
            direction[rng.integers(3)] = rng.choice([-1.0, 1.0])
            if rng.random() < 0.5:  # two moving axes, one fixed
                direction[rng.integers(3)] = rng.normal()
            if not direction.any():
                continue
            self._check(env, origin, direction, 25.0)

    def test_origins_on_faces_edges_corners(self):
        env = Environment(
            AABB([-5.0, -5.0, -5.0], [5.0, 5.0, 5.0]),
            [AABB([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]), AABB([2.0, 2.0, 2.0], [4.0, 4.0, 4.0])],
        )
        rng = np.random.default_rng(9)
        points = [
            [1.0, 0.0, 0.0], [-1.0, 0.5, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0],
            [2.0, 3.0, 3.0], [4.0, 4.0, 4.0], [5.0, 0.0, 0.0], [-5.0, -5.0, -5.0],
        ]
        for p in points:
            for direction in np.vstack([np.eye(3), -np.eye(3), rng.normal(size=(12, 3))]):
                self._check(env, np.array(p), direction, 20.0)

    def test_boxes_behind_origin_and_max_dist_cutoffs(self):
        env = Environment(
            AABB([-10.0, -10.0], [10.0, 10.0]),
            [AABB([-6.0, -1.0], [-4.0, 1.0]), AABB([3.0, -1.0], [4.0, 1.0])],
        )
        origin = np.zeros(2)
        # Box behind: the ray toward +x only sees the box at x = 3.
        assert self._check(env, origin, np.array([1.0, 0.0]), 100.0) == 3.0
        # Cut-offs below, at and beyond the hit distance.
        for max_dist in (0.0, 1.0, 2.999, 3.0, 3.5, 100.0):
            self._check(env, origin, np.array([1.0, 0.0]), max_dist)
            self._check(env, origin, np.array([-1.0, 0.0]), max_dist)
        # Negative cut-off clamps to zero.
        assert self._check(env, origin, np.array([1.0, 1.0]), -1.0) == 0.0

    def test_obstacle_free_environment(self):
        env = Environment(AABB([-2.0, -2.0], [2.0, 2.0]), [])
        assert self._check(env, np.zeros(2), np.array([1.0, 0.0]), 10.0) == 2.0


class TestBoxObstacleRelation:
    def test_free(self, box_env):
        assert box_env.box_obstacle_relation(AABB([-4, -4], [-3, -3])) == "free"

    def test_blocked(self, box_env):
        assert box_env.box_obstacle_relation(AABB([-0.5, -0.5], [0.5, 0.5])) == "blocked"

    def test_boundary(self, box_env):
        assert box_env.box_obstacle_relation(AABB([0.5, 0.5], [1.5, 1.5])) == "boundary"


class TestSampling:
    def test_sample_free_avoids_obstacles(self, box_env, rng):
        pts = box_env.sample_free(rng, 100)
        assert pts.shape[0] == 100
        assert not box_env.points_in_collision(pts).any()

    def test_sample_free_in_blocked_region_returns_empty(self, box_env, rng):
        blocked = AABB([-0.9, -0.9], [0.9, 0.9])
        pts = box_env.sample_free(rng, 10, within=blocked, max_tries=4)
        assert pts.shape[0] == 0


class TestBenchmarkEnvironments:
    @pytest.mark.parametrize(
        "name,expected",
        [("med-cube", 0.24), ("small-cube", 0.06), ("free", 0.0)],
    )
    def test_cube_blocked_fractions(self, name, expected):
        env = by_name(name)
        assert env.blocked_fraction() == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize("name,target", [("mixed", 0.60), ("mixed-30", 0.30)])
    def test_cluttered_blocked_fractions(self, name, target):
        env = by_name(name)
        assert abs(env.blocked_fraction() - target) < 0.08

    def test_cluttered_obstacles_disjoint(self):
        env = envs.mixed_env()
        obs = env.obstacles
        for i in range(len(obs)):
            for j in range(i + 1, len(obs)):
                assert obs[i].intersection_volume(obs[j]) == 0.0

    def test_model_2d_obstacle_centred(self):
        env = envs.model_2d(0.25)
        ob = env.obstacles[0]
        assert np.allclose(ob.center, env.bounds.center)
        assert env.blocked_fraction() == pytest.approx(0.25)

    def test_walls_leave_a_passage(self):
        env = envs.walls_env(num_walls=3)
        # Gaps exist: some x-sweep at the gap heights passes every wall.
        assert env.free_volume() > 0.5 * env.bounds.volume()

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            by_name("no-such-env")

    def test_walls45_differs_from_walls(self):
        a = envs.walls_env(num_walls=3)
        b = envs.by_name("walls-45", num_walls=3)
        assert a.num_obstacles == b.num_obstacles
        same = all(
            np.allclose(x.lo, y.lo) and np.allclose(x.hi, y.hi)
            for x, y in zip(a.obstacles, b.obstacles)
        )
        assert not same
