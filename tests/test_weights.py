"""Tests for region weight estimators."""

import numpy as np
import pytest

from repro.core import (
    prm_free_volume_weights,
    prm_sample_count_weights,
    rrt_k_rays_weights,
    uniform_weights,
)
from repro.geometry import AABB, Environment, model_2d
from repro.geometry.environments import mixed_30_env
from repro.subdivision import RadialSubdivision, UniformSubdivision


class TestUniformWeights:
    def test_all_ones(self):
        sub = UniformSubdivision(AABB([0, 0], [1, 1]), 9)
        w = uniform_weights(sub.graph)
        assert all(v == 1.0 for v in w.values())


class TestSampleCountWeights:
    def test_counts_match_locate(self, rng):
        sub = UniformSubdivision(AABB([-1, -1], [1, 1]), 16)
        pts = rng.uniform(-1, 1, size=(200, 2))
        w = prm_sample_count_weights(sub, pts)
        assert sum(w.values()) == 200
        for rid, count in w.items():
            expected = int(np.sum(sub.locate_batch(pts) == rid))
            assert count == expected

    def test_empty_samples(self):
        sub = UniformSubdivision(AABB([0, 0], [1, 1]), 4)
        w = prm_sample_count_weights(sub, np.empty((0, 2)))
        assert all(v == 0.0 for v in w.values())


class TestFreeVolumeWeights:
    def test_model_environment_totals(self):
        env = model_2d(0.25)
        sub = UniformSubdivision(env.bounds, 64, overlap=0.0)
        w = prm_free_volume_weights(sub, env)
        assert sum(w.values()) == pytest.approx(env.free_volume(), rel=1e-6)

    def test_blocked_regions_zero(self):
        env = model_2d(0.25)
        sub = UniformSubdivision(env.bounds, 64, overlap=0.0)
        w = prm_free_volume_weights(sub, env)
        center = sub.locate(np.zeros(2))
        assert w[center] == pytest.approx(0.0, abs=1e-9)


class TestKRaysWeights:
    def test_free_env_weights_near_radius(self):
        env = Environment(AABB([-5, -5, -5], [5, 5, 5]), [])
        radial = RadialSubdivision(np.zeros(3), 4.0, 32, rng=np.random.default_rng(0))
        w, casts = rrt_k_rays_weights(radial, env, k_rays=4, rng=np.random.default_rng(1))
        assert casts == 32 * 4
        assert all(3.0 < v <= 4.0 + 1e-9 for v in w.values())

    def test_obstacle_shortens_rays(self):
        env = Environment(
            AABB([-5, -5, -5], [5, 5, 5]), [AABB([1.0, -5, -5], [2.0, 5, 5])]
        )
        radial = RadialSubdivision(np.zeros(3), 4.0, 64, rng=np.random.default_rng(0))
        w, _ = rrt_k_rays_weights(radial, env, k_rays=8, rng=np.random.default_rng(1))
        toward_wall = [w[r] for r in radial.graph.region_ids()
                       if radial.region_of(r).direction[0] > 0.8]
        away = [w[r] for r in radial.graph.region_ids()
                if radial.region_of(r).direction[0] < -0.8]
        assert np.mean(toward_wall) < np.mean(away)

    def test_invalid_k_rays(self):
        env = Environment(AABB([-1, -1], [1, 1]), [])
        radial = RadialSubdivision(np.zeros(2), 0.5, 4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            rrt_k_rays_weights(radial, env, k_rays=0)

    def test_mixed30_weights_pinned(self):
        # Exact weights and ray charge of the scalar per-box probe on
        # mixed-30 (125 boxes), pinned so the vectorised probe is held to
        # float equality on every region.
        env = mixed_30_env()
        root = np.array([float.fromhex(h) for h in (
            "0x1.d4f6ab455cb80p-3", "-0x1.e178cda5c96f4p-1", "-0x1.9239b664a575cp-1",
        )])
        radial = RadialSubdivision(root, 6.0, 16, rng=np.random.default_rng(7))
        w, casts = rrt_k_rays_weights(radial, env, k_rays=8, rng=np.random.default_rng(11))
        assert casts == 128
        assert env.counters.segment_checks == 128 * 125
        assert {rid: v.hex() for rid, v in w.items()} == {
            0: "0x1.dc3a35e179bd1p-4", 1: "0x1.2e08128e4ff10p-3",
            2: "0x1.88bcf1c2fd35bp-3", 3: "0x1.5ca515973892cp+1",
            4: "0x1.25c1647e53580p-1", 5: "0x1.42359b6594efep-2",
            6: "0x1.9d18067f4beccp-3", 7: "0x1.071af424cc287p-1",
            8: "0x1.362ca8931949dp-1", 9: "0x1.ac55d22a508eep+0",
            10: "0x1.ff07533804b46p+1", 11: "0x1.a59e39f163539p+1",
            12: "0x1.3f039205bfc89p+1", 13: "0x1.0d8ba02efcd0bp+2",
            14: "0x1.88468388baa41p+1", 15: "0x1.7a0f60337d470p+1",
        }
