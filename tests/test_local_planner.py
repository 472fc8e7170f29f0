"""Tests for local planners (single and batched)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cspace import BinaryLocalPlanner, EuclideanCSpace, StraightLinePlanner
from repro.cspace.rigid_body import RigidBodyCSpace, box_body_points
from repro.geometry.environments import mixed_30_env


class TestStraightLinePlanner:
    def test_valid_free_segment(self, box_cspace):
        lp = StraightLinePlanner(resolution=0.1)
        res = lp(box_cspace, np.array([-4.0, -4.0]), np.array([4.0, -4.0]))
        assert res.valid
        assert res.length == pytest.approx(8.0)
        assert res.checks > 0

    def test_blocked_segment(self, box_cspace):
        lp = StraightLinePlanner(resolution=0.1)
        res = lp(box_cspace, np.array([-3.0, 0.0]), np.array([3.0, 0.0]))
        assert not res.valid

    def test_zero_length_segment(self, box_cspace):
        lp = StraightLinePlanner(resolution=0.1)
        a = np.array([-4.0, -4.0])
        res = lp(box_cspace, a, a)
        assert res.valid and res.checks == 0 and res.length == 0.0

    def test_short_segment_no_checks(self, box_cspace):
        lp = StraightLinePlanner(resolution=1.0)
        res = lp(box_cspace, np.array([-4.0, -4.0]), np.array([-3.5, -4.0]))
        assert res.valid and res.checks == 0

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            StraightLinePlanner(resolution=0.0)

    def test_batch_matches_single(self, box_cspace, rng):
        lp = StraightLinePlanner(resolution=0.2)
        starts = rng.uniform(-4.5, 4.5, (64, 2))
        ends = rng.uniform(-4.5, 4.5, (64, 2))
        ok, checks, lengths = lp.batch_pairs(box_cspace, starts, ends)
        singles = [lp(box_cspace, a, b) for a, b in zip(starts, ends)]
        assert np.array_equal(ok, [s.valid for s in singles])
        assert checks == sum(s.checks for s in singles)
        assert np.allclose(lengths, [s.length for s in singles])

    def test_batch_empty_total(self, box_cspace):
        lp = StraightLinePlanner(resolution=10.0)
        starts = np.array([[-4.0, -4.0]])
        ends = np.array([[-3.9, -4.0]])
        ok, checks, lengths = lp.batch_pairs(box_cspace, starts, ends)
        assert ok.all() and checks == 0


def _assert_exact_twin(lp, cspace, starts, ends):
    """``batch_pairs_exact`` equals looping the scalar planner, bit for bit."""
    ok, checks, lengths = lp.batch_pairs_exact(cspace, starts, ends)
    for i, (a, b) in enumerate(zip(starts, ends)):
        res = lp(cspace, a, b)
        assert lengths[i] == float(cspace.distance(a, b)) == res.length
        assert checks[i] == res.checks
        assert ok[i] == res.valid
    return lengths


class TestBatchPairsExact:
    def test_lengths_equal_scalar_distance_on_random_pairs(self):
        cspace = EuclideanCSpace(mixed_30_env())
        rng = np.random.default_rng(0)
        starts = rng.uniform(-10, 10, (400, 3))
        ends = starts + rng.normal(size=(400, 3)) * rng.uniform(0, 3, (400, 1))
        _assert_exact_twin(StraightLinePlanner(resolution=0.25), cspace, starts, ends)

    def test_rrt_extensions_on_the_step_boundary(self):
        # RRT extensions are step_size long, so dist / resolution sits on
        # an integer and the last ulp of the length decides the ceiling.
        cspace = EuclideanCSpace(mixed_30_env())
        rng = np.random.default_rng(1)
        near = rng.uniform(-10, 10, (2000, 3))
        rand = rng.uniform(-10, 10, (2000, 3))
        dist = np.array([cspace.distance(a, b) for a, b in zip(near, rand)])
        new = cspace.interpolate_pairs(near, rand, np.minimum(0.5 / dist, 1.0))
        lp = StraightLinePlanner(resolution=0.25)
        lengths = _assert_exact_twin(lp, cspace, near, new)
        # The cheaper row norm lands on the other side of the ceiling for
        # some of these, so the check above is not vacuous.
        norm = np.linalg.norm(new - near, axis=1)
        assert np.any(np.ceil(norm / 0.25) != np.ceil(lengths / 0.25))

    def test_rigid_body_space_keeps_scalar_metric(self, box_env):
        cspace = RigidBodyCSpace(box_env, box_body_points(np.array([0.2, 0.1])), 0.5)
        rng = np.random.default_rng(2)
        starts = rng.uniform(cspace.bounds.lo, cspace.bounds.hi, (150, 3))
        ends = rng.uniform(cspace.bounds.lo, cspace.bounds.hi, (150, 3))
        _assert_exact_twin(StraightLinePlanner(resolution=0.25), cspace, starts, ends)

    def test_empty_batch(self, box_cspace):
        ok, checks, lengths = StraightLinePlanner(0.1).batch_pairs_exact(
            box_cspace, np.empty((0, 2)), np.empty((0, 2))
        )
        assert ok.shape == checks.shape == lengths.shape == (0,)


class TestBinaryLocalPlanner:
    def test_agrees_with_straight_line_on_validity(self, box_cspace, rng):
        blp = BinaryLocalPlanner(resolution=0.05)
        slp = StraightLinePlanner(resolution=0.05)
        for _ in range(64):
            a = rng.uniform(-4.5, 4.5, 2)
            b = rng.uniform(-4.5, 4.5, 2)
            vb = blp(box_cspace, a, b).valid
            vs = slp(box_cspace, a, b).valid
            # Binary subdivision checks a slightly different point set; on
            # clearly-blocked segments they must agree.
            if box_cspace.env.segments_in_collision(a[None], b[None])[0]:
                assert not vb or not vs

    def test_fails_fast_on_blocked(self, box_cspace):
        blp = BinaryLocalPlanner(resolution=0.01)
        slp = StraightLinePlanner(resolution=0.01)
        a, b = np.array([-3.0, 0.0]), np.array([3.0, 0.0])
        rb = blp(box_cspace, a, b)
        rs = slp(box_cspace, a, b)
        assert not rb.valid
        assert rb.checks < rs.checks  # midpoint-first fails immediately


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_exact_segment_check_implies_lp_verdict(seed):
    """Property: if the exact swept test says free, the sampled local
    planner must also say free (its checks are a subset of the segment)."""
    from repro.cspace import EuclideanCSpace
    from repro.geometry import AABB, Environment

    env = Environment(
        AABB([-5.0, -5.0], [5.0, 5.0]),
        [AABB([-1.0, -1.0], [1.0, 1.0]), AABB([2.0, 2.0], [4.0, 4.0])],
    )
    cspace = EuclideanCSpace(env)
    rng = np.random.default_rng(seed)
    lp = StraightLinePlanner(resolution=0.1)
    a = rng.uniform(-4.5, 4.5, 2)
    b = rng.uniform(-4.5, 4.5, 2)
    exact_free = not env.segments_in_collision(a[None], b[None])[0]
    if exact_free:
        assert lp(cspace, a, b).valid


class TestBatchPairsChunked:
    def test_same_verdicts_fewer_checks(self, box_cspace, rng):
        lp = StraightLinePlanner(resolution=0.25)
        starts = rng.uniform(-5, 5, size=(60, 2))
        ends = rng.uniform(-5, 5, size=(60, 2))
        ok_full, checks_full, len_full = lp.batch_pairs(box_cspace, starts, ends)
        ok_ff, checks_ff, len_ff = lp.batch_pairs_chunked(box_cspace, starts, ends, chunk=4)
        np.testing.assert_array_equal(ok_full, ok_ff)
        np.testing.assert_allclose(len_full, len_ff)
        assert checks_ff <= checks_full
        # The fixture environment blocks some of these segments, so the
        # fail-fast variant must actually save work here.
        assert not ok_full.all()
        assert checks_ff < checks_full

    def test_identical_on_all_free(self, box_cspace):
        lp = StraightLinePlanner(resolution=0.25)
        starts = np.full((5, 2), -4.5) + np.arange(5)[:, None] * 0.01
        ends = starts + [[0.3, 0.0]] * 5
        ok_full, checks_full, _ = lp.batch_pairs(box_cspace, starts, ends)
        ok_ff, checks_ff, _ = lp.batch_pairs_chunked(box_cspace, starts, ends)
        assert ok_full.all() and ok_ff.all()
        assert checks_full == checks_ff


class TestBinaryVsStraightLine:
    def test_exactly_free_segments_accepted_by_both(self, box_cspace, rng):
        """Bisection and the uniform sweep probe different point sets, so
        their verdicts may differ near obstacle boundaries — but both only
        probe points *on* the segment, so an exactly collision-free
        segment must be accepted by both, at matching length and with the
        sweep's check count as one per interior step."""
        sl = StraightLinePlanner(resolution=0.25)
        bi = BinaryLocalPlanner(resolution=0.25)
        free = 0
        for _ in range(120):
            a = rng.uniform(-5, 5, size=2)
            b = rng.uniform(-5, 5, size=2)
            if box_cspace.env.segments_in_collision(a[None], b[None])[0]:
                continue
            free += 1
            rs, rb = sl(box_cspace, a, b), bi(box_cspace, a, b)
            assert rs.valid and rb.valid
            assert rs.length == pytest.approx(rb.length)
        assert free > 10
