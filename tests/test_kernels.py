"""Kernel-backend suite: registry behaviour, the SoA snapshot and its
caching on ``Environment``, and the reference-vs-fast equivalence battery.

The equivalence contract is two-tier (mirroring the bench gates):

* ``reference`` is bit-exact with the historical inline expressions —
  covered implicitly by the rest of the test suite running on the
  default backend, and explicitly by the ``_dist_block`` parity test.
* fast backends (``fast32``, and ``numba`` when installed) must agree
  with the reference on every *stable* query: one whose reference
  verdict survives inflating/shrinking all obstacle faces by eps
  (:meth:`EnvKernelData.inflated`).  Queries inside the eps boundary
  band may flip under float32 rounding; nothing else may.

Property generation follows the ``test_properties`` pattern: hypothesis
drives when installed, otherwise a seeded stdlib-``random`` sweep runs
the same bodies.
"""

import random

import numpy as np
import pytest

from repro.cspace import EuclideanCSpace
from repro.geometry import AABB, Environment
from repro.kernels import (
    DEFAULT_BACKEND,
    EnvKernelData,
    available_backends,
    get_backend,
    numba_available,
    register,
)
from repro.kernels.base import KernelBackend
from repro.kernels.reference import (
    _PER_AXIS_MIN_CELLS,
    point_box_pairs_hit,
    point_sphere_pairs_hit,
    points_hit_boxes,
    points_hit_spheres,
    segment_box_pairs_hit,
    segment_sphere_pairs_hit,
    segments_hit_boxes,
    segments_hit_spheres,
)
from repro.knn.brute import BruteForceNN

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

FALLBACK_EXAMPLES = 25

#: Decision-boundary guard width for the stable-query contract.
EPS = 1e-6

#: Every fast backend present in this environment.
FAST_BACKENDS = ["fast32"] + (["numba"] if numba_available() else [])


def property_test(strategy_builder, fallback_gen, examples=50):
    """Run ``fn(value)`` over generated values (hypothesis or seeded sweep)."""

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


def _seed_strategy():
    return st.integers(min_value=0, max_value=2**20)


def _seed_fallback(r: random.Random):
    return r.randrange(2**20)


# -- registry ----------------------------------------------------------------


def test_default_backend_is_reference():
    assert DEFAULT_BACKEND == "reference"
    assert get_backend(None).name == "reference"
    assert get_backend().name == "reference"


def test_available_backends_lists_builtins():
    names = available_backends()
    assert "reference" in names and "fast32" in names
    # numba appears iff its import succeeded — no silent half-registration.
    assert ("numba" in names) == numba_available()


def test_unknown_backend_raises_with_listing():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        get_backend("no-such-backend")
    with pytest.raises(ValueError, match="available"):
        get_backend("no-such-backend")


def test_get_backend_caches_singletons_and_passes_instances_through():
    a = get_backend("reference")
    assert get_backend("reference") is a
    assert get_backend(a) is a


def test_register_replaces_and_drops_cached_instance():
    class Dummy(KernelBackend):
        name = "dummy-test"
        dtype = np.float64

        def points_free(self, data, points):  # pragma: no cover - stub
            raise NotImplementedError

        def segments_free(self, data, p, q):  # pragma: no cover - stub
            raise NotImplementedError

        def pairwise_accumulate(self, stored, queries, out):  # pragma: no cover
            raise NotImplementedError

        def knn_block_min(self, stored, queries, k):  # pragma: no cover - stub
            raise NotImplementedError

    register("dummy-test", Dummy)
    try:
        first = get_backend("dummy-test")
        register("dummy-test", Dummy)  # re-register drops the cached instance
        assert get_backend("dummy-test") is not first
    finally:
        from repro import kernels as _k

        _k._FACTORIES.pop("dummy-test", None)
        _k._INSTANCES.pop("dummy-test", None)


def test_numba_absence_degrades_cleanly():
    """Without numba the name is simply unregistered: selection raises the
    ordinary unknown-backend error and nothing else changes."""
    if numba_available():
        assert get_backend("numba").name == "numba"
    else:
        assert "numba" not in available_backends()
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("numba")


# -- EnvKernelData -----------------------------------------------------------


def _small_env():
    return Environment(
        AABB(np.zeros(3), 10.0 * np.ones(3)),
        [AABB(np.array([4.0, 4.0, 4.0]), np.array([6.0, 6.0, 6.0]))],
    )


def test_kernel_data_snapshot_shapes_and_mirrors():
    env = _small_env()
    data = env.kernel_data()
    assert data.dim == 3 and data.num_boxes == 1 and data.num_spheres == 0
    assert data.box_lo.dtype == np.float64 and data.box_lo32.dtype == np.float32
    np.testing.assert_allclose(data.box_center, [[5.0, 5.0, 5.0]])
    np.testing.assert_allclose(data.box_half, [[1.0, 1.0, 1.0]])
    assert data.nbytes > 0


def test_kernel_data_is_cached_and_invalidated_on_mutation():
    env = _small_env()
    first = env.kernel_data()
    assert env.kernel_data() is first  # cached until the world changes
    env.add_obstacle(AABB(np.array([1.0, 1.0, 1.0]), np.array([2.0, 2.0, 2.0])))
    second = env.kernel_data()
    assert second is not first
    assert second.num_boxes == 2


def test_inflated_grows_obstacles_and_shrinks_bounds():
    env = _small_env()
    data = env.kernel_data()
    up = data.inflated(0.5)
    np.testing.assert_allclose(up.box_half, data.box_half + 0.5)
    np.testing.assert_allclose(up.bounds_lo, data.bounds_lo + 0.5)
    np.testing.assert_allclose(up.bounds_hi, data.bounds_hi - 0.5)
    # Shrinking past the half-extent collapses the box to its center.
    down = data.inflated(-5.0)
    np.testing.assert_allclose(down.box_half, 0.0)
    np.testing.assert_allclose(down.box_lo, data.box_center)


def test_from_primitives_accepts_spheres():
    class Ball:
        def __init__(self, center, radius):
            self.center = center
            self.radius = radius

    bounds = AABB(np.zeros(2), np.ones(2) * 10.0)
    data = EnvKernelData.from_primitives(
        bounds, [AABB(np.zeros(2), np.ones(2)), Ball(np.array([5.0, 5.0]), 1.0)]
    )
    assert data.num_boxes == 1 and data.num_spheres == 1
    ref = get_backend("reference")
    free = ref.points_free(data, np.array([[5.0, 5.0], [8.0, 8.0]]))
    assert not free[0] and free[1]  # inside the ball vs open space


# -- property battery: reference vs fast backends ----------------------------


def _make_world(seed: int):
    """A fuzzed mixed box/sphere world plus query points and segments.

    Points and segment endpoints are drawn slightly *outside* the bounds
    too, so the bounds test is part of the contract under fuzz.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    nb = int(rng.integers(0, 6))
    ns = int(rng.integers(0, 4))
    box_lo = rng.uniform(-8.0, 6.0, size=(nb, d))
    box_hi = box_lo + rng.uniform(0.5, 4.0, size=(nb, d))
    data = EnvKernelData(
        bounds_lo=-10.0 * np.ones(d),
        bounds_hi=10.0 * np.ones(d),
        box_lo=box_lo,
        box_hi=box_hi,
        sph_center=rng.uniform(-8.0, 8.0, size=(ns, d)),
        sph_radius=rng.uniform(0.3, 2.5, size=ns),
    )
    pts = rng.uniform(-11.0, 11.0, size=(64, d))
    p = rng.uniform(-11.0, 11.0, size=(32, d))
    q = p + rng.uniform(-4.0, 4.0, size=(32, d))
    return data, pts, p, q


@property_test(_seed_strategy, _seed_fallback)
def test_points_free_matches_reference_on_stable_queries(seed):
    """Fast backends agree with the reference on every point at least eps
    from all decision boundaries (box faces, sphere surfaces, bounds)."""
    data, pts, _p, _q = _make_world(seed)
    ref = get_backend("reference")
    stable = ref.points_free(data.inflated(EPS), pts) == ref.points_free(
        data.inflated(-EPS), pts
    )
    expected = ref.points_free(data, pts)
    for name in FAST_BACKENDS:
        got = get_backend(name).points_free(data, pts)
        assert got.dtype == np.bool_ and got.shape == expected.shape
        assert np.array_equal(got[stable], expected[stable]), name


@property_test(_seed_strategy, _seed_fallback)
def test_segments_free_matches_reference_on_stable_queries(seed):
    data, _pts, p, q = _make_world(seed)
    ref = get_backend("reference")
    stable = ref.segments_free(data.inflated(EPS), p, q) == ref.segments_free(
        data.inflated(-EPS), p, q
    )
    expected = ref.segments_free(data, p, q)
    for name in FAST_BACKENDS:
        got = get_backend(name).segments_free(data, p, q)
        assert got.dtype == np.bool_ and got.shape == expected.shape
        assert np.array_equal(got[stable], expected[stable]), name


@property_test(_seed_strategy, _seed_fallback)
def test_pairwise_accumulate_close_across_backends(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    stored = rng.uniform(-10.0, 10.0, size=(int(rng.integers(1, 40)), d))
    queries = rng.uniform(-10.0, 10.0, size=(int(rng.integers(1, 16)), d))
    expected = np.linalg.norm(queries[:, None, :] - stored[None, :, :], axis=2)
    for name in ["reference"] + FAST_BACKENDS:
        out = np.empty((queries.shape[0], stored.shape[0]))
        get_backend(name).pairwise_accumulate(stored, queries, out)
        rtol = 1e-12 if name in ("reference", "numba") else 1e-4
        np.testing.assert_allclose(out, expected, rtol=rtol, atol=1e-9)


@property_test(_seed_strategy, _seed_fallback)
def test_knn_block_min_matches_reference(seed):
    """Distances within 1e-4 relative; ids identical wherever the
    reference k-th/(k+1)-th gap is clear of float32 rounding."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    n = int(rng.integers(1, 60))
    m = int(rng.integers(1, 12))
    k = int(rng.integers(1, 10))
    stored = rng.uniform(0.0, 10.0, size=(n, d))
    queries = rng.uniform(0.0, 10.0, size=(m, d))
    ref = get_backend("reference")
    ri, rd = ref.knn_block_min(stored, queries, k)
    assert ri.shape == (m, k) and rd.shape == (m, k)  # padded to k columns
    kk = min(k, n)
    assert np.all(np.isfinite(rd[:, :kk])) and np.all(np.isinf(rd[:, kk:]))
    assert np.all(ri[:, kk:] == -1)
    for name in FAST_BACKENDS:
        fi, fd = get_backend(name).knn_block_min(stored, queries, k)
        assert fi.shape == ri.shape and fd.shape == rd.shape
        valid = np.isfinite(rd)
        assert np.array_equal(valid, np.isfinite(fd))
        np.testing.assert_allclose(fd[valid], rd[valid], rtol=1e-4, atol=1e-9)
        if kk < n:
            _ri1, rd1 = ref.knn_block_min(stored, queries, kk + 1)
            gap = rd1[:, kk] - rd1[:, kk - 1]
            tiefree = gap > 1e-4 * np.maximum(rd1[:, kk], 1.0)
        else:
            tiefree = np.ones(m, dtype=bool)  # all points returned: same set
        if name == "numba":  # float64 scalar loops: ids exact everywhere
            assert np.array_equal(fi, ri)
        else:
            assert np.array_equal(np.sort(fi[tiefree]), np.sort(ri[tiefree]))


def test_knn_block_min_pads_when_k_exceeds_store():
    stored = np.array([[0.0, 0.0], [3.0, 4.0]])
    queries = np.array([[0.0, 0.0]])
    for name in ["reference"] + FAST_BACKENDS:
        ids, dists = get_backend(name).knn_block_min(stored, queries, 5)
        assert ids.shape == (1, 5) and dists.shape == (1, 5)
        assert np.all(np.isfinite(dists[0, :2]))
        np.testing.assert_allclose(sorted(dists[0, :2]), [0.0, 5.0], atol=1e-6)
        assert np.all(np.isinf(dists[0, 2:])) and np.all(ids[0, 2:] == -1)


def test_dist_block_static_delegate_is_exact():
    """``BruteForceNN._dist_block`` stays callable as a staticmethod (the
    RRT hot path does so) and stays bit-identical to the norm expression
    it replaced."""
    rng = np.random.default_rng(7)
    stored = rng.uniform(-5.0, 5.0, size=(30, 3))
    queries = rng.uniform(-5.0, 5.0, size=(8, 3))
    out = np.empty((8, 30))
    BruteForceNN._dist_block(stored, queries, out)
    acc = np.zeros((8, 30))
    for j in range(3):
        dd = queries[:, j][:, None] - stored[:, j][None, :]
        acc += dd * dd
    np.testing.assert_array_equal(out, np.sqrt(acc))


# -- Environment / cspace dispatch ------------------------------------------


def test_environment_per_call_kernel_override():
    env = _small_env()
    pts = np.array([[5.0, 5.0, 5.0], [1.0, 1.0, 1.0], [20.0, 0.0, 0.0]])
    expected = env.points_in_collision(pts)
    np.testing.assert_array_equal(expected, [True, False, True])
    for name in FAST_BACKENDS:
        np.testing.assert_array_equal(env.points_in_collision(pts, kernels=name), expected)
        got = env.segments_in_collision(pts[:2], pts[1:], kernels=name)
        np.testing.assert_array_equal(got, env.segments_in_collision(pts[:2], pts[1:]))


def test_environment_set_kernel_backend_changes_default():
    env = _small_env()
    assert env.kernel_backend.name == "reference"
    env.set_kernel_backend("fast32")
    assert env.kernel_backend.name == "fast32"
    pts = np.array([[5.0, 5.0, 5.0], [1.0, 1.0, 1.0]])
    np.testing.assert_array_equal(env.points_in_collision(pts), [True, False])


def test_cspace_kernel_dispatch_and_counters_unchanged():
    """Backend dispatch must not change what the counters charge."""
    env_ref = _small_env()
    env_f32 = _small_env()
    env_f32.set_kernel_backend("fast32")
    cs_ref = EuclideanCSpace(env_ref)
    cs_f32 = EuclideanCSpace(env_f32)
    assert cs_ref.supports_kernels
    pts = np.random.default_rng(3).uniform(0.0, 10.0, size=(40, 3))
    v_ref = cs_ref.valid(pts)
    v_f32 = cs_f32.valid(pts)
    np.testing.assert_array_equal(v_ref, v_f32)
    assert env_ref.counters.point_checks == env_f32.counters.point_checks


def _points_hit_boxes_broadcast(box_lo, box_hi, pts):
    """The ``(n, m, d)`` broadcast containment oracle."""
    return np.all(
        (pts[:, None, :] >= box_lo[None, :, :]) & (pts[:, None, :] <= box_hi[None, :, :]),
        axis=2,
    ).any(axis=1)


def _boundary_points(box_lo, box_hi):
    """``(on, off)``: corners, edge midpoints and face centres of every
    box (the bounds are inclusive), and the same points nudged one ulp
    outward."""
    on = []
    for lo, hi in zip(box_lo, box_hi):
        choices = np.stack([lo, 0.5 * (lo + hi), hi])  # (3, d)
        grid = np.stack(np.meshgrid(*choices.T, indexing="ij"), axis=-1).reshape(-1, lo.size)
        on.append(grid[np.any((grid == lo) | (grid == hi), axis=1)])
    lo = np.vstack([np.broadcast_to(l, p.shape) for l, p in zip(box_lo, on)])
    hi = np.vstack([np.broadcast_to(h, p.shape) for h, p in zip(box_hi, on)])
    on = np.vstack(on)
    off = np.where(on == lo, np.nextafter(on, -np.inf), on)
    off = np.where(on == hi, np.nextafter(on, np.inf), off)
    return on, off


@pytest.mark.parametrize(
    "n_boxes, n_random",
    [(1, 4), (1, 600), (3, 16), (3, 200), (30, 0), (30, 64), (125, 0), (125, 300)],
)
def test_points_hit_boxes_both_forms_match_broadcast(n_boxes, n_random):
    rng = np.random.default_rng(n_boxes * 1000 + n_random)
    lo = rng.integers(-8, 6, (n_boxes, 3)).astype(float)
    hi = lo + rng.integers(0, 4, (n_boxes, 3))  # zero-width slabs included
    on, off = _boundary_points(lo, hi)
    for pts in (rng.uniform(-10, 10, (n_random, 3)), on[:4], off[:4], on, off):
        got = points_hit_boxes(lo, hi, pts)
        np.testing.assert_array_equal(got, _points_hit_boxes_broadcast(lo, hi, pts))
    assert points_hit_boxes(lo, hi, on).all()
    if n_boxes == 1:
        assert not points_hit_boxes(lo, hi, off).any()


def test_points_hit_boxes_parametrisation_spans_the_crossover():
    cells = [m * n for m, n in [(1, 4), (3, 16), (30, 64), (125, 300)]]
    assert min(cells) < _PER_AXIS_MIN_CELLS <= max(cells)


# -- pair tests: query row i against primitive row i -------------------------


def _pair_matrix(pair_test, prim_a, prim_b, *queries):
    """Evaluate ``pair_test`` on every (query, primitive) pair -> ``(n, m)``."""
    n, m = queries[0].shape[0], prim_a.shape[0]
    qi = np.repeat(np.arange(n), m)
    pi = np.tile(np.arange(m), n)
    rows = [x[qi] for x in queries]
    return pair_test(prim_a[pi], prim_b[pi], *rows).reshape(n, m)


def _assert_pairs_match(pair_test, broadcast, prim_a, prim_b, *queries):
    """Every cell equals the broadcast test of its single primitive, and the
    row reduction equals the broadcast test over all primitives."""
    got = _pair_matrix(pair_test, prim_a, prim_b, *queries)
    cells = np.column_stack(
        [broadcast(prim_a[j : j + 1], prim_b[j : j + 1], *queries) for j in range(len(prim_a))]
    ).reshape(got.shape)
    np.testing.assert_array_equal(got, cells)
    np.testing.assert_array_equal(got.any(axis=1), broadcast(prim_a, prim_b, *queries))


def _boxes_for_pairs(seed):
    rng = np.random.default_rng(seed)
    lo = rng.integers(-8, 6, (12, 3)).astype(float)
    hi = lo + rng.integers(0, 4, (12, 3))  # zero-width slabs included
    return rng, lo, hi


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_point_box_pairs_match_broadcast(seed):
    rng, lo, hi = _boxes_for_pairs(seed)
    on, off = _boundary_points(lo, hi)
    for pts in (rng.uniform(-10, 10, (200, 3)), on, off):
        _assert_pairs_match(point_box_pairs_hit, points_hit_boxes, lo, hi, pts)
    assert _pair_matrix(point_box_pairs_hit, lo, hi, on).any(axis=1).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_segment_box_pairs_match_broadcast(seed):
    rng, lo, hi = _boxes_for_pairs(seed)
    on, off = _boundary_points(lo, hi)
    p = rng.uniform(-10, 10, (len(on), 3))
    for a, b in (
        (p, rng.uniform(-10, 10, p.shape)),  # random
        (p, on),  # ends on faces, edges and corners
        (p, off),  # ends one ulp outside them
        (on, on),  # zero-length on the boundary
        (off, off),  # zero-length just outside
        (on, np.where(np.arange(3) == 0, on + 5.0, on)),  # axis-parallel from the boundary
        (off, np.where(np.arange(3) == 1, off - 5.0, off)),  # axis-parallel grazing
    ):
        _assert_pairs_match(segment_box_pairs_hit, segments_hit_boxes, lo, hi, a, b)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_sphere_pairs_match_broadcast(dim):
    rng = np.random.default_rng(dim)
    c = rng.uniform(-5, 5, (15, dim))
    r = rng.uniform(0.1, 2.0, 15)
    u = rng.normal(size=(15, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    axis = np.eye(dim)[rng.integers(0, dim, 15)]
    on_axis = c + r[:, None] * axis
    surface = c + r[:, None] * u
    outside = np.nextafter(surface, surface + u)
    pts = np.vstack([rng.uniform(-8, 8, (100, dim)), on_axis, surface, outside])
    _assert_pairs_match(point_sphere_pairs_hit, points_hit_spheres, c, r, pts)
    p = rng.uniform(-8, 8, pts.shape)
    for q in (rng.uniform(-8, 8, pts.shape), pts, p):  # random, onto surfaces, zero-length
        _assert_pairs_match(segment_sphere_pairs_hit, segments_hit_spheres, c, r, p, q)
