"""Nearest-neighbor matching, set distances, and farthest point sampling."""

import tracemalloc

import numpy as np
import pytest

from lcd.geometry import (
    KdTree,
    chamfer,
    fps,
    hausdorff,
    mcd,
    nn_match,
    validate_cloud,
)


def test_validate_cloud_rejects_bad_inputs():
    with pytest.raises(ValueError):
        validate_cloud(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        validate_cloud(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        validate_cloud(np.zeros(12))
    bad = np.zeros((4, 3))
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        validate_cloud(bad)
    bad[1, 2] = np.inf
    with pytest.raises(ValueError):
        validate_cloud(bad)


def test_nn_match_brute_oracle():
    q = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    r = np.array([[0.5, 0.0, 0.0], [1.9, 0.0, 0.0], [9.0, 0.0, 0.0]])
    m = nn_match(q, r)
    assert m.indices.tolist() == [0, 1]
    assert np.allclose(m.sq_dists, [0.25, 0.01])


def test_nn_match_self_distance_is_exact_zero():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(64, 3)) * 1e3 + 1e5  # large offsets stress cancellation
    m = nn_match(pts, pts)
    assert m.indices.tolist() == list(range(64))
    assert np.all(m.sq_dists == 0.0)


def test_nn_match_ties_pick_lowest_index():
    q = np.array([[0.0, 0.0, 0.0]])
    r = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    for backend in ("brute", "kdtree"):
        m = nn_match(q, r, backend=backend)
        assert m.indices.tolist() == [0]
    dup = np.array([[5.0, 5.0, 5.0], [5.0, 5.0, 5.0], [5.0, 5.0, 5.0]])
    for backend in ("brute", "kdtree"):
        m = nn_match(np.array([[5.0, 5.0, 5.1]]), dup, backend=backend)
        assert m.indices.tolist() == [0]


def test_kdtree_matches_brute_exactly():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n_ref = int(rng.integers(1, 200))
        n_q = int(rng.integers(1, 80))
        scale = 10.0 ** rng.integers(-2, 3)
        ref = rng.normal(size=(n_ref, 3)) * scale
        if trial % 3 == 0 and n_ref > 4:
            ref[n_ref // 2] = ref[0]  # force duplicates
        if trial % 4 == 0:
            ref[:, 2] = 0.0  # degenerate axis
        q = rng.normal(size=(n_q, 3)) * scale
        b = nn_match(q, ref, backend="brute")
        k = nn_match(q, ref, backend="kdtree")
        assert b.indices.tolist() == k.indices.tolist(), f"trial {trial}"
        assert np.array_equal(b.sq_dists, k.sq_dists), f"trial {trial}"


def test_kdtree_query_validates_input():
    tree = KdTree(np.zeros((5, 3)))
    with pytest.raises(ValueError):
        tree.query(np.zeros((2, 2)))


def test_nn_match_memory_is_bounded_at_4096_points():
    # an (n, n, 3) difference array alone would be 4096**2 * 24 B = 402 MB
    rng = np.random.default_rng(2)
    q = rng.normal(size=(4096, 3))
    r = rng.normal(size=(4096, 3))
    tracemalloc.start()
    try:
        m = nn_match(q, r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert m.indices.shape == (4096,)


def test_nn_match_rejects_unknown_backend():
    pts = np.zeros((2, 3))
    with pytest.raises(ValueError):
        nn_match(pts, pts, backend="octree")


def test_chamfer_hand_oracle():
    a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b = np.array([[0.0, 0.0, 0.0]])
    # fwd mean dist = (0 + 1)/2, rev mean = 0; half their sum = 0.25
    assert chamfer(a, b) == 0.25
    assert hausdorff(a, b) == 1.0


def test_chamfer_squared_mode():
    a = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    b = np.array([[0.0, 0.0, 0.0]])
    assert chamfer(a, b, squared=True) == 1.0
    assert chamfer(a, b) == 0.5


def test_chamfer_is_symmetric_and_zero_on_identical():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(30, 3))
    b = rng.normal(size=(17, 3))
    assert chamfer(a, b) == chamfer(b, a)
    assert chamfer(a, a) == 0.0
    assert hausdorff(a, a) == 0.0
    assert hausdorff(a, b) == hausdorff(b, a)


def test_chamfer_backends_agree_bitwise():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.normal(size=(50, 3))
        b = rng.normal(size=(40, 3))
        assert chamfer(a, b, backend="brute") == chamfer(a, b, backend="kdtree")
        assert hausdorff(a, b, backend="brute") == hausdorff(a, b, backend="kdtree")


def test_fps_picks_farthest_point_first():
    pts = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    assert fps(pts, 1).tolist() == [0]
    assert fps(pts, 2).tolist() == [0, 1]
    assert fps(pts, 3).tolist() == [0, 1, 2]
    assert fps(pts, 2, seed_index=1).tolist() == [1, 0]


def test_fps_tie_breaks_toward_lowest_index():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert fps(pts, 2).tolist() == [0, 1]


def test_fps_validates_k():
    pts = np.zeros((4, 3))
    with pytest.raises(ValueError):
        fps(pts, 0)
    with pytest.raises(ValueError):
        fps(pts, 5)
    with pytest.raises(ValueError):
        fps(pts, 2, seed_index=4)


def test_fps_covers_all_points_without_repeats():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(40, 3))
    idx = fps(pts, 40)
    assert sorted(idx.tolist()) == list(range(40))


def test_mcd_hand_oracle():
    # full-resolution chamfer 0.25; half scale keeps the seed point only,
    # giving chamfer 0.0; mean of (0.25, 0.0) = 0.125
    a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b = np.array([[0.0, 0.0, 0.0]])
    assert mcd(a, b, scales=(1.0, 0.5)) == 0.125


def test_mcd_default_scales_zero_on_identical():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(32, 3))
    assert mcd(a, a) == 0.0
    b = rng.normal(size=(20, 3))
    assert mcd(a, b) > 0.0
    assert mcd(a, b, backend="kdtree") == mcd(a, b, backend="brute")


def test_mcd_validates_scales():
    a = np.zeros((4, 3))
    with pytest.raises(ValueError):
        mcd(a, a, scales=())
    with pytest.raises(ValueError):
        mcd(a, a, scales=(1.0, 0.0))
    with pytest.raises(ValueError):
        mcd(a, a, scales=(2.0,))
