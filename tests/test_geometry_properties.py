"""Property tests: the matcher, fps and the stacked pair metrics.

The oracles here are the plain definitions: an explicit all-pairs
difference scan, the kd-tree (one query per pair for the stacked
matcher), an fps loop over (n, 3) rows with einsum for each cloud of a
lockstep traversal, one fps call per scale, and the public metric
functions called one pair at a time. Equality is to the bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lcd.geometry import (
    DEFAULT_MCD_SCALES,
    KdTree,
    _fps_lockstep,
    chamfer,
    fps,
    hausdorff,
    mcd,
    nn_match,
    nn_match_stacked,
    pair_metrics,
    pair_metrics_stacked,
)
from lcd.dataio import gen_shapes

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _explicit_match(query, ref):
    diff = query[:, None, :] - ref[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    idx = d2.argmin(axis=1)  # first minimum: lowest index on ties
    return idx, d2[np.arange(len(query)), idx]


def _cloud(draw, n, grid):
    # grid coordinates give duplicate points and exact distance ties
    elements = st.integers(-2, 2).map(float) if grid else st.floats(-1.0, 1.0, width=64)
    return draw(arrays(np.float64, (n, 3), elements=elements))


@st.composite
def cloud_pairs(draw, max_points=40):
    grid = draw(st.booleans())
    ref = _cloud(draw, draw(st.integers(1, max_points)), grid)
    layout = draw(st.sampled_from(["independent", "self", "reversed"]))
    if layout == "self":
        query = ref.copy()
    elif layout == "reversed":
        query = ref[::-1].copy()
    else:
        query = _cloud(draw, draw(st.integers(1, max_points)), grid)
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    offset = draw(arrays(np.float64, 3, elements=st.floats(-1e4, 1e4)))
    return query * scale + offset, ref * scale + offset


@PROPERTY
@given(cloud_pairs())
@example((np.array([[0.3, -1.0, 2.0]]), np.array([[1.0, 1.0, 1.0]])))
@example((np.zeros((1, 3)), np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0]])))
def test_matcher_equals_explicit_scan_and_kdtree(pair):
    query, ref = pair
    want_idx, want_d2 = _explicit_match(query, ref)
    for backend in ("brute", "kdtree"):
        m = nn_match(query, ref, backend=backend)
        assert np.array_equal(m.indices, want_idx), backend
        assert np.array_equal(m.sq_dists.view(np.int64), want_d2.view(np.int64)), backend
    assert np.array_equal(KdTree(ref).query(query).indices, want_idx)


def test_matcher_is_exact_across_chunks_and_at_tiny_scale():
    rng = np.random.default_rng(8)
    ref = np.round(rng.normal(size=(300, 3)) * 4) / 4  # duplicates and ties
    query = np.concatenate([ref[::-1], np.round(rng.normal(size=(400, 3)) * 4) / 4])
    for scale in (1.0, 1e-160):
        q, r = query * scale, ref * scale
        want_idx, want_d2 = _explicit_match(q, r)
        m = nn_match(q, r)
        assert np.array_equal(m.indices, want_idx), scale
        assert np.array_equal(m.sq_dists.view(np.int64), want_d2.view(np.int64)), scale


def test_matcher_is_exact_with_one_query_row_per_chunk():
    # more references than a chunk's row budget: every chunk is one query row
    rng = np.random.default_rng(9)
    ref = np.round(rng.normal(size=(40_000, 3)) * 8) / 8  # many duplicates and ties
    ref[39_999] = ref[7]
    query = np.concatenate([ref[[39_999, 7]], rng.normal(size=(3, 3))])
    want_idx, want_d2 = _explicit_match(query, ref)
    m = nn_match(query, ref)
    assert list(m.indices[:2]) == [7, 7]
    assert np.array_equal(m.indices, want_idx)
    assert np.array_equal(m.sq_dists.view(np.int64), want_d2.view(np.int64))


@st.composite
def stacked_pairs(draw, max_points=24, unique_sizes=True):
    grid = draw(st.booleans())
    pairs = draw(st.integers(1, 4))
    n_a, n_b = draw(st.lists(st.integers(1, max_points), min_size=2, max_size=2, unique=unique_sizes))
    a = [_cloud(draw, n_a, grid) for _ in range(pairs)]
    if draw(st.booleans()):
        # each b cloud repeats points of its a cloud: zero distances and duplicates
        b = [block[draw(arrays(np.int64, n_b, elements=st.integers(0, n_a - 1)))] for block in a]
    else:
        b = [_cloud(draw, n_b, grid) for _ in range(pairs)]
    # a scale and an offset per pair: each pair needs its own centre and bound
    scales = [10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(pairs)]
    offsets = [draw(arrays(np.float64, 3, elements=st.floats(-1e4, 1e4))) for _ in range(pairs)]
    a = [c * s + o for c, s, o in zip(a, scales, offsets)]
    b = [c * s + o for c, s, o in zip(b, scales, offsets)]
    return a, b


def _assert_stacked_equals_kdtree(query_blocks, ref_blocks):
    n_q, n_r = len(query_blocks[0]), len(ref_blocks[0])
    m = nn_match_stacked(np.concatenate(query_blocks), np.concatenate(ref_blocks), n_q, n_r)
    for p, (q, r) in enumerate(zip(query_blocks, ref_blocks)):
        want = KdTree(r).query(q)
        rows = slice(p * n_q, (p + 1) * n_q)
        assert np.array_equal(m.indices[rows], want.indices + p * n_r), p
        assert np.array_equal(m.sq_dists[rows].view(np.int64), want.sq_dists.view(np.int64)), p


@PROPERTY
@given(stacked_pairs())
@example(([np.zeros((1, 3))], [np.array([[1.0, 0, 0], [-1.0, 0, 0]])]))
@example(([np.ones((2, 3)), np.zeros((2, 3))], [np.ones((1, 3)), np.ones((1, 3))]))
def test_stacked_matcher_equals_a_kdtree_per_pair_both_ways(pairs):
    a, b = pairs
    _assert_stacked_equals_kdtree(a, b)
    _assert_stacked_equals_kdtree(b, a)


def test_stacked_matcher_sizes_the_bound_per_pair():
    # pair 1's queries sit at its reference mean, 1e3 from 64 references
    # whose distances agree to about the GEMM's rounding, so many of them
    # are candidates; a bound sized by pair 0's max|r'|, 1e-3, would keep
    # only the GEMM's own minimum, which is often not the exact one
    rng = np.random.default_rng(15)
    small = rng.normal(size=(64, 3)) * 1e-3
    u = rng.normal(size=(32, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    ref = np.concatenate([u, -u]) * 1e3
    query = np.concatenate([np.zeros((8, 3)), rng.normal(size=(56, 3)) * 1e-12])
    _assert_stacked_equals_kdtree([small, query], [small[::-1], ref])
    _assert_stacked_equals_kdtree([query, small], [ref, small[::-1]])


def test_stacked_matcher_rejects_blocks_that_do_not_pair_up():
    with pytest.raises(ValueError, match="do not split"):
        nn_match_stacked(np.zeros((6, 3)), np.zeros((4, 3)), 4, 2)
    with pytest.raises(ValueError, match="different numbers of clouds"):
        nn_match_stacked(np.zeros((6, 3)), np.zeros((4, 3)), 3, 1)


def test_matcher_resolves_near_ties_in_a_chunk_of_single_candidates():
    # eight references within 1e-15 of each other, seen from about 1 away:
    # their expanded distances lie within the candidate bound, so those rows
    # take the full-row re-check, while the other rows of the same chunk,
    # each on top of one distant reference, have one candidate each
    rng = np.random.default_rng(12)
    cluster = np.array([1.0, 0.0, 0.0]) + rng.normal(size=(8, 3)) * 1e-15
    far = 5.0 + rng.random((40, 3))
    ref = np.concatenate([far[:20], cluster, far[20:]])
    query = np.concatenate([rng.normal(size=(6, 3)) * 1e-3, far + rng.normal(size=(40, 3)) * 1e-6])
    want_idx, want_d2 = _explicit_match(query, ref)
    m = nn_match(query, ref)
    assert set(m.indices[:6].tolist()) <= set(range(20, 28))
    assert np.array_equal(m.indices, want_idx)
    assert np.array_equal(m.sq_dists.view(np.int64), want_d2.view(np.int64))


@pytest.mark.parametrize("scale", [1e150, 8e153, 1.2e154])
def test_matcher_is_exact_where_the_candidate_bound_is_not_finite(scale):
    # at 1e150 every bound is finite; at 8e153 and beyond, the bound's
    # (|q'| + max|r'|)^2 and the GEMM's sums overflow, so thr is inf or NaN:
    # such rows keep every reference, and the re-check still finds the
    # finite nearest distance
    corners = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [1, 1, 0]], dtype=float)
    rng = np.random.default_rng(13)
    ref = corners * scale
    query = np.concatenate([corners[::-1], corners + rng.normal(size=(6, 3)) * 1e-3]) * scale
    with np.errstate(over="ignore", invalid="ignore"):
        want_idx, want_d2 = _explicit_match(query, ref)
        m = nn_match(query, ref)
        pieces = nn_match_stacked(np.concatenate([query, query[::-1]]), np.concatenate([ref, ref[::-1]]), 12, 6)
    assert np.array_equal(m.indices, want_idx)
    assert np.array_equal(m.sq_dists.view(np.int64), want_d2.view(np.int64))
    assert np.array_equal(pieces.indices[:12], want_idx)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_matcher_and_stacked_metrics_do_not_warn_near_the_overflow():
    # at 1.2e154 the candidate bound and the GEMM overflow, and squared
    # distances past 1.8e308 become inf; the clouds are valid all the same
    corners = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [1, 1, 0]], dtype=float)
    rng = np.random.default_rng(16)
    ref = corners * 1.2e154
    query = (np.concatenate([corners[::-1], corners]) + rng.normal(size=(12, 3)) * 1e-3) * 1.2e154
    want_idx, _ = _explicit_match(query * 2.0**-512, ref * 2.0**-512)  # exact rescaling
    assert np.array_equal(nn_match(query, ref).indices, want_idx)
    assert np.array_equal(nn_match(ref, ref).sq_dists, np.zeros(6))
    stacked = nn_match_stacked(np.concatenate([query, query]), np.concatenate([ref, -ref]), 12, 6)
    assert np.array_equal(stacked.indices[:12], want_idx)
    # pair 0's hausdorff distance is past the overflow; pair 1's clouds hold the same points
    a, b = np.concatenate([query, ref, ref]), np.concatenate([-ref, ref[::-1]])
    cd, m, hd = pair_metrics_stacked(a, b, 12, 6)
    assert np.isinf(hd[0]) and cd[1] == hd[1] == 0.0
    assert (cd[0], m[0], hd[0]) == pair_metrics(query, -ref)
    assert (cd[1], m[1], hd[1]) == pair_metrics(a[12:], ref[::-1])


def test_matcher_with_one_reference_point():
    rng = np.random.default_rng(14)
    query = rng.normal(size=(30, 3))
    for ref in (np.zeros((1, 3)), query[[17]], np.full((1, 3), 1e154)):
        with np.errstate(over="ignore", invalid="ignore"):
            want_idx, want_d2 = _explicit_match(query, ref)
            m = nn_match(query, ref)
            stacked = nn_match_stacked(np.concatenate([query, query]), np.concatenate([ref, ref + 1.0]), 30, 1)
        assert m.indices.tolist() == [0] * 30
        assert np.array_equal(m.sq_dists.view(np.int64), want_d2.view(np.int64))
        assert stacked.indices.tolist() == [0] * 30 + [1] * 30


@PROPERTY
@given(st.data())
def test_fps_prefix_is_the_smaller_traversal(data):
    points = _cloud(data.draw, data.draw(st.integers(1, 40)), data.draw(st.booleans()))
    n = len(points)
    k = data.draw(st.integers(1, n))
    j = data.draw(st.integers(1, k))
    seed_index = data.draw(st.integers(0, n - 1))
    assert fps(points, k, seed_index)[:j].tolist() == fps(points, j, seed_index).tolist()


def _fps_rows(points, k, seed_index=0):
    # the row-layout loop: one (n, 3) difference and one einsum per round
    chosen = [seed_index]
    diff = points - points[seed_index]
    min_d2 = np.einsum("ij,ij->i", diff, diff)
    for _ in range(1, k):
        chosen.append(int(min_d2.argmax()))
        diff = points - points[chosen[-1]]
        np.minimum(min_d2, np.einsum("ij,ij->i", diff, diff), out=min_d2)
    return chosen


@PROPERTY
@given(st.data())
def test_fps_equals_the_row_layout_loop(data):
    points = _cloud(data.draw, data.draw(st.integers(1, 40)), data.draw(st.booleans()))
    # up to 1e160: past about 1e154, squared differences overflow to inf
    points = points * 10.0 ** data.draw(st.floats(-160.0, 160.0))
    points = points + data.draw(arrays(np.float64, 3, elements=st.floats(-1e4, 1e4)))
    n = len(points)
    k = data.draw(st.integers(1, n))
    seed_index = data.draw(st.integers(0, n - 1))
    assert fps(points, k, seed_index).tolist() == _fps_rows(points, k, seed_index)
    assert fps(points, n, seed_index).tolist() == _fps_rows(points, n, seed_index)


def test_fps_equals_the_row_layout_loop_on_edge_clouds():
    grid = np.array([[i, j, 0.0] for i in range(-2, 3) for j in range(-2, 3)])  # ties
    cases = [
        (np.zeros((1, 3)), 1, 0),
        (np.zeros((5, 3)), 5, 3),  # all points coincide
        (np.repeat(grid, 2, axis=0), 50, 7),  # every point twice
        (grid * 1e-160, 25, 12),  # squares in the subnormal range
        (grid * 1e150, 25, 0),
        (grid * 1e155, 25, 4),  # squares overflow to inf
        (grid + 1e4, 25, 24),
    ]
    for points, k, seed_index in cases:
        assert fps(points, k, seed_index).tolist() == _fps_rows(points, k, seed_index)
        # the same cloud beside its reversal, in one lockstep traversal
        pair = _fps_lockstep(np.stack([points, points[::-1]]), k, seed_index)
        assert pair.tolist() == [_fps_rows(points, k, seed_index), _fps_rows(points[::-1], k, seed_index)]


def test_fps_equals_the_row_layout_loop_on_a_2048_point_cloud():
    points = gen_shapes(("torus",), count=1, points=2048, seed=5).clouds[0]
    assert fps(points, 2048).tolist() == _fps_rows(points, 2048)


@PROPERTY
@given(st.data())
def test_lockstep_traversal_equals_the_row_loop_for_each_cloud(data):
    b, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 40))
    grid = data.draw(st.booleans())
    clouds = np.stack([_cloud(data.draw, n, grid) for _ in range(b)])
    if data.draw(st.booleans()):  # duplicated points: the clouds repeat some of their rows
        clouds = clouds[:, data.draw(arrays(np.int64, n, elements=st.integers(0, n - 1)))]
    # a scale per cloud, up to 1e160: past about 1e154, squares overflow to inf
    scales = [10.0 ** data.draw(st.floats(-160.0, 160.0)) for _ in range(b)]
    clouds = clouds * np.array(scales)[:, None, None]
    k = data.draw(st.integers(1, n))
    seed_index = data.draw(st.integers(0, n - 1))
    chosen = _fps_lockstep(clouds, k, seed_index)
    assert chosen.shape == (len(clouds), k)
    for block, want in zip(clouds, chosen):
        assert want.tolist() == _fps_rows(block, k, seed_index)


def test_per_coordinate_sum_equals_einsum_bit_for_bit():
    # fps sums (dx^2 + dz^2) + dy^2 on the premise that einsum does the same;
    # a NumPy that sums 3-wide rows in another order fails here
    rng = np.random.default_rng(10)
    d = rng.normal(size=(10_000, 3)) * 10.0 ** rng.integers(-150, 150, size=(10_000, 1))
    dx, dy, dz = d.T
    per_coordinate = (dx * dx + dz * dz) + dy * dy
    want = np.einsum("ij,ij->i", d, d)
    assert np.array_equal(per_coordinate.view(np.int64), want.view(np.int64))


def _mcd_one_fps_per_scale(a, b, scales=DEFAULT_MCD_SCALES):
    total = 0.0
    for s in scales:
        if s == 1.0:
            total += chamfer(a, b)
        else:
            sa = a[fps(a, max(1, int(len(a) * s)))]
            sb = b[fps(b, max(1, int(len(b) * s)))]
            total += chamfer(sa, sb)
    return total / len(scales)


@PROPERTY
@given(cloud_pairs(max_points=64))
def test_pair_metrics_equal_the_separate_calls(pair):
    a, b = pair
    cd, m, hd = pair_metrics(a, b)
    assert cd == chamfer(a, b)
    assert m == mcd(a, b) == _mcd_one_fps_per_scale(a, b)
    assert hd == hausdorff(a, b)
    scales = (0.3, 1.0, 0.7, 0.05)
    assert mcd(a, b, scales) == _mcd_one_fps_per_scale(a, b, scales)


@PROPERTY
@given(stacked_pairs(unique_sizes=False), st.sampled_from(["brute", "kdtree"]))
@example(([np.zeros((1, 3))], [np.array([[1.0, 0, 0], [-1.0, 0, 0]])]), "kdtree")
@example(([np.ones((1, 3)), np.zeros((1, 3))], [np.ones((1, 3)), np.ones((1, 3))]), "brute")
def test_stacked_pair_metrics_equal_the_separate_calls_for_each_pair(pairs, backend):
    a, b = pairs
    cd, m, hd = pair_metrics_stacked(np.concatenate(a), np.concatenate(b), len(a[0]), len(b[0]), backend)
    assert cd.shape == m.shape == hd.shape == (len(a),)
    for p, (pa, pb) in enumerate(zip(a, b)):
        assert cd[p] == chamfer(pa, pb, backend), p
        assert m[p] == mcd(pa, pb, backend=backend) == _mcd_one_fps_per_scale(pa, pb), p
        assert hd[p] == hausdorff(pa, pb, backend), p
        assert (cd[p], m[p], hd[p]) == pair_metrics(pa, pb, backend), p


def test_stacked_pair_metrics_reject_blocks_that_do_not_pair_up():
    with pytest.raises(ValueError, match="do not split"):
        pair_metrics_stacked(np.zeros((6, 3)), np.zeros((4, 3)), 4, 2)
    with pytest.raises(ValueError, match="different numbers of clouds"):
        pair_metrics_stacked(np.zeros((6, 3)), np.zeros((4, 3)), 3, 1)
    with pytest.raises(ValueError, match="unknown matching backend"):
        pair_metrics_stacked(np.zeros((2, 3)), np.zeros((2, 3)), 1, 1, "octree")
