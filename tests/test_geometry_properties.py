"""Property tests: the matcher, fps and the one-matching pair metrics.

The oracles here are the plain definitions: an explicit all-pairs
difference scan, the kd-tree, an fps loop over (n, 3) rows with einsum,
one fps call per scale, and the public metric functions called one by
one. Equality is to the bit.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lcd.geometry import (
    DEFAULT_MCD_SCALES,
    KdTree,
    chamfer,
    fps,
    hausdorff,
    mcd,
    nn_match,
    pair_metrics,
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


def test_fps_equals_the_row_layout_loop_on_a_2048_point_cloud():
    points = gen_shapes(("torus",), count=1, points=2048, seed=5).clouds[0]
    assert fps(points, 2048).tolist() == _fps_rows(points, 2048)


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
