"""Point-cloud distance metrics built on exact nearest-neighbor matching.

Two matching backends are provided: a brute-force scan and a kd-tree.
Both compute squared distances with the same arithmetic (sum of squared
coordinate differences, no expansion tricks), and both break ties toward
the lowest candidate index, so their outputs are bit-identical. The scan
is also faster at every size measured (256 to 2048 points): :class:`KdTree`
is the exactness oracle for the scan (acceptance criterion 4), not a speed-up.

Distances returned by :func:`nn_match` are squared. The metric functions
take square roots where their definitions need Euclidean lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Matching",
    "KdTree",
    "validate_cloud",
    "nn_match",
    "chamfer",
    "hausdorff",
    "fps",
    "mcd",
    "DEFAULT_MCD_SCALES",
]

DEFAULT_MCD_SCALES = (1.0, 0.5, 0.25)

_LEAF_SIZE = 16


def validate_cloud(points, name: str = "cloud") -> np.ndarray:
    """Check one point cloud: finite float (n, 3) with n >= 1."""
    a = np.ascontiguousarray(points, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"{name}: expected shape (n, 3), got {a.shape}")
    if a.shape[0] < 1:
        raise ValueError(f"{name}: needs at least one point")
    if not np.isfinite(a).all():
        raise ValueError(f"{name}: contains non-finite coordinates")
    return a


@dataclass(frozen=True)
class Matching:
    """Nearest neighbors of ``query`` rows among ``ref`` rows.

    ``indices[i]`` is the row of the reference cloud closest to query
    point i; ``sq_dists[i]`` is the squared Euclidean distance to it.
    """

    indices: np.ndarray
    sq_dists: np.ndarray


def _sq_dists_to(queries: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """All-pairs squared distances, computed as explicit differences.

    The expanded |a|^2 + |b|^2 - 2ab form is faster but loses the exact
    zero on self-matches; both backends must share this formula so their
    results agree to the bit.
    """
    diff = queries[:, None, :] - refs[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _match_brute(query: np.ndarray, ref: np.ndarray) -> Matching:
    d2 = _sq_dists_to(query, ref)
    idx = d2.argmin(axis=1)  # first minimum == lowest index on ties
    return Matching(idx.astype(np.int64), d2[np.arange(len(query)), idx])


class KdTree:
    """Axis-aligned binary partition of a reference cloud.

    Splits at the median of the widest-spread axis; leaves hold up to 16
    points with indices kept in ascending order. Queries visit the near
    child first and prune the far child when the splitting plane is
    farther than the best squared distance found so far. Candidate order
    plus the (distance, index) tie-break reproduces the brute scan exactly.
    """

    __slots__ = ("points", "_nodes")

    def __init__(self, points):
        self.points = validate_cloud(points, "reference")
        # node: (axis, threshold, left, right) or (-1, leaf index array, None, None)
        self._nodes: list[tuple] = []
        self._build(np.arange(self.points.shape[0], dtype=np.int64))

    def _build(self, idx: np.ndarray) -> int:
        node_id = len(self._nodes)
        self._nodes.append(None)  # reserve slot so children get later ids
        if idx.size <= _LEAF_SIZE:
            self._nodes[node_id] = (-1, np.sort(idx), None, None)
            return node_id
        pts = self.points[idx]
        spread = pts.max(axis=0) - pts.min(axis=0)
        axis = int(spread.argmax())
        order = np.argsort(pts[:, axis], kind="stable")
        half = idx.size // 2
        threshold = float(pts[order[half], axis])
        left = self._build(idx[order[:half]])
        right = self._build(idx[order[half:]])
        self._nodes[node_id] = (axis, threshold, left, right)
        return node_id

    def query(self, points) -> Matching:
        queries = validate_cloud(points, "query")
        n = queries.shape[0]
        out_idx = np.empty(n, dtype=np.int64)
        out_d2 = np.empty(n)
        for i in range(n):
            out_idx[i], out_d2[i] = self._query_one(queries[i])
        return Matching(out_idx, out_d2)

    def _query_one(self, q: np.ndarray) -> tuple[int, float]:
        best_idx = -1
        best_d2 = np.inf
        stack = [0]
        while stack:
            node = self._nodes[stack.pop()]
            if node[0] == -1:
                leaf = node[1]
                diff = self.points[leaf] - q
                d2 = np.einsum("ij,ij->i", diff, diff)
                k = int(d2.argmin())
                # (distance, index) ordering keeps parity with the scan:
                # a tie only displaces the incumbent for a lower index
                if d2[k] < best_d2 or (d2[k] == best_d2 and leaf[k] < best_idx):
                    best_d2 = float(d2[k])
                    best_idx = int(leaf[k])
                continue
            axis, threshold, left, right = node
            delta = q[axis] - threshold
            near, far = (left, right) if delta < 0 else (right, left)
            if delta * delta <= best_d2:  # equal distance can still tie-break lower
                stack.append(far)
            stack.append(near)
        return best_idx, best_d2


def nn_match(query, ref, backend: str = "brute") -> Matching:
    """Nearest reference neighbor for every query point.

    ``backend`` selects ``"brute"`` (reference) or ``"kdtree"``; the two
    return identical indices and squared distances.
    """
    q = validate_cloud(query, "query")
    r = validate_cloud(ref, "reference")
    if backend == "brute":
        return _match_brute(q, r)
    if backend == "kdtree":
        return KdTree(r).query(q)
    raise ValueError(f"unknown matching backend {backend!r}")


def chamfer(a, b, backend: str = "brute", squared: bool = False) -> float:
    """Symmetric average nearest-neighbor distance between two clouds.

    Mean over a of the distance to its nearest point in b, plus the same
    with the clouds swapped, halved. Unsquared Euclidean distances by
    default; ``squared=True`` averages squared distances instead.
    """
    pa = validate_cloud(a, "a")
    pb = validate_cloud(b, "b")
    fwd = nn_match(pa, pb, backend).sq_dists
    rev = nn_match(pb, pa, backend).sq_dists
    if not squared:
        fwd = np.sqrt(fwd)
        rev = np.sqrt(rev)
    return 0.5 * (float(fwd.mean()) + float(rev.mean()))


def hausdorff(a, b, backend: str = "brute") -> float:
    """Worst-case nearest-neighbor distance, symmetrized by max."""
    pa = validate_cloud(a, "a")
    pb = validate_cloud(b, "b")
    fwd = nn_match(pa, pb, backend).sq_dists.max()
    rev = nn_match(pb, pa, backend).sq_dists.max()
    return float(np.sqrt(max(fwd, rev)))


def fps(points, k: int, seed_index: int = 0) -> np.ndarray:
    """Indices of ``k`` points chosen by greedy farthest-point traversal.

    Starts from ``seed_index``; each round adds the point with the largest
    squared distance to the chosen set (ties toward the lowest index).
    Deterministic for fixed inputs.
    """
    pts = validate_cloud(points, "points")
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"fps: k must be in [1, {n}], got {k}")
    if not 0 <= seed_index < n:
        raise ValueError(f"fps: seed index {seed_index} out of range for {n} points")
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = seed_index
    diff = pts - pts[seed_index]
    min_d2 = np.einsum("ij,ij->i", diff, diff)
    for t in range(1, k):
        nxt = int(min_d2.argmax())  # first maximum == lowest index on ties
        chosen[t] = nxt
        diff = pts - pts[nxt]
        np.minimum(min_d2, np.einsum("ij,ij->i", diff, diff), out=min_d2)
    return chosen


def mcd(
    a,
    b,
    scales=DEFAULT_MCD_SCALES,
    backend: str = "brute",
    seed_index: int = 0,
) -> float:
    """Multi-scale symmetric matching distance.

    For each scale s the clouds are subsampled to max(1, floor(n*s))
    points by farthest-point traversal and compared with :func:`chamfer`;
    the result is the mean over scales. Scale 1 keeps clouds untouched.
    """
    pa = validate_cloud(a, "a")
    pb = validate_cloud(b, "b")
    scales = tuple(float(s) for s in scales)
    if not scales:
        raise ValueError("mcd: needs at least one scale")
    for s in scales:
        if not 0.0 < s <= 1.0:
            raise ValueError(f"mcd: scales must lie in (0, 1], got {s}")
    total = 0.0
    for s in scales:
        if s == 1.0:
            sa, sb = pa, pb
        else:
            ka = max(1, int(pa.shape[0] * s))
            kb = max(1, int(pb.shape[0] * s))
            sa = pa[fps(pa, ka, seed_index)]
            sb = pb[fps(pb, kb, seed_index)]
        total += chamfer(sa, sb, backend)
    return total / len(scales)
