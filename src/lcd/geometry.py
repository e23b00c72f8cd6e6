"""Point-cloud distance metrics built on exact nearest-neighbor matching.

Two matching backends are provided: a brute-force scan and a kd-tree.
Both return the squared distance of the explicit form (sum of squared
coordinate differences) and break ties toward the lowest reference
index, so their outputs are bit-identical. The scan finds candidates
with the expanded form |q|^2 + |r|^2 - 2 q.r, one small single-threaded
GEMM per chunk of query rows, then re-checks only the candidates with the
explicit form. The candidate set provably holds every exact minimizer
(the bound is derived in ``_match_brute``), so the expansion never
changes a result, and memory stays O(n_query + n_ref). The scan is faster at every size
measured: :class:`KdTree` is the exactness oracle for the scan
(acceptance criterion 4), not a speed-up.

Distances returned by :func:`nn_match` are squared. The metric functions
take square roots where their definitions need Euclidean lengths.
:func:`pair_metrics` gives chamfer, mcd and hausdorff of one pair from
a single matching in each direction.
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
    "pair_metrics",
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


_GEMM_SIZE = 1 << 15  # query rows x references per GEMM, see _match_brute
_SLACK = 32 * np.finfo(np.float64).eps  # c * eps in the candidate bound delta
_TINY = np.finfo(np.float64).tiny  # absorbs underflow in delta, see _match_brute


def _match_brute(query: np.ndarray, ref: np.ndarray) -> Matching:
    """Exact nearest neighbors in two stages: GEMM candidates, explicit re-check.

    Stage 1 centres both clouds on the reference mean mu (q' = q - mu,
    r' = r - mu) and computes the expanded squared distance
    g = |q'|^2 + |r'|^2 - 2 q'.r' for a chunk of query rows as one GEMM of
    augmented rows, [q', 1, |q'|^2] . [-2 r', |r'|^2, 1]^T. A chunk holds
    _GEMM_SIZE // n_ref rows (at least one), so g fits in L2 cache and the
    GEMM stays below OpenBLAS's default cut-off for threading, m n k = 2^18,
    and runs on the calling thread. Threaded 256-row chunks were no faster
    on 2 cores, kept a BLAS worker thread spinning between calls, and each
    waited for both threads: with the other core busy, a 2048-point match
    took 2.5x as long (1.2x with these chunks). Stage 2
    recomputes the explicit form e = sum((q - r)^2) on the original
    coordinates, with the same einsum as :class:`KdTree`, for candidates
    only, and takes the first minimum in (e, reference index) order.

    Why the candidate set holds every exact minimizer. Let u = eps / 2 be
    the unit roundoff, gamma_k = k u / (1 - k u), s = |q'| + |r'|, and D the
    true |q - r|^2. Three roundings separate g from e:

    - GEMM (Higham, *Accuracy and Stability of Numerical Algorithms*,
      ch. 3): a 5-term inner product in any summation order satisfies
      |fl(x.y) - x.y| <= gamma_5 sum|x_i y_i| <= gamma_5 (1 + gamma_3) s^2.
      The norms |q'|^2 and |r'|^2 are 3-term sums of squares, each off by
      at most gamma_3 |.|^2, so |g - |q' - r'|^2| <= (gamma_5 + gamma_3) s^2
      up to O(u^2): about 8 u s^2. Scaling by -2 is exact.
    - Centring: each coordinate of q' and r' is rounded once, so
      |(q' - r') - (q - r)| <= u s and ||q' - r'|^2 - D| <= 2 u s^2 (1 + u).
    - Explicit form: one rounded difference, one square and two additions
      of non-negative terms give |e - D| <= gamma_5 D <= 5 u s^2 (1 + O(u)).

    So |g - e| <= delta with delta = c eps ((|q'| + max|r'|)^2 + tiny)
    whenever c eps >= 15 u, i.e. c >= 7.5; c = 32 leaves room for O(u^2)
    terms. The tiny = 2^-1022 term covers gradual underflow, which adds at
    most half the smallest subnormal, 2^-1075, per rounded product, about
    14 of them in all, against c eps tiny = 2^-1069. If
    j* is an exact minimizer of e and k the minimizer of g, then
    g(j*) <= e(j*) + delta <= e(k) + delta <= g(k) + 2 delta. Keeping every
    reference within 2 delta of the row minimum of g therefore keeps j*
    and all its ties, and the re-check returns the brute scan's exact
    result: same index, same squared distance, lowest index on ties.
    Rows where g or delta is not finite keep every reference.
    """
    n_ref = len(ref)
    mu = ref.mean(axis=0)
    rc = ref - mu
    r_norm = np.einsum("ij,ij->i", rc, rc)
    r_aug = np.column_stack([-2.0 * rc, r_norm, np.ones(n_ref)]).T
    qc = query - mu
    q_norm = np.einsum("ij,ij->i", qc, qc)
    q_aug = np.column_stack([qc, np.ones(len(query)), q_norm])
    slack = 2.0 * _SLACK * ((np.sqrt(q_norm) + np.sqrt(r_norm.max())) ** 2 + _TINY)
    step = max(1, _GEMM_SIZE // n_ref)
    indices = np.empty(len(query), dtype=np.int64)
    sq_dists = np.empty(len(query))
    for start in range(0, len(query), step):
        stop = min(start + step, len(query))
        g = q_aug[start:stop] @ r_aug
        # flat indices of the 2-D mask; NaN or inf in a row keeps the whole row
        flat = np.flatnonzero(~(g > (g.min(axis=1) + slack[start:stop])[:, None]))
        if len(flat) == stop - start:  # every row has one candidate, rows in order
            cols = flat - np.arange(0, len(flat) * n_ref, n_ref)
            diff = query[start:stop] - ref[cols]
            indices[start:stop] = cols
            sq_dists[start:stop] = np.einsum("ij,ij->i", diff, diff)
            continue
        rows, cols = np.divmod(flat, n_ref)
        diff = query[start + rows] - ref[cols]
        d2 = np.einsum("ij,ij->i", diff, diff)
        # rows come out ascending with cols ascending inside each row, so a
        # stable sort by (row, d2) puts each row's lowest-index minimum first
        order = np.lexsort((d2, rows))
        first = order[np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])]
        indices[start:stop] = cols[first]
        sq_dists[start:stop] = d2[first]
    return Matching(indices, sq_dists)


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


def _mean_nn_dist(fwd: np.ndarray, rev: np.ndarray, squared: bool = False) -> float:
    if not squared:
        fwd = np.sqrt(fwd)
        rev = np.sqrt(rev)
    return 0.5 * (float(fwd.mean()) + float(rev.mean()))


def chamfer(a, b, backend: str = "brute", squared: bool = False) -> float:
    """Symmetric average nearest-neighbor distance between two clouds.

    Mean over a of the distance to its nearest point in b, plus the same
    with the clouds swapped, halved. Unsquared Euclidean distances by
    default; ``squared=True`` averages squared distances instead.
    """
    pa = validate_cloud(a, "a")
    pb = validate_cloud(b, "b")
    return _mean_nn_dist(nn_match(pa, pb, backend).sq_dists, nn_match(pb, pa, backend).sq_dists, squared)


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
    Deterministic for fixed inputs, and greedy: ``fps(p, k)[:j]`` equals
    ``fps(p, j)`` for every j <= k.

    The loop works on three contiguous coordinate arrays x, y, z with
    preallocated length-n buffers, so each round is ten whole-array ufunc
    calls; an (n, 3) row layout spends most of a round in length-3 inner
    loops. Squared distances are summed as (dx^2 + dz^2) + dy^2, the order
    in which NumPy's ``einsum("ij,ij->i", d, d)`` sums a 3-wide row, so
    they equal the explicit form used by :func:`nn_match` to the bit, and
    the chosen indices do not depend on the layout.
    """
    pts = validate_cloud(points, "points")
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"fps: k must be in [1, {n}], got {k}")
    if not 0 <= seed_index < n:
        raise ValueError(f"fps: seed index {seed_index} out of range for {n} points")
    x, y, z = (np.ascontiguousarray(c) for c in pts.T)
    dx, dy, dz = np.empty(n), np.empty(n), np.empty(n)

    def sq_dists_to(i: int, out: np.ndarray) -> None:
        np.subtract(x, x[i], out=dx)
        np.multiply(dx, dx, out=dx)
        np.subtract(y, y[i], out=dy)
        np.multiply(dy, dy, out=dy)
        np.subtract(z, z[i], out=dz)
        np.multiply(dz, dz, out=dz)
        np.add(dx, dz, out=dx)
        np.add(dx, dy, out=out)

    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = seed_index
    min_d2 = np.empty(n)
    # differences and squares that overflow become inf without a warning, as in einsum
    with np.errstate(over="ignore"):
        sq_dists_to(seed_index, min_d2)
        for t in range(1, k):
            nxt = int(min_d2.argmax())  # first maximum == lowest index on ties
            chosen[t] = nxt
            sq_dists_to(nxt, dx)
            np.minimum(min_d2, dx, out=min_d2)
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
    return _mcd(pa, pb, scales, backend, seed_index)


def _mcd(pa, pb, scales, backend, seed_index, full_cd=None) -> float:
    """:func:`mcd` on checked clouds; ``full_cd`` stands in for the scale-1 chamfer.

    One traversal per cloud, at the largest subsampled size, serves every
    smaller scale as a prefix.
    """
    sub = [s for s in scales if s != 1.0]
    if sub:
        order_a = fps(pa, max(1, int(pa.shape[0] * max(sub))), seed_index)
        order_b = fps(pb, max(1, int(pb.shape[0] * max(sub))), seed_index)
    total = 0.0
    for s in scales:
        if s == 1.0:
            total += chamfer(pa, pb, backend) if full_cd is None else full_cd
        else:
            sa = pa[order_a[: max(1, int(pa.shape[0] * s))]]
            sb = pb[order_b[: max(1, int(pb.shape[0] * s))]]
            total += chamfer(sa, sb, backend)
    return total / len(scales)


def pair_metrics(a, b, backend: str = "brute") -> tuple[float, float, float]:
    """``(chamfer(a, b), mcd(a, b), hausdorff(a, b))`` from one matching each way.

    The two full-size matchings give chamfer, hausdorff and mcd's scale-1
    term, and every value equals the separate call's to the bit.
    """
    pa = validate_cloud(a, "a")
    pb = validate_cloud(b, "b")
    fwd = nn_match(pa, pb, backend).sq_dists
    rev = nn_match(pb, pa, backend).sq_dists
    cd = _mean_nn_dist(fwd, rev)
    hd = float(np.sqrt(max(fwd.max(), rev.max())))
    return cd, _mcd(pa, pb, DEFAULT_MCD_SCALES, backend, 0, full_cd=cd), hd
