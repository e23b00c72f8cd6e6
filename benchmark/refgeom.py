"""Reference point-cloud metrics in plain NumPy, written apart from lcd.

The benchmark checks the program's reported metrics against these.
Nearest-neighbour distances use the expanded form |q|^2 + |r|^2 - 2 q.r
over chunks of queries, which is a different computation from the
program's explicit differences: values agree to ~1e-12 relative, far
below the 6 significant digits the program prints.

Farthest-point sampling is the exception. It is a sequence of argmax
choices, and the synthetic shapes are mirror-symmetric, so candidates tie
to the last bit. A different rounding would pick the mirror point and
change every later choice. ``fps`` therefore sums explicit squared
differences with ``np.einsum``, the rounding the program's definition
uses, and breaks ties toward the lowest index.
"""

from __future__ import annotations

import numpy as np

MCD_SCALES = (1.0, 0.5, 0.25)
_CHUNK = 512


def nn_sq_dists(query: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Squared distance from each query point to its nearest reference point."""
    query = np.asarray(query, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    ref_sq = np.einsum("ij,ij->i", ref, ref)
    out = np.empty(len(query))
    for lo in range(0, len(query), _CHUNK):
        q = query[lo : lo + _CHUNK]
        d2 = np.einsum("ij,ij->i", q, q)[:, None] + ref_sq[None, :] - 2.0 * (q @ ref.T)
        out[lo : lo + _CHUNK] = np.maximum(d2.min(axis=1), 0.0)
    return out


def nn_dists(query: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Euclidean distance from each query point to its nearest reference point."""
    return np.sqrt(nn_sq_dists(query, ref))


def chamfer(a: np.ndarray, b: np.ndarray) -> float:
    """Half the sum of the two mean nearest-neighbour distances."""
    return 0.5 * (float(nn_dists(a, b).mean()) + float(nn_dists(b, a).mean()))


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest nearest-neighbour distance in either direction."""
    return float(np.sqrt(max(nn_sq_dists(a, b).max(), nn_sq_dists(b, a).max())))


def fps(points: np.ndarray, k: int, seed_index: int = 0) -> np.ndarray:
    """Indices of k points, each the farthest from those already chosen."""
    points = np.asarray(points, dtype=np.float64)
    chosen = [seed_index]
    diff = points - points[seed_index]
    nearest = np.einsum("ij,ij->i", diff, diff)
    for _ in range(1, k):
        nxt = int(np.argmax(nearest))
        chosen.append(nxt)
        diff = points - points[nxt]
        nearest = np.minimum(nearest, np.einsum("ij,ij->i", diff, diff))
    return np.array(chosen, dtype=np.int64)


def mcd(a: np.ndarray, b: np.ndarray, scales=MCD_SCALES) -> float:
    """Mean chamfer over farthest-point subsamples of floor(n * s) points."""
    total = 0.0
    for s in scales:
        if s == 1.0:
            total += chamfer(a, b)
            continue
        ka = max(1, int(len(a) * s))
        kb = max(1, int(len(b) * s))
        total += chamfer(a[fps(a, ka)], b[fps(b, kb)])
    return total / len(scales)
