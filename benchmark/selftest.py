"""Checks of the reference geometry, run before every benchmark run.

Run alone with ``python3 benchmark/selftest.py``; it exits 1 on the first
failed check.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import refgeom


def _loop_nn(query, ref):
    return [min(math.dist(q, r) for r in ref) for q in query]


def _loop_chamfer(a, b):
    return 0.5 * (sum(_loop_nn(a, b)) / len(a) + sum(_loop_nn(b, a)) / len(b))


def _loop_hausdorff(a, b):
    return max(max(_loop_nn(a, b)), max(_loop_nn(b, a)))


def _loop_fps(points, k):
    chosen = [0]
    while len(chosen) < k:
        far = max(range(len(points)), key=lambda i: (min(math.dist(points[i], points[c]) for c in chosen), -i))
        chosen.append(far)
    return chosen


def _close(x, y, rel=1e-12):
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def run_checks() -> list[str]:
    """Return the failed checks (empty when the reference geometry is sound)."""
    failed = []

    def check(ok, what):
        if not ok:
            failed.append(what)

    a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b = np.array([[0.0, 0.0, 0.0]])
    check(_close(refgeom.chamfer(a, b), 0.25), "hand pair: chamfer is 0.25")
    check(_close(refgeom.hausdorff(a, b), 1.0), "hand pair: hausdorff is 1.0")

    rng = np.random.default_rng(20231227)
    for trial in range(4):
        p = rng.standard_normal((17 + 5 * trial, 3))
        q = rng.standard_normal((23 - 3 * trial, 3)) * 0.5 + 0.1
        pl, ql = p.tolist(), q.tolist()
        check(refgeom.chamfer(p, q) == refgeom.chamfer(q, p), f"trial {trial}: chamfer symmetric")
        check(refgeom.hausdorff(p, q) == refgeom.hausdorff(q, p), f"trial {trial}: hausdorff symmetric")
        check(refgeom.mcd(p, q) == refgeom.mcd(q, p), f"trial {trial}: mcd symmetric")
        check(_close(refgeom.chamfer(p, q), _loop_chamfer(pl, ql)), f"trial {trial}: chamfer equals the loop")
        check(_close(refgeom.hausdorff(p, q), _loop_hausdorff(pl, ql)), f"trial {trial}: hausdorff equals the loop")
        k = len(p) // 2
        check(refgeom.fps(p, k).tolist() == _loop_fps(pl, k), f"trial {trial}: fps equals the loop")
        loop_mcd = sum(
            _loop_chamfer(
                [pl[i] for i in _loop_fps(pl, max(1, int(len(pl) * s)))],
                [ql[i] for i in _loop_fps(ql, max(1, int(len(ql) * s)))],
            )
            for s in refgeom.MCD_SCALES
        ) / len(refgeom.MCD_SCALES)
        check(_close(refgeom.mcd(p, q), loop_mcd), f"trial {trial}: mcd equals the loop")
    return failed


if __name__ == "__main__":
    bad = run_checks()
    for what in bad:
        print(f"FAILED: {what}", file=sys.stderr)
    print("reference geometry: " + ("ok" if not bad else f"{len(bad)} checks failed"))
    sys.exit(1 if bad else 0)
