"""Synthetic point-cloud datasets and plain-text cloud files.

Shapes are sampled uniformly on analytic surfaces (sphere, cube shell,
capped cylinder, torus). Each sampler draws half the points and mirrors
them through the shape center, which pins the empirical centroid at zero
before any jitter: normalization then cannot shift a unit sphere off
radius 1 by more than float rounding.

Files use a minimal xyz format: one point per line, three decimal fields
separated by whitespace, written with repr-precision so reading restores
the exact float64 values. A dataset is a directory of such files plus a
manifest listing them one relative path per line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import validate_cloud

__all__ = [
    "FAMILIES",
    "Dataset",
    "Normalized",
    "gen_shapes",
    "normalize",
    "save_xyz",
    "parse_floats",
    "load_xyz",
    "save_dataset",
    "load_dataset",
    "train_eval_split",
]

FAMILIES = ("sphere", "cube", "cylinder", "torus")

_MANIFEST = "manifest.txt"


@dataclass(frozen=True)
class Normalized:
    """A cloud moved to centroid 0 and scaled into the unit ball.

    ``scale`` is the max centroid distance that was divided out; if it was
    zero (all points coincident) the cloud is only centered and
    ``degenerate`` is set.
    """

    points: np.ndarray
    centroid: np.ndarray
    scale: float
    degenerate: bool


@dataclass(frozen=True)
class Dataset:
    """Clouds with per-cloud family labels, all the same point count.

    ``split`` tags which side of a train/eval split the set is ("all"
    for unsplit data).
    """

    clouds: list
    labels: list
    split: str = "all"

    def __post_init__(self):
        if len(self.clouds) != len(self.labels):
            raise ValueError("dataset: one label per cloud required")
        sizes = {c.shape[0] for c in self.clouds}
        if len(sizes) > 1:
            raise ValueError(f"dataset: clouds must share a point count, got {sorted(sizes)}")

    def __len__(self) -> int:
        return len(self.clouds)


def _mirrored(rng: np.random.Generator, n: int, draw) -> np.ndarray:
    """Sample ceil(n/2) surface points, mirror through the origin, keep n."""
    half = (n + 1) // 2
    pts = draw(rng, half)
    return np.concatenate([pts, -pts], axis=0)[:n]


def _draw_sphere(rng: np.random.Generator, m: int) -> np.ndarray:
    v = rng.standard_normal((m, 3))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return v / norms


def _draw_cube(rng: np.random.Generator, m: int) -> np.ndarray:
    # area-uniform over the boundary of [-1, 1]^3: pick a face, then a point on it
    face = rng.integers(0, 6, size=m)
    uv = rng.uniform(-1.0, 1.0, size=(m, 2))
    pts = np.empty((m, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    for a in range(3):
        rows = axis == a
        others = [b for b in range(3) if b != a]
        pts[rows, a] = sign[rows]
        pts[np.ix_(rows, others)] = uv[rows]
    return pts


_CYL_R = 0.6
_CYL_H = 1.0


def _draw_cylinder(rng: np.random.Generator, m: int) -> np.ndarray:
    # draw on the side wall or the top cap; the mirroring step supplies the
    # bottom cap, so the cap draw weight counts both caps
    side_area = 2.0 * math.pi * _CYL_R * (2.0 * _CYL_H)
    cap_area = 2.0 * math.pi * _CYL_R * _CYL_R
    on_side = rng.uniform(0.0, side_area + cap_area, size=m) < side_area
    theta = rng.uniform(0.0, 2.0 * math.pi, size=m)
    pts = np.empty((m, 3))
    z = rng.uniform(-_CYL_H, _CYL_H, size=m)
    r = _CYL_R * np.sqrt(rng.uniform(0.0, 1.0, size=m))
    rad = np.where(on_side, _CYL_R, r)
    pts[:, 0] = rad * np.cos(theta)
    pts[:, 1] = rad * np.sin(theta)
    pts[:, 2] = np.where(on_side, z, _CYL_H)
    return pts


_TORUS_R = 1.0
_TORUS_r = 0.4


def _draw_torus(rng: np.random.Generator, m: int) -> np.ndarray:
    # rejection on the major angle corrects for the inner/outer area skew
    out = np.empty((m, 3))
    filled = 0
    while filled < m:
        need = m - filled
        u = rng.uniform(0.0, 2.0 * math.pi, size=2 * need + 8)
        v = rng.uniform(0.0, 2.0 * math.pi, size=u.size)
        keep = rng.uniform(0.0, 1.0 + _TORUS_r / _TORUS_R, size=u.size) < (
            1.0 + (_TORUS_r / _TORUS_R) * np.cos(v)
        )
        u, v = u[keep], v[keep]
        take = min(need, u.size)
        w = _TORUS_R + _TORUS_r * np.cos(v[:take])
        out[filled : filled + take, 0] = w * np.cos(u[:take])
        out[filled : filled + take, 1] = w * np.sin(u[:take])
        out[filled : filled + take, 2] = _TORUS_r * np.sin(v[:take])
        filled += take
    return out


_DRAWERS = {
    "sphere": _draw_sphere,
    "cube": _draw_cube,
    "cylinder": _draw_cylinder,
    "torus": _draw_torus,
}


def normalize(points) -> Normalized:
    """Center a cloud on its centroid and scale the farthest point to 1."""
    pts = validate_cloud(points, "cloud")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    radius = float(np.sqrt(np.einsum("ij,ij->i", centered, centered).max()))
    if radius == 0.0:
        return Normalized(centered, centroid, 1.0, True)
    return Normalized(centered / radius, centroid, radius, False)


def gen_shapes(
    families,
    count: int,
    points: int,
    noise_std: float = 0.0,
    seed: int = 0,
) -> Dataset:
    """Build ``count`` normalized synthetic clouds of ``points`` points each.

    Families are assigned round-robin in listed order, so every prefix of
    the dataset stays balanced. ``noise_std`` is the standard deviation of
    Gaussian jitter added before normalization. Per-cloud draws come from
    independent child streams of ``seed``, so cloud k does not depend on
    how many clouds are requested.
    """
    families = tuple(families)
    if not families:
        raise ValueError("gen_shapes: needs at least one shape family")
    for fam in families:
        if fam not in _DRAWERS:
            raise ValueError(f"gen_shapes: unknown family {fam!r} (expected one of {FAMILIES})")
    if count < 1:
        raise ValueError(f"gen_shapes: count must be >= 1, got {count}")
    if points < 8:
        raise ValueError(f"gen_shapes: points must be >= 8, got {points}")
    if not 0.0 <= noise_std < math.inf:  # written so that NaN fails it
        raise ValueError(f"gen_shapes: noise_std must be finite and >= 0, got {noise_std}")

    streams = np.random.SeedSequence(seed).spawn(count)
    clouds = []
    labels = []
    for k in range(count):
        fam = families[k % len(families)]
        rng = np.random.default_rng(streams[k])
        pts = _mirrored(rng, points, _DRAWERS[fam])
        if noise_std > 0.0:
            pts = pts + rng.normal(0.0, noise_std, size=pts.shape)
        clouds.append(normalize(pts).points)
        labels.append(fam)
    return Dataset(clouds, labels)


def save_xyz(path, points) -> None:
    """Write one point per line as three %.17g fields."""
    pts = validate_cloud(points, "cloud")
    lines = ["%.17g %.17g %.17g" % (x, y, z) for x, y, z in pts]
    Path(path).write_text("\n".join(lines) + "\n")


def parse_floats(tokens: list[str]) -> list[float]:
    """``float()`` of each token, limited to plain ASCII numbers.

    ``float()`` also reads digit-group underscores (``1_0`` as 10.0) and
    non-ASCII digits (``\u0661\u0662`` as 12.0). No writer here produces
    either, so a token holding one is corrupt: this raises ValueError.
    """
    joined = "".join(tokens)
    if "_" in joined or not joined.isascii():
        raise ValueError(f"not a plain ASCII number among {tokens!r}")
    return [float(t) for t in tokens]


def load_xyz(path) -> np.ndarray:
    """Parse a cloud file, reporting the line number of any bad row."""
    path = Path(path)
    lines = path.read_text().splitlines()
    rows = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        fields = stripped.split()
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 fields, found {len(fields)}")
        try:
            rows.append(parse_floats(fields))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric field in {stripped!r}") from None
    if not rows:
        raise ValueError(f"{path}: no points found")
    points = np.array(rows)
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():  # float() reads nan, inf and -inf
        nonblank = [(lineno, line.strip()) for lineno, line in enumerate(lines, start=1) if line.strip()]
        lineno, line = nonblank[finite.argmin()]
        raise ValueError(f"{path}:{lineno}: non-finite value in {line!r}")
    return validate_cloud(points, str(path))


def save_dataset(directory, dataset: Dataset) -> Path:
    """Write every cloud plus a manifest; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    counts: dict[str, int] = {}
    for cloud, label in zip(dataset.clouds, dataset.labels):
        k = counts.get(label, 0)
        counts[label] = k + 1
        name = f"{label}_{k:04d}.xyz"
        save_xyz(directory / name, cloud)
        names.append(name)
    manifest = directory / _MANIFEST
    manifest.write_text("\n".join(names) + "\n")
    return manifest


def load_dataset(manifest_path) -> Dataset:
    """Read a manifest and every cloud it lists (paths relative to it).

    Accepts either the manifest file itself or the dataset directory
    containing one.
    """
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / _MANIFEST
    base = manifest_path.parent
    clouds = []
    labels = []
    for lineno, line in enumerate(manifest_path.read_text().splitlines(), start=1):
        name = line.strip()
        if not name:
            continue
        cloud_path = base / name
        if not cloud_path.is_file():
            raise FileNotFoundError(f"{manifest_path}:{lineno}: listed file {name!r} is missing")
        clouds.append(load_xyz(cloud_path))
        labels.append(name.rsplit("_", 1)[0])
    if not clouds:
        raise ValueError(f"{manifest_path}: manifest lists no clouds")
    return Dataset(clouds, labels)


def train_eval_split(dataset: Dataset, eval_fraction: float = 0.1) -> tuple[Dataset, Dataset]:
    """Deterministic index-disjoint split.

    Every round(1/eval_fraction)-th cloud (starting at index 0) goes to the
    eval side; with round-robin family assignment the stride keeps both
    sides close to family-balanced.
    """
    if not 0.0 < eval_fraction < 1.0:
        raise ValueError(f"eval fraction must lie in (0, 1), got {eval_fraction}")
    stride = max(2, round(1.0 / eval_fraction))
    eval_idx = set(range(0, len(dataset), stride))
    if len(eval_idx) == len(dataset):
        raise ValueError("eval fraction leaves no training clouds")
    tr_c, tr_l, ev_c, ev_l = [], [], [], []
    for i, (c, l) in enumerate(zip(dataset.clouds, dataset.labels)):
        if i in eval_idx:
            ev_c.append(c)
            ev_l.append(l)
        else:
            tr_c.append(c)
            tr_l.append(l)
    return Dataset(tr_c, tr_l, "train"), Dataset(ev_c, ev_l, "eval")
