"""Synthetic shape sampling, normalization, and xyz/manifest round trips."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lcd.dataio import (
    FAMILIES,
    Dataset,
    gen_shapes,
    load_dataset,
    load_xyz,
    normalize,
    save_dataset,
    save_xyz,
    train_eval_split,
)


def test_gen_shapes_is_deterministic_and_round_robin():
    ds1 = gen_shapes(("sphere", "cube"), count=6, points=32, seed=5)
    ds2 = gen_shapes(("sphere", "cube"), count=6, points=32, seed=5)
    assert len(ds1.clouds) == 6
    assert ds1.labels == ["sphere", "cube", "sphere", "cube", "sphere", "cube"]
    for a, b in zip(ds1.clouds, ds2.clouds):
        assert np.array_equal(a, b)
    ds3 = gen_shapes(("sphere", "cube"), count=6, points=32, seed=6)
    assert not np.array_equal(ds1.clouds[0], ds3.clouds[0])


def test_gen_shapes_count_is_total_not_per_family():
    ds = gen_shapes(FAMILIES, count=10, points=16, seed=0)
    assert len(ds.clouds) == 10
    assert ds.labels[:4] == list(FAMILIES)


def test_gen_shapes_validates_arguments():
    with pytest.raises(ValueError):
        gen_shapes((), count=4, points=16)
    with pytest.raises(ValueError):
        gen_shapes(("sphere",), count=0, points=16)
    with pytest.raises(ValueError):
        gen_shapes(("sphere",), count=4, points=7)
    with pytest.raises(ValueError):
        gen_shapes(("pyramid",), count=4, points=16)
    with pytest.raises(ValueError):
        gen_shapes(("sphere",), count=4, points=16, noise_std=-0.1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_std must be finite and >= 0"):
            gen_shapes(("sphere",), count=1, points=16, noise_std=bad)


def test_clouds_are_normalized_and_mirror_symmetric():
    ds = gen_shapes(FAMILIES, count=8, points=64, seed=1)
    for cloud in ds.clouds:
        assert cloud.shape == (64, 3)
        radii = np.linalg.norm(cloud - cloud.mean(axis=0), axis=1)
        assert abs(radii.max() - 1.0) < 1e-9
        # antipodal sampling: the point set maps onto itself under negation
        flipped = -cloud
        d = np.sqrt(((flipped[:, None, :] - cloud[None, :, :]) ** 2).sum(-1))
        assert d.min(axis=1).max() < 1e-9


def test_sphere_points_lie_on_unit_sphere():
    ds = gen_shapes(("sphere",), count=2, points=128, seed=2)
    for cloud in ds.clouds:
        assert np.abs(np.linalg.norm(cloud, axis=1) - 1.0).max() < 1e-9


def test_cube_points_lie_on_cube_surface():
    ds = gen_shapes(("cube",), count=2, points=128, seed=3)
    for cloud in ds.clouds:
        # surface points have their largest |coordinate| equal to the
        # normalized half-extent, constant across the cloud
        m = np.abs(cloud).max(axis=1)
        assert m.max() - m.min() < 1e-9


def test_cylinder_samples_lie_on_side_or_caps():
    from lcd.dataio import _CYL_H, _CYL_R, _draw_cylinder, _mirrored

    rng = np.random.default_rng(4)
    pts = _mirrored(rng, 256, _draw_cylinder)
    rho = np.linalg.norm(pts[:, :2], axis=1)
    on_side = np.abs(rho - _CYL_R) < 1e-9
    on_cap = np.abs(np.abs(pts[:, 2]) - _CYL_H) < 1e-9
    assert np.all(on_side | on_cap)
    assert on_side.any() and on_cap.any()
    assert (pts[:, 2] > 0).any() and (pts[:, 2] < 0).any()


def test_torus_samples_lie_on_torus_surface():
    from lcd.dataio import _TORUS_R, _TORUS_r, _draw_torus, _mirrored

    rng = np.random.default_rng(5)
    pts = _mirrored(rng, 256, _draw_torus)
    rho = np.linalg.norm(pts[:, :2], axis=1)
    # every surface point sits at tube radius from the major circle
    d = np.sqrt((rho - _TORUS_R) ** 2 + pts[:, 2] ** 2)
    assert np.abs(d - _TORUS_r).max() < 1e-9


def test_noise_perturbs_points():
    quiet = gen_shapes(("sphere",), count=1, points=32, seed=0)
    noisy = gen_shapes(("sphere",), count=1, points=32, seed=0, noise_std=0.05)
    assert not np.array_equal(quiet.clouds[0], noisy.clouds[0])
    radii = np.linalg.norm(noisy.clouds[0], axis=1)
    assert abs(radii.max() - 1.0) < 1e-9  # still normalized after noise


def test_normalize_centers_and_scales():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(20, 3)) * 4.0 + np.array([10.0, -3.0, 2.0])
    n = normalize(pts)
    assert not n.degenerate
    assert np.abs(n.points.mean(axis=0)).max() < 1e-12
    assert abs(np.linalg.norm(n.points, axis=1).max() - 1.0) < 1e-12
    restored = n.points * n.scale + n.centroid
    assert np.abs(restored - pts).max() < 1e-9


def test_normalize_is_idempotent():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(12, 3))
    once = normalize(pts).points
    twice = normalize(once).points
    assert np.abs(once - twice).max() < 1e-12


def test_normalize_degenerate_cloud():
    pts = np.full((5, 3), 7.0)
    n = normalize(pts)
    assert n.degenerate
    assert n.scale == 1.0
    assert np.all(n.points == 0.0)


def test_xyz_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(33, 3)) * np.pi
    path = tmp_path / "cloud.xyz"
    save_xyz(path, pts)
    back = load_xyz(path)
    assert np.array_equal(back, pts)


def test_load_xyz_reports_bad_lines(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("0 0 0\n1 2\n")
    with pytest.raises(ValueError, match=r"bad\.xyz:2"):
        load_xyz(path)
    path.write_text("0 0 0\n1 2 fish\n")
    with pytest.raises(ValueError, match=r"bad\.xyz:2"):
        load_xyz(path)
    path.write_text("")
    with pytest.raises(ValueError):
        load_xyz(path)
    with pytest.raises(OSError):
        load_xyz(tmp_path / "missing.xyz")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_xyz_names_the_line_of_a_non_finite_row(tmp_path, value):
    path = tmp_path / "bad.xyz"
    path.write_text(f"0 0 0\n\n1 2 3\n1 {value} 2\n4 5 6\n")
    with pytest.raises(ValueError) as info:
        load_xyz(path)
    assert str(info.value) == f"{path}:4: non-finite value in '1 {value} 2'"


@pytest.mark.parametrize("value", ["1_0", "\u0661\u0662", "1\u00e9"])
def test_load_xyz_rejects_underscores_and_non_ascii_digits(tmp_path, value):
    # float() reads "1_0" as 10.0 and Arabic-Indic digits as 12.0
    path = tmp_path / "bad.xyz"
    path.write_text(f"0 0 0\n1 {value} 2\n")
    with pytest.raises(ValueError) as info:
        load_xyz(path)
    assert str(info.value) == f"{path}:2: non-numeric field in '1 {value} 2'"


_FUZZ_POINTS = np.array([[0.5, -2.0, 1e-300], [3.0, 1e300, -0.0], [7.25, 5e-324, -1.5]])


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.integers(0, _FUZZ_POINTS.size - 1), st.text(max_size=12))
@example(0, "")
@example(1, "1 2")
@example(2, "nan")
@example(3, "-1e999")
@example(4, "1_0")
@example(5, "\u0661\u0662")  # float() reads Arabic-Indic digits
@example(6, "0x10")
@example(7, "5\n7 8 9")
@example(8, " 4.5\u2003")
def test_one_replaced_field_loads_like_float_or_names_the_line(tmp_path, slot, text):
    path = tmp_path / "cloud.xyz"
    save_xyz(path, _FUZZ_POINTS)
    lines = path.read_text().splitlines()
    i, j = divmod(slot, 3)
    tokens = lines[i].split()
    tokens[j] = text
    lines[i] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    try:
        got = load_xyz(path)
    except ValueError as err:
        assert re.match(rf"{re.escape(str(path))}:\d+: ", str(err)), str(err)
        got = None
    if len(f"a{text}a".splitlines()) > 1:
        return  # a line break changes the file's layout; either outcome may be right
    try:
        (token,) = text.split()
        value = float(token)
    except ValueError:
        assert got is None, "one field must parse with float()"
        return
    if "_" in token or not token.isascii() or not np.isfinite(value):
        assert got is None, f"{token!r} must be rejected"
        return
    assert got is not None, "a plain finite float() field must load"
    want = _FUZZ_POINTS.copy()
    want[i, j] = value
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_dataset_save_load_round_trip(tmp_path):
    ds = gen_shapes(("sphere", "torus"), count=4, points=16, seed=7)
    out = tmp_path / "data"
    save_dataset(out, ds)
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert len(manifest) == 4
    assert manifest[0] == "sphere_0000.xyz"
    back = load_dataset(out)
    assert back.labels == ds.labels
    for a, b in zip(back.clouds, ds.clouds):
        assert np.array_equal(a, b)


def test_load_dataset_errors(tmp_path):
    with pytest.raises(OSError):
        load_dataset(tmp_path / "nowhere")
    out = tmp_path / "data"
    ds = gen_shapes(("sphere",), count=2, points=16, seed=0)
    save_dataset(out, ds)
    (out / "sphere_0001.xyz").unlink()
    with pytest.raises(OSError):
        load_dataset(out)


def test_train_eval_split_is_deterministic_and_disjoint():
    ds = gen_shapes(FAMILIES, count=20, points=16, seed=9)
    train, evalset = train_eval_split(ds, eval_fraction=0.1)
    assert train.split == "train" and evalset.split == "eval"
    assert len(train.clouds) + len(evalset.clouds) == 20
    assert len(evalset.clouds) == 2
    train2, eval2 = train_eval_split(ds, eval_fraction=0.1)
    for a, b in zip(evalset.clouds, eval2.clouds):
        assert np.array_equal(a, b)


def test_train_eval_split_keeps_both_sides_nonempty():
    ds = gen_shapes(("sphere",), count=2, points=16, seed=0)
    train, evalset = train_eval_split(ds, eval_fraction=0.1)
    assert len(train.clouds) == 1 and len(evalset.clouds) == 1


def test_train_eval_split_validates_fraction():
    ds = gen_shapes(("sphere",), count=4, points=16, seed=0)
    for frac in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            train_eval_split(ds, eval_fraction=frac)
    with pytest.raises(ValueError):
        train_eval_split(Dataset(clouds=[], labels=[]), eval_fraction=0.1)
