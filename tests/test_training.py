"""Trainer: update isolation, joint-pass gradients, logging, runs, ablations."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from lcd import autodiff as ad
from lcd import trainer
from lcd.dataio import gen_shapes
from lcd.geometry import chamfer, hausdorff, mcd
from lcd.lcdloss import adversarial_loss, init_lcd_params, lcd_forward
from lcd.reconnet import init_recon_params, output_points, reconstruct
from lcd.trainer import (
    ABLATION_VARIANTS,
    CSV_HEADER,
    TrainConfig,
    TrainingDiverged,
    ablate,
    evaluate,
    run,
    sweep,
    train_step,
    variant_config,
)

from conftest import tiny_config


def _nets(points=24, seed=0):
    from lcd.lcdloss import SCORE_BIAS_INIT

    recon = init_recon_params(seed=seed, n_points=points, enc_widths=(8, 12), dec_widths=(12,))
    lcd = init_lcd_params(
        seed=seed + 1, feat_widths=(6, 8), head_widths=(8,), score_bias=SCORE_BIAS_INIT
    )
    return recon, lcd


def _batch(points=24, count=2, seed=3):
    ds = gen_shapes(("sphere", "cube"), count=count, points=points, seed=seed)
    return ds.clouds


def _snapshot(params):
    return {n: params[n].data.copy() for n in params.names()}


def _bit_equal(params, snap):
    return all(np.array_equal(params[n].data, snap[n]) for n in params.names())


def test_validate_rejects_bad_fields():
    bad = [
        dict(loss="emd"),
        dict(iters=0),
        dict(batch=0),
        dict(points=7),
        dict(count=1),
        dict(lr_recon=0.0),
        dict(lr_lcd=-1.0),
        dict(sigma=0.0),
        dict(sigma_r=0.0),
        dict(eval_interval=0),
        dict(eval_fraction=0.0),
        dict(eval_fraction=1.0),
        dict(backend="octree"),
        dict(noise_std=-0.1),
        dict(families=()),
    ]
    # NaN fails every comparison, so each bound must be written to reject it;
    # an infinite value passes a lower bound but breaks the first step
    nan, inf = float("nan"), float("inf")
    bad += [
        dict(sigma=1e-310),  # subnormal: normalize_weights rejects it
        dict(sigma=nan),
        dict(sigma=inf),
        dict(sigma_r=nan),
        dict(sigma_r=inf),
        dict(lr_recon=nan),
        dict(lr_lcd=nan),
        dict(lr_recon=inf),
        dict(noise_std=nan),
        dict(noise_std=inf),
    ]
    for overrides in bad:
        with pytest.raises(ValueError) as info:
            tiny_config(**overrides).validate()
        (field,) = overrides
        assert str(info.value).startswith(field)  # the message names the field
    tiny_config().validate()  # baseline is fine
    tiny_config(sigma=2.2250738585072014e-308, noise_std=0.0).validate()


def test_train_step_zero_lr_leaves_both_nets_bitwise_unchanged():
    recon, lcd = _nets()
    config = tiny_config(lr_recon=0.0, lr_lcd=0.0)
    r_snap, l_snap = _snapshot(recon), _snapshot(lcd)
    train_step(_batch(), lcd, recon, config)
    assert _bit_equal(recon, r_snap)
    assert _bit_equal(lcd, l_snap)


def test_train_step_updates_are_isolated_per_phase():
    recon, lcd = _nets()
    config = tiny_config(lr_recon=0.0)
    r_snap, l_snap = _snapshot(recon), _snapshot(lcd)
    train_step(_batch(), lcd, recon, config)
    assert _bit_equal(recon, r_snap)  # only the weighting should move
    assert not _bit_equal(lcd, l_snap)

    recon, lcd = _nets()
    config = tiny_config(lr_lcd=0.0)
    r_snap, l_snap = _snapshot(recon), _snapshot(lcd)
    train_step(_batch(), lcd, recon, config)
    assert not _bit_equal(recon, r_snap)
    assert _bit_equal(lcd, l_snap)


def test_cd_mode_never_touches_weighting_params():
    recon, lcd = _nets()
    config = tiny_config(loss="cd")
    l_snap = _snapshot(lcd)
    rec = train_step(_batch(), lcd, recon, config)
    assert _bit_equal(lcd, l_snap)
    assert rec.l_lcd is None
    assert rec.l_r is not None and rec.l_r > 0.0


def test_lcd_mode_requires_weighting_params():
    recon, _ = _nets()
    with pytest.raises(ValueError):
        train_step(_batch(), None, recon, tiny_config())
    # plain-chamfer mode runs fine without them
    train_step(_batch(), None, recon, tiny_config(loss="cd"))


def test_logged_losses_form_an_exact_pair():
    recon, lcd = _nets()
    config = tiny_config()
    rec = train_step(_batch(), lcd, recon, config)
    assert rec.l_lcd == -math.log(rec.l_r + config.sigma_r)

    recon, lcd = _nets()
    rec = train_step(_batch(), lcd, recon, tiny_config(no_log=True))
    assert rec.l_lcd == -rec.l_r


@pytest.mark.parametrize("no_log", [False, True])
def test_joint_pass_gradients_equal_each_players_own_backward(monkeypatch, no_log):
    recon, _ = _nets()
    lcd = init_lcd_params(seed=1, feat_widths=(6, 8), head_widths=(8,), zero_final=False)
    config = tiny_config(no_log=no_log)
    batch = _batch()
    stacked = np.concatenate(batch)
    n_o = output_points(recon)
    with ad.Tape() as tape:
        s_i = ad.tensor(stacked)
        s_o = reconstruct(s_i, recon, 24)
        l_r = lcd_forward(s_i, s_o, lcd, config.sigma, 24, n_o).loss
        objective = ad.neg(l_r) if no_log else adversarial_loss(l_r, config.sigma_r)
    want_lcd = ad.backward(tape, objective, lcd)
    want_recon = ad.backward(tape, l_r, recon)

    seen = {}
    real_update = trainer.adam_update

    def spy(params, grads, lr):
        seen[params is lcd] = {n: grads[n].data.copy() for n in params.names()}
        return real_update(params, grads, lr)
    monkeypatch.setattr(trainer, "adam_update", spy)
    train_step(batch, lcd, recon, config)

    for name in recon.names():
        assert np.array_equal(seen[False][name], want_recon[name].data), name
    # the joint pass scales at the leaves, the separate one at the root
    for name in lcd.names():
        assert np.any(want_lcd[name].data != 0.0), name
        np.testing.assert_allclose(seen[True][name], want_lcd[name].data, rtol=1e-12, atol=0, err_msg=name)


def test_train_step_is_deterministic():
    a = []
    for _ in range(2):
        recon, lcd = _nets()
        rec = train_step(_batch(), lcd, recon, tiny_config())
        a.append((rec.l_r, rec.l_lcd, _snapshot(recon), _snapshot(lcd)))
    assert a[0][0] == a[1][0] and a[0][1] == a[1][1]
    for n in a[0][2]:
        assert np.array_equal(a[0][2][n], a[1][2][n])
    for n in a[0][3]:
        assert np.array_equal(a[0][3][n], a[1][3][n])


def test_train_step_raises_on_nonfinite_reconstruction():
    for loss in ("lcd", "cd"):
        recon, lcd = _nets()
        recon["dec.w0"].data[:] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as info:
                train_step(_batch(), lcd, recon, tiny_config(loss=loss))
        assert "reconstruction output" in str(info.value)


def test_evaluate_per_family_mean_matches_overall():
    recon, _ = _nets(points=16)
    ds = gen_shapes(("sphere", "cube"), count=5, points=16, seed=4)
    ev = evaluate(recon, ds)
    assert set(ev.per_family) == {"sphere", "cube"}
    weighted = (3 * ev.per_family["sphere"].cd + 2 * ev.per_family["cube"].cd) / 5
    assert abs(ev.cd - weighted) < 1e-12
    assert ev.cd <= ev.hd
    with pytest.raises(ValueError):
        evaluate(recon, gen_shapes(("sphere",), count=2, points=16, seed=0).__class__([], []))


def test_evaluate_values_equal_the_separate_metric_calls():
    recon, _ = _nets(points=16)
    ds = gen_shapes(("sphere", "cube"), count=2, points=16, seed=4)
    ev = evaluate(recon, ds)
    out = reconstruct(ad.tensor(np.concatenate(ds.clouds)), recon, 16).data
    for k, label in enumerate(ds.labels):
        src, rec = ds.clouds[k], out[k * 16 : (k + 1) * 16]
        fam = ev.per_family[label]  # one cloud per family: its own values
        assert (fam.cd, fam.mcd, fam.hd) == (chamfer(src, rec), mcd(src, rec), hausdorff(src, rec))


def test_evaluate_names_the_cloud_with_nonfinite_reconstruction():
    recon, _ = _nets(points=16)
    recon["dec.b1"].data[4] = np.nan
    ds = gen_shapes(("cube", "sphere"), count=2, points=16, seed=4)
    with pytest.raises(ValueError, match=r"held-out cloud 0 \(cube\) has non-finite coordinates"):
        evaluate(recon, ds)


def test_evaluate_in_chunks_equals_one_stacked_reconstruction(monkeypatch):
    recon = init_recon_params(seed=6, n_points=256)
    ds = gen_shapes(("sphere", "cube", "torus"), count=5, points=256, seed=7)
    out = reconstruct(ad.tensor(np.concatenate(ds.clouds)), recon, 256).data
    sums = {}
    for k, label in enumerate(ds.labels):
        rec = out[k * 256 : (k + 1) * 256]
        vals = np.array([chamfer(ds.clouds[k], rec), mcd(ds.clouds[k], rec), hausdorff(ds.clouds[k], rec)])
        sums[label] = sums.get(label, 0.0) + vals
    want = sum(sums.values()) / len(ds)
    for rows in (trainer.EVAL_CHUNK_ROWS, 2 * 256 + 255, 1):  # chunks of 5; 2, 2, 1; 1 each
        monkeypatch.setattr(trainer, "EVAL_CHUNK_ROWS", rows)
        ev = evaluate(recon, ds)
        assert (ev.cd, ev.mcd, ev.hd) == tuple(float(x) for x in want), rows
        assert ev.per_family["torus"].cd == float(sums["torus"][0])


def test_evaluate_memory_does_not_grow_with_the_cloud_count():
    # one stacked encoder pass held a 128-wide activation of every point
    recon = init_recon_params(seed=8, n_points=512)
    peaks = []
    for count in (8, 32):
        ds = gen_shapes(("sphere", "cube"), count=count, points=512, seed=9)
        tracemalloc.start()
        try:
            evaluate(recon, ds)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], [f"{p / 2**20:.1f} MiB" for p in peaks]


def test_run_records_and_files(tmp_path):
    config = tiny_config(iters=5, eval_interval=2, out=str(tmp_path / "r"))
    result = run(config)
    iters = [r.iteration for r in result.records]
    assert iters == [0, 2, 4, 5]  # eval points plus the forced final row
    assert all(r.cd is not None and np.isfinite(r.cd) for r in result.records)
    assert result.records[0].l_r is None  # no step happened yet

    out = tmp_path / "r"
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(result.records)
    assert lines[1].startswith("0,") and lines[1].endswith(",,,")
    for line in lines[1:]:
        assert len(line.split(",")) == 7
        assert line.split(",")[6] == ""  # timing opt-in keeps the CSV stable

    echo = (out / "config.txt").read_text()
    assert "sigma = 0.01\n" in echo
    assert "loss = lcd\n" in echo
    assert (out / "ckpt_recon.txt").exists()
    assert (out / "ckpt_lcd.txt").exists()
    timing = (out / "timing.txt").read_text()
    assert timing.startswith("iterations = 5\n")
    assert "wall_seconds" in timing and "ms_per_iter" in timing


def test_run_same_seed_gives_byte_identical_csv(tmp_path):
    config = tiny_config(iters=4, eval_interval=2)
    a = run(TrainConfig(**{**config.__dict__, "out": str(tmp_path / "a")}))
    b = run(TrainConfig(**{**config.__dict__, "out": str(tmp_path / "b")}))
    csv_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    csv_b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert csv_a == csv_b
    ck_a = (tmp_path / "a" / "ckpt_recon.txt").read_bytes()
    ck_b = (tmp_path / "b" / "ckpt_recon.txt").read_bytes()
    assert ck_a == ck_b
    c = run(TrainConfig(**{**config.__dict__, "seed": 1, "out": str(tmp_path / "c")}))
    assert (tmp_path / "c" / "metrics.csv").read_bytes() != csv_a


def test_run_wall_seconds_covers_data_loading(tmp_path, monkeypatch):
    config = tiny_config(iters=2, eval_interval=1)
    run(TrainConfig(**{**config.__dict__, "out": str(tmp_path / "plain")}))
    load = trainer._load_run_data

    def slow_load(cfg):
        time.sleep(0.2)
        return load(cfg)

    monkeypatch.setattr(trainer, "_load_run_data", slow_load)
    slow = run(TrainConfig(**{**config.__dict__, "out": str(tmp_path / "slow")}))
    timing = (tmp_path / "slow" / "timing.txt").read_text()
    assert float(timing.split("wall_seconds = ")[1].split()[0]) >= 0.2
    assert slow.wall_seconds >= 0.2
    for name in ("metrics.csv", "ckpt_recon.txt", "ckpt_lcd.txt"):
        assert (tmp_path / "slow" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_run_timing_csv_opt_in(tmp_path):
    config = tiny_config(iters=2, eval_interval=1, timing_csv=True, out=str(tmp_path / "t"))
    run(config)
    lines = (tmp_path / "t" / "metrics.csv").read_text().splitlines()
    row = lines[2].split(",")
    assert row[6] != "" and float(row[6]) > 0.0


def test_run_cd_mode_leaves_l_lcd_blank(tmp_path):
    config = tiny_config(loss="cd", iters=2, eval_interval=1, out=str(tmp_path / "cd"))
    result = run(config)
    assert result.lcd_params is None
    assert not (tmp_path / "cd" / "ckpt_lcd.txt").exists()
    for line in (tmp_path / "cd" / "metrics.csv").read_text().splitlines()[2:]:
        fields = line.split(",")
        assert fields[5] == ""  # l_lcd undefined in plain-chamfer mode
        assert fields[4] != ""


def test_run_validates_config():
    with pytest.raises(ValueError):
        run(tiny_config(lr_recon=0.0))


def test_run_works_when_batch_exceeds_training_set():
    result = run(tiny_config(count=3, batch=6, iters=2))
    assert result.final.iteration == 2


def test_run_uses_saved_dataset(tmp_path):
    from lcd.dataio import save_dataset

    ds = gen_shapes(("sphere", "torus"), count=6, points=24, seed=11)
    save_dataset(tmp_path / "data", ds)
    config = tiny_config(data=str(tmp_path / "data"), iters=2)
    result = run(config)
    assert result.final.iteration == 2


def test_run_dumps_divergence_report(tmp_path, monkeypatch):
    def boom(batch, lcd_params, recon_params, config):
        raise TrainingDiverged(3, "weighting", float("nan"), batch, {"recon": 1.0})

    monkeypatch.setattr(trainer, "train_step", boom)
    config = tiny_config(iters=4, out=str(tmp_path / "d"))
    with pytest.raises(TrainingDiverged):
        run(config)
    report = (tmp_path / "d" / "diverged.txt").read_text()
    assert "iteration" in report and "weighting" in report


def test_variant_config_switches():
    base = tiny_config()
    assert variant_config(base, "cd").loss == "cd"
    full = variant_config(base, "lcd_full")
    assert (full.loss, full.no_siacon, full.no_log) == ("lcd", False, False)
    assert variant_config(base, "lcd_no_siacon").no_siacon
    assert variant_config(base, "lcd_no_log").no_log
    with pytest.raises(ValueError):
        variant_config(base, "lcd_extra")


def test_ablate_layout_and_median_recomputability(tmp_path):
    config = tiny_config(iters=3, eval_interval=3, out=str(tmp_path / "ab"))
    rows = ablate(config, ["cd", "lcd_full"], n_seeds=3)
    assert [r.key for r in rows] == ["cd", "lcd_full"]
    assert all(r.seeds == 3 for r in rows)

    out = tmp_path / "ab"
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "variant,cd,mcd,hd,seeds"
    assert len(summary) == 3
    for variant in ("cd", "lcd_full"):
        finals = []
        for seed in range(3):
            csv = (out / f"{variant}_seed{seed}" / "metrics.csv").read_text().splitlines()
            finals.append(float(csv[-1].split(",")[1]))
        finals.sort()
        row = next(r for r in rows if r.key == variant)
        assert row.cd == finals[1]  # median reconstructs exactly from the CSVs


def test_ablate_validates_variants():
    config = tiny_config(iters=2)
    with pytest.raises(ValueError):
        ablate(config, ["warp"], n_seeds=1)
    with pytest.raises(ValueError):
        ablate(config, [], n_seeds=1)
    with pytest.raises(ValueError):
        ablate(config, ["cd"], n_seeds=0)
    assert set(ABLATION_VARIANTS) == {"cd", "lcd_no_siacon", "lcd_no_log", "lcd_full"}


def test_ablate_cd_row_matches_direct_run(tmp_path):
    config = tiny_config(iters=3, eval_interval=3)
    rows = ablate(config, ["cd"], n_seeds=1)
    direct = run(variant_config(config, "cd"))
    assert rows[0].cd == float("%.6g" % direct.final.cd)


def test_sweep_files_and_keys(tmp_path):
    config = tiny_config(iters=2, eval_interval=2, out=str(tmp_path / "sw"))
    rows = sweep(config, "sigma", [0.001, 0.1], n_seeds=1)
    assert [r.key for r in rows] == ["0.001", "0.1"]
    out = tmp_path / "sw"
    assert (out / "sweep_sigma_0.001_seed0" / "metrics.csv").exists()
    assert (out / "sweep_sigma_0.1_seed0" / "metrics.csv").exists()
    summary = (out / "summary_sigma.csv").read_text().splitlines()
    assert summary[0] == "sigma,cd,mcd,hd,seeds"
    assert len(summary) == 3

    rows = sweep(tiny_config(iters=2), "lr-lcd", [2e-3])
    assert rows[0].key == "0.002"
    with pytest.raises(ValueError):
        sweep(config, "batch", [1, 2])
    with pytest.raises(ValueError):
        sweep(config, "sigma", [])


def test_sweep_overrides_loss_mode_to_full_lcd(tmp_path):
    config = tiny_config(loss="cd", iters=2, out=str(tmp_path / "sw2"))
    sweep(config, "sigma", [0.01], n_seeds=1)
    echo = (tmp_path / "sw2" / "sweep_sigma_0.01_seed0" / "config.txt").read_text()
    assert "loss = lcd\n" in echo
