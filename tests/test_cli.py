"""End-to-end command line behavior and exit codes."""

import numpy as np
import pytest

from lcd.cli import main
from lcd.dataio import load_xyz

TINY_TRAIN = [
    "--iters", "3", "--batch", "2", "--points", "24", "--count", "6",
    "--families", "sphere,cube", "--eval-interval", "2",
]


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["train", "--out", "x", "--warp", "9"]) == 1
    assert main(["gen-data", "--out", "x", "--count", "notanumber"]) == 1


def test_gen_data_writes_count_clouds(tmp_path, capsys):
    out = tmp_path / "data"
    code = main([
        "gen-data", "--families", "sphere,cube", "--count", "5",
        "--points", "16", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    assert "wrote 5 clouds" in capsys.readouterr().out
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert len(manifest) == 5
    assert manifest[:3] == ["sphere_0000.xyz", "cube_0000.xyz", "sphere_0001.xyz"]
    cloud = load_xyz(out / manifest[0])
    assert cloud.shape == (16, 3)
    radii = np.linalg.norm(cloud - cloud.mean(axis=0), axis=1)
    assert abs(radii.max() - 1.0) < 1e-9


def test_gen_data_rerun_is_byte_identical(tmp_path):
    args = ["gen-data", "--families", "torus", "--count", "2", "--points", "16",
            "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("manifest.txt", "torus_0000.xyz", "torus_0001.xyz"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_gen_data_rejects_bad_noise(tmp_path, capsys, value):
    out = tmp_path / "x"
    assert main(["gen-data", "--noise", value, "--count", "1", "--points", "16", "--out", str(out)]) == 1
    assert "noise_std must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_rejects_unknown_family(tmp_path, capsys):
    assert main(["gen-data", "--families", "klein", "--out", str(tmp_path / "x")]) == 1
    assert "klein" in capsys.readouterr().err


def test_train_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", *TINY_TRAIN, "--seed", "1", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "final iteration 3" in printed
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "iter,cd,mcd,hd,l_r,l_lcd,ms_per_step"
    assert [l.split(",")[0] for l in lines[1:]] == ["0", "2", "3"]
    echo = (out / "config.txt").read_text()
    assert "sigma = 0.01\n" in echo
    assert "seed = 1\n" in echo
    assert (out / "ckpt_recon.txt").exists()
    assert (out / "ckpt_lcd.txt").exists()
    assert (out / "timing.txt").exists()


def test_train_same_seed_byte_identical_csv(tmp_path):
    for name in ("a", "b"):
        assert main(["train", *TINY_TRAIN, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
        tmp_path / "b" / "metrics.csv"
    ).read_bytes()


def test_train_cd_mode_leaves_l_lcd_empty(tmp_path):
    out = tmp_path / "cd"
    assert main(["train", *TINY_TRAIN, "--loss", "cd", "--out", str(out)]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()[2:]
    assert all(r.split(",")[5] == "" for r in rows)
    assert all(r.split(",")[4] != "" for r in rows)
    assert not (out / "ckpt_lcd.txt").exists()


def test_train_rejects_bad_values(tmp_path, capsys):
    base = ["train", "--out", str(tmp_path / "x")]
    assert main(base + ["--iters", "0"]) == 1
    assert main(base + ["--sigma", "-1"]) == 1
    assert main(base + ["--points", "4"]) == 1
    assert main(base + ["--loss", "emd"]) == 1
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--sigma", "1e-310", "sigma must be finite and >= 2.22507e-308, got 1e-310"),
        ("--sigma", "nan", "sigma must be finite and >= 2.22507e-308, got nan"),
        ("--sigma-r", "nan", "sigma_r must be finite and > 0, got nan"),
        ("--lr-recon", "nan", "lr_recon must be finite and > 0, got nan"),
        ("--lr-lcd", "nan", "lr_lcd must be finite and > 0, got nan"),
        ("--noise", "nan", "noise_std must be finite and >= 0, got nan"),
    ],
)
def test_train_rejects_bad_floats_before_any_work(tmp_path, capsys, flag, value, message):
    out = tmp_path / "x"
    assert main(["train", "--out", str(out), flag, value]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()  # no data generated, no evaluation run


def test_train_missing_data_manifest_is_runtime_error(tmp_path, capsys):
    code = main(["train", *TINY_TRAIN, "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "r")])
    assert code == 2


def test_eval_checkpoint_round_trip(tmp_path, capsys):
    run_dir = tmp_path / "run"
    data_dir = tmp_path / "data"
    assert main(["train", *TINY_TRAIN, "--out", str(run_dir)]) == 0
    assert main(["gen-data", "--families", "sphere,cube", "--count", "4",
                 "--points", "24", "--out", str(data_dir)]) == 0
    capsys.readouterr()
    code = main(["eval", "--ckpt-recon", str(run_dir / "ckpt_recon.txt"),
                 "--data", str(data_dir), "--out", str(tmp_path / "ev")])
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "," in l]
    assert lines[0] == "family,cd,mcd,hd"
    assert lines[1].startswith("all,")
    fams = {l.split(",")[0] for l in lines[2:]}
    assert fams == {"sphere", "cube"}
    all_cd = float(lines[1].split(",")[1])
    assert np.isfinite(all_cd) and all_cd >= 0.0
    assert (tmp_path / "ev" / "eval.csv").read_text().splitlines()[0] == "family,cd,mcd,hd"


def test_eval_identity_dataset_gives_zero_chamfer(tmp_path, capsys):
    # a constant-map checkpoint (zero weights, final bias holds the cloud)
    # reproduces its own decoder output exactly, so feeding that output
    # back as the dataset must score an exact zero
    from lcd.autodiff import tensor
    from lcd.checkpoint import save_checkpoint
    from lcd.dataio import Dataset, save_dataset
    from lcd.reconnet import init_recon_params, reconstruct

    rng = np.random.default_rng(0)
    cloud = rng.normal(size=(24, 3))
    params = init_recon_params(seed=0, n_points=24, enc_widths=(8,), dec_widths=(8,))
    for name in params.names():
        params[name].data[:] = 0.0
    params["dec.b1"].data[:] = cloud.reshape(-1)
    out_cloud = reconstruct(tensor(rng.normal(size=(10, 3))), params).data
    assert np.array_equal(out_cloud, cloud)

    ckpt = tmp_path / "const.txt"
    save_checkpoint(ckpt, params)
    save_dataset(tmp_path / "identity", Dataset([out_cloud], ["sphere"]))
    code = main(["eval", "--ckpt-recon", str(ckpt), "--data", str(tmp_path / "identity")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[1].split(",")[1]) == 0.0
    assert float(lines[1].split(",")[3]) == 0.0


def test_eval_corrupt_checkpoint_exits_2(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--count", "2", "--points", "16", "--out", str(data_dir)]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("NOTACKPT\n")
    assert main(["eval", "--ckpt-recon", str(bad), "--data", str(data_dir)]) == 2
    assert "magic" in capsys.readouterr().err


def test_eval_shape_mismatched_checkpoint_exits_2_naming_tensor(tmp_path, capsys):
    run_dir = tmp_path / "run"
    data_dir = tmp_path / "data"
    assert main(["train", *TINY_TRAIN, "--out", str(run_dir)]) == 0
    assert main(["gen-data", "--count", "2", "--points", "16", "--out", str(data_dir)]) == 0
    ckpt = run_dir / "ckpt_recon.txt"
    text = ckpt.read_text().splitlines()
    # shrink one declared tensor so the layer chain no longer fits
    for k, line in enumerate(text):
        if line.startswith("tensor enc.w1 "):
            dims = line.split()[2].split(",")
            text[k] = f"tensor enc.w1 {int(dims[0]) - 1},{dims[1]}"
            del text[k + 1]  # drop one data row to keep the value count right
            break
    ckpt.write_text("\n".join(text) + "\n")
    capsys.readouterr()
    assert main(["eval", "--ckpt-recon", str(ckpt), "--data", str(data_dir)]) == 2
    assert "enc.w1" in capsys.readouterr().err


def test_eval_missing_inputs_exit_2(tmp_path):
    assert main(["eval", "--ckpt-recon", str(tmp_path / "no.txt"),
                 "--data", str(tmp_path / "nodata")]) == 2


def test_ablate_variants_summary(tmp_path, capsys):
    out = tmp_path / "ab"
    code = main(["ablate", *TINY_TRAIN, "--variants", "cd,lcd_full",
                 "--seeds", "1", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "cd" in printed and "lcd_full" in printed
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "variant,cd,mcd,hd,seeds"
    assert len(summary) == 3
    assert (out / "cd_seed0" / "metrics.csv").exists()
    assert (out / "lcd_full_seed0" / "metrics.csv").exists()


def test_ablate_rejects_bogus_variants(tmp_path, capsys):
    assert main(["ablate", *TINY_TRAIN, "--variants", "warp",
                 "--seeds", "1", "--out", str(tmp_path / "x")]) == 1
    assert main(["ablate", *TINY_TRAIN, "--variants", "cd",
                 "--seeds", "0", "--out", str(tmp_path / "x")]) == 1


def test_ablate_sweep_mode(tmp_path, capsys):
    out = tmp_path / "sw"
    code = main(["ablate", *TINY_TRAIN, "--sweep", "sigma=0.001,0.1",
                 "--seeds", "1", "--out", str(out)])
    assert code == 0
    assert "sigma" in capsys.readouterr().out
    summary = (out / "summary_sigma.csv").read_text().splitlines()
    assert summary[0] == "sigma,cd,mcd,hd,seeds"
    assert (out / "sweep_sigma_0.001_seed0" / "metrics.csv").exists()


def test_ablate_sweep_usage_errors(tmp_path, capsys):
    base = ["ablate", *TINY_TRAIN, "--seeds", "1", "--out", str(tmp_path / "x")]
    assert main(base + ["--sweep", "sigma"]) == 1
    assert main(base + ["--sweep", "sigma=a,b"]) == 1
    assert main(base + ["--sweep", "batch=1,2"]) == 1
    assert main(base + ["--sweep", "sigma="]) == 1
