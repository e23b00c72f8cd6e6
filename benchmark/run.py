"""Benchmark of the lcd trainer: three workloads, end to end and per layer.

Run from the root of a checkout:

    python3 benchmark/run.py --workload train-lcd --seed 1 --seconds 30 --trace 0

It imports ``lcd`` from the checkout's ``src/``, builds the workload's
inputs from the seed, runs the workload in a fresh process (child.py)
through ``lcd.cli.main``, checks the program's outputs against the
reference geometry and networks in this directory, and prints one JSON
line last: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics from spans
with ``--trace 1``). The line before it, starting ``# ``, records the
environment and the run's details. Outputs go to ``.bench_out/<workload>``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import refgeom
import refmodel
import selftest
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("train-lcd", "train-cd", "eval-2048")
TRAIN_ITERS = 100  # at 50 the held-out chamfer still falls steeply and varies ~17% by seed
EVAL_INTERVAL = 10  # the default 50 gives 3 evaluate calls of ~60 ms a round: too little to time
TAIL_PCT = {"train-lcd": 90, "train-cd": 95}  # >= 10 steps beyond at 100 and 200+ steps
EVAL_CLOUDS = 16
EVAL_POINTS = 2048
ENC_WIDTHS = (64, 128, 128)
DEC_WIDTHS = (128, 256)
HELDOUT_CLOUDS = 16
HELDOUT_SEED_OFFSET = 2**40  # held-out clouds come from their own seed stream
TRAINED_RATIO = 0.75  # final_cd must be at most this share of the untrained value
CHILD_TIMEOUT_S = 150  # with set-up and checks, a run stays under 180 s

OP_KINDS = ("matmul", "add_row", "relu", "gather_rows", "group_max")
PER_LAYER = {
    "trainer.train_step.self_ms": "ms/op",
    "trainer.evaluate.ms": "ms/op",
    "autodiff.record.calls": "count/op",
    **{f"autodiff.record.{k}.ms": "ms/op" for k in OP_KINDS + ("other",)},
    "autodiff.backward.weighting.ms": "ms/op",
    "autodiff.backward.recon.ms": "ms/op",
    "autodiff.backward.entries": "count/op",
    "autodiff.adam_update.ms": "ms/op",
    "lcdloss.lcd_forward.ms": "ms/op",
    "lcdloss.siacon.ms": "ms/op",
    "lcdloss.siaatt.ms": "ms/op",
    "lcdloss.normalize_weights.ms": "ms/op",
    "reconnet.encode.ms": "ms/op",
    "reconnet.decode.ms": "ms/op",
    "geometry.nn_match.calls": "count/op",
    "geometry.nn_match.pairs": "count/op",
    "geometry.nn_match.ms": "ms/op",
    "geometry.fps.calls": "count/op",
    "geometry.fps.ms": "ms/op",
    "dataio.gen_shapes.ms": "ms/op",
    "dataio.load_dataset.ms": "ms/op",
    "checkpoint.save_checkpoint.ms": "ms/op",
    "checkpoint.save_checkpoint.bytes": "B/op",
    "checkpoint.load_checkpoint.ms": "ms/op",
    "checkpoint.load_checkpoint.bytes": "B/op",
    "cli.main.self_ms": "ms/op",
}
END_TO_END = {
    "setup_s": "s",
    "train_pairs_per_s": "pairs/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "eval_ms_per_cloud": "ms",
    "final_cd": "length",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a result; no JSON line is printed."""


# --------------------------------------------------------------------------
# inputs


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(env.get(var, nproc))
        except ValueError:
            want = nproc
        env[var] = str(min(max(want, 1), nproc))
    return env


def _eval_inputs(lcd, out: Path, seed: int) -> tuple[list[str], dict]:
    """Dataset of 2048-point clouds and a checkpoint whose output is a shape.

    The checkpoint is an untrained autoencoder (Glorot weights from the
    seed) whose last decoder bias holds a unit-sphere template of 2048
    points, so every reconstruction is that sphere moved by the untrained
    network's small input-dependent offsets.
    """
    data_dir = out / "data"
    lcd.save_dataset(data_dir, lcd.gen_shapes(lcd.FAMILIES, EVAL_CLOUDS, EVAL_POINTS, 0.0, seed))
    rng = np.random.default_rng([seed, EVAL_POINTS])
    shapes = {}
    for prefix, sizes in (("enc", (3,) + ENC_WIDTHS), ("dec", (ENC_WIDTHS[-1],) + DEC_WIDTHS + (3 * EVAL_POINTS,))):
        for k in range(len(sizes) - 1):
            shapes[f"{prefix}.w{k}"] = (sizes[k], sizes[k + 1])
            shapes[f"{prefix}.b{k}"] = (sizes[k + 1],)
    params = refmodel.init_autoencoder(rng, shapes)
    template = rng.standard_normal((EVAL_POINTS, 3))
    template /= np.linalg.norm(template, axis=1, keepdims=True)
    params[f"dec.b{len(DEC_WIDTHS)}"] = template.ravel()
    ckpt = lcd.save_checkpoint(out / "ckpt_recon.txt", params)
    argv = ["eval", "--ckpt-recon", str(ckpt), "--data", str(data_dir), "--backend", "brute", "--out", str(out / "round{round}")]
    return argv, params


# --------------------------------------------------------------------------
# output checks


def _agrees(printed: str, ref: float) -> bool:
    """Whether ``printed`` (6 significant digits) is ``ref`` rounded."""
    value = float(printed)
    if value == 0.0:
        return abs(ref) < 5e-7
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 5)
    return abs(ref - value) <= half_unit * (1 + 1e-6) + 1e-12 * abs(ref)


def _same_files(dirs: list[Path], name: str) -> bool:
    texts = {(d / name).read_bytes() for d in dirs}
    return len(texts) == 1


def _mean_cd(params: dict, clouds) -> float:
    return float(np.mean([refgeom.chamfer(c, refmodel.reconstruct(params, c)) for c in clouds]))


def _check_train(lcd, workload: str, seed: int, run_dir: Path, failures: list[str]) -> float:
    """Check a train round's outputs; return final_cd."""
    cfg = lcd.TrainConfig()
    recon = refmodel.read_checkpoint(run_dir / "ckpt_recon.txt")

    with open(run_dir / "metrics.csv") as f:
        last = list(csv.DictReader(f))[-1]
    _, program_eval = lcd.train_eval_split(
        lcd.gen_shapes(cfg.families, cfg.count, cfg.points, cfg.noise_std, seed), cfg.eval_fraction
    )
    ref_cd = _mean_cd(recon, program_eval.clouds)
    if not _agrees(last["cd"], ref_cd):
        failures.append(f"metrics.csv last cd {last['cd']} != reference {ref_cd:.9g}")

    heldout = lcd.gen_shapes(cfg.families, HELDOUT_CLOUDS, cfg.points, cfg.noise_std, seed + HELDOUT_SEED_OFFSET).clouds
    final_cd = _mean_cd(recon, heldout)
    untrained = refmodel.init_autoencoder(np.random.default_rng([seed, 0]), {k: v.shape for k, v in recon.items()})
    untrained_cd = _mean_cd(untrained, heldout)
    if not final_cd <= TRAINED_RATIO * untrained_cd:
        failures.append(f"final_cd {final_cd:.6g} is above {TRAINED_RATIO} x untrained {untrained_cd:.6g}")

    if workload == "train-lcd":
        _check_weighting(lcd, cfg.sigma, run_dir / "ckpt_lcd.txt", recon, heldout, failures)
    return final_cd


def _check_weighting(lcd, sigma: float, path: Path, recon: dict, heldout, failures: list[str]) -> None:
    """Score held-out pairs with the program's loss on the written weighting checkpoint.

    The program's weights and loss (``lcdloss.lcd_forward``) must have the
    method's properties and agree with the reference weighting networks.
    """
    program = lcd.ParamSet()
    for name, value in lcd.load_checkpoint(path).items():
        program.add(name, value)
    reference = refmodel.read_checkpoint(path)
    for k, s_i in enumerate(heldout):
        s_o = refmodel.reconstruct(recon, s_i)
        res = lcd.lcdloss.lcd_forward(s_i, s_o, program, sigma)
        w_i, w_o = res.weights_in.data.ravel(), res.weights_out.data.ravel()
        ref_i, ref_o = refmodel.weights(reference, s_i, s_o, sigma)
        if not (w_i.min() > 0 and w_o.min() > 0):
            failures.append(f"held-out pair {k}: a weight is not positive")
        if abs(w_i.sum() - 1.0) > 1e-9 or abs(w_o.sum() - 1.0) > 1e-9:
            failures.append(f"held-out pair {k}: weights sum to {w_i.sum()!r}, {w_o.sum()!r}")
        if not (np.allclose(w_i, ref_i, rtol=1e-9, atol=0) and np.allclose(w_o, ref_o, rtol=1e-9, atol=0)):
            failures.append(f"held-out pair {k}: weights differ from the reference weighting networks")
        d_i, d_o = refgeom.nn_dists(s_i, s_o), refgeom.nn_dists(s_o, s_i)
        n_l_r = len(s_i) * res.loss.item()
        ref_n_l_r = 0.5 * (float(ref_i @ d_i) + float(ref_o @ d_o))
        lo, hi = min(d_i.min(), d_o.min()), max(d_i.max(), d_o.max())
        if not lo <= n_l_r <= hi:
            failures.append(f"held-out pair {k}: n*L_R {n_l_r:.6g} outside [{lo:.6g}, {hi:.6g}]")
        if not math.isclose(n_l_r, ref_n_l_r, rel_tol=1e-9):
            failures.append(f"held-out pair {k}: n*L_R {n_l_r!r} != reference {ref_n_l_r!r}")


def _check_eval(out: Path, params: dict, run_dir: Path, failures: list[str]) -> float:
    """Check an eval round's eval.csv row by row; return its ``all`` cd as final_cd."""
    per_family: dict[str, list] = defaultdict(list)
    for name in (out / "data" / "manifest.txt").read_text().split():
        cloud = np.loadtxt(out / "data" / name, dtype=np.float64, ndmin=2)
        rec = refmodel.reconstruct(params, cloud)
        per_family[name.rsplit("_", 1)[0]].append(
            (refgeom.chamfer(cloud, rec), refgeom.mcd(cloud, rec), refgeom.hausdorff(cloud, rec))
        )
    expected = {fam: np.mean(rows, axis=0) for fam, rows in per_family.items()}
    expected["all"] = np.mean([r for rows in per_family.values() for r in rows], axis=0)

    with open(run_dir / "eval.csv") as f:
        rows = list(csv.DictReader(f))
    if sorted(r["family"] for r in rows) != sorted(expected):
        failures.append(f"eval.csv rows {[r['family'] for r in rows]} != families {sorted(expected)}")
    for row in rows:
        ref = expected.get(row["family"])
        if ref is None:
            continue
        for col, value in zip(("cd", "mcd", "hd"), ref):
            if not _agrees(row[col], value):
                failures.append(f"eval.csv {row['family']} {col} {row[col]} != reference {value:.9g}")
        if not float(row["hd"]) >= float(row["cd"]):
            failures.append(f"eval.csv {row['family']}: hd {row['hd']} < cd {row['cd']}")
    return next((float(r["cd"]) for r in rows if r["family"] == "all"), float("nan"))


# --------------------------------------------------------------------------
# metrics


def _named(all_spans, name):
    return [s for s in all_spans if s[0] == name]


def _ms(span) -> float:
    return (span[2] - span[1]) * 1000.0


def end_to_end(workload, child, all_spans, pairs_per_round, t_spawn, final_cd) -> dict:
    rounds = [r for r in child["rounds"] if r["rc"] == 0]
    evals = _named(all_spans, "trainer.evaluate")
    if workload.startswith("train"):
        steps = [_ms(s) for s in _named(all_spans, "trainer.train_step")]
        first = _named(all_spans, "trainer.train_step")[0]
        tail = statistics.quantiles(steps, n=100, method="inclusive")[TAIL_PCT[workload] - 1]
    else:
        # an operation is one evaluated cloud; the program scores a round's
        # clouds in one evaluate call, so each call gives one per-cloud time
        steps = [_ms(s) / s[4]["clouds"] for s in evals]
        first = evals[0]
        tail = max(steps)
    values = {
        "setup_s": first[1] - t_spawn,
        "train_pairs_per_s": pairs_per_round * len(rounds) / sum(r["end"] - r["start"] for r in rounds),
        "step_ms_p50": statistics.median(steps),
        "step_ms_tail": tail,
        # the median keeps out a process's first, cold call, which is part of setup_s
        "eval_ms_per_cloud": statistics.median(_ms(s) / s[4]["clouds"] for s in evals),
        "final_cd": final_cd,
        "peak_rss_mb": child["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(all_spans, units: int, absent: list[str]) -> dict:
    inner = [0.0] * len(all_spans)
    for _, start, end, parent, _ in all_spans:
        if parent >= 0:
            inner[parent] += end - start
    ms, self_ms, calls, counts = defaultdict(float), defaultdict(float), Counter(), Counter()
    no_attrs = set()
    for (name, start, end, _, attrs), child in zip(all_spans, inner):
        d = 1000.0 * (end - start)
        ms[name] += d
        self_ms[name] += d - 1000.0 * child
        calls[name] += 1
        if attrs is None:
            no_attrs.add(name)
        elif name == "autodiff.record":
            ms["autodiff.record." + (attrs["op"] if attrs["op"] in OP_KINDS else "other")] += d
        elif name == "autodiff.backward":
            ms["autodiff.backward." + attrs["phase"]] += d
            counts["autodiff.backward.entries"] += attrs["entries"]
        elif name == "geometry.nn_match":
            counts["geometry.nn_match.pairs"] += attrs["pairs"]
        elif name.startswith("checkpoint."):
            counts[name + ".bytes"] += attrs["bytes"]

    metrics = {}
    for metric, unit in PER_LAYER.items():
        fn = ".".join(metric.split(".")[:2])
        rest = metric[len(fn) + 1 :]
        if fn in absent:
            continue
        if rest == "self_ms":
            value = self_ms[fn]
        elif rest == "ms":
            value = ms[fn]
        elif rest == "calls":
            value = calls[fn]
        elif fn in no_attrs:
            continue  # a changed signature hid the count this metric needs
        elif rest.endswith(".ms"):
            value = ms[metric[: -len(".ms")]]
        else:
            value = counts[metric]
        metrics[metric] = {"value": value / units, "unit": unit}
    return metrics


# --------------------------------------------------------------------------


def run(args) -> tuple[dict, dict]:
    src = ROOT / "src"
    if not (src / "lcd" / "__init__.py").is_file():
        raise BenchError(f"no lcd package under {src}; run from the root of a checkout")
    bad = selftest.run_checks()
    if bad:
        raise BenchError("reference geometry fails its checks: " + "; ".join(bad))

    out = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    sys.path.insert(0, str(src))
    import lcd

    if args.workload == "eval-2048":
        round_argv, eval_params = _eval_inputs(lcd, out, args.seed)
        ops_per_round = pairs_per_round = EVAL_CLOUDS
    else:
        loss = args.workload.split("-")[1]
        round_argv = ["train", "--loss", loss, "--iters", str(TRAIN_ITERS), "--eval-interval", str(EVAL_INTERVAL),
                      "--seed", str(args.seed), "--out", str(out / "round{round}")]
        ops_per_round = TRAIN_ITERS
        pairs_per_round = TRAIN_ITERS * lcd.TrainConfig().batch

    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(src), "--out", str(out),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + round_argv
    with open(out / "child.log", "w") as log:
        t_spawn = time.perf_counter()  # CLOCK_MONOTONIC: the child's stamps share it
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=_child_env(src), timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"workload process ran past {CHILD_TIMEOUT_S} s; see {out / 'child.log'}") from None
    if proc.returncode != 0:
        tail = (out / "child.log").read_text()[-2000:]
        raise BenchError(f"workload process exited with {proc.returncode}:\n{tail}")
    child = json.loads((out / "child.json").read_text())
    if not Path(child["lcd_file"]).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"measured lcd from {child['lcd_file']}, not from {src}")
    all_spans = spans.read(out / "spans.jsonl")

    ok = [k for k, r in enumerate(child["rounds"]) if r["rc"] == 0]
    failures: list[str] = []
    final_cd = float("nan")
    if not ok:
        failures.append("every round failed")
    else:
        dirs = [out / f"round{k}" for k in ok]
        if args.workload == "eval-2048":
            if not _same_files(dirs, "eval.csv"):
                failures.append("rounds on the same inputs wrote different eval.csv files")
            final_cd = _check_eval(out, eval_params, dirs[0], failures)
        else:
            if not _same_files(dirs, "metrics.csv"):
                failures.append("rounds with the same seed wrote different metrics.csv files")
            final_cd = _check_train(lcd, args.workload, args.seed, dirs[0], failures)

    ops = ops_per_round * len(ok)
    if not ok:
        metrics = {}
    elif args.trace:
        metrics = per_layer(all_spans, ops, child["absent"])
    else:
        metrics = end_to_end(args.workload, child, all_spans, pairs_per_round, t_spawn, final_cd)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(child["rounds"]),
        "ops_per_round": ops_per_round,
        "tail_percentile": TAIL_PCT.get(args.workload, "max"),
        "absent": child["absent"],
        "check_failures": failures,
        **{k: child[k] for k in ("lcd_file", "numpy", "blas", "blas_threads", "nproc")},
    }
    if args.trace and ok:
        # with spans on, for the tracing overhead against an untraced run
        traced = end_to_end(args.workload, child, all_spans, pairs_per_round, t_spawn, final_cd)
        info["traced_step_ms_p50"] = traced["step_ms_p50"]["value"]
        info["traced_eval_ms_per_cloud"] = traced["eval_ms_per_cloud"]["value"]
    result = {
        "correct": not failures,
        "attempted": ops_per_round * len(child["rounds"]),
        "failed": ops_per_round * (len(child["rounds"]) - len(ok)),
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    return info, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long one run measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    args = p.parse_args(argv)
    try:
        info, result = run(args)
    except BenchError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 2
    for failure in info["check_failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print("# " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
