"""Command-line interface: train, eval, ablate, gen-data.

Exit codes: 0 success, 1 usage error (bad flags or flag values),
2 runtime failure (divergence, bad checkpoint, I/O errors).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import reconnet
from .checkpoint import CheckpointError, load_checkpoint
from .dataio import FAMILIES, gen_shapes, load_dataset, save_dataset
from .trainer import (
    TrainConfig,
    TrainingDiverged,
    ablate,
    evaluate,
    format_summary,
    run,
    sweep,
)

__all__ = ["main", "UsageError"]


class UsageError(Exception):
    """Bad command line; reported on stderr with exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep 2 for runtime
        raise UsageError(f"{self.prog}: {message}")


def _families(text: str) -> tuple:
    return tuple(f.strip() for f in text.split(",") if f.strip())


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    d = TrainConfig()
    p.add_argument("--loss", choices=("cd", "lcd"), default=d.loss, help="training loss")
    p.add_argument("--no-siacon", action="store_true", help="drop the pair-summary input of the scorer")
    p.add_argument("--no-log", action="store_true", help="weighting objective -loss instead of -ln(loss)")
    p.add_argument("--iters", type=int, default=d.iters, help="training iterations")
    p.add_argument("--batch", type=int, default=d.batch, help="cloud pairs per iteration")
    p.add_argument("--points", type=int, default=d.points, help="points per generated cloud")
    p.add_argument("--count", type=int, default=d.count, help="generated clouds in total")
    p.add_argument("--families", type=_families, default=d.families, help="comma-separated shape families")
    p.add_argument("--noise", type=float, default=d.noise_std, help="generator jitter std dev")
    p.add_argument("--data", default=None, help="dataset manifest to train on instead of generating")
    p.add_argument("--seed", type=int, default=d.seed, help="rng seed")
    p.add_argument("--lr-recon", type=float, default=d.lr_recon, help="reconstruction learning rate")
    p.add_argument("--lr-lcd", type=float, default=d.lr_lcd, help="weighting learning rate")
    p.add_argument("--sigma", type=float, default=d.sigma, help="weight-normalization boundary constant")
    p.add_argument("--sigma-r", type=float, default=d.sigma_r, help="log offset in the adversarial objective")
    p.add_argument("--eval-interval", type=int, default=d.eval_interval, help="iterations between metric rows")
    p.add_argument("--eval-fraction", type=float, default=d.eval_fraction, help="held-out fraction")
    p.add_argument("--squared", action="store_true", help="average squared matched distances")
    p.add_argument("--timing-csv", action="store_true", help="fill ms_per_step in the CSV (breaks byte determinism)")


def _config_from(args) -> TrainConfig:
    cfg = TrainConfig(
        loss=args.loss,
        no_siacon=args.no_siacon,
        no_log=args.no_log,
        iters=args.iters,
        batch=args.batch,
        points=args.points,
        count=args.count,
        families=args.families,
        noise_std=args.noise,
        data=args.data,
        seed=args.seed,
        lr_recon=args.lr_recon,
        lr_lcd=args.lr_lcd,
        sigma=args.sigma,
        sigma_r=args.sigma_r,
        eval_interval=args.eval_interval,
        eval_fraction=args.eval_fraction,
        squared=args.squared,
        out=args.out,
        timing_csv=args.timing_csv,
    )
    try:
        cfg.validate()
    except ValueError as e:
        raise UsageError(str(e)) from None
    return cfg


def _cmd_train(args) -> int:
    result = run(_config_from(args))
    final = result.final
    print(f"wrote {result.csv_path}")
    print(
        f"final iteration {final.iteration}: cd {final.cd:.6g}, mcd {final.mcd:.6g},"
        f" hd {final.hd:.6g} ({result.wall_seconds:.1f} s)"
    )
    return 0


def _cmd_eval(args) -> int:
    params = reconnet.params_from_arrays(load_checkpoint(args.ckpt_recon))
    dataset = load_dataset(args.data)
    res = evaluate(params, dataset, args.backend)
    lines = ["family,cd,mcd,hd", f"all,{res.cd:.6g},{res.mcd:.6g},{res.hd:.6g}"]
    for fam, r in res.per_family.items():
        lines.append(f"{fam},{r.cd:.6g},{r.mcd:.6g},{r.hd:.6g}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "eval.csv").write_text(text)
        print(f"wrote {out_dir / 'eval.csv'}")
    return 0


def _parse_sweep(text: str) -> tuple[str, list[float]]:
    if "=" not in text:
        raise UsageError(f"--sweep expects param=v1,v2,..., got {text!r}")
    param, _, tail = text.partition("=")
    try:
        values = [float(v) for v in tail.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"--sweep values must be numbers, got {tail!r}") from None
    if not values:
        raise UsageError(f"--sweep needs at least one value, got {text!r}")
    return param.strip(), values


def _cmd_ablate(args) -> int:
    cfg = _config_from(args)
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    try:
        if args.sweep is not None:
            param, values = _parse_sweep(args.sweep)
            rows = sweep(cfg, param, values, n_seeds=args.seeds)
            print(format_summary(param, rows))
        else:
            variants = [v.strip() for v in args.variants.split(",") if v.strip()]
            rows = ablate(cfg, variants, n_seeds=args.seeds)
            print(format_summary("variant", rows))
    except ValueError as e:
        raise UsageError(str(e)) from None
    return 0


def _cmd_gendata(args) -> int:
    try:
        dataset = gen_shapes(args.families, args.count, args.points, args.noise, args.seed)
    except ValueError as e:
        raise UsageError(str(e)) from None
    manifest = save_dataset(args.out, dataset)
    print(f"wrote {len(dataset)} clouds, manifest {manifest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lcd", description="learned weighted-matching loss for point-cloud reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[], help="train the reconstruction net with the chosen loss")
    _add_train_flags(p)
    p.add_argument("--out", required=True, help="output directory for CSV, checkpoints, config echo")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="score a reconstruction checkpoint on a dataset")
    p.add_argument("--ckpt-recon", required=True, help="reconstruction checkpoint path")
    p.add_argument("--data", required=True, help="dataset manifest path")
    p.add_argument("--backend", choices=("brute", "kdtree"), default="brute")
    p.add_argument("--out", default=None, help="directory for eval.csv (optional)")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("ablate", help="compare loss variants or sweep a hyperparameter")
    _add_train_flags(p)
    p.add_argument("--out", required=True, help="output directory for per-run files and summaries")
    p.add_argument("--variants", default="lcd_full,cd", help="comma-separated variant names")
    p.add_argument("--seeds", type=int, default=3, help="seeds per variant (median reported)")
    p.add_argument("--sweep", default=None, help="param=v1,v2,... (sigma or lr-lcd); overrides --variants")
    p.set_defaults(fn=_cmd_ablate)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset and manifest")
    p.add_argument("--families", type=_families, default=FAMILIES, help="comma-separated shape families")
    p.add_argument("--count", type=int, default=32, help="total clouds")
    p.add_argument("--points", type=int, default=256, help="points per cloud")
    p.add_argument("--noise", type=float, default=0.0, help="jitter std dev")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_gendata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (TrainingDiverged, CheckpointError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
