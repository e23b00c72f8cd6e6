"""Simultaneous training of the reconstruction net and the loss weighting.

Each iteration records one tape: reconstruct the batch, then score the
(input, output) pair with the weighted loss L_R (plain chamfer in
plain-chamfer mode). One backward pass of L_R gives both players'
gradients. The reconstruction net descends L_R. The weighting networks
descend -ln(L_R + sigma_r), or -L_R without the log, whose gradient is
their gradient of L_R times -1 / (L_R + sigma_r), or times -1; that
factor is applied to their gradients before both players' Adam updates.

Metrics go to a CSV with one row per evaluation point; the header is
fixed and floats use 6 significant digits so reruns with the same seed
produce byte-identical files. Wall-clock timing therefore lives in a
separate timing file unless explicitly opted into the CSV.
"""

from __future__ import annotations

import ctypes
import math
import statistics
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import lcdloss, reconnet
from .autodiff import ParamSet, Tape, adam_update, backward
from .checkpoint import save_checkpoint
from .dataio import FAMILIES, Dataset, gen_shapes, load_dataset, train_eval_split
from .geometry import pair_metrics

__all__ = [
    "CSV_HEADER",
    "LOSS_MODES",
    "ABLATION_VARIANTS",
    "SWEEP_PARAMS",
    "TrainConfig",
    "MetricsRecord",
    "EvalResult",
    "RunResult",
    "SummaryRow",
    "TrainingDiverged",
    "train_step",
    "evaluate",
    "run",
    "ablate",
    "sweep",
    "variant_config",
]

CSV_HEADER = "iter,cd,mcd,hd,l_r,l_lcd,ms_per_step"
LOSS_MODES = ("cd", "lcd")
ABLATION_VARIANTS = ("cd", "lcd_no_siacon", "lcd_no_log", "lcd_full")
SWEEP_PARAMS = {"sigma": "sigma", "lr-lcd": "lr_lcd", "lr_lcd": "lr_lcd"}
# evaluate's encoder chunk: 4096 points keep each activation of the default
# encoder to 4 MiB, and a default run's held-out set (4 x 256) is one chunk
EVAL_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs; every field lands in the config echo file."""

    loss: str = "lcd"
    no_siacon: bool = False
    no_log: bool = False
    iters: int = 2000
    batch: int = 8
    points: int = 256
    count: int = 32
    families: tuple = FAMILIES
    noise_std: float = 0.0
    data: str | None = None
    seed: int = 0
    lr_recon: float = 1e-4
    lr_lcd: float = 2e-3
    sigma: float = 0.01
    sigma_r: float = 1e-8
    eval_interval: int = 50
    eval_fraction: float = 0.1
    backend: str = "brute"
    squared: bool = False
    enc_widths: tuple = reconnet.DEFAULT_ENC_WIDTHS
    dec_widths: tuple = reconnet.DEFAULT_DEC_WIDTHS
    feat_widths: tuple = lcdloss.DEFAULT_FEAT_WIDTHS
    head_widths: tuple = lcdloss.DEFAULT_HEAD_WIDTHS
    out: str | None = None
    timing_csv: bool = False

    def validate(self) -> None:
        if self.loss not in LOSS_MODES:
            raise ValueError(f"loss mode must be one of {LOSS_MODES}, got {self.loss!r}")
        if self.iters < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.points < 8:
            raise ValueError(f"points must be >= 8, got {self.points}")
        if self.count < 2:
            raise ValueError(f"count must be >= 2 (train and eval splits), got {self.count}")
        # each float bound is written "not lo < x < inf" so that NaN fails it
        for name in ("lr_recon", "lr_lcd", "sigma_r"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not lcdloss.SIGMA_MIN <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= {lcdloss.SIGMA_MIN:g}, got {self.sigma}")
        if self.eval_interval < 1:
            raise ValueError(f"eval_interval must be >= 1, got {self.eval_interval}")
        if not 0.0 < self.eval_fraction < 1.0:
            raise ValueError(f"eval_fraction must lie in (0, 1), got {self.eval_fraction}")
        if self.backend not in ("brute", "kdtree"):
            raise ValueError(f"backend must be brute or kdtree, got {self.backend!r}")
        if not 0 <= self.noise_std < math.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if not self.families:
            raise ValueError("families must be nonempty")


@dataclass
class MetricsRecord:
    """One logged row: evaluation metrics plus the step's training losses.

    None marks a value undefined at that row (e.g. training losses at
    iteration 0, or the adversarial value in plain-chamfer mode); such
    fields serialize to empty CSV cells.
    """

    iteration: int
    cd: float | None = None
    mcd: float | None = None
    hd: float | None = None
    l_r: float | None = None
    l_lcd: float | None = None
    ms_per_step: float | None = None


@dataclass(frozen=True)
class EvalResult:
    cd: float
    mcd: float
    hd: float
    per_family: dict


class TrainingDiverged(RuntimeError):
    """A training loss became non-finite; carries context for the dump."""

    def __init__(self, iteration: int, phase: str, value: float, batch, norms: dict):
        super().__init__(
            f"non-finite {phase} loss {value!r} at iteration {iteration}"
        )
        self.iteration = iteration
        self.phase = phase
        self.value = value
        self.batch = batch
        self.norms = norms


def _param_norms(named: dict[str, ParamSet | None]) -> dict:
    norms = {}
    for label, pset in named.items():
        if pset is None:
            continue
        for name, t in pset.items():
            norms[f"{label}.{name}"] = float(np.abs(t.data).max())
    return norms


def _check_finite(value: float, iteration: int, phase: str, batch, params: dict) -> None:
    if not np.isfinite(value):
        raise TrainingDiverged(iteration, phase, value, batch, _param_norms(params))


def _stack(batch) -> tuple[np.ndarray, int]:
    clouds = [np.asarray(c, dtype=np.float64) for c in batch]
    if not clouds:
        raise ValueError("batch must be nonempty")
    n = clouds[0].shape[0]
    if any(c.shape != (n, 3) for c in clouds):
        raise ValueError("batch clouds must share the shape (n, 3)")
    return np.concatenate(clouds, axis=0), n


def train_step(
    batch: Sequence,
    lcd_params: ParamSet | None,
    recon_params: ParamSet,
    config: TrainConfig,
) -> MetricsRecord:
    """One simultaneous update of both players from one tape.

    Returns this step's training losses. ``lcd_params`` may be None in
    plain-chamfer mode, where only the reconstruction net is updated. The
    returned record's evaluation fields are unset; the run loop fills them
    at evaluation points.
    """
    t0 = time.perf_counter()
    stacked, n_i = _stack(batch)
    lcd_mode = config.loss == "lcd"
    if lcd_mode and lcd_params is None:
        raise ValueError("lcd mode needs weighting parameters")
    param_ctx = {"recon": recon_params, "lcd": lcd_params}
    iteration = recon_params.step + 1

    with Tape() as tape:
        s_i = ad.tensor(stacked)
        s_o = reconnet.reconstruct(s_i, recon_params, n_i)
        if not np.isfinite(s_o.data).all():
            raise TrainingDiverged(iteration, "reconstruction output", float("nan"), batch, _param_norms(param_ctx))
        l_r = lcdloss.lcd_forward(
            s_i,
            s_o,
            lcd_params if lcd_mode else None,
            config.sigma,
            n_i,
            reconnet.output_points(recon_params),
            config.squared,
            config.backend,
        ).loss
    l_r_logged = l_r.item()
    _check_finite(l_r_logged, iteration, "reconstruction", batch, param_ctx)
    l_lcd_logged = None
    if lcd_mode:
        if config.no_log:
            l_lcd_logged, factor = -l_r_logged, -1.0
        else:
            l_lcd_logged = lcdloss.adversarial_loss(l_r_logged, config.sigma_r).item()
            factor = -1.0 / (l_r_logged + config.sigma_r)
        _check_finite(l_lcd_logged, iteration, "weighting", batch, param_ctx)
        grads = backward(tape, l_r, [recon_params, lcd_params])
        for name in lcd_params.names():
            grads[name].data *= factor
        adam_update(lcd_params, {n: grads[n] for n in lcd_params.names()}, config.lr_lcd)
    else:
        grads = backward(tape, l_r, recon_params)
    adam_update(recon_params, {n: grads[n] for n in recon_params.names()}, config.lr_recon)

    ms = (time.perf_counter() - t0) * 1000.0
    return MetricsRecord(iteration, l_r=l_r_logged, l_lcd=l_lcd_logged, ms_per_step=ms)


def evaluate(recon_params: ParamSet, dataset: Dataset, backend: str = "brute") -> EvalResult:
    """Reconstruct every cloud and average cd / mcd / hd against the inputs.

    The encoder runs on chunks of whole clouds, at most ``EVAL_CHUNK_ROWS``
    stacked points each but never less than one cloud, so its activations
    do not grow with the dataset; all codes then go through one decode.
    A cloud's code does not depend on its chunk wherever the BLAS rounds a
    row of a product independently of the row count, as at the default
    sizes. Raises ValueError naming the first cloud whose reconstruction
    is not finite, before any matching.
    """
    if len(dataset) == 0:
        raise ValueError("evaluation dataset is empty")
    per_chunk = max(1, EVAL_CHUNK_ROWS // max(1, len(dataset.clouds[0])))
    codes = []
    for k in range(0, len(dataset), per_chunk):
        stacked, n = _stack(dataset.clouds[k : k + per_chunk])
        codes.append(reconnet.encode(ad.tensor(stacked), recon_params, n).data)
    out = reconnet.decode(np.concatenate(codes), recon_params).data
    n_o = reconnet.output_points(recon_params)
    finite = np.isfinite(out.reshape(len(dataset), n_o * 3)).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(
            f"evaluate: reconstruction of held-out cloud {k} ({dataset.labels[k]}) has non-finite coordinates"
        )

    sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for k, label in enumerate(dataset.labels):
        rec = out[k * n_o : (k + 1) * n_o]
        src = dataset.clouds[k]
        vals = np.array(pair_metrics(src, rec, backend))
        sums[label] = sums.get(label, 0.0) + vals
        counts[label] = counts.get(label, 0) + 1
    per_family = {
        label: EvalResult(*(float(x) for x in sums[label] / counts[label]), per_family={})
        for label in sorted(sums)
    }
    total = sum(sums.values()) / len(dataset)
    return EvalResult(float(total[0]), float(total[1]), float(total[2]), per_family)


# --------------------------------------------------------------------------
# full runs


@dataclass
class RunResult:
    config: TrainConfig
    records: list
    wall_seconds: float
    csv_path: Path | None = None
    config_path: Path | None = None
    ckpt_recon_path: Path | None = None
    ckpt_lcd_path: Path | None = None
    recon_params: ParamSet | None = None
    lcd_params: ParamSet | None = None

    @property
    def final(self) -> MetricsRecord:
        return self.records[-1]


def _fmt_value(v) -> str:
    if v is None:
        return ""
    return "%.6g" % v


def _csv_line(r: MetricsRecord, timing_csv: bool) -> str:
    ms = r.ms_per_step if timing_csv else None
    cells = [str(r.iteration)] + [_fmt_value(v) for v in (r.cd, r.mcd, r.hd, r.l_r, r.l_lcd, ms)]
    return ",".join(cells)


def _echo_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    return str(v)


def write_config_echo(path: Path, config: TrainConfig) -> None:
    lines = [f"{f.name} = {_echo_value(getattr(config, f.name))}" for f in fields(config)]
    path.write_text("\n".join(lines) + "\n")


def _dump_divergence(path: Path, err: TrainingDiverged) -> None:
    lines = [
        f"iteration {err.iteration}",
        f"phase {err.phase}",
        f"loss {err.value!r}",
        "",
        "max-abs parameter norms:",
    ]
    lines += [f"  {name} {norm:.17g}" for name, norm in sorted(err.norms.items())]
    lines.append("")
    for k, cloud in enumerate(err.batch):
        lines.append(f"batch cloud {k}:")
        lines += ["%.17g %.17g %.17g" % (x, y, z) for x, y, z in np.asarray(cloud)]
    path.write_text("\n".join(lines) + "\n")


def _load_run_data(config: TrainConfig) -> Dataset:
    if config.data is not None:
        return load_dataset(config.data)
    return gen_shapes(config.families, config.count, config.points, config.noise_std, config.seed)


def _keep_freed_heap() -> None:
    """Make the C allocator keep freed memory for reuse, process-wide.

    Every step drops its tapes; by default glibc returns that memory to the
    kernel and the next step faults it back in, a fifth of a default lcd
    step (28k minor faults, 2-core x86 Linux). No-op without ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: arrays up to 32 MiB use the heap
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: trim only past 1 GiB free


def run(config: TrainConfig) -> RunResult:
    """Train per the config; write CSV, config echo, checkpoints, timing.

    Deterministic per seed: the metrics CSV is byte-identical across
    reruns. Raises :class:`TrainingDiverged` after writing a diagnostic
    dump if a loss goes non-finite. ``wall_seconds`` covers the whole call,
    up to the moment ``timing.txt`` is written.
    """
    t0 = time.perf_counter()
    config.validate()
    _keep_freed_heap()
    data = _load_run_data(config)
    train_set, eval_set = train_eval_split(data, config.eval_fraction)

    streams = np.random.SeedSequence((config.seed, 7)).spawn(3)
    recon_params = reconnet.init_recon_params(
        np.random.default_rng(streams[0]),
        n_points=train_set.clouds[0].shape[0],
        enc_widths=config.enc_widths,
        dec_widths=config.dec_widths,
    )
    lcd_params = None
    if config.loss == "lcd":
        lcd_params = lcdloss.init_lcd_params(
            np.random.default_rng(streams[1]),
            feat_widths=config.feat_widths,
            head_widths=config.head_widths,
            use_siacon=not config.no_siacon,
            score_bias=lcdloss.SCORE_BIAS_INIT,
        )
    batch_rng = np.random.default_rng(streams[2])

    out_dir = None
    if config.out is not None:
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    records: list[MetricsRecord] = []
    ev = evaluate(recon_params, eval_set, config.backend)
    records.append(MetricsRecord(0, cd=ev.cd, mcd=ev.mcd, hd=ev.hd))

    try:
        for it in range(1, config.iters + 1):
            idx = batch_rng.choice(
                len(train_set), size=config.batch, replace=len(train_set) < config.batch
            )
            batch = [train_set.clouds[i] for i in idx]
            rec = train_step(batch, lcd_params, recon_params, config)
            if it % config.eval_interval == 0 or it == config.iters:
                ev = evaluate(recon_params, eval_set, config.backend)
                rec.cd, rec.mcd, rec.hd = ev.cd, ev.mcd, ev.hd
                records.append(rec)
    except TrainingDiverged as err:
        if out_dir is not None:
            _dump_divergence(out_dir / "diverged.txt", err)
        raise

    result = RunResult(
        config, records, time.perf_counter() - t0, recon_params=recon_params, lcd_params=lcd_params
    )
    if out_dir is not None:
        result.csv_path = out_dir / "metrics.csv"
        lines = [CSV_HEADER] + [_csv_line(r, config.timing_csv) for r in records]
        result.csv_path.write_text("\n".join(lines) + "\n")
        result.config_path = out_dir / "config.txt"
        write_config_echo(result.config_path, config)
        result.ckpt_recon_path = save_checkpoint(out_dir / "ckpt_recon.txt", recon_params)
        if lcd_params is not None:
            result.ckpt_lcd_path = save_checkpoint(out_dir / "ckpt_lcd.txt", lcd_params)
        result.wall_seconds = wall = time.perf_counter() - t0
        (out_dir / "timing.txt").write_text(
            f"iterations = {config.iters}\n"
            f"wall_seconds = {wall:.3f}\n"
            f"ms_per_iter = {1000.0 * wall / config.iters:.3f}\n"
        )
    return result


# --------------------------------------------------------------------------
# ablations and sweeps


@dataclass(frozen=True)
class SummaryRow:
    """Median-of-final-metrics line for one variant or sweep value."""

    key: str
    cd: float
    mcd: float
    hd: float
    seeds: int


def variant_config(base: TrainConfig, variant: str) -> TrainConfig:
    """Translate an ablation variant name into config switches."""
    if variant == "cd":
        return replace(base, loss="cd", no_siacon=False, no_log=False)
    if variant == "lcd_full":
        return replace(base, loss="lcd", no_siacon=False, no_log=False)
    if variant == "lcd_no_siacon":
        return replace(base, loss="lcd", no_siacon=True, no_log=False)
    if variant == "lcd_no_log":
        return replace(base, loss="lcd", no_siacon=False, no_log=True)
    raise ValueError(f"unknown variant {variant!r} (expected one of {ABLATION_VARIANTS})")


def _rounded_final(result: RunResult) -> tuple[float, float, float]:
    # medians are taken over CSV-precision values so the summary is exactly
    # recomputable from the per-run files
    final = result.final
    return tuple(float(_fmt_value(v)) for v in (final.cd, final.mcd, final.hd))


def _summarize(key: str, finals: list[tuple[float, float, float]]) -> SummaryRow:
    cds, mcds, hds = zip(*finals)
    return SummaryRow(
        key,
        statistics.median(cds),
        statistics.median(mcds),
        statistics.median(hds),
        len(finals),
    )


def _write_summary(path: Path, label: str, rows: list[SummaryRow]) -> None:
    lines = [f"{label},cd,mcd,hd,seeds"]
    for r in rows:
        lines.append(
            f"{r.key},{_fmt_value(r.cd)},{_fmt_value(r.mcd)},{_fmt_value(r.hd)},{r.seeds}"
        )
    path.write_text("\n".join(lines) + "\n")


def format_summary(label: str, rows: list[SummaryRow]) -> str:
    head = f"{label:>16}  {'cd':>10}  {'mcd':>10}  {'hd':>10}  seeds"
    body = [
        f"{r.key:>16}  {_fmt_value(r.cd):>10}  {_fmt_value(r.mcd):>10}  {_fmt_value(r.hd):>10}  {r.seeds:>5}"
        for r in rows
    ]
    return "\n".join([head] + body)


def _seeded_runs(cfg: TrainConfig, n_seeds: int, out_dir: Path | None, tag: str) -> list[RunResult]:
    results = []
    for k in range(n_seeds):
        sub_out = str(out_dir / f"{tag}_seed{cfg.seed + k}") if out_dir is not None else None
        results.append(run(replace(cfg, seed=cfg.seed + k, out=sub_out)))
    return results


def ablate(config: TrainConfig, variants: Sequence[str], n_seeds: int = 3) -> list[SummaryRow]:
    """Run each variant under shared seeds; return median final metrics.

    With an output directory configured, each run writes to
    ``<out>/<variant>_seed<k>/`` and the table lands in ``summary.csv``.
    """
    variants = list(variants)
    if not variants:
        raise ValueError("ablate: needs at least one variant")
    for v in variants:
        if v not in ABLATION_VARIANTS:
            raise ValueError(f"unknown variant {v!r} (expected one of {ABLATION_VARIANTS})")
    if n_seeds < 1:
        raise ValueError(f"ablate: n_seeds must be >= 1, got {n_seeds}")
    out_dir = Path(config.out) if config.out is not None else None
    rows = []
    for variant in variants:
        results = _seeded_runs(variant_config(config, variant), n_seeds, out_dir, variant)
        rows.append(_summarize(variant, [_rounded_final(r) for r in results]))
    if out_dir is not None:
        _write_summary(out_dir / "summary.csv", "variant", rows)
    return rows


def sweep(config: TrainConfig, param: str, values: Sequence[float], n_seeds: int = 1) -> list[SummaryRow]:
    """Train the full configuration across values of one hyperparameter.

    ``param`` is ``sigma`` or ``lr-lcd`` (field ``lr_lcd``). Rows are keyed
    by value; runs write to ``<out>/sweep_<field>_<value>_seed<k>/`` plus a summary.
    """
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r} (expected one of {sorted(set(SWEEP_PARAMS))})")
    values = [float(v) for v in values]
    if not values:
        raise ValueError("sweep: needs at least one value")
    field_name = SWEEP_PARAMS[param]
    out_dir = Path(config.out) if config.out is not None else None
    base = variant_config(config, "lcd_full")
    rows = []
    for v in values:
        cfg = replace(base, **{field_name: v})
        tag = f"sweep_{field_name}_{v:g}"
        results = _seeded_runs(cfg, n_seeds, out_dir, tag)
        rows.append(_summarize("%g" % v, [_rounded_final(r) for r in results]))
    if out_dir is not None:
        _write_summary(out_dir / f"summary_{field_name}.csv", field_name, rows)
    return rows
