"""Shared helpers for the test suite."""

import numpy as np

from lcd.trainer import TrainConfig

VERDICTS = []


def record_verdict(number, ok: bool, detail: str) -> None:
    """One pass/fail line per acceptance criterion, echoed immediately and
    again in the terminal summary (which survives pytest's capture)."""
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    VERDICTS.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


def dense_preactivation(xs):
    """``x @ w + b`` of a recorded dense entry, from its inputs.

    The input may be several column blocks, each multiplying its own rows
    of ``w``; a block with fewer rows is repeated over consecutive rows.
    The sums run in the layer's order, block by block, then the bias.
    """
    *parts, w, b = xs
    z, lo = None, 0
    for x in parts:
        term = x @ w[lo : lo + x.shape[1]]
        lo += x.shape[1]
        z = term if z is None else z + np.repeat(term, z.shape[0] // x.shape[0], axis=0)
    return z + b


def pooled_preactivations(xs):
    """Every layer's ``h @ w + b`` of a recorded pooled_mlp entry, from its
    inputs ``(x, w0, b0, w1, b1, ...)``; each layer's ``h`` is the relu of
    the layer before it."""
    h, *layers = xs
    zs = []
    for w, b in zip(layers[::2], layers[1::2]):
        zs.append(dense_preactivation([h, w, b]))
        h = np.maximum(zs[-1], 0.0)
    return zs


def relu_margin(tape):
    """Smallest |preactivation| feeding any relu on the tape.

    A fused dense layer keeps only its output, and a pooled MLP keeps only
    its pooled rows, so their preactivations are recomputed from the
    recorded inputs.
    """
    vals = []
    for e in tape.entries:
        xs = [tape._tensors[uid].data for uid in e.inputs]
        if e.op == "relu":
            vals.append(np.abs(xs[0]).min())
        elif e.op == "dense" and e.attrs["relu"]:
            vals.append(np.abs(dense_preactivation(xs)).min())
        elif e.op == "pooled_mlp":
            vals.extend(np.abs(z).min() for z in pooled_preactivations(xs))
    return min(vals) if vals else np.inf


def sqrt_margin(tape):
    """Smallest value feeding any sqrt on the tape."""
    vals = [tape._tensors[e.inputs[0]].data.min() for e in tape.entries if e.op == "sqrt"]
    return min(vals) if vals else np.inf


def match_gap(a, b):
    """Closest runner-up margin of the nearest-neighbor matching, both ways.

    Finite-difference probes move distances by about the step size; an
    instance whose best and second-best matches are closer than the probe
    can flip indices mid-check, so such instances are excluded.
    """
    def one_way(q, r):
        if r.shape[0] < 2:
            return np.inf
        d = np.sqrt(((q[:, None, :] - r[None, :, :]) ** 2).sum(-1))
        p = np.partition(d, 1, axis=1)
        return float((p[:, 1] - p[:, 0]).min())

    return min(one_way(a, b), one_way(b, a))


def pool_margin(tape):
    """Smallest max-vs-runner-up gap across every max-pool on the tape.

    A probe can flip which row wins the pool, switching the subgradient
    path the same way a matching switch does.
    """
    vals = []
    for e in tape.entries:
        xs = [tape._tensors[uid].data for uid in e.inputs]
        if e.op == "group_max":
            a = xs[0]
        elif e.op == "pooled_mlp":
            a = np.maximum(pooled_preactivations(xs)[-1], 0.0)
        else:
            continue
        n = e.attrs["size"]
        if n < 2:
            continue
        blocks = a.reshape(-1, n, a.shape[1])
        part = np.partition(blocks, n - 2, axis=1)
        top, second = part[:, n - 1, :], part[:, n - 2, :]
        # ties at the relu floor (max exactly 0) are stable: clamped rows
        # stay clamped under a probe as long as the relu margin holds
        gaps = np.where(top == 0.0, np.inf, top - second)
        vals.append(float(gaps.min()))
    return min(vals) if vals else np.inf


def kink_free(tape, a, b, relu_tol=3e-4, gap_tol=1e-3, sqrt_tol=1e-8, pool_tol=1e-3):
    """True when a recorded forward sits safely away from every kink."""
    return (
        relu_margin(tape) > relu_tol
        and sqrt_margin(tape) > sqrt_tol
        and match_gap(a, b) > gap_tol
        and pool_margin(tape) > pool_tol
    )


def tiny_config(**overrides) -> TrainConfig:
    """A seconds-scale training config for functional tests."""
    base = dict(
        iters=4,
        batch=2,
        points=24,
        count=6,
        families=("sphere", "cube"),
        eval_interval=2,
        enc_widths=(8, 12),
        dec_widths=(12,),
        feat_widths=(6, 8),
        head_widths=(8,),
    )
    base.update(overrides)
    return TrainConfig(**base)
