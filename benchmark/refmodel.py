"""Checkpoint files and network forward passes in plain NumPy, apart from lcd.

The benchmark reads the checkpoints a run wrote and recomputes the
reconstructions and the learned weights itself, so its output checks do
not rest on the program's own forward code.

The file format is the one the program documents: a ``LCDCKPT 1`` line,
then per tensor in sorted name order a ``tensor <name> <dims>`` line and
its rows of ``%.17g`` values.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

MAGIC = "LCDCKPT 1"


def read_checkpoint(path) -> dict[str, np.ndarray]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != MAGIC:
        raise ValueError(f"{path}: not a {MAGIC} checkpoint")
    out: dict[str, np.ndarray] = {}
    heads = [i for i, line in enumerate(lines) if line.startswith("tensor ")]
    for k, i in enumerate(heads):
        _, name, dims = lines[i].split()
        shape = () if dims == "scalar" else tuple(int(d) for d in dims.split(","))
        end = heads[k + 1] if k + 1 < len(heads) else len(lines)
        values = np.array(" ".join(lines[i + 1 : end]).split(), dtype=np.float64)
        out[name] = values.reshape(shape)
    return out


def _layers(params: dict, prefix: str) -> list[tuple[np.ndarray, np.ndarray]]:
    out = []
    while f"{prefix}.w{len(out)}" in params:
        k = len(out)
        out.append((params[f"{prefix}.w{k}"], params[f"{prefix}.b{k}"]))
    return out


def _relu_mlp(x: np.ndarray, layers) -> np.ndarray:
    for w, b in layers:
        x = np.maximum(x @ w + b, 0.0)
    return x


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_autoencoder(rng: np.random.Generator, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Untrained autoencoder: uniform Glorot weights and zero biases."""
    return {
        name: np.zeros(shape) if ".b" in name else _glorot(rng, *shape)
        for name, shape in sorted(shapes.items())
    }


def reconstruct(params: dict, cloud: np.ndarray) -> np.ndarray:
    """PointNet autoencoder: per-point relu MLP, max-pool, dense decoder."""
    latent = _relu_mlp(cloud, _layers(params, "enc")).max(axis=0)
    dec = _layers(params, "dec")
    h = _relu_mlp(latent[None, :], dec[:-1])
    w, b = dec[-1]
    return (h @ w + b).reshape(-1, 3)


def weights(params: dict, s_i: np.ndarray, s_o: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The learned per-point weights of one (input, output) cloud pair.

    Pair summary: the f1 net max-pooled over each cloud, concatenated.
    Scorer g sees [xyz | f2 feature | pair summary] per point; weight k is
    (sigma + exp(-F_k^2)) / (n sigma + sum_j exp(-F_j^2)).
    """
    pair = []
    if "f1.w0" in params:
        f1 = _layers(params, "f1")
        pair = [_relu_mlp(s_i, f1).max(axis=0), _relu_mlp(s_o, f1).max(axis=0)]
    f2 = _layers(params, "f2")
    g = _layers(params, "g")

    def one_side(s):
        parts = [s, _relu_mlp(s, f2)]
        if pair:
            summary = np.concatenate(pair)
            parts.append(np.broadcast_to(summary, (len(s), summary.size)))
        h = _relu_mlp(np.concatenate(parts, axis=1), g[:-1])
        score = (h @ g[-1][0] + g[-1][1])[:, 0]
        gain = np.exp(-score * score)
        return (sigma + gain) / (len(s) * sigma + gain.sum())

    return one_side(s_i), one_side(s_o)
