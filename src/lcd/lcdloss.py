"""Learned per-point weighting of matched distances between cloud pairs.

Two small networks cooperate:

* a pair encoder (shared per-point MLP + max-pool run on both clouds,
  outputs concatenated) that summarizes how the clouds relate, and
* a per-point scorer that fuses each point's coordinates, a per-cloud
  point feature, and the pair summary into one scalar score per point.

Scores pass through a smoothed softmax-like normalization so each cloud
gets a weight distribution: strictly positive, summing to one, pulled
toward uniform by the boundary constant sigma. The weighted mean of
nearest-neighbor distances is the reconstruction loss; its negative log
is the adversarial objective the weighting networks minimize, which
pushes weight onto badly matched regions.

All forward math runs through the autodiff primitives, so recording a
call on a tape yields gradients for the weighting parameters and, when
the output cloud is itself recorded, for the output cloud through both
the distances and the weights.

Batching: clouds may be stacked as one (B*n, 3) matrix of B consecutive
n-point blocks; the ``size`` arguments give n. Per-point layers then run
as single large matrix products. The default (size = full row count)
treats the input as one cloud.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamSet, Tensor
from .geometry import nn_match

__all__ = [
    "DEFAULT_FEAT_WIDTHS",
    "DEFAULT_HEAD_WIDTHS",
    "SCORE_BIAS_INIT",
    "SIGMA_MIN",
    "LcdResult",
    "init_lcd_params",
    "siacon",
    "siaatt",
    "normalize_weights",
    "lcd_forward",
    "adversarial_loss",
]

DEFAULT_FEAT_WIDTHS = (64, 128, 256)
DEFAULT_HEAD_WIDTHS = (256, 64)

# Where |d/ds| of e^{-s^2} peaks. With a zeroed output weight matrix every
# point gets this same score, so the weights are still exactly uniform, but
# unlike score 0 (where the kernel is flat and the whole weighting gradient
# vanishes identically) the scorer can actually train away from it.
SCORE_BIAS_INIT = float(np.sqrt(0.5))

# the smallest sigma normalize_weights takes: the smallest normal float64
SIGMA_MIN = float(np.finfo(np.float64).tiny)


def init_lcd_params(
    seed: int | np.random.Generator = 0,
    feat_widths=DEFAULT_FEAT_WIDTHS,
    head_widths=DEFAULT_HEAD_WIDTHS,
    use_siacon: bool = True,
    zero_final: bool = True,
    score_bias: float = 0.0,
) -> ParamSet:
    """Create weighting-network parameters.

    ``feat_widths`` sets the per-point MLP layers shared by the pair
    encoder (f1) and the per-point feature net (f2); ``head_widths`` sets
    the hidden layers of the scorer g, whose input is the concatenation
    of coordinates (3), the f2 feature, and (when ``use_siacon``) the
    pair summary of width 2 * feat_widths[-1].

    ``zero_final`` zeroes g's output layer so training starts at exactly
    uniform weights; disable it for gradient tests that want a generic
    operating point. ``score_bias`` then sets the output bias, moving the
    shared starting score off the kernel's flat spot (weights stay
    uniform) so the scorer has a nonzero gradient; the trainer passes
    :data:`SCORE_BIAS_INIT`. ``use_siacon=False`` omits f1 entirely and
    shrinks g's input accordingly (checkpoints of the two layouts are not
    interchangeable).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    feat_widths = tuple(int(w) for w in feat_widths)
    head_widths = tuple(int(w) for w in head_widths)
    if not feat_widths or any(w < 1 for w in feat_widths):
        raise ValueError(f"feat_widths must be positive and nonempty, got {feat_widths}")
    if not head_widths or any(w < 1 for w in head_widths):
        raise ValueError(f"head_widths must be positive and nonempty, got {head_widths}")

    params = ParamSet()
    if use_siacon:
        ad.add_mlp(params, rng, "f1", (3,) + feat_widths)
    ad.add_mlp(params, rng, "f2", (3,) + feat_widths)
    g_in = 3 + feat_widths[-1] + (2 * feat_widths[-1] if use_siacon else 0)
    ad.add_mlp(params, rng, "g", (g_in,) + head_widths + (1,))
    if zero_final:
        last = len(head_widths)
        params[f"g.w{last}"].data[:] = 0.0
        params[f"g.b{last}"].data[:] = float(score_bias)
    return params


def siacon(s_i, s_o, params: ParamSet, size_i: int | None = None, size_o: int | None = None) -> Tensor:
    """Pair summary: shared per-point net pooled over each cloud, concatenated.

    Returns one row per cloud pair: (B, 2 * feat_widths[-1]). Each side is
    one :func:`~lcd.autodiff.pooled_mlp` entry, whose backward runs over
    the rows that win the pool only.
    """
    s_i = ad.as_points(s_i, "s_i")
    s_o = ad.as_points(s_o, "s_o")
    n_i = ad.block_size(s_i, size_i, "s_i")
    n_o = ad.block_size(s_o, size_o, "s_o")
    if s_i.data.shape[0] // n_i != s_o.data.shape[0] // n_o:
        raise ValueError("siacon: the two sides hold different numbers of clouds")
    g_i = ad.pooled_mlp(s_i, params, "f1", n_i)
    g_o = ad.pooled_mlp(s_o, params, "f1", n_o)
    return ad.concat(g_i, g_o)


def siaatt(s, pair_feats: Tensor | None, params: ParamSet, size: int | None = None) -> Tensor:
    """Per-point scores: one scalar per row of ``s``.

    Each point's scorer input is [coordinates | per-point feature |
    pair summary broadcast to the point]. The first scorer layer takes
    these as three column blocks of one dense entry, with the summary
    given once per cloud and broadcast inside the layer, so its term is
    computed once per cloud instead of once per point; the result is the
    same linear map.

    ``pair_feats`` is one row per cloud (from :func:`siacon`), or None
    for the layout without the pair encoder.
    """
    s = ad.as_points(s, "s")
    n = ad.block_size(s, size, "s")
    clouds = s.data.shape[0] // n
    feats = ad.mlp(s, params, "f2")
    d_feat = feats.data.shape[1]

    w0 = params["g.w0"]
    want = 3 + d_feat + (pair_feats.data.shape[1] if pair_feats is not None else 0)
    if w0.data.shape[0] != want:
        raise ValueError(
            f"siaatt: scorer expects input width {w0.data.shape[0]}, got {want}"
            " (pair-summary layout mismatch)"
        )
    parts = [s, feats]
    if pair_feats is not None:
        if pair_feats.data.shape[0] != clouds:
            raise ValueError(
                f"siaatt: {pair_feats.data.shape[0]} pair summaries for {clouds} clouds"
            )
        parts.append(pair_feats)
    return ad.mlp(parts, params, "g", relu_last=False)


def normalize_weights(scores, sigma: float, size: int | None = None) -> Tensor:
    """Turn raw per-point scores into a positive distribution per cloud.

    With n points per cloud and scores F, weight k is
    (sigma + exp(-F[k]^2)) / (n*sigma + sum_j exp(-F[j]^2)): each weight
    is at least sigma over the denominator, the block sums to one, and
    larger sigma pulls the distribution toward uniform. Zero scores give
    exactly uniform weights. Sigma must be at least the smallest normal
    float64 (about 2.2e-308): a subnormal sigma over a denominator near n
    rounds to a zero weight.
    """
    if not sigma >= SIGMA_MIN:
        raise ValueError(f"sigma must be >= {SIGMA_MIN:g}, got {sigma}")
    t = scores if isinstance(scores, Tensor) else ad.tensor(np.asarray(scores, dtype=np.float64))
    flat_input = t.data.ndim == 1
    if flat_input:
        t = ad.reshape(t, (t.data.shape[0], 1))
    if t.data.ndim != 2 or t.data.shape[1] != 1:
        raise ValueError(f"scores must be a vector or single-column matrix, got {t.data.shape}")
    n = ad.block_size(t, size, "scores")
    # a score past about 1.3e154 squares to inf, and exp(-inf) = 0 is its gain
    with np.errstate(over="ignore"):
        gains = ad.exp(ad.neg(ad.square(t)))
    denom = ad.shift(ad.group_sum(gains, n), n * float(sigma))
    w = ad.div(ad.shift(gains, float(sigma)), ad.repeat_rows(denom, n))
    return ad.reshape(w, (w.data.shape[0],)) if flat_input else w


@dataclass
class LcdResult:
    """Everything one weighted-loss forward produces.

    ``loss`` is the scalar training value (mean over cloud pairs).
    Weights and matched distances are stacked per point; the weights are
    None when no weighting parameters were given. ``match_*`` hold the
    stacked-row indices of each point's nearest neighbor on the other
    side (constants for differentiation).
    """

    loss: Tensor
    weights_in: Tensor | None
    weights_out: Tensor | None
    dists_in: Tensor
    dists_out: Tensor
    match_in: np.ndarray
    match_out: np.ndarray


def _matched_indices(a: np.ndarray, b: np.ndarray, n_a: int, n_b: int, backend: str) -> np.ndarray:
    """Per-pair nearest-neighbor indices of a's rows among b's, stacked frame."""
    pairs = a.shape[0] // n_a
    out = np.empty(a.shape[0], dtype=np.int64)
    for p in range(pairs):
        m = nn_match(a[p * n_a : (p + 1) * n_a], b[p * n_b : (p + 1) * n_b], backend)
        out[p * n_a : (p + 1) * n_a] = m.indices + p * n_b
    return out


def _matched_dists(query: Tensor, ref: Tensor, idx: np.ndarray, squared: bool) -> Tensor:
    diff = query - ad.gather_rows(ref, idx)
    d2 = ad.row_sum(ad.square(diff))
    return d2 if squared else ad.sqrt(d2)


def _per_cloud_mean(w: Tensor | None, d: Tensor, n: int) -> Tensor:
    return ad.scale(ad.group_sum(d if w is None else w * d, n), 1.0 / n)


def lcd_forward(
    s_i,
    s_o,
    params: ParamSet | None,
    sigma: float,
    size_i: int | None = None,
    size_o: int | None = None,
    squared: bool = False,
    backend: str = "brute",
) -> LcdResult:
    """Weighted symmetric matching loss between input and output clouds.

    Per cloud pair: half of (weighted mean of each input point's distance
    to its nearest output point) plus the mirror-image term, where the
    weighted mean is sum(W * d) / n with W from the weighting networks.
    Uniform weights make this chamfer / n. ``params=None`` skips the
    weighting networks and takes every W as 1, which gives plain chamfer.
    The loss is the mean over pairs. Distances are Euclidean
    (``squared=True`` uses squared ones).
    """
    s_i = ad.as_points(s_i, "s_i")
    s_o = ad.as_points(s_o, "s_o")
    n_i = ad.block_size(s_i, size_i, "s_i")
    n_o = ad.block_size(s_o, size_o, "s_o")
    pairs = s_i.data.shape[0] // n_i
    if s_o.data.shape[0] // n_o != pairs:
        raise ValueError("lcd_forward: the two sides hold different numbers of clouds")

    w_i = w_o = None
    if params is not None:
        pair_feats = siacon(s_i, s_o, params, n_i, n_o) if "f1.w0" in params else None
        w_i = normalize_weights(siaatt(s_i, pair_feats, params, n_i), sigma, n_i)
        w_o = normalize_weights(siaatt(s_o, pair_feats, params, n_o), sigma, n_o)

    match_in = _matched_indices(s_i.data, s_o.data, n_i, n_o, backend)
    match_out = _matched_indices(s_o.data, s_i.data, n_o, n_i, backend)
    d_i = _matched_dists(s_i, s_o, match_in, squared)
    d_o = _matched_dists(s_o, s_i, match_out, squared)

    per_pair = ad.scale(_per_cloud_mean(w_i, d_i, n_i) + _per_cloud_mean(w_o, d_o, n_o), 0.5)
    loss = ad.scale(ad.sum_all(per_pair), 1.0 / pairs)
    return LcdResult(loss, w_i, w_o, d_i, d_o, match_in, match_out)


def adversarial_loss(l_r, sigma_r: float) -> Tensor:
    """Objective for the weighting networks: -ln(loss + sigma_r).

    Strictly decreasing in the loss, so minimizing it drives weight onto
    the worst-matched points; sigma_r keeps it finite as the loss
    approaches zero. Negative loss values are rejected (the weighted
    distance mean cannot be negative; one signals an upstream bug).
    """
    if not 0.0 < sigma_r < np.inf:  # written so that NaN fails it
        raise ValueError(f"sigma_r must be finite and > 0, got {sigma_r}")
    t = l_r if isinstance(l_r, Tensor) else ad.tensor(np.asarray(l_r, dtype=np.float64))
    if float(t.data.min()) < 0.0:
        raise ValueError(f"reconstruction loss must be >= 0, got {float(t.data.min())}")
    return ad.neg(ad.log(ad.shift(t, float(sigma_r))))
