"""Point-cloud autoencoder: per-point encoder with max-pool, dense decoder.

The encoder runs a small per-point MLP and max-pools over each cloud's
points, so the latent code ignores point order. The decoder is a dense
stack from the latent code to a fixed number of output coordinates; its
output size is baked into the parameters at construction time.

Clouds may be stacked as (B*n, 3) blocks exactly as in the loss module;
``size`` gives the per-cloud point count and defaults to the whole input
being one cloud.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ParamSet, Tensor

__all__ = [
    "DEFAULT_ENC_WIDTHS",
    "DEFAULT_DEC_WIDTHS",
    "init_recon_params",
    "params_from_arrays",
    "encode",
    "decode",
    "reconstruct",
    "output_points",
]

DEFAULT_ENC_WIDTHS = (64, 128, 128)
DEFAULT_DEC_WIDTHS = (128, 256)


def init_recon_params(
    seed: int | np.random.Generator = 0,
    n_points: int = 256,
    enc_widths=DEFAULT_ENC_WIDTHS,
    dec_widths=DEFAULT_DEC_WIDTHS,
) -> ParamSet:
    """Create autoencoder parameters producing ``n_points`` output points.

    The latent width is ``enc_widths[-1]``; ``dec_widths`` are the hidden
    decoder layers before the final linear map to n_points * 3 values.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    enc_widths = tuple(int(w) for w in enc_widths)
    dec_widths = tuple(int(w) for w in dec_widths)
    if not enc_widths or any(w < 1 for w in enc_widths):
        raise ValueError(f"enc_widths must be positive and nonempty, got {enc_widths}")
    if any(w < 1 for w in dec_widths):
        raise ValueError(f"dec_widths must be positive, got {dec_widths}")
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")

    params = ParamSet()
    ad.add_mlp(params, rng, "enc", (3,) + enc_widths)
    ad.add_mlp(params, rng, "dec", (enc_widths[-1],) + dec_widths + (3 * n_points,))
    return params


def params_from_arrays(values) -> ParamSet:
    """Rebuild a parameter set from named arrays (e.g. a loaded checkpoint).

    The layer chain is validated: any tensor whose shape does not fit its
    neighbors is rejected by name.
    """
    values = dict(values)
    if "enc.w0" not in values or "dec.w0" not in values:
        raise ValueError("autoencoder parameters need enc.* and dec.* tensors")
    params = ParamSet()
    d_latent = 0
    for prefix, d_in in (("enc", 3), ("dec", None)):
        if d_in is None:
            d_in = d_latent
        k = 0
        while f"{prefix}.w{k}" in values:
            w = np.asarray(values.pop(f"{prefix}.w{k}"), dtype=np.float64)
            if w.ndim != 2 or w.shape[0] != d_in:
                raise ValueError(
                    f"tensor {prefix}.w{k} has shape {w.shape}, expected ({d_in}, _)"
                )
            bname = f"{prefix}.b{k}"
            if bname not in values:
                raise ValueError(f"tensor {bname} is missing")
            b = np.asarray(values.pop(bname), dtype=np.float64)
            if b.shape != (w.shape[1],):
                raise ValueError(
                    f"tensor {bname} has shape {b.shape}, expected ({w.shape[1]},)"
                )
            params.add(f"{prefix}.w{k}", w)
            params.add(bname, b)
            d_in = w.shape[1]
            k += 1
        if prefix == "enc":
            d_latent = d_in
        elif d_in % 3 != 0:
            raise ValueError(
                f"tensor dec.w{k - 1} output width {d_in} does not hold 3-D points"
            )
    if values:
        raise ValueError(f"unexpected tensors: {sorted(values)}")
    return params


def output_points(params: ParamSet) -> int:
    """Number of points the decoder emits per cloud."""
    last = ad.layer_count(params, "dec") - 1
    return params[f"dec.b{last}"].data.shape[0] // 3


def encode(cloud, params: ParamSet, size: int | None = None) -> Tensor:
    """Per-point MLP (relu throughout) max-pooled per cloud: (B, latent)."""
    t = ad.as_points(cloud, "encode")
    n = ad.block_size(t, size, "encode")
    return ad.group_max(ad.mlp(t, params, "enc"), n)


def decode(latent, params: ParamSet) -> Tensor:
    """Dense stack from (B, latent) codes to stacked (B*n, 3) clouds."""
    t = latent if isinstance(latent, Tensor) else ad.tensor(np.asarray(latent, dtype=np.float64))
    if t.data.ndim == 1:
        t = ad.reshape(t, (1, t.data.shape[0]))
    want = params["dec.w0"].data.shape[0]
    if t.data.ndim != 2 or t.data.shape[1] != want:
        raise ValueError(f"decode: latent width {t.data.shape} does not match configured {want}")
    h = ad.mlp(t, params, "dec", relu_last=False)
    batch = h.data.shape[0]
    return ad.reshape(h, (batch * (h.data.shape[1] // 3), 3))


def reconstruct(cloud, params: ParamSet, size: int | None = None) -> Tensor:
    """Encode then decode; output blocks have :func:`output_points` rows."""
    return decode(encode(cloud, params, size), params)
