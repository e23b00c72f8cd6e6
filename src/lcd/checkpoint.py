"""Versioned text checkpoints of named float64 tensors.

Format (line-oriented ASCII):

    LCDCKPT 1
    tensor <name> <dim0,dim1,...>
    <one row of %.17g values per line>
    tensor ...

A scalar or 1-D tensor occupies one value line; an (r, c) matrix
occupies r lines of c values. 17 significant digits round-trip float64
exactly. Tensors are written in sorted name order so identical parameter
sets produce identical files.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Mapping

import numpy as np

from .autodiff import ParamSet
from .dataio import parse_floats

__all__ = ["MAGIC", "CheckpointError", "save_checkpoint", "load_checkpoint", "load_into"]

MAGIC = "LCDCKPT 1"


class CheckpointError(Exception):
    """A checkpoint file is malformed or does not fit the target parameters."""


def _arrays_of(source) -> dict[str, np.ndarray]:
    if isinstance(source, ParamSet):
        return {name: t.data for name, t in source.items()}
    return {name: np.asarray(v, dtype=np.float64) for name, v in source.items()}


def save_checkpoint(path, source: ParamSet | Mapping[str, np.ndarray]) -> Path:
    """Write named tensors to ``path``; returns the path written."""
    arrays = _arrays_of(source)
    for name in arrays:
        if any(ch.isspace() for ch in name):
            raise CheckpointError(f"tensor name {name!r} contains whitespace")
    path = Path(path)
    # line by line: the text of a whole file would be held three times over
    with path.open("w") as f:
        f.write(MAGIC + "\n")
        for name in sorted(arrays):
            a = arrays[name]
            dims = ",".join(str(d) for d in a.shape)
            f.write(f"tensor {name} {dims if dims else 'scalar'}\n")
            rows = a.reshape(1, -1) if a.ndim < 2 else a.reshape(-1, a.shape[-1])
            for row in rows:
                f.write(" ".join("%.17g" % v for v in row) + "\n")
    return path


def _parse_block(lines: list[str], need: int) -> np.ndarray | None:
    """A tensor's value lines in one NumPy call; None unless that is exact.

    ``np.fromstring`` rounds correctly, as ``float()`` does, but it also
    reads two things ``float()`` rejects: a blank string (as -1.0) and
    ``nan(...)``. Blank blocks and any NaN go to the line-by-line parse,
    as do conversion errors and wrong value counts, so the values and the
    error messages are those of that parse.
    """
    text = " ".join(lines)
    if text.isspace():
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.fromstring(text, sep=" ")
        except (ValueError, Warning):
            return None
    if values.size != need or np.isnan(values).any():
        return None
    return values


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Parse a checkpoint into name -> array, validating the format."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != MAGIC:
        found = lines[0].strip() if lines else "<empty file>"
        raise CheckpointError(f"{path}: bad magic header {found!r} (expected {MAGIC!r})")

    out: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        parts = line.split()
        if parts[0] != "tensor" or len(parts) != 3:
            raise CheckpointError(f"{path}:{i}: expected 'tensor <name> <dims>', got {line!r}")
        name, dim_field = parts[1], parts[2]
        if name in out:
            raise CheckpointError(f"{path}:{i}: duplicate tensor {name!r}")
        try:
            shape = () if dim_field == "scalar" else tuple(int(d) for d in dim_field.split(","))
        except ValueError:
            raise CheckpointError(f"{path}:{i}: bad dims {dim_field!r} for tensor {name!r}") from None
        if any(d < 0 for d in shape):
            raise CheckpointError(f"{path}:{i}: negative dim in {dim_field!r} for tensor {name!r}")
        need = int(np.prod(shape, dtype=np.int64)) if shape else 1
        n_rows = 1 if len(shape) < 2 else int(np.prod(shape[:-1], dtype=np.int64))
        fast = _parse_block(lines[i : i + n_rows], need) if i + n_rows <= len(lines) else None
        if fast is not None:
            i += n_rows
            out[name] = fast.reshape(shape)
            continue
        values: list[float] = []
        while len(values) < need:
            if i >= len(lines):
                raise CheckpointError(
                    f"{path}:{i}: tensor {name!r} ends early ({len(values)} of {need} values)"
                )
            row = lines[i].strip()
            i += 1
            if row.startswith("tensor "):
                raise CheckpointError(
                    f"{path}:{i}: tensor {name!r} ends early ({len(values)} of {need} values)"
                )
            try:
                values.extend(parse_floats(row.split()))
            except ValueError:
                raise CheckpointError(f"{path}:{i}: non-numeric value in tensor {name!r}") from None
        if len(values) != need:
            raise CheckpointError(f"{path}:{i}: tensor {name!r} holds {len(values)} values, shape needs {need}")
        out[name] = np.array(values).reshape(shape)
    if not out:
        raise CheckpointError(f"{path}: checkpoint holds no tensors")
    return out


def load_into(path, params: ParamSet) -> None:
    """Load a checkpoint into an existing parameter set, shapes checked.

    Name sets must match exactly; any shape mismatch is reported with the
    offending tensor's name before anything is overwritten.
    """
    arrays = load_checkpoint(path)
    missing = sorted(set(params.names()) - set(arrays))
    extra = sorted(set(arrays) - set(params.names()))
    if missing or extra:
        raise CheckpointError(
            f"{path}: tensor names do not match parameters (missing {missing}, unexpected {extra})"
        )
    for name in params.names():
        have = arrays[name].shape
        want = params[name].data.shape
        if have != want:
            raise CheckpointError(f"{path}: tensor {name!r} has shape {have}, parameters need {want}")
    params.load_values(arrays)
