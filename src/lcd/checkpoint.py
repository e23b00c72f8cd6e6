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

Both directions go line by line: the writer formats one row at a time,
and the reader parses each value line into its tensor's preallocated
array, so neither holds more than one line of the file's text.
"""

from __future__ import annotations

import math
import os
import stat
import warnings
from pathlib import Path
from typing import Iterator, Mapping

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
            # an explicit row count: -1 cannot be inferred when the last axis is 0
            rows = a.reshape(1, -1) if a.ndim < 2 else a.reshape(math.prod(a.shape[:-1]), a.shape[-1])
            for row in rows:
                f.write(" ".join("%.17g" % v for v in row) + "\n")
    return path


def _numbered_lines(f) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line, split as ``str.splitlines`` splits."""
    number = 0
    for chunk in f:
        for line in chunk.splitlines():
            number += 1
            yield number, line


def _row_values(row: str) -> np.ndarray:
    """The values of one value line, as ``parse_floats`` reads them.

    ``np.fromstring`` rounds correctly, as ``float()`` does, and is faster,
    but it also reads two things ``float()`` rejects: a blank string (as
    -1.0) and ``nan(...)``. Blank lines, any NaN and lines that it cannot
    read to their end go to ``parse_floats``, so the values and the
    ValueError are that parse's.
    """
    if not row.isspace():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = np.fromstring(row, sep=" ")
            except (ValueError, Warning):
                values = None
        if values is not None and not np.isnan(values).any():
            return values
    return np.array(parse_floats(row.split()), dtype=np.float64)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Parse a checkpoint into name -> array, validating the format.

    The file is read line by line, each value line straight into its
    tensor's array, so memory beyond the tensors is one line of text.
    """
    path = Path(path)
    with path.open() as f:
        st = os.fstat(f.fileno())
        # a value takes two bytes at least, so no tensor in the file holds more
        # values than this; a header that asks for more ends early
        most = st.st_size // 2 + 1 if stat.S_ISREG(st.st_mode) else None
        lines = _numbered_lines(f)
        i, first = next(lines, (0, None))
        if first is None or first.strip() != MAGIC:
            found = first.strip() if first is not None else "<empty file>"
            raise CheckpointError(f"{path}: bad magic header {found!r} (expected {MAGIC!r})")

        out: dict[str, np.ndarray] = {}
        for i, text in lines:
            line = text.strip()
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
            values = np.empty(max(0, need if most is None else min(need, most)))
            got = 0
            # rows may split or join across lines: read until the count is met
            while got < need:
                i, text = next(lines, (i, None))
                if text is None or text.strip().startswith("tensor "):
                    raise CheckpointError(f"{path}:{i}: tensor {name!r} ends early ({got} of {need} values)")
                try:
                    row = _row_values(text)
                except ValueError:
                    raise CheckpointError(f"{path}:{i}: non-numeric value in tensor {name!r}") from None
                got += row.size
                if got > need:
                    break
                values[got - row.size : got] = row
            if got != need:
                raise CheckpointError(f"{path}:{i}: tensor {name!r} holds {got} values, shape needs {need}")
            out[name] = values.reshape(shape)
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
