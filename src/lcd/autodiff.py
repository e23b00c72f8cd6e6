"""Reverse-mode automatic differentiation over shaped float64 tensors.

Define-by-run: operations execute eagerly on numpy arrays and, when a
:class:`Tape` is active, append one entry per primitive so that
:func:`backward` can run the chain rule in reverse over the recording.
The primitive set is deliberately small: elementwise arithmetic and
transcendentals, matrix multiply, a fused dense layer (``x @ w + b``
with optional relu, one tape entry, the same sums as the separate ops;
its input may come as column blocks, one of them per-cloud rows
broadcast over each cloud's points), a relu MLP max-pooled over point
blocks (one tape entry whose backward runs over the winning rows only),
feature-axis concatenation, grouped max/sum reductions over point blocks,
row gathering, and broadcasts: exactly what per-point MLPs with
symmetric pooling and weighted-distance reductions need.

Conventions baked in:

* everything is float64 (loss values can sit near 1e-8, where float32
  has no headroom for ``-log``),
* ``relu`` and ``sqrt`` use the zero subgradient at their kinks,
* grouped max breaks ties toward the lowest row index,
* gathered row indices are constants; no gradient flows through index
  selection.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "TapeEntry",
    "ParamSet",
    "Gradients",
    "GradCheckReport",
    "tensor",
    "record",
    "backward",
    "grad_check",
    "adam_update",
    "glorot_uniform",
    "add_mlp",
    "layer_count",
    "mlp",
    "as_points",
    "block_size",
    "add",
    "add_row",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "dense",
    "relu",
    "exp",
    "log",
    "sqrt",
    "square",
    "scale",
    "shift",
    "concat",
    "group_max",
    "pooled_mlp",
    "group_sum",
    "repeat_rows",
    "row_sum",
    "sum_all",
    "gather_rows",
    "reshape",
]


class Tensor:
    """A shaped array of float64 values; leaf tensors (constants,
    parameters) may be reused freely across tapes."""

    __slots__ = ("data", "name")

    def __init__(self, data, name: str | None = None):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __neg__(self) -> "Tensor":
        return neg(self)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{label})"


def tensor(value, name: str | None = None) -> Tensor:
    """Wrap ``value`` as a leaf Tensor; passes Tensors through unchanged."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, name=name)


# --------------------------------------------------------------------------
# primitive registry


@dataclass(frozen=True)
class _Op:
    check: Callable[[Sequence[np.ndarray], dict], None]
    forward: Callable[[Sequence[np.ndarray], dict], np.ndarray]
    # backward(xs, out, g, attrs, want) returns one gradient per input; it may
    # return None for an input whose want flag is False
    backward: Callable[[Sequence[np.ndarray], np.ndarray, np.ndarray, dict, list], list]


_OPS: dict[str, _Op] = {}


def _defop(name, check, forward, backward):
    _OPS[name] = _Op(check, forward, backward)


def _want_same_shape(op):
    def check(xs, attrs):
        a, b = xs
        if a.shape != b.shape:
            raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")

    return check


def _want_any(xs, attrs):
    pass


def _check_matmul(xs, attrs):
    a, b = xs
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")


def _check_dense(xs, attrs):
    *parts, w, b = xs
    ok = w.ndim == 2 and b.shape == (w.shape[1],) and all(x.ndim == 2 for x in parts)
    if ok:
        rows = parts[0].shape[0]
        ok = sum(x.shape[1] for x in parts) == w.shape[0] and all(
            x.shape[0] > 0 and rows % x.shape[0] == 0 for x in parts[1:]
        )
    if not ok:
        shapes = " | ".join(str(x.shape) for x in parts)
        raise ValueError(f"dense: incompatible shapes {shapes} @ {w.shape} + {b.shape}")


def _check_add_row(xs, attrs):
    a, v = xs
    if a.ndim != 2 or v.ndim != 1 or v.shape[0] != a.shape[1]:
        raise ValueError(f"add_row: cannot add row {v.shape} to matrix {a.shape}")


def _check_concat(xs, attrs):
    ndims = {x.ndim for x in xs}
    if len(ndims) != 1 or ndims.pop() not in (1, 2):
        raise ValueError(f"concat: inputs must all be 1-D or all be 2-D, got {[x.shape for x in xs]}")
    if xs[0].ndim == 2:
        rows = {x.shape[0] for x in xs}
        if len(rows) != 1:
            raise ValueError(f"concat: row counts differ: {[x.shape for x in xs]}")


def _check_group(op):
    def check(xs, attrs):
        (a,) = xs
        n = attrs["size"]
        if a.ndim != 2:
            raise ValueError(f"{op}: expected a 2-D input, got shape {a.shape}")
        if n < 1 or a.shape[0] % n != 0:
            raise ValueError(f"{op}: {a.shape[0]} rows not divisible into groups of {n}")

    return check


def _check_repeat(xs, attrs):
    (a,) = xs
    if a.ndim != 2 or attrs["times"] < 1:
        raise ValueError(f"repeat_rows: need a 2-D input and times >= 1, got {a.shape}")


def _check_2d(op):
    def check(xs, attrs):
        (a,) = xs
        if a.ndim != 2:
            raise ValueError(f"{op}: expected a 2-D input, got shape {a.shape}")

    return check


def _check_gather(xs, attrs):
    (a,) = xs
    idx = attrs["indices"]
    if a.ndim != 2:
        raise ValueError(f"gather_rows: expected a 2-D input, got shape {a.shape}")
    if idx.ndim != 1:
        raise ValueError(f"gather_rows: indices must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ValueError(f"gather_rows: index out of range for {a.shape[0]} rows")


def _check_reshape(xs, attrs):
    (a,) = xs
    if int(np.prod(attrs["shape"], dtype=np.int64)) != a.size:
        raise ValueError(f"reshape: cannot view {a.shape} as {attrs['shape']}")


def _concat_splits(xs):
    axis = 0 if xs[0].ndim == 1 else 1
    widths = [x.shape[axis] for x in xs]
    return axis, np.cumsum(widths)[:-1]


_defop(
    "add",
    _want_same_shape("add"),
    lambda xs, at: xs[0] + xs[1],
    lambda xs, out, g, at, want: [g, g],
)
_defop(
    "sub",
    _want_same_shape("sub"),
    lambda xs, at: xs[0] - xs[1],
    lambda xs, out, g, at, want: [g, -g],
)
_defop(
    "mul",
    _want_same_shape("mul"),
    lambda xs, at: xs[0] * xs[1],
    lambda xs, out, g, at, want: [g * xs[1] if want[0] else None, g * xs[0] if want[1] else None],
)
_defop(
    "div",
    _want_same_shape("div"),
    lambda xs, at: xs[0] / xs[1],
    lambda xs, out, g, at, want: [g / xs[1], -g * xs[0] / (xs[1] * xs[1])],
)
_defop(
    "add_row",
    _check_add_row,
    lambda xs, at: xs[0] + xs[1],
    lambda xs, out, g, at, want: [g, g.sum(axis=0) if want[1] else None],
)
_defop(
    "matmul",
    _check_matmul,
    lambda xs, at: xs[0] @ xs[1],
    lambda xs, out, g, at, want: [g @ xs[1].T if want[0] else None, xs[0].T @ g if want[1] else None],
)


def _dense_rows(parts):
    """The rows of the weight matrix that each input part multiplies."""
    lo = 0
    for x in parts:
        yield lo, lo + x.shape[1]
        lo += x.shape[1]


def _dense_forward(xs, attrs):
    # in place on the first product: the same sums, in the same order, as
    # matmul, add, repeat_rows, add_row and relu, without their intermediates
    *parts, w, b = xs
    y = None
    for x, (lo, hi) in zip(parts, _dense_rows(parts)):
        term = x @ w[lo:hi]
        if y is None:
            y = term
        elif x.shape[0] == y.shape[0]:
            y += term
        else:
            blocks = y.reshape(x.shape[0], -1, y.shape[1])
            blocks += term[:, None, :]
    y += b
    if attrs["relu"]:
        np.maximum(y, 0.0, out=y)
    return y


def _dense_backward(xs, out, g, attrs, want):
    *parts, w, _ = xs
    if attrs["relu"]:
        g = g * (out > 0.0)
    gw = np.empty_like(w) if want[-2] else None
    grads = []
    for x, (lo, hi), wanted in zip(parts, _dense_rows(parts), want):
        gx = g
        if x.shape[0] < g.shape[0] and (wanted or gw is not None):
            # a broadcast part collects its block's gradient, as repeat_rows does
            gx = g.reshape(x.shape[0], -1, g.shape[1]).sum(axis=1)
        grads.append(gx @ w[lo:hi].T if wanted else None)
        if gw is not None:
            np.matmul(x.T, gx, out=gw[lo:hi])
    return grads + [gw, g.sum(axis=0) if want[-1] else None]


_defop("dense", _check_dense, _dense_forward, _dense_backward)
_defop("neg", _want_any, lambda xs, at: -xs[0], lambda xs, out, g, at, want: [-g])
_defop(
    "relu",
    _want_any,
    lambda xs, at: np.maximum(xs[0], 0.0),
    lambda xs, out, g, at, want: [g * (xs[0] > 0.0)],
)
_defop("exp", _want_any, lambda xs, at: np.exp(xs[0]), lambda xs, out, g, at, want: [g * out])
_defop("log", _want_any, lambda xs, at: np.log(xs[0]), lambda xs, out, g, at, want: [g / xs[0]])
_defop(
    "sqrt",
    _want_any,
    lambda xs, at: np.sqrt(xs[0]),
    # zero subgradient at 0, where the true derivative diverges
    lambda xs, out, g, at, want: [np.where(out > 0.0, g * 0.5 / np.where(out > 0.0, out, 1.0), 0.0)],
)
_defop(
    "square",
    _want_any,
    lambda xs, at: xs[0] * xs[0],
    lambda xs, out, g, at, want: [2.0 * g * xs[0]],
)
_defop(
    "scale",
    _want_any,
    lambda xs, at: xs[0] * at["value"],
    lambda xs, out, g, at, want: [g * at["value"]],
)
_defop(
    "shift",
    _want_any,
    lambda xs, at: xs[0] + at["value"],
    lambda xs, out, g, at, want: [g],
)
_defop(
    "concat",
    _check_concat,
    lambda xs, at: np.concatenate(xs, axis=0 if xs[0].ndim == 1 else 1),
    lambda xs, out, g, at, want: list(np.split(g, _concat_splits(xs)[1], axis=_concat_splits(xs)[0])),
)


def _group_max_forward(xs, attrs):
    (a,) = xs
    n = attrs["size"]
    blocks = a.reshape(-1, n, a.shape[1])
    am = blocks.argmax(axis=1)  # first occurrence == lowest index on ties
    attrs["argmax"] = am
    return np.take_along_axis(blocks, am[:, None, :], axis=1)[:, 0, :]


def _group_max_backward(xs, out, g, attrs, want):
    (a,) = xs
    n = attrs["size"]
    buf = np.zeros((out.shape[0], n, a.shape[1]))
    np.put_along_axis(buf, attrs["argmax"][:, None, :], g[:, None, :], axis=1)
    return [buf.reshape(a.shape)]


_defop("group_max", _check_group("group_max"), _group_max_forward, _group_max_backward)


def _check_pooled_mlp(xs, attrs):
    x, *layers = xs
    n = attrs["size"]
    ok = x.ndim == 2 and len(layers) >= 2 and len(layers) % 2 == 0
    width = x.shape[-1]
    for w, b in zip(layers[::2], layers[1::2]):
        ok = ok and w.ndim == 2 and w.shape[0] == width and b.shape == (w.shape[1],)
        if not ok:
            break
        width = w.shape[1]
    if not ok:
        shapes = " -> ".join(str(t.shape) for t in layers[::2])
        raise ValueError(f"pooled_mlp: incompatible shapes {x.shape} -> {shapes}")
    if n < 1 or x.shape[0] % n != 0:
        raise ValueError(f"pooled_mlp: {x.shape[0]} rows not divisible into groups of {n}")


def _pooled_mlp_forward(xs, attrs):
    x, *layers = xs
    n = attrs["size"]
    taped = active_tape() is not None
    h, acts = x, [x]
    for w, b in zip(layers[::2], layers[1::2]):
        h = _dense_forward([h, w, b], {"relu": True})
        if taped:
            acts.append(h)
    blocks = h.reshape(-1, n, h.shape[1])
    if not taped:
        # the maxima alone: argmax reads the blocks through a contiguous copy
        return blocks.max(axis=1)
    am = blocks.argmax(axis=1)  # first occurrence == lowest index on ties
    # only rows that win some channel receive gradient, so the backward
    # needs each layer's input and output at those rows and nowhere else
    won = am + np.arange(0, x.shape[0], n)[:, None]
    rows, pos = np.unique(won, return_inverse=True)
    attrs["rows"] = rows
    attrs["pos"] = pos.reshape(am.shape)
    attrs["acts"] = [a[rows] for a in acts]
    return np.take_along_axis(blocks, am[:, None, :], axis=1)[:, 0, :]


def _pooled_mlp_backward(xs, out, g, attrs, want):
    x, *layers = xs
    acts = attrs["acts"]
    grads = [None] * len(xs)
    gh = np.zeros((attrs["rows"].shape[0], out.shape[1]))
    np.put_along_axis(gh, attrs["pos"], g, axis=0)
    for k in reversed(range(len(layers) // 2)):
        gh = gh * (acts[k + 1] > 0.0)
        if want[1 + 2 * k]:
            grads[1 + 2 * k] = acts[k].T @ gh
        if want[2 + 2 * k]:
            grads[2 + 2 * k] = gh.sum(axis=0)
        if not any(want[: 1 + 2 * k]):
            break
        if k == 0:
            # at full height: a product of a few rows may round differently
            full = np.zeros((x.shape[0], gh.shape[1]))
            full[attrs["rows"]] = gh
            grads[0] = full @ layers[0].T
        else:
            gh = gh @ layers[2 * k].T
    return grads


_defop("pooled_mlp", _check_pooled_mlp, _pooled_mlp_forward, _pooled_mlp_backward)
_defop(
    "group_sum",
    _check_group("group_sum"),
    lambda xs, at: xs[0].reshape(-1, at["size"], xs[0].shape[1]).sum(axis=1),
    lambda xs, out, g, at, want: [np.repeat(g, at["size"], axis=0)],
)
_defop(
    "repeat_rows",
    _check_repeat,
    lambda xs, at: np.repeat(xs[0], at["times"], axis=0),
    lambda xs, out, g, at, want: [g.reshape(xs[0].shape[0], at["times"], -1).sum(axis=1)],
)
_defop(
    "row_sum",
    _check_2d("row_sum"),
    lambda xs, at: xs[0].sum(axis=1, keepdims=True),
    lambda xs, out, g, at, want: [np.repeat(g, xs[0].shape[1], axis=1)],
)
_defop(
    "sum_all",
    _want_any,
    lambda xs, at: np.asarray(xs[0].sum()),
    lambda xs, out, g, at, want: [np.full(xs[0].shape, np.asarray(g).reshape(()))],
)


def _gather_backward(xs, out, g, attrs, want):
    buf = np.zeros_like(xs[0])
    np.add.at(buf, attrs["indices"], g)
    return [buf]


_defop(
    "gather_rows",
    _check_gather,
    lambda xs, at: xs[0][at["indices"]],
    _gather_backward,
)
_defop(
    "reshape",
    _check_reshape,
    lambda xs, at: xs[0].reshape(at["shape"]),
    lambda xs, out, g, at, want: [g.reshape(xs[0].shape)],
)


# --------------------------------------------------------------------------
# tape


@dataclass
class TapeEntry:
    """One recorded primitive: op kind, input/output handles, saved values."""

    op: str
    inputs: tuple[int, ...]
    output: int
    attrs: dict = field(default_factory=dict)


_STATE = threading.local()


def _tape_stack() -> list:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    return stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Append-only recording of primitive applications.

    Tensors are registered under small integer handles on first touch;
    the tape keeps references to them, so every saved forward value needed
    by :func:`backward` stays alive. A tape and its tensors belong to one
    thread of control; independent tapes may run concurrently.
    """

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self._tensors: list[Tensor] = []
        self._uids: dict[int, int] = {}

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        stack = _tape_stack()
        assert stack and stack[-1] is self
        stack.pop()

    def _touch(self, t: Tensor) -> int:
        uid = self._uids.get(id(t))
        if uid is None:
            uid = len(self._tensors)
            self._tensors.append(t)
            self._uids[id(t)] = uid
        return uid

    def uid_of(self, t: Tensor) -> int | None:
        return self._uids.get(id(t))

    def record_entry(self, op: str, inputs: Sequence[Tensor], output: Tensor, attrs: dict) -> None:
        in_ids = tuple(self._touch(t) for t in inputs)
        out_id = self._touch(output)
        self.entries.append(TapeEntry(op, in_ids, out_id, attrs))


def record(op: str, *inputs: Tensor, **attrs) -> Tensor:
    """Apply primitive ``op`` and record it on the active tape, if any.

    Raises ValueError on shape mismatches.
    """
    if op not in _OPS:
        raise ValueError(f"unknown op kind {op!r}")
    spec = _OPS[op]
    datas = [t.data for t in inputs]
    spec.check(datas, attrs)
    tape = active_tape()
    out = Tensor(spec.forward(datas, attrs))
    if tape is not None:
        tape.record_entry(op, inputs, out, attrs)
    return out


# thin wrappers so calling code reads like math


def add(a: Tensor, b: Tensor) -> Tensor:
    return record("add", a, b)


def add_row(a: Tensor, v: Tensor) -> Tensor:
    """Add a length-d row vector to every row of an (m, d) matrix."""
    return record("add_row", a, v)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return record("sub", a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return record("mul", a, b)


def div(a: Tensor, b: Tensor) -> Tensor:
    return record("div", a, b)


def neg(a: Tensor) -> Tensor:
    return record("neg", a)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return record("matmul", a, b)


def dense(x: Tensor | Sequence[Tensor], w: Tensor, b: Tensor, relu: bool = True) -> Tensor:
    """One layer, ``x @ w + b`` then an optional relu, as a single tape entry.

    ``x`` may also be a sequence of parts, the column blocks of one wide
    input ``[x0 | x1 | ...]``; part k multiplies the next ``x_k.shape[1]``
    rows of ``w``. The first part sets the row count. A part with fewer
    rows holds one row per block of consecutive output rows and is
    broadcast over its block, as :func:`repeat_rows` would, without
    building the repeated matrix.
    """
    parts = (x,) if isinstance(x, Tensor) else tuple(x)
    return record("dense", *parts, w, b, relu=bool(relu))


def relu(a: Tensor) -> Tensor:
    return record("relu", a)


def exp(a: Tensor) -> Tensor:
    return record("exp", a)


def log(a: Tensor) -> Tensor:
    return record("log", a)


def sqrt(a: Tensor) -> Tensor:
    return record("sqrt", a)


def square(a: Tensor) -> Tensor:
    return record("square", a)


def scale(a: Tensor, value: float) -> Tensor:
    return record("scale", a, value=float(value))


def shift(a: Tensor, value: float) -> Tensor:
    return record("shift", a, value=float(value))


def concat(*parts: Tensor) -> Tensor:
    """Concatenate along the feature axis (axis 0 for vectors, 1 for matrices)."""
    return record("concat", *parts)


def group_max(a: Tensor, size: int) -> Tensor:
    """Columnwise max over consecutive row groups of ``size``; tracks argmax."""
    return record("group_max", a, size=int(size))


def pooled_mlp(x: Tensor, params: ParamSet, prefix: str, size: int) -> Tensor:
    """``group_max(mlp(x, params, prefix), size)`` as one tape entry.

    The forward is the same arithmetic, relu after every layer, ties to the
    lowest row. A max-pool passes gradient only to the rows that win some
    channel, so a recording keeps each layer's input and output at those
    rows only, and the backward runs its relu masks and products over them.
    The input gradient's last product runs at full height; its rows equal
    the separate ops' bit for bit wherever the BLAS rounds a row of a
    product independently of the row count, as at the encoders' default
    sizes. Weight and bias gradients skip exact-zero rows, so their sums
    may round differently in the last bits. Without a tape nothing is kept,
    and the pool takes each block's maxima without finding their rows.
    """
    layers = []
    for k in range(layer_count(params, prefix)):
        layers += [params[f"{prefix}.w{k}"], params[f"{prefix}.b{k}"]]
    return record("pooled_mlp", x, *layers, size=int(size))


def group_sum(a: Tensor, size: int) -> Tensor:
    return record("group_sum", a, size=int(size))


def repeat_rows(a: Tensor, times: int) -> Tensor:
    """Broadcast each row ``times`` times (the inverse of group_sum)."""
    return record("repeat_rows", a, times=int(times))


def row_sum(a: Tensor) -> Tensor:
    """Sum along the feature axis: (m, d) -> (m, 1)."""
    return record("row_sum", a)


def sum_all(a: Tensor) -> Tensor:
    return record("sum_all", a)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows by index; indices are constants for differentiation."""
    idx = np.ascontiguousarray(indices, dtype=np.int64)
    return record("gather_rows", a, indices=idx)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    return record("reshape", a, shape=tuple(int(s) for s in shape))


# --------------------------------------------------------------------------
# backward

class Gradients(Mapping):
    """Result of :func:`backward`.

    Maps parameter names to gradient Tensors (zero for parameters the root
    does not reach) and resolves gradients of arbitrary recorded tensors
    via :meth:`wrt`.
    """

    def __init__(self, tape: Tape, by_uid: dict[int, np.ndarray], named: dict[str, Tensor]):
        self._tape = tape
        self._by_uid = by_uid
        self._named = named

    def wrt(self, t: Tensor) -> np.ndarray:
        uid = self._tape.uid_of(t)
        if uid is None or uid not in self._by_uid:
            return np.zeros_like(t.data)
        return self._by_uid[uid]

    def __getitem__(self, name: str) -> Tensor:
        return self._named[name]

    def __iter__(self):
        return iter(self._named)

    def __len__(self) -> int:
        return len(self._named)


def backward(
    tape: Tape,
    root: Tensor,
    params: "ParamSet | Iterable[ParamSet] | None" = None,
) -> Gradients:
    """Differentiate ``root`` with respect to tensors recorded on ``tape``.

    ``root`` must be a single-element tensor produced on the tape. When
    ``params`` is given, the returned mapping covers every parameter name,
    with zero gradients for parameters the root does not depend on, and
    gradient propagation is pruned to subgraphs that can reach a requested
    parameter, and ``wrt`` covers only those parameters. Without it, every
    recorded tensor's gradient is computed and kept.
    """
    root_uid = tape.uid_of(root)
    if root_uid is None:
        raise ValueError("backward: root tensor was not recorded on this tape")
    if root.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.shape}")

    sets: list[ParamSet] = []
    if params is not None:
        sets = [params] if isinstance(params, ParamSet) else list(params)

    # an entry's input gradient is worth computing only if the input sits on
    # a path from a requested tensor up to the root
    useful: set[int] | None = None
    if sets:
        useful = set()
        for pset in sets:
            for _, p in pset.items():
                uid = tape.uid_of(p)
                if uid is not None:
                    useful.add(uid)
        for entry in tape.entries:
            if entry.output not in useful and any(u in useful for u in entry.inputs):
                useful.add(entry.output)

    grads: dict[int, np.ndarray] = {root_uid: np.ones_like(root.data)}
    for entry in reversed(tape.entries):
        # a pruned pass returns parameter gradients only, so an output's
        # gradient is dropped once its entry has passed it on
        g = grads.get(entry.output) if useful is None else grads.pop(entry.output, None)
        if g is None:
            continue
        want = [useful is None or u in useful for u in entry.inputs]
        if not any(want):
            continue
        xs = [tape._tensors[uid].data for uid in entry.inputs]
        out = tape._tensors[entry.output].data
        contribs = _OPS[entry.op].backward(xs, out, g, entry.attrs, want)
        for uid, c, w in zip(entry.inputs, contribs, want):
            if c is None or not w:
                continue
            acc = grads.get(uid)
            grads[uid] = c if acc is None else acc + c

    named: dict[str, Tensor] = {}
    if sets:
        for pset in sets:
            for name, p in pset.items():
                if name in named:
                    raise ValueError(f"backward: duplicate parameter name {name!r}")
                uid = tape.uid_of(p)
                g = grads.get(uid) if uid is not None else None
                named[name] = Tensor(g if g is not None else np.zeros_like(p.data))
    elif params is None:
        for t in tape._tensors:
            if t.name is not None and tape.uid_of(t) in grads:
                named[t.name] = Tensor(grads[tape.uid_of(t)])
    return Gradients(tape, grads, named)


# --------------------------------------------------------------------------
# parameters and their optimizer state


class ParamSet:
    """Named trainable tensors plus per-parameter moment accumulators.

    Names are unique and shapes are fixed once added; updates mutate the
    tensor data in place so tensor identity (and tape registration) is
    preserved across steps. A parameter's Adam moments are made, as zeros,
    at its first update, so a set that is only evaluated holds none.
    """

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self._moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.step = 0

    def add(self, name: str, value) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"parameter {name!r} already exists")
        t = Tensor(value, name=name)
        self._tensors[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def load_values(self, values: Mapping[str, np.ndarray]) -> None:
        """Overwrite parameter data in place; shapes must match exactly."""
        missing = set(self._tensors) - set(values)
        extra = set(values) - set(self._tensors)
        if missing or extra:
            raise ValueError(f"parameter names differ (missing {sorted(missing)}, extra {sorted(extra)})")
        for name, t in self._tensors.items():
            arr = np.asarray(values[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ValueError(f"parameter {name!r}: shape {arr.shape} does not match {t.data.shape}")
        for name, t in self._tensors.items():
            np.copyto(t.data, np.asarray(values[name], dtype=np.float64))

    def moment_state(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Adam's first and second moments of ``name``, made on first use."""
        if name not in self._moments:
            data = self._tensors[name].data
            self._moments[name] = (np.zeros_like(data), np.zeros_like(data))
        return self._moments[name]


def adam_update(
    params: ParamSet,
    grads: Mapping[str, Tensor],
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> ParamSet:
    """Adaptive-moment update with bias correction, applied in place."""
    got = set(grads)
    want = set(params.names())
    if got != want:
        raise KeyError(f"gradient names differ from parameters (missing {sorted(want - got)}, extra {sorted(got - want)})")
    params.step += 1
    t = params.step
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    # every moment before any temporary, so the moments that the first update
    # makes lie together on the heap, not between the temporaries it frees
    moments = [params.moment_state(name) for name in params.names()]
    for (name, p), (m, v) in zip(params.items(), moments):
        g = grads[name]
        g = g.data if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return params


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Fan-balanced uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def add_mlp(params: ParamSet, rng: np.random.Generator, prefix: str, sizes: Sequence[int]) -> None:
    """Add a dense stack through ``sizes``: glorot weights ``prefix.w{k}``
    and zero biases ``prefix.b{k}``, drawn layer by layer."""
    for k in range(len(sizes) - 1):
        params.add(f"{prefix}.w{k}", glorot_uniform(rng, sizes[k], sizes[k + 1]))
        params.add(f"{prefix}.b{k}", np.zeros(sizes[k + 1]))


def layer_count(params: ParamSet, prefix: str) -> int:
    """Number of layers ``prefix.w0``, ``prefix.w1``, ... in ``params``."""
    n = 0
    while f"{prefix}.w{n}" in params:
        n += 1
    return n


def mlp(x: Tensor | Sequence[Tensor], params: ParamSet, prefix: str, relu_last: bool = True) -> Tensor:
    """Apply the ``prefix`` stack row-wise: ``x @ w + b``, then relu, except
    after the last layer unless ``relu_last``. ``x`` may be given as the
    column blocks that :func:`dense` takes."""
    last = layer_count(params, prefix) - 1
    for k in range(last + 1):
        x = dense(x, params[f"{prefix}.w{k}"], params[f"{prefix}.b{k}"], relu_last or k < last)
    return x


def as_points(value, name: str) -> Tensor:
    """Wrap ``value`` as a Tensor and check it is a nonempty (n, 3) matrix."""
    t = tensor(value)
    if t.data.ndim != 2 or t.data.shape[1] != 3:
        raise ValueError(f"{name}: expected shape (n, 3), got {t.data.shape}")
    if t.data.shape[0] < 1:
        raise ValueError(f"{name}: needs at least one point")
    return t


def block_size(t: Tensor, size: int | None, name: str) -> int:
    """Rows per stacked block of ``t``; None means one block of all rows."""
    rows = t.data.shape[0]
    if size is None:
        return rows
    size = int(size)
    if size < 1 or rows % size != 0:
        raise ValueError(f"{name}: {rows} rows do not split into blocks of {size}")
    return size


# --------------------------------------------------------------------------
# finite-difference oracle


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    passed: bool
    worst: tuple[int, int]  # (input index, flat element index)

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"grad_check {status}: max relative error {self.max_rel_error:.3e}"
            f" (tolerance {self.tolerance:.1e}, worst input {self.worst[0]} element {self.worst[1]})"
        )


def grad_check(
    fn: Callable[..., Tensor],
    inputs: Sequence,
    step: float = 1e-4,
    tolerance: float = 1e-5,
) -> GradCheckReport:
    """Compare tape gradients of a scalar function against central differences.

    ``fn`` receives one leaf Tensor per entry of ``inputs`` and must return
    a scalar Tensor. Relative errors use max(|analytic|, |numeric|, 1e-6)
    as the denominator so that near-zero gradients are compared absolutely.
    """
    if step <= 0:
        raise ValueError("grad_check: step must be positive")
    leaves = [tensor(np.array(x, dtype=np.float64)) for x in inputs]
    with Tape() as tape:
        out = fn(*leaves)
    if out.size != 1:
        raise ValueError("grad_check: function must be scalar-valued")
    grads = backward(tape, out)
    analytic = [grads.wrt(leaf) for leaf in leaves]

    worst = (0, 0)
    max_rel = 0.0
    for i, leaf in enumerate(leaves):
        flat = leaf.data.reshape(-1)
        a_flat = analytic[i].reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + step
            f_plus = fn(*leaves).item()
            flat[j] = keep - step
            f_minus = fn(*leaves).item()
            flat[j] = keep
            numeric = (f_plus - f_minus) / (2.0 * step)
            rel = abs(a_flat[j] - numeric) / max(abs(a_flat[j]), abs(numeric), 1e-6)
            if rel > max_rel:
                max_rel = rel
                worst = (i, j)
    return GradCheckReport(max_rel, tolerance, max_rel < tolerance, worst)
