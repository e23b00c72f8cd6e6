"""Text checkpoint format: exact round trips and strict parsing."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lcd.autodiff import ParamSet
from lcd.checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_into,
    save_checkpoint,
)


def _sample_params():
    rng = np.random.default_rng(0)
    params = ParamSet()
    params.add("layer.w0", rng.normal(size=(3, 4)) * np.pi)
    params.add("layer.b0", rng.normal(size=4))
    params.add("gain", np.array(rng.normal()))
    return params


def test_round_trip_is_bit_exact(tmp_path):
    params = _sample_params()
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, params)
    values = load_checkpoint(path)
    assert set(values) == set(params.names())
    for name in params.names():
        assert np.array_equal(values[name], params[name].data), name
        assert values[name].shape == params[name].shape


def test_save_is_deterministic_bytes(tmp_path):
    params = _sample_params()
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_checkpoint(a, params)
    save_checkpoint(b, params)
    assert a.read_bytes() == b.read_bytes()


def test_load_into_overwrites_in_place(tmp_path):
    params = _sample_params()
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, params)
    target = _sample_params()
    handles = {n: target[n] for n in target.names()}
    target.load_values({n: target[n].data * 0.0 for n in target.names()})
    load_into(path, target)
    for name, t in handles.items():
        assert t is target[name]  # same tensor objects
        assert np.array_equal(t.data, params[name].data)


def test_load_into_rejects_mismatched_sets(tmp_path):
    params = _sample_params()
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, params)
    other = ParamSet()
    other.add("layer.w0", np.zeros((3, 4)))
    with pytest.raises(CheckpointError):
        load_into(path, other)
    shapes = ParamSet()
    shapes.add("layer.w0", np.zeros((4, 3)))
    shapes.add("layer.b0", np.zeros(4))
    shapes.add("gain", np.array(0.0))
    with pytest.raises(CheckpointError, match="layer.w0"):
        load_into(path, shapes)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "ckpt.txt"
    path.write_text("NOTACKPT 9\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_truncated_tensor_rejected(tmp_path):
    params = _sample_params()
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, params)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_bad_header_and_duplicates_rejected(tmp_path):
    path = tmp_path / "ckpt.txt"
    path.write_text("LCDCKPT 1\ntensor w\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_text("LCDCKPT 1\ntensor w scalar\n1.0\ntensor w scalar\n2.0\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_text("LCDCKPT 1\ntensor w 2\n1.0 junk\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_text("LCDCKPT 1\ntensor w 2\n1.0 2.0 3.0\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_text("LCDCKPT 1\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_scalar_and_vector_tensors_round_trip(tmp_path):
    path = tmp_path / "ckpt.txt"
    # raw mappings keep true 0-d scalars; ParamSet promotes them to (1,)
    save_checkpoint(path, {"s": np.array(2.5), "v": np.array([1.0, -1.0, 1e-300])})
    values = load_checkpoint(path)
    assert values["s"].shape == ()
    assert float(values["s"]) == 2.5
    assert values["v"].tolist() == [1.0, -1.0, 1e-300]
    params = ParamSet()
    params.add("s", np.array(2.5))
    save_checkpoint(path, params)
    assert load_checkpoint(path)["s"].shape == (1,)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "nope.txt")


def test_round_trip_is_bit_exact_across_the_float64_range(tmp_path):
    rng = np.random.default_rng(1)
    wide = rng.normal(size=(64, 97)) * 10.0 ** rng.integers(-300, 300, size=(64, 97))
    edge = np.array([0.0, -0.0, 5e-324, -2.5e-308, np.finfo(np.float64).max, np.inf, -np.inf, 0.1, 1 / 3])
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, {"wide": wide, "edge": edge, "one": np.array([[7.0]])})
    values = load_checkpoint(path)
    for name, want in (("wide", wide), ("edge", edge)):
        assert values[name].shape == want.shape
        assert np.array_equal(values[name].view(np.int64), want.view(np.int64)), name
    assert values["one"].tolist() == [[7.0]]
    path.write_text("LCDCKPT 1\ntensor w 2,2\n1\n2 3\n4\ntensor v 2\nnan -inf\n")
    values = load_checkpoint(path)  # rows may split across lines; nan parses
    assert values["w"].tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert np.isnan(values["v"][0]) and values["v"][1] == -np.inf


# every malformed layout with the exact message the line-by-line parser gives
MALFORMED = [
    ("NOTACKPT 9\n", ": bad magic header 'NOTACKPT 9' (expected 'LCDCKPT 1')"),
    ("", ": bad magic header '<empty file>' (expected 'LCDCKPT 1')"),
    ("LCDCKPT 1\n", ": checkpoint holds no tensors"),
    ("LCDCKPT 1\ntensor w\n", ":2: expected 'tensor <name> <dims>', got 'tensor w'"),
    ("LCDCKPT 1\ntensor w 2,x\n1 2\n", ":2: bad dims '2,x' for tensor 'w'"),
    ("LCDCKPT 1\ntensor w -2\n1 2\n", ":2: negative dim in '-2' for tensor 'w'"),
    ("LCDCKPT 1\ntensor w scalar\n1.0\ntensor w scalar\n2.0\n", ":4: duplicate tensor 'w'"),
    ("LCDCKPT 1\ntensor w 2\n1.0 junk\n", ":3: non-numeric value in tensor 'w'"),
    ("LCDCKPT 1\ntensor w 2\n1 nan(7)\n", ":3: non-numeric value in tensor 'w'"),
    ("LCDCKPT 1\ntensor w 2\n1.0 2.0 3.0\n", ":3: tensor 'w' holds 3 values, shape needs 2"),
    ("LCDCKPT 1\ntensor w 2,2\n1 2\n", ":3: tensor 'w' ends early (2 of 4 values)"),
    ("LCDCKPT 1\ntensor w 2,2\n1 2\ntensor v scalar\n1\n", ":4: tensor 'w' ends early (2 of 4 values)"),
    ("LCDCKPT 1\ntensor w scalar\n \n", ":3: tensor 'w' ends early (0 of 1 values)"),
    ("LCDCKPT 1\ntensor w 1,2\n1 2\n3 4\n", ":4: expected 'tensor <name> <dims>', got '3 4'"),
    ("LCDCKPT 1\ntensor w 2\n1_0 2\ntensor\n", ":3: non-numeric value in tensor 'w'"),
    ("LCDCKPT 1\ntensor w 2\n2 \u0661\u0662\n", ":3: non-numeric value in tensor 'w'"),
    # NaN sends the block to the line-by-line parse, which reads on to line 4
    ("LCDCKPT 1\ntensor w 2\nnan 2\ntensor\n", ":4: expected 'tensor <name> <dims>', got 'tensor'"),
]


@pytest.mark.parametrize("text, suffix", MALFORMED)
def test_malformed_files_name_file_and_line(tmp_path, text, suffix):
    path = tmp_path / "ckpt.txt"
    path.write_text(text)
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}{suffix}"



_FUZZ_TENSORS = {
    "a": np.array([[1.5, -2.0, 3e-300], [0.1, 7.0, -0.0]]),
    "b": np.array([4.0, 1e300, 5e-324]),
    "c": np.array(9.0),
}
# the saved file lists tensors by name, each row-major: slot k is this value
_FUZZ_SLOTS = [(name, k) for name in sorted(_FUZZ_TENSORS) for k in range(_FUZZ_TENSORS[name].size)]


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.integers(0, len(_FUZZ_SLOTS) - 1), st.text(max_size=12))
@example(5, "")  # the file's last value line loses its only token
@example(9, " ")
@example(0, "1 2")
@example(2, "nan(7)")
@example(3, "-nan")
@example(4, "1e999")
@example(6, "1_0")
@example(7, "\u0661\u0662")  # float() reads Arabic-Indic digits
@example(8, "0x10")
@example(1, "5\ntensor z scalar")
def test_one_replaced_value_parses_like_float_or_names_the_line(tmp_path, slot, text):
    path = tmp_path / "ckpt.txt"
    save_checkpoint(path, _FUZZ_TENSORS)
    lines = path.read_text().splitlines()
    where = [
        (i, j)
        for i, line in enumerate(lines)
        if i > 0 and not line.startswith("tensor ")
        for j in range(len(line.split()))
    ]
    i, j = where[slot]
    tokens = lines[i].split()
    tokens[j] = text
    lines[i] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    try:
        got = load_checkpoint(path)
    except CheckpointError as err:
        assert re.match(rf"{re.escape(str(path))}:\d+: ", str(err)), str(err)
        got = None
    if len(f"a{text}a".splitlines()) > 1:
        return  # a line break changes the file's layout; either outcome may be right
    try:
        (token,) = text.split()
        value = float(token)
    except ValueError:
        assert got is None, "one value token must parse with float()"
        return
    if "_" in token or not token.isascii():
        assert got is None, f"float() reads {token!r}, but no writer produces it"
        return
    assert got is not None, "a plain float() token must load"
    want = {name: a.copy() for name, a in _FUZZ_TENSORS.items()}
    name, k = _FUZZ_SLOTS[slot]
    want[name].reshape(-1)[k] = value
    assert set(got) == set(want)
    for name, a in want.items():
        assert got[name].shape == a.shape
        assert np.array_equal(got[name].view(np.int64), a.view(np.int64)), name
