"""Tape engine: op semantics, gradients vs finite differences, optimizer."""

import threading

import numpy as np
import pytest

from lcd import autodiff as ad
from lcd.autodiff import ParamSet, Tape, Tensor, adam_update, backward, grad_check

from conftest import relu_margin


def test_eager_without_tape_records_nothing():
    a = ad.tensor([[1.0, 2.0], [3.0, 4.0]])
    b = ad.tensor([[1.0], [1.0]])
    out = a @ b
    assert out.data.tolist() == [[3.0], [7.0]]


def test_matmul_oracle_and_gradients():
    a = ad.tensor([[1.0, 2.0], [3.0, 4.0]])
    b = ad.tensor([[1.0], [1.0]])
    with Tape() as tape:
        out = ad.sum_all(a @ b)
    assert out.item() == 10.0
    g = backward(tape, out)
    # d(sum(A@B))/dA = ones @ B^T, columnwise constant at B's entries
    assert g.wrt(a).tolist() == [[1.0, 1.0], [1.0, 1.0]]
    assert g.wrt(b).tolist() == [[4.0], [6.0]]


def test_elementwise_forward_values():
    x = ad.tensor([[1.0, -2.0], [0.0, 4.0]])
    y = ad.tensor([[2.0, 2.0], [2.0, 2.0]])
    assert (x + y).data.tolist() == [[3.0, 0.0], [2.0, 6.0]]
    assert (x - y).data.tolist() == [[-1.0, -4.0], [-2.0, 2.0]]
    assert (x * y).data.tolist() == [[2.0, -4.0], [0.0, 8.0]]
    assert ad.div(x, y).data.tolist() == [[0.5, -1.0], [0.0, 2.0]]
    assert (-x).data.tolist() == [[-1.0, 2.0], [0.0, -4.0]]
    assert ad.relu(x).data.tolist() == [[1.0, 0.0], [0.0, 4.0]]
    assert ad.square(x).data.tolist() == [[1.0, 4.0], [0.0, 16.0]]
    assert ad.scale(x, 3.0).data.tolist() == [[3.0, -6.0], [0.0, 12.0]]
    assert ad.shift(x, 1.0).data.tolist() == [[2.0, -1.0], [1.0, 5.0]]
    assert ad.exp(ad.tensor([0.0])).data.tolist() == [1.0]
    assert ad.log(ad.tensor([1.0])).data.tolist() == [0.0]
    assert ad.sqrt(ad.tensor([4.0])).data.tolist() == [2.0]


def test_shape_checks_reject_mismatches():
    a = ad.tensor(np.ones((2, 3)))
    b = ad.tensor(np.ones((3, 2)))
    for op in (ad.add, ad.sub, ad.mul, ad.div):
        with pytest.raises(ValueError):
            op(a, b)
    with pytest.raises(ValueError):
        ad.matmul(a, ad.tensor(np.ones((2, 2))))
    with pytest.raises(ValueError):
        ad.add_row(a, ad.tensor(np.ones(2)))
    with pytest.raises(ValueError):
        ad.concat(a, ad.tensor(np.ones((3, 2))))
    with pytest.raises(ValueError):
        ad.group_max(a, 4)
    with pytest.raises(ValueError):
        ad.gather_rows(a, [0, 5])
    with pytest.raises(ValueError):
        ad.reshape(a, (4, 2))
    with pytest.raises(ValueError):
        ad.record("no_such_op", a)


def test_group_max_breaks_ties_toward_lowest_row():
    x = ad.tensor([[1.0, 5.0], [1.0, 2.0], [0.0, 5.0], [7.0, 7.0]])
    with Tape() as tape:
        out = ad.group_max(x, 2)
        total = ad.sum_all(out)
    assert out.data.tolist() == [[1.0, 5.0], [7.0, 7.0]]
    g = backward(tape, total)
    # column 0 of group 0 ties at 1.0: gradient goes to row 0, not row 1
    assert g.wrt(x).tolist() == [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]


def test_group_sum_and_repeat_rows_roundtrip():
    x = ad.tensor(np.arange(12.0).reshape(6, 2))
    summed = ad.group_sum(x, 3)
    assert summed.data.tolist() == [[6.0, 9.0], [24.0, 27.0]]
    rep = ad.repeat_rows(summed, 3)
    assert rep.data.shape == (6, 2)
    assert rep.data.tolist()[0] == rep.data.tolist()[2]


def test_concat_backward_splits_by_width():
    a = ad.tensor(np.ones((2, 2)))
    b = ad.tensor(np.ones((2, 3)))
    with Tape() as tape:
        out = ad.sum_all(ad.scale(ad.concat(a, b), 2.0))
    g = backward(tape, out)
    assert g.wrt(a).shape == (2, 2) and np.all(g.wrt(a) == 2.0)
    assert g.wrt(b).shape == (2, 3) and np.all(g.wrt(b) == 2.0)
    v = ad.tensor([1.0, 2.0])
    w = ad.tensor([3.0])
    assert ad.concat(v, w).data.tolist() == [1.0, 2.0, 3.0]


def test_gather_rows_backward_accumulates_repeats():
    x = ad.tensor([[1.0, 1.0], [2.0, 2.0]])
    with Tape() as tape:
        picked = ad.gather_rows(x, [0, 0, 1])
        out = ad.sum_all(picked)
    assert picked.data.tolist() == [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]
    g = backward(tape, out)
    assert g.wrt(x).tolist() == [[2.0, 2.0], [1.0, 1.0]]


def test_subgradients_at_kinks_are_zero():
    x = ad.tensor([0.0, -1.0, 1.0])
    with Tape() as tape:
        out = ad.sum_all(ad.relu(x))
    assert backward(tape, out).wrt(x).tolist() == [0.0, 0.0, 1.0]
    y = ad.tensor([0.0, 4.0])
    with Tape() as tape:
        out = ad.sum_all(ad.sqrt(y))
    assert backward(tape, out).wrt(y).tolist() == [0.0, 0.25]


def test_row_sum_and_reshape_gradients():
    x = ad.tensor(np.arange(6.0).reshape(2, 3))
    with Tape() as tape:
        out = ad.sum_all(ad.square(ad.row_sum(x)))
    g = backward(tape, out)
    # rows sum to 3 and 12; d/dx = 2 * row_sum broadcast back
    assert g.wrt(x).tolist() == [[6.0, 6.0, 6.0], [24.0, 24.0, 24.0]]
    with Tape() as tape:
        out = ad.sum_all(ad.scale(ad.reshape(x, (3, 2)), 5.0))
    assert np.all(backward(tape, out).wrt(x) == 5.0)


def test_grad_check_composite_smooth_function():
    rng = np.random.default_rng(0)

    def f(a, b, v):
        h = ad.relu(ad.add_row(a @ b, v))
        z = ad.exp(ad.scale(h, 0.1))
        return ad.sum_all(ad.sqrt(ad.shift(ad.square(z), 1.0)))

    report = grad_check(
        f,
        [rng.normal(size=(4, 3)) + 0.8, rng.normal(size=(3, 5)), rng.normal(size=5)],
        tolerance=1e-5,
    )
    assert report.passed, str(report)
    assert "PASS" in str(report)


def test_grad_check_rejects_nonscalar_and_bad_step():
    with pytest.raises(ValueError):
        grad_check(lambda x: x, [np.ones(3)])
    with pytest.raises(ValueError):
        grad_check(lambda x: ad.sum_all(x), [np.ones(3)], step=0.0)


def test_backward_requires_scalar_root_recorded_on_tape():
    x = ad.tensor(np.ones((2, 2)))
    with Tape() as tape:
        y = ad.scale(x, 2.0)
    with pytest.raises(ValueError):
        backward(tape, y)
    with Tape() as other:
        z = ad.sum_all(x)
    with pytest.raises(ValueError):
        backward(tape, z)


def test_unreachable_parameters_get_zero_gradients():
    params = ParamSet()
    used = params.add("used", np.ones((2, 2)))
    unused = params.add("unused", np.ones(3))
    with Tape() as tape:
        out = ad.sum_all(ad.square(used))
    grads = backward(tape, out, params)
    assert np.all(grads["used"].data == 2.0)
    assert np.all(grads["unused"].data == 0.0)
    assert set(grads) == {"used", "unused"}
    assert len(grads) == 2
    # a tensor never recorded also reads as zero
    assert np.all(grads.wrt(ad.tensor(np.ones(4))) == 0.0)


def test_pruned_backward_matches_full_on_requested_set():
    rng = np.random.default_rng(7)
    params = ParamSet()
    w1 = params.add("w1", rng.normal(size=(3, 4)))
    w2 = params.add("w2", rng.normal(size=(4, 2)))
    x = ad.tensor(rng.normal(size=(5, 3)))
    with Tape() as tape:
        h = ad.relu(x @ w1)
        out = ad.sum_all(ad.square(h @ w2))
    full = backward(tape, out)
    pruned = backward(tape, out, params)
    for name in ("w1", "w2"):
        assert np.array_equal(pruned[name].data, full.wrt(params[name]))


@pytest.mark.parametrize("requested", [0, 1])
@pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "add_row", "matmul", "concat"])
def test_pruned_backward_matches_full_for_each_two_input_op(op, requested):
    # only one input is a requested parameter, so the rule gets want = [True, False]
    # or [False, True] and may skip the other input's gradient
    shapes = {"add_row": ((4, 3), (3,)), "matmul": ((4, 3), (3, 2)), "concat": ((4, 3), (4, 2))}
    rng = np.random.default_rng(5)
    inputs = [ad.tensor(rng.normal(size=s) + 2.0) for s in shapes.get(op, ((4, 3), (4, 3)))]
    params = ParamSet()
    inputs[requested] = params.add("p", inputs[requested].data)
    with Tape() as tape:
        out = ad.sum_all(ad.square(getattr(ad, op)(*inputs)))
    full = backward(tape, out)
    pruned = backward(tape, out, params)
    assert np.array_equal(pruned["p"].data, full.wrt(inputs[requested]))
    assert np.any(pruned["p"].data != 0.0)


@pytest.mark.parametrize("relu", [True, False])
def test_dense_matches_matmul_add_row_relu_bit_for_bit(relu):
    rng = np.random.default_rng(11)
    x = ad.tensor(rng.normal(size=(6, 4)))
    w = ad.tensor(rng.normal(size=(4, 5)))
    b = ad.tensor(rng.normal(size=5))
    g_out = ad.tensor(rng.normal(size=(6, 5)))

    def loss(layer):
        return ad.sum_all(layer * g_out)

    with Tape() as tape:
        fused = ad.dense(x, w, b, relu)
        out = loss(fused)
    fused_grads = backward(tape, out)
    with Tape() as tape:
        z = ad.add_row(x @ w, b)
        chain = ad.relu(z) if relu else z
        out = loss(chain)
    chain_grads = backward(tape, out)

    assert np.array_equal(fused.data, chain.data)
    assert relu == bool(np.any(fused.data == 0.0))
    for t in (x, w, b):
        assert np.array_equal(fused_grads.wrt(t), chain_grads.wrt(t))
    # one requested input at a time: the rule skips the other two
    for requested in range(3):
        inputs = [x, w, b]
        params = ParamSet()
        inputs[requested] = params.add("p", inputs[requested].data)
        with Tape() as tape:
            out = loss(ad.dense(*inputs, relu))
        pruned = backward(tape, out, params)
        assert np.array_equal(pruned["p"].data, chain_grads.wrt((x, w, b)[requested]))


def test_dense_rejects_mismatched_shapes():
    x = ad.tensor(np.ones((2, 3)))
    with pytest.raises(ValueError):
        ad.dense(x, ad.tensor(np.ones((2, 4))), ad.tensor(np.ones(4)))
    with pytest.raises(ValueError):
        ad.dense(x, ad.tensor(np.ones((3, 4))), ad.tensor(np.ones(3)))
    with pytest.raises(ValueError):
        ad.dense(x, ad.tensor(np.ones((3, 4))), ad.tensor(np.ones((1, 4))))


def _split_layer_case(per_cloud, seed=12):
    """Point coordinates, point features and (optionally) per-cloud rows of
    3 clouds x 5 points, with a weight matrix over all their columns."""
    rng = np.random.default_rng(seed)
    n, clouds = 5, 3
    parts = [ad.tensor(rng.normal(size=(clouds * n, 3))), ad.tensor(rng.normal(size=(clouds * n, 4)))]
    if per_cloud:
        parts.append(ad.tensor(rng.normal(size=(clouds, 6))))
    w = ad.tensor(rng.normal(size=(sum(p.shape[1] for p in parts), 7)))
    b = ad.tensor(rng.normal(size=7))
    return parts, w, b, n


def _split_layer_chain(parts, w, b, n):
    """The same layer as separate ops: row gathers of ``w``, one matmul per
    part, the per-cloud term repeated over its points, bias, relu."""
    rows = np.arange(w.shape[0])
    s, f = parts[:2]
    z = s @ ad.gather_rows(w, rows[:3])
    z = z + (f @ ad.gather_rows(w, rows[3 : 3 + f.shape[1]]))
    if len(parts) == 3:
        z = z + ad.repeat_rows(parts[2] @ ad.gather_rows(w, rows[3 + f.shape[1] :]), n)
    return ad.relu(ad.add_row(z, b))


@pytest.mark.parametrize("per_cloud", [True, False])
def test_dense_over_parts_matches_gather_matmul_repeat_chain_bit_for_bit(per_cloud):
    parts, w, b, n = _split_layer_case(per_cloud)
    g_out = ad.tensor(np.random.default_rng(13).normal(size=(parts[0].shape[0], 7)))

    def loss(layer):
        return ad.sum_all(layer * g_out)

    with Tape() as tape:
        fused = ad.dense(parts, w, b)
        out = loss(fused)
    fused_grads = backward(tape, out)
    assert len(tape.entries) == 3
    with Tape() as tape:
        chain = _split_layer_chain(parts, w, b, n)
        out = loss(chain)
    chain_grads = backward(tape, out)

    assert np.array_equal(fused.data, chain.data)
    assert np.any(fused.data == 0.0) and np.any(fused.data > 0.0)
    inputs = [*parts, w, b]
    for t in inputs:
        assert np.array_equal(fused_grads.wrt(t), chain_grads.wrt(t))
    # one requested input at a time: the rule skips every other input
    for requested in range(len(inputs)):
        params = ParamSet()
        swapped = list(inputs)
        swapped[requested] = params.add("p", inputs[requested].data)
        with Tape() as tape:
            out = loss(ad.dense(swapped[:-2], swapped[-2], swapped[-1]))
        pruned = backward(tape, out, params)
        assert np.array_equal(pruned["p"].data, chain_grads.wrt(inputs[requested]))


@pytest.mark.parametrize("per_cloud", [True, False])
def test_relu_margin_recomputes_dense_over_parts(per_cloud):
    parts, w, b, n = _split_layer_case(per_cloud)
    with Tape() as fused:
        ad.dense(parts, w, b)
    with Tape() as chain:
        _split_layer_chain(parts, w, b, n)
    assert relu_margin(fused) == relu_margin(chain)
    assert 0.0 < relu_margin(fused) < np.inf


def test_dense_over_parts_gradients_against_finite_differences():
    parts, w, b, _ = _split_layer_case(True, seed=14)
    inputs = [t.data for t in (*parts, w, b)]

    def fn(s, f, p, w, b):
        return ad.sum_all(ad.square(ad.dense([s, f, p], w, b)))

    with Tape() as tape:
        fn(*parts, w, b)
    assert relu_margin(tape) > 1e-3  # no probe crosses a relu kink
    report = grad_check(fn, inputs, tolerance=1e-5)
    assert report.passed, str(report)


def test_dense_over_parts_rejects_mismatched_shapes():
    s, f, p = (ad.tensor(np.ones(shape)) for shape in [(6, 3), (6, 4), (2, 5)])
    w, b = ad.tensor(np.ones((12, 2))), ad.tensor(np.ones(2))
    assert ad.dense([s, f, p], w, b).shape == (6, 2)
    bad = [
        ([s, f, p], ad.tensor(np.ones((11, 2))), b),  # widths sum to 12
        ([s, f, ad.tensor(np.ones((4, 5)))], w, b),  # 4 rows do not divide 6
        ([s, ad.tensor(np.ones((4, 4))), p], w, b),  # neither do 4 here
        ([s, f, ad.tensor(np.ones((0, 5)))], w, b),
        ([s, f, ad.tensor(np.ones(5))], w, b),
        ([s, f, p], w, ad.tensor(np.ones(3))),
    ]
    for xs, w_bad, b_bad in bad:
        with pytest.raises(ValueError) as info:
            ad.dense(xs, w_bad, b_bad)
        shapes = " | ".join(str(x.shape) for x in xs)
        assert str(info.value) == f"dense: incompatible shapes {shapes} @ {w_bad.shape} + {b_bad.shape}"


def test_pruned_backward_keeps_only_parameter_gradients():
    params = ParamSet()
    w = params.add("w", np.full((3, 2), 0.5))
    x = ad.tensor(np.ones((4, 3)))
    with Tape() as tape:
        h = x @ w
        out = ad.sum_all(ad.square(h))
    grads = backward(tape, out, params)
    assert np.all(grads["w"].data == 12.0)
    assert np.array_equal(grads.wrt(w), grads["w"].data)
    # intermediate gradients are dropped once passed on
    assert np.all(grads.wrt(h) == 0.0)
    assert np.all(backward(tape, out).wrt(h) == 3.0)


def test_nested_tapes_record_to_innermost():
    x = ad.tensor(np.ones(3))
    with Tape() as outer:
        ad.scale(x, 2.0)
        with Tape() as inner:
            ad.scale(x, 3.0)
        ad.scale(x, 4.0)
    assert len(inner.entries) == 1
    assert len(outer.entries) == 2


def test_tapes_are_thread_isolated():
    errors = []

    def work(seed):
        try:
            rng = np.random.default_rng(seed)
            x = ad.tensor(rng.normal(size=(8, 3)))
            w = ad.tensor(rng.normal(size=(3, 2)))
            for _ in range(50):
                with Tape() as tape:
                    out = ad.sum_all(ad.relu(x @ w))
                backward(tape, out)
                assert len(tape.entries) == 3
        except Exception as e:  # surfaced below
            errors.append(e)

    threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def test_param_set_rules():
    params = ParamSet()
    params.add("a", np.ones(2))
    with pytest.raises(ValueError):
        params.add("a", np.ones(2))
    with pytest.raises(ValueError):
        params.load_values({"a": np.ones(3)})
    with pytest.raises(ValueError):
        params.load_values({"b": np.ones(2)})
    t = params["a"]
    params.load_values({"a": np.array([5.0, 6.0])})
    assert t.data.tolist() == [5.0, 6.0]  # in place, identity preserved


def test_adam_zero_grad_and_zero_lr_leave_params_unchanged():
    params = ParamSet()
    params.add("w", np.array([1.0, -2.0]))
    zero = {"w": Tensor(np.zeros(2))}
    adam_update(params, zero, lr=0.5)
    assert params["w"].data.tolist() == [1.0, -2.0]
    g = {"w": Tensor(np.array([1.0, 1.0]))}
    adam_update(params, g, lr=0.0)
    assert params["w"].data.tolist() == [1.0, -2.0]


def test_adam_constant_gradient_step_approaches_lr():
    params = ParamSet()
    params.add("w", np.array([0.0]))
    lr = 0.01
    prev = 0.0
    step = None
    for _ in range(200):
        adam_update(params, {"w": Tensor(np.array([3.0]))}, lr=lr)
        step = prev - float(params["w"].data[0])
        prev = float(params["w"].data[0])
    assert abs(step - lr) < 1e-6


def test_adam_rejects_key_mismatch():
    params = ParamSet()
    params.add("w", np.ones(2))
    with pytest.raises(KeyError):
        adam_update(params, {"v": Tensor(np.ones(2))}, lr=0.1)
    with pytest.raises(KeyError):
        adam_update(params, {"w": Tensor(np.ones(2)), "x": Tensor(np.ones(2))}, lr=0.1)


def test_glorot_uniform_bounds():
    rng = np.random.default_rng(0)
    w = ad.glorot_uniform(rng, 30, 50)
    bound = np.sqrt(6.0 / 80.0)
    assert w.shape == (30, 50)
    assert np.abs(w).max() <= bound
    assert np.abs(w).max() > 0.5 * bound


def test_randomized_op_gradients_against_finite_differences():
    rng = np.random.default_rng(42)
    cases = [
        lambda a, b: ad.sum_all(ad.div(a, ad.shift(ad.square(b), 1.0))),
        lambda a, b: ad.sum_all(ad.group_max(ad.concat(a, b), 2)),
        lambda a, b: ad.sum_all(ad.sqrt(ad.shift(ad.square(a + b), 0.5))),
        lambda a, b: ad.sum_all(ad.log(ad.shift(ad.exp(ad.neg(a)) * ad.exp(b), 1.0))),
        lambda a, b: ad.sum_all(ad.repeat_rows(ad.group_sum(a * b, 2), 3)),
    ]
    for trial in range(10):
        a = rng.normal(size=(4, 3)) + 0.1
        b = rng.normal(size=(4, 3)) - 0.1
        fn = cases[trial % len(cases)]
        report = grad_check(fn, [a, b], tolerance=1e-5)
        assert report.passed, f"case {trial % len(cases)}: {report}"
