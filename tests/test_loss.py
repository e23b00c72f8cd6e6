"""Learnable matching-weight networks, weight normalization, and loss."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcd import autodiff as ad
from lcd.autodiff import Tape, backward, grad_check, tensor
from lcd.geometry import chamfer
from lcd.lcdloss import (
    adversarial_loss,
    init_lcd_params,
    lcd_forward,
    normalize_weights,
    siaatt,
    siacon,
)

from conftest import kink_free

# smallest normal float64: normalize_weights' lower bound on sigma
_TINY = float(np.finfo(np.float64).tiny)


def _rand_pair(rng, n=12, m=10):
    return rng.normal(size=(n, 3)), rng.normal(size=(m, 3))


def test_init_lcd_params_shapes_and_switches():
    p = init_lcd_params(seed=0, feat_widths=(6, 8), head_widths=(8, 4))
    names = set(p.names())
    assert {"f1.w0", "f1.b0", "f1.w1", "f1.b1"} <= names
    assert {"f2.w0", "f2.b0", "f2.w1", "f2.b1"} <= names
    assert p["f1.w0"].shape == (3, 6)
    assert p["f1.w1"].shape == (6, 8)
    # g consumes coords + per-point features + the two pooled halves
    assert p["g.w0"].shape == (3 + 8 + 16, 8)
    assert p["g.w1"].shape == (8, 4)
    assert p["g.w2"].shape == (4, 1)
    assert np.all(p["g.w2"].data == 0.0) and np.all(p["g.b2"].data == 0.0)

    lean = init_lcd_params(seed=0, feat_widths=(6, 8), head_widths=(8,), use_siacon=False)
    assert not any(n.startswith("f1.") for n in lean.names())
    assert lean["g.w0"].shape == (3 + 8, 8)
    live = init_lcd_params(seed=0, feat_widths=(4,), head_widths=(4,), zero_final=False)
    assert np.any(live["g.w1"].data != 0.0)


def test_init_lcd_params_rejects_empty_widths():
    with pytest.raises(ValueError):
        init_lcd_params(seed=0, feat_widths=(), head_widths=(8,))
    with pytest.raises(ValueError):
        init_lcd_params(seed=0, feat_widths=(8,), head_widths=())


def test_siacon_is_permutation_invariant_and_order_sensitive():
    rng = np.random.default_rng(0)
    p = init_lcd_params(seed=1, feat_widths=(6, 8), head_widths=(8,))
    a, b = _rand_pair(rng)
    base = siacon(tensor(a), tensor(b), p).data
    perm = rng.permutation(len(a))
    shuffled = siacon(tensor(a[perm]), tensor(b), p).data
    assert np.abs(base - shuffled).max() < 1e-12
    swapped = siacon(tensor(b), tensor(a), p).data
    # swapping the clouds swaps the two pooled halves
    d = base.shape[1] // 2
    assert np.allclose(swapped[:, :d], base[:, d:])
    assert np.allclose(swapped[:, d:], base[:, :d])


def test_siacon_identical_clouds_give_equal_halves():
    rng = np.random.default_rng(2)
    p = init_lcd_params(seed=3, feat_widths=(6,), head_widths=(4,))
    a, _ = _rand_pair(rng)
    out = siacon(tensor(a), tensor(a), p).data
    d = out.shape[1] // 2
    assert np.array_equal(out[:, :d], out[:, d:])


def test_siacon_batched_matches_per_pair_loop():
    rng = np.random.default_rng(4)
    p = init_lcd_params(seed=5, feat_widths=(6, 8), head_widths=(8,))
    pairs = [_rand_pair(rng, 9, 9) for _ in range(3)]
    stacked_i = np.concatenate([a for a, _ in pairs])
    stacked_o = np.concatenate([b for _, b in pairs])
    batched = siacon(tensor(stacked_i), tensor(stacked_o), p, size_i=9, size_o=9).data
    singles = np.concatenate([siacon(tensor(a), tensor(b), p).data for a, b in pairs])
    assert np.abs(batched - singles).max() < 1e-12


def test_siaatt_shapes_and_zero_final_scores():
    rng = np.random.default_rng(6)
    p = init_lcd_params(seed=7, feat_widths=(6, 8), head_widths=(8, 4))
    a, b = _rand_pair(rng)
    pair = siacon(tensor(a), tensor(b), p)
    scores = siaatt(tensor(a), pair, p)
    assert scores.shape == (len(a), 1)
    assert np.all(scores.data == 0.0)  # zero-init final layer


def test_siaatt_batched_matches_per_pair_loop():
    rng = np.random.default_rng(8)
    p = init_lcd_params(seed=9, feat_widths=(6, 8), head_widths=(8,), zero_final=False)
    pairs = [_rand_pair(rng, 9, 9) for _ in range(3)]
    stacked_i = np.concatenate([a for a, _ in pairs])
    stacked_o = np.concatenate([b for _, b in pairs])
    pair_b = siacon(tensor(stacked_i), tensor(stacked_o), p, size_i=9, size_o=9)
    batched = siaatt(tensor(stacked_i), pair_b, p, size=9).data
    singles = []
    for a, b in pairs:
        pair1 = siacon(tensor(a), tensor(b), p)
        singles.append(siaatt(tensor(a), pair1, p).data)
    assert np.abs(batched - np.concatenate(singles)).max() < 1e-10


def test_normalize_weights_uniform_at_zero_scores():
    w = normalize_weights(tensor(np.zeros(4)), sigma=0.01)
    assert w.data.tolist() == [0.25, 0.25, 0.25, 0.25]


def test_normalize_weights_hand_oracle():
    # scores [0, 1000]: exp terms are 1 and 0; sigma=0.01, n=2
    # W = (0.01 + e^{-F^2}) / (0.02 + 1)
    w = normalize_weights(tensor(np.array([0.0, 1000.0])), sigma=0.01)
    assert abs(w.data[0] - 1.01 / 1.02) < 1e-15
    assert abs(w.data[1] - 0.01 / 1.02) < 1e-15


def test_normalize_weights_sum_positivity_floor():
    rng = np.random.default_rng(10)
    for sigma in (0.001, 0.01, 0.1, 1.0):
        scores = rng.uniform(-5.0, 5.0, size=64)
        w = normalize_weights(tensor(scores), sigma=sigma).data
        assert abs(w.sum() - 1.0) < 1e-12
        assert w.min() > 0.0
        # the sigma term alone guarantees this floor
        assert w.min() >= sigma / (64.0 * sigma + 64.0) - 1e-15


def test_normalize_weights_sigma_softens_toward_uniform():
    scores = tensor(np.array([0.0, 2.0, -3.0, 0.5]))
    spread = []
    for sigma in (0.001, 0.1, 10.0, 1000.0):
        w = normalize_weights(scores, sigma=sigma).data
        spread.append(w.max() - w.min())
    assert spread[0] > spread[1] > spread[2] > spread[3]
    assert spread[-1] < 1e-3


def test_normalize_weights_rejects_bad_sigma_and_accepts_column():
    with pytest.raises(ValueError):
        normalize_weights(tensor(np.zeros(4)), sigma=0.0)
    with pytest.raises(ValueError):
        normalize_weights(tensor(np.zeros(4)), sigma=-1.0)
    # a subnormal sigma would round the floor weight of [0, 1e200, 0] to 0
    for sigma in (5e-324, _TINY / 2, float("nan")):
        with pytest.raises(ValueError, match="sigma must be >= 2.22507e-308"):
            normalize_weights(tensor(np.array([0.0, 1e200, 0.0])), sigma=sigma)
    assert normalize_weights(tensor(np.array([0.0, 1e200, 0.0])), sigma=_TINY).data.min() > 0.0
    col = normalize_weights(tensor(np.zeros((4, 1))), sigma=0.5)
    assert col.shape == (4, 1)
    assert np.allclose(col.data, 0.25)


def test_normalize_weights_grouped_sums_per_cloud():
    rng = np.random.default_rng(11)
    scores = rng.uniform(-2.0, 2.0, size=(12, 1))
    w = normalize_weights(tensor(scores), sigma=0.05, size=4).data
    sums = w.reshape(3, 4).sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-12


@st.composite
def _score_blocks(draw):
    n = draw(st.integers(1, 16))
    clouds = draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return n, np.array(draw(st.lists(finite, min_size=n * clouds, max_size=n * clouds)))


# scores past 1.3e154 square to inf; the gain exp(-inf) = 0 is exact and silent
@pytest.mark.filterwarnings("error:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_score_blocks(), st.floats(_TINY, 1e300))
@example((1, np.array([1e308])), 1e-300)
@example((16, np.array([1e200, -1e300] * 8)), _TINY)
@example((3, np.array([0.0, -1e200, 2.5])), 1e300)
@example((16, np.full(16, 1e-160)), 0.01)
def test_normalize_weights_floor_mass_and_uniform_at_zero(blocks, sigma):
    n, scores = blocks
    w = normalize_weights(tensor(scores), sigma=sigma, size=n).data
    assert w.min() > 0.0
    assert w.min() >= sigma / (n * sigma + n)
    assert np.abs(w.reshape(-1, n).sum(axis=1) - 1.0).max() <= 1e-12
    flat = normalize_weights(tensor(np.zeros_like(scores)), sigma=sigma, size=n).data.reshape(-1, n)
    assert (flat == flat[:, :1]).all()


def test_lcd_forward_zero_on_identical_clouds():
    rng = np.random.default_rng(12)
    p = init_lcd_params(seed=13, feat_widths=(6,), head_widths=(4,))
    a = rng.normal(size=(10, 3))
    res = lcd_forward(tensor(a), tensor(a), p, sigma=0.01)
    assert res.loss.item() == 0.0


def test_lcd_forward_uniform_weights_reduce_to_chamfer():
    rng = np.random.default_rng(14)
    for trial in range(20):
        n = int(rng.integers(4, 24))
        a = rng.normal(size=(n, 3))
        b = rng.normal(size=(n, 3))
        p = init_lcd_params(seed=trial, feat_widths=(6, 8), head_widths=(8,))
        res = lcd_forward(tensor(a), tensor(b), p, sigma=0.01)
        # zero final layer means uniform 1/n weights; for equal-size clouds
        # scaling by n recovers the plain symmetric chamfer mean
        assert abs(n * res.loss.item() - chamfer(a, b)) < 1e-12


def test_lcd_forward_hand_oracle():
    a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b = np.array([[0.0, 0.0, 0.0]])
    p = init_lcd_params(seed=0, feat_widths=(4,), head_widths=(4,))
    res = lcd_forward(tensor(a), tensor(b), p, sigma=0.01)
    # uniform weights: half of (mean fwd dist / 2 + mean rev dist / 1)
    assert res.loss.item() == 0.125
    assert res.weights_in.data.shape == (2, 1)
    assert res.weights_out.data.shape == (1, 1)
    assert res.match_in.tolist() == [0, 0]
    assert res.match_out.tolist() == [0]


def test_lcd_forward_is_permutation_invariant():
    rng = np.random.default_rng(15)
    p = init_lcd_params(seed=16, feat_widths=(6,), head_widths=(4,), zero_final=False)
    a, b = _rand_pair(rng)
    base = lcd_forward(tensor(a), tensor(b), p, sigma=0.01).loss.item()
    perm = rng.permutation(len(a))
    shuffled = lcd_forward(tensor(a[perm]), tensor(b), p, sigma=0.01).loss.item()
    assert abs(base - shuffled) < 1e-12


def test_lcd_forward_batched_matches_pair_mean():
    rng = np.random.default_rng(17)
    p = init_lcd_params(seed=18, feat_widths=(6,), head_widths=(4,), zero_final=False)
    pairs = [_rand_pair(rng, 8, 8) for _ in range(4)]
    stacked_i = np.concatenate([a for a, _ in pairs])
    stacked_o = np.concatenate([b for _, b in pairs])
    batched = lcd_forward(
        tensor(stacked_i), tensor(stacked_o), p, sigma=0.01, size_i=8, size_o=8
    ).loss.item()
    singles = [
        lcd_forward(tensor(a), tensor(b), p, sigma=0.01).loss.item() for a, b in pairs
    ]
    assert abs(batched - float(np.mean(singles))) < 1e-12


def test_lcd_forward_squared_mode_uses_squared_distances():
    a = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    b = np.array([[0.0, 0.0, 0.0]])
    p = init_lcd_params(seed=0, feat_widths=(4,), head_widths=(4,))
    assert lcd_forward(tensor(a), tensor(b), p, sigma=0.01, squared=True).loss.item() == 0.5
    assert lcd_forward(tensor(a), tensor(b), p, sigma=0.01).loss.item() == 0.25


@pytest.mark.parametrize("squared", [False, True])
def test_lcd_forward_without_params_is_mean_chamfer(squared):
    rng = np.random.default_rng(17)
    n, pairs = 11, 4
    a = [rng.normal(size=(n, 3)) for _ in range(pairs)]
    b = [rng.normal(size=(n, 3)) for _ in range(pairs)]
    res = lcd_forward(np.concatenate(a), np.concatenate(b), None, 0.01, n, n, squared=squared)
    want = np.mean([chamfer(x, y, squared=squared) for x, y in zip(a, b)])
    assert abs(res.loss.item() - want) < 1e-12
    assert res.weights_in is None and res.weights_out is None


def test_lcd_forward_without_pair_features():
    rng = np.random.default_rng(21)
    p = init_lcd_params(seed=22, feat_widths=(6,), head_widths=(4,), use_siacon=False)
    a, b = _rand_pair(rng, 10, 10)
    res = lcd_forward(tensor(a), tensor(b), p, sigma=0.01)
    assert abs(10 * res.loss.item() - chamfer(a, b)) < 1e-12


def test_adversarial_loss_oracle_and_guards():
    assert adversarial_loss(tensor(np.array([0.0])), sigma_r=1e-8).item() == pytest.approx(
        18.420680743952367, abs=1e-12
    )
    assert adversarial_loss(tensor(np.array([1.0 - 1e-8])), sigma_r=1e-8).item() == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(ValueError):
        adversarial_loss(tensor(np.array([-0.5])), sigma_r=1e-8)
    with pytest.raises(ValueError):
        adversarial_loss(tensor(np.array([0.5])), sigma_r=0.0)
    # larger reconstruction error means smaller adversarial objective
    lo = adversarial_loss(tensor(np.array([0.1])), sigma_r=1e-8).item()
    hi = adversarial_loss(tensor(np.array([0.9])), sigma_r=1e-8).item()
    assert lo > hi


def test_zero_scores_are_a_stationary_point_and_bias_init_escapes_it():
    from lcd.lcdloss import SCORE_BIAS_INIT

    rng = np.random.default_rng(30)
    a = rng.normal(size=(12, 3))
    b = rng.normal(size=(12, 3))

    def grads_at(score_bias):
        p = init_lcd_params(seed=31, feat_widths=(6,), head_widths=(4,), score_bias=score_bias)
        with Tape() as tape:
            res = lcd_forward(tensor(a), tensor(b), p, sigma=0.01)
            obj = adversarial_loss(res.loss, 1e-8)
        g = backward(tape, obj, p)
        return res, max(np.abs(g[n].data).max() for n in p.names())

    # the e^{-s^2} kernel is flat at s = 0: the whole weighting gradient
    # vanishes there, so a zero output bias would freeze the scorer forever
    res0, g0 = grads_at(0.0)
    assert g0 == 0.0
    res1, g1 = grads_at(SCORE_BIAS_INIT)
    assert g1 > 0.0
    # the shifted start still has exactly uniform weights and the same loss
    assert res1.loss.item() == res0.loss.item()
    assert np.abs(res1.weights_in.data - 1.0 / 12).max() < 1e-15


def test_weight_gradients_flow_through_scores():
    rng = np.random.default_rng(23)
    p = init_lcd_params(seed=24, feat_widths=(6,), head_widths=(4,), zero_final=False)
    a, b = _rand_pair(rng)
    with Tape() as tape:
        res = lcd_forward(tensor(a), tensor(b), p, sigma=0.01)
    grads = backward(tape, res.loss, p)
    nonzero = [n for n in p.names() if np.any(grads[n].data != 0.0)]
    assert "g.w0" in nonzero and "f1.w0" in nonzero


def test_lcd_forward_gradient_matches_finite_differences():
    rng = np.random.default_rng(25)
    p = init_lcd_params(seed=26, feat_widths=(4,), head_widths=(4,), zero_final=False)
    # randomize biases away from relu kinks
    p.load_values({n: p[n].data + rng.normal(0.0, 0.2, size=p[n].shape) for n in p.names()})
    checked = 0
    for attempt in range(60):
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(6, 3))
        with Tape() as tape:
            res = lcd_forward(tensor(a), tensor(b), p, sigma=0.05)
        if not kink_free(tape, a, b):
            continue
        names = list(p.names())

        def fn(*arrays):
            # feed the probe tensors straight in so the tape links to them
            return lcd_forward(tensor(a), tensor(b), dict(zip(names, arrays)), sigma=0.05).loss

        report = grad_check(fn, [p[n].data for n in names], tolerance=1e-4)
        assert report.passed, str(report)
        checked += 1
        if checked >= 3:
            break
    assert checked >= 3
