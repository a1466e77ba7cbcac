import copy
import ctypes
import functools
import hashlib
import itertools
import math
import os
import pickle
import platform
import statistics
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from evreg.errors import (
    DivergedLoss,
    InvalidConfig,
    NonFiniteParameters,
    ParseError,
    ShapeMismatch,
)
from evreg.model import (
    EpochStats,
    ModelConfig,
    Parameters,
    TrainConfig,
    _ADAM_BETA1,
    _ADAM_BETA2,
    _ADAM_EPS,
    _backward_impl,
    _conv_backward,
    _conv_forward,
    _decoder_input,
    _forward_impl,
    _keep_freed_heap,
    _loss_and_gradients,
    _pool_backward,
    _pool_forward,
    _relu_backward,
    _relu_forward,
    _upsample_backward,
    clip_gradients,
    cosine_lr,
    forward,
    gradients,
    init_params,
    load_params,
    loss,
    predict,
    save_params,
    train,
)


def fd_gradients(params, x, y, config, h=1e-5):
    """Central finite differences of the scalar loss over every parameter."""
    base = params.to_vector()
    grad = np.zeros_like(base)
    for i in range(len(base)):
        bumped = base.copy()
        bumped[i] = base[i] + h
        up = loss(forward(params.from_vector(bumped), x, config), y, config.out_mode)
        bumped[i] = base[i] - h
        down = loss(forward(params.from_vector(bumped), x, config), y, config.out_mode)
        grad[i] = (up - down) / (2 * h)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray, floor=1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def tiny_config(seed, mode="regression_2ch"):
    rng = np.random.default_rng(seed)
    in_channels = int(rng.integers(1, 4))
    hidden = [(4,), (3, 5), (6,), (2, 4)][int(rng.integers(0, 4))]
    kernel = int(rng.choice([1, 3, 5]))
    return ModelConfig(
        in_channels=in_channels,
        hidden_channels=hidden,
        kernel_size=kernel,
        out_mode=mode,
        seed=seed,
    )


def random_problem(config, seed, batch=2, steps=19):
    rng = np.random.default_rng(seed + 1000)
    x = rng.normal(size=(batch, config.in_channels, steps))
    if config.is_segmentation:
        y = rng.integers(0, 2, size=(batch, steps))
    else:
        y = rng.normal(size=(batch, config.out_channels, steps))
    return x, y


def random_params(config, seed):
    """Draw every parameter (biases included) from a continuous distribution.

    Fresh-init parameters have all-zero biases, which parks cascades of ReLU
    pre-activations exactly on the kink where the analytic subgradient and a
    central difference legitimately disagree.  Random parameters keep the
    network off that measure-zero set.
    """
    template = init_params(config)
    rng = np.random.default_rng(seed + 7777)
    return template.from_vector(rng.normal(size=template.num_params) * 0.6)


class TestForward:
    def test_zero_params_regression(self):
        config = ModelConfig(in_channels=2, hidden_channels=(4,), kernel_size=3)
        out = forward(init_params(config).zeros_like(), np.ones((1, 2, 16)), config)
        assert np.all(out == 0.0)

    def test_zero_params_segmentation(self):
        config = ModelConfig(
            in_channels=2, hidden_channels=(4,), kernel_size=3,
            out_mode="segmentation_2class",
        )
        out = forward(init_params(config).zeros_like(), np.ones((1, 2, 16)), config)
        np.testing.assert_array_equal(out, np.full((1, 2, 16), 0.5))

    @pytest.mark.parametrize("steps", [64, 128, 256, 100, 37, 5, 1])
    def test_output_length_matches_input(self, steps):
        config = ModelConfig(in_channels=3, hidden_channels=(4, 6), kernel_size=5, seed=1)
        params = init_params(config)
        out = forward(params, np.random.default_rng(0).normal(size=(2, 3, steps)), config)
        assert out.shape == (2, 2, steps)

    def test_head_linearity(self):
        config = ModelConfig(in_channels=2, hidden_channels=(3, 5), kernel_size=3, seed=3)
        params = init_params(config)
        x = np.random.default_rng(5).normal(size=(2, 2, 40))
        base = forward(params, x, config)
        doubled = params.copy()
        doubled.tensors["head.w"][...] *= 2.0
        doubled.tensors["head.b"][...] *= 2.0
        np.testing.assert_allclose(forward(doubled, x, config), 2.0 * base, rtol=1e-12)

    def test_segmentation_probabilities_sum_to_one(self):
        config = ModelConfig(
            in_channels=2, hidden_channels=(4, 4), kernel_size=3,
            out_mode="segmentation_2class", seed=2,
        )
        out = forward(
            init_params(config), np.random.default_rng(1).normal(size=(3, 2, 48)), config
        )
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out > 0)

    def test_batch_equals_per_item(self):
        config = ModelConfig(in_channels=2, hidden_channels=(4, 6), kernel_size=5, seed=7)
        params = init_params(config)
        x = np.random.default_rng(3).normal(size=(4, 2, 50))
        batched = forward(params, x, config)
        for i in range(4):
            single = predict(params, x[i], config)
            np.testing.assert_allclose(batched[i], single, atol=1e-12)

    def test_shape_errors(self):
        config = ModelConfig(in_channels=2, hidden_channels=(4,))
        params = init_params(config)
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((1, 3, 16)), config)
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((3, 16)), config)

    def test_non_finite_params_rejected(self):
        config = ModelConfig(in_channels=1, hidden_channels=(2,), kernel_size=3)
        params = init_params(config)
        params.tensors["head.w"][0, 0, 0] = np.nan
        with pytest.raises(NonFiniteParameters):
            forward(params, np.zeros((1, 1, 8)), config)

    def test_deterministic(self):
        config = ModelConfig(in_channels=2, hidden_channels=(4, 6), seed=11)
        params = init_params(config)
        x = np.random.default_rng(9).normal(size=(2, 2, 64))
        np.testing.assert_array_equal(forward(params, x, config), forward(params, x, config))


class TestLoss:
    def test_mse_zero_at_target(self):
        pred = np.random.default_rng(0).normal(size=(2, 2, 30))
        assert loss(pred, pred.copy(), "regression_2ch") == 0.0

    def test_mse_matches_definition(self):
        rng = np.random.default_rng(1)
        pred = rng.normal(size=(2, 1, 16))
        target = rng.normal(size=(2, 1, 16))
        expected = np.mean((pred - target) ** 2)
        assert loss(pred, target, "regression_1ch") == pytest.approx(expected, rel=1e-15)

    def test_zero_prediction_against_normalized_target(self):
        from evreg.targets import PdfSpec, encode_regression
        from evreg.types import INTERVAL, EventSet, IntervalEvent

        d = 400
        spec = PdfSpec(kind="gaussian", day_length_d=d, width_w=33, sigma=4.0)
        events = tuple(IntervalEvent(d * i + 100, d * i + 300) for i in range(3))
        ts = encode_regression(EventSet("s", INTERVAL, events), 3 * d, spec)
        value = loss(np.zeros((1, 2, 3 * d)), ts.channels[None], "regression_2ch")
        assert 0.9 <= value <= 1.1

    def test_uniform_segmentation_is_ln2(self):
        pred = np.full((2, 2, 25), 0.5)
        labels = np.random.default_rng(2).integers(0, 2, size=(2, 25))
        assert loss(pred, labels, "segmentation_2class") == pytest.approx(math.log(2))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            loss(np.zeros((1, 2, 8)), np.zeros((1, 2, 9)), "regression_2ch")
        with pytest.raises(ShapeMismatch):
            loss(np.zeros((1, 2, 8)), np.zeros((2, 8)), "segmentation_2class")

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_segmentation_label_outside_0_1(self, bad):
        # 2 used to raise a raw IndexError, -1 scored as class 1, 0.5 as class 0
        config = tiny_config(3, mode="segmentation_2class")
        x, y = random_problem(config, 3)
        labels = y.astype(np.asarray(bad).dtype)
        labels[1, 5] = bad
        with pytest.raises(ShapeMismatch, match="labels must all be 0 or 1"):
            loss(np.full((2, 2, 19), 0.5), labels, "segmentation_2class")
        with pytest.raises(ShapeMismatch, match="labels must all be 0 or 1"):
            gradients(random_params(config, 3), (x, labels), config)


class TestLayerGradients:
    """Finite-difference checks for each primitive in isolation."""

    def _fd_scalar(self, f, arr, h=1e-6):
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            up = f()
            flat[i] = old - h
            down = f()
            flat[i] = old
            gflat[i] = (up - down) / (2 * h)
        return grad

    def test_conv_gradients(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 11))
        w = rng.normal(size=(4, 3, 5))
        b = rng.normal(size=4)
        proj = rng.normal(size=(2, 4, 11))  # random linear functional

        def scalar():
            out, _ = _conv_forward(x, w, b)
            return float(np.sum(out * proj))

        out, cache = _conv_forward(x, w, b)
        dx, dw, db = _conv_backward(proj, cache)
        assert max_rel_error(dx, self._fd_scalar(scalar, x)) < 1e-6
        assert max_rel_error(dw, self._fd_scalar(scalar, w)) < 1e-6
        assert max_rel_error(db, self._fd_scalar(scalar, b)) < 1e-6

    def test_pool_gradients(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 12))
        proj = rng.normal(size=(2, 3, 6))

        def scalar():
            out, _ = _pool_forward(x)
            return float(np.sum(out * proj))

        _, cache = _pool_forward(x)
        dx = _pool_backward(proj, cache)
        assert max_rel_error(dx, self._fd_scalar(scalar, x)) < 1e-6

    def test_upsample_gradients(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 6))
        skip = rng.normal(size=(2, 4, 12))
        proj = rng.normal(size=(2, 7, 12))

        def scalar():
            return float(np.sum(_decoder_input(x, skip) * proj))

        dx = _upsample_backward(proj[:, :3])
        assert max_rel_error(dx, self._fd_scalar(scalar, x)) < 1e-6

    def test_relu_gradients(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 9)) + 0.05  # keep clear of the kink
        proj = rng.normal(size=(2, 3, 9))

        def scalar():
            out, _ = _relu_forward(x)
            return float(np.sum(out * proj))

        _, mask = _relu_forward(x)
        dx = _relu_backward(proj, mask)
        assert max_rel_error(dx, self._fd_scalar(scalar, x)) < 1e-6

    def test_softmax_ce_gradient_via_full_net(self):
        config = tiny_config(5, mode="segmentation_2class")
        params = random_params(config, 5)
        x, y = random_problem(config, 5)
        _, grads = _loss_and_gradients(params, x, y, config)
        numeric = fd_gradients(params, x, y, config)
        assert max_rel_error(grads.to_vector(), numeric) <= 1e-4

    def test_backward_scales_linearly(self):
        # pushing c * dlogits through the tape scales every gradient by c
        config = tiny_config(6)
        params = init_params(config)
        x, y = random_problem(config, 6)
        out, cache = _forward_impl(params, x, config)
        dlogits = 2.0 * (out - y) / out.size
        g1 = _backward_impl(params, cache, dlogits, config)
        g3 = _backward_impl(params, cache, 3.0 * dlogits, config)
        for name in g1.tensors:
            np.testing.assert_allclose(
                g3.tensors[name], 3.0 * g1.tensors[name], rtol=1e-12
            )


def einsum_conv_forward(x, w, b):
    """Reference same-padded conv: one einsum over every window and tap."""
    half = w.shape[2] // 2
    xp = np.pad(x, ((0, 0), (0, 0), (half, half)))
    windows = sliding_window_view(xp, w.shape[2], axis=2)
    return np.einsum("bctk,ock->bot", windows, w) + b[None, :, None]


def einsum_conv_backward(dout, x, w):
    """Reference (dx, dw, db) of einsum_conv_forward under upstream dout."""
    half = w.shape[2] // 2
    xp = np.pad(x, ((0, 0), (0, 0), (half, half)))
    dw = np.einsum("bot,bctk->ock", dout, sliding_window_view(xp, w.shape[2], axis=2))
    w_t = w[:, :, ::-1].transpose(1, 0, 2)
    dx = einsum_conv_forward(dout, w_t, np.zeros(w_t.shape[0]))
    return dx, dw, dout.sum(axis=(0, 2))


class TestConvOracle:
    """The per-tap conv against the einsum formulas it replaced."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("in_c,out_c,steps", [(3, 5, 13), (6, 2, 7), (4, 4, 1)])
    def test_matches_einsum(self, batch, kernel, in_c, out_c, steps):
        rng = np.random.default_rng(batch * 100 + kernel * 10 + in_c)
        x = rng.normal(size=(batch, in_c, steps))
        w = rng.normal(size=(out_c, in_c, kernel))
        b = rng.normal(size=out_c)
        dout = rng.normal(size=(batch, out_c, steps))
        out, cache = _conv_forward(x, w, b)
        got = (out, *_conv_backward(dout, cache))
        want = (einsum_conv_forward(x, w, b), *einsum_conv_backward(dout, x, w))
        for name, g, r in zip(("out", "dx", "dw", "db"), got, want):
            assert g.shape == r.shape, name
            # sums reassociate, so entries that cancel to near 0 get an
            # absolute floor at the array's own scale
            np.testing.assert_allclose(
                g, r, rtol=1e-12, atol=1e-12 * np.abs(r).max(), err_msg=name
            )


def argmax_pool(x, dout):
    """Reference (out, dx) of 2-to-1 max pooling routed by argmax."""
    b, c, t = x.shape
    pairs = x.reshape(b, c, t // 2, 2)
    idx = pairs.argmax(axis=3)
    out = np.take_along_axis(pairs, idx[..., None], axis=3)[..., 0]
    dpairs = np.zeros((b, c, t // 2, 2))
    np.put_along_axis(dpairs, idx[..., None], dout[..., None], axis=3)
    return out, dpairs.reshape(b, c, t)


def tensordot_dw(dout, xp, k):
    """Reference conv weight gradient: one np.tensordot per kernel tap."""
    t = dout.shape[2]
    taps = [np.tensordot(dout, xp[:, :, j : j + t], ([0, 2], [0, 2])) for j in range(k)]
    return np.stack(taps, axis=2)


def repeat_concat(x, skip):
    """Reference decoder input: np.repeat upsampling, then np.concatenate."""
    return np.concatenate([np.repeat(x, 2, axis=2), skip], axis=1)


def reshape_sum(dout):
    """Reference upsample backward: sum each pair of steps via a reshape."""
    b, c, t = dout.shape
    return dout.reshape(b, c, t // 2, 2).sum(axis=3)


def same_bits(got, want) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


_SPECIAL = [0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf]


def with_specials(rng, shape):
    """Normal draws whose first 49 entries are every pair of special values."""
    out = rng.normal(size=shape)
    out.ravel()[:98] = np.array(list(itertools.product(_SPECIAL, repeat=2))).ravel()
    return out


class TestExactTrims:
    """Pooling, padding and dw against the forms they replaced, bit for bit."""

    def test_pool_matches_argmax_on_ties_signed_zeros_and_nan(self):
        special = [0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf]
        pairs = np.array(list(itertools.product(special, repeat=2)))
        rng = np.random.default_rng(3)
        # small integers give many ties between the two elements of a pair
        x = np.concatenate([pairs.ravel(), rng.integers(-2, 3, size=198).astype(float)])
        x = x.reshape(2, 2, -1)
        dout = rng.normal(size=(2, 2, x.shape[2] // 2))
        dout.ravel()[:7] = special
        out, cache = _pool_forward(x)
        want_out, want_dx = argmax_pool(x, dout)
        assert same_bits(out, want_out)
        assert same_bits(_pool_backward(dout, cache), want_dx)

    def test_decoder_input_matches_repeat_and_concatenate(self):
        rng = np.random.default_rng(4)
        x = with_specials(rng, (2, 5, 13))
        skip = with_specials(rng, (2, 3, 26))
        assert same_bits(_decoder_input(x, skip), repeat_concat(x, skip))

    def test_upsample_backward_matches_reshape_sum(self):
        # every pair of special values is summed, including -0.0 + -0.0
        rng = np.random.default_rng(5)
        dcat = with_specials(rng, (2, 8, 26))
        # the backward pass reads the upsampled channels of dcat, a strided view
        dup = dcat[:, :5]
        with np.errstate(invalid="ignore"):  # inf + -inf
            assert same_bits(_upsample_backward(dup), reshape_sum(dup))
            assert same_bits(_upsample_backward(dcat), reshape_sum(dcat))

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("in_c,out_c,steps", [(3, 5, 13), (6, 2, 7), (4, 4, 1)])
    def test_padding_and_dw_match_tensordot(self, batch, kernel, in_c, out_c, steps):
        rng = np.random.default_rng(batch * 100 + kernel * 10 + in_c)
        x = rng.normal(size=(batch, in_c, steps))
        w = rng.normal(size=(out_c, in_c, kernel))
        dout = rng.normal(size=(batch, out_c, steps))
        _, cache = _conv_forward(x, w, rng.normal(size=out_c))
        half = kernel // 2
        xp = np.pad(x, ((0, 0), (0, 0), (half, half)))
        assert same_bits(cache[0], xp)
        _, dw, _ = _conv_backward(dout, cache)
        assert same_bits(dw, tensordot_dw(dout, xp, kernel))

    @pytest.mark.parametrize("batch", [1, 2, 8])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_dw_matches_tensordot_on_signed_zeros_inf_and_nan(self, batch, kernel):
        # every pair of special values meets in the input and in dout; one
        # series reads a strided view of the padded input, more read a copy
        rng = np.random.default_rng(batch * 10 + kernel)
        x = with_specials(rng, (batch, 7, 28))
        w = rng.normal(size=(4, 7, kernel))
        dout = with_specials(rng, (batch, 4, 28))
        with np.errstate(invalid="ignore", over="ignore"):
            _, cache = _conv_forward(x, w, np.zeros(4))
            _, dw, db = _conv_backward(dout, cache)
            want = tensordot_dw(dout, cache[0], kernel), dout.sum(axis=(0, 2))
        assert same_bits(dw, want[0]) and same_bits(db, want[1])

    @pytest.mark.parametrize("batch", [1, 3])
    def test_input_grad_can_be_skipped(self, batch):
        rng = np.random.default_rng(7 + batch)
        x = with_specials(rng, (batch, 6, 20))
        w = rng.normal(size=(5, 6, 3))
        dout = with_specials(rng, (batch, 5, 20))
        with np.errstate(invalid="ignore", over="ignore"):
            _, cache = _conv_forward(x, w, np.zeros(5))
            _, dw, db = _conv_backward(dout, cache)
            skipped = _conv_backward(dout, cache, input_grad=False)
        assert skipped[0] is None
        assert same_bits(skipped[1], dw) and same_bits(skipped[2], db)


_HASH_SCRIPT = """
import hashlib
import numpy as np
from evreg.config import load_config
from evreg.model import forward, gradients, init_params
config = load_config("configs/benchmark_regression.yaml").model
rng = np.random.default_rng(0)
x = rng.normal(size=(8, config.in_channels, 512))
y = rng.normal(size=(8, config.out_channels, 512))
params = init_params(config)
digest = hashlib.sha256(forward(params, x, config).tobytes())
for g in gradients(params, (x, y), config).tensors.values():
    digest.update(g.tobytes())
print(digest.hexdigest())
"""


def test_outputs_independent_of_blas_threads():
    """forward and gradients of the benchmark model hash the same under 1 and
    2 BLAS threads."""
    root = Path(__file__).resolve().parent.parent
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(root / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SCRIPT],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        )
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


# Trains twice at the benchmark shapes (B=8, C=8, T=512, hidden 8/16/32): 6
# steps, then 36.  With argv[1] == "noop" the allocator setting is swapped out
# before the first train.  Prints the minor page faults of each step of the
# second train, then a digest of its parameters, trace and a forward output.
_TRAIN_SCRIPT = """
import hashlib, resource, sys
import numpy as np
from evreg import model
from evreg.config import load_config
if sys.argv[1] == "noop":
    model._keep_freed_heap = lambda: None
config = load_config("configs/benchmark_regression.yaml").model
rng = np.random.default_rng(0)
items = [(rng.normal(size=(8, 512)), rng.normal(size=(2, 512))) for _ in range(24)]
model.train(items, config, model.TrainConfig(epochs=2, batch_size=8))
# clip_gradients runs once per step
marks = [resource.getrusage(resource.RUSAGE_SELF).ru_minflt]
clip = model.clip_gradients
def counting_clip(grads, max_norm):
    marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return clip(grads, max_norm)
model.clip_gradients = counting_clip
result = model.train(items, config, model.TrainConfig(epochs=12, batch_size=8))
model.clip_gradients = clip
digest = hashlib.sha256(result.params.flat.tobytes())
digest.update(repr(result.trace).encode())
digest.update(model.forward(result.params, np.stack([x for x, _ in items[:8]]), config).tobytes())
print(*np.diff(marks), digest.hexdigest())
"""


@functools.lru_cache(maxsize=None)
def _run_train_script(mode: str) -> tuple[tuple[int, ...], str]:
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _TRAIN_SCRIPT, mode],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    *faults, digest = proc.stdout.split()
    return tuple(int(f) for f in faults), digest


def test_allocator_setting_leaves_training_bits_unchanged():
    """Parameters, trace and outputs hash the same with the heap setting
    applied and with it swapped for a no-op, each in a fresh interpreter."""
    kept, swapped = _run_train_script("keep")[1], _run_train_script("noop")[1]
    assert len(kept) == 64
    assert kept == swapped


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the setting is glibc's")
def test_training_steps_reuse_their_pages():
    # without the setting every step faults about 1,580 pages in again; with
    # it the typical step faults none, and the heap's top now and then grows
    # by some tens of pages
    faults, _ = _run_train_script("keep")
    assert len(faults) == 36
    assert statistics.median(faults) < 1
    assert sum(faults) < 10 * len(faults)


def _no_mallopt(name):
    return object()


def _no_library(name):
    raise OSError("no C library")


def _no_default_library(name):
    raise TypeError("a library path is required")


@pytest.mark.parametrize("cdll", [_no_mallopt, _no_library, _no_default_library])
def test_allocator_setting_without_mallopt_is_a_no_op(monkeypatch, cdll):
    items = overfit_dataset()
    config = ModelConfig(in_channels=2, hidden_channels=(4, 6), kernel_size=3)
    tc = TrainConfig(epochs=2, batch_size=2)
    want = train(items, config, tc)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    _keep_freed_heap()
    got = train(items, config, tc)
    assert same_bits(got.params.flat, want.params.flat)
    assert got.trace == want.trace


class TestFullGradients:
    def test_zero_net_zero_targets_stationary(self):
        config = ModelConfig(in_channels=1, hidden_channels=(3,), kernel_size=3)
        params = init_params(config).zeros_like()
        x = np.random.default_rng(0).normal(size=(1, 1, 12))
        y = np.zeros((1, 2, 12))
        grads = gradients(params, (x, y), config)
        assert grads.global_norm() == 0.0

    @pytest.mark.parametrize("mode", ["regression_2ch", "regression_1ch", "segmentation_2class"])
    @pytest.mark.parametrize("seed", [3, 17])
    def test_fd_agreement_per_mode(self, mode, seed):
        config = tiny_config(seed, mode=mode)
        params = random_params(config, seed)
        assert params.num_params <= 500
        x, y = random_problem(config, seed)
        _, grads = _loss_and_gradients(params, x, y, config)
        numeric = fd_gradients(params, x, y, config)
        assert max_rel_error(grads.to_vector(), numeric) <= 1e-4


class TestOptim:
    def test_cosine_endpoints(self):
        assert cosine_lr(0, 100, 1e-3) == pytest.approx(1e-3)
        assert cosine_lr(50, 100, 1e-3) == pytest.approx(5e-4)
        assert cosine_lr(100, 100, 1e-3) == pytest.approx(0.0, abs=1e-18)
        assert cosine_lr(99, 100, 1e-3) < 1e-6

    def test_clip_rescales_to_max_norm(self):
        grads = Parameters({"w": np.array([6.0, 8.0])})  # norm 10
        clipped, norm = clip_gradients(grads, 0.1)
        assert norm == pytest.approx(10.0)
        assert clipped.global_norm() == pytest.approx(0.1)

    def test_clip_leaves_small_gradients(self):
        grads = Parameters({"w": np.array([0.03, 0.04])})  # norm 0.05
        clipped, norm = clip_gradients(grads, 0.1)
        assert clipped.tensors["w"] is grads.tensors["w"]
        assert norm == pytest.approx(0.05)


class TestFlatParameters:
    def test_global_norm_is_the_per_tensor_sum(self):
        # benchmark shapes; each tensor's sum of squares is added in layout order
        config = ModelConfig(in_channels=8, hidden_channels=(8, 16, 32), kernel_size=5)
        template = init_params(config)
        for seed in range(20):
            params = template.from_vector(
                np.random.default_rng(seed).normal(size=template.num_params)
            )
            separate = [v.copy() for v in params.tensors.values()]
            expected = math.sqrt(sum(float(np.sum(v * v)) for v in separate))
            assert params.global_norm() == expected

    def test_tensors_are_views_into_flat(self):
        params = init_params(tiny_config(1))
        params.tensors["head.b"][...] = 7.0  # head.b is last in the layout
        assert np.all(params.flat[-params.tensors["head.b"].size :] == 7.0)
        for view in params.tensors.values():
            assert np.shares_memory(view, params.flat)
        params.flat[:] = 0.0
        assert not any(v.any() for v in params.tensors.values())

    def test_tensors_reject_assignment(self):
        params = init_params(tiny_config(1))
        with pytest.raises(TypeError):
            params.tensors["head.b"] = np.zeros(2)
        with pytest.raises(TypeError):
            del params.tensors["head.b"]
        with pytest.raises(TypeError):
            params.layout["head.b"] = (3,)

    def test_from_vector_checks_length(self):
        params = init_params(tiny_config(2))
        for size in (params.num_params - 1, params.num_params + 1):
            with pytest.raises(ShapeMismatch):
                params.from_vector(np.zeros(size))

    @pytest.mark.parametrize("clone", [
        lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy, Parameters.copy,
    ], ids=["pickle", "deepcopy", "copy"])
    def test_copies_own_their_vector(self, clone):
        params = random_params(tiny_config(3), 3)
        other = clone(params)
        assert other.layout == params.layout
        assert list(other.tensors) == list(params.tensors)
        np.testing.assert_array_equal(other.flat, params.flat)
        assert not np.shares_memory(other.flat, params.flat)
        for name, view in other.tensors.items():
            assert np.shares_memory(view, other.flat), name
        other.tensors["head.b"][...] += 1.0
        n = params.tensors["head.b"].size
        np.testing.assert_array_equal(other.flat[-n:], params.flat[-n:] + 1.0)


def reference_train(items, config, tc):
    """train written as a per-tensor global-norm clip and Adam loop: its oracle.

    No validation scorer, so the lowest-train-loss epoch wins.  Returns that
    epoch's tensors, the epoch losses, the number of clipped steps and each
    epoch's (mean norm, max norm, clip rate, last step's lr).
    """
    rng = np.random.default_rng(config.seed)
    params = {k: v.copy() for k, v in init_params(config, rng).tensors.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(t) for k, t in params.items()}
    n, batch = len(items), tc.batch_size
    n_batches = (n + batch - 1) // batch
    total_steps = tc.epochs * n_batches
    step = clipped = 0
    best, losses, stats = None, [], []
    for _ in range(tc.epochs):
        order = rng.permutation(n)
        epoch_losses, norms, epoch_clipped = [], [], 0
        for bi in range(n_batches):
            sel = order[bi * batch : (bi + 1) * batch]
            x = np.stack([items[j][0] for j in sel])
            y = np.stack([items[j][1] for j in sel])
            loss_value, grads = _loss_and_gradients(Parameters(params), x, y, config)
            g = {k: t.copy() for k, t in grads.tensors.items()}
            norm = math.sqrt(sum(float(np.sum(t * t)) for t in g.values()))
            norms.append(norm)
            if norm > tc.grad_clip_norm and norm > 0:
                scale = tc.grad_clip_norm / norm
                g = {k: t * scale for k, t in g.items()}
                clipped += 1
                epoch_clipped += 1
            lr = cosine_lr(step, total_steps, tc.learning_rate)
            step += 1
            b1c = 1.0 - _ADAM_BETA1**step
            b2c = 1.0 - _ADAM_BETA2**step
            for name, gt in g.items():
                m[name] = _ADAM_BETA1 * m[name] + (1 - _ADAM_BETA1) * gt
                v[name] = _ADAM_BETA2 * v[name] + (1 - _ADAM_BETA2) * (gt * gt)
                params[name] = params[name] - lr * (m[name] / b1c) / (
                    np.sqrt(v[name] / b2c) + _ADAM_EPS
                )
            epoch_losses.append(loss_value)
        losses.append(float(np.mean(epoch_losses)))
        stats.append((sum(norms) / len(norms), max(norms), epoch_clipped / n_batches, lr))
        if best is None or losses[-1] < best[0]:
            best = (losses[-1], {k: t.copy() for k, t in params.items()})
    return best[1], losses, clipped, stats


def overfit_dataset(seed=0, n=4, steps=64):
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(n):
        x = rng.normal(size=(2, steps))
        y = rng.normal(size=(2, steps)) * 0.5
        items.append((x, y))
    return items


class TestTrain:
    def test_overfit_sanity(self):
        # batch == dataset size, so one step per epoch: 200 steps total
        config = ModelConfig(in_channels=2, hidden_channels=(8, 12), kernel_size=5, seed=0)
        tc = TrainConfig(epochs=200, batch_size=4, learning_rate=3e-3, grad_clip_norm=1.0)
        items = overfit_dataset()
        result = train(items, config, tc)
        first = result.trace[0].train_loss
        best = min(s.train_loss for s in result.trace)
        assert best < 0.1 * first
        assert len(result.trace) == 200

    def test_bitwise_determinism(self):
        config = ModelConfig(in_channels=2, hidden_channels=(4, 6), kernel_size=3, seed=5)
        tc = TrainConfig(epochs=3, batch_size=2, learning_rate=1e-3, grad_clip_norm=0.1)
        items = overfit_dataset(seed=2)
        a = train(items, config, tc)
        b = train(items, config, tc)
        for name in a.params.tensors:
            np.testing.assert_array_equal(a.params.tensors[name], b.params.tensors[name])
        assert [s.train_loss for s in a.trace] == [s.train_loss for s in b.trace]

    @pytest.mark.parametrize("mode", ["regression_2ch", "regression_1ch", "segmentation_2class"])
    def test_matches_per_tensor_reference(self, mode):
        config = ModelConfig(
            in_channels=2, hidden_channels=(3, 5), kernel_size=3, out_mode=mode, seed=4
        )
        rng = np.random.default_rng(0)
        items = []
        for _ in range(5):
            x = rng.normal(size=(2, 40))
            if config.is_segmentation:
                items.append((x, rng.integers(0, 2, size=40)))
            else:
                items.append((x, rng.normal(size=(config.out_channels, 40))))
        tc = TrainConfig(epochs=4, batch_size=2, learning_rate=1e-2, grad_clip_norm=1.0)
        expected, losses, clipped, stats = reference_train(items, config, tc)
        assert 0 < clipped < 12  # 3 batches x 4 epochs, some of them clipped
        result = train(items, config, tc)
        assert [s.train_loss for s in result.trace] == losses
        got = [(s.grad_norm_mean, s.grad_norm_max, s.clip_rate, s.lr) for s in result.trace]
        np.testing.assert_allclose(got, stats, rtol=1e-15)
        assert [s.clip_rate for s in result.trace] == [st[2] for st in stats]
        assert [s.lr for s in result.trace] == [st[3] for st in stats]
        assert list(result.params.tensors) == list(expected)
        for name, tensor in expected.items():
            assert np.array_equal(result.params.tensors[name], tensor), name

    def test_best_epoch_by_validation(self):
        config = ModelConfig(in_channels=2, hidden_channels=(4,), kernel_size=3, seed=1)
        tc = TrainConfig(epochs=4, batch_size=4, learning_rate=1e-3, grad_clip_norm=0.1)
        scores = iter([0.2, 0.9, 0.9, 0.4])
        snapshots = []

        def scorer(params):
            snapshots.append(params.copy())
            return next(scores)

        result = train(overfit_dataset(seed=3), config, tc, val_scorer=scorer)
        assert result.best_epoch == 1  # ties keep the earlier epoch
        for name in result.params.tensors:
            np.testing.assert_array_equal(
                result.params.tensors[name], snapshots[1].tensors[name]
            )
        assert [s.val_score for s in result.trace] == [0.2, 0.9, 0.9, 0.4]

    def test_refresh_targets_called_per_epoch(self):
        config = ModelConfig(in_channels=2, hidden_channels=(4,), kernel_size=3, seed=1)
        tc = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3, grad_clip_norm=0.1)
        calls = []
        items = overfit_dataset(seed=4)

        def refresh(epoch):
            calls.append(epoch)
            return items

        train(items, config, tc, refresh_targets=refresh)
        assert calls == [0, 1, 2]

    def test_diverged_loss_raises(self):
        # squared error against 1e200-scale targets overflows to inf
        config = ModelConfig(in_channels=1, hidden_channels=(4,), kernel_size=3, seed=0)
        tc = TrainConfig(epochs=5, batch_size=2, learning_rate=1e-3, grad_clip_norm=1.0)
        rng = np.random.default_rng(0)
        items = [(rng.normal(size=(1, 32)), rng.normal(size=(2, 32)) * 1e200) for _ in range(2)]
        with pytest.raises(DivergedLoss):
            train(items, config, tc)

    def test_items_of_unequal_length_rejected(self):
        config = ModelConfig(in_channels=2, hidden_channels=(4,), kernel_size=3)
        items = overfit_dataset(n=3) + overfit_dataset(n=1, steps=80)
        with pytest.raises(ShapeMismatch, match="item 3 has input shape \\(2, 80\\)"):
            train(items, config, TrainConfig(epochs=1, batch_size=8))

    def test_refreshed_targets_of_unequal_length_rejected(self):
        config = ModelConfig(in_channels=2, hidden_channels=(4,), kernel_size=3)
        items = overfit_dataset(n=4)
        cut = [(x, y[:, :32] if j == 2 else y) for j, (x, y) in enumerate(items)]

        def refresh(epoch):
            return items if epoch == 0 else cut

        with pytest.raises(ShapeMismatch, match="item 2 has .* target shape \\(2, 32\\)"):
            train(items, config, TrainConfig(epochs=2, batch_size=1), refresh_targets=refresh)

    def test_empty_dataset_rejected(self):
        config = ModelConfig(in_channels=1, hidden_channels=(2,))
        with pytest.raises(InvalidConfig):
            train([], config, TrainConfig())

    def test_train_config_validation(self):
        with pytest.raises(InvalidConfig):
            TrainConfig(epochs=0)
        with pytest.raises(InvalidConfig):
            TrainConfig(sigma_start=5.0)
        with pytest.raises(InvalidConfig):
            TrainConfig(sigma_start=1.0, sigma_end=4.0)


class TestCheckpoints:
    def test_roundtrip_exact(self, tmp_path):
        config = ModelConfig(in_channels=2, hidden_channels=(3, 5), kernel_size=3, seed=9)
        params = init_params(config)
        path = tmp_path / "model.ckpt"
        save_params(path, params)
        loaded = load_params(path)
        assert list(loaded.tensors) == list(params.tensors)
        for name in params.tensors:
            np.testing.assert_array_equal(loaded.tensors[name], params.tensors[name])

    def test_magic_header(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_params(path, Parameters({"w": np.zeros(3)}))
        assert path.read_bytes()[:4] == b"EVRG"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError):
            load_params(path)

    def test_every_cut_point_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_params(path, Parameters({"w": np.arange(4.0), "b": np.zeros((2, 1))}))
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ParseError) as err:
                load_params(path)
            # a binary checkpoint has no lines, so the message gives none
            assert not str(err.value).startswith("line")
            assert str(path) in str(err.value)

    def test_version_1_bytes_unchanged(self, tmp_path):
        config = ModelConfig(in_channels=2, hidden_channels=(3, 5), kernel_size=3, seed=9)
        path = tmp_path / "model.ckpt"
        save_params(path, init_params(config))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "5e0fbbd66eebc07852ff217f3d7728bd0cd3c13695e103c9fb13ce6f5b22c2cb"
        )

    def test_repeated_tensor_name_rejected(self, tmp_path):
        config = ModelConfig(in_channels=2, hidden_channels=(3,), kernel_size=3)
        path = tmp_path / "model.ckpt"
        save_params(path, Parameters({"head.b": np.ones(2)}))
        second_head_b = path.read_bytes()[10:]
        save_params(path, init_params(config))
        blob = path.read_bytes()
        (count,) = struct.unpack_from("<I", blob, 6)
        path.write_bytes(blob[:6] + struct.pack("<I", count + 1) + blob[10:] + second_head_b)
        with pytest.raises(ParseError, match="'head.b' appears twice"):
            load_params(path)

    def test_params_of_another_config_rejected(self):
        config = ModelConfig(in_channels=2, hidden_channels=(3,), kernel_size=3)
        other = ModelConfig(in_channels=2, hidden_channels=(4,), kernel_size=3)
        x = np.ones((1, 2, 16))
        with pytest.raises(ShapeMismatch, match="enc0.w"):
            forward(init_params(other), x, config)
        params = init_params(config)
        params = Parameters({k: v for k, v in params.tensors.items() if k != "head.b"})
        with pytest.raises(ShapeMismatch, match="head.b"):
            forward(params, x, config)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, tmp_path, value):
        # train never saves such parameters, so the file is corrupt
        path = tmp_path / "model.ckpt"
        save_params(path, Parameters({"w": np.arange(4.0), "b": np.array([0.0, value])}))
        with pytest.raises(ParseError, match="tensor 'b' holds NaN or Inf"):
            load_params(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_params(path, Parameters({"w": np.arange(4.0)}))
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x00")
        with pytest.raises(ParseError):
            load_params(path)
