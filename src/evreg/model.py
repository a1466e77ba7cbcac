"""A small 1-D encoder-decoder (UNet-lite) in float64 numpy.

Forward, loss, and exact reverse-mode gradients are written by hand so the
whole training path is deterministic, dependency-free, and checkable
against finite differences.  The architecture per encoder level is
conv(same) -> ReLU -> maxpool(2); a conv+ReLU bottleneck; per decoder level
nearest upsample(2) -> concat skip -> conv -> ReLU; and a 1x1 conv head.
Regression heads are linear, the segmentation head applies a per-step
softmax over two classes.
"""

from __future__ import annotations

import ctypes
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    DivergedLoss,
    InvalidConfig,
    IoError,
    NonFiniteGradient,
    NonFiniteParameters,
    ParseError,
    ShapeMismatch,
)

OUT_MODES = ("regression_2ch", "regression_1ch", "segmentation_2class")

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8

# glibc's M_TOP_PAD: how much freed memory at the top of the heap stays mapped
_M_TOP_PAD = -2
_HEAP_TOP_PAD = 16 << 20


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description; seed fixes initialization and batch order."""

    in_channels: int
    hidden_channels: tuple[int, ...] = (16, 32, 64)
    kernel_size: int = 5
    out_mode: str = "regression_2ch"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "hidden_channels", tuple(int(h) for h in self.hidden_channels)
        )
        if self.in_channels < 1:
            raise InvalidConfig(f"in_channels={self.in_channels}, expected >= 1")
        if not self.hidden_channels or any(h < 1 for h in self.hidden_channels):
            raise InvalidConfig("hidden_channels must be a nonempty list of ints >= 1")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise InvalidConfig(f"kernel_size={self.kernel_size}, expected odd >= 1")
        if self.out_mode not in OUT_MODES:
            raise InvalidConfig(f"out_mode={self.out_mode!r}, expected one of {OUT_MODES}")
        if self.seed < 0:
            raise InvalidConfig(f"seed={self.seed}, expected >= 0")

    @property
    def levels(self) -> int:
        return len(self.hidden_channels)

    @property
    def out_channels(self) -> int:
        return 1 if self.out_mode == "regression_1ch" else 2

    @property
    def is_segmentation(self) -> bool:
        return self.out_mode == "segmentation_2class"


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; defaults follow the reference training recipe."""

    epochs: int = 20
    batch_size: int = 8
    learning_rate: float = 1e-3
    grad_clip_norm: float = 0.1
    sigma_start: float | None = None
    sigma_end: float | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidConfig("epochs and batch_size must be >= 1")
        if not (0 < self.learning_rate < math.inf and self.grad_clip_norm > 0):
            raise InvalidConfig(
                "learning_rate must be finite and positive, grad_clip_norm positive"
            )
        if (self.sigma_start is None) != (self.sigma_end is None):
            raise InvalidConfig("sigma_start and sigma_end must be set together")
        if self.sigma_start is not None and not (
            self.sigma_start >= self.sigma_end > 0
        ):
            raise InvalidConfig("need sigma_start >= sigma_end > 0")


class Parameters:
    """Named float64 tensors as views into one vector, flat, in layout order.

    layout (name -> shape) and tensors (name -> view) reject assignment.
    """

    def __init__(self, tensors: Mapping[str, np.ndarray]):
        flat = np.concatenate([np.empty(0), *(np.ravel(v) for v in tensors.values())])
        self._bind(flat, MappingProxyType({k: np.shape(v) for k, v in tensors.items()}))

    def __reduce__(self):
        # rebuilt from copied tensors, so a copy's views alias its own flat
        return Parameters, (dict(self.tensors),)

    def _bind(self, flat: np.ndarray, layout: Mapping[str, tuple[int, ...]]) -> "Parameters":
        self.flat, self.layout, views, pos = flat, layout, {}, 0
        for name, shape in layout.items():
            views[name] = flat[pos : pos + math.prod(shape)].reshape(shape)
            pos += views[name].size
        self.tensors = MappingProxyType(views)
        return self

    def copy(self) -> "Parameters":
        return self.from_vector(self.flat.copy())

    def zeros_like(self) -> "Parameters":
        return self.from_vector(np.zeros_like(self.flat))

    def to_vector(self) -> np.ndarray:
        return self.flat.copy()

    def from_vector(self, vec: np.ndarray) -> "Parameters":
        """New Parameters with this container's layout over a flat vector."""
        flat = np.ascontiguousarray(vec, dtype=np.float64)
        if flat.shape != self.flat.shape:
            raise ShapeMismatch(f"vector shape {flat.shape}, expected {self.flat.shape}")
        return Parameters.__new__(Parameters)._bind(flat, self.layout)

    @property
    def num_params(self) -> int:
        return self.flat.size

    def global_norm(self) -> float:
        # per-view sums in order: one sum over flat rounds differently
        return math.sqrt(sum(float(np.sum(v * v)) for v in self.tensors.values()))

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


def _layer_plan(config: ModelConfig) -> list[tuple[str, tuple[int, int, int]]]:
    """Names and (out_c, in_c, kernel) of every conv, in forward order."""
    k = config.kernel_size
    hidden = config.hidden_channels
    plan = []
    prev = config.in_channels
    for i, h in enumerate(hidden):
        plan.append((f"enc{i}", (h, prev, k)))
        prev = h
    plan.append(("bottleneck", (hidden[-1], hidden[-1], k)))
    for i in reversed(range(config.levels)):
        above = hidden[i + 1] if i + 1 < config.levels else hidden[-1]
        plan.append((f"dec{i}", (hidden[i], above + hidden[i], k)))
    plan.append(("head", (config.out_channels, hidden[0], 1)))
    return plan


def init_params(config: ModelConfig, rng: np.random.Generator | None = None) -> Parameters:
    """He-scaled normal weights, zero biases, drawn from the config seed."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    tensors: dict[str, np.ndarray] = {}
    for name, (out_c, in_c, k) in _layer_plan(config):
        scale = math.sqrt(2.0 / (in_c * k))
        tensors[f"{name}.w"] = rng.normal(0.0, scale, (out_c, in_c, k))
        tensors[f"{name}.b"] = np.zeros(out_c)
    return Parameters(tensors)


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every tensor the config's network reads, by parameter name."""
    return {
        f"{name}.{suffix}": shape if suffix == "w" else shape[:1]
        for name, shape in _layer_plan(config)
        for suffix in ("w", "b")
    }


# -- primitive layers (forward returns cache for the backward pass) ---------


def _conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    # one (out, in) @ (B, in, T) matmul per kernel tap
    k = w.shape[2]
    half = k // 2
    n, c, t = x.shape
    xp = x
    if half:
        xp = np.zeros((n, c, t + 2 * half), dtype=x.dtype)
        xp[:, :, half : half + t] = x
    out = w[:, :, 0] @ xp[:, :, :t]
    for j in range(1, k):
        out += w[:, :, j] @ xp[:, :, j : j + t]
    out += b[:, None]
    return out, (xp, w)


def _conv_backward(dout: np.ndarray, cache, input_grad: bool = True):
    """(dx, dw, db) of _conv_forward under dout; dx is None without input_grad."""
    xp, w = cache
    n, out, t = dout.shape
    # np.tensordot's GEMM per tap, with the (out, B*T) copy of dout and the
    # time-major (B, T + 2 half, in) copy of xp each made once per conv; one
    # series keeps the strided view, which BLAS reads as a transposed operand,
    # because a contiguous copy there moves the bits of dw
    dout_t = dout.transpose(1, 0, 2).reshape(out, n * t)
    xp_t = xp.transpose(0, 2, 1)
    if n > 1:
        xp_t = np.ascontiguousarray(xp_t)
    dw = np.empty_like(w)
    for j in range(w.shape[2]):
        dw[:, :, j] = np.dot(dout_t, xp_t[:, j : j + t].reshape(n * t, -1))
    db = dout.sum(axis=(0, 2))
    # the copy goes before dx allocates its own buffers, so that the peak
    # memory of a step does not grow
    del xp_t
    if not input_grad:
        return None, dw, db
    # dx is the same-padded conv of dout with the kernel flipped along its
    # taps and transposed in its channel axes
    w_t = np.ascontiguousarray(w[:, :, ::-1].transpose(1, 0, 2))
    dx, _ = _conv_forward(dout, w_t, np.zeros(w_t.shape[0]))
    return dx, dw, db


def _relu_forward(x: np.ndarray):
    mask = x > 0
    return x * mask, mask


def _relu_backward(dout: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return dout * mask


def _pool_forward(x: np.ndarray):
    first, second = x[:, :, 0::2], x[:, :, 1::2]
    # argmax's routing: ties and a NaN first element pick the first element
    to_first = (first >= second) | np.isnan(first)
    return np.where(to_first, first, second), to_first


def _pool_backward(dout: np.ndarray, to_first: np.ndarray) -> np.ndarray:
    dx = np.empty((*dout.shape[:2], 2 * dout.shape[2]))
    dx[:, :, 0::2] = np.where(to_first, dout, 0.0)
    dx[:, :, 1::2] = np.where(to_first, 0.0, dout)
    return dx


def _decoder_input(x: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """x upsampled 2x by repetition, stacked on skip along the channels."""
    n, c, t = x.shape
    cat = np.empty((n, c + skip.shape[1], 2 * t))
    cat[:, :c, 0::2] = x
    cat[:, :c, 1::2] = x
    cat[:, c:] = skip
    return cat


def _upsample_backward(dout: np.ndarray) -> np.ndarray:
    dx = dout[:, :, 0::2] + dout[:, :, 1::2]
    # a sum over the pair starts from 0.0, which turns -0.0 + -0.0 into 0.0
    dx += 0.0
    return dx


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


# -- forward / loss / gradients ----------------------------------------------


def _check_input(x: np.ndarray, config: ModelConfig) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeMismatch(f"x must be (batch, channels, steps), got {arr.shape}")
    if arr.shape[1] != config.in_channels:
        raise ShapeMismatch(
            f"x has {arr.shape[1]} channels, config expects {config.in_channels}"
        )
    if arr.shape[2] < 1:
        raise ShapeMismatch("x must contain at least one step")
    return arr


def _forward_impl(params: Parameters, x: np.ndarray, config: ModelConfig):
    """Run the network, recording every cache needed by the backward pass."""
    arr = _check_input(x, config)
    expected, shapes = _param_shapes(config), params.layout
    if shapes != expected:
        bad = next(n for n in [*expected, *shapes] if shapes.get(n) != expected.get(n))
        raise ShapeMismatch(
            f"parameter {bad!r} has shape {shapes.get(bad)}, the model config "
            f"expects {expected.get(bad)}"
        )
    if not params.all_finite():
        raise NonFiniteParameters("parameters contain NaN or Inf")
    t_in = arr.shape[2]
    block = 2**config.levels
    pad = (-t_in) % block
    h = np.pad(arr, ((0, 0), (0, 0), (0, pad)), mode="edge") if pad else arr

    p = params.tensors
    enc_caches = []
    skips = []
    for i in range(config.levels):
        z, conv_cache = _conv_forward(h, p[f"enc{i}.w"], p[f"enc{i}.b"])
        a, mask = _relu_forward(z)
        pooled, pool_cache = _pool_forward(a)
        enc_caches.append((conv_cache, mask, pool_cache))
        skips.append(a)
        h = pooled

    z, bott_cache = _conv_forward(h, p["bottleneck.w"], p["bottleneck.b"])
    cur, bott_mask = _relu_forward(z)

    dec_caches = []
    for i in reversed(range(config.levels)):
        cat = _decoder_input(cur, skips[i])
        z, conv_cache = _conv_forward(cat, p[f"dec{i}.w"], p[f"dec{i}.b"])
        up_channels = cur.shape[1]
        cur, mask = _relu_forward(z)
        dec_caches.append((i, up_channels, conv_cache, mask))

    logits_full, head_cache = _conv_forward(cur, p["head.w"], p["head.b"])
    logits = logits_full[:, :, :t_in]
    if config.is_segmentation:
        out = _softmax(logits)
    else:
        out = logits
    cache = {
        "enc": enc_caches,
        "bottleneck": (bott_cache, bott_mask),
        "dec": dec_caches,
        "head": head_cache,
        "t_in": t_in,
        "t_pad": logits_full.shape[2],
    }
    return out, cache


def forward(params: Parameters, x: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Batched forward pass: (B, in_channels, T) -> (B, out_channels, T)."""
    out, _ = _forward_impl(params, x, config)
    return out


def predict(params: Parameters, x: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Single-series convenience wrapper: (in_channels, T) -> (out_channels, T)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"x must be (channels, steps), got {arr.shape}")
    return forward(params, arr[None], config)[0]


def _backward_impl(params: Parameters, cache: dict, dlogits: np.ndarray, config: ModelConfig):
    """Push dL/dlogits back through the tape; returns the gradient container."""
    grads: dict[str, np.ndarray] = {}

    pad = cache["t_pad"] - cache["t_in"]
    if pad:
        dlogits_full = np.pad(dlogits, ((0, 0), (0, 0), (0, pad)))
    else:
        dlogits_full = dlogits
    dcur, grads["head.w"], grads["head.b"] = _conv_backward(
        dlogits_full, cache["head"]
    )

    dskips = [None] * config.levels
    for i, up_channels, conv_cache, mask in reversed(cache["dec"]):
        dz = _relu_backward(dcur, mask)
        dcat, grads[f"dec{i}.w"], grads[f"dec{i}.b"] = _conv_backward(dz, conv_cache)
        dup = dcat[:, :up_channels]
        dskips[i] = dcat[:, up_channels:]
        dcur = _upsample_backward(dup)

    bott_cache, bott_mask = cache["bottleneck"]
    dz = _relu_backward(dcur, bott_mask)
    dh, grads["bottleneck.w"], grads["bottleneck.b"] = _conv_backward(dz, bott_cache)

    for i in reversed(range(config.levels)):
        conv_cache, mask, pool_cache = cache["enc"][i]
        da = _pool_backward(dh, pool_cache) + dskips[i]
        dz = _relu_backward(da, mask)
        # the network input needs no gradient, so enc0 skips its dx
        dh, grads[f"enc{i}.w"], grads[f"enc{i}.b"] = _conv_backward(
            dz, conv_cache, input_grad=i > 0
        )

    return Parameters({name: grads[name] for name in params.tensors})


def _loss_and_dlogits(
    out: np.ndarray, y: np.ndarray, mode: str
) -> tuple[float, np.ndarray]:
    """The loss of head outputs against targets and its gradient dL/dlogits.

    MSE for regression modes, whose heads are linear.  Segmentation takes
    per-step class probabilities (B, 2, T) and integer labels (B, T) in
    {0, 1}; the softmax and cross-entropy gradients fold into
    (probabilities - onehot) / (B * T).
    """
    out = np.asarray(out, dtype=np.float64)
    if mode in ("regression_2ch", "regression_1ch"):
        target = np.asarray(y, dtype=np.float64)
        if out.shape != target.shape:
            raise ShapeMismatch(f"pred {out.shape} vs target {target.shape}")
        # overflow to inf is fine here: the training loop turns it into
        # DivergedLoss instead of warning
        with np.errstate(over="ignore"):
            diff = out - target
            return float(np.mean(diff * diff)), 2.0 * diff / out.size
    if mode != "segmentation_2class":
        raise InvalidConfig(f"unknown loss mode {mode!r}")
    labels = np.asarray(y)
    if out.ndim != 3 or out.shape[1] != 2 or labels.shape != (out.shape[0], out.shape[2]):
        raise ShapeMismatch(f"pred {out.shape} vs labels {labels.shape}")
    if not ((labels == 0) | (labels == 1)).all():
        raise ShapeMismatch("segmentation labels must all be 0 or 1")
    idx = labels.astype(np.int64)[:, None, :]
    picked = np.take_along_axis(out, idx, axis=1)[:, 0, :]
    onehot = np.zeros_like(out)
    np.put_along_axis(onehot, idx, 1.0, axis=1)
    dlogits = (out - onehot) / (out.shape[0] * out.shape[2])
    return float(-np.mean(np.log(picked))), dlogits


def loss(pred: np.ndarray, target: np.ndarray, mode: str) -> float:
    """MSE for regression modes; mean per-step cross-entropy for segmentation.

    Segmentation expects pred as per-step class probabilities (B, 2, T) and
    integer labels (B, T) in {0, 1}; any other label raises ShapeMismatch.
    """
    return _loss_and_dlogits(pred, target, mode)[0]


def _loss_and_gradients(
    params: Parameters, x: np.ndarray, y: np.ndarray, config: ModelConfig
) -> tuple[float, Parameters]:
    out, cache = _forward_impl(params, x, config)
    loss_value, dlogits = _loss_and_dlogits(out, y, config.out_mode)
    # overflow to inf or nan is fine here too: it ends as NonFiniteGradient
    # below instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        grads = _backward_impl(params, cache, dlogits, config)
    if not grads.all_finite():
        raise NonFiniteGradient("gradients contain NaN or Inf")
    return loss_value, grads


def gradients(
    params: Parameters, batch: tuple[np.ndarray, np.ndarray], config: ModelConfig
) -> Parameters:
    """Exact gradients of the scalar batch loss with respect to every tensor."""
    x, y = batch
    _, grads = _loss_and_gradients(params, np.asarray(x), y, config)
    return grads


# -- optimization ------------------------------------------------------------


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Cosine decay from base_lr (step 0) toward 0 at step == total_steps."""
    if total_steps < 1:
        raise InvalidConfig(f"total_steps={total_steps}, expected >= 1")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def clip_gradients(grads: Parameters, max_norm: float) -> tuple[Parameters, float]:
    """Global-norm clipping; returns (possibly rescaled grads, original norm)."""
    norm = grads.global_norm()
    if norm > max_norm and norm > 0:
        grads = grads.from_vector(grads.flat * (max_norm / norm))
    return grads, norm


@dataclass(frozen=True)
class EpochStats:
    """One epoch of training: the mean batch loss, the validation score, the
    mean and max pre-clip gradient norm, the share of steps whose gradients
    were clipped, and the learning rate of the epoch's last step."""

    epoch: int
    train_loss: float
    val_score: float | None
    grad_norm_mean: float
    grad_norm_max: float
    clip_rate: float
    lr: float


@dataclass
class TrainResult:
    params: Parameters
    best_epoch: int
    trace: list[EpochStats] = field(default_factory=list)


def _check_item_shapes(items: Sequence[tuple[np.ndarray, np.ndarray]]) -> None:
    """Batches stack items, so every input and every target needs one shape."""
    x0, y0 = np.shape(items[0][0]), np.shape(items[0][1])
    for j, (x, y) in enumerate(items):
        if (np.shape(x), np.shape(y)) != (x0, y0):
            raise ShapeMismatch(
                f"dataset item {j} has input shape {np.shape(x)} and target shape "
                f"{np.shape(y)}, item 0 has {x0} and {y0}"
            )


def _keep_freed_heap() -> None:
    """Ask glibc to keep freed memory at the top of the heap mapped.

    Without it glibc hands each step's freed activations back to the kernel
    and the next step faults the same pages in again.  The setting is
    process-wide.  It does nothing where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


def train(
    dataset: Sequence[tuple[np.ndarray, np.ndarray]],
    model_config: ModelConfig,
    train_config: TrainConfig,
    val_scorer: Callable[[Parameters], float] | None = None,
    refresh_targets: Callable[[int], Sequence[tuple[np.ndarray, np.ndarray]]] | None = None,
) -> TrainResult:
    """Adam + cosine decay + global-norm clipping, deterministic per seed.

    dataset items are (input (C, T), target) with a shared T; items of
    another shape raise ShapeMismatch before the first step.  val_scorer,
    when given, is evaluated on the running parameters after every epoch and
    the parameters of the best-scoring epoch are returned (ties keep the
    earlier epoch); without it the lowest-train-loss epoch wins.
    refresh_targets, when given, replaces the dataset at the start of each
    epoch (used for target schedules that vary over training).
    """
    items = list(dataset)
    if not items:
        raise InvalidConfig("dataset is empty")
    _check_item_shapes(items)
    _keep_freed_heap()
    rng = np.random.default_rng(model_config.seed)
    params = init_params(model_config, rng)
    m = v = np.zeros(params.num_params)  # Adam moments, replaced every step

    n = len(items)
    batch = train_config.batch_size
    n_batches = (n + batch - 1) // batch
    total_steps = train_config.epochs * n_batches
    step = 0

    best_params = params.copy()
    best_epoch = 0
    best_key: tuple | None = None
    trace: list[EpochStats] = []

    for epoch in range(train_config.epochs):
        if refresh_targets is not None:
            items = list(refresh_targets(epoch))
            if len(items) != n:
                raise InvalidConfig("refresh_targets changed the dataset size")
            _check_item_shapes(items)
        order = rng.permutation(n)
        epoch_losses = []
        norms = []
        for bi in range(n_batches):
            sel = order[bi * batch : (bi + 1) * batch]
            x = np.stack([np.asarray(items[j][0], dtype=np.float64) for j in sel])
            y = np.stack([np.asarray(items[j][1]) for j in sel])
            loss_value, grads = _loss_and_gradients(params, x, y, model_config)
            if not np.isfinite(loss_value):
                raise DivergedLoss(f"loss {loss_value} at epoch {epoch}, batch {bi}")
            clipped, norm = clip_gradients(grads, train_config.grad_clip_norm)
            g = clipped.flat
            lr = cosine_lr(step, total_steps, train_config.learning_rate)
            step += 1
            b1c = 1.0 - _ADAM_BETA1**step
            b2c = 1.0 - _ADAM_BETA2**step
            m = _ADAM_BETA1 * m + (1 - _ADAM_BETA1) * g
            v = _ADAM_BETA2 * v + (1 - _ADAM_BETA2) * (g * g)
            params.flat -= lr * (m / b1c) / (np.sqrt(v / b2c) + _ADAM_EPS)
            epoch_losses.append(loss_value)
            norms.append(norm)

        train_loss = float(np.mean(epoch_losses))
        val_score = val_scorer(params) if val_scorer is not None else None
        clip_rate = sum(nm > train_config.grad_clip_norm for nm in norms) / len(norms)
        trace.append(EpochStats(
            epoch, train_loss, val_score, float(np.mean(norms)), max(norms), clip_rate, lr
        ))
        # maximize validation score when available, else minimize train loss
        key = (-val_score,) if val_score is not None else (train_loss,)
        if best_key is None or key < best_key:
            best_key = key
            best_epoch = epoch
            best_params = params.copy()

    return TrainResult(params=best_params, best_epoch=best_epoch, trace=trace)


# -- checkpoints -------------------------------------------------------------

_MAGIC = b"EVRG"
_VERSION = 1


def save_params(path: str | Path, params: Parameters) -> None:
    """Binary checkpoint: magic, u16 version, then named little-endian tensors."""
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<HI", _VERSION, len(params.tensors))
    for name, tensor in params.tensors.items():
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack(f"<B{tensor.ndim}I", tensor.ndim, *tensor.shape)
        blob += np.ascontiguousarray(tensor, dtype="<f8").tobytes()
    try:
        Path(path).write_bytes(bytes(blob))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_params(path: str | Path) -> Parameters:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if blob[:4] != _MAGIC:
        raise ParseError(f"{path}: not a parameter checkpoint (bad magic)")
    try:
        version, count = struct.unpack_from("<HI", blob, 4)
        if version != _VERSION:
            raise ParseError(f"{path}: unsupported checkpoint version {version}")
        pos = 10
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            name = blob[pos : pos + name_len].decode("utf-8")
            pos += name_len
            (ndim,) = struct.unpack_from("<B", blob, pos)
            pos += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, pos)
            pos += 4 * ndim
            if name in tensors:
                raise ParseError(f"{path}: tensor {name!r} appears twice in the checkpoint")
            size = math.prod(shape)
            data = np.frombuffer(blob, dtype="<f8", count=size, offset=pos)
            if not np.isfinite(data).all():
                raise ParseError(f"{path}: tensor {name!r} holds NaN or Inf")
            pos += 8 * size
            tensors[name] = data.astype(np.float64).reshape(shape)
    except (struct.error, ValueError, OverflowError) as exc:
        # a cut-off file runs out of bytes mid-record, a corrupt name is not
        # UTF-8, and a corrupt shape can ask for more elements than fit in memory
        raise ParseError(f"{path}: truncated or corrupt checkpoint: {exc}") from exc
    if pos != len(blob):
        raise ParseError(f"{path}: trailing bytes in checkpoint")
    return Parameters(tensors)
