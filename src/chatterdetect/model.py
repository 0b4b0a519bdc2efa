"""From-scratch 1D conv-net classifier over renormalized spectra.

Architecture: conv(k7, 16ch) -> relu -> maxpool4 -> conv(k5, 32ch) ->
relu -> maxpool4 -> flatten -> dense 128 -> relu -> dropout -> dense 64
-> relu -> dense 3 -> softmax. Trained with RMSprop on categorical
cross-entropy; weights are float32, and gradient verification runs on a
float64 copy.

All weights live in one flat vector, ``ClassifierModel.flat``, in the
order ``parameters()`` lists them; each layer's ``w`` and ``b`` are views
into it. The model file's weight section is that vector's bytes, and an
RMSprop step is one in-place pass over it, a flat gradient vector and a
flat cache.

Layers keep no per-call state: callers that need backprop pass a context
dict per layer, so inference on a shared model is safe from any number
of threads. A ``train`` call makes one list of contexts and reuses it for
every step; the contexts of weighted layers hold views into that call's
flat gradient vector, which their backward passes overwrite in place.

Inference uses that: it runs the layers up to flatten on blocks of
frames dealt over the CPUs the process may use by `cpus.deal`, each
block writing its own rows of one feature array. The dense layers then
run once over all rows on the calling thread, as the rows of a BLAS
matrix product can round differently with the number of rows; so the
probabilities keep their bits whatever the thread count.
"""

from __future__ import annotations

import json
import logging
import math
import struct
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import cpus, defaults
from .dataset import LabeledDataset, Split
from .errors import (
    CorruptModel, EmptyDataset, FeatureMismatch, MissingClass, NonFiniteSamples,
    TrainingDiverged, WrongInputLength, read_bytes, write_bytes, write_lines,
)
from .signal_io import CLASS_ORDER, MachiningClass
from .spectral import SpectralConfig

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Hyperparameters:
    """Training knobs; the defaults are the published values."""

    batch_size: int = defaults.BATCH_SIZE
    learning_rate: float = defaults.LEARNING_RATE
    epochs: int = defaults.EPOCHS
    dropout_rate: float = defaults.DROPOUT_RATE
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "epochs", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and non-negative")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError("dropout_rate must lie in [0, 1)")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


class Layer:
    """A layer kind: ``params`` name the layer's weight tensors and
    ``shapes`` give their shapes."""

    params = shapes = ()


class Conv1D(Layer):
    """Valid (no padding), stride-1 convolution over (batch, length, channels).

    A context holding ``skip_dx`` makes backward return None instead of the
    input gradient: the first layer's is never read."""

    params = ("w", "b")

    def __init__(self, c_in: int, c_out: int, k: int):
        self.c_in, self.c_out, self.k = c_in, c_out, k
        self.shapes = ((c_in * k, c_out), (c_out,))

    def forward(self, x, ctx=None, **_):
        batch, length, _ = x.shape
        l_out = length - self.k + 1
        # (batch, l_out, c_in, k) patches from k copies that each read x
        # contiguously, flattened (a view) to match the weight rows
        patches = np.empty((batch, l_out, self.c_in, self.k), dtype=x.dtype)
        for kk in range(self.k):
            patches[:, :, :, kk] = x[:, kk : kk + l_out, :]
        patches = patches.reshape(batch, l_out, self.c_in * self.k)
        if ctx is not None:
            ctx["patches"] = patches
            ctx["x_shape"] = x.shape
        y = patches @ self.w
        # the bias repeated for every position: one long inner loop per
        # frame, not one c_out-wide loop per position
        y += self.b[None].repeat(l_out, 0)
        return y

    def backward(self, dy, ctx):
        patches = ctx["patches"]
        batch, l_out, _ = dy.shape
        ctx["dw"] = np.matmul(
            patches.reshape(-1, patches.shape[-1]).T, dy.reshape(-1, self.c_out),
            out=ctx.get("dw"),
        )
        ctx["db"] = np.sum(dy, axis=(0, 1), out=ctx.get("db"))
        if ctx.get("skip_dx"):
            return None
        dpatches = (dy @ self.w.T).reshape(batch, l_out, self.c_in, self.k)
        dx = np.zeros(ctx["x_shape"], dtype=dy.dtype)
        for kk in range(self.k):
            dx[:, kk : kk + l_out, :] += dpatches[:, :, :, kk]
        return dx


class ReLU(Layer):
    def forward(self, x, ctx=None, **_):
        if ctx is not None:
            ctx["mask"] = x > 0
        return np.maximum(x, 0)

    def backward(self, dy, ctx):
        return dy * ctx["mask"]


class MaxPool1D(Layer):
    """Non-overlapping max pooling over windows at least two wide; a
    trailing partial window is dropped.

    Training records a mask of the first maximum in each window (argmax's
    tie rule), so the gradient reaches exactly one input per output."""

    def __init__(self, width: int):
        self.width = width

    def forward(self, x, ctx=None, **_):
        batch, length, channels = x.shape
        l_out = length // self.width
        xt = x[:, : l_out * self.width, :].reshape(batch, l_out, self.width, channels)
        y = np.maximum(xt[:, :, 0, :], xt[:, :, 1, :])
        for k in range(2, self.width):
            np.maximum(y, xt[:, :, k, :], out=y)
        if ctx is not None:
            mask = xt == y[:, :, None, :]
            seen = mask[:, :, 0, :]
            for k in range(1, self.width):
                # for booleans a > b is a and not b: drop maxima after the first
                np.greater(mask[:, :, k, :], seen, out=mask[:, :, k, :])
                if k + 1 < self.width:
                    seen = seen | mask[:, :, k, :]
            ctx["mask"] = mask
            ctx["x_shape"] = x.shape
        return y

    def backward(self, dy, ctx):
        mask = ctx["mask"]
        batch, l_out, width, channels = mask.shape
        dx = np.empty(ctx["x_shape"], dtype=dy.dtype)
        # the mask times each gradient's bits: those bits where it is set,
        # -0.0 included, and +0.0 elsewhere, in one pass with no branch
        bits = f"u{dy.itemsize}"
        np.multiply(mask, dy.view(bits)[:, :, None, :],
                    out=dx.view(bits)[:, : l_out * width, :].reshape(mask.shape))
        dx[:, l_out * width :, :] = 0
        return dx


class Flatten(Layer):
    def forward(self, x, ctx=None, **_):
        if ctx is not None:
            ctx["x_shape"] = x.shape
        # sizes, not -1, so that a batch of zero frames flattens too
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))

    def backward(self, dy, ctx):
        return dy.reshape(ctx["x_shape"])


class Dense(Layer):
    params = ("w", "b")

    def __init__(self, n_in: int, n_out: int):
        self.n_in, self.n_out = n_in, n_out
        self.shapes = ((n_in, n_out), (n_out,))

    def forward(self, x, ctx=None, **_):
        if ctx is not None:
            ctx["x"] = x
        y = x @ self.w
        y += self.b
        return y

    def backward(self, dy, ctx):
        ctx["dw"] = np.matmul(ctx["x"].T, dy, out=ctx.get("dw"))
        ctx["db"] = np.sum(dy, axis=0, out=ctx.get("db"))
        # bit-equal to dy @ w.T, and the faster GEMM orientation for small batches
        return (self.w @ dy.T).T


class Dropout(Layer):
    """Inverted dropout: kept activations are rescaled at train time, so
    inference needs no adjustment and stays deterministic."""

    def __init__(self, rate: float):
        self.rate = rate

    def forward(self, x, ctx=None, *, training=False, rng=None):
        if not training or self.rate == 0.0:
            if ctx is not None:
                ctx["mask"] = None
            return x
        keep = (rng.random(x.shape) >= self.rate).astype(x.dtype)
        mask = keep * x.dtype.type(1.0 / (1.0 - self.rate))
        if ctx is not None:
            ctx["mask"] = mask
        return x * mask

    def backward(self, dy, ctx):
        mask = ctx["mask"]
        return dy if mask is None else dy * mask


class ClassifierModel:
    """Layer stack plus everything needed to train it reproducibly.
    `config` is the framing of the frames the model takes."""

    def __init__(self, layers, seed: int, config: SpectralConfig = SpectralConfig(), flat=None):
        """Binds every layer's parameters to views into `flat` (zeros of
        float32 if None), which must hold exactly that many values."""
        self.layers = layers
        self.seed = seed
        self.config = config
        self.training_log: list[EpochStats] = []
        self.rng = np.random.default_rng(seed)
        if flat is None:
            flat = np.zeros(_parameter_total(layers), dtype=np.float32)
        self.flat = flat
        for i, name, view in _parameter_views(layers, flat):
            setattr(layers[i], name, view)
        # RMSprop's running mean square, parallel to `flat`; made by train
        self.rms_cache: np.ndarray | None = None

    @property
    def n_inputs(self) -> int:
        return self.config.n_lines

    @property
    def input_floor_db(self) -> float:
        return -self.config.crop_db

    @property
    def dropout_rate(self) -> float:
        return next(layer.rate for layer in self.layers if isinstance(layer, Dropout))

    @property
    def dtype(self):
        return self.flat.dtype

    def parameters(self):
        """[(layer_index, name, array)] in a fixed, serialization-stable order."""
        return _parameter_views(self.layers, self.flat)

    def parameter_count(self) -> int:
        return self.flat.size


def _parameter_total(layers) -> int:
    return sum(math.prod(shape) for layer in layers for shape in layer.shapes)


def _parameter_views(layers, vec):
    """[(layer_index, name, view)]: consecutive slices of the flat vector
    `vec`, shaped like each layer's parameters, in `parameters()` order."""
    out, pos = [], 0
    for i, layer in enumerate(layers):
        for name, shape in zip(layer.params, layer.shapes):
            size = math.prod(shape)
            out.append((i, name, vec[pos : pos + size].reshape(shape)))
            pos += size
    return out


# `_network`'s layers up to flatten: they map each frame on its own, and
# dense1, the first of the rest, takes their output.
_CONV_STAGE = 7


def _network(n_inputs: int, dropout_rate: float) -> list[Layer]:
    """The classifier's layers over `n_inputs` spectral lines: the one place
    that decides layer kinds and sizes."""
    length = ((n_inputs - 7 + 1) // 4 - 5 + 1) // 4  # after both conv + pool stages
    if not 0 <= dropout_rate < 1:
        raise ValueError(f"dropout rate {dropout_rate} outside [0, 1)")
    if length < 1:
        raise ValueError(f"{n_inputs} input lines are too few for the network")
    return [
        Conv1D(1, 16, 7), ReLU(), MaxPool1D(4),
        Conv1D(16, 32, 5), ReLU(), MaxPool1D(4),
        Flatten(),
        Dense(length * 32, 128), ReLU(), Dropout(dropout_rate),
        Dense(128, 64), ReLU(),
        Dense(64, len(CLASS_ORDER)),
    ]


def build_model(seed: int, config: SpectralConfig = SpectralConfig()) -> ClassifierModel:
    """He-uniform initialized network for frames made with `config`, from a
    seed; biases start at zero. `train` sets the dropout rate from its
    hyperparameters."""
    rng = np.random.default_rng(seed)

    def he_uniform(shape, fan_in):
        limit = np.sqrt(6.0 / fan_in)
        return rng.uniform(-limit, limit, size=shape).astype(np.float32)

    try:
        layers = _network(config.n_lines, defaults.DROPOUT_RATE)
    except ValueError as exc:
        raise FeatureMismatch(str(exc)) from None
    model = ClassifierModel(layers, seed, config)
    for layer in model.layers:
        if "w" in layer.params:
            # a weight matrix's rows are its fan-in: c_in * k, or n_in
            layer.w[...] = he_uniform(layer.w.shape, layer.w.shape[0])
    model.rng = rng  # dropout continues the init stream
    return model


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _condition(model: ClassifierModel, x):
    """(n, n_inputs) dB lines as the (n, n_inputs, 1) network input: in the
    model's dtype, scaled onto [-1, 0] so fresh logits stay moderate."""
    a = np.ascontiguousarray(x, dtype=model.dtype).reshape(x.shape[0], model.n_inputs, 1)
    return a * a.dtype.type(-1.0 / model.input_floor_db)


def _forward_batch(model: ClassifierModel, x, ctxs, training=False):
    """Softmax outputs of the whole batch `x`, recording into one context
    per layer what backward needs: the path of training and its checks."""
    a = _condition(model, x)
    for layer, ctx in zip(model.layers, ctxs):
        a = layer.forward(a, ctx, training=training, rng=model.rng)
    return _softmax(a)


# Inference runs the layers up to flatten on blocks of this many frames.
# One frame's activations from conv1 to pool2 take about 300 KB at the
# defaults, so a whole batch of hundreds of frames makes every layer
# stream its input and output through memory, while a block's stay in
# cache. Those layers map each frame on its own, so neither the block size
# nor the thread a block runs on changes a bit; the dense layers, whose
# GEMM rows depend on the row count, still see the whole batch on one
# thread. For 546 frames on a 2-vCPU Xeon with one BLAS thread, blocks of
# 8, 16, 32 and 64 took about 31, 29, 29 and 47 ms with the blocks on both
# CPUs, and 40, 44, 49 and 84 ms on one.
_INFER_BLOCK = 16


def _inference(model: ClassifierModel, x):
    """Softmax outputs for the (n, n_inputs) frames `x`, without dropout."""
    conv, dense = model.layers[:_CONV_STAGE], model.layers[_CONV_STAGE:]
    a = np.empty((len(x), dense[0].n_in), dtype=model.dtype)

    def run(lo):
        block = _condition(model, x[lo : lo + _INFER_BLOCK])
        for layer in conv:
            block = layer.forward(block)
        a[lo : lo + len(block)] = block

    # a block peaks at relu1, which holds conv1's output and its own
    block_bytes = _INFER_BLOCK * 2 * model.n_inputs * conv[0].c_out * model.dtype.itemsize
    cpus.deal(run, range(0, len(x), _INFER_BLOCK), block_bytes)
    for layer in dense:
        a = layer.forward(a)
    return _softmax(a)


def predict_batch(model: ClassifierModel, lines_matrix) -> np.ndarray:
    """Probabilities for a (n, n_inputs) batch; deterministic (no dropout).
    A NaN or infinite line, also one that overflows the model's dtype,
    raises NonFiniteSamples naming the first such row."""
    x = np.asarray(lines_matrix)
    if x.ndim != 2 or x.shape[1] != model.n_inputs:
        raise WrongInputLength(
            f"expected (n, {model.n_inputs}) inputs, got {x.shape}"
        )
    if x.dtype != model.dtype:
        with np.errstate(over="ignore"):  # an overflow becomes inf, rejected below
            x = x.astype(model.dtype)
    finite = np.isfinite(x)
    if not finite.all():
        row = int(finite.all(axis=1).argmin())
        raise NonFiniteSamples(f"frame {row} holds a NaN or infinite line")
    return _inference(model, x)


def _cross_entropy(probs, y):
    """(summed cross-entropy, number correct) of softmax outputs against labels."""
    p_true = probs[np.arange(len(y)), y]
    loss = float(-np.log(np.maximum(p_true, 1e-12)).sum())
    return loss, int((probs.argmax(axis=1) == y).sum())


def _backward(layers, probs, y, ctxs) -> None:
    """Backpropagate the batch-mean cross-entropy through `layers` into their
    forward contexts `ctxs`; overwrites the softmax output `probs`."""
    grad = probs
    grad[np.arange(len(y)), y] -= 1.0
    grad /= len(y)
    for layer, ctx in zip(reversed(layers), reversed(ctxs)):
        grad = layer.backward(grad, ctx)


def check_config(model: ClassifierModel, config: SpectralConfig) -> None:
    """Raise FeatureMismatch unless frames made with `config` fit `model`:
    all but the hop, which only spaces the frames, must be the model's."""
    wrong = [f"{name} {value!r} (model: {getattr(model.config, name)!r})"
             for name, value in asdict(config).items()
             if name != "hop_s" and value != getattr(model.config, name)]
    if wrong:
        raise FeatureMismatch("frames do not fit the model: " + ", ".join(wrong))


# Validation scores the frames in chunks of this many.
_EVAL_BATCH = 512


def _eval_arrays(model, x, y):
    total_loss, correct = 0.0, 0
    for start in range(0, len(y), _EVAL_BATCH):
        probs = _inference(model, x[start : start + _EVAL_BATCH])
        batch_loss, batch_correct = _cross_entropy(probs, y[start : start + _EVAL_BATCH])
        total_loss += batch_loss
        correct += batch_correct
    return total_loss / len(y), correct / len(y)


def train(
    model: ClassifierModel, ds: LabeledDataset, hp: Hyperparameters = Hyperparameters()
) -> ClassifierModel:
    """RMSprop training; returns the model carrying the weights of the epoch
    with the best validation accuracy (earliest on ties), which it logs."""
    check_config(model, ds.config)
    x_train, y_train = ds.split_arrays(Split.TRAIN)
    x_val, y_val = ds.split_arrays(Split.VAL)
    if len(y_train) == 0 or len(y_val) == 0:
        raise EmptyDataset("training requires non-empty Train and Val splits")
    missing = {int(c) for c in CLASS_ORDER} - set(np.unique(y_train).tolist())
    if missing:
        names = ", ".join(MachiningClass(c).token for c in sorted(missing))
        raise MissingClass(f"class(es) absent from the training split: {names}")

    # the layer carries the rate into the model file
    for layer in model.layers:
        if isinstance(layer, Dropout):
            layer.rate = hp.dropout_rate

    flat = model.flat
    cache = model.rms_cache
    if cache is None or cache.shape != flat.shape or cache.dtype != flat.dtype:
        model.rms_cache = cache = np.zeros_like(flat)
    grads = np.zeros_like(flat)
    scratch = _rmsprop_scratch(flat)
    # one context per layer for the whole call; backward fills `grads`
    ctxs = [{} for _ in model.layers]
    for i, name, view in _parameter_views(model.layers, grads):
        ctxs[i]["d" + name] = view
    ctxs[0]["skip_dx"] = True

    shuffle_rng = np.random.default_rng(hp.rng_seed)
    best_acc, best_epoch, best_params = -1.0, 0, None
    n = len(y_train)
    for epoch in range(1, hp.epochs + 1):
        started = time.perf_counter()
        order = shuffle_rng.permutation(n)
        epoch_loss, epoch_correct = 0.0, 0
        for start in range(0, n, hp.batch_size):
            idx = order[start : start + hp.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            probs = _forward_batch(model, xb, ctxs, training=True)
            batch_loss, batch_correct = _cross_entropy(probs, yb)
            epoch_loss += batch_loss
            epoch_correct += batch_correct
            _backward(model.layers, probs, yb, ctxs)
            _rmsprop_step(flat, grads, cache, scratch, hp)

        val_loss, val_acc = _eval_arrays(model, x_val, y_val)
        if not (math.isfinite(epoch_loss) and math.isfinite(val_loss)):
            raise TrainingDiverged(
                f"epoch {epoch}: train loss {epoch_loss / n}, val loss {val_loss}"
            )
        model.training_log.append(
            EpochStats(epoch, epoch_loss / n, epoch_correct / n, val_loss, val_acc)
        )
        seconds = time.perf_counter() - started
        log.info("epoch %d/%d: train loss %.4f acc %.4f, val loss %.4f acc %.4f, %.2f s, "
                 "%.0f frames/s", epoch, hp.epochs, epoch_loss / n, epoch_correct / n,
                 val_loss, val_acc, seconds, n / seconds)
        if val_acc > best_acc:
            best_acc, best_epoch = val_acc, epoch
            best_params = flat.copy()

    if best_params is not None:
        flat[...] = best_params
        log.info("kept epoch %d: val acc %.4f", best_epoch, best_acc)
    return model


# RMSprop walks the flat vectors in blocks of this many values, so that
# the six arrays it touches stay in a core's L2 cache (about 1.4 MB per
# block) across its eleven elementwise passes, instead of each pass
# streaming all of them from L3 or memory.
_RMSPROP_BLOCK = 1 << 16


def _rmsprop_scratch(p):
    """The three work arrays `_rmsprop_step` needs for parameters like `p`."""
    block = min(p.size, _RMSPROP_BLOCK)
    return np.empty(block, p.dtype), np.empty(block, p.dtype), np.empty(block, bool)


def _rmsprop_step(p, g, cache, scratch, hp: Hyperparameters) -> None:
    """In place: cache = rho*cache + (1-rho)*g*g; p -= lr*g / (sqrt(cache) + eps).

    Each operation is a separate rounding in the dtype of `p`, in the order
    of the per-tensor expressions above evaluated left to right, so the
    update is bit-identical to them but for the one step below. `scratch`
    comes from `_rmsprop_scratch`.

    One step is added: right after the decay, cache values below the
    dtype's smallest normal number `tiny` are set to 0, as entries whose
    gradient stays zero would decay into subnormals, on which x86
    multiplies and square roots run many times slower. The parameters do
    not change, as eps is fixed at 1e-7: in float32 sqrt(tiny), about
    1.1e-19, adds nothing to it in sqrt(cache) + eps, and a flushed entry
    could differ later only under a gradient with |g| below about 1e-15."""
    tiny = np.finfo(p.dtype).tiny
    for lo in range(0, p.size, _RMSPROP_BLOCK):
        hi = min(lo + _RMSPROP_BLOCK, p.size)
        pb, gb, cb = p[lo:hi], g[lo:hi], cache[lo:hi]
        tmp, denom, normal = (s[: hi - lo] for s in scratch)
        cb *= defaults.RMSPROP_RHO
        np.greater_equal(cb, tiny, out=normal)
        cb *= normal
        np.multiply(gb, 1.0 - defaults.RMSPROP_RHO, out=tmp)
        tmp *= gb
        cb += tmp
        np.multiply(gb, hp.learning_rate, out=tmp)
        np.sqrt(cb, out=denom)
        denom += defaults.RMSPROP_EPSILON
        tmp /= denom
        pb -= tmp


def gradient_check(
    model: ClassifierModel,
    lines,
    label: MachiningClass,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Runs on a float64 copy with dropout disabled, probing by +-1e-3;
    samples at least 200 parameters spread across every weight and bias
    tensor, and `seed` picks which.

    A ReLU/maxpool kink inside the +-step interval makes the central
    difference meaningless for any implementation, so parameters whose
    activation pattern flips between the two evaluations are resampled
    (a genuinely wrong gradient still fails at every smooth point). If a
    tensor cannot supply enough kink-free points the kinked measurements
    are kept, so a degenerate input yields a finite (if large) error
    rather than a silent pass.
    """
    m = ClassifierModel(_network(model.n_inputs, model.dropout_rate), model.seed,
                        model.config, model.flat.astype(np.float64))
    step = 1e-3
    x = np.asarray(lines, dtype=np.float64).reshape(1, -1)
    if x.shape[1] != m.n_inputs:
        raise WrongInputLength(f"expected {m.n_inputs} values, got {x.shape[1]}")
    y = int(label)

    ctxs = [{} for _ in m.layers]
    probs = _forward_batch(m, x, ctxs)
    _backward(m.layers, probs, np.array([y]), ctxs)
    analytic = {(i, name): ctxs[i]["d" + name] for i, name, _ in m.parameters()}

    def probe(tensor, j, offset):
        original = tensor.flat[j]
        tensor.flat[j] = original + offset
        ctxs = [{} for _ in m.layers]
        p = _forward_batch(m, x, ctxs)
        tensor.flat[j] = original
        # the ReLU masks and pool argmax choices (dropout's is None here): two
        # evaluations with equal ones lie on one smooth piece of the network
        signature = [ctx["mask"] for ctx in ctxs if ctx.get("mask") is not None]
        # unclipped cross-entropy: matches the analytic gradient exactly and
        # stays finite in float64 (softmax output never underflows here)
        return -np.log(float(p[0, y])), signature

    rng = np.random.default_rng(seed)
    tensors = m.parameters()
    quota = max(1, int(np.ceil(200 / len(tensors))))
    worst = 0.0
    for i, name, p in tensors:
        order = rng.permutation(p.size)
        kinked = []
        smooth_checked = 0
        for j in order:
            if smooth_checked >= quota:
                break
            up, up_sig = probe(p, j, +step)
            down, down_sig = probe(p, j, -step)
            numeric = (up - down) / (2.0 * step)
            exact = analytic[(i, name)].flat[j]
            rel = abs(exact - numeric) / max(abs(exact) + abs(numeric), 1e-8)
            if all(np.array_equal(a, b) for a, b in zip(up_sig, down_sig)):
                worst = max(worst, rel)
                smooth_checked += 1
            else:
                kinked.append(rel)
        if smooth_checked == 0 and kinked:
            # every candidate sat on a kink (degenerate input); report the
            # kinked measurements rather than silently passing the tensor
            worst = max(worst, max(kinked))
    return worst


MODEL_MAGIC = b"CHMD"
MODEL_VERSION = 3
# magic, version, the JSON header's length in bytes
_PREFIX = struct.Struct("<4sII")
_HEADER_KEYS = {"classes", "seed", *asdict(SpectralConfig()), "dropout_rate"}


def save_model(model: ClassifierModel, path) -> None:
    """A version 3 file: the prefix, a JSON header of `_HEADER_KEYS` padded with
    spaces to a multiple of 8 bytes, then the weights as little-endian f32."""
    header = json.dumps({"classes": len(CLASS_ORDER), "seed": int(model.seed),
                         **asdict(model.config), "dropout_rate": float(model.dropout_rate)})
    header += " " * (-(_PREFIX.size + len(header)) % 8)
    write_bytes(path, _PREFIX.pack(MODEL_MAGIC, MODEL_VERSION, len(header)), header.encode(),
                np.ascontiguousarray(model.flat, dtype="<f4"))


def load_model(path) -> ClassifierModel:
    """Reads a version 3 model file. It must hold the network `build_model`
    makes for a valid spectral config, with any dropout rate in [0, 1)."""
    blob = read_bytes(path)
    try:
        magic, version, size = _PREFIX.unpack_from(blob)
        if magic != MODEL_MAGIC:
            raise CorruptModel(f"bad magic {magic!r}")
        if version != MODEL_VERSION:
            raise CorruptModel(f"unsupported version {version}")
    except struct.error as exc:
        raise CorruptModel(f"truncated model file: {exc}") from exc
    pos = _PREFIX.size + size
    if pos > len(blob):
        raise CorruptModel("model file ends inside its header")
    # the header is one flat object; json would build each level of a nested one
    if blob.count(b"{", _PREFIX.size, pos) + blob.count(b"[", _PREFIX.size, pos) > 1:
        raise CorruptModel("model header holds nested brackets")
    # require the network before allocating: its sizes bound the weights
    try:
        header = json.loads(blob[_PREFIX.size : pos].decode())
        if header.keys() != _HEADER_KEYS:  # SpectralConfig would default a missing field
            raise ValueError(f"keys {sorted(header)} are not the model's")
        n_classes, seed, rate = map(header.pop, ("classes", "seed", "dropout_rate"))
        config = SpectralConfig(**header)
        layers = _network(config.n_lines, rate)
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:  # float(10**400)
        raise CorruptModel(f"model header: {exc}") from None
    if type(seed) is not int or seed < 0:  # a bool is no seed either
        raise CorruptModel(f"seed {seed!r} is not a non-negative integer")
    if n_classes != len(CLASS_ORDER):
        raise CorruptModel(f"{n_classes!r} classes, expected {len(CLASS_ORDER)}")
    n_weights = _parameter_total(layers)
    if pos + 4 * n_weights > len(blob):
        raise CorruptModel("model file ends before all weights are read")
    if pos + 4 * n_weights != len(blob):
        raise CorruptModel(f"{len(blob) - pos - 4 * n_weights} trailing bytes after the weights")
    weights = np.frombuffer(blob, dtype="<f4", count=n_weights, offset=pos)
    # unlike isfinite, min and max need no array as large as the weights
    if not (np.isfinite(weights.min()) and np.isfinite(weights.max())):
        raise CorruptModel("a weight is NaN or infinite")
    return ClassifierModel(layers, seed, config, weights.astype(np.float32))


def save_training_log(log: list[EpochStats], path) -> None:
    lines = ["epoch,train_loss,train_acc,val_loss,val_acc"]
    for s in log:
        lines.append(
            f"{s.epoch},{s.train_loss:.8g},{s.train_acc:.8g},{s.val_loss:.8g},{s.val_acc:.8g}"
        )
    write_lines(path, lines)
