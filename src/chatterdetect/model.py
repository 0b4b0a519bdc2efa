"""From-scratch 1D conv-net classifier over renormalized spectra.

Architecture: conv(k7, 16ch) -> relu -> maxpool4 -> conv(k5, 32ch) ->
relu -> maxpool4 -> flatten -> dense 128 -> relu -> dropout -> dense 64
-> relu -> dense 3 -> softmax. Trained with RMSprop on categorical
cross-entropy; weights are float32, and gradient verification runs on a
float64 clone.

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
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import defaults
from .dataset import LabeledDataset, Split
from .errors import CorruptModel, EmptyDataset, IoFailure, MissingClass, WrongInputLength
from .signal_io import CLASS_ORDER, MachiningClass


@dataclass(frozen=True)
class Hyperparameters:
    """Training knobs; the defaults are the published values."""

    batch_size: int = defaults.BATCH_SIZE
    learning_rate: float = defaults.LEARNING_RATE
    epochs: int = defaults.EPOCHS
    dropout_rate: float = defaults.DROPOUT_RATE
    rho: float = defaults.RMSPROP_RHO
    epsilon: float = defaults.RMSPROP_EPSILON
    rng_seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError("learning_rate must be finite and non-negative")
        if not 0 <= self.dropout_rate < 1:
            raise ValueError("dropout_rate must lie in [0, 1)")


@dataclass(frozen=True)
class Prediction:
    probabilities: np.ndarray  # 3 values, non-negative, summing to 1
    predicted: MachiningClass


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


class Conv1D:
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
        # (batch, l_out, c_in, k) view, flattened to match the weight rows
        patches = np.lib.stride_tricks.sliding_window_view(x, self.k, axis=1)
        patches = patches.reshape(batch, l_out, self.c_in * self.k)
        if ctx is not None:
            ctx["patches"] = patches
            ctx["x_shape"] = x.shape
        y = patches @ self.w
        y += self.b
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


class ReLU:
    params = shapes = ()

    def forward(self, x, ctx=None, **_):
        if ctx is not None:
            ctx["mask"] = x > 0
        return np.maximum(x, 0)

    def backward(self, dy, ctx):
        return dy * ctx["mask"]


class MaxPool1D:
    """Non-overlapping max pooling; a trailing partial window is dropped.

    Training records a mask of the first maximum in each window (argmax's
    tie rule), so the gradient reaches exactly one input per output."""

    params = shapes = ()

    def __init__(self, width: int):
        self.width = width

    def forward(self, x, ctx=None, **_):
        batch, length, channels = x.shape
        l_out = length // self.width
        xt = x[:, : l_out * self.width, :].reshape(batch, l_out, self.width, channels)
        y = xt[:, :, 0, :].copy()
        for k in range(1, self.width):
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
        dx = np.zeros(ctx["x_shape"], dtype=dy.dtype)
        np.copyto(dx[:, : l_out * width, :].reshape(mask.shape), dy[:, :, None, :], where=mask)
        return dx


class Flatten:
    params = shapes = ()

    def forward(self, x, ctx=None, **_):
        if ctx is not None:
            ctx["x_shape"] = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy, ctx):
        return dy.reshape(ctx["x_shape"])


class Dense:
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


class Dropout:
    """Inverted dropout: kept activations are rescaled at train time, so
    inference needs no adjustment and stays deterministic."""

    params = shapes = ()

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
    """Layer stack plus everything needed to train it reproducibly."""

    def __init__(
        self, layers, seed: int, input_floor_db: float = -defaults.CROP_DB, flat=None
    ):
        """Binds every layer's parameters to views into `flat` (zeros of
        float32 if None), which must hold exactly that many values."""
        self.layers = layers
        self.seed = seed
        self.n_inputs = defaults.N_LINES
        self.n_classes = defaults.N_CLASSES
        self.input_floor_db = input_floor_db
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
    def dtype(self):
        return self.flat.dtype

    def parameters(self):
        """[(layer_index, name, array)] in a fixed, serialization-stable order."""
        out = []
        for i, layer in enumerate(self.layers):
            for name in layer.params:
                out.append((i, name, getattr(layer, name)))
        return out

    def parameter_count(self) -> int:
        return self.flat.size

    def clone(self, dtype=None) -> "ClassifierModel":
        """Structural copy; optionally casts the weights (float64 for checks)."""
        layers = []
        for layer in self.layers:
            if isinstance(layer, Conv1D):
                copy = Conv1D(layer.c_in, layer.c_out, layer.k)
            elif isinstance(layer, Dense):
                copy = Dense(layer.n_in, layer.n_out)
            elif isinstance(layer, MaxPool1D):
                copy = MaxPool1D(layer.width)
            elif isinstance(layer, Dropout):
                copy = Dropout(layer.rate)
            elif isinstance(layer, ReLU):
                copy = ReLU()
            else:
                copy = Flatten()
            layers.append(copy)
        flat = self.flat.astype(dtype or self.flat.dtype)
        return ClassifierModel(layers, self.seed, self.input_floor_db, flat)


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


def build_model(seed: int, dropout_rate: float = defaults.DROPOUT_RATE) -> ClassifierModel:
    """He-uniform initialized network from a seed; biases start at zero."""
    rng = np.random.default_rng(seed)

    def he_uniform(shape, fan_in):
        limit = np.sqrt(6.0 / fan_in)
        return rng.uniform(-limit, limit, size=shape).astype(np.float32)

    length = ((defaults.N_LINES - 7 + 1) // 4 - 5 + 1) // 4
    layers = [
        Conv1D(1, 16, 7), ReLU(), MaxPool1D(4),
        Conv1D(16, 32, 5), ReLU(), MaxPool1D(4),
        Flatten(),
        Dense(length * 32, 128), ReLU(), Dropout(dropout_rate),
        Dense(128, 64), ReLU(),
        Dense(64, defaults.N_CLASSES),
    ]
    model = ClassifierModel(layers, seed)
    for layer in layers:
        if "w" in layer.params:
            # a weight matrix's rows are its fan-in: c_in * k, or n_in
            layer.w[...] = he_uniform(layer.w.shape, layer.w.shape[0])
    model.rng = rng  # dropout continues the init stream
    return model


def _softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _forward_batch(model: ClassifierModel, x, training=False, ctxs=None):
    a = np.ascontiguousarray(x, dtype=model.dtype).reshape(x.shape[0], model.n_inputs, 1)
    # condition the dB lines onto [-1, 0] so fresh logits stay moderate
    a = a * a.dtype.type(-1.0 / model.input_floor_db)
    for i, layer in enumerate(model.layers):
        ctx = None if ctxs is None else ctxs[i]
        a = layer.forward(a, ctx, training=training, rng=model.rng)
    return _softmax(a)


def predict_batch(model: ClassifierModel, lines_matrix) -> np.ndarray:
    """Probabilities for a (n, n_inputs) batch; deterministic (no dropout)."""
    x = np.asarray(lines_matrix)
    if x.ndim != 2 or x.shape[1] != model.n_inputs:
        raise WrongInputLength(
            f"expected (n, {model.n_inputs}) inputs, got {x.shape}"
        )
    return _forward_batch(model, x, training=False)


def forward(
    model: ClassifierModel, lines, training: bool = False, strict: bool = False
) -> Prediction:
    """Classify one frame. With training=True, dropout draws from the model rng."""
    x = np.asarray(lines, dtype=np.float32).reshape(-1)
    if x.size != model.n_inputs:
        raise WrongInputLength(f"expected {model.n_inputs} values, got {x.size}")
    if strict and (x.min() < model.input_floor_db - 1e-6 or x.max() > 1e-6):
        warnings.warn(
            f"input lines outside [{model.input_floor_db:g}, 0] dB", stacklevel=2
        )
    probs = _forward_batch(model, x.reshape(1, -1), training=training)[0]
    return Prediction(probs, MachiningClass(int(np.argmax(probs))))


def loss(probabilities, label: MachiningClass) -> float:
    """Categorical cross-entropy for one prediction."""
    p = float(np.asarray(probabilities)[int(label)])
    return -float(np.log(max(p, 1e-12)))


def _eval_arrays(model, x, y, batch=512):
    total_loss, correct = 0.0, 0
    for start in range(0, len(y), batch):
        probs = _forward_batch(model, x[start : start + batch], training=False)
        p_true = probs[np.arange(len(probs)), y[start : start + batch]]
        total_loss += float(-np.log(np.maximum(p_true, 1e-12)).sum())
        correct += int((probs.argmax(axis=1) == y[start : start + batch]).sum())
    return total_loss / len(y), correct / len(y)


def train(
    model: ClassifierModel, ds: LabeledDataset, hp: Hyperparameters = Hyperparameters()
) -> ClassifierModel:
    """RMSprop training; returns the model carrying the weights of the epoch
    with the best validation accuracy (earliest on ties)."""
    x_train, y_train = ds.split_arrays(Split.TRAIN)
    x_val, y_val = ds.split_arrays(Split.VAL)
    if len(y_train) == 0 or len(y_val) == 0:
        raise EmptyDataset("training requires non-empty Train and Val splits")
    missing = {int(c) for c in CLASS_ORDER} - set(np.unique(y_train).tolist())
    if missing:
        names = ", ".join(MachiningClass(c).token for c in sorted(missing))
        raise MissingClass(f"class(es) absent from the training split: {names}")

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
    best_acc, best_params = -1.0, None
    n = len(y_train)
    for epoch in range(1, hp.epochs + 1):
        order = shuffle_rng.permutation(n)
        epoch_loss, epoch_correct = 0.0, 0
        for start in range(0, n, hp.batch_size):
            idx = order[start : start + hp.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            probs = _forward_batch(model, xb, training=True, ctxs=ctxs)

            rows = np.arange(len(yb))
            p_true = probs[rows, yb]
            epoch_loss += float(-np.log(np.maximum(p_true, 1e-12)).sum())
            epoch_correct += int((probs.argmax(axis=1) == yb).sum())

            grad = probs  # the softmax output is not read again
            grad[rows, yb] -= 1.0
            grad /= len(yb)  # mean gradient over the batch
            for layer, ctx in zip(reversed(model.layers), reversed(ctxs)):
                grad = layer.backward(grad, ctx)
            _rmsprop_step(flat, grads, cache, scratch, hp)

        val_loss, val_acc = _eval_arrays(model, x_val, y_val)
        model.training_log.append(
            EpochStats(epoch, epoch_loss / n, epoch_correct / n, val_loss, val_acc)
        )
        if val_acc > best_acc:
            best_acc = val_acc
            best_params = flat.copy()

    if best_params is not None:
        flat[...] = best_params
    return model


# RMSprop walks the flat vectors in blocks of this many values, so that
# the five arrays it touches stay in a core's L2 cache (about 1.3 MB of
# float32 per block) across its nine elementwise passes, instead of each
# pass streaming all of them from L3 or memory.
_RMSPROP_BLOCK = 1 << 16


def _rmsprop_scratch(p):
    """The two work arrays `_rmsprop_step` needs for parameters like `p`."""
    block = min(p.size, _RMSPROP_BLOCK)
    return np.empty(block, p.dtype), np.empty(block, p.dtype)


def _rmsprop_step(p, g, cache, scratch, hp: Hyperparameters) -> None:
    """In place: cache = rho*cache + (1-rho)*g*g; p -= lr*g / (sqrt(cache) + eps).

    Each operation is a separate rounding in the dtype of `p`, in the order
    of the per-tensor expressions above evaluated left to right, so the
    update is bit-identical to them. `scratch` comes from
    `_rmsprop_scratch`."""
    for lo in range(0, p.size, _RMSPROP_BLOCK):
        hi = min(lo + _RMSPROP_BLOCK, p.size)
        pb, gb, cb = p[lo:hi], g[lo:hi], cache[lo:hi]
        tmp, denom = scratch[0][: hi - lo], scratch[1][: hi - lo]
        cb *= hp.rho
        np.multiply(gb, 1.0 - hp.rho, out=tmp)
        tmp *= gb
        cb += tmp
        np.multiply(gb, hp.learning_rate, out=tmp)
        np.sqrt(cb, out=denom)
        denom += hp.epsilon
        tmp /= denom
        pb -= tmp


def _activation_signature(model, x):
    """Forward pass recording the ReLU masks and pool argmax choices.

    Two evaluations with identical signatures lie on the same smooth piece
    of the network, so a central difference between them is meaningful.
    """
    ctxs = [{} for _ in model.layers]
    probs = _forward_batch(model, x, training=False, ctxs=ctxs)
    signature = []
    for layer, ctx in zip(model.layers, ctxs):
        if isinstance(layer, (ReLU, MaxPool1D)):
            signature.append(ctx["mask"])
    return probs, signature


def gradient_check(
    model: ClassifierModel,
    lines,
    label: MachiningClass,
    step: float = 1e-3,
    n_params: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Runs on a float64 clone with dropout disabled; samples at least
    n_params parameters spread across every weight and bias tensor.

    A ReLU/maxpool kink inside the +-step interval makes the central
    difference meaningless for any implementation, so parameters whose
    activation pattern flips between the two evaluations are resampled
    (a genuinely wrong gradient still fails at every smooth point). If a
    tensor cannot supply enough kink-free points the kinked measurements
    are kept, so a degenerate input yields a finite (if large) error
    rather than a silent pass.
    """
    m = model.clone(np.float64)
    x = np.asarray(lines, dtype=np.float64).reshape(1, -1)
    if x.shape[1] != m.n_inputs:
        raise WrongInputLength(f"expected {m.n_inputs} values, got {x.shape[1]}")
    y = int(label)

    ctxs = [{} for _ in m.layers]
    probs = _forward_batch(m, x, training=False, ctxs=ctxs)
    grad = probs.copy()
    grad[0, y] -= 1.0
    for layer, ctx in zip(reversed(m.layers), reversed(ctxs)):
        grad = layer.backward(grad, ctx)
    analytic = {(i, name): ctxs[i]["d" + name] for i, name, _ in m.parameters()}

    def probe(tensor, j, offset):
        original = tensor.flat[j]
        tensor.flat[j] = original + offset
        # unclipped cross-entropy: matches the analytic gradient exactly and
        # stays finite in float64 (softmax output never underflows here)
        p, signature = _activation_signature(m, x)
        tensor.flat[j] = original
        return -np.log(float(p[0, y])), signature

    rng = np.random.default_rng(seed)
    tensors = m.parameters()
    quota = max(1, int(np.ceil(n_params / len(tensors))))
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
MODEL_VERSION = 1

_LAYER_CONV, _LAYER_RELU, _LAYER_POOL, _LAYER_FLATTEN, _LAYER_DENSE, _LAYER_DROPOUT = (
    1, 2, 3, 4, 5, 6,
)


def save_model(model: ClassifierModel, path) -> None:
    parts = [
        struct.pack(
            "<4sIIIqf",
            MODEL_MAGIC,
            MODEL_VERSION,
            model.n_inputs,
            model.n_classes,
            model.seed,
            model.input_floor_db,
        ),
        struct.pack("<I", len(model.layers)),
    ]
    for layer in model.layers:
        if isinstance(layer, Conv1D):
            parts.append(struct.pack("<BIII", _LAYER_CONV, layer.c_in, layer.c_out, layer.k))
        elif isinstance(layer, ReLU):
            parts.append(struct.pack("<B", _LAYER_RELU))
        elif isinstance(layer, MaxPool1D):
            parts.append(struct.pack("<BI", _LAYER_POOL, layer.width))
        elif isinstance(layer, Flatten):
            parts.append(struct.pack("<B", _LAYER_FLATTEN))
        elif isinstance(layer, Dense):
            parts.append(struct.pack("<BII", _LAYER_DENSE, layer.n_in, layer.n_out))
        elif isinstance(layer, Dropout):
            parts.append(struct.pack("<Bf", _LAYER_DROPOUT, layer.rate))
        else:
            raise CorruptModel(f"unserializable layer {type(layer).__name__}")
    parts.append(np.ascontiguousarray(model.flat, dtype="<f4").tobytes())
    try:
        Path(path).write_bytes(b"".join(parts))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def load_model(path) -> ClassifierModel:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    try:
        magic, version, n_inputs, n_classes, seed, floor = struct.unpack_from(
            "<4sIIIqf", blob
        )
        pos = struct.calcsize("<4sIIIqf")
        if magic != MODEL_MAGIC:
            raise CorruptModel(f"bad magic {magic!r}")
        if version != MODEL_VERSION:
            raise CorruptModel(f"unsupported version {version}")
        (n_layers,) = struct.unpack_from("<I", blob, pos)
        pos += 4

        layers = []
        for _ in range(n_layers):
            (code,) = struct.unpack_from("<B", blob, pos)
            pos += 1
            if code == _LAYER_CONV:
                c_in, c_out, k = struct.unpack_from("<III", blob, pos)
                pos += 12
                layers.append(Conv1D(c_in, c_out, k))
            elif code == _LAYER_RELU:
                layers.append(ReLU())
            elif code == _LAYER_POOL:
                (width,) = struct.unpack_from("<I", blob, pos)
                pos += 4
                layers.append(MaxPool1D(width))
            elif code == _LAYER_FLATTEN:
                layers.append(Flatten())
            elif code == _LAYER_DENSE:
                n_in, n_out = struct.unpack_from("<II", blob, pos)
                pos += 8
                layers.append(Dense(n_in, n_out))
            elif code == _LAYER_DROPOUT:
                (rate,) = struct.unpack_from("<f", blob, pos)
                pos += 4
                layers.append(Dropout(float(rate)))
            else:
                raise CorruptModel(f"unknown layer code {code}")
    except struct.error as exc:
        raise CorruptModel(f"truncated model file: {exc}") from exc

    # layers hold only their dimensions so far: check them against each
    # other and the file length before allocating any weights
    _validate_chain(layers, n_inputs, n_classes)
    n_weights = _parameter_total(layers)
    if pos + 4 * n_weights > len(blob):
        raise CorruptModel("model file ends before all weights are read")
    if pos + 4 * n_weights != len(blob):
        raise CorruptModel(f"{len(blob) - pos - 4 * n_weights} trailing bytes after the weights")
    flat = np.frombuffer(blob, dtype="<f4", count=n_weights, offset=pos).astype(np.float32)
    model = ClassifierModel(layers, seed, input_floor_db=float(floor), flat=flat)
    model.n_inputs, model.n_classes = n_inputs, n_classes
    return model


def _validate_chain(layers, n_inputs, n_classes):
    length, channels, flat = n_inputs, 1, None
    for layer in layers:
        if isinstance(layer, Conv1D):
            if flat is not None or channels != layer.c_in or not 1 <= layer.k <= length:
                raise CorruptModel("convolution does not chain from its input shape")
            length, channels = length - layer.k + 1, layer.c_out
        elif isinstance(layer, MaxPool1D):
            if flat is not None or not 1 <= layer.width <= length:
                raise CorruptModel("pooling does not chain from its input shape")
            length //= layer.width
        elif isinstance(layer, Flatten):
            flat = length * channels
        elif isinstance(layer, Dense):
            if flat is None or layer.n_in != flat:
                raise CorruptModel("dense layer does not chain from its input shape")
            flat = layer.n_out
    if flat != n_classes:
        raise CorruptModel(f"network ends with {flat} outputs, expected {n_classes}")


def save_training_log(log: list[EpochStats], path) -> None:
    lines = ["epoch,train_loss,train_acc,val_loss,val_acc"]
    for s in log:
        lines.append(
            f"{s.epoch},{s.train_loss:.8g},{s.train_acc:.8g},{s.val_loss:.8g},{s.val_acc:.8g}"
        )
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
