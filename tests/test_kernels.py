"""Bit-exact oracles for the training-step kernels.

Each reference below is the straightforward formula the fast kernel
replaces; the kernels must reproduce it bit for bit, ties included.
"""

import numpy as np
import pytest

import chatterdetect as cd
from chatterdetect.model import Dense, MaxPool1D, _rmsprop_scratch, _rmsprop_step


def pool_forward_reference(x, width):
    """(max, argmax) over non-overlapping windows, partial window dropped."""
    batch, length, channels = x.shape
    l_out = length // width
    xt = x[:, : l_out * width, :].reshape(batch, l_out, width, channels)
    return xt.max(axis=2), xt.argmax(axis=2)


def pool_backward_reference(dy, argmax, x_shape, width):
    """Scatter each output gradient onto its window's first maximum."""
    batch, length, channels = x_shape
    l_out = length // width
    dxt = np.zeros((batch, l_out, width, channels), dtype=dy.dtype)
    np.put_along_axis(dxt, argmax[:, :, None, :], dy[:, :, None, :], axis=2)
    dx = np.zeros(x_shape, dtype=dy.dtype)
    dx[:, : l_out * width, :] = dxt.reshape(batch, l_out * width, channels)
    return dx


def tied_activations(rng, shape):
    """Post-ReLU-like values on a coarse grid: most windows hold ties,
    many of them all zeros."""
    return np.maximum(rng.integers(-4, 4, shape), 0).astype(np.float32) * np.float32(0.25)


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("length,channels", [(1018, 16), (245, 32)])
def test_maxpool_matches_argmax_reference(batch, length, channels):
    rng = np.random.default_rng(length + batch)
    pool = MaxPool1D(4)
    for x in (
        tied_activations(rng, (batch, length, channels)),
        rng.standard_normal((batch, length, channels)).astype(np.float32),
    ):
        ref_y, ref_argmax = pool_forward_reference(x, 4)
        assert np.array_equal(pool.forward(x), ref_y)

        ctx = {}
        y = pool.forward(x, ctx)
        assert np.array_equal(y, ref_y)
        one_hot = np.arange(4)[None, None, :, None] == ref_argmax[:, :, None, :]
        assert np.array_equal(ctx["mask"], one_hot)

        dy = rng.standard_normal(y.shape).astype(np.float32)
        dx = pool.backward(dy, ctx)
        assert dx.shape == x.shape
        assert np.array_equal(dx, pool_backward_reference(dy, ref_argmax, x.shape, 4))


@pytest.mark.parametrize("n_in,n_out", [(1984, 128), (128, 64), (64, 3)])
@pytest.mark.parametrize("batch", [1, 2, 3])
def test_dense_backward_matches_reference(n_in, n_out, batch):
    rng = np.random.default_rng(n_in * 10 + batch)
    layer = Dense(n_in, n_out)
    layer.w = rng.standard_normal((n_in, n_out)).astype(np.float32)
    layer.b = np.zeros(n_out, dtype=np.float32)
    x = rng.standard_normal((batch, n_in)).astype(np.float32)
    dy = rng.standard_normal((batch, n_out)).astype(np.float32)

    dw = np.full((n_in, n_out), np.nan, dtype=np.float32)
    db = np.full(n_out, np.nan, dtype=np.float32)
    ctx = {"dw": dw, "db": db}
    layer.forward(x, ctx)
    dx = layer.backward(dy, ctx)
    assert np.array_equal(dx, dy @ layer.w.T)
    # gradients land in the buffers the context supplied
    assert ctx["dw"] is dw and ctx["db"] is db
    assert np.array_equal(dw, x.T @ dy)
    assert np.array_equal(db, dy.sum(axis=0))


def rmsprop_reference(p, g, cache, hp):
    """Per-tensor RMSprop update, in place on p and cache."""
    cache *= hp.rho
    cache += (1.0 - hp.rho) * g * g
    p -= hp.learning_rate * g / (np.sqrt(cache) + hp.epsilon)


@pytest.mark.parametrize(
    "hp",
    [cd.Hyperparameters(), cd.Hyperparameters(learning_rate=3e-3, rho=0.95, epsilon=1e-6)],
)
def test_flat_rmsprop_matches_per_tensor_update(hp):
    rng = np.random.default_rng(5)
    model = cd.build_model(5)
    flat = model.flat
    grads = np.empty_like(flat)
    cache = np.zeros_like(flat)
    scratch = _rmsprop_scratch(flat)
    ref_params = [p.copy() for _, _, p in model.parameters()]
    ref_caches = [np.zeros_like(p) for p in ref_params]
    sizes = np.cumsum([p.size for p in ref_params])[:-1]
    for step in range(5):
        # gradients spanning several decades, some exactly zero
        grads[...] = rng.standard_normal(flat.size) * 10.0 ** rng.integers(-8, 1, flat.size)
        grads[rng.random(flat.size) < 0.1] = 0.0
        _rmsprop_step(flat, grads, cache, scratch, hp)
        for p, c, g in zip(ref_params, ref_caches, np.split(grads, sizes)):
            rmsprop_reference(p, g.reshape(p.shape), c, hp)
        for (_, _, p), ref in zip(model.parameters(), ref_params):
            assert np.array_equal(p, ref), step
        assert np.array_equal(cache, np.concatenate([c.ravel() for c in ref_caches]))
