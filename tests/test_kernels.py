"""Bit-exact oracles for the training-step kernels.

Each reference below is the straightforward formula the fast kernel
replaces; the kernels must reproduce it bit for bit, ties included.
"""

import numpy as np
import pytest

import chatterdetect as cd
from chatterdetect.defaults import RMSPROP_EPSILON, RMSPROP_RHO
from chatterdetect.model import (
    _RMSPROP_BLOCK, Conv1D, Dense, MaxPool1D, _rmsprop_scratch, _rmsprop_step,
)


def conv_forward_reference(x, w, b, k):
    """im2col through a strided window view, one GEMM, then the bias
    broadcast per position."""
    batch, length, c_in = x.shape
    patches = np.lib.stride_tricks.sliding_window_view(x, k, axis=1)
    patches = patches.reshape(batch, length - k + 1, c_in * k)
    y = patches @ w
    y += b
    return y, patches


def conv_backward_reference(dy, patches, w, x_shape, k):
    """(dw, db, dx): the weight GEMM over all positions, the bias sum, and
    col2im of the patch gradients, tap by tap."""
    batch, l_out, c_out = dy.shape
    c_in = x_shape[2]
    dw = patches.reshape(-1, c_in * k).T @ dy.reshape(-1, c_out)
    db = dy.sum(axis=(0, 1))
    dpatches = (dy @ w.T).reshape(batch, l_out, c_in, k)
    dx = np.zeros(x_shape, dtype=dy.dtype)
    for kk in range(k):
        dx[:, kk : kk + l_out, :] += dpatches[:, :, :, kk]
    return dw, db, dx


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
        dy[:, ::5] = -0.0  # a signed zero must reach its maximum as it is
        dx = pool.backward(dy, ctx)
        assert dx.shape == x.shape
        ref_dx = pool_backward_reference(dy, ref_argmax, x.shape, 4)
        assert np.array_equal(dx.view(np.uint32), ref_dx.view(np.uint32))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 2, 16, 17])
@pytest.mark.parametrize(
    "length,c_in,c_out,k", [(1024, 1, 16, 7), (253, 16, 32, 5)], ids=["conv1", "conv2"]
)
def test_conv_matches_im2col_reference(length, c_in, c_out, k, batch, dtype):
    rng = np.random.default_rng(length * 100 + batch)
    layer = Conv1D(c_in, c_out, k)
    layer.w = rng.uniform(-0.5, 0.5, (c_in * k, c_out)).astype(dtype)
    layer.b = rng.uniform(-0.1, 0.1, c_out).astype(dtype)
    x = rng.standard_normal((batch, length, c_in)).astype(dtype)
    ref_y, ref_patches = conv_forward_reference(x, layer.w, layer.b, k)
    assert np.array_equal(layer.forward(x), ref_y)

    dw = np.full(layer.w.shape, np.nan, dtype=dtype)
    db = np.full(c_out, np.nan, dtype=dtype)
    ctx = {"dw": dw, "db": db}
    y = layer.forward(x, ctx)
    assert y.dtype == dtype
    assert np.array_equal(y, ref_y)
    dy = rng.standard_normal(y.shape).astype(dtype)
    dx = layer.backward(dy, ctx)
    ref_dw, ref_db, ref_dx = conv_backward_reference(dy, ref_patches, layer.w, x.shape, k)
    # gradients land in the buffers the context supplied
    assert ctx["dw"] is dw and ctx["db"] is db
    assert np.array_equal(dw, ref_dw)
    assert np.array_equal(db, ref_db)
    assert np.array_equal(dx, ref_dx)

    ctx = {"skip_dx": True}
    layer.forward(x, ctx)
    assert layer.backward(dy, ctx) is None
    assert np.array_equal(ctx["dw"], ref_dw)


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
    cache *= RMSPROP_RHO
    cache += (1.0 - RMSPROP_RHO) * g * g
    p -= hp.learning_rate * g / (np.sqrt(cache) + RMSPROP_EPSILON)


@pytest.mark.parametrize("hp", [cd.Hyperparameters(), cd.Hyperparameters(learning_rate=3e-3)])
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


@pytest.mark.parametrize("p0", [0.5, 0.0])  # at 0 the update itself shows
def test_rmsprop_flush_at_its_edge_moves_no_weight(p0):
    # the first two entries decay just below tiny, and then a gradient
    # whose (1 - rho)*g*g is normal lands on them: the flushed cache drops
    # a subnormal term the unflushed one keeps, yet the weights agree
    cache = np.array([1.1e-39 / 0.9, 5e-39 / 0.9, 1e-39, 1e-6], dtype=np.float32)
    g = np.array([1e-18, 3e-18, 0.0, 1e-3], dtype=np.float32)
    hp = cd.Hyperparameters()
    p = np.full(4, p0, dtype=np.float32)
    ref_p, ref_cache = p.copy(), cache.copy()
    decayed = cache * np.float32(RMSPROP_RHO)
    flushed = np.where(decayed < np.finfo(np.float32).tiny, np.float32(0), decayed)
    _rmsprop_step(p, g, cache, _rmsprop_scratch(p), hp)
    rmsprop_reference(ref_p, g, ref_cache, hp)
    assert np.array_equal(p, ref_p)
    assert np.array_equal(cache, flushed + (1.0 - RMSPROP_RHO) * g * g)
    assert np.array_equal(cache != ref_cache, [True, True, True, False])
    assert cache[2] == 0 and 0 < ref_cache[2] < np.finfo(np.float32).tiny


def test_rmsprop_keeps_the_cache_out_of_subnormals():
    hp = cd.Hyperparameters()
    f32 = np.finfo(np.float32)
    tiny = f32.tiny
    seeded = np.array(
        [0.0, f32.smallest_subnormal, np.nextafter(tiny, 0), tiny, np.nextafter(tiny, 1),
         1.5 * tiny, 10 * tiny, 1e6 * tiny, 1e-30, 1e-20],
        dtype=np.float32,
    )
    n = _RMSPROP_BLOCK + 333  # two blocks, the second partial
    cache = np.resize(seeded, n)
    seeded_nonzero = cache > 0
    ref_cache = cache.copy()
    rng = np.random.default_rng(11)
    p = rng.standard_normal(n).astype(np.float32)
    ref_p = p.copy()
    g = np.zeros(n, dtype=np.float32)
    scratch = _rmsprop_scratch(p)
    got_gradient = np.zeros(n, dtype=bool)
    was_subnormal = np.zeros(n, dtype=bool)
    # 1e-20 decays by rho = 0.9 past tiny in about 400 steps
    for step in range(500):
        g[...] = 0.0
        if step % 25 == 0:
            # gradients from 1e-6 to 1 in magnitude, also on subnormal entries
            hit = rng.random(n) < 0.01
            g[hit] = rng.standard_normal(hit.sum()) * 10.0 ** rng.integers(-6, 1, hit.sum())
            got_gradient |= hit
        _rmsprop_step(p, g, cache, scratch, hp)
        rmsprop_reference(ref_p, g, ref_cache, hp)
        assert not np.any((cache > 0) & (cache < tiny)), step
        assert np.array_equal(p, ref_p), step
        ref_normal = ref_cache >= tiny
        assert np.array_equal(cache[ref_normal], ref_cache[ref_normal]), step
        assert not cache[~ref_normal].any(), step
        was_subnormal |= (ref_cache > 0) & (ref_cache < tiny)
    # every seeded value the gradients left alone went subnormal unflushed
    assert was_subnormal[seeded_nonzero & ~got_gradient].all()
