"""`train` against a plain reference trainer, bit for bit.

The reference is the straightforward loop: a fresh context per layer and
step, gradients returned by each layer, and RMSprop applied tensor by
tensor with a per-tensor cache. `train` shares one context list across
steps, writes gradients into one flat vector and updates every tensor in
one flat pass; none of that may change a single bit of the result.
"""

import numpy as np
import pytest

import chatterdetect as cd
from chatterdetect.dataset import Split
from chatterdetect.model import Dropout, EpochStats


def reference_forward(model, x, training=False, ctxs=None):
    a = np.ascontiguousarray(x, dtype=model.dtype).reshape(x.shape[0], model.n_inputs, 1)
    a = a * a.dtype.type(-1.0 / model.input_floor_db)
    for i, layer in enumerate(model.layers):
        a = layer.forward(a, None if ctxs is None else ctxs[i], training=training, rng=model.rng)
    z = a - a.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def reference_eval(model, x, y, batch=512):
    total_loss, correct = 0.0, 0
    for start in range(0, len(y), batch):
        probs = reference_forward(model, x[start : start + batch])
        p_true = probs[np.arange(len(probs)), y[start : start + batch]]
        total_loss += float(-np.log(np.maximum(p_true, 1e-12)).sum())
        correct += int((probs.argmax(axis=1) == y[start : start + batch]).sum())
    return total_loss / len(y), correct / len(y)


def reference_train(model, ds, hp, caches):
    """The plain loop; `caches` maps (layer, name) to the RMSprop cache
    and persists across calls like the model's own cache."""
    x_train, y_train = ds.split_arrays(Split.TRAIN)
    x_val, y_val = ds.split_arrays(Split.VAL)
    for layer in model.layers:
        if isinstance(layer, Dropout):
            layer.rate = hp.dropout_rate
    params = model.parameters()
    for i, name, p in params:
        caches.setdefault((i, name), np.zeros_like(p))

    shuffle_rng = np.random.default_rng(hp.rng_seed)
    best_acc, best_params = -1.0, None
    n = len(y_train)
    for epoch in range(1, hp.epochs + 1):
        order = shuffle_rng.permutation(n)
        epoch_loss, epoch_correct = 0.0, 0
        for start in range(0, n, hp.batch_size):
            idx = order[start : start + hp.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            ctxs = [{} for _ in model.layers]
            probs = reference_forward(model, xb, training=True, ctxs=ctxs)

            rows = np.arange(len(yb))
            p_true = probs[rows, yb]
            epoch_loss += float(-np.log(np.maximum(p_true, 1e-12)).sum())
            epoch_correct += int((probs.argmax(axis=1) == yb).sum())

            grad = probs.copy()
            grad[rows, yb] -= 1.0
            grad /= len(yb)
            for layer, ctx in zip(reversed(model.layers), reversed(ctxs)):
                grad = layer.backward(grad, ctx)

            for i, name, p in params:
                g = ctxs[i]["d" + name]
                cache = caches[(i, name)]
                cache *= hp.rho
                cache += (1.0 - hp.rho) * g * g
                p -= hp.learning_rate * g / (np.sqrt(cache) + hp.epsilon)

        val_loss, val_acc = reference_eval(model, x_val, y_val)
        model.training_log.append(
            EpochStats(epoch, epoch_loss / n, epoch_correct / n, val_loss, val_acc)
        )
        if val_acc > best_acc:
            best_acc = val_acc
            best_params = [p.copy() for _, _, p in params]

    if best_params is not None:
        for (_, _, p), saved in zip(params, best_params):
            p[...] = saved
    return model


def assert_same(model, ref):
    assert [vars(s) for s in model.training_log] == [vars(s) for s in ref.training_log]
    for (_, _, p), (_, _, q) in zip(model.parameters(), ref.parameters()):
        assert np.array_equal(p, q)


@pytest.fixture
def trained_pair(small_dataset):
    """(train()-ed model, reference-trained model, reference caches)."""
    hp = cd.Hyperparameters(epochs=2, rng_seed=17)
    model, ref, caches = cd.build_model(17), cd.build_model(17), {}
    cd.train(model, small_dataset, hp)
    reference_train(ref, small_dataset, hp, caches)
    return model, ref, caches


def test_train_matches_reference(trained_pair):
    model, ref, _ = trained_pair
    assert len(model.training_log) == 2
    assert_same(model, ref)


def test_second_call_carries_the_cache_over(trained_pair, small_dataset):
    model, ref, caches = trained_pair
    # an odd batch size leaves a partial last batch
    hp = cd.Hyperparameters(epochs=1, batch_size=3, rng_seed=18)
    cd.train(model, small_dataset, hp)
    reference_train(ref, small_dataset, hp, caches)
    assert_same(model, ref)
    flat_cache = np.concatenate([caches[(i, n)].ravel() for i, n, _ in ref.parameters()])
    assert np.array_equal(model.rms_cache, flat_cache)


def test_reloaded_model_predicts_like_reference(trained_pair, small_dataset, tmp_path):
    model, ref, _ = trained_pair
    path = tmp_path / "m.chmd"
    cd.save_model(model, path)
    back = cd.load_model(path)
    x, _ = small_dataset.split_arrays(Split.TEST)
    assert np.array_equal(cd.predict_batch(back, x), reference_forward(ref, x))
