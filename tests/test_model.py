import logging
import math
import struct
import tracemalloc

import numpy as np
import pytest

import chatterdetect as cd
from chatterdetect.dataset import Split
from chatterdetect.errors import (
    CorruptModel, EmptyDataset, MissingClass, TrainingDiverged, WrongInputLength,
)
from chatterdetect.model import (
    MODEL_MAGIC,
    MODEL_VERSION,
    ClassifierModel,
    Conv1D,
    Dense,
    Flatten,
    MaxPool1D,
    _cross_entropy,
    _network,
)
from chatterdetect.signal_io import LabelInterval, LabelTrack, MachiningClass


def architecture_parameter_oracle():
    """Closed-form parameter total, recomputed from the layer table."""
    length = 1024
    total = 1 * 7 * 16 + 16          # conv k7, 1 -> 16 channels
    length = (length - 7 + 1) // 4   # relu, pool 4
    total += 16 * 5 * 32 + 32        # conv k5, 16 -> 32 channels
    length = (length - 5 + 1) // 4   # relu, pool 4
    flat = length * 32
    total += flat * 128 + 128        # dense 128
    total += 128 * 64 + 64           # dense 64
    total += 64 * 3 + 3              # dense 3
    return total


def test_build_is_deterministic():
    a, b = cd.build_model(11), cd.build_model(11)
    for (_, _, pa), (_, _, pb) in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)
    c = cd.build_model(12)
    assert not all(
        np.array_equal(pa, pc)
        for (_, _, pa), (_, _, pc) in zip(a.parameters(), c.parameters())
    )


def test_parameter_count_matches_oracle():
    model = cd.build_model(0)
    assert model.parameter_count() == architecture_parameter_oracle() == 265251


def test_biases_start_at_zero():
    model = cd.build_model(0)
    for _, name, p in model.parameters():
        if name == "b":
            assert np.all(p == 0.0)


def test_probabilities_sum_to_one():
    model = cd.build_model(1)
    rng = np.random.default_rng(2)
    for _ in range(25):
        probs = cd.predict_batch(model, rng.uniform(-30, 5, 1024).reshape(1, -1))[0]
        assert np.all(probs >= 0)
        assert abs(float(probs.sum()) - 1.0) <= 1e-6


def test_wrong_input_length():
    model = cd.build_model(0)
    with pytest.raises(WrongInputLength):
        cd.predict_batch(model, np.zeros(1023).reshape(1, -1))
    with pytest.raises(WrongInputLength):
        cd.predict_batch(model, np.zeros((2, 1025)))


def test_floor_and_ceiling_frames_differ():
    model = cd.build_model(5)
    p_floor = cd.predict_batch(model, np.full(1024, -20.0).reshape(1, -1))
    p_zero = cd.predict_batch(model, np.zeros(1024).reshape(1, -1))
    assert not np.array_equal(p_floor, p_zero)


def test_loss_values():
    def loss(probs, label):
        return _cross_entropy(np.array([probs]), np.array([int(label)]))[0]

    assert loss([1.0, 0.0, 0.0], MachiningClass.CHATTER) == 0.0
    uniform = [1.0 / 3.0] * 3
    assert loss(uniform, MachiningClass.MACHINING_NO_CHATTER) == pytest.approx(
        math.log(3.0), abs=1e-9
    )
    assert loss([0.5, 0.25, 0.25], MachiningClass.CHATTER) == pytest.approx(
        math.log(2.0), abs=1e-9
    )
    # a batch sums its losses and counts the argmax hits
    total, correct = _cross_entropy(np.array([[0.5, 0.25, 0.25], [0.2, 0.7, 0.1]]), np.array([0, 2]))
    assert total == pytest.approx(math.log(2.0) + math.log(10.0), abs=1e-9) and correct == 1


def test_zero_epochs_is_identity(small_dataset):
    model = cd.build_model(3)
    before = [p.copy() for _, _, p in model.parameters()]
    cd.train(model, small_dataset, cd.Hyperparameters(epochs=0))
    assert model.training_log == []
    for (_, _, p), saved in zip(model.parameters(), before):
        assert np.array_equal(p, saved)


def test_zero_learning_rate_is_a_zero_step(small_dataset):
    model = cd.build_model(3)
    before = [p.copy() for _, _, p in model.parameters()]
    cd.train(model, small_dataset, cd.Hyperparameters(epochs=1, learning_rate=0.0))
    for (_, _, p), saved in zip(model.parameters(), before):
        assert np.array_equal(p, saved)


def test_train_requires_all_classes(tmp_path):
    spec = cd.SynthSpec(MachiningClass.CHATTER, 1800.0, 3, 955.0, seed=1)
    sig = cd.generate(spec)
    track = LabelTrack((LabelInterval(0.0, 1.0, MachiningClass.CHATTER),))
    ds = cd.build_dataset([(sig, track, False)], split_seed=0, test_fraction=0.0)
    model = cd.build_model(0)
    with pytest.raises(MissingClass):
        cd.train(model, ds, cd.Hyperparameters(epochs=1))


def test_train_requires_validation_split():
    spec = cd.SynthSpec(MachiningClass.CHATTER, 1800.0, 3, 955.0, seed=1, duration_s=0.1)
    sig = cd.generate(spec)
    track = LabelTrack((LabelInterval(0.0, 0.1, MachiningClass.CHATTER),))
    ds = cd.build_dataset([(sig, track, False)], split_seed=0, test_fraction=0.0)
    assert len(ds) == 1  # the lone frame lands in Train, Val is empty
    with pytest.raises(EmptyDataset):
        cd.train(cd.build_model(0), ds, cd.Hyperparameters(epochs=1))


def test_training_is_deterministic(small_dataset):
    def run():
        model = cd.build_model(6)
        cd.train(model, small_dataset, cd.Hyperparameters(epochs=2, rng_seed=6))
        return model

    a, b = run(), run()
    assert [vars(s) for s in a.training_log] == [vars(s) for s in b.training_log]
    for (_, _, pa), (_, _, pb) in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)


def test_train_logs_one_info_line_per_epoch(small_dataset, caplog, capsys):
    with caplog.at_level(logging.INFO, logger="chatterdetect.model"):
        model = cd.build_model(3)
        cd.train(model, small_dataset, cd.Hyperparameters(epochs=3, rng_seed=3))
    records = [r for r in caplog.records if r.name == "chatterdetect.model"]
    assert [r.levelno for r in records] == [logging.INFO] * 3
    for stats, record in zip(model.training_log, records):
        line = record.getMessage()
        assert line.startswith(f"epoch {stats.epoch}/3: train loss {stats.train_loss:.4f}")
        assert f"val loss {stats.val_loss:.4f} acc {stats.val_acc:.4f}" in line
        assert line.endswith(" frames/s")
    assert capsys.readouterr().out == ""


def test_loss_decreases_on_noiseless_set():
    items = cd.generate_corpus(1, 0.0, [1800], seed=31, noise_sigma=0.0)
    ds = cd.build_dataset(
        [(it.signal, it.labels, it.ambiguous) for it in items],
        split_seed=1,
        test_fraction=0.0,
    )
    assert len(ds) == 30
    model = cd.build_model(2)
    cd.train(model, ds, cd.Hyperparameters(epochs=30, rng_seed=2))
    assert model.training_log[-1].train_loss < model.training_log[0].train_loss


def test_best_epoch_weights_are_returned(small_dataset):
    model = cd.build_model(9)
    cd.train(model, small_dataset, cd.Hyperparameters(epochs=3, rng_seed=9))
    best = max(model.training_log, key=lambda s: s.val_acc)
    x, y = small_dataset.split_arrays(Split.VAL)
    acc = float((cd.predict_batch(model, x).argmax(axis=1) == y).mean())
    assert acc == pytest.approx(best.val_acc, abs=1e-12)


def test_gradient_check_fresh_model(real_frames):
    model = cd.build_model(4)
    err = cd.gradient_check(model, real_frames[0], MachiningClass.CHATTER, step=1e-3)
    assert err < 1e-4


def test_gradient_check_zero_input_is_finite():
    model = cd.build_model(4)
    err = cd.gradient_check(model, np.zeros(1024), MachiningClass.CHATTER)
    assert np.isfinite(err)


def test_gradient_check_after_training_steps(small_dataset, real_frames):
    model = cd.build_model(8)
    # one epoch over a tiny subset: a handful of batch-2 update steps
    cd.train(model, small_dataset, cd.Hyperparameters(epochs=1, rng_seed=8))
    err = cd.gradient_check(model, real_frames[1], MachiningClass.MACHINING_NO_CHATTER)
    assert err < 1e-4


def test_model_round_trip(tmp_path, trained_small_model):
    path = tmp_path / "m.chmd"
    cd.save_model(trained_small_model, path)
    back = cd.load_model(path)
    for (_, _, pa), (_, _, pb) in zip(
        trained_small_model.parameters(), back.parameters()
    ):
        assert np.array_equal(pa, pb)

    rng = np.random.default_rng(14)
    frames = rng.uniform(-20, 0, (100, 1024)).astype(np.float32)
    assert np.array_equal(
        cd.predict_batch(trained_small_model, frames), cd.predict_batch(back, frames)
    )


def test_model_version_bump_rejected(tmp_path):
    path = tmp_path / "m.chmd"
    cd.save_model(cd.build_model(0), path)
    blob = bytearray(path.read_bytes())
    assert blob[4] == MODEL_VERSION
    blob[4] = MODEL_VERSION + 1
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptModel):
        cd.load_model(path)


def test_model_truncation_rejected(tmp_path):
    path = tmp_path / "m.chmd"
    cd.save_model(cd.build_model(0), path)
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(CorruptModel):
        cd.load_model(path)


def test_model_file_layout(tmp_path):
    # header, then each layer's code byte and constructor fields, then weights
    model = cd.build_model(0)
    cd.save_model(model, tmp_path / "m.chmd")
    conv, relu, pool, flatten, dense, dropout = "<BIII", "<B", "<BI", "<B", "<BII", "<Bf"
    layers = [
        (conv, 1, 1, 16, 7), (relu, 2), (pool, 3, 4),
        (conv, 1, 16, 32, 5), (relu, 2), (pool, 3, 4),
        (flatten, 4),
        (dense, 5, 62 * 32, 128), (relu, 2), (dropout, 6, 0.3),
        (dense, 5, 128, 64), (relu, 2),
        (dense, 5, 64, 3),
    ]
    expected = struct.pack("<4sIIIqfI", b"CHMD", 1, 1024, 3, 0, -20.0, len(layers))
    expected += b"".join(struct.pack(fmt, *fields) for fmt, *fields in layers)
    expected += model.flat.astype("<f4").tobytes()
    assert (tmp_path / "m.chmd").read_bytes() == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_rejected(tmp_path, bad):
    model = cd.build_model(0)
    model.flat[1234] = bad
    cd.save_model(model, tmp_path / "m.chmd")
    with pytest.raises(CorruptModel):
        cd.load_model(tmp_path / "m.chmd")


HUGE_DENSE = struct.pack("<BII", Dense.code, 2**31, 2**31)
FLATTEN = struct.pack("<B", Flatten.code)


def _packed(path, n_inputs, n_classes, layers):
    """A header, the packed `layers` and 64 bytes of weights."""
    header = struct.pack("<4sIIIqf", MODEL_MAGIC, MODEL_VERSION, n_inputs, n_classes, 0, -20.0)
    path.write_bytes(header + struct.pack("<I", len(layers)) + b"".join(layers) + bytes(64))


def _complete(path, edit=None, n_inputs=1024, n_classes=3, floor=-20.0):
    """build_model's layers as `edit` leaves them, all their weights, and
    the header's line count, class count and input floor as given."""
    layers = _network(1024, 0.3)
    if edit:
        edit(layers)
    cd.save_model(ClassifierModel(layers, seed=0), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<IIqf", blob, 8, n_inputs, n_classes, 0, floor)
    path.write_bytes(bytes(blob))


def _narrow_convs(layers):
    # a consistent chain that is not the network
    layers[0], layers[3], layers[7] = Conv1D(1, 8, 7), Conv1D(8, 8, 5), Dense(62 * 8, 128)


def _four_classes(layers):
    layers[-1] = Dense(64, 4)


def _dropout_one(layers):
    layers[9].rate = 1.0


def _no_dense_inputs(layers):
    layers[7] = Dense(0, 128)  # what the network's arithmetic gives for 22 lines


FORGED = {
    # a consistent chain whose 2**64 bytes of weights dwarf the file
    "huge-chained": lambda p: _packed(p, 2**31, 2**31, [FLATTEN, HUGE_DENSE]),
    # the same layer where the chain does not fit
    "huge-unchained": lambda p: _packed(p, 1024, 3, [FLATTEN, HUGE_DENSE]),
    # a zero-width pooling window
    "zero-pool": lambda p: _packed(p, 1024, 3, [struct.pack("<BI", MaxPool1D.code, 0)]),
    # the rest are complete files: only the forged value is wrong
    "narrow-convs": lambda p: _complete(p, _narrow_convs),
    "floor-nan": lambda p: _complete(p, floor=math.nan),
    "floor-0": lambda p: _complete(p, floor=0.0),
    "floor+20": lambda p: _complete(p, floor=20.0),
    "floor-inf": lambda p: _complete(p, floor=-math.inf),
    "classes-4": lambda p: _complete(p, _four_classes, n_classes=4),
    "dropout-1": lambda p: _complete(p, _dropout_one),
    "inputs-22": lambda p: _complete(p, _no_dense_inputs, n_inputs=22),
}


@pytest.mark.parametrize("forge", FORGED.values(), ids=FORGED.keys())
def test_forged_header_rejected_before_allocation(tmp_path, forge):
    path = tmp_path / "m.chmd"
    forge(path)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptModel):
            cd.load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file's bytes may be as large as the weights (45 KB or more here);
    # nothing else may be
    assert peak < path.stat().st_size + 2**14


def test_training_log_csv(tmp_path, trained_small_model):
    path = tmp_path / "log.csv"
    cd.save_training_log(trained_small_model.training_log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert len(lines) == 1 + len(trained_small_model.training_log)
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == pytest.approx(
        trained_small_model.training_log[0].train_loss, rel=1e-6
    )


def test_hyperparameter_validation():
    with pytest.raises(ValueError):
        cd.Hyperparameters(batch_size=0)
    with pytest.raises(ValueError):
        cd.Hyperparameters(epochs=-1)
    with pytest.raises(ValueError):
        cd.Hyperparameters(learning_rate=-1.0)
    with pytest.raises(ValueError):
        cd.Hyperparameters(learning_rate=float("nan"))
    with pytest.raises(ValueError):
        cd.Hyperparameters(dropout_rate=1.0)
    # RMSprop's eps must be positive and rho a decay: otherwise weights go NaN
    for bad in (0.0, -1e-7, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cd.Hyperparameters(epsilon=bad)
    for bad in (1.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ValueError):
            cd.Hyperparameters(rho=bad)
    # counts and the seed are integers (never bool): a fraction or a negative
    # seed used to fail deep inside train, and epochs=True to train one epoch
    for name in ("batch_size", "epochs", "rng_seed"):
        for bad in (2.5, 2.0, True, "2", None):
            with pytest.raises(ValueError):
                cd.Hyperparameters(**{name: bad})
        assert getattr(cd.Hyperparameters(**{name: np.int64(3)}), name) == 3
    with pytest.raises(ValueError):
        cd.Hyperparameters(rng_seed=-1)
    assert cd.Hyperparameters(rng_seed=0, epochs=0).epochs == 0


def test_diverging_training_raises(small_dataset):
    model = cd.build_model(0)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="epoch 1"):
        cd.train(model, small_dataset, cd.Hyperparameters(epochs=2, learning_rate=1e30))
    assert model.training_log == []
