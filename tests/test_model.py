import logging
import math
import os
import re
import struct
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace

import numpy as np
import pytest

import chatterdetect as cd
import chatterdetect.cpus as cpus_module
from chatterdetect.dataset import Split
from chatterdetect.errors import (
    CorruptModel, EmptyDataset, FeatureMismatch, MissingClass, NonFiniteSamples,
    TrainingDiverged, WrongInputLength,
)
from chatterdetect.model import (
    _INFER_BLOCK, MODEL_VERSION, _cross_entropy, _eval_arrays, _forward_batch, check_config,
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


def test_zero_frames_give_zero_rows():
    probs = cd.predict_batch(cd.build_model(0), np.empty((0, 1024)))
    assert probs.shape == (0, 3)
    assert probs.dtype == np.float32


# 1e39 is finite in float64 but overflows the model's float32
@pytest.mark.parametrize("dtype, bad", [(np.float32, np.nan), (np.float32, np.inf),
                                        (np.float32, -np.inf), (np.float64, 1e39)])
def test_non_finite_line_rejected(dtype, bad, real_frames):
    x = np.stack(real_frames).astype(dtype)
    x[4, 100] = x[5, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSamples, match="frame 4 "):
            cd.predict_batch(cd.build_model(0), x)


def whole_batch(model, x):
    """Every frame through each layer before the next: the path of
    training, which records contexts."""
    return _forward_batch(model, x, [{} for _ in model.layers])


BLOCK_EDGES = [1, _INFER_BLOCK - 1, _INFER_BLOCK, _INFER_BLOCK + 1, 3 * _INFER_BLOCK + 5]


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_blocked_inference_equals_the_whole_batch(n, small_dataset, trained_small_model):
    x = small_dataset.records["lines"][:n]
    assert np.array_equal(cd.predict_batch(trained_small_model, x),
                          whole_batch(trained_small_model, x))


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_blocked_inference_equals_the_whole_batch_at_512_lines(n, small_corpus):
    config = cd.SpectralConfig(n_lines=512)
    model = cd.build_model(3, config)
    x = np.stack([f.lines for it in small_corpus[:6] for f in cd.extract_frames(it.signal, config)])
    assert len(x) >= n
    assert np.array_equal(cd.predict_batch(model, x[:n]), whole_batch(model, x[:n]))


def test_eval_arrays_scores_whole_batch_chunks_of_512(small_dataset, trained_small_model):
    model = trained_small_model
    x = np.tile(small_dataset.records["lines"], (4, 1))[:700]
    y = np.tile(small_dataset.records["label"].astype(np.int64), 4)[:700]
    loss, correct = 0.0, 0
    for lo in (0, 512):
        chunk_loss, chunk_correct = _cross_entropy(whole_batch(model, x[lo : lo + 512]),
                                                   y[lo : lo + 512])
        loss += chunk_loss
        correct += chunk_correct
    assert _eval_arrays(model, x, y) == (loss / 700, correct / 700)


def test_inference_memory_stays_bounded():
    # the whole batch through each conv layer would peak at ≈127 MiB here
    model = cd.build_model(0)
    x = np.random.default_rng(0).uniform(-20, 0, (1024, 1024)).astype(np.float32)
    tracemalloc.start()
    try:
        cd.predict_batch(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_inference_memory_stays_bounded_on_many_cpus(monkeypatch):
    monkeypatch.setattr(cpus_module, "cpu_count", lambda: 64)
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(cpus_module, "ThreadPoolExecutor", RecordingPool)
    model = cd.build_model(0)
    x = np.random.default_rng(0).uniform(-20, 0, (1024, 1024)).astype(np.float32)
    tracemalloc.start()
    try:
        cd.predict_batch(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    # a host with few CPUs runs few blocks at once whatever the thread
    # count, so require the cap as well: a 2 MiB block at 1024 lines fits
    # 8 times in the 16 MiB bound, the caller and 7 helpers
    assert pools == [7]


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("n", [0, 1, 16, 17, 33, 53])
def test_threaded_inference_equals_the_whole_batch(n, cpus, monkeypatch, small_dataset,
                                                   trained_small_model):
    monkeypatch.setattr(cpus_module, "cpu_count", lambda: cpus)
    x = small_dataset.records["lines"][:n]
    # switch threads as often as the interpreter can, so that a block
    # written to another share's rows would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        probs = cd.predict_batch(trained_small_model, x)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(probs, whole_batch(trained_small_model, x))


def test_a_helper_threads_error_reaches_the_caller(monkeypatch, small_dataset):
    monkeypatch.setattr(cpus_module, "cpu_count", lambda: 2)
    model = cd.build_model(0)
    error = RuntimeError("conv2 failed in a helper")
    forward = model.layers[3].forward

    def failing(x, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise error
        return forward(x, *args, **kwargs)

    monkeypatch.setattr(model.layers[3], "forward", failing)
    with pytest.raises(RuntimeError) as raised:
        cd.predict_batch(model, small_dataset.records["lines"][: 2 * _INFER_BLOCK])
    assert raised.value is error


def test_threaded_inference_leaves_no_thread_running(monkeypatch, small_dataset):
    monkeypatch.setattr(cpus_module, "cpu_count", lambda: 3)
    before = threading.active_count()
    cd.predict_batch(cd.build_model(0), small_dataset.records["lines"][: 3 * _INFER_BLOCK])
    assert threading.active_count() == before


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="threads cannot be placed")
def test_helpers_run_off_the_callers_cpu(monkeypatch, small_dataset):
    allowed = os.sched_getaffinity(0)
    others = cpus_module.other_cpus()
    assert others < allowed and len(others) == len(allowed) - 1  # all but the caller's
    cpu = {min(allowed)}
    monkeypatch.setattr(cpus_module, "cpu_count", lambda: 2)
    monkeypatch.setattr(cpus_module, "other_cpus", lambda: cpu)
    model = cd.build_model(0)
    masks = {}
    forward = model.layers[0].forward

    def recording(x, *args, **kwargs):
        masks[threading.current_thread() is threading.main_thread()] = os.sched_getaffinity(0)
        return forward(x, *args, **kwargs)

    monkeypatch.setattr(model.layers[0], "forward", recording)
    cd.predict_batch(model, small_dataset.records["lines"][: 2 * _INFER_BLOCK])
    assert masks == {True: allowed, False: cpu}
    assert os.sched_getaffinity(0) == allowed


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
    assert [r.levelno for r in records] == [logging.INFO] * 4
    for stats, record in zip(model.training_log, records):
        line = record.getMessage()
        assert line.startswith(f"epoch {stats.epoch}/3: train loss {stats.train_loss:.4f}")
        assert f"val loss {stats.val_loss:.4f} acc {stats.val_acc:.4f}" in line
        assert line.endswith(" frames/s")
    # then the kept epoch: the earliest with the best val accuracy
    accs = [s.val_acc for s in model.training_log]
    kept = accs.index(max(accs)) + 1
    assert records[-1].getMessage() == f"kept epoch {kept}: val acc {max(accs):.4f}"
    assert capsys.readouterr().out == ""


def test_train_keeps_the_earliest_of_tied_epochs(small_dataset, caplog):
    # at learning rate 0 every epoch has the same val accuracy
    with caplog.at_level(logging.INFO, logger="chatterdetect.model"):
        model = cd.build_model(3)
        cd.train(model, small_dataset, cd.Hyperparameters(epochs=3, learning_rate=0.0))
        acc = model.training_log[0].val_acc
        assert [s.val_acc for s in model.training_log] == [acc] * 3
        messages = [r.getMessage() for r in caplog.records if r.name == "chatterdetect.model"]
        assert messages[-1] == f"kept epoch 1: val acc {acc:.4f}"
        # and no epoch, nothing kept: no line at all
        caplog.clear()
        cd.train(cd.build_model(3), small_dataset, cd.Hyperparameters(epochs=0))
    assert [r for r in caplog.records if r.name == "chatterdetect.model"] == []


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
    err = cd.gradient_check(model, real_frames[0], MachiningClass.CHATTER)
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


@pytest.mark.parametrize("version", [0, 1, 3])
def test_model_version_bump_rejected(tmp_path, version):
    path = tmp_path / "m.chmd"
    cd.save_model(cd.build_model(0), path)
    blob = bytearray(path.read_bytes())
    assert blob[4] == MODEL_VERSION == 2
    blob[4] = version
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptModel, match=f"unsupported version {version}"):
        cd.load_model(path)


def test_model_truncation_rejected(tmp_path):
    path = tmp_path / "m.chmd"
    cd.save_model(cd.build_model(0), path)
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(CorruptModel):
        cd.load_model(path)


def test_model_file_layout(tmp_path):
    # magic, version, classes, seed, the spectral config, dropout, then weights
    model = cd.build_model(0)
    cd.save_model(model, tmp_path / "m.chmd")
    expected = struct.pack("<4sIIqddIddd", b"CHMD", 2, 3, 0, 0.1, 0.1, 1024, 2500.0, 20.0, 0.3)
    assert len(expected) == 64
    expected += model.flat.astype("<f4").tobytes()
    assert (tmp_path / "m.chmd").read_bytes() == expected


def test_model_file_keeps_the_config_and_dropout_at_full_precision(tmp_path):
    config = cd.SpectralConfig(hop_s=0.07, window_s=0.05, n_lines=512, f_max_hz=2000.1,
                               crop_db=20.1)
    model = cd.build_model(3, config)
    model.layers[9].rate = 0.1
    cd.save_model(model, tmp_path / "m.chmd")
    back = cd.load_model(tmp_path / "m.chmd")
    assert back.config == config and back.dropout_rate == 0.1
    assert (back.n_inputs, back.input_floor_db) == (512, -20.1)
    assert np.array_equal(back.flat, model.flat)


def test_check_config_exempts_only_the_hop():
    # the hop only spaces the frames; every other field shapes them
    model = cd.build_model(0)
    changed = {"hop_s": 0.05, "window_s": 0.05, "n_lines": 512, "f_max_hz": 2000.0,
               "crop_db": 30.0}
    assert changed.keys() == asdict(model.config).keys()
    check_config(model, replace(model.config, hop_s=0.05))
    for field in changed.keys() - {"hop_s"}:
        message = f"model: {field} {changed[field]!r} (model: {getattr(model.config, field)!r})"
        with pytest.raises(FeatureMismatch, match=re.escape(message) + "$"):
            check_config(model, replace(model.config, **{field: changed[field]}))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_rejected(tmp_path, bad):
    model = cd.build_model(0)
    model.flat[1234] = bad
    cd.save_model(model, tmp_path / "m.chmd")
    with pytest.raises(CorruptModel):
        cd.load_model(tmp_path / "m.chmd")


def _v2(offset, fmt, value):
    """A complete version 2 file of build_model(0) with `value` packed as
    `fmt` at byte `offset`."""
    def forge(path):
        cd.save_model(cd.build_model(0), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into(fmt, blob, offset, value)
        path.write_bytes(bytes(blob))
    return forge


FORGED = {
    # seed at byte 12, the config's fields at 20, 28, 36 (lines), 40 and 48
    # (crop), the dropout rate at 56
    "v2-lines-22": _v2(36, "<I", 22),
    "v2-lines-2**31": _v2(36, "<I", 2**31),
    "v2-crop-0": _v2(48, "<d", 0.0),
    "v2-crop-nan": _v2(48, "<d", math.nan),
    "v2-crop-neg20": _v2(48, "<d", -20.0),
    "v2-crop-inf": _v2(48, "<d", math.inf),
    "v2-window-nan": _v2(28, "<d", math.nan),
    "v2-dropout-1": _v2(56, "<d", 1.0),
    "v2-classes-4": _v2(8, "<I", 4),
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
