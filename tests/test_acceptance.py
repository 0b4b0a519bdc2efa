"""Acceptance gates for the whole pipeline.

Each test prints one summary line; run with ``pytest tests/test_acceptance.py -v -s``
to see them as they complete. The end-to-end training gates take several
minutes on a laptop-class CPU, single-threaded.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

import chatterdetect as cd
from chatterdetect import defaults
from chatterdetect.cli import build_parser
from chatterdetect.dataset import Split
from chatterdetect.signal_io import MachiningClass
from chatterdetect.spectral import SpectralConfig, complex_spectrum, prepare_window

CFG = SpectralConfig()

PUBLISHED_CM = np.array([[1539, 5, 0], [0, 2759, 55], [0, 0, 733]])


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status}  {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def all_frames(items, config=CFG):
    lines, labels = [], []
    for item in items:
        for frame in cd.extract_frames(item.signal, config):
            lines.append(frame.lines)
            labels.append(int(item.spec.signal_class))
    return np.stack(lines), np.array(labels)


def test_criterion_1_metrics_oracle_matches_published_values():
    start = time.time()
    metrics = cd.class_metrics(cd.ConfusionMatrix(PUBLISHED_CM))
    accuracy_pct = metrics.accuracy * 100.0
    rotation = metrics.per_class[MachiningClass.ROTATION_NO_MACHINING]
    ok = (
        abs(accuracy_pct - 98.82) <= 0.01
        and round(rotation.precision * 100, 1) == 93.0
        and rotation.recall == 1.0
        and round(rotation.f1 * 100, 1) == 96.4
        and time.time() - start < 1.0
    )
    report(
        "1 (metrics oracle)",
        ok,
        f"accuracy {accuracy_pct:.4f}%, rotation p/r/f1 "
        f"{rotation.precision:.4f}/{rotation.recall:.4f}/{rotation.f1:.4f}",
    )


def test_criterion_2_amplitude_invariance():
    start = time.time()
    train_items = cd.generate_corpus(12, 0.0, [1800, 3000], seed=2201, duration_s=0.5)
    ds = cd.build_dataset(
        [(it.signal, it.labels, it.ambiguous) for it in train_items],
        split_seed=22,
        test_fraction=0.0,
    )
    model = cd.build_model(22)
    cd.train(model, ds, cd.Hyperparameters(epochs=3, rng_seed=22))

    probe_items = cd.generate_corpus(
        17, 0.3, [1800, 2400, 3000], seed=2202, duration_s=0.5
    )[:50]
    assert len(probe_items) == 50

    worst_line_diff = 0.0
    prob_vectors_identical = True
    for item in probe_items:
        base_frames = cd.extract_frames(item.signal, CFG)
        base_lines = np.stack([f.lines for f in base_frames])
        base_probs = cd.predict_batch(model, base_lines)
        for alpha in (1e-3, 1.0, 1e3):
            scaled = cd.TimeSignal(item.signal.samples * alpha, item.signal.sample_rate_hz)
            lines = np.stack([f.lines for f in cd.extract_frames(scaled, CFG)])
            worst_line_diff = max(
                worst_line_diff, float(np.max(np.abs(lines - base_lines)))
            )
            if not np.array_equal(cd.predict_batch(model, lines), base_probs):
                prob_vectors_identical = False

    elapsed = time.time() - start
    ok = worst_line_diff < 1e-9 and prob_vectors_identical and elapsed < 30.0
    report(
        "2 (amplitude invariance)",
        ok,
        f"max line diff {worst_line_diff:.2e}, probabilities identical: "
        f"{prob_vectors_identical}, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_3_speed_agnostic_training():
    start = time.time()
    # structural: the classifier input carries no spindle-speed information,
    # only the renormalized lines (plus frame bookkeeping)
    frame_fields = {f.name for f in dataclasses.fields(cd.SpectralFrame)}
    structural_ok = frame_fields == {"frame_index", "t_start_s", "lines"}
    model = cd.build_model(33)
    structural_ok &= model.n_inputs == CFG.n_lines

    train_items = cd.generate_corpus(40, 0.0, [1800, 3000], seed=3301)
    ds = cd.build_dataset(
        [(it.signal, it.labels, it.ambiguous) for it in train_items],
        split_seed=33,
        test_fraction=0.0,
    )
    cd.train(model, ds, cd.Hyperparameters(rng_seed=33))

    held_out = cd.generate_corpus(15, 0.0, [2400], seed=3302)
    x, y = all_frames(held_out)
    accuracy = float((cd.predict_batch(model, x).argmax(axis=1) == y).mean())

    elapsed = time.time() - start
    ok = structural_ok and accuracy >= 0.85 and elapsed < 600.0
    report(
        "3 (speed-agnostic training)",
        ok,
        f"structural {structural_ok}, rpm-2400 accuracy {accuracy:.4f} "
        f"over {len(y)} frames, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_4_desk_scale_end_to_end():
    start = time.time()
    # 330 signals per class of which 30 are ambiguous: 300 unambiguous
    # per class plus a 10 % ambiguous complement
    items = cd.generate_corpus(330, 1.0 / 11.0, [1800, 3000], seed=4401)
    n_ambiguous = sum(1 for it in items if it.ambiguous)
    assert n_ambiguous == 90 and len(items) == 990

    ds = cd.build_dataset(
        [(it.signal, it.labels, it.ambiguous) for it in items],
        split_seed=44,
        test_fraction=0.2,
    )
    model = cd.build_model(44)
    cd.train(model, ds, cd.Hyperparameters(rng_seed=44))  # published defaults

    accuracies = {}
    for split in (Split.VAL, Split.TEST, Split.TEST2_AMBIGUOUS):
        x, y = ds.split_arrays(split)
        probs = cd.predict_batch(model, x)
        accuracies[split] = float((probs.argmax(axis=1) == y).mean())

    elapsed = time.time() - start
    ok = (
        accuracies[Split.VAL] >= 0.95
        and accuracies[Split.TEST] >= 0.95
        and accuracies[Split.TEST2_AMBIGUOUS] >= 0.60
        and elapsed < 900.0
    )
    report(
        "4 (desk-scale end-to-end)",
        ok,
        f"val {accuracies[Split.VAL]:.4f}, test {accuracies[Split.TEST]:.4f}, "
        f"ambiguous {accuracies[Split.TEST2_AMBIGUOUS]:.4f}, {elapsed:.0f}s",
    )


def test_criterion_5_gradient_correctness():
    start = time.time()
    items = cd.generate_corpus(2, 0.0, [1800, 3000], seed=5501)
    frames = [cd.extract_frames(it.signal, CFG)[0].lines for it in items]
    ds = cd.build_dataset(
        [(it.signal, it.labels, it.ambiguous) for it in items],
        split_seed=55,
        test_fraction=0.0,
    )

    worst_fresh, worst_trained = 0.0, 0.0
    for seed in range(10):
        lines = frames[seed % len(frames)]
        label = MachiningClass(seed % 3)
        model = cd.build_model(seed)
        worst_fresh = max(
            worst_fresh, cd.gradient_check(model, lines, label, step=1e-3, seed=seed)
        )
        cd.train(model, ds, cd.Hyperparameters(epochs=1, rng_seed=seed))
        worst_trained = max(
            worst_trained, cd.gradient_check(model, lines, label, step=1e-3, seed=seed)
        )

    elapsed = time.time() - start
    ok = worst_fresh < 1e-4 and worst_trained < 1e-4 and elapsed < 60.0
    report(
        "5 (gradient correctness)",
        ok,
        f"max rel err fresh {worst_fresh:.2e}, trained {worst_trained:.2e}, {elapsed:.0f}s",
    )


def test_criterion_6_fft_correctness():
    start = time.time()
    rng = np.random.default_rng(66)

    parseval_ok = True
    for _ in range(100):
        window = rng.standard_normal(2205)
        x = prepare_window(window, 22050.0, CFG)
        _, spectrum = complex_spectrum(window, 22050.0, CFG)
        lhs = float(np.sum(x * x))
        rhs = float(np.sum(np.abs(spectrum) ** 2)) / x.size
        if abs(lhs - rhs) > 1e-6 * lhs:
            parseval_ok = False

    grid = CFG.grid_hz()
    t = np.arange(2205) / 22050.0
    peak_ok = True
    for _ in range(20):
        f0 = float(rng.uniform(51.0, 2399.0))
        mags = cd.magnitude_spectrum(np.sin(2 * np.pi * f0 * t), 22050.0, CFG)
        nearest = int(np.argmin(np.abs(grid - f0)))
        if abs(int(np.argmax(mags)) - nearest) > 1:
            peak_ok = False

    elapsed = time.time() - start
    ok = parseval_ok and peak_ok and elapsed < 10.0
    report(
        "6 (FFT correctness)",
        ok,
        f"Parseval {parseval_ok}, peak localization {peak_ok}, {elapsed:.1f}s",
    )


def mann_whitney_auc(scores, positive):
    pos, neg = scores[positive], scores[~positive]
    wins = float((pos[:, None] > neg[None, :]).sum())
    ties = float((pos[:, None] == neg[None, :]).sum())
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_criterion_7_roc_oracle():
    start = time.time()
    rng = np.random.default_rng(77)

    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 201))
        scores = np.round(rng.random(n), int(rng.integers(1, 4)))
        positive = rng.random(n) < rng.uniform(0.2, 0.8)
        if positive.all() or not positive.any():
            continue
        probs = np.zeros((n, 3))
        probs[:, 0] = scores
        probs[:, 1] = 1.0 - scores
        labels = np.where(positive, 0, 1).tolist()
        curve = cd.roc(probs, labels, MachiningClass.CHATTER)
        worst = max(worst, abs(curve.auc - mann_whitney_auc(scores, positive)))
        checked += 1

    perfect = cd.roc(
        np.array([[0.9, 0.1, 0.0], [0.8, 0.2, 0.0], [0.2, 0.8, 0.0], [0.1, 0.9, 0.0]]),
        [0, 0, 1, 1],
        MachiningClass.CHATTER,
    ).auc
    constant = cd.roc(
        np.tile([0.5, 0.5, 0.0], (10, 1)), [0] * 5 + [1] * 5, MachiningClass.CHATTER
    ).auc

    elapsed = time.time() - start
    ok = worst <= 1e-9 and perfect == 1.0 and constant == 0.5 and elapsed < 10.0
    report(
        "7 (ROC oracle)",
        ok,
        f"max |auc - pair statistic| {worst:.2e}, perfect {perfect}, "
        f"constant {constant}, {elapsed:.1f}s",
    )


def test_criterion_8_determinism_and_persistence(tmp_path):
    start = time.time()
    parts = {}

    # corpora: bit-identical directories from the same seed
    items_a = cd.generate_corpus(2, 0.5, [1800, 3000], seed=88)
    items_b = cd.generate_corpus(2, 0.5, [1800, 3000], seed=88)
    cd.write_corpus(items_a, tmp_path / "ca")
    cd.write_corpus(items_b, tmp_path / "cb")
    byte_equal = True
    for path_a in sorted((tmp_path / "ca").iterdir()):
        path_b = tmp_path / "cb" / path_a.name
        if path_a.read_bytes() != path_b.read_bytes():
            byte_equal = False
    parts["corpora"] = byte_equal

    # splits: identical assignment from identical seeds
    pairs = [(it.signal, it.labels, it.ambiguous) for it in items_a]
    ds_a = cd.build_dataset(pairs, split_seed=8, test_fraction=0.25)
    ds_b = cd.build_dataset(pairs, split_seed=8, test_fraction=0.25)
    parts["splits"] = ds_a == ds_b

    # dataset persistence: round trip equal, re-save bit-identical
    cd.save_dataset(ds_a, tmp_path / "ds")
    loaded = cd.load_dataset(tmp_path / "ds")
    cd.save_dataset(loaded, tmp_path / "ds2")
    parts["dataset round trip"] = loaded == ds_a and (
        (tmp_path / "ds" / "frames.bin").read_bytes()
        == (tmp_path / "ds2" / "frames.bin").read_bytes()
    )

    # training: bit-identical logs and model files from fixed seeds
    def train_once():
        model = cd.build_model(88)
        cd.train(model, ds_a, cd.Hyperparameters(epochs=2, rng_seed=88))
        return model

    model_a, model_b = train_once(), train_once()
    parts["training logs"] = [vars(s) for s in model_a.training_log] == [
        vars(s) for s in model_b.training_log
    ]
    cd.save_model(model_a, tmp_path / "ma.chmd")
    cd.save_model(model_b, tmp_path / "mb.chmd")
    parts["model files"] = (
        (tmp_path / "ma.chmd").read_bytes() == (tmp_path / "mb.chmd").read_bytes()
    )

    # model persistence: bit-exact weights after load
    reloaded = cd.load_model(tmp_path / "ma.chmd")
    parts["model round trip"] = all(
        np.array_equal(pa, pb)
        for (_, _, pa), (_, _, pb) in zip(model_a.parameters(), reloaded.parameters())
    )

    elapsed = time.time() - start
    ok = all(parts.values())
    report(
        "8 (determinism & persistence)",
        ok,
        ", ".join(f"{k}: {v}" for k, v in parts.items()) + f", {elapsed:.0f}s",
    )


def test_criterion_9_defaults_conformance():
    parser = build_parser()
    train_args = parser.parse_args(["train", "--data", "d", "--out", "m"])
    extract_args = parser.parse_args(["extract", "--in", "c", "--out", "d"])
    hp = cd.Hyperparameters()
    cfg = cd.SpectralConfig()

    expected = {
        "batch": 2,
        "lr": 0.0001,
        "epochs": 30,
        "dropout": 0.3,
        "hop_s": 0.1,
        "window_s": 0.1,
        "n_lines": 1024,
        "f_max_hz": 2500.0,
        "crop_db": 20.0,
    }
    actual = {
        "batch": train_args.batch,
        "lr": train_args.lr,
        "epochs": train_args.epochs,
        "dropout": train_args.dropout,
        "hop_s": extract_args.hop,
        "window_s": extract_args.window,
        "n_lines": extract_args.lines,
        "f_max_hz": extract_args.fmax,
        "crop_db": extract_args.crop_db,
    }
    dataclass_side = {
        "batch": hp.batch_size,
        "lr": hp.learning_rate,
        "epochs": hp.epochs,
        "dropout": hp.dropout_rate,
        "hop_s": cfg.hop_s,
        "window_s": cfg.window_s,
        "n_lines": cfg.n_lines,
        "f_max_hz": cfg.f_max_hz,
        "crop_db": cfg.crop_db,
    }
    ok = actual == expected == dataclass_side
    report("9 (defaults conformance)", ok, f"CLI {actual == expected}, "
           f"dataclasses {dataclass_side == expected}")
