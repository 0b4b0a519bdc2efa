"""Work dealt over CPUs: the same bytes and the serial loop's error at any
simulated CPU count, bounded pools, no thread left behind, and one module
that places threads. Beside that guard, one that `MachiningClass` alone
states the class set."""

import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import chatterdetect as cd
import chatterdetect.cpus as cpus_module
import chatterdetect.dataset as dataset_module
import chatterdetect.synth as synth_module
from chatterdetect.dataset import FRAMES_FILE, record_dtype
from chatterdetect.errors import BandExceedsNyquist, CorruptDataset
from chatterdetect.signal_io import LabelInterval, LabelTrack, MachiningClass, TimeSignal
from chatterdetect.spectral import SpectralConfig

PACKAGE = Path(cd.__file__).parent


@pytest.fixture
def fast_switching():
    # switch threads as often as the interpreter can, so that an item
    # written to another item's place would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def recorded_pools(monkeypatch):
    """The max_workers of every pool `deal` starts."""
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(cpus_module, "ThreadPoolExecutor", RecordingPool)
    return pools


def pairs_of(items):
    return [(it.signal, it.labels, it.ambiguous) for it in items]


def mixed_pairs(items):
    """The corpus's pairs, with signal 1 losing the 4 frames in its middle,
    so that later runs move down by less than their length, and signal 4
    keeping no frame."""
    pairs = pairs_of(items)
    sig, track, amb = pairs[1]
    cls = track.intervals[0].label
    pairs[1] = (sig, LabelTrack((LabelInterval(0.0, 0.35, cls), LabelInterval(0.65, 1.0, cls))),
                amb)
    sig, _, amb = pairs[4]
    pairs[4] = (sig, LabelTrack((LabelInterval(0.0, 0.05, MachiningClass.CHATTER),)), amb)
    return pairs


def test_items_are_taken_in_order_from_one_queue(monkeypatch):
    monkeypatch.setattr(cpus_module, "cpu_count", lambda: 3)
    events, lock = [], threading.Lock()

    def record(i):
        with lock:
            events.append(("start", i, threading.current_thread()))
        if i == 0:  # a costly first item: the other threads go on taking
            time.sleep(0.05)
        with lock:
            events.append(("end", i, threading.current_thread()))

    cpus_module.deal(record, range(8), 1)
    starts = [(i, thread) for kind, i, thread in events if kind == "start"]
    assert sorted(i for i, _ in starts) == list(range(8))  # each item runs once
    ended_at = {i: n for n, (kind, i, _) in enumerate(events) if kind == "end"}
    by_thread = {}
    for i, thread in starts:
        by_thread.setdefault(thread, []).append(i)
    for run in by_thread.values():
        assert run == sorted(run)  # each thread runs its items in order
        # a thread takes its next item after its last one ended, and so
        # after every item that had started by then was taken: as the
        # queue hands out items in order, the next one is above them all
        for last, following in zip(run, run[1:]):
            assert all(i < following for kind, i, _ in events[: ended_at[last]]
                       if kind == "start")


@pytest.mark.parametrize("n_items, item_bytes", [(1, 1), (5, cpus_module.SCRATCH_BUDGET)])
def test_one_item_or_one_items_budget_starts_no_thread(n_items, item_bytes, monkeypatch,
                                                       recorded_pools):
    monkeypatch.setattr(cpus_module, "cpu_count", lambda: 8)
    ran = []
    cpus_module.deal(lambda i: ran.append((i, threading.current_thread())), range(n_items),
                     item_bytes)
    assert ran == [(i, threading.main_thread()) for i in range(n_items)]
    assert recorded_pools == []


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_the_lowest_failing_item_raises(cpus, monkeypatch):
    monkeypatch.setattr(cpus_module, "cpu_count", lambda: cpus)
    errors = {i: ValueError(f"item {i}") for i in (3, 5, 6)}

    def fail(i):
        if i in errors:
            raise errors[i]

    with pytest.raises(ValueError) as raised:
        cpus_module.deal(fail, range(9), 1)
    assert raised.value is errors[3]


@pytest.mark.parametrize("cpus", [2, 3, 8])
def test_synthesis_gives_the_same_bytes_on_any_number_of_cpus(cpus, monkeypatch,
                                                              fast_switching):
    serial = cd.generate_corpus(3, 1.0 / 3.0, [1800, 3000], seed=61, duration_s=0.5)
    monkeypatch.setattr(cpus_module, "cpu_count", lambda: cpus)
    dealt = cd.generate_corpus(3, 1.0 / 3.0, [1800, 3000], seed=61, duration_s=0.5)
    assert [it.spec for it in dealt] == [it.spec for it in serial]
    assert [it.item_id for it in dealt] == [it.item_id for it in serial]
    for a, b in zip(dealt, serial):
        assert a.signal.samples.tobytes() == b.signal.samples.tobytes()
        assert np.array_equal(a.signal.samples, cd.generate(a.spec).samples)


@pytest.mark.parametrize("cpus", [2, 3, 8])
def test_extraction_gives_the_same_bytes_on_any_number_of_cpus(cpus, monkeypatch,
                                                                fast_switching, small_corpus):
    pairs = mixed_pairs(small_corpus)
    serial = cd.build_dataset(pairs, split_seed=5, test_fraction=0.25)
    # the serial records are the kept frames in signal order
    frames = [cd.extract_frames(sig) for sig, _, _ in pairs]
    kept = [(i, frame) for i, ((_, track, _), signal_frames) in enumerate(zip(pairs, frames))
            for frame in signal_frames
            if track.label_for_span(frame.t_start_s, frame.t_start_s + 0.1) is not None]
    assert serial.manifest["dropped_frames"] == 14  # 4 of signal 1, 10 of signal 4
    assert serial.records["source"].tolist() == [i for i, _ in kept]
    assert serial.records["frame_index"].tolist() == [frame.frame_index for _, frame in kept]
    assert np.array_equal(serial.records["lines"], [frame.lines for _, frame in kept])
    monkeypatch.setattr(cpus_module, "cpu_count", lambda: cpus)
    dealt = cd.build_dataset(pairs, split_seed=5, test_fraction=0.25)
    assert dealt.manifest == serial.manifest
    assert dealt.records.tobytes() == serial.records.tobytes()


def nyquist_pairs(small_corpus):
    """Six signals at the default rate, then one at 10 000 Hz and one at
    8 000 Hz: at f_max 6 000 Hz both later ones fail."""
    pairs = pairs_of(small_corpus[:6])
    track = LabelTrack((LabelInterval(0.0, 1.0, MachiningClass.CHATTER),))
    for rate in (10_000.0, 8_000.0):
        samples = np.random.default_rng(int(rate)).standard_normal(int(rate))
        pairs.append((TimeSignal(samples, rate), track, False))
    return pairs


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_extraction_raises_the_serial_error(cpus, monkeypatch, small_corpus):
    monkeypatch.setattr(cpus_module, "cpu_count", lambda: cpus)
    before = threading.active_count()
    with pytest.raises(BandExceedsNyquist, match="Nyquist 5000 Hz"):
        cd.build_dataset(nyquist_pairs(small_corpus), SpectralConfig(f_max_hz=6000.0))
    assert threading.active_count() == before


def test_dealing_leaves_no_thread_running(monkeypatch, small_corpus):
    monkeypatch.setattr(cpus_module, "cpu_count", lambda: 3)
    before = threading.active_count()
    cd.generate_corpus(2, 0.0, [1800], seed=3, duration_s=0.2)
    assert threading.active_count() == before
    cd.build_dataset(pairs_of(small_corpus))
    assert threading.active_count() == before


def test_long_signals_cap_the_pool_on_many_cpus(monkeypatch, recorded_pools):
    monkeypatch.setattr(cpus_module, "cpu_count", lambda: 64)
    # a 4 s signal's synthesis peaks near 48 bytes a sample, 4.0 MiB:
    # 3 fit the 16 MiB budget, the caller and 2 helpers
    items = cd.generate_corpus(2, 0.0, [1800, 3000], seed=8, duration_s=4.0)
    assert recorded_pools == [2]
    # one pass over 32 frames of a 4 s signal holds 9.2 MiB: one at a time
    cd.build_dataset(pairs_of(items))
    assert recorded_pools == [2]
    # ten 1 s frames hold 2.8 MiB: 5 fit, and 6 signals use them all
    cd.build_dataset([(TimeSignal(s.samples[:22050], s.sample_rate_hz), track, amb)
                      for s, track, amb in pairs_of(items)])
    assert recorded_pools == [2, 4]


def test_synthesis_and_extraction_are_looked_up_per_call(monkeypatch, small_corpus):
    # a benchmark times them by replacing these module globals
    monkeypatch.setattr(cpus_module, "cpu_count", lambda: 2)
    calls = []
    for module, name in ((synth_module, "generate"), (dataset_module, "extract_frames")):
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    cd.generate_corpus(1, 0.0, [1800], seed=3, duration_s=0.2)
    cd.build_dataset(pairs_of(small_corpus[:4]))
    assert sorted(calls) == ["extract_frames"] * 4 + ["generate"] * 3


def test_only_the_cpus_module_places_threads():
    placing = re.compile(r"\b(ThreadPoolExecutor|sched_setaffinity|sched_getcpu)\b")
    offenders = {
        path.name: sorted(set(placing.findall(path.read_text(encoding="utf-8"))))
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "cpus.py"
    }
    assert {name: found for name, found in offenders.items() if found} == {}


# A 1-epoch train at batch 2 whose conv2 weight gradient rounds differently
# on two OpenBLAS threads; prints the model's sha256.
TRAIN_ONE_EPOCH = """
import hashlib, sys
if sys.argv[1] == "numpy-first":
    import numpy
import chatterdetect as cd
items = cd.generate_corpus(4, 0.0, [1800, 3000], seed=5)
ds = cd.build_dataset([(it.signal, it.labels, it.ambiguous) for it in items],
                      split_seed=1, test_fraction=0.25, source_ids=[it.item_id for it in items])
model = cd.train(cd.build_model(3), ds, cd.Hyperparameters(epochs=1, rng_seed=3))
print(hashlib.sha256(model.flat.tobytes()).hexdigest())
"""


def train_digest(order, **blas_vars):
    env = {k: v for k, v in os.environ.items() if k not in cpus_module.BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE.parent), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", TRAIN_ONE_EPOCH, order], env=env | blas_vars,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "BLAS" not in proc.stderr  # the pin took effect
    return proc.stdout


# the package pins BLAS before numpy loads, or after through numpy's OpenBLAS
@pytest.mark.parametrize("order", ["package-first", "numpy-first"])
def test_training_is_pinned_to_one_blas_thread_unless_a_count_is_set(order):
    assert train_digest(order) == train_digest(order, OPENBLAS_NUM_THREADS="1")


def test_no_module_restates_the_class_count():
    restating = re.compile(r"\bN_CLASSES\b|\(\s*3\s*,\s*3\s*\)")
    offenders = {
        path.name: sorted(set(restating.findall(path.read_text(encoding="utf-8"))))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in offenders.items() if found} == {}


def test_network_matrix_and_dataset_take_len_machining_class_classes(tmp_path, small_dataset):
    n = len(MachiningClass)
    assert cd.build_model(0).layers[-1].n_out == n

    accepted = []
    for k in range(1, n + 3):
        try:
            cd.ConfusionMatrix(np.zeros((k, k)))
        except ValueError:
            continue
        accepted.append(k)
    assert accepted == [n]

    cd.save_dataset(small_dataset, tmp_path / "ds")
    path = tmp_path / "ds" / FRAMES_FILE
    blob = bytearray(path.read_bytes())
    labels = np.frombuffer(blob, dtype=record_dtype(small_dataset.n_lines), offset=8)["label"]
    for code in range(256):
        labels[0] = code
        path.write_bytes(bytes(blob))
        try:
            cd.load_dataset(tmp_path / "ds")
        except CorruptDataset:
            break
    assert code == n
