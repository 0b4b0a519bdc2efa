"""Damaged dataset, model and WAV files must fail with a ChatterError,
never with another exception."""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chatterdetect as cd
from chatterdetect.dataset import FRAMES_FILE, MANIFEST_FILE
from chatterdetect.errors import ChatterError, CorruptDataset, CorruptModel
from chatterdetect.signal_io import LabelInterval, LabelTrack, MachiningClass
from conftest import write_v1_model

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None)
# bytes before the weights: the version 2 header, or the version 1 header and layer table
MODEL_HEAD = {"v2": 64, "v1": 105}


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """A small valid dataset: 8-line frames of two short signals."""
    pairs = []
    for i, cls in enumerate((MachiningClass.CHATTER, MachiningClass.MACHINING_NO_CHATTER)):
        spec = cd.SynthSpec(cls, 1800.0, 3, 955.0, seed=i, duration_s=0.5)
        pairs.append((cd.generate(spec), LabelTrack((LabelInterval(0.0, 0.5, cls),)), i == 1))
    ds = cd.build_dataset(pairs, cd.SpectralConfig(n_lines=8), test_fraction=0.0)
    path = tmp_path_factory.mktemp("fuzz") / "ds"
    cd.save_dataset(ds, path)
    return path


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """Valid model files by version ("v2", "v1"): build_model's network
    with seeded random weights."""
    model = cd.build_model(5)
    model.flat[...] = np.random.default_rng(5).standard_normal(model.flat.size)
    root = tmp_path_factory.mktemp("fuzz")
    cd.save_model(model, root / "v2.chmd")
    write_v1_model(root / "v1.chmd", model.flat, seed=5)
    files = {version: root / f"{version}.chmd" for version in MODEL_HEAD}
    for path in files.values():
        assert np.array_equal(cd.load_model(path).flat, model.flat)
    return files


@pytest.fixture(scope="module", params=["pcm16-mono", "float32-stereo"])
def wav_file(request, tmp_path_factory):
    """A small valid WAV file of each supported encoding."""
    path = tmp_path_factory.mktemp("fuzz") / f"{request.param}.wav"
    samples = np.sin(np.arange(600) / 7.0) * 0.5
    if request.param == "pcm16-mono":
        cd.save_wav(cd.TimeSignal(samples, 22050.0), path)
    else:
        payload = np.repeat(samples, 2).astype("<f4").tobytes()
        fmt = struct.pack("<HHIIHH", 3, 2, 22050, 22050 * 8, 8, 32)
        path.write_bytes(
            b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload
        )
    return path


@st.composite
def damaged(draw, blob: bytes, head: int):
    """`blob` with a few bytes overwritten, half of them within the first
    `head` bytes, and perhaps cut short or extended."""
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        limit = draw(st.sampled_from([min(head, len(out)), len(out)]))
        out[draw(st.integers(0, limit - 1))] = draw(st.integers(0, 255))
    tail = draw(st.sampled_from(["keep", "cut", "extend"]))
    if tail == "cut":
        del out[draw(st.integers(0, len(out) - 1)) :]
    elif tail == "extend":
        out += draw(st.binary(min_size=1, max_size=64))
    return bytes(out)


def _load_only_chatter_errors(load, path):
    try:
        load(path)
    except ChatterError:
        pass


@FUZZ
@given(data=st.data())
def test_damaged_frames_file_raises_only_chatter_errors(dataset_dir, data):
    valid = (dataset_dir / FRAMES_FILE).read_bytes()
    try:
        (dataset_dir / FRAMES_FILE).write_bytes(data.draw(damaged(valid, head=16 + 20)))
        _load_only_chatter_errors(cd.load_dataset, dataset_dir)
    finally:
        (dataset_dir / FRAMES_FILE).write_bytes(valid)


@FUZZ
@given(data=st.data())
def test_damaged_manifest_raises_only_chatter_errors(dataset_dir, data):
    valid = (dataset_dir / MANIFEST_FILE).read_bytes()
    try:
        (dataset_dir / MANIFEST_FILE).write_bytes(data.draw(damaged(valid, head=len(valid))))
        _load_only_chatter_errors(cd.load_dataset, dataset_dir)
    finally:
        (dataset_dir / MANIFEST_FILE).write_bytes(valid)


@pytest.mark.parametrize("version", ["v2", "v1"])
@FUZZ
@given(data=st.data())
def test_damaged_model_file_raises_only_chatter_errors(model_files, version, data):
    path = model_files[version]
    valid = path.read_bytes()
    try:
        path.write_bytes(data.draw(damaged(valid, head=MODEL_HEAD[version])))
        _load_only_chatter_errors(cd.load_model, path)
    finally:
        path.write_bytes(valid)


@FUZZ
@given(data=st.data())
def test_damaged_wav_file_raises_only_chatter_errors(wav_file, data):
    valid = wav_file.read_bytes()
    try:
        wav_file.write_bytes(data.draw(damaged(valid, head=44)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the multi-channel notice
            _load_only_chatter_errors(cd.load_wav, wav_file)
    finally:
        wav_file.write_bytes(valid)


@pytest.mark.parametrize(
    "n_lines,n_samples",
    # sized to match the header: one 20-byte record, or none
    [(0, 1), (2**29, 0), (2**31, 0)],
)
def test_unusable_line_count_is_corrupt(dataset_dir, n_lines, n_samples):
    path = dataset_dir / FRAMES_FILE
    valid = path.read_bytes()
    try:
        path.write_bytes(valid[:8] + struct.pack("<II", n_lines, n_samples) + bytes(20 * n_samples))
        with pytest.raises(CorruptDataset):
            cd.load_dataset(dataset_dir)
    finally:
        path.write_bytes(valid)


def test_non_utf8_manifest_is_corrupt(dataset_dir):
    path = dataset_dir / MANIFEST_FILE
    valid = path.read_bytes()
    try:
        path.write_bytes(b"\xff" + valid)
        with pytest.raises(CorruptDataset):
            cd.load_dataset(dataset_dir)
    finally:
        path.write_bytes(valid)


def test_negative_seed_is_corrupt(model_files):
    # the seed is the int64 after magic, version and classes (version 2), or
    # after magic, version, lines and classes (version 1)
    for version, seed_at in (("v2", 12), ("v1", 16)):
        path = model_files[version]
        valid = path.read_bytes()
        try:
            path.write_bytes(valid[:seed_at] + struct.pack("<q", -1) + valid[seed_at + 8 :])
            with pytest.raises(CorruptModel, match="negative seed -1"):
                cd.load_model(path)
        finally:
            path.write_bytes(valid)
