import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chatterdetect as cd
from chatterdetect.errors import (
    AmplitudeOutOfRange,
    EmptyTrack,
    MalformedContainer,
    NonFiniteSamples,
    OverlappingIntervals,
    ParseError,
    SampleRateTooLow,
    UnknownLabel,
    UnsupportedEncoding,
)


def wav_bytes(rate, payload, audio_format=1, n_channels=1, bits=16):
    """Hand-rolled WAV container, independent of the library writer."""
    block = n_channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, audio_format, n_channels, rate, rate * block, block, bits
    )
    header += b"data" + struct.pack("<I", len(payload))
    return header + payload


def test_load_wav_silence(tmp_path):
    payload = np.zeros(22050, dtype="<i2").tobytes()
    path = tmp_path / "silence.wav"
    path.write_bytes(wav_bytes(22050, payload))
    sig = cd.load_wav(path)
    assert sig.sample_rate_hz == 22050
    assert sig.samples.shape == (22050,)
    assert np.all(sig.samples == 0.0)


def test_wav_round_trip_sine(tmp_path):
    t = np.arange(22050) / 22050.0
    sig = cd.TimeSignal(0.5 * np.sin(2 * np.pi * 1000.0 * t), 22050.0)
    path = tmp_path / "sine.wav"
    cd.save_wav(sig, path)
    back = cd.load_wav(path)
    assert back.sample_rate_hz == 22050
    assert np.max(np.abs(back.samples - sig.samples)) <= 1.0 / 32768


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=400,
    )
)
def test_wav_round_trip_property(tmp_path_factory, samples):
    path = tmp_path_factory.mktemp("wav") / "x.wav"
    sig = cd.TimeSignal(np.array(samples), 22050.0)
    cd.save_wav(sig, path)
    back = cd.load_wav(path)
    assert back.samples.size == sig.samples.size
    assert np.max(np.abs(back.samples - sig.samples)) <= 2.0**-15


def test_load_wav_float32(tmp_path):
    values = np.linspace(-0.9, 0.9, 1000, dtype="<f4")
    path = tmp_path / "f32.wav"
    path.write_bytes(wav_bytes(22050, values.tobytes(), audio_format=3, bits=32))
    sig = cd.load_wav(path)
    assert np.array_equal(sig.samples, values.astype(np.float64))


def test_load_wav_rejects_low_rate(tmp_path):
    path = tmp_path / "slow.wav"
    path.write_bytes(wav_bytes(4000, np.zeros(100, dtype="<i2").tobytes()))
    with pytest.raises(SampleRateTooLow):
        cd.load_wav(path)


def test_load_wav_rejects_garbage(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"this is not a wav file at all, sorry")
    with pytest.raises(MalformedContainer):
        cd.load_wav(path)


def test_load_wav_rejects_unsupported_encoding(tmp_path):
    # 8-bit PCM is not in the supported set
    path = tmp_path / "pcm8.wav"
    path.write_bytes(wav_bytes(22050, bytes(100), audio_format=1, bits=8))
    with pytest.raises(UnsupportedEncoding):
        cd.load_wav(path)


def test_load_wav_multichannel_uses_channel_zero(tmp_path):
    left = np.arange(-50, 50, dtype="<i2")
    right = np.zeros(100, dtype="<i2")
    interleaved = np.empty(200, dtype="<i2")
    interleaved[0::2] = left
    interleaved[1::2] = right
    path = tmp_path / "stereo.wav"
    path.write_bytes(wav_bytes(22050, interleaved.tobytes(), n_channels=2))
    with pytest.warns(UserWarning):
        sig = cd.load_wav(path)
    assert np.array_equal(sig.samples, left.astype(np.float64) / 32768)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_are_rejected(tmp_path, bad):
    values = np.zeros(1000, dtype="<f4")
    values[500] = bad
    with pytest.raises(NonFiniteSamples):
        cd.TimeSignal(values.astype(np.float64), 22050.0)
    path = tmp_path / "f32.wav"
    path.write_bytes(wav_bytes(22050, values.tobytes(), audio_format=3, bits=32))
    with pytest.raises(NonFiniteSamples):
        cd.load_wav(path)


@pytest.mark.parametrize("rate", [np.nan, np.inf])
def test_non_finite_sample_rate_is_rejected(rate):
    with pytest.raises(NonFiniteSamples):
        cd.TimeSignal(np.zeros(2205), rate)


@pytest.mark.parametrize("n_channels,block_align", [(3, 2), (1, 4), (2, 2), (0, 0)])
def test_load_wav_rejects_block_align_that_does_not_fit(tmp_path, n_channels, block_align):
    blob = bytearray(wav_bytes(22050, np.zeros(600, dtype="<i2").tobytes()))
    # the fmt chunk's channel count and block_align fields
    struct.pack_into("<H", blob, 22, n_channels)
    struct.pack_into("<H", blob, 32, block_align)
    path = tmp_path / "odd.wav"
    path.write_bytes(bytes(blob))
    with pytest.raises(MalformedContainer):
        cd.load_wav(path)


def test_save_wav_zeros_writes_zero_frames(tmp_path):
    path = tmp_path / "z.wav"
    cd.save_wav(cd.TimeSignal(np.zeros(64), 22050.0), path)
    blob = path.read_bytes()
    assert blob[-128:] == bytes(128)  # 64 zero-valued 16-bit frames


def test_save_wav_memory_stays_near_one_float_copy(tmp_path):
    # quantizing needs one float64 copy (8 bytes per sample) and the PCM16
    # output (2); a second float64 temporary would make it 16 or more
    n = 1 << 21
    sig = cd.TimeSignal(np.random.default_rng(0).uniform(-1.0, 1.0, n), 22050.0)
    path = tmp_path / "long.wav"
    tracemalloc.start()
    try:
        cd.save_wav(sig, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * n
    assert np.max(np.abs(cd.load_wav(path).samples - sig.samples)) <= 1.0 / 32768


def test_save_wav_amplitude_out_of_range(tmp_path):
    sig = cd.TimeSignal(np.array([0.0, 1.5, 0.0]), 22050.0)
    with pytest.raises(AmplitudeOutOfRange):
        cd.save_wav(sig, tmp_path / "loud.wav")


def test_save_wav_rate_beyond_the_header_is_unsupported(tmp_path):
    # the u32 byte rate holds 2 bytes a sample up to 2**31 - 1 Hz
    path = tmp_path / "fast.wav"
    with pytest.raises(UnsupportedEncoding, match="sample rate 5000000000 Hz"):
        cd.save_wav(cd.TimeSignal(np.full(100, 0.1), 5e9), path)
    with pytest.raises(UnsupportedEncoding, match="sample rate 2147483648 Hz"):
        cd.save_wav(cd.TimeSignal(np.full(100, 0.1), 2.0**31), path)
    assert not path.exists()
    cd.save_wav(cd.TimeSignal(np.full(100, 0.1), 2**31 - 1), path)
    assert cd.load_wav(path).sample_rate_hz == 2**31 - 1


def test_load_labels_single_interval(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("0.0,2.0,chatter\n")
    track = cd.load_labels(path)
    assert track.intervals == (
        cd.LabelInterval(0.0, 2.0, cd.MachiningClass.CHATTER),
    )


def test_load_labels_sorts_by_start(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("# comment line\n4.0,5.0,rotation\n0.0,1.0,chatter\n2.0,3.0,machining\n")
    track = cd.load_labels(path)
    starts = [iv.start_s for iv in track.intervals]
    assert starts == sorted(starts) == [0.0, 2.0, 4.0]


def test_load_labels_overlap(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("0,1,machining\n0.5,2,chatter\n")
    with pytest.raises(OverlappingIntervals):
        cd.load_labels(path)


def test_load_labels_touching_intervals_are_legal(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("0,1,machining\n1,2,chatter\n")
    assert len(cd.load_labels(path).intervals) == 2


def test_load_labels_unknown_label(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("0,1,grinding\n")
    with pytest.raises(UnknownLabel):
        cd.load_labels(path)


def test_load_labels_parse_errors(tmp_path):
    for text in ("0,1\n", "a,b,chatter\n", "2,1,chatter\n"):
        path = tmp_path / "l.csv"
        path.write_text(text)
        with pytest.raises(ParseError):
            cd.load_labels(path)


def test_load_labels_rejects_non_utf8(tmp_path):
    path = tmp_path / "l.csv"
    path.write_bytes(b"0,1,chatter\n\xff,2,rotation\n")
    with pytest.raises(ParseError):
        cd.load_labels(path)


def test_load_labels_empty(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text("# only a comment\n")
    with pytest.raises(EmptyTrack):
        cd.load_labels(path)


def test_labels_round_trip(tmp_path):
    track = cd.LabelTrack(
        (
            cd.LabelInterval(0.0, 1.5, cd.MachiningClass.CHATTER),
            cd.LabelInterval(1.5, 2.0, cd.MachiningClass.ROTATION_NO_MACHINING),
        )
    )
    path = tmp_path / "t.csv"
    cd.save_labels(track, path)
    assert cd.load_labels(path) == track


def test_label_for_span_containment():
    track = cd.LabelTrack(
        (
            cd.LabelInterval(0.0, 1.0, cd.MachiningClass.CHATTER),
            cd.LabelInterval(2.0, 3.0, cd.MachiningClass.MACHINING_NO_CHATTER),
        )
    )
    assert track.label_for_span(0.2, 0.3) == cd.MachiningClass.CHATTER
    assert track.label_for_span(0.9, 1.1) is None  # straddles the end
    assert track.label_for_span(1.2, 1.4) is None  # gap: unlabeled
