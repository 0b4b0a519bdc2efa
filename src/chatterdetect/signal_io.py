"""WAV and label-track I/O for vibration recordings.

WAV support is deliberately narrow: RIFF/WAVE, mono or multi-channel,
16-bit PCM or 32-bit IEEE float, little-endian. Label tracks are plain
CSV (`start_s,end_s,label`) so they stay diff-able and hand-editable.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import (
    AmplitudeOutOfRange,
    EmptyTrack,
    MalformedContainer,
    NonFiniteSamples,
    OverlappingIntervals,
    ParseError,
    SampleRateTooLow,
    UnknownLabel,
    UnsupportedEncoding,
    read_bytes,
    read_text,
    write_bytes,
    write_lines,
)

MIN_SAMPLE_RATE_HZ = 5000.0  # Nyquist must cover the 2500 Hz analysis band
PCM16_SCALE = 32768

_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3


class MachiningClass(IntEnum):
    """The three machining phases. Integer encoding is part of the file formats."""

    CHATTER = 0
    MACHINING_NO_CHATTER = 1
    ROTATION_NO_MACHINING = 2

    @property
    def token(self) -> str:
        return _CLASS_TOKENS[self]


_CLASS_TOKENS = {
    MachiningClass.CHATTER: "chatter",
    MachiningClass.MACHINING_NO_CHATTER: "machining",
    MachiningClass.ROTATION_NO_MACHINING: "rotation",
}
_TOKEN_CLASSES = {v: k for k, v in _CLASS_TOKENS.items()}

CLASS_ORDER = (
    MachiningClass.CHATTER,
    MachiningClass.MACHINING_NO_CHATTER,
    MachiningClass.ROTATION_NO_MACHINING,
)


def class_from_token(token: str) -> MachiningClass:
    try:
        return _TOKEN_CLASSES[token.strip().lower()]
    except KeyError:
        raise UnknownLabel(f"unknown class label {token!r}") from None


@dataclass
class TimeSignal:
    """A sampled vibration waveform in dimensionless sensor units."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        # min and max are NaN or infinite exactly when a sample is, and
        # unlike isfinite they need no array as large as the signal
        if not (np.isfinite(self.samples.min()) and np.isfinite(self.samples.max())):
            raise NonFiniteSamples("samples must be finite (no NaN or infinity)")
        if not np.isfinite(self.sample_rate_hz):
            raise NonFiniteSamples(f"sample rate {self.sample_rate_hz} Hz is not finite")
        if self.sample_rate_hz < MIN_SAMPLE_RATE_HZ:
            raise SampleRateTooLow(
                f"sample rate {self.sample_rate_hz} Hz is below the "
                f"{MIN_SAMPLE_RATE_HZ:g} Hz minimum"
            )

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class LabelInterval:
    start_s: float
    end_s: float
    label: MachiningClass


@dataclass(frozen=True)
class LabelTrack:
    """Expert phase annotation: sorted, non-overlapping timed intervals.

    Gaps between intervals are legal and mean "unlabeled, excluded".
    """

    intervals: tuple[LabelInterval, ...]

    def __post_init__(self):
        if not self.intervals:
            raise EmptyTrack("label track has no intervals")
        prev_end = None
        for iv in self.intervals:
            if not iv.start_s < iv.end_s:
                raise ParseError(f"interval ({iv.start_s}, {iv.end_s}) has start >= end")
            if prev_end is not None and iv.start_s < prev_end:
                raise OverlappingIntervals(
                    f"interval starting at {iv.start_s}s overlaps the previous one"
                )
            prev_end = iv.end_s

    def label_for_span(self, t_start_s: float, t_end_s: float) -> MachiningClass | None:
        """Label of the interval fully containing [t_start, t_end), else None."""
        for iv in self.intervals:
            if iv.start_s <= t_start_s and t_end_s <= iv.end_s:
                return iv.label
        return None


def load_wav(path) -> TimeSignal:
    """Read a RIFF/WAVE file into a TimeSignal.

    16-bit PCM is scaled by 1/32768 into [-1, 1]; 32-bit float is taken
    as-is, and NaN or infinite samples are rejected. Multi-channel files
    use channel 0 (with a warning).
    """
    buf = read_bytes(path)

    if len(buf) < 12 or buf[0:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise MalformedContainer(f"{path} is not a RIFF/WAVE file")

    fmt = data = None
    pos = 12
    chunks = memoryview(buf)  # slices of it are views, not copies of the samples
    while pos + 8 <= len(buf):
        chunk_id = buf[pos : pos + 4]
        (size,) = struct.unpack_from("<I", buf, pos + 4)
        body = chunks[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise MalformedContainer(f"truncated {chunk_id!r} chunk in {path}")
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or len(fmt) < 16:
        raise MalformedContainer(f"missing or short fmt chunk in {path}")
    if data is None:
        raise MalformedContainer(f"missing data chunk in {path}")

    audio_format, n_channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if audio_format == _WAVE_FORMAT_PCM and bits == 16:
        dtype, scale = "<i2", 1.0 / PCM16_SCALE
    elif audio_format == _WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        dtype, scale = "<f4", 1.0
    else:
        raise UnsupportedEncoding(
            f"format {audio_format} / {bits} bit not supported (want PCM16 or float32)"
        )

    if n_channels < 1 or block_align != n_channels * bits // 8:
        raise MalformedContainer(
            f"{path}: block_align {block_align} does not hold {n_channels} {bits}-bit sample(s)"
        )
    if rate < MIN_SAMPLE_RATE_HZ:
        raise SampleRateTooLow(f"{path}: {rate} Hz is below {MIN_SAMPLE_RATE_HZ:g} Hz")

    usable = len(data) - len(data) % block_align
    raw = np.frombuffer(data[:usable], dtype=dtype)
    if n_channels > 1:
        warnings.warn(
            f"{path}: {n_channels} channels, using channel 0", stacklevel=2
        )
        raw = raw.reshape(-1, n_channels)[:, 0]
    if raw.size == 0:
        raise MalformedContainer(f"empty data chunk in {path}")

    return TimeSignal(raw.astype(np.float64) * scale, float(rate))


def save_wav(signal: TimeSignal, path) -> None:
    """Write a TimeSignal as mono 16-bit PCM. Samples must lie in [-1, 1],
    and the rate must fit the header: 2 bytes a sample, as a u32 byte rate."""
    rate = int(round(signal.sample_rate_hz))
    if rate * 2 > 0xFFFFFFFF:
        raise UnsupportedEncoding(
            f"sample rate {rate} Hz exceeds 16-bit PCM's {0xFFFFFFFF // 2} Hz maximum"
        )
    x = np.asarray(signal.samples, dtype=np.float64)
    # unlike abs(x).max(), this needs no array as large as the signal
    peak = float(max(x.max(), -x.min()))
    if peak > 1.0:
        raise AmplitudeOutOfRange(f"peak sample magnitude {peak:.6g} exceeds 1.0")

    # Quantize so that load_wav(save_wav(x)) is within 1/32768 per sample,
    # in place in one float64 temporary.
    q = x * PCM16_SCALE
    np.rint(q, out=q)
    q = np.clip(q, -PCM16_SCALE, PCM16_SCALE - 1, out=q).astype("<i2")
    header = b"RIFF" + struct.pack("<I", 36 + q.nbytes) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, _WAVE_FORMAT_PCM, 1, rate, rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", q.nbytes)
    write_bytes(path, header, q)


def load_labels(path) -> LabelTrack:
    """Parse a label CSV into a LabelTrack, sorted by start time.

    One record per line: ``start_s,end_s,label`` with label in
    {chatter, machining, rotation} (case-insensitive); ``#`` starts a comment.
    """
    text = read_text(path, ParseError)

    intervals = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
        try:
            start_s, end_s = float(fields[0]), float(fields[1])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad number in {line!r}") from None
        if not start_s < end_s:
            raise ParseError(f"{path}:{lineno}: start {start_s} must be < end {end_s}")
        intervals.append(LabelInterval(start_s, end_s, class_from_token(fields[2])))

    if not intervals:
        raise EmptyTrack(f"{path}: no label records")
    intervals.sort(key=lambda iv: iv.start_s)
    return LabelTrack(tuple(intervals))


def save_labels(track: LabelTrack, path) -> None:
    write_lines(
        path, [f"{iv.start_s:.6f},{iv.end_s:.6f},{iv.label.token}" for iv in track.intervals]
    )
