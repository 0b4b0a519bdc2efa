"""Per-frame renormalized spectra.

The classifier input is built here: the signal is cut into 0.1 s frames,
each frame is Hann-windowed, zero-padded and FFT'd, the magnitudes are
resampled onto a uniform 1024-line grid over 0-2500 Hz, and finally each
frame is expressed in dB relative to its own maximum with everything
below -20 dB clamped to the floor. That last step erases the absolute
amplitude: scaling the input signal by any positive factor leaves the
frame unchanged.

To make the amplitude erasure hold bit-for-bit (not merely to rounding),
every non-zero window is first rescaled to unit peak and snapped to a
1/32768 grid -- the same resolution a 16-bit recording has anyway. Two
windows that differ only by a positive scale factor therefore quantize
to identical arrays before the FFT ever sees them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import defaults
from .errors import BandExceedsNyquist, FftTooLong, HopTooShort, WindowTooShort, write_bytes
from .signal_io import TimeSignal

PEAK_QUANT_LEVELS = 32768
MIN_WINDOW_SAMPLES = 16
# 16x the default 16 384 points; room for 16 384 lines over 0-2500 Hz at 22 050 Hz
MAX_FFT_POINTS = 1 << 18

# Frames per FFT pass in extract_frames. A frame's complex spectrum is
# 8 193 complex128 bins (128 KB) at the default config and 22 050 Hz, so a
# 240 s recording in one pass would need 315 MB of spectra; 32 frames need 4 MB.
_CHUNK = 32


@dataclass(frozen=True)
class SpectralConfig:
    """Framing and spectrum parameters for a Hann window and a line grid
    from 0 Hz. Defaults are the paper-pinned values."""

    hop_s: float = defaults.HOP_S
    window_s: float = defaults.WINDOW_S
    n_lines: int = defaults.N_LINES
    f_max_hz: float = defaults.F_MAX_HZ
    crop_db: float = defaults.CROP_DB

    def __post_init__(self):
        # each check is written so that NaN fails it
        for name in ("hop_s", "window_s", "f_max_hz", "crop_db"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if isinstance(self.n_lines, bool) or not isinstance(self.n_lines, (int, np.integer)):
            raise ValueError("n_lines must be an integer")
        if not self.n_lines >= 2:
            raise ValueError("n_lines must be at least 2")
        # plain Python numbers, the defaults' types, so any artifact's repr of one reads back
        for field in fields(self):
            object.__setattr__(self, field.name, type(field.default)(getattr(self, field.name)))

    def grid_hz(self) -> np.ndarray:
        """The uniform frequency grid: line 0 at 0 Hz, line n_lines-1 at f_max."""
        return np.arange(self.n_lines) * (self.f_max_hz / (self.n_lines - 1))


@dataclass(frozen=True, eq=False)
class SpectralFrame:
    """One frame's renormalized spectrum: n_lines dB values in [-crop_db, 0]."""

    frame_index: int
    t_start_s: float
    lines: np.ndarray  # float32


def frame_counts(n_samples: int, sample_rate_hz: float, config: SpectralConfig):
    """(hop, window) in samples for this rate, plus how many frames fit.
    Also checks the band and the FFT length, so callers can size their output first."""
    # capped so a product past float range still rounds (to one frame, or FftTooLong)
    hop_n = int(round(min(config.hop_s * sample_rate_hz, 2.0**62)))
    window_n = int(round(min(config.window_s * sample_rate_hz, 2.0**62)))
    if window_n < MIN_WINDOW_SAMPLES:
        raise WindowTooShort(
            f"window of {window_n} samples is below the {MIN_WINDOW_SAMPLES}-sample minimum"
        )
    if hop_n < 1:
        raise HopTooShort(f"hop of {config.hop_s:g} s rounds to zero samples")
    _n_fft(window_n, sample_rate_hz, config)
    n_frames = (n_samples - window_n) // hop_n + 1 if n_samples >= window_n else 0
    return hop_n, window_n, n_frames


def frame_signal(signal: TimeSignal, config: SpectralConfig = SpectralConfig()) -> np.ndarray:
    """The signal's frames as a read-only (n_frames, window_n) view.

    Row k holds samples [k*hop_n, k*hop_n + window_n); trailing samples
    that do not fill a whole window are dropped.
    """
    x = signal.samples
    return _frames(x, *frame_counts(x.size, signal.sample_rate_hz, config))


def _frames(x: np.ndarray, hop_n: int, window_n: int, n_frames: int) -> np.ndarray:
    if hop_n == window_n:
        # windows that abut, as at the defaults: a reshape, which takes a
        # fifth of the time a strided view takes to make
        frames = x[: n_frames * window_n].reshape(n_frames, window_n)
        frames.flags.writeable = False
        return frames
    (step,) = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (n_frames, window_n), (hop_n * step, step), writeable=False
    )


@lru_cache(maxsize=8)
def _hann(n: int) -> np.ndarray:
    return np.hanning(n)


def _n_fft(window_n: int, sample_rate_hz: float, config: SpectralConfig) -> int:
    if config.f_max_hz > sample_rate_hz / 2:
        raise BandExceedsNyquist(
            f"f_max {config.f_max_hz:g} Hz exceeds Nyquist {sample_rate_hz / 2:g} Hz"
        )
    # Smallest power of two whose raw bin spacing is at most the output
    # grid spacing, so the grid resampling never skips a bin.
    grid_df = config.f_max_hz / (config.n_lines - 1)
    bins = sample_rate_hz / grid_df if grid_df > 0 else np.inf  # f_max may underflow
    if max(window_n, bins) > MAX_FFT_POINTS:
        raise FftTooLong(f"{config} at {sample_rate_hz:g} Hz needs an FFT of more than "
                         f"{MAX_FFT_POINTS} points")
    need = max(window_n, int(np.ceil(bins)))
    return 1 << int(need - 1).bit_length()


def prepare_window(window: np.ndarray) -> np.ndarray:
    """The exact rows the FFT runs on: each rescaled to unit peak, snapped
    to the 1/32768 grid and Hann-tapered. The FFT pads them with zeros.

    The snap is what makes the downstream frames exactly scale-invariant:
    scaled copies of a window land on the same quantized array.
    """
    x = np.asarray(window, dtype=np.float64)
    peak = np.abs(x).max(axis=-1, keepdims=True)
    peak[peak == 0] = np.inf  # a zero peak gives a zero scale
    x = np.rint(x * (PEAK_QUANT_LEVELS / peak)) / PEAK_QUANT_LEVELS
    return np.multiply(x, _hann(x.shape[-1]), out=x)


@lru_cache(maxsize=8)
def _axes(n_fft: int, sample_rate_hz: float, config: SpectralConfig):
    """The rfft bin frequencies the line grid reads, and the grid, made
    once per framing.

    The bins stop at the first one above the last grid line: np.interp
    reads no further, so cutting the axis there changes no bit. At
    f_max = Nyquist the cut keeps the whole axis.
    """
    freqs, grid = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate_hz), config.grid_hz()
    return freqs[: np.searchsorted(freqs, grid[-1], side="right") + 1], grid


def magnitude_spectrum(
    window: np.ndarray, sample_rate_hz: float, config: SpectralConfig = SpectralConfig()
) -> np.ndarray:
    """FFT magnitudes of each row linearly interpolated onto the line grid."""
    window = np.asarray(window, dtype=np.float64)
    if window.size == 0:
        raise ValueError("window must be non-empty")
    n_fft = _n_fft(window.shape[-1], sample_rate_hz, config)
    freqs, grid = _axes(n_fft, sample_rate_hz, config)
    # a shorter transform would change the frames, but only the bins the
    # grid reads need a magnitude
    mags = np.abs(np.fft.rfft(prepare_window(window), n=n_fft)[..., : freqs.size])
    out = np.empty(mags.shape[:-1] + grid.shape)
    for row, lines in zip(mags.reshape(-1, freqs.size), out.reshape(-1, grid.size)):
        lines[...] = np.interp(grid, freqs, row)
    return out


def renormalize(
    magnitudes: np.ndarray, config: SpectralConfig = SpectralConfig()
) -> np.ndarray:
    """Express each row in dB relative to its maximum, floored at -crop_db.

    Zero magnitudes map to the floor; an all-zero row maps to a uniform
    floor frame. For any other row the maximum line is exactly 0 dB.
    Scaling a row by a positive constant leaves its result unchanged --
    this is the amplitude erasure.
    """
    m = np.asarray(magnitudes, dtype=np.float64)
    if not np.all(m >= 0):
        raise ValueError("magnitudes must be non-negative, not NaN")
    floor = -config.crop_db
    peak = m.max(axis=-1, keepdims=True, initial=0.0)
    peak[peak == 0] = np.inf  # so an all-zero row has all-zero ratios
    with np.errstate(divide="ignore"):  # a zero ratio is -inf dB: the floor
        lines = np.maximum(20.0 * np.log10(m / peak), floor)
    return lines.astype(np.float32)


def frame_lines_valid(lines: np.ndarray, crop_db: float):
    """Range/maximum invariant used when validating persisted frames, along
    the last axis: every line in [-crop_db, 0] dB, and the maximum 0 dB or
    the whole frame at the floor. NaN lines fail it."""
    floor = np.float32(-crop_db)
    lo, hi = lines.min(axis=-1), lines.max(axis=-1)
    return (lo >= floor) & (hi <= 0) & ((hi == 0) | (hi == floor))


def extract_scratch(
    window_n: int, n_frames: int, sample_rate_hz: float, config: SpectralConfig
) -> int:
    """Bytes extract_frames holds at most for n_frames frames of window_n
    samples: a pass's float64 windows and padded rows, their complex
    spectra, and every frame's lines. Numpy < 2 pads the rows by copying;
    numpy 2 pads inside `rfft`, and 32 frames at the defaults measured
    4.6 MiB under tracemalloc against the 9.2 MiB this gives."""
    n_fft = _n_fft(window_n, sample_rate_hz, config)
    return min(n_frames, _CHUNK) * 16 * (n_fft + window_n) + n_frames * 4 * config.n_lines


def extract_frames(
    signal: TimeSignal, config: SpectralConfig = SpectralConfig()
) -> list[SpectralFrame]:
    """Run the whole pipeline over a signal, _CHUNK frames per pass."""
    x, rate = signal.samples, signal.sample_rate_hz
    hop_n, window_n, n_frames = frame_counts(x.size, rate, config)
    windows = _frames(x, hop_n, window_n, n_frames)
    out = []
    for first in range(0, len(windows), _CHUNK):
        mags = magnitude_spectrum(windows[first : first + _CHUNK], rate, config)
        out.extend(
            SpectralFrame(frame_index=k, t_start_s=k * hop_n / rate, lines=lines)
            for k, lines in enumerate(renormalize(mags, config), first)
        )
    return out


PGM_HEIGHT = 64


def export_frame_pgm(
    frame: SpectralFrame, path, config: SpectralConfig = SpectralConfig()
) -> None:
    """Render a frame as a binary PGM: column j filled bottom-up with white
    to a height proportional to (line_j + crop_db) / crop_db."""
    crop = config.crop_db
    heights = np.rint(
        PGM_HEIGHT * (frame.lines.astype(np.float64) + crop) / crop
    ).astype(int)
    heights = np.clip(heights, 0, PGM_HEIGHT)
    rows = np.arange(PGM_HEIGHT)[:, None]  # row 0 is the top of the image
    img = np.where(rows >= PGM_HEIGHT - heights[None, :], 255, 0).astype(np.uint8)
    header = f"P5\n{frame.lines.size} {PGM_HEIGHT}\n255\n".encode("ascii")
    write_bytes(path, header, img)
