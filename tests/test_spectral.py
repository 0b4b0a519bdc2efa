import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chatterdetect as cd
from chatterdetect import spectral
from chatterdetect.errors import BandExceedsNyquist, FftTooLong, WindowTooShort
from chatterdetect.spectral import (
    SpectralConfig,
    frame_lines_valid,
    prepare_window,
)

FS = 22050.0
CFG = SpectralConfig()


def make_signal(n):
    return cd.TimeSignal(np.zeros(n), FS)


def expected_frame_count(n, window_n=2205, hop_n=2205):
    return (n - window_n) // hop_n + 1 if n >= window_n else 0


def framed(signal, config=CFG):
    """The signal's windows as extract_frames cuts them."""
    x = signal.samples
    return spectral._frames(x, *spectral.frame_counts(x.size, signal.sample_rate_hz, config))


def test_frame_count_one_second():
    frames = framed(make_signal(22050), CFG)
    assert len(frames) == 10 == expected_frame_count(22050)


def test_frame_count_too_short():
    assert framed(make_signal(int(0.05 * FS)), CFG).shape == (0, 2205)


def test_frame_count_partial_tail_dropped():
    n = int(0.95 * FS)
    frames = framed(make_signal(n), CFG)
    assert len(frames) == 9 == expected_frame_count(n)


# abutting windows (the default), framed by a reshape, and overlapping
# ones, framed by a strided view
@pytest.mark.parametrize("hop_s", [0.1, 0.05])
def test_frame_windows_cover_expected_samples(hop_s):
    sig = cd.TimeSignal(np.arange(22050, dtype=float), FS)
    hop_n = round(hop_s * FS)
    frames = framed(sig, SpectralConfig(hop_s=hop_s))
    assert frames.shape == (expected_frame_count(22050, hop_n=hop_n), 2205)
    assert not frames.flags.writeable and np.shares_memory(frames, sig.samples)
    for k, window in enumerate(frames):
        assert np.array_equal(window, np.arange(k * hop_n, k * hop_n + 2205))


def test_window_too_short():
    with pytest.raises(WindowTooShort):
        framed(make_signal(22050), SpectralConfig(window_s=0.0001))


def test_band_exceeds_nyquist():
    with pytest.raises(BandExceedsNyquist):
        cd.magnitude_spectrum(np.ones(2205), FS, SpectralConfig(f_max_hz=20000))


def test_a_rate_below_the_default_band_frames_under_a_band_it_covers():
    sig = cd.TimeSignal(np.sin(2 * np.pi * 440.0 * np.arange(4000) / 4000.0), 4000.0)
    frames = cd.extract_frames(sig, SpectralConfig(f_max_hz=1500.0))
    assert len(frames) == 10
    # a recording too short for one frame is refused too, not framed into none
    for samples in (sig.samples, sig.samples[:300]):
        with pytest.raises(BandExceedsNyquist, match="f_max 2500 Hz exceeds Nyquist 2000 Hz"):
            cd.extract_frames(cd.TimeSignal(samples, 4000.0), CFG)


@pytest.mark.parametrize(
    "config",
    [SpectralConfig(f_max_hz=0.001), SpectralConfig(n_lines=100_000_000),
     SpectralConfig(window_s=1e308), SpectralConfig(f_max_hz=5e-324)],
    ids=["fmax-0.001", "lines-1e8", "window-1e308", "fmax-underflows"],
)
def test_fft_over_the_bound_is_refused_before_framing(config):
    with pytest.raises(FftTooLong):
        spectral.frame_counts(22050, FS, config)


def test_fft_bound_admits_16384_lines_at_the_default_band():
    assert spectral._n_fft(2205, FS, SpectralConfig(n_lines=16384)) == spectral.MAX_FFT_POINTS


def test_hop_beyond_any_signal_gives_one_frame():
    assert spectral.frame_counts(22050, FS, SpectralConfig(hop_s=1e308)) == (2**62, 2205, 1)


def test_zero_window_gives_zero_magnitudes():
    mags = cd.magnitude_spectrum(np.zeros(2205), FS, CFG)
    assert np.all(mags == 0.0)


def test_pure_tone_peak_localization():
    t = np.arange(2205) / FS
    grid = CFG.grid_hz()
    for f0 in (1000.0, 123.4, 777.0, 2400.0):
        mags = cd.magnitude_spectrum(np.sin(2 * np.pi * f0 * t), FS, CFG)
        nearest_line = int(np.argmin(np.abs(grid - f0)))
        assert abs(int(np.argmax(mags)) - nearest_line) <= 1


def test_equal_tones_have_equal_peaks():
    t = np.arange(2205) / FS
    window = np.sin(2 * np.pi * 500.0 * t) + np.sin(2 * np.pi * 2000.0 * t)
    mags = cd.magnitude_spectrum(window, FS, CFG)
    grid = CFG.grid_hz()
    peak_500 = mags[np.abs(grid - 500.0) < 10.0].max()
    peak_2000 = mags[np.abs(grid - 2000.0) < 10.0].max()
    assert abs(peak_500 - peak_2000) <= 0.05 * max(peak_500, peak_2000)


def test_parseval_on_prepared_windows():
    rng = np.random.default_rng(5)
    for _ in range(20):
        window = rng.standard_normal(2205)
        x = prepare_window(window)
        n_fft = spectral._n_fft(x.size, FS, CFG)  # the length the pipeline transforms
        spectrum = np.fft.fft(x, n=n_fft)
        time_energy = float(np.sum(x * x))
        freq_energy = float(np.sum(np.abs(spectrum) ** 2)) / n_fft
        assert abs(time_energy - freq_energy) <= 1e-6 * time_energy


def test_grid_endpoints():
    grid = CFG.grid_hz()
    assert grid[0] == 0.0
    assert grid[-1] == pytest.approx(CFG.f_max_hz, abs=1e-9)
    assert grid.size == CFG.n_lines


def test_renormalize_constant_is_all_zero_db():
    lines = cd.renormalize(np.full(8, 3.7), CFG)
    assert np.all(lines == np.float32(0.0))


def test_renormalize_known_values():
    lines = cd.renormalize(np.array([1.0, 0.1, 0.001]), CFG)
    assert np.array_equal(lines, np.float32([0.0, -20.0, -20.0]))
    for bad in (-0.5, np.nan):
        with pytest.raises(ValueError):
            cd.renormalize(np.array([1.0, bad, 0.5]), CFG)


def test_renormalize_zero_maps_to_floor():
    lines = cd.renormalize(np.array([2.0, 0.0]), CFG)
    assert np.array_equal(lines, np.float32([0.0, -20.0]))


def test_renormalize_all_zero_input():
    lines = cd.renormalize(np.zeros(16), CFG)
    assert np.all(lines == np.float32(-20.0))


def test_renormalize_scale_cancellation():
    rng = np.random.default_rng(3)
    mags = rng.random(1024)
    for alpha in (1e-6, 0.5, 7.0, 1e6):
        assert np.array_equal(cd.renormalize(mags, CFG), cd.renormalize(alpha * mags, CFG))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_renormalize_invariants_random(seed):
    rng = np.random.default_rng(seed)
    mags = rng.random(64) * rng.choice([0.0, 1e-9, 1.0, 1e9])
    lines = cd.renormalize(mags, CFG)
    assert frame_lines_valid(lines, CFG.crop_db)


def test_amplitude_invariance_pipeline():
    rng = np.random.default_rng(11)
    sig = cd.TimeSignal(rng.standard_normal(4410) * 0.1, FS)
    base = cd.extract_frames(sig, CFG)
    # powers of two scale exactly in floating point; arbitrary factors are
    # absorbed by the canonical window quantization
    for alpha in (2.0**-10, 2.0**12, 1e-3, 1e3, 3.7):
        scaled = cd.TimeSignal(sig.samples * alpha, FS)
        for f0, f1 in zip(base, cd.extract_frames(scaled, CFG)):
            assert np.max(np.abs(f0.lines - f1.lines)) < 1e-9
            assert np.array_equal(f0.lines, f1.lines)


def test_whole_recording_frames_equal_single_window_frames():
    # more than one pass of _CHUNK frames with a partial last pass, and an
    # all-zero window and a window at full scale among them
    n_frames = 2 * spectral._CHUNK + 5
    x = 0.1 * np.random.default_rng(21).standard_normal(n_frames * 2205)
    x[3 * 2205 : 4 * 2205] = 0.0
    x[5 * 2205 : 6 * 2205] = np.sign(x[5 * 2205 : 6 * 2205])
    # overlapping windows, and abutting ones, as a stream feeds them
    for config in (SpectralConfig(hop_s=0.05), CFG):
        hop_n = round(config.hop_s * FS)
        frames = cd.extract_frames(cd.TimeSignal(x, FS), config)
        assert len(frames) == expected_frame_count(x.size, hop_n=hop_n)
        for k, frame in enumerate(frames):
            window = cd.TimeSignal(x[k * hop_n : k * hop_n + 2205], FS)
            (alone,) = cd.extract_frames(window, config)
            assert frame.frame_index == k and frame.t_start_s == k * hop_n / FS
            assert frame.lines.tobytes() == alone.lines.tobytes()
    # the default's frame 3 is the all-zero window
    assert np.all(frames[3].lines == np.float32(-CFG.crop_db))


@pytest.mark.parametrize("hop_s", [0.1, 0.05])
@pytest.mark.parametrize("n_frames", [1, 10, 32, 100])
def test_extract_scratch_bounds_the_extraction_peak(hop_s, n_frames):
    # build_dataset sizes its threads by this figure, so it must not undercount
    config = SpectralConfig(hop_s=hop_s)
    hop_n, window_n, _ = spectral.frame_counts(0, FS, config)
    x = 0.1 * np.random.default_rng(n_frames).standard_normal((n_frames - 1) * hop_n + window_n)
    signal = cd.TimeSignal(x, FS)
    cd.extract_frames(signal, config)  # fill the caches: the bound is per call
    tracemalloc.start()
    try:
        frames = cd.extract_frames(signal, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(frames) == n_frames
    assert peak < spectral.extract_scratch(window_n, n_frames, FS, config)


def test_extract_frames_invariants(small_corpus):
    frames = cd.extract_frames(small_corpus[0].signal, CFG)
    assert len(frames) == 10
    for k, frame in enumerate(frames):
        assert frame.frame_index == k
        assert frame.t_start_s == pytest.approx(k * 0.1)
        assert frame.lines.dtype == np.float32
        assert frame_lines_valid(frame.lines, CFG.crop_db)


def parse_pgm(blob):
    magic, dims, maxval, pixels = blob.split(b"\n", 3)
    width, height = map(int, dims.split())
    assert magic == b"P5" and maxval == b"255"
    img = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)
    return img


def test_export_pgm_full_and_empty(tmp_path):
    full = cd.SpectralFrame(0, 0.0, np.zeros(1024, dtype=np.float32))
    cd.export_frame_pgm(full, tmp_path / "full.pgm")
    img = parse_pgm((tmp_path / "full.pgm").read_bytes())
    assert img.shape == (64, 1024) and np.all(img == 255)

    empty = cd.SpectralFrame(0, 0.0, np.full(1024, -20.0, dtype=np.float32))
    cd.export_frame_pgm(empty, tmp_path / "empty.pgm")
    img = parse_pgm((tmp_path / "empty.pgm").read_bytes())
    assert np.all(img == 0)


def test_export_pgm_column_heights(tmp_path):
    lines = cd.renormalize(np.array([1.0, 0.1, 0.001]), CFG)
    frame = cd.SpectralFrame(0, 0.0, lines)
    cd.export_frame_pgm(frame, tmp_path / "f.pgm")
    img = parse_pgm((tmp_path / "f.pgm").read_bytes())
    # independent height rule: round(64 * (line + 20) / 20), filled bottom-up
    for j, line in enumerate(lines):
        expected = int(round(64 * (float(line) + 20.0) / 20.0))
        assert int((img[:, j] == 255).sum()) == expected


@pytest.mark.parametrize(
    "field,value",
    [
        ("hop_s", 0.0),
        ("hop_s", np.nan),
        ("hop_s", True),
        ("window_s", np.inf),
        ("n_lines", 1),
        ("n_lines", 1024.0),
        ("n_lines", True),
        ("n_lines", "1024"),
        ("f_max_hz", 0.0),
        ("f_max_hz", np.inf),
        ("crop_db", 0.0),
        ("crop_db", np.nan),
    ],
)
def test_config_validation(field, value):
    with pytest.raises(ValueError):
        SpectralConfig(**{field: value})


def test_config_n_lines_accepts_numpy_integers():
    config = SpectralConfig(n_lines=np.int64(64))
    assert cd.build_model(0, config).n_inputs == 64
