"""Bit-exact oracles for synthesis and spectrum extraction.

`generate` builds only the blend parts whose weight is non-zero, and
`magnitude_spectrum` takes magnitudes of only the rfft bins the line grid
reads. Each reference below is the straightforward formula that work
replaced; the fast code must reproduce it byte for byte.
"""

import math

import numpy as np
import pytest

import chatterdetect as cd
from chatterdetect.spectral import SpectralConfig, _frames, _n_fft, frame_counts, prepare_window
from chatterdetect.synth import (
    ROTATION_LEVEL, SIDEBAND_RATIO, SYNTH_SAMPLE_RATE_HZ, _harmonic_sum, _pick_chatter_tone,
)

MC = cd.MachiningClass


def generate_reference(spec):
    """Every blend part built, and every blend written out in full."""
    rng = np.random.default_rng(spec.seed)
    n = int(round(spec.duration_s * SYNTH_SAMPLE_RATE_HZ))
    t = np.arange(n) / SYNTH_SAMPLE_RATE_HZ
    rot_phases = rng.uniform(0, 2 * math.pi, 3)
    mach_phases = rng.uniform(0, 2 * math.pi, 6)
    tone_phases = rng.uniform(0, 2 * math.pi, 3)
    cls, lam = spec.signal_class, spec.ambiguity
    machining = _harmonic_sum(
        t, spec.f_tooth_pass_hz, [1.0 / h for h in range(1, 7)], mach_phases
    )
    if cls is MC.CHATTER or (cls is MC.MACHINING_NO_CHATTER and lam > 0):
        f_c = _pick_chatter_tone(rng, spec)
        tone_amp = spec.chatter_ratio
        chatter = machining + tone_amp * np.sin(2 * math.pi * f_c * t + tone_phases[0])
        for sign, phi in ((-1, tone_phases[1]), (+1, tone_phases[2])):
            f_sb = f_c + sign * spec.f_tooth_pass_hz
            chatter += SIDEBAND_RATIO * tone_amp * np.sin(2 * math.pi * f_sb * t + phi)
    if cls is MC.CHATTER:
        content = (1 - lam) * chatter + lam * machining
    elif cls is MC.MACHINING_NO_CHATTER:
        content = machining if lam == 0 else (1 - lam) * machining + lam * chatter
    else:
        rotation = _harmonic_sum(
            t, spec.f_spindle_hz, [ROTATION_LEVEL / h for h in range(1, 4)], rot_phases
        )
        content = (1 - lam) * rotation + lam * ROTATION_LEVEL * machining
    if spec.noise_sigma > 0:
        content = content + spec.noise_sigma * rng.standard_normal(n)
    return content * spec.amplitude_scale


def magnitude_spectrum_reference(window, rate, config):
    """Rows zero-padded by hand, np.abs of the whole rfft, then np.interp
    row by row over all bins."""
    tapered = prepare_window(np.asarray(window, dtype=np.float64))
    x = np.zeros(tapered.shape[:-1] + (_n_fft(tapered.shape[-1], rate, config),))
    x[..., : tapered.shape[-1]] = tapered
    mags = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(x.shape[-1], d=1.0 / rate)
    grid = config.grid_hz()
    rows = [np.interp(grid, freqs, row) for row in mags.reshape(-1, freqs.size)]
    return np.reshape(rows, mags.shape[:-1] + grid.shape)


@pytest.mark.parametrize("cls", list(MC))
@pytest.mark.parametrize("ambiguity", [0.0, 0.27])
@pytest.mark.parametrize("noise_sigma", [0.0, 0.05])
def test_generate_matches_full_blend_reference(cls, ambiguity, noise_sigma):
    spec = cd.SynthSpec(
        cls, 1800.0, 3, 955.0, chatter_ratio=2.5, noise_sigma=noise_sigma,
        amplitude_scale=0.04, duration_s=0.3, seed=31, ambiguity=ambiguity,
    )
    got = cd.generate(spec).samples
    ref = generate_reference(spec)
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


SPECTRUM_CASES = [
    (22050.0, SpectralConfig()),
    (22050.0, SpectralConfig(n_lines=2)),
    (22050.0, SpectralConfig(n_lines=4096)),
    (22050.0, SpectralConfig(f_max_hz=11025.0)),  # Nyquist: the whole axis
    # 2500 Hz plus half a bin of the 16 384-point transform: between two bins
    (22050.0, SpectralConfig(f_max_hz=2500.0 + 0.5 * 22050.0 / 16384)),
    (22050.0, SpectralConfig(f_max_hz=1858 * 22050.0 / 16384)),  # on bin 1858
    (8000.0, SpectralConfig()),
    (8000.0, SpectralConfig(f_max_hz=4000.0)),
    (44100.0, SpectralConfig()),
    (44100.0, SpectralConfig(n_lines=300, f_max_hz=3333.3)),
]


@pytest.mark.parametrize("rate, config", SPECTRUM_CASES)
def test_magnitude_spectrum_matches_all_bin_reference(rate, config):
    rng = np.random.default_rng(int(rate) + config.n_lines)
    window_n = int(round(config.window_s * rate))
    t = np.arange(window_n) / rate
    windows = np.stack([
        rng.standard_normal(window_n),
        np.sin(2 * np.pi * 997.0 * t) + 0.1 * rng.standard_normal(window_n),
        np.zeros(window_n),
    ])
    got = cd.magnitude_spectrum(windows, rate, config)
    ref = magnitude_spectrum_reference(windows, rate, config)
    assert got.shape == (3, config.n_lines)
    assert got.tobytes() == ref.tobytes()
    # one window at a time gives the same bits as the batch
    assert cd.magnitude_spectrum(windows[1], rate, config).tobytes() == got[1].tobytes()


@pytest.mark.parametrize("rate, config", SPECTRUM_CASES)
def test_extract_frames_matches_all_bin_reference(rate, config):
    spec = cd.SynthSpec(MC.CHATTER, 1800.0, 3, 955.0, duration_s=0.35, seed=8)
    # the synthesized samples read at this rate: still a multi-tone signal
    signal = cd.TimeSignal(cd.generate(spec).samples, rate)
    frames = cd.extract_frames(signal, config)
    windows = _frames(signal.samples, *frame_counts(signal.samples.size, rate, config))
    ref = cd.renormalize(magnitude_spectrum_reference(windows, rate, config), config)
    assert len(frames) == len(ref) > 0
    for frame, lines in zip(frames, ref):
        assert frame.lines.tobytes() == lines.tobytes()
