import json

import numpy as np
import pytest

import chatterdetect as cd
from chatterdetect.errors import InfeasibleSpec, IoFailure
from chatterdetect.synth import MANIFEST_NAME, sample_count, spec_from_dict, spec_to_dict
from chatterdetect.spectral import SpectralConfig

CFG = SpectralConfig()
GRID = CFG.grid_hz()


def brute_force_grid_distance(freq, f_tp, k_max=200):
    return min(abs(freq - k * f_tp) for k in range(1, k_max + 1))


def test_harmonic_grid_distance_known_values():
    assert cd.harmonic_grid_distance(300.0, 100.0) == 0.0
    assert cd.harmonic_grid_distance(250.0, 100.0) == 50.0
    # frozen from the brute-force oracle below: min_k |733 - 120k| = |733 - 720|
    assert cd.harmonic_grid_distance(733.0, 120.0) == pytest.approx(13.0)
    assert brute_force_grid_distance(733.0, 120.0) == pytest.approx(13.0)


def test_harmonic_grid_distance_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(300):
        freq = rng.uniform(1.0, 2500.0)
        f_tp = rng.uniform(20.0, 500.0)
        assert cd.harmonic_grid_distance(freq, f_tp) == pytest.approx(
            brute_force_grid_distance(freq, f_tp), abs=1e-9
        )


def test_generate_is_deterministic():
    spec = cd.SynthSpec(cd.MachiningClass.CHATTER, 1800.0, 3, 955.0, seed=21)
    a, b = cd.generate(spec), cd.generate(spec)
    assert np.array_equal(a.samples, b.samples)
    assert a.sample_rate_hz == 22050.0


def test_rotation_spectrum_peaks_only_at_spindle_harmonics():
    spec = cd.SynthSpec(
        cd.MachiningClass.ROTATION_NO_MACHINING, 1800.0, 3, 955.0,
        noise_sigma=0.0, seed=4,
    )
    sig = cd.generate(spec)
    window = cd.frame_signal(sig, CFG)[0]
    mags = cd.magnitude_spectrum(window, sig.sample_rate_hz, CFG)
    f_r = 30.0
    strong = GRID[mags >= 0.1 * mags.max()]
    # nothing above the third spindle harmonic plus the window lobe width
    assert strong.max() <= 3 * f_r + 20.0
    top = GRID[int(np.argmax(mags))]
    assert min(abs(top - k * f_r) for k in (1, 2, 3)) <= 2.5


def test_chatter_strongest_line_off_harmonic_grid():
    items = cd.generate_corpus(
        8, 0.0, [1800, 3000], seed=91, chatter_ratio=3.0, noise_sigma=0.02
    )
    chatter = [it for it in items if it.spec.signal_class is cd.MachiningClass.CHATTER]
    assert chatter
    for it in chatter:
        frame = cd.extract_frames(it.signal, CFG)[0]
        top_hz = GRID[int(np.argmax(frame.lines))]
        assert cd.harmonic_grid_distance(top_hz, it.spec.f_tooth_pass_hz) >= 5.0


def test_machining_strongest_line_on_harmonic_grid():
    items = cd.generate_corpus(8, 0.0, [1800, 3000], seed=92, noise_sigma=0.02)
    machining = [
        it for it in items
        if it.spec.signal_class is cd.MachiningClass.MACHINING_NO_CHATTER
    ]
    grid_spacing = GRID[1] - GRID[0]
    for it in machining:
        frame = cd.extract_frames(it.signal, CFG)[0]
        top_hz = GRID[int(np.argmax(frame.lines))]
        assert cd.harmonic_grid_distance(top_hz, it.spec.f_tooth_pass_hz) <= 2 * grid_spacing


def test_amplitude_scale_never_reaches_frames():
    base = cd.SynthSpec(cd.MachiningClass.CHATTER, 3000.0, 3, 1234.0, seed=8,
                        amplitude_scale=1.0)
    scaled = cd.SynthSpec(cd.MachiningClass.CHATTER, 3000.0, 3, 1234.0, seed=8,
                          amplitude_scale=1000.0)
    for f0, f1 in zip(
        cd.extract_frames(cd.generate(base), CFG),
        cd.extract_frames(cd.generate(scaled), CFG),
    ):
        assert np.array_equal(f0.lines, f1.lines)


def test_infeasible_chatter_tone():
    # structural mode parked exactly on the fourth tooth-passing harmonic:
    # every tone within +-3 Hz stays inside the 5 Hz exclusion zone
    spec = cd.SynthSpec(cd.MachiningClass.CHATTER, 3000.0, 3, 600.0, seed=0)
    with pytest.raises(InfeasibleSpec):
        cd.generate(spec)


def test_spec_band_validation():
    with pytest.raises(InfeasibleSpec):
        cd.SynthSpec(cd.MachiningClass.CHATTER, 60000.0, 3, 955.0)  # f_tp 3000 > band
    with pytest.raises(ValueError):
        cd.SynthSpec(cd.MachiningClass.CHATTER, 1800.0, 3, 955.0, ambiguity=1.0)
    with pytest.raises(ValueError):
        cd.SynthSpec(cd.MachiningClass.CHATTER, 1800.0, 3, 955.0, amplitude_scale=0.0)


NAN, INF = float("nan"), float("inf")
MAX_SAMPLES = (2**32 - 37) // 2  # the most one PCM16 WAV data chunk holds
BAD_SPEC_VALUES = [
    ("duration_s", NAN), ("duration_s", INF), ("duration_s", 0.0),
    # no sample, or more than one WAV file holds, at 22 050 Hz (1e-9 used to
    # fail in TimeSignal with a raw ValueError, 1e12 in a MemoryError)
    ("duration_s", 1e-9), ("duration_s", 0.5 / 22050),
    ("duration_s", (MAX_SAMPLES + 1) / 22050), ("duration_s", 1e12), ("duration_s", 1e308),
    ("amplitude_scale", NAN), ("amplitude_scale", INF),
    ("chatter_ratio", NAN), ("chatter_ratio", INF), ("chatter_ratio", -0.5),
    ("noise_sigma", NAN), ("noise_sigma", INF), ("noise_sigma", -1.0),
    ("seed", -1),
]


@pytest.mark.parametrize("field, value", BAD_SPEC_VALUES)
def test_spec_rejects_non_finite_and_negative_values(field, value):
    # each used to fail inside generate, or (noise_sigma) to drop the noise
    with pytest.raises(ValueError, match=field):
        cd.SynthSpec(cd.MachiningClass.CHATTER, 1800.0, 3, 955.0, **{field: value})


def test_spec_length_bounds_are_inclusive():
    assert sample_count(MAX_SAMPLES / 22050) == MAX_SAMPLES
    assert sample_count(0.51 / 22050) == 1
    spec = cd.SynthSpec(cd.MachiningClass.ROTATION_NO_MACHINING, 3000.0, 3, 1234.0,
                        duration_s=1 / 22050)
    assert cd.generate(spec).samples.size == 1


def test_spec_accepts_zero_noise_and_zero_chatter_ratio():
    spec = cd.SynthSpec(cd.MachiningClass.CHATTER, 1800.0, 3, 955.0,
                        noise_sigma=0.0, chatter_ratio=0.0, seed=0)
    assert np.all(np.isfinite(cd.generate(spec).samples))


def test_corpus_counts_and_determinism():
    items = cd.generate_corpus(1, 0.0, [1800], seed=7)
    again = cd.generate_corpus(1, 0.0, [1800], seed=7)
    assert len(items) == 3
    for a, b in zip(items, again):
        assert a.spec == b.spec
        assert np.array_equal(a.signal.samples, b.signal.samples)

    per_class = {cls: 0 for cls in cd.MachiningClass}
    for it in items:
        per_class[it.spec.signal_class] += 1
    assert all(v == 1 for v in per_class.values())


def test_corpus_ambiguous_fraction():
    items = cd.generate_corpus(100, 0.1, [1800], seed=5, duration_s=0.2)
    assert len(items) == 300
    flagged = [it for it in items if it.ambiguous]
    assert len(flagged) == 30
    assert all(it.spec.ambiguity > 0 for it in flagged)
    assert all(it.spec.ambiguity == 0 for it in items if not it.ambiguous)


def test_corpus_covers_every_rpm_choice():
    items = cd.generate_corpus(6, 0.0, [1800, 3000], seed=19)
    machining = [
        it for it in items
        if it.spec.signal_class is cd.MachiningClass.MACHINING_NO_CHATTER
    ]
    nominals = set()
    for it in machining:
        # true speed wanders a little around the nominal setting
        nominal = min((1800.0, 3000.0), key=lambda r: abs(r - it.spec.spindle_rpm))
        assert abs(it.spec.spindle_rpm - nominal) <= 0.08 * nominal
        nominals.add(nominal)
        frame = cd.extract_frames(it.signal, CFG)[0]
        top_hz = GRID[int(np.argmax(frame.lines))]
        assert abs(top_hz - it.spec.f_tooth_pass_hz) <= 2 * (GRID[1] - GRID[0])
    assert nominals == {1800.0, 3000.0}


def test_corpus_signals_fit_wav_range():
    items = cd.generate_corpus(2, 0.5, [1800, 3000], seed=23)
    for it in items:
        assert np.max(np.abs(it.signal.samples)) <= 1.0
        assert it.labels.intervals[0].label is it.spec.signal_class


def test_corpus_round_trip_via_directory(tmp_path, small_corpus):
    cd.write_corpus(small_corpus, tmp_path / "c")
    back = cd.read_corpus(tmp_path / "c")
    assert len(back) == len(small_corpus)
    for a, b in zip(small_corpus, back):
        assert a.item_id == b.item_id
        assert a.ambiguous == b.ambiguous
        assert a.spec == b.spec
        assert a.labels == b.labels
        # WAV quantization: equal within one 16-bit step
        assert np.max(np.abs(a.signal.samples - b.signal.samples)) <= 1.0 / 32768


@pytest.mark.parametrize(
    "duration_s, n_frames", [(0.99999, 10), (0.0999996, 1), (0.3, 3), (1.2, 12), (3.3, 33)]
)
def test_labels_cover_the_whole_signal(tmp_path, duration_s, n_frames):
    # duration_s rounds to 22 050 and 2 205 samples, so the labels must end
    # at 1.0 s and 0.1 s for the last frame to fit them; at 0.3, 1.2 and
    # 3.3 s the last frame's start plus 0.1 s rounds above the signal's end
    items = cd.generate_corpus(1, 0.0, [1800], seed=2, duration_s=duration_s)
    cd.write_corpus(items, tmp_path)
    for corpus in (items, cd.read_corpus(tmp_path)):
        pairs = [(it.signal, it.labels, it.ambiguous) for it in corpus]
        ds = cd.build_dataset(pairs, CFG, test_fraction=0.0)
        assert ds.manifest["dropped_frames"] == "0"
        assert len(ds) == len(corpus) * n_frames


def test_corpus_read_back_from_its_files_builds_the_same_dataset(tmp_path):
    # the labels end at 22 057 / 22 050 s = 1.0003174... s, on the last
    # frame's last sample; six decimals would end them before it
    config = SpectralConfig(window_s=0.1003)
    items = cd.generate_corpus(1, 0.0, [1800], seed=4, duration_s=22057 / 22050)
    cd.write_corpus(items, tmp_path)
    built = [
        cd.build_dataset([(it.signal, it.labels, it.ambiguous) for it in corpus], config)
        for corpus in (items, cd.read_corpus(tmp_path))
    ]
    assert built[0].manifest == built[1].manifest
    assert built[0].manifest["dropped_frames"] == "0"
    # the lines differ by the WAV's quantization; every other field is equal
    for key in ["source", "frame_index", "t_start", "label", "split"]:
        assert built[0].records[key].tobytes() == built[1].records[key].tobytes()


def test_spec_dict_lists_class_then_fields_in_order():
    spec = cd.SynthSpec(cd.MachiningClass.MACHINING_NO_CHATTER, 1800.5, 4, 955.25,
                        chatter_ratio=2.5, seed=7, ambiguity=0.2)
    d = spec_to_dict(spec)
    assert list(d) == ["class", "spindle_rpm", "n_teeth", "structural_mode_hz",
                       "chatter_ratio", "noise_sigma", "amplitude_scale", "duration_s",
                       "seed", "ambiguity"]
    assert d["class"] == "machining" and d["n_teeth"] == 4 and d["seed"] == 7
    assert spec_from_dict(d) == spec
    # values are converted by each field's type
    back = spec_from_dict(dict(d, n_teeth="4", spindle_rpm="1800.5"))
    assert back == spec and type(back.n_teeth) is int


_DROP = object()


def _with(doc, *keys, value=_DROP):
    """`doc` with the item at `keys` set to `value`, or deleted."""
    target = doc
    for key in keys[:-1]:
        target = target[key]
    if value is _DROP:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    return doc


BROKEN_MANIFESTS = {
    "list": lambda m: m["signals"],
    "string": lambda m: "signals",
    "no-signals": lambda m: _with(m, "signals"),
    "signals-not-a-list": lambda m: _with(m, "signals", value=5),
    "record-not-a-dict": lambda m: _with(m, "signals", value=["a"]),
    "no-id": lambda m: _with(m, "signals", 0, "id"),
    "no-wav": lambda m: _with(m, "signals", 0, "wav"),
    "no-ambiguous": lambda m: _with(m, "signals", 0, "ambiguous"),
    # bool("false") is True: a quoted flag would send the signal to test2
    "ambiguous-string": lambda m: _with(m, "signals", 0, "ambiguous", value="false"),
    "ambiguous-number": lambda m: _with(m, "signals", 0, "ambiguous", value=0),
    "ambiguous-null": lambda m: _with(m, "signals", 0, "ambiguous", value=None),
    "spec-not-a-dict": lambda m: _with(m, "signals", 0, "spec", value=[1, 2]),
    "spec-missing-field": lambda m: _with(m, "signals", 0, "spec", "seed"),
    "spec-bad-number": lambda m: _with(m, "signals", 0, "spec", "spindle_rpm", value="fast"),
    "spec-null-number": lambda m: _with(m, "signals", 0, "spec", "n_teeth", value=None),
    "spec-fractional-int": lambda m: _with(m, "signals", 0, "spec", "n_teeth", value=3.7),
    "spec-fractional-seed": lambda m: _with(m, "signals", 0, "spec", "seed", value=1.5),
    "spec-bool-int": lambda m: _with(m, "signals", 0, "spec", "n_teeth", value=True),
    "spec-bad-class": lambda m: _with(m, "signals", 0, "spec", "class", value="drilling"),
    "spec-out-of-range": lambda m: _with(m, "signals", 0, "spec", "amplitude_scale", value=-1),
    "spec-negative-noise": lambda m: _with(m, "signals", 0, "spec", "noise_sigma", value=-1.0),
    "spec-infeasible": lambda m: _with(m, "signals", 0, "spec", "spindle_rpm", value=1e6),
    "spec-no-sample": lambda m: _with(m, "signals", 0, "spec", "duration_s", value=1e-9),
    "spec-too-long": lambda m: _with(m, "signals", 0, "spec", "duration_s", value=1e12),
}


@pytest.mark.parametrize("damage", list(BROKEN_MANIFESTS))
def test_malformed_corpus_manifest_is_io_failure(tmp_path, small_corpus, damage):
    cd.write_corpus(small_corpus[:2], tmp_path)
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(BROKEN_MANIFESTS[damage](manifest)))
    with pytest.raises(IoFailure) as info:
        cd.read_corpus(tmp_path)
    assert str(info.value).startswith(f"cannot read {tmp_path / MANIFEST_NAME}: ")


def test_read_corpus_without_manifest(tmp_path):
    sig = cd.generate(cd.SynthSpec(cd.MachiningClass.CHATTER, 1800.0, 3, 955.0, seed=2,
                                   amplitude_scale=0.05))
    cd.save_wav(sig, tmp_path / "a.wav")
    cd.save_labels(
        cd.LabelTrack((cd.LabelInterval(0.0, 1.0, cd.MachiningClass.CHATTER),)),
        tmp_path / "a.labels.csv",
    )
    items = cd.read_corpus(tmp_path)
    assert len(items) == 1
    assert items[0].item_id == "a"
    assert items[0].ambiguous is False and items[0].spec is None
